//! Immutable text that is cheap to hand to every simulated world: device
//! names, software identities, model versions.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable string held as a literal, as text shared by reference
/// count, or as an owned copy.
///
/// Made from a literal or from an `Arc<str>`, and cloned from either, it
/// allocates nothing, so a name fixed in the code ("probe", "scanner") or
/// shared across a fleet costs a world build nothing. A `String` is kept
/// as it is, with no copy; cloning that one copies it. Equality and
/// formatting go by the text alone.
#[derive(Clone)]
pub enum SharedStr {
    /// A string literal.
    Static(&'static str),
    /// Text shared by reference count.
    Shared(Arc<str>),
    /// Text owned by this value alone.
    Owned(String),
}

impl SharedStr {
    /// The text.
    pub fn as_str(&self) -> &str {
        match self {
            SharedStr::Static(s) => s,
            SharedStr::Shared(s) => s,
            SharedStr::Owned(s) => s,
        }
    }

    /// Moves `text` into shared storage, so that clones cost nothing.
    pub fn shared(text: impl Into<Arc<str>>) -> SharedStr {
        SharedStr::Shared(text.into())
    }
}

impl Deref for SharedStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&'static str> for SharedStr {
    fn from(s: &'static str) -> SharedStr {
        SharedStr::Static(s)
    }
}

impl From<&Arc<str>> for SharedStr {
    fn from(s: &Arc<str>) -> SharedStr {
        SharedStr::Shared(Arc::clone(s))
    }
}

impl From<String> for SharedStr {
    fn from(s: String) -> SharedStr {
        SharedStr::Owned(s)
    }
}

impl PartialEq for SharedStr {
    fn eq(&self, other: &SharedStr) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SharedStr {}

impl fmt::Debug for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_and_formats_by_text_alone() {
        let forms = [
            SharedStr::from("edge"),
            SharedStr::shared("edge"),
            SharedStr::from(String::from("edge")),
        ];
        for a in &forms {
            assert_eq!(a.as_str(), "edge");
            assert_eq!(format!("{a} {a:?}"), "edge \"edge\"");
            for b in &forms {
                assert_eq!(a, b);
            }
        }
        assert_ne!(SharedStr::from("a"), SharedStr::shared("b"));
    }

    #[test]
    fn literals_and_shared_text_clone_in_place() {
        let literal = SharedStr::from("probe");
        let SharedStr::Static(text) = literal.clone() else { panic!("a literal stays static") };
        assert!(std::ptr::eq(text, "probe"));
        let shared = SharedStr::shared("Comcast-edge");
        match (&shared, shared.clone()) {
            (SharedStr::Shared(a), SharedStr::Shared(b)) => assert!(Arc::ptr_eq(a, &b)),
            _ => panic!("shared text stays shared"),
        }
    }
}
