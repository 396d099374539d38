//! Domain names: storage, parsing with compression-pointer chasing, and
//! encoding with compression.
//!
//! Names are stored in canonical wire form (length-prefixed labels ending in
//! a zero octet) behind a shared `Arc<[u8]>` buffer, so cloning a name —
//! which the measurement pipeline does for every query it builds — is a
//! reference-count bump, not a heap copy. The label count is computed once
//! at construction. Comparison and hashing are ASCII-case-insensitive, per
//! RFC 1035 §2.3.3.

use crate::error::{BuildError, ParseError};
use crate::wire::{Reader, Writer};
use core::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Maximum total length of a name on the wire (RFC 1035 §2.3.4).
pub(crate) const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label.
pub(crate) const MAX_LABEL_LEN: usize = 63;
/// Maximum number of compression pointers we will chase before declaring a
/// loop. A message of 64 KiB can hold fewer than 16K pointers in a legal
/// chain because each pointer must point strictly backwards; 128 is already
/// far beyond anything produced by real software.
const MAX_POINTER_CHASES: usize = 128;

/// Walks a (possibly compressed) name at the reader's cursor, enforcing
/// exactly the rules of [`Name::parse`]: strictly-backwards pointers, a
/// bounded chase chain, legal label types, and the 255-octet total limit.
///
/// `f` is invoked once per label in order; returning `false` aborts the
/// walk early (the result is `Ok(false)` and the caller's reader is left
/// mid-name — only use early abort with a throwaway reader). On a complete
/// walk the caller's reader ends just past the name *as it appears at the
/// cursor's starting position*, i.e. after the pointer if compressed.
pub(crate) fn walk_name<'a>(
    r: &mut Reader<'a>,
    f: &mut dyn FnMut(&'a [u8]) -> bool,
) -> Result<bool, ParseError> {
    // Cursor for chasing; once we follow the first pointer we stop
    // advancing the caller's reader.
    let mut chase = *r;
    let mut followed_pointer = false;
    let mut chases = 0usize;
    let mut last_pointer_target = usize::MAX;
    let mut wire_len = 0usize;
    loop {
        let offset = chase.position();
        let len = chase.read_u8()?;
        match len {
            0 => {
                wire_len += 1;
                if !followed_pointer {
                    *r = chase;
                }
                if wire_len > MAX_NAME_LEN {
                    return Err(ParseError::NameTooLong);
                }
                return Ok(true);
            }
            1..=63 => {
                let label = chase.read_bytes(len as usize)?;
                wire_len += 1 + len as usize;
                if wire_len > MAX_NAME_LEN {
                    return Err(ParseError::NameTooLong);
                }
                if !followed_pointer {
                    *r = chase;
                }
                if !f(label) {
                    return Ok(false);
                }
            }
            0xC0..=0xFF => {
                let second = chase.read_u8()?;
                let target = (((len & 0x3F) as usize) << 8) | second as usize;
                // Pointers must move strictly backwards to rule out loops;
                // we additionally bound the chain length.
                if target >= offset || target >= last_pointer_target {
                    return Err(ParseError::BadPointer { offset });
                }
                chases += 1;
                if chases > MAX_POINTER_CHASES {
                    return Err(ParseError::BadPointer { offset });
                }
                if !followed_pointer {
                    *r = chase;
                    followed_pointer = true;
                }
                last_pointer_target = target;
                chase.seek(target)?;
            }
            _ => {
                // 0x40..=0xBF: reserved label types (EDNS0 extended labels
                // were never deployed).
                return Err(ParseError::BadLabel { offset });
            }
        }
    }
}

/// Decompresses the name at the cursor into `out` under [`walk_name`]'s
/// rules, returning the canonical wire length and the label count. The
/// cursor ends past the name as [`Name::parse`] leaves it.
pub(crate) fn decompress(
    r: &mut Reader<'_>,
    out: &mut [u8; MAX_NAME_LEN],
) -> Result<(usize, u8), ParseError> {
    let mut len = 0usize;
    let mut labels = 0u8;
    walk_name(r, &mut |label| {
        // walk_name has already checked the 255-octet bound, so these
        // writes stay inside the buffer.
        out[len] = label.len() as u8;
        out[len + 1..len + 1 + label.len()].copy_from_slice(label);
        len += 1 + label.len();
        labels += 1;
        true
    })?;
    out[len] = 0;
    Ok((len + 1, labels))
}

/// An owned, validated domain name in wire form.
///
/// ```
/// use dns_wire::Name;
/// let n: Name = "version.bind".parse().unwrap();
/// assert_eq!(n.label_count(), 2);
/// assert_eq!(n.to_string(), "version.bind.");
/// ```
#[derive(Clone)]
pub struct Name {
    /// Canonical wire form: `\x07version\x04bind\x00`. Always non-empty,
    /// always terminated by a zero octet, and shared: clones bump a
    /// refcount instead of copying.
    wire: Arc<[u8]>,
    /// Label count, fixed at construction (the root has zero).
    labels: u8,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name { wire: Arc::from(&[0u8][..]), labels: 0 }
    }

    /// Builds a name from an iterator of label byte-slices.
    pub fn from_labels<'a, I>(labels: I) -> Result<Self, BuildError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut wire = Vec::with_capacity(32);
        let mut count = 0u8;
        for label in labels {
            if label.is_empty() {
                return Err(BuildError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(BuildError::LabelTooLong);
            }
            wire.push(label.len() as u8);
            wire.extend_from_slice(label);
            count = count.saturating_add(1);
        }
        wire.push(0);
        if wire.len() > MAX_NAME_LEN {
            return Err(BuildError::NameTooLong);
        }
        Ok(Name { wire: wire.into(), labels: count })
    }

    /// True for the root name.
    pub(crate) fn is_root(&self) -> bool {
        self.wire.as_ref() == [0]
    }

    /// Number of labels (the root has zero). Cached at construction — this
    /// is a field read, not a walk.
    pub fn label_count(&self) -> usize {
        self.labels as usize
    }

    /// Iterates over the labels as byte slices, left to right.
    pub fn labels(&self) -> LabelIter<'_> {
        LabelIter { wire: &self.wire, pos: 0 }
    }

    /// The canonical (uncompressed) wire bytes.
    pub fn as_wire(&self) -> &[u8] {
        &self.wire
    }

    /// True if `self` equals `other` or is a subdomain of `other`
    /// (case-insensitively). Every name is under the root.
    ///
    /// Walks `self`'s wire form in place to skip the leading labels, then
    /// compares the remaining suffix bytes directly — no per-call label
    /// collection.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        wire_is_subdomain_of(&self.wire, self.labels as usize, other)
    }

    /// Returns the parent name (one label stripped), or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            return None;
        }
        let first_len = self.wire[0] as usize;
        Some(Name { wire: Arc::from(&self.wire[1 + first_len..]), labels: self.labels - 1 })
    }

    /// Joins `self` (treated as a relative prefix) onto `suffix`.
    ///
    /// The wire forms are concatenated directly (prefix minus its root
    /// octet, then the suffix) — both sides are already validated, so no
    /// label re-walk is needed.
    pub fn join(&self, suffix: &Name) -> Result<Name, BuildError> {
        let total = (self.wire.len() - 1) + suffix.wire.len();
        if total > MAX_NAME_LEN {
            return Err(BuildError::NameTooLong);
        }
        let mut wire = Vec::with_capacity(total);
        wire.extend_from_slice(&self.wire[..self.wire.len() - 1]);
        wire.extend_from_slice(&suffix.wire);
        Ok(Name { wire: wire.into(), labels: self.labels + suffix.labels })
    }

    /// Parses a name from the reader, chasing compression pointers.
    ///
    /// The cursor ends just past the name *as it appears at the cursor's
    /// starting position* (i.e. after the pointer, if the name was
    /// compressed), which is what message parsing needs.
    ///
    /// Decompresses through a stack buffer (names are at most 255 octets),
    /// so the only heap allocation is the final shared buffer. A name whose
    /// wire form is exactly that of one of the fixed debugging-query names
    /// (case included) shares the interned buffer instead, with no
    /// allocation at all.
    pub fn parse(r: &mut Reader<'_>) -> Result<Self, ParseError> {
        let mut buf = [0u8; MAX_NAME_LEN];
        let (len, labels) = decompress(r, &mut buf)?;
        let wire = &buf[..len];
        if let Some(name) = crate::debug_queries::interned_wire(wire) {
            return Ok(name.clone());
        }
        Ok(Name { wire: Arc::from(wire), labels })
    }

    /// Encodes the name, compressing against previously written names.
    pub fn encode(&self, w: &mut Writer, compress: Option<&mut NameCompressor>) {
        match compress {
            Some(comp) => write_compressed(w, comp, &self.wire),
            None => w.write_bytes(&self.wire),
        }
    }
}

/// [`Name::is_subdomain_of`] for the name with canonical wire form `wire`
/// and `labels` labels: skips the leading labels in place, then compares
/// the remaining suffix bytes directly.
pub(crate) fn wire_is_subdomain_of(wire: &[u8], labels: usize, other: &Name) -> bool {
    let theirs = other.labels as usize;
    if theirs > labels {
        return false;
    }
    let mut pos = 0usize;
    for _ in 0..labels - theirs {
        pos += 1 + wire[pos] as usize;
    }
    wire[pos..].eq_ignore_ascii_case(&other.wire)
}

/// The number of labels in the canonical wire form `wire`.
pub(crate) fn label_count(wire: &[u8]) -> usize {
    LabelIter { wire, pos: 0 }.count()
}

/// Writes the name whose canonical wire form is `wire`, compressing
/// against the names `comp` has seen written into `w`.
pub(crate) fn write_compressed(w: &mut Writer, comp: &mut NameCompressor, wire: &[u8]) {
    // Walk suffixes from the full name down to the root. Only names
    // already complete are candidates: a label start recorded while
    // writing this name leads into bytes not yet written.
    let completed = comp.starts.len();
    let mut pos = 0usize;
    loop {
        let suffix = &wire[pos..];
        if suffix == [0] {
            w.write_u8(0);
            return;
        }
        if let Some(offset) = comp.find(w.as_slice(), suffix, completed) {
            w.write_u16(0xC000 | offset);
            return;
        }
        let here = w.len();
        if here <= 0x3FFF {
            comp.starts.push(here as u16);
        }
        let label_len = wire[pos] as usize;
        w.write_bytes(&wire[pos..pos + 1 + label_len]);
        pos += 1 + label_len;
    }
}

/// Name-compression state for one message encode.
///
/// Replaces the old `HashMap<Vec<u8>, u16>` suffix map, which allocated a
/// lower-cased key per suffix per name. This keeps only the offsets of
/// labels written literally into the message; candidate suffixes are
/// compared against the already-written bytes in place (chasing pointers),
/// so a warm compressor encodes without touching the heap. Offsets beyond
/// 0x3FFF cannot be pointer targets and are not recorded.
#[derive(Debug, Default)]
pub struct NameCompressor {
    /// Offsets (into the message being written) of every label start that
    /// was emitted literally, in emission order. First match wins, which
    /// reproduces the first-insertion-wins behaviour of the old map.
    starts: Vec<u16>,
}

impl NameCompressor {
    /// An empty compressor.
    pub fn new() -> NameCompressor {
        NameCompressor::default()
    }

    /// Forgets all recorded offsets; call between messages.
    pub fn clear(&mut self) {
        self.starts.clear();
    }

    /// Finds a previously written name suffix equal (case-insensitively) to
    /// `suffix` (canonical wire form ending in the root octet), returning
    /// its offset. Only the first `completed` recorded starts are
    /// candidates: they belong to names written in full, so each resolves
    /// to a complete suffix chain, which the walk follows label by label
    /// through pointers. A start inside the name still being written could
    /// only mismatch or run past the end of `buf`.
    fn find(&self, buf: &[u8], suffix: &[u8], completed: usize) -> Option<u16> {
        'candidates: for &start in &self.starts[..completed] {
            let mut off = start as usize;
            let mut spos = 0usize;
            loop {
                let len = buf[off] as usize;
                if len & 0xC0 == 0xC0 {
                    off = ((len & 0x3F) << 8) | buf[off + 1] as usize;
                    continue;
                }
                let slen = suffix[spos] as usize;
                if len != slen {
                    continue 'candidates;
                }
                if len == 0 {
                    return Some(start);
                }
                if !buf[off + 1..off + 1 + len]
                    .eq_ignore_ascii_case(&suffix[spos + 1..spos + 1 + slen])
                {
                    continue 'candidates;
                }
                off += 1 + len;
                spos += 1 + slen;
            }
        }
        None
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.wire.len() == other.wire.len() && self.wire.eq_ignore_ascii_case(&other.wire)
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for b in self.wire.iter() {
            state.write_u8(b.to_ascii_lowercase());
        }
    }
}

impl fmt::Display for Name {
    /// Presentation form with a trailing dot; non-printable bytes are
    /// escaped as `\DDD` like BIND does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for label in self.labels() {
            for &b in label {
                match b {
                    b'.' | b'\\' => write!(f, "\\{}", b as char)?,
                    0x21..=0x7E => write!(f, "{}", b as char)?,
                    _ => write!(f, "\\{:03}", b)?,
                }
            }
            write!(f, ".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl FromStr for Name {
    type Err = BuildError;

    /// Parses presentation form. A trailing dot is accepted; escapes are not
    /// (none of the names this system handles need them).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(s.split('.').map(str::as_bytes))
    }
}

/// Iterator over a name's labels.
pub struct LabelIter<'a> {
    wire: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for LabelIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = *self.wire.get(self.pos)? as usize;
        if len == 0 {
            return None;
        }
        let start = self.pos + 1;
        self.pos = start + len;
        self.wire.get(start..start + len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_presentation_roundtrip() {
        let n = name("o-o.myaddr.l.google.com");
        assert_eq!(n.to_string(), "o-o.myaddr.l.google.com.");
        assert_eq!(n.label_count(), 5);
    }

    #[test]
    fn root_name() {
        let r = Name::root();
        assert!(r.is_root());
        assert_eq!(r.to_string(), ".");
        assert_eq!(r.label_count(), 0);
        assert_eq!(name("."), r);
        assert_eq!(name(""), r);
    }

    #[test]
    fn parse_shares_interned_debug_names_byte_exact() {
        use crate::debug_queries;
        let parse = |wire: &[u8]| Name::parse(&mut Reader::new(wire)).unwrap();
        let interned = debug_queries::version_bind();
        let parsed = parse(b"\x07version\x04bind\x00");
        assert!(std::ptr::eq(parsed.as_wire().as_ptr(), interned.as_wire().as_ptr()));
        assert_eq!(parsed.label_count(), 2);
        // Another case is the same name but keeps its own bytes.
        let upper = parse(b"\x07VERSION\x04bind\x00");
        assert_eq!(upper, interned);
        assert!(!std::ptr::eq(upper.as_wire().as_ptr(), interned.as_wire().as_ptr()));
        assert_eq!(upper.as_wire(), b"\x07VERSION\x04bind\x00");
        assert_eq!(upper.to_string(), "VERSION.bind.");
        // A name that merely contains a debugging name is not interned.
        let longer = parse(b"\x02id\x07version\x04bind\x00");
        assert_eq!(longer.to_string(), "id.version.bind.");
        assert_eq!(longer.label_count(), 3);
    }

    #[test]
    fn clone_shares_the_wire_buffer() {
        let a = name("www.example.com");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_wire().as_ptr(), b.as_wire().as_ptr()));
        assert_eq!(a, b);
    }

    #[test]
    fn label_count_is_cached_consistently() {
        for s in ["", "com", "example.com", "a.b.c.d.e.f.g"] {
            let n = name(s);
            assert_eq!(n.label_count(), n.labels().count(), "{s:?}");
            // Parse from wire agrees with presentation parse.
            let mut r = Reader::new(n.as_wire());
            let back = Name::parse(&mut r).unwrap();
            assert_eq!(back.label_count(), n.label_count(), "{s:?}");
            // parent/join keep the cache honest.
            if let Some(p) = n.parent() {
                assert_eq!(p.label_count(), p.labels().count());
            }
            let joined = name("x").join(&n).unwrap();
            assert_eq!(joined.label_count(), joined.labels().count());
        }
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = name("VERSION.BIND");
        let b = name("version.bind");
        assert_eq!(a, b);
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn subdomain_relation() {
        let apex = name("example.com");
        assert!(name("www.example.com").is_subdomain_of(&apex));
        assert!(name("a.b.EXAMPLE.com").is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(!name("example.org").is_subdomain_of(&apex));
        assert!(!name("com").is_subdomain_of(&apex));
        assert!(name("anything.at.all").is_subdomain_of(&Name::root()));
    }

    #[test]
    fn subdomain_rejects_same_depth_mismatch() {
        // Equal label counts but different leading label: the suffix
        // comparison must not be fooled by matching tails.
        assert!(!name("www.example.com").is_subdomain_of(&name("ftp.example.com")));
        assert!(!name("a.example.com").is_subdomain_of(&name("example.org")));
    }

    #[test]
    fn parent_walk() {
        let n = name("a.b.c");
        let p = n.parent().unwrap();
        assert_eq!(p, name("b.c"));
        assert_eq!(p.parent().unwrap(), name("c"));
        assert_eq!(p.parent().unwrap().parent().unwrap(), Name::root());
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn join_names() {
        let rel = name("www");
        let apex = name("example.com");
        assert_eq!(rel.join(&apex).unwrap(), name("www.example.com"));
    }

    #[test]
    fn join_too_long_rejected() {
        let l = "a".repeat(63);
        let long = name(&format!("{l}.{l}.{l}"));
        let more = name(&l);
        assert_eq!(more.join(&long).unwrap_err(), BuildError::NameTooLong);
    }

    #[test]
    fn wire_parse_simple() {
        let bytes = b"\x07example\x03com\x00rest";
        let mut r = Reader::new(bytes);
        let n = Name::parse(&mut r).unwrap();
        assert_eq!(n, name("example.com"));
        assert_eq!(r.position(), 13);
    }

    #[test]
    fn wire_parse_compression_pointer() {
        // Offset 0: "example.com", offset 13: "www" + pointer to 0.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"\x07example\x03com\x00");
        bytes.extend_from_slice(b"\x03www\xC0\x00");
        let mut r = Reader::new(&bytes);
        r.seek(13).unwrap();
        let n = Name::parse(&mut r).unwrap();
        assert_eq!(n, name("www.example.com"));
        // Cursor lands after the two pointer bytes.
        assert_eq!(r.position(), bytes.len());
    }

    #[test]
    fn wire_parse_rejects_forward_pointer() {
        // Pointer at offset 0 pointing to offset 10 (>= its own position).
        let bytes = b"\xC0\x0A\x00\x00\x00\x00\x00\x00\x00\x00\x00";
        let mut r = Reader::new(bytes);
        assert!(matches!(Name::parse(&mut r), Err(ParseError::BadPointer { .. })));
    }

    #[test]
    fn wire_parse_rejects_self_pointer() {
        let bytes = b"\xC0\x00";
        let mut r = Reader::new(bytes);
        assert!(matches!(Name::parse(&mut r), Err(ParseError::BadPointer { .. })));
    }

    #[test]
    fn wire_parse_rejects_pointer_loop() {
        // Two pointers that point at each other (second points forward, so it
        // is caught by the strictly-backwards rule).
        let bytes = b"\x01a\xC0\x04\x01b\xC0\x00";
        let mut r = Reader::new(bytes);
        assert!(matches!(Name::parse(&mut r), Err(ParseError::BadPointer { .. })));
    }

    #[test]
    fn wire_parse_rejects_reserved_label_type() {
        let bytes = b"\x40abc\x00";
        let mut r = Reader::new(bytes);
        assert!(matches!(Name::parse(&mut r), Err(ParseError::BadLabel { .. })));
    }

    #[test]
    fn wire_parse_rejects_truncation() {
        let bytes = b"\x07exam";
        let mut r = Reader::new(bytes);
        assert!(matches!(Name::parse(&mut r), Err(ParseError::UnexpectedEnd { .. })));
    }

    #[test]
    fn wire_parse_rejects_overlong_decompressed_name() {
        // Four 63-byte labels via a pointer chain: each segment is legal on
        // its own but the decompressed name exceeds 255 octets.
        let mut bytes = Vec::new();
        let label = [b'a'; 63];
        // Segment 0 at offset 0: one label + terminator.
        bytes.push(63);
        bytes.extend_from_slice(&label);
        bytes.push(0);
        let mut prev = 0u16;
        for _ in 0..3 {
            let here = bytes.len() as u16;
            bytes.push(63);
            bytes.extend_from_slice(&label);
            bytes.extend_from_slice(&(0xC000 | prev).to_be_bytes());
            prev = here;
        }
        let mut r = Reader::new(&bytes);
        r.seek(prev as usize).unwrap();
        assert_eq!(Name::parse(&mut r), Err(ParseError::NameTooLong));
    }

    #[test]
    fn label_too_long_rejected() {
        let long = "a".repeat(64);
        assert_eq!(long.parse::<Name>().unwrap_err(), BuildError::LabelTooLong);
        let ok = "a".repeat(63);
        assert!(ok.parse::<Name>().is_ok());
    }

    #[test]
    fn name_too_long_rejected() {
        // Four 63-byte labels = 4*64 + 1 = 257 > 255.
        let l = "a".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}");
        assert_eq!(s.parse::<Name>().unwrap_err(), BuildError::NameTooLong);
    }

    #[test]
    fn empty_interior_label_rejected() {
        assert_eq!("a..b".parse::<Name>().unwrap_err(), BuildError::EmptyLabel);
    }

    #[test]
    fn encode_without_compression() {
        let n = name("id.server");
        let mut w = Writer::new();
        n.encode(&mut w, None);
        assert_eq!(w.as_slice(), b"\x02id\x06server\x00");
    }

    #[test]
    fn encode_with_compression_emits_pointer() {
        let mut w = Writer::new();
        let mut comp = NameCompressor::new();
        name("example.com").encode(&mut w, Some(&mut comp));
        let first_len = w.len();
        name("www.example.com").encode(&mut w, Some(&mut comp));
        // Second name: 1+3 bytes of label + 2 bytes of pointer.
        assert_eq!(w.len(), first_len + 4 + 2);
        // Decode both back.
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(Name::parse(&mut r).unwrap(), name("example.com"));
        assert_eq!(Name::parse(&mut r).unwrap(), name("www.example.com"));
    }

    #[test]
    fn compression_is_case_insensitive() {
        let mut w = Writer::new();
        let mut comp = NameCompressor::new();
        name("EXAMPLE.COM").encode(&mut w, Some(&mut comp));
        let before = w.len();
        name("example.com").encode(&mut w, Some(&mut comp));
        // Entire second name is a single pointer.
        assert_eq!(w.len(), before + 2);
    }

    #[test]
    fn compression_chains_through_pointers() {
        // Third name must compress against a suffix that was itself written
        // with a trailing pointer, exercising the pointer-chasing
        // comparison in NameCompressor::find.
        let mut w = Writer::new();
        let mut comp = NameCompressor::new();
        name("example.com").encode(&mut w, Some(&mut comp));
        name("www.example.com").encode(&mut w, Some(&mut comp));
        let before = w.len();
        name("WWW.example.com").encode(&mut w, Some(&mut comp));
        // Entire third name is one pointer to the second.
        assert_eq!(w.len(), before + 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for expect in ["example.com", "www.example.com", "www.example.com"] {
            assert_eq!(Name::parse(&mut r).unwrap(), name(expect));
        }
    }

    #[test]
    fn names_with_repeated_labels_encode_and_compress() {
        // Each name's leading labels repeat, so a start recorded earlier in
        // the same name matches a later suffix's first label; the walk must
        // not follow it into bytes not yet written.
        for text in ["a.a", "www.www.example.com", "x.y.x.y.z", "a.a.a.a"] {
            let mut w = Writer::new();
            let mut comp = NameCompressor::new();
            name(text).encode(&mut w, Some(&mut comp));
            let first = w.as_slice().to_vec();
            assert_eq!(first, name(text).as_wire(), "{text}: written literally");
            name(text).encode(&mut w, Some(&mut comp));
            // The second copy is one pointer to the first.
            assert_eq!(&w.as_slice()[first.len()..], &[0xC0, 0x00], "{text}");
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(Name::parse(&mut r).unwrap(), name(text));
            assert_eq!(Name::parse(&mut r).unwrap(), name(text));
        }
        // A repeated-label name still compresses against an earlier one.
        let mut w = Writer::new();
        let mut comp = NameCompressor::new();
        name("example.com").encode(&mut w, Some(&mut comp));
        let before = w.len();
        name("www.www.example.com").encode(&mut w, Some(&mut comp));
        assert_eq!(&w.as_slice()[before..], b"\x03www\x03www\xC0\x00");
    }

    #[test]
    fn display_escapes_odd_bytes() {
        let n = Name::from_labels([&b"a.b"[..], &b"c"[..]]).unwrap();
        assert_eq!(n.to_string(), "a\\.b.c.");
        let n2 = Name::from_labels([&[0x01u8, 0x02][..]]).unwrap();
        assert_eq!(n2.to_string(), "\\001\\002.");
    }
}
