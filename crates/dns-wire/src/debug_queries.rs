//! The standard DNS *debugging queries* (RFC 4892) the paper's technique is
//! built on, plus helpers to build and interpret them.
//!
//! Three names matter:
//!
//! * `version.bind` (CHAOS TXT) — reveals the responding software's version
//!   string. The paper's step 2 compares the string returned by the CPE's
//!   public IP with the strings returned "by" the public resolvers: identical
//!   strings mean the same forwarder (the CPE) answered both.
//! * `id.server` (CHAOS TXT) — reveals the responding *server instance*.
//!   Cloudflare answers with an IATA airport code, Quad9 with a PCH node
//!   name.
//! * `hostname.bind` (CHAOS TXT) — the older BIND spelling of `id.server`,
//!   used by the Jones et al. root-manipulation baseline.
//!
//! Two IN-class names complete the toolbox:
//!
//! * `o-o.myaddr.l.google.com` (IN TXT) — Google's resolver returns the
//!   client address it sees, which for a query that really reached Google is
//!   a Google egress address.
//! * `debug.opendns.com` (IN TXT) — OpenDNS returns `server mNN.IATA` plus
//!   additional diagnostic strings.

use crate::message::{Message, Question};
use crate::name::Name;
use crate::types::{RClass, RType};
use crate::view::QuestionView;
use std::sync::OnceLock;

/// The fixed debugging names, interned: parsed once per process, and every
/// caller gets a refcount-bumped clone. These names are asked on every
/// single probe, so per-call parsing would be the hot path's main
/// allocation source; [`Name::parse`] also hands out these copies when it
/// decodes one of them byte for byte.
struct Interned {
    version_bind: Name,
    id_server: Name,
    hostname_bind: Name,
    version_server: Name,
    id_bind: Name,
    google_myaddr: Name,
    opendns_debug: Name,
    whoami_akamai: Name,
}

fn interned() -> &'static Interned {
    static NAMES: OnceLock<Interned> = OnceLock::new();
    NAMES.get_or_init(|| {
        let name = |text: &str| text.parse().expect("static name is valid");
        Interned {
            version_bind: name("version.bind"),
            id_server: name("id.server"),
            hostname_bind: name("hostname.bind"),
            version_server: name("version.server"),
            id_bind: name("id.bind"),
            google_myaddr: name("o-o.myaddr.l.google.com"),
            opendns_debug: name("debug.opendns.com"),
            whoami_akamai: name("whoami.akamai.com"),
        }
    })
}

/// The interned copy of the fixed debugging name whose canonical wire form
/// is exactly `wire`, case included.
pub(crate) fn interned_wire(wire: &[u8]) -> Option<&'static Name> {
    let names = interned();
    [
        &names.version_bind,
        &names.id_server,
        &names.hostname_bind,
        &names.version_server,
        &names.id_bind,
        &names.google_myaddr,
        &names.opendns_debug,
        &names.whoami_akamai,
    ]
    .into_iter()
    .find(|name| name.as_wire() == wire)
}

/// Returns the `version.bind` name.
pub fn version_bind() -> Name {
    interned().version_bind.clone()
}

/// Returns the `id.server` name.
pub fn id_server() -> Name {
    interned().id_server.clone()
}

/// Returns the `hostname.bind` name.
pub fn hostname_bind() -> Name {
    interned().hostname_bind.clone()
}

/// Returns Google's `o-o.myaddr.l.google.com` self-address name.
pub fn google_myaddr() -> Name {
    interned().google_myaddr.clone()
}

/// Returns OpenDNS's `debug.opendns.com` name.
pub fn opendns_debug() -> Name {
    interned().opendns_debug.clone()
}

/// Returns Akamai's `whoami.akamai.com` resolver-identity name, used by the
/// paper's transparency test (§4.1.2).
pub fn whoami_akamai() -> Name {
    interned().whoami_akamai.clone()
}

/// Builds a CHAOS TXT `version.bind` query message.
pub fn version_bind_query(id: u16) -> Message {
    Message::query(id, Question::chaos_txt(version_bind()))
}

/// Builds a CHAOS TXT `id.server` query message.
pub fn id_server_query(id: u16) -> Message {
    Message::query(id, Question::chaos_txt(id_server()))
}

/// Builds a CHAOS TXT `hostname.bind` query message.
pub fn hostname_bind_query(id: u16) -> Message {
    Message::query(id, Question::chaos_txt(hostname_bind()))
}

/// Which server-identification question a CHAOS query is asking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerIdKind {
    /// Software version (`version.bind` / `version.server`).
    Version,
    /// Server instance identity (`id.server` / `hostname.bind` / `id.bind`).
    Identity,
}

/// Classifies a CHAOS question, read from a query's view, into version vs
/// identity, or `None` if it is not one of the server-identification
/// questions (`version.bind`, `id.server`, `hostname.bind`, or their
/// `.server`/`.bind` cross-spellings, all of which BIND-like software
/// accepts; names compare case-insensitively). Allocation-free.
pub fn server_id_kind_view(q: &QuestionView<'_>) -> Option<ServerIdKind> {
    if q.qclass != RClass::Chaos || !matches!(q.qtype, RType::Txt | RType::Any) {
        return None;
    }
    q.qname.with_wire(|wire| {
        let names = interned();
        let is = |name: &Name| name.as_wire().eq_ignore_ascii_case(wire);
        if is(&names.version_bind) || is(&names.version_server) {
            Some(ServerIdKind::Version)
        } else if is(&names.id_server) || is(&names.hostname_bind) || is(&names.id_bind) {
            Some(ServerIdKind::Identity)
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`server_id_kind_view`] of `msg`'s first question, read as a server
    /// reads it: from a view of the encoded query.
    fn kind_in(msg: &Message) -> Option<ServerIdKind> {
        let wire = msg.encode().unwrap();
        let view = crate::MessageView::parse(&wire).unwrap();
        server_id_kind_view(&view.question().unwrap())
    }

    fn kind(q: Question) -> Option<ServerIdKind> {
        kind_in(&Message::query(1, q))
    }

    #[test]
    fn builders_produce_chaos_txt() {
        for msg in [version_bind_query(1), id_server_query(2), hostname_bind_query(3)] {
            let q = msg.question().unwrap();
            assert_eq!(q.qclass, RClass::Chaos);
            assert_eq!(q.qtype, RType::Txt);
            assert!(kind_in(&msg).is_some());
        }
    }

    #[test]
    fn classification() {
        assert_eq!(kind_in(&version_bind_query(1)), Some(ServerIdKind::Version));
        assert_eq!(kind_in(&id_server_query(1)), Some(ServerIdKind::Identity));
        assert_eq!(kind_in(&hostname_bind_query(1)), Some(ServerIdKind::Identity));
    }

    #[test]
    fn in_class_is_not_server_id() {
        assert_eq!(kind(Question::new(version_bind(), RType::Txt)), None);
    }

    #[test]
    fn chaos_a_is_not_server_id() {
        let q = Question { qname: version_bind(), qtype: RType::A, qclass: RClass::Chaos };
        assert_eq!(kind(q), None);
    }

    #[test]
    fn chaos_any_is_server_id() {
        let q = Question { qtype: RType::Any, ..Question::chaos_txt(hostname_bind()) };
        assert_eq!(kind(q), Some(ServerIdKind::Identity));
    }

    #[test]
    fn case_insensitive_names() {
        let q = Question::chaos_txt("VERSION.BIND".parse().unwrap());
        assert_eq!(kind(q), Some(ServerIdKind::Version));
    }

    #[test]
    fn cross_spellings_classify_like_bind() {
        for (text, want) in [
            ("version.server", Some(ServerIdKind::Version)),
            ("ID.Bind", Some(ServerIdKind::Identity)),
            ("Id.Server", Some(ServerIdKind::Identity)),
            ("hostname.bind.", Some(ServerIdKind::Identity)),
            ("id.server.example", None),
            ("version", None),
            ("bind", None),
            (".", None),
        ] {
            assert_eq!(kind(Question::chaos_txt(text.parse().unwrap())), want, "{text}");
        }
    }

    #[test]
    fn well_known_names_parse() {
        assert_eq!(google_myaddr().to_string(), "o-o.myaddr.l.google.com.");
        assert_eq!(opendns_debug().to_string(), "debug.opendns.com.");
        assert_eq!(whoami_akamai().to_string(), "whoami.akamai.com.");
    }
}
