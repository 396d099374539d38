//! The four public resolvers the paper tests against, their location
//! queries, and the validators that recognize a *standard* response
//! (paper Table 1).
//!
//! | Resolver   | Type      | Location query            | Example response          |
//! |------------|-----------|---------------------------|---------------------------|
//! | Cloudflare | CHAOS TXT | `id.server`               | `IAD`                     |
//! | Google     | TXT       | `o-o.myaddr.l.google.com` | `172.253.226.35`          |
//! | Quad9      | CHAOS TXT | `id.server`               | `res100.iad.rrdns.pch.net`|
//! | OpenDNS    | TXT       | `debug.opendns.com`       | `server m84.iad`          |

use crate::prefix::IpPrefix;
use dns_wire::debug_queries;
use dns_wire::{MessageView, Question, Rcode};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

/// Identifies one of the studied public resolvers.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum ResolverKey {
    /// Cloudflare DNS (1.1.1.1).
    Cloudflare,
    /// Google Public DNS (8.8.8.8).
    Google,
    /// Quad9 (9.9.9.9).
    Quad9,
    /// Cisco OpenDNS (208.67.222.222).
    OpenDns,
}

impl ResolverKey {
    /// All four studied resolvers, in the paper's table order.
    pub const ALL: [ResolverKey; 4] = [
        ResolverKey::Cloudflare,
        ResolverKey::Google,
        ResolverKey::Quad9,
        ResolverKey::OpenDns,
    ];

    /// Human-readable name as used in the paper's tables.
    pub fn display_name(self) -> &'static str {
        match self {
            ResolverKey::Cloudflare => "Cloudflare DNS",
            ResolverKey::Google => "Google DNS",
            ResolverKey::Quad9 => "Quad9",
            ResolverKey::OpenDns => "OpenDNS",
        }
    }
}

impl std::fmt::Display for ResolverKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display_name())
    }
}

/// Static description of one public resolver: its anycast service addresses,
/// its location query, and its egress space.
#[derive(Debug, Clone)]
pub struct PublicResolver {
    /// Which resolver this is.
    pub key: ResolverKey,
    /// Primary and secondary IPv4 service addresses.
    pub v4: [IpAddr; 2],
    /// Primary and secondary IPv6 service addresses.
    pub v6: [IpAddr; 2],
    /// Egress prefixes: addresses this resolver's recursors query
    /// authoritative servers from. Used by the whoami transparency test.
    pub egress: Vec<IpPrefix>,
}

impl PublicResolver {
    /// The resolver's location query (paper Table 1).
    pub fn location_query(&self) -> Question {
        match self.key {
            ResolverKey::Cloudflare | ResolverKey::Quad9 => {
                Question::chaos_txt(debug_queries::id_server())
            }
            ResolverKey::Google => {
                Question::new(debug_queries::google_myaddr(), dns_wire::RType::Txt)
            }
            ResolverKey::OpenDns => {
                Question::new(debug_queries::opendns_debug(), dns_wire::RType::Txt)
            }
        }
    }

    /// True when `ip` is in the resolver's egress space.
    pub fn egress_contains(&self, ip: IpAddr) -> bool {
        self.egress.iter().any(|p| p.contains(ip))
    }

    /// Decides whether `response` is the *standard* response a genuine
    /// query to this resolver produces (§3.1). A non-standard response —
    /// wrong format, error status, empty answer — is evidence of
    /// interception. The caller handles timeouts separately.
    pub fn is_standard_location_response(&self, response: &MessageView<'_>) -> bool {
        if response.header().rcode != Rcode::NoError {
            return false;
        }
        let Some(text) = response.answers().find_map(|r| r.txt_str()) else {
            return false;
        };
        match self.key {
            ResolverKey::Cloudflare => is_iata_code(&text),
            ResolverKey::Google => text
                .parse::<IpAddr>()
                .map(|ip| self.egress_contains(ip))
                .unwrap_or(false),
            ResolverKey::Quad9 => {
                // e.g. "res100.iad.rrdns.pch.net"
                text.ends_with(".pch.net") && text.starts_with("res")
            }
            ResolverKey::OpenDns => {
                // e.g. "server m84.iad"
                text.starts_with("server m")
            }
        }
    }
}

/// True for a three-letter upper-case IATA airport code like "IAD" or "SFO".
fn is_iata_code(s: &str) -> bool {
    s.len() == 3 && s.bytes().all(|b| b.is_ascii_uppercase())
}

/// The four studied resolvers with their real service addresses and
/// representative egress prefixes.
pub fn default_resolvers() -> Vec<PublicResolver> {
    fn ip(s: &str) -> IpAddr {
        s.parse().expect("static address")
    }
    fn pfx(list: &[&str]) -> Vec<IpPrefix> {
        list.iter().map(|s| s.parse().expect("static prefix")).collect()
    }
    vec![
        PublicResolver {
            key: ResolverKey::Cloudflare,
            v4: [ip("1.1.1.1"), ip("1.0.0.1")],
            v6: [ip("2606:4700:4700::1111"), ip("2606:4700:4700::1001")],
            egress: pfx(&["172.68.0.0/16", "172.69.0.0/16", "2400:cb00::/32"]),
        },
        PublicResolver {
            key: ResolverKey::Google,
            v4: [ip("8.8.8.8"), ip("8.8.4.4")],
            v6: [ip("2001:4860:4860::8888"), ip("2001:4860:4860::8844")],
            egress: pfx(&[
                "172.217.0.0/16",
                "172.253.0.0/16",
                "74.125.0.0/16",
                "66.249.64.0/19",
                "2404:6800::/32",
                "2607:f8b0::/32",
            ]),
        },
        PublicResolver {
            key: ResolverKey::Quad9,
            v4: [ip("9.9.9.9"), ip("149.112.112.112")],
            v6: [ip("2620:fe::fe"), ip("2620:fe::9")],
            egress: pfx(&["74.63.16.0/20", "2620:171::/48"]),
        },
        PublicResolver {
            key: ResolverKey::OpenDns,
            v4: [ip("208.67.222.222"), ip("208.67.220.220")],
            v6: [ip("2620:119:35::35"), ip("2620:119:53::53")],
            egress: pfx(&["146.112.0.0/16", "2a04:e4c0::/29"]),
        },
    ]
}

/// Process-wide shared copy of [`default_resolvers`].
///
/// The resolver table is immutable reference data (addresses, egress
/// prefixes, query shapes), yet building it parses a dozen prefixes and
/// allocates per call. Campaign-scale surveys construct one
/// `LocatorConfig` per probe, so `Default` hands out clones of this
/// single `Arc` instead of re-parsing the table tens of thousands of
/// times.
pub fn shared_default_resolvers() -> Arc<[PublicResolver]> {
    static SHARED: OnceLock<Arc<[PublicResolver]>> = OnceLock::new();
    SHARED.get_or_init(|| default_resolvers().into()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Message, Name, Record, Reply};

    fn resolver(key: ResolverKey) -> PublicResolver {
        default_resolvers().into_iter().find(|r| r.key == key).unwrap()
    }

    fn standard(r: &PublicResolver, response: Message) -> bool {
        r.is_standard_location_response(&Reply::encode(&response).unwrap().view())
    }

    fn txt_response(q: &Question, text: &str) -> Message {
        let query = Message::query(1, q.clone());
        let mut rec = Record::chaos_txt(q.qname.clone(), text);
        rec.class = q.qclass;
        Message::response_to(&query, Rcode::NoError).with_answer(rec)
    }

    #[test]
    fn cloudflare_accepts_iata_rejects_other() {
        let r = resolver(ResolverKey::Cloudflare);
        let q = r.location_query();
        assert!(standard(&r, txt_response(&q, "IAD")));
        assert!(standard(&r, txt_response(&q, "SFO")));
        assert!(!standard(&r, txt_response(&q, "routing.v2.pw")));
        assert!(!standard(&r, txt_response(&q, "iad")));
        assert!(!standard(&r, txt_response(&q, "IADX")));
    }

    #[test]
    fn google_accepts_own_egress_rejects_foreign_ip() {
        let r = resolver(ResolverKey::Google);
        let q = r.location_query();
        assert!(standard(&r, txt_response(&q, "172.253.211.15")));
        assert!(!standard(&r, txt_response(&q, "62.183.62.69")));
        assert!(!standard(&r, txt_response(&q, "185.194.112.32")));
        assert!(!standard(&r, txt_response(&q, "not-an-ip")));
    }

    #[test]
    fn quad9_accepts_pch_node_names() {
        let r = resolver(ResolverKey::Quad9);
        let q = r.location_query();
        assert!(standard(&r, txt_response(&q, "res100.iad.rrdns.pch.net")));
        assert!(!standard(&r, txt_response(&q, "unbound 1.9.0")));
    }

    #[test]
    fn opendns_accepts_server_m_strings() {
        let r = resolver(ResolverKey::OpenDns);
        let q = r.location_query();
        assert!(standard(&r, txt_response(&q, "server m84.iad")));
        assert!(!standard(&r, txt_response(&q, "dnsmasq-2.85")));
    }

    #[test]
    fn error_rcode_is_never_standard() {
        for key in ResolverKey::ALL {
            let r = resolver(key);
            let q = r.location_query();
            let query = Message::query(1, q);
            let resp = Message::response_to(&query, Rcode::NotImp);
            assert!(!standard(&r, resp), "{key:?}");
        }
    }

    #[test]
    fn empty_answer_is_never_standard() {
        for key in ResolverKey::ALL {
            let r = resolver(key);
            let query = Message::query(1, r.location_query());
            let resp = Message::response_to(&query, Rcode::NoError);
            assert!(!standard(&r, resp), "{key:?}");
        }
    }

    #[test]
    fn location_query_shapes_match_table_1() {
        let cf = resolver(ResolverKey::Cloudflare).location_query();
        assert_eq!(cf.qclass, dns_wire::RClass::Chaos);
        assert_eq!(cf.qname, "id.server".parse::<Name>().unwrap());
        let g = resolver(ResolverKey::Google).location_query();
        assert_eq!(g.qclass, dns_wire::RClass::In);
        assert_eq!(g.qname, "o-o.myaddr.l.google.com".parse::<Name>().unwrap());
        let q9 = resolver(ResolverKey::Quad9).location_query();
        assert_eq!(q9.qname, "id.server".parse::<Name>().unwrap());
        let od = resolver(ResolverKey::OpenDns).location_query();
        assert_eq!(od.qname, "debug.opendns.com".parse::<Name>().unwrap());
    }

    #[test]
    fn service_addresses_are_distinct() {
        let rs = default_resolvers();
        let mut all: Vec<IpAddr> = rs
            .iter()
            .flat_map(|r| r.v4.iter().chain(r.v6.iter()).copied())
            .collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn egress_contains_works_per_family() {
        let g = resolver(ResolverKey::Google);
        assert!(g.egress_contains("172.253.226.35".parse().unwrap()));
        assert!(g.egress_contains("2404:6800:4003::5".parse().unwrap()));
        assert!(!g.egress_contains("9.9.9.9".parse().unwrap()));
    }
}
