//! Property-based invariants for the network simulator substrate.

use bytes::Bytes;
use netsim::{Cidr, DnatRule, IpPacket, NatEngine, NatVerdict, RouteTable};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

fn arb_v4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(Ipv4Addr::from)
}

fn arb_cidr_v4() -> impl Strategy<Value = Cidr> {
    (arb_v4(), 0u8..=32).prop_map(|(a, p)| Cidr::v4(a, p))
}

/// Prefix lengths the route-table property draws from: few enough that a
/// random set repeats lengths, so equal-length ties come up constantly.
const V4_LENS: [u8; 6] = [0, 8, 16, 24, 30, 32];
const V6_LENS: [u8; 6] = [0, 32, 48, 64, 126, 128];

/// Addresses near 10.1.2.0 and 2001:db8::, with an occasional address
/// from anywhere: routes built from them overlap heavily.
fn arb_route_addr() -> impl Strategy<Value = IpAddr> {
    prop_oneof![
        (0u32..4).prop_map(|low| IpAddr::V4(Ipv4Addr::from(0x0a01_0200 | low))),
        (0u16..4).prop_map(|low| IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, low))),
        arb_v4().prop_map(IpAddr::V4),
        any::<[u8; 16]>().prop_map(|b| IpAddr::V6(Ipv6Addr::from(b))),
    ]
}

fn arb_route() -> impl Strategy<Value = (Cidr, netsim::IfaceId)> {
    (arb_route_addr(), 0usize..6, 0usize..4).prop_map(|(addr, len, iface)| {
        let cidr = match addr {
            IpAddr::V4(a) => Cidr::v4(a, V4_LENS[len]),
            IpAddr::V6(a) => Cidr::v6(a, V6_LENS[len]),
        };
        (cidr, netsim::IfaceId(iface))
    })
}

/// The reference longest-prefix match: every matching route, the longest
/// prefix, and among equal lengths the route added last.
fn reference_lookup(routes: &[(Cidr, netsim::IfaceId)], dst: IpAddr) -> Option<netsim::IfaceId> {
    routes
        .iter()
        .enumerate()
        .filter(|(_, (p, _))| p.contains(dst))
        .max_by_key(|(idx, (p, _))| (p.prefix_len(), *idx))
        .map(|(_, (_, iface))| *iface)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn route_lookup_equals_reference_scan(
        routes in proptest::collection::vec(arb_route(), 0..24),
        dsts in proptest::collection::vec(arb_route_addr(), 1..16),
    ) {
        let mut table = RouteTable::new();
        for (cidr, iface) in &routes {
            table.add(*cidr, *iface);
        }
        for dst in dsts {
            prop_assert_eq!(table.lookup(dst), reference_lookup(&routes, dst));
        }
    }

    #[test]
    fn cidr_parse_display_roundtrip(c in arb_cidr_v4()) {
        let text = c.to_string();
        let back: Cidr = text.parse().unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn cidr_contains_its_own_network_address(a in arb_v4(), p in 0u8..=32) {
        let c = Cidr::v4(a, p);
        prop_assert!(c.contains(IpAddr::V4(a)));
    }

    #[test]
    fn route_lookup_result_prefix_contains_destination(
        routes in proptest::collection::vec((arb_cidr_v4(), 0usize..4), 1..8),
        dst in arb_v4(),
    ) {
        let mut table = RouteTable::new();
        for (c, iface) in &routes {
            table.add(*c, netsim::IfaceId(*iface));
        }
        let dst = IpAddr::V4(dst);
        match table.lookup(dst) {
            Some(iface) => {
                // The chosen iface must belong to some matching prefix of
                // maximal length.
                let best = routes.iter().filter(|(c, _)| c.contains(dst))
                    .map(|(c, _)| c.prefix_len()).max().unwrap();
                let ok = routes.iter().any(|(c, i)| {
                    c.contains(dst) && c.prefix_len() == best && netsim::IfaceId(*i) == iface
                });
                prop_assert!(ok);
            }
            None => {
                prop_assert!(!routes.iter().any(|(c, _)| c.contains(dst)));
            }
        }
    }

    #[test]
    fn masquerade_roundtrip_restores_flow(
        inside in arb_v4(),
        server in arb_v4(),
        sport in 1024u16..65535,
        dport in 1u16..1024,
    ) {
        prop_assume!(inside != server);
        let public: Ipv4Addr = "73.22.1.5".parse().unwrap();
        prop_assume!(inside != public && server != public);
        let mut nat = NatEngine::new();
        nat.masquerade_v4(IpAddr::V4(public));
        let pkt = IpPacket::udp_v4(inside, server, sport, dport, Bytes::from_static(b"q"));
        let out = match nat.outbound(pkt) {
            NatVerdict::Forward(p) => p,
            v => return Err(TestCaseError::fail(format!("unexpected verdict {v:?}"))),
        };
        prop_assert_eq!(out.src(), IpAddr::V4(public));
        let out_udp = out.udp_payload().unwrap();
        // Reply comes back and must be restored exactly.
        let mut restored = IpPacket::udp_v4(server, public, dport, out_udp.src_port, Bytes::from_static(b"r"));
        prop_assert!(nat.inbound(&mut restored));
        prop_assert_eq!(restored.src(), IpAddr::V4(server));
        prop_assert_eq!(restored.dst(), IpAddr::V4(inside));
        let udp = restored.udp_payload().unwrap();
        prop_assert_eq!(udp.src_port, dport);
        prop_assert_eq!(udp.dst_port, sport);
    }

    #[test]
    fn dnat_reply_source_is_always_the_original_target(
        inside in arb_v4(),
        target in arb_v4(),
        sport in 1024u16..65535,
    ) {
        // Whatever the client queried, the reply it sees must claim to come
        // from that address — the transparency invariant of §2.
        let resolver: Ipv4Addr = "75.75.75.75".parse().unwrap();
        prop_assume!(target != resolver && inside != resolver && inside != target);
        let public: Ipv4Addr = "73.22.1.5".parse().unwrap();
        prop_assume!(inside != public && target != public);
        let mut nat = NatEngine::new();
        nat.add_dnat(DnatRule::redirect_dns(IpAddr::V4(resolver)));
        nat.masquerade_v4(IpAddr::V4(public));
        let pkt = IpPacket::udp_v4(inside, target, sport, 53, Bytes::from_static(b"q"));
        let out = match nat.outbound(pkt) {
            NatVerdict::Forward(p) => p,
            v => return Err(TestCaseError::fail(format!("unexpected verdict {v:?}"))),
        };
        prop_assert_eq!(out.dst(), IpAddr::V4(resolver));
        let out_udp = out.udp_payload().unwrap();
        let mut restored = IpPacket::udp_v4(resolver, public, 53, out_udp.src_port, Bytes::from_static(b"r"));
        prop_assert!(nat.inbound(&mut restored));
        prop_assert_eq!(restored.src(), IpAddr::V4(target));
        prop_assert_eq!(restored.dst(), IpAddr::V4(inside));
    }

    #[test]
    fn unsolicited_inbound_never_translates(
        src in arb_v4(),
        sport in 1u16..65535,
        dport in 1u16..65535,
    ) {
        let public: Ipv4Addr = "73.22.1.5".parse().unwrap();
        let mut nat = NatEngine::new();
        nat.masquerade_v4(IpAddr::V4(public));
        let stray = IpPacket::udp_v4(src, public, sport, dport, Bytes::new());
        let mut kept = stray.clone();
        prop_assert!(!nat.inbound(&mut kept));
        prop_assert_eq!(kept, stray);
    }
}
