//! # cpe
//!
//! Customer-premises-equipment (home router) models for the *Home is Where
//! the Hijacking is* reproduction.
//!
//! [`CpeDevice`] is a full home router: masquerading NAT, an embedded
//! Dnsmasq/XDNS-style forwarder, and — in interceptor configurations — the
//! DNAT rule from the paper's §5 case study that silently redirects every
//! outbound DNS query to the forwarder. [`CpeModelKind`] catalogs the
//! populations the paper observed, each built into its [`CpeConfig`] in one
//! place: plain routers, LAN-only forwarders, the Appendix-A open-port-53
//! confounder, the buggy XB6, Pi-holes, and the §6 `version.bind`-hiding
//! stealth interceptor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod config;
mod device;

pub use catalog::CpeModelKind;
pub use config::{CpeConfig, DnsMode, ForwarderSpec, InterceptSpec, WanMode};
pub use device::{CpeDevice, LAN, WAN};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dns_wire::debug_queries;
    use dns_wire::{Message, Question, RData, RType, Rcode};
    use netsim::{CaptureKind, Host, IfaceId, IpPacket, SimDuration, Simulator};
    use resolver_sim::{
        RecursiveResolver, ResolveCtx, ResolverMode, ResolverProfile, SoftwareProfile, ZoneDb,
    };
    use std::net::IpAddr;
    use std::sync::Arc;

    const PROBE: &str = "192.168.1.100";
    const WAN_IP: &str = "73.22.1.5";
    const ISP_RESOLVER: &str = "75.75.75.75";

    /// The ISP's resolver, on a profile of its own.
    fn isp_resolver() -> RecursiveResolver {
        RecursiveResolver::with_profile(Arc::new(ResolverProfile::new(
            "isp-resolver",
            [ISP_RESOLVER.parse::<IpAddr>().unwrap()],
            ResolveCtx::v4("75.75.75.10".parse().unwrap()),
            Arc::new(ZoneDb::standard_world()),
            SoftwareProfile::unbound("1.9.0"),
            ResolverMode::Normal,
        )))
    }

    /// `kind`'s configuration at the test home's addresses.
    fn model(kind: CpeModelKind) -> CpeConfig {
        kind.config(WAN_IP.parse().unwrap(), ISP_RESOLVER.parse().unwrap())
    }

    /// probe <-> CPE <-> ISP resolver. Returns (sim, probe, cpe, resolver).
    fn home(config: CpeConfig) -> (Simulator, netsim::NodeId, netsim::NodeId, netsim::NodeId) {
        let mut sim = Simulator::new(7);
        let probe = sim.add_device(Host::new("probe", [PROBE.parse::<IpAddr>().unwrap()]));
        let cpe = sim.add_device(CpeDevice::new(config));
        let resolver = sim.add_device(isp_resolver());
        sim.connect((probe, IfaceId(0)), (cpe, LAN), SimDuration::from_millis(1));
        sim.connect((cpe, WAN), (resolver, IfaceId(0)), SimDuration::from_millis(8));
        (sim, probe, cpe, resolver)
    }

    fn dns_query_pkt(dst: &str, question: Question, id: u16) -> IpPacket {
        let msg = Message::query(id, question);
        IpPacket::udp_v4(
            PROBE.parse().unwrap(),
            dst.parse().unwrap(),
            4321,
            53,
            Bytes::from(msg.encode().unwrap()),
        )
    }

    fn responses(sim: &mut Simulator, probe: netsim::NodeId) -> Vec<(IpAddr, Message)> {
        sim.device_mut::<Host>(probe)
            .unwrap()
            .drain_inbox()
            .into_iter()
            .filter_map(|d| {
                let src = d.packet.src();
                let msg = Message::parse(&d.packet.udp_payload().unwrap().payload).ok()?;
                Some((src, msg))
            })
            .collect()
    }

    #[test]
    fn buggy_xb6_intercepts_and_spoofs_source() {
        // The probe queries 8.8.8.8; the XB6 DNATs the query to XDNS which
        // forwards to the ISP resolver. The probe receives an answer whose
        // source claims to be 8.8.8.8.
        let (mut sim, probe, cpe, resolver) = home(model(CpeModelKind::Xb6Buggy));
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(probe, IfaceId(0), dns_query_pkt("8.8.8.8", q, 77));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, probe);
        assert_eq!(resp.len(), 1);
        let (src, msg) = &resp[0];
        assert_eq!(*src, "8.8.8.8".parse::<IpAddr>().unwrap());
        assert_eq!(msg.header.id, 77);
        assert_eq!(msg.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
        assert_eq!(sim.device::<CpeDevice>(cpe).unwrap().intercepted_queries, 1);
        // The resolver resolved the one relayed query: a single cache miss.
        assert_eq!(sim.device::<RecursiveResolver>(resolver).unwrap().cache_stats(), (0, 1));
    }

    #[test]
    fn buggy_xb6_answers_version_bind_at_public_ip() {
        let (mut sim, probe, _cpe, _r) = home(model(CpeModelKind::Xb6Buggy));
        let q = Question::chaos_txt(debug_queries::version_bind());
        sim.inject(probe, IfaceId(0), dns_query_pkt(WAN_IP, q, 5));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, probe);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].0, WAN_IP.parse::<IpAddr>().unwrap());
        assert_eq!(resp[0].1.answers[0].rdata.txt_string().unwrap(), "dnsmasq-2.78-xfin");
    }

    #[test]
    fn buggy_xb6_version_bind_identical_via_public_resolver() {
        // The step-2 signature: version.bind "to 8.8.8.8" is answered by
        // XDNS with the same string as version.bind to the CPE public IP.
        let (mut sim, probe, _cpe, _r) = home(model(CpeModelKind::Xb6Buggy));
        let q = Question::chaos_txt(debug_queries::version_bind());
        sim.inject(probe, IfaceId(0), dns_query_pkt("8.8.8.8", q, 6));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, probe);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].0, "8.8.8.8".parse::<IpAddr>().unwrap());
        assert_eq!(resp[0].1.answers[0].rdata.txt_string().unwrap(), "dnsmasq-2.78-xfin");
    }

    #[test]
    fn intercepted_queries_and_answers_cross_the_cpe_as_the_bytes_that_arrived() {
        // The XB6 relays each intercepted datagram to the ISP resolver and
        // the answer back, rewriting only the transaction ID (bytes 0-1).
        // The second query carries one byte after its question, which the
        // view accepts and a decode-and-encode would drop.
        let (mut sim, probe, cpe, resolver) = home(model(CpeModelKind::Xb6Buggy));
        sim.record_capture();
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        let plain = Message::query(21, q.clone()).encode().unwrap();
        let mut trailing = Message::query(22, q).encode().unwrap();
        trailing.push(0xAB);
        for query in [plain, trailing] {
            let packet = IpPacket::udp_v4(
                PROBE.parse().unwrap(),
                "8.8.8.8".parse().unwrap(),
                4321,
                53,
                Bytes::from(query.clone()),
            );
            sim.inject(probe, IfaceId(0), packet);
            sim.run_to_quiescence();
            // What each device sent out the given interface, as UDP payloads.
            let sent = |node, iface| -> Vec<Bytes> {
                sim.capture_events()
                    .iter()
                    .filter(|e| e.node == node && e.iface == Some(iface))
                    .filter_map(|e| match &e.kind {
                        CaptureKind::Egress { packet } => {
                            packet.udp_payload().map(|u| u.payload.clone())
                        }
                        _ => None,
                    })
                    .collect()
            };
            let (relayed, answered) = (sent(cpe, WAN), sent(resolver, IfaceId(0)));
            let delivered = sent(cpe, LAN);
            assert_eq!((relayed.len(), answered.len(), delivered.len()), (1, 1, 1));
            assert_eq!(relayed[0][2..], query[2..], "the relayed query is the query");
            assert_eq!(answered[0][..2], relayed[0][..2], "the resolver answered the relay");
            assert_eq!(delivered[0][2..], answered[0][2..], "the relayed answer is the answer");
            assert_eq!(delivered[0][..2], query[..2], "the client's ID is restored");
            responses(&mut sim, probe);
            sim.clear_capture_events();
        }
    }

    #[test]
    fn plain_router_forwards_untouched() {
        // With a plain router, the query leaves masqueraded toward the real
        // destination; our mini-topology routes everything to the ISP
        // resolver link, so a query to the resolver itself works end to end.
        let (mut sim, probe, cpe, _r) = home(model(CpeModelKind::Plain));
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(probe, IfaceId(0), dns_query_pkt(ISP_RESOLVER, q, 9));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, probe);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].0, ISP_RESOLVER.parse::<IpAddr>().unwrap());
        assert_eq!(sim.device::<CpeDevice>(cpe).unwrap().intercepted_queries, 0);
    }

    #[test]
    fn plain_router_is_silent_on_version_bind_to_public_ip() {
        let (mut sim, probe, _cpe, _r) = home(model(CpeModelKind::Plain));
        let q = Question::chaos_txt(debug_queries::version_bind());
        sim.inject(probe, IfaceId(0), dns_query_pkt(WAN_IP, q, 2));
        sim.run_to_quiescence();
        assert!(responses(&mut sim, probe).is_empty());
    }

    #[test]
    fn open_forwarder_answers_own_ip_but_does_not_intercept() {
        let (mut sim, probe, cpe, _r) =
            home(model(CpeModelKind::OpenWanForwarder { version: "2.80".into() }));
        // version.bind to the public IP: answered (port 53 open)…
        let q = Question::chaos_txt(debug_queries::version_bind());
        sim.inject(probe, IfaceId(0), dns_query_pkt(WAN_IP, q, 3));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, probe);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].1.answers[0].rdata.txt_string().unwrap(), "dnsmasq-2.80");
        // …but a query toward a public resolver is *not* captured.
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(probe, IfaceId(0), dns_query_pkt(ISP_RESOLVER, q, 4));
        sim.run_to_quiescence();
        assert_eq!(sim.device::<CpeDevice>(cpe).unwrap().intercepted_queries, 0);
    }

    #[test]
    fn open_forwarder_relays_a_records_from_own_ip() {
        // An A query to the CPE's public IP is forwarded upstream and the
        // answer returns from the CPE's address — the Appendix-A behaviour.
        let (mut sim, probe, _cpe, _r) =
            home(model(CpeModelKind::OpenWanForwarder { version: "2.80".into() }));
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(probe, IfaceId(0), dns_query_pkt(WAN_IP, q, 8));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, probe);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].0, WAN_IP.parse::<IpAddr>().unwrap());
        assert_eq!(resp[0].1.header.id, 8);
        assert_eq!(resp[0].1.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
    }

    #[test]
    fn pi_hole_blocks_ads_and_intercepts() {
        let (mut sim, probe, cpe, _r) =
            home(model(CpeModelKind::PiHole { version: "2.87".into() }));
        let q = Question::new("ads.doubleclick.net".parse().unwrap(), RType::A);
        sim.inject(probe, IfaceId(0), dns_query_pkt("1.1.1.1", q, 11));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, probe);
        assert_eq!(resp.len(), 1);
        // Blocked locally, source spoofed as the queried resolver.
        assert_eq!(resp[0].0, "1.1.1.1".parse::<IpAddr>().unwrap());
        assert_eq!(resp[0].1.header.rcode, Rcode::NxDomain);
        assert_eq!(sim.device::<CpeDevice>(cpe).unwrap().intercepted_queries, 1);
    }

    #[test]
    fn selective_interceptor_exempts_allowed_resolver() {
        let allowed: IpAddr = ISP_RESOLVER.parse().unwrap();
        let (mut sim, probe, cpe, _r) = home(model(CpeModelKind::SelectiveAllowed {
            allowed: vec![allowed],
            version: "2.85".into(),
        }));
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(probe, IfaceId(0), dns_query_pkt(ISP_RESOLVER, q, 12));
        sim.run_to_quiescence();
        // Allowed resolver reached directly: no interception counted.
        assert_eq!(sim.device::<CpeDevice>(cpe).unwrap().intercepted_queries, 0);
        assert_eq!(responses(&mut sim, probe).len(), 1);
    }

    #[test]
    fn stealth_interceptor_hides_from_version_bind() {
        let (mut sim, probe, cpe, _r) = home(model(CpeModelKind::StealthInterceptor));
        // It intercepts…
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(probe, IfaceId(0), dns_query_pkt("8.8.8.8", q, 13));
        sim.run_to_quiescence();
        assert_eq!(sim.device::<CpeDevice>(cpe).unwrap().intercepted_queries, 1);
        responses(&mut sim, probe);
        // …but version.bind produces REFUSED, not a comparable string.
        let q = Question::chaos_txt(debug_queries::version_bind());
        sim.inject(probe, IfaceId(0), dns_query_pkt("8.8.8.8", q, 14));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, probe);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].1.header.rcode, Rcode::Refused);
    }

    const SCANNER: &str = "91.216.216.9";

    /// scanner / ISP resolver / CPE all hang off one WAN-side core router,
    /// so packets relayed upstream by the CPE (and upstream answers sent
    /// straight back to the scanner) actually route. Returns
    /// (sim, scanner, cpe).
    fn wan_world(config: CpeConfig) -> (Simulator, netsim::NodeId, netsim::NodeId) {
        let mut sim = Simulator::new(11);
        let cpe_dev = CpeDevice::new(config).with_zonedb(Arc::new(ZoneDb::standard_world()));
        let cpe = sim.add_device(cpe_dev);
        let resolver = sim.add_device(isp_resolver());
        let scanner = sim.add_device(Host::new("scanner", [SCANNER.parse::<IpAddr>().unwrap()]));
        let core = sim.add_device(netsim::Router::new("wan-core"));
        let ms = SimDuration::from_millis;
        sim.connect((core, IfaceId(0)), (cpe, WAN), ms(5));
        sim.connect((core, IfaceId(1)), (resolver, IfaceId(0)), ms(5));
        sim.connect((core, IfaceId(2)), (scanner, IfaceId(0)), ms(5));
        sim.derive_routes(core, &[]);
        (sim, scanner, cpe)
    }

    fn scan_query_pkt(question: Question, id: u16) -> IpPacket {
        let msg = Message::query(id, question);
        IpPacket::udp_v4(
            SCANNER.parse().unwrap(),
            WAN_IP.parse().unwrap(),
            4321,
            53,
            Bytes::from(msg.encode().unwrap()),
        )
    }

    #[test]
    fn transparent_forwarder_relays_with_source_preserved() {
        // The taxonomy's key population: the scanner queries the CPE, but
        // the answer comes back from the *upstream resolver's* address —
        // the response-source mismatch.
        let (mut sim, scanner, cpe) =
            wan_world(model(CpeModelKind::TransparentForwarder { version: "2.80".into() }));
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(scanner, IfaceId(0), scan_query_pkt(q, 41));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, scanner);
        assert_eq!(resp.len(), 1);
        assert_eq!(
            resp[0].0,
            ISP_RESOLVER.parse::<IpAddr>().unwrap(),
            "answer source is the upstream, not the queried CPE"
        );
        assert_eq!(resp[0].1.header.id, 41);
        assert_eq!(resp[0].1.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
        assert_eq!(sim.device::<CpeDevice>(cpe).unwrap().transparent_relays, 1);
    }

    #[test]
    fn open_relay_answers_scanner_from_queried_address() {
        let (mut sim, scanner, cpe) =
            wan_world(model(CpeModelKind::OpenWanForwarder { version: "2.80".into() }));
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(scanner, IfaceId(0), scan_query_pkt(q, 42));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, scanner);
        assert_eq!(resp.len(), 1);
        assert_eq!(
            resp[0].0,
            WAN_IP.parse::<IpAddr>().unwrap(),
            "open forwarder answers from its own address"
        );
        assert_eq!(resp[0].1.header.id, 42);
        assert_eq!(resp[0].1.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
        assert_eq!(sim.device::<CpeDevice>(cpe).unwrap().transparent_relays, 0);
    }

    #[test]
    fn open_recursive_reveals_its_own_egress_on_whoami() {
        let (mut sim, scanner, _cpe) =
            wan_world(model(CpeModelKind::OpenRecursive { version: "2.80".into() }));
        let q = Question::new("whoami.akamai.com".parse().unwrap(), RType::A);
        sim.inject(scanner, IfaceId(0), scan_query_pkt(q, 43));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, scanner);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].0, WAN_IP.parse::<IpAddr>().unwrap());
        assert_eq!(
            resp[0].1.answers[0].rdata,
            RData::A(WAN_IP.parse().unwrap()),
            "the recursing CPE's egress is its own public address"
        );
    }

    #[test]
    fn local_only_wan_listener_never_relays_for_outsiders() {
        // The XB6 answers version.bind at its public address but a
        // recursive A query from the outside goes unanswered.
        let (mut sim, scanner, _cpe) = wan_world(model(CpeModelKind::Xb6Buggy));
        let q = Question::chaos_txt(debug_queries::version_bind());
        sim.inject(scanner, IfaceId(0), scan_query_pkt(q, 44));
        sim.run_to_quiescence();
        let resp = responses(&mut sim, scanner);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].1.answers[0].rdata.txt_string().unwrap(), "dnsmasq-2.78-xfin");
        let q = Question::new("example.com".parse().unwrap(), RType::A);
        sim.inject(scanner, IfaceId(0), scan_query_pkt(q, 45));
        sim.run_to_quiescence();
        assert!(responses(&mut sim, scanner).is_empty(), "no relay service for WAN clients");
    }

    #[test]
    fn txid_is_preserved_end_to_end_through_interception() {
        let (mut sim, probe, _cpe, _r) = home(model(CpeModelKind::Xb6Buggy));
        for id in [1u16, 999, 0xFFFF] {
            let q = Question::new("example.com".parse().unwrap(), RType::A);
            sim.inject(probe, IfaceId(0), dns_query_pkt("9.9.9.9", q, id));
            sim.run_to_quiescence();
            let resp = responses(&mut sim, probe);
            assert_eq!(resp.len(), 1);
            assert_eq!(resp[0].1.header.id, id);
        }
    }
}
