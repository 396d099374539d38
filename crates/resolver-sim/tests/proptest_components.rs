//! Property-based tests for the resolver components.

use bytes::Bytes;
use dns_wire::debug_queries;
use dns_wire::{Message, MessageView, Name, Question, RClass, RData, RType, Rcode, Record};
use netsim::{Device, Host, IfaceId, IpPacket, SimDuration, SimTime, Simulator};
use proptest::prelude::*;
use resolver_sim::{
    DnsCache, ForwarderCore, FwdAction, PublicBrand, PublicResolverSite, RecursiveResolver,
    ResolveCtx, ResolveResult, ResolverMode, ResolverProfile, SiteProfile, SoftwareProfile, ZoneDb,
};
use std::net::IpAddr;
use std::sync::Arc;

fn arb_name() -> impl Strategy<Value = dns_wire::Name> {
    proptest::collection::vec("[a-z0-9]{1,12}", 1..=4)
        .prop_map(|labels| labels.join(".").parse().expect("valid labels"))
}

fn arb_question() -> impl Strategy<Value = Question> {
    (arb_name(), prop_oneof![Just(RType::A), Just(RType::Aaaa), Just(RType::Txt)])
        .prop_map(|(n, t)| Question::new(n, t))
}

/// Each brand's location question (paper Table 1), service addresses (v4,
/// v6) and egress.
fn location_site(brand: PublicBrand) -> (Question, [IpAddr; 2], ResolveCtx) {
    let (question, v4, v6, egress_v4, egress_v6) = match brand {
        PublicBrand::Cloudflare => (
            Question::chaos_txt(debug_queries::id_server()),
            "1.1.1.1",
            "2606:4700:4700::1111",
            "172.68.1.1",
            "2400:cb00::1",
        ),
        PublicBrand::Google => (
            Question::new(debug_queries::google_myaddr(), RType::Txt),
            "8.8.8.8",
            "2001:4860:4860::8888",
            "172.253.226.35",
            "2404:6800::35",
        ),
        PublicBrand::Quad9 => (
            Question::chaos_txt(debug_queries::id_server()),
            "9.9.9.9",
            "2620:fe::fe",
            "74.63.16.10",
            "2620:171::10",
        ),
        PublicBrand::OpenDns => (
            Question::new(debug_queries::opendns_debug(), RType::Txt),
            "208.67.222.222",
            "2620:119:35::35",
            "146.112.1.1",
            "2a04:e4c0::1",
        ),
    };
    let egress = ResolveCtx {
        egress_v4: Some(egress_v4.parse().unwrap()),
        egress_v6: Some(egress_v6.parse().unwrap()),
    };
    (question, [v4.parse().unwrap(), v6.parse().unwrap()], egress)
}

/// The reply payload `site` sends a client for the query `wire`, asked
/// at `server`.
fn site_reply(site: PublicResolverSite, server: IpAddr, wire: &[u8]) -> Bytes {
    timed_reply(site, server, wire).1
}

/// The one reply `server_device`, in a world of its own, sends a client
/// for the query `wire` asked at `server`, and when it arrives.
fn timed_reply(server_device: impl Device, server: IpAddr, wire: &[u8]) -> (SimTime, Bytes) {
    let client: IpAddr = if server.is_ipv4() { "73.1.1.1" } else { "2001:db8::1" }.parse().unwrap();
    let mut sim = Simulator::new(1);
    let host = sim.add_device(Host::new("client", [client]));
    let node = sim.add_device(server_device);
    sim.connect((host, IfaceId(0)), (node, IfaceId(0)), SimDuration::from_millis(1));
    let query = IpPacket::udp(client, server, 4000, 53, Bytes::copy_from_slice(wire)).unwrap();
    sim.inject(host, IfaceId(0), query);
    sim.run_to_quiescence();
    let mut inbox = sim.device_mut::<Host>(host).unwrap().drain_inbox();
    assert_eq!(inbox.len(), 1, "one reply");
    let delivery = inbox.remove(0);
    (delivery.at, delivery.packet.udp_payload().unwrap().payload.clone())
}

/// The ISP resolver's service addresses (v4, v6).
fn resolver_addrs() -> [IpAddr; 2] {
    ["75.75.75.75".parse().unwrap(), "2001:558:feed::1".parse().unwrap()]
}

/// A fresh profile of an ISP resolver in `mode`, resolving through
/// `zonedb`.
fn resolver_profile(mode: ResolverMode, zonedb: &Arc<ZoneDb>) -> Arc<ResolverProfile> {
    Arc::new(ResolverProfile::new(
        "isp-resolver",
        resolver_addrs(),
        ResolveCtx {
            egress_v4: Some("75.75.75.10".parse().unwrap()),
            egress_v6: Some("2001:558:feed::10".parse().unwrap()),
        },
        Arc::clone(zonedb),
        SoftwareProfile::custom("unbound 1.9.0"),
        mode,
    ))
}

/// Every mode of the ISP resolver.
const MODES: [ResolverMode; 3] = [
    ResolverMode::Normal,
    ResolverMode::RefuseAll,
    ResolverMode::NxWildcard(std::net::Ipv4Addr::new(75, 75, 0, 99)),
];

/// What an intercepted probe asks the ISP resolver: the paper's Table 1
/// location questions, the egress reflectors, the probe name, the server
/// identification questions, an NXDOMAIN name, a CHAOS question that
/// identifies no server and a question of another class.
fn resolver_repertoire() -> Vec<Question> {
    let name = |text: &str| text.parse::<Name>().unwrap();
    vec![
        Question::chaos_txt(debug_queries::id_server()),
        Question::new(debug_queries::google_myaddr(), RType::Txt),
        Question::new(debug_queries::opendns_debug(), RType::Txt),
        Question::new(debug_queries::whoami_akamai(), RType::A),
        Question::new(debug_queries::whoami_akamai(), RType::Aaaa),
        Question::new(name("probe.dns-hijack-study.example"), RType::A),
        Question::new(name("probe.dns-hijack-study.example"), RType::Aaaa),
        Question::chaos_txt(debug_queries::version_bind()),
        Question::chaos_txt(name("hostname.bind")),
        Question::new(name("no-such-name.example.com"), RType::A),
        Question { qname: name("example.com"), qtype: RType::Txt, qclass: RClass::Chaos },
        Question { qname: name("example.com"), qtype: RType::A, qclass: RClass::Hesiod },
    ]
}

/// `question` as a client might spell it: letter `i` of its name upper
/// case where bit `i % 64` of `case` is set.
fn spelled(question: &Question, case: u64) -> Question {
    let spelled: String = question
        .qname
        .to_string()
        .chars()
        .enumerate()
        .map(|(i, c)| if (case >> (i % 64)) & 1 == 1 { c.to_ascii_uppercase() } else { c })
        .collect();
    Question { qname: spelled.parse().unwrap(), ..question.clone() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_never_serves_expired_entries(
        q in arb_question(),
        ttl in 0u32..=600,
        probe_offset in 0u64..=1200,
    ) {
        let mut cache = DnsCache::new(64);
        let result = ResolveResult {
            rcode: Rcode::NoError,
            answers: vec![Record::new(q.qname.clone(), ttl, RData::A("1.2.3.4".parse().unwrap()))],
            authenticated: false,
        };
        cache.put(&q, result.cache_ttl(), result, SimTime::ZERO);
        let at = SimTime::ZERO + SimDuration::from_secs(probe_offset);
        let hit = cache.get(&q, at);
        if probe_offset < ttl as u64 {
            prop_assert!(hit.is_some());
        } else if probe_offset > ttl as u64 {
            prop_assert!(hit.is_none());
        }
    }

    #[test]
    fn cache_capacity_is_never_exceeded(
        questions in proptest::collection::vec(arb_question(), 1..40),
        capacity in 1usize..=8,
    ) {
        let mut cache = DnsCache::new(capacity);
        for q in &questions {
            let negative = ResolveResult { rcode: Rcode::NxDomain, answers: vec![], authenticated: false };
            cache.put(q, negative.cache_ttl(), negative, SimTime::ZERO);
            prop_assert!(cache.len() <= capacity);
        }
    }

    #[test]
    fn forwarder_roundtrips_any_batch_of_queries(
        ids in proptest::collection::vec(any::<u16>(), 1..60),
        names in proptest::collection::vec("[a-z]{1,10}", 1..4),
    ) {
        let mut fwd: ForwarderCore<usize> = ForwarderCore::new(SoftwareProfile::dnsmasq("2.85"));
        let name: dns_wire::Name = format!("{}.example.com", names.join(".")).parse().unwrap();
        let mut relayed = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let q = Message::query(*id, Question::new(name.clone(), RType::A)).encode().unwrap();
            let query = MessageView::parse(&q).unwrap();
            prop_assert_eq!(fwd.handle_query(&query), FwdAction::Forward);
            relayed.push((i, *id, fwd.relay(query.header().id, i)));
        }
        // All relayed transaction IDs are distinct.
        let mut txids: Vec<u16> = relayed.iter().map(|&(_, _, txid)| txid).collect();
        txids.sort_unstable();
        txids.dedup();
        prop_assert_eq!(txids.len(), relayed.len());
        // Each answer's ID is matched back to the client's ID and the
        // metadata, once.
        for (meta, orig_id, txid) in relayed {
            prop_assert_eq!(fwd.handle_upstream_response(txid), Some((orig_id, meta)));
            prop_assert_eq!(fwd.handle_upstream_response(txid), None);
        }
        prop_assert_eq!(fwd.pending_len(), 0);
    }

    #[test]
    fn forwarder_rejects_unknown_txids(txid in any::<u16>()) {
        let mut fwd: ForwarderCore<()> = ForwarderCore::new(SoftwareProfile::dnsmasq("2.85"));
        prop_assert!(fwd.handle_upstream_response(txid).is_none());
    }

    #[test]
    fn a_memoized_reply_is_the_answer_paths_bytes_under_the_new_id(
        brand in prop_oneof![
            Just(PublicBrand::Cloudflare),
            Just(PublicBrand::Google),
            Just(PublicBrand::Quad9),
            Just(PublicBrand::OpenDns),
        ],
        kind in 0usize..4,
        first_v6 in any::<bool>(),
        v6 in any::<bool>(),
        first_id in any::<u16>(),
        id in any::<u16>(),
        rd in any::<bool>(),
        cd in any::<bool>(),
        case in any::<u64>(),
    ) {
        let (location, addrs, egress) = location_site(brand);
        let question = match kind {
            0 => location,
            1 => Question::chaos_txt(debug_queries::id_server()),
            2 => Question::chaos_txt(debug_queries::version_bind()),
            _ => Question::new(debug_queries::opendns_debug(), RType::Txt),
        };
        let asked = spelled(&question, case);
        let wire = |id: u16| {
            let mut query = Message::query(id, asked.clone());
            query.header.rd = rd;
            query.header.cd = cd;
            query.encode().unwrap()
        };

        let zonedb = Arc::new(ZoneDb::standard_world());
        let profile = || Arc::new(SiteProfile::new(brand, addrs, "IAD", 84, egress, Arc::clone(&zonedb)));
        let shared = profile();
        let ask = |profile: &Arc<SiteProfile>, v6: bool, id: u16| {
            site_reply(PublicResolverSite::with_profile(Arc::clone(profile)), addrs[usize::from(v6)], &wire(id))
        };
        // The first reply fills the memo; the second, asked under another
        // ID and maybe over the other family, comes from it.
        let filled = ask(&shared, first_v6, first_id);
        let memoized = ask(&shared, v6, id);
        let fresh = ask(&profile(), v6, id);
        prop_assert_eq!(&memoized, &fresh);
        prop_assert_eq!(&filled[2..], &fresh[2..]);
        let answered = Message::parse(&memoized).unwrap();
        prop_assert_eq!(answered.header.id, id);
        prop_assert_eq!(answered.question(), Some(&asked));
        if kind == 0 {
            prop_assert_eq!(answered.header.rcode, Rcode::NoError);
            prop_assert!(!answered.answers.is_empty(), "{brand:?} answers its location question");
        }
    }

    #[test]
    fn a_memoized_resolver_reply_is_the_answer_paths_bytes_at_its_time(
        mode in 0..MODES.len(),
        kind in 0usize..12,
        first_v6 in any::<bool>(),
        v6 in any::<bool>(),
        first_id in any::<u16>(),
        id in any::<u16>(),
        rd in any::<bool>(),
        cd in any::<bool>(),
        case in any::<u64>(),
    ) {
        let mode = MODES[mode];
        let asked = spelled(&resolver_repertoire()[kind], case);
        let wire = |id: u16| {
            let mut query = Message::query(id, asked.clone());
            query.header.rd = rd;
            query.header.cd = cd;
            query.encode().unwrap()
        };
        let zonedb = Arc::new(ZoneDb::standard_world());
        let ask = |profile: &Arc<ResolverProfile>, v6: bool, id: u16| {
            let resolver = RecursiveResolver::with_profile(Arc::clone(profile));
            timed_reply(resolver, resolver_addrs()[usize::from(v6)], &wire(id))
        };
        // The first reply fills the memo; the second, asked in a world of
        // its own under another ID and maybe over the other family, comes
        // from it, and pays the first ask's latency there as the fresh
        // profile's answer does.
        let shared = resolver_profile(mode, &zonedb);
        let (filled_at, filled) = ask(&shared, first_v6, first_id);
        let (memoized_at, memoized) = ask(&shared, v6, id);
        let (fresh_at, fresh) = ask(&resolver_profile(mode, &zonedb), v6, id);
        prop_assert_eq!(&memoized, &fresh);
        prop_assert_eq!(&filled[2..], &fresh[2..]);
        prop_assert_eq!((filled_at, memoized_at), (fresh_at, fresh_at));
        let answered = Message::parse(&memoized).unwrap();
        prop_assert_eq!(answered.header.id, id);
        prop_assert_eq!(answered.question(), Some(&asked));
    }
}

/// Four sites on one fresh profile, each on its own thread, ask the same
/// ten questions at once, each thread in its own order, so they race to
/// fill the memo's slots, fill them with the same query, and run past its
/// eight slots. Every reply is the bytes a fresh profile's answer path
/// writes.
#[test]
fn concurrent_fills_of_one_profile_all_get_the_answer_paths_bytes() {
    let (location, addrs, egress) = location_site(PublicBrand::Google);
    let mut questions = vec![
        location,
        Question::chaos_txt(debug_queries::id_server()),
        Question::chaos_txt(debug_queries::version_bind()),
        Question::new(debug_queries::opendns_debug(), RType::Txt),
        Question::new(debug_queries::whoami_akamai(), RType::A),
        Question::new(debug_queries::whoami_akamai(), RType::Aaaa),
    ];
    for name in ["example.com", "www.example.com", "nowhere.example.com", "opendns.com"] {
        questions.push(Question::new(name.parse().unwrap(), RType::A));
    }
    let questions = &questions;
    let zonedb = Arc::new(ZoneDb::standard_world());
    let profile = || {
        Arc::new(SiteProfile::new(
            PublicBrand::Google,
            addrs,
            "IAD",
            84,
            egress,
            Arc::clone(&zonedb),
        ))
    };
    let ask = |profile: &Arc<SiteProfile>, i: usize| {
        let wire = Message::query(0x4000 + i as u16, questions[i].clone()).encode().unwrap();
        site_reply(PublicResolverSite::with_profile(Arc::clone(profile)), addrs[i % 2], &wire)
    };
    let expected: Vec<Bytes> = (0..questions.len()).map(|i| ask(&profile(), i)).collect();
    let shared = profile();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|thread| {
                let (shared, start, ask) = (&shared, &start, &ask);
                scope.spawn(move || {
                    start.wait();
                    let order = (0..questions.len()).map(|k| (k + 3 * thread) % questions.len());
                    order.map(|i| (i, ask(shared, i))).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, reply) in worker.join().unwrap() {
                assert_eq!(reply, expected[i], "{:?}", questions[i]);
            }
        }
    });
    // Once filled, the memo still answers each question as the answer
    // path does.
    for (i, expected) in expected.iter().enumerate() {
        assert_eq!(&ask(&shared, i), expected, "{:?}", questions[i]);
    }
}

/// Four resolvers on one fresh profile, each in worlds of its own on its
/// own thread, ask the same eighteen questions at once, each thread in its
/// own order, so they race to fill the memo's slots, fill them with the
/// same query, and run past its sixteen slots. Every reply is the bytes a
/// fresh profile's answer path writes, at the same time.
#[test]
fn concurrent_fills_of_one_resolver_profile_all_get_the_answer_paths_bytes() {
    let mut questions = resolver_repertoire();
    for (name, qtype) in [
        ("example.com", RType::A),
        ("example.com", RType::Aaaa),
        ("example.com", RType::Txt),
        ("www.example.com", RType::A),
        ("opendns.com", RType::A),
        ("probe.dns-hijack-study.example", RType::Txt),
    ] {
        questions.push(Question::new(name.parse().unwrap(), qtype));
    }
    let questions = &questions;
    let zonedb = Arc::new(ZoneDb::standard_world());
    let ask = |profile: &Arc<ResolverProfile>, i: usize| {
        let wire = Message::query(0x4000 + i as u16, questions[i].clone()).encode().unwrap();
        let resolver = RecursiveResolver::with_profile(Arc::clone(profile));
        timed_reply(resolver, resolver_addrs()[i % 2], &wire)
    };
    for mode in MODES {
        let expected: Vec<_> =
            (0..questions.len()).map(|i| ask(&resolver_profile(mode, &zonedb), i)).collect();
        let shared = resolver_profile(mode, &zonedb);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|thread| {
                    let (shared, start, ask) = (&shared, &start, &ask);
                    scope.spawn(move || {
                        start.wait();
                        let order =
                            (0..questions.len()).map(|k| (k + 5 * thread) % questions.len());
                        order.map(|i| (i, ask(shared, i))).collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                for (i, reply) in worker.join().unwrap() {
                    assert_eq!(reply, expected[i], "{mode:?} {:?}", questions[i]);
                }
            }
        });
        for (i, expected) in expected.iter().enumerate() {
            assert_eq!(&ask(&shared, i), expected, "{mode:?} {:?}", questions[i]);
        }
    }
}
