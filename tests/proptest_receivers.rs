//! Every simulated DNS receiver takes arbitrary bytes on UDP/53 without
//! panicking, answers only queries, and answers each one as a response to
//! it.
//!
//! The payloads are raw bytes and mutated valid queries: QR set, no
//! question, truncated, a compression pointer that loops, a flipped byte,
//! and names with repeated labels. Each goes, in a small simulator of its
//! own, to a public-resolver site, a recursive resolver, an authoritative
//! server, an iterative resolver, and a CPE acting as a LAN forwarder and
//! as each WAN-side open resolver (local answers only, open relay, open
//! recursive). A receiver may stay silent, but a reply may only answer a
//! payload that is a query (QR clear), and must be a response carrying the
//! query's transaction ID and first question. A query without a question
//! gets FORMERR from the authoritative server and no reply from the
//! others.

use bytes::Bytes;
use cpe::{models, CpeConfig, CpeDevice, DnsMode, ForwarderSpec, WanMode, LAN, WAN};
use dns_wire::{debug_queries, Message, Name, Question, RClass, RType, Rcode};
use netsim::{Cidr, Host, IfaceId, IpPacket, NodeId, Router, SimDuration, Simulator};
use proptest::prelude::*;
use resolver_sim::{
    AuthoritativeServer, Delegation, IterativeResolver, PublicBrand, PublicResolverSite,
    RecursiveResolver, ResolveCtx, ServedZone, SoftwareProfile, StaticZone, ZoneDb,
};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

const CLIENT: &str = "73.1.1.1";
const PROBE: &str = "192.168.1.100";
const SCANNER: &str = "198.51.100.7";
const CPE_WAN: &str = "73.22.1.5";
const UPSTREAM: &str = "75.75.75.75";
const CLIENT_PORT: u16 = 4321;

fn ip(text: &str) -> IpAddr {
    text.parse().unwrap()
}

/// The receivers under test.
#[derive(Debug, Clone, Copy)]
enum Receiver {
    PublicSite,
    Recursive,
    Authoritative,
    Iterative,
    CpeLanForwarder,
    CpeWan(WanMode),
}

const RECEIVERS: [Receiver; 8] = [
    Receiver::PublicSite,
    Receiver::Recursive,
    Receiver::Authoritative,
    Receiver::Iterative,
    Receiver::CpeLanForwarder,
    Receiver::CpeWan(WanMode::LocalOnly),
    Receiver::CpeWan(WanMode::OpenRelay),
    Receiver::CpeWan(WanMode::Recurse),
];

fn isp_resolver() -> Box<RecursiveResolver> {
    RecursiveResolver::boxed(
        "isp-resolver",
        [ip(UPSTREAM)],
        ResolveCtx::v4("75.75.75.10".parse().unwrap()),
        Arc::new(ZoneDb::standard_world()),
        SoftwareProfile::unbound("1.9.0"),
    )
}

/// One client host linked straight to `device`.
fn direct(device: Box<dyn netsim::Device>) -> (Simulator, NodeId) {
    let mut sim = Simulator::new(1);
    let client = sim.add_device(Host::boxed("client", [ip(CLIENT)]));
    let server = sim.add_device(device);
    sim.connect((client, IfaceId(0)), (server, IfaceId(0)), SimDuration::from_millis(1));
    (sim, client)
}

/// probe — CPE — hub — {scanner, upstream resolver}.
fn home(config: CpeConfig) -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(1);
    let probe = sim.add_device(Host::boxed("probe", [ip(PROBE)]));
    let zonedb = Arc::new(ZoneDb::standard_world());
    let cpe = sim.add_device(Box::new(CpeDevice::new(config).with_zonedb(zonedb)));
    let mut hub = Router::new("hub");
    hub.add_addr(ip("62.0.0.1"));
    hub.routes.add(Cidr::host(ip(CPE_WAN)), IfaceId(0));
    hub.routes.add(Cidr::host(ip(SCANNER)), IfaceId(1));
    hub.routes.add(Cidr::host(ip(UPSTREAM)), IfaceId(2));
    let hub = sim.add_device(Box::new(hub));
    let scanner = sim.add_device(Host::boxed("scanner", [ip(SCANNER)]));
    let upstream = sim.add_device(isp_resolver());
    sim.connect((probe, IfaceId(0)), (cpe, LAN), SimDuration::from_millis(1));
    sim.connect((cpe, WAN), (hub, IfaceId(0)), SimDuration::from_millis(1));
    sim.connect((hub, IfaceId(1)), (scanner, IfaceId(0)), SimDuration::from_millis(1));
    sim.connect((hub, IfaceId(2)), (upstream, IfaceId(0)), SimDuration::from_millis(1));
    (sim, probe, scanner)
}

/// Builds `receiver`'s world: the simulator, the querying host, its
/// address and the address it queries.
fn world(receiver: Receiver) -> (Simulator, NodeId, IpAddr, IpAddr) {
    let zonedb = || Arc::new(ZoneDb::standard_world());
    let (sim, client, server) = match receiver {
        Receiver::PublicSite => {
            let site = PublicResolverSite::boxed(
                PublicBrand::Cloudflare,
                [ip("1.1.1.1")],
                "IAD",
                84,
                ResolveCtx::v4("172.68.1.1".parse().unwrap()),
                zonedb(),
            );
            let (sim, client) = direct(site);
            (sim, client, ip("1.1.1.1"))
        }
        Receiver::Recursive => {
            let (sim, client) = direct(isp_resolver());
            (sim, client, ip(UPSTREAM))
        }
        Receiver::Authoritative => {
            let mut zone = StaticZone::new();
            zone.add_a("www.example.com", 300, Ipv4Addr::new(93, 184, 216, 34));
            let mut server = AuthoritativeServer::new("ns1", [ip("192.0.32.1")]);
            server.serve(ServedZone {
                apex: "example.com".parse().unwrap(),
                zone: Arc::new(zone),
                delegations: vec![Delegation {
                    child: "sub.example.com".parse().unwrap(),
                    nameservers: vec![("ns1.sub.example.com".parse().unwrap(), ip("192.0.33.1"))],
                }],
            });
            let (sim, client) = direct(server.boxed());
            (sim, client, ip("192.0.32.1"))
        }
        Receiver::Iterative => {
            // The root hint answers nothing: each resolution retries, then
            // fails with SERVFAIL.
            let resolver = IterativeResolver::boxed(
                "iterative",
                [ip("10.53.0.1")],
                ip("10.53.0.2"),
                vec![ip("192.0.2.1")],
                SoftwareProfile::unbound("1.9.0"),
            );
            let (sim, client) = direct(resolver);
            (sim, client, ip("10.53.0.1"))
        }
        Receiver::CpeLanForwarder => {
            let config = models::dnsmasq_lan(CPE_WAN.parse().unwrap(), ip(UPSTREAM), "2.85");
            let (sim, probe, _) = home(config);
            return (sim, probe, ip(PROBE), ip("192.168.1.1"));
        }
        Receiver::CpeWan(mode) => {
            let mut spec = ForwarderSpec::new(SoftwareProfile::dnsmasq("2.85"), ip(UPSTREAM));
            spec.listen_wan = true;
            spec.wan_mode = mode;
            let config =
                CpeConfig::v4_only("open-cpe", CPE_WAN.parse().unwrap(), DnsMode::Forwarder(spec));
            let (sim, _, scanner) = home(config);
            return (sim, scanner, ip(SCANNER), ip(CPE_WAN));
        }
    };
    (sim, client, ip(CLIENT), server)
}

/// Sends `payload` to `receiver` and returns the payloads of the UDP/53
/// replies that reach the querying host.
fn replies(receiver: Receiver, payload: &[u8]) -> Vec<Bytes> {
    let (mut sim, client, src, dst) = world(receiver);
    let packet = IpPacket::udp(src, dst, CLIENT_PORT, 53, Bytes::copy_from_slice(payload))
        .expect("same-family addresses");
    sim.inject(client, IfaceId(0), packet);
    sim.run_to_quiescence();
    sim.device_mut::<Host>(client)
        .expect("the client is a host")
        .drain_inbox()
        .into_iter()
        .filter_map(|d| {
            let udp = d.packet.udp_payload()?;
            (udp.src_port == 53 && udp.dst_port == CLIENT_PORT).then(|| udp.payload.clone())
        })
        .collect()
}

/// Checks the receivers' contract for one payload.
fn check(payload: &[u8]) -> Result<(), TestCaseError> {
    let query = Message::parse(payload).ok().filter(|q| !q.header.qr);
    for receiver in RECEIVERS {
        let replies = replies(receiver, payload);
        let Some(query) = query.as_ref() else {
            prop_assert!(replies.is_empty(), "{receiver:?} answered a non-query {payload:02x?}");
            continue;
        };
        if query.questions.is_empty() {
            // Only the authoritative server answers, and always FORMERR.
            let expected = usize::from(matches!(receiver, Receiver::Authoritative));
            prop_assert!(replies.len() == expected, "{receiver:?}: query without a question");
        }
        for reply in replies {
            let reply = Message::parse(&reply);
            prop_assert!(reply.is_ok(), "{receiver:?} sent an unparseable reply");
            let reply = reply.unwrap();
            prop_assert!(reply.header.qr, "{receiver:?} replied with a query");
            let echoed = (reply.header.id, reply.question());
            prop_assert!(echoed == (query.header.id, query.question()), "{receiver:?} echo");
            if query.questions.is_empty() {
                prop_assert_eq!(reply.header.rcode, Rcode::FormErr);
            }
        }
    }
    Ok(())
}

/// Names the receivers treat differently, plus repeated labels.
fn arb_name() -> impl Strategy<Value = Name> {
    prop_oneof![
        Just(debug_queries::version_bind()),
        Just(debug_queries::id_server()),
        Just(debug_queries::google_myaddr()),
        Just(debug_queries::whoami_akamai()),
        Just(debug_queries::opendns_debug()),
        Just("www.example.com".parse().unwrap()),
        Just("deep.sub.example.com".parse().unwrap()),
        Just("www.www.example.com".parse().unwrap()),
        Just("a.a".parse().unwrap()),
        Just("x.y.x.y.z".parse().unwrap()),
        Just(Name::root()),
    ]
}

fn arb_query() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        prop_oneof![Just(RType::A), Just(RType::Txt), Just(RType::Aaaa), Just(RType::Any)],
        prop_oneof![Just(RClass::In), Just(RClass::Chaos), Just(RClass::Hesiod)],
        0..3usize,
    )
        .prop_map(|(id, qname, qtype, qclass, extra)| {
            let question = Question { qname, qtype, qclass };
            let mut query = Message::query(id, question.clone());
            // Extra questions reuse the name, so they compress to pointers.
            query.questions.extend(std::iter::repeat_n(question, extra));
            query
        })
}

/// A mutation of a valid query's wire form.
#[derive(Debug, Clone)]
enum Mutation {
    None,
    SetQr,
    ZeroQuestions,
    Truncate(usize),
    /// The first question's name becomes a pointer to itself.
    PointerLoop,
    Flip(usize, u8),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::None),
        Just(Mutation::SetQr),
        Just(Mutation::ZeroQuestions),
        any::<usize>().prop_map(Mutation::Truncate),
        Just(Mutation::PointerLoop),
        (any::<usize>(), 1u8..=255).prop_map(|(at, bits)| Mutation::Flip(at, bits)),
    ]
}

fn mutate(query: &Message, mutation: &Mutation) -> Vec<u8> {
    let mut bytes = query.encode().unwrap();
    match *mutation {
        Mutation::None => {}
        Mutation::SetQr => bytes[2] |= 0x80,
        Mutation::ZeroQuestions => bytes[4..6].copy_from_slice(&[0, 0]),
        Mutation::Truncate(at) => bytes.truncate(at % bytes.len()),
        Mutation::PointerLoop => bytes[12..14].copy_from_slice(&[0xC0, 12]),
        Mutation::Flip(at, bits) => {
            let at = at % bytes.len();
            bytes[at] ^= bits;
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn receivers_answer_only_queries_and_never_panic_on_mutated_queries(
        query in arb_query(),
        mutation in arb_mutation(),
    ) {
        check(&mutate(&query, &mutation))?;
    }

    #[test]
    fn receivers_survive_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..=160)) {
        check(&bytes)?;
    }
}

/// The harness reaches every receiver: an unmutated query gets an answer
/// from each, so the properties above are not vacuous.
#[test]
fn every_receiver_answers_a_plain_query() {
    let cases: [(Receiver, Question); 8] = [
        (Receiver::PublicSite, Question::chaos_txt(debug_queries::id_server())),
        (Receiver::Recursive, Question::new("www.example.com".parse().unwrap(), RType::A)),
        (Receiver::Authoritative, Question::new("www.example.com".parse().unwrap(), RType::A)),
        (Receiver::Iterative, Question::chaos_txt(debug_queries::version_bind())),
        (Receiver::CpeLanForwarder, Question::new("www.example.com".parse().unwrap(), RType::A)),
        (Receiver::CpeWan(WanMode::LocalOnly), Question::chaos_txt(debug_queries::version_bind())),
        (
            Receiver::CpeWan(WanMode::OpenRelay),
            Question::new(debug_queries::whoami_akamai(), RType::A),
        ),
        (
            Receiver::CpeWan(WanMode::Recurse),
            Question::new(debug_queries::whoami_akamai(), RType::A),
        ),
    ];
    for (receiver, question) in cases {
        let query = Message::query(0x5151, question);
        let replies = replies(receiver, &query.encode().unwrap());
        assert_eq!(replies.len(), 1, "{receiver:?}");
        let reply = Message::parse(&replies[0]).unwrap();
        assert_eq!((reply.header.id, reply.question()), (0x5151, query.question()), "{receiver:?}");
    }
}
