//! End-to-end iterative resolution over packets: root referral → TLD
//! referral → authoritative answer, with CNAME chasing, caching, retries,
//! and true packet-source reflection.

use bytes::Bytes;
use dns_wire::{Message, Question, RData, RType, Rcode};
use netsim::{Host, IfaceId, IpPacket, Router, SimDuration, Simulator};
use resolver_sim::{
    AuthoritativeServer, Delegation, IterativeResolver, ReflectKind, ReflectorZone, ServedZone,
    SoftwareProfile, StaticZone,
};
use std::net::IpAddr;
use std::sync::Arc;

const CLIENT: &str = "10.0.0.100";
const RESOLVER_SVC: &str = "10.0.0.53";
const RESOLVER_EGRESS: &str = "10.0.0.54";
const ROOT: &str = "198.41.0.4";
const COM_NS: &str = "192.5.6.30";
const EXAMPLE_NS: &str = "192.0.32.1";
const AKAMAI_NS: &str = "192.0.34.1";

struct World {
    sim: Simulator,
    client: netsim::NodeId,
    resolver: netsim::NodeId,
}

fn build() -> World {
    let mut sim = Simulator::new(5);
    let client = sim.add_device(Host::new("client", [CLIENT.parse::<IpAddr>().unwrap()]));

    let resolver = sim.add_device(IterativeResolver::new(
        "iterative",
        [RESOLVER_SVC.parse::<IpAddr>().unwrap()],
        RESOLVER_EGRESS.parse().unwrap(),
        vec![ROOT.parse().unwrap()],
        SoftwareProfile::unbound("1.13.1"),
    ));

    // Root: delegates com. to the TLD server.
    let mut root = AuthoritativeServer::new("root", [ROOT.parse::<IpAddr>().unwrap()]);
    root.serve(ServedZone {
        apex: dns_wire::Name::root(),
        zone: Arc::new(StaticZone::new()),
        delegations: vec![Delegation {
            child: "com".parse().unwrap(),
            nameservers: vec![("a.gtld-servers.net".parse().unwrap(), COM_NS.parse().unwrap())],
        }],
    });
    let root = sim.add_device(root);

    // TLD: delegates example.com and akamai.com.
    let mut tld = AuthoritativeServer::new("com-tld", [COM_NS.parse::<IpAddr>().unwrap()]);
    tld.serve(ServedZone {
        apex: "com".parse().unwrap(),
        zone: Arc::new(StaticZone::new()),
        delegations: vec![
            Delegation {
                child: "example.com".parse().unwrap(),
                nameservers: vec![(
                    "ns1.example.com".parse().unwrap(),
                    EXAMPLE_NS.parse().unwrap(),
                )],
            },
            Delegation {
                child: "akamai.com".parse().unwrap(),
                nameservers: vec![("ns1.akamai.com".parse().unwrap(), AKAMAI_NS.parse().unwrap())],
            },
        ],
    });
    let tld = sim.add_device(tld);

    // example.com authoritative, with an in-zone CNAME chain.
    let mut example = StaticZone::new();
    example.add_a("www.example.com", 300, "93.184.216.34".parse().unwrap());
    example.add_cname("alias.example.com", 300, "www.example.com");
    let mut example_srv =
        AuthoritativeServer::new("ns-example", [EXAMPLE_NS.parse::<IpAddr>().unwrap()]);
    example_srv.serve(ServedZone {
        apex: "example.com".parse().unwrap(),
        zone: Arc::new(example),
        delegations: vec![],
    });
    let example_srv = sim.add_device(example_srv);

    // akamai.com authoritative: the whoami reflector.
    let mut akamai_srv =
        AuthoritativeServer::new("ns-akamai", [AKAMAI_NS.parse::<IpAddr>().unwrap()]);
    akamai_srv.serve(ServedZone {
        apex: "akamai.com".parse().unwrap(),
        zone: Arc::new(ReflectorZone::new(
            "whoami.akamai.com".parse().unwrap(),
            ReflectKind::Address,
        )),
        delegations: vec![],
    });
    let akamai_srv = sim.add_device(akamai_srv);

    // A hub router connecting everyone.
    let mut hub = Router::new("hub");
    hub.add_addr("10.255.255.1".parse().unwrap());
    let hub = sim.add_device(hub);

    let ms = SimDuration::from_millis;
    sim.connect((client, IfaceId(0)), (hub, IfaceId(0)), ms(1));
    sim.connect((resolver, IfaceId(0)), (hub, IfaceId(1)), ms(1));
    sim.connect((root, IfaceId(0)), (hub, IfaceId(2)), ms(5));
    sim.connect((tld, IfaceId(0)), (hub, IfaceId(3)), ms(5));
    sim.connect((example_srv, IfaceId(0)), (hub, IfaceId(4)), ms(5));
    sim.connect((akamai_srv, IfaceId(0)), (hub, IfaceId(5)), ms(5));
    sim.derive_routes(hub, &[]);

    World { sim, client, resolver }
}

fn query(world: &mut World, name: &str, qtype: RType, id: u16) -> Message {
    let msg = Message::query(id, Question::new(name.parse().unwrap(), qtype));
    let pkt = IpPacket::udp_v4(
        CLIENT.parse().unwrap(),
        RESOLVER_SVC.parse().unwrap(),
        4000 + id,
        53,
        Bytes::from(msg.encode().unwrap()),
    );
    world.sim.inject(world.client, IfaceId(0), pkt);
    world.sim.run_to_quiescence();
    let inbox = world.sim.device_mut::<Host>(world.client).unwrap().drain_inbox();
    assert_eq!(inbox.len(), 1, "expected exactly one answer for {name}");
    let resp = Message::parse(&inbox[0].packet.udp_payload().unwrap().payload).unwrap();
    assert_eq!(resp.header.id, id);
    resp
}

#[test]
fn walks_root_tld_authoritative() {
    let mut world = build();
    let resp = query(&mut world, "www.example.com", RType::A, 1);
    assert_eq!(resp.header.rcode, Rcode::NoError);
    assert_eq!(resp.answers[0].rdata, RData::A("93.184.216.34".parse().unwrap()));
    // Root + TLD + authoritative = 3 upstream queries.
    let r = world.sim.device::<IterativeResolver>(world.resolver).unwrap();
    assert_eq!(r.upstream_queries, 3);
}

#[test]
fn cname_chase_restarts_from_roots() {
    let mut world = build();
    let resp = query(&mut world, "alias.example.com", RType::A, 2);
    assert_eq!(resp.header.rcode, Rcode::NoError);
    // The chain carries both the CNAME and the final A.
    assert!(resp.answers.iter().any(|r| matches!(r.rdata, RData::Cname(_))));
    assert!(resp.answers.iter().any(|r| r.rdata == RData::A("93.184.216.34".parse().unwrap())));
}

#[test]
fn caching_avoids_repeat_walks() {
    let mut world = build();
    query(&mut world, "www.example.com", RType::A, 3);
    let before = world.sim.device::<IterativeResolver>(world.resolver).unwrap().upstream_queries;
    query(&mut world, "www.example.com", RType::A, 4);
    let after = world.sim.device::<IterativeResolver>(world.resolver).unwrap().upstream_queries;
    assert_eq!(before, after, "second lookup served from cache");
    let (hits, _misses) =
        world.sim.device::<IterativeResolver>(world.resolver).unwrap().cache_stats();
    assert_eq!(hits, 1);
}

#[test]
fn whoami_reflects_the_resolvers_real_egress() {
    // The packet arriving at the akamai authoritative carries the
    // resolver's egress address as its true source — reflection without a
    // zone-database shortcut.
    let mut world = build();
    let resp = query(&mut world, "whoami.akamai.com", RType::A, 5);
    assert_eq!(resp.answers[0].rdata, RData::A(RESOLVER_EGRESS.parse().unwrap()));
}

#[test]
fn nxdomain_propagates() {
    let mut world = build();
    let resp = query(&mut world, "missing.example.com", RType::A, 6);
    assert_eq!(resp.header.rcode, Rcode::NxDomain);
}

#[test]
fn unreachable_tree_eventually_servfails() {
    // Root hints pointing into the void: timers fire, retries exhaust, and
    // the client gets SERVFAIL rather than silence.
    let mut sim = Simulator::new(9);
    let client = sim.add_device(Host::new("client", [CLIENT.parse::<IpAddr>().unwrap()]));
    let resolver = sim.add_device(IterativeResolver::new(
        "iterative",
        [RESOLVER_SVC.parse::<IpAddr>().unwrap()],
        RESOLVER_EGRESS.parse().unwrap(),
        vec!["203.0.113.99".parse().unwrap()], // nobody there
        SoftwareProfile::unbound("1.13.1"),
    ));
    sim.connect((client, IfaceId(0)), (resolver, IfaceId(0)), SimDuration::from_millis(1));
    let msg = Message::query(7, Question::new("x.example".parse().unwrap(), RType::A));
    let pkt = IpPacket::udp_v4(
        CLIENT.parse().unwrap(),
        RESOLVER_SVC.parse().unwrap(),
        4007,
        53,
        Bytes::from(msg.encode().unwrap()),
    );
    sim.inject(client, IfaceId(0), pkt);
    sim.run_to_quiescence();
    let inbox = sim.device_mut::<Host>(client).unwrap().drain_inbox();
    assert_eq!(inbox.len(), 1);
    let resp = Message::parse(&inbox[0].packet.udp_payload().unwrap().payload).unwrap();
    assert_eq!(resp.header.rcode, Rcode::ServFail);
    assert_eq!(sim.device::<IterativeResolver>(resolver).unwrap().servfails, 1);
}

#[test]
fn chaos_identity_answered_locally() {
    let mut world = build();
    let msg = Message::query(8, Question::chaos_txt(dns_wire::debug_queries::version_bind()));
    let pkt = IpPacket::udp_v4(
        CLIENT.parse().unwrap(),
        RESOLVER_SVC.parse().unwrap(),
        4008,
        53,
        Bytes::from(msg.encode().unwrap()),
    );
    world.sim.inject(world.client, IfaceId(0), pkt);
    world.sim.run_to_quiescence();
    let inbox = world.sim.device_mut::<Host>(world.client).unwrap().drain_inbox();
    let resp = Message::parse(&inbox[0].packet.udp_payload().unwrap().payload).unwrap();
    assert_eq!(resp.answers[0].rdata.txt_string().unwrap(), "unbound 1.13.1");
    // No upstream traffic for CHAOS.
    assert_eq!(world.sim.device::<IterativeResolver>(world.resolver).unwrap().upstream_queries, 0);
}
