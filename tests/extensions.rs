//! Integration tests for the §6 future-work extensions: TTL-scan hop
//! localization, the DoT interception model, and query replication.

use interception::{HomeScenario, SimTransport};
use locator::ttl_scan::{interpret, ttl_scan, TtlVerdict};
use locator::{default_resolvers, QueryOptions, QueryTransport, TxidSequence};

fn scan(scenario: HomeScenario) -> locator::ttl_scan::TtlScanResult {
    let mut transport = SimTransport::new(scenario.build());
    let cloudflare = &default_resolvers()[0];
    ttl_scan(
        &mut transport,
        cloudflare.v4[0],
        &cloudflare.location_query(),
        12,
        &mut TxidSequence::new(0x6000),
        QueryOptions::default(),
    )
}

#[test]
fn ttl_scan_clean_path_answers_at_site_distance() {
    let result = scan(HomeScenario::clean());
    // probe → CPE → edge → border → core → site: four forwarding hops
    // decrement the TTL, so the site first answers at TTL 5.
    assert_eq!(result.first_response_ttl, Some(5));
}

#[test]
fn ttl_scan_identifies_cpe_interceptor_at_hop_one() {
    let result = scan(HomeScenario::xb6_case_study());
    // The XB6's DNAT captures the query at the very first hop and its
    // forwarder re-originates it, so TTL 1 already yields an answer.
    assert_eq!(result.first_response_ttl, Some(1));
    assert!(result.answered_at_first_hop());
    let baseline = scan(HomeScenario::clean());
    assert_eq!(interpret(&result, &baseline), TtlVerdict::AnsweredByCpe);
}

#[test]
fn ttl_scan_places_middlebox_between_cpe_and_site() {
    let result = scan(HomeScenario::isp_middlebox());
    let baseline = scan(HomeScenario::clean());
    // The middlebox rewrites the destination but the packet keeps
    // decrementing until the ISP resolver — closer than the anycast site.
    let hops = result.first_response_ttl.expect("middlebox path answers");
    assert!(hops > 1, "not the CPE");
    assert!(hops < baseline.first_response_ttl.unwrap(), "closer than the real site");
    assert_eq!(interpret(&result, &baseline), TtlVerdict::InterceptedAtHop { hops });
}

#[test]
fn ttl_scan_query_budget_is_bounded() {
    let result = scan(HomeScenario::clean());
    // One query per TTL value until the first response.
    assert_eq!(result.queries_sent as u64, result.first_response_ttl.unwrap() as u64);
}

#[test]
fn dot_model_matches_section_6_claims() {
    use locator::dot::*;
    // Strict DoT prevents interception altogether; opportunistic allows
    // it; and the location queries still detect it inside the channel.
    assert!(!interception_possible(DotProfile::Strict, DotPathCondition::MitmWithBogusCert));
    assert!(interception_possible(
        DotProfile::Opportunistic,
        DotPathCondition::MitmWithBogusCert
    ));
    let outcome = establish(DotProfile::Opportunistic, DotPathCondition::MitmWithBogusCert);
    assert!(location_queries_detect(outcome));
}

#[test]
fn replication_is_detected_as_interception() {
    // A replicating middlebox world built by hand: probe-side transport
    // sees the interceptor's (faster) answer first, so step 1 flags
    // non-standard responses just like plain interception. Replication vs
    // interception is indistinguishable (§3.1) — and the technique treats
    // it identically.
    use bytes::Bytes;
    use dns_wire::{Message, MessageView};
    use interception::ReplicatingInterceptor;
    use netsim::{Cidr, Host, IfaceId, IpPacket, Router, SimDuration, Simulator};
    use resolver_sim::{PublicBrand, PublicResolverSite, RecursiveResolver, ResolveCtx,
        SoftwareProfile, ZoneDb};
    use std::net::IpAddr;
    use std::sync::Arc;

    let mut sim = Simulator::new(11);
    let zonedb = Arc::new(ZoneDb::standard_world());
    let client = sim.add_device(Host::boxed("client", ["73.1.1.1".parse::<IpAddr>().unwrap()]));
    let mut rep = ReplicatingInterceptor::new("rep", "75.75.75.75".parse().unwrap());
    rep.route_client("73.0.0.0/8".parse().unwrap());
    let rep = sim.add_device(Box::new(rep));
    let mut hub = Router::new("hub");
    hub.add_addr("62.0.0.1".parse().unwrap());
    hub.routes.add("73.0.0.0/8".parse().unwrap(), IfaceId(0));
    hub.routes.add(Cidr::host("1.1.1.1".parse().unwrap()), IfaceId(1));
    hub.routes.add(Cidr::host("75.75.75.75".parse().unwrap()), IfaceId(2));
    let hub = sim.add_device(Box::new(hub));
    let site = sim.add_device(PublicResolverSite::boxed(
        PublicBrand::Cloudflare,
        ["1.1.1.1".parse::<IpAddr>().unwrap()],
        "IAD",
        84,
        ResolveCtx::v4("172.68.1.1".parse().unwrap()),
        Arc::clone(&zonedb),
    ));
    let isp = sim.add_device(RecursiveResolver::boxed(
        "isp",
        ["75.75.75.75".parse::<IpAddr>().unwrap()],
        ResolveCtx::v4("75.75.75.10".parse().unwrap()),
        zonedb,
        SoftwareProfile::unbound("1.9.0"),
    ));
    sim.connect((client, IfaceId(0)), (rep, IfaceId(0)), SimDuration::from_millis(1));
    sim.connect((rep, IfaceId(1)), (hub, IfaceId(0)), SimDuration::from_millis(2));
    sim.connect((hub, IfaceId(1)), (site, IfaceId(0)), SimDuration::from_millis(50));
    sim.connect((hub, IfaceId(2)), (isp, IfaceId(0)), SimDuration::from_millis(3));

    // id.server CHAOS toward Cloudflare: the replica's answer (unbound →
    // REFUSED) beats the genuine IATA answer.
    let q = Message::query(
        3,
        dns_wire::Question::chaos_txt("id.server".parse().unwrap()),
    );
    let pkt = IpPacket::udp_v4(
        "73.1.1.1".parse().unwrap(),
        "1.1.1.1".parse().unwrap(),
        4000,
        53,
        Bytes::from(q.encode().unwrap()),
    );
    sim.inject(client, IfaceId(0), pkt);
    sim.run_to_quiescence();
    let inbox = sim.device_mut::<Host>(client).unwrap().drain_inbox();
    assert_eq!(inbox.len(), 2, "original + replica both answered");
    let first = MessageView::parse(&inbox[0].packet.udp_payload().unwrap().payload).unwrap();
    // The first-arriving answer is the interceptor's — non-standard.
    let cloudflare = &default_resolvers()[0];
    assert!(!cloudflare.is_standard_location_response(&first));
    // The late genuine answer would have been standard.
    let second = MessageView::parse(&inbox[1].packet.udp_payload().unwrap().payload).unwrap();
    assert!(cloudflare.is_standard_location_response(&second));
}

#[test]
fn ad_downgrade_corroborates_interception() {
    use locator::side_checks::{ad_downgrade_check, AdVerdict};
    let signed: dns_wire::Name = "example.com".parse().unwrap();
    // Clean path to Google (a validating resolver over a signed zone): AD set.
    let mut clean = SimTransport::new(HomeScenario::clean().build());
    assert_eq!(
        ad_downgrade_check(&mut clean, "8.8.8.8".parse().unwrap(), &signed, &mut TxidSequence::new(0x3000), QueryOptions::default()),
        AdVerdict::Authenticated
    );
    // Intercepted path: the ISP's non-validating resolver answers — AD gone.
    let mut hijacked = SimTransport::new(HomeScenario::xb6_case_study().build());
    assert_eq!(
        ad_downgrade_check(&mut hijacked, "8.8.8.8".parse().unwrap(), &signed, &mut TxidSequence::new(0x3000), QueryOptions::default()),
        AdVerdict::Downgraded
    );
}

#[test]
fn nxdomain_wildcarding_detected_through_interceptor() {
    use interception::{IspProfile, MiddleboxSpec, ResolverMode};
    use locator::side_checks::{nxdomain_wildcard_check, WildcardVerdict};
    let canary: dns_wire::Name = "no-such-name-canary.example.com".parse().unwrap();
    // Honest path.
    let mut clean = SimTransport::new(HomeScenario::clean().build());
    assert_eq!(
        nxdomain_wildcard_check(&mut clean, "1.1.1.1".parse().unwrap(), &canary, &mut TxidSequence::new(0x3000), QueryOptions::default()),
        WildcardVerdict::Honest
    );
    // Interception toward a wildcarding ISP resolver.
    let scenario = HomeScenario {
        isp: IspProfile {
            resolver_mode: ResolverMode::NxWildcard("75.75.0.99".parse().unwrap()),
            ..IspProfile::comcast_like()
        },
        middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
        ..HomeScenario::clean()
    };
    let mut hijacked = SimTransport::new(scenario.build());
    assert_eq!(
        nxdomain_wildcard_check(&mut hijacked, "1.1.1.1".parse().unwrap(), &canary, &mut TxidSequence::new(0x3000), QueryOptions::default()),
        WildcardVerdict::Wildcarded { substituted: "75.75.0.99".parse().unwrap() }
    );
}

#[test]
fn iterative_resolver_fidelity_mode_reproduces_verdicts() {
    // The "no shortcuts" mode: the ISP resolver is a real iterative
    // resolver walking packet-level authoritative servers (root →
    // authoritative), yet every step of the technique behaves identically.
    use locator::{HijackLocator, InterceptorLocation};

    // Clean home: nothing detected even though resolution is now a real
    // multi-packet walk.
    let scenario = HomeScenario { iterative_isp_resolver: true, ..HomeScenario::clean() };
    let built = scenario.build();
    let config = built.locator_config();
    let mut transport = SimTransport::new(built);
    let report = HijackLocator::new(config).run(&mut transport);
    assert!(!report.intercepted, "{report}");

    // XB6 home: interception detected and attributed to the CPE; the
    // whoami transparency test passes through the full iterative path.
    let scenario = HomeScenario {
        iterative_isp_resolver: true,
        ..HomeScenario::xb6_case_study()
    };
    let built = scenario.build();
    let config = built.locator_config();
    let mut transport = SimTransport::new(built);
    let report = HijackLocator::new(config).run(&mut transport);
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::Cpe));
    assert_eq!(report.transparency, Some(locator::Transparency::Transparent));
}

#[test]
fn iterative_mode_whoami_reflects_isp_egress_under_interception() {
    use dns_wire::{Question, RData, RType};
    let scenario = HomeScenario {
        iterative_isp_resolver: true,
        ..HomeScenario::xb6_case_study()
    };
    let built = scenario.build();
    let mut transport = SimTransport::new(built);
    // whoami "via Google": DNAT sends it to the iterative ISP resolver,
    // whose real egress address the akamai authoritative reflects.
    let q = Question::new("whoami.akamai.com".parse().unwrap(), RType::A);
    let out = transport.query("8.8.8.8".parse().unwrap(), &q, 0x2000, QueryOptions::default());
    let resp = out.response().expect("answered by the interceptor").to_message();
    assert_eq!(
        resp.answers[0].rdata,
        RData::A("75.75.75.10".parse().unwrap()),
        "the ISP resolver's true egress, seen by the authoritative"
    );
}

#[test]
fn busy_home_verdict_unchanged_and_background_flows_spoofed_consistently() {
    use interception::BackgroundClient;
    use locator::{HijackLocator, InterceptorLocation};
    // Three IoT boxes chatter toward 8.8.8.8 behind the buggy XB6 while
    // the locator measures: the verdict must be unchanged, and every
    // background flow must receive its (spoofed-source) answer — conntrack
    // keeps the concurrent flows apart.
    let scenario = HomeScenario {
        background_clients: 3,
        ..HomeScenario::xb6_case_study()
    };
    let built = scenario.build();
    let config = built.locator_config();
    let clients = built.background.clone();
    assert_eq!(clients.len(), 3);
    let mut transport = SimTransport::new(built);
    let report = HijackLocator::new(config).run(&mut transport);
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::Cpe));
    for node in clients {
        let c = transport.scenario.sim.device::<BackgroundClient>(node).unwrap();
        assert!(c.sent > 10, "client kept chattering ({} sent)", c.sent);
        assert_eq!(c.received, c.sent, "every query answered");
        assert_eq!(c.mismatched_sources, 0, "every answer spoofed as 8.8.8.8");
    }
}

#[test]
fn investigator_combines_all_evidence_over_the_simulated_world() {
    use locator::{InvestigationConfig, Investigator};
    let built = HomeScenario::xb6_case_study().build();
    let config = InvestigationConfig {
        locator: built.locator_config(),
        ttl_budget: Some(12),
        ..InvestigationConfig::default()
    };
    let mut transport = SimTransport::new(built);
    let inv = Investigator::new(config).run(&mut transport);
    assert!(inv.report.intercepted);
    assert!(inv.summary.contains("located at CPE"), "{}", inv.summary);
    assert!(inv.summary.contains("DNSSEC AD bit stripped"), "{}", inv.summary);
    assert!(inv.summary.contains("hop 1"), "{}", inv.summary);
    assert!(inv.summary.contains("dnsmasq-2.78-xfin"), "{}", inv.summary);

    // Clean household: quiet everywhere.
    let built = HomeScenario::clean().build();
    let config = InvestigationConfig {
        locator: built.locator_config(),
        ttl_budget: Some(12),
        ..InvestigationConfig::default()
    };
    let mut transport = SimTransport::new(built);
    let inv = Investigator::new(config).run(&mut transport);
    assert!(!inv.report.intercepted);
    assert_eq!(inv.ad_check, Some(locator::side_checks::AdVerdict::Authenticated));
    assert_eq!(
        inv.wildcard_check,
        Some(locator::side_checks::WildcardVerdict::Honest)
    );
}
