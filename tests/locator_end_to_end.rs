//! End-to-end integration: the paper's three-step technique running over
//! the packet-level simulator, one scenario class per test, scored against
//! ground truth.

use interception::{
    CpeModelKind, GroundTruth, HomeScenario, IspProfile, MiddleboxSpec, RedirectTarget,
    ResolverMode, SimTransport,
};
use locator::{HijackLocator, InterceptorLocation, LocationTestResult, ResolverKey, Transparency};

fn run(scenario: HomeScenario) -> (locator::ProbeReport, SimTransport) {
    let built = scenario.build();
    let config = built.locator_config();
    let mut transport = SimTransport::new(built);
    let report = HijackLocator::new(config).run(&mut transport);
    (report, transport)
}

#[test]
fn clean_home_is_not_intercepted() {
    let (report, t) = run(HomeScenario::clean());
    assert!(!report.intercepted);
    assert_eq!(report.location, None);
    assert_eq!(t.scenario.truth, GroundTruth::NotIntercepted);
    // All eight resolver/family cells say Standard.
    for key in ResolverKey::ALL {
        assert_eq!(*report.matrix.v4.get(key), LocationTestResult::Standard, "{key:?} v4");
        assert_eq!(*report.matrix.v6.get(key), LocationTestResult::Standard, "{key:?} v6");
    }
}

#[test]
fn xb6_bug_localized_to_cpe() {
    let (report, t) = run(HomeScenario::xb6_case_study());
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::Cpe));
    assert_eq!(report.location, t.scenario.expected);
    // All four v4 resolvers intercepted; v6 untouched (Table 4 pattern).
    assert!(report.matrix.all_four_v4());
    assert!(report.matrix.intercepted_v6().is_empty());
    // Step-2 evidence: identical XDNS strings everywhere.
    let cpe = report.cpe.expect("step 2 ran");
    assert!(cpe.cpe_is_interceptor);
    assert_eq!(cpe.cpe_response.text(), Some("dnsmasq-2.78-xfin"));
    // Transparent: the ISP resolver still answers correctly.
    assert_eq!(report.transparency, Some(Transparency::Transparent));
}

#[test]
fn healthy_xb6_not_flagged() {
    let (report, _) =
        run(HomeScenario { cpe_model: CpeModelKind::Xb6Healthy, ..HomeScenario::clean() });
    assert!(!report.intercepted);
}

#[test]
fn pi_hole_detected_as_cpe_with_table5_string() {
    let (report, _) = run(HomeScenario {
        cpe_model: CpeModelKind::PiHole { version: "2.87".into() },
        ..HomeScenario::clean()
    });
    assert_eq!(report.location, Some(InterceptorLocation::Cpe));
    let cpe = report.cpe.unwrap();
    assert_eq!(cpe.cpe_response.text(), Some("dnsmasq-pi-hole-2.87"));
}

#[test]
fn unbound_cpe_interceptor_detected() {
    let (report, _) = run(HomeScenario {
        cpe_model: CpeModelKind::UnboundInterceptor { version: "1.9.0".into() },
        ..HomeScenario::clean()
    });
    assert_eq!(report.location, Some(InterceptorLocation::Cpe));
    assert_eq!(report.cpe.unwrap().cpe_response.text(), Some("unbound 1.9.0"));
}

#[test]
fn isp_middlebox_localized_within_isp() {
    let (report, t) = run(HomeScenario::isp_middlebox());
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::WithinIsp));
    assert_eq!(report.location, t.scenario.expected);
    // The CPE did not answer version.bind identically (it's a plain router:
    // silent), so step 2 cleared it.
    let cpe = report.cpe.expect("step 2 ran");
    assert!(!cpe.cpe_is_interceptor);
    // Step 3's bogon query was answered inside the AS.
    let bogon = report.bogon.expect("step 3 ran");
    assert!(matches!(bogon.v4, locator::BogonOutcome::Answered { .. }));
}

#[test]
fn open_port53_cpe_with_isp_middlebox_not_misattributed_to_cpe() {
    // The Appendix-A confounder: CPE answers version.bind (dnsmasq-2.80),
    // but the real interceptor is the ISP middlebox whose resolver answers
    // with a different string. version.bind comparison clears the CPE.
    let (report, _) = run(HomeScenario {
        cpe_model: CpeModelKind::OpenWanForwarder { version: "2.80".into() },
        middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
        ..HomeScenario::clean()
    });
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::WithinIsp));
    let cpe = report.cpe.unwrap();
    assert!(!cpe.cpe_is_interceptor);
    assert_eq!(cpe.cpe_response.text(), Some("dnsmasq-2.80"));
}

#[test]
fn beyond_isp_interceptor_is_beyond_or_unknown() {
    let (report, t) = run(HomeScenario {
        beyond: Some(MiddleboxSpec {
            redirect_v4: Some(RedirectTarget::Custom("185.194.112.32".parse().unwrap())),
            redirect_v6: None,
            exempt_dsts: vec![],
            match_dsts: vec![],
            refused_dsts: vec![],
        }),
        ..HomeScenario::clean()
    });
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::BeyondOrUnknown));
    assert_eq!(report.location, t.scenario.expected);
    // Bogon queries died at the AS border.
    let bogon = report.bogon.unwrap();
    assert_eq!(bogon.v4, locator::BogonOutcome::Silent);
}

#[test]
fn resolver_outside_as_limitation_reproduced() {
    // §6: ISP-run interception whose resolver lives outside the client AS
    // is classified beyond/unknown, not within-ISP.
    let (report, t) = run(HomeScenario {
        isp: IspProfile { resolver_in_as: false, ..IspProfile::comcast_like() },
        beyond: Some(MiddleboxSpec::redirect_all_to_isp()),
        ..HomeScenario::clean()
    });
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::BeyondOrUnknown));
    assert_eq!(t.scenario.truth, GroundTruth::BeyondIsp);
}

#[test]
fn stealth_cpe_limitation_reproduced() {
    // §6: the CPE interceptor hides version.bind; step 2 cannot identify
    // it, but its DNAT still answers bogon queries → within-ISP.
    let (report, t) =
        run(HomeScenario { cpe_model: CpeModelKind::StealthInterceptor, ..HomeScenario::clean() });
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::WithinIsp));
    assert_eq!(report.location, t.scenario.expected);
    assert_eq!(t.scenario.truth, GroundTruth::Cpe { version: None });
}

#[test]
fn selective_interceptor_leaves_allowed_resolver_standard() {
    // "Only one resolver allowed" (§4.1.1): Quad9 exempted, others captured.
    let quad9_addrs: Vec<std::net::IpAddr> =
        vec!["9.9.9.9".parse().unwrap(), "149.112.112.112".parse().unwrap()];
    let (report, _) = run(HomeScenario {
        cpe_model: CpeModelKind::SelectiveAllowed { allowed: quad9_addrs, version: "2.85".into() },
        ..HomeScenario::clean()
    });
    assert!(report.intercepted);
    assert_eq!(*report.matrix.v4.get(ResolverKey::Quad9), LocationTestResult::Standard);
    assert!(report.matrix.v4.get(ResolverKey::Google).is_intercepted());
    assert!(report.matrix.v4.get(ResolverKey::Cloudflare).is_intercepted());
    assert!(report.matrix.v4.get(ResolverKey::OpenDns).is_intercepted());
    // Still correctly attributed to the CPE via the intercepted resolvers.
    assert_eq!(report.location, Some(InterceptorLocation::Cpe));
}

#[test]
fn targeted_interceptor_captures_only_google() {
    let google: Vec<std::net::IpAddr> =
        vec!["8.8.8.8".parse().unwrap(), "8.8.4.4".parse().unwrap()];
    let (report, _) = run(HomeScenario {
        cpe_model: CpeModelKind::SelectiveTargeted { targets: google, version: "2.85".into() },
        ..HomeScenario::clean()
    });
    assert!(report.intercepted);
    assert!(report.matrix.v4.get(ResolverKey::Google).is_intercepted());
    assert_eq!(*report.matrix.v4.get(ResolverKey::Cloudflare), LocationTestResult::Standard);
    assert_eq!(*report.matrix.v4.get(ResolverKey::Quad9), LocationTestResult::Standard);
    assert_eq!(*report.matrix.v4.get(ResolverKey::OpenDns), LocationTestResult::Standard);
}

#[test]
fn v6_interception_detected_when_enabled() {
    // The rare dual-stack interceptor (Table 4's handful of v6 probes).
    let (report, _) = run(HomeScenario {
        cpe_model: CpeModelKind::Xb6Buggy,
        cpe_intercept_v6: true,
        ..HomeScenario::clean()
    });
    assert!(report.matrix.all_four_v4());
    assert!(report.matrix.all_four_v6());
}

#[test]
fn status_modified_transparency_detected() {
    // Middlebox interception whose resolver refuses foreign queries →
    // Figure 3's "Status Modified" category.
    let (report, _) = run(HomeScenario {
        isp: IspProfile { resolver_mode: ResolverMode::RefuseAll, ..IspProfile::comcast_like() },
        middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
        ..HomeScenario::clean()
    });
    assert!(report.intercepted);
    assert_eq!(report.transparency, Some(Transparency::StatusModified));
}

#[test]
fn query_count_matches_technique_footprint() {
    // Clean dual-stack probe: 4 resolvers × 2 addresses × 2 families = 16.
    let (report, _) = run(HomeScenario::clean());
    assert_eq!(report.queries_sent, 16);
    // Intercepted probe: step 1 exits early per intercepted resolver (1
    // query instead of 2 on v4 → 12), step 2 adds 1 CPE + 4 resolvers,
    // step 3 is skipped (CPE found), whoami adds 4.
    let (report, _) = run(HomeScenario::xb6_case_study());
    assert_eq!(report.queries_sent, 12 + 5 + 4);
}

#[test]
fn reports_are_deterministic_across_runs() {
    let run_once = || {
        let (report, _) = run(HomeScenario::xb6_case_study());
        serde_json::to_string(&report).unwrap()
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn double_nat_home_clean_path_still_works() {
    // User router behind the ISP modem: two NATs in series, nothing
    // intercepts — the technique must stay quiet.
    let (report, _) = run(HomeScenario {
        inner_router: Some(CpeModelKind::DnsmasqLan { version: "2.85".into() }),
        ..HomeScenario::clean()
    });
    assert!(!report.intercepted, "{:?}", report.matrix);
}

#[test]
fn double_nat_outer_xb6_detected_as_cpe() {
    // The ISP modem (outer CPE) intercepts; the reply's spoofed source
    // must survive translation through the inner NAT too.
    let (report, _) = run(HomeScenario {
        cpe_model: CpeModelKind::Xb6Buggy,
        inner_router: Some(CpeModelKind::DnsmasqLan { version: "2.85".into() }),
        ..HomeScenario::clean()
    });
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::Cpe));
    assert_eq!(report.cpe.unwrap().cpe_response.text(), Some("dnsmasq-2.78-xfin"));
}

#[test]
fn double_nat_inner_pi_hole_detected_as_cpe() {
    // The user's own Pi-hole (inner router) intercepts ahead of a clean
    // ISP modem.
    let scenario = HomeScenario {
        inner_router: Some(CpeModelKind::PiHole { version: "2.87".into() }),
        ..HomeScenario::clean()
    };
    assert_eq!(scenario.truth(), GroundTruth::Cpe { version: Some("dnsmasq-pi-hole-2.87".into()) });
    let (report, _) = run(scenario);
    assert!(report.intercepted);
    assert_eq!(report.location, Some(InterceptorLocation::Cpe));
    assert_eq!(report.cpe.unwrap().cpe_response.text(), Some("dnsmasq-pi-hole-2.87"));
}

#[test]
fn probe_addresses_are_bogons() {
    // The addresses step 3 actually queries must sit in bogon space, or a
    // border router would route them and the step would prove nothing.
    let config = locator::LocatorConfig::default();
    assert!(netsim::bogon::is_bogon(config.bogon_v4));
    assert!(netsim::bogon::is_bogon(config.bogon_v6));
}
