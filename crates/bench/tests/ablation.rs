//! Ablation studies for the design choices DESIGN.md calls out, each
//! asserted on the figures EXPERIMENTS.md reports:
//!
//! 1. **How many location resolvers are needed?** Detection recall over a
//!    mixed interceptor population as the resolver panel shrinks from four
//!    to one (selective interceptors are exactly the case a one-resolver
//!    panel misses).
//! 2. **version.bind vs A-record for step 2** — correctness of CPE
//!    attribution over scenarios with and without the Appendix-A
//!    confounder.
//! 3. **Bogon-query usefulness** — how much localization step 3 adds over
//!    stopping after step 2.
//! 4. **Loss never reads as interception** — detection and false
//!    positives as upstream loss sweeps from 0 to 80% (§3.1).

use interception::{CpeModelKind, HomeScenario, MiddleboxSpec, SimTransport};
use locator::baseline::{a_record_cpe_check, ARecordVerdict};
use locator::{
    default_resolvers, HijackLocator, InterceptorLocation, LocatorConfig, QueryOptions,
    ResolverKey, TxidSequence,
};
use netsim::FaultProfile;
use std::net::IpAddr;

/// A mixed population of interceptor scenarios, one per detection-relevant
/// shape.
fn interceptor_population() -> Vec<(&'static str, HomeScenario)> {
    let quad9: Vec<IpAddr> = vec!["9.9.9.9".parse().unwrap(), "149.112.112.112".parse().unwrap()];
    let google: Vec<IpAddr> = vec!["8.8.8.8".parse().unwrap(), "8.8.4.4".parse().unwrap()];
    vec![
        ("xb6", HomeScenario::xb6_case_study()),
        (
            "pi_hole",
            HomeScenario {
                cpe_model: CpeModelKind::PiHole { version: "2.87".into() },
                ..HomeScenario::clean()
            },
        ),
        ("middlebox", HomeScenario::isp_middlebox()),
        (
            "selective_allow_quad9",
            HomeScenario {
                cpe_model: CpeModelKind::SelectiveAllowed {
                    allowed: quad9,
                    version: "2.85".into(),
                },
                ..HomeScenario::clean()
            },
        ),
        (
            "targeted_google_only",
            HomeScenario {
                cpe_model: CpeModelKind::SelectiveTargeted {
                    targets: google,
                    version: "2.85".into(),
                },
                ..HomeScenario::clean()
            },
        ),
        (
            "stealth_cpe",
            HomeScenario { cpe_model: CpeModelKind::StealthInterceptor, ..HomeScenario::clean() },
        ),
        ("beyond_isp", {
            let mut s = HomeScenario::clean();
            s.beyond = Some(MiddleboxSpec {
                redirect_v4: Some(interception::RedirectTarget::Custom(
                    "185.194.112.32".parse().unwrap(),
                )),
                redirect_v6: None,
                exempt_dsts: vec![],
                match_dsts: vec![],
                refused_dsts: vec![],
            });
            s
        }),
    ]
}

fn config_with_panel(built: &interception::BuiltScenario, panel: &[ResolverKey]) -> LocatorConfig {
    let mut config = built.locator_config();
    config.resolvers = default_resolvers().into_iter().filter(|r| panel.contains(&r.key)).collect();
    config
}

/// Ablation 1: recall vs resolver-panel size, as (detected, of) per panel.
#[test]
fn one_resolver_panels_miss_selective_interceptors() {
    let panels: Vec<(&str, Vec<ResolverKey>)> = vec![
        ("google only", vec![ResolverKey::Google]),
        ("google+cloudflare", vec![ResolverKey::Google, ResolverKey::Cloudflare]),
        ("quad9 only", vec![ResolverKey::Quad9]),
        ("all four", ResolverKey::ALL.to_vec()),
    ];
    let mut recall = Vec::new();
    for (label, panel) in panels {
        let mut detected = 0;
        let population = interceptor_population();
        let total = population.len();
        for (_, scenario) in population {
            let built = scenario.build();
            let config = config_with_panel(&built, &panel);
            let mut transport = SimTransport::new(built);
            let report = HijackLocator::new(config).run(&mut transport);
            if report.intercepted {
                detected += 1;
            }
        }
        recall.push((label, detected, total));
    }
    // Quad9 alone misses the interceptor that spares Quad9 and the one
    // that targets only Google.
    assert_eq!(
        recall,
        [
            ("google only", 7, 7),
            ("google+cloudflare", 7, 7),
            ("quad9 only", 5, 7),
            ("all four", 7, 7),
        ]
    );
}

/// Ablation 2: version.bind comparison vs the A-record baseline for CPE
/// attribution, as (truth is CPE, A-record says CPE, step 2 says CPE).
#[test]
fn version_bind_clears_the_appendix_a_confounder() {
    let cases: Vec<(&str, HomeScenario, bool)> = vec![
        ("true CPE interceptor", HomeScenario::xb6_case_study(), true),
        (
            "open-port-53 + ISP middlebox",
            HomeScenario {
                cpe_model: CpeModelKind::OpenWanForwarder { version: "2.80".into() },
                middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
                ..HomeScenario::clean()
            },
            false,
        ),
        ("ISP middlebox, closed CPE", HomeScenario::isp_middlebox(), false),
    ];
    let mut verdicts = Vec::new();
    for (label, scenario, truth_cpe) in cases {
        let built = scenario.build();
        let cpe_public: IpAddr = built.addrs.cpe_public_v4.into();
        let config = built.locator_config();
        let mut transport = SimTransport::new(built);
        let a_rec = matches!(
            a_record_cpe_check(
                &mut transport,
                cpe_public,
                "8.8.8.8".parse().unwrap(),
                &"example.com".parse().unwrap(),
                &mut TxidSequence::new(0x7000),
                QueryOptions::default(),
            ),
            ARecordVerdict::ClaimsCpe { .. }
        );
        let report = HijackLocator::new(config).run(&mut transport);
        let step2 = report.location == Some(InterceptorLocation::Cpe);
        verdicts.push((label, truth_cpe, a_rec, step2));
    }
    // Step 2 matches the truth in every row; the A-record baseline claims
    // the innocent open-port-53 CPE.
    assert_eq!(
        verdicts,
        [
            ("true CPE interceptor", true, true, true),
            ("open-port-53 + ISP middlebox", false, true, false),
            ("ISP middlebox, closed CPE", false, false, false),
        ]
    );
}

/// Ablation 3: what step 3 (bogon queries) adds.
#[test]
fn bogon_queries_localize_within_isp_interceptors() {
    let mut with_bogon = 0;
    let mut without_bogon = 0;
    let population = interceptor_population();
    let total = population.len();
    for (_, scenario) in population {
        let built = scenario.build();
        let config = built.locator_config();
        let mut transport = SimTransport::new(built);
        let report = HijackLocator::new(config).run(&mut transport);
        match report.location {
            Some(InterceptorLocation::Cpe) => {
                // Step 2 localized it; bogon queries were never needed.
                with_bogon += 1;
                without_bogon += 1;
            }
            Some(InterceptorLocation::WithinIsp) => {
                // Only step 3 could say this.
                with_bogon += 1;
            }
            _ => {}
        }
    }
    // The one interceptor left unlocalized is beyond the ISP, correctly
    // unknown.
    assert_eq!((without_bogon, total), (4, 7), "localized without step 3");
    assert_eq!((with_bogon, total), (6, 7), "localized with step 3");
}

/// Ablation 4: the conservative-timeout property under loss. Lost queries
/// read as timeouts, and timeouts are never counted as interception
/// (§3.1) — so loss can only cost recall, never precision.
#[test]
fn upstream_loss_never_reads_as_interception() {
    for loss in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let mut detected = 0;
        let mut false_positives = 0;
        let trials = 20;
        let upstream = FaultProfile { loss, ..FaultProfile::default() };
        for seed in 0..trials {
            // Intercepted home under loss.
            let scenario = HomeScenario { seed, upstream, ..HomeScenario::xb6_case_study() };
            let built = scenario.build();
            let config = built.locator_config();
            let mut transport = SimTransport::new(built);
            if HijackLocator::new(config).run(&mut transport).intercepted {
                detected += 1;
            }
            // Clean home under the same loss: must never read as intercepted.
            let scenario = HomeScenario { seed, upstream, ..HomeScenario::clean() };
            let built = scenario.build();
            let config = built.locator_config();
            let mut transport = SimTransport::new(built);
            if HijackLocator::new(config).run(&mut transport).intercepted {
                false_positives += 1;
            }
        }
        // The CPE answers CHAOS queries before the lossy upstream link,
        // so loss costs this interceptor no recall.
        assert_eq!((detected, trials), (20, 20), "detected at loss {loss}");
        assert_eq!(false_positives, 0, "conservative-timeout property violated at loss {loss}");
    }
}
