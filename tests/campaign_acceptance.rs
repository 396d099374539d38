//! Campaign-level acceptance checks: the 200-probe metrics expectation CI
//! diffs on every push, and the full-size 10k-probe provenance sweep that
//! runs under `--include-ignored`.

use atlas_sim::{
    generate, run_campaign, run_campaign_captured, CampaignOptions, FleetConfig, MetricsRegistry,
};
use std::path::PathBuf;

fn golden_metrics_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_200.json")
}

/// The checked-in expectation must equal what
/// `repro --size 200 --metrics <path>` writes: same default seed, same
/// fleet configuration, same pretty-JSON rendering of the snapshot.
#[test]
fn metrics_for_a_200_probe_campaign_match_the_checked_in_expectation() {
    let fleet = generate(FleetConfig { size: 200, ..FleetConfig::default() });
    let registry = MetricsRegistry::new(fleet.config.orgs.len());
    let results = run_campaign(&fleet, CampaignOptions::new(4), Some(&registry), None, None);
    assert_eq!(results.len(), 200);

    let snapshot = registry.snapshot(&fleet.config.orgs);
    let mut rendered = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    rendered.push('\n');

    let path = golden_metrics_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test --test campaign_acceptance",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "200-probe campaign metrics diverged from {}\nif intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test campaign_acceptance and review the diff",
        path.display()
    );
}

/// Acceptance criterion for the tracing work: in a full-size campaign,
/// every probe flagged as intercepted explains itself — each decided step
/// carries a verdict string and at least one cited response.
#[test]
#[ignore = "full 10k-probe campaign; run with --include-ignored"]
fn every_intercepted_probe_in_a_10k_campaign_has_provenance() {
    let fleet = generate(FleetConfig::default());
    assert_eq!(fleet.config.size, 10_000);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let results = run_campaign(&fleet, CampaignOptions::new(threads), None, None, None);

    let mut intercepted = 0usize;
    for r in &results {
        if !r.report.intercepted {
            continue;
        }
        intercepted += 1;
        let steps = r.report.provenance.decided_steps();
        assert!(
            steps.iter().any(|(label, _)| *label == "step1"),
            "probe {}: intercepted without a step-1 verdict",
            r.probe.id
        );
        for (label, p) in steps {
            assert!(
                !p.verdict.is_empty(),
                "probe {}: {label} decided with an empty verdict",
                r.probe.id
            );
            assert!(
                !p.cited.is_empty(),
                "probe {}: {label} verdict {:?} cites no evidence",
                r.probe.id,
                p.verdict
            );
        }
    }
    assert!(
        intercepted > 100,
        "fleet defaults should intercept a sizable share, saw {intercepted}"
    );
}

/// CI's flight-recorder acceptance: the same 200-probe campaign as the
/// metrics expectation above, run with capture enabled. Every report and
/// the metrics snapshot must be bitwise identical to the uncaptured run,
/// and every probe must yield reconstructed hop timelines.
#[test]
fn capture_enabled_200_probe_campaign_is_bitwise_identical() {
    let fleet = generate(FleetConfig { size: 200, ..FleetConfig::default() });

    let options = CampaignOptions::new(4);
    let plain_registry = MetricsRegistry::new(fleet.config.orgs.len());
    let plain = run_campaign(&fleet, options, Some(&plain_registry), None, None);

    let captured_registry = MetricsRegistry::new(fleet.config.orgs.len());
    let captured = run_campaign_captured(&fleet, options, Some(&captured_registry), None, None);

    assert_eq!(captured.len(), plain.len());
    for ((a, flows), b) in captured.iter().zip(&plain) {
        assert_eq!(a.probe.id, b.probe.id);
        assert_eq!(a.report, b.report, "capture changed probe {}", a.probe.id);
        assert_eq!(a.truth, b.truth);
        assert!(!flows.is_empty(), "probe {} recorded no flows", a.probe.id);
    }
    assert_eq!(
        captured_registry.snapshot(&fleet.config.orgs),
        plain_registry.snapshot(&fleet.config.orgs),
        "capture changed the campaign metrics"
    );
}
