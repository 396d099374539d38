//! Golden flow suite: the three worked-example probes of §3.4, measured
//! with the packet-level flight recorder on. Every DNS transaction's
//! per-hop timeline — ingress/egress at each device, NAT rewrites with
//! before/after tuples, route decisions, locally minted answers — must
//! match the checked-in golden file byte for byte.
//!
//! When a change intentionally alters capture semantics or the locator's
//! query pattern, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_flows
//! ```
//!
//! and review the diff like any other source change.

use interception::{HomeScenario, QueryFlow, SimTransport};
use locator::HijackLocator;
use serde::Serialize;
use std::path::PathBuf;

/// Everything a golden file locks down about one probe's packet capture.
#[derive(Serialize)]
struct GoldenFlows {
    probe: String,
    intercepted: bool,
    location: Option<String>,
    flows: Vec<QueryFlow>,
}

fn capture(id: &str, scenario: HomeScenario) -> GoldenFlows {
    let built = scenario.build();
    let config = built.locator_config();
    let mut transport = SimTransport::new(built);
    transport.enable_capture();
    let report = HijackLocator::new(config).run(&mut transport);
    GoldenFlows {
        probe: id.to_string(),
        intercepted: report.intercepted,
        location: report.location.map(|l| l.to_string()),
        flows: transport.take_flows(),
    }
}

fn worked_example(id: &str) -> HomeScenario {
    HomeScenario::worked_examples()
        .into_iter()
        .find(|(probe, _)| *probe == id)
        .unwrap_or_else(|| panic!("no worked example {id}"))
        .1
}

fn render(golden: &GoldenFlows) -> String {
    let mut json = serde_json::to_string_pretty(golden).expect("flows serialize");
    json.push('\n');
    json
}

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("probe_{id}.flows.json"))
}

fn check_golden(id: &str) {
    let rendered = render(&capture(id, worked_example(id)));
    let path = golden_path(id);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test --test golden_flows",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "hop timelines for probe {id} diverged from {}\nif the change is intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test --test golden_flows and review the diff",
        path.display()
    );
}

#[test]
fn golden_flows_probe_1053_clean() {
    check_golden("1053");
}

#[test]
fn golden_flows_probe_11992_isp_middlebox() {
    check_golden("11992");
}

#[test]
fn golden_flows_probe_21823_cpe_unbound() {
    check_golden("21823");
}

#[test]
fn worked_example_timelines_tell_the_right_story() {
    // Clean probe: every v4 location query's flow round-trips through the
    // ISP to the real resolver and back; nothing is minted en route.
    let clean = capture("1053", worked_example("1053"));
    assert!(!clean.intercepted);
    assert!(!clean.flows.is_empty());
    assert!(clean.flows.iter().all(|f| f.hops.iter().all(|h| h.action != "mint")));
    assert!(
        clean.flows.iter().any(|f| f.hops.iter().any(|h| &*h.node == "internet-core")),
        "clean queries must actually cross the core"
    );

    // CPE interceptor: some flow carries a locally minted answer, and the
    // DNAT rewrite that captured the query is on the record.
    let cpe = capture("21823", worked_example("21823"));
    assert!(cpe.intercepted);
    assert_eq!(cpe.location.as_deref(), Some("CPE"));
    assert!(cpe.flows.iter().any(|f| f.hops.iter().any(|h| h.action == "mint")));
    assert!(cpe.flows.iter().any(|f| f.hops.iter().any(|h| h.action == "nat(dnat)")));

    // ISP middlebox: the probe's queries are answered, but the mint
    // happens beyond the home — no CPE-minted reply, yet the verdict is
    // within-ISP interception.
    let isp = capture("11992", worked_example("11992"));
    assert!(isp.intercepted);
    assert_eq!(isp.location.as_deref(), Some("within ISP"));
}

#[test]
fn flow_capture_is_deterministic_across_runs_and_threads() {
    for id in ["1053", "11992", "21823"] {
        let here = render(&capture(id, worked_example(id)));
        let again = render(&capture(id, worked_example(id)));
        assert_eq!(here, again, "probe {id} flows diverged between two in-thread runs");
        let elsewhere = std::thread::spawn({
            let id = id.to_string();
            move || render(&capture(&id, worked_example(&id)))
        })
        .join()
        .expect("capture thread");
        assert_eq!(here, elsewhere, "probe {id} flows diverged on another thread");
    }
}

#[test]
fn capture_does_not_change_the_verdict_or_the_trace() {
    // The flight recorder must be a pure observer: the same scenario
    // measured with capture off yields the identical report.
    for (id, scenario) in HomeScenario::worked_examples() {
        let built = scenario.clone().build();
        let config = built.locator_config();
        let mut plain = SimTransport::new(built);
        let report_off = HijackLocator::new(config).run(&mut plain);

        let captured = capture(id, scenario);
        assert_eq!(captured.intercepted, report_off.intercepted, "probe {id}");
        assert_eq!(
            captured.location,
            report_off.location.map(|l| l.to_string()),
            "probe {id}"
        );
    }
}
