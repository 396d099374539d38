//! Golden-trace suite: the three worked-example probes of §3.4 (1053
//! clean, 11992 ISP middlebox, 21823 unbound CPE interceptor) each produce
//! a complete trace — every query, wire attempt, response, and step
//! verdict with its citing evidence — that must match the checked-in
//! golden file byte for byte.
//!
//! When a change intentionally alters the trace format or the locator's
//! behavior, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! and review the diff like any other source change.

use interception::{HomeScenario, SimTransport};
use locator::{HijackLocator, Provenance, TraceEvent, TraceRecorder};
use serde::Serialize;
use std::path::PathBuf;

/// Everything a golden file locks down about one probe's measurement.
#[derive(Serialize)]
struct GoldenTrace {
    probe: String,
    intercepted: bool,
    location: Option<String>,
    provenance: Provenance,
    events: Vec<TraceEvent<'static>>,
}

fn capture(id: &str, scenario: HomeScenario) -> GoldenTrace {
    let built = scenario.build();
    let config = built.locator_config();
    let mut transport = SimTransport::new(built);
    let mut recorder = TraceRecorder::default();
    let report = HijackLocator::new(config).run_traced(&mut transport, &mut recorder);
    GoldenTrace {
        probe: id.to_string(),
        intercepted: report.intercepted,
        location: report.location.map(|l| l.to_string()),
        provenance: report.provenance,
        events: recorder.events,
    }
}

fn worked_example(id: &str) -> HomeScenario {
    HomeScenario::worked_examples()
        .into_iter()
        .find(|(probe, _)| *probe == id)
        .unwrap_or_else(|| panic!("no worked example {id}"))
        .1
}

fn render(trace: &GoldenTrace) -> String {
    let mut json = serde_json::to_string_pretty(trace).expect("trace serializes");
    json.push('\n');
    json
}

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("probe_{id}.trace.json"))
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
            "cannot read {}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test --test golden_traces",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "trace for probe {id} diverged from {}\nif the change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_traces and review the diff",
        path.display()
    );
}

#[test]
fn golden_trace_probe_1053_clean() {
    check_golden("1053");
}

#[test]
fn golden_trace_probe_11992_isp_middlebox() {
    check_golden("11992");
}

#[test]
fn golden_trace_probe_21823_cpe_unbound() {
    check_golden("21823");
}

#[test]
fn worked_examples_reach_the_expected_verdicts() {
    let t1053 = capture("1053", worked_example("1053"));
    assert!(!t1053.intercepted);
    assert_eq!(t1053.location, None);
    assert!(t1053.provenance.step2.is_none(), "no step 2 on a clean probe");

    let t11992 = capture("11992", worked_example("11992"));
    assert!(t11992.intercepted);
    assert_eq!(t11992.location.as_deref(), Some("within ISP"));
    let step3 = t11992.provenance.step3.as_ref().expect("step 3 ran");
    assert!(!step3.cited.is_empty(), "bogon verdict cites evidence");

    let t21823 = capture("21823", worked_example("21823"));
    assert!(t21823.intercepted);
    assert_eq!(t21823.location.as_deref(), Some("CPE"));
    let step2 = t21823.provenance.step2.as_ref().expect("step 2 ran");
    assert!(
        step2.cited.iter().all(|e| e.observed.contains("unbound 1.9.0")),
        "CPE verdict rests on matching unbound version strings: {:?}",
        step2.cited
    );
}

#[test]
fn golden_traces_are_bit_identical_across_runs_and_threads() {
    for id in ["1053", "11992", "21823"] {
        let here = render(&capture(id, worked_example(id)));
        let again = render(&capture(id, worked_example(id)));
        assert_eq!(here, again, "probe {id} diverged between two in-thread runs");
        let elsewhere = std::thread::spawn({
            let id = id.to_string();
            move || render(&capture(&id, worked_example(&id)))
        })
        .join()
        .expect("capture thread");
        assert_eq!(here, elsewhere, "probe {id} diverged on another thread");
    }
}

#[test]
fn every_provenance_citation_resolves_to_a_traced_event() {
    // The provenance section must never fabricate evidence: each cited
    // EvidenceRef corresponds to a QueryIssued event with the same seq and
    // server, and the verdict strings match the StepVerdict events.
    for (id, scenario) in HomeScenario::worked_examples() {
        let trace = capture(id, scenario);
        let issued: Vec<(u32, String)> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::QueryIssued { seq, server, .. } => Some((*seq, server.to_string())),
                _ => None,
            })
            .collect();
        for (step, p) in trace.provenance.decided_steps() {
            for cited in &p.cited {
                assert!(
                    issued.contains(&(cited.seq, cited.server.to_string())),
                    "probe {id} {step}: citation {cited:?} matches no issued query"
                );
            }
            assert!(
                trace.events.iter().any(|e| matches!(
                    e,
                    TraceEvent::StepVerdict { verdict, .. } if *verdict == p.verdict
                )),
                "probe {id} {step}: verdict {:?} never emitted as an event",
                p.verdict
            );
        }
    }
}
