//! Golden classification suite: one scenario per open-DNS taxonomy class,
//! classified via the scanner-vantage decision tree with the flight
//! recorder on. Each golden file locks down the verdict, the ground
//! truth, the capture cross-check, and the complete per-hop flow
//! timeline of the classification run — byte for byte.
//!
//! When a change intentionally alters the decision tree, the capture
//! semantics, or the scanner's query pattern, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_classification
//! ```
//!
//! and review the diff like any other source change.

use atlas_sim::classify_scenario;
use interception::{HomeScenario, OpenDnsClass, QueryFlow};
use serde::Serialize;
use std::path::PathBuf;

/// Everything a golden file locks down about one class's classification.
#[derive(Serialize)]
struct GoldenClassification {
    scenario: String,
    truth_class: OpenDnsClass,
    classified_as: OpenDnsClass,
    intercepted: bool,
    wrong_source: Option<std::net::IpAddr>,
    capture_ok: bool,
    flows: Vec<QueryFlow>,
}

fn taxonomy_example(label: &str) -> HomeScenario {
    HomeScenario::taxonomy_examples()
        .into_iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no taxonomy example {label}"))
        .1
}

fn classify(label: &str) -> GoldenClassification {
    let scenario = taxonomy_example(label);
    let truth_class = scenario.open_dns_class();
    let device = classify_scenario(scenario);
    GoldenClassification {
        scenario: label.to_string(),
        truth_class,
        classified_as: device.class,
        intercepted: device.report.intercepted,
        wrong_source: device.wrong_source,
        capture_ok: device.capture_ok,
        flows: device.flows,
    }
}

fn render(golden: &GoldenClassification) -> String {
    let mut json = serde_json::to_string_pretty(golden).expect("classification serializes");
    json.push('\n');
    json
}

fn golden_path(label: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("class_{label}.json"))
}

fn check_golden(label: &str) {
    let golden = classify(label);
    // Before anything byte-level: the verdict agrees with the planted
    // class and the capture corroborates it, in every golden scenario.
    assert_eq!(golden.classified_as, golden.truth_class, "scenario {label} misclassified");
    assert!(golden.capture_ok, "scenario {label} capture cross-check failed");

    let rendered = render(&golden);
    let path = golden_path(label);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test --test \
             golden_classification",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "classification of {label} diverged from {}\nif the change is intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test --test golden_classification and review the diff",
        path.display()
    );
}

#[test]
fn golden_class_transparent_forwarder() {
    check_golden("transparent_forwarder");
}

#[test]
fn golden_class_open_forwarder() {
    check_golden("open_forwarder");
}

#[test]
fn golden_class_open_recursive() {
    check_golden("open_recursive");
}

#[test]
fn golden_class_dnat_interceptor() {
    check_golden("dnat_interceptor");
}

#[test]
fn golden_class_clean() {
    check_golden("clean");
}

#[test]
fn transparent_forwarder_capture_shows_foreign_response_source() {
    // The satellite cross-check, stated directly against the hop tuples:
    // for a classified transparent forwarder, the flight recorder must
    // show the scanner receiving a DNS response whose source tuple is NOT
    // the server the scanner queried.
    let golden = classify("transparent_forwarder");
    assert_eq!(golden.classified_as, OpenDnsClass::TransparentForwarder);
    let queried = taxonomy_example("transparent_forwarder").build().addrs.cpe_public_v4;
    let scan_flow = golden
        .flows
        .iter()
        .find(|f| f.txid == atlas_sim::SCAN_A_TXID)
        .expect("scanner's A probe is on the record");
    let response_hop = scan_flow
        .hops
        .iter()
        .find(|h| {
            scan_flow.node(h) == "scanner"
                && h.action == "ingress"
                && h.direction == interception::FlowDirection::Response
        })
        .expect("scanner received a response hop");
    assert_ne!(
        response_hop.tuple.src,
        std::net::IpAddr::V4(queried),
        "response source must differ from the queried server"
    );
    // And the verdict recorded the same foreign address the capture shows.
    let recorded = golden.wrong_source.expect("wrong_source recorded");
    assert_eq!(response_hop.tuple.src, recorded, "verdict source disagrees with capture hop");
}

#[test]
fn open_classes_differ_only_beyond_the_home() {
    // Open forwarder and open recursive both answer the scanner from the
    // queried address; what separates them is whether the capture shows a
    // relay flow leaving the home. Locking that distinction here keeps
    // the two classes from collapsing into each other.
    let fwd = classify("open_forwarder");
    let rec = classify("open_recursive");
    let relayed = |flows: &[QueryFlow], qname: &str| {
        let qname: dns_wire::Name = qname.parse().unwrap();
        flows.iter().any(|f| {
            f.question.as_ref().is_some_and(|q| q.qname == qname)
                && f.txid != atlas_sim::SCAN_A_TXID
                && f.txid != atlas_sim::SCAN_WHOAMI_TXID
                && f.hops.first().is_some_and(|h| !matches!(f.node(h), "probe" | "scanner"))
        })
    };
    assert!(relayed(&fwd.flows, "example.com."), "open forwarder must relay upstream");
    assert!(
        !relayed(&rec.flows, "whoami.akamai.com."),
        "open recursive must resolve the whoami name itself"
    );
}
