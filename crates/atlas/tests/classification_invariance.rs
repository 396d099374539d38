//! Property tests for the taxonomy classifier's accuracy contract.
//!
//! Over randomized fleets mixing all five open-DNS classes, the
//! scanner-vantage classifier must (1) agree with the planted ground
//! truth on every device, (2) be corroborated by the flight recorder's
//! hop tuples on every device, and (3) produce bitwise-identical
//! per-device results and aggregates at every thread count and batch
//! size — scheduling is an implementation detail of a measurement, never
//! part of its meaning.

use atlas_sim::{
    classification_fleet, run_classification, run_classification_timed, CampaignOptions,
    ClassifySummary,
};
use interception::{FlowDirection, OpenDnsClass};
use proptest::prelude::*;

proptest! {
    // Each case classifies several hundred simulated homes across the
    // scheduler grid; keep the count small.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn classifier_matches_ground_truth_at_every_schedule(
        seed in any::<u64>(),
        size in 25usize..90,
    ) {
        let fleet = classification_fleet(size, seed);

        // Single-threaded reference: 100% agreement with the planted
        // class and 100% capture corroboration.
        let baseline = run_classification(
            &fleet,
            CampaignOptions { threads: 1, batch_size: 1 },
            None,
        );
        prop_assert_eq!(baseline.len(), size);
        let mut reference = ClassifySummary::default();
        for r in &baseline {
            prop_assert!(
                r.device.class == r.truth_class,
                "probe {} ({:?}) misclassified as {}", r.probe.id, r.probe.flavor, r.device.class
            );
            prop_assert!(
                r.device.capture_ok,
                "probe {} capture cross-check failed", r.probe.id
            );
            reference.fold(r);
        }
        prop_assert_eq!(reference.truth_mismatches, 0);
        prop_assert_eq!(reference.capture_unconfirmed, 0);

        // A fleet of 25+ cycling round-robin always contains all five
        // classes; the test is vacuous otherwise.
        for class in OpenDnsClass::ALL {
            prop_assert!(reference.truth.get(class) > 0, "{} missing", class);
        }

        // Every schedule knob: per-device verdicts, recorded mismatch
        // sources, capture bits, and hop timelines are bitwise identical,
        // and the streaming aggregate equals the folded reference.
        for threads in [1usize, 4, 16] {
            for batch_size in [1usize, 7, 64] {
                let options = CampaignOptions { threads, batch_size };
                let results = run_classification(&fleet, options, None);
                prop_assert_eq!(results.len(), baseline.len());
                for (a, b) in results.iter().zip(&baseline) {
                    prop_assert_eq!(a.probe.id, b.probe.id);
                    prop_assert_eq!(a.device.class, b.device.class);
                    prop_assert_eq!(a.device.wrong_source, b.device.wrong_source);
                    prop_assert_eq!(a.device.capture_ok, b.device.capture_ok);
                    prop_assert_eq!(&a.device.report, &b.device.report);
                    prop_assert!(
                        a.device.flows == b.device.flows,
                        "probe {} hop timelines diverged at threads={threads} \
                         batch={batch_size}", a.probe.id
                    );
                }
                let streamed = run_classification_timed(&fleet, options, None);
                prop_assert_eq!(&streamed, &reference);
                // The serialized form is what CI diffs — pin it too.
                prop_assert_eq!(
                    serde_json::to_string(&streamed).expect("summary serializes"),
                    serde_json::to_string(&reference).expect("summary serializes")
                );
            }
        }
    }

    #[test]
    fn transparent_forwarders_always_show_a_foreign_response_hop(
        seed in any::<u64>(),
        size in 10usize..40,
    ) {
        // The capture cross-check, asserted from first principles rather
        // than through capture_ok: every device classified transparent
        // must have a flight-recorder response hop arriving at the
        // scanner from a source tuple other than the queried server's.
        let fleet = classification_fleet(size, seed);
        let results =
            run_classification(&fleet, CampaignOptions { threads: 4, batch_size: 8 }, None);
        let mut transparent = 0;
        for r in &results {
            if r.device.class != OpenDnsClass::TransparentForwarder {
                continue;
            }
            transparent += 1;
            let queried = atlas_sim::scenario_for(&fleet, r.probe).build().addrs.cpe_public_v4;
            let foreign = r.device.flows.iter().any(|f| {
                f.hops.iter().any(|h| {
                    &*h.node == "scanner"
                        && h.action == "ingress"
                        && h.direction == FlowDirection::Response
                        && h.tuple.src != std::net::IpAddr::V4(queried)
                })
            });
            prop_assert!(
                foreign,
                "probe {}: no response hop with a source other than {queried}",
                r.probe.id
            );
            // And the wrong-source address the verdict recorded is that
            // same foreign responder, not an invention.
            let recorded = r.device.wrong_source.expect("transparent verdict records source");
            prop_assert_ne!(recorded, std::net::IpAddr::V4(queried));
        }
        prop_assert!(transparent > 0, "fleet of {size} contains transparent forwarders");
    }
}

/// The acceptance gate from the issue, runnable on demand: a mixed
/// 1000-device fleet classifies with 100% ground-truth agreement and
/// 100% flight-recorder corroboration, identically at 1 and 16 threads.
#[test]
#[ignore = "acceptance-scale run; ~seconds, exercised by CI's full suite"]
fn thousand_device_fleet_classifies_perfectly() {
    let fleet = classification_fleet(1000, 0x41544C53);
    let single = run_classification_timed(
        &fleet,
        CampaignOptions { threads: 1, batch_size: 1 },
        None,
    );
    assert_eq!(single.probes, 1000);
    assert_eq!(single.truth_matches, 1000);
    assert_eq!(single.truth_mismatches, 0);
    assert_eq!(single.capture_confirmed, 1000);
    assert_eq!(single.capture_unconfirmed, 0);
    for class in OpenDnsClass::ALL {
        assert_eq!(single.truth.get(class), 200);
        assert_eq!(single.classified.get(class), 200);
    }
    let wide = run_classification_timed(
        &fleet,
        CampaignOptions { threads: 16, batch_size: 64 },
        None,
    );
    assert_eq!(wide, single);
}
