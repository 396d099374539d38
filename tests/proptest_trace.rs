//! Property tests for the tracing layer: over arbitrary households, seeds,
//! loss rates, and retry budgets, a recorded trace is internally
//! consistent (accepted responses answer issued queries under the same
//! transaction ID), provenance only ever cites queries that really ran,
//! and tracing itself never changes a verdict. A metamorphic property
//! shifts the first transaction ID: a verdict must not depend on it.
//! Another raises upstream loss: loss only removes evidence, so it never
//! invents an interception nor sharpens a location (§3.1's conservative
//! rule). The same holds for late delivery and burst loss: a late reply
//! is addressed to an earlier attempt's source port, and the window it
//! lands in discards it. A duplicated reply changes nothing at all, since
//! each attempt's receive filter keeps the first copy. Moving a home to
//! another region changes only the strings that name a public resolver's
//! site: every verdict and the kind of every matrix cell stay. Asking the
//! public resolvers in another order changes no verdict and no cell
//! either, so no verdict depends on which query filled a shared memo
//! first.

use interception::{CpeModelKind, GroundTruth, HomeScenario, MiddleboxSpec, Region, SimTransport};
use locator::{
    HijackLocator, InterceptorLocation, MetricsFolder, ProbeMetrics, ProbeReport, Provenance,
    ResolverKey, StepProvenance, TraceEvent, TraceRecorder,
};
use netsim::{BurstLoss, FaultProfile, LateDelivery, SimDuration};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn arb_scenario() -> impl Strategy<Value = HomeScenario> {
    prop_oneof![
        Just(HomeScenario::clean()),
        Just(HomeScenario::xb6_case_study()),
        Just(HomeScenario::isp_middlebox()),
        Just(HomeScenario {
            cpe_model: CpeModelKind::PiHole { version: "2.87".into() },
            ..HomeScenario::clean()
        }),
        Just(HomeScenario {
            cpe_model: CpeModelKind::OpenWanForwarder { version: "2.80".into() },
            middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
            ..HomeScenario::clean()
        }),
        Just(HomeScenario {
            cpe_model: CpeModelKind::UnboundInterceptor { version: "1.9.0".into() },
            ..HomeScenario::clean()
        }),
    ]
}

proptest! {
    // Each case builds two simulated worlds (traced + silent); keep the
    // count moderate.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn traces_are_internally_consistent_and_change_nothing(
        scenario in arb_scenario(),
        seed in 0u64..500,
        loss_step in 0usize..3,
        attempts in 1u32..4,
        duplicate_step in 0usize..2,
        late_step in 0usize..2,
    ) {
        let mut scenario = scenario;
        scenario.seed = seed;
        scenario.upstream.loss = [0.0, 0.15, 0.35][loss_step];
        scenario.upstream.duplicate = [0.0, 0.5][duplicate_step];
        scenario.upstream.late = [None, Some(late(0.3, 6))][late_step];

        let built = scenario.clone().build();
        let mut config = built.locator_config();
        config.query_options.attempts = attempts;
        let mut transport = SimTransport::new(built);
        let mut recorder = TraceRecorder::default();
        let traced = HijackLocator::new(config.clone()).run_traced(&mut transport, &mut recorder);

        // Disabling tracing changes no verdict — the whole report is
        // bit-for-bit identical.
        let silent =
            HijackLocator::new(config).run(&mut SimTransport::new(scenario.build()));
        prop_assert_eq!(&silent, &traced);

        // Index the trace: issued queries by seq, wire attempts by
        // (seq, attempt) -> txid.
        let mut issued: HashSet<u32> = HashSet::new();
        let mut attempts_seen: HashMap<(u32, u32), u16> = HashMap::new();
        let mut accepted_txid: HashMap<u32, u16> = HashMap::new();
        let mut last_txid: HashMap<u32, u16> = HashMap::new();
        for event in &recorder.events {
            match event {
                TraceEvent::QueryIssued { seq, .. } => {
                    prop_assert!(issued.insert(*seq), "seq {seq} issued twice");
                }
                TraceEvent::AttemptSent { seq, attempt, txid, .. } => {
                    prop_assert!(issued.contains(seq), "attempt for unissued seq {seq}");
                    // Attempts number consecutively from 1 per query.
                    if *attempt > 1 {
                        prop_assert!(attempts_seen.contains_key(&(*seq, attempt - 1)));
                    }
                    prop_assert!(
                        attempts_seen.insert((*seq, *attempt), *txid).is_none(),
                        "attempt {attempt} of seq {seq} sent twice"
                    );
                    last_txid.insert(*seq, *txid);
                }
                TraceEvent::ResponseAccepted { seq, attempt, txid, .. } => {
                    // An accepted response answers a real wire attempt of
                    // the same query, under that attempt's txid.
                    prop_assert_eq!(attempts_seen.get(&(*seq, *attempt)), Some(txid));
                    prop_assert!(
                        accepted_txid.insert(*seq, *txid).is_none(),
                        "seq {seq} accepted twice"
                    );
                }
                TraceEvent::AttemptTimedOut { seq, attempt, txid, .. } => {
                    prop_assert_eq!(attempts_seen.get(&(*seq, *attempt)), Some(txid));
                }
                TraceEvent::ResponseWrongSource { seq, attempt, txid, .. } => {
                    prop_assert_eq!(attempts_seen.get(&(*seq, *attempt)), Some(txid));
                }
                TraceEvent::StepVerdict { .. } | TraceEvent::RunFinished { .. } => {}
            }
        }

        // The trace covers exactly the queries the report counted.
        prop_assert_eq!(issued.len() as u32, traced.queries_sent);
        prop_assert_eq!(attempts_seen.len() as u32, traced.wire_attempts);
        let finished = recorder.events.last().expect("trace is non-empty");
        prop_assert!(
            matches!(
                finished,
                TraceEvent::RunFinished { intercepted, queries_sent, wire_attempts, .. }
                    if *intercepted == traced.intercepted
                        && *queries_sent == traced.queries_sent
                        && *wire_attempts == traced.wire_attempts
            ),
            "trace must close with a RunFinished mirroring the report, got {finished:?}"
        );

        // Provenance cites real events: every EvidenceRef names an issued
        // query, and its txid is the accepted response's (answered) or the
        // final attempt's (timeout).
        for (step, p) in traced.provenance.decided_steps() {
            for cited in traced.provenance.cited(p).iter() {
                prop_assert!(
                    issued.contains(&cited.seq),
                    "{step} cites seq {} which never ran", cited.seq
                );
                // The cited txid is the accepted response's (answered) or
                // the final attempt's (timeout) — never fabricated.
                let expect = accepted_txid.get(&cited.seq).or_else(|| last_txid.get(&cited.seq));
                prop_assert_eq!(Some(&cited.txid), expect);
            }
        }

        // Folding the events reproduces the report's query economics.
        let metrics = ProbeMetrics::from_events(&recorder.events);
        prop_assert_eq!(metrics.total_queries() as u32, traced.queries_sent);
        prop_assert_eq!(
            metrics.retries as u32,
            traced.wire_attempts - traced.queries_sent
        );

        // And folding through the sink interface matches folding the
        // recorded stream — the two observation paths agree.
        let built = scenario.build();
        let mut config = built.locator_config();
        config.query_options.attempts = attempts;
        let mut folder = MetricsFolder::default();
        let refolded =
            HijackLocator::new(config).run_traced(&mut SimTransport::new(built), &mut folder);
        prop_assert_eq!(&refolded, &traced);
        prop_assert_eq!(&folder.finish(), &metrics);
    }

    #[test]
    fn shifting_the_first_txid_shifts_every_txid_and_changes_nothing_else(
        scenario in arb_scenario(),
        seed in 0u64..500,
        loss_step in 0usize..3,
        attempts in 1u32..4,
        shift in any::<u16>(),
    ) {
        let mut scenario = scenario;
        scenario.seed = seed;
        scenario.upstream.loss = [0.0, 0.15, 0.35][loss_step];
        let run = |shift: u16| {
            let built = scenario.clone().build();
            let mut config = built.locator_config();
            config.query_options.attempts = attempts;
            config.initial_txid = config.initial_txid.wrapping_add(shift);
            let mut recorder = TraceRecorder::default();
            let report =
                HijackLocator::new(config).run_traced(&mut SimTransport::new(built), &mut recorder);
            (report, recorder.events)
        };
        let (base, base_events) = run(0);
        let (shifted, shifted_events) = run(shift);

        // Same verdicts and report fields; only the cited txids moved,
        // each by exactly `shift`, mod 2^16.
        prop_assert_eq!(&shifted, &with_cited_txids_shifted(&base, shift));
        // The same trace, event for event, with every txid shifted alike.
        prop_assert_eq!(shifted_events.len(), base_events.len());
        for (moved, original) in shifted_events.iter().zip(&base_events) {
            prop_assert_eq!(moved, &event_with_txids_shifted(original, shift));
        }
    }

    #[test]
    fn loss_never_invents_an_interception_or_sharpens_a_location(
        scenario in arb_scenario(),
        seed in 0u64..500,
        loss_step in 0usize..4,
        attempts in 1u32..4,
    ) {
        let run = |loss: f64| {
            let upstream = FaultProfile { loss, ..scenario.upstream };
            run_with(HomeScenario { seed, upstream, ..scenario.clone() }, attempts)
        };
        let loss = [0.2, 0.4, 0.6, 0.8][loss_step];
        let lossy = run(loss);
        let clean = run(0.0);

        if scenario.truth() == GroundTruth::NotIntercepted {
            prop_assert!(!lossy.intercepted, "loss {loss} invented an interception: {lossy:?}");
        }
        prop_assert!(
            imprecision(&lossy) >= imprecision(&clean),
            "loss {loss} sharpened the location: {:?} without loss, {:?} with it",
            clean.location,
            lossy.location
        );
    }

    #[test]
    fn duplicated_replies_change_no_field_of_the_report(
        scenario in arb_scenario(),
        seed in 0u64..500,
        duplicate_step in 0usize..2,
        attempts in 1u32..4,
    ) {
        let duplicate = [0.3, 1.0][duplicate_step];
        let run = |duplicate: f64| {
            let upstream = FaultProfile { duplicate, ..scenario.upstream };
            run_with(HomeScenario { seed, upstream, ..scenario.clone() }, attempts)
        };
        let (duplicated, clean) = (run(duplicate), run(0.0));
        prop_assert!(
            duplicated == clean,
            "duplication {duplicate} changed the report: {clean:?} became {duplicated:?}"
        );
    }

    #[test]
    fn late_delivery_and_burst_loss_never_invent_an_interception_or_sharpen_a_location(
        scenario in arb_scenario(),
        seed in 0u64..500,
        (late, burst) in arb_late_or_burst(),
        attempts in 1u32..4,
    ) {
        let clean = run_with(HomeScenario { seed, ..scenario.clone() }, attempts);
        let upstream = FaultProfile { late, burst, ..scenario.upstream };
        let faulty = run_with(HomeScenario { seed, upstream, ..scenario.clone() }, attempts);
        if scenario.truth() == GroundTruth::NotIntercepted {
            prop_assert!(
                !faulty.intercepted,
                "{late:?} / {burst:?} invented an interception: {faulty:?}"
            );
        }
        prop_assert!(
            imprecision(&faulty) >= imprecision(&clean),
            "{late:?} / {burst:?} sharpened the location: {:?} without it, {:?} with it",
            clean.location,
            faulty.location
        );
    }
}

proptest! {
    // Each case runs the locator in all seven regions.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn moving_a_home_to_another_region_changes_only_the_site_strings(
        scenario in arb_scenario(),
        seed in 0u64..500,
    ) {
        let run = |region| run_with(HomeScenario { seed, region, ..scenario.clone() }, 1);
        let home = run(Region::NaEast);
        for region in Region::ALL.into_iter().skip(1) {
            let moved = run(region);
            let same = (moved.intercepted, moved.location, &moved.cpe, &moved.bogon)
                == (home.intercepted, home.location, &home.cpe, &home.bogon)
                && moved.transparency == home.transparency;
            prop_assert!(same, "{region:?} changed a verdict: {home:?} became {moved:?}");
            for (moved, home) in [(&moved.matrix.v4, &home.matrix.v4), (&moved.matrix.v6, &home.matrix.v6)] {
                for ((key, moved), (_, home)) in moved.iter().zip(home.iter()) {
                    prop_assert!(
                        std::mem::discriminant(moved) == std::mem::discriminant(home),
                        "{region:?} changed the {key:?} cell: {home:?} became {moved:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    // Each case runs the locator twice.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn asking_the_resolvers_in_another_order_changes_no_verdict_and_no_cell(
        scenario in arb_scenario(),
        seed in 0u64..500,
        order in 0usize..24,
    ) {
        let order = permutation(order);
        let scenario = HomeScenario { seed, ..scenario };
        let run = |order: &[usize]| {
            let built = scenario.clone().build();
            let mut config = built.locator_config();
            config.resolvers = order.iter().map(|&i| config.resolvers[i].clone()).collect();
            HijackLocator::new(config).run(&mut SimTransport::new(built))
        };
        let (listed, permuted) = (run(&[0, 1, 2, 3]), run(&order));
        let same = (permuted.intercepted, permuted.location, &permuted.cpe, &permuted.bogon)
            == (listed.intercepted, listed.location, &listed.cpe, &listed.bogon)
            && permuted.transparency == listed.transparency;
        prop_assert!(same, "order {order:?} changed a verdict: {listed:?} became {permuted:?}");
        for key in ResolverKey::ALL {
            for (permuted, listed) in [
                (permuted.matrix.v4.get(key), listed.matrix.v4.get(key)),
                (permuted.matrix.v6.get(key), listed.matrix.v6.get(key)),
            ] {
                prop_assert!(
                    std::mem::discriminant(permuted) == std::mem::discriminant(listed),
                    "order {order:?} changed the {key:?} cell: {listed:?} became {permuted:?}"
                );
            }
        }
    }
}

/// The `index`-th of the 24 orders of four items: `index` read as a
/// factorial-base number, one digit per pick from what is left.
fn permutation(mut index: usize) -> [usize; 4] {
    let mut left = vec![0, 1, 2, 3];
    [6, 2, 1, 1].map(|weight| {
        let pick = left.remove(index / weight);
        index %= weight;
        pick
    })
}

/// Late delivery with `probability`, `delay_s` seconds past the latency.
fn late(probability: f64, delay_s: u64) -> LateDelivery {
    LateDelivery { probability, delay: SimDuration::from_secs(delay_s) }
}

/// Exactly one of late delivery (probability 0.2, 0.5 or 0.9; 1, 6 or
/// 12 s late: inside, just past and two windows past the 5 s timeout)
/// and burst loss (start 0.05 or 0.2; bursts of 2 or 5).
fn arb_late_or_burst() -> impl Strategy<Value = (Option<LateDelivery>, Option<BurstLoss>)> {
    let late = (0usize..3, 0usize..3)
        .prop_map(|(p, d)| (Some(late([0.2, 0.5, 0.9][p], [1, 6, 12][d])), None));
    let burst = (0usize..2, 0usize..2)
        .prop_map(|(s, l)| (None, Some(BurstLoss { start: [0.05, 0.2][s], length: [2, 5][l] })));
    prop_oneof![late, burst]
}

/// The locator's report on `scenario`, with `attempts` per query.
fn run_with(scenario: HomeScenario, attempts: u32) -> ProbeReport {
    let built = scenario.build();
    let mut config = built.locator_config();
    config.query_options.attempts = attempts;
    HijackLocator::new(config).run(&mut SimTransport::new(built))
}

/// How imprecise a report's location is, from the CPE (0) through within
/// ISP and beyond/unknown to not intercepted at all (3).
fn imprecision(report: &ProbeReport) -> u8 {
    match (report.intercepted, report.location) {
        (true, Some(InterceptorLocation::Cpe)) => 0,
        (true, Some(InterceptorLocation::WithinIsp)) => 1,
        (true, Some(InterceptorLocation::BeyondOrUnknown)) => 2,
        (false, _) | (true, None) => 3,
    }
}

/// `report` with the txid of every cited response moved by `shift`.
fn with_cited_txids_shifted(report: &ProbeReport, shift: u16) -> ProbeReport {
    let mut report = report.clone();
    // Citations resolve against the evidence list, so moving every entry
    // moves every citation.
    for evidence in &mut report.provenance.evidence {
        evidence.txid = evidence.txid.wrapping_add(shift);
    }
    report
}

/// `event` with each transaction ID it carries or cites moved by `shift`.
fn event_with_txids_shifted(event: &TraceEvent<'static>, shift: u16) -> TraceEvent<'static> {
    let mut event = event.clone();
    match &mut event {
        TraceEvent::AttemptSent { txid, .. }
        | TraceEvent::ResponseAccepted { txid, .. }
        | TraceEvent::ResponseWrongSource { txid, .. }
        | TraceEvent::AttemptTimedOut { txid, .. } => *txid = txid.wrapping_add(shift),
        TraceEvent::StepVerdict { verdict, cited, .. } => {
            let evidence = cited
                .iter()
                .map(|mut e| {
                    e.txid = e.txid.wrapping_add(shift);
                    e
                })
                .collect();
            let shifted = Provenance { evidence, ..Provenance::default() };
            let step = StepProvenance { verdict: *verdict, cited: cited.seqs() };
            *cited = shifted.cited(&step).into_owned();
        }
        TraceEvent::QueryIssued { .. } | TraceEvent::RunFinished { .. } => {}
    }
    event
}
