//! Property tests for the tracing layer: over arbitrary households, seeds,
//! loss rates, and retry budgets, a recorded trace is internally
//! consistent (accepted responses answer issued queries under the same
//! transaction ID), provenance only ever cites queries that really ran,
//! and tracing itself never changes a verdict. A metamorphic property
//! shifts the first transaction ID: a verdict must not depend on it.

use interception::{CpeModelKind, HomeScenario, MiddleboxSpec, SimTransport};
use locator::{
    HijackLocator, MetricsFolder, ProbeMetrics, ProbeReport, Provenance, TraceEvent,
    TraceRecorder,
};
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
    ) {
        let mut scenario = scenario;
        scenario.seed = seed;
        scenario.upstream_loss = [0.0, 0.15, 0.35][loss_step];

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
                TraceEvent::ResponseDropped { seq, attempt, expected_txid, got_txid, .. } => {
                    prop_assert_eq!(attempts_seen.get(&(*seq, *attempt)), Some(expected_txid));
                    prop_assert_ne!(expected_txid, got_txid);
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
            for cited in &p.cited {
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
        scenario.upstream_loss = [0.0, 0.15, 0.35][loss_step];
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
}

/// `report` with the txid of every cited response moved by `shift`.
fn with_cited_txids_shifted(report: &ProbeReport, shift: u16) -> ProbeReport {
    let mut report = report.clone();
    let Provenance { step1, step2, step3, transparency, source_check } = &mut report.provenance;
    for step in [step1, step2, step3, transparency, source_check].into_iter().flatten() {
        for cited in &mut step.cited {
            cited.txid = cited.txid.wrapping_add(shift);
        }
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
        TraceEvent::ResponseDropped { expected_txid, got_txid, .. } => {
            *expected_txid = expected_txid.wrapping_add(shift);
            *got_txid = got_txid.wrapping_add(shift);
        }
        TraceEvent::StepVerdict { cited, .. } => {
            for cited in cited.to_mut() {
                cited.txid = cited.txid.wrapping_add(shift);
            }
        }
        TraceEvent::QueryIssued { .. } | TraceEvent::RunFinished { .. } => {}
    }
    event
}
