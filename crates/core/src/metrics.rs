//! Per-probe measurement metrics, folded from trace events.
//!
//! [`MetricsFolder`] is a [`TraceSink`]: point the locator's traced run at
//! one and it accumulates per-step query/response/timeout counters and the
//! probe's retry and wrong-source tallies without retaining the events
//! themselves, yielding a plain-data [`ProbeMetrics`]. The campaign-wide
//! aggregation (the lock-free registry in the `atlas-sim` crate) folds
//! these per-probe values into shared atomics.
//!
//! Latency is not folded here: a simulated transport hands each answer
//! back at the end of its receive window, so trace stamps are not arrival
//! times. Round-trip times, read at delivery, are the simulated
//! transport's timing log, which `atlas-sim`'s timing registry folds.
//!
//! The fold allocates nothing: the events it reads borrow from the
//! locator, and [`ProbeMetrics`] is fixed-size arrays of counters, so a
//! campaign that meters every probe pays no heap cost for it.

use crate::trace::{Step, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

/// Counters for one pipeline step.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepMetrics {
    /// Logical queries issued in this step.
    pub queries: u64,
    /// Queries that ended with an accepted response.
    pub responses: u64,
    /// Queries whose every attempt went unanswered.
    pub timeouts: u64,
}

/// Per-probe metrics: what one traced measurement cost and how it behaved.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeMetrics {
    /// One [`StepMetrics`] per [`Step`], indexed by [`Step::index`].
    pub steps: [StepMetrics; Step::ALL.len()],
    /// Extra wire attempts beyond each query's first.
    pub retries: u64,
    /// Individual attempts that expired (a 3-attempt query that finally
    /// answers contributes 2 here and nothing to step timeouts).
    pub attempt_timeouts: u64,
}

impl ProbeMetrics {
    /// Folds a recorded event stream into metrics.
    pub fn from_events(events: &[TraceEvent<'_>]) -> ProbeMetrics {
        let mut folder = MetricsFolder::default();
        for event in events {
            folder.record(event.clone());
        }
        folder.finish()
    }

    /// The metrics for `step`.
    pub fn step(&self, step: Step) -> &StepMetrics {
        &self.steps[step.index()]
    }

    /// Total logical queries across all steps.
    pub fn total_queries(&self) -> u64 {
        self.steps.iter().map(|s| s.queries).sum()
    }
}

/// The query a fold is currently inside of (locator traces are strictly
/// sequential, so one pending slot suffices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    step: usize,
    answered: bool,
}

/// A [`TraceSink`] that folds events into [`ProbeMetrics`] as they arrive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsFolder {
    metrics: ProbeMetrics,
    current: Option<Pending>,
}

impl MetricsFolder {
    /// Closes out a pending query (a timeout only becomes knowable once
    /// the next query starts or the run ends).
    fn finalize_pending(&mut self) {
        if let Some(p) = self.current.take() {
            if !p.answered {
                self.metrics.steps[p.step].timeouts += 1;
            }
        }
    }

    /// Flushes the trailing query and yields the folded metrics. The
    /// `RunFinished` event flushes too, so folding a complete locator
    /// trace needs no manual bookkeeping.
    pub fn finish(mut self) -> ProbeMetrics {
        self.finalize_pending();
        self.metrics
    }
}

impl TraceSink for MetricsFolder {
    fn record(&mut self, event: TraceEvent<'_>) {
        match event {
            TraceEvent::QueryIssued { step, .. } => {
                self.finalize_pending();
                let idx = step.index();
                self.metrics.steps[idx].queries += 1;
                self.current = Some(Pending { step: idx, answered: false });
            }
            TraceEvent::AttemptSent { attempt, .. } => {
                if attempt > 1 {
                    self.metrics.retries += 1;
                }
            }
            TraceEvent::ResponseAccepted { .. } => {
                if let Some(p) = self.current.as_mut() {
                    p.answered = true;
                    self.metrics.steps[p.step].responses += 1;
                }
            }
            TraceEvent::AttemptTimedOut { .. } => {
                self.metrics.attempt_timeouts += 1;
            }
            TraceEvent::ResponseWrongSource { .. } | TraceEvent::StepVerdict { .. } => {}
            TraceEvent::RunFinished { .. } => {
                self.finalize_pending();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issued(seq: u32, step: Step, at: u64) -> TraceEvent<'static> {
        TraceEvent::QueryIssued {
            seq,
            step,
            server: "192.0.2.1".parse().unwrap(),
            qname: std::borrow::Cow::Owned("example.com".parse().unwrap()),
            qtype: 1,
            qclass: 1,
            at_us: Some(at),
        }
    }

    #[test]
    fn folding_counts_steps_latency_and_timeouts() {
        let events = vec![
            issued(0, Step::Location, 1_000),
            TraceEvent::AttemptSent { seq: 0, attempt: 1, txid: 1, at_us: Some(1_000) },
            TraceEvent::ResponseAccepted {
                seq: 0,
                attempt: 1,
                txid: 1,
                observed: "IAD".into(),
                at_us: Some(4_000),
            },
            issued(1, Step::Location, 10_000),
            TraceEvent::AttemptSent { seq: 1, attempt: 1, txid: 2, at_us: Some(10_000) },
            TraceEvent::AttemptTimedOut { seq: 1, attempt: 1, txid: 2, at_us: Some(15_000) },
            TraceEvent::AttemptSent { seq: 1, attempt: 2, txid: 3, at_us: Some(15_000) },
            TraceEvent::AttemptTimedOut { seq: 1, attempt: 2, txid: 3, at_us: Some(20_000) },
            issued(2, Step::Bogon, 20_000),
            TraceEvent::AttemptSent { seq: 2, attempt: 1, txid: 4, at_us: Some(20_000) },
            TraceEvent::RunFinished {
                intercepted: false,
                location: None,
                queries_sent: 3,
                wire_attempts: 4,
                at_us: Some(25_000),
            },
        ];
        let m = ProbeMetrics::from_events(&events);
        let loc = m.step(Step::Location);
        assert_eq!(loc.queries, 2);
        assert_eq!(loc.responses, 1);
        assert_eq!(loc.timeouts, 1, "query 1 never got an accepted answer");
        let bogon = m.step(Step::Bogon);
        assert_eq!(bogon.queries, 1);
        assert_eq!(bogon.timeouts, 1, "trailing unanswered query closes at RunFinished");
        assert_eq!(m.retries, 1);
        assert_eq!(m.attempt_timeouts, 2);
        assert_eq!(m.total_queries(), 3);
        assert_eq!(m.steps.iter().map(|s| s.timeouts).sum::<u64>(), 2);
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let mut folder = MetricsFolder::default();
        folder.record(issued(0, Step::Location, 5));
        let m = folder.finish();
        let json = serde_json::to_string(&m).unwrap();
        let back: ProbeMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.steps[0].queries, 1);
        assert_eq!(back.steps[0].timeouts, 1, "finish() closes the pending query");
    }
}
