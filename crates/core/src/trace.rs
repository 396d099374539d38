//! Structured observability for the query pipeline and the locator.
//!
//! The paper's verdicts are the end of an *inference chain*: location
//! queries ⇒ intercepted, `version.bind` match ⇒ CPE, bogon answer ⇒
//! within-ISP. This module makes every link of that chain visible: a
//! [`TraceSink`] receives one [`TraceEvent`] for each query issued, each
//! wire attempt (with its transaction ID), each response accepted or
//! dropped for a wrong ID, and each step verdict together with the exact
//! evidence that decided it.
//!
//! Tracing is **zero-cost when disabled**: every emission site is guarded
//! by [`TraceSink::enabled`], and the default sink, [`NullSink`], returns a
//! constant `false` — after monomorphization the event construction
//! (including its string formatting) compiles away entirely.
//!
//! Timestamps come from the transport's own deterministic clock
//! ([`QueryTransport::now_us`](crate::QueryTransport::now_us)): simulated
//! transports stamp events with virtual time, so a trace is bit-for-bit
//! reproducible across runs and thread counts; real-network transports
//! leave timestamps empty rather than leak a wall clock into the record.

use crate::report::EvidenceRef;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::IpAddr;

/// Which stage of the technique a traced query belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Step {
    /// Step 1 (§3.1): location queries.
    Location,
    /// Step 2 (§3.2): the `version.bind` comparison.
    CpeCheck,
    /// Step 3 (§3.3): bogon queries.
    Bogon,
    /// The §4.1.2 whoami transparency test.
    Transparency,
    /// A corroborating side check (DNSSEC-AD or NXDOMAIN wildcard).
    SideCheck,
    /// The §6 TTL-scan extension.
    TtlScan,
    /// The response-source consistency audit (transparent-forwarder
    /// taxonomy): did every reply come from the server it was sent to?
    SourceCheck,
}

impl Step {
    /// Every step, in pipeline order.
    pub const ALL: [Step; 7] = [
        Step::Location,
        Step::CpeCheck,
        Step::Bogon,
        Step::Transparency,
        Step::SideCheck,
        Step::TtlScan,
        Step::SourceCheck,
    ];

    /// Stable index into per-step tables (`0..Step::ALL.len()`).
    pub fn index(self) -> usize {
        match self {
            Step::Location => 0,
            Step::CpeCheck => 1,
            Step::Bogon => 2,
            Step::Transparency => 3,
            Step::SideCheck => 4,
            Step::TtlScan => 5,
            Step::SourceCheck => 6,
        }
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Step::Location => "location",
            Step::CpeCheck => "cpe-check",
            Step::Bogon => "bogon",
            Step::Transparency => "transparency",
            Step::SideCheck => "side-check",
            Step::TtlScan => "ttl-scan",
            Step::SourceCheck => "source-check",
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured trace event.
///
/// `seq` numbers logical queries in issue order (it matches
/// [`EvidenceRef::seq`] in report provenance); `attempt` numbers wire
/// attempts within one query, starting at 1. `at_us` is the transport's
/// virtual clock in microseconds, or `None` when the transport has no
/// deterministic clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A logical query entered the pipeline.
    QueryIssued {
        /// Query sequence number (issue order).
        seq: u32,
        /// Pipeline stage the query belongs to.
        step: Step,
        /// Server the query targets.
        server: IpAddr,
        /// QNAME in presentation form.
        qname: String,
        /// QTYPE wire value.
        qtype: u16,
        /// QCLASS wire value.
        qclass: u16,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
    /// One wire attempt left with a fresh transaction ID.
    AttemptSent {
        /// Owning query.
        seq: u32,
        /// Attempt number, 1-based.
        attempt: u32,
        /// Transaction ID stamped on the wire.
        txid: u16,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
    /// A response with the matching transaction ID was accepted.
    ResponseAccepted {
        /// Owning query.
        seq: u32,
        /// Attempt that was answered.
        attempt: u32,
        /// Transaction ID the response carried (== the attempt's).
        txid: u16,
        /// Summarized payload (TXT/A answer or rcode).
        observed: String,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
    /// A response arrived but carried the wrong transaction ID — the
    /// stale-txid defense dropped it.
    ResponseDropped {
        /// Owning query.
        seq: u32,
        /// Attempt the response would have satisfied.
        attempt: u32,
        /// The ID the attempt used.
        expected_txid: u16,
        /// The ID the response actually carried.
        got_txid: u16,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
    /// A response carried the right transaction ID but arrived from an
    /// address other than the queried server — the transparent-forwarder
    /// signature. It is never accepted as the answer.
    ResponseWrongSource {
        /// Owning query.
        seq: u32,
        /// Attempt the response claimed to satisfy.
        attempt: u32,
        /// The transaction ID the response carried (== the attempt's).
        txid: u16,
        /// The address the reply actually came from.
        from: IpAddr,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
    /// One wire attempt ran out its timeout without an acceptable answer.
    AttemptTimedOut {
        /// Owning query.
        seq: u32,
        /// Attempt that expired.
        attempt: u32,
        /// The ID the attempt used.
        txid: u16,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
    /// A pipeline step reached its verdict; `cited` is the exact evidence
    /// that decided it (the same references the report's provenance keeps).
    StepVerdict {
        /// The step that concluded.
        step: Step,
        /// Human-stable verdict string.
        verdict: String,
        /// The responses that justified the verdict.
        cited: Vec<EvidenceRef>,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
    /// The locator finished a full run.
    RunFinished {
        /// Whether any interception was detected.
        intercepted: bool,
        /// Final localization, if any.
        location: Option<String>,
        /// Logical queries issued.
        queries_sent: u32,
        /// Wire attempts made.
        wire_attempts: u32,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
}

impl TraceEvent {
    /// The logical-query sequence number this event belongs to, if any.
    pub fn seq(&self) -> Option<u32> {
        match self {
            TraceEvent::QueryIssued { seq, .. }
            | TraceEvent::AttemptSent { seq, .. }
            | TraceEvent::ResponseAccepted { seq, .. }
            | TraceEvent::ResponseDropped { seq, .. }
            | TraceEvent::ResponseWrongSource { seq, .. }
            | TraceEvent::AttemptTimedOut { seq, .. } => Some(*seq),
            TraceEvent::StepVerdict { .. } | TraceEvent::RunFinished { .. } => None,
        }
    }

    /// The event's timestamp, if the transport had a clock.
    pub fn at_us(&self) -> Option<u64> {
        match self {
            TraceEvent::QueryIssued { at_us, .. }
            | TraceEvent::AttemptSent { at_us, .. }
            | TraceEvent::ResponseAccepted { at_us, .. }
            | TraceEvent::ResponseDropped { at_us, .. }
            | TraceEvent::ResponseWrongSource { at_us, .. }
            | TraceEvent::AttemptTimedOut { at_us, .. }
            | TraceEvent::StepVerdict { at_us, .. }
            | TraceEvent::RunFinished { at_us, .. } => *at_us,
        }
    }
}

fn fmt_clock(at_us: &Option<u64>) -> String {
    match at_us {
        Some(us) => format!("{}.{:03}ms", us / 1_000, us % 1_000),
        None => "-".into(),
    }
}

impl fmt::Display for TraceEvent {
    /// One line per event, the `hijack-scan --trace` rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::QueryIssued { seq, step, server, qname, qtype, qclass, at_us } => {
                write!(
                    f,
                    "[{:>10}] q{seq:<3} {step:<12} issue  {qname} type={qtype} class={qclass} -> {server}",
                    fmt_clock(at_us)
                )
            }
            TraceEvent::AttemptSent { seq, attempt, txid, at_us } => {
                write!(
                    f,
                    "[{:>10}] q{seq:<3} attempt {attempt} sent, txid={txid:#06x}",
                    fmt_clock(at_us)
                )
            }
            TraceEvent::ResponseAccepted { seq, attempt, txid, observed, at_us } => {
                write!(
                    f,
                    "[{:>10}] q{seq:<3} attempt {attempt} accepted txid={txid:#06x}: {observed}",
                    fmt_clock(at_us)
                )
            }
            TraceEvent::ResponseDropped { seq, attempt, expected_txid, got_txid, at_us } => {
                write!(
                    f,
                    "[{:>10}] q{seq:<3} attempt {attempt} DROPPED wrong txid: expected {expected_txid:#06x}, got {got_txid:#06x}",
                    fmt_clock(at_us)
                )
            }
            TraceEvent::ResponseWrongSource { seq, attempt, txid, from, at_us } => {
                write!(
                    f,
                    "[{:>10}] q{seq:<3} attempt {attempt} WRONG SOURCE txid={txid:#06x}: reply from {from}",
                    fmt_clock(at_us)
                )
            }
            TraceEvent::AttemptTimedOut { seq, attempt, txid, at_us } => {
                write!(
                    f,
                    "[{:>10}] q{seq:<3} attempt {attempt} timed out, txid={txid:#06x}",
                    fmt_clock(at_us)
                )
            }
            TraceEvent::StepVerdict { step, verdict, cited, at_us } => {
                write!(
                    f,
                    "[{:>10}] === {step}: {verdict} (evidence: {})",
                    fmt_clock(at_us),
                    if cited.is_empty() {
                        "none".to_string()
                    } else {
                        cited
                            .iter()
                            .map(|e| format!("q{}={}", e.seq, e.observed))
                            .collect::<Vec<_>>()
                            .join(", ")
                    }
                )
            }
            TraceEvent::RunFinished { intercepted, location, queries_sent, wire_attempts, at_us } => {
                write!(
                    f,
                    "[{:>10}] === run finished: intercepted={intercepted} location={} ({queries_sent} queries, {wire_attempts} attempts)",
                    fmt_clock(at_us),
                    location.as_deref().unwrap_or("-")
                )
            }
        }
    }
}

/// Receiver of trace events.
///
/// Implementations that do not care about events should return `false`
/// from [`enabled`](TraceSink::enabled); every emission site checks it
/// before constructing an event, so a disabled sink costs one inlined
/// constant branch.
pub trait TraceSink {
    /// Whether events should be constructed and delivered at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Delivers one event. Never called when [`enabled`](TraceSink::enabled)
    /// is `false`.
    fn record(&mut self, event: TraceEvent);
}

/// The disabled sink: `enabled()` is a constant `false` and `record` is a
/// no-op, so traced code paths monomorphize down to the untraced ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// Records every event into a vector, for golden traces, `--trace`
/// rendering, and offline metrics folding.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecorder {
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for TraceRecorder {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, event: TraceEvent) {
        (**self).record(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        let mut s = NullSink;
        s.record(TraceEvent::RunFinished {
            intercepted: false,
            location: None,
            queries_sent: 0,
            wire_attempts: 0,
            at_us: None,
        });
    }

    #[test]
    fn recorder_collects_in_order() {
        let mut r = TraceRecorder::default();
        for seq in 0..3 {
            r.record(TraceEvent::AttemptSent { seq, attempt: 1, txid: seq as u16, at_us: None });
        }
        let seqs: Vec<u32> = r.events.iter().filter_map(|e| e.seq()).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn events_round_trip_through_json() {
        let ev = TraceEvent::ResponseDropped {
            seq: 7,
            attempt: 2,
            expected_txid: 0x1007,
            got_txid: 0x1006,
            at_us: Some(12_345),
        };
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.contains("ResponseDropped"), "externally tagged by variant name");
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn display_is_one_line_per_event() {
        let ev = TraceEvent::ResponseAccepted {
            seq: 3,
            attempt: 1,
            txid: 0x1003,
            observed: "IAD".into(),
            at_us: Some(5_000),
        };
        let line = ev.to_string();
        assert!(line.contains("q3"));
        assert!(line.contains("IAD"));
        assert!(!line.contains('\n'));
        assert!(ev.to_string().contains("5.000ms"));
        let no_clock = TraceEvent::AttemptTimedOut { seq: 0, attempt: 1, txid: 1, at_us: None };
        assert!(no_clock.to_string().contains("[         -]"));
    }

    #[test]
    fn step_indices_are_dense_and_stable() {
        for (i, step) in Step::ALL.iter().enumerate() {
            assert_eq!(step.index(), i);
        }
    }
}
