//! Structured observability for the query pipeline and the locator.
//!
//! The paper's verdicts are the end of an *inference chain*: location
//! queries ⇒ intercepted, `version.bind` match ⇒ CPE, bogon answer ⇒
//! within-ISP. This module makes every link of that chain visible: a
//! [`TraceSink`] receives one [`TraceEvent`] for each query issued, each
//! wire attempt (with its transaction ID), each response accepted or
//! flagged for its wrong source, each attempt that timed out, and each
//! step verdict together with the exact evidence that decided it.
//!
//! Tracing is **zero-cost when disabled**: every emission site is guarded
//! by [`TraceSink::enabled`], and the default sink, `NullSink`, returns a
//! constant `false` — after monomorphization the event construction
//! compiles away entirely.
//!
//! Events **borrow** what the emitter already holds: the question's name,
//! the accepted reply's description, and the probe's evidence list that a
//! verdict cites into.
//! A sink that folds events, like [`MetricsFolder`](crate::MetricsFolder),
//! therefore allocates nothing per event; only [`TraceRecorder`], which
//! keeps them, makes owned copies ([`TraceEvent::into_owned`]).
//!
//! Timestamps come from the transport's own deterministic clock
//! ([`QueryTransport::now_us`](crate::QueryTransport::now_us)): simulated
//! transports stamp events with virtual time, so a trace is bit-for-bit
//! reproducible across runs and thread counts; real-network transports
//! leave timestamps empty rather than leak a wall clock into the record.

use crate::report::{Citations, InterceptorLocation, Verdict};
use dns_wire::Name;
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
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
/// [`EvidenceRef::seq`](crate::EvidenceRef::seq) in report provenance);
/// `attempt` numbers wire attempts within one query, starting at 1.
/// `at_us` is the transport's virtual clock in microseconds, or `None`
/// when the transport has no deterministic clock. `'a` is the lifetime of
/// what a live event borrows; a recorded one is `TraceEvent<'static>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent<'a> {
    /// A logical query entered the pipeline.
    QueryIssued {
        /// Query sequence number (issue order).
        seq: u32,
        /// Pipeline stage the query belongs to.
        step: Step,
        /// Server the query targets.
        server: IpAddr,
        /// QNAME; rendered in presentation form.
        qname: Cow<'a, Name>,
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
        observed: Cow<'a, str>,
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
    /// that decided it (the same citations the report's provenance keeps).
    StepVerdict {
        /// The step that concluded.
        step: Step,
        /// The verdict; rendered as its human-stable text.
        verdict: Verdict,
        /// The responses that justified the verdict.
        cited: Citations<'a>,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
    /// The locator finished a full run.
    RunFinished {
        /// Whether any interception was detected.
        intercepted: bool,
        /// Final localization, if any; rendered as its display text.
        location: Option<InterceptorLocation>,
        /// Logical queries issued.
        queries_sent: u32,
        /// Wire attempts made.
        wire_attempts: u32,
        /// Transport clock, microseconds.
        at_us: Option<u64>,
    },
}

impl TraceEvent<'_> {
    /// The logical-query sequence number this event belongs to, if any.
    pub fn seq(&self) -> Option<u32> {
        match self {
            TraceEvent::QueryIssued { seq, .. }
            | TraceEvent::AttemptSent { seq, .. }
            | TraceEvent::ResponseAccepted { seq, .. }
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
            | TraceEvent::ResponseWrongSource { at_us, .. }
            | TraceEvent::AttemptTimedOut { at_us, .. }
            | TraceEvent::StepVerdict { at_us, .. }
            | TraceEvent::RunFinished { at_us, .. } => *at_us,
        }
    }

    /// Copies whatever the event borrows, so it can outlive the emitter.
    pub fn into_owned(self) -> TraceEvent<'static> {
        match self {
            TraceEvent::QueryIssued { seq, step, server, qname, qtype, qclass, at_us } => {
                let qname = Cow::Owned(qname.into_owned());
                TraceEvent::QueryIssued { seq, step, server, qname, qtype, qclass, at_us }
            }
            TraceEvent::AttemptSent { seq, attempt, txid, at_us } => {
                TraceEvent::AttemptSent { seq, attempt, txid, at_us }
            }
            TraceEvent::ResponseAccepted { seq, attempt, txid, observed, at_us } => {
                let observed = Cow::Owned(observed.into_owned());
                TraceEvent::ResponseAccepted { seq, attempt, txid, observed, at_us }
            }
            TraceEvent::ResponseWrongSource { seq, attempt, txid, from, at_us } => {
                TraceEvent::ResponseWrongSource { seq, attempt, txid, from, at_us }
            }
            TraceEvent::AttemptTimedOut { seq, attempt, txid, at_us } => {
                TraceEvent::AttemptTimedOut { seq, attempt, txid, at_us }
            }
            TraceEvent::StepVerdict { step, verdict, cited, at_us } => {
                TraceEvent::StepVerdict { step, verdict, cited: cited.into_owned(), at_us }
            }
            TraceEvent::RunFinished { intercepted, location, queries_sent, wire_attempts, at_us } => {
                TraceEvent::RunFinished { intercepted, location, queries_sent, wire_attempts, at_us }
            }
        }
    }
}

/// Externally tagged by variant name, fields in declaration order: the
/// shape `#[derive(Serialize)]` gives, with the name and the location in
/// their display text.
impl Serialize for TraceEvent<'_> {
    fn to_value(&self) -> Value {
        let (variant, mut fields): (&str, Vec<(&str, Value)>) = match self {
            TraceEvent::QueryIssued { seq, step, server, qname, qtype, qclass, .. } => (
                "QueryIssued",
                vec![
                    ("seq", seq.to_value()),
                    ("step", step.to_value()),
                    ("server", server.to_value()),
                    ("qname", Value::String(qname.to_string())),
                    ("qtype", qtype.to_value()),
                    ("qclass", qclass.to_value()),
                ],
            ),
            TraceEvent::AttemptSent { seq, attempt, txid, .. } => (
                "AttemptSent",
                vec![("seq", seq.to_value()), ("attempt", attempt.to_value()), ("txid", txid.to_value())],
            ),
            TraceEvent::ResponseAccepted { seq, attempt, txid, observed, .. } => (
                "ResponseAccepted",
                vec![
                    ("seq", seq.to_value()),
                    ("attempt", attempt.to_value()),
                    ("txid", txid.to_value()),
                    ("observed", observed.to_value()),
                ],
            ),
            TraceEvent::ResponseWrongSource { seq, attempt, txid, from, .. } => (
                "ResponseWrongSource",
                vec![
                    ("seq", seq.to_value()),
                    ("attempt", attempt.to_value()),
                    ("txid", txid.to_value()),
                    ("from", from.to_value()),
                ],
            ),
            TraceEvent::AttemptTimedOut { seq, attempt, txid, .. } => (
                "AttemptTimedOut",
                vec![("seq", seq.to_value()), ("attempt", attempt.to_value()), ("txid", txid.to_value())],
            ),
            TraceEvent::StepVerdict { step, verdict, cited, .. } => (
                "StepVerdict",
                vec![("step", step.to_value()), ("verdict", verdict.to_value()), ("cited", cited.to_value())],
            ),
            TraceEvent::RunFinished { intercepted, location, queries_sent, wire_attempts, .. } => (
                "RunFinished",
                vec![
                    ("intercepted", intercepted.to_value()),
                    ("location", location.map(|l| l.to_string()).to_value()),
                    ("queries_sent", queries_sent.to_value()),
                    ("wire_attempts", wire_attempts.to_value()),
                ],
            ),
        };
        // Every variant ends with its timestamp.
        fields.push(("at_us", self.at_us().to_value()));
        let fields = fields.into_iter().map(|(name, value)| (name.to_string(), value)).collect();
        Value::Object(vec![(variant.to_string(), Value::Object(fields))])
    }
}

fn fmt_clock(at_us: &Option<u64>) -> String {
    match at_us {
        Some(us) => format!("{}.{:03}ms", us / 1_000, us % 1_000),
        None => "-".into(),
    }
}

impl fmt::Display for TraceEvent<'_> {
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
                write!(f, "[{:>10}] === {step}: {verdict} (evidence: ", fmt_clock(at_us))?;
                if cited.is_empty() {
                    f.write_str("none")?;
                }
                for (i, e) in cited.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}q{}={}", e.seq, e.observed)?;
                }
                f.write_str(")")
            }
            TraceEvent::RunFinished { intercepted, location, queries_sent, wire_attempts, at_us } => {
                let location: &dyn fmt::Display = match location {
                    Some(location) => location,
                    None => &"-",
                };
                write!(
                    f,
                    "[{:>10}] === run finished: intercepted={intercepted} location={location} ({queries_sent} queries, {wire_attempts} attempts)",
                    fmt_clock(at_us),
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

    /// Delivers one event, which borrows from the emitter: a sink that
    /// keeps it calls [`TraceEvent::into_owned`]. Never called when
    /// [`enabled`](TraceSink::enabled) is `false`.
    fn record(&mut self, event: TraceEvent<'_>);
}

/// The disabled sink: `enabled()` is a constant `false` and `record` is a
/// no-op, so traced code paths monomorphize down to the untraced ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent<'_>) {}
}

/// Records every event into a vector, for golden traces, `--trace`
/// rendering, and offline metrics folding. The one sink that copies what
/// events borrow.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TraceRecorder {
    /// Events in emission order.
    pub events: Vec<TraceEvent<'static>>,
}

impl TraceSink for TraceRecorder {
    fn record(&mut self, event: TraceEvent<'_>) {
        self.events.push(event.into_owned());
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, event: TraceEvent<'_>) {
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
    fn events_render_as_json_externally_tagged_in_field_order() {
        let ev = TraceEvent::ResponseWrongSource {
            seq: 7,
            attempt: 2,
            txid: 0x1007,
            from: "9.9.9.9".parse().unwrap(),
            at_us: Some(12_345),
        };
        assert_eq!(
            serde_json::to_string(&ev).unwrap(),
            r#"{"ResponseWrongSource":{"seq":7,"attempt":2,"txid":4103,"from":"9.9.9.9","at_us":12345}}"#
        );
        let name: Name = "id.server".parse().unwrap();
        let issued = TraceEvent::QueryIssued {
            seq: 0,
            step: Step::Location,
            server: "1.1.1.1".parse().unwrap(),
            qname: Cow::Borrowed(&name),
            qtype: 16,
            qclass: 3,
            at_us: None,
        };
        assert_eq!(
            serde_json::to_string(&issued).unwrap(),
            r#"{"QueryIssued":{"seq":0,"step":"Location","server":"1.1.1.1","qname":"id.server.","qtype":16,"qclass":3,"at_us":null}}"#
        );
        let finished = TraceEvent::RunFinished {
            intercepted: true,
            location: Some(InterceptorLocation::WithinIsp),
            queries_sent: 21,
            wire_attempts: 22,
            at_us: Some(1),
        };
        assert_eq!(
            serde_json::to_string(&finished).unwrap(),
            r#"{"RunFinished":{"intercepted":true,"location":"within ISP","queries_sent":21,"wire_attempts":22,"at_us":1}}"#
        );
    }

    #[test]
    fn the_recorder_owns_what_live_events_borrowed() {
        use crate::report::{EvidenceRef, Provenance, SeqSet, StepProvenance};
        let evidence = |seq: u32| EvidenceRef {
            seq,
            server: "8.8.8.8".parse().unwrap(),
            txid: 0x1000 + seq as u16,
            attempts: 1,
            observed: "172.253.226.35".into(),
        };
        let provenance =
            Provenance { evidence: (0..8).map(evidence).collect(), ..Provenance::default() };
        let decided =
            StepProvenance { verdict: Verdict::NotIntercepted, cited: SeqSet::from_iter([4]) };
        let live = TraceEvent::StepVerdict {
            step: Step::Location,
            verdict: decided.verdict,
            cited: provenance.cited(&decided),
            at_us: Some(80_000_000),
        };
        let mut recorder = TraceRecorder::default();
        recorder.record(live.clone());
        drop(live);
        drop(provenance);
        let kept = &recorder.events[0];
        assert!(matches!(kept, TraceEvent::StepVerdict { cited, .. }
            if cited.iter().collect::<Vec<_>>() == vec![evidence(4)]));
        assert_eq!(
            kept.to_string(),
            "[80000.000ms] === location: not intercepted (evidence: q4=172.253.226.35)"
        );
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
