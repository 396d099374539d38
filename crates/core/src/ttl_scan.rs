//! TTL-scan hop localization — the paper's §6 future-work direction.
//!
//! "Techniques based on increasing the TTL of the IP header have the
//! potential to identify which hop intercepted a query." The paper could
//! not run this (RIPE Atlas cannot set TTLs, VPNGate rewrites them); the
//! transport abstraction here can, so the extension is implemented and
//! evaluated.
//!
//! The mechanism: send the same location query with TTL = 1, 2, 3, … and
//! record the smallest TTL that produces a DNS response.
//!
//! * **CPE interceptor**: the DNAT rule captures the packet at hop 1 and
//!   the forwarder *re-originates* it upstream, so a TTL of 1 already
//!   yields an answer.
//! * **In-path middlebox**: DNAT rewrites the destination but the packet
//!   keeps travelling (and decrementing) until the alternate resolver, so
//!   the first answering TTL equals the client's hop distance to that
//!   resolver.
//! * **Clean path**: the first answering TTL is the distance to the real
//!   anycast site.
//!
//! Comparing the first answering TTL for a suspect resolver against a
//! known-clean baseline (or against the CPE distance of 1) localizes the
//! interceptor to a hop count — finer than the paper's three-way verdict.

use crate::trace::{NullSink, Step, TraceSink};
use crate::transport::{
    query_with_retry_traced, QueryCtx, QueryOptions, QueryOutcome, QueryTransport, TxidSequence,
};
use dns_wire::Question;
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// Result of a TTL scan toward one server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TtlScanResult {
    /// Smallest TTL that produced a DNS response, if any within the budget.
    pub first_response_ttl: Option<u8>,
    /// Largest TTL probed.
    pub max_ttl_probed: u8,
    /// Wire attempts spent (equals TTLs probed when
    /// `QueryOptions::attempts` is 1).
    pub queries_sent: u32,
}

impl TtlScanResult {
    /// True when a response appeared at TTL 1 — the answering device is the
    /// first hop, i.e. the CPE.
    pub fn answered_at_first_hop(&self) -> bool {
        self.first_response_ttl == Some(1)
    }
}

/// Scans TTL = 1..=`max_ttl` until a response appears.
///
/// Uses a short per-probe timeout since probes that die in the network
/// never produce an answer; pass the transport's normal options to keep
/// timing realistic.
pub fn ttl_scan<T: QueryTransport>(
    transport: &mut T,
    server: IpAddr,
    question: &Question,
    max_ttl: u8,
    txids: &mut TxidSequence,
    base_opts: QueryOptions,
) -> TtlScanResult {
    ttl_scan_traced(transport, server, question, max_ttl, txids, base_opts, &mut NullSink, &mut 0)
}

/// [`ttl_scan`] with trace events delivered to `sink`; `seq` continues the
/// caller's query numbering, one logical query per TTL probed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ttl_scan_traced<T: QueryTransport, S: TraceSink>(
    transport: &mut T,
    server: IpAddr,
    question: &Question,
    max_ttl: u8,
    txids: &mut TxidSequence,
    base_opts: QueryOptions,
    sink: &mut S,
    seq: &mut u32,
) -> TtlScanResult {
    let max_ttl = max_ttl.max(1);
    let mut queries_sent = 0;
    for ttl in 1..=max_ttl {
        let opts = QueryOptions { ttl: Some(ttl), ..base_opts };
        let this_seq = *seq;
        *seq += 1;
        let retried = query_with_retry_traced(
            transport,
            server,
            question,
            txids,
            opts,
            sink,
            QueryCtx { seq: this_seq, step: Step::TtlScan },
        );
        queries_sent += retried.attempts_used;
        if let QueryOutcome::Response(_) = retried.outcome {
            return TtlScanResult {
                first_response_ttl: Some(ttl),
                max_ttl_probed: ttl,
                queries_sent,
            };
        }
    }
    TtlScanResult { first_response_ttl: None, max_ttl_probed: max_ttl, queries_sent }
}

/// Interpretation of a pair of scans: suspect resolver vs clean baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TtlVerdict {
    /// Response at hop 1: the CPE answered — CPE interception.
    AnsweredByCpe,
    /// The suspect path answers strictly earlier than the baseline: an
    /// in-path interceptor sits `hops` from the client.
    InterceptedAtHop {
        /// First answering TTL on the suspect path.
        hops: u8,
    },
    /// Suspect and baseline answer at the same hop count: no TTL evidence
    /// of interception.
    Consistent,
    /// The scan produced no answer (filtering, loss, or budget too small).
    Inconclusive,
}

/// Compares a suspect scan against a clean-baseline scan.
pub fn interpret(suspect: &TtlScanResult, baseline: &TtlScanResult) -> TtlVerdict {
    match (suspect.first_response_ttl, baseline.first_response_ttl) {
        (Some(1), _) => TtlVerdict::AnsweredByCpe,
        (Some(s), Some(b)) if s < b => TtlVerdict::InterceptedAtHop { hops: s },
        (Some(_), Some(_)) => TtlVerdict::Consistent,
        _ => TtlVerdict::Inconclusive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{MockTransport, Respond};
    use dns_wire::RClass;

    /// A transport wrapper that only answers when TTL ≥ threshold,
    /// emulating hop distance.
    struct HopGate {
        inner: MockTransport,
        answer_at: u8,
    }

    impl QueryTransport for HopGate {
        fn query(
            &mut self,
            server: IpAddr,
            q: &Question,
            txid: u16,
            opts: QueryOptions,
        ) -> QueryOutcome {
            match opts.ttl {
                Some(ttl) if ttl < self.answer_at => QueryOutcome::Timeout,
                _ => self.inner.query(server, q, txid, opts),
            }
        }
    }

    fn gate(answer_at: u8) -> HopGate {
        let mut inner = MockTransport::new();
        inner.push_rule(None, None, Some(RClass::Chaos), Respond::Txt("IAD".into()));
        HopGate { inner, answer_at }
    }

    fn q() -> Question {
        Question::chaos_txt("id.server".parse().unwrap())
    }

    #[test]
    fn scan_finds_first_answering_ttl() {
        let mut t = gate(4);
        let r = ttl_scan(
            &mut t,
            "1.1.1.1".parse().unwrap(),
            &q(),
            8,
            &mut TxidSequence::new(0x6000),
            QueryOptions::default(),
        );
        assert_eq!(r.first_response_ttl, Some(4));
        assert_eq!(r.queries_sent, 4);
    }

    #[test]
    fn traced_scan_emits_one_query_per_ttl() {
        use crate::trace::{TraceEvent, TraceRecorder};
        let mut t = gate(3);
        let mut rec = TraceRecorder::default();
        let mut seq = 100;
        let r = ttl_scan_traced(
            &mut t,
            "1.1.1.1".parse().unwrap(),
            &q(),
            8,
            &mut TxidSequence::new(0x6000),
            QueryOptions::default(),
            &mut rec,
            &mut seq,
        );
        assert_eq!(r.first_response_ttl, Some(3));
        assert_eq!(seq, 103, "three TTL probes, three logical queries");
        let issued: Vec<u32> = rec
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::QueryIssued { seq, step: Step::TtlScan, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(issued, vec![100, 101, 102]);
    }

    #[test]
    fn scan_gives_up_past_budget() {
        let mut t = gate(10);
        let r = ttl_scan(
            &mut t,
            "1.1.1.1".parse().unwrap(),
            &q(),
            5,
            &mut TxidSequence::new(0x6000),
            QueryOptions::default(),
        );
        assert_eq!(r.first_response_ttl, None);
        assert_eq!(r.queries_sent, 5);
    }

    #[test]
    fn hop_one_means_cpe() {
        let mut t = gate(1);
        let r = ttl_scan(
            &mut t,
            "1.1.1.1".parse().unwrap(),
            &q(),
            8,
            &mut TxidSequence::new(0x6000),
            QueryOptions::default(),
        );
        assert!(r.answered_at_first_hop());
        let baseline =
            TtlScanResult { first_response_ttl: Some(5), max_ttl_probed: 5, queries_sent: 5 };
        assert_eq!(interpret(&r, &baseline), TtlVerdict::AnsweredByCpe);
    }

    #[test]
    fn earlier_than_baseline_is_in_path_interceptor() {
        let suspect =
            TtlScanResult { first_response_ttl: Some(3), max_ttl_probed: 3, queries_sent: 3 };
        let baseline =
            TtlScanResult { first_response_ttl: Some(5), max_ttl_probed: 5, queries_sent: 5 };
        assert_eq!(interpret(&suspect, &baseline), TtlVerdict::InterceptedAtHop { hops: 3 });
    }

    #[test]
    fn equal_distance_is_consistent() {
        let a = TtlScanResult { first_response_ttl: Some(5), max_ttl_probed: 5, queries_sent: 5 };
        assert_eq!(interpret(&a, &a), TtlVerdict::Consistent);
    }

    #[test]
    fn no_answer_is_inconclusive() {
        let none = TtlScanResult { first_response_ttl: None, max_ttl_probed: 8, queries_sent: 8 };
        let base =
            TtlScanResult { first_response_ttl: Some(5), max_ttl_probed: 5, queries_sent: 5 };
        assert_eq!(interpret(&none, &base), TtlVerdict::Inconclusive);
    }
}
