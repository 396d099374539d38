//! The transport abstraction the locator runs on.
//!
//! The paper stresses that its technique "can be implemented on any device
//! that can make DNS queries, without requiring root access or external
//! measurement tools" (§1). [`QueryTransport`] captures exactly that
//! capability: send one DNS question to one server address, get back either
//! a response or a timeout. The simulator provides one implementation; a
//! real `UdpSocket`-backed one could be added without touching the
//! algorithm.
//!
//! Transaction IDs are allocated by the *caller* and passed down to the
//! transport, which must both stamp them on the wire and reject responses
//! carrying a different ID. Retries live above the transport in
//! [`query_with_retry`]: each attempt re-sends with a fresh ID so a late
//! response to a previous attempt can never be mistaken for the current
//! one.
//!
//! A transport hands back each reply as received ([`Reply`]): the bytes,
//! validated once by its receive filter. The locator reads the few fields
//! it needs through the reply's view and never decodes owned records.

use crate::trace::{Step, TraceEvent, TraceSink};
use dns_wire::{Question, Reply};
use std::borrow::Cow;
use std::net::IpAddr;

/// Wait budget and packet parameters for a single query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// How long to wait for a response before declaring a timeout.
    pub timeout_ms: u64,
    /// IP TTL / hop limit for the query packet. `None` uses the OS
    /// default. Setting this requires raw-socket privileges on real
    /// systems — exactly the §6 caveat; the simulated transport supports
    /// it freely, which is what the TTL-scan extension exploits.
    pub ttl: Option<u8>,
    /// Total send attempts per question (minimum 1). The paper's pipeline
    /// is single-shot and conservatively treats timeouts as *not*
    /// interception (§3.1); raising this recovers answers from lossy last
    /// miles without weakening that rule — a query only stays a timeout if
    /// every attempt went unanswered.
    pub attempts: u32,
    /// Pause between attempts, in milliseconds. `0` retries immediately.
    pub retry_backoff_ms: u64,
}

impl Default for QueryOptions {
    fn default() -> Self {
        // RIPE Atlas uses a 5-second UDP timeout; we default to the same
        // single-shot behavior the paper's measurements had.
        QueryOptions { timeout_ms: 5_000, ttl: None, attempts: 1, retry_backoff_ms: 0 }
    }
}

/// Result of one query attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// A response arrived whose source address matched the queried server
    /// (the OS-level connected-UDP check every stub resolver performs —
    /// which is why interceptors must spoof, §2).
    Response(Reply),
    /// No matching response within the timeout. The paper conservatively
    /// treats timeouts as *not* interception (§3.1).
    Timeout,
    /// A reply carrying the right transaction ID arrived, but from an
    /// address other than the queried server. A connected-UDP stub would
    /// silently drop this; surfacing it instead is the transparent-
    /// forwarder signal (Nawrocki et al.): a device that relays the query
    /// upstream while preserving the client's source address makes the
    /// *upstream* resolver answer the client directly.
    WrongSource {
        /// The response (txid and QR already verified).
        message: Reply,
        /// The address the reply actually came from.
        from: IpAddr,
    },
}

impl QueryOutcome {
    /// The response, if one arrived *from the queried server*. A
    /// wrong-source reply is never an answer: the pipeline treats it like
    /// a timeout for verdict purposes and flags it separately.
    pub fn response(&self) -> Option<&Reply> {
        match self {
            QueryOutcome::Response(m) => Some(m),
            QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => None,
        }
    }

    /// True if this outcome is a timeout.
    pub fn is_timeout(&self) -> bool {
        matches!(self, QueryOutcome::Timeout)
    }

    /// The responding source address, when a reply with the right
    /// transaction ID arrived from somewhere other than the queried server.
    pub fn wrong_source(&self) -> Option<IpAddr> {
        match self {
            QueryOutcome::WrongSource { from, .. } => Some(*from),
            _ => None,
        }
    }
}

/// Anything that can carry a DNS question to a server address.
pub trait QueryTransport {
    /// Sends `question` to `server` with transaction ID `txid` and waits
    /// for a source-matching reply. Implementations must stamp `txid` on
    /// the outgoing message and drop replies whose header ID differs.
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        opts: QueryOptions,
    ) -> QueryOutcome;

    /// Waits `ms` milliseconds between retry attempts. Real transports
    /// sleep; simulated ones advance virtual time; mocks do nothing.
    fn backoff(&mut self, _ms: u64) {}

    /// The transport's deterministic clock in microseconds, if it has one.
    ///
    /// Simulated transports report virtual time so trace events are
    /// bit-for-bit reproducible; real-network transports return `None`
    /// rather than leak a wall clock into the trace record.
    fn now_us(&self) -> Option<u64> {
        None
    }

    /// Tells the transport which pipeline step the next queries belong
    /// to, so per-step latency histograms can attribute them. The default
    /// is a no-op: transports that don't collect timing ignore it.
    fn note_step(&mut self, _step: Step) {}
}

/// Blanket implementation so `&mut T` works wherever `T` does.
impl<T: QueryTransport + ?Sized> QueryTransport for &mut T {
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        opts: QueryOptions,
    ) -> QueryOutcome {
        (**self).query(server, question, txid, opts)
    }

    fn backoff(&mut self, ms: u64) {
        (**self).backoff(ms)
    }

    fn now_us(&self) -> Option<u64> {
        (**self).now_us()
    }

    fn note_step(&mut self, step: Step) {
        (**self).note_step(step)
    }
}

/// Deterministic allocator of DNS transaction IDs.
///
/// Every query — including each retry attempt — draws a fresh ID, so runs
/// stay reproducible and a response can always be matched to exactly one
/// in-flight attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxidSequence {
    next: u16,
}

impl TxidSequence {
    /// Starts the sequence at `start`.
    pub fn new(start: u16) -> TxidSequence {
        TxidSequence { next: start }
    }

    /// Returns the next ID, advancing the sequence (wrapping at `u16::MAX`).
    /// Not an `Iterator`: the sequence is infinite and yields plain `u16`s.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u16 {
        let id = self.next;
        self.next = self.next.wrapping_add(1);
        id
    }
}

/// Outcome of [`query_with_retry`]: the final result plus how many wire
/// attempts it took to get there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetriedQuery {
    /// The final outcome: the first accepted response, or `Timeout` if
    /// every attempt went unanswered.
    pub outcome: QueryOutcome,
    /// Wire attempts actually made (1..=`opts.attempts`).
    pub attempts_used: u32,
    /// Transaction ID of the decisive attempt: the accepted response's ID,
    /// or the final attempt's ID when every attempt went unanswered.
    pub txid: u16,
    /// Source address of the first reply that carried the right
    /// transaction ID but came from the wrong address, if any attempt saw
    /// one — recorded even when a later attempt was properly answered.
    pub wrong_source: Option<IpAddr>,
    /// [`describe_response`](crate::describe_response) of the accepted
    /// reply, when a live sink already needed it for `ResponseAccepted`.
    /// A caller that reports the description takes it from here rather
    /// than describing the reply a second time.
    pub observed: Option<String>,
}

/// Trace context for one logical query: its sequence number and the
/// pipeline step it belongs to. Attached to every event
/// [`query_with_retry_traced`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCtx {
    /// Logical-query sequence number (issue order, 0-based).
    pub seq: u32,
    /// The pipeline stage issuing the query.
    pub step: Step,
}

/// Sends `question` up to `opts.attempts` times, with a fresh transaction
/// ID per attempt and `opts.retry_backoff_ms` between attempts.
///
/// A response whose header ID does not match the attempt's ID is treated
/// as if no response arrived — the stale-txid defense — so a late answer
/// to an earlier attempt (or a blindly spoofed one) cannot satisfy the
/// query. With `attempts == 1` this is exactly one transport call:
/// single-shot pipelines are reproduced bit-for-bit.
pub fn query_with_retry<T: QueryTransport>(
    transport: &mut T,
    server: IpAddr,
    question: &Question,
    txids: &mut TxidSequence,
    opts: QueryOptions,
) -> RetriedQuery {
    query_with_retry_traced(
        transport,
        server,
        question,
        txids,
        opts,
        &mut crate::trace::NullSink,
        QueryCtx { seq: 0, step: Step::Location },
    )
}

/// [`query_with_retry`] with per-attempt trace events.
///
/// Emits `AttemptSent` for every wire attempt, then exactly one of
/// `ResponseAccepted`, `ResponseDropped` (wrong transaction ID), or
/// `AttemptTimedOut` for it — all stamped with the transport's clock and
/// tagged with `ctx`. The accepted reply is described once, for
/// `ResponseAccepted`, and the text comes back in
/// [`RetriedQuery::observed`]. When `sink.enabled()` is false (the
/// [`NullSink`] path) no event is ever constructed, nothing is described,
/// and this is exactly [`query_with_retry`].
///
/// [`NullSink`]: crate::trace::NullSink
pub fn query_with_retry_traced<T: QueryTransport, S: TraceSink>(
    transport: &mut T,
    server: IpAddr,
    question: &Question,
    txids: &mut TxidSequence,
    opts: QueryOptions,
    sink: &mut S,
    ctx: QueryCtx,
) -> RetriedQuery {
    let attempts = opts.attempts.max(1);
    let mut last_txid = 0;
    // The first wrong-source reply seen across attempts; if no attempt is
    // properly answered it becomes the final outcome (it is stronger
    // evidence than a bare timeout), and if one is, it is still reported
    // through [`RetriedQuery::wrong_source`].
    let mut mismatch: Option<(Reply, IpAddr)> = None;
    for attempt in 0..attempts {
        if attempt > 0 && opts.retry_backoff_ms > 0 {
            transport.backoff(opts.retry_backoff_ms);
        }
        let txid = txids.next();
        last_txid = txid;
        if sink.enabled() {
            sink.record(TraceEvent::AttemptSent {
                seq: ctx.seq,
                attempt: attempt + 1,
                txid,
                at_us: transport.now_us(),
            });
        }
        match transport.query(server, question, txid, opts) {
            QueryOutcome::Response(reply) if reply.header().id == txid => {
                let observed = sink.enabled().then(|| {
                    let observed = crate::detector::describe_response(&reply.view());
                    sink.record(TraceEvent::ResponseAccepted {
                        seq: ctx.seq,
                        attempt: attempt + 1,
                        txid,
                        observed: Cow::Borrowed(&observed),
                        at_us: transport.now_us(),
                    });
                    observed
                });
                return RetriedQuery {
                    outcome: QueryOutcome::Response(reply),
                    attempts_used: attempt + 1,
                    txid,
                    wrong_source: mismatch.map(|(_, from)| from),
                    observed,
                };
            }
            // Wrong-ID responses and timeouts both burn the attempt.
            QueryOutcome::Response(reply) => {
                if sink.enabled() {
                    sink.record(TraceEvent::ResponseDropped {
                        seq: ctx.seq,
                        attempt: attempt + 1,
                        expected_txid: txid,
                        got_txid: reply.header().id,
                        at_us: transport.now_us(),
                    });
                }
            }
            // A right-ID reply from the wrong address burns the attempt
            // too — it is not an answer — but is remembered as evidence.
            QueryOutcome::WrongSource { message, from } => {
                if sink.enabled() {
                    sink.record(TraceEvent::ResponseWrongSource {
                        seq: ctx.seq,
                        attempt: attempt + 1,
                        txid,
                        from,
                        at_us: transport.now_us(),
                    });
                }
                if mismatch.is_none() {
                    mismatch = Some((message, from));
                }
            }
            QueryOutcome::Timeout => {
                if sink.enabled() {
                    sink.record(TraceEvent::AttemptTimedOut {
                        seq: ctx.seq,
                        attempt: attempt + 1,
                        txid,
                        at_us: transport.now_us(),
                    });
                }
            }
        }
    }
    match mismatch {
        Some((message, from)) => RetriedQuery {
            outcome: QueryOutcome::WrongSource { message, from },
            attempts_used: attempts,
            txid: last_txid,
            wrong_source: Some(from),
            observed: None,
        },
        None => RetriedQuery {
            outcome: QueryOutcome::Timeout,
            attempts_used: attempts,
            txid: last_txid,
            wrong_source: None,
            observed: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Message, Rcode};

    /// Scripted transport: pops one canned reaction per query call.
    struct Script {
        reactions: Vec<Reaction>,
        calls: u32,
        backoffs: Vec<u64>,
        txids_seen: Vec<u16>,
    }

    enum Reaction {
        Timeout,
        Answer,
        WrongTxid,
        WrongSource,
    }

    impl Script {
        fn new(reactions: Vec<Reaction>) -> Script {
            Script { reactions, calls: 0, backoffs: Vec::new(), txids_seen: Vec::new() }
        }
    }

    impl QueryTransport for Script {
        fn query(
            &mut self,
            _server: IpAddr,
            question: &Question,
            txid: u16,
            _opts: QueryOptions,
        ) -> QueryOutcome {
            let idx = self.calls as usize;
            self.calls += 1;
            self.txids_seen.push(txid);
            let reply = |id: u16| {
                let q = Message::query(id, question.clone());
                Reply::encode(&Message::response_to(&q, Rcode::NoError)).unwrap()
            };
            match self.reactions.get(idx).unwrap_or(&Reaction::Timeout) {
                Reaction::Timeout => QueryOutcome::Timeout,
                Reaction::Answer => QueryOutcome::Response(reply(txid)),
                Reaction::WrongTxid => QueryOutcome::Response(reply(txid.wrapping_add(1))),
                Reaction::WrongSource => QueryOutcome::WrongSource {
                    message: reply(txid),
                    from: "198.51.100.99".parse().unwrap(),
                },
            }
        }

        fn backoff(&mut self, ms: u64) {
            self.backoffs.push(ms);
        }
    }

    fn opts(attempts: u32, backoff: u64) -> QueryOptions {
        QueryOptions { attempts, retry_backoff_ms: backoff, ..QueryOptions::default() }
    }

    fn ask(t: &mut Script, o: QueryOptions) -> RetriedQuery {
        let server: IpAddr = "192.0.2.1".parse().unwrap();
        let q = Question::new("example.com".parse().unwrap(), dns_wire::RType::A);
        let mut txids = TxidSequence::new(0x4000);
        query_with_retry(t, server, &q, &mut txids, o)
    }

    #[test]
    fn single_attempt_is_one_transport_call() {
        let mut t = Script::new(vec![Reaction::Answer]);
        let r = ask(&mut t, opts(1, 50));
        assert_eq!(r.attempts_used, 1);
        assert!(!r.outcome.is_timeout());
        assert_eq!(t.calls, 1);
        assert!(t.backoffs.is_empty());
    }

    #[test]
    fn retries_recover_from_early_timeouts() {
        let mut t = Script::new(vec![Reaction::Timeout, Reaction::Timeout, Reaction::Answer]);
        let r = ask(&mut t, opts(3, 100));
        assert_eq!(r.attempts_used, 3);
        assert!(!r.outcome.is_timeout());
        // Backoff runs before attempts 2 and 3, never before the first.
        assert_eq!(t.backoffs, vec![100, 100]);
        // Each attempt used a fresh ID.
        assert_eq!(t.txids_seen, vec![0x4000, 0x4001, 0x4002]);
    }

    #[test]
    fn all_attempts_exhausted_is_a_timeout() {
        let mut t = Script::new(vec![Reaction::Timeout, Reaction::Timeout]);
        let r = ask(&mut t, opts(2, 0));
        assert_eq!(r.attempts_used, 2);
        assert!(r.outcome.is_timeout());
        assert!(t.backoffs.is_empty(), "zero backoff never calls backoff()");
    }

    #[test]
    fn wrong_txid_responses_are_dropped_and_retried() {
        let mut t = Script::new(vec![Reaction::WrongTxid, Reaction::Answer]);
        let r = ask(&mut t, opts(2, 0));
        assert_eq!(r.attempts_used, 2);
        let reply = r.outcome.response().expect("second attempt answered");
        assert_eq!(reply.header().id, 0x4001);
    }

    #[test]
    fn wrong_txid_with_one_attempt_is_a_timeout() {
        let mut t = Script::new(vec![Reaction::WrongTxid]);
        let r = ask(&mut t, opts(1, 0));
        assert!(r.outcome.is_timeout());
        assert_eq!(r.attempts_used, 1);
    }

    #[test]
    fn zero_attempts_is_clamped_to_one() {
        let mut t = Script::new(vec![Reaction::Answer]);
        let r = ask(&mut t, opts(0, 0));
        assert_eq!(r.attempts_used, 1);
        assert_eq!(t.calls, 1);
    }

    #[test]
    fn traced_retry_emits_one_event_pair_per_attempt() {
        use crate::trace::{TraceEvent, TraceRecorder};
        let mut t = Script::new(vec![Reaction::Timeout, Reaction::WrongTxid, Reaction::Answer]);
        let server: IpAddr = "192.0.2.1".parse().unwrap();
        let q = Question::new("example.com".parse().unwrap(), dns_wire::RType::A);
        let mut txids = TxidSequence::new(0x4000);
        let mut rec = TraceRecorder::default();
        let r = query_with_retry_traced(
            &mut t,
            server,
            &q,
            &mut txids,
            opts(3, 0),
            &mut rec,
            QueryCtx { seq: 9, step: Step::Location },
        );
        assert_eq!(r.attempts_used, 3);
        assert_eq!(r.txid, 0x4002, "decisive txid is the accepted response's");
        let kinds: Vec<&str> = rec
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::AttemptSent { .. } => "sent",
                TraceEvent::AttemptTimedOut { .. } => "timeout",
                TraceEvent::ResponseDropped { .. } => "dropped",
                TraceEvent::ResponseAccepted { .. } => "accepted",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["sent", "timeout", "sent", "dropped", "sent", "accepted"]);
        assert!(rec.events.iter().all(|e| e.seq() == Some(9)));
        match &rec.events[3] {
            TraceEvent::ResponseDropped { expected_txid, got_txid, .. } => {
                assert_eq!(*expected_txid, 0x4001);
                assert_eq!(*got_txid, 0x4002, "wrong-id response carried txid+1");
            }
            other => panic!("expected drop event, got {other:?}"),
        }
    }

    #[test]
    fn untraced_retry_reports_last_txid_on_timeout() {
        let mut t = Script::new(vec![Reaction::Timeout, Reaction::Timeout]);
        let r = ask(&mut t, opts(2, 0));
        assert!(r.outcome.is_timeout());
        assert_eq!(r.txid, 0x4001, "timeout reports the final attempt's txid");
    }

    #[test]
    fn wrong_source_response_is_flagged_not_accepted() {
        let mut t = Script::new(vec![Reaction::WrongSource]);
        let r = ask(&mut t, opts(1, 0));
        // Not an answer: the pipeline must never consume it as one.
        assert!(r.outcome.response().is_none());
        assert!(!r.outcome.is_timeout(), "a wrong-source reply is evidence, not a timeout");
        let from: IpAddr = "198.51.100.99".parse().unwrap();
        assert_eq!(r.outcome.wrong_source(), Some(from));
        assert_eq!(r.wrong_source, Some(from));
    }

    #[test]
    fn wrong_source_burns_the_attempt_and_later_answer_still_wins() {
        let mut t = Script::new(vec![Reaction::WrongSource, Reaction::Answer]);
        let r = ask(&mut t, opts(2, 0));
        assert_eq!(r.attempts_used, 2);
        let reply = r.outcome.response().expect("second attempt answered");
        assert_eq!(reply.header().id, 0x4001);
        // The mismatch evidence survives alongside the accepted answer.
        assert_eq!(r.wrong_source, Some("198.51.100.99".parse().unwrap()));
    }

    #[test]
    fn exhausted_attempts_prefer_wrong_source_over_timeout() {
        let mut t = Script::new(vec![Reaction::Timeout, Reaction::WrongSource]);
        let r = ask(&mut t, opts(2, 0));
        assert_eq!(r.attempts_used, 2);
        assert!(matches!(r.outcome, QueryOutcome::WrongSource { .. }));
    }

    #[test]
    fn traced_wrong_source_emits_its_own_event() {
        use crate::trace::{TraceEvent, TraceRecorder};
        let mut t = Script::new(vec![Reaction::WrongSource]);
        let server: IpAddr = "192.0.2.1".parse().unwrap();
        let q = Question::new("example.com".parse().unwrap(), dns_wire::RType::A);
        let mut txids = TxidSequence::new(0x4000);
        let mut rec = TraceRecorder::default();
        let r = query_with_retry_traced(
            &mut t,
            server,
            &q,
            &mut txids,
            opts(1, 0),
            &mut rec,
            QueryCtx { seq: 3, step: Step::Location },
        );
        assert!(matches!(r.outcome, QueryOutcome::WrongSource { .. }));
        match &rec.events[1] {
            TraceEvent::ResponseWrongSource { seq, txid, from, .. } => {
                assert_eq!(*seq, 3);
                assert_eq!(*txid, 0x4000);
                assert_eq!(*from, "198.51.100.99".parse::<IpAddr>().unwrap());
            }
            other => panic!("expected wrong-source event, got {other:?}"),
        }
    }

    #[test]
    fn txid_sequence_wraps() {
        let mut s = TxidSequence::new(u16::MAX);
        assert_eq!(s.next(), u16::MAX);
        assert_eq!(s.next(), 0);
    }
}
