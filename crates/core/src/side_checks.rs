//! Side-channel checks that corroborate interception findings:
//!
//! * **AD-bit downgrade** — the paper notes interception "can interfere
//!   with the correct operation of DNSSEC" (§1). A validating public
//!   resolver sets the AD (authentic data) bit on answers from signed
//!   zones; an interceptor's alternate resolver usually does not. A
//!   missing AD bit on a known-signed name from a known-validating
//!   resolver is corroborating evidence of interception.
//! * **NXDOMAIN wildcarding** — the Kreibich et al. practice (§7 related
//!   work): some alternate resolvers rewrite NXDOMAIN into ad-server A
//!   records. Honest public resolvers never do. An A record for a name
//!   chosen to not exist is both an interception signal and a
//!   monetization fingerprint.
//!
//! Both checks are *corroborating*, not primary: the location queries of
//! step 1 remain the detection workhorse.

use crate::trace::{NullSink, Step, TraceSink};
use crate::transport::{
    query_with_retry_traced, QueryCtx, QueryOptions, QueryOutcome, QueryTransport, TxidSequence,
};
use dns_wire::{Name, Question, RType, Rcode};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// Issues one side-check query through the traced retry pipeline, which
/// emits its `QueryIssued` and per-attempt events. `seq` continues whatever
/// numbering the caller's earlier queries used and is advanced by one.
fn send_check<T: QueryTransport, S: TraceSink>(
    transport: &mut T,
    sink: &mut S,
    server: IpAddr,
    question: &Question,
    txids: &mut TxidSequence,
    opts: QueryOptions,
    seq: &mut u32,
) -> QueryOutcome {
    let this_seq = *seq;
    *seq += 1;
    query_with_retry_traced(
        transport,
        server,
        question,
        txids,
        opts,
        sink,
        QueryCtx { seq: this_seq, step: Step::SideCheck },
    )
    .outcome
}

/// Outcome of the AD-bit downgrade check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdVerdict {
    /// AD set: the answer came from a validating resolver.
    Authenticated,
    /// AD clear on a known-signed name from a known-validating resolver:
    /// someone else answered.
    Downgraded,
    /// No usable answer.
    Inconclusive,
}

/// Queries `signed_name` (a name known to live in a signed zone) at
/// `server` (a resolver known to validate) and inspects the AD bit.
pub fn ad_downgrade_check<T: QueryTransport>(
    transport: &mut T,
    server: IpAddr,
    signed_name: &Name,
    txids: &mut TxidSequence,
    opts: QueryOptions,
) -> AdVerdict {
    ad_downgrade_check_traced(transport, server, signed_name, txids, opts, &mut NullSink, &mut 0)
}

/// [`ad_downgrade_check`] with trace events delivered to `sink`; `seq`
/// continues the caller's query numbering.
pub(crate) fn ad_downgrade_check_traced<T: QueryTransport, S: TraceSink>(
    transport: &mut T,
    server: IpAddr,
    signed_name: &Name,
    txids: &mut TxidSequence,
    opts: QueryOptions,
    sink: &mut S,
    seq: &mut u32,
) -> AdVerdict {
    let q = Question::new(signed_name.clone(), RType::A);
    match send_check(transport, sink, server, &q, txids, opts, seq) {
        QueryOutcome::Response(reply) if reply.header().rcode == Rcode::NoError => {
            if reply.header().ad {
                AdVerdict::Authenticated
            } else {
                AdVerdict::Downgraded
            }
        }
        _ => AdVerdict::Inconclusive,
    }
}

/// Outcome of the NXDOMAIN wildcard check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WildcardVerdict {
    /// NXDOMAIN came back, as it must for a nonexistent name.
    Honest,
    /// The resolver substituted an address — NXDOMAIN wildcarding.
    Wildcarded {
        /// The substituted address (typically an ad server).
        substituted: IpAddr,
    },
    /// No usable answer.
    Inconclusive,
}

/// Queries a name chosen to not exist; anything other than NXDOMAIN is
/// evidence of rewriting.
pub fn nxdomain_wildcard_check<T: QueryTransport>(
    transport: &mut T,
    server: IpAddr,
    nonexistent_name: &Name,
    txids: &mut TxidSequence,
    opts: QueryOptions,
) -> WildcardVerdict {
    nxdomain_wildcard_check_traced(
        transport,
        server,
        nonexistent_name,
        txids,
        opts,
        &mut NullSink,
        &mut 0,
    )
}

/// [`nxdomain_wildcard_check`] with trace events delivered to `sink`;
/// `seq` continues the caller's query numbering.
pub(crate) fn nxdomain_wildcard_check_traced<T: QueryTransport, S: TraceSink>(
    transport: &mut T,
    server: IpAddr,
    nonexistent_name: &Name,
    txids: &mut TxidSequence,
    opts: QueryOptions,
    sink: &mut S,
    seq: &mut u32,
) -> WildcardVerdict {
    let q = Question::new(nonexistent_name.clone(), RType::A);
    match send_check(transport, sink, server, &q, txids, opts, seq) {
        QueryOutcome::Response(reply) => match reply.header().rcode {
            Rcode::NxDomain => WildcardVerdict::Honest,
            Rcode::NoError => {
                let substituted = reply.view().answers().find_map(|r| {
                    r.a_addr().map(IpAddr::V4).or_else(|| r.aaaa_addr().map(IpAddr::V6))
                });
                match substituted {
                    Some(substituted) => WildcardVerdict::Wildcarded { substituted },
                    None => WildcardVerdict::Inconclusive,
                }
            }
            _ => WildcardVerdict::Inconclusive,
        },
        QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => WildcardVerdict::Inconclusive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{MockTransport, Respond};

    fn opts() -> QueryOptions {
        QueryOptions::default()
    }

    fn server() -> IpAddr {
        "8.8.8.8".parse().unwrap()
    }

    fn txids() -> TxidSequence {
        TxidSequence::new(0x3000)
    }

    #[test]
    fn ad_check_classifies_by_bit() {
        // The mock never sets AD, so a NOERROR answer reads as downgraded…
        let mut t = MockTransport::new();
        let name: Name = "example.com".parse().unwrap();
        t.push_rule(None, Some(name.clone()), None, Respond::A("1.2.3.4".parse().unwrap()));
        assert_eq!(
            ad_downgrade_check(&mut t, server(), &name, &mut txids(), opts()),
            AdVerdict::Downgraded
        );
        // …silence is inconclusive…
        let mut t = MockTransport::new();
        assert_eq!(
            ad_downgrade_check(&mut t, server(), &name, &mut txids(), opts()),
            AdVerdict::Inconclusive
        );
        // …and errors are inconclusive too.
        let mut t = MockTransport::new();
        t.push_rule(None, Some(name.clone()), None, Respond::Rcode(Rcode::ServFail));
        assert_eq!(
            ad_downgrade_check(&mut t, server(), &name, &mut txids(), opts()),
            AdVerdict::Inconclusive
        );
    }

    #[test]
    fn wildcard_check_classifies() {
        let name: Name = "nonexistent-canary.example".parse().unwrap();
        let mut t = MockTransport::new();
        t.push_rule(None, Some(name.clone()), None, Respond::Rcode(Rcode::NxDomain));
        assert_eq!(
            nxdomain_wildcard_check(&mut t, server(), &name, &mut txids(), opts()),
            WildcardVerdict::Honest
        );

        let mut t = MockTransport::new();
        t.push_rule(None, Some(name.clone()), None, Respond::A("75.75.0.99".parse().unwrap()));
        assert_eq!(
            nxdomain_wildcard_check(&mut t, server(), &name, &mut txids(), opts()),
            WildcardVerdict::Wildcarded { substituted: "75.75.0.99".parse().unwrap() }
        );

        let mut t = MockTransport::new();
        assert_eq!(
            nxdomain_wildcard_check(&mut t, server(), &name, &mut txids(), opts()),
            WildcardVerdict::Inconclusive
        );
    }

    #[test]
    fn traced_checks_continue_the_callers_numbering() {
        use crate::trace::{TraceEvent, TraceRecorder};
        let name: Name = "example.com".parse().unwrap();
        let mut t = MockTransport::new();
        t.push_rule(None, Some(name.clone()), None, Respond::A("1.2.3.4".parse().unwrap()));
        let mut rec = TraceRecorder::default();
        let mut seq = 21; // pretend the locator already issued 21 queries
        let verdict = ad_downgrade_check_traced(
            &mut t,
            server(),
            &name,
            &mut txids(),
            opts(),
            &mut rec,
            &mut seq,
        );
        assert_eq!(verdict, AdVerdict::Downgraded);
        assert_eq!(seq, 22);
        match &rec.events[0] {
            TraceEvent::QueryIssued { seq, step, .. } => {
                assert_eq!(*seq, 21);
                assert_eq!(*step, Step::SideCheck);
            }
            other => panic!("expected QueryIssued first, got {other:?}"),
        }
        assert!(rec
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::ResponseAccepted { seq: 21, .. })));
    }

    #[test]
    fn retries_rescue_a_flaky_signed_answer() {
        // First two attempts lost, third answers: at attempts=3 the check
        // still reaches a verdict instead of Inconclusive.
        let name: Name = "example.com".parse().unwrap();
        let make = || {
            let mut t = MockTransport::new();
            t.push_flaky_rule(
                None,
                Some(name.clone()),
                None,
                2,
                Respond::A("1.2.3.4".parse().unwrap()),
            );
            t
        };
        let single = QueryOptions { attempts: 1, ..opts() };
        assert_eq!(
            ad_downgrade_check(&mut make(), server(), &name, &mut txids(), single),
            AdVerdict::Inconclusive
        );
        let retried = QueryOptions { attempts: 3, ..opts() };
        assert_eq!(
            ad_downgrade_check(&mut make(), server(), &name, &mut txids(), retried),
            AdVerdict::Downgraded
        );
    }
}
