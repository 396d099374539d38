//! The three-step interception locator (paper §3, Figure 2).
//!
//! 1. **Location queries** to each public resolver (both service addresses,
//!    v4 and v6): a non-standard response means the query never reached the
//!    real resolver — interception.
//! 2. **`version.bind` comparison**: a CHAOS `version.bind` query to the
//!    CPE's own public IP cannot legally travel further; if its answer is
//!    string-identical to the answers "from" the intercepted public
//!    resolvers, the CPE's DNS forwarder answered all of them — the CPE is
//!    the interceptor.
//! 3. **Bogon queries**: a DNS query addressed to unroutable space cannot
//!    leave the AS; an answer proves an in-AS (ISP) interceptor.
//!
//! Plus the §4.1.2 transparency test: an `A` query for a whoami-style name
//! reveals whether intercepted queries still resolve correctly.

use crate::report::{
    BogonEvidence, BogonOutcome, CpeEvidence, EvidenceRef, InterceptionMatrix,
    InterceptorLocation, LocationTestResult, PerResolver, ProbeReport, Provenance,
    StepProvenance, Transparency, VersionBindAnswer,
};
use crate::resolvers::{shared_default_resolvers, PublicResolver};
use crate::trace::{NullSink, Step, TraceEvent, TraceSink};
use crate::transport::{
    query_with_retry_traced, QueryCtx, QueryOptions, QueryOutcome, QueryTransport, TxidSequence,
};
use dns_wire::debug_queries;
use dns_wire::{MessageView, Name, Question, RType, Rcode};
use std::borrow::Cow;
use std::net::IpAddr;
use std::sync::Arc;

/// Configuration for one locator run.
#[derive(Debug, Clone)]
pub struct LocatorConfig {
    /// The public resolvers to study (defaults to the paper's four).
    ///
    /// Shared rather than owned: campaign runners build one config per
    /// probe, and an `Arc` keeps those thousands of configs pointing at a
    /// single resolver table instead of deep-copying egress prefixes.
    pub resolvers: Arc<[PublicResolver]>,
    /// The CPE's public IPv4 address, if known. RIPE Atlas probes know
    /// their public address; without it step 2 cannot run.
    pub cpe_public_v4: Option<IpAddr>,
    /// The CPE's public IPv6 address, if known.
    pub cpe_public_v6: Option<IpAddr>,
    /// IPv4 bogon address for step 3.
    pub bogon_v4: IpAddr,
    /// IPv6 bogon address for step 3.
    pub bogon_v6: IpAddr,
    /// A generic name under the experimenters' control, queried toward the
    /// bogon addresses.
    pub probe_domain: Name,
    /// The whoami-style name for the transparency test.
    pub whoami_domain: Name,
    /// Per-query timeout.
    pub query_options: QueryOptions,
    /// Whether to issue IPv6 location queries at all (a probe without v6
    /// connectivity sets this false, like the ~60% of Atlas probes that
    /// only answered v4 experiments in Table 4).
    pub test_ipv6: bool,
    /// First transaction ID; subsequent queries increment it, keeping runs
    /// deterministic.
    pub initial_txid: u16,
}

impl Default for LocatorConfig {
    fn default() -> Self {
        LocatorConfig {
            resolvers: shared_default_resolvers(),
            cpe_public_v4: None,
            cpe_public_v6: None,
            bogon_v4: IpAddr::V4(std::net::Ipv4Addr::new(198, 51, 100, 53)),
            bogon_v6: IpAddr::V6("100::53".parse().expect("static address")),
            probe_domain: default_probe_domain(),
            whoami_domain: debug_queries::whoami_akamai(),
            query_options: QueryOptions::default(),
            test_ipv6: true,
            initial_txid: 0x1000,
        }
    }
}

/// The experimenters' probe domain, interned: campaign runners build one
/// `LocatorConfig` per probe, and a parse per config is the kind of
/// allocation the hot path no longer makes.
fn default_probe_domain() -> Name {
    static NAME: std::sync::OnceLock<Name> = std::sync::OnceLock::new();
    NAME.get_or_init(|| "probe.dns-hijack-study.example".parse().expect("static name")).clone()
}

/// The paper's locator. Owns nothing but configuration and a transaction-ID
/// sequence; all I/O goes through the [`QueryTransport`] passed to each call.
#[derive(Debug, Clone)]
pub struct HijackLocator {
    config: LocatorConfig,
    txids: TxidSequence,
    queries_sent: u32,
    wire_attempts: u32,
    retried_queries: u32,
    source_mismatch_refs: Vec<EvidenceRef>,
}

impl HijackLocator {
    /// Creates a locator from configuration.
    pub fn new(config: LocatorConfig) -> HijackLocator {
        let txids = TxidSequence::new(config.initial_txid);
        HijackLocator {
            config,
            txids,
            queries_sent: 0,
            wire_attempts: 0,
            retried_queries: 0,
            source_mismatch_refs: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LocatorConfig {
        &self.config
    }

    /// Runs the full three-step technique plus the transparency test.
    ///
    /// Equivalent to [`run_traced`](HijackLocator::run_traced) with the
    /// disabled sink; the report (provenance included) is identical.
    pub fn run<T: QueryTransport>(&mut self, transport: &mut T) -> ProbeReport {
        self.run_traced(transport, &mut NullSink)
    }

    /// Runs the full technique, delivering structured events to `sink`.
    ///
    /// Provenance on the returned report is collected unconditionally — it
    /// is part of the result, not of the trace — so disabling tracing
    /// changes no verdict and no report field.
    pub fn run_traced<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
    ) -> ProbeReport {
        self.queries_sent = 0;
        self.wire_attempts = 0;
        self.retried_queries = 0;
        self.source_mismatch_refs.clear();
        let (matrix, p1) = self.step1_traced(transport, sink);
        emit_verdict(transport, sink, Step::Location, &p1);
        let intercepted = matrix.any_intercepted();
        let mut provenance = Provenance { step1: Some(p1), ..Provenance::default() };

        let mut cpe = None;
        let mut bogon = None;
        let mut location = None;
        let mut transparency = None;

        if intercepted {
            let (evidence, p2) = self.step2_traced(transport, sink, &matrix);
            let cpe_is_interceptor =
                evidence.as_ref().map(|e| e.cpe_is_interceptor).unwrap_or(false);
            cpe = evidence;
            if let Some(p2) = p2 {
                emit_verdict(transport, sink, Step::CpeCheck, &p2);
                provenance.step2 = Some(p2);
            }
            if cpe_is_interceptor {
                location = Some(InterceptorLocation::Cpe);
            } else {
                let (ev, p3) = self.step3_traced(transport, sink);
                let answered = matches!(ev.v4, BogonOutcome::Answered { .. })
                    || matches!(ev.v6, BogonOutcome::Answered { .. });
                bogon = Some(ev);
                emit_verdict(transport, sink, Step::Bogon, &p3);
                provenance.step3 = Some(p3);
                location = Some(if answered {
                    InterceptorLocation::WithinIsp
                } else {
                    InterceptorLocation::BeyondOrUnknown
                });
            }
            let (t, pt) = self.transparency_traced(transport, sink, &matrix);
            transparency = t;
            if let Some(pt) = pt {
                emit_verdict(transport, sink, Step::Transparency, &pt);
                provenance.transparency = Some(pt);
            }
        }

        // The source-consistency audit always decides: it sums what every
        // step already observed (no extra queries), and "consistent" is as
        // much a verdict as "mismatched" — the transparent-forwarder
        // taxonomy needs the negative result too.
        let mismatches = std::mem::take(&mut self.source_mismatch_refs);
        let p_src = StepProvenance {
            verdict: if mismatches.is_empty() {
                "all responses source-consistent".into()
            } else {
                format!("{} response(s) from unexpected source", mismatches.len())
            },
            cited: mismatches,
        };
        emit_verdict(transport, sink, Step::SourceCheck, &p_src);
        provenance.source_check = Some(p_src);

        if sink.enabled() {
            sink.record(TraceEvent::RunFinished {
                intercepted,
                location,
                queries_sent: self.queries_sent,
                wire_attempts: self.wire_attempts,
                at_us: transport.now_us(),
            });
        }

        ProbeReport {
            matrix,
            intercepted,
            cpe,
            bogon,
            location,
            transparency,
            queries_sent: self.queries_sent,
            wire_attempts: self.wire_attempts,
            retried_queries: self.retried_queries,
            provenance,
        }
    }

    /// Step 1 (§3.1): location queries to every resolver, both service
    /// addresses, both families.
    fn step1_traced<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
    ) -> (InterceptionMatrix, StepProvenance) {
        let mut matrix = InterceptionMatrix::default();
        let families = if self.config.test_ipv6 { 2 } else { 1 };
        // Every query's evidence, in issue order: at most two queries per
        // resolver and family. `deciding` keeps only the non-standard
        // responses that flipped cells to intercepted.
        let resolvers = self.config.resolvers.clone();
        let mut all_refs = Vec::with_capacity(resolvers.len() * families * 2);
        let mut deciding = Vec::new();
        for resolver in resolvers.iter() {
            for (fi, addrs) in [&resolver.v4, &resolver.v6].into_iter().take(families).enumerate() {
                let result = self.location_test(transport, sink, resolver, addrs, &mut all_refs);
                if result.is_intercepted() {
                    // The early-return rule makes the last query the
                    // non-standard one.
                    deciding.extend(all_refs.last().cloned());
                }
                let side = if fi == 0 { &mut matrix.v4 } else { &mut matrix.v6 };
                *side.get_mut(resolver.key) = result;
            }
        }
        let intercepted = matrix.any_intercepted();
        let provenance = StepProvenance {
            verdict: if intercepted { "intercepted" } else { "not intercepted" }.into(),
            cited: if intercepted { deciding } else { all_refs },
        };
        (matrix, provenance)
    }

    /// Queries `addrs` in turn, appending each query's evidence to `refs`,
    /// and stops at the first non-standard answer.
    fn location_test<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
        resolver: &PublicResolver,
        addrs: &[IpAddr; 2],
        refs: &mut Vec<EvidenceRef>,
    ) -> LocationTestResult {
        let mut saw_response = false;
        for &addr in addrs {
            let question = resolver.location_query();
            let sent = self.send(transport, sink, Step::Location, addr, question);
            let outcome = sent.outcome;
            refs.push(sent.evidence);
            match outcome {
                QueryOutcome::Response(reply) => {
                    saw_response = true;
                    let view = reply.view();
                    if !resolver.is_standard_location_response(&view) {
                        return LocationTestResult::NonStandard {
                            observed: describe_response(&view),
                        };
                    }
                }
                // Wrong-source replies are never accepted as answers; like
                // timeouts they read conservatively as non-response (§3.1).
                QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => {}
            }
        }
        if saw_response {
            LocationTestResult::Standard
        } else {
            LocationTestResult::Timeout
        }
    }

    /// Step 2 (§3.2): `version.bind` to the CPE's public IP and to each
    /// public resolver; identical strings identify the CPE as interceptor.
    ///
    /// Returns `None` when the CPE's public address is unknown or the
    /// interception was seen on a family for which no CPE address exists.
    fn step2_traced<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
        matrix: &InterceptionMatrix,
    ) -> (Option<CpeEvidence>, Option<StepProvenance>) {
        // Follow the paper: v4 is the primary lens. Fall back to the v6
        // lens when v4 cannot be used — either interception was exclusively
        // observed on v6, or the probe never learned its public v4 address
        // but does know its v6 one and saw v6 interception too.
        let intercepted_v4 = matrix.intercepted_v4();
        let intercepted_v6 = matrix.intercepted_v6();
        let (cpe_addr, intercepted, use_v4) =
            if !intercepted_v4.is_empty() && self.config.cpe_public_v4.is_some() {
                match self.config.cpe_public_v4 {
                    Some(addr) => (addr, intercepted_v4, true),
                    None => return (None, None),
                }
            } else if !intercepted_v6.is_empty() && self.config.cpe_public_v6.is_some() {
                match self.config.cpe_public_v6 {
                    Some(addr) => (addr, intercepted_v6, false),
                    None => return (None, None),
                }
            } else {
                return (None, None);
            };

        let (cpe_response, cpe_ref) = self.version_bind_to(transport, sink, cpe_addr);

        let mut resolver_responses: PerResolver<Option<VersionBindAnswer>> =
            PerResolver::default();
        let mut resolver_refs: PerResolver<Option<EvidenceRef>> = PerResolver::default();
        let resolvers = self.config.resolvers.clone();
        for resolver in resolvers.iter() {
            let addr = if use_v4 { resolver.v4[0] } else { resolver.v6[0] };
            let (answer, evidence) = self.version_bind_to(transport, sink, addr);
            *resolver_responses.get_mut(resolver.key) = Some(answer);
            *resolver_refs.get_mut(resolver.key) = Some(evidence);
        }

        // Verdict: the CPE answered with a string, and every *intercepted*
        // resolver produced the identical string.
        let cpe_is_interceptor = match cpe_response.text() {
            Some(cpe_text) => intercepted.iter().all(|&key| {
                resolver_responses
                    .get(key)
                    .as_ref()
                    .and_then(|a| a.text())
                    .map(|t| t == cpe_text)
                    .unwrap_or(false)
            }),
            None => false,
        };

        // Cite the CPE's own answer plus the answers attributed to the
        // *intercepted* resolvers — exactly the strings the verdict compared.
        let mut cited = Vec::with_capacity(1 + intercepted.len());
        cited.push(cpe_ref);
        for &key in &intercepted {
            cited.extend(resolver_refs.get_mut(key).take());
        }
        let provenance = StepProvenance {
            verdict: if cpe_is_interceptor { "CPE is the interceptor" } else { "CPE ruled out" }
                .into(),
            cited,
        };
        (
            Some(CpeEvidence { cpe_response, resolver_responses, cpe_is_interceptor }),
            Some(provenance),
        )
    }

    /// Step 3 (§3.3): bogon queries in both families.
    fn step3_traced<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
    ) -> (BogonEvidence, StepProvenance) {
        // Every bogon query's evidence, in issue order, with whether it
        // was answered.
        let mut refs = Vec::with_capacity(2);
        let mut answered_mask = [false; 2];
        let q4 = Question::new(self.config.probe_domain.clone(), RType::A);
        let sent = self.send(transport, sink, Step::Bogon, self.config.bogon_v4, q4);
        let v4 = bogon_outcome(sent.outcome);
        answered_mask[0] = matches!(v4, BogonOutcome::Answered { .. });
        refs.push(sent.evidence);
        let v6 = if self.config.test_ipv6 {
            let q6 = Question::new(self.config.probe_domain.clone(), RType::Aaaa);
            let sent = self.send(transport, sink, Step::Bogon, self.config.bogon_v6, q6);
            let outcome = bogon_outcome(sent.outcome);
            answered_mask[1] = matches!(outcome, BogonOutcome::Answered { .. });
            refs.push(sent.evidence);
            outcome
        } else {
            BogonOutcome::NotTested
        };
        let answered = answered_mask.contains(&true);
        if answered {
            // An answer is positive proof — cite it alone.
            let mut answered = answered_mask.into_iter();
            refs.retain(|_| answered.next().unwrap_or(false));
        }
        let provenance = StepProvenance {
            verdict: if answered {
                "answered: interceptor within ISP"
            } else {
                "silent: beyond or unknown"
            }
            .into(),
            // Silence cites every (unanswered) bogon query: the verdict
            // rests on all of them staying quiet.
            cited: refs,
        };
        (BogonEvidence { v4, v6 }, provenance)
    }

    /// Transparency test (§4.1.2): `A` query for the whoami name to every
    /// intercepted resolver.
    fn transparency_traced<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
        matrix: &InterceptionMatrix,
    ) -> (Option<Transparency>, Option<StepProvenance>) {
        let mut transparent = 0u32;
        let mut modified = 0u32;
        let mut cited = Vec::new();
        let resolvers = self.config.resolvers.clone();
        for resolver in resolvers.iter() {
            let intercepted_v4 = matrix.v4.get(resolver.key).is_intercepted();
            let intercepted_v6 = matrix.v6.get(resolver.key).is_intercepted();
            if !intercepted_v4 && !intercepted_v6 {
                continue;
            }
            let addr = if intercepted_v4 { resolver.v4[0] } else { resolver.v6[0] };
            let qtype = if intercepted_v4 { RType::A } else { RType::Aaaa };
            let q = Question::new(self.config.whoami_domain.clone(), qtype);
            let sent = self.send(transport, sink, Step::Transparency, addr, q);
            match sent.outcome {
                QueryOutcome::Response(reply) => {
                    cited.push(sent.evidence);
                    if reply.header().rcode.is_error() {
                        modified += 1;
                    } else if reply
                        .view()
                        .answers()
                        .any(|r| matches!(r.rtype, RType::A | RType::Aaaa))
                    {
                        transparent += 1;
                    } else {
                        modified += 1;
                    }
                }
                QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => {}
            }
        }
        let verdict = match (transparent, modified) {
            (0, 0) => return (None, None),
            (_, 0) => Transparency::Transparent,
            (0, _) => Transparency::StatusModified,
            _ => Transparency::Both,
        };
        (Some(verdict), Some(StepProvenance { verdict: verdict.to_string(), cited }))
    }

    fn version_bind_to<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
        addr: IpAddr,
    ) -> (VersionBindAnswer, EvidenceRef) {
        let q = Question::chaos_txt(debug_queries::version_bind());
        let sent = self.send(transport, sink, Step::CpeCheck, addr, q);
        let answer = match sent.outcome {
            QueryOutcome::Response(reply) => {
                let rcode = reply.header().rcode;
                if rcode != Rcode::NoError {
                    VersionBindAnswer::Error(rcode.to_string())
                } else {
                    match reply.view().answers().find_map(|r| r.txt_str()) {
                        Some(text) => VersionBindAnswer::Text(text.into_owned()),
                        None => VersionBindAnswer::Error("EMPTY".into()),
                    }
                }
            }
            QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => VersionBindAnswer::Timeout,
        };
        (answer, sent.evidence)
    }

    fn send<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
        step: Step,
        server: IpAddr,
        question: Question,
    ) -> Sent {
        let seq = self.queries_sent;
        self.queries_sent += 1;
        transport.note_step(step);
        if sink.enabled() {
            sink.record(TraceEvent::QueryIssued {
                seq,
                step,
                server,
                qname: Cow::Borrowed(&question.qname),
                qtype: question.qtype.to_u16(),
                qclass: question.qclass.to_u16(),
                at_us: transport.now_us(),
            });
        }
        let retried = query_with_retry_traced(
            transport,
            server,
            &question,
            &mut self.txids,
            self.config.query_options,
            sink,
            QueryCtx { seq, step },
        );
        self.wire_attempts += retried.attempts_used;
        if retried.attempts_used > 1 {
            self.retried_queries += 1;
        }
        let observed = match (&retried.outcome, retried.observed) {
            (_, Some(observed)) => observed,
            (QueryOutcome::Response(reply), None) => describe_response(&reply.view()),
            (QueryOutcome::Timeout, None) => "TIMEOUT".into(),
            (QueryOutcome::WrongSource { from, .. }, None) => format!("wrong-source({from})"),
        };
        // Feed the source-consistency audit: any attempt of this query that
        // drew a right-txid reply from the wrong address is evidence, even
        // when a later attempt was properly answered.
        if let Some(from) = retried.wrong_source {
            self.source_mismatch_refs.push(EvidenceRef {
                seq,
                server,
                txid: retried.txid,
                attempts: retried.attempts_used,
                observed: format!("wrong-source({from})"),
            });
        }
        Sent {
            outcome: retried.outcome,
            evidence: EvidenceRef {
                seq,
                server,
                txid: retried.txid,
                attempts: retried.attempts_used,
                observed,
            },
        }
    }
}

/// Outcome of one locator query plus the evidence reference describing it.
struct Sent {
    outcome: QueryOutcome,
    evidence: EvidenceRef,
}

/// What one bogon query's outcome shows: an answer, or silence.
fn bogon_outcome(outcome: QueryOutcome) -> BogonOutcome {
    match outcome {
        QueryOutcome::Response(reply) => {
            BogonOutcome::Answered { observed: describe_response(&reply.view()) }
        }
        QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => BogonOutcome::Silent,
    }
}

/// Emits a `StepVerdict` event mirroring `provenance` when `sink` is live.
fn emit_verdict<T: QueryTransport, S: TraceSink>(
    transport: &T,
    sink: &mut S,
    step: Step,
    provenance: &StepProvenance,
) {
    if sink.enabled() {
        sink.record(TraceEvent::StepVerdict {
            step,
            verdict: Cow::Borrowed(&provenance.verdict),
            cited: Cow::Borrowed(&provenance.cited),
            at_us: transport.now_us(),
        });
    }
}

/// Summarizes a response the way the paper's tables do: the TXT/A payload
/// when present, otherwise the rcode. Reads the message in place; the
/// returned string is the one allocation.
pub fn describe_response(view: &MessageView<'_>) -> String {
    let rcode = view.header().rcode;
    if rcode != Rcode::NoError {
        return rcode.to_string();
    }
    for r in view.answers() {
        if let Some(t) = r.txt_str() {
            return t.into_owned();
        }
        if let Some(ip) = r.a_addr() {
            return ip.to_string();
        }
        if let Some(ip) = r.aaaa_addr() {
            return ip.to_string();
        }
    }
    "NOERROR(empty)".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockTransport;
    use crate::resolvers::ResolverKey;

    fn config_with_cpe() -> LocatorConfig {
        LocatorConfig {
            cpe_public_v4: Some("73.22.1.5".parse().unwrap()),
            ..LocatorConfig::default()
        }
    }

    /// Standard answers for every resolver → no interception.
    fn clean_transport() -> MockTransport {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t
    }

    #[test]
    fn clean_path_reports_no_interception() {
        let mut locator = HijackLocator::new(config_with_cpe());
        let mut transport = clean_transport();
        let report = locator.run(&mut transport);
        assert!(!report.intercepted);
        assert!(report.cpe.is_none());
        assert!(report.bogon.is_none());
        assert_eq!(report.location, None);
        // 4 resolvers × 2 addresses × 2 families = 16 queries, nothing more.
        assert_eq!(report.queries_sent, 16);
        assert_eq!(report.wire_attempts, 16);
        assert_eq!(report.retried_queries, 0);
    }

    #[test]
    fn locator_attaches_sequential_txids_to_the_wire() {
        let mut locator = HijackLocator::new(config_with_cpe());
        let mut transport = clean_transport();
        let report = locator.run(&mut transport);
        let expected: Vec<u16> = (0..report.queries_sent as u16)
            .map(|i| 0x1000u16.wrapping_add(i))
            .collect();
        assert_eq!(transport.txid_log, expected);
    }

    #[test]
    fn wrong_txid_responses_read_as_timeouts() {
        // Every "response" carries a corrupted transaction ID; the pipeline
        // must drop them all, leaving the conservative all-timeout verdict.
        let mut t = MockTransport::new();
        t.push_rule(
            None,
            None,
            None,
            crate::mock::Respond::WrongTxid(Box::new(crate::mock::Respond::Txt("IAD".into()))),
        );
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        assert!(!report.intercepted);
        assert_eq!(*report.matrix.v4.get(ResolverKey::Google), LocationTestResult::Timeout);
    }

    #[test]
    fn retries_recover_a_flaky_resolver() {
        let cloudflare_v4: Vec<std::net::IpAddr> = crate::resolvers::default_resolvers()
            .into_iter()
            .find(|r| r.key == ResolverKey::Cloudflare)
            .expect("cloudflare is a default resolver")
            .v4
            .to_vec();
        let make = || {
            let mut t = clean_transport();
            // Cloudflare's v4 addresses drop the first two queries; the
            // standard rules answer afterwards — but a flaky front rule
            // would shadow them, so gate timeouts only.
            t.push_flaky_rule(
                Some(cloudflare_v4.clone()),
                None,
                None,
                2,
                crate::mock::Respond::Txt("IAD".into()),
            );
            t
        };

        // Single-shot: both Cloudflare v4 addresses time out → Timeout cell.
        let mut locator = HijackLocator::new(config_with_cpe());
        let single = locator.run(&mut make());
        assert_eq!(
            *single.matrix.v4.get(ResolverKey::Cloudflare),
            LocationTestResult::Timeout
        );
        assert_eq!(single.wire_attempts, single.queries_sent);

        // Three attempts: the first address recovers on its third try.
        let mut config = config_with_cpe();
        config.query_options.attempts = 3;
        let mut locator = HijackLocator::new(config);
        let retried = locator.run(&mut make());
        assert_eq!(
            *retried.matrix.v4.get(ResolverKey::Cloudflare),
            LocationTestResult::Standard
        );
        assert!(!retried.intercepted, "recovered answers stay non-interception");
        assert_eq!(retried.queries_sent, 16, "logical query count is unchanged");
        assert_eq!(retried.wire_attempts, 18, "two extra attempts on the flaky address");
        assert_eq!(retried.retried_queries, 1);
    }

    #[test]
    fn step2_falls_back_to_v6_lens_when_v4_address_unknown() {
        // Interception visible on both families, but the probe only knows
        // its public v6 address: step 2 must still run, via the v6 lens.
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("dnsmasq-2.85");
        t.intercept_all_v6_with_forwarder("dnsmasq-2.85");
        let cpe_v6: std::net::IpAddr = "2001:db8:73::5".parse().unwrap();
        t.cpe_version_bind(cpe_v6, "dnsmasq-2.85");
        let config = LocatorConfig { cpe_public_v6: Some(cpe_v6), ..LocatorConfig::default() };
        let mut locator = HijackLocator::new(config);
        let report = locator.run(&mut t);
        assert!(report.intercepted);
        let cpe = report.cpe.expect("step 2 ran via the v6 lens");
        assert!(cpe.cpe_is_interceptor);
        assert_eq!(report.location, Some(InterceptorLocation::Cpe));
    }

    #[test]
    fn cpe_interceptor_detected_via_version_bind_match() {
        // Every v4 location query is answered by "dnsmasq-2.85"-land; the
        // CPE public IP answers version.bind with the same string.
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("dnsmasq-2.85");
        t.cpe_version_bind("73.22.1.5".parse().unwrap(), "dnsmasq-2.85");
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        assert!(report.intercepted);
        assert_eq!(report.location, Some(InterceptorLocation::Cpe));
        let cpe = report.cpe.unwrap();
        assert!(cpe.cpe_is_interceptor);
        assert_eq!(cpe.cpe_response.text(), Some("dnsmasq-2.85"));
    }

    #[test]
    fn differing_version_bind_rules_out_cpe() {
        // Interceptor answers "unbound 1.9.0" but the CPE (port 53 open)
        // answers "dnsmasq-2.80": not the interceptor. Bogon query answered
        // → within ISP.
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("unbound 1.9.0");
        t.cpe_version_bind("73.22.1.5".parse().unwrap(), "dnsmasq-2.80");
        t.answer_bogon_v4("NOTIMP");
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        assert!(report.intercepted);
        let cpe = report.cpe.unwrap();
        assert!(!cpe.cpe_is_interceptor);
        assert_eq!(report.location, Some(InterceptorLocation::WithinIsp));
    }

    #[test]
    fn silent_bogon_means_beyond_or_unknown() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("PowerDNS Recursor 4.1");
        // CPE does not answer version.bind at all.
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        assert!(report.intercepted);
        assert_eq!(report.location, Some(InterceptorLocation::BeyondOrUnknown));
        let bogon = report.bogon.unwrap();
        assert_eq!(bogon.v4, BogonOutcome::Silent);
    }

    #[test]
    fn notimp_mix_rules_out_cpe_like_probe_11992() {
        // Table 3, probe 11992: resolvers answer NOTIMP, CPE answers
        // NXDOMAIN — no identical strings, not the CPE.
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_errors("NOTIMP");
        t.cpe_version_bind_error("73.22.1.5".parse().unwrap(), "NXDOMAIN");
        t.answer_bogon_v4("NOTIMP");
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        assert!(report.intercepted);
        assert!(!report.cpe.unwrap().cpe_is_interceptor);
        assert_eq!(report.location, Some(InterceptorLocation::WithinIsp));
    }

    #[test]
    fn timeouts_are_conservatively_not_interception() {
        let mut t = MockTransport::new(); // answers nothing: all timeouts
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        assert!(!report.intercepted);
        assert_eq!(*report.matrix.v4.get(ResolverKey::Google), LocationTestResult::Timeout);
    }

    #[test]
    fn no_cpe_address_skips_step_2() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("dnsmasq-2.85");
        t.answer_bogon_v4("dnsmasq-2.85");
        let mut locator = HijackLocator::new(LocatorConfig::default()); // no CPE addr
        let report = locator.run(&mut t);
        assert!(report.intercepted);
        assert!(report.cpe.is_none());
        // Without step 2, an answered bogon still localizes to the ISP.
        assert_eq!(report.location, Some(InterceptorLocation::WithinIsp));
    }

    #[test]
    fn transparency_classification() {
        // Interception with working resolution → Transparent.
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("dnsmasq-2.85");
        t.cpe_version_bind("73.22.1.5".parse().unwrap(), "dnsmasq-2.85");
        t.answer_whoami_with("10.100.0.53");
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        assert_eq!(report.transparency, Some(Transparency::Transparent));
    }

    #[test]
    fn clean_run_cites_all_sixteen_location_answers() {
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut clean_transport());
        let p1 = report.provenance.step1.expect("step 1 always decides");
        assert_eq!(p1.verdict, "not intercepted");
        assert_eq!(p1.cited.len(), 16, "a clean verdict rests on every answer");
        assert!(report.provenance.step2.is_none());
        assert!(report.provenance.step3.is_none());
        assert!(report.provenance.transparency.is_none());
        let src = report.provenance.source_check.expect("source check always decides");
        assert_eq!(src.verdict, "all responses source-consistent");
        assert!(src.cited.is_empty());
        // Citations are in issue order and match the txid sequence.
        for (i, e) in p1.cited.iter().enumerate() {
            assert_eq!(e.seq, i as u32);
            assert_eq!(e.txid, 0x1000 + i as u16);
            assert_eq!(e.attempts, 1);
        }
    }

    #[test]
    fn cpe_verdict_provenance_cites_the_version_bind_matches() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("dnsmasq-2.85");
        t.cpe_version_bind("73.22.1.5".parse().unwrap(), "dnsmasq-2.85");
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        let p1 = report.provenance.step1.unwrap();
        assert_eq!(p1.verdict, "intercepted");
        assert_eq!(p1.cited.len(), 4, "one deciding non-standard answer per v4 resolver");
        // Each citation carries exactly the observation the matrix recorded.
        let observed: Vec<&str> = p1.cited.iter().map(|e| e.observed.as_str()).collect();
        for (_, cell) in report.matrix.v4.iter() {
            match cell {
                LocationTestResult::NonStandard { observed: o } => {
                    assert!(observed.contains(&o.as_str()), "matrix evidence {o} is cited");
                }
                other => panic!("every v4 cell is intercepted, got {other:?}"),
            }
        }
        let p2 = report.provenance.step2.unwrap();
        assert_eq!(p2.verdict, "CPE is the interceptor");
        // CPE's own answer first, then the four intercepted resolvers'.
        assert_eq!(p2.cited.len(), 5);
        assert_eq!(p2.cited[0].server, "73.22.1.5".parse::<IpAddr>().unwrap());
        assert!(p2.cited.iter().all(|e| e.observed == "dnsmasq-2.85"));
        assert!(report.provenance.step3.is_none(), "step 3 is skipped when the CPE is blamed");
    }

    #[test]
    fn bogon_provenance_distinguishes_answers_from_silence() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("unbound 1.9.0");
        t.cpe_version_bind("73.22.1.5".parse().unwrap(), "dnsmasq-2.80");
        t.answer_bogon_v4("NOTIMP");
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        let p3 = report.provenance.step3.unwrap();
        assert_eq!(p3.verdict, "answered: interceptor within ISP");
        assert_eq!(p3.cited.len(), 1, "the answer alone proves the verdict");
        assert_eq!(p3.cited[0].observed, "NOTIMP");

        // Silence instead: every unanswered bogon query is cited.
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("PowerDNS Recursor 4.1");
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        let p3 = report.provenance.step3.unwrap();
        assert_eq!(p3.verdict, "silent: beyond or unknown");
        assert_eq!(p3.cited.len(), 2);
        assert!(p3.cited.iter().all(|e| e.observed == "TIMEOUT"));
    }

    #[test]
    fn wrong_source_replies_fold_into_the_source_check_verdict() {
        // A transparent forwarder relays every query upstream, and the
        // upstream answers the probe directly: right txid, wrong source
        // address. None of those replies may be accepted as answers, and
        // the source check must cite every one of them.
        let mut t = MockTransport::new();
        let upstream: IpAddr = "9.9.9.9".parse().unwrap();
        t.push_rule(
            None,
            None,
            None,
            crate::mock::Respond::WrongSource(
                upstream,
                Box::new(crate::mock::Respond::Txt("IAD".into())),
            ),
        );
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        assert!(!report.intercepted, "wrong-source replies are never accepted answers");
        assert_eq!(*report.matrix.v4.get(ResolverKey::Google), LocationTestResult::Timeout);
        let src = report.provenance.source_check.expect("source check always decides");
        assert_eq!(src.verdict, "16 response(s) from unexpected source");
        assert_eq!(src.cited.len(), 16, "one citation per location query");
        assert!(src.cited.iter().all(|e| e.observed == "wrong-source(9.9.9.9)"));
    }

    #[test]
    fn tracing_changes_no_verdict_and_mirrors_provenance() {
        use crate::trace::TraceRecorder;
        let make = || {
            let mut t = MockTransport::new();
            t.standard_public_resolvers();
            t.intercept_all_v4_with_forwarder("dnsmasq-2.85");
            t.cpe_version_bind("73.22.1.5".parse().unwrap(), "dnsmasq-2.85");
            t.answer_whoami_with("10.100.0.53");
            t
        };
        let silent = HijackLocator::new(config_with_cpe()).run(&mut make());
        let mut rec = TraceRecorder::default();
        let traced =
            HijackLocator::new(config_with_cpe()).run_traced(&mut make(), &mut rec);
        assert_eq!(silent, traced, "the sink must not perturb the pipeline");
        // One QueryIssued per logical query; verdict events echo provenance.
        let issued = rec
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::QueryIssued { .. }))
            .count();
        assert_eq!(issued as u32, traced.queries_sent);
        let verdicts: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::StepVerdict { step, verdict, cited, .. } => {
                    Some((*step, verdict.clone(), cited.clone()))
                }
                _ => None,
            })
            .collect();
        let p = &traced.provenance;
        assert_eq!(verdicts.len(), 4, "location, cpe-check, transparency, source-check");
        assert_eq!(verdicts[0].0, Step::Location);
        assert_eq!(verdicts[0].2, p.step1.as_ref().unwrap().cited);
        assert_eq!(verdicts[1].0, Step::CpeCheck);
        assert_eq!(verdicts[1].1, p.step2.as_ref().unwrap().verdict);
        assert_eq!(verdicts[2].0, Step::Transparency);
        assert_eq!(verdicts[3].0, Step::SourceCheck);
        assert_eq!(verdicts[3].1, p.source_check.as_ref().unwrap().verdict);
        assert_eq!(verdicts[3].1, "all responses source-consistent");
        assert!(matches!(rec.events.last(), Some(TraceEvent::RunFinished { .. })));
    }

    #[test]
    fn describe_response_prefers_payload() {
        use dns_wire::{Message, RData, Record, Reply};
        let describe = |m: Message| describe_response(&Reply::encode(&m).unwrap().view());
        let q = Message::query(1, Question::chaos_txt("id.server".parse().unwrap()));
        let resp = Message::response_to(&q, Rcode::NoError)
            .with_answer(Record::chaos_txt("id.server".parse().unwrap(), "SFO"));
        assert_eq!(describe(resp), "SFO");
        assert_eq!(describe(Message::response_to(&q, Rcode::NotImp)), "NOTIMP");
        assert_eq!(describe(Message::response_to(&q, Rcode::NoError)), "NOERROR(empty)");
        let name: Name = "example.com".parse().unwrap();
        let a = Message::response_to(&q, Rcode::NoError)
            .with_answer(Record::new(name.clone(), 5, RData::Aaaa("2001:db8::1".parse().unwrap())))
            .with_answer(Record::new(name, 5, RData::A("192.0.2.7".parse().unwrap())));
        assert_eq!(describe(a), "2001:db8::1", "the first address answer wins");
    }
}
