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
    wrong_source_observation, BogonEvidence, BogonOutcome, CpeEvidence, EvidenceRef,
    InterceptionMatrix, InterceptorLocation, LocationTestResult, Observation, PerResolver,
    ProbeReport, Provenance, SeqSet, StepProvenance, Transparency, Verdict, VersionBindAnswer,
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

/// The paper's locator. Owns nothing but configuration, a transaction-ID
/// sequence and the provenance of the run in progress; all I/O goes through
/// the [`QueryTransport`] passed to each call.
#[derive(Debug, Clone)]
pub struct HijackLocator {
    config: LocatorConfig,
    txids: TxidSequence,
    queries_sent: u32,
    wire_attempts: u32,
    retried_queries: u32,
    /// Every query's evidence and each verdict so far; moved into the
    /// report when the run ends.
    provenance: Provenance,
    /// The queries answered so far: the replies the source check audits.
    answered: SeqSet,
}

impl HijackLocator {
    /// The most resolvers one locator studies. A run asks at most six
    /// queries per resolver plus three: step 1 two addresses in each
    /// family, step 2 one each plus the CPE, the transparency test one
    /// each, step 3 two bogons. So ten resolvers keep every seq a verdict
    /// cites inside a [`SeqSet`](crate::SeqSet): 6 × 10 + 3 = 63 queries.
    /// The paper's four ask at most 27.
    pub const MAX_RESOLVERS: usize = 10;

    /// Creates a locator from configuration.
    ///
    /// # Panics
    /// If `config` lists more than [`MAX_RESOLVERS`](Self::MAX_RESOLVERS)
    /// resolvers.
    pub fn new(config: LocatorConfig) -> HijackLocator {
        assert!(
            config.resolvers.len() <= Self::MAX_RESOLVERS,
            "a locator studies at most {} resolvers, not {}",
            Self::MAX_RESOLVERS,
            config.resolvers.len()
        );
        let txids = TxidSequence::new(config.initial_txid);
        HijackLocator {
            config,
            txids,
            queries_sent: 0,
            wire_attempts: 0,
            retried_queries: 0,
            provenance: Provenance::default(),
            answered: SeqSet::default(),
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
        self.answered = SeqSet::default();
        let resolvers = self.config.resolvers.len();
        let families = if self.config.test_ipv6 { 2 } else { 1 };
        // The run's one evidence list, sized for step 1's location
        // queries: two addresses per resolver and family.
        self.provenance = Provenance {
            evidence: Vec::with_capacity(resolvers * families * 2),
            ..Provenance::default()
        };
        let matrix = self.step1_traced(transport, sink);
        let intercepted = matrix.any_intercepted();

        let mut cpe = None;
        let mut bogon = None;
        let mut location = None;
        let mut transparency = None;

        if intercepted {
            // Grown once, for all the later steps may ask: step 2 one
            // query per resolver plus the CPE, step 3 two bogons, the
            // transparency test one per resolver.
            self.provenance.evidence.reserve_exact(2 * resolvers + 3);
            cpe = self.step2_traced(transport, sink, &matrix);
            if cpe.as_ref().is_some_and(|e| e.cpe_is_interceptor) {
                location = Some(InterceptorLocation::Cpe);
            } else {
                let ev = self.step3_traced(transport, sink);
                let answered = matches!(ev.v4, BogonOutcome::Answered { .. })
                    || matches!(ev.v6, BogonOutcome::Answered { .. });
                bogon = Some(ev);
                location = Some(if answered {
                    InterceptorLocation::WithinIsp
                } else {
                    InterceptorLocation::BeyondOrUnknown
                });
            }
            transparency = self.transparency_traced(transport, sink, &matrix);
        }

        // The source-consistency audit always decides: it sums what every
        // step already observed (no extra queries), and "consistent" is as
        // much a verdict as "mismatched" — the transparent-forwarder
        // taxonomy needs the negative result too. A consistent verdict
        // cites every reply it audited: each answered query.
        let mismatched: SeqSet = self.provenance.wrong_source.iter().map(|&(seq, _)| seq).collect();
        let decided = if mismatched.is_empty() {
            StepProvenance { verdict: Verdict::SourceConsistent, cited: self.answered }
        } else {
            let count = mismatched.len() as u32;
            StepProvenance { verdict: Verdict::SourceMismatch { count }, cited: mismatched }
        };
        self.decide(transport, sink, decided);

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
            provenance: std::mem::take(&mut self.provenance),
        }
    }

    /// Step 1 (§3.1): location queries to every resolver, both service
    /// addresses, both families.
    fn step1_traced<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
    ) -> InterceptionMatrix {
        let mut matrix = InterceptionMatrix::default();
        let families = if self.config.test_ipv6 { 2 } else { 1 };
        // Every location query, and the non-standard answers that flipped
        // cells to intercepted.
        let mut asked = SeqSet::default();
        let mut deciding = SeqSet::default();
        let resolvers = self.config.resolvers.clone();
        for resolver in resolvers.iter() {
            for (fi, addrs) in [&resolver.v4, &resolver.v6].into_iter().take(families).enumerate() {
                let result = self.location_test(transport, sink, resolver, addrs, &mut asked);
                if result.is_intercepted() {
                    // The early-return rule makes the last query the
                    // non-standard one.
                    deciding.insert(self.queries_sent - 1);
                }
                let side = if fi == 0 { &mut matrix.v4 } else { &mut matrix.v6 };
                *side.get_mut(resolver.key) = result;
            }
        }
        let decided = if matrix.any_intercepted() {
            StepProvenance { verdict: Verdict::Intercepted, cited: deciding }
        } else {
            StepProvenance { verdict: Verdict::NotIntercepted, cited: asked }
        };
        self.decide(transport, sink, decided);
        matrix
    }

    /// Queries `addrs` in turn, adding each query to `asked`, and stops at
    /// the first non-standard answer.
    fn location_test<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
        resolver: &PublicResolver,
        addrs: &[IpAddr; 2],
        asked: &mut SeqSet,
    ) -> LocationTestResult {
        let mut saw_response = false;
        for &addr in addrs {
            let question = resolver.location_query();
            let (seq, outcome) = self.send(transport, sink, Step::Location, addr, question);
            asked.insert(seq);
            match outcome {
                QueryOutcome::Response(reply) => {
                    saw_response = true;
                    if !resolver.is_standard_location_response(&reply.view()) {
                        return LocationTestResult::NonStandard { observed: self.observed(seq) };
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
    ) -> Option<CpeEvidence> {
        // Follow the paper: v4 is the primary lens. Fall back to the v6
        // lens when v4 cannot be used — either interception was exclusively
        // observed on v6, or the probe never learned its public v4 address
        // but does know its v6 one and saw v6 interception too.
        let intercepted_v4 = matrix.intercepted_v4();
        let intercepted_v6 = matrix.intercepted_v6();
        let (cpe_addr, intercepted, use_v4) =
            match (self.config.cpe_public_v4, self.config.cpe_public_v6) {
                (Some(addr), _) if !intercepted_v4.is_empty() => (addr, intercepted_v4, true),
                (_, Some(addr)) if !intercepted_v6.is_empty() => (addr, intercepted_v6, false),
                _ => return None,
            };

        let (cpe_response, cpe_seq) = self.version_bind_to(transport, sink, cpe_addr);

        let mut resolver_responses: PerResolver<Option<VersionBindAnswer>> =
            PerResolver::default();
        let mut resolver_seqs: PerResolver<Option<u32>> = PerResolver::default();
        let resolvers = self.config.resolvers.clone();
        for resolver in resolvers.iter() {
            let addr = if use_v4 { resolver.v4[0] } else { resolver.v6[0] };
            let (answer, seq) = self.version_bind_to(transport, sink, addr);
            *resolver_responses.get_mut(resolver.key) = Some(answer);
            *resolver_seqs.get_mut(resolver.key) = Some(seq);
        }

        // Verdict: the CPE answered with a string, and every *intercepted*
        // resolver produced the identical string.
        let cpe_is_interceptor = match cpe_response.text() {
            Some(cpe_text) => intercepted.iter().all(|key| {
                resolver_responses.get(key).as_ref().and_then(|a| a.text()) == Some(cpe_text)
            }),
            None => false,
        };

        // Cite the CPE's own answer plus the answers attributed to the
        // *intercepted* resolvers — exactly the strings the verdict compared.
        let mut cited = SeqSet::default();
        cited.insert(cpe_seq);
        for key in intercepted.iter() {
            cited.extend(*resolver_seqs.get(key));
        }
        let verdict =
            if cpe_is_interceptor { Verdict::CpeIsInterceptor } else { Verdict::CpeRuledOut };
        self.decide(transport, sink, StepProvenance { verdict, cited });
        Some(CpeEvidence { cpe_response, resolver_responses, cpe_is_interceptor })
    }

    /// Step 3 (§3.3): bogon queries in both families.
    fn step3_traced<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
    ) -> BogonEvidence {
        // Every bogon query, and the answered ones.
        let mut asked = SeqSet::default();
        let mut answered = SeqSet::default();
        let mut outcomes = [BogonOutcome::NotTested, BogonOutcome::NotTested];
        let families = if self.config.test_ipv6 { 2 } else { 1 };
        let bogons = [(self.config.bogon_v4, RType::A), (self.config.bogon_v6, RType::Aaaa)];
        for (outcome, (server, qtype)) in outcomes.iter_mut().zip(bogons).take(families) {
            let question = Question::new(self.config.probe_domain.clone(), qtype);
            let (seq, reply) = self.send(transport, sink, Step::Bogon, server, question);
            asked.insert(seq);
            *outcome = match reply {
                QueryOutcome::Response(_) => {
                    answered.insert(seq);
                    BogonOutcome::Answered { observed: self.observed(seq) }
                }
                QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => BogonOutcome::Silent,
            };
        }
        let decided = if answered.is_empty() {
            // Silence cites every (unanswered) bogon query: the verdict
            // rests on all of them staying quiet.
            StepProvenance { verdict: Verdict::BogonSilent, cited: asked }
        } else {
            // An answer is positive proof — cite it alone.
            StepProvenance { verdict: Verdict::BogonAnswered, cited: answered }
        };
        self.decide(transport, sink, decided);
        let [v4, v6] = outcomes;
        BogonEvidence { v4, v6 }
    }

    /// Transparency test (§4.1.2): `A` query for the whoami name to every
    /// intercepted resolver.
    fn transparency_traced<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
        matrix: &InterceptionMatrix,
    ) -> Option<Transparency> {
        let mut transparent = 0u32;
        let mut modified = 0u32;
        let mut cited = SeqSet::default();
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
            let (seq, outcome) = self.send(transport, sink, Step::Transparency, addr, q);
            match outcome {
                QueryOutcome::Response(reply) => {
                    cited.insert(seq);
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
            (0, 0) => return None,
            (_, 0) => Transparency::Transparent,
            (0, _) => Transparency::StatusModified,
            _ => Transparency::Both,
        };
        let decided = StepProvenance { verdict: Verdict::Transparency(verdict), cited };
        self.decide(transport, sink, decided);
        Some(verdict)
    }

    /// Asks `addr` for `version.bind`; returns the answer and the query's
    /// seq.
    fn version_bind_to<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
        addr: IpAddr,
    ) -> (VersionBindAnswer, u32) {
        let q = Question::chaos_txt(debug_queries::version_bind());
        let (seq, outcome) = self.send(transport, sink, Step::CpeCheck, addr, q);
        let answer = match outcome {
            QueryOutcome::Response(reply) => {
                // The evidence reads the rcode, or else the first TXT
                // string unless an address answer precedes it: share that
                // text rather than copy it.
                let observed = self.observed(seq);
                if reply.header().rcode != Rcode::NoError {
                    VersionBindAnswer::Error(observed)
                } else {
                    match reply.view().answers().find_map(|r| r.txt_str()) {
                        Some(text) if observed.as_str() == text => {
                            VersionBindAnswer::Text(observed)
                        }
                        Some(text) => VersionBindAnswer::Text(Observation::from(&*text)),
                        None => VersionBindAnswer::Error("EMPTY".into()),
                    }
                }
            }
            QueryOutcome::Timeout | QueryOutcome::WrongSource { .. } => VersionBindAnswer::Timeout,
        };
        (answer, seq)
    }

    /// What query `seq` of this run observed, from its evidence.
    fn observed(&self, seq: u32) -> Observation {
        self.provenance.evidence[seq as usize].observed.clone()
    }

    /// Issues one logical query, records its evidence, and returns its seq
    /// with the outcome.
    fn send<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &mut T,
        sink: &mut S,
        step: Step,
        server: IpAddr,
        question: Question,
    ) -> (u32, QueryOutcome) {
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
            (QueryOutcome::Timeout, None) => Observation::from("TIMEOUT"),
            (QueryOutcome::WrongSource { from, .. }, None) => wrong_source_observation(*from),
        };
        // Feed the source-consistency audit: any attempt of this query that
        // drew a right-txid reply from the wrong address is evidence, even
        // when a later attempt was properly answered.
        if let Some(from) = retried.wrong_source {
            self.provenance.wrong_source.push((seq, from));
        }
        if let QueryOutcome::Response(_) = retried.outcome {
            self.answered.insert(seq);
        }
        self.provenance.evidence.push(EvidenceRef {
            seq,
            server,
            txid: retried.txid,
            attempts: retried.attempts_used,
            observed,
        });
        (seq, retried.outcome)
    }

    /// Records `decided` as its step's provenance and, when `sink` is live,
    /// emits the `StepVerdict` event, which borrows the evidence it cites.
    fn decide<T: QueryTransport, S: TraceSink>(
        &mut self,
        transport: &T,
        sink: &mut S,
        decided: StepProvenance,
    ) {
        let step = decided.verdict.step();
        if sink.enabled() {
            sink.record(TraceEvent::StepVerdict {
                step,
                verdict: decided.verdict,
                cited: self.provenance.cited(&decided),
                at_us: transport.now_us(),
            });
        }
        let p = &mut self.provenance;
        let slot = match step {
            Step::Location => &mut p.step1,
            Step::CpeCheck => &mut p.step2,
            Step::Bogon => &mut p.step3,
            Step::Transparency => &mut p.transparency,
            Step::SourceCheck => &mut p.source_check,
            Step::SideCheck | Step::TtlScan => unreachable!("no locator verdict belongs to {step}"),
        };
        *slot = Some(decided);
    }
}

/// Summarizes a response the way the paper's tables do: the TXT/A payload
/// when present, otherwise the rcode. Reads the message in place and
/// writes the text into an [`Observation`], which keeps anything a
/// simulated home returns inline.
pub fn describe_response(view: &MessageView<'_>) -> Observation {
    let rcode = view.header().rcode;
    if rcode != Rcode::NoError {
        return Observation::from_display(rcode);
    }
    for r in view.answers() {
        if let Some(t) = r.txt_str() {
            return Observation::from(&*t);
        }
        if let Some(ip) = r.a_addr() {
            return Observation::from_display(ip);
        }
        if let Some(ip) = r.aaaa_addr() {
            return Observation::from_display(ip);
        }
    }
    Observation::from("NOERROR(empty)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::{MockTransport, Respond};
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
        let p = &report.provenance;
        let p1 = p.step1.expect("step 1 always decides");
        assert_eq!(p1.verdict, Verdict::NotIntercepted);
        let cited = p.cited(&p1);
        assert_eq!(cited.len(), 16, "a clean verdict rests on every answer");
        assert!(p.step2.is_none());
        assert!(p.step3.is_none());
        assert!(p.transparency.is_none());
        let src = p.source_check.expect("source check always decides");
        assert_eq!(src.verdict, Verdict::SourceConsistent);
        assert_eq!(p.cited(&src), cited, "the audit cites the sixteen answers it checked");
        // Citations are in issue order and match the txid sequence.
        for (i, e) in cited.iter().enumerate() {
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
        let p = &report.provenance;
        let p1 = p.step1.unwrap();
        assert_eq!(p1.verdict, Verdict::Intercepted);
        let cited1: Vec<EvidenceRef> = p.cited(&p1).iter().collect();
        assert_eq!(cited1.len(), 4, "one deciding non-standard answer per v4 resolver");
        // Each citation carries exactly the observation the matrix recorded.
        let observed: Vec<&str> = cited1.iter().map(|e| e.observed.as_str()).collect();
        for (_, cell) in report.matrix.v4.iter() {
            match cell {
                LocationTestResult::NonStandard { observed: o } => {
                    assert!(observed.contains(&o.as_str()), "matrix evidence {o} is cited");
                }
                other => panic!("every v4 cell is intercepted, got {other:?}"),
            }
        }
        let p2 = p.step2.unwrap();
        assert_eq!(p2.verdict, Verdict::CpeIsInterceptor);
        // CPE's own answer first, then the four intercepted resolvers'.
        let cited2: Vec<EvidenceRef> = p.cited(&p2).iter().collect();
        assert_eq!(cited2.len(), 5);
        assert_eq!(cited2[0].server, "73.22.1.5".parse::<IpAddr>().unwrap());
        assert!(cited2.iter().all(|e| e.observed == "dnsmasq-2.85"));
        assert!(p.step3.is_none(), "step 3 is skipped when the CPE is blamed");
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
        assert_eq!(p3.verdict, Verdict::BogonAnswered);
        let cited: Vec<EvidenceRef> = report.provenance.cited(&p3).iter().collect();
        assert_eq!(cited.len(), 1, "the answer alone proves the verdict");
        assert_eq!(cited[0].observed, "NOTIMP");

        // Silence instead: every unanswered bogon query is cited.
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("PowerDNS Recursor 4.1");
        let mut locator = HijackLocator::new(config_with_cpe());
        let report = locator.run(&mut t);
        let p3 = report.provenance.step3.unwrap();
        assert_eq!(p3.verdict, Verdict::BogonSilent);
        let cited = report.provenance.cited(&p3);
        assert_eq!(cited.len(), 2);
        assert!(cited.iter().all(|e| e.observed == "TIMEOUT"));
    }

    #[test]
    fn wrong_source_replies_fold_into_the_source_check_verdict() {
        // A transparent forwarder relays every query upstream, and the
        // upstream answers the probe directly: right txid, wrong source
        // address. None of those replies may be accepted as answers, and
        // the source check must cite every one of them. The upstream is an
        // address the panel never queries: a reply from the queried
        // server itself would be its answer.
        let mut t = MockTransport::new();
        let upstream: IpAddr = "198.51.100.99".parse().unwrap();
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
        assert_eq!(src.verdict, Verdict::SourceMismatch { count: 16 });
        assert_eq!(src.verdict.to_string(), "16 response(s) from unexpected source");
        let cited = report.provenance.cited(&src);
        assert_eq!(cited.len(), 16, "one citation per location query");
        assert!(cited.iter().all(|e| e.observed == "wrong-source(198.51.100.99)"));
    }

    #[test]
    fn a_retry_answered_after_a_wrong_source_reply_is_cited_by_both_checks() {
        // Cloudflare's first address has its first attempt relayed
        // upstream, whose reply comes from 9.9.9.9; the retry is answered
        // properly. Step 1 cites the accepted answer, the source check the
        // wrong-source reply.
        let cloudflare_v4 = crate::resolvers::default_resolvers()[0].v4[0];
        let upstream: IpAddr = "9.9.9.9".parse().unwrap();
        let mut t = clean_transport();
        t.push_wrong_source_first(
            Some(vec![cloudflare_v4]),
            1,
            upstream,
            crate::mock::Respond::Txt("IAD".into()),
        );
        let mut config = config_with_cpe();
        config.query_options.attempts = 2;
        let report = HijackLocator::new(config).run(&mut t);
        assert!(!report.intercepted);
        assert_eq!(*report.matrix.v4.get(ResolverKey::Cloudflare), LocationTestResult::Standard);
        assert_eq!((report.queries_sent, report.wire_attempts), (16, 17));

        let p = &report.provenance;
        let step1: Vec<EvidenceRef> = p.cited(&p.step1.unwrap()).iter().collect();
        assert_eq!(step1.len(), 16);
        let answered = EvidenceRef {
            seq: 0,
            server: cloudflare_v4,
            txid: 0x1001,
            attempts: 2,
            observed: "IAD".into(),
        };
        assert_eq!(step1[0], answered, "step 1 cites the accepted answer");
        let src = p.source_check.expect("source check always decides");
        assert_eq!(src.verdict, Verdict::SourceMismatch { count: 1 });
        let mismatch = EvidenceRef { observed: "wrong-source(9.9.9.9)".into(), ..answered };
        assert_eq!(p.cited(&src).iter().collect::<Vec<_>>(), vec![mismatch]);

        // Serialized, read back and serialized again, byte for byte.
        let json = serde_json::to_string(&report).unwrap();
        let back: ProbeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    /// `n` resolvers keyed as Cloudflare, each answering its first address
    /// in a family with a standard location answer and its second with a
    /// non-standard one, so a run asks every query the bound counts.
    fn widest_panel(n: u8) -> (LocatorConfig, MockTransport) {
        let resolvers: Vec<PublicResolver> = (0..n)
            .map(|i| PublicResolver {
                key: ResolverKey::Cloudflare,
                v4: [IpAddr::from([10, 0, i, 1]), IpAddr::from([10, 0, i, 2])],
                v6: [
                    IpAddr::from([0xfd00, 0, 0, 0, 0, 0, u16::from(i), 1]),
                    IpAddr::from([0xfd00, 0, 0, 0, 0, 0, u16::from(i), 2]),
                ],
                egress: Vec::new(),
            })
            .collect();
        let (first, second): (Vec<IpAddr>, Vec<IpAddr>) =
            resolvers.iter().flat_map(|r| [(r.v4[0], r.v4[1]), (r.v6[0], r.v6[1])]).unzip();
        let id_server = debug_queries::id_server();
        let chaos = Some(dns_wire::RClass::Chaos);
        let cpe: IpAddr = "73.22.1.5".parse().unwrap();
        let mut t = MockTransport::new();
        t.push_rule(Some(first), Some(id_server.clone()), chaos, Respond::Txt("IAD".into()));
        t.push_rule(Some(second), Some(id_server), chaos, Respond::Txt("not-a-site".into()));
        let version_bind = Some(debug_queries::version_bind());
        let cpe_answer = Respond::Txt("dnsmasq-2.80".into());
        t.push_rule(Some(vec![cpe]), version_bind.clone(), chaos, cpe_answer);
        t.push_rule(None, version_bind, chaos, Respond::Txt("unbound 1.9.0".into()));
        t.push_rule(
            None,
            Some(debug_queries::whoami_akamai()),
            None,
            Respond::A("10.100.0.53".parse().unwrap()),
        );
        let config = LocatorConfig { resolvers: resolvers.into(), ..config_with_cpe() };
        (config, t)
    }

    #[test]
    fn the_widest_panel_fills_the_seq_set_to_its_bound() {
        // Ten resolvers: 40 location queries, the CPE and ten version.bind
        // queries, two bogons (unanswered) and ten whoami queries.
        let (config, mut t) = widest_panel(HijackLocator::MAX_RESOLVERS as u8);
        let report = HijackLocator::new(config).run(&mut t);
        assert_eq!(report.queries_sent as usize, 6 * HijackLocator::MAX_RESOLVERS + 3);
        assert!(report.queries_sent <= SeqSet::CAPACITY);
        assert_eq!(report.location, Some(InterceptorLocation::BeyondOrUnknown));
        let p = &report.provenance;
        assert_eq!(p.evidence.len(), report.queries_sent as usize);
        let transparency = p.transparency.expect("the whoami queries were answered");
        let cited: Vec<u32> = p.cited(&transparency).iter().map(|e| e.seq).collect();
        assert_eq!(cited, (53..63).collect::<Vec<_>>(), "the last query, seq 62, is cited");
        let json = serde_json::to_string(&report).unwrap();
        let back: ProbeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    #[should_panic(expected = "a locator studies at most 10 resolvers, not 11")]
    fn a_panel_past_the_bound_is_refused() {
        let (config, _) = widest_panel(HijackLocator::MAX_RESOLVERS as u8 + 1);
        HijackLocator::new(config);
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
                    Some((*step, *verdict, cited.clone()))
                }
                _ => None,
            })
            .collect();
        let p = &traced.provenance;
        assert_eq!(verdicts.len(), 4, "location, cpe-check, transparency, source-check");
        assert_eq!(verdicts[0].0, Step::Location);
        assert_eq!(verdicts[0].2, p.cited(p.step1.as_ref().unwrap()));
        assert_eq!(verdicts[1].0, Step::CpeCheck);
        assert_eq!(verdicts[1].1, p.step2.as_ref().unwrap().verdict);
        assert_eq!(verdicts[2].0, Step::Transparency);
        assert_eq!(verdicts[3].0, Step::SourceCheck);
        assert_eq!(verdicts[3].1, p.source_check.as_ref().unwrap().verdict);
        assert_eq!(verdicts[3].1, Verdict::SourceConsistent);
        assert_eq!(verdicts[3].2, p.cited(p.source_check.as_ref().unwrap()));
        // Every query here is answered, and the audit cites each answer.
        assert_eq!(verdicts[3].2.len() as u32, traced.queries_sent);
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
