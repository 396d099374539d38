//! Result types produced by the locator: per-resolver interception matrix,
//! step-2/step-3 evidence, and the final classification.

use crate::resolvers::ResolverKey;
use crate::trace::Step;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::net::IpAddr;
use std::num::NonZeroU8;
use std::sync::Arc;

/// A value held once per studied public resolver. Serde-friendly (named
/// fields rather than a map) and iterable.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerResolver<T> {
    /// Cloudflare DNS.
    pub cloudflare: T,
    /// Google DNS.
    pub google: T,
    /// Quad9.
    pub quad9: T,
    /// OpenDNS.
    pub opendns: T,
}

impl<T> PerResolver<T> {
    /// Gets the slot for `key`.
    pub fn get(&self, key: ResolverKey) -> &T {
        match key {
            ResolverKey::Cloudflare => &self.cloudflare,
            ResolverKey::Google => &self.google,
            ResolverKey::Quad9 => &self.quad9,
            ResolverKey::OpenDns => &self.opendns,
        }
    }

    /// Mutable slot for `key`.
    pub fn get_mut(&mut self, key: ResolverKey) -> &mut T {
        match key {
            ResolverKey::Cloudflare => &mut self.cloudflare,
            ResolverKey::Google => &mut self.google,
            ResolverKey::Quad9 => &mut self.quad9,
            ResolverKey::OpenDns => &mut self.opendns,
        }
    }

    /// Iterates (key, value) in the paper's table order.
    pub fn iter(&self) -> impl Iterator<Item = (ResolverKey, &T)> {
        ResolverKey::ALL.iter().map(move |&k| (k, self.get(k)))
    }
}

/// A set of studied resolvers: a bitmask over [`ResolverKey`], so building,
/// copying and asking it allocate nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ResolverSet(u8);

impl ResolverSet {
    fn bit(key: ResolverKey) -> u8 {
        1 << key as u8
    }

    fn insert(&mut self, key: ResolverKey) {
        self.0 |= Self::bit(key);
    }

    /// True if `key` is in the set.
    pub fn contains(self, key: ResolverKey) -> bool {
        self.0 & Self::bit(key) != 0
    }

    /// Number of resolvers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The resolvers in the set, in the paper's table order.
    pub fn iter(self) -> impl Iterator<Item = ResolverKey> {
        ResolverKey::ALL.into_iter().filter(move |&k| self.contains(k))
    }
}

impl FromIterator<ResolverKey> for ResolverSet {
    fn from_iter<I: IntoIterator<Item = ResolverKey>>(keys: I) -> ResolverSet {
        let mut set = ResolverSet::default();
        keys.into_iter().for_each(|k| set.insert(k));
        set
    }
}

/// Bytes of text an [`Observation`] keeps inline: every location answer,
/// rcode and address a simulated home returns fits (the longest,
/// `res84.<iata>.rrdns.pch.net`, is 23), and so does every `version.bind`
/// string but one, the 24-byte `PowerDNS Recursor 4.1.11`.
const INLINE: usize = 23;

/// What came back for one query, as the paper's tables print it: an
/// answer payload, an rcode, `TIMEOUT` or `wrong-source(<address>)`.
///
/// A value rather than a `String`: text of up to 23 bytes is kept inline,
/// and only longer text goes to one shared `Arc<str>`. So describing a
/// response and keeping the description allocate nothing for nearly
/// everything a simulated home returns, and cloning one never does.
/// `Display`, `Debug`, serialization and equality all go by the text.
#[derive(Clone)]
pub struct Observation(Repr);

#[derive(Clone)]
enum Repr {
    Inline(Inline),
    Shared(Arc<str>),
}

/// Inline text. `len` holds the byte count plus one: its unused zero is
/// the niche that tells [`Repr`]'s variants apart, so an `Observation`
/// is 24 bytes with no tag of its own.
#[derive(Clone, Copy)]
struct Inline {
    len: NonZeroU8,
    bytes: [u8; INLINE],
}

const _: () = assert!(std::mem::size_of::<Observation>() == 24);

impl Inline {
    const EMPTY: Inline = Inline { len: NonZeroU8::MIN, bytes: [0; INLINE] };

    fn len(&self) -> usize {
        usize::from(self.len.get() - 1)
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len()]).expect("inline text is whole UTF-8")
    }

    /// Appends `s` if it fits; reports whether it did.
    fn try_push(&mut self, s: &str) -> bool {
        let len = self.len();
        let Some(tail) = self.bytes.get_mut(len..len + s.len()) else { return false };
        tail.copy_from_slice(s.as_bytes());
        // At most INLINE + 1, so the byte never saturates.
        self.len = self.len.saturating_add(s.len() as u8);
        true
    }
}

impl Observation {
    /// Renders `value` into an observation, inline when it fits.
    pub(crate) fn from_display(value: impl fmt::Display) -> Observation {
        let mut observed = Observation::default();
        write!(observed, "{value}").expect("writing into an observation cannot fail");
        observed
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(inline) => inline.as_str(),
            Repr::Shared(text) => text,
        }
    }
}

impl Default for Observation {
    fn default() -> Observation {
        Observation(Repr::Inline(Inline::EMPTY))
    }
}

impl fmt::Write for Observation {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Repr::Inline(inline) = &mut self.0 {
            if inline.try_push(s) {
                return Ok(());
            }
        }
        // Past the inline capacity: one shared copy of the whole text.
        let mut text = String::with_capacity(self.as_str().len() + s.len());
        text.push_str(self.as_str());
        text.push_str(s);
        self.0 = Repr::Shared(text.into());
        Ok(())
    }
}

impl From<&str> for Observation {
    fn from(text: &str) -> Observation {
        let mut inline = Inline::EMPTY;
        if inline.try_push(text) {
            Observation(Repr::Inline(inline))
        } else {
            Observation(Repr::Shared(text.into()))
        }
    }
}

impl std::ops::Deref for Observation {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Observation {
    fn eq(&self, other: &Observation) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Observation {}

impl PartialEq<&str> for Observation {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Serialize for Observation {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

impl Deserialize for Observation {
    fn from_value(v: &Value) -> Result<Observation, DeError> {
        match v {
            Value::String(text) => Ok(Observation::from(text.as_str())),
            other => Err(DeError::custom(format!("expected observation string, found {other:?}"))),
        }
    }
}

/// Outcome of one step-1 location query against one resolver in one family.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LocationTestResult {
    /// Standard response: no interception observed for this resolver.
    Standard,
    /// Non-standard response — evidence of interception. Carries the
    /// observed answer (TXT string or rcode) for reporting, as in the
    /// paper's Table 2.
    NonStandard {
        /// What came back instead of the standard response.
        observed: Observation,
    },
    /// Query timed out. Conservatively treated as *not* intercepted (§3.1).
    Timeout,
    /// This resolver/family pair was not probed (e.g. no IPv6 service).
    #[default]
    NotTested,
}

impl LocationTestResult {
    /// True only for [`LocationTestResult::NonStandard`].
    pub fn is_intercepted(&self) -> bool {
        matches!(self, LocationTestResult::NonStandard { .. })
    }
}

/// Step-1 results: one [`LocationTestResult`] per resolver per family.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterceptionMatrix {
    /// IPv4 results.
    pub v4: PerResolver<LocationTestResult>,
    /// IPv6 results.
    pub v6: PerResolver<LocationTestResult>,
}

impl InterceptionMatrix {
    fn intercepted(side: &PerResolver<LocationTestResult>) -> ResolverSet {
        side.iter().filter(|(_, r)| r.is_intercepted()).map(|(k, _)| k).collect()
    }

    /// Resolvers intercepted on IPv4.
    pub fn intercepted_v4(&self) -> ResolverSet {
        Self::intercepted(&self.v4)
    }

    /// Resolvers intercepted on IPv6.
    pub fn intercepted_v6(&self) -> ResolverSet {
        Self::intercepted(&self.v6)
    }

    /// True if any resolver in any family showed interception.
    pub fn any_intercepted(&self) -> bool {
        !self.intercepted_v4().is_empty() || !self.intercepted_v6().is_empty()
    }

    /// True if all four resolvers were intercepted on IPv4 ("All
    /// Intercepted" row of Table 4).
    pub fn all_four_v4(&self) -> bool {
        self.intercepted_v4().len() == 4
    }

    /// True if all four resolvers were intercepted on IPv6.
    pub fn all_four_v6(&self) -> bool {
        self.intercepted_v6().len() == 4
    }
}

/// An answer to a `version.bind` query, in comparison-friendly form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum VersionBindAnswer {
    /// A TXT string came back (e.g. `dnsmasq-2.85`, `unbound 1.9.0`).
    Text(Observation),
    /// A DNS error status came back (e.g. `NOTIMP`, `NXDOMAIN`).
    Error(Observation),
    /// No response.
    Timeout,
}

impl VersionBindAnswer {
    /// The TXT string, if any.
    pub fn text(&self) -> Option<&str> {
        match self {
            VersionBindAnswer::Text(s) => Some(s),
            _ => None,
        }
    }
}

impl std::fmt::Display for VersionBindAnswer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VersionBindAnswer::Text(s) => write!(f, "{s}"),
            VersionBindAnswer::Error(e) => write!(f, "{e}"),
            VersionBindAnswer::Timeout => write!(f, "-"),
        }
    }
}

/// Step-2 evidence: the version.bind comparison (§3.2, Table 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpeEvidence {
    /// Response to `version.bind` sent to the CPE's own public IP.
    pub cpe_response: VersionBindAnswer,
    /// Responses to `version.bind` sent to each public resolver.
    pub resolver_responses: PerResolver<Option<VersionBindAnswer>>,
    /// True when the comparison identifies the CPE as the interceptor.
    pub cpe_is_interceptor: bool,
}

/// Step-3 evidence: the bogon queries (§3.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BogonEvidence {
    /// What the IPv4 bogon query produced.
    pub v4: BogonOutcome,
    /// What the IPv6 bogon query produced (if probed).
    pub v6: BogonOutcome,
}

/// Outcome of one bogon query.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BogonOutcome {
    /// A DNS response arrived — the query was intercepted before leaving
    /// the AS.
    Answered {
        /// Observed rcode or answer, for reporting.
        observed: Observation,
    },
    /// Nothing came back: the interceptor is outside the AS, or it drops
    /// unroutable destinations — indistinguishable (§3.3).
    Silent,
    /// Not probed.
    #[default]
    NotTested,
}

/// Final localization verdict, per the paper's three-way breakdown
/// (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterceptorLocation {
    /// The home router itself intercepts (step 2).
    Cpe,
    /// Interception happens before queries leave the client's AS (step 3).
    WithinIsp,
    /// Interception exists but its location could not be pinned down.
    BeyondOrUnknown,
}

impl std::fmt::Display for InterceptorLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterceptorLocation::Cpe => write!(f, "CPE"),
            InterceptorLocation::WithinIsp => write!(f, "within ISP"),
            InterceptorLocation::BeyondOrUnknown => write!(f, "beyond/unknown"),
        }
    }
}

/// Transparency classification from the whoami test (§4.1.2, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transparency {
    /// All intercepted resolvers still resolved the test name correctly.
    Transparent,
    /// All intercepted resolvers returned DNS error statuses.
    StatusModified,
    /// Some resolvers transparent, others modified.
    Both,
}

impl std::fmt::Display for Transparency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transparency::Transparent => write!(f, "Transparent"),
            Transparency::StatusModified => write!(f, "Status Modified"),
            Transparency::Both => write!(f, "Both"),
        }
    }
}

/// One response (or definitive silence) cited as evidence for a verdict.
///
/// The reference identifies a logical query by its sequence number (`seq`
/// matches the `QueryIssued` trace event for the same query), names the
/// server it targeted and the transaction ID of the decisive wire attempt,
/// and summarizes what was observed. It deliberately carries **no
/// timestamp**: provenance is part of the report, and reports must compare
/// bit-for-bit between live, replayed, and re-ordered runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvidenceRef {
    /// Sequence number of the logical query (issue order, 0-based).
    pub seq: u32,
    /// Server the query targeted.
    pub server: IpAddr,
    /// Transaction ID of the decisive attempt (the accepted response's ID,
    /// or the last attempt's ID for a timeout).
    pub txid: u16,
    /// Wire attempts the query used.
    pub attempts: u32,
    /// Summarized observation: an answer payload, an rcode, `TIMEOUT`, or
    /// `wrong-source(<address>)`.
    pub observed: Observation,
}

/// The observation a source-check citation shows for a query that drew a
/// reply from `from` instead of the server it asked.
pub(crate) fn wrong_source_observation(from: IpAddr) -> Observation {
    Observation::from_display(format_args!("wrong-source({from})"))
}

/// The address in a `wrong-source(<address>)` observation.
fn parse_wrong_source(observed: &str) -> Option<IpAddr> {
    observed.strip_prefix("wrong-source(")?.strip_suffix(')')?.parse().ok()
}

/// One step's verdict. `Display` gives the human-stable strings the golden
/// traces freeze; a verdict is `Copy` and never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Step 1: some location query drew a non-standard answer.
    Intercepted,
    /// Step 1: no location query drew a non-standard answer.
    NotIntercepted,
    /// Step 2: the CPE's `version.bind` string matched every intercepted
    /// resolver's.
    CpeIsInterceptor,
    /// Step 2: it did not.
    CpeRuledOut,
    /// Step 3: a bogon query was answered, so the interceptor is within
    /// the ISP.
    BogonAnswered,
    /// Step 3: every bogon query stayed silent.
    BogonSilent,
    /// The §4.1.2 whoami classification.
    Transparency(Transparency),
    /// Source check: every reply came from the server it was sent to.
    SourceConsistent,
    /// Source check: some queries drew a reply from another address.
    SourceMismatch {
        /// Queries that drew at least one such reply.
        count: u32,
    },
}

impl Verdict {
    /// The step that reaches this verdict.
    pub(crate) fn step(self) -> Step {
        match self {
            Verdict::Intercepted | Verdict::NotIntercepted => Step::Location,
            Verdict::CpeIsInterceptor | Verdict::CpeRuledOut => Step::CpeCheck,
            Verdict::BogonAnswered | Verdict::BogonSilent => Step::Bogon,
            Verdict::Transparency(_) => Step::Transparency,
            Verdict::SourceConsistent | Verdict::SourceMismatch { .. } => Step::SourceCheck,
        }
    }

    /// Every verdict whose text is fixed, for reading text back.
    const FIXED: [Verdict; 10] = [
        Verdict::Intercepted,
        Verdict::NotIntercepted,
        Verdict::CpeIsInterceptor,
        Verdict::CpeRuledOut,
        Verdict::BogonAnswered,
        Verdict::BogonSilent,
        Verdict::Transparency(Transparency::Transparent),
        Verdict::Transparency(Transparency::StatusModified),
        Verdict::Transparency(Transparency::Both),
        Verdict::SourceConsistent,
    ];

    /// Reads a verdict back from its display text.
    fn parse(text: &str) -> Option<Verdict> {
        if let Some(count) = text.strip_suffix(" response(s) from unexpected source") {
            return count.parse().ok().map(|count| Verdict::SourceMismatch { count });
        }
        Verdict::FIXED.into_iter().find(|v| v.to_string() == text)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Intercepted => f.write_str("intercepted"),
            Verdict::NotIntercepted => f.write_str("not intercepted"),
            Verdict::CpeIsInterceptor => f.write_str("CPE is the interceptor"),
            Verdict::CpeRuledOut => f.write_str("CPE ruled out"),
            Verdict::BogonAnswered => f.write_str("answered: interceptor within ISP"),
            Verdict::BogonSilent => f.write_str("silent: beyond or unknown"),
            Verdict::Transparency(t) => fmt::Display::fmt(t, f),
            Verdict::SourceConsistent => f.write_str("all responses source-consistent"),
            Verdict::SourceMismatch { count } => {
                write!(f, "{count} response(s) from unexpected source")
            }
        }
    }
}

impl Serialize for Verdict {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for Verdict {
    fn from_value(v: &Value) -> Result<Verdict, DeError> {
        match v {
            Value::String(text) => Verdict::parse(text)
                .ok_or_else(|| DeError::custom(format!("unknown verdict {text:?}"))),
            other => Err(DeError::custom(format!("expected verdict string, found {other:?}"))),
        }
    }
}

/// A set of logical-query sequence numbers: the queries one verdict cites.
/// It reads back in seq order, the order every step cites in.
///
/// A `u64` bitmask, so every seq must be below [`SeqSet::CAPACITY`]; the
/// locator's bound on its resolver panel keeps it there
/// ([`HijackLocator::MAX_RESOLVERS`](crate::HijackLocator::MAX_RESOLVERS)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SeqSet(u64);

impl SeqSet {
    /// One more than the largest seq a set can hold.
    pub const CAPACITY: u32 = u64::BITS;

    /// Adds `seq`.
    ///
    /// # Panics
    /// If `seq` is not below [`SeqSet::CAPACITY`].
    pub(crate) fn insert(&mut self, seq: u32) {
        assert!(seq < Self::CAPACITY, "seq {seq} does not fit a SeqSet");
        self.0 |= 1 << seq;
    }

    /// Number of seqs in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The seqs in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u32> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let seq = (rest != 0).then(|| rest.trailing_zeros())?;
            rest &= rest - 1;
            Some(seq)
        })
    }
}

impl Extend<u32> for SeqSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, seqs: I) {
        seqs.into_iter().for_each(|seq| self.insert(seq));
    }
}

impl FromIterator<u32> for SeqSet {
    fn from_iter<I: IntoIterator<Item = u32>>(seqs: I) -> SeqSet {
        let mut set = SeqSet::default();
        set.extend(seqs);
        set
    }
}

/// The evidence one verdict cites: a [`SeqSet`] resolved against a probe's
/// evidence list, in seq order. What [`Provenance::cited`] returns and a
/// [`StepVerdict`](crate::TraceEvent::StepVerdict) event carries.
///
/// A live one borrows the list, so handing it to a sink costs nothing;
/// [`into_owned`](Citations::into_owned) copies the cited entries only.
/// Equality, `Debug` and serialization go by the resolved entries.
#[derive(Clone)]
pub struct Citations<'a> {
    /// Sorted by seq, one entry per seq; holds every cited seq.
    evidence: Cow<'a, [EvidenceRef]>,
    seqs: SeqSet,
    /// Wrong-source replies these citations show instead of the query's
    /// final observation: the source check's, or none.
    wrong_source: &'a [(u32, IpAddr)],
}

impl<'a> Citations<'a> {
    /// The cited entries, in seq order.
    pub fn iter(&self) -> impl Iterator<Item = EvidenceRef> + '_ {
        self.seqs.iter().map(|seq| self.resolve(seq))
    }

    fn resolve(&self, seq: u32) -> EvidenceRef {
        let at = self
            .evidence
            .binary_search_by_key(&seq, |e| e.seq)
            .expect("every cited query has evidence");
        let mut cited = self.evidence[at].clone();
        if let Some(&(_, from)) = self.wrong_source.iter().find(|(s, _)| *s == seq) {
            cited.observed = wrong_source_observation(from);
        }
        cited
    }

    /// The cited seqs.
    pub fn seqs(&self) -> SeqSet {
        self.seqs
    }

    /// Number of citations.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True if the verdict cites nothing.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Copies the cited entries, so the citations outlive the list they
    /// were resolved against.
    pub fn into_owned(self) -> Citations<'static> {
        Citations {
            evidence: Cow::Owned(self.iter().collect()),
            seqs: self.seqs,
            wrong_source: &[],
        }
    }
}

impl PartialEq for Citations<'_> {
    fn eq(&self, other: &Citations<'_>) -> bool {
        self.seqs == other.seqs && self.iter().eq(other.iter())
    }
}

impl Eq for Citations<'_> {}

impl fmt::Debug for Citations<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Citations<'_> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|e| e.to_value()).collect())
    }
}

/// One step's verdict plus the queries whose responses justified it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepProvenance {
    /// The verdict.
    pub verdict: Verdict,
    /// The queries it cites; [`Provenance::cited`] resolves them.
    pub cited: SeqSet,
}

/// The full evidence chain behind a [`ProbeReport`]: each query's evidence,
/// kept once, and each decided step's verdict citing into it by seq.
///
/// Serialized as one `{verdict, cited}` object per step, with the citations
/// resolved, and read back from the same; equality goes by the verdicts
/// and the evidence they cite.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// One entry per logical query, in seq order, holding every seq the
    /// steps cite: resolving a citation without one panics. A provenance
    /// read back from JSON holds only the cited entries.
    pub evidence: Vec<EvidenceRef>,
    /// `(seq, from)` for each query that drew a right-txid reply from an
    /// address other than the server it asked, even when a later attempt
    /// was answered; in seq order. The source check cites these. Empty,
    /// and unallocated, unless that happened.
    pub wrong_source: Vec<(u32, IpAddr)>,
    /// Step 1: the location-query verdict.
    pub step1: Option<StepProvenance>,
    /// Step 2: the `version.bind` comparison verdict.
    pub step2: Option<StepProvenance>,
    /// Step 3: the bogon-query verdict.
    pub step3: Option<StepProvenance>,
    /// The §4.1.2 whoami transparency verdict.
    pub transparency: Option<StepProvenance>,
    /// The response-source consistency audit: whether any reply arrived
    /// from an address other than the queried server (the
    /// transparent-forwarder signature).
    pub source_check: Option<StepProvenance>,
}

impl Provenance {
    /// (label, provenance) for every step, in pipeline order.
    fn steps(&self) -> [(&'static str, Option<&StepProvenance>); 5] {
        [
            ("step1", self.step1.as_ref()),
            ("step2", self.step2.as_ref()),
            ("step3", self.step3.as_ref()),
            ("transparency", self.transparency.as_ref()),
            ("source_check", self.source_check.as_ref()),
        ]
    }

    /// (label, provenance) for every step that ran, in pipeline order.
    pub fn decided_steps(&self) -> Vec<(&'static str, &StepProvenance)> {
        self.steps().into_iter().filter_map(|(label, p)| p.map(|p| (label, p))).collect()
    }

    /// The evidence `step` cites, resolved against this provenance's list.
    /// A source-check citation of a query that drew a wrong-source reply
    /// shows that reply, `wrong-source(<address>)`.
    pub fn cited(&self, step: &StepProvenance) -> Citations<'_> {
        let wrong_source: &[(u32, IpAddr)] =
            if step.verdict.step() == Step::SourceCheck { &self.wrong_source } else { &[] };
        Citations { evidence: Cow::Borrowed(&self.evidence), seqs: step.cited, wrong_source }
    }

    /// Reads one step's `{verdict, cited}` object, adding its citations to
    /// the evidence list.
    fn read_step(
        &mut self,
        obj: &[(String, Value)],
        label: &str,
    ) -> Result<Option<StepProvenance>, DeError> {
        let step = match serde::__get_field(obj, label) {
            Value::Null => return Ok(None),
            Value::Object(step) => step,
            other => {
                return Err(DeError::custom(format!("{label}: expected object, found {other:?}")))
            }
        };
        let verdict = Verdict::from_value(serde::__get_field(step, "verdict"))?;
        let mut cited = SeqSet::default();
        for e in Vec::<EvidenceRef>::from_value(serde::__get_field(step, "cited"))? {
            if e.seq >= SeqSet::CAPACITY {
                return Err(DeError::custom(format!("{label}: seq {} out of range", e.seq)));
            }
            cited.insert(e.seq);
            let wrong_source = match verdict.step() {
                Step::SourceCheck => parse_wrong_source(&e.observed),
                _ => None,
            };
            if let Some(from) = wrong_source {
                self.wrong_source.push((e.seq, from));
            }
            match self.evidence.binary_search_by_key(&e.seq, |x| x.seq) {
                // A wrong-source citation may differ from what another
                // step cites for the same query: its final answer.
                Ok(at) if wrong_source.is_some() || self.evidence[at] == e => {}
                Ok(_) => {
                    return Err(DeError::custom(format!(
                        "{label}: query {} is cited with two observations",
                        e.seq
                    )))
                }
                Err(at) => self.evidence.insert(at, e),
            }
        }
        Ok(Some(StepProvenance { verdict, cited }))
    }
}

impl PartialEq for Provenance {
    fn eq(&self, other: &Provenance) -> bool {
        self.steps().into_iter().zip(other.steps()).all(|((_, a), (_, b))| match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => a.verdict == b.verdict && self.cited(a) == other.cited(b),
            _ => false,
        })
    }
}

impl Eq for Provenance {}

impl Serialize for Provenance {
    fn to_value(&self) -> Value {
        let step = |p: Option<&StepProvenance>| match p {
            None => Value::Null,
            Some(p) => Value::Object(vec![
                ("verdict".to_string(), p.verdict.to_value()),
                ("cited".to_string(), self.cited(p).to_value()),
            ]),
        };
        Value::Object(
            self.steps().into_iter().map(|(label, p)| (label.to_string(), step(p))).collect(),
        )
    }
}

// Archives written before provenance existed omit the field entirely (read
// back as `null`), and those must keep deserializing — as the empty
// provenance.
impl Deserialize for Provenance {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = match v {
            Value::Null => return Ok(Provenance::default()),
            Value::Object(obj) => obj,
            _ => return Err(DeError::custom("Provenance: expected object or null")),
        };
        let mut p = Provenance::default();
        p.step1 = p.read_step(obj, "step1")?;
        p.step2 = p.read_step(obj, "step2")?;
        p.step3 = p.read_step(obj, "step3")?;
        p.transparency = p.read_step(obj, "transparency")?;
        // Last: its wrong-source citations stand beside what the steps
        // above cite for the same queries.
        p.source_check = p.read_step(obj, "source_check")?;
        Ok(p)
    }
}

/// Everything the locator learned about one probe.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeReport {
    /// Step-1 per-resolver matrix.
    pub matrix: InterceptionMatrix,
    /// Whether any interception was detected.
    pub intercepted: bool,
    /// Step-2 evidence, present when step 1 found interception.
    pub cpe: Option<CpeEvidence>,
    /// Step-3 evidence, present when step 2 did not blame the CPE.
    pub bogon: Option<BogonEvidence>,
    /// Final localization, present when intercepted.
    pub location: Option<InterceptorLocation>,
    /// Transparency classification, present when intercepted and the
    /// whoami test produced evidence.
    pub transparency: Option<Transparency>,
    /// Total DNS questions asked for this probe — the technique's cost.
    pub queries_sent: u32,
    /// Total wire attempts across all questions, retries included. Equals
    /// `queries_sent` when `QueryOptions::attempts` is 1.
    pub wire_attempts: u32,
    /// Questions that needed more than one attempt before an answer (or
    /// before giving up).
    pub retried_queries: u32,
    /// The evidence chain behind each step verdict. Always populated —
    /// provenance collection does not depend on tracing being enabled.
    pub provenance: Provenance,
}

impl std::fmt::Display for ProbeReport {
    /// A human-readable summary: per-resolver matrix, evidence, verdict.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "interception report ({} queries)", self.queries_sent)?;
        if self.wire_attempts > self.queries_sent {
            writeln!(
                f,
                "  ({} wire attempts; {} queries retried)",
                self.wire_attempts, self.retried_queries
            )?;
        }
        for (family, side) in [("v4", &self.matrix.v4), ("v6", &self.matrix.v6)] {
            for (key, result) in side.iter() {
                let text = match result {
                    LocationTestResult::Standard => "standard".to_string(),
                    LocationTestResult::NonStandard { observed } => {
                        format!("NON-STANDARD ({observed})")
                    }
                    LocationTestResult::Timeout => "timeout".to_string(),
                    LocationTestResult::NotTested => continue,
                };
                writeln!(f, "  {:<16} {family}: {text}", key.display_name())?;
            }
        }
        if !self.intercepted {
            return writeln!(f, "verdict: not intercepted");
        }
        if let Some(cpe) = &self.cpe {
            writeln!(f, "  version.bind @ CPE public IP: {}", cpe.cpe_response)?;
            for (key, answer) in cpe.resolver_responses.iter() {
                if let Some(a) = answer {
                    writeln!(f, "  version.bind via {:<14}: {a}", key.display_name())?;
                }
            }
        }
        if let Some(bogon) = &self.bogon {
            writeln!(f, "  bogon v4: {:?}, v6: {:?}", bogon.v4, bogon.v6)?;
        }
        if let Some(location) = self.location {
            writeln!(f, "verdict: intercepted at {location}")?;
        }
        if let Some(t) = self.transparency {
            writeln!(f, "transparency: {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_resolver_get_set_iter() {
        let mut pr: PerResolver<u32> = PerResolver::default();
        *pr.get_mut(ResolverKey::Quad9) = 9;
        *pr.get_mut(ResolverKey::Google) = 8;
        assert_eq!(*pr.get(ResolverKey::Quad9), 9);
        let collected: Vec<_> = pr.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(
            collected,
            vec![
                (ResolverKey::Cloudflare, 0),
                (ResolverKey::Google, 8),
                (ResolverKey::Quad9, 9),
                (ResolverKey::OpenDns, 0),
            ]
        );
    }

    #[test]
    fn matrix_queries() {
        let mut m = InterceptionMatrix::default();
        assert!(!m.any_intercepted());
        m.v4.google = LocationTestResult::NonStandard { observed: "NOTIMP".into() };
        assert!(m.any_intercepted());
        assert_eq!(m.intercepted_v4().iter().collect::<Vec<_>>(), vec![ResolverKey::Google]);
        assert!(!m.all_four_v4());
        for k in ResolverKey::ALL {
            *m.v4.get_mut(k) = LocationTestResult::NonStandard { observed: "x".into() };
        }
        assert!(m.all_four_v4());
        assert!(m.intercepted_v6().is_empty());
    }

    #[test]
    fn timeout_is_not_interception() {
        assert!(!LocationTestResult::Timeout.is_intercepted());
        assert!(!LocationTestResult::Standard.is_intercepted());
        assert!(!LocationTestResult::NotTested.is_intercepted());
        assert!(
            LocationTestResult::NonStandard { observed: Observation::default() }.is_intercepted()
        );
    }

    #[test]
    fn version_bind_answer_display_matches_table_3() {
        assert_eq!(VersionBindAnswer::Text("unbound 1.9.0".into()).to_string(), "unbound 1.9.0");
        assert_eq!(VersionBindAnswer::Error("NOTIMP".into()).to_string(), "NOTIMP");
        assert_eq!(VersionBindAnswer::Timeout.to_string(), "-");
    }

    #[test]
    fn display_renders_clean_and_intercepted() {
        let clean = ProbeReport {
            matrix: InterceptionMatrix::default(),
            intercepted: false,
            cpe: None,
            bogon: None,
            location: None,
            transparency: None,
            queries_sent: 16,
            wire_attempts: 16,
            retried_queries: 0,
            provenance: Provenance::default(),
        };
        let text = clean.to_string();
        assert!(text.contains("not intercepted"));
        assert!(!text.contains("wire attempts"), "single-shot reports omit the retry line");

        let mut matrix = InterceptionMatrix::default();
        matrix.v4.google = LocationTestResult::NonStandard { observed: "NOTIMP".into() };
        let hijacked = ProbeReport {
            matrix,
            intercepted: true,
            cpe: Some(CpeEvidence {
                cpe_response: VersionBindAnswer::Text("dnsmasq-2.85".into()),
                resolver_responses: PerResolver::default(),
                cpe_is_interceptor: true,
            }),
            bogon: None,
            location: Some(InterceptorLocation::Cpe),
            transparency: Some(Transparency::Transparent),
            queries_sent: 21,
            wire_attempts: 25,
            retried_queries: 3,
            provenance: Provenance::default(),
        };
        let text = hijacked.to_string();
        assert!(text.contains("NON-STANDARD (NOTIMP)"));
        assert!(text.contains("intercepted at CPE"));
        assert!(text.contains("dnsmasq-2.85"));
        assert!(text.contains("Transparent"));
        assert!(text.contains("25 wire attempts; 3 queries retried"));
    }

    fn evidence(seq: u32, observed: &str) -> EvidenceRef {
        EvidenceRef {
            seq,
            server: "198.51.100.53".parse().unwrap(),
            txid: 0x1000 + seq as u16,
            attempts: 1,
            observed: observed.into(),
        }
    }

    #[test]
    fn provenance_tracks_decided_steps() {
        let mut p = Provenance::default();
        assert!(p.decided_steps().is_empty());
        p.evidence = (0..18).map(|seq| evidence(seq, "A 192.0.2.1")).collect();
        p.step1 = Some(StepProvenance { verdict: Verdict::Intercepted, cited: SeqSet::default() });
        p.step3 = Some(StepProvenance {
            verdict: Verdict::BogonAnswered,
            cited: [17].into_iter().collect(),
        });
        let labels: Vec<_> = p.decided_steps().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["step1", "step3"]);
        let step3 = p.cited(p.step3.as_ref().unwrap());
        assert_eq!(step3.iter().collect::<Vec<_>>(), vec![evidence(17, "A 192.0.2.1")]);
    }

    #[test]
    fn reports_without_provenance_still_deserialize() {
        // Pre-provenance archives omit the field; serde fills the default.
        let json = r#"{"matrix":{"v4":{"cloudflare":"Standard","google":"Standard",
            "quad9":"Standard","opendns":"Standard"},"v6":{"cloudflare":"NotTested",
            "google":"NotTested","quad9":"NotTested","opendns":"NotTested"}},
            "intercepted":false,"cpe":null,"bogon":null,"location":null,
            "transparency":null,"queries_sent":8,"wire_attempts":8,"retried_queries":0}"#;
        let report: ProbeReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.provenance, Provenance::default());
    }

    #[test]
    fn report_serializes_to_json() {
        let report = ProbeReport {
            matrix: InterceptionMatrix::default(),
            intercepted: false,
            cpe: None,
            bogon: None,
            location: None,
            transparency: None,
            queries_sent: 16,
            wire_attempts: 16,
            retried_queries: 0,
            provenance: Provenance::default(),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: ProbeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn observations_keep_short_text_inline_and_compare_by_text() {
        assert_eq!(std::mem::size_of::<Observation>(), 24);
        assert_eq!(std::mem::size_of::<EvidenceRef>(), 56);
        let longest = "res84.iad.rrdns.pch.net";
        assert_eq!(longest.len(), INLINE);
        assert!(matches!(Observation::from(longest).0, Repr::Inline(_)));
        let long = Observation::from_display(format_args!("wrong-source({})", "2001:db8::53"));
        assert!(matches!(long.0, Repr::Shared(_)));
        assert_eq!(long, "wrong-source(2001:db8::53)");
        // Text grown past the inline capacity piece by piece stays whole.
        let mut grown = Observation::from("res84.iad.rrdns");
        grown.write_str(".pch.net").unwrap();
        assert!(matches!(grown.0, Repr::Inline(_)));
        grown.write_str("/é").unwrap();
        assert_eq!(grown.as_str(), "res84.iad.rrdns.pch.net/é");
        assert_eq!(grown, Observation::from("res84.iad.rrdns.pch.net/é"));
        // Printing pads like a string and quotes like one.
        assert_eq!(format!("[{:<6}]", Observation::from("IAD")), "[IAD   ]");
        assert_eq!(format!("{:?}", Observation::from("IAD")), r#""IAD""#);
        assert_eq!(serde_json::to_string(&Observation::from("IAD")).unwrap(), r#""IAD""#);
    }

    #[test]
    fn verdicts_print_their_frozen_text_and_read_it_back() {
        for verdict in Verdict::FIXED.into_iter().chain([Verdict::SourceMismatch { count: 16 }]) {
            let text = verdict.to_string();
            assert_eq!(Verdict::parse(&text), Some(verdict), "{text}");
        }
        assert_eq!(Verdict::CpeRuledOut.to_string(), "CPE ruled out");
        assert_eq!(
            Verdict::Transparency(Transparency::StatusModified).to_string(),
            "Status Modified"
        );
        assert_eq!(
            Verdict::SourceMismatch { count: 3 }.to_string(),
            "3 response(s) from unexpected source"
        );
        assert_eq!(Verdict::parse("intercepted?"), None);
    }

    #[test]
    fn seq_sets_hold_seqs_below_64_in_order() {
        let set: SeqSet = [63, 0, 17, 5].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 5, 17, 63]);
        assert_eq!(set.len(), 4);
        assert!(std::panic::catch_unwind(|| SeqSet::default().insert(SeqSet::CAPACITY)).is_err());
    }

    #[test]
    fn source_check_citations_show_the_wrong_source_reply() {
        // Query 1 drew a wrong-source reply, then its retry was answered:
        // step 1 cites the answer, the source check the mismatch.
        let p = Provenance {
            evidence: vec![evidence(0, "IAD"), evidence(1, "IAD")],
            wrong_source: vec![(1, "9.9.9.9".parse().unwrap())],
            step1: Some(StepProvenance {
                verdict: Verdict::NotIntercepted,
                cited: [0, 1].into_iter().collect(),
            }),
            source_check: Some(StepProvenance {
                verdict: Verdict::SourceMismatch { count: 1 },
                cited: [1].into_iter().collect(),
            }),
            ..Provenance::default()
        };
        let step1: Vec<_> = p.cited(p.step1.as_ref().unwrap()).iter().collect();
        assert_eq!(step1, vec![evidence(0, "IAD"), evidence(1, "IAD")]);
        let src: Vec<_> = p.cited(p.source_check.as_ref().unwrap()).iter().collect();
        assert_eq!(src, vec![evidence(1, "wrong-source(9.9.9.9)")]);

        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains(r#""cited":[{"seq":1,"server":"198.51.100.53","txid":4097,"attempts":1,"observed":"wrong-source(9.9.9.9)"}]"#), "{json}");
        let back: Provenance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.wrong_source, p.wrong_source);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
