//! Result types produced by the locator: per-resolver interception matrix,
//! step-2/step-3 evidence, and the final classification.

use crate::resolvers::ResolverKey;
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

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
        observed: String,
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
    /// Resolvers intercepted on IPv4.
    pub fn intercepted_v4(&self) -> Vec<ResolverKey> {
        self.v4.iter().filter(|(_, r)| r.is_intercepted()).map(|(k, _)| k).collect()
    }

    /// Resolvers intercepted on IPv6.
    pub fn intercepted_v6(&self) -> Vec<ResolverKey> {
        self.v6.iter().filter(|(_, r)| r.is_intercepted()).map(|(k, _)| k).collect()
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
    Text(String),
    /// A DNS error status came back (e.g. `NOTIMP`, `NXDOMAIN`).
    Error(String),
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
        observed: String,
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
    /// Summarized observation: an answer payload, an rcode, or `TIMEOUT`.
    pub observed: String,
}

/// One step's verdict plus the responses that justified it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepProvenance {
    /// Human-stable verdict string (frozen by the golden traces).
    pub verdict: String,
    /// The evidence that decided the verdict, in citation order.
    pub cited: Vec<EvidenceRef>,
}

/// The full evidence chain behind a [`ProbeReport`]: which responses
/// flipped which decision, for each step that ran.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Provenance {
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

// Manual impl rather than derived: archives written before provenance
// existed omit the field entirely (read back as `null`), and those must
// keep deserializing — as the empty provenance.
impl Deserialize for Provenance {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Null => Ok(Provenance::default()),
            serde::Value::Object(obj) => Ok(Provenance {
                step1: Deserialize::from_value(serde::__get_field(obj, "step1"))?,
                step2: Deserialize::from_value(serde::__get_field(obj, "step2"))?,
                step3: Deserialize::from_value(serde::__get_field(obj, "step3"))?,
                transparency: Deserialize::from_value(serde::__get_field(obj, "transparency"))?,
                source_check: Deserialize::from_value(serde::__get_field(obj, "source_check"))?,
            }),
            _ => Err(serde::DeError::custom("Provenance: expected object or null")),
        }
    }
}

impl Provenance {
    /// (label, provenance) for every step that ran, in pipeline order.
    pub fn decided_steps(&self) -> Vec<(&'static str, &StepProvenance)> {
        [
            ("step1", self.step1.as_ref()),
            ("step2", self.step2.as_ref()),
            ("step3", self.step3.as_ref()),
            ("transparency", self.transparency.as_ref()),
            ("source_check", self.source_check.as_ref()),
        ]
        .into_iter()
        .filter_map(|(label, p)| p.map(|p| (label, p)))
        .collect()
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
        assert_eq!(m.intercepted_v4(), vec![ResolverKey::Google]);
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
        assert!(LocationTestResult::NonStandard { observed: String::new() }.is_intercepted());
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

    #[test]
    fn provenance_tracks_decided_steps() {
        let mut p = Provenance::default();
        assert!(p.decided_steps().is_empty());
        p.step1 = Some(StepProvenance { verdict: "intercepted".into(), cited: Vec::new() });
        p.step3 = Some(StepProvenance {
            verdict: "answered: interceptor within ISP".into(),
            cited: vec![EvidenceRef {
                seq: 17,
                server: "198.51.100.53".parse().unwrap(),
                txid: 0x1011,
                attempts: 1,
                observed: "A 192.0.2.1".into(),
            }],
        });
        let labels: Vec<_> = p.decided_steps().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["step1", "step3"]);
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
}
