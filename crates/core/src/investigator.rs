//! The kitchen-sink investigation: the paper's three-step technique plus
//! every corroborating check this crate implements, in one call with one
//! combined report.
//!
//! `HijackLocator` stays the faithful reproduction of the paper;
//! [`Investigator`] is the tool a downstream operator actually wants: run
//! everything, cross-check the evidence, summarize.

use crate::detector::{HijackLocator, LocatorConfig};
use crate::report::{InterceptorLocation, ProbeReport};
use crate::side_checks::{
    ad_downgrade_check_traced, nxdomain_wildcard_check_traced, AdVerdict, WildcardVerdict,
};
use crate::trace::{NullSink, TraceSink};
use crate::transport::{QueryTransport, TxidSequence};
use crate::ttl_scan::{ttl_scan_traced, TtlScanResult};
use dns_wire::Name;
use serde::{Deserialize, Serialize};

/// Extra checks to run alongside the three-step technique.
#[derive(Debug, Clone)]
pub struct InvestigationConfig {
    /// Core locator configuration.
    pub locator: LocatorConfig,
    /// Run the AD-bit downgrade check against this signed name
    /// (`None` disables).
    pub signed_name: Option<Name>,
    /// Run the NXDOMAIN-wildcard check against this nonexistent name
    /// (`None` disables).
    pub canary_name: Option<Name>,
    /// Run TTL scans up to this hop budget (`None` disables; real hosts
    /// need IP_TTL rights).
    pub ttl_budget: Option<u8>,
}

impl Default for InvestigationConfig {
    fn default() -> Self {
        InvestigationConfig {
            locator: LocatorConfig::default(),
            signed_name: Some("example.com".parse().expect("static name")),
            canary_name: Some(
                "definitely-not-a-real-name.dns-hijack-study.example".parse().expect("static name"),
            ),
            ttl_budget: None,
        }
    }
}

/// Everything an investigation produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Investigation {
    /// The three-step report (the paper's output).
    pub report: ProbeReport,
    /// AD-bit downgrade verdict per intercepted resolver probe, if run.
    pub ad_check: Option<AdVerdict>,
    /// NXDOMAIN-wildcard verdict, if run.
    pub wildcard_check: Option<WildcardVerdict>,
    /// TTL scan toward the first studied resolver, if run.
    pub ttl: Option<TtlScanResult>,
    /// One-line conclusion combining all evidence.
    pub summary: String,
}

/// Runs investigations.
#[derive(Debug, Clone, Default)]
pub struct Investigator {
    config: InvestigationConfig,
}

impl Investigator {
    /// Creates an investigator.
    pub fn new(config: InvestigationConfig) -> Investigator {
        Investigator { config }
    }

    /// Runs the full battery over `transport`.
    pub fn run<T: QueryTransport>(&self, transport: &mut T) -> Investigation {
        self.run_traced(transport, &mut NullSink)
    }

    /// Runs the full battery, delivering structured events — the locator's
    /// and the side checks', under one continuous query numbering — to
    /// `sink`.
    pub fn run_traced<T: QueryTransport, S: TraceSink>(
        &self,
        transport: &mut T,
        sink: &mut S,
    ) -> Investigation {
        let mut locator = HijackLocator::new(self.config.locator.clone());
        let report = locator.run_traced(transport, sink);
        let opts = self.config.locator.query_options;
        // The side checks draw transaction IDs from a block well past the
        // locator's so the two never collide.
        let mut txids = TxidSequence::new(self.config.locator.initial_txid.wrapping_add(0x4000));
        // Their trace numbering, by contrast, continues the locator's.
        let mut seq = report.queries_sent;

        let first_resolver = self.config.locator.resolvers.first();

        // Corroborating checks run against the first studied resolver —
        // if it is intercepted, they see the interceptor; if not, they
        // see the genuine service and stay quiet.
        let ad_check = match (&self.config.signed_name, first_resolver) {
            (Some(name), Some(resolver)) => Some(ad_downgrade_check_traced(
                transport,
                resolver.v4[0],
                name,
                &mut txids,
                opts,
                sink,
                &mut seq,
            )),
            _ => None,
        };
        let wildcard_check = match (&self.config.canary_name, first_resolver) {
            (Some(name), Some(resolver)) => Some(nxdomain_wildcard_check_traced(
                transport,
                resolver.v4[0],
                name,
                &mut txids,
                opts,
                sink,
                &mut seq,
            )),
            _ => None,
        };
        let ttl = match (self.config.ttl_budget, first_resolver) {
            (Some(budget), Some(resolver)) => Some(ttl_scan_traced(
                transport,
                resolver.v4[0],
                &resolver.location_query(),
                budget,
                &mut txids,
                opts,
                sink,
                &mut seq,
            )),
            _ => None,
        };

        let summary = summarize(&report, ad_check, &wildcard_check, &ttl);
        Investigation { report, ad_check, wildcard_check, ttl, summary }
    }
}

fn summarize(
    report: &ProbeReport,
    ad: Option<AdVerdict>,
    wildcard: &Option<WildcardVerdict>,
    ttl: &Option<TtlScanResult>,
) -> String {
    if !report.intercepted {
        return "no interception detected; corroborating checks quiet".into();
    }
    let mut parts = vec![format!(
        "interception detected, located at {}",
        report.location.map(|l| l.to_string()).unwrap_or_else(|| "unknown".into())
    )];
    if let Some(t) = report.transparency {
        parts.push(format!("transparency: {t}"));
    }
    if ad == Some(AdVerdict::Downgraded) {
        parts.push("DNSSEC AD bit stripped".into());
    }
    if let Some(WildcardVerdict::Wildcarded { substituted }) = wildcard {
        parts.push(format!("NXDOMAIN wildcarded to {substituted}"));
    }
    if let Some(scan) = ttl {
        match scan.first_response_ttl {
            Some(1) => parts.push("TTL scan: answered at hop 1 (the CPE)".into()),
            Some(h) => parts.push(format!("TTL scan: first answer at hop {h}")),
            None => {}
        }
    }
    if report.location == Some(InterceptorLocation::Cpe) {
        if let Some(cpe) = &report.cpe {
            if let Some(text) = cpe.cpe_response.text() {
                parts.push(format!("CPE software: {text}"));
            }
        }
    }
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockTransport;

    fn config() -> InvestigationConfig {
        InvestigationConfig {
            locator: LocatorConfig {
                cpe_public_v4: Some("73.22.1.5".parse().unwrap()),
                ..LocatorConfig::default()
            },
            ..InvestigationConfig::default()
        }
    }

    #[test]
    fn clean_investigation_is_quiet() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        let inv = Investigator::new(config()).run(&mut t);
        assert!(!inv.report.intercepted);
        assert!(inv.summary.contains("no interception"));
    }

    #[test]
    fn intercepted_investigation_combines_evidence() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        t.intercept_all_v4_with_forwarder("dnsmasq-2.85");
        t.cpe_version_bind("73.22.1.5".parse().unwrap(), "dnsmasq-2.85");
        // The interceptor resolves the signed name correctly — but the
        // mock (like an alternate resolver) never sets the AD bit.
        t.push_front_rule(
            Some(vec!["1.1.1.1".parse().unwrap()]),
            Some("example.com".parse().unwrap()),
            None,
            crate::mock::Respond::A("93.184.216.34".parse().unwrap()),
        );
        let inv = Investigator::new(config()).run(&mut t);
        assert!(inv.report.intercepted);
        assert!(inv.summary.contains("located at CPE"));
        assert!(inv.summary.contains("dnsmasq-2.85"));
        // The interceptor's answers carry no AD bit.
        assert_eq!(inv.ad_check, Some(AdVerdict::Downgraded));
    }

    #[test]
    fn checks_can_be_disabled() {
        let mut cfg = config();
        cfg.signed_name = None;
        cfg.canary_name = None;
        cfg.ttl_budget = None;
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        let inv = Investigator::new(cfg).run(&mut t);
        assert!(inv.ad_check.is_none());
        assert!(inv.wildcard_check.is_none());
        assert!(inv.ttl.is_none());
    }

    #[test]
    fn investigation_serializes() {
        let mut t = MockTransport::new();
        t.standard_public_resolvers();
        let inv = Investigator::new(config()).run(&mut t);
        let json = serde_json::to_string(&inv).unwrap();
        let back: Investigation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inv);
    }
}
