//! Lock-free campaign metrics.
//!
//! [`MetricsRegistry`] is the campaign-wide aggregation point: every worker
//! thread folds its probe's trace into a [`locator::ProbeMetrics`] and then
//! merges that into the registry's shared atomics through `&self` — no
//! locks, no channels, no per-thread buffers to reconcile. Because every
//! update is a commutative `fetch_add`, the final tallies are identical
//! regardless of thread count or interleaving, which keeps the campaign's
//! headline guarantee: metrics, like reports, are bit-for-bit reproducible.
//!
//! [`snapshot`](MetricsRegistry::snapshot) freezes the registry into a
//! plain-data [`CampaignMetrics`] for JSON output (`repro --metrics`) and
//! the Prometheus exposition (`repro --metrics-prom`). It holds counts
//! only: the campaign's round-trip times are the per-phase histograms of
//! [`TimingRegistry`](crate::TimingRegistry), read at delivery.

use crate::orgs::OrgSpec;
use locator::{InterceptorLocation, ProbeMetrics, ProbeReport, Step, StepMetrics};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters for one pipeline step.
#[derive(Debug, Default)]
struct StepCell {
    queries: AtomicU64,
    responses: AtomicU64,
    timeouts: AtomicU64,
}

/// Shared verdict tallies for one organization (one AS).
#[derive(Debug, Default)]
struct OrgCell {
    clean: AtomicU64,
    cpe: AtomicU64,
    within_isp: AtomicU64,
    beyond_unknown: AtomicU64,
}

/// Lock-free campaign-wide metrics aggregation; see the module docs.
#[derive(Debug)]
pub struct MetricsRegistry {
    steps: Vec<StepCell>,
    retries: AtomicU64,
    attempt_timeouts: AtomicU64,
    dropped_wrong_txid: AtomicU64,
    probes: AtomicU64,
    intercepted: AtomicU64,
    orgs: Vec<OrgCell>,
}

impl MetricsRegistry {
    /// An empty registry with one verdict tally per organization.
    pub fn new(org_count: usize) -> MetricsRegistry {
        MetricsRegistry {
            steps: (0..Step::ALL.len()).map(|_| StepCell::default()).collect(),
            retries: AtomicU64::new(0),
            attempt_timeouts: AtomicU64::new(0),
            dropped_wrong_txid: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            intercepted: AtomicU64::new(0),
            orgs: (0..org_count).map(|_| OrgCell::default()).collect(),
        }
    }

    /// Merges one probe's folded metrics and verdict. Safe to call from
    /// any number of threads concurrently; every update is a relaxed
    /// `fetch_add` (the campaign joins its workers before reading).
    pub fn record(&self, org: usize, report: &ProbeReport, metrics: &ProbeMetrics) {
        for (cell, m) in self.steps.iter().zip(&metrics.steps) {
            cell.queries.fetch_add(m.queries, Ordering::Relaxed);
            cell.responses.fetch_add(m.responses, Ordering::Relaxed);
            cell.timeouts.fetch_add(m.timeouts, Ordering::Relaxed);
        }
        self.retries.fetch_add(metrics.retries, Ordering::Relaxed);
        self.attempt_timeouts.fetch_add(metrics.attempt_timeouts, Ordering::Relaxed);
        self.dropped_wrong_txid.fetch_add(metrics.dropped_wrong_txid, Ordering::Relaxed);
        self.probes.fetch_add(1, Ordering::Relaxed);
        if report.intercepted {
            self.intercepted.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(cell) = self.orgs.get(org) {
            let tally = match report.location {
                None => &cell.clean,
                Some(InterceptorLocation::Cpe) => &cell.cpe,
                Some(InterceptorLocation::WithinIsp) => &cell.within_isp,
                Some(InterceptorLocation::BeyondOrUnknown) => &cell.beyond_unknown,
            };
            tally.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Freezes the registry into plain data. `orgs` must be the catalog the
    /// registry was sized for; organizations that measured no probes are
    /// omitted, so small campaigns produce small JSON.
    pub fn snapshot(&self, orgs: &[OrgSpec]) -> CampaignMetrics {
        let steps = self
            .steps
            .iter()
            .map(|cell| StepMetrics {
                queries: cell.queries.load(Ordering::Relaxed),
                responses: cell.responses.load(Ordering::Relaxed),
                timeouts: cell.timeouts.load(Ordering::Relaxed),
            })
            .collect();
        let per_as = self
            .orgs
            .iter()
            .zip(orgs)
            .filter_map(|(cell, org)| {
                let v = AsVerdicts {
                    org: org.name.clone(),
                    asn: org.asn,
                    clean: cell.clean.load(Ordering::Relaxed),
                    cpe: cell.cpe.load(Ordering::Relaxed),
                    within_isp: cell.within_isp.load(Ordering::Relaxed),
                    beyond_unknown: cell.beyond_unknown.load(Ordering::Relaxed),
                };
                (v.total() > 0).then_some(v)
            })
            .collect();
        CampaignMetrics {
            probes: self.probes.load(Ordering::Relaxed),
            intercepted: self.intercepted.load(Ordering::Relaxed),
            steps,
            retries: self.retries.load(Ordering::Relaxed),
            attempt_timeouts: self.attempt_timeouts.load(Ordering::Relaxed),
            dropped_wrong_txid: self.dropped_wrong_txid.load(Ordering::Relaxed),
            per_as,
        }
    }
}

/// Location-verdict tallies for one AS.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsVerdicts {
    /// Organization name.
    pub org: String,
    /// Autonomous system number.
    pub asn: u32,
    /// Probes with no interception verdict.
    pub clean: u64,
    /// Probes whose interceptor was located at the CPE.
    pub cpe: u64,
    /// Probes located within the ISP.
    pub within_isp: u64,
    /// Probes located beyond the ISP or unlocated.
    pub beyond_unknown: u64,
}

impl AsVerdicts {
    /// Probes this AS measured.
    pub fn total(&self) -> u64 {
        self.clean + self.cpe + self.within_isp + self.beyond_unknown
    }
}

/// A frozen, serializable view of a campaign's metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignMetrics {
    /// Probes measured.
    pub probes: u64,
    /// Probes found intercepted.
    pub intercepted: u64,
    /// Per-step counters, indexed by [`Step::index`].
    pub steps: Vec<StepMetrics>,
    /// Wire attempts beyond each query's first.
    pub retries: u64,
    /// Individual attempts that expired.
    pub attempt_timeouts: u64,
    /// Responses discarded for a wrong transaction ID.
    pub dropped_wrong_txid: u64,
    /// Verdict tallies per AS (organizations with no measured probes are
    /// omitted), in catalog order.
    pub per_as: Vec<AsVerdicts>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orgs::default_catalog;
    use locator::{HijackLocator, MetricsFolder};

    fn measured_metrics() -> (ProbeReport, ProbeMetrics) {
        let built = interception::HomeScenario::xb6_case_study().build();
        let config = built.locator_config();
        let mut transport = interception::SimTransport::new(built);
        let mut folder = MetricsFolder::default();
        let report = HijackLocator::new(config).run_traced(&mut transport, &mut folder);
        (report, folder.finish())
    }

    #[test]
    fn registry_aggregates_per_probe_metrics() {
        let orgs = default_catalog();
        let registry = MetricsRegistry::new(orgs.len());
        let (report, metrics) = measured_metrics();
        registry.record(0, &report, &metrics);
        registry.record(0, &report, &metrics);
        let snap = registry.snapshot(&orgs);
        assert_eq!(snap.probes, 2);
        assert_eq!(snap.intercepted, 2);
        assert_eq!(
            snap.steps[Step::Location.index()].queries,
            2 * metrics.step(Step::Location).queries
        );
        assert_eq!(snap.per_as.len(), 1, "only the measured org appears");
        assert_eq!(snap.per_as[0].org, orgs[0].name);
        assert_eq!(snap.per_as[0].cpe, 2);
        assert_eq!(snap.per_as[0].total(), 2);
    }

    #[test]
    fn concurrent_recording_matches_sequential() {
        let orgs = default_catalog();
        let (report, metrics) = measured_metrics();
        let sequential = MetricsRegistry::new(orgs.len());
        for i in 0..32 {
            sequential.record(i % 4, &report, &metrics);
        }
        let concurrent = MetricsRegistry::new(orgs.len());
        crossbeam::thread::scope(|scope| {
            for chunk in 0..4 {
                let (registry, report, metrics) = (&concurrent, &report, &metrics);
                scope.spawn(move |_| {
                    for i in 0..8 {
                        registry.record((chunk * 8 + i) % 4, report, metrics);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(concurrent.snapshot(&orgs), sequential.snapshot(&orgs));
    }

    #[test]
    fn snapshot_round_trips_through_json_and_renders() {
        let orgs = default_catalog();
        let registry = MetricsRegistry::new(orgs.len());
        let (report, metrics) = measured_metrics();
        registry.record(2, &report, &metrics);
        let snap = registry.snapshot(&orgs);
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: CampaignMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.intercepted, 1);
        assert_eq!(back.per_as[0].org, orgs[2].name);
    }
}
