//! Campaign-wide latency aggregation.
//!
//! A [`TimingRegistry`] is the timing counterpart of [`MetricsRegistry`]
//! (crate::MetricsRegistry): a fixed set of shared [`AtomicHistogram`]s
//! that worker threads fold per-probe [`ProbeTimingLog`]s into through
//! `&self`. Virtual-clock RTTs (from netsim's simulated clock) aggregate
//! per pipeline phase, per location verdict, and per open-DNS taxonomy
//! class; wall-clock durations aggregate per campaign phase (world build,
//! encode, transport attempt, whole probe). Every update is a commutative
//! atomic add, so the virtual-clock histograms are bit-for-bit identical
//! whatever the thread count or batch size — the same invariance contract
//! `AggregateReport` keeps.
//!
//! [`snapshot`](TimingRegistry::snapshot) freezes the registry into a
//! serializable [`CampaignTimings`] (`repro --timings-json`), and
//! [`prometheus_exposition`] renders it — together with the existing
//! [`CampaignMetrics`] counters — as Prometheus text exposition
//! (`repro --metrics-prom`).

use crate::metrics::CampaignMetrics;
use interception::{phase_label, OpenDnsClass, ProbeTimingLog, PHASE_COUNT};
use locator::{InterceptorLocation, ProbeReport, Step};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use timing::{AtomicHistogram, HistogramSnapshot, PhaseTimer, PromWriter};

/// Wall-phase slot: building the scenario world for a probe.
pub const WALL_WORLD_BUILD: usize = 0;
/// Wall-phase slot: encoding one query onto the wire.
pub(crate) const WALL_ENCODE: usize = 1;
/// Wall-phase slot: one transport attempt, inject to outcome.
pub(crate) const WALL_ATTEMPT: usize = 2;
/// Wall-phase slot: one whole probe, world build to verdict.
pub const WALL_PROBE_TOTAL: usize = 3;

const WALL_LABELS: [&str; 4] = ["world-build", "encode", "attempt", "probe-total"];

/// Location-verdict slots for [`TimingRegistry::fold_probe`], in
/// exposition order: not intercepted, then [`InterceptorLocation`] order.
pub(crate) const VERDICT_LABELS: [&str; 4] = ["clean", "cpe", "within-isp", "beyond-or-unknown"];

fn verdict_slot(report: &ProbeReport) -> usize {
    if !report.intercepted {
        return 0;
    }
    match report.location {
        Some(InterceptorLocation::Cpe) => 1,
        Some(InterceptorLocation::WithinIsp) => 2,
        Some(InterceptorLocation::BeyondOrUnknown) | None => 3,
    }
}

/// Lock-free campaign-wide latency histograms; see the module docs.
pub struct TimingRegistry {
    step_rtt: Vec<AtomicHistogram>,
    verdict_rtt: Vec<AtomicHistogram>,
    class_rtt: Vec<AtomicHistogram>,
    wall: PhaseTimer,
    rtt_dropped: AtomicU64,
    wall_dropped: AtomicU64,
}

impl Default for TimingRegistry {
    fn default() -> Self {
        TimingRegistry::new()
    }
}

impl TimingRegistry {
    /// An empty registry with every histogram pre-allocated.
    pub fn new() -> TimingRegistry {
        TimingRegistry {
            step_rtt: (0..PHASE_COUNT).map(|_| AtomicHistogram::new()).collect(),
            verdict_rtt: (0..VERDICT_LABELS.len()).map(|_| AtomicHistogram::new()).collect(),
            class_rtt: (0..OpenDnsClass::ALL.len()).map(|_| AtomicHistogram::new()).collect(),
            wall: PhaseTimer::new(&WALL_LABELS),
            rtt_dropped: AtomicU64::new(0),
            wall_dropped: AtomicU64::new(0),
        }
    }

    /// The wall-clock phase timer (slots `WALL_*`), for spans on the
    /// campaign's own phases.
    pub fn wall(&self) -> &PhaseTimer {
        &self.wall
    }

    /// Folds one probe's timing log into the shared histograms: every
    /// virtual RTT sample lands in its phase histogram and in the
    /// histogram of the verdict the probe's report reached; encode and
    /// attempt wall times land in their wall slots. Safe from any number
    /// of threads concurrently.
    pub fn fold_probe(&self, report: &ProbeReport, log: &ProbeTimingLog) {
        let verdict = &self.verdict_rtt[verdict_slot(report)];
        for sample in &log.rtt {
            if let Some(h) = self.step_rtt.get(sample.phase as usize) {
                h.record(sample.rtt_us);
            }
            verdict.record(sample.rtt_us);
        }
        for &us in &log.encode_us {
            self.wall.record_us(WALL_ENCODE, us);
        }
        for &us in &log.attempt_us {
            self.wall.record_us(WALL_ATTEMPT, us);
        }
        if log.rtt_dropped > 0 {
            self.rtt_dropped.fetch_add(log.rtt_dropped, Ordering::Relaxed);
        }
        if log.wall_dropped > 0 {
            self.wall_dropped.fetch_add(log.wall_dropped, Ordering::Relaxed);
        }
    }

    /// Records one flow-derived virtual RTT under a taxonomy class (the
    /// classification campaign feeds this from the flight recorder's flow
    /// timelines, so intercepted-class and clean-class distributions are
    /// directly comparable).
    pub fn record_class_rtt(&self, class: OpenDnsClass, rtt_us: u64) {
        let slot = OpenDnsClass::ALL.iter().position(|c| *c == class).unwrap_or(0);
        self.class_rtt[slot].record(rtt_us);
    }

    /// Freezes the registry into plain serializable data. Virtual-clock
    /// sections are thread/batch-invariant; wall-clock sections are not
    /// (they measure the host machine).
    pub fn snapshot(&self) -> CampaignTimings {
        let per_phase = (0..PHASE_COUNT)
            .map(|i| NamedHistogram {
                name: phase_label(i).to_string(),
                histogram: self.step_rtt[i].snapshot().snapshot(),
            })
            .collect();
        let per_verdict = VERDICT_LABELS
            .iter()
            .zip(&self.verdict_rtt)
            .map(|(name, h)| NamedHistogram {
                name: (*name).to_string(),
                histogram: h.snapshot().snapshot(),
            })
            .collect();
        let per_class = OpenDnsClass::ALL
            .iter()
            .zip(&self.class_rtt)
            .map(|(class, h)| NamedHistogram {
                name: class.label().to_string(),
                histogram: h.snapshot().snapshot(),
            })
            .collect();
        let wall_phases = self
            .wall
            .snapshots()
            .into_iter()
            .map(|(name, h)| NamedHistogram { name: name.to_string(), histogram: h.snapshot() })
            .collect();
        CampaignTimings {
            schema_version: 1,
            virtual_clock: VirtualTimings {
                unit: "microseconds".to_string(),
                per_phase,
                per_verdict,
                per_class,
                samples_dropped: self.rtt_dropped.load(Ordering::Relaxed),
            },
            wall_clock: WallTimings {
                unit: "microseconds".to_string(),
                per_phase: wall_phases,
                samples_dropped: self.wall_dropped.load(Ordering::Relaxed),
            },
        }
    }
}

/// One labeled histogram snapshot in a [`CampaignTimings`] section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedHistogram {
    /// Stable slot label (phase, verdict, or taxonomy-class name).
    pub name: String,
    /// The frozen histogram.
    pub histogram: HistogramSnapshot,
}

/// The virtual-clock (simulated time) sections of a timing snapshot.
/// Bit-for-bit identical across thread counts and batch sizes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtualTimings {
    /// Unit of every histogram value.
    pub unit: String,
    /// Query RTTs per pipeline phase ([`Step::ALL`] order, then `scan`).
    pub per_phase: Vec<NamedHistogram>,
    /// Query RTTs per location verdict: clean, cpe, within-isp,
    /// beyond-or-unknown.
    pub per_verdict: Vec<NamedHistogram>,
    /// Flow-derived RTTs per open-DNS taxonomy class
    /// ([`OpenDnsClass::ALL`] order).
    pub per_class: Vec<NamedHistogram>,
    /// RTT samples dropped at per-probe buffer capacity.
    pub samples_dropped: u64,
}

/// The wall-clock sections of a timing snapshot. These measure the host
/// machine, so only their schema — not their values — is stable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WallTimings {
    /// Unit of every histogram value.
    pub unit: String,
    /// Durations per campaign phase (`world-build`, `encode`, `attempt`,
    /// `probe-total`).
    pub per_phase: Vec<NamedHistogram>,
    /// Wall samples dropped at per-probe buffer capacity.
    pub samples_dropped: u64,
}

/// A frozen, serializable view of a campaign's latency distributions
/// (`repro --timings-json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignTimings {
    /// Layout version of this document.
    pub schema_version: u32,
    /// Simulated-clock distributions (thread/batch-invariant).
    pub virtual_clock: VirtualTimings,
    /// Host-clock distributions (schema-stable only).
    pub wall_clock: WallTimings,
}

impl CampaignTimings {
    /// The virtual-clock RTT histogram recorded under `name` in
    /// `per_phase`, if any.
    pub fn phase(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.virtual_clock.per_phase.iter().find(|n| n.name == name).map(|n| &n.histogram)
    }

    /// The taxonomy-class RTT histogram recorded under `name`, if any.
    pub fn class(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.virtual_clock.per_class.iter().find(|n| n.name == name).map(|n| &n.histogram)
    }
}

/// Renders campaign counters and latency histograms as Prometheus text
/// exposition (version 0.0.4). Either input may be absent; whatever is
/// present renders in a fixed order, so output is deterministic given
/// deterministic inputs.
pub fn prometheus_exposition(
    metrics: Option<&CampaignMetrics>,
    timing: Option<&TimingRegistry>,
) -> String {
    let mut w = PromWriter::new();
    if let Some(m) = metrics {
        w.header("repro_probes_total", "counter", "Probes measured.");
        w.counter("repro_probes_total", &[], m.probes);
        w.header("repro_intercepted_total", "counter", "Probes found intercepted.");
        w.counter("repro_intercepted_total", &[], m.intercepted);
        w.header("repro_step_queries_total", "counter", "Queries issued per pipeline step.");
        for (step, s) in Step::ALL.iter().zip(&m.steps) {
            w.counter("repro_step_queries_total", &[("step", step.label())], s.queries);
        }
        w.header("repro_step_responses_total", "counter", "Responses accepted per pipeline step.");
        for (step, s) in Step::ALL.iter().zip(&m.steps) {
            w.counter("repro_step_responses_total", &[("step", step.label())], s.responses);
        }
        w.header("repro_step_timeouts_total", "counter", "Query timeouts per pipeline step.");
        for (step, s) in Step::ALL.iter().zip(&m.steps) {
            w.counter("repro_step_timeouts_total", &[("step", step.label())], s.timeouts);
        }
        w.header("repro_retries_total", "counter", "Wire attempts beyond each query's first.");
        w.counter("repro_retries_total", &[], m.retries);
        w.header("repro_attempt_timeouts_total", "counter", "Individual attempts that expired.");
        w.counter("repro_attempt_timeouts_total", &[], m.attempt_timeouts);
        w.header("repro_as_verdicts_total", "counter", "Location verdicts per AS.");
        for v in &m.per_as {
            let asn = v.asn.to_string();
            for (verdict, n) in [
                ("clean", v.clean),
                ("cpe", v.cpe),
                ("within-isp", v.within_isp),
                ("beyond-or-unknown", v.beyond_unknown),
            ] {
                w.counter(
                    "repro_as_verdicts_total",
                    &[("org", &v.org), ("asn", &asn), ("verdict", verdict)],
                    n,
                );
            }
        }
    }
    if let Some(t) = timing {
        w.header(
            "repro_rtt_virtual_microseconds",
            "histogram",
            "Virtual-clock query RTT per pipeline phase.",
        );
        for i in 0..PHASE_COUNT {
            w.histogram(
                "repro_rtt_virtual_microseconds",
                &[("phase", phase_label(i))],
                &t.step_rtt[i].snapshot(),
            );
        }
        w.header(
            "repro_rtt_verdict_microseconds",
            "histogram",
            "Virtual-clock query RTT per location verdict.",
        );
        for (name, h) in VERDICT_LABELS.iter().zip(&t.verdict_rtt) {
            w.histogram("repro_rtt_verdict_microseconds", &[("verdict", name)], &h.snapshot());
        }
        w.header(
            "repro_rtt_class_microseconds",
            "histogram",
            "Flow-derived virtual RTT per open-DNS taxonomy class.",
        );
        for (class, h) in OpenDnsClass::ALL.iter().zip(&t.class_rtt) {
            w.histogram("repro_rtt_class_microseconds", &[("class", class.label())], &h.snapshot());
        }
        w.header("repro_wall_microseconds", "histogram", "Wall-clock duration per campaign phase.");
        for (name, h) in t.wall.snapshots() {
            w.histogram("repro_wall_microseconds", &[("phase", name)], &h);
        }
        w.header(
            "repro_timing_samples_dropped_total",
            "counter",
            "Timing samples discarded at per-probe buffer capacity.",
        );
        w.counter(
            "repro_timing_samples_dropped_total",
            &[("clock", "virtual")],
            t.rtt_dropped.load(Ordering::Relaxed),
        );
        w.counter(
            "repro_timing_samples_dropped_total",
            &[("clock", "wall")],
            t.wall_dropped.load(Ordering::Relaxed),
        );
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_report() -> ProbeReport {
        ProbeReport {
            matrix: Default::default(),
            intercepted: false,
            cpe: None,
            bogon: None,
            location: None,
            transparency: None,
            queries_sent: 0,
            wire_attempts: 0,
            retried_queries: 0,
            provenance: Default::default(),
        }
    }

    #[test]
    fn fold_probe_routes_samples_by_phase_and_verdict() {
        let reg = TimingRegistry::new();
        let mut log = ProbeTimingLog::new();
        log.push_rtt(0, 1_500);
        log.push_rtt(0, 1_600);
        log.push_rtt(7, 40);
        log.push_encode(3);
        log.push_attempt(90);
        let report = clean_report();
        reg.fold_probe(&report, &log);

        let snap = reg.snapshot();
        assert_eq!(snap.phase("location").unwrap().count, 2);
        assert_eq!(snap.phase("scan").unwrap().count, 1);
        assert_eq!(snap.phase("bogon").unwrap().count, 0);
        let clean = &snap.virtual_clock.per_verdict[0];
        assert_eq!(clean.name, "clean");
        assert_eq!(clean.histogram.count, 3, "all RTTs land on the probe's verdict");
        assert_eq!(snap.wall_clock.per_phase[WALL_ENCODE].histogram.count, 1);
        assert_eq!(snap.wall_clock.per_phase[WALL_ATTEMPT].histogram.count, 1);
    }

    #[test]
    fn class_rtts_keep_taxonomy_slots_separate() {
        let reg = TimingRegistry::new();
        reg.record_class_rtt(OpenDnsClass::DnatInterceptor, 120);
        reg.record_class_rtt(OpenDnsClass::Clean, 9_000);
        reg.record_class_rtt(OpenDnsClass::Clean, 11_000);
        let snap = reg.snapshot();
        assert_eq!(snap.class("dnat_interceptor").unwrap().count, 1);
        assert_eq!(snap.class("clean").unwrap().count, 2);
        assert!(snap.class("clean").unwrap().p50 > snap.class("dnat_interceptor").unwrap().p50);
    }

    #[test]
    fn dropped_tallies_accumulate() {
        let reg = TimingRegistry::new();
        let mut log = ProbeTimingLog::new();
        log.rtt_dropped = 3;
        log.wall_dropped = 2;
        reg.fold_probe(&clean_report(), &log);
        reg.fold_probe(&clean_report(), &log);
        let snap = reg.snapshot();
        assert_eq!(snap.virtual_clock.samples_dropped, 6);
        assert_eq!(snap.wall_clock.samples_dropped, 4);
    }

    #[test]
    fn timings_round_trip_through_json() {
        let snap = TimingRegistry::new().snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"virtual_clock\""));
        assert!(json.contains("\"wall_clock\""));
        let back: CampaignTimings = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn exposition_renders_counters_and_histograms() {
        let reg = TimingRegistry::new();
        let mut log = ProbeTimingLog::new();
        log.push_rtt(0, 100);
        reg.fold_probe(&clean_report(), &log);
        let metrics = CampaignMetrics { probes: 5, intercepted: 2, ..Default::default() };
        let text = prometheus_exposition(Some(&metrics), Some(&reg));
        assert!(text.contains("# TYPE repro_probes_total counter\n"));
        assert!(text.contains("repro_probes_total 5\n"));
        assert!(text.contains("repro_intercepted_total 2\n"));
        assert!(text.contains("# TYPE repro_rtt_virtual_microseconds histogram\n"));
        assert!(text.contains("repro_rtt_virtual_microseconds_count{phase=\"location\"} 1\n"));
        assert!(text.contains("repro_timing_samples_dropped_total{clock=\"virtual\"} 0\n"));
    }
}
