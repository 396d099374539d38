//! Live campaign telemetry: lock-free scheduler counters a monitor thread
//! can sample while the campaign runs.
//!
//! [`CampaignTelemetry`] is the observation point the work-stealing
//! scheduler updates as workers claim and finish probes: total probes,
//! claim-cursor progress, completions, and per-worker claim (steal)
//! counts. Every update is a relaxed atomic increment on the worker's hot
//! path — no locks, no allocation, no syscalls — so observing a campaign
//! cannot change its schedule, and the measured results stay bit-for-bit
//! identical with telemetry on or off.
//!
//! [`snapshot`](CampaignTelemetry::snapshot) freezes the counters into a
//! plain-data [`ProgressEvent`]. The caller supplies elapsed wall time:
//! this crate never reads a clock, which keeps the library deterministic
//! and leaves pacing policy to the binary (`repro --progress` samples
//! every ~200ms; `--progress-json` logs every sample).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use timing::AtomicHistogram;

/// Shared scheduler counters for one campaign run; see the module docs.
#[derive(Debug)]
pub struct CampaignTelemetry {
    total: AtomicU64,
    claimed: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    worker_claims: Vec<AtomicU64>,
    probe_wall: AtomicHistogram,
}

impl CampaignTelemetry {
    /// Counters for a campaign that will run on up to `workers` workers.
    /// (The campaign clamps its thread count to the probe count; surplus
    /// worker slots simply stay at zero claims.)
    pub fn new(workers: usize) -> CampaignTelemetry {
        CampaignTelemetry {
            total: AtomicU64::new(0),
            claimed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            worker_claims: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            probe_wall: AtomicHistogram::new(),
        }
    }

    /// One probe's wall-clock measurement time, in microseconds. Feeds the
    /// p50/p99 latency the progress ticker renders.
    pub(crate) fn note_probe_us(&self, us: u64) {
        self.probe_wall.record(us);
    }

    /// Announces how many probes the campaign will measure. Called by the
    /// scheduler before the first claim, so a monitor that samples early
    /// renders `0/total`, not `0/0`.
    pub(crate) fn set_total(&self, probes: u64) {
        self.total.store(probes, Ordering::Relaxed);
    }

    /// One batch of `probes` consecutive probes claimed off the shared
    /// cursor by `worker` in a single `fetch_add`.
    pub(crate) fn note_batch(&self, worker: usize, probes: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.claimed.fetch_add(probes, Ordering::Relaxed);
        if let Some(cell) = self.worker_claims.get(worker) {
            cell.fetch_add(probes, Ordering::Relaxed);
        }
    }

    /// One claimed probe fully measured.
    pub(crate) fn note_complete(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Probes measured so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Non-empty batches claimed off the cursor so far. For `n` probes and
    /// batch size `b` this ends at `ceil(n / b)` — whatever the thread
    /// count, every batch is claimed exactly once.
    pub fn batches_claimed(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Freezes the counters into a [`ProgressEvent`]. `elapsed_ms` is the
    /// caller's wall-clock reading; `done` marks the final event of a run.
    pub fn snapshot(&self, elapsed_ms: u64, done: bool) -> ProgressEvent {
        let completed = self.completed.load(Ordering::Relaxed);
        // Fast campaigns can finish inside the monitor's first sampling
        // interval, handing us elapsed_ms == 0 with completed > 0. Clamp
        // the divisor so the rate is always finite — never NaN or inf.
        let probes_per_sec =
            if completed == 0 { 0.0 } else { completed as f64 * 1000.0 / elapsed_ms.max(1) as f64 };
        let wall = self.probe_wall.snapshot();
        ProgressEvent {
            probe_wall_p50_us: wall.value_at_quantile(0.50),
            probe_wall_p99_us: wall.value_at_quantile(0.99),
            elapsed_ms,
            total: self.total.load(Ordering::Relaxed),
            claimed: self.claimed.load(Ordering::Relaxed),
            completed,
            probes_per_sec,
            per_worker_claims: self
                .worker_claims
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            done,
        }
    }
}

/// One sample of a running campaign's progress — the machine-readable
/// record behind `repro --progress-json` and one line of the `--progress`
/// ticker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// Wall-clock milliseconds since the campaign started, as supplied by
    /// the sampling monitor.
    pub elapsed_ms: u64,
    /// Probes the campaign will measure.
    pub total: u64,
    /// Probes claimed off the work-stealing cursor so far.
    pub claimed: u64,
    /// Probes fully measured so far.
    pub completed: u64,
    /// Queue-drain throughput: completions per wall-clock second.
    pub probes_per_sec: f64,
    /// Claim counts per worker, in worker order — the steal balance.
    pub per_worker_claims: Vec<u64>,
    /// Median per-probe measurement wall time so far, µs (0 until the
    /// first probe completes).
    pub probe_wall_p50_us: u64,
    /// 99th-percentile per-probe measurement wall time so far, µs.
    pub probe_wall_p99_us: u64,
    /// `true` on the final event of a run.
    pub done: bool,
}

impl ProgressEvent {
    /// Throughput over the interval since `prev`: completions between the
    /// two samples divided by the wall time between them. Like
    /// [`CampaignTelemetry::snapshot`], the result is always finite — a
    /// zero-length interval is clamped to 1ms, and an interval with no
    /// progress reads as 0.0. Live tickers use this for an instantaneous
    /// rate; `probes_per_sec` stays the whole-run average.
    pub fn interval_probes_per_sec(&self, prev: &ProgressEvent) -> f64 {
        let probes = self.completed.saturating_sub(prev.completed);
        if probes == 0 {
            return 0.0;
        }
        let ms = self.elapsed_ms.saturating_sub(prev.elapsed_ms).max(1);
        probes as f64 * 1000.0 / ms as f64
    }
}

impl fmt::Display for ProgressEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>6.1}s  {}/{} probes ({} claimed)  {:.1}/s  workers [",
            self.elapsed_ms as f64 / 1000.0,
            self.completed,
            self.total,
            self.claimed,
            self.probes_per_sec,
        )?;
        for (i, n) in self.per_worker_claims.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")?;
        if self.probe_wall_p99_us > 0 {
            write!(f, "  p50 {}µs p99 {}µs", self.probe_wall_p50_us, self.probe_wall_p99_us)?;
        }
        if self.done {
            write!(f, "  done")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let t = CampaignTelemetry::new(3);
        t.set_total(5);
        t.note_batch(0, 1);
        t.note_batch(2, 1);
        t.note_complete();
        let ev = t.snapshot(2_000, false);
        assert_eq!(ev.total, 5);
        assert_eq!(ev.claimed, 2);
        assert_eq!(ev.completed, 1);
        assert_eq!(ev.per_worker_claims, vec![1, 0, 1]);
        assert!((ev.probes_per_sec - 0.5).abs() < 1e-9);
        assert!(!ev.done);
        assert_eq!(t.completed(), 1);
        assert_eq!(t.batches_claimed(), 2);
    }

    #[test]
    fn batched_claims_count_every_probe_in_the_batch() {
        let t = CampaignTelemetry::new(2);
        t.set_total(100);
        t.note_batch(0, 32);
        t.note_batch(1, 32);
        t.note_batch(0, 4);
        let ev = t.snapshot(1_000, false);
        assert_eq!(ev.claimed, 68);
        assert_eq!(ev.per_worker_claims, vec![36, 32]);
        assert_eq!(t.batches_claimed(), 3);
    }

    #[test]
    fn out_of_range_worker_still_counts_toward_claims() {
        // The campaign clamps threads to the probe count, so a telemetry
        // sized for fewer workers than the scheduler spawns must not lose
        // the aggregate claim.
        let t = CampaignTelemetry::new(1);
        t.note_batch(7, 1);
        let ev = t.snapshot(0, true);
        assert_eq!(ev.claimed, 1);
        assert_eq!(ev.per_worker_claims, vec![0]);
        assert_eq!(ev.probes_per_sec, 0.0);
        assert!(ev.done);
    }

    #[test]
    fn throughput_is_finite_even_at_zero_elapsed() {
        // A campaign that finishes inside the monitor's first sample must
        // not report NaN or inf — the 0ms reading clamps to 1ms.
        let t = CampaignTelemetry::new(1);
        t.set_total(3);
        for _ in 0..3 {
            t.note_batch(0, 1);
            t.note_complete();
        }
        let ev = t.snapshot(0, true);
        assert!(ev.probes_per_sec.is_finite());
        assert!((ev.probes_per_sec - 3_000.0).abs() < 1e-9);
        let json = serde_json::to_string(&ev).unwrap();
        let back: ProgressEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn interval_rate_is_finite_and_tracks_the_delta() {
        let t = CampaignTelemetry::new(1);
        t.set_total(10);
        t.note_batch(0, 4);
        for _ in 0..4 {
            t.note_complete();
        }
        let first = t.snapshot(1_000, false);
        for _ in 0..2 {
            t.note_batch(0, 1);
            t.note_complete();
        }
        let second = t.snapshot(1_500, false);
        assert!((second.interval_probes_per_sec(&first) - 4.0).abs() < 1e-9);
        // Same timestamp twice (monitor raced the finish): still finite.
        let racing = t.snapshot(1_500, true);
        assert!(racing.interval_probes_per_sec(&second).is_finite());
        assert_eq!(racing.interval_probes_per_sec(&second), 0.0);
        // Progress with no measurable elapsed time clamps to 1ms.
        t.note_complete();
        let instant = t.snapshot(1_500, true);
        assert!((instant.interval_probes_per_sec(&second) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn probe_wall_percentiles_surface_in_snapshots() {
        let t = CampaignTelemetry::new(1);
        let empty = t.snapshot(0, false);
        assert_eq!(empty.probe_wall_p50_us, 0);
        assert!(!empty.to_string().contains("p50"), "no latency shown before any probe");
        for us in 1..=100 {
            t.note_probe_us(us);
        }
        let ev = t.snapshot(10, false);
        assert_eq!(ev.probe_wall_p50_us, 51);
        assert_eq!(ev.probe_wall_p99_us, 99);
        assert!(ev.to_string().contains("p50 51µs p99 99µs"), "{ev}");
    }

    #[test]
    fn progress_event_round_trips_and_renders() {
        let t = CampaignTelemetry::new(2);
        t.set_total(10);
        for _ in 0..4 {
            t.note_batch(0, 1);
            t.note_complete();
        }
        let ev = t.snapshot(1_000, true);
        let json = serde_json::to_string(&ev).unwrap();
        let back: ProgressEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
        let line = ev.to_string();
        assert!(line.contains("4/10 probes"), "{line}");
        assert!(line.contains("4.0/s"), "{line}");
        assert!(line.ends_with("done"), "{line}");
    }
}
