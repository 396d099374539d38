//! The measurement campaign: runs the three-step technique from every
//! responding probe, in parallel, deterministically.
//!
//! Every campaign, the open-DNS taxonomy scan of [`crate::classify`]
//! included, is one scheduler loop ([`run_work_stealing`]) over one
//! per-probe path: [`WorkerArena::build`] builds the probe's world, the
//! locator (or the classifier) runs in it, and [`WorkerArena::finish`]
//! hands the world back. The campaign's optional observers — metrics,
//! telemetry, timing — travel together as one [`Observers`] value.
//!
//! Scheduling is work-stealing with **batched claims**: workers take the
//! next [`CampaignOptions::batch_size`] unmeasured probes per `fetch_add`
//! on a shared atomic cursor instead of one probe (or a fixed chunk) at a
//! time. Probe costs are heavily skewed — intercepted probes run extra
//! pipeline steps, flaky probes burn retry backoff — so static chunks
//! leave most workers idle while one drags the tail, and one-probe claims
//! bounce the cursor cache line between cores on every measurement.
//! Batches amortize the contention to one shared write per N probes while
//! staying fine-grained enough to keep the tail balanced.
//!
//! Each worker carries a [`WorkerArena`] from probe to probe: the warm
//! [`QueryEncoder`] scratch plus the recycled simulator containers
//! ([`netsim::SimScratch`]), so a million-probe campaign builds a million
//! worlds into a handful of steady-state allocations per worker instead of
//! growing each world from zero.
//!
//! Results are keyed by claim index and merged after the joins, so output
//! stays ordered by probe id and bitwise identical across thread counts
//! *and* batch sizes. For campaigns too large to hold every
//! [`ProbeReport`], [`run_campaign_streaming`] folds each result into a
//! per-worker [`AggregateReport`] the moment it is measured and merges the
//! per-worker partials at the end — memory stays constant in fleet size,
//! and because every aggregate counter is a commutative sum, the merged
//! aggregate is identical to the collect-then-aggregate path bit for bit.

use crate::aggregate::AggregateReport;
use crate::fleet::{scenario_for, Fleet, ProbeSpec};
use crate::metrics::MetricsRegistry;
use crate::raw::{RawMeasurement, RecordingTransport};
use crate::telemetry::CampaignTelemetry;
use crate::timing::{TimingRegistry, WALL_PROBE_TOTAL, WALL_WORLD_BUILD};
use crossbeam::thread;
use dns_wire::QueryEncoder;
use interception::{
    GroundTruth, HomeScenario, ProbeTimingLog, QueryFlow, SimTransport, WorldTemplate,
};
use locator::{HijackLocator, LocatorConfig, MetricsFolder, ProbeReport, QueryTransport};
use netsim::SimScratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use timing::Span;

/// Scheduling knobs for one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Worker threads (clamped to the responding-probe count).
    pub threads: usize,
    /// Probes claimed per `fetch_add` on the shared cursor. Larger batches
    /// mean fewer contended atomic writes; smaller batches balance a
    /// heavy-tail fleet better. The default suits both: the repository
    /// benchmark measures ~44µs of CPU per census probe (one worker, a
    /// shared 2-vCPU x86-64 host), so a batch of
    /// [`CampaignOptions::DEFAULT_BATCH`] costs ~1.4ms — long enough to
    /// amortize the claim, short enough that no worker drags a meaningful
    /// tail. Clamped to at least 1.
    pub batch_size: usize,
}

impl CampaignOptions {
    /// Default probes-per-claim; see [`CampaignOptions::batch_size`].
    pub const DEFAULT_BATCH: usize = 32;

    /// Options for `threads` workers with the default batch size.
    pub fn new(threads: usize) -> CampaignOptions {
        CampaignOptions { threads, batch_size: CampaignOptions::DEFAULT_BATCH }
    }
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions::new(1)
    }
}

/// A campaign's optional observers, carried together from the entry point
/// to every worker and probe. None of them changes a result, and an absent
/// one costs nothing: no clock read, no log, no atomic update.
#[derive(Clone, Copy, Default)]
pub(crate) struct Observers<'o> {
    /// Per-probe metrics and the scheduler totals.
    pub(crate) metrics: Option<&'o MetricsRegistry>,
    /// Live claim and completion counters, and per-probe wall time.
    pub(crate) telemetry: Option<&'o CampaignTelemetry>,
    /// Virtual-clock RTT and wall-clock phase histograms.
    pub(crate) timing: Option<&'o TimingRegistry>,
}

impl Observers<'_> {
    /// One probe's wall time, read once, into both observers that keep it:
    /// the telemetry ticker's latency and the `probe-total` histogram.
    fn note_probe_us(&self, us: u64) {
        if let Some(t) = self.telemetry {
            t.note_probe_us(us);
        }
        if let Some(t) = self.timing {
            t.wall().record_us(WALL_PROBE_TOTAL, us);
        }
    }
}

/// Per-worker reusable state, carried from probe to probe: the shared
/// world template, the warm [`QueryEncoder`] (the fixed location-query set
/// is encoded once per worker, not per probe), the recycled simulator
/// containers (each probe's world is built into the previous world's
/// allocations) and the recycled timing log.
pub(crate) struct WorkerArena {
    template: Arc<WorldTemplate>,
    encoder: QueryEncoder,
    scratch: SimScratch,
    /// Created on the first timed probe, cleared and reused for every
    /// probe after — so timed steady-state recording allocates nothing.
    timing_log: Option<Box<ProbeTimingLog>>,
}

impl WorkerArena {
    /// A cold arena; it warms up over the worker's first probe.
    pub(crate) fn new() -> WorkerArena {
        WorkerArena {
            template: WorldTemplate::shared(),
            encoder: QueryEncoder::new(),
            scratch: SimScratch::default(),
            timing_log: None,
        }
    }

    /// The first half of the per-probe path: builds `scenario`'s world
    /// into the arena's recycled containers (under the `world-build` span
    /// when `timing` is on) and wraps it in a transport carrying the
    /// arena's warm encoder and, when `timing` is on, its timing log.
    /// Returns the transport and the probe's locator config, with the
    /// fleet's retry policy applied.
    pub(crate) fn build(
        &mut self,
        fleet: &Fleet,
        scenario: &HomeScenario,
        timing: Option<&TimingRegistry>,
    ) -> (SimTransport, LocatorConfig) {
        let built = {
            let _build_span = Span::maybe(timing.map(|t| t.wall().histogram(WALL_WORLD_BUILD)));
            scenario.build_with_scratch(&self.template, std::mem::take(&mut self.scratch))
        };
        let mut config = built.locator_config();
        config.query_options.attempts = fleet.config.attempts;
        config.query_options.retry_backoff_ms = fleet.config.retry_backoff_ms;
        let mut transport = SimTransport::with_encoder(built, std::mem::take(&mut self.encoder));
        if timing.is_some() {
            let log = self.timing_log.take().unwrap_or_else(|| Box::new(ProbeTimingLog::new()));
            transport.attach_timing(log);
        }
        (transport, config)
    }

    /// The second half: takes the warm encoder back, folds the timing log
    /// into `timing` against the probe's `report` and keeps the log for the
    /// next probe, then moves the ground truth out — nothing is cloned —
    /// and tears the spent simulator back down into reusable capacity.
    pub(crate) fn finish(
        &mut self,
        mut transport: SimTransport,
        report: &ProbeReport,
        timing: Option<&TimingRegistry>,
    ) -> GroundTruth {
        self.encoder = transport.take_encoder();
        if let (Some(t), Some(mut log)) = (timing, transport.take_timing()) {
            t.fold_probe(report, &log);
            log.clear();
            self.timing_log = Some(log);
        }
        let truth = transport.scenario.truth;
        self.scratch = transport.scenario.sim.into_scratch();
        truth
    }
}

/// The outcome of measuring one probe. Borrows its [`ProbeSpec`] from the
/// fleet rather than cloning it: a 10k-probe campaign allocates reports,
/// not another copy of the fleet.
#[derive(Debug, Clone)]
pub struct ProbeResult<'a> {
    /// The probe that was measured.
    pub probe: &'a ProbeSpec,
    /// The locator's report.
    pub report: ProbeReport,
    /// Simulator ground truth.
    pub truth: GroundTruth,
    /// What the technique was expected to conclude.
    pub expected: Option<locator::InterceptorLocation>,
}

/// Runs the full campaign and collects every probe's result, ordered by
/// probe id. The computation is embarrassingly parallel and each probe's
/// world is seeded independently, so results are bitwise identical for
/// every `(threads, batch_size)` pair.
///
/// Each observer is optional and none changes a result: `metrics`
/// aggregates per-probe metrics and the scheduler totals (commutative
/// counters, so thread-count invariant too), `telemetry` counts claims and
/// completions live for a progress monitor, and `timing` folds each
/// probe's RTT and wall-clock phase samples.
pub fn run_campaign<'a>(
    fleet: &'a Fleet,
    options: CampaignOptions,
    metrics: Option<&MetricsRegistry>,
    telemetry: Option<&CampaignTelemetry>,
    timing: Option<&TimingRegistry>,
) -> Vec<ProbeResult<'a>> {
    let observers = Observers { metrics, telemetry, timing };
    run_collected(fleet, options, observers, |probe, arena| {
        measure(fleet, probe, arena, observers, false).0
    })
}

/// [`run_campaign`] with the packet-level flight recorder on: every
/// probe's simulator captures each hop, and the events are reconstructed
/// into per-query [`QueryFlow`] timelines returned alongside the result.
/// The capture path draws no randomness and schedules nothing, so reports,
/// metrics and virtual-clock timings are bitwise identical to an
/// uncaptured run.
pub fn run_campaign_captured<'a>(
    fleet: &'a Fleet,
    options: CampaignOptions,
    metrics: Option<&MetricsRegistry>,
    telemetry: Option<&CampaignTelemetry>,
    timing: Option<&TimingRegistry>,
) -> Vec<(ProbeResult<'a>, Vec<QueryFlow>)> {
    let observers = Observers { metrics, telemetry, timing };
    run_collected(fleet, options, observers, |probe, arena| {
        measure(fleet, probe, arena, observers, true)
    })
}

/// Runs the campaign without ever holding more than one [`ProbeResult`]
/// per worker: each result is folded into the worker's private
/// [`AggregateReport`] the moment it is measured, and the per-worker
/// partials are merged when the workers join. Campaign memory is therefore
/// constant in fleet size — this is the entry point for million-probe
/// runs, where a collect-all `Vec<ProbeResult>` would not fit.
///
/// Every aggregate counter is a commutative, order-independent sum, so the
/// returned aggregate is bitwise identical to aggregating the output of
/// [`run_campaign`] — at any thread count or batch size.
pub fn run_campaign_streaming(
    fleet: &Fleet,
    options: CampaignOptions,
    registry: Option<&MetricsRegistry>,
    telemetry: Option<&CampaignTelemetry>,
) -> AggregateReport {
    run_campaign_timed(fleet, options, registry, telemetry, None)
}

/// [`run_campaign_streaming`] with the latency observer attached: every
/// probe's virtual-clock RTTs and wall-clock phase durations fold into
/// `timing` as workers finish. Virtual-clock histograms are commutative
/// sums of per-query samples, so — like the aggregate itself — they are
/// bitwise identical at every `(threads, batch_size)` pair. With `timing`
/// absent this *is* [`run_campaign_streaming`]: no clock reads, no logs.
pub fn run_campaign_timed(
    fleet: &Fleet,
    options: CampaignOptions,
    registry: Option<&MetricsRegistry>,
    telemetry: Option<&CampaignTelemetry>,
    timing: Option<&TimingRegistry>,
) -> AggregateReport {
    let observers = Observers { metrics: registry, telemetry, timing };
    let partials = run_work_stealing(
        fleet,
        options,
        observers,
        |probe, arena| measure(fleet, probe, arena, observers, false).0,
        AggregateReport::new,
        |acc, _idx, result| acc.fold(fleet, &result),
    );
    let mut merged = AggregateReport::new();
    for partial in partials {
        merged.merge(partial);
    }
    merged
}

/// Measures a single probe.
pub fn measure_probe<'a>(fleet: &Fleet, probe: &'a ProbeSpec) -> ProbeResult<'a> {
    measure(fleet, probe, &mut WorkerArena::new(), Observers::default(), false).0
}

/// Measures a single probe while archiving every query/response byte —
/// the raw dataset a real measurement study publishes. The locator runs
/// over a [`RecordingTransport`] wrapped around the campaign's per-probe
/// path, so the report is the one [`measure_probe`] returns.
pub fn measure_probe_archived<'a>(
    fleet: &Fleet,
    probe: &'a ProbeSpec,
) -> (ProbeResult<'a>, RawMeasurement) {
    let mut arena = WorkerArena::new();
    let (transport, config) = arena.build(fleet, &scenario_for(fleet, probe), None);
    let expected = transport.scenario.expected;
    let mut recording = RecordingTransport::new(transport);
    let report = run_locator(config, &mut recording, None, probe.org);
    let (transport, measurement) = recording.into_parts();
    let truth = arena.finish(transport, &report, None);
    (ProbeResult { probe, report, truth, expected }, measurement)
}

/// The per-probe path of every measurement campaign: build the probe's
/// world on the worker's arena, run the locator (metered when `observers`
/// carries metrics), hand the world back. With `capture` on, the flight
/// recorder runs too and the probe's per-query hop timelines come back
/// with the result; otherwise the flows are empty.
fn measure<'a>(
    fleet: &Fleet,
    probe: &'a ProbeSpec,
    arena: &mut WorkerArena,
    observers: Observers,
    capture: bool,
) -> (ProbeResult<'a>, Vec<QueryFlow>) {
    let (mut transport, config) = arena.build(fleet, &scenario_for(fleet, probe), observers.timing);
    let expected = transport.scenario.expected;
    if capture {
        transport.enable_capture();
    }
    let report = run_locator(config, &mut transport, observers.metrics, probe.org);
    let flows = if capture { transport.take_flows() } else { Vec::new() };
    let truth = arena.finish(transport, &report, observers.timing);
    (ProbeResult { probe, report, truth, expected }, flows)
}

/// Runs the locator over any transport, recording metrics when asked.
/// Shared by the live and archiving paths so both always measure — and
/// meter — identically.
fn run_locator<T: QueryTransport>(
    config: LocatorConfig,
    transport: &mut T,
    registry: Option<&MetricsRegistry>,
    org: usize,
) -> ProbeReport {
    match registry {
        None => HijackLocator::new(config).run(transport),
        Some(registry) => {
            let mut folder = MetricsFolder::default();
            let report = HijackLocator::new(config).run_traced(transport, &mut folder);
            registry.record(org, &report, &folder.finish());
            report
        }
    }
}

/// The batched work-stealing scheduler, generic over what a worker does
/// per probe (`per_probe`) and what it accumulates (`init` / `fold`).
/// Returns one accumulator per worker, in worker order.
///
/// There is one worker body: claim the next `batch_size` unmeasured
/// probes per `fetch_add` on a shared cursor, measure each on a warm
/// [`WorkerArena`], fold the result into a private accumulator, repeat.
/// One thread runs it inline on the calling thread; more run it under a
/// scope. Either way every probe's wall time is read once, when telemetry
/// or timing wants it, and every batch is claimed exactly once, so
/// telemetry counts `ceil(n / batch_size)` batches at any thread count.
///
/// The claim interleaving depends on timing, but which probes exist and
/// what each one's measurement produces do not — every probe's world is
/// independently seeded — so any fold whose merge is commutative (or any
/// collect keyed by claim index, as in [`run_collected`]) yields output
/// independent of thread count and batch size.
pub(crate) fn run_work_stealing<'a, R, A, F, I, G>(
    fleet: &'a Fleet,
    options: CampaignOptions,
    observers: Observers<'_>,
    per_probe: F,
    init: I,
    fold: G,
) -> Vec<A>
where
    A: Send,
    F: Fn(&'a ProbeSpec, &mut WorkerArena) -> R + Sync,
    I: Fn() -> A + Sync,
    G: Fn(&mut A, usize, R) + Sync,
{
    let responding: Vec<&ProbeSpec> = fleet.responding().collect();
    if responding.is_empty() {
        return Vec::new();
    }
    let telemetry = observers.telemetry;
    if let Some(t) = telemetry {
        t.set_total(responding.len() as u64);
    }
    let batch = options.batch_size.max(1);
    let threads = options.threads.clamp(1, responding.len());
    let clocked = telemetry.is_some() || observers.timing.is_some();
    let cursor = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut arena = WorkerArena::new();
        let mut acc = init();
        loop {
            let start = cursor.fetch_add(batch, Ordering::Relaxed);
            if start >= responding.len() {
                return acc;
            }
            let end = (start + batch).min(responding.len());
            if let Some(t) = telemetry {
                t.note_batch(worker, (end - start) as u64);
            }
            for (idx, &probe) in (start..end).zip(&responding[start..end]) {
                let started = clocked.then(Instant::now);
                let result = per_probe(probe, &mut arena);
                if let Some(started) = started {
                    observers.note_probe_us(started.elapsed().as_micros() as u64);
                }
                fold(&mut acc, idx, result);
                if let Some(t) = telemetry {
                    t.note_complete();
                }
            }
        }
    };
    let partials = if threads == 1 {
        vec![work(0)]
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let work = &work;
                    scope.spawn(move |_| work(worker))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        })
        .expect("campaign scope")
    };
    // Every responding probe is claimed exactly once and completed exactly
    // once, whatever the interleaving: thread-count-invariant totals.
    if let Some(metrics) = observers.metrics {
        let n = responding.len() as u64;
        metrics.record_schedule(n, n);
    }
    partials
}

/// [`run_work_stealing`] collecting every per-probe result: workers keep
/// `(claim index, result)` pairs, and the per-worker batches are merged by
/// claim index after the joins — the responding probes are id-ordered, so
/// the output is too.
pub(crate) fn run_collected<'a, R, F>(
    fleet: &'a Fleet,
    options: CampaignOptions,
    observers: Observers<'_>,
    per_probe: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&'a ProbeSpec, &mut WorkerArena) -> R + Sync,
{
    let batches = run_work_stealing(
        fleet,
        options,
        observers,
        per_probe,
        Vec::new,
        |out: &mut Vec<(usize, R)>, idx, result| out.push((idx, result)),
    );
    let mut slots: Vec<Option<R>> =
        batches.iter().flatten().map(|_| None).collect();
    for batch in batches {
        for (idx, result) in batch {
            slots[idx] = Some(result);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every claimed index yields a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{generate, FleetConfig};
    use std::sync::OnceLock;

    fn tiny_fleet() -> &'static Fleet {
        static FLEET: OnceLock<Fleet> = OnceLock::new();
        FLEET.get_or_init(|| generate(FleetConfig { size: 120, ..FleetConfig::default() }))
    }

    fn tiny_campaign(threads: usize) -> Vec<ProbeResult<'static>> {
        run_campaign(tiny_fleet(), CampaignOptions::new(threads), None, None, None)
    }

    #[test]
    fn campaign_measures_every_responding_probe() {
        let fleet = generate(FleetConfig { size: 120, ..FleetConfig::default() });
        let results = run_campaign(&fleet, CampaignOptions::new(4), None, None, None);
        assert_eq!(results.len(), fleet.responding().count());
        // Ordered by id.
        for pair in results.windows(2) {
            assert!(pair[0].probe.id < pair[1].probe.id);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let a = tiny_campaign(1);
        let b = tiny_campaign(7);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.probe.id, rb.probe.id);
            assert_eq!(ra.report, rb.report);
        }
    }

    #[test]
    fn metered_campaign_changes_no_report_and_aggregates_every_probe() {
        let fleet = tiny_fleet();
        let registry = MetricsRegistry::new(fleet.config.orgs.len());
        let metered = run_campaign(fleet, CampaignOptions::new(4), Some(&registry), None, None);
        let plain = tiny_campaign(4);
        assert_eq!(metered.len(), plain.len());
        for (a, b) in metered.iter().zip(&plain) {
            assert_eq!(a.report, b.report, "metering must not change probe {}", a.probe.id);
        }
        let snap = registry.snapshot(&fleet.config.orgs);
        assert_eq!(snap.probes as usize, metered.len());
        assert_eq!(
            snap.intercepted as usize,
            metered.iter().filter(|r| r.report.intercepted).count()
        );
        let total_queries: u64 =
            metered.iter().map(|r| r.report.queries_sent as u64).sum();
        let counted: u64 = snap.steps.iter().map(|s| s.queries).sum();
        assert_eq!(counted, total_queries);
        // Location-step latency histograms fill in (sim clocks run).
        assert!(snap.steps[locator::Step::Location.index()].latency.count() > 0);
    }

    #[test]
    fn metered_aggregation_is_thread_count_invariant() {
        let fleet = tiny_fleet();
        let snapshot = |threads: usize| {
            let registry = MetricsRegistry::new(fleet.config.orgs.len());
            run_campaign(fleet, CampaignOptions::new(threads), Some(&registry), None, None);
            registry.snapshot(&fleet.config.orgs)
        };
        assert_eq!(snapshot(1), snapshot(7));
    }

    #[test]
    fn observed_campaign_counts_every_probe_and_changes_nothing() {
        let fleet = tiny_fleet();
        let telemetry = CampaignTelemetry::new(4);
        let observed = run_campaign(fleet, CampaignOptions::new(4), None, Some(&telemetry), None);
        let plain = tiny_campaign(4);
        assert_eq!(observed.len(), plain.len());
        for (a, b) in observed.iter().zip(&plain) {
            assert_eq!(a.report, b.report, "telemetry must not change probe {}", a.probe.id);
        }
        let n = observed.len() as u64;
        let ev = telemetry.snapshot(1_000, true);
        assert_eq!(ev.total, n);
        assert_eq!(ev.claimed, n);
        assert_eq!(ev.completed, n);
        assert_eq!(ev.per_worker_claims.iter().sum::<u64>(), n);
        // Every worker slot exists even if the clamp idled some.
        assert_eq!(ev.per_worker_claims.len(), 4);
    }

    #[test]
    fn single_thread_inline_path_still_feeds_telemetry() {
        let fleet = tiny_fleet();
        let telemetry = CampaignTelemetry::new(1);
        let results = run_campaign(fleet, CampaignOptions::new(1), None, Some(&telemetry), None);
        let ev = telemetry.snapshot(0, true);
        assert_eq!(ev.completed, results.len() as u64);
        assert_eq!(ev.per_worker_claims, vec![results.len() as u64]);
    }

    #[test]
    fn captured_campaign_matches_uncaptured_reports_and_yields_flows() {
        let fleet = tiny_fleet();
        let registry = MetricsRegistry::new(fleet.config.orgs.len());
        let options = CampaignOptions::new(4);
        let captured = run_campaign_captured(fleet, options, Some(&registry), None, None);
        let plain_registry = MetricsRegistry::new(fleet.config.orgs.len());
        let plain = run_campaign(fleet, options, Some(&plain_registry), None, None);
        assert_eq!(captured.len(), plain.len());
        for ((a, flows), b) in captured.iter().zip(&plain) {
            assert_eq!(a.report, b.report, "capture must not change probe {}", a.probe.id);
            assert_eq!(a.truth, b.truth);
            assert!(!flows.is_empty(), "probe {} recorded no flows", a.probe.id);
            // The probe's own transactions open at the probe host; other
            // flows (e.g. a CPE's re-keyed upstream forward) may start at
            // the device that minted them.
            assert!(
                flows.iter().any(|f| f.hops.first().is_some_and(|h| h.node == "probe")),
                "probe {} has no flow starting at the probe host",
                a.probe.id
            );
        }
        // Metrics — scheduler totals included — are identical too.
        assert_eq!(
            registry.snapshot(&fleet.config.orgs),
            plain_registry.snapshot(&fleet.config.orgs)
        );
    }

    #[test]
    fn captured_flows_are_thread_count_invariant() {
        let fleet = tiny_fleet();
        let one = run_campaign_captured(fleet, CampaignOptions::new(1), None, None, None);
        let many = run_campaign_captured(fleet, CampaignOptions::new(7), None, None, None);
        assert_eq!(one.len(), many.len());
        for ((a, fa), (b, fb)) in one.iter().zip(&many) {
            assert_eq!(a.probe.id, b.probe.id);
            assert_eq!(a.report, b.report);
            assert_eq!(fa, fb, "probe {} hop timelines diverged", a.probe.id);
        }
    }

    #[test]
    fn campaign_folds_scheduler_totals_into_metrics() {
        let fleet = tiny_fleet();
        let registry = MetricsRegistry::new(fleet.config.orgs.len());
        let results = run_campaign(fleet, CampaignOptions::new(4), Some(&registry), None, None);
        let snap = registry.snapshot(&fleet.config.orgs);
        assert_eq!(snap.probes_claimed, results.len() as u64);
        assert_eq!(snap.probes_completed, results.len() as u64);
        // The per-probe path meters the probe but leaves the scheduler
        // totals untouched.
        let solo = MetricsRegistry::new(fleet.config.orgs.len());
        let observers = Observers { metrics: Some(&solo), ..Observers::default() };
        let probe = fleet.responding().next().unwrap();
        measure(fleet, probe, &mut WorkerArena::new(), observers, false);
        let snap = solo.snapshot(&fleet.config.orgs);
        assert_eq!(snap.probes, 1);
        assert_eq!(snap.probes_claimed, 0);
        assert_eq!(snap.probes_completed, 0);
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped_and_identical() {
        // More workers than probes must neither deadlock nor change output.
        let fleet = generate(FleetConfig { size: 24, ..FleetConfig::default() });
        let few = run_campaign(&fleet, CampaignOptions::new(1), None, None, None);
        let many = run_campaign(&fleet, CampaignOptions::new(64), None, None, None);
        assert_eq!(few.len(), many.len());
        for (a, b) in few.iter().zip(&many) {
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn archived_measurement_matches_live_report() {
        let fleet = generate(FleetConfig { size: 60, ..FleetConfig::default() });
        let probe = fleet.responding().next().unwrap();
        let live = measure_probe(&fleet, probe);
        let (archived, measurement) = measure_probe_archived(&fleet, probe);
        assert_eq!(live.report, archived.report);
        assert_eq!(measurement.records.len() as u32, live.report.wire_attempts);
    }

    #[test]
    fn retries_shrink_timeout_cells_without_changing_verdicts() {
        // The acceptance experiment: same fleet, same seeds, attempts=1 vs
        // attempts=3. Retries rescue flaky probes' lost queries (fewer
        // Timeout cells) but never flip an interception verdict — quota
        // probes are loss-free, so their wire traffic is identical.
        let base = FleetConfig { size: 300, flaky_rate: 0.25, ..FleetConfig::default() };
        let fleet_single = generate(base.clone());
        let fleet_retried = generate(FleetConfig { attempts: 3, ..base });
        let options = CampaignOptions::new(4);
        let single = run_campaign(&fleet_single, options, None, None, None);
        let retried = run_campaign(&fleet_retried, options, None, None, None);
        let timeout_cells = |results: &[ProbeResult]| -> usize {
            results
                .iter()
                .flat_map(|r| {
                    r.report.matrix.v4.iter().chain(r.report.matrix.v6.iter()).map(|(_, c)| c)
                })
                .filter(|c| matches!(c, locator::LocationTestResult::Timeout))
                .count()
        };
        let before = timeout_cells(&single);
        let after = timeout_cells(&retried);
        assert!(before > 0, "flaky probes should time out somewhere at attempts=1");
        assert!(after < before, "retries should rescue timeouts: {after} !< {before}");
        assert_eq!(single.len(), retried.len());
        for (a, b) in single.iter().zip(&retried) {
            assert_eq!(a.probe.id, b.probe.id);
            if a.probe.flavor.intercepts() {
                assert_eq!(
                    a.report.location, b.report.location,
                    "quota probe {} changed verdict",
                    a.probe.id
                );
                // An interceptor that *drops* queries still times out on
                // every extra attempt, so only the attempt counters may
                // differ — all evidence and verdicts are identical.
                assert_eq!(a.report.matrix, b.report.matrix);
                assert_eq!(a.report.intercepted, b.report.intercepted);
                assert_eq!(a.report.cpe, b.report.cpe);
                assert_eq!(a.report.bogon, b.report.bogon);
                assert_eq!(a.report.transparency, b.report.transparency);
                assert_eq!(a.report.queries_sent, b.report.queries_sent);
            }
            // Retries can only add evidence, never remove it: nothing that
            // was intercepted at attempts=1 reads clean at attempts=3.
            if a.report.intercepted {
                assert!(b.report.intercepted);
            }
        }
    }

    #[test]
    fn attempts_one_is_bitwise_identical_to_the_default_pipeline() {
        // attempts=1 *is* the single-shot pipeline: an explicit retry
        // budget of one reproduces the default configuration bit for bit,
        // flaky probes included.
        let fleet_default = generate(FleetConfig { size: 150, flaky_rate: 0.3, ..FleetConfig::default() });
        let fleet_explicit = generate(FleetConfig {
            size: 150,
            flaky_rate: 0.3,
            attempts: 1,
            retry_backoff_ms: 40,
            ..FleetConfig::default()
        });
        let options = CampaignOptions::new(4);
        let a = run_campaign(&fleet_default, options, None, None, None);
        let b = run_campaign(&fleet_explicit, options, None, None, None);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.report, rb.report);
        }
    }

    #[test]
    fn intercepted_truth_implies_detection_for_quota_probes() {
        // Every interceptor the fleet plants is of a kind the technique
        // detects (quota probes never time out), so truth and report agree
        // on the binary question.
        let fleet = generate(FleetConfig { size: 2_000, ..FleetConfig::default() });
        let results = run_campaign(&fleet, CampaignOptions::new(8), None, None, None);
        for r in &results {
            if r.truth.intercepted() {
                assert!(r.report.intercepted, "probe {} flavor {:?}", r.probe.id, r.probe.flavor);
            }
        }
    }
}
