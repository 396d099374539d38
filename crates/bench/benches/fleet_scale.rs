//! Campaign scalability: wall time of the fleet survey as the probe count
//! grows (the pilot study runs ~10k; these sizes keep criterion honest),
//! plus allocator-counted regression gates — the campaign must allocate
//! O(probes), with a constant per-probe cost that does not creep up with
//! fleet size (e.g. by re-cloning fleet-wide state per probe), and the
//! streaming runner must hold no per-probe result.

use atlas_sim::{
    generate, run_campaign, run_campaign_captured, run_campaign_streaming, scenario_for,
    CampaignOptions, FleetConfig,
};
use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use interception::WorldTemplate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations made anywhere in the process, and the bytes live
/// now and at their peak; the gates read deltas around a campaign run.
/// `realloc` is the trait's default (alloc, copy, dealloc), so a growing
/// buffer counts its old and new blocks live together, as they are.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size() as u64;
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(size, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn bench_fleet_sizes(c: &mut Criterion) {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut group = c.benchmark_group("fleet/campaign");
    group.sample_size(10);
    for size in [250usize, 500, 1000, 2000] {
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let fleet = generate(FleetConfig { size, ..FleetConfig::default() });
            let options = CampaignOptions::new(threads);
            b.iter(|| run_campaign(&fleet, options, None, None, None))
        });
    }
    group.finish();
}

fn bench_fleet_generation(c: &mut Criterion) {
    c.bench_function("fleet/generate_10k", |b| {
        b.iter(|| generate(FleetConfig::default()))
    });
}

/// The heavy-tail fleet of `size`: a quarter of the probes are lossy and
/// burn up to three attempts with 40 ms backoff. Quotas are kept, so its
/// interceptors run the later pipeline steps too.
fn heavy_tail(size: usize) -> FleetConfig {
    FleetConfig {
        size,
        flaky_rate: 0.25,
        attempts: 3,
        retry_backoff_ms: 40,
        ..FleetConfig::default()
    }
}

/// A benign-only fleet of `size`: quotas cleared so the household mix —
/// and thus the per-probe query count — is the same at every size.
fn benign(size: usize) -> FleetConfig {
    let mut config = FleetConfig { size, ..FleetConfig::default() };
    for org in &mut config.orgs {
        org.quotas.clear();
    }
    config
}

/// The scheduler on the workload that stresses it most.
fn bench_scheduler_heavy_tail(c: &mut Criterion) {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let fleet = generate(heavy_tail(2000));
    let mut group = c.benchmark_group("fleet/heavy_tail_2000");
    group.sample_size(10);
    group.throughput(Throughput::Elements(fleet.responding().count() as u64));
    let options = CampaignOptions::new(threads);
    group.bench_function("work_stealing", |b| {
        b.iter(|| run_campaign(&fleet, options, None, None, None))
    });
    group.finish();
}

/// Isolates the world-template saving: the same probe worlds, built from
/// the campaign-shared template vs. re-deriving the immutable state
/// (standard-world zones, resolver table, root addresses) per build.
fn bench_world_build(c: &mut Criterion) {
    let fleet = generate(FleetConfig { size: 300, ..FleetConfig::default() });
    let probes: Vec<_> = fleet.responding().take(64).collect();
    let template = WorldTemplate::shared();
    let mut group = c.benchmark_group("scenario/build");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("shared_template", |b| {
        b.iter(|| {
            for probe in &probes {
                black_box(scenario_for(&fleet, probe).build_with(&template));
            }
        })
    });
    group.bench_function("fresh_world", |b| {
        b.iter(|| {
            for probe in &probes {
                let fresh = WorldTemplate::new();
                black_box(scenario_for(&fleet, probe).build_with(&fresh));
            }
        })
    });
    group.finish();
}

/// Allocations and allocated bytes per responding probe of a one-thread
/// campaign over the fleet `config` describes.
fn allocations_per_probe(config: FleetConfig) -> (f64, f64) {
    let fleet = generate(config);
    let probes = fleet.responding().count() as f64;
    let (count0, bytes0) =
        (ALLOCATIONS.load(Ordering::Relaxed), ALLOCATED_BYTES.load(Ordering::Relaxed));
    let results = run_campaign(&fleet, CampaignOptions::new(1), None, None, None);
    let (count1, bytes1) =
        (ALLOCATIONS.load(Ordering::Relaxed), ALLOCATED_BYTES.load(Ordering::Relaxed));
    drop(results);
    ((count1 - count0) as f64 / probes, (bytes1 - bytes0) as f64 / probes)
}

/// The regression gate itself: per-probe allocation cost must not grow
/// with the fleet. `measure_probe` borrowing the spec and moving ground
/// truth (instead of cloning both) keeps this flat; an accidental
/// per-probe clone of anything fleet-sized would fail the ratio check.
/// Absolute per-probe allocation budgets at the 1200-probe point: the
/// measured 103.9 allocations and 14,712 bytes per probe, plus 10%.
/// Regressing past these means a per-query or per-build allocation came
/// back (e.g. re-encoding location queries, rebuilding the resolver table,
/// per-packet payload Vecs, per-query name strings or a device encode
/// scratch regrown per probe); the flatness *ratio* alone would not catch
/// a uniform creep.
/// The steady-state *wire* path itself is pinned to exactly zero by
/// `tests/zero_alloc.rs`; this budget covers the whole probe — world
/// build, verdicts, aggregation — where some setup allocation is real.
const MAX_ALLOCS_PER_PROBE: f64 = 115.0;
const MAX_BYTES_PER_PROBE: f64 = 16_190.0;

fn assert_allocation_flatness() {
    let (small_count, small_bytes) = allocations_per_probe(benign(300));
    let (large_count, large_bytes) = allocations_per_probe(benign(1200));
    eprintln!(
        "allocation flatness: {small_count:.1} allocs/probe ({small_bytes:.0} B) at 300 \
         vs {large_count:.1} allocs/probe ({large_bytes:.0} B) at 1200"
    );
    assert!(
        large_count <= small_count * 1.10,
        "per-probe allocation count grew with fleet size: {small_count:.0} -> {large_count:.0}"
    );
    assert!(
        large_bytes <= small_bytes * 1.10,
        "per-probe allocated bytes grew with fleet size: {small_bytes:.0} -> {large_bytes:.0}"
    );
    assert!(
        large_count <= MAX_ALLOCS_PER_PROBE,
        "per-probe allocation count regressed past the budget: \
         {large_count:.0} > {MAX_ALLOCS_PER_PROBE}"
    );
    assert!(
        large_bytes <= MAX_BYTES_PER_PROBE,
        "per-probe allocated bytes regressed past the budget: \
         {large_bytes:.0} > {MAX_BYTES_PER_PROBE}"
    );
}

/// Per-probe budgets on the heavy-tail fleet at 1,200 probes: the measured
/// 111.9 allocations and 15,943 bytes per responding probe, plus 10%.
/// The benign budgets above never see loss, retries or backoff; these do.
const MAX_HEAVY_TAIL_ALLOCS_PER_PROBE: f64 = 124.0;
const MAX_HEAVY_TAIL_BYTES_PER_PROBE: f64 = 17_540.0;

fn assert_heavy_tail_budget() {
    let (count, bytes) = allocations_per_probe(heavy_tail(1200));
    eprintln!("heavy tail: {count:.1} allocs/probe ({bytes:.0} B) at 1200");
    assert!(
        count <= MAX_HEAVY_TAIL_ALLOCS_PER_PROBE,
        "heavy-tail allocation count regressed past the budget: \
         {count:.1} > {MAX_HEAVY_TAIL_ALLOCS_PER_PROBE} per probe"
    );
    assert!(
        bytes <= MAX_HEAVY_TAIL_BYTES_PER_PROBE,
        "heavy-tail allocated bytes regressed past the budget: \
         {bytes:.0} > {MAX_HEAVY_TAIL_BYTES_PER_PROBE} per probe"
    );
}

/// Per-probe budgets for the capture-enabled campaign on the 300-probe
/// fleet: the measured 199.5 allocations and 160,944 bytes per responding
/// probe, plus 10%. The whole campaign counts, measurement included.
/// Regressing past these means hops went back to per-hop strings, the
/// capture buffer stopped being recycled through `SimScratch`, or flow
/// reconstruction re-parsed messages into owned ones.
const MAX_CAPTURE_ALLOCS_PER_PROBE: f64 = 220.0;
const MAX_CAPTURE_BYTES_PER_PROBE: f64 = 177_040.0;

/// The flight recorder's zero-cost contract, enforced at the allocator:
/// with capture disabled (the default `NullCapture`), two identical
/// campaign runs allocate the exact same number of allocations and bytes
/// — the disabled path performs no hidden, data-dependent allocation.
/// With capture enabled, reports stay bitwise identical while the only
/// extra allocations are the recorded events and reconstructed flows,
/// held to per-probe budgets.
fn assert_capture_zero_cost() {
    let fleet = generate(FleetConfig { size: 300, ..FleetConfig::default() });
    let options = CampaignOptions::new(1);
    // Warm every lazy once-per-process structure (world template, query
    // cache) so the measured runs differ only by what they allocate.
    let _ = run_campaign(&fleet, options, None, None, None);

    let measure = |captured: bool| {
        let (count0, bytes0) =
            (ALLOCATIONS.load(Ordering::Relaxed), ALLOCATED_BYTES.load(Ordering::Relaxed));
        let reports: Vec<_> = if captured {
            run_campaign_captured(&fleet, options, None, None, None)
                .into_iter()
                .map(|(r, _flows)| r.report)
                .collect()
        } else {
            run_campaign(&fleet, options, None, None, None)
                .into_iter()
                .map(|r| r.report)
                .collect()
        };
        let (count1, bytes1) =
            (ALLOCATIONS.load(Ordering::Relaxed), ALLOCATED_BYTES.load(Ordering::Relaxed));
        (count1 - count0, bytes1 - bytes0, reports)
    };

    let (count_a, bytes_a, reports_a) = measure(false);
    let (count_b, bytes_b, reports_b) = measure(false);
    eprintln!(
        "capture-disabled determinism: run A {count_a} allocs / {bytes_a} B, \
         run B {count_b} allocs / {bytes_b} B"
    );
    assert_eq!(
        (count_a, bytes_a),
        (count_b, bytes_b),
        "capture-disabled campaign allocations must be bitwise reproducible"
    );
    assert_eq!(reports_a, reports_b);

    let (count_c, bytes_c, reports_c) = measure(true);
    let probes = reports_c.len() as f64;
    let (count_per_probe, bytes_per_probe) = (count_c as f64 / probes, bytes_c as f64 / probes);
    eprintln!(
        "capture-enabled: {count_c} allocs / {bytes_c} B (events + flows on top), \
         {count_per_probe:.1} allocs / {bytes_per_probe:.0} B per probe"
    );
    assert_eq!(
        reports_a, reports_c,
        "enabling the flight recorder must not change any report"
    );
    assert!(
        count_per_probe <= MAX_CAPTURE_ALLOCS_PER_PROBE,
        "capture-enabled allocation count regressed past the budget: \
         {count_per_probe:.1} > {MAX_CAPTURE_ALLOCS_PER_PROBE} per probe"
    );
    assert!(
        bytes_per_probe <= MAX_CAPTURE_BYTES_PER_PROBE,
        "capture-enabled allocated bytes regressed past the budget: \
         {bytes_per_probe:.0} > {MAX_CAPTURE_BYTES_PER_PROBE} per probe"
    );
}

/// Peak live bytes above the pre-run level while `run` executes, counting
/// whatever it returns.
fn peak_growth<R>(run: impl FnOnce() -> R) -> u64 {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(before, Ordering::Relaxed);
    let kept = run();
    let peak = PEAK_LIVE_BYTES.load(Ordering::Relaxed);
    drop(kept);
    peak - before
}

/// Bounds on peak-memory growth per added responding probe, between the
/// 2,000- and 8,000-probe heavy-tail fleets on one thread. Streaming keeps
/// no per-probe result; its one per-probe cost is the scheduler's index of
/// responding probes, an 8-byte `&ProbeSpec` each, and 12 at the peak of
/// the doubling that grows it. Measured: 8.5 B per added probe (+52,734 B
/// at 2,000, +101,957 B at 8,000). Collect-all keeps every `ProbeResult`
/// (2,275 B per added probe), and must stay above its floor to show that
/// the check sees retained results.
const MAX_STREAMING_BYTES_PER_ADDED_PROBE: f64 = 24.0;
const MIN_COLLECT_ALL_BYTES_PER_ADDED_PROBE: f64 = 1024.0;

fn assert_streaming_memory() {
    let options = CampaignOptions::new(1);
    let (small, large) = (generate(heavy_tail(2000)), generate(heavy_tail(8000)));
    let added = (large.responding().count() - small.responding().count()) as f64;
    // Warm every lazy once-per-process structure so it is not counted as
    // growth of the first measured run.
    let _ = run_campaign_streaming(&small, options, None, None);

    let streaming = [&small, &large]
        .map(|fleet| peak_growth(|| run_campaign_streaming(fleet, options, None, None)));
    let collect_all =
        [&small, &large].map(|fleet| peak_growth(|| run_campaign(fleet, options, None, None, None)));
    let per_added = |[small, large]: [u64; 2]| (large as f64 - small as f64) / added;
    let (streaming_slope, collect_all_slope) = (per_added(streaming), per_added(collect_all));
    eprintln!(
        "peak memory growth at 2000 / 8000 probes: streaming +{} / +{} B \
         ({streaming_slope:.1} B per added probe), collect-all +{} / +{} B \
         ({collect_all_slope:.0} B per added probe)",
        streaming[0], streaming[1], collect_all[0], collect_all[1]
    );
    assert!(
        streaming_slope <= MAX_STREAMING_BYTES_PER_ADDED_PROBE,
        "streaming campaign memory grew {streaming_slope:.1} B per added probe, \
         over {MAX_STREAMING_BYTES_PER_ADDED_PROBE}: a per-probe result is being kept"
    );
    assert!(
        collect_all_slope > MIN_COLLECT_ALL_BYTES_PER_ADDED_PROBE,
        "collect-all campaign memory grew only {collect_all_slope:.0} B per added probe, \
         not over {MIN_COLLECT_ALL_BYTES_PER_ADDED_PROBE}: the check cannot see retained results"
    );
}

criterion_group!(
    benches,
    bench_fleet_sizes,
    bench_fleet_generation,
    bench_scheduler_heavy_tail,
    bench_world_build
);

fn main() {
    assert_allocation_flatness();
    assert_heavy_tail_budget();
    assert_capture_zero_cost();
    assert_streaming_memory();
    benches();
}
