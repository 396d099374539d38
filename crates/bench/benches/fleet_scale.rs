//! Campaign scalability: wall time of the fleet survey as the probe count
//! grows (the pilot study runs ~10k; these sizes keep criterion honest),
//! plus an allocation-flatness regression gate — the campaign must
//! allocate O(probes), with a constant per-probe cost that does not creep
//! up with fleet size (e.g. by re-cloning fleet-wide state per probe).

use atlas_sim::{
    generate, run_campaign, run_campaign_captured, scenario_for, CampaignOptions, FleetConfig,
};
use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use interception::WorldTemplate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocations made anywhere in the process; the flatness gate
/// reads deltas around a campaign run.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// The scheduler on the workload that stresses it most: a heavy-tail
/// fleet where a quarter of the probes burn three attempts with backoff.
fn bench_scheduler_heavy_tail(c: &mut Criterion) {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let fleet = generate(FleetConfig {
        size: 2000,
        flaky_rate: 0.25,
        attempts: 3,
        retry_backoff_ms: 40,
        ..FleetConfig::default()
    });
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

/// Allocations per responding probe for a benign-only fleet of `size`
/// (quotas cleared so the household mix — and thus the per-probe query
/// count — is the same at every size).
fn allocations_per_probe(size: usize) -> (f64, f64) {
    let mut config = FleetConfig { size, ..FleetConfig::default() };
    for org in &mut config.orgs {
        org.quotas.clear();
    }
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
/// measured 228 allocations and 30,302 bytes per probe, plus 10%.
/// Regressing past these means a per-query or per-build allocation came
/// back (e.g. re-encoding location queries, rebuilding the resolver table,
/// per-packet payload Vecs, per-query name strings or a device encode
/// scratch regrown per probe); the flatness *ratio* alone would not catch
/// a uniform creep.
/// The steady-state *wire* path itself is pinned to exactly zero by
/// `tests/zero_alloc.rs`; this budget covers the whole probe — world
/// build, verdicts, aggregation — where some setup allocation is real.
const MAX_ALLOCS_PER_PROBE: f64 = 251.0;
const MAX_BYTES_PER_PROBE: f64 = 33_350.0;

fn assert_allocation_flatness() {
    let (small_count, small_bytes) = allocations_per_probe(300);
    let (large_count, large_bytes) = allocations_per_probe(1200);
    eprintln!(
        "allocation flatness: {small_count:.0} allocs/probe ({small_bytes:.0} B) at 300 \
         vs {large_count:.0} allocs/probe ({large_bytes:.0} B) at 1200"
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

/// The flight recorder's zero-cost contract, enforced at the allocator:
/// with capture disabled (the default `NullCapture`), two identical
/// campaign runs allocate the exact same number of allocations and bytes
/// — the disabled path performs no hidden, data-dependent allocation.
/// With capture enabled, reports stay bitwise identical while the only
/// extra allocations are the recorded events and reconstructed flows.
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
    eprintln!("capture-enabled: {count_c} allocs / {bytes_c} B (events + flows on top)");
    assert_eq!(
        reports_a, reports_c,
        "enabling the flight recorder must not change any report"
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
    assert_capture_zero_cost();
    benches();
}
