//! Campaign scalability, enforced at the allocator: the campaign must
//! allocate O(probes), with a constant per-probe cost that does not creep
//! up with fleet size (e.g. by re-cloning fleet-wide state per probe);
//! the heavy-tail fleet's loss, retries and backoff stay within their own
//! per-probe budget; the disabled flight recorder costs nothing and the
//! enabled one stays within its budget; and the streaming runner holds
//! no per-probe result.
//!
//! The four gates run in order inside one `#[test]`, because the counting
//! allocator is a process global; parallel test threads would bleed into
//! each other's deltas. `cargo test` runs them in a debug build; CI's
//! `full-suite` job runs them again in release.

use atlas_sim::{
    generate, run_campaign, run_campaign_captured, run_campaign_streaming, CampaignOptions,
    FleetConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
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
/// measured 15.11 allocations and 7,093 bytes per probe (debug; release
/// reads 15.11 and 7,089), plus 10%.
/// Regressing past these means a per-query or per-build allocation came
/// back (e.g. re-encoding location queries, rebuilding the resolver table,
/// per-packet payload Vecs, per-query name strings, a device encode
/// scratch regrown per probe, accepted replies decoded into owned
/// messages, a device box per world, a public-resolver site's or the ISP
/// resolver's reply built per query instead of copied from its profile's
/// memo, or the ISP resolver's profile built per world); the
/// flatness *ratio* alone would not catch a uniform creep.
/// The steady-state *wire* path itself is pinned to exactly zero by
/// `tests/zero_alloc.rs`; this budget covers the whole probe — world
/// build, verdicts, aggregation — where some setup allocation is real.
const MAX_ALLOCS_PER_PROBE: f64 = 16.7;
const MAX_BYTES_PER_PROBE: f64 = 7_803.0;

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
/// 17.47 allocations and 8,183 bytes per responding probe (debug; release
/// reads 17.47 and 8,178), plus 10%.
/// The benign budgets above never see loss, retries or backoff; these do.
const MAX_HEAVY_TAIL_ALLOCS_PER_PROBE: f64 = 19.3;
const MAX_HEAVY_TAIL_BYTES_PER_PROBE: f64 = 9_002.0;

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
/// fleet: the measured 85.3 allocations and 111,926 bytes per responding
/// probe (debug; release reads 85.1 and 111,538), plus 10%. The whole
/// campaign counts, measurement included.
/// Regressing past these means hops went back to owning or sharing their
/// node's name, flow reconstruction went back to hash-map indexes or
/// re-parsed messages into owned ones, a capture event or hop grew back a
/// tuple its packet already carries, or the capture buffer stopped being
/// recycled through `SimScratch`.
const MAX_CAPTURE_ALLOCS_PER_PROBE: f64 = 93.9;
const MAX_CAPTURE_BYTES_PER_PROBE: f64 = 123_119.0;

/// The flight recorder's zero-cost contract, enforced at the allocator:
/// with the recorder off (the default), two identical campaign runs
/// allocate the exact same number of allocations and bytes — the disabled
/// path performs no hidden, data-dependent allocation.
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
            run_campaign(&fleet, options, None, None, None).into_iter().map(|r| r.report).collect()
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
    assert_eq!(reports_a, reports_c, "enabling the flight recorder must not change any report");
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
/// the doubling that grows it. Measured: 8.6 B per added probe (+52,341 B
/// at 2,000, +102,005 B at 8,000). Collect-all keeps every `ProbeResult`
/// (2,017 B per added probe), and must stay above its floor to show that
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
    let collect_all = [&small, &large]
        .map(|fleet| peak_growth(|| run_campaign(fleet, options, None, None, None)));
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

#[test]
fn campaign_allocations_stay_within_budget() {
    assert_allocation_flatness();
    assert_heavy_tail_budget();
    assert_capture_zero_cost();
    assert_streaming_memory();
}
