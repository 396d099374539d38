//! The untraced run behind every end-to-end metric: set up, warm up, time
//! campaigns over the fleet's chunks until the run's seconds are spent,
//! then set up once more.

use crate::drive::{self, Observers, Workload, TIMED_THREADS};
use crate::report::{median, ratio, RunResult};
use crate::{alloc, host};
use atlas_sim::{Fleet, ProbeSpec};
use interception::WorldTemplate;
use std::hint::black_box;
use std::time::Instant;

/// Responding probes the untimed warm-up measures.
pub const WARMUP_PROBES: usize = 2_000;

/// How long one window of set-ups lasts. A set-up takes 0.05 to 10 ms, so
/// a burst from a neighbour can cover a handful of them; spread over half a
/// second they meet the host as it mostly is.
const SET_UP_SECONDS: f64 = 0.5;

/// What a run's set-up phase leaves behind.
pub struct SetUp {
    /// The fleet the run measures: the last one built.
    pub fleet: Fleet,
    /// Seconds of each set-up: the fleet plus a world template.
    pub setups: Vec<f64>,
    /// Milliseconds of each set-up's fleet alone.
    pub generated: Vec<f64>,
}

/// One window of set-ups: for [`SET_UP_SECONDS`] (at least once), the
/// workload's fleet and a world template built from scratch, each timed
/// into `setups` and `generated`. Returns the last fleet built. Each
/// set-up drops the one before it, so no more than one fleet is ever alive.
/// The campaign uses the process-wide shared template, which the warm-up
/// builds once; a fresh one is the same work and can be repeated.
fn set_up_window(
    workload: Workload,
    seed: u64,
    size: usize,
    setups: &mut Vec<f64>,
    generated: &mut Vec<f64>,
) -> Fleet {
    let mut fleet = None;
    let phase = Instant::now();
    while fleet.is_none() || phase.elapsed().as_secs_f64() < SET_UP_SECONDS {
        drop(fleet.take());
        let started = Instant::now();
        let built = drive::fleet(workload, seed, size);
        generated.push(started.elapsed().as_secs_f64() * 1e3);
        let template = WorldTemplate::new();
        setups.push(started.elapsed().as_secs_f64());
        black_box(&template);
        fleet = Some(built);
    }
    fleet.expect("at least one set-up")
}

/// The set-up phase before any pass: one window of set-ups, which adds
/// nothing to the run's peak memory.
pub fn set_up(workload: Workload, seed: u64, size: usize) -> SetUp {
    let (mut setups, mut generated) = (vec![], vec![]);
    let fleet = set_up_window(workload, seed, size, &mut setups, &mut generated);
    SetUp {
        fleet,
        setups,
        generated,
    }
}

/// Measures the workload's first [`WARMUP_PROBES`] responding probes,
/// untimed: caches, the shared template and the allocator settle first.
pub fn warm_up(workload: Workload, fleet: &Fleet) {
    drive::campaign(workload, &drive::slice(fleet, 0, WARMUP_PROBES));
}

/// Checks one pass's summary: every responding probe measured, no
/// failures beyond the fleet's `known` ones, and the same digest as the
/// run's first pass over the same fleet. Returns the pass's digest.
pub fn check_pass(
    result: &mut RunResult,
    fleet: &Fleet,
    pass: &drive::Pass,
    first_digest: Option<u64>,
    known: u64,
) -> u64 {
    let responding = fleet.responding().count() as u64;
    let measured = pass.summary.probes();
    let failures = pass.summary.failures();
    result.attempted += measured;
    result.failed += failures.saturating_sub(known) + responding.saturating_sub(measured);
    result.require(measured == responding, || {
        format!("measured {measured} probes of {responding} responding")
    });
    result.require(failures >= known, || {
        format!("{known} probes fail when measured alone, but only {failures} in the campaign")
    });
    let digest = pass.digest(fleet);
    if let Some(first) = first_digest {
        result.require(digest == first, || {
            format!("summary digest {digest:016x} differs from the first pass's {first:016x} over the same probes")
        });
    }
    digest
}

/// One chunk of the fleet, and the fastest campaign over it so far.
struct Chunk {
    /// The chunk's responding probes, moved into the run's fleet for each
    /// of its campaigns and back out after.
    probes: Vec<ProbeSpec>,
    /// The chunk's known failures.
    known: u64,
    /// The digest of the first campaign over the chunk.
    digest: Option<u64>,
    /// The least wall and CPU seconds of any one campaign over the chunk.
    wall_s: f64,
    cpu_s: f64,
}

/// One untraced run: every end-to-end metric.
///
/// The fleet is split into chunks of about 10 ms of work, and the run
/// sweeps them in order until its seconds are spent. A chunk's cost is
/// its fastest campaign: a neighbour on a shared host only ever slows a
/// campaign, and over a run of dozens of sweeps each chunk meets a quiet
/// moment at least once. Summed over the chunks, these give the whole
/// fleet's cost, every probe counted once. Each campaign's observers are
/// made before its clock starts and freed after it stops, so a chunk's
/// size changes none of the metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, size: usize) -> Result<RunResult, String> {
    let SetUp {
        fleet, mut setups, ..
    } = set_up(workload, seed, size);
    warm_up(workload, &fleet);
    let fleet_digest = drive::fleet_digest(&fleet);
    let (mut part, chunks) = drive::split(fleet, workload.chunk_probes());
    let mut chunks: Vec<Chunk> = chunks
        .into_iter()
        .map(|probes| {
            part.probes = probes;
            Chunk {
                known: drive::known_failures(workload, &part),
                probes: std::mem::take(&mut part.probes),
                digest: None,
                wall_s: f64::INFINITY,
                cpu_s: f64::INFINITY,
            }
        })
        .collect();

    let mut result = RunResult::default();
    let (mut allocs, mut bytes, mut sweeps) = (0, 0, 0);
    let started = Instant::now();
    loop {
        for chunk in &mut chunks {
            std::mem::swap(&mut part.probes, &mut chunk.probes);
            let observers = Observers::new(workload, &part, TIMED_THREADS);
            let cpu_before = host::process_cpu_ns()?;
            let (allocs_before, bytes_before) = alloc::totals();
            let pass_started = Instant::now();
            let pass = drive::campaign_with(workload, &part, TIMED_THREADS, observers);
            let wall_s = pass_started.elapsed().as_secs_f64();
            let (allocs_after, bytes_after) = alloc::totals();
            let cpu_s = (host::process_cpu_ns()? - cpu_before) as f64 / 1e9;
            allocs += allocs_after - allocs_before;
            bytes += bytes_after - bytes_before;
            chunk.wall_s = chunk.wall_s.min(wall_s);
            chunk.cpu_s = chunk.cpu_s.min(cpu_s);
            let digest = check_pass(&mut result, &part, &pass, chunk.digest, chunk.known);
            chunk.digest.get_or_insert(digest);
            std::mem::swap(&mut part.probes, &mut chunk.probes);
        }
        sweeps += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let peak_rss_mb = host::peak_rss_mib()?;
    let probes = chunks.iter().map(|c| c.probes.len()).sum::<usize>() as f64;
    let wall_s: f64 = chunks.iter().map(|c| c.wall_s).sum();
    let cpu_s: f64 = chunks.iter().map(|c| c.cpu_s).sum();
    let known: u64 = chunks.iter().map(|c| c.known).sum();
    let summary_digest = chunks
        .iter()
        .fold(0u64, |h, c| h.rotate_left(7) ^ c.digest.unwrap_or_default());
    result.notes = vec![
        format!("sweeps {sweeps} over {} chunks", chunks.len()),
        format!("known_failures {known}"),
        format!("fleet_digest {fleet_digest:016x}"),
        format!("summary_digest {summary_digest:016x}"),
    ];

    // A second window of set-ups, a run's length after the first, so that
    // `setup_s` meets the host at two moments rather than one. The
    // measured fleet is freed first and the peak memory is already read.
    drop((chunks, part));
    set_up_window(workload, seed, size, &mut setups, &mut vec![]);

    let attempted = result.attempted as f64;
    result.metrics = vec![
        ("probes_per_s", ratio(probes, wall_s)),
        ("cpu_us_per_probe", ratio(cpu_s * 1e6, probes)),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb),
        ("allocs_per_probe", ratio(allocs as f64, attempted)),
        ("alloc_bytes_per_probe", ratio(bytes as f64, attempted)),
    ];
    Ok(result)
}
