//! The four workloads, and the benchmark's only calls into `atlas`: fleet
//! generation and splitting, the campaign entry points, and the traced
//! per-probe loop that replays the campaign's measurement path call for
//! call. A change to how campaigns are run ports the benchmark by editing
//! this file alone.

use crate::trace::{Layers, Meter, Stamp, Timed};
use atlas_sim::{
    classification_fleet, classify_probe, classify_with_transport, generate, measure_probe,
    measure_probe_archived, run_campaign_streaming, run_campaign_timed, run_classification_timed,
    scenario_for, AggregateReport, CampaignOptions, CampaignTelemetry, ClassifySummary,
    DeviceClassification, Flavor, Fleet, FleetConfig, MetricsRegistry, ProbeResult, ProbeSpec,
    RawQueryRecord, TimingRegistry, WALL_PROBE_TOTAL, WALL_WORLD_BUILD,
};
use dns_wire::QueryEncoder;
use interception::{flow_rtt_us, BuiltScenario, ProbeTimingLog, SimTransport, WorldTemplate};
use locator::{HijackLocator, LocatorConfig, MetricsFolder};
use netsim::SimScratch;
use std::fmt::{self, Write as _};
use std::net::IpAddr;
use timing::Span;

/// One set of inputs the benchmark runs. Every workload is a closed-loop
/// batch campaign: workers claim 32 probes at a time and measure the next
/// batch only when the last one is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Atlas population: ~98% clean probes that stop after
    /// step 1, so world build, location queries and the aggregate fold
    /// dominate. One thread, no observers.
    Census,
    /// Only intercepting probes: every probe runs steps 2–3 and the
    /// transparency test through the DNAT, middlebox and forwarder paths.
    /// One thread, loss-free, no observers.
    Interceptors,
    /// A quarter of the probes on lossy links with three attempts and 40 ms
    /// backoff: the only workload with loss, retries, backoff and the
    /// metrics, timing and telemetry observers on.
    LossyRetry,
    /// The open-DNS taxonomy scan from the WAN side, with the flight
    /// recorder and flow reconstruction on. One thread, timing observer on.
    Taxonomy,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Census,
        Workload::Interceptors,
        Workload::LossyRetry,
        Workload::Taxonomy,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Census => "census",
            Workload::Interceptors => "interceptors",
            Workload::LossyRetry => "lossy-retry",
            Workload::Taxonomy => "taxonomy",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size a full run uses: deployed probes for `census` and
    /// `lossy-retry` (the fleet generator's default, the paper's ~10,000),
    /// responding probes for `interceptors`, devices for `taxonomy`. Each
    /// makes one sweep over the fleet take a quarter to two thirds of a
    /// second, so a run holds dozens of sweeps.
    pub fn full_size(self) -> usize {
        match self {
            Workload::Census | Workload::LossyRetry => 10_000,
            Workload::Interceptors => 4_000,
            Workload::Taxonomy => 2_000,
        }
    }

    /// Responding probes per chunk of the fleet: each chunk's campaign
    /// takes about 10 ms, short enough to fit between a neighbour's bursts.
    pub fn chunk_probes(self) -> usize {
        match self {
            Workload::Census => 200,
            Workload::Interceptors | Workload::LossyRetry => 150,
            Workload::Taxonomy => 50,
        }
    }
}

/// Worker threads of every timed campaign. On a host of a few shared
/// cores, a second worker makes a campaign's time depend on two cores
/// being quiet at once, and on how the workers' shared counters bounce.
pub const TIMED_THREADS: usize = 1;

/// Workers of the scheduler check in traced runs: two, or one on a
/// one-core host.
pub fn check_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The observers a workload's campaign feeds, fresh for every pass.
pub struct Observers {
    /// The metrics registry (`lossy-retry` only).
    pub metrics: Option<MetricsRegistry>,
    /// The latency histograms (`lossy-retry` and `taxonomy`).
    pub timing: Option<TimingRegistry>,
    telemetry: Option<CampaignTelemetry>,
}

impl Observers {
    /// The workload's observers, empty, for a campaign of `threads`
    /// workers. Telemetry is on for `lossy-retry`, and for any measurement
    /// campaign of more than one worker, whose balance it reports.
    pub fn new(workload: Workload, fleet: &Fleet, threads: usize) -> Observers {
        let lossy = workload == Workload::LossyRetry;
        Observers {
            metrics: lossy.then(|| MetricsRegistry::new(fleet.config.orgs.len())),
            timing: (lossy || workload == Workload::Taxonomy).then(TimingRegistry::new),
            telemetry: (lossy || threads > 1).then(|| CampaignTelemetry::new(threads)),
        }
    }
}

/// Builds the workload's fleet from `seed`. The same seed gives the same
/// fleet.
pub fn fleet(workload: Workload, seed: u64, size: usize) -> Fleet {
    match workload {
        Workload::Census => generate(FleetConfig {
            size,
            seed,
            ..FleetConfig::default()
        }),
        Workload::Interceptors => interceptor_union(seed, size),
        Workload::LossyRetry => generate(FleetConfig {
            size,
            seed,
            flaky_rate: 0.25,
            attempts: 3,
            retry_backoff_ms: 40,
            ..FleetConfig::default()
        }),
        Workload::Taxonomy => classification_fleet(size, seed),
    }
}

/// The quota (intercepting) probes of default-size fleets seeded `seed`,
/// `seed + 1`, … until there are `size` of them, renumbered from 0. Each
/// fleet plants the same per-org quotas, so the mix of interceptor kinds is
/// the paper's, only `size / 214` times over.
fn interceptor_union(seed: u64, size: usize) -> Fleet {
    let mut probes = Vec::with_capacity(size);
    for k in 0.. {
        let mut fleet = generate(FleetConfig {
            seed: seed.wrapping_add(k),
            ..FleetConfig::default()
        });
        probes.extend(
            std::mem::take(&mut fleet.probes)
                .into_iter()
                .filter(|p| p.flavor.intercepts()),
        );
        if probes.len() >= size {
            probes.truncate(size);
            for (id, probe) in probes.iter_mut().enumerate() {
                probe.id = id as u32;
            }
            fleet.probes = probes;
            fleet.config.seed = seed;
            return fleet;
        }
    }
    unreachable!("every default-size fleet plants interceptors")
}

/// Whether this home meets a known simulator bug: the address plan puts
/// the ISP resolver's IPv6 address inside the home's delegated /64
/// (customer 82 gets `<isp>:0:0:53::/64`, which holds `<isp>:0:0:53::1`),
/// so a v6 query that a v6-only middlebox redirects to the ISP resolver
/// never comes back and the locator reads the home as clean.
fn meets_address_plan_bug(fleet: &Fleet, probe: &ProbeSpec) -> bool {
    let isp = &fleet.isps[probe.org];
    let (_, _, _, prefix) = isp.customer_v6(probe.customer_index);
    matches!(probe.flavor, Flavor::MiddleboxV6Only { .. })
        && probe.has_v6
        && prefix.contains(IpAddr::V6(isp.resolver_v6))
}

/// The fleet's known failures: responding probes that meet the address
/// plan bug and, measured alone, disagree with ground truth. A campaign
/// over the fleet is expected to fail on exactly these and no others; a
/// fix to the address plan brings the count to 0 without changing the
/// fleet.
pub fn known_failures(workload: Workload, fleet: &Fleet) -> u64 {
    let fails = |probe: &ProbeSpec| match workload {
        Workload::Taxonomy => {
            let c = classify_probe(fleet, probe);
            c.device.class != c.truth_class || !c.device.capture_ok
        }
        _ => {
            let r = measure_probe(fleet, probe);
            r.report.location != r.expected
        }
    };
    fleet
        .responding()
        .filter(|p| meets_address_plan_bug(fleet, p) && fails(p))
        .count() as u64
}

/// The responding probes of `fleet` from the `start`-th on, at most `n`
/// of them, as a fleet of their own.
pub fn slice(fleet: &Fleet, start: usize, n: usize) -> Fleet {
    Fleet {
        config: fleet.config.clone(),
        probes: fleet.responding().skip(start).take(n).cloned().collect(),
        isps: fleet.isps.clone(),
    }
}

/// Splits the fleet's responding probes into chunks of at most `n`, and
/// returns them with the fleet they run in: the same config and ISPs, and
/// no probes until a chunk's are moved in. Nothing is copied.
pub fn split(fleet: Fleet, n: usize) -> (Fleet, Vec<Vec<ProbeSpec>>) {
    let Fleet {
        config,
        probes,
        isps,
    } = fleet;
    let mut chunks = vec![];
    let mut chunk = Vec::with_capacity(n);
    for probe in probes.into_iter().filter(|p| p.responds) {
        chunk.push(probe);
        if chunk.len() == n {
            chunks.push(std::mem::replace(&mut chunk, Vec::with_capacity(n)));
        }
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    let host = Fleet {
        config,
        probes: vec![],
        isps,
    };
    (host, chunks)
}

/// What a campaign folds its probes into.
// One exists per pass, so the size of the larger variant costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Summary {
    /// The measurement campaign's aggregate.
    Campaign(AggregateReport),
    /// The taxonomy scan's summary.
    Classify(ClassifySummary),
}

impl Summary {
    /// Probes (devices) folded in.
    pub fn probes(&self) -> u64 {
        match self {
            Summary::Campaign(aggregate) => aggregate.probes(),
            Summary::Classify(summary) => summary.probes,
        }
    }

    /// Probes whose verdict disagrees with ground truth: a location other
    /// than the expected one, or a taxonomy class other than the planted
    /// one or one the packet capture does not confirm.
    pub fn failures(&self) -> u64 {
        match self {
            Summary::Campaign(aggregate) => aggregate.clone().finish(0).accuracy.mismatches as u64,
            Summary::Classify(summary) => summary.truth_mismatches + summary.capture_unconfirmed,
        }
    }
}

/// One campaign over a fleet: its summary, plus the observers it fed.
pub struct Pass {
    /// The folded result.
    pub summary: Summary,
    observers: Observers,
}

impl Pass {
    /// A digest of every deterministic output of the pass: the summary and,
    /// when on, the metrics snapshot and the virtual-clock histograms.
    /// Thread count and claim interleaving change none of them.
    pub fn digest(&self, fleet: &Fleet) -> u64 {
        let mut hash = Fnv::new();
        write!(hash, "{:?}", self.summary).expect("hashing cannot fail");
        if let Some(metrics) = &self.observers.metrics {
            write!(hash, "{:?}", metrics.snapshot(&fleet.config.orgs))
                .expect("hashing cannot fail");
        }
        if let Some(timing) = &self.observers.timing {
            write!(hash, "{:?}", timing.snapshot().virtual_clock).expect("hashing cannot fail");
        }
        hash.finish()
    }

    /// The busiest worker's claimed probes over the mean worker's (1 with
    /// one worker).
    pub fn claim_imbalance(&self) -> f64 {
        let Some(telemetry) = &self.observers.telemetry else {
            return 1.0;
        };
        let claims = telemetry.snapshot(0, true).per_worker_claims;
        let max = claims.iter().copied().max().unwrap_or(0) as f64;
        let mean = claims.iter().sum::<u64>() as f64 / claims.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Runs the workload's campaign over `fleet` on [`TIMED_THREADS`]
/// workers, with fresh observers.
pub fn campaign(workload: Workload, fleet: &Fleet) -> Pass {
    let observers = Observers::new(workload, fleet, TIMED_THREADS);
    campaign_with(workload, fleet, TIMED_THREADS, observers)
}

/// Runs the workload's campaign over `fleet` on `threads` workers, feeding
/// `observers`, which must be empty and made for `threads`.
pub fn campaign_with(
    workload: Workload,
    fleet: &Fleet,
    threads: usize,
    observers: Observers,
) -> Pass {
    let options = CampaignOptions::new(threads);
    let Observers {
        metrics,
        timing,
        telemetry,
    } = &observers;
    let summary = match workload {
        Workload::Census | Workload::Interceptors => Summary::Campaign(run_campaign_streaming(
            fleet,
            options,
            None,
            telemetry.as_ref(),
        )),
        Workload::LossyRetry => Summary::Campaign(run_campaign_timed(
            fleet,
            options,
            metrics.as_ref(),
            telemetry.as_ref(),
            timing.as_ref(),
        )),
        Workload::Taxonomy => {
            Summary::Classify(run_classification_timed(fleet, options, timing.as_ref()))
        }
    };
    Pass { summary, observers }
}

/// Every query the first `n` responding probes send and every response
/// they accept, archived the way a measurement study publishes them. The
/// taxonomy scan's two WAN-side queries are not archived: the archive
/// records the in-home locator run only.
pub fn record_queries(fleet: &Fleet, n: usize) -> Vec<RawQueryRecord> {
    fleet
        .responding()
        .take(n)
        .flat_map(|probe| measure_probe_archived(fleet, probe).1.records)
        .collect()
}

/// The per-worker state the campaign carries from probe to probe.
#[derive(Default)]
struct Arena {
    encoder: QueryEncoder,
    scratch: SimScratch,
    timing_log: Option<Box<ProbeTimingLog>>,
}

/// One traced pass over every responding probe, on this thread: the
/// campaign's per-probe path, call for call, with a span around each layer,
/// folded into the same summary the campaign folds into.
pub fn traced_pass(workload: Workload, fleet: &Fleet, layers: &mut Layers) -> Summary {
    let template = WorldTemplate::shared();
    let observers = Observers::new(workload, fleet, 1);
    let mut arena = Arena::default();
    if workload == Workload::Taxonomy {
        let mut summary = ClassifySummary::default();
        for probe in fleet.responding() {
            let c = classify_probe_traced(fleet, probe, &template, &mut arena, &observers, layers);
            let stamp = Stamp::start();
            summary.fold(&c);
            stamp.stop(&mut layers.fold);
            let stamp = Stamp::start();
            drop(c);
            stamp.stop(&mut layers.teardown);
        }
        Summary::Classify(summary)
    } else {
        let mut aggregate = AggregateReport::new();
        for probe in fleet.responding() {
            let r = measure_probe_traced(fleet, probe, &template, &mut arena, &observers, layers);
            let stamp = Stamp::start();
            aggregate.fold(fleet, &r);
            stamp.stop(&mut layers.fold);
            let stamp = Stamp::start();
            drop(r);
            stamp.stop(&mut layers.teardown);
        }
        Summary::Campaign(aggregate)
    }
}

/// `atlas`'s `probe_config`: the scenario's locator config with the
/// fleet's retry policy.
fn locator_config(fleet: &Fleet, built: &BuiltScenario) -> LocatorConfig {
    let mut config = built.locator_config();
    config.query_options.attempts = fleet.config.attempts;
    config.query_options.retry_backoff_ms = fleet.config.retry_backoff_ms;
    config
}

/// Builds the probe's world and its transport, with the arena's recycled
/// containers and, when timing is on, its timing log.
fn build(
    fleet: &Fleet,
    probe: &ProbeSpec,
    template: &WorldTemplate,
    arena: &mut Arena,
    timing: Option<&TimingRegistry>,
) -> (SimTransport, LocatorConfig) {
    let built = {
        let _build_span = Span::maybe(timing.map(|t| t.wall().histogram(WALL_WORLD_BUILD)));
        scenario_for(fleet, probe).build_with_scratch(template, std::mem::take(&mut arena.scratch))
    };
    let config = locator_config(fleet, &built);
    let mut transport = SimTransport::with_encoder(built, std::mem::take(&mut arena.encoder));
    if timing.is_some() {
        let log = arena
            .timing_log
            .take()
            .unwrap_or_else(|| Box::new(ProbeTimingLog::new()));
        transport.attach_timing(log);
    }
    (transport, config)
}

/// `atlas`'s `measure_probe_timed_with`, with spans: the world build, the
/// locator over a timed transport, the observers, and the teardown.
fn measure_probe_traced<'a>(
    fleet: &Fleet,
    probe: &'a ProbeSpec,
    template: &WorldTemplate,
    arena: &mut Arena,
    observers: &Observers,
    layers: &mut Layers,
) -> ProbeResult<'a> {
    let timing = observers.timing.as_ref();
    let stamp = Stamp::start();
    let probe_span = Span::maybe(timing.map(|t| t.wall().histogram(WALL_PROBE_TOTAL)));
    let (mut transport, config) = build(fleet, probe, template, arena, timing);
    let expected = transport.scenario.expected;
    stamp.stop(&mut layers.build);

    let in_transport = layers.transport.spans;
    let stamp = Stamp::start();
    let mut timed = Timed {
        inner: &mut transport,
        tally: &mut layers.transport,
    };
    let mut locator = HijackLocator::new(config);
    let (report, folder) = if observers.metrics.is_some() {
        let mut folder = MetricsFolder::default();
        let report = locator.run_traced(&mut timed, &mut folder);
        (report, Some(folder))
    } else {
        (locator.run(&mut timed), None)
    };
    let span = stamp.stop(&mut Meter::default());
    layers.locator_self += span - (layers.transport.spans - in_transport);
    layers.queries += u64::from(report.queries_sent);
    layers.read_sim(&transport.scenario.sim);

    if let (Some(registry), Some(folder)) = (&observers.metrics, folder) {
        let stamp = Stamp::start();
        registry.record(probe.org, &report, &folder.finish());
        stamp.stop(&mut layers.metrics);
    }
    let stamp = Stamp::start();
    arena.encoder = transport.take_encoder();
    stamp.stop(&mut layers.teardown);
    if let Some(registry) = timing {
        let stamp = Stamp::start();
        if let Some(mut log) = transport.take_timing() {
            registry.fold_probe(&report, &log);
            log.clear();
            arena.timing_log = Some(log);
        }
        stamp.stop(&mut layers.timing);
    }
    let stamp = Stamp::start();
    let truth = transport.scenario.truth;
    arena.scratch = transport.scenario.sim.into_scratch();
    drop(probe_span);
    stamp.stop(&mut layers.teardown);
    layers.probes += 1;
    ProbeResult {
        probe,
        report,
        truth,
        expected,
    }
}

/// `atlas`'s `classify_probe_timed_with`, with spans: the world build,
/// `classify_with_transport` as one call, the timing observer, and the
/// teardown.
fn classify_probe_traced<'a>(
    fleet: &Fleet,
    probe: &'a ProbeSpec,
    template: &WorldTemplate,
    arena: &mut Arena,
    observers: &Observers,
    layers: &mut Layers,
) -> DeviceClassification<'a> {
    let timing = observers.timing.as_ref();
    let stamp = Stamp::start();
    let probe_span = Span::maybe(timing.map(|t| t.wall().histogram(WALL_PROBE_TOTAL)));
    let truth_class = scenario_for(fleet, probe).open_dns_class();
    let (mut transport, config) = build(fleet, probe, template, arena, timing);
    stamp.stop(&mut layers.build);

    let stamp = Stamp::start();
    let device = classify_with_transport(&mut transport, config);
    stamp.stop(&mut layers.classify);
    layers.queries += u64::from(device.report.queries_sent);
    layers.flows += device.flows.len() as u64;
    layers.hops += device
        .flows
        .iter()
        .map(|f| f.hops.len() as u64)
        .sum::<u64>();
    layers.read_sim(&transport.scenario.sim);

    let stamp = Stamp::start();
    arena.encoder = transport.take_encoder();
    stamp.stop(&mut layers.teardown);
    if let Some(registry) = timing {
        let stamp = Stamp::start();
        if let Some(mut log) = transport.take_timing() {
            registry.fold_probe(&device.report, &log);
            log.clear();
            arena.timing_log = Some(log);
            for flow in &device.flows {
                if let Some(rtt) = flow_rtt_us(flow) {
                    registry.record_class_rtt(device.class, rtt);
                }
            }
        }
        stamp.stop(&mut layers.timing);
    }
    let stamp = Stamp::start();
    arena.scratch = transport.scenario.sim.into_scratch();
    drop(probe_span);
    stamp.stop(&mut layers.teardown);
    layers.probes += 1;
    DeviceClassification {
        probe,
        truth_class,
        device,
    }
}

/// A digest of the fleet itself, so two runs can be seen to measure the
/// same inputs.
pub fn fleet_digest(fleet: &Fleet) -> u64 {
    let mut hash = Fnv::new();
    write!(hash, "{:?}", fleet.probes).expect("hashing cannot fail");
    hash.finish()
}

/// 64-bit FNV-1a over formatted text.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locator::InterceptorLocation;

    #[test]
    fn a_wrong_verdict_counts_as_a_failure() {
        let _serial = crate::tests::serial();
        let fleet = fleet(Workload::Census, 7, 300);
        let probe = fleet.responding().next().expect("a responding probe");
        let mut result = measure_probe(&fleet, probe);
        let mut aggregate = AggregateReport::new();
        aggregate.fold(&fleet, &result);
        assert_eq!(Summary::Campaign(aggregate.clone()).failures(), 0);
        result.expected = match result.report.location {
            Some(InterceptorLocation::Cpe) => None,
            _ => Some(InterceptorLocation::Cpe),
        };
        aggregate.fold(&fleet, &result);
        assert_eq!(Summary::Campaign(aggregate).failures(), 1);
    }

    #[test]
    fn split_keeps_every_responding_probe_once_in_order() {
        let _serial = crate::tests::serial();
        let fleet = fleet(Workload::Census, 7, 300);
        let ids: Vec<u32> = fleet.responding().map(|p| p.id).collect();
        let (host, chunks) = split(fleet.clone(), 64);
        assert!(host.probes.is_empty());
        assert_eq!(host.isps.len(), fleet.isps.len());
        assert!(chunks.iter().all(|c| (1..=64).contains(&c.len())));
        let split_ids: Vec<u32> = chunks.iter().flatten().map(|p| p.id).collect();
        assert_eq!(split_ids, ids);
    }

    #[test]
    fn the_seed_changes_the_fleet() {
        let _serial = crate::tests::serial();
        for workload in Workload::ALL {
            let a = fleet_digest(&fleet(workload, 1, 300));
            assert_eq!(
                a,
                fleet_digest(&fleet(workload, 1, 300)),
                "{}",
                workload.name()
            );
            assert_ne!(
                a,
                fleet_digest(&fleet(workload, 2, 300)),
                "{}",
                workload.name()
            );
        }
    }
}
