//! The traced run behind every per-layer metric.
//!
//! The traced loop itself lives in `drive.rs` beside the other `atlas`
//! calls: it replays the campaign's per-probe path with a span around each
//! layer. This file holds the spans, the timed transport wrapper, the
//! `dns-wire` and `resolver-sim` replays, and the run that alternates the
//! traced loop with the untraced campaign and turns the spans into
//! metrics. The loop's summary must equal the untraced campaign's, so the
//! trace is known to measure the same work. A last campaign on two workers
//! checks the scheduler: its outputs must equal one worker's. Per-step
//! attribution (`QueryTransport::note_step`) is not forwarded: it only
//! labels histogram samples, and leaving it out keeps the loop off an
//! interface the trace rework is set to remove.

use crate::drive::{self, Observers, Workload};
use crate::measure::{self, check_pass, SetUp};
use crate::report::{median, ratio, RunResult};
use crate::{alloc, host};
use atlas_sim::RawQueryRecord;
use dns_wire::{Message, MessageView, QueryEncoder, Question, RClass, RType};
use interception::{SimTransport, WorldTemplate};
use locator::{QueryOptions, QueryOutcome, QueryTransport};
use netsim::Simulator;
use resolver_sim::ResolveCtx;
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::ops::{AddAssign, Sub};
use std::time::Instant;

/// Wall time and allocations inside one or more spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Meter {
    ns: u64,
    allocs: u64,
}

impl AddAssign for Meter {
    fn add_assign(&mut self, other: Meter) {
        self.ns += other.ns;
        self.allocs += other.allocs;
    }
}

impl Sub for Meter {
    type Output = Meter;
    fn sub(self, other: Meter) -> Meter {
        Meter {
            ns: self.ns.saturating_sub(other.ns),
            allocs: self.allocs.saturating_sub(other.allocs),
        }
    }
}

/// The start of a span.
pub struct Stamp {
    at: Instant,
    allocs: u64,
}

impl Stamp {
    pub fn start() -> Stamp {
        let allocs = alloc::thread_allocs();
        Stamp {
            at: Instant::now(),
            allocs,
        }
    }

    /// Ends the span, adds it to `into`, and returns it.
    pub fn stop(self, into: &mut Meter) -> Meter {
        let span = Meter {
            ns: self.at.elapsed().as_nanos() as u64,
            allocs: alloc::thread_allocs() - self.allocs,
        };
        *into += span;
        span
    }
}

/// What the transport wrapper saw.
#[derive(Default)]
pub struct TransportTally {
    /// Every `query` and `backoff` span.
    pub spans: Meter,
    attempt_ns: Vec<u64>,
    answered: u64,
    wrong_source: u64,
    timeouts: u64,
    backoffs: u64,
    backoff_ns: u64,
}

/// Layer spans and counts, summed over every traced probe.
#[derive(Default)]
pub struct Layers {
    pub build: Meter,
    pub teardown: Meter,
    pub locator_self: Meter,
    pub classify: Meter,
    pub metrics: Meter,
    pub timing: Meter,
    pub fold: Meter,
    pub transport: TransportTally,
    pub probes: u64,
    pub queries: u64,
    events: u64,
    drops: u64,
    pub flows: u64,
    pub hops: u64,
}

impl Layers {
    /// The disjoint spans that together cover a probe.
    fn top_level(&self) -> [Meter; 8] {
        [
            self.build,
            self.locator_self,
            self.transport.spans,
            self.classify,
            self.metrics,
            self.timing,
            self.teardown,
            self.fold,
        ]
    }

    /// Netsim counters, read after the probe ran and outside every span.
    pub fn read_sim(&mut self, sim: &Simulator) {
        let stats = sim.stats();
        self.events += stats.events_processed;
        self.drops += stats.packets_dropped;
    }
}

/// `SimTransport` with a span around every attempt and backoff.
pub struct Timed<'a> {
    pub inner: &'a mut SimTransport,
    pub tally: &'a mut TransportTally,
}

impl QueryTransport for Timed<'_> {
    fn query(
        &mut self,
        server: IpAddr,
        question: &Question,
        txid: u16,
        opts: QueryOptions,
    ) -> QueryOutcome {
        let stamp = Stamp::start();
        let outcome = self.inner.query(server, question, txid, opts);
        let span = stamp.stop(&mut self.tally.spans);
        self.tally.attempt_ns.push(span.ns);
        match &outcome {
            QueryOutcome::Response(_) => self.tally.answered += 1,
            QueryOutcome::WrongSource { .. } => self.tally.wrong_source += 1,
            QueryOutcome::Timeout => self.tally.timeouts += 1,
        }
        outcome
    }

    fn backoff(&mut self, ms: u64) {
        let stamp = Stamp::start();
        self.inner.backoff(ms);
        self.tally.backoff_ns += stamp.stop(&mut self.tally.spans).ns;
        self.tally.backoffs += 1;
    }

    fn now_us(&self) -> Option<u64> {
        self.inner.now_us()
    }
}

/// Runs of the replayed wire and resolver work, of which the median counts.
const REPLAY_RUNS: usize = 5;

/// Median nanoseconds per operation of `work`, which does `ops` of them.
/// One untimed run first fills caches, as a warm campaign worker's are.
fn ns_per_op(ops: usize, mut work: impl FnMut()) -> f64 {
    work();
    let times: Vec<f64> = (0..REPLAY_RUNS)
        .map(|_| {
            let started = Instant::now();
            work();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    ratio(median(&times), ops as f64)
}

/// Replays archived queries and responses through `dns-wire` and the
/// resolver's zone database.
fn replay(records: &[RawQueryRecord]) -> [(&'static str, f64); 5] {
    let questions: Vec<(u16, Question)> = records
        .iter()
        .map(|r| {
            let qname = r.qname.parse().expect("archived names parse back");
            let question = Question {
                qname,
                qtype: RType::from_u16(r.qtype),
                qclass: RClass::from_u16(r.qclass),
            };
            (r.txid, question)
        })
        .collect();
    let responses: Vec<&[u8]> = records
        .iter()
        .filter_map(|r| r.response.as_deref())
        .collect();

    let mut encoder = QueryEncoder::new();
    let encode_ns = ns_per_op(questions.len(), || {
        for (txid, question) in &questions {
            black_box(encoder.encode_query(*txid, question).map(<[u8]>::len).ok());
        }
    });
    let view_parse_ns = ns_per_op(responses.len(), || {
        for bytes in &responses {
            black_box(
                MessageView::parse(bytes)
                    .map(|view| view.answer_count())
                    .ok(),
            );
        }
    });
    let owned_parse_ns = ns_per_op(responses.len(), || {
        for bytes in &responses {
            black_box(
                Message::parse(bytes)
                    .map(|message| message.answers.len())
                    .ok(),
            );
        }
    });
    let template = WorldTemplate::shared();
    let ctx = ResolveCtx {
        egress_v4: Some(Ipv4Addr::new(192, 0, 2, 53)),
        egress_v6: Some(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0x53)),
    };
    let resolve_ns = ns_per_op(questions.len(), || {
        for (_, question) in &questions {
            black_box(template.zonedb.resolve(question, &ctx).answers.len());
        }
    });
    let bytes = responses.iter().map(|b| b.len()).sum::<usize>() as f64;
    [
        ("dns_wire.encode_ns", encode_ns),
        ("dns_wire.view_parse_ns", view_parse_ns),
        ("dns_wire.owned_parse_ns", owned_parse_ns),
        (
            "dns_wire.response_bytes",
            ratio(bytes, responses.len() as f64),
        ),
        ("resolver.zonedb_resolve_ns", resolve_ns),
    ]
}

/// The `q`-quantile of `values` by nearest rank (0 when empty).
fn nearest_rank(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(rank - 1).1 as f64
}

/// How far the traced per-layer allocations may stray from the untraced
/// run's per-probe allocations before the trace is deemed to have missed
/// (or added) work. Both counts are deterministic; what separates them is
/// the campaign scheduler's own few allocations per pass and the growth of
/// the transport wrapper's attempt log.
const ALLOC_RECONCILE: std::ops::RangeInclusive<f64> = 0.995..=1.005;

/// One traced run: every per-layer metric.
pub fn run(workload: Workload, seed: u64, seconds: f64, size: usize) -> Result<RunResult, String> {
    let SetUp {
        fleet, generated, ..
    } = measure::set_up(workload, seed, size);
    let generate_ms = median(&generated);
    let fleet = &fleet;
    let known = drive::known_failures(workload, fleet);
    measure::warm_up(workload, fleet);
    let mut result = RunResult::default();
    let mut layers = Layers::default();
    let (mut loop_ns, mut thread_ns, mut cpu_ns) = (0u64, 0u64, 0u64);
    let (mut untraced_probes, mut untraced_cpu_ns, mut untraced_allocs) = (0.0, 0, 0);
    let mut first_digest = None;
    let started = Instant::now();
    loop {
        // The untraced campaign, alternating with the traced loop so both
        // meet the same host: its summary is what the trace must
        // reproduce, and its costs are the trace's baseline. Its probes
        // are the run's `attempted`; the traced loop's equal them.
        let cpu_before = host::process_cpu_ns()?;
        let (allocs_before, _) = alloc::totals();
        let untraced = drive::campaign(workload, fleet);
        untraced_cpu_ns += host::process_cpu_ns()? - cpu_before;
        untraced_allocs += alloc::totals().0 - allocs_before;
        untraced_probes += untraced.summary.probes() as f64;
        let digest = check_pass(&mut result, fleet, &untraced, first_digest, known);
        first_digest.get_or_insert(digest);

        let cpu_before = host::process_cpu_ns()?;
        let thread_before = host::thread_cpu_ns()?;
        let pass_started = Instant::now();
        let summary = drive::traced_pass(workload, fleet, &mut layers);
        loop_ns += pass_started.elapsed().as_nanos() as u64;
        thread_ns += host::thread_cpu_ns()? - thread_before;
        cpu_ns += host::process_cpu_ns()? - cpu_before;
        result.require(summary == untraced.summary, || {
            "the traced loop's summary differs from the untraced campaign's".to_string()
        });
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // The scheduler check: the same campaign on more workers must give
    // the same outputs. Its telemetry gives the workers' balance.
    let threads = drive::check_threads();
    let observers = Observers::new(workload, fleet, threads);
    let parallel = drive::campaign_with(workload, fleet, threads, observers);
    let (digest, first) = (parallel.digest(fleet), first_digest.unwrap_or_default());
    result.require(digest == first, || {
        format!("a campaign on {threads} workers has digest {digest:016x}, on one {first:016x}")
    });

    let untraced_cpu_us = ratio(untraced_cpu_ns as f64 / 1e3, untraced_probes);
    let untraced_allocs = ratio(untraced_allocs as f64, untraced_probes);
    let probes = layers.probes as f64;
    let loop_ns = loop_ns as f64;
    let us_per_probe = |m: Meter| ratio(m.ns as f64 / 1e3, probes);
    let per_probe = |n: u64| ratio(n as f64, probes);
    let share = |ns: u64| ratio(ns as f64, loop_ns);
    let mut spans = Meter::default();
    for layer in layers.top_level() {
        spans += layer;
    }
    let mut observers = layers.metrics;
    observers += layers.timing;
    let alloc_reconcile = ratio(per_probe(spans.allocs), untraced_allocs);
    result.require(ALLOC_RECONCILE.contains(&alloc_reconcile), || {
        format!(
            "traced layers allocate {:.1} per probe, the untraced campaign {untraced_allocs:.1}",
            per_probe(spans.allocs)
        )
    });

    let transport = &mut layers.transport;
    let attempts = transport.attempt_ns.len() as f64;
    let attempt_p50 = nearest_rank(&mut transport.attempt_ns, 0.50) / 1e3;
    let attempt_p99 = nearest_rank(&mut transport.attempt_ns, 0.99) / 1e3;
    let transport = &layers.transport;
    let [encode, view_parse, owned_parse, response_bytes, resolve] =
        replay(&drive::record_queries(fleet, measure::WARMUP_PROBES));
    let responding = fleet.responding().count() as f64;

    result.metrics = vec![
        ("fleet.generate_ms", generate_ms),
        ("scenario.build_us", us_per_probe(layers.build)),
        ("scenario.build_share", share(layers.build.ns)),
        ("scenario.build_allocs", per_probe(layers.build.allocs)),
        ("scenario.teardown_us", us_per_probe(layers.teardown)),
        ("locator.self_us", us_per_probe(layers.locator_self)),
        ("locator.self_share", share(layers.locator_self.ns)),
        ("locator.allocs", per_probe(layers.locator_self.allocs)),
        ("locator.queries_per_probe", per_probe(layers.queries)),
        ("transport.attempt_us_p50", attempt_p50),
        ("transport.attempt_us_p99", attempt_p99),
        (
            "transport.attempt_us_mean",
            ratio(
                (transport.spans.ns - transport.backoff_ns) as f64 / 1e3,
                attempts,
            ),
        ),
        ("transport.attempts_per_probe", ratio(attempts, probes)),
        (
            "transport.answered_ratio",
            ratio(transport.answered as f64, attempts),
        ),
        (
            "transport.wrong_source_ratio",
            ratio(transport.wrong_source as f64, attempts),
        ),
        (
            "transport.timeout_ratio",
            ratio(transport.timeouts as f64, attempts),
        ),
        (
            "transport.backoffs_per_probe",
            per_probe(transport.backoffs),
        ),
        ("transport.backoff_share", share(transport.backoff_ns)),
        ("transport.share", share(transport.spans.ns)),
        (
            "transport.allocs_per_attempt",
            ratio(transport.spans.allocs as f64, attempts),
        ),
        ("netsim.events_per_probe", per_probe(layers.events)),
        ("netsim.drops_per_probe", per_probe(layers.drops)),
        (
            "netsim.ns_per_event",
            ratio(transport.spans.ns as f64, layers.events as f64),
        ),
        encode,
        view_parse,
        owned_parse,
        response_bytes,
        resolve,
        ("aggregate.fold_us", us_per_probe(layers.fold)),
        ("aggregate.fold_allocs", per_probe(layers.fold.allocs)),
        (
            "aggregate.known_failure_ratio",
            ratio(known as f64, responding),
        ),
        ("metrics.record_share", share(layers.metrics.ns)),
        ("timing.fold_share", share(layers.timing.ns)),
        ("observers.share", share(observers.ns)),
        ("observers.allocs", per_probe(observers.allocs)),
        ("classify.device_us", us_per_probe(layers.classify)),
        ("classify.device_share", share(layers.classify.ns)),
        ("classify.device_allocs", per_probe(layers.classify.allocs)),
        ("flow.flows_per_device", per_probe(layers.flows)),
        ("flow.hops_per_device", per_probe(layers.hops)),
        ("campaign.claim_imbalance", parallel.claim_imbalance()),
        ("trace.probe_us", ratio(loop_ns / 1e3, probes)),
        ("trace.reconcile_ratio", share(spans.ns)),
        ("trace.alloc_reconcile_ratio", alloc_reconcile),
        (
            "trace.overhead_ratio",
            ratio(ratio(cpu_ns as f64 / 1e3, probes), untraced_cpu_us),
        ),
        ("host.cpu_over_wall", ratio(thread_ns as f64, loop_ns)),
    ];
    result.notes = vec![
        format!("traced probes {}", layers.probes),
        format!("known_failures {known}"),
    ];
    Ok(result)
}
