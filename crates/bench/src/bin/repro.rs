//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro --all                 # everything (default fleet: 10,000 probes)
//! repro --table 4 --size 2000 # one artifact, smaller fleet
//! repro --figure 3
//! repro --case xb6            # §5 case-study packet trace
//! repro --appendix a          # Appendix-A baseline comparison
//! repro --json out.json       # machine-readable dump of the campaign
//! repro --classify            # open-DNS taxonomy scan of a mixed fleet
//! ```

use atlas_sim::{
    classification_fleet, generate, prometheus_exposition, run_campaign, run_classification_timed,
    AggregateReport, CampaignOptions, CampaignSummary, CampaignTelemetry, Fleet, FleetConfig,
    MetricsRegistry, ProbeResult, ProgressEvent, TimingRegistry,
};
use interception::{
    render_flows, CpeModelKind, HomeScenario, MiddleboxSpec, QueryFlow, SimTransport,
};
use locator::{
    baseline, default_resolvers, describe_response, HijackLocator, QueryOptions, QueryTransport,
    TxidSequence,
};
use std::net::IpAddr;

struct Args {
    table: Option<u32>,
    figure: Option<u32>,
    case: Option<String>,
    appendix: Option<String>,
    all: bool,
    size: usize,
    seed: u64,
    threads: usize,
    batch: usize,
    attempts: u32,
    retry_backoff_ms: u64,
    json: Option<String>,
    archives: Option<String>,
    metrics: Option<String>,
    capture: bool,
    capture_json: Option<String>,
    progress: bool,
    progress_json: Option<String>,
    classify: bool,
    classify_json: Option<String>,
    metrics_prom: Option<String>,
    timings_json: Option<String>,
}

const USAGE: &str = "usage: repro [--all] [--table N] [--figure N] [--case xb6] \
[--appendix a] [--size N] [--seed N] [--threads N] [--batch N] [--attempts N] \
[--retry-backoff MS] [--json PATH] [--archives PATH] [--metrics PATH] \
[--metrics-prom PATH] [--timings-json PATH] [--capture] [--capture-json PATH] \
[--progress] [--progress-json PATH] [--classify] [--classify-json PATH]";

fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    if value.is_empty() {
        fail(&format!("{flag} needs a value"));
    }
    value.parse().unwrap_or_else(|_| fail(&format!("{flag}: invalid value {value:?}")))
}

fn path_value(flag: &str, value: String) -> String {
    if value.is_empty() {
        fail(&format!("{flag} needs a value"));
    }
    value
}

fn parse_args() -> Args {
    let mut args = Args {
        table: None,
        figure: None,
        case: None,
        appendix: None,
        all: false,
        size: 10_000,
        seed: 0x41544C53,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        batch: CampaignOptions::DEFAULT_BATCH,
        attempts: 1,
        retry_backoff_ms: 0,
        json: None,
        archives: None,
        metrics: None,
        capture: false,
        capture_json: None,
        progress: false,
        progress_json: None,
        classify: false,
        classify_json: None,
        metrics_prom: None,
        timings_json: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_default()
        };
        match argv[i].as_str() {
            "--table" => args.table = Some(parse_value("--table", &take(&mut i))),
            "--figure" => args.figure = Some(parse_value("--figure", &take(&mut i))),
            "--case" => args.case = Some(path_value("--case", take(&mut i))),
            "--appendix" => args.appendix = Some(path_value("--appendix", take(&mut i))),
            "--all" => args.all = true,
            "--size" => args.size = parse_value("--size", &take(&mut i)),
            "--seed" => args.seed = parse_value("--seed", &take(&mut i)),
            "--threads" => args.threads = parse_value("--threads", &take(&mut i)),
            "--batch" => args.batch = parse_value("--batch", &take(&mut i)),
            "--attempts" => args.attempts = parse_value("--attempts", &take(&mut i)),
            "--retry-backoff" => {
                args.retry_backoff_ms = parse_value("--retry-backoff", &take(&mut i))
            }
            "--json" => args.json = Some(path_value("--json", take(&mut i))),
            "--archives" => args.archives = Some(path_value("--archives", take(&mut i))),
            "--metrics" => args.metrics = Some(path_value("--metrics", take(&mut i))),
            "--capture" => args.capture = true,
            "--capture-json" => {
                args.capture_json = Some(path_value("--capture-json", take(&mut i)))
            }
            "--progress" => args.progress = true,
            "--progress-json" => {
                args.progress_json = Some(path_value("--progress-json", take(&mut i)))
            }
            "--classify" => args.classify = true,
            "--classify-json" => {
                args.classify_json = Some(path_value("--classify-json", take(&mut i)))
            }
            "--metrics-prom" => {
                args.metrics_prom = Some(path_value("--metrics-prom", take(&mut i)))
            }
            "--timings-json" => {
                args.timings_json = Some(path_value("--timings-json", take(&mut i)))
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if args.size == 0 {
        fail("--size must be at least 1");
    }
    if args.threads == 0 {
        fail("--threads must be at least 1");
    }
    if args.batch == 0 {
        fail("--batch must be at least 1");
    }
    if args.attempts == 0 {
        fail("--attempts must be at least 1");
    }
    if args.table.is_none()
        && args.figure.is_none()
        && args.case.is_none()
        && args.appendix.is_none()
        && !args.capture
        && args.capture_json.is_none()
        && !args.classify
        && args.classify_json.is_none()
    {
        args.all = true;
    }
    args
}

fn main() {
    let args = parse_args();
    let classify_mode = args.classify || args.classify_json.is_some();
    // In classify mode the observability outputs come from the taxonomy
    // scan; otherwise they ride on (and force) the measurement campaign.
    let observing = args.metrics_prom.is_some() || args.timings_json.is_some();
    let needs_campaign = args.all
        || matches!(args.table, Some(4) | Some(5))
        || args.figure.is_some()
        || args.json.is_some()
        || args.archives.is_some()
        || args.metrics.is_some()
        || (observing && !classify_mode);

    if args.all || args.table == Some(1) {
        print_table1();
    }
    if args.all || args.table == Some(2) || args.table == Some(3) {
        print_tables_2_and_3();
    }
    if args.capture || args.capture_json.is_some() {
        print_capture_timelines(args.capture_json.as_deref());
    }
    if args.classify || args.classify_json.is_some() {
        run_classify(&args);
    }

    // Results borrow probe specs from the fleet, so the fleet must outlive
    // them — generate first, then measure.
    let fleet = needs_campaign.then(|| {
        eprintln!(
            "running campaign: {} probes, seed {}, {} threads…",
            args.size, args.seed, args.threads
        );
        generate(FleetConfig {
            size: args.size,
            seed: args.seed,
            attempts: args.attempts,
            retry_backoff_ms: args.retry_backoff_ms,
            ..FleetConfig::default()
        })
    });
    let campaign = fleet.as_ref().map(|fleet| {
        let registry = (args.metrics.is_some() || args.metrics_prom.is_some())
            .then(|| MetricsRegistry::new(fleet.config.orgs.len()));
        let timing = observing.then(TimingRegistry::new);
        let options = CampaignOptions { threads: args.threads, batch_size: args.batch };
        let started = std::time::Instant::now();
        let progress_on = args.progress || args.progress_json.is_some();
        let (results, events) = if progress_on {
            run_campaign_with_progress(
                fleet,
                options,
                registry.as_ref(),
                timing.as_ref(),
                args.progress,
            )
        } else {
            (run_campaign(fleet, options, registry.as_ref(), None, timing.as_ref()), Vec::new())
        };
        eprintln!(
            "campaign done: {} probes measured in {:.1}s",
            results.len(),
            started.elapsed().as_secs_f64()
        );
        if let Some(path) = &args.progress_json {
            write_progress(path, &events);
        }
        (fleet, results, registry, timing)
    });

    if let Some((fleet, results, registry, timing)) = &campaign {
        let mut aggregate = AggregateReport::new();
        for r in results {
            aggregate.fold(fleet, r);
        }
        let summary = aggregate.finish(15);
        if args.all || args.table == Some(4) {
            println!("{}", summary.table4);
        }
        if args.all || args.table == Some(5) {
            println!("{}", summary.table5);
        }
        if args.all || args.figure == Some(3) {
            println!("{}", summary.figure3);
            println!("{}", atlas_sim::figure3_chart(&summary.figure3));
        }
        if args.all || args.figure == Some(4) {
            println!("{}", summary.figure4);
            println!("{}", atlas_sim::figure4_chart(&summary.figure4));
        }
        if args.all {
            println!("{}", summary.accuracy);
        }
        if args.all || args.attempts > 1 {
            println!("{}", summary.retry);
        }
        if let Some(path) = &args.json {
            write_json(path, &summary, results);
        }
        if let Some(path) = &args.archives {
            write_archives(path, fleet, results);
        }
        if let (Some(path), Some(registry)) = (&args.metrics, registry) {
            write_metrics(path, fleet, registry);
        }
        if let Some(path) = &args.metrics_prom {
            let snapshot = registry.as_ref().map(|r| r.snapshot(&fleet.config.orgs));
            write_prom(path, prometheus_exposition(snapshot.as_ref(), timing.as_ref()));
        }
        if let (Some(path), Some(timing)) = (&args.timings_json, timing) {
            write_timings(path, timing);
        }
    }

    if args.all || args.case.as_deref() == Some("xb6") {
        print_xb6_case_study();
    }
    if args.all || args.appendix.as_deref() == Some("a") {
        print_appendix_a();
    }
}

/// `--classify`: scans a mixed fleet cycling through all five open-DNS
/// classes and classifies every device via the scanner-vantage decision
/// tree, aggregating per-taxonomy counts, ground-truth agreement, and
/// flight-recorder corroboration through the streaming path.
/// `--classify-json` additionally writes the aggregate as JSON. Exits
/// non-zero if any device disagrees with its planted class or its packet
/// capture — the run doubles as an end-to-end accuracy gate.
fn run_classify(args: &Args) {
    // `--size` defaults to the measurement campaign's 10k; the taxonomy
    // scan is heavier per device (locator run + scanner probes + capture),
    // so cap the default at 1000 — explicit sizes are honored as given.
    let size = if args.size == 10_000 { 1_000 } else { args.size };
    eprintln!("classifying: {size} devices, seed {}, {} threads…", args.seed, args.threads);
    let fleet = classification_fleet(size, args.seed);
    let options = CampaignOptions { threads: args.threads, batch_size: args.batch };
    let timing =
        (args.timings_json.is_some() || args.metrics_prom.is_some()).then(TimingRegistry::new);
    let started = std::time::Instant::now();
    let summary = run_classification_timed(&fleet, options, timing.as_ref());
    eprintln!(
        "classification done: {} devices in {:.1}s",
        summary.probes,
        started.elapsed().as_secs_f64()
    );
    println!("{summary}");
    if let Some(timing) = &timing {
        if let Some(path) = &args.timings_json {
            write_timings(path, timing);
        }
        if let Some(path) = &args.metrics_prom {
            write_prom(path, prometheus_exposition(None, Some(timing)));
        }
    }
    if let Some(path) = &args.classify_json {
        write_output(path, "taxonomy aggregate", pretty_json(&summary));
    }
    if summary.truth_mismatches > 0 || summary.capture_unconfirmed > 0 {
        eprintln!(
            "classification FAILED: {} ground-truth mismatches, {} capture-unconfirmed",
            summary.truth_mismatches, summary.capture_unconfirmed
        );
        std::process::exit(1);
    }
}

/// `--capture`: replays the §3.4 worked examples with the packet-level
/// flight recorder on and prints every DNS transaction's per-hop timeline
/// — ingress/egress at each device, NAT rewrites with before/after
/// tuples, route decisions, fault verdicts, and locally minted answers.
/// `--capture-json` additionally writes the flows as pcap-style JSON.
fn print_capture_timelines(json_path: Option<&str>) {
    #[derive(serde::Serialize)]
    struct ProbeFlows {
        probe: String,
        intercepted: bool,
        flows: Vec<QueryFlow>,
    }
    println!("Flight recorder: per-hop timelines for the §3.4 worked examples");
    let mut all: Vec<ProbeFlows> = Vec::new();
    for (id, scenario) in HomeScenario::worked_examples() {
        let built = scenario.build();
        let config = built.locator_config();
        let mut transport = SimTransport::new(built);
        transport.enable_capture();
        let report = HijackLocator::new(config).run(&mut transport);
        let flows = transport.take_flows();
        println!(
            "\nprobe {id}: intercepted={}, {} transactions recorded",
            report.intercepted,
            flows.len()
        );
        print!("{}", render_flows(&flows));
        all.push(ProbeFlows { probe: id.to_string(), intercepted: report.intercepted, flows });
    }
    if let Some(path) = json_path {
        write_output(path, "capture flows", pretty_json(&all));
    }
}

/// Runs the campaign with a monitor thread sampling the scheduler's
/// telemetry every ~200ms. `live` renders a single-line ticker to stderr;
/// the collected [`ProgressEvent`]s are returned for `--progress-json`.
/// The final event always has `done: true` and the finished counts.
fn run_campaign_with_progress<'a>(
    fleet: &'a Fleet,
    options: CampaignOptions,
    registry: Option<&MetricsRegistry>,
    timing: Option<&TimingRegistry>,
    live: bool,
) -> (Vec<ProbeResult<'a>>, Vec<ProgressEvent>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let telemetry = Arc::new(CampaignTelemetry::new(options.threads));
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let telemetry = Arc::clone(&telemetry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let mut events: Vec<ProgressEvent> = Vec::new();
            loop {
                let done = stop.load(Ordering::Acquire);
                let event = telemetry.snapshot(started.elapsed().as_millis() as u64, done);
                if live {
                    // The event's own rate is the campaign average; the
                    // delta against the previous sample is the ticker's
                    // "right now" figure. Both are guarded against zero
                    // elapsed, so the very first sample prints 0.
                    match events.last() {
                        Some(prev) => {
                            eprint!("\r{event}  [{:.0}/s now]", event.interval_probes_per_sec(prev))
                        }
                        None => eprint!("\r{event}"),
                    }
                }
                events.push(event);
                if done {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            if live {
                eprintln!();
            }
            events
        })
    };
    let results = run_campaign(fleet, options, registry, Some(&telemetry), timing);
    stop.store(true, Ordering::Release);
    let events = monitor.join().expect("progress monitor panicked");
    (results, events)
}

/// Writes the sampled progress events as a JSON array — the
/// machine-readable campaign log behind `--progress-json`.
fn write_progress(path: &str, events: &[ProgressEvent]) {
    write_output(path, &format!("{} progress events", events.len()), pretty_json(&events));
}

/// Table 1: location queries and expected responses, measured live against
/// the public resolver models over a clean path.
fn print_table1() {
    println!("Table 1: Location queries and expected responses (clean path)");
    println!("{:<16} {:<10} {:<26} Example Response", "Public Resolver", "Type", "Location Query");
    let mut transport = SimTransport::new(HomeScenario::clean().build());
    let mut txids = TxidSequence::new(0x1000);
    for resolver in default_resolvers() {
        let q = resolver.location_query();
        let qtype = match q.qclass {
            dns_wire::RClass::Chaos => "CHAOS TXT",
            _ => "TXT",
        };
        let out = transport.query(resolver.v4[0], &q, txids.next(), QueryOptions::default());
        let response = out
            .response()
            .map(|reply| describe_response(&reply.view()))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<16} {:<10} {:<26} {}",
            resolver.key.display_name(),
            qtype,
            q.qname.to_string().trim_end_matches('.'),
            response
        );
    }
    println!();
}

/// Tables 2 and 3: the worked example of §3.4 — three probes (clean, ISP
/// middlebox, CPE interceptor), their location-query answers and their
/// version.bind answers.
fn print_tables_2_and_3() {
    // Probe 1053: clean. Probe 11992: ISP middlebox whose resolver answers
    // CHAOS with NOTIMP. Probe 21823: unbound-based CPE interceptor. The
    // same households anchor the golden-trace suite.
    let probes = HomeScenario::worked_examples();

    let resolvers = default_resolvers();
    let cloudflare = &resolvers[0];
    let google = &resolvers[1];

    println!("Table 2: Example responses to IPv4 location queries");
    println!("{:<10} {:<20} {:<20}", "ProbeID", "Cloudflare DNS", "Google DNS");
    let mut transports: Vec<(&str, SimTransport, IpAddr)> = probes
        .into_iter()
        .map(|(id, s)| {
            let built = s.build();
            let cpe_v4 = IpAddr::V4(built.addrs.cpe_public_v4);
            (id, SimTransport::new(built), cpe_v4)
        })
        .collect();
    let mut txids = TxidSequence::new(0x1000);
    for (id, transport, _) in &mut transports {
        let cf = transport
            .query(
                cloudflare.v4[0],
                &cloudflare.location_query(),
                txids.next(),
                QueryOptions::default(),
            )
            .response()
            .map(|reply| describe_response(&reply.view()))
            .unwrap_or_else(|| "-".into());
        let gg = transport
            .query(google.v4[0], &google.location_query(), txids.next(), QueryOptions::default())
            .response()
            .map(|reply| describe_response(&reply.view()))
            .unwrap_or_else(|| "-".into());
        println!("{:<10} {:<20} {:<20}", id, cf, gg);
    }
    println!();

    println!("Table 3: Example responses to IPv4 version.bind queries");
    println!(
        "{:<10} {:<20} {:<20} {:<20}",
        "ProbeID", "Cloudflare DNS", "Google DNS", "CPE Public IP"
    );
    for (id, transport, cpe_v4) in &mut transports {
        if *id == "1053" {
            // The clean probe was not intercepted, so step 2 never runs.
            println!("{:<10} {:<20} {:<20} {:<20}", id, "-", "-", "-");
            continue;
        }
        let vb = dns_wire::Question::chaos_txt(dns_wire::debug_queries::version_bind());
        let mut ask = |server: IpAddr| -> locator::Observation {
            transport
                .query(server, &vb, txids.next(), QueryOptions::default())
                .response()
                .map(|reply| describe_response(&reply.view()))
                .unwrap_or_else(|| "-".into())
        };
        let cf = ask(cloudflare.v4[0]);
        let gg = ask(google.v4[0]);
        let cpe = ask(*cpe_v4);
        println!("{:<10} {:<20} {:<20} {:<20}", id, cf, gg, cpe);
    }
    println!();
}

/// §5 case study: the XB6's DNAT interception, one line per packet
/// delivery the flight recorder saw.
fn print_xb6_case_study() {
    println!("Case study (§5): XB6 DNAT interception, packet by packet");
    let mut built = HomeScenario::xb6_case_study().build();
    built.sim.record_capture();
    let probe_v4 = built.addrs.probe_v4;
    let mut transport = SimTransport::new(built);
    let q = dns_wire::Question::new("example.com".parse().unwrap(), dns_wire::RType::A);
    let out = transport.query("8.8.8.8".parse().unwrap(), &q, 0x1000, QueryOptions::default());
    let sim = &transport.scenario.sim;
    for event in sim.capture_events() {
        let (netsim::CaptureKind::Ingress { packet }, Some(iface)) = (&event.kind, event.iface)
        else {
            continue;
        };
        let from = sim.peer(event.node, iface).and_then(|n| sim.node_name(n));
        println!(
            "  {:>10}  {:<14} -> {:<14} {}",
            event.at.to_string(),
            from.unwrap_or_default(),
            sim.node_name(event.node).unwrap_or_default(),
            packet
        );
    }
    match out.response() {
        Some(resp) => println!(
            "probe {probe_v4} received {} — source spoofed as 8.8.8.8, answered by the ISP resolver",
            describe_response(&resp.view())
        ),
        None => println!("probe {probe_v4} received no answer"),
    }
    println!();
}

/// Appendix A: the naive A-record detector blames an innocent CPE; the
/// version.bind comparison does not.
fn print_appendix_a() {
    println!("Appendix A: A-record baseline vs version.bind comparison");
    let scenario = HomeScenario {
        cpe_model: CpeModelKind::OpenWanForwarder { version: "2.80".into() },
        middlebox: Some(MiddleboxSpec::redirect_all_to_isp()),
        ..HomeScenario::clean()
    };
    let built = scenario.build();
    let cpe_public: IpAddr = IpAddr::V4(built.addrs.cpe_public_v4);
    let config = built.locator_config();
    let mut transport = SimTransport::new(built);

    let verdict = baseline::a_record_cpe_check(
        &mut transport,
        cpe_public,
        "8.8.8.8".parse().unwrap(),
        &"example.com".parse().unwrap(),
        &mut TxidSequence::new(0x7000),
        QueryOptions::default(),
    );
    println!("  ground truth       : ISP middlebox intercepts; CPE is innocent (port 53 open)");
    println!("  A-record baseline  : {verdict:?}");
    let report = HijackLocator::new(config).run(&mut transport);
    println!(
        "  three-step verdict : intercepted={}, location={}",
        report.intercepted,
        report.location.map(|l| l.to_string()).unwrap_or_else(|| "-".into())
    );
    println!();
}

/// Re-measures every intercepted probe with archival on, and writes one
/// JSON-lines file of raw query/response records — the publishable dataset.
fn write_archives(path: &str, fleet: &Fleet, results: &[ProbeResult]) {
    #[derive(serde::Serialize)]
    struct Line {
        probe_id: u32,
        asn: u32,
        country: String,
        measurement: atlas_sim::RawMeasurement,
    }
    let mut out = String::new();
    let mut count = 0;
    for r in results.iter().filter(|r| r.report.intercepted) {
        let (_, measurement) = atlas_sim::measure_probe_archived(fleet, r.probe);
        let org = &fleet.config.orgs[r.probe.org];
        let line =
            Line { probe_id: r.probe.id, asn: org.asn, country: org.country.clone(), measurement };
        out.push_str(&serde_json::to_string(&line).expect("serializable"));
        out.push('\n');
        count += 1;
    }
    write_output(path, &format!("raw archives for {count} intercepted probes"), out);
}

/// Writes the campaign's aggregated metrics (per-step counters, retry and
/// drop tallies, per-AS verdict tallies) as JSON. The output is
/// bit-for-bit reproducible for a given fleet configuration, so CI can
/// diff it against a checked-in expectation.
fn write_metrics(path: &str, fleet: &Fleet, registry: &MetricsRegistry) {
    write_output(path, "campaign metrics", pretty_json(&registry.snapshot(&fleet.config.orgs)));
}

/// Writes the frozen latency distributions (`--timings-json`): exact
/// per-bucket counts plus p50/p90/p99/p999 for every phase, verdict, and
/// taxonomy-class histogram. The `virtual_clock` sections are bit-for-bit
/// reproducible for a given fleet configuration at any thread count or
/// batch size; the `wall_clock` sections measure this host.
fn write_timings(path: &str, timing: &TimingRegistry) {
    write_output(path, "latency histograms", pretty_json(&timing.snapshot()));
}

/// Writes the Prometheus text exposition (`--metrics-prom`): every
/// campaign counter the metrics registry tracks plus the latency
/// histograms, in the 0.0.4 text format a Prometheus scrape expects.
fn write_prom(path: &str, text: String) {
    write_output(path, "Prometheus exposition", text);
}

fn write_json(path: &str, summary: &CampaignSummary, results: &[ProbeResult]) {
    #[derive(serde::Serialize)]
    struct Dump<'a> {
        table4: &'a atlas_sim::Table4,
        table5: &'a atlas_sim::Table5,
        figure3: &'a atlas_sim::Figure3,
        figure4: &'a atlas_sim::Figure4,
        accuracy: &'a atlas_sim::AccuracyStats,
        reports: Vec<&'a locator::ProbeReport>,
    }
    let dump = Dump {
        table4: &summary.table4,
        table5: &summary.table5,
        figure3: &summary.figure3,
        figure4: &summary.figure4,
        accuracy: &summary.accuracy,
        reports: results.iter().map(|r| &r.report).collect(),
    };
    write_output(path, "campaign dump", pretty_json(&dump));
}

/// Pretty-printed JSON with a trailing newline: the form of every JSON
/// file `repro` writes.
fn pretty_json(value: &impl serde::Serialize) -> String {
    let mut json = serde_json::to_string_pretty(value).expect("serializable");
    json.push('\n');
    json
}

/// Writes one output file and names it on stderr. A file that cannot be
/// written ends the run with exit status 1.
fn write_output(path: &str, what: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {what} to {path}");
}
