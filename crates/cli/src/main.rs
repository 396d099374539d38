//! `hijack-scan` — run the three-step DNS-interception locator from this
//! machine, against the real Internet.
//!
//! ```text
//! hijack-scan                        # detect; step 2 skipped w/o --cpe-ip
//! hijack-scan --cpe-ip 203.0.113.7   # full localization
//! hijack-scan --no-v6 --timeout 3000
//! hijack-scan --json                 # machine-readable report
//! hijack-scan --ttl-scan             # §6 TTL extension (needs IP_TTL)
//! ```
//!
//! The tool issues ~16 DNS queries (up to ~30 when interception is found):
//! the location queries of paper Table 1, `version.bind` comparisons, and
//! bogon queries. It requires no privileges — the paper's point.
//!
//! With `--scenario <name>` the same pipeline runs against a simulated
//! household instead of the real network, which unlocks the packet-level
//! flight recorder: `--capture` prints every transaction's per-hop
//! timeline and `--capture-json` exports the flows as JSON.

use interception::{HomeScenario, SimTransport};
use locator::ttl_scan::{interpret, ttl_scan, TtlVerdict};
use locator::{
    default_resolvers, HijackLocator, LocatorConfig, QueryOptions, TxidSequence, UdpTransport,
};
use std::net::IpAddr;
use std::process::ExitCode;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    cpe_ip: Option<IpAddr>,
    cpe_ip_v6: Option<IpAddr>,
    timeout_ms: u64,
    attempts: u32,
    retry_backoff_ms: u64,
    test_v6: bool,
    json: bool,
    trace: bool,
    metrics_json: bool,
    run_ttl_scan: bool,
    investigate: bool,
    scenario: Option<String>,
    capture: bool,
    capture_json: Option<String>,
    help: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            cpe_ip: None,
            cpe_ip_v6: None,
            timeout_ms: 5_000,
            attempts: 1,
            retry_backoff_ms: 0,
            test_v6: true,
            json: false,
            trace: false,
            metrics_json: false,
            run_ttl_scan: false,
            investigate: false,
            scenario: None,
            capture: false,
            capture_json: None,
            help: false,
        }
    }
}

/// Parses arguments; returns `Err` with a message on malformed input.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cpe-ip" => {
                i += 1;
                let v = args.get(i).ok_or("--cpe-ip needs an address")?;
                let ip: IpAddr = v.parse().map_err(|_| format!("invalid address {v}"))?;
                if ip.is_ipv4() {
                    opts.cpe_ip = Some(ip);
                } else {
                    opts.cpe_ip_v6 = Some(ip);
                }
            }
            "--timeout" => {
                i += 1;
                let v = args.get(i).ok_or("--timeout needs milliseconds")?;
                opts.timeout_ms = v.parse().map_err(|_| format!("invalid timeout {v}"))?;
            }
            "--attempts" => {
                i += 1;
                let v = args.get(i).ok_or("--attempts needs a count")?;
                let n: u32 = v.parse().map_err(|_| format!("invalid attempts {v}"))?;
                if n == 0 {
                    return Err("--attempts must be at least 1".into());
                }
                opts.attempts = n;
            }
            "--retry-backoff" => {
                i += 1;
                let v = args.get(i).ok_or("--retry-backoff needs milliseconds")?;
                opts.retry_backoff_ms = v.parse().map_err(|_| format!("invalid backoff {v}"))?;
            }
            "--no-v6" => opts.test_v6 = false,
            "--json" => opts.json = true,
            "--trace" => opts.trace = true,
            "--metrics" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => opts.metrics_json = true,
                    Some(other) => return Err(format!("unknown metrics format {other}")),
                    None => return Err("--metrics needs a format (json)".into()),
                }
            }
            "--ttl-scan" => opts.run_ttl_scan = true,
            "--investigate" => opts.investigate = true,
            "--scenario" => {
                i += 1;
                let v = args.get(i).ok_or("--scenario needs a name")?;
                opts.scenario = Some(v.clone());
            }
            "--capture" => opts.capture = true,
            "--capture-json" => {
                i += 1;
                let v = args.get(i).ok_or("--capture-json needs a path")?;
                opts.capture_json = Some(v.clone());
            }
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if (opts.capture || opts.capture_json.is_some()) && opts.scenario.is_none() {
        return Err("--capture needs --scenario: the flight recorder lives in the \
                    simulator, not the real network"
            .into());
    }
    if opts.scenario.is_some() && (opts.run_ttl_scan || opts.investigate) {
        return Err("--ttl-scan/--investigate run against the live network only".into());
    }
    Ok(opts)
}

const USAGE: &str = "\
hijack-scan: locate transparent DNS interception (IMC'21 technique)

options:
  --cpe-ip <addr>   your router's public IP (enables step 2, CPE check);
                    pass twice for both a v4 and a v6 address
  --timeout <ms>    per-query timeout (default 5000)
  --attempts <n>    wire attempts per query (default 1; retries use a
                    fresh transaction ID each attempt)
  --retry-backoff <ms>  wait between attempts (default 0)
  --no-v6           skip IPv6 location queries
  --json            print the full report as JSON
  --trace           print one line per trace event (queries, wire
                    attempts, accepted and wrong-source responses,
                    timeouts, verdicts)
  --metrics json    print per-step query/answer/timeout counters as JSON
  --ttl-scan        additionally run the TTL-scan hop localization (§6)
  --investigate     run the full battery (three-step + DNSSEC-AD +
                    NXDOMAIN-wildcard corroboration) and print a summary
  --scenario <name> run against a simulated household instead of the
                    real network: clean, xb6, 1053, 11992, 21823
  --capture         with --scenario: print each DNS transaction's
                    packet-level per-hop timeline (flight recorder)
  --capture-json <path>  with --scenario: write the flows as JSON
  -h, --help        this text";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Some(name) = opts.scenario.clone() {
        return run_scenario(&opts, &name);
    }

    let config = LocatorConfig {
        cpe_public_v4: opts.cpe_ip,
        cpe_public_v6: opts.cpe_ip_v6,
        test_ipv6: opts.test_v6,
        query_options: QueryOptions {
            timeout_ms: opts.timeout_ms,
            attempts: opts.attempts,
            retry_backoff_ms: opts.retry_backoff_ms,
            ..QueryOptions::default()
        },
        ..LocatorConfig::default()
    };
    let mut transport = UdpTransport::default();
    // One recorder serves both observability flags: --trace prints the
    // events, --metrics folds them. Without either, the locator runs with
    // the zero-cost NullSink.
    let tracing = opts.trace || opts.metrics_json;
    let mut recorder = locator::TraceRecorder::default();
    if opts.investigate {
        let inv_config = locator::InvestigationConfig {
            locator: config,
            ttl_budget: opts.run_ttl_scan.then_some(20),
            ..locator::InvestigationConfig::default()
        };
        let investigator = locator::Investigator::new(inv_config);
        let investigation = if tracing {
            investigator.run_traced(&mut transport, &mut recorder)
        } else {
            investigator.run(&mut transport)
        };
        print_observability(&opts, &recorder.events);
        if opts.json {
            match serde_json::to_string_pretty(&investigation) {
                Ok(json) => println!("{json}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            print!("{}", investigation.report);
            println!("summary: {}", investigation.summary);
        }
        return if investigation.report.intercepted {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let mut locator = HijackLocator::new(config);
    let report = if tracing {
        locator.run_traced(&mut transport, &mut recorder)
    } else {
        locator.run(&mut transport)
    };
    print_observability(&opts, &recorder.events);

    if opts.json {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print_human(&report, opts.cpe_ip.is_some() || opts.cpe_ip_v6.is_some());
    }

    if opts.run_ttl_scan {
        run_ttl_extension(&mut transport, opts.timeout_ms);
    }

    if report.intercepted {
        ExitCode::FAILURE // non-zero so scripts can alert on interception
    } else {
        ExitCode::SUCCESS
    }
}

/// `--scenario`: runs the three-step pipeline against a simulated
/// household — the paper's worked examples plus the XB6 case study — with
/// the packet-level flight recorder available via `--capture`.
fn run_scenario(opts: &Options, name: &str) -> ExitCode {
    let scenario = match name {
        "clean" => HomeScenario::clean(),
        "xb6" => HomeScenario::xb6_case_study(),
        other => match HomeScenario::worked_examples().into_iter().find(|(id, _)| *id == other) {
            Some((_, s)) => s,
            None => {
                eprintln!("error: unknown scenario {other} (clean, xb6, 1053, 11992, 21823)");
                return ExitCode::from(2);
            }
        },
    };
    let built = scenario.build();
    // The scenario knows its own CPE address; CLI flags still override the
    // query pacing so retry behavior can be explored in simulation.
    let mut config = built.locator_config();
    config.test_ipv6 = opts.test_v6;
    config.query_options.timeout_ms = opts.timeout_ms;
    config.query_options.attempts = opts.attempts;
    config.query_options.retry_backoff_ms = opts.retry_backoff_ms;
    let mut transport = SimTransport::new(built);
    let capture_on = opts.capture || opts.capture_json.is_some();
    if capture_on {
        transport.enable_capture();
    }
    let tracing = opts.trace || opts.metrics_json;
    let mut recorder = locator::TraceRecorder::default();
    let mut locator = HijackLocator::new(config);
    let report = if tracing {
        locator.run_traced(&mut transport, &mut recorder)
    } else {
        locator.run(&mut transport)
    };
    print_observability(opts, &recorder.events);
    if capture_on {
        let flows = transport.take_flows();
        if opts.capture {
            println!("flight recorder: {} transactions from scenario {name}", flows.len());
            print!("{}", interception::render_flows(&flows));
        }
        if let Some(path) = &opts.capture_json {
            match std::fs::write(path, interception::flows_to_json(&flows)) {
                Ok(()) => eprintln!("wrote capture flows to {path}"),
                Err(e) => {
                    eprintln!("error: failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if opts.json {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print_human(&report, true);
    }
    if report.intercepted {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders the recorded trace and/or folded metrics, per the flags.
fn print_observability(opts: &Options, events: &[locator::TraceEvent<'_>]) {
    if opts.trace {
        for event in events {
            println!("{event}");
        }
        if !events.is_empty() {
            println!();
        }
    }
    if opts.metrics_json {
        let metrics = locator::ProbeMetrics::from_events(events);
        match serde_json::to_string_pretty(&metrics) {
            Ok(json) => println!("{json}"),
            Err(e) => eprintln!("error rendering metrics: {e}"),
        }
    }
}

fn print_human(report: &locator::ProbeReport, had_cpe_ip: bool) {
    println!("step 1 — location queries ({} total queries sent):", report.queries_sent);
    for (key, result) in report.matrix.v4.iter() {
        println!("  {:<16} IPv4: {}", key.display_name(), describe(result));
    }
    for (key, result) in report.matrix.v6.iter() {
        if !matches!(result, locator::LocationTestResult::NotTested) {
            println!("  {:<16} IPv6: {}", key.display_name(), describe(result));
        }
    }
    if !report.intercepted {
        println!("\nno interception detected: your queries reach the resolvers you chose.");
        return;
    }
    println!("\nINTERCEPTION DETECTED");
    match &report.cpe {
        Some(cpe) => {
            println!("step 2 — version.bind comparison:");
            println!("  CPE public IP : {}", cpe.cpe_response);
            for (key, answer) in cpe.resolver_responses.iter() {
                if let Some(a) = answer {
                    println!("  via {:<12} : {a}", key.display_name());
                }
            }
        }
        None if !had_cpe_ip => {
            println!("step 2 skipped: pass --cpe-ip <your router's public IP> to test the CPE.")
        }
        None => {}
    }
    if let Some(bogon) = &report.bogon {
        println!("step 3 — bogon queries: v4 {:?}, v6 {:?}", bogon.v4, bogon.v6);
    }
    if let Some(location) = report.location {
        println!("\nverdict: interceptor located at {location}");
    }
    if let Some(t) = report.transparency {
        println!("transparency: {t}");
    }
}

fn describe(result: &locator::LocationTestResult) -> String {
    match result {
        locator::LocationTestResult::Standard => "standard response".into(),
        locator::LocationTestResult::NonStandard { observed } => {
            format!("NON-STANDARD ({observed})")
        }
        locator::LocationTestResult::Timeout => "timeout".into(),
        locator::LocationTestResult::NotTested => "not tested".into(),
    }
}

fn run_ttl_extension(transport: &mut UdpTransport, timeout_ms: u64) {
    println!("\nTTL scan (§6 extension; needs IP_TTL, best-effort):");
    let opts = QueryOptions { timeout_ms: timeout_ms.min(2_000), ..QueryOptions::default() };
    let resolvers = default_resolvers();
    let mut txids = TxidSequence::new(0x6000);
    let mut baseline = None;
    for resolver in &resolvers {
        let result =
            ttl_scan(transport, resolver.v4[0], &resolver.location_query(), 20, &mut txids, opts);
        match result.first_response_ttl {
            Some(ttl) => {
                println!("  {:<16} first answer at TTL {ttl}", resolver.key.display_name())
            }
            None => println!("  {:<16} no answer within 20 hops", resolver.key.display_name()),
        }
        match &baseline {
            None => baseline = Some(result),
            Some(base) => match interpret(&result, base) {
                TtlVerdict::AnsweredByCpe => {
                    println!("    -> answered at hop 1: your own router responds")
                }
                TtlVerdict::InterceptedAtHop { hops } => {
                    println!("    -> answers {hops} hops out, earlier than the baseline")
                }
                TtlVerdict::Consistent | TtlVerdict::Inconclusive => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn cpe_ip_routes_by_family() {
        let o = parse(&args(&["--cpe-ip", "203.0.113.7"])).unwrap();
        assert_eq!(o.cpe_ip, Some("203.0.113.7".parse().unwrap()));
        assert_eq!(o.cpe_ip_v6, None);
        let o = parse(&args(&["--cpe-ip", "2001:db8::7", "--cpe-ip", "203.0.113.7"])).unwrap();
        assert_eq!(o.cpe_ip, Some("203.0.113.7".parse().unwrap()));
        assert_eq!(o.cpe_ip_v6, Some("2001:db8::7".parse().unwrap()));
    }

    #[test]
    fn flags() {
        let o = parse(&args(&["--no-v6", "--json", "--ttl-scan", "--timeout", "1500"])).unwrap();
        assert!(!o.test_v6);
        assert!(o.json);
        assert!(o.run_ttl_scan);
        assert!(!o.investigate);
        assert_eq!(o.timeout_ms, 1500);
        assert!(parse(&args(&["--investigate"])).unwrap().investigate);
    }

    #[test]
    fn retry_flags() {
        let o = parse(&args(&["--attempts", "3", "--retry-backoff", "250"])).unwrap();
        assert_eq!(o.attempts, 3);
        assert_eq!(o.retry_backoff_ms, 250);
        // Defaults stay single-shot.
        let o = parse(&[]).unwrap();
        assert_eq!(o.attempts, 1);
        assert_eq!(o.retry_backoff_ms, 0);
    }

    #[test]
    fn observability_flags() {
        let o = parse(&args(&["--trace", "--metrics", "json"])).unwrap();
        assert!(o.trace);
        assert!(o.metrics_json);
        let o = parse(&[]).unwrap();
        assert!(!o.trace);
        assert!(!o.metrics_json);
        assert!(parse(&args(&["--metrics"])).is_err());
        assert!(parse(&args(&["--metrics", "xml"])).is_err());
    }

    #[test]
    fn scenario_and_capture_flags() {
        let o = parse(&args(&["--scenario", "xb6", "--capture"])).unwrap();
        assert_eq!(o.scenario.as_deref(), Some("xb6"));
        assert!(o.capture);
        assert_eq!(o.capture_json, None);
        let o = parse(&args(&["--scenario", "1053", "--capture-json", "/tmp/f.json"])).unwrap();
        assert_eq!(o.capture_json.as_deref(), Some("/tmp/f.json"));
        assert!(!o.capture);
        // The flight recorder only exists in simulation.
        assert!(parse(&args(&["--capture"])).is_err());
        assert!(parse(&args(&["--capture-json", "/tmp/f.json"])).is_err());
        assert!(parse(&args(&["--scenario"])).is_err());
        assert!(parse(&args(&["--capture-json"])).is_err());
        // Live-only extensions don't combine with a simulated household.
        assert!(parse(&args(&["--scenario", "xb6", "--ttl-scan"])).is_err());
        assert!(parse(&args(&["--scenario", "xb6", "--investigate"])).is_err());
    }

    #[test]
    fn errors() {
        assert!(parse(&args(&["--cpe-ip"])).is_err());
        assert!(parse(&args(&["--cpe-ip", "not-an-ip"])).is_err());
        assert!(parse(&args(&["--timeout", "soon"])).is_err());
        assert!(parse(&args(&["--attempts"])).is_err());
        assert!(parse(&args(&["--attempts", "0"])).is_err());
        assert!(parse(&args(&["--attempts", "many"])).is_err());
        assert!(parse(&args(&["--retry-backoff", "later"])).is_err());
        assert!(parse(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn help_flag() {
        assert!(parse(&args(&["--help"])).unwrap().help);
        assert!(parse(&args(&["-h"])).unwrap().help);
    }
}
