//! `hijack-benchmark`: end-to-end and per-layer measurements of the
//! home-hijack campaign runner. See README.md for the workloads, the
//! metrics and how to compare two commits.

mod alloc;
mod drive;
mod host;
mod measure;
mod report;
mod trace;

use drive::Workload;
use report::{def, RunResult};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The fleet generator's own default seed, `0x41544C53` ("ATLS").
const DEFAULT_SEED: u64 = 1_096_043_603;

const USAGE: &str = "usage:
  hijack-benchmark --workload <census|interceptors|lossy-retry|taxonomy>
                   [--seed N] [--seconds S] [--trace 0|1]
      set up, warm up, then sweep campaigns over the fleet's chunks for S
      seconds (at least one sweep); the last line is the JSON result";

struct Args {
    workload: Workload,
    trace: bool,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut trace) = (None, false);
    let (mut seed, mut seconds) = (DEFAULT_SEED, 0.0_f64);
    let mut flags = args.iter();
    while let Some(flag) = flags.next() {
        let value = flags
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        trace,
        seed,
        seconds,
    })
}

/// Prints a run's facts and metrics, then the JSON result as the last
/// line of standard output.
fn print_result(result: &RunResult) {
    for note in &result.notes {
        println!("{note}");
    }
    for (name, value) in &result.metrics {
        let unit = def(name).map_or("", |d| d.1);
        println!("{name:<32} {value:>18.6} {unit}");
    }
    for problem in &result.problems {
        eprintln!("correctness check failed: {problem}");
    }
    if result.failed > 0 {
        eprintln!(
            "{} of {} probes disagree with ground truth beyond the known failures",
            result.failed, result.attempted
        );
    }
    println!("{}", result.json_line());
}

/// Zero only for a run whose every correctness check passed.
fn exit_code(result: &RunResult) -> ExitCode {
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hijack-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let size = args.workload.full_size();
    let outcome = if args.trace {
        trace::run(args.workload, args.seed, args.seconds, size)
    } else {
        measure::run(args.workload, args.seed, args.seconds, size)
    };
    match outcome {
        Ok(result) => {
            print_result(&result);
            exit_code(&result)
        }
        Err(e) => {
            eprintln!("hijack-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_sim::{Flavor, Fleet};
    use report::json::{field, parse_json, read_result_line};
    use report::{END_TO_END, PER_LAYER};
    use serde::Value;
    use std::sync::{Mutex, MutexGuard};

    static SERIAL: Mutex<()> = Mutex::new(());

    /// Tests that run campaigns take turns: the allocation counters are
    /// process-wide, and a run checks its traced allocations against them.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// `(name, unit, better)` of every metric in one section of the
    /// repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let Some(Value::Array(metrics)) = field(&doc, section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        let text = |m: &Value, key: &str| match field(m, key) {
            Some(Value::String(s)) => s.clone(),
            _ => panic!("a {section} metric has no {key}"),
        };
        metrics
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect()
    }

    fn definitions(defs: &[report::Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|(name, unit, better)| {
                let better = if *better == report::Better::Higher {
                    "higher"
                } else {
                    "lower"
                };
                (name.to_string(), unit.to_string(), better.to_string())
            })
            .collect()
    }

    fn names(result: &RunResult) -> Vec<String> {
        result.metrics.iter().map(|m| m.0.to_string()).collect()
    }

    #[test]
    fn the_metric_definitions_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), definitions(&END_TO_END));
        assert_eq!(declared("per_layer"), definitions(&PER_LAYER));
    }

    #[test]
    fn tiny_runs_of_every_workload_emit_every_declared_metric() {
        let _serial = serial();
        let end_to_end: Vec<String> = declared("end_to_end").into_iter().map(|d| d.0).collect();
        let per_layer: Vec<String> = declared("per_layer").into_iter().map(|d| d.0).collect();
        for workload in Workload::ALL {
            let name = workload.name();
            let untraced = measure::run(workload, 7, 0.0, 300).expect("host counters readable");
            assert!(untraced.correct(), "{name}: {:?}", untraced.problems);
            assert_eq!(names(&untraced), end_to_end, "{name}");
            let (correct, metrics) = read_result_line(&untraced.json_line()).expect("parses");
            assert!(correct);
            assert_eq!(metrics.len(), end_to_end.len());
            assert!(metrics.iter().all(|(_, v)| *v > 0.0), "{name}: {metrics:?}");

            let traced = trace::run(workload, 7, 0.0, 300).expect("host counters readable");
            assert!(traced.correct(), "{name}: {:?}", traced.problems);
            assert_eq!(names(&traced), per_layer, "{name}");
            let reconcile = traced
                .metrics
                .iter()
                .find(|m| m.0 == "trace.reconcile_ratio");
            let reconcile = reconcile.expect("reported").1;
            assert!(
                (0.9..=1.1).contains(&reconcile),
                "{name}: reconcile {reconcile}"
            );
        }
    }

    #[test]
    fn a_failed_check_makes_the_command_exit_non_zero() {
        let _serial = serial();
        let fleet = drive::fleet(Workload::Census, 7, 300);
        let pass = drive::campaign(Workload::Census, &fleet);
        let mut result = RunResult::default();
        let digest = measure::check_pass(&mut result, &fleet, &pass, None, 0);
        assert!(result.correct());
        assert_eq!(exit_code(&result), ExitCode::SUCCESS);

        // A pass whose outputs differ from the first pass's.
        measure::check_pass(&mut result, &fleet, &pass, Some(digest ^ 1), 0);
        assert_eq!(exit_code(&result), ExitCode::FAILURE);

        // A pass that left responding probes unmeasured.
        let mut result = RunResult::default();
        let partial = drive::campaign(Workload::Census, &drive::slice(&fleet, 0, 100));
        measure::check_pass(&mut result, &fleet, &partial, None, 0);
        assert!(result.failed > 0);
        assert_eq!(exit_code(&result), ExitCode::FAILURE);

        // A probe whose verdict disagrees with ground truth.
        let failed = RunResult {
            attempted: 300,
            failed: 1,
            ..RunResult::default()
        };
        assert_eq!(exit_code(&failed), ExitCode::FAILURE);
        assert!(failed.json_line().starts_with("{\"correct\": false,"));
    }

    /// A one-home fleet that meets the simulator's address-plan bug: a
    /// v6-only middlebox moved into the home of customer 82, whose
    /// delegated /64 holds the ISP resolver.
    fn fleet_meeting_the_address_plan_bug() -> Fleet {
        let mut fleet = drive::fleet(Workload::Census, 7, 10_000);
        let mut probe = fleet
            .probes
            .iter()
            .find(|p| matches!(p.flavor, Flavor::MiddleboxV6Only { .. }))
            .expect("every default fleet plants v6-only middleboxes")
            .clone();
        probe.customer_index = 82;
        (probe.has_v6, probe.responds, probe.flaky) = (true, true, false);
        fleet.probes = vec![probe];
        fleet
    }

    #[test]
    fn known_failures_are_counted_apart_and_no_others_are_allowed() {
        let _serial = serial();
        let fleet = fleet_meeting_the_address_plan_bug();
        let known = drive::known_failures(Workload::Census, &fleet);
        assert_eq!(known, 1, "the address-plan bug no longer fails this home");
        let pass = drive::campaign(Workload::Census, &fleet);
        assert_eq!(pass.summary.failures(), 1);

        let mut result = RunResult::default();
        measure::check_pass(&mut result, &fleet, &pass, None, known);
        assert_eq!((result.failed, result.correct()), (0, true));

        // The same failure, not explained by a known one.
        let mut result = RunResult::default();
        measure::check_pass(&mut result, &fleet, &pass, None, 0);
        assert_eq!((result.failed, result.correct()), (1, false));
        assert_eq!(exit_code(&result), ExitCode::FAILURE);
    }

    #[test]
    fn arguments_are_checked_strictly() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let one = parse_args(&args(
            "--workload lossy-retry --seed 3 --seconds 10 --trace 1",
        ))
        .expect("the benchmark contract's arguments parse");
        assert_eq!(one.workload, Workload::LossyRetry);
        assert!(one.trace);
        assert_eq!((one.seed, one.seconds), (3, 10.0));
        for bad in [
            "",
            "--workload nope",
            "--workload census --trace 2",
            "--workload census --seconds -1",
            "--workload census --rounds 3",
            "run --workload census",
            "--workload census --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
