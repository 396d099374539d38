//! The paper's output and `repro`'s JSON artifacts, pinned against
//! `tests/golden/`.
//!
//! `repro --all` at the default seed must match `tests/golden/repro_all.txt`
//! byte for byte. That one file covers Tables 1–5, Figures 3–4, the accuracy
//! block, the retry economics and the XB6 packet trace, whose lines carry
//! each DNS payload's size. The output is deterministic and the same at any
//! thread count; the thread count goes to standard error, which is not
//! compared.
//!
//! The 200-probe artifacts are pinned too: the `--metrics` and
//! `--classify-json` files byte for byte, the `--progress-json` stream by
//! its set of JSON key paths (its values carry wall time), and the
//! `--timings-json` file by value once its wall-clock histograms are
//! zeroed. Every run writes under `CARGO_TARGET_TMPDIR`.
//!
//! When a change intentionally alters that output, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hijack-bench --test golden_repro
//! ```
//!
//! and review the diff like any other source change. That rewrites
//! `repro_all.txt`, `classify_200.json` and `progress_200.json`;
//! `metrics_200.json` and `timings_200.json` are written by
//! `tests/campaign_acceptance.rs` and `tests/timing_acceptance.rs`.

use serde::{DeError, Deserialize, Value};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

/// A scratch output path for one test's `repro` run.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 path")
}

/// Runs `repro` with `args` and requires a zero exit.
fn repro(args: &[&str]) -> Output {
    let out =
        Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {args:?} exited with {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test -p hijack-bench \
             --test golden_repro",
            path.display()
        )
    })
}

/// Any JSON document, kept as the vendored `serde` value tree.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, DeError> {
        Ok(Json(v.clone()))
    }
}

fn parse_json(path: &Path) -> Value {
    let text = read(path);
    match serde_json::from_str::<Json>(&text) {
        Ok(Json(value)) => value,
        Err(e) => panic!("{} is not JSON: {e}", path.display()),
    }
}

/// Every key path in a JSON document: `$.a`, `$.a.b`, `$.list[].c`, ...
/// Array elements share one `[]` path, so two documents with the same
/// shape and different lengths or values give the same set.
fn key_paths(value: &Value) -> BTreeSet<String> {
    fn walk(value: &Value, path: &str, out: &mut BTreeSet<String>) {
        match value {
            Value::Object(pairs) => {
                for (key, child) in pairs {
                    let child_path = format!("{path}.{key}");
                    walk(child, &child_path, out);
                    out.insert(child_path);
                }
            }
            Value::Array(items) => {
                let child_path = format!("{path}[]");
                for child in items {
                    walk(child, &child_path, out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(value, "$", &mut out);
    out
}

fn assert_same_key_paths(golden_file: &Path, fresh: &Value) {
    let committed = key_paths(&parse_json(golden_file));
    let fresh = key_paths(fresh);
    let missing: Vec<_> = committed.difference(&fresh).collect();
    let extra: Vec<_> = fresh.difference(&committed).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "JSON schema drifted from {}\nmissing: {missing:?}\nextra:   {extra:?}",
        golden_file.display()
    );
}

/// The member `key` of a JSON object.
fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key:?} in {value:?}")),
        other => panic!("expected an object with {key:?}, got {other:?}"),
    }
}

/// The member `key` of a JSON object, for rewriting in place.
fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Object(pairs) => match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => v,
            None => panic!("no field {key:?}"),
        },
        other => panic!("expected an object with {key:?}, got {other:?}"),
    }
}

fn uint(value: &Value) -> u64 {
    match value {
        Value::Number(serde::Number::PosInt(n)) => *n,
        other => panic!("expected an unsigned integer, got {other:?}"),
    }
}

#[test]
fn repro_all_matches_golden() {
    let out = repro(&["--all"]);
    let rendered = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let path = golden("repro_all.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
    }
    let expected = read(&path);
    if rendered != expected {
        let first = rendered
            .lines()
            .zip(expected.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| rendered.lines().count().min(expected.lines().count()));
        panic!(
            "repro --all diverged from {} at line {} ({} lines now, {} in the golden)\n\
             now:    {:?}\ngolden: {:?}\nif the change is intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test -p hijack-bench --test golden_repro and review the diff",
            path.display(),
            first + 1,
            rendered.lines().count(),
            expected.lines().count(),
            rendered.lines().nth(first).unwrap_or(""),
            expected.lines().nth(first).unwrap_or(""),
        );
    }
}

#[test]
fn metrics_200_matches_golden() {
    let fresh = scratch("metrics_200.json");
    repro(&["--size", "200", "--metrics", path_arg(&fresh)]);
    let path = golden("metrics_200.json");
    assert!(
        read(&fresh) == read(&path),
        "repro --size 200 --metrics diverged from {}; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test campaign_acceptance and review the diff",
        path.display()
    );
}

#[test]
fn classify_200_matches_golden_with_full_agreement() {
    let fresh = scratch("classify_200.json");
    repro(&[
        "--classify",
        "--size",
        "200",
        "--seed",
        "7",
        "--threads",
        "4",
        "--classify-json",
        path_arg(&fresh),
    ]);
    let path = golden("classify_200.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, read(&fresh)).unwrap();
    }
    let doc = parse_json(&fresh);
    assert_same_key_paths(&path, &doc);
    assert_eq!(uint(field(&doc, "probes")), 200);
    assert_eq!(uint(field(&doc, "truth_mismatches")), 0);
    assert_eq!(uint(field(&doc, "capture_unconfirmed")), 0);
    assert!(
        read(&fresh) == read(&path),
        "repro --classify --size 200 --seed 7 diverged from {}",
        path.display()
    );
}

#[test]
fn progress_200_keeps_the_golden_schema_and_finishes() {
    let fresh = scratch("progress_200.json");
    repro(&["--table", "4", "--size", "200", "--progress-json", path_arg(&fresh)]);
    let path = golden("progress_200.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, read(&fresh)).unwrap();
    }
    let events = parse_json(&fresh);
    assert_same_key_paths(&path, &events);
    let Value::Array(events) = &events else { panic!("progress JSON is not an array") };
    let last = events.last().expect("at least one progress event");
    assert_eq!(field(last, "done"), &Value::Bool(true), "{last:?}");
    assert_eq!(uint(field(last, "completed")), 200, "{last:?}");
    assert_eq!(uint(field(last, "total")), 200, "{last:?}");
}

#[test]
fn timings_200_match_golden_on_the_virtual_clock() {
    let fresh = scratch("timings_200.json");
    let prom = scratch("timings_200.prom");
    repro(&[
        "--size",
        "200",
        "--timings-json",
        path_arg(&fresh),
        "--metrics-prom",
        path_arg(&prom),
    ]);
    assert!(read(&prom).contains("repro_rtt_virtual_microseconds_bucket"));

    // Wall-clock values measure the runner, so check them for liveness
    // and then zero them, exactly as the golden was rendered (see
    // tests/timing_acceptance.rs). Everything else runs on the simulated
    // clock and must match the golden exactly.
    let mut timings = parse_json(&fresh);
    let wall = field_mut(&mut timings, "wall_clock");
    let Value::Array(phases) = field_mut(wall, "per_phase") else {
        panic!("per_phase is not an array")
    };
    let names: Vec<_> = phases.iter().map(|p| field(p, "name").clone()).collect();
    let want = ["world-build", "encode", "attempt", "probe-total"];
    assert_eq!(names, want.map(|n| Value::String(n.into())));
    for phase in phases.iter_mut() {
        let hist = field_mut(phase, "histogram");
        assert!(uint(field(hist, "count")) > 0, "wall-clock phase recorded no samples");
        for summary in ["count", "sum", "min", "max", "p50", "p90", "p99", "p999"] {
            *field_mut(hist, summary) = Value::Number(serde::Number::PosInt(0));
        }
        *field_mut(hist, "buckets") = Value::Array(Vec::new());
    }
    let path = golden("timings_200.json");
    assert!(
        timings == parse_json(&path),
        "timings diverged from {}; if intentional, regenerate with UPDATE_GOLDEN=1 \
         cargo test --test timing_acceptance and review the diff",
        path.display()
    );
}
