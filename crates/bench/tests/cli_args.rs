//! Strict argument parsing for the observability flags: every malformed
//! spelling of `--metrics-prom` / `--timings-json` must exit 2 with a
//! usage message, and the valid spellings must produce their files. An
//! output that cannot be written exits 1, whichever flag asked for it.

use std::path::Path;
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn malformed_observability_flags_exit_2() {
    // (args, what's wrong) — each must be rejected at parse time with
    // exit code 2 and the usage string on stderr, before any work runs.
    let matrix: &[(&[&str], &str)] = &[
        (&["--metrics-prom"], "flag without a value"),
        (&["--timings-json"], "flag without a value"),
        (&["--metrics-prom", "", "--size", "10"], "empty path value"),
        (&["--timings-json", "", "--size", "10"], "empty path value"),
        (&["--metrics-prom=/tmp/x"], "equals spelling is not accepted"),
        (&["--timings-json=/tmp/x"], "equals spelling is not accepted"),
        (&["--metric-prom", "/tmp/x"], "misspelled flag"),
        (&["--timings", "/tmp/x"], "unknown flag"),
        (&["--prom", "/tmp/x"], "unknown flag"),
    ];
    for (args, why) in matrix {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} ({why}) should exit 2, got {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: repro"),
            "{args:?} ({why}) should print usage, got: {stderr}"
        );
    }
}

#[test]
fn unwritable_outputs_exit_1() {
    let missing = std::env::temp_dir()
        .join(format!("repro-cli-args-missing-{}", std::process::id()))
        .join("out");
    let path = missing.to_str().unwrap();
    for flag in ["--metrics", "--json", "--archives"] {
        let out = repro(&["--size", "5", flag, path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{flag} under a missing directory should exit 1, got {:?}\nstderr: {stderr}",
            out.status.code()
        );
        assert!(
            stderr.contains("failed to write"),
            "{flag} should name the failed write, got: {stderr}"
        );
    }
}

#[test]
fn valid_observability_flags_write_their_files() {
    let dir = std::env::temp_dir().join(format!("repro-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prom = dir.join("campaign.prom");
    let timings = dir.join("campaign-timings.json");

    let out = repro(&[
        "--size",
        "20",
        "--metrics-prom",
        prom.to_str().unwrap(),
        "--timings-json",
        timings.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "campaign with observability flags failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom_text = std::fs::read_to_string(&prom).expect("exposition written");
    assert!(prom_text.contains("# TYPE repro_probes_total counter"));
    assert!(prom_text.contains("repro_rtt_virtual_microseconds_bucket"));
    let timings_text = std::fs::read_to_string(&timings).expect("timings written");
    let parsed: atlas_sim::CampaignTimings =
        serde_json::from_str(&timings_text).expect("timings file deserializes");
    assert!(!parsed.virtual_clock.per_phase.is_empty());
    assert!(!parsed.wall_clock.per_phase.is_empty());

    // Classification mode consumes the same flags without forcing a
    // measurement campaign.
    let scan_timings = dir.join("scan-timings.json");
    let out = repro(&["--classify", "--size", "20", "--timings-json", scan_timings.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "classify with --timings-json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(Path::new(&scan_timings).exists(), "classify run wrote timings");

    std::fs::remove_dir_all(&dir).ok();
}
