//! The paper's output, pinned: the standard output of `repro --all` at the
//! default seed must match `tests/golden/repro_all.txt` byte for byte.
//!
//! That one file covers Tables 1–5, Figures 3–4, the accuracy block, the
//! retry economics and the XB6 packet trace, whose lines carry each DNS
//! payload's size. The output is deterministic and the same at any thread
//! count; the thread count goes to standard error, which is not compared.
//!
//! When a change intentionally alters that output, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hijack-bench --test golden_repro
//! ```
//!
//! and review the diff like any other source change.

use std::path::PathBuf;
use std::process::Command;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/repro_all.txt")
}

#[test]
fn repro_all_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--all")
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro --all exited with {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test -p hijack-bench \
             --test golden_repro",
            path.display()
        )
    });
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
