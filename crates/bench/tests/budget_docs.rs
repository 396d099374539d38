//! The docs state the allocation budgets the campaign gates enforce.
//!
//! `fleet_scale.rs` holds each per-probe budget as a pair of constants,
//! `MAX_<NAME>ALLOCS_PER_PROBE` and `MAX_<NAME>BYTES_PER_PROBE`. README.md
//! and EXPERIMENTS.md must each state every pair in one phrase, such as
//! `18.9 allocations / 7,882 bytes`, so a budget that moves without its
//! docs fails here, and a number that merely appears somewhere else in a
//! doc does not count.

const FLEET_SCALE: &str = include_str!("fleet_scale.rs");
const DOCS: [(&str, &str); 2] = [
    ("README.md", include_str!("../../../README.md")),
    ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
];

/// The `f64` constants `MAX_*` of `fleet_scale.rs`: each name without its
/// `MAX_` prefix, and its value.
fn max_constants() -> Vec<(&'static str, f64)> {
    FLEET_SCALE
        .lines()
        .filter_map(|line| {
            let (name, value) = line.strip_prefix("const MAX_")?.split_once(": f64 = ")?;
            let value = value.strip_suffix(';')?.replace('_', "").parse().ok()?;
            Some((name, value))
        })
        .collect()
}

/// `value` rounded to a whole number, with a comma between thousands.
fn thousands(value: f64) -> String {
    let digits = format!("{value:.0}");
    let mut out = String::new();
    for (i, digit) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(digit);
    }
    out
}

/// Every budget pair as the docs phrase it.
fn budget_phrases() -> Vec<String> {
    let constants = max_constants();
    let bytes_of = |stem: &str| {
        let name = format!("{stem}BYTES_PER_PROBE");
        constants.iter().find(|(n, _)| *n == name).map(|&(_, bytes)| bytes)
    };
    constants
        .iter()
        .filter_map(|&(name, allocs)| {
            let stem = name.strip_suffix("ALLOCS_PER_PROBE")?;
            let bytes = bytes_of(stem).unwrap_or_else(|| panic!("MAX_{name} has no bytes partner"));
            Some(format!("{allocs:.1} allocations / {} bytes", thousands(bytes)))
        })
        .collect()
}

#[test]
fn readme_and_experiments_state_every_fleet_scale_budget() {
    let phrases = budget_phrases();
    // The benign, heavy-tail and capture budgets.
    assert_eq!(phrases.len(), 3, "budget pairs read from fleet_scale.rs: {phrases:?}");
    for (doc, text) in DOCS {
        for phrase in &phrases {
            assert!(text.contains(phrase.as_str()), "{doc} does not state the budget `{phrase}`");
        }
    }
}

#[test]
fn thousands_groups_digits_by_three() {
    assert_eq!(thousands(7_882.0), "7,882");
    assert_eq!(thousands(123_432.0), "123,432");
    assert_eq!(thousands(1_000_000.0), "1,000,000");
    assert_eq!(thousands(24.0), "24");
}
