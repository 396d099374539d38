//! Metric definitions, the result line, and the median used to aggregate
//! repeated measurements.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric the benchmark reports: name, unit, and which way is better.
pub type Def = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// What a user of the campaign runner sees, reported by an untraced run.
pub const END_TO_END: [Def; 6] = [
    ("probes_per_s", "1/s", Higher),
    ("cpu_us_per_probe", "us", Lower),
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MiB", Lower),
    ("allocs_per_probe", "count", Lower),
    ("alloc_bytes_per_probe", "bytes", Lower),
];

/// One layer each, reported by a traced run. Shares are of the traced
/// per-probe loop's wall time; per-probe counts are per responding probe.
pub const PER_LAYER: [Def; 46] = [
    ("fleet.generate_ms", "ms", Lower),
    ("scenario.build_us", "us", Lower),
    ("scenario.build_share", "ratio", Lower),
    ("scenario.build_allocs", "count", Lower),
    ("scenario.teardown_us", "us", Lower),
    ("locator.self_us", "us", Lower),
    ("locator.self_share", "ratio", Lower),
    ("locator.allocs", "count", Lower),
    ("locator.queries_per_probe", "count", Lower),
    ("transport.attempt_us_p50", "us", Lower),
    ("transport.attempt_us_p99", "us", Lower),
    ("transport.attempt_us_mean", "us", Lower),
    ("transport.attempts_per_probe", "count", Lower),
    ("transport.answered_ratio", "ratio", Higher),
    ("transport.wrong_source_ratio", "ratio", Lower),
    ("transport.timeout_ratio", "ratio", Lower),
    ("transport.backoffs_per_probe", "count", Lower),
    ("transport.backoff_share", "ratio", Lower),
    ("transport.share", "ratio", Lower),
    ("transport.allocs_per_attempt", "count", Lower),
    ("netsim.events_per_probe", "count", Lower),
    ("netsim.drops_per_probe", "count", Lower),
    ("netsim.ns_per_event", "ns", Lower),
    ("dns_wire.encode_ns", "ns", Lower),
    ("dns_wire.view_parse_ns", "ns", Lower),
    ("dns_wire.owned_parse_ns", "ns", Lower),
    ("dns_wire.response_bytes", "bytes", Lower),
    ("resolver.zonedb_resolve_ns", "ns", Lower),
    ("aggregate.fold_us", "us", Lower),
    ("aggregate.fold_allocs", "count", Lower),
    ("aggregate.known_failure_ratio", "ratio", Lower),
    ("metrics.record_share", "ratio", Lower),
    ("timing.fold_share", "ratio", Lower),
    ("observers.share", "ratio", Lower),
    ("observers.allocs", "count", Lower),
    ("classify.device_us", "us", Lower),
    ("classify.device_share", "ratio", Lower),
    ("classify.device_allocs", "count", Lower),
    ("flow.flows_per_device", "count", Lower),
    ("flow.hops_per_device", "count", Lower),
    ("campaign.claim_imbalance", "ratio", Lower),
    ("trace.probe_us", "us", Lower),
    ("trace.reconcile_ratio", "ratio", Higher),
    ("trace.alloc_reconcile_ratio", "ratio", Higher),
    ("trace.overhead_ratio", "ratio", Lower),
    ("host.cpu_over_wall", "ratio", Higher),
];

/// The definition of the metric called `name`.
pub fn def(name: &str) -> Option<Def> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|d| d.0 == name)
        .copied()
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Probes measured (each pass counts its probes again).
    pub attempted: u64,
    /// Probes whose verdict disagreed with ground truth, beyond the known
    /// failures, or that went unmeasured.
    pub failed: u64,
    /// Every failed correctness check, in words; empty when correct.
    pub problems: Vec<String>,
    /// `(name, value)` of every metric the run reports, in definition order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable facts printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Whether every correctness check passed and no probe failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Records `check` as a problem unless it holds.
    pub fn require(&mut self, check: bool, problem: impl FnOnce() -> String) {
        if !check {
            self.problems.push(problem());
        }
    }

    /// The last line of a run's standard output.
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = def(name).map_or("", |d| d.1);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                line,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(*value)
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }
}

/// JSON has no NaN or infinity; a metric whose base was zero reads 0.
fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The median of `values` (which must not be empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Reads JSON back, for the tests: the result line and `BENCHMARK.json`.
#[cfg(test)]
pub mod json {
    use serde::{DeError, Deserialize, Number, Value};

    /// A parsed JSON document.
    pub struct Json(pub Value);

    impl Deserialize for Json {
        fn from_value(value: &Value) -> Result<Json, DeError> {
            Ok(Json(value.clone()))
        }
    }

    /// Parses JSON text.
    pub fn parse_json(text: &str) -> Result<Value, String> {
        serde_json::from_str::<Json>(text)
            .map(|json| json.0)
            .map_err(|e| e.to_string())
    }

    /// The member `key` of a JSON object.
    pub fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
        match value {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A JSON number as `f64`.
    pub fn number(value: &Value) -> Option<f64> {
        match value {
            Value::Number(Number::PosInt(n)) => Some(*n as f64),
            Value::Number(Number::NegInt(n)) => Some(*n as f64),
            Value::Number(Number::Float(f)) => Some(*f),
            _ => None,
        }
    }

    /// Reads back a result line: whether the run was correct, and its metrics.
    pub fn read_result_line(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
        let value = parse_json(line)?;
        let correct = matches!(field(&value, "correct"), Some(Value::Bool(true)));
        let Some(Value::Object(members)) = field(&value, "metrics") else {
            return Err(format!("no metrics in {line}"));
        };
        let metrics = members
            .iter()
            .map(|(name, metric)| {
                let value = field(metric, "value").and_then(number);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("{name} has no value"))
            })
            .collect::<Result<_, String>>()?;
        Ok((correct, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&[4., 1., 3., 2.]), 2.5);
        assert_eq!(median(&[3., 1., 2.]), 2.0);
    }

    #[test]
    fn the_result_line_has_the_four_keys() {
        let result = RunResult {
            attempted: 3,
            metrics: vec![("setup_s", 0.25), ("probes_per_s", f64::NAN)],
            ..RunResult::default()
        };
        assert_eq!(
            result.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"probes_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
        let failing = RunResult {
            attempted: 3,
            failed: 1,
            ..RunResult::default()
        };
        assert!(!failing.correct());
    }
}
