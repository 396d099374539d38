//! Prometheus text exposition (version 0.0.4) rendering.
//!
//! Renders counters, gauges, and histograms into the plain-text format
//! Prometheus scrapes. Output is fully deterministic: metrics appear in
//! the order they are pushed, histogram `le` edges are derived from the
//! fixed bucket layout, and no timestamps are emitted.

use crate::histogram::Histogram;
use std::fmt::Write;

/// Accumulates metrics and renders them as Prometheus text exposition.
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
    }
    out.push('}');
}

impl PromWriter {
    /// An empty writer.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Emits `# HELP` and `# TYPE` headers for a metric family.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emits one counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out.push_str(name);
        write_labels(&mut self.out, labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Emits a histogram family: cumulative `_bucket{le=...}` series at
    /// each power-of-two boundary up to the largest non-empty octave,
    /// then `le="+Inf"`, `_sum`, and `_count`.
    ///
    /// Power-of-two edges keep the series count small (≤ 64 per
    /// histogram) while staying exact cumulative counts: every `2^k - 1`
    /// edge is also a bucket upper bound in the log-linear layout, so no
    /// interpolation happens.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], hist: &Histogram) {
        let counts = hist.bucket_counts();
        let mut cumulative = 0u64;
        let mut next_edge = 16u64; // first edge: le="15" covers the exact buckets
        let bucket_line = |out: &mut String, le: &str, c: u64| {
            out.push_str(name);
            out.push_str("_bucket");
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", le));
            write_labels(out, &with_le);
            let _ = writeln!(out, " {c}");
        };
        let max = hist.max().unwrap_or(0).max(15);
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            let (_, upper) = crate::histogram::bucket_bounds(i);
            if upper == next_edge - 1 {
                bucket_line(&mut self.out, &format!("{}", next_edge - 1), cumulative);
                if next_edge > max {
                    break;
                }
                next_edge = next_edge.saturating_mul(2);
            }
        }
        bucket_line(&mut self.out, "+Inf", hist.count());
        self.out.push_str(name);
        self.out.push_str("_sum");
        write_labels(&mut self.out, labels);
        let _ = writeln!(self.out, " {}", hist.sum());
        self.out.push_str(name);
        self.out.push_str("_count");
        write_labels(&mut self.out, labels);
        let _ = writeln!(self.out, " {}", hist.count());
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render_with_labels() {
        let mut w = PromWriter::new();
        w.header("probes_total", "counter", "Probes run.");
        w.counter("probes_total", &[], 42);
        w.counter("fleet_size", &[("class", "clean")], 7);
        let text = w.finish();
        assert!(text.contains("# HELP probes_total Probes run.\n"));
        assert!(text.contains("# TYPE probes_total counter\n"));
        assert!(text.contains("probes_total 42\n"));
        assert!(text.contains("fleet_size{class=\"clean\"} 7\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.counter("m", &[("q", "a\"b\\c")], 1);
        assert_eq!(w.finish(), "m{q=\"a\\\"b\\\\c\"} 1\n");
    }

    #[test]
    fn histogram_renders_cumulative_pow2_edges() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(20);
        h.record(20);
        h.record(100);
        let mut w = PromWriter::new();
        w.histogram("rtt_us", &[("phase", "scan")], &h);
        let text = w.finish();
        assert!(text.contains("rtt_us_bucket{phase=\"scan\",le=\"15\"} 1\n"));
        assert!(text.contains("rtt_us_bucket{phase=\"scan\",le=\"31\"} 3\n"));
        assert!(text.contains("rtt_us_bucket{phase=\"scan\",le=\"63\"} 3\n"));
        assert!(text.contains("rtt_us_bucket{phase=\"scan\",le=\"127\"} 4\n"));
        assert!(text.contains("rtt_us_bucket{phase=\"scan\",le=\"+Inf\"} 4\n"));
        assert!(!text.contains("le=\"255\""), "edges past the max are omitted");
        assert!(text.contains("rtt_us_sum{phase=\"scan\"} 143\n"));
        assert!(text.contains("rtt_us_count{phase=\"scan\"} 4\n"));
    }

    #[test]
    fn empty_histogram_still_renders_inf_sum_count() {
        let h = Histogram::new();
        let mut w = PromWriter::new();
        w.histogram("x", &[], &h);
        let text = w.finish();
        assert!(text.contains("x_bucket{le=\"15\"} 0\n"));
        assert!(text.contains("x_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("x_sum 0\n"));
        assert!(text.contains("x_count 0\n"));
    }
}
