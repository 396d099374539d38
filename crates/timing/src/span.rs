//! Wall-clock spans and labeled phase timers.
//!
//! A [`Span`] measures the wall time of one region of code and records it
//! into an [`AtomicHistogram`] on drop. The entire mechanism is gated on
//! whether a histogram is attached: a disabled span never touches the
//! clock, never allocates, and compiles down to a `None` check — the same
//! zero-cost-when-off discipline the simulator's flight recorder follows
//! on the packet path.
//!
//! A [`PhaseTimer`] is a fixed set of labeled histograms (one per
//! pipeline phase) that spans and direct `record_us` calls feed into.

use crate::histogram::{AtomicHistogram, Histogram};
use std::time::Instant;

/// A wall-clock measurement in flight. Records elapsed microseconds into
/// its histogram when dropped (or explicitly [`finish`](Span::finish)ed).
///
/// Create one with [`Span::enabled`] to measure, or [`Span::disabled`]
/// for a no-op that never reads the clock.
#[must_use = "a span measures until it is dropped"]
pub struct Span<'a> {
    target: Option<(&'a AtomicHistogram, Instant)>,
}

impl<'a> Span<'a> {
    /// Starts a measuring span that will record into `hist` on drop.
    pub fn enabled(hist: &'a AtomicHistogram) -> Span<'a> {
        Span { target: Some((hist, Instant::now())) }
    }

    /// A span that does nothing: no clock read, no allocation, no record.
    pub fn disabled() -> Span<'static> {
        Span { target: None }
    }

    /// Starts a span only when `hist` is present.
    pub fn maybe(hist: Option<&'a AtomicHistogram>) -> Span<'a> {
        match hist {
            Some(h) => Span::enabled(h),
            None => Span::disabled(),
        }
    }

    /// Stops the span now and records the elapsed time.
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((hist, started)) = self.target.take() {
            hist.record(started.elapsed().as_micros() as u64);
        }
    }
}

/// A fixed array of labeled [`AtomicHistogram`]s, one per pipeline phase.
///
/// The label set is fixed at construction; recording is lock-free and
/// allocation-free. Snapshots come out in label order, so downstream
/// exposition is deterministic.
pub struct PhaseTimer {
    labels: Vec<&'static str>,
    phases: Vec<AtomicHistogram>,
}

impl PhaseTimer {
    /// A timer with one histogram per label.
    pub fn new(labels: &[&'static str]) -> PhaseTimer {
        PhaseTimer {
            labels: labels.to_vec(),
            phases: labels.iter().map(|_| AtomicHistogram::new()).collect(),
        }
    }

    /// The phase labels, in slot order.
    pub fn labels(&self) -> &[&'static str] {
        &self.labels
    }

    /// The histogram for phase slot `index`.
    pub fn histogram(&self, index: usize) -> &AtomicHistogram {
        &self.phases[index]
    }

    /// Starts a wall-clock span for phase slot `index`.
    pub fn span(&self, index: usize) -> Span<'_> {
        Span::enabled(&self.phases[index])
    }

    /// Records a pre-measured duration (µs) into phase slot `index`.
    pub fn record_us(&self, index: usize, us: u64) {
        self.phases[index].record(us);
    }

    /// Snapshots every phase as `(label, histogram)` pairs in slot order.
    pub fn snapshots(&self) -> Vec<(&'static str, Histogram)> {
        self.labels.iter().zip(&self.phases).map(|(l, h)| (*l, h.snapshot())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_span_records_once_on_drop() {
        let h = AtomicHistogram::new();
        {
            let _span = Span::enabled(&h);
        }
        assert_eq!(h.count(), 1);
        Span::enabled(&h).finish();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let h = AtomicHistogram::new();
        {
            let _span = Span::maybe(None);
        }
        drop(Span::disabled());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn phase_timer_keeps_slots_separate() {
        let t = PhaseTimer::new(&["build", "encode", "attempt"]);
        t.record_us(0, 10);
        t.record_us(2, 30);
        t.record_us(2, 31);
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].0, "build");
        assert_eq!(snaps[0].1.count(), 1);
        assert_eq!(snaps[1].1.count(), 0);
        assert_eq!(snaps[2].1.count(), 2);
        assert_eq!(snaps[2].1.min(), Some(30));
        t.span(1).finish();
        assert_eq!(t.histogram(1).count(), 1);
    }
}
