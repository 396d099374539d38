//! Fixed-size log-linear histograms over `u64` values (microseconds, by
//! convention, though the math is unit-agnostic).
//!
//! The bucket layout is HdrHistogram-style log-linear: values below
//! 2^[`GROUP_BITS`] get one exact bucket each, and every power-of-two
//! octave above that is split into 2^[`GROUP_BITS`] linear sub-buckets.
//! With `GROUP_BITS = 4` that is [`BUCKET_COUNT`] = 976 buckets covering
//! the whole `u64` range with a worst-case relative error of 1/16
//! (6.25%) — fixed size, no dynamic resizing, ever.
//!
//! Two flavors share the layout:
//!
//! * [`Histogram`] — plain counters, for single-owner folds and for
//!   serializable snapshots.
//! * [`AtomicHistogram`] — `AtomicU64` buckets recorded with relaxed
//!   `fetch_add`, so any number of campaign workers can record into one
//!   shared histogram lock-free and allocation-free. Because every
//!   update is a commutative add (and min/max are commutative), the
//!   final contents depend only on the multiset of recorded values —
//!   never on thread interleaving — exactly the invariance discipline
//!   `AggregateReport` follows.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave is split into `2^GROUP_BITS`
/// linear buckets, bounding relative error by `2^-GROUP_BITS`.
pub(crate) const GROUP_BITS: u32 = 4;

/// Linear sub-buckets per octave (`2^GROUP_BITS`).
pub(crate) const SUB_BUCKETS: usize = 1 << GROUP_BITS;

/// Total bucket count: one exact bucket per value below [`SUB_BUCKETS`],
/// plus [`SUB_BUCKETS`] linear sub-buckets for each of the `64 -
/// GROUP_BITS` octaves above.
pub(crate) const BUCKET_COUNT: usize = SUB_BUCKETS + (64 - GROUP_BITS as usize) * SUB_BUCKETS;

/// The bucket index a value lands in.
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        // Position of the highest set bit (GROUP_BITS..=63).
        let top = 63 - value.leading_zeros() as usize;
        let shift = top - GROUP_BITS as usize;
        let sub = ((value >> shift) as usize) - SUB_BUCKETS;
        SUB_BUCKETS + shift * SUB_BUCKETS + sub
    }
}

/// The inclusive `[lower, upper]` value range of a bucket. Buckets below
/// [`SUB_BUCKETS`] are exact (`lower == upper`).
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKET_COUNT, "bucket index {index} out of range");
    if index < SUB_BUCKETS {
        (index as u64, index as u64)
    } else {
        let shift = (index - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
        let lower = (SUB_BUCKETS as u64 + sub) << shift;
        let width = 1u64 << shift;
        (lower, lower + (width - 1))
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`]: its index, its value
/// range, and how many samples it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Bucket index in the fixed layout.
    pub index: u32,
    /// Smallest value the bucket covers.
    pub lower: u64,
    /// Largest value the bucket covers (inclusive).
    pub upper: u64,
    /// Samples recorded into the bucket.
    pub count: u64,
}

/// A serializable, exact dump of a histogram: summary statistics,
/// pinned percentiles, and every non-empty bucket. This is the stable
/// exposition format the `--timings-json` output and the golden files
/// are built from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (wrapping mod 2^64).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median (see [`Histogram::value_at_quantile`]).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Every non-empty bucket, in index order.
    pub buckets: Vec<BucketCount>,
}

/// A plain (single-owner) log-linear histogram.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { counts: vec![0; BUCKET_COUNT], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values, wrapping mod 2^64 (matching the atomic
    /// `fetch_add`, so plain and atomic histograms always agree).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Raw bucket counts, one per layout slot.
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merges `other` into `self` bucket by bucket. Every constituent
    /// operation (addition, min, max) is commutative and associative,
    /// so per-worker histograms merge to the same result in any order —
    /// the property the thread/batch-invariance suite pins.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` (0.0–1.0): the inclusive upper bound of
    /// the bucket holding the sample of rank `ceil(q * count)`. Upper
    /// bounds make the estimate conservative (never below the true
    /// value, at most 1/16 above it) and, being bucket edges, exactly
    /// reproducible — the property the golden files rely on. Returns 0
    /// when the histogram is empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Exports the histogram as a stable, serializable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.value_at_quantile(0.50),
            p90: self.value_at_quantile(0.90),
            p99: self.value_at_quantile(0.99),
            p999: self.value_at_quantile(0.999),
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    let (lower, upper) = bucket_bounds(i);
                    BucketCount { index: i as u32, lower, upper, count: c }
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHistogram").field("count", &self.count()).finish()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts == other.counts
    }
}

impl Eq for Histogram {}

/// A lock-free log-linear histogram shared across campaign workers.
///
/// `record` is three relaxed `fetch_add`s plus a `fetch_min`/`fetch_max`
/// pair — no locks, no allocation, no ordering dependence. Snapshots
/// taken after all recording threads have joined are exact and
/// independent of how the recording interleaved.
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            counts: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Allocation-free and lock-free; safe to call
    /// from any number of threads concurrently.
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current contents into a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        Histogram {
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_pinned() {
        // The exposition format can never silently reshape: these
        // boundaries are part of the stable output contract.
        assert_eq!(BUCKET_COUNT, 976);
        // Values below 16 are exact.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
        // First octave [16, 32) is still exact (width 1).
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_bounds(16), (16, 16));
        assert_eq!(bucket_bounds(31), (31, 31));
        // Second octave [32, 64): width 2.
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(63), 47);
        assert_eq!(bucket_bounds(32), (32, 33));
        assert_eq!(bucket_bounds(47), (62, 63));
        // A realistic RTT: 1500µs lands in [1472, 1535].
        let i = bucket_index(1_500);
        let (lo, hi) = bucket_bounds(i);
        assert_eq!((i, lo, hi), (119, 1_472, 1_535));
        // The 5-second timeout window in µs.
        let i = bucket_index(5_000_000);
        let (lo, hi) = bucket_bounds(i);
        assert!(lo <= 5_000_000 && 5_000_000 <= hi);
        assert!((hi - lo + 1) as f64 / lo as f64 <= 1.0 / 16.0 + 1e-9);
        // The extremes.
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_bounds(BUCKET_COUNT - 1).1, u64::MAX);
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let probes = [0, 1, 15, 16, 17, 100, 999, 4_096, 65_535, 1 << 33, u64::MAX - 1, u64::MAX];
        for v in probes {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
        // Bucket ranges tile the axis with no gaps or overlaps.
        let mut next = 0u64;
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i} does not start where {} ended", i.wrapping_sub(1));
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "last bucket must end at u64::MAX");
    }

    #[test]
    fn exact_values_pin_the_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5_050);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        // Rank 50 is the value 50: bucket [48, 51] → upper bound 51.
        assert_eq!(h.value_at_quantile(0.50), 51);
        // Rank 90 → value 90 → bucket [88, 91].
        assert_eq!(h.value_at_quantile(0.90), 91);
        // Rank 99 → value 99 → bucket [96, 99]. Rank 100 → value 100 →
        // bucket [100, 103], clamped to the true max.
        assert_eq!(h.value_at_quantile(0.99), 99);
        assert_eq!(h.value_at_quantile(0.999), 100);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max, s.p50, s.p999), (0, 0, 0, 0, 0, 0));
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn snapshot_lists_only_nonempty_buckets_with_bounds() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(40);
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0], BucketCount { index: 3, lower: 3, upper: 3, count: 2 });
        assert_eq!(s.buckets[1], BucketCount { index: 36, lower: 40, upper: 41, count: 1 });
        let json = serde_json::to_string(&s).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn atomic_and_plain_agree() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in [0, 7, 16, 999, 5_000_000, u64::MAX] {
            a.record(v);
            p.record(v);
        }
        assert_eq!(a.snapshot(), p);
        assert_eq!(a.count(), 6);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let h = AtomicHistogram::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8_000);
        assert_eq!(snap.min(), Some(0));
        assert_eq!(snap.max(), Some(7_999));
        assert_eq!(snap.sum(), (0..8_000u64).sum::<u64>());
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        a.record(100);
        b.record(5);
        b.record(1_000_000);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.min(), Some(5));
        assert_eq!(merged.max(), Some(1_000_000));
        assert_eq!(merged.sum(), a.sum() + b.sum());
        // Merging an empty histogram is the identity.
        let mut same = merged.clone();
        same.merge(&Histogram::new());
        assert_eq!(same, merged);
    }
}
