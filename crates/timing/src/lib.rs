//! # timing
//!
//! Latency observability primitives for the interception-measurement
//! pipeline: fixed-size lock-free log-linear histograms, wall-clock
//! spans, labeled phase timers, and Prometheus text exposition.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic aggregation.** Histogram state is a multiset of
//!    recorded values — every update commutes, so per-worker histograms
//!    merge to bitwise-identical results regardless of thread count,
//!    batch size, or interleaving. Virtual-clock (simulated) latencies
//!    recorded through this crate are therefore reproducible byte for
//!    byte, and the golden/invariance suites pin them.
//! 2. **Zero cost when off.** Nothing here allocates on the record
//!    path, and the [`Span`] API collapses to a `None` check when no
//!    histogram is attached — safe to leave in dns-wire-adjacent hot
//!    paths.
//! 3. **Stable exposition.** Bucket boundaries are fixed by
//!    construction (976 log-linear buckets, 6.25% worst-case
//!    relative error) and pinned by tests, so JSON dumps and Prometheus
//!    series never silently reshape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod prom;
mod span;

pub use histogram::{AtomicHistogram, BucketCount, Histogram, HistogramSnapshot};
pub use prom::PromWriter;
pub use span::{PhaseTimer, Span};
