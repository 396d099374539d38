//! Per-probe timing capture for [`SimTransport`](crate::SimTransport).
//!
//! A [`ProbeTimingLog`] is an optional, fixed-capacity sample buffer the
//! transport fills while a probe runs: one virtual-clock RTT sample per
//! answered query (tagged with the pipeline phase that issued it) and one
//! wall-clock duration per encode and per transport attempt. The campaign
//! layer attaches a log, runs the probe, folds the samples into shared
//! histograms, clears the log, and reuses it for the next probe — so the
//! steady-state record path never allocates, the same arena discipline
//! the encoder scratch follows.
//!
//! When no log is attached (the default) the transport skips every clock
//! read: disabled timing is a single branch on an `Option`.

use locator::Step;

/// Phase slots `0..7` are [`Step::ALL`] in pipeline order; slot 7 is the
/// scanner-vantage taxonomy scan, which runs outside the locator and has
/// no `Step`.
pub(crate) const SCAN_PHASE: u8 = Step::ALL.len() as u8;

/// Total phase slots (`Step::ALL` plus the taxonomy scan).
pub const PHASE_COUNT: usize = Step::ALL.len() + 1;

/// Stable label for a phase slot (`Step::label` order, then `"scan"`).
pub fn phase_label(phase: usize) -> &'static str {
    if phase < Step::ALL.len() {
        Step::ALL[phase].label()
    } else {
        "scan"
    }
}

/// One answered query's virtual round-trip, tagged with its phase slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttSample {
    /// Phase slot (see [`phase_label`]).
    pub phase: u8,
    /// Inject-to-delivery time on the simulated clock, in microseconds.
    pub rtt_us: u64,
}

/// Capacity of the per-probe RTT buffer. A probe issues a few dozen
/// queries; the cap only exists so a pathological scenario cannot make
/// the log grow (growth would allocate on the hot path).
const RTT_CAPACITY: usize = 256;

/// Capacity of each per-probe wall-clock buffer.
const WALL_CAPACITY: usize = 512;

/// Fixed-capacity timing samples for one probe run.
///
/// All buffers are pre-allocated at construction and recycled with
/// [`clear`](ProbeTimingLog::clear); pushes beyond capacity are counted
/// in the `dropped` tallies instead of growing the buffers.
#[derive(Debug, Default)]
pub struct ProbeTimingLog {
    /// Virtual-clock RTTs of answered queries, in arrival order.
    pub rtt: Vec<RttSample>,
    /// Wall time spent encoding each query, in microseconds.
    pub encode_us: Vec<u64>,
    /// Wall time of each transport attempt (inject → outcome), µs.
    pub attempt_us: Vec<u64>,
    /// RTT samples discarded because the buffer was full.
    pub rtt_dropped: u64,
    /// Wall samples discarded because a buffer was full.
    pub wall_dropped: u64,
}

impl ProbeTimingLog {
    /// A log with all buffers pre-allocated to capacity.
    pub fn new() -> ProbeTimingLog {
        ProbeTimingLog {
            rtt: Vec::with_capacity(RTT_CAPACITY),
            encode_us: Vec::with_capacity(WALL_CAPACITY),
            attempt_us: Vec::with_capacity(WALL_CAPACITY),
            rtt_dropped: 0,
            wall_dropped: 0,
        }
    }

    /// Records one answered query's virtual RTT.
    pub fn push_rtt(&mut self, phase: u8, rtt_us: u64) {
        if self.rtt.len() < RTT_CAPACITY {
            self.rtt.push(RttSample { phase, rtt_us });
        } else {
            self.rtt_dropped += 1;
        }
    }

    /// Records one encode's wall time.
    pub fn push_encode(&mut self, us: u64) {
        if self.encode_us.len() < WALL_CAPACITY {
            self.encode_us.push(us);
        } else {
            self.wall_dropped += 1;
        }
    }

    /// Records one transport attempt's wall time.
    pub fn push_attempt(&mut self, us: u64) {
        if self.attempt_us.len() < WALL_CAPACITY {
            self.attempt_us.push(us);
        } else {
            self.wall_dropped += 1;
        }
    }

    /// Empties every buffer without releasing its allocation, readying
    /// the log for the next probe.
    pub fn clear(&mut self) {
        self.rtt.clear();
        self.encode_us.clear();
        self.attempt_us.clear();
        self.rtt_dropped = 0;
        self.wall_dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_cover_all_slots() {
        let labels: Vec<&str> = (0..PHASE_COUNT).map(phase_label).collect();
        assert_eq!(
            labels,
            vec![
                "location",
                "cpe-check",
                "bogon",
                "transparency",
                "side-check",
                "ttl-scan",
                "source-check",
                "scan",
            ]
        );
        assert_eq!(SCAN_PHASE, 7);
    }

    #[test]
    fn buffers_cap_instead_of_growing() {
        let mut log = ProbeTimingLog::new();
        let rtt_cap = log.rtt.capacity();
        for i in 0..(rtt_cap as u64 + 5) {
            log.push_rtt(0, i);
        }
        assert_eq!(log.rtt.len(), rtt_cap);
        assert_eq!(log.rtt_dropped, 5);
        assert_eq!(log.rtt.capacity(), rtt_cap, "the buffer must never grow");
        log.clear();
        assert!(log.rtt.is_empty());
        assert_eq!(log.rtt_dropped, 0);
        assert_eq!(log.rtt.capacity(), rtt_cap, "clear keeps the allocation");
    }
}
