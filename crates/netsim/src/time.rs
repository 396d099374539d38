//! Virtual time for the discrete-event simulator.
//!
//! All simulation time is a `u64` count of nanoseconds since the start of the
//! run. There is no wall clock anywhere in the simulator: identical inputs
//! (including the RNG seed) produce identical schedules.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(n: u64) -> SimTime {
        SimTime(n)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start, truncating. Trace events
    /// carry sim-time at this resolution.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Time elapsed since `earlier`; saturates at zero rather than wrapping.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0 / 1_000;
        write!(f, "{}.{:03}ms", us / 1_000, us % 1_000)
    }
}

/// A span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds, truncating. Virtual-clock RTT histograms
    /// record at this resolution.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0 / 1_000;
        write!(f, "{}.{:03}ms", us / 1_000, us % 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        let t2 = t + SimDuration::from_micros(250);
        assert_eq!(t2.duration_since(t), SimDuration::from_micros(250));
        assert_eq!(t.duration_since(t2), SimDuration::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
        assert_eq!(SimTime::from_nanos(2_500_999).as_micros(), 2_500);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_nanos(2_500_999).as_micros(), 2_500);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(10) < SimTime::from_nanos(11));
        assert!(SimDuration::from_millis(1) > SimDuration::from_micros(999));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_nanos(1_500_000).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_micros(250).to_string(), "0.250ms");
    }
}
