//! Simulated time.
//!
//! Time is a monotone `u64` count of **milliseconds** since the start of the
//! simulation. A millisecond is fine enough for every latency in the modeled
//! system (image pulls, node provisioning, task runtimes measured in
//! seconds) while keeping all arithmetic exact and `Ord`-able, which the
//! event queue requires for deterministic replay.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An instant on the simulated clock (milliseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time (milliseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Duration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Raw milliseconds since simulation start.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future (callers commonly race an event against a sample tick).
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// Largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from raw milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// millisecond and clamping negatives to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * 1000.0).round() as u64)
    }

    /// Raw milliseconds.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True if this span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer factor (saturating).
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }

    /// Scale by a float factor, rounding to the nearest millisecond.
    /// Negative or non-finite factors clamp to zero.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * k)
    }

    /// The larger of the two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of the two spans.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// Saturating difference — `a - b` is zero when `b > a`.
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = self.saturating_add(rhs);
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        self.saturating_sub(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_millis(), 3000);
        assert_eq!(Duration::from_secs(2).as_millis(), 2000);
        assert_eq!(Duration::from_secs_f64(1.5).as_millis(), 1500);
        assert!((SimTime::from_millis(2500).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_float_durations_clamp_to_zero() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NEG_INFINITY), Duration::ZERO);
    }

    #[test]
    fn time_arithmetic_is_saturating() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(5);
        assert_eq!(b - a, Duration::from_secs(4));
        assert_eq!(a - b, Duration::ZERO);
        assert_eq!(SimTime::MAX + Duration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), Duration::from_secs(5));
        assert_eq!(d.mul_f64(-3.0), Duration::ZERO);
        assert_eq!(d.saturating_mul(3), Duration::from_secs(30));
        assert_eq!(Duration::MAX.saturating_mul(2), Duration::MAX);
    }

    #[test]
    fn ordering_follows_millis() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(Duration::from_millis(5).max(Duration::from_millis(7)) == Duration::from_millis(7));
        assert!(Duration::from_millis(5).min(Duration::from_millis(7)) == Duration::from_millis(5));
    }
}
