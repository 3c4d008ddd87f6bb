//! Simulated time.
//!
//! All simulator state advances on an integer nanosecond clock. Integer time
//! keeps the event queue totally ordered without float comparison hazards and
//! makes runs bit-for-bit reproducible. Model-side math (the paper's formulas)
//! happens in `f64` seconds; the boundary conversions live here.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds in one second, as both integer and float.
pub(crate) const NANOS_PER_SEC: u64 = 1_000_000_000;
const NANOS_PER_SEC_F: f64 = 1e9;

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds. Always non-negative.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The instant the simulation starts at.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from a second count (saturating on overflow/NaN).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// This instant as seconds since the start of the run.
    pub fn as_secs_f64(self) -> f64 {
        crate::num::f64_approx_from_nanos(self.0) / NANOS_PER_SEC_F
    }

    /// Time elapsed since `earlier`. Panics in debug builds if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self >= earlier, "since() called with a future instant");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from whole nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Builds a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Builds a span from fractional seconds, rounding up to the next
    /// nanosecond so that nonzero work never collapses to a zero span.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// This span in seconds.
    pub fn as_secs_f64(self) -> f64 {
        crate::num::f64_approx_from_nanos(self.0) / NANOS_PER_SEC_F
    }

    /// This span in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// True if the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative float factor, rounding up.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative duration factor");
        SimDuration(secs_to_nanos(self.as_secs_f64() * factor))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }
}

/// Converts non-negative seconds to nanoseconds, rounding up, saturating.
/// NaN and negatives map to zero; overflow clamps to `u64::MAX` inside
/// [`crate::num::sat_u64_from_f64`].
fn secs_to_nanos(secs: f64) -> u64 {
    if secs.is_nan() || secs <= 0.0 {
        return 0;
    }
    crate::num::sat_u64_from_f64((secs * NANOS_PER_SEC_F).ceil())
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        debug_assert!(self >= other, "SimDuration underflow");
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_rounds_up() {
        // half a nanosecond of work must not vanish
        let d = SimDuration::from_secs_f64(0.5e-9);
        assert_eq!(d.as_nanos(), 1);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(250);
        assert_eq!(t.0, 250_000_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(250));
        let t2 = t + SimDuration::from_millis(750);
        assert_eq!(t2 - t, SimDuration::from_millis(750));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d * 3, SimDuration::from_secs(6));
        assert_eq!(d / 4, SimDuration::from_millis(500));
        assert_eq!(d.mul_f64(1.5), SimDuration::from_secs(3));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_secs(1)), SimTime::MAX);
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime(5) < SimTime(6));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }
}
