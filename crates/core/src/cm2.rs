//! The Sun/CM2 contention model (paper §3.1).
//!
//! The CM2 is driven synchronously by the front-end, whose scheduler splits
//! CPU cycles evenly among equal-priority processes. With `p` extra
//! CPU-bound applications on the front-end everything that consumes
//! front-end CPU — local computation, element-wise transfers to/from the
//! CM2, and the serial/scalar portion of CM2 programs — runs `p + 1` times
//! slower. The CM2-resident parallel work itself is unaffected because only
//! one application can hold the sequencer.

use crate::units::{Seconds, Slowdown};
use serde::{Deserialize, Serialize};

/// The front-end slowdown with `p` extra CPU-bound processes: `p + 1`.
pub fn slowdown(p: u32) -> Slowdown {
    Slowdown::new(f64::from(p + 1))
}

/// Dedicated-mode cost decomposition of a task that runs its parallel
/// instructions on the CM2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cm2TaskCosts {
    /// `dcomp_sun` — dedicated time to execute the task entirely on the
    /// front-end.
    pub dcomp_sun: Seconds,
    /// `dcomp_cm2` — dedicated time of the parallel instructions on the CM2.
    pub dcomp_cm2: Seconds,
    /// `didle_cm2` — dedicated CM2 idle time while waiting for instructions
    /// from the front-end. Never exceeds `dserial_cm2` (the front-end may
    /// pre-execute serial code while the CM2 computes).
    pub didle_cm2: Seconds,
    /// `dserial_cm2` — dedicated front-end time of the serial/scalar parts
    /// of the CM2 version of the task.
    pub dserial_cm2: Seconds,
}

impl Cm2TaskCosts {
    /// Builds a cost decomposition, checking the paper's structural
    /// invariant `didle_cm2 ≤ dserial_cm2`. (Non-negativity is already
    /// guaranteed by the [`Seconds`] type.)
    pub fn new(
        dcomp_sun: Seconds,
        dcomp_cm2: Seconds,
        didle_cm2: Seconds,
        dserial_cm2: Seconds,
    ) -> Self {
        assert!(
            didle_cm2.get() <= dserial_cm2.get() + 1e-12,
            "didle_cm2 ({didle_cm2}) cannot exceed dserial_cm2 ({dserial_cm2})"
        );
        Cm2TaskCosts { dcomp_sun, dcomp_cm2, didle_cm2, dserial_cm2 }
    }

    /// `T_sun = dcomp_sun × (p + 1)` — predicted time on the front-end.
    pub fn t_sun(&self, p: u32) -> Seconds {
        self.dcomp_sun * slowdown(p)
    }

    /// `T_cm2 = max(dcomp_cm2 + didle_cm2, dserial_cm2 × (p + 1))` —
    /// predicted time when the parallel instructions run on the CM2.
    ///
    /// The first argument is the CM2-side critical path (parallel work plus
    /// dedicated idle waiting for the front-end); the second is the
    /// slowed-down front-end serial stream. Whichever is longer bounds the
    /// elapsed time.
    pub fn t_cm2(&self, p: u32) -> Seconds {
        (self.dcomp_cm2 + self.didle_cm2).max(self.dserial_cm2 * slowdown(p))
    }
}

/// `C = dcomm × (p + 1)` — non-dedicated communication cost on the
/// Sun/CM2 platform, where transfers are front-end CPU-driven.
pub fn comm_cost(dcomm: Seconds, p: u32) -> Seconds {
    dcomm * slowdown(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::secs;

    fn costs(dcomp_sun: f64, dcomp_cm2: f64, didle_cm2: f64, dserial_cm2: f64) -> Cm2TaskCosts {
        Cm2TaskCosts::new(secs(dcomp_sun), secs(dcomp_cm2), secs(didle_cm2), secs(dserial_cm2))
    }

    #[test]
    fn slowdown_law() {
        assert_eq!(slowdown(0), Slowdown::ONE);
        assert_eq!(slowdown(3).get(), 4.0);
    }

    #[test]
    fn t_sun_scales_linearly() {
        let c = costs(10.0, 0.0, 0.0, 0.0);
        assert_eq!(c.t_sun(0).get(), 10.0);
        assert_eq!(c.t_sun(3).get(), 40.0);
    }

    #[test]
    fn t_cm2_takes_the_max() {
        // CM2-dominated: parallel work large, serial tiny.
        let big_parallel = costs(0.0, 100.0, 5.0, 6.0);
        assert_eq!(big_parallel.t_cm2(0).get(), 105.0);
        assert_eq!(big_parallel.t_cm2(3).get(), 105.0); // contention invisible
                                                        // Serial-dominated under contention.
        let serial_heavy = costs(0.0, 10.0, 2.0, 8.0);
        assert_eq!(serial_heavy.t_cm2(0).get(), 12.0); // 10+2 > 8
        assert_eq!(serial_heavy.t_cm2(3).get(), 32.0); // 8*4 > 12
    }

    #[test]
    fn comm_cost_scales_with_p() {
        assert_eq!(comm_cost(secs(2.5), 0).get(), 2.5);
        assert_eq!(comm_cost(secs(2.5), 3).get(), 10.0);
    }

    #[test]
    #[should_panic(expected = "didle_cm2")]
    fn idle_cannot_exceed_serial() {
        costs(0.0, 1.0, 5.0, 2.0);
    }
}
