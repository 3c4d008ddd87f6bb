//! Time-varying contention (paper §4, future work).
//!
//! The base model assumes "contention is experienced for the entire
//! duration of an application". The paper's future work asks for "the
//! setting in which contending applications execute for only part of the
//! execution of a given application. Since system load may vary during
//! the execution of an application, the slowdown factors should be
//! recalculated when the job mix changes."
//!
//! This module implements that: a [`LoadTimeline`] is a sequence of load
//! phases, each with its own slowdown factor (produced by the base model
//! for whatever mix holds during that phase). A task with a dedicated
//! demand executes at rate `1/slowdown` through each phase; the predicted
//! completion time follows from integrating that rate.

use crate::units::{secs, Seconds, Slowdown};
use serde::{Deserialize, Serialize};

/// One load phase: a slowdown factor holding for a span of wall time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadPhase {
    /// Wall-clock length of the phase. The final phase of a timeline may
    /// be unbounded ([`Seconds::INFINITY`]).
    pub duration: Seconds,
    /// Slowdown factor during the phase.
    pub slowdown: Slowdown,
}

impl LoadPhase {
    /// Builds a phase. (Validation — non-negative duration, factor ≥ 1 —
    /// is carried by the parameter types.)
    pub fn new(duration: Seconds, slowdown: Slowdown) -> Self {
        LoadPhase { duration, slowdown }
    }
}

/// A piecewise-constant load profile. The last phase is implicitly
/// extended forever (the job mix stays put until something changes).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LoadTimeline {
    phases: Vec<LoadPhase>,
}

impl LoadTimeline {
    /// An always-dedicated timeline.
    pub fn dedicated() -> Self {
        LoadTimeline { phases: vec![LoadPhase::new(Seconds::INFINITY, Slowdown::ONE)] }
    }

    /// A constant-slowdown timeline (the base model's assumption).
    pub fn constant(slowdown: Slowdown) -> Self {
        LoadTimeline { phases: vec![LoadPhase::new(Seconds::INFINITY, slowdown)] }
    }

    /// Builds from phases; the last phase is extended to infinity.
    pub fn new(phases: Vec<LoadPhase>) -> Self {
        assert!(!phases.is_empty(), "empty timeline");
        LoadTimeline { phases }
    }

    /// Appends a phase (e.g. when the job mix changes at a known time).
    pub fn push(&mut self, phase: LoadPhase) {
        self.phases.push(phase);
    }

    /// The phases, in order.
    pub fn phases(&self) -> &[LoadPhase] {
        &self.phases
    }

    /// The slowdown in effect at wall-clock offset `t` from the start of
    /// the timeline. (An empty timeline — only constructible via
    /// `Default` — reads as dedicated.)
    pub(crate) fn slowdown_at(&self, t: Seconds) -> Slowdown {
        let mut elapsed = Seconds::ZERO;
        let mut last = Slowdown::ONE;
        for ph in &self.phases {
            elapsed += ph.duration;
            last = ph.slowdown;
            if t < elapsed {
                return ph.slowdown;
            }
        }
        last
    }

    /// Predicted wall-clock time to complete `demand` seconds of
    /// dedicated work starting at offset `start` into the timeline.
    ///
    /// Work progresses at rate `1 / slowdown` through each phase; the
    /// result is exact for piecewise-constant profiles. Returns
    /// [`Seconds::INFINITY`] only if demand is infinite.
    pub fn completion_time(&self, demand: Seconds, start: Seconds) -> Seconds {
        let mut remaining = demand.get();
        let start = start.get();
        let mut clock = 0.0; // offset into the timeline
        let mut waited = 0.0; // wall time consumed by the task
        for (idx, ph) in self.phases.iter().enumerate() {
            let phase_end = clock + ph.duration.get();
            // Skip phases that end before the task starts — except the
            // final one, which extends to infinity regardless of its
            // recorded duration.
            if idx + 1 != self.phases.len() && phase_end <= start {
                clock = phase_end;
                continue;
            }
            let begin = clock.max(start);
            let span = if idx + 1 == self.phases.len() {
                f64::INFINITY // final phase extends forever
            } else {
                phase_end - begin
            };
            let doable = span / ph.slowdown.get();
            if doable >= remaining {
                return secs(waited + remaining * ph.slowdown.get());
            }
            remaining -= doable;
            waited += span;
            clock = phase_end;
        }
        // Unreachable: the final phase spans to infinity.
        unreachable!("final phase is unbounded");
    }

    /// The *average* slowdown a task of the given demand experiences when
    /// started at `start` — useful for comparing against the base model's
    /// constant-slowdown assumption. The `max(1.0)` guards against the
    /// ratio rounding a hair below 1 when phase spans are subtracted from
    /// the demand.
    pub fn effective_slowdown(&self, demand: Seconds, start: Seconds) -> Slowdown {
        if demand == Seconds::ZERO {
            return self.slowdown_at(start);
        }
        Slowdown::new((self.completion_time(demand, start) / demand).max(1.0))
    }
}

/// Builds a timeline for the Sun/CM2 platform from a schedule of hog
/// counts: `(duration, p)` pairs.
pub fn cm2_timeline(segments: &[(Seconds, u32)]) -> LoadTimeline {
    LoadTimeline::new(
        segments.iter().map(|&(d, p)| LoadPhase::new(d, crate::cm2::slowdown(p))).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(s: f64) -> Slowdown {
        Slowdown::new(s)
    }

    fn phase(duration: f64, slowdown: f64) -> LoadPhase {
        LoadPhase::new(secs(duration), sd(slowdown))
    }

    #[test]
    fn constant_timeline_matches_base_model() {
        let tl = LoadTimeline::constant(sd(4.0));
        assert_eq!(tl.completion_time(secs(10.0), Seconds::ZERO), secs(40.0));
        assert_eq!(tl.effective_slowdown(secs(10.0), Seconds::ZERO), sd(4.0));
        assert_eq!(tl.slowdown_at(secs(123.0)), sd(4.0));
    }

    #[test]
    fn dedicated_timeline_is_identity() {
        let tl = LoadTimeline::dedicated();
        assert_eq!(tl.completion_time(secs(7.5), secs(3.0)), secs(7.5));
    }

    #[test]
    fn load_drops_midway() {
        // 10 s of slowdown 3, then dedicated. A 6 s task does 10/3 s of
        // work in the first phase, the rest at full speed.
        let tl = LoadTimeline::new(vec![
            phase(10.0, 3.0),
            LoadPhase::new(Seconds::INFINITY, Slowdown::ONE),
        ]);
        let done_in_phase1 = 10.0 / 3.0;
        let expect = 10.0 + (6.0 - done_in_phase1);
        assert!((tl.completion_time(secs(6.0), Seconds::ZERO).get() - expect).abs() < 1e-12);
        // A short task finishing inside phase 1 sees the full slowdown.
        assert!((tl.completion_time(secs(2.0), Seconds::ZERO).get() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn start_offset_skips_earlier_phases() {
        let tl = LoadTimeline::new(vec![
            phase(10.0, 5.0),
            LoadPhase::new(Seconds::INFINITY, Slowdown::ONE),
        ]);
        // Starting after the loaded phase: dedicated speed.
        assert_eq!(tl.completion_time(secs(4.0), secs(10.0)), secs(4.0));
        // Starting halfway through it: 5 s at 1/5 rate = 1 s done.
        let t = tl.completion_time(secs(4.0), secs(5.0));
        assert!((t.get() - (5.0 + 3.0)).abs() < 1e-12, "{t}");
    }

    #[test]
    fn effective_slowdown_between_phase_extremes() {
        let tl = LoadTimeline::new(vec![
            phase(8.0, 4.0),
            LoadPhase::new(Seconds::INFINITY, Slowdown::ONE),
        ]);
        for demand in [0.5, 2.0, 5.0, 50.0] {
            let s = tl.effective_slowdown(secs(demand), Seconds::ZERO);
            assert!(sd(1.0) <= s && s <= sd(4.0), "demand {demand}: {s}");
        }
        // Long tasks amortize the loaded phase away.
        assert!(tl.effective_slowdown(secs(1000.0), Seconds::ZERO) < sd(1.05));
        // Short ones see the full factor.
        assert_eq!(tl.effective_slowdown(secs(1.0), Seconds::ZERO), sd(4.0));
    }

    #[test]
    fn cm2_timeline_uses_p_plus_one() {
        let tl = cm2_timeline(&[(secs(5.0), 3), (secs(10.0), 0)]);
        assert_eq!(tl.slowdown_at(Seconds::ZERO), sd(4.0));
        assert_eq!(tl.slowdown_at(secs(7.0)), Slowdown::ONE);
    }

    #[test]
    fn slowdown_recalculation_on_mix_change() {
        // Scenario from the paper's future work: mid-run the mix changes;
        // extend the timeline and re-predict the remaining work.
        let mut tl = LoadTimeline::new(vec![phase(20.0, 2.0)]);
        let total = tl.completion_time(secs(30.0), Seconds::ZERO);
        // First 20 s complete 10 s of work at slowdown 2; the final
        // (implicitly extended) phase finishes the rest at slowdown 2.
        assert_eq!(total, secs(60.0));
        // New job arrives at t = 20 → slowdown 3 from then on.
        tl.push(LoadPhase::new(Seconds::INFINITY, sd(3.0)));
        let updated = tl.completion_time(secs(30.0), Seconds::ZERO);
        assert_eq!(updated, secs(20.0 + 20.0 * 3.0));
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn rejects_speedups() {
        phase(1.0, 0.5);
    }
}
