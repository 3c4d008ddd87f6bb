//! End-to-end predictors and the placement decision.
//!
//! A task should execute on the back-end only when (paper, inequality (1))
//!
//! ```text
//! T_front > T_back + C_front→back + C_back→front
//! ```
//!
//! with every term adjusted by the platform's slowdown factors. The
//! predictors here bundle the calibrated system parameters with the
//! run-time workload description and answer that inequality.

use crate::cm2::{self, Cm2TaskCosts};
use crate::comm::{LinearCommModel, PiecewiseCommModel};
use crate::dataset::DataSet;
use crate::delay::{CommDelayTable, CompDelayTable};
use crate::mix::WorkloadMix;
use crate::paragon;
use crate::profile::SlowdownProfile;
use crate::units::Seconds;
use serde::{Deserialize, Serialize};

/// Where a task should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Execute on the front-end workstation.
    FrontEnd,
    /// Ship the data, execute on the back-end, ship results back.
    BackEnd,
}

/// The two totals behind a placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementDecision {
    /// Predicted elapsed time if the task stays on the front-end.
    pub t_front: Seconds,
    /// Predicted back-end elapsed time (computation only).
    pub t_back: Seconds,
    /// Predicted cost of moving inputs to the back-end.
    pub c_to: Seconds,
    /// Predicted cost of moving results back.
    pub c_from: Seconds,
    /// The verdict of inequality (1).
    pub placement: Placement,
}

impl PlacementDecision {
    fn decide(t_front: Seconds, t_back: Seconds, c_to: Seconds, c_from: Seconds) -> Self {
        let placement =
            if t_front > t_back + c_to + c_from { Placement::BackEnd } else { Placement::FrontEnd };
        PlacementDecision { t_front, t_back, c_to, c_from, placement }
    }

    /// Total predicted time of the chosen placement.
    pub fn best_time(&self) -> Seconds {
        match self.placement {
            Placement::FrontEnd => self.t_front,
            Placement::BackEnd => self.t_back + self.c_to + self.c_from,
        }
    }
}

// ---------------------------------------------------------------------------
// Sun/CM2
// ---------------------------------------------------------------------------

/// A task as the Sun/CM2 predictor sees it: dedicated cost decomposition
/// plus the data sets crossing the link in each direction when off-loaded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cm2Task {
    /// Dedicated-mode cost decomposition.
    pub costs: Cm2TaskCosts,
    /// Data sets moved front-end → CM2 before execution.
    pub to_backend: Vec<DataSet>,
    /// Data sets moved CM2 → front-end afterwards.
    pub from_backend: Vec<DataSet>,
}

/// Calibrated predictor for the Sun/CM2 platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cm2Predictor {
    /// Dedicated transfer model, front-end → CM2 (`α_sun`, `β_sun`).
    pub comm_to: LinearCommModel,
    /// Dedicated transfer model, CM2 → front-end (`α_cm2`, `β_cm2`).
    pub comm_from: LinearCommModel,
}

impl Cm2Predictor {
    /// `C_sun→cm2` under `p` extra CPU-bound front-end processes.
    pub fn comm_cost_to(&self, sets: &[DataSet], p: u32) -> Seconds {
        cm2::comm_cost(self.comm_to.dcomm(sets), p)
    }

    /// `C_cm2→sun` under `p` extra CPU-bound front-end processes.
    pub fn comm_cost_from(&self, sets: &[DataSet], p: u32) -> Seconds {
        cm2::comm_cost(self.comm_from.dcomm(sets), p)
    }

    /// Full placement decision for a task under `p` contenders.
    pub fn decide(&self, task: &Cm2Task, p: u32) -> PlacementDecision {
        PlacementDecision::decide(
            task.costs.t_sun(p),
            task.costs.t_cm2(p),
            self.comm_cost_to(&task.to_backend, p),
            self.comm_cost_from(&task.from_backend, p),
        )
    }
}

// ---------------------------------------------------------------------------
// Sun/Paragon
// ---------------------------------------------------------------------------

/// A task as the Sun/Paragon predictor sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParagonTask {
    /// Dedicated time on the front-end.
    pub dcomp_sun: Seconds,
    /// Elapsed time on the Paragon. The Paragon is space-shared, so this is
    /// unaffected by front-end contention; mesh or gang-scheduling effects
    /// are folded in by the caller, as the paper prescribes.
    pub t_paragon: Seconds,
    /// Data sets moved front-end → Paragon.
    pub to_backend: Vec<DataSet>,
    /// Data sets moved Paragon → front-end.
    pub from_backend: Vec<DataSet>,
}

/// Calibrated predictor for the Sun/Paragon platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParagonPredictor {
    /// Piecewise dedicated transfer model, front-end → Paragon.
    pub comm_to: PiecewiseCommModel,
    /// Piecewise dedicated transfer model, Paragon → front-end.
    pub comm_from: PiecewiseCommModel,
    /// Delays imposed on communication by contenders.
    pub comm_delays: CommDelayTable,
    /// Delays imposed on computation by communicating contenders.
    pub comp_delays: CompDelayTable,
}

impl ParagonPredictor {
    /// `C_sun→p` under the given workload mix.
    pub fn comm_cost_to(&self, sets: &[DataSet], mix: &WorkloadMix) -> Seconds {
        paragon::comm_cost(self.comm_to.dcomm(sets), mix, &self.comm_delays)
    }

    /// `C_p→sun` under the given workload mix.
    pub fn comm_cost_from(&self, sets: &[DataSet], mix: &WorkloadMix) -> Seconds {
        paragon::comm_cost(self.comm_from.dcomm(sets), mix, &self.comm_delays)
    }

    /// `T_sun` under the given mix; `j_words` is the contenders' message
    /// size (paper: the maximum in use on the system).
    pub fn t_sun(&self, dcomp_sun: Seconds, mix: &WorkloadMix, j_words: u64) -> Seconds {
        paragon::comp_cost(dcomp_sun, mix, &self.comp_delays, j_words)
    }

    /// Full placement decision for a task under the given mix.
    pub fn decide(&self, task: &ParagonTask, mix: &WorkloadMix, j_words: u64) -> PlacementDecision {
        PlacementDecision::decide(
            self.t_sun(task.dcomp_sun, mix, j_words),
            task.t_paragon,
            self.comm_cost_to(&task.to_backend, mix),
            self.comm_cost_from(&task.from_backend, mix),
        )
    }

    // -- Cached-profile fast path ------------------------------------------

    /// Folds `mix` into a reusable [`SlowdownProfile`] against this
    /// predictor's delay tables. One `O(p·buckets)` evaluation amortized
    /// over every subsequent `*_with` call.
    pub fn profile(&self, mix: &WorkloadMix) -> SlowdownProfile {
        SlowdownProfile::compute(mix, &self.comm_delays, &self.comp_delays)
    }

    /// `C_sun→p` using cached slowdown factors.
    pub(crate) fn comm_cost_to_with(&self, sets: &[DataSet], profile: &SlowdownProfile) -> Seconds {
        self.comm_to.dcomm(sets) * profile.comm_slowdown()
    }

    /// `C_p→sun` using cached slowdown factors.
    pub(crate) fn comm_cost_from_with(
        &self,
        sets: &[DataSet],
        profile: &SlowdownProfile,
    ) -> Seconds {
        self.comm_from.dcomm(sets) * profile.comm_slowdown()
    }

    /// `T_sun` using cached slowdown factors.
    pub(crate) fn t_sun_with(
        &self,
        dcomp_sun: Seconds,
        profile: &SlowdownProfile,
        j_words: u64,
    ) -> Seconds {
        dcomp_sun * profile.comp_slowdown(j_words)
    }

    /// Placement decision using cached slowdown factors. Agrees exactly
    /// with [`decide`](Self::decide) when `profile` was computed from the
    /// same mix and tables.
    pub fn decide_with(
        &self,
        task: &ParagonTask,
        profile: &SlowdownProfile,
        j_words: u64,
    ) -> PlacementDecision {
        PlacementDecision::decide(
            self.t_sun_with(task.dcomp_sun, profile, j_words),
            task.t_paragon,
            self.comm_cost_to_with(&task.to_backend, profile),
            self.comm_cost_from_with(&task.from_backend, profile),
        )
    }

    /// Decides a whole batch of tasks against one contention state. The
    /// mix is folded once; each task then costs only the `dcomm` walks
    /// and three multiplies, instead of re-evaluating the `O(p)` slowdown
    /// sums per task.
    pub fn decide_batch(
        &self,
        tasks: &[ParagonTask],
        profile: &SlowdownProfile,
        j_words: u64,
    ) -> Vec<PlacementDecision> {
        let mut decisions = Vec::new();
        self.decide_batch_into(tasks, profile, j_words, &mut decisions);
        decisions
    }

    /// [`decide_batch`](Self::decide_batch) into `out`, replacing its
    /// contents and reusing its capacity.
    pub fn decide_batch_into(
        &self,
        tasks: &[ParagonTask],
        profile: &SlowdownProfile,
        j_words: u64,
        out: &mut Vec<PlacementDecision>,
    ) {
        let comp_slowdown = profile.comp_slowdown(j_words);
        out.clear();
        out.extend(tasks.iter().map(|task| {
            PlacementDecision::decide(
                task.dcomp_sun * comp_slowdown,
                task.t_paragon,
                self.comm_cost_to_with(&task.to_backend, profile),
                self.comm_cost_from_with(&task.from_backend, profile),
            )
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{prob, secs, BytesPerSec};

    fn linear(alpha: f64, beta_wps: f64) -> LinearCommModel {
        LinearCommModel::new(secs(alpha), BytesPerSec::from_words_per_sec(beta_wps))
    }

    fn cm2_predictor() -> Cm2Predictor {
        Cm2Predictor { comm_to: linear(1e-3, 1e6), comm_from: linear(1e-3, 5e5) }
    }

    fn cm2_costs(a: f64, b: f64, c: f64, d: f64) -> Cm2TaskCosts {
        Cm2TaskCosts::new(secs(a), secs(b), secs(c), secs(d))
    }

    #[test]
    fn cm2_offload_wins_when_parallel_speedup_dominates() {
        let task = Cm2Task {
            costs: cm2_costs(100.0, 5.0, 1.0, 2.0),
            to_backend: vec![DataSet::matrix_rows(100, 100)],
            from_backend: vec![DataSet::matrix_rows(100, 100)],
        };
        let d = cm2_predictor().decide(&task, 0);
        // comm ≈ 0.1 + 0.01 + 0.1 + 0.02 ≈ 0.23s, far below the 94s gain.
        assert_eq!(d.placement, Placement::BackEnd);
        assert!(d.best_time() < secs(10.0));
    }

    #[test]
    fn cm2_contention_shifts_the_decision_toward_backend() {
        // Front-end work 10s vs back-end 8s + 3s of transfers: stays local
        // when dedicated, off-loads once contention triples the local time
        // (transfer slowdown grows too, but from a smaller base).
        let task = Cm2Task {
            costs: cm2_costs(10.0, 7.9, 0.05, 0.1),
            to_backend: vec![DataSet::single(1_500_000)],
            from_backend: vec![DataSet::single(750_000)],
        };
        let p = cm2_predictor();
        let ded = p.decide(&task, 0);
        assert_eq!(ded.placement, Placement::FrontEnd, "{ded:?}");
        let loaded = p.decide(&task, 3);
        assert_eq!(loaded.placement, Placement::BackEnd, "{loaded:?}");
    }

    #[test]
    fn cm2_comm_costs_scale_with_p() {
        let p = cm2_predictor();
        let sets = [DataSet::single(1000)];
        let base = p.comm_cost_to(&sets, 0);
        assert!((p.comm_cost_to(&sets, 3).get() - 4.0 * base.get()).abs() < 1e-12);
    }

    fn paragon_predictor() -> ParagonPredictor {
        let small = linear(2e-3, 2e5);
        let large = linear(6e-3, 8e5);
        ParagonPredictor {
            comm_to: PiecewiseCommModel::new(1024, small, large),
            comm_from: PiecewiseCommModel::new(1024, small, large),
            comm_delays: CommDelayTable::new(vec![1.0, 2.0], vec![0.8, 1.4]),
            comp_delays: CompDelayTable::new(
                vec![1, 500, 1000],
                vec![vec![0.1, 0.2], vec![0.5, 1.0], vec![0.8, 1.6]],
            ),
        }
    }

    #[test]
    fn paragon_dedicated_decision_uses_raw_costs() {
        let task = ParagonTask {
            dcomp_sun: secs(10.0),
            t_paragon: secs(2.0),
            to_backend: vec![DataSet::burst(100, 2000)],
            from_backend: vec![DataSet::burst(100, 2000)],
        };
        let pred = paragon_predictor();
        let mix = WorkloadMix::new();
        let d = pred.decide(&task, &mix, 2000);
        assert_eq!(d.t_front, secs(10.0));
        // Each direction: 100 × (6ms + 2000/8e5 s) = 0.85s.
        assert!((d.c_to.get() - 0.85).abs() < 1e-9, "{}", d.c_to);
        assert_eq!(d.placement, Placement::BackEnd);
    }

    #[test]
    fn paragon_comm_heavy_contenders_keep_task_local() {
        // The gain from the Paragon is outweighed once the link is busy.
        let task = ParagonTask {
            dcomp_sun: secs(4.0),
            t_paragon: secs(1.0),
            to_backend: vec![DataSet::burst(1000, 2000)],
            from_backend: vec![],
        };
        let pred = paragon_predictor();
        let idle = WorkloadMix::new();
        assert_eq!(pred.decide(&task, &idle, 2000).placement, Placement::FrontEnd);
        // c_to alone is 8.5s dedicated — already above the 3s gain; with two
        // communication-bound contenders it grows by 1+delay_comm².
        let busy = WorkloadMix::from_fracs(&[0.9, 0.9]);
        let d = pred.decide(&task, &busy, 2000);
        assert_eq!(d.placement, Placement::FrontEnd);
        assert!(d.c_to > secs(8.5));
    }

    #[test]
    fn paragon_t_sun_matches_formula() {
        let pred = paragon_predictor();
        let mix = WorkloadMix::from_fracs(&[0.0, 0.0]);
        // Two pure CPU hogs: slowdown = 1 + 2 = 3.
        assert!((pred.t_sun(secs(5.0), &mix, 1000).get() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn decide_with_matches_decide_exactly() {
        let pred = paragon_predictor();
        let mix = WorkloadMix::from_fracs(&[0.25, 0.76]);
        let profile = pred.profile(&mix);
        let task = ParagonTask {
            dcomp_sun: secs(7.3),
            t_paragon: secs(1.9),
            to_backend: vec![DataSet::burst(40, 900)],
            from_backend: vec![DataSet::burst(10, 30)],
        };
        for j in [1u64, 94, 95, 500, 750, 2000] {
            let direct = pred.decide(&task, &mix, j);
            let cached = pred.decide_with(&task, &profile, j);
            assert_eq!(direct, cached, "j = {j}");
        }
    }

    #[test]
    fn decide_batch_matches_per_call_decide() {
        let pred = paragon_predictor();
        let mix = WorkloadMix::from_fracs(&[0.4, 0.1, 0.9]);
        let profile = pred.profile(&mix);
        let tasks: Vec<ParagonTask> = (1..20)
            .map(|k| ParagonTask {
                dcomp_sun: secs(k as f64 * 0.7),
                t_paragon: secs((20 - k) as f64 * 0.3),
                to_backend: vec![DataSet::burst(k, 100 * k)],
                from_backend: vec![DataSet::single(50 * k)],
            })
            .collect();
        let batch = pred.decide_batch(&tasks, &profile, 512);
        assert_eq!(batch.len(), tasks.len());
        for (task, got) in tasks.iter().zip(&batch) {
            assert_eq!(*got, pred.decide(task, &mix, 512));
        }
        // Into a longer, reused vector: its old contents are replaced.
        let mut reused = batch.repeat(2);
        pred.decide_batch_into(&tasks[..3], &profile, 512, &mut reused);
        assert_eq!(reused, batch[..3]);
    }

    #[test]
    fn stale_profile_is_detectable() {
        let pred = paragon_predictor();
        let mut mix = WorkloadMix::from_fracs(&[0.5]);
        let profile = pred.profile(&mix);
        assert!(profile.is_current(&mix));
        mix.add(prob(0.25));
        assert!(!profile.is_current(&mix));
        // Refreshing restores agreement.
        let fresh = pred.profile(&mix);
        let task = ParagonTask {
            dcomp_sun: secs(3.0),
            t_paragon: secs(1.0),
            to_backend: vec![],
            from_backend: vec![],
        };
        assert_eq!(pred.decide_with(&task, &fresh, 500), pred.decide(&task, &mix, 500));
    }

    #[test]
    fn decision_boundary_prefers_front_end_on_ties() {
        // Equal costs: inequality (1) is strict, so stay local.
        let task = Cm2Task {
            costs: cm2_costs(10.0, 10.0, 0.0, 0.0),
            to_backend: vec![],
            from_backend: vec![],
        };
        let d = cm2_predictor().decide(&task, 0);
        assert_eq!(d.placement, Placement::FrontEnd);
        assert_eq!(d.best_time(), secs(10.0));
    }
}
