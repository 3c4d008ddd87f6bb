//! Bridging the contention model into scheduler environments.
//!
//! The contention model produces slowdown factors; this module packages
//! them as an [`Environment`] for a two-machine platform where machine 0
//! is the time-shared front-end and machine 1 the back-end.

use crate::task::{Environment, Matrix};
use contention_model::delay::{CommDelayTable, CompDelayTable};
use contention_model::mix::WorkloadMix;
use contention_model::paragon;

/// Environment for a Sun/Paragon platform under a workload mix:
/// front-end computation slows by the computation slowdown (with
/// contender message size `j_words`), the link by the communication
/// slowdown, and the space-shared Paragon stays dedicated.
pub fn paragon_environment(
    mix: &WorkloadMix,
    comm_delays: &CommDelayTable,
    comp_delays: &CompDelayTable,
    j_words: u64,
) -> Environment {
    let s_comp = paragon::comp_slowdown(mix, comp_delays, j_words).get();
    let s_comm = paragon::comm_slowdown(mix, comm_delays).get();
    let mut link = Matrix::filled(2, 1.0);
    link.set(0, 1, s_comm);
    link.set(1, 0, s_comm);
    Environment { comp_slowdown: vec![s_comp, 1.0], link_slowdown: link }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragon_environment_uses_model_slowdowns() {
        let mix = WorkloadMix::from_fracs(&[0.0, 0.0]);
        let comm = CommDelayTable::new(vec![1.0, 2.0], vec![0.5, 1.0]);
        let comp = CompDelayTable::new(vec![1, 1000], vec![vec![0.1, 0.2], vec![0.6, 1.2]]);
        let env = paragon_environment(&mix, &comm, &comp, 1000);
        env.validate();
        // Two pure CPU hogs: compute slowdown 3, comm slowdown 1+delay_comp².
        assert!((env.comp_slowdown[0] - 3.0).abs() < 1e-12);
        assert!((env.link_slowdown.get(0, 1) - 3.0).abs() < 1e-12);
        assert_eq!(env.comp_slowdown[1], 1.0);
    }
}
