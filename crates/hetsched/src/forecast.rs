//! Scheduling against *forecasted* contention.
//!
//! The online pipeline (`loadcast` → `predictd`) produces a
//! [`SlowdownProfile`] for the forecast workload mix rather than raw
//! tables. This module accepts that profile directly: the front-end
//! machine's computation and its links are slowed by the cached factors,
//! every other machine stays dedicated — the paper's platform shape
//! (one time-shared front-end, space-shared back-ends) generalized to
//! any machine count.

use crate::eval::{rank_all, Schedule};
use crate::task::{Environment, Matrix, Workflow};
use contention_model::profile::SlowdownProfile;

/// Builds the environment for `machines` machines where `front_end`
/// carries the profiled contention: its computation slows by the
/// profile's computation factor (at contender message size `j_words`),
/// every link touching it by the communication factor.
pub fn environment_from_profile(
    machines: usize,
    front_end: usize,
    profile: &SlowdownProfile,
    j_words: u64,
) -> Environment {
    assert!(front_end < machines, "front-end index out of range");
    let s_comp = profile.comp_slowdown(j_words).get();
    let s_comm = profile.comm_slowdown().get();
    let mut comp = vec![1.0; machines];
    comp[front_end] = s_comp;
    let mut link = Matrix::filled(machines, 1.0);
    for other in 0..machines {
        if other != front_end {
            link.set(front_end, other, s_comm);
            link.set(other, front_end, s_comm);
        }
    }
    Environment { comp_slowdown: comp, link_slowdown: link }
}

/// Ranks every schedule of `wf` under the forecast contention profile
/// (best first) — the forecast-fed sibling of [`rank_all`].
pub fn rank_all_forecast(
    wf: &Workflow,
    front_end: usize,
    profile: &SlowdownProfile,
    j_words: u64,
) -> Vec<Schedule> {
    rank_all(wf, &environment_from_profile(wf.machines(), front_end, profile, j_words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::paragon_environment;
    use crate::example;
    use contention_model::delay::{CommDelayTable, CompDelayTable};
    use contention_model::mix::WorkloadMix;

    fn tables() -> (CommDelayTable, CompDelayTable) {
        (
            CommDelayTable::new(vec![1.0, 2.0], vec![0.5, 1.0]),
            CompDelayTable::new(vec![1, 1000], vec![vec![0.1, 0.2], vec![0.6, 1.2]]),
        )
    }

    #[test]
    fn matches_the_adapt_path_for_two_machines() {
        let mix = WorkloadMix::from_fracs(&[0.3, 0.6]);
        let (comm, comp) = tables();
        let profile = SlowdownProfile::compute(&mix, &comm, &comp);
        for j in [1u64, 500, 2000] {
            let via_profile = environment_from_profile(2, 0, &profile, j);
            let via_tables = paragon_environment(&mix, &comm, &comp, j);
            assert_eq!(via_profile, via_tables, "j = {j}");
        }
    }

    #[test]
    fn dedicated_profile_reproduces_dedicated_ranking() {
        let (comm, comp) = tables();
        let profile = SlowdownProfile::compute(&WorkloadMix::new(), &comm, &comp);
        let wf = example::workflow();
        let ranked = rank_all_forecast(&wf, 0, &profile, 500);
        let direct = rank_all(&wf, &Environment::dedicated(2));
        assert_eq!(ranked, direct);
    }

    #[test]
    fn contention_slows_only_the_front_end() {
        let mix = WorkloadMix::from_fracs(&[0.0, 0.0]);
        let (comm, comp) = tables();
        let profile = SlowdownProfile::compute(&mix, &comm, &comp);
        let env = environment_from_profile(3, 1, &profile, 1000);
        env.validate();
        assert_eq!(env.comp_slowdown, vec![1.0, 3.0, 1.0]);
        assert_eq!(env.link_slowdown.get(0, 2), 1.0);
        assert!(env.link_slowdown.get(1, 0) > 1.0);
        assert_eq!(env.link_slowdown.get(1, 0), env.link_slowdown.get(2, 1));
    }

    #[test]
    #[should_panic(expected = "front-end index")]
    fn front_end_must_exist() {
        let (comm, comp) = tables();
        let profile = SlowdownProfile::compute(&WorkloadMix::new(), &comm, &comp);
        environment_from_profile(2, 2, &profile, 1);
    }
}
