//! The Sun/Paragon contention model (paper §3.2).
//!
//! The front-end and the Paragon are independent machines joined by a
//! dedicated Ethernet link that is shared by the applications. Contention
//! affects a probe application in two ways, each weighted by the
//! probability that exactly `i` of the `p` contenders are in the relevant
//! state at a given instant (see [`crate::mix`]):
//!
//! * **Communication** is delayed by contenders computing on the front-end
//!   (stealing the CPU cycles that data-format conversion needs) and by
//!   contenders communicating (occupying the link):
//!
//!   ```text
//!   slowdown = 1 + Σᵢ pcompᵢ·delay_compⁱ + Σᵢ pcommᵢ·delay_commⁱ
//!   ```
//!
//! * **Computation** is delayed by computing contenders — CPU cycles split
//!   evenly, so `i` of them contribute a delay of exactly `i` — and by
//!   communicating contenders, whose impact depends on their message size
//!   `j`:
//!
//!   ```text
//!   slowdown = 1 + Σᵢ pcompᵢ·i + Σᵢ pcommᵢ·delay_commⁱʲ
//!   ```

use crate::delay::{CommDelayTable, CompDelayTable};
use crate::mix::WorkloadMix;
use crate::units::{f64_from_usize, Seconds, Slowdown};

/// Communication slowdown on the Sun/Paragon platform.
pub fn comm_slowdown(mix: &WorkloadMix, delays: &CommDelayTable) -> Slowdown {
    let mut s = 1.0;
    for i in 1..=mix.p() {
        s += mix.pcomp(i) * delays.computing(i);
        s += mix.pcomm(i) * delays.communicating(i);
    }
    Slowdown::new(s)
}

/// Computation slowdown on the front-end of the Sun/Paragon platform.
/// `j_words` is the contenders' message size (the paper recommends the
/// maximum message size in use on the system).
pub fn comp_slowdown(mix: &WorkloadMix, delays: &CompDelayTable, j_words: u64) -> Slowdown {
    let mut s = 1.0;
    for i in 1..=mix.p() {
        s += mix.pcomp(i) * f64_from_usize(i);
        s += mix.pcomm(i) * delays.delay(i, j_words);
    }
    Slowdown::new(s)
}

/// Computation slowdown with an explicit delay-table bucket, bypassing the
/// nearest-`j` rule — used for the paper's `j`-sensitivity study (Figures 7
/// and 8 report errors for `j = 1`, `500`, `1000` separately).
pub fn comp_slowdown_at_bucket(
    mix: &WorkloadMix,
    delays: &CompDelayTable,
    bucket: usize,
) -> Slowdown {
    let mut s = 1.0;
    for i in 1..=mix.p() {
        s += mix.pcomp(i) * f64_from_usize(i);
        s += mix.pcomm(i) * delays.delay_at_bucket(i, bucket);
    }
    Slowdown::new(s)
}

/// `C = dcomm × slowdown` — non-dedicated communication cost.
pub fn comm_cost(dcomm: Seconds, mix: &WorkloadMix, delays: &CommDelayTable) -> Seconds {
    dcomm * comm_slowdown(mix, delays)
}

/// `T_sun = dcomp_sun × slowdown` — non-dedicated front-end execution time.
pub(crate) fn comp_cost(
    dcomp_sun: Seconds,
    mix: &WorkloadMix,
    delays: &CompDelayTable,
    j_words: u64,
) -> Seconds {
    dcomp_sun * comp_slowdown(mix, delays, j_words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::secs;

    fn comm_table() -> CommDelayTable {
        // delay_comp^i = i (pure CPU splitting), delay_comm^i grows slower.
        CommDelayTable::new(vec![1.0, 2.0, 3.0], vec![0.6, 1.1, 1.5])
    }

    fn comp_table() -> CompDelayTable {
        CompDelayTable::new(
            vec![1, 500, 1000],
            vec![vec![0.2, 0.4, 0.6], vec![0.6, 1.2, 1.8], vec![0.9, 1.8, 2.7]],
        )
    }

    #[test]
    fn dedicated_mix_gives_unit_slowdown() {
        let mix = WorkloadMix::new();
        assert_eq!(comm_slowdown(&mix, &comm_table()), Slowdown::ONE);
        assert_eq!(comp_slowdown(&mix, &comp_table(), 1000), Slowdown::ONE);
    }

    #[test]
    fn all_computing_contenders_reduce_to_cpu_splitting() {
        // Two contenders that never communicate: pcomp_2 = 1.
        let mix = WorkloadMix::from_fracs(&[0.0, 0.0]);
        // Communication: slowdown = 1 + delay_comp^2.
        assert!((comm_slowdown(&mix, &comm_table()).get() - 3.0).abs() < 1e-12);
        // Computation: slowdown = 1 + 2 = p + 1, recovering the CM2 law.
        assert!((comp_slowdown(&mix, &comp_table(), 1000).get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_communicating_contenders_use_comm_delays() {
        let mix = WorkloadMix::from_fracs(&[1.0, 1.0]);
        assert!((comm_slowdown(&mix, &comm_table()).get() - (1.0 + 1.1)).abs() < 1e-12);
        // p = 2 communicating contenders at the j = 1000 bucket: delay 1.8.
        assert!((comp_slowdown(&mix, &comp_table(), 1000).get() - (1.0 + 1.8)).abs() < 1e-12);
    }

    #[test]
    fn mixed_contenders_weight_by_probability() {
        // Paper's example mix: 20% and 30% communication.
        let mix = WorkloadMix::from_fracs(&[0.2, 0.3]);
        let t = comm_table();
        let expect =
            1.0 + mix.pcomp(1) * 1.0 + mix.pcomp(2) * 2.0 + mix.pcomm(1) * 0.6 + mix.pcomm(2) * 1.1;
        assert!((comm_slowdown(&mix, &t).get() - expect).abs() < 1e-12);
    }

    #[test]
    fn comp_slowdown_depends_on_message_size() {
        let mix = WorkloadMix::from_fracs(&[0.5, 0.5]);
        let t = comp_table();
        let small = comp_slowdown(&mix, &t, 10);
        let mid = comp_slowdown(&mix, &t, 500);
        let large = comp_slowdown(&mix, &t, 1200);
        assert!(small < mid && mid < large, "{small} {mid} {large}");
    }

    #[test]
    fn bucket_override_matches_direct_lookup() {
        let mix = WorkloadMix::from_fracs(&[0.4, 0.76]);
        let t = comp_table();
        assert_eq!(comp_slowdown_at_bucket(&mix, &t, 2), comp_slowdown(&mix, &t, 1000));
        assert_eq!(comp_slowdown_at_bucket(&mix, &t, 1), comp_slowdown(&mix, &t, 500));
        assert_eq!(comp_slowdown_at_bucket(&mix, &t, 0), comp_slowdown(&mix, &t, 1));
    }

    #[test]
    fn costs_scale_dedicated_values() {
        let mix = WorkloadMix::from_fracs(&[0.0]);
        let s = comm_slowdown(&mix, &comm_table());
        assert!((comm_cost(secs(2.0), &mix, &comm_table()).get() - 2.0 * s.get()).abs() < 1e-12);
        let sc = comp_slowdown(&mix, &comp_table(), 500);
        assert!(
            (comp_cost(secs(3.0), &mix, &comp_table(), 500).get() - 3.0 * sc.get()).abs() < 1e-12
        );
    }

    #[test]
    fn slowdown_is_at_least_one() {
        let mix = WorkloadMix::from_fracs(&[0.33, 0.66, 0.99]);
        assert!(comm_slowdown(&mix, &comm_table()) >= Slowdown::ONE);
        assert!(comp_slowdown(&mix, &comp_table(), 1) >= Slowdown::ONE);
    }
}
