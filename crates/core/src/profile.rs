//! Cached slowdown factors for a fixed workload mix.
//!
//! The Sun/Paragon slowdown formulas ([`crate::paragon`]) are `O(p)` sums
//! over the mix distribution. A scheduler ranking hundreds of candidate
//! placements against the *same* contention state pays that `O(p)` once
//! per prediction — wasted work, since the sums depend only on the mix
//! and the (fixed) delay tables, not on the task.
//!
//! A [`SlowdownProfile`] folds the mix once into
//!
//! * the communication-slowdown **scalar**, and
//! * one computation-slowdown factor **per message-size bucket** of the
//!   [`CompDelayTable`],
//!
//! after which every prediction is a multiply. The profile is stamped with
//! the mix's [`epoch`](WorkloadMix::epoch), so staleness after an
//! `add`/`remove` is detected with a single integer compare — that is what
//! [`ProfileCache`] automates.
//!
//! Numerically, the cached path is *identical* to the direct path: both
//! accumulate the same products in the same order, so results agree
//! bit-for-bit, not merely to rounding (the property tests in
//! `tests/model_properties.rs` pin this to 1e-12).

use crate::delay::{select_bucket, CommDelayTable, CompDelayTable};
use crate::mix::WorkloadMix;
use crate::paragon;
use crate::units::Slowdown;

/// Slowdown factors of one workload mix, evaluated once and reusable for
/// every prediction made against that mix.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownProfile {
    /// Epoch of the mix this profile was computed from.
    mix_epoch: u64,
    /// Number of contenders in that mix.
    p: usize,
    /// Communication slowdown, `1 + Σ pcompᵢ·delay_compⁱ + Σ pcommᵢ·delay_commⁱ`.
    comm: Slowdown,
    /// Computation slowdown per message-size bucket,
    /// `comp_by_bucket[b] = 1 + Σ pcompᵢ·i + Σ pcommᵢ·delay_commⁱʲ⁽ᵇ⁾`.
    comp_by_bucket: Vec<Slowdown>,
    /// The table's bucket boundaries, copied so `j → bucket` resolution
    /// needs no table access.
    buckets: Vec<u64>,
}

impl SlowdownProfile {
    /// Folds `mix` into its slowdown factors — one `O(p)` pass for the
    /// communication scalar plus one per bucket for computation.
    pub fn compute(
        mix: &WorkloadMix,
        comm_delays: &CommDelayTable,
        comp_delays: &CompDelayTable,
    ) -> Self {
        let comp_by_bucket = (0..comp_delays.buckets.len())
            .map(|b| paragon::comp_slowdown_at_bucket(mix, comp_delays, b))
            .collect();
        SlowdownProfile {
            mix_epoch: mix.epoch(),
            p: mix.p(),
            comm: paragon::comm_slowdown(mix, comm_delays),
            comp_by_bucket,
            buckets: comp_delays.buckets.clone(),
        }
    }

    /// Number of contenders in the profiled mix.
    pub fn p(&self) -> usize {
        self.p
    }

    /// `true` when this profile still reflects `mix` (O(1): epoch compare).
    pub fn is_current(&self, mix: &WorkloadMix) -> bool {
        self.mix_epoch == mix.epoch()
    }

    /// The cached communication slowdown.
    pub fn comm_slowdown(&self) -> Slowdown {
        self.comm
    }

    /// The cached computation slowdown for contender messages of
    /// `j_words` words, resolved by the paper's bucket rules.
    pub fn comp_slowdown(&self, j_words: u64) -> Slowdown {
        self.comp_by_bucket[select_bucket(&self.buckets, j_words)]
    }

    /// The cached computation slowdown at an explicit bucket index.
    pub fn comp_slowdown_at_bucket(&self, bucket: usize) -> Slowdown {
        self.comp_by_bucket[bucket]
    }

    /// Number of message-size buckets carried by this profile.
    pub fn bucket_count(&self) -> usize {
        self.comp_by_bucket.len()
    }
}

/// Memoizes the [`SlowdownProfile`] of the most recent mix version.
///
/// The cache holds a single slot: contention state evolves as one mix
/// mutating over time, so the only interesting question is "is my profile
/// still current?" — answered by the epoch compare. A hit is free; a miss
/// recomputes and replaces the slot.
#[derive(Debug, Clone, Default)]
pub struct ProfileCache {
    slot: Option<SlowdownProfile>,
}

impl ProfileCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProfileCache::default()
    }

    /// Returns the profile for `mix`, recomputing only if the cached one
    /// is missing or stale (mix epoch changed).
    pub fn profile_for(
        &mut self,
        mix: &WorkloadMix,
        comm_delays: &CommDelayTable,
        comp_delays: &CompDelayTable,
    ) -> &SlowdownProfile {
        let stale = self.slot.as_ref().is_none_or(|s| !s.is_current(mix));
        if stale {
            self.slot = None;
        }
        self.slot.get_or_insert_with(|| SlowdownProfile::compute(mix, comm_delays, comp_delays))
    }

    /// The cached profile, if any — without validating freshness.
    pub fn peek(&self) -> Option<&SlowdownProfile> {
        self.slot.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::prob;

    fn comm_table() -> CommDelayTable {
        CommDelayTable::new(vec![1.0, 2.0, 3.0], vec![0.6, 1.1, 1.5])
    }

    fn comp_table() -> CompDelayTable {
        CompDelayTable::new(
            vec![1, 500, 1000],
            vec![vec![0.2, 0.4, 0.6], vec![0.6, 1.2, 1.8], vec![0.9, 1.8, 2.7]],
        )
    }

    #[test]
    fn profile_matches_direct_evaluation_exactly() {
        let mix = WorkloadMix::from_fracs(&[0.2, 0.3, 0.7]);
        let profile = SlowdownProfile::compute(&mix, &comm_table(), &comp_table());
        assert_eq!(profile.comm_slowdown(), paragon::comm_slowdown(&mix, &comm_table()));
        for j in [1u64, 50, 94, 95, 300, 500, 750, 1000, 5000] {
            assert_eq!(
                profile.comp_slowdown(j),
                paragon::comp_slowdown(&mix, &comp_table(), j),
                "j = {j}"
            );
        }
        for b in 0..3 {
            assert_eq!(
                profile.comp_slowdown_at_bucket(b),
                paragon::comp_slowdown_at_bucket(&mix, &comp_table(), b)
            );
        }
    }

    #[test]
    fn profile_tracks_epoch() {
        let mut mix = WorkloadMix::from_fracs(&[0.4]);
        let profile = SlowdownProfile::compute(&mix, &comm_table(), &comp_table());
        assert!(profile.is_current(&mix));
        assert_eq!(profile.mix_epoch, mix.epoch());
        mix.add(prob(0.2));
        assert!(!profile.is_current(&mix));
    }

    #[test]
    fn cache_hits_until_mutation() {
        let mut mix = WorkloadMix::from_fracs(&[0.25, 0.76]);
        let (comm, comp) = (comm_table(), comp_table());
        let mut cache = ProfileCache::new();

        let first_epoch = cache.profile_for(&mix, &comm, &comp).mix_epoch;
        // Hit: same epoch back, no recompute observable via the stamp.
        assert_eq!(cache.profile_for(&mix, &comm, &comp).mix_epoch, first_epoch);

        mix.remove(0);
        let refreshed = cache.profile_for(&mix, &comm, &comp);
        assert_eq!(refreshed.mix_epoch, mix.epoch());
        assert_ne!(refreshed.mix_epoch, first_epoch);
        assert_eq!(refreshed.p(), 1);
    }

    #[test]
    fn dedicated_profile_is_all_ones() {
        let mix = WorkloadMix::new();
        let profile = SlowdownProfile::compute(&mix, &comm_table(), &comp_table());
        assert_eq!(profile.comm_slowdown(), Slowdown::ONE);
        for b in 0..profile.bucket_count() {
            assert_eq!(profile.comp_slowdown_at_bucket(b), Slowdown::ONE);
        }
    }
}
