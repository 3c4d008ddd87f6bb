//! Memory constraints (paper §4, future work).
//!
//! The base model assumes "the working set of each application executing
//! on the platform fits in memory, i.e., no delay is imposed by
//! swapping". The paper lists relaxing this as future work: "We are
//! currently extending our model to include memory constraints."
//!
//! This module adds that extension: a machine has a physical memory
//! capacity; the resident working sets of all applications compete for
//! it. While total demand fits, nothing changes. Once it overflows, every
//! application pays a paging penalty that grows with the overcommit ratio
//! — the classic thrashing knee. The penalty multiplies the CPU slowdown
//! produced by the base model (paging steals cycles *and* overlaps badly
//! with timesharing).

use crate::units::{f64_from_u64, Slowdown};
use serde::{Deserialize, Serialize};

/// Memory description of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    /// Physical memory available to applications, in words.
    pub capacity_words: u64,
    /// Penalty steepness: extra relative slowdown per unit of overcommit
    /// (demand/capacity − 1). Measured once per platform, like the delay
    /// tables; a few units is typical for 1996 paging-to-disk systems.
    pub thrash_factor: f64,
}

impl MemoryModel {
    /// Builds a model; capacity must be positive.
    // modelcheck-allow: naked-f64 — thrash_factor is a dimensionless steepness coefficient
    pub fn new(capacity_words: u64, thrash_factor: f64) -> Self {
        assert!(capacity_words > 0, "zero memory capacity");
        assert!(thrash_factor >= 0.0, "negative thrash factor");
        MemoryModel { capacity_words, thrash_factor }
    }

    /// Total working-set demand of a set of applications, in words.
    pub(crate) fn total_demand(working_sets: &[u64]) -> u64 {
        working_sets.iter().sum()
    }

    /// The paging multiplier for the given resident working sets: `1`
    /// while everything fits, growing linearly in the overcommit ratio
    /// beyond capacity.
    ///
    /// `multiplier = 1 + thrash_factor × max(0, demand/capacity − 1)`
    pub fn paging_multiplier(&self, working_sets: &[u64]) -> Slowdown {
        let demand = f64_from_u64(Self::total_demand(working_sets));
        let over = (demand / f64_from_u64(self.capacity_words) - 1.0).max(0.0);
        Slowdown::new(1.0 + self.thrash_factor * over)
    }

    /// True if the sets fit without paging (the base model's assumption).
    pub fn fits(&self, working_sets: &[u64]) -> bool {
        Self::total_demand(working_sets) <= self.capacity_words
    }

    /// Memory-adjusted slowdown: the base model's CPU slowdown multiplied
    /// by the paging penalty.
    pub fn adjust_slowdown(&self, base_slowdown: Slowdown, working_sets: &[u64]) -> Slowdown {
        base_slowdown * self.paging_multiplier(working_sets)
    }

    /// The largest additional working set (words) that still avoids
    /// paging given the currently resident sets — the admission headroom
    /// a memory-aware scheduler would check before placing a task.
    pub fn headroom(&self, working_sets: &[u64]) -> u64 {
        self.capacity_words.saturating_sub(Self::total_demand(working_sets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> MemoryModel {
        // 8 M words (32 MB of f64-ish data) and a steep thrash penalty.
        MemoryModel::new(8_000_000, 4.0)
    }

    #[test]
    fn no_penalty_while_fitting() {
        let m = mm();
        let sets = [2_000_000u64, 3_000_000, 3_000_000];
        assert!(m.fits(&sets));
        assert_eq!(m.paging_multiplier(&sets), Slowdown::ONE);
        assert_eq!(m.adjust_slowdown(Slowdown::new(4.0), &sets).get(), 4.0);
    }

    #[test]
    fn penalty_grows_linearly_beyond_capacity() {
        let m = mm();
        // 50% overcommit → multiplier 1 + 4 × 0.5 = 3.
        let sets = [12_000_000u64];
        assert!(!m.fits(&sets));
        assert!((m.paging_multiplier(&sets).get() - 3.0).abs() < 1e-12);
        assert!((m.adjust_slowdown(Slowdown::new(2.0), &sets).get() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn exact_fit_is_free() {
        let m = mm();
        let sets = [8_000_000u64];
        assert!(m.fits(&sets));
        assert_eq!(m.paging_multiplier(&sets), Slowdown::ONE);
        assert_eq!(m.headroom(&sets), 0);
    }

    #[test]
    fn headroom_accounting() {
        let m = mm();
        assert_eq!(m.headroom(&[]), 8_000_000);
        assert_eq!(m.headroom(&[5_000_000]), 3_000_000);
        assert_eq!(m.headroom(&[9_000_000]), 0);
    }

    #[test]
    fn multiplier_monotone_in_demand() {
        let m = mm();
        let mut prev = Slowdown::ONE;
        for extra in (0..10).map(|i| i * 2_000_000) {
            let mult = m.paging_multiplier(&[6_000_000, extra]);
            assert!(mult >= prev);
            prev = mult;
        }
    }

    #[test]
    #[should_panic(expected = "zero memory")]
    fn zero_capacity_rejected() {
        MemoryModel::new(0, 1.0);
    }
}
