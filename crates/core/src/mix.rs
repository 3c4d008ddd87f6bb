//! Workload-mix probabilities `pcompᵢ` / `pcommᵢ`.
//!
//! Each of the `p` contending applications alternates computation with
//! communication; application `k` communicates a fraction `fₖ` of the time.
//! Treating the applications' instantaneous states as independent
//! Bernoulli variables, the probability that **exactly `i`** of them are
//! communicating is a Poisson–binomial distribution. The paper computes all
//! `pcommᵢ` (and symmetrically `pcompᵢ`) with a dynamic program:
//!
//! * full generation: `O(p²)`,
//! * adding an application: `O(p)` (one convolution step),
//! * removing one: the paper regenerates in `O(p²)`; this implementation
//!   also offers an `O(p)` deconvolution (numerically guarded).
//!
//! `pcompᵢ = pcomm₍p−i₎` because every application is in exactly one of the
//! two states at any instant, so a single distribution serves both.
//!
//! All updates mutate the distribution **in place** — steady-state `add`
//! and `remove` perform no heap allocation beyond `Vec` growth — and bump
//! a globally unique [`epoch`](WorkloadMix::epoch), which downstream
//! caches (see [`crate::profile`]) use to detect staleness in O(1).

use crate::units::Prob;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tolerance for the deconvolution fallback and invariant checks.
const EPS: f64 = 1e-9;

/// Monotone source of mix epochs. Starts at 1 so 0 can mean "never built"
/// in downstream caches.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// The set of contending applications on the front-end, tracked as the
/// distribution of how many are communicating simultaneously.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    /// Communication fraction per contender.
    fracs: Vec<Prob>,
    /// `comm_dist[i]` = probability exactly `i` contenders communicate.
    comm_dist: Vec<f64>,
    /// Version stamp, replaced with a globally fresh value on every
    /// mutation. Two mixes with equal epochs hold identical
    /// distributions (clones that have not diverged); the converse does
    /// not hold.
    epoch: u64,
}

/// Equality is distribution equality; the epoch is a cache key, not state.
impl PartialEq for WorkloadMix {
    fn eq(&self, other: &Self) -> bool {
        self.fracs == other.fracs && self.comm_dist == other.comm_dist
    }
}

impl Default for WorkloadMix {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadMix {
    /// An empty mix (dedicated machine, `p = 0`).
    pub fn new() -> Self {
        WorkloadMix { fracs: Vec::new(), comm_dist: vec![1.0], epoch: next_epoch() }
    }

    /// Builds a mix from validated communication fractions.
    pub fn from_probs(fracs: &[Prob]) -> Self {
        let mut m = WorkloadMix {
            fracs: fracs.to_vec(),
            comm_dist: Vec::with_capacity(fracs.len() + 1),
            epoch: 0,
        };
        m.regenerate();
        m
    }

    /// Builds a mix from raw communication fractions; panics if any falls
    /// outside `[0, 1]`. Prefer [`Self::from_probs`] where the caller
    /// already holds validated values.
    // modelcheck-allow: naked-f64 — validated convenience boundary for raw inputs
    pub fn from_fracs(fracs: &[f64]) -> Self {
        let probs: Vec<Prob> = fracs.iter().map(|&f| Prob::new(f)).collect();
        Self::from_probs(&probs)
    }

    /// Number of contending applications, `p`.
    pub fn p(&self) -> usize {
        self.fracs.len()
    }

    /// The communication fractions, in insertion order.
    pub fn fracs(&self) -> &[Prob] {
        &self.fracs
    }

    /// The mix's version stamp. Bumped to a globally unique value by
    /// every mutation ([`add`](Self::add), [`remove`](Self::remove),
    /// [`regenerate`](Self::regenerate)), so a cached derivation tagged
    /// with this value can be revalidated in O(1).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adds a contender that communicates a fraction `frac` of the time.
    /// `O(p)` — the paper's incremental arrival update. The convolution
    /// runs in place; no allocation happens beyond amortized `Vec` growth.
    pub fn add(&mut self, frac: Prob) {
        self.convolve_in_place(frac.get());
        self.fracs.push(frac);
        self.epoch = next_epoch();
        self.debug_check_normalized();
    }

    /// One convolution step with `[1-f, f]`, entirely within `comm_dist`.
    /// Walking top-down lets each slot read its old value and its left
    /// neighbor's old value before either is overwritten.
    fn convolve_in_place(&mut self, frac: f64) {
        let d = &mut self.comm_dist;
        d.push(0.0);
        for i in (1..d.len()).rev() {
            d[i] = d[i] * (1.0 - frac) + d[i - 1] * frac;
        }
        d[0] *= 1.0 - frac;
    }

    /// Debug check of the DP's defining invariant: the communicating-count
    /// distribution is a probability distribution, so it must sum to
    /// 1 ± 1e-9 after every mutation.
    fn debug_check_normalized(&self) {
        debug_assert!(
            {
                let total: f64 = self.comm_dist.iter().sum();
                (total - 1.0).abs() <= EPS
            },
            "mix distribution no longer sums to 1: {:?}",
            self.comm_dist
        );
    }

    /// Removes the contender at `index` by `O(p)` deconvolution, falling
    /// back to `O(p²)` regeneration when the division is ill-conditioned.
    /// Runs in place (the fallback reuses the existing buffer). Returns
    /// the removed fraction, or `None` if out of range.
    pub fn remove(&mut self, index: usize) -> Option<Prob> {
        if index >= self.fracs.len() {
            return None;
        }
        let removed = self.fracs.remove(index);
        let f = removed.get();
        self.epoch = next_epoch();
        // Deconvolve: comm_dist = old ⊛ [1-f, f]  =>  recover old. Each
        // step divides by (1 - f), amplifying rounding error by up to
        // (1/(1-f))^p overall, so fall back to regeneration (the paper's
        // O(p²) path) unless the division is comfortably conditioned.
        let n = self.comm_dist.len() - 1;
        if 1.0 - f > 0.1 {
            // Forward pass overwrites comm_dist[i] with the recovered
            // old[i]; slot i only needs the not-yet-touched comm_dist[i]
            // and the already-recovered carry, so in place is safe. A
            // bail-out mid-pass leaves the buffer partially overwritten,
            // which is fine: the fallback rebuilds it from `fracs`.
            let mut carry = 0.0;
            let mut ok = true;
            for i in 0..n {
                let v = (self.comm_dist[i] - carry * f) / (1.0 - f);
                if !(-EPS..=1.0 + EPS).contains(&v) {
                    ok = false;
                    break;
                }
                carry = v.clamp(0.0, 1.0);
                self.comm_dist[i] = carry;
            }
            if ok {
                self.comm_dist.truncate(n);
                self.debug_check_normalized();
                return Some(removed);
            }
        } else if (1.0 - f).abs() <= EPS {
            // f == 1: the contender always communicates; old dist is a
            // left shift.
            self.comm_dist.remove(0);
            self.debug_check_normalized();
            return Some(removed);
        }
        // Ill-conditioned: regenerate as in the paper.
        self.regenerate();
        Some(removed)
    }

    /// Rebuilds the distribution from scratch — the paper's `O(p²)` path.
    /// Reuses the existing buffer; allocation-free once capacity exists.
    pub fn regenerate(&mut self) {
        self.comm_dist.clear();
        self.comm_dist.push(1.0);
        for k in 0..self.fracs.len() {
            let f = self.fracs[k].get();
            self.convolve_in_place(f);
        }
        self.epoch = next_epoch();
        self.debug_check_normalized();
    }

    /// Probability that exactly `i` contenders are communicating
    /// (`pcommᵢ`). Zero outside `0..=p`.
    pub fn pcomm(&self, i: usize) -> Prob {
        Prob::new_unchecked(self.comm_dist.get(i).copied().unwrap_or(0.0))
    }

    /// Probability that exactly `i` contenders are computing (`pcompᵢ`).
    /// Equals `pcomm₍p−i₎`.
    pub fn pcomp(&self, i: usize) -> Prob {
        if i > self.p() {
            Prob::ZERO
        } else {
            Prob::new_unchecked(self.comm_dist[self.p() - i])
        }
    }

    /// The full communicating-count distribution, indices `0..=p`.
    // modelcheck-allow: naked-f64 — raw view of the DP buffer for diagnostics
    pub fn comm_dist(&self) -> &[f64] {
        &self.comm_dist
    }
}

// The epoch is process-local, so it is excluded from the wire format and
// reassigned fresh on deserialization (a stored epoch could collide with
// a live one and confuse epoch-keyed caches).
impl Serialize for WorkloadMix {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("fracs".to_string(), self.fracs.to_value()),
            ("comm_dist".to_string(), self.comm_dist.to_value()),
        ])
    }
}

impl Deserialize for WorkloadMix {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name).ok_or_else(|| serde::Error::msg(format!("missing field `{name}`")))
        };
        Ok(WorkloadMix {
            fracs: Vec::<Prob>::from_value(field("fracs")?)?,
            comm_dist: Vec::<f64>::from_value(field("comm_dist")?)?,
            epoch: next_epoch(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::prob;

    fn close(a: Prob, b: f64) -> bool {
        (a.get() - b).abs() < 1e-12
    }

    #[test]
    fn empty_mix_is_certainly_idle() {
        let m = WorkloadMix::new();
        assert_eq!(m.p(), 0);
        assert!(close(m.pcomm(0), 1.0));
        assert!(close(m.pcomp(0), 1.0));
        assert_eq!(m.pcomm(1), Prob::ZERO);
    }

    #[test]
    fn paper_worked_example() {
        // p = 2; one app communicates 20% / computes 80%, the other 30%/70%.
        let m = WorkloadMix::from_fracs(&[0.2, 0.3]);
        assert!(close(m.pcomm(1), 0.2 * 0.7 + 0.3 * 0.8), "pcomm1 = {}", m.pcomm(1));
        assert!(close(m.pcomm(2), 0.2 * 0.3));
        assert!(close(m.pcomp(1), 0.2 * 0.7 + 0.3 * 0.8));
        assert!(close(m.pcomp(2), 0.7 * 0.8));
        // And the leftover mass:
        assert!(close(m.pcomm(0), 0.8 * 0.7));
        assert!(close(m.pcomp(0), 0.2 * 0.3));
    }

    #[test]
    fn from_probs_matches_from_fracs() {
        let a = WorkloadMix::from_probs(&[prob(0.2), prob(0.3)]);
        let b = WorkloadMix::from_fracs(&[0.2, 0.3]);
        assert_eq!(a, b);
        assert_eq!(a.fracs(), &[prob(0.2), prob(0.3)]);
    }

    #[test]
    fn distribution_sums_to_one() {
        let m = WorkloadMix::from_fracs(&[0.1, 0.5, 0.9, 0.33, 0.66]);
        let total: f64 = m.comm_dist().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pcomp_is_mirror_of_pcomm() {
        let m = WorkloadMix::from_fracs(&[0.25, 0.76]);
        for i in 0..=m.p() {
            assert!(close(m.pcomp(i), m.pcomm(m.p() - i).get()));
        }
    }

    #[test]
    fn remove_inverts_add() {
        let mut m = WorkloadMix::from_fracs(&[0.2, 0.5, 0.8]);
        let before = WorkloadMix::from_fracs(&[0.2, 0.8]);
        assert_eq!(m.remove(1), Some(prob(0.5)));
        assert_eq!(m.p(), 2);
        for i in 0..=2 {
            assert!(
                (m.pcomm(i).get() - before.pcomm(i).get()).abs() < 1e-9,
                "i={i}: {} vs {}",
                m.pcomm(i),
                before.pcomm(i)
            );
        }
    }

    #[test]
    fn remove_handles_always_communicating() {
        let mut m = WorkloadMix::from_fracs(&[1.0, 0.5]);
        assert_eq!(m.remove(0), Some(Prob::ONE));
        assert!(close(m.pcomm(0), 0.5));
        assert!(close(m.pcomm(1), 0.5));
    }

    #[test]
    fn remove_out_of_range() {
        let mut m = WorkloadMix::from_fracs(&[0.5]);
        assert_eq!(m.remove(3), None);
        assert_eq!(m.p(), 1);
    }

    #[test]
    fn regenerate_matches_incremental() {
        let mut m = WorkloadMix::from_fracs(&[0.12, 0.34, 0.56, 0.78]);
        let snapshot = m.clone();
        m.regenerate();
        for i in 0..=m.p() {
            assert!(close(m.pcomm(i), snapshot.pcomm(i).get()));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_fraction_rejected() {
        WorkloadMix::from_fracs(&[1.5]);
    }

    #[test]
    fn all_certain_states() {
        let m = WorkloadMix::from_fracs(&[0.0, 0.0, 1.0]);
        assert!(close(m.pcomm(1), 1.0));
        assert!(close(m.pcomp(2), 1.0));
    }

    #[test]
    fn epochs_are_unique_and_bump_on_mutation() {
        let a = WorkloadMix::new();
        let b = WorkloadMix::new();
        assert_ne!(a.epoch(), b.epoch(), "fresh mixes get distinct epochs");

        let mut m = WorkloadMix::from_fracs(&[0.2]);
        let e0 = m.epoch();
        m.add(prob(0.5));
        let e1 = m.epoch();
        assert_ne!(e0, e1, "add bumps the epoch");
        m.remove(0);
        let e2 = m.epoch();
        assert_ne!(e1, e2, "remove bumps the epoch");
        m.regenerate();
        assert_ne!(e2, m.epoch(), "regenerate bumps the epoch");
    }

    #[test]
    fn clones_share_epoch_until_divergence() {
        let m = WorkloadMix::from_fracs(&[0.3, 0.6]);
        let mut c = m.clone();
        assert_eq!(m.epoch(), c.epoch());
        c.add(prob(0.1));
        assert_ne!(m.epoch(), c.epoch());
    }

    #[test]
    fn equality_ignores_epoch() {
        let a = WorkloadMix::from_fracs(&[0.2, 0.4]);
        let b = WorkloadMix::from_fracs(&[0.2, 0.4]);
        assert_ne!(a.epoch(), b.epoch());
        assert_eq!(a, b);
    }

    #[test]
    fn steady_state_updates_do_not_allocate() {
        // After one add at peak size, capacity suffices for any
        // add/remove cycle at or below that size.
        let mut m = WorkloadMix::from_fracs(&[0.2, 0.4, 0.6]);
        m.add(prob(0.5));
        m.remove(3);
        let cap_dist = m.comm_dist.capacity();
        let cap_fracs = m.fracs.capacity();
        for _ in 0..100 {
            m.add(prob(0.5));
            m.remove(3);
        }
        assert_eq!(m.comm_dist.capacity(), cap_dist);
        assert_eq!(m.fracs.capacity(), cap_fracs);
    }

    #[test]
    fn serde_roundtrip_refreshes_epoch() {
        let m = WorkloadMix::from_fracs(&[0.25, 0.76]);
        let v = m.to_value();
        let back = WorkloadMix::from_value(&v).expect("roundtrip");
        assert_eq!(m, back);
        assert_ne!(m.epoch(), back.epoch());
    }
}
