//! Dedicated-mode communication cost models.
//!
//! Both platforms model the dedicated time to move data sets across the
//! link as a startup-plus-bandwidth law per message,
//!
//! ```text
//! dcomm = Σᵢ Nᵢ × (α + sizeᵢ / β)
//! ```
//!
//! with `α` the startup time (seconds) and `β` the effective bandwidth
//! (words/second). The Sun/Paragon platform refines this into a
//! **piecewise-linear** function of message size with a calibrated
//! `threshold`: one `(α, β)` pair for messages of at most `threshold` words
//! and another for larger ones (1024 words on the real platform).
//!
//! Dedicated costs depend only on the `<application, problem-size,
//! platform>` triple — they are computed once and never at run time.

use crate::dataset::DataSet;
use crate::units::{f64_from_u64, secs, BytesPerSec, Seconds, Words};
use serde::{Deserialize, Serialize};

/// Single-piece startup/bandwidth model: `t(msg) = α + words/β`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearCommModel {
    /// Per-message startup time in seconds (`α`). Physical startups are
    /// non-negative — use [`Self::new`] to enforce that; pieces produced
    /// by [`Self::from_fit`] are empirical intercepts valid on their own
    /// size range and may extrapolate below zero, which is why this field
    /// is a raw number rather than a [`Seconds`].
    pub alpha: f64,
    /// Effective bandwidth (`β`).
    pub beta: BytesPerSec,
}

impl LinearCommModel {
    /// Builds a model from a physical startup time and bandwidth. The
    /// distinct parameter types make a transposed `(α, β)` pair a compile
    /// error instead of a silently corrupted prediction.
    pub fn new(alpha: Seconds, beta: BytesPerSec) -> Self {
        LinearCommModel { alpha: alpha.get(), beta }
    }

    /// Builds a model from a regression fit in the paper's raw units
    /// (`alpha` seconds, `beta` words/second). Unlike [`Self::new`], a
    /// negative intercept is allowed: a fitted piece is an empirical
    /// approximation valid on its own size range, and convex cost curves
    /// (e.g. buffer-overflow regimes) produce large-message pieces whose
    /// extrapolated intercept is below zero.
    // modelcheck-allow: naked-f64 — raw regression boundary; alpha may be negative here
    pub fn from_fit(alpha: f64, beta: f64) -> Self {
        assert!(alpha.is_finite(), "fitted startup time must be finite");
        LinearCommModel { alpha, beta: BytesPerSec::from_words_per_sec(beta) }
    }

    /// Dedicated time for one message of `size` words.
    pub fn message_time(&self, size: Words) -> Seconds {
        secs(self.alpha + size.as_f64() / self.beta.words_per_sec())
    }

    /// Dedicated time for one data set.
    pub(crate) fn dataset_time(&self, set: DataSet) -> Seconds {
        f64_from_u64(set.messages) * self.message_time(Words::new(set.words))
    }

    /// Dedicated time for a collection of data sets — the paper's `dcomm`.
    pub fn dcomm(&self, sets: &[DataSet]) -> Seconds {
        sets.iter().map(|&s| self.dataset_time(s)).sum()
    }
}

/// Piecewise-linear model: one `(α, β)` pair per side of `threshold`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PiecewiseCommModel {
    /// Piece boundary in words; messages with `words <= threshold` use
    /// `small`, larger ones use `large`.
    pub threshold: u64,
    /// Model for messages of at most `threshold` words (`α₁`, `β₁`).
    pub small: LinearCommModel,
    /// Model for messages of more than `threshold` words (`α₂`, `β₂`).
    pub large: LinearCommModel,
}

impl PiecewiseCommModel {
    /// Builds a piecewise model from its two pieces.
    ///
    /// Debug builds check that the cost curve does not collapse across
    /// the piece boundary: the first large-piece message must cost at
    /// least 80% of the last small-piece message. (Costs may legitimately
    /// jump *up* at the boundary — the inbound rendezvous regime — and
    /// fitted pieces carry regression noise, hence the one-sided, slack
    /// check rather than strict monotonicity.)
    pub fn new(threshold: u64, small: LinearCommModel, large: LinearCommModel) -> Self {
        let m = PiecewiseCommModel { threshold, small, large };
        // Raw arithmetic (not `message_time`) so a fitted piece that
        // extrapolates below zero reports a boundary collapse instead of
        // tripping the `Seconds` invariant first.
        #[cfg(debug_assertions)]
        if threshold < u64::MAX {
            let at_threshold = small.alpha + f64_from_u64(threshold) / small.beta.words_per_sec();
            let just_above = large.alpha + f64_from_u64(threshold + 1) / large.beta.words_per_sec();
            debug_assert!(
                just_above >= 0.8 * at_threshold,
                "comm cost collapses across the {threshold}-word piece boundary: \
                 {at_threshold} s at the threshold vs {just_above} s just above",
            );
        }
        m
    }

    /// A degenerate piecewise model that uses `model` everywhere — handy
    /// for comparing single-piece vs piecewise accuracy (ablation).
    pub fn uniform(model: LinearCommModel) -> Self {
        PiecewiseCommModel { threshold: u64::MAX, small: model, large: model }
    }

    /// The piece governing a message of `size` words.
    pub fn piece(&self, size: Words) -> &LinearCommModel {
        if size.get() <= self.threshold {
            &self.small
        } else {
            &self.large
        }
    }

    /// Dedicated time for one message of `size` words.
    pub fn message_time(&self, size: Words) -> Seconds {
        self.piece(size).message_time(size)
    }

    /// Dedicated time for one data set (all messages share one piece).
    pub(crate) fn dataset_time(&self, set: DataSet) -> Seconds {
        f64_from_u64(set.messages) * self.message_time(Words::new(set.words))
    }

    /// Dedicated time for a collection of data sets — the paper's
    /// two-term `dcomm` with `{data sets}₁` and `{data sets}₂` split at
    /// `threshold`.
    pub fn dcomm(&self, sets: &[DataSet]) -> Seconds {
        sets.iter().map(|&s| self.dataset_time(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::words;

    fn linear(alpha: f64, beta_wps: f64) -> LinearCommModel {
        LinearCommModel::new(secs(alpha), BytesPerSec::from_words_per_sec(beta_wps))
    }

    #[test]
    fn linear_message_time() {
        let m = linear(1e-3, 1e6);
        // 1000 words at 10^6 words/s = 1 ms, plus 1 ms startup.
        assert!((m.message_time(words(1000)).get() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn dcomm_sums_over_sets() {
        let m = linear(0.5, 2.0);
        let sets = [DataSet::new(2, 4), DataSet::new(3, 2)];
        // 2*(0.5 + 2) + 3*(0.5 + 1) = 5 + 4.5 = 9.5
        assert!((m.dcomm(&sets).get() - 9.5).abs() < 1e-12);
        assert_eq!(m.dcomm(&[]), Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        linear(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_startup_rejected() {
        linear(-1.0, 10.0);
    }

    #[test]
    fn from_fit_permits_negative_intercept() {
        let m = LinearCommModel::from_fit(-2e-3, 1e6);
        assert_eq!(m.alpha, -2e-3);
        assert_eq!(m.beta.words_per_sec(), 1e6);
    }

    #[test]
    fn piecewise_selects_piece_inclusively() {
        let small = linear(1.0, 10.0);
        let large = linear(100.0, 100.0);
        let m = PiecewiseCommModel::new(1024, small, large);
        // At the threshold: small piece (paper: "threshold or less words").
        assert!((m.message_time(words(1024)).get() - (1.0 + 102.4)).abs() < 1e-9);
        // Just above: large piece.
        assert!((m.message_time(words(1025)).get() - (100.0 + 10.25)).abs() < 1e-9);
    }

    #[test]
    fn piecewise_dcomm_splits_sets() {
        let small = linear(1.0, 1.0);
        let large = linear(6.0, 2.0);
        let m = PiecewiseCommModel::new(10, small, large);
        let sets = [DataSet::new(1, 10), DataSet::new(1, 20)];
        // small: 1 + 10 = 11; large: 6 + 10 = 16.
        assert!((m.dcomm(&sets).get() - 27.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_matches_single_piece() {
        let base = linear(0.25, 8.0);
        let m = PiecewiseCommModel::uniform(base);
        let sets = [DataSet::new(7, 3), DataSet::new(2, 1_000_000)];
        assert!((m.dcomm(&sets).get() - base.dcomm(&sets).get()).abs() < 1e-9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "collapses across")]
    fn collapsing_boundary_rejected_in_debug() {
        // The large piece undercuts the small piece by far more than
        // regression noise could explain: 11.0 at the threshold, 1.001
        // just above.
        let small = linear(1.0, 1.0);
        let large = linear(1.0, 1000.0);
        PiecewiseCommModel::new(10, small, large);
    }
}
