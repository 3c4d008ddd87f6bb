//! System-dependent delay tables.
//!
//! The Sun/Paragon slowdown formulas weight mix probabilities with measured
//! *delays*: the average relative extra time that `i` contention generators
//! impose on a probe. All entries are expressed as `T_contended / T_dedicated
//! − 1`, so a delay of `2.0` means "three times slower". The tables are
//! measured once per platform by the calibration suite and never change at
//! run time.
//!
//! Two tables exist:
//!
//! * [`CommDelayTable`] — delays imposed **on communication** by `i`
//!   computing contenders (`delay_compⁱ`) and by `i` communicating
//!   contenders (`delay_commⁱ`, averaged over both directions).
//! * [`CompDelayTable`] — delays imposed **on computation** by `i`
//!   contenders communicating with `j`-word messages (`delay_commⁱʲ`).
//!   Message size matters here; the paper finds that measuring three
//!   buckets `j ∈ {1, 500, 1000}` suffices, that `j = 1` should only be
//!   used for messages under 95 words, and that delays saturate above
//!   roughly 1000 words.
//!
//! Delay entries are deliberately *not* newtyped: they are dimensionless
//! relative coefficients (`T_contended / T_dedicated − 1`, so ≥ 0 and
//! unbounded above), not probabilities, durations, or slowdowns. The
//! `modelcheck-allow: naked-f64` annotations below record that choice.

use serde::{Deserialize, Serialize};

/// Paper footnote 2: the `j = 1` column only applies to messages smaller
/// than this many words.
pub const SMALL_MESSAGE_CUTOFF_WORDS: u64 = 95;

/// Delays imposed on *communication*, indexed by contender count `i ≥ 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommDelayTable {
    /// `delay_compⁱ` for `i = 1..`, relative extra time from `i`
    /// compute-bound contenders.
    pub by_computing: Vec<f64>,
    /// `delay_commⁱ` for `i = 1..`, relative extra time from `i`
    /// communicating contenders (average of both link directions).
    pub by_communicating: Vec<f64>,
}

impl CommDelayTable {
    /// Builds a table; both vectors are indexed by `i - 1`.
    // modelcheck-allow: naked-f64 — dimensionless relative-delay coefficients
    pub fn new(by_computing: Vec<f64>, by_communicating: Vec<f64>) -> Self {
        assert!(
            by_computing.iter().chain(&by_communicating).all(|d| *d >= 0.0),
            "delays must be non-negative"
        );
        CommDelayTable { by_computing, by_communicating }
    }

    /// `delay_compⁱ`; 0 for `i = 0`, saturating at the last measured entry.
    // modelcheck-allow: naked-f64 — dimensionless relative-delay coefficient
    pub fn computing(&self, i: usize) -> f64 {
        lookup_saturating(&self.by_computing, i)
    }

    /// `delay_commⁱ`; 0 for `i = 0`, saturating at the last measured entry.
    // modelcheck-allow: naked-f64 — dimensionless relative-delay coefficient
    pub fn communicating(&self, i: usize) -> f64 {
        lookup_saturating(&self.by_communicating, i)
    }
}

/// Delays imposed on *computation* by communicating contenders, bucketed by
/// message size `j`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompDelayTable {
    /// Measured message-size buckets in words, ascending (paper: `[1, 500,
    /// 1000]`).
    pub buckets: Vec<u64>,
    /// `delays[b][i-1]` = `delay_commⁱʲ` for bucket `b` and contender
    /// count `i`.
    pub delays: Vec<Vec<f64>>,
}

impl CompDelayTable {
    /// Builds a table; `delays` must have one row per bucket.
    // modelcheck-allow: naked-f64 — dimensionless relative-delay coefficients
    pub fn new(buckets: Vec<u64>, delays: Vec<Vec<f64>>) -> Self {
        assert_eq!(buckets.len(), delays.len(), "one delay row per bucket");
        assert!(!buckets.is_empty(), "at least one bucket required");
        assert!(buckets.windows(2).all(|w| w[0] < w[1]), "buckets must ascend");
        assert!(delays.iter().flatten().all(|d| *d >= 0.0), "delays must be non-negative");
        CompDelayTable { buckets, delays }
    }

    /// Selects the bucket for a message of `j_words` words, per the paper's
    /// rules: the nearest measured bucket, except that the `j = 1` bucket is
    /// only eligible for messages under [`SMALL_MESSAGE_CUTOFF_WORDS`];
    /// sizes beyond the largest bucket saturate to it.
    pub fn bucket_for(&self, j_words: u64) -> usize {
        select_bucket(&self.buckets, j_words)
    }

    /// `delay_commⁱʲ` for `i` contenders sending `j_words`-word messages;
    /// 0 for `i = 0`, saturating in `i` at the last measured entry.
    // modelcheck-allow: naked-f64 — dimensionless relative-delay coefficient
    pub fn delay(&self, i: usize, j_words: u64) -> f64 {
        lookup_saturating(&self.delays[self.bucket_for(j_words)], i)
    }

    /// `delay_commⁱʲ` using an explicit bucket index (ablation hook).
    // modelcheck-allow: naked-f64 — dimensionless relative-delay coefficient
    pub(crate) fn delay_at_bucket(&self, i: usize, bucket: usize) -> f64 {
        lookup_saturating(&self.delays[bucket], i)
    }
}

/// Bucket-selection rule shared by [`CompDelayTable::bucket_for`] and the
/// cached [`crate::profile::SlowdownProfile`]: the nearest measured bucket
/// to `j_words`, except that the `j = 1` bucket is only eligible for
/// messages under [`SMALL_MESSAGE_CUTOFF_WORDS`]; ties go to the larger
/// bucket (the conservative choice: delays grow with message size).
pub(crate) fn select_bucket(buckets: &[u64], j_words: u64) -> usize {
    let eligible = |idx: usize| buckets[idx] != 1 || j_words < SMALL_MESSAGE_CUTOFF_WORDS;
    let mut best: Option<(usize, u64)> = None;
    for idx in 0..buckets.len() {
        if !eligible(idx) {
            continue;
        }
        let dist = buckets[idx].abs_diff(j_words);
        let better = match best {
            None => true,
            Some((bi, bd)) => dist < bd || (dist == bd && buckets[idx] > buckets[bi]),
        };
        if better {
            best = Some((idx, dist));
        }
    }
    // All buckets ineligible can only happen when the table is just
    // `[1]` and the message is large; saturate to the last bucket.
    best.map(|(i, _)| i).unwrap_or(buckets.len() - 1)
}

/// Index `table` by contender count `i` (1-based); 0 for `i = 0`,
/// last entry for `i` beyond the measured range.
fn lookup_saturating(table: &[f64], i: usize) -> f64 {
    if i == 0 || table.is_empty() {
        0.0
    } else {
        table[(i - 1).min(table.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_table_lookup_and_saturation() {
        let t = CommDelayTable::new(vec![1.0, 2.0, 3.0], vec![0.5, 1.0, 1.5]);
        assert_eq!(t.computing(0), 0.0);
        assert_eq!(t.computing(1), 1.0);
        assert_eq!(t.computing(3), 3.0);
        assert_eq!(t.computing(10), 3.0); // saturates
        assert_eq!(t.communicating(2), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn comm_table_rejects_negative() {
        CommDelayTable::new(vec![-0.1], vec![]);
    }

    fn paper_buckets() -> CompDelayTable {
        CompDelayTable::new(
            vec![1, 500, 1000],
            vec![vec![0.1, 0.2], vec![0.5, 1.0], vec![0.9, 1.8]],
        )
    }

    #[test]
    fn bucket_selection_follows_paper_rules() {
        let t = paper_buckets();
        // Tiny messages use j = 1.
        assert_eq!(t.bucket_for(1), 0);
        assert_eq!(t.bucket_for(94), 0);
        // At and above the 95-word cutoff, j = 1 is ineligible.
        assert_eq!(t.bucket_for(95), 1);
        assert_eq!(t.bucket_for(200), 1);
        assert_eq!(t.bucket_for(500), 1);
        assert_eq!(t.bucket_for(700), 1); // nearest of {500, 1000} → 500
                                          // Tie at 750 goes to the larger bucket.
        assert_eq!(t.bucket_for(750), 2);
        assert_eq!(t.bucket_for(800), 2);
        assert_eq!(t.bucket_for(1200), 2);
        // Saturation far beyond the largest bucket.
        assert_eq!(t.bucket_for(1_000_000), 2);
    }

    #[test]
    fn delay_lookup() {
        let t = paper_buckets();
        assert_eq!(t.delay(0, 800), 0.0);
        assert_eq!(t.delay(1, 800), 0.9);
        assert_eq!(t.delay(2, 800), 1.8);
        assert_eq!(t.delay(5, 800), 1.8); // saturates in i
        assert_eq!(t.delay(1, 10), 0.1);
        assert_eq!(t.delay_at_bucket(2, 1), 1.0);
    }

    #[test]
    fn single_bucket_table_always_used() {
        let t = CompDelayTable::new(vec![1], vec![vec![0.3]]);
        // Even a huge message falls back to the only bucket.
        assert_eq!(t.bucket_for(10_000), 0);
        assert_eq!(t.delay(1, 10_000), 0.3);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn buckets_must_ascend() {
        CompDelayTable::new(vec![500, 1], vec![vec![0.1], vec![0.2]]);
    }
}
