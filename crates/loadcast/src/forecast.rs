//! The forecaster family: one-step-ahead predictors of the next load
//! sample.
//!
//! Modeled on the Network Weather Service's predictor bank: several
//! cheap, incremental forecasters run side by side and a selector
//! (see [`crate::selector`]) forwards whichever has the lowest running
//! error. Every forecaster here is *exact on constant input*: feeding the
//! same value repeatedly makes `predict` return that value to the bit —
//! the property that lets forecast-fed model predictions match direct
//! `decide()` calls bit-for-bit when the load is steady.
//!
//! The selector holds [`default_family`]'s bank inline rather than as
//! these boxed trait objects. They stay as the reference definition:
//! the property tests feed both the same traces and require the same
//! predictions, winners and scores, to the bit.

use contention_model::units::f64_from_usize;
use std::collections::VecDeque;

/// A one-step-ahead load forecaster, fed samples oldest → newest.
pub trait Forecaster {
    /// Ingests the next observed load value (already validated: finite,
    /// non-negative).
    fn observe(&mut self, load: f64);

    /// The current prediction of the *next* load value; `None` until at
    /// least one observation has arrived.
    fn predict(&self) -> Option<f64>;

    /// Short display name (`"last"`, `"mean16"`, `"ewma0.30"`, …).
    fn name(&self) -> &str;
}

/// Predicts the most recent observation (the NWS "last value" method).
#[derive(Debug, Clone, Default)]
pub struct LastValue {
    last: Option<f64>,
}

impl LastValue {
    /// A fresh last-value forecaster.
    pub fn new() -> Self {
        LastValue::default()
    }
}

impl Forecaster for LastValue {
    fn observe(&mut self, load: f64) {
        self.last = Some(load);
    }

    fn predict(&self) -> Option<f64> {
        self.last
    }

    fn name(&self) -> &str {
        "last"
    }
}

/// Predicts the arithmetic mean of the last `k` observations.
#[derive(Debug, Clone)]
pub struct WindowedMean {
    k: usize,
    buf: VecDeque<f64>,
    name: String,
}

impl WindowedMean {
    /// A mean over the trailing `k ≥ 1` observations.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "mean window must hold at least 1 sample");
        WindowedMean { k, buf: VecDeque::with_capacity(k), name: format!("mean{k}") }
    }
}

impl Forecaster for WindowedMean {
    fn observe(&mut self, load: f64) {
        if self.buf.len() == self.k {
            self.buf.pop_front();
        }
        self.buf.push_back(load);
    }

    fn predict(&self) -> Option<f64> {
        let first = *self.buf.front()?;
        // Equal-window fast path: summing n copies of v and dividing by n
        // rounds for non-dyadic v (sixteen 0.1s ≠ 1.6 exactly), so the
        // constant-input fixed-point guarantee is enforced structurally.
        // `total_cmp` equality is bit equality, so 0.0 and -0.0 do not
        // count as repeats.
        if self.buf.iter().all(|x| x.total_cmp(&first).is_eq()) {
            return Some(first);
        }
        // Re-summed each call (k is small) rather than kept as a running
        // add/subtract accumulator, which would drift.
        let sum: f64 = self.buf.iter().sum();
        Some(sum / f64_from_usize(self.buf.len()))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Largest window a [`WindowedMedian`] accepts: `predict` sorts the
/// window in a stack array of this many values instead of allocating.
pub(crate) const MAX_MEDIAN_WINDOW: usize = 64;

/// Predicts the median of the last `k` observations (robust to spikes).
#[derive(Debug, Clone)]
pub struct WindowedMedian {
    k: usize,
    buf: VecDeque<f64>,
    name: String,
}

impl WindowedMedian {
    /// A median over the trailing `k` observations,
    /// `1 ≤ k ≤` [`MAX_MEDIAN_WINDOW`].
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "median window must hold at least 1 sample");
        assert!(
            k <= MAX_MEDIAN_WINDOW,
            "median window must hold at most {MAX_MEDIAN_WINDOW} samples"
        );
        WindowedMedian { k, buf: VecDeque::with_capacity(k), name: format!("median{k}") }
    }
}

impl Forecaster for WindowedMedian {
    fn observe(&mut self, load: f64) {
        if self.buf.len() == self.k {
            self.buf.pop_front();
        }
        self.buf.push_back(load);
    }

    fn predict(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        // `new` bounds the window, so it always fits the stack array.
        let mut stack = [0.0f64; MAX_MEDIAN_WINDOW];
        let n = self.buf.len();
        let sorted = stack.get_mut(..n)?;
        for (slot, &v) in sorted.iter_mut().zip(&self.buf) {
            *slot = v;
        }
        // Values equal under `total_cmp` are bit-identical, so an
        // unstable sort orders them exactly as a stable one would.
        sorted.sort_unstable_by(f64::total_cmp);
        let mid = sorted[n / 2];
        if n % 2 == 1 {
            Some(mid)
        } else {
            // Even count: mean of the two middles. `(a + a) / 2 == a`
            // exactly, so constancy is preserved.
            Some((sorted[n / 2 - 1] + mid) / 2.0)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Exponentially weighted moving average, `s ← s + g·(v − s)`, with the
/// state initialized to the first observation — which makes constant
/// input a fixed point to the bit (`v − s` is exactly zero).
#[derive(Debug, Clone)]
pub struct Ewma {
    gain: f64,
    state: Option<f64>,
    name: String,
}

impl Ewma {
    /// An EWMA with gain `g ∈ (0, 1]` (1 degenerates to last-value).
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "EWMA gain must be in (0, 1]");
        Ewma { gain, state: None, name: format!("ewma{gain:.2}") }
    }

    /// The smoothing gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }
}

impl Forecaster for Ewma {
    fn observe(&mut self, load: f64) {
        self.state = Some(match self.state {
            None => load,
            Some(s) => s + self.gain * (load - s),
        });
    }

    fn predict(&self) -> Option<f64> {
        self.state
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The default predictor bank: last-value, short and long means, a
/// spike-robust median, and EWMAs from sluggish to reactive — the spread
/// the NWS found covers workstation load well.
pub fn default_family() -> Vec<Box<dyn Forecaster + Send + Sync>> {
    vec![
        Box::new(LastValue::new()),
        Box::new(WindowedMean::new(4)),
        Box::new(WindowedMean::new(16)),
        Box::new(WindowedMedian::new(5)),
        Box::new(Ewma::new(0.1)),
        Box::new(Ewma::new(0.3)),
        Box::new(Ewma::new(0.9)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(f: &mut dyn Forecaster, vals: &[f64]) {
        for &v in vals {
            f.observe(v);
        }
    }

    #[test]
    fn empty_forecasters_predict_nothing() {
        for f in default_family() {
            assert_eq!(f.predict(), None, "{}", f.name());
        }
    }

    #[test]
    fn constant_input_is_a_bit_exact_fixed_point() {
        for v in [0.0, 3.0, 2.5, 7.0, 0.1] {
            for mut f in default_family() {
                feed(f.as_mut(), &[v; 9]);
                assert_eq!(f.predict(), Some(v), "{} at {v}", f.name());
            }
        }
    }

    #[test]
    fn last_value_tracks_immediately() {
        let mut f = LastValue::new();
        feed(&mut f, &[1.0, 5.0, 2.0]);
        assert_eq!(f.predict(), Some(2.0));
    }

    #[test]
    fn windowed_mean_averages_the_tail() {
        let mut f = WindowedMean::new(3);
        feed(&mut f, &[10.0, 1.0, 2.0, 3.0]);
        assert_eq!(f.predict(), Some(2.0));
        assert_eq!(f.name(), "mean3");
    }

    #[test]
    fn windowed_median_resists_spikes() {
        let mut f = WindowedMedian::new(5);
        feed(&mut f, &[2.0, 2.0, 100.0, 2.0, 2.0]);
        assert_eq!(f.predict(), Some(2.0));
        let mut even = WindowedMedian::new(4);
        feed(&mut even, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.predict(), Some(2.5));
    }

    /// The allocating reference: copy the window, sort, take the middle.
    fn sorted_median(window: &[f64]) -> Option<f64> {
        if window.is_empty() {
            return None;
        }
        let mut sorted = window.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mid = sorted[n / 2];
        Some(if n % 2 == 1 { mid } else { (sorted[n / 2 - 1] + mid) / 2.0 })
    }

    proptest::proptest! {
        /// The stack-sorted median matches the sort-based reference to
        /// the bit on every prefix of a random trace, odd and even
        /// windows alike, with repeated values and signed zeros mixed in.
        fn windowed_median_matches_the_sorted_reference(
            k in 1usize..=MAX_MEDIAN_WINDOW,
            raw in proptest::collection::vec((0u8..8, 0.0f64..100.0), 0..160),
        ) {
            // Tags 0-3 draw small integers (so windows repeat values), 4
            // draws a negative zero, the rest keep the random float.
            let trace: Vec<f64> = raw
                .iter()
                .map(|&(tag, v)| match tag {
                    0..=3 => f64::from(tag),
                    4 => -0.0,
                    _ => v,
                })
                .collect();
            let mut f = WindowedMedian::new(k);
            proptest::prop_assert_eq!(f.predict(), None);
            for (i, &v) in trace.iter().enumerate() {
                f.observe(v);
                let window = &trace[(i + 1).saturating_sub(k)..=i];
                let want = sorted_median(window).map(f64::to_bits);
                proptest::prop_assert_eq!(f.predict().map(f64::to_bits), want, "k={} i={}", k, i);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn windowed_median_rejects_windows_beyond_the_stack_array() {
        WindowedMedian::new(MAX_MEDIAN_WINDOW + 1);
    }

    #[test]
    fn ewma_moves_toward_new_level() {
        let mut f = Ewma::new(0.5);
        feed(&mut f, &[0.0, 4.0]);
        assert_eq!(f.predict(), Some(2.0));
        feed(&mut f, &[4.0]);
        assert_eq!(f.predict(), Some(3.0));
        assert_eq!(f.name(), "ewma0.50");
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn ewma_rejects_zero_gain() {
        Ewma::new(0.0);
    }
}
