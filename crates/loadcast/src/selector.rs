//! NWS-style dynamic predictor selection.
//!
//! The Network Weather Service's insight: no single forecaster wins on
//! all load traces, but tracking every forecaster's running error *on
//! the trace being forecast* and forwarding the current winner performs
//! close to the best of the bank in hindsight. [`SelectivePredictor`]
//! implements exactly that: before each new sample updates the bank,
//! every forecaster's outstanding prediction is scored against it
//! (mean absolute error), and the forecaster with the lowest MAE so far
//! becomes the winner. The winner is chosen once per sample, in
//! `observe`; `predict` only reads it back.
//!
//! The bank is [`default_family`](crate::forecast::default_family)'s
//! seven forecasters, held inline in plain fields: one ring of the
//! newest 16 samples that `last`, `mean4`, `mean16` and `median5` read
//! as suffixes, three EWMA states, and one error sum per forecaster. A
//! selector therefore allocates nothing, and a machine's whole bank is
//! a few hundred bytes. The boxed forecasters in [`crate::forecast`]
//! stay as the reference it is tested against, to the bit
//! (`tests/forecast_properties.rs`).

use contention_model::units::{f64_from_u64, f64_from_usize};

/// Samples the ring keeps: the longest window in the bank (`mean16`).
const RING: usize = 16;

/// The bank's forecasters in bank order, named as
/// [`default_family`](crate::forecast::default_family) names them.
const NAMES: [&str; 7] = ["last", "mean4", "mean16", "median5", "ewma0.10", "ewma0.30", "ewma0.90"];

/// The gains of the bank's three EWMAs, in bank order.
const GAINS: [f64; 3] = [0.1, 0.3, 0.9];

/// A forecaster's running score, for diagnostics and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecasterScore {
    /// The forecaster's display name.
    pub name: String,
    /// Mean absolute one-step-ahead error; `None` until it has been
    /// scored against at least one sample.
    pub mae: Option<f64>,
    /// How many samples it has been scored against.
    pub scored: u64,
}

/// Runs the default NWS-style bank side by side, scores each forecaster
/// against every incoming sample, and forwards the current lowest-MAE
/// winner.
#[derive(Debug, Clone)]
pub struct SelectivePredictor {
    /// The newest `len` samples; the oldest sits at `head` once full.
    ring: [f64; RING],
    /// Slot the next sample is written to.
    head: usize,
    /// Samples held in `ring` (at most [`RING`]).
    len: usize,
    /// The EWMA states, in [`GAINS`] order; set by the first sample.
    ewma: [f64; 3],
    /// Each forecaster's summed absolute one-step error, in bank order.
    abs_err: [f64; 7],
    /// Samples every forecaster has been scored against: every sample
    /// but the first, since all of them predict from the first on.
    scored: u64,
    /// The winner's prediction and name, chosen after the last observed
    /// sample; `None` before the first.
    winner: Option<(f64, &'static str)>,
}

impl SelectivePredictor {
    /// A selector over the default NWS-style bank, with nothing
    /// observed yet.
    pub fn nws_default() -> Self {
        SelectivePredictor {
            ring: [0.0; RING],
            head: 0,
            len: 0,
            ewma: [0.0; 3],
            abs_err: [0.0; 7],
            scored: 0,
            winner: None,
        }
    }

    /// Scores every forecaster's outstanding prediction against `load`,
    /// feeds `load` to the whole bank, and chooses the new winner: lowest
    /// running MAE, earliest in bank order on ties. Before any forecaster
    /// has been scored (fewer than two samples) `last` wins.
    pub fn observe(&mut self, load: f64) {
        let first = self.len == 0;
        if !first {
            let predictions: [f64; 7] = std::array::from_fn(|i| self.prediction(i));
            for (err, p) in self.abs_err.iter_mut().zip(predictions) {
                *err += (p - load).abs();
            }
            self.scored += 1;
        }
        self.ring[self.head] = load;
        self.head = (self.head + 1) % RING;
        self.len = (self.len + 1).min(RING);
        for (s, g) in self.ewma.iter_mut().zip(GAINS) {
            *s = if first { load } else { *s + g * (load - *s) };
        }
        // Index and MAE of the best forecaster so far.
        let mut best: Option<(usize, f64)> = None;
        for (i, &err) in self.abs_err.iter().enumerate() {
            if let Some(mae) = self.mae(err) {
                if best.is_none_or(|(_, best_mae)| mae < best_mae) {
                    best = Some((i, mae));
                }
            }
        }
        let i = best.map_or(0, |(i, _)| i);
        self.winner = Some((self.prediction(i), NAMES[i]));
    }

    /// The winner chosen by the last [`observe`](Self::observe): its
    /// prediction and name. `None` until at least one sample has been
    /// observed. Reads the stored choice; evaluates no forecaster.
    pub fn predict(&self) -> Option<(f64, &'static str)> {
        self.winner
    }

    /// Every forecaster's running score, in bank order.
    pub fn scores(&self) -> Vec<ForecasterScore> {
        NAMES
            .iter()
            .zip(self.abs_err)
            .map(|(name, err)| ForecasterScore {
                name: (*name).to_string(),
                mae: self.mae(err),
                scored: self.scored,
            })
            .collect()
    }

    /// The mean of an error sum over the samples scored so far.
    fn mae(&self, abs_err: f64) -> Option<f64> {
        (self.scored > 0).then(|| abs_err / f64_from_u64(self.scored))
    }

    /// Forecaster `i`'s prediction of the next sample, computed as its
    /// boxed counterpart in [`crate::forecast`] computes it. Meaningful
    /// once a sample has been observed.
    fn prediction(&self, i: usize) -> f64 {
        match i {
            0 => self.ring[(self.head + RING - 1) % RING],
            1 => self.mean(4),
            2 => self.mean(16),
            3 => self.median5(),
            _ => self.ewma[i - 4],
        }
    }

    /// The newest `k` samples (fewer while the ring fills), oldest
    /// first.
    fn tail(&self, k: usize) -> impl Iterator<Item = f64> + '_ {
        let n = k.min(self.len);
        (RING - n..RING).map(move |i| self.ring[(self.head + i) % RING])
    }

    /// The mean of the newest `k` samples, summed oldest to newest. A
    /// window of one repeated value returns it unsummed: summing n
    /// copies of v and dividing by n rounds for non-dyadic v (sixteen
    /// 0.1s ≠ 1.6 exactly), and constant input must be a fixed point to
    /// the bit.
    fn mean(&self, k: usize) -> f64 {
        let Some(first) = self.tail(k).next() else { return 0.0 };
        // `total_cmp` equality is bit equality: the guarantee is about
        // representations, so 0.0 and -0.0 do not count as repeats.
        if self.tail(k).all(|x| x.total_cmp(&first).is_eq()) {
            return first;
        }
        self.tail(k).sum::<f64>() / f64_from_usize(k.min(self.len))
    }

    /// The median of the newest five samples; an even count takes the
    /// mean of the two middles (`(a + a) / 2 == a`, so constancy holds).
    fn median5(&self) -> f64 {
        let mut window = [0.0f64; 5];
        let n = 5.min(self.len);
        for (slot, v) in window.iter_mut().zip(self.tail(5)) {
            *slot = v;
        }
        let sorted = &mut window[..n];
        // Values equal under `total_cmp` are bit-identical, so an
        // unstable sort orders them exactly as a stable one would.
        sorted.sort_unstable_by(f64::total_cmp);
        let Some(&mid) = sorted.get(n / 2) else { return 0.0 };
        if n % 2 == 1 {
            mid
        } else {
            (sorted[n / 2 - 1] + mid) / 2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_selector_predicts_nothing() {
        let s = SelectivePredictor::nws_default();
        assert_eq!(s.predict(), None);
        assert!(s.scores().iter().all(|sc| sc.mae.is_none() && sc.scored == 0));
    }

    #[test]
    fn constant_trace_predicts_constant_exactly() {
        let mut s = SelectivePredictor::nws_default();
        for _ in 0..40 {
            s.observe(0.1);
        }
        assert_eq!(s.predict(), Some((0.1, "last")), "every forecaster ties at MAE 0");
    }

    #[test]
    fn selector_tracks_the_better_forecaster() {
        // Alternating 0/4 load: last-value is always wrong by 4, the
        // means hover near 2 (error ~2) — last-value must lose, and the
        // winner is the lowest MAE of the bank.
        let mut s = SelectivePredictor::nws_default();
        for i in 0..32 {
            s.observe(if i % 2 == 0 { 0.0 } else { 4.0 });
        }
        let (_, name) = s.predict().expect("has prediction");
        let scores = s.scores();
        let best = scores
            .iter()
            .min_by(|a, b| a.mae.partial_cmp(&b.mae).expect("finite"))
            .expect("seven scores");
        assert_eq!(name, best.name, "{scores:?}");
        assert_ne!(name, "last");
        assert!(scores.iter().all(|sc| sc.scored == 31), "first sample scores nobody");
    }

    #[test]
    fn scoring_happens_before_the_bank_updates() {
        // One sample in: nothing scored yet; second sample scores the
        // predictions made from the first, which all equal it.
        let mut s = SelectivePredictor::nws_default();
        s.observe(2.0);
        assert!(s.scores().iter().all(|sc| sc.scored == 0));
        s.observe(6.0);
        for sc in s.scores() {
            assert_eq!((sc.scored, sc.mae), (1, Some(4.0)), "{}: |2 - 6|", sc.name);
        }
        assert_eq!(s.predict().map(|(_, n)| n), Some("last"), "a seven-way tie goes to the first");
    }
}
