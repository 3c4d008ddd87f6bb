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

use crate::forecast::{default_family, Forecaster};
use contention_model::units::f64_from_u64;

struct Entry {
    forecaster: Box<dyn Forecaster + Send + Sync>,
    abs_err_sum: f64,
    scored: u64,
}

impl Entry {
    fn mae(&self) -> Option<f64> {
        if self.scored == 0 {
            None
        } else {
            Some(self.abs_err_sum / f64_from_u64(self.scored))
        }
    }
}

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

/// Runs a bank of forecasters side by side, scores each against every
/// incoming sample, and forwards the current lowest-MAE winner.
pub struct SelectivePredictor {
    entries: Vec<Entry>,
    /// The winner's prediction and its index in `entries`, chosen after
    /// the last observed sample; `None` before the first.
    winner: Option<(f64, usize)>,
}

impl SelectivePredictor {
    /// A selector over an explicit bank (`forecasters` non-empty).
    pub fn new(forecasters: Vec<Box<dyn Forecaster + Send + Sync>>) -> Self {
        assert!(!forecasters.is_empty(), "selector needs at least one forecaster");
        SelectivePredictor {
            entries: forecasters
                .into_iter()
                .map(|forecaster| Entry { forecaster, abs_err_sum: 0.0, scored: 0 })
                .collect(),
            winner: None,
        }
    }

    /// A selector over the default NWS-style bank
    /// ([`default_family`]).
    pub fn nws_default() -> Self {
        SelectivePredictor::new(default_family())
    }

    /// Scores every forecaster's outstanding prediction against `load`,
    /// feeds `load` to the whole bank, and chooses the new winner: lowest
    /// running MAE, earliest entry on ties. Before any forecaster has
    /// been scored (fewer than two samples) the first entry wins.
    pub fn observe(&mut self, load: f64) {
        // Index and MAE of the best scored forecaster so far.
        let mut best: Option<(usize, f64)> = None;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if let Some(p) = e.forecaster.predict() {
                e.abs_err_sum += (p - load).abs();
                e.scored += 1;
            }
            e.forecaster.observe(load);
            if let Some(mae) = e.mae() {
                if best.is_none_or(|(_, best_mae)| mae < best_mae) {
                    best = Some((i, mae));
                }
            }
        }
        // A forecaster predicts once it has observed a sample (the
        // `Forecaster` contract), so only the winner is asked.
        let i = best.map_or(0, |(i, _)| i);
        self.winner = self.entries.get(i).and_then(|e| e.forecaster.predict()).map(|p| (p, i));
    }

    /// The winner chosen by the last [`observe`](Self::observe): its
    /// prediction and name. `None` until at least one sample has been
    /// observed. Reads the stored choice; evaluates no forecaster.
    pub fn predict(&self) -> Option<(f64, &str)> {
        let (p, i) = self.winner?;
        self.entries.get(i).map(|e| (p, e.forecaster.name()))
    }

    /// Every forecaster's running score, in bank order.
    pub fn scores(&self) -> Vec<ForecasterScore> {
        self.entries
            .iter()
            .map(|e| ForecasterScore {
                name: e.forecaster.name().to_string(),
                mae: e.mae(),
                scored: e.scored,
            })
            .collect()
    }
}

impl Clone for SelectivePredictor {
    fn clone(&self) -> Self {
        SelectivePredictor {
            entries: self
                .entries
                .iter()
                .map(|e| Entry {
                    forecaster: e.forecaster.clone_box(),
                    abs_err_sum: e.abs_err_sum,
                    scored: e.scored,
                })
                .collect(),
            winner: self.winner,
        }
    }
}

impl std::fmt::Debug for SelectivePredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectivePredictor").field("scores", &self.scores()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::{Ewma, LastValue, WindowedMean};

    #[test]
    fn empty_selector_predicts_nothing() {
        let s = SelectivePredictor::nws_default();
        assert_eq!(s.predict(), None);
    }

    #[test]
    fn constant_trace_predicts_constant_exactly() {
        let mut s = SelectivePredictor::nws_default();
        for _ in 0..10 {
            s.observe(3.0);
        }
        let (p, _) = s.predict().expect("has prediction");
        assert_eq!(p, 3.0);
    }

    #[test]
    fn selector_tracks_the_better_forecaster() {
        // Alternating 0/4 load: last-value is always wrong by 4, the
        // long mean hovers near 2 (error ~2) — the mean must win.
        let mut s = SelectivePredictor::new(vec![
            Box::new(LastValue::new()),
            Box::new(WindowedMean::new(16)),
        ]);
        for i in 0..32 {
            s.observe(if i % 2 == 0 { 0.0 } else { 4.0 });
        }
        let (_, name) = s.predict().expect("has prediction");
        assert_eq!(name, "mean16");
        let scores = s.scores();
        assert!(scores[1].mae < scores[0].mae, "{scores:?}");
        assert_eq!(scores[0].scored, 31, "first sample scores nobody");
    }

    #[test]
    fn scoring_happens_before_the_bank_updates() {
        // One sample in: nothing scored yet; second sample scores the
        // prediction made from the first.
        let mut s = SelectivePredictor::new(vec![Box::new(Ewma::new(0.5))]);
        s.observe(2.0);
        assert_eq!(s.scores()[0].scored, 0);
        s.observe(6.0);
        let sc = &s.scores()[0];
        assert_eq!(sc.scored, 1);
        assert_eq!(sc.mae, Some(4.0), "|2 - 6|");
    }
}
