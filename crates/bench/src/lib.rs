//! Shared fixtures for the Criterion benches.
//!
//! Each table/figure of the paper has a bench exercising the code that
//! regenerates it: the *model-side* evaluation (the math a scheduler runs
//! at run time) lives in `benches/model_eval.rs`, the simulator scenarios
//! behind the "actual" curves in `benches/simulator.rs`, the `pcompᵢ`
//! complexity claims in `benches/mix_updates.rs`, and the calibration
//! fitting in `benches/calibration_fit.rs`.

#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod loadgen;

use contention_model::comm::{LinearCommModel, PiecewiseCommModel};
use contention_model::delay::{CommDelayTable, CompDelayTable};
use contention_model::predict::{Cm2Predictor, ParagonPredictor};
use contention_model::units::{secs, BytesPerSec};

fn linear(alpha: f64, beta_words_per_sec: f64) -> LinearCommModel {
    LinearCommModel::new(secs(alpha), BytesPerSec::from_words_per_sec(beta_words_per_sec))
}

/// A representative calibrated Sun/CM2 predictor (values from a real
/// calibration run; fixed here so benches need no simulation at startup).
pub fn cm2_predictor() -> Cm2Predictor {
    Cm2Predictor { comm_to: linear(660e-6, 497_000.0), comm_from: linear(660e-6, 249_000.0) }
}

/// A representative calibrated Sun/Paragon predictor.
pub fn paragon_predictor() -> ParagonPredictor {
    ParagonPredictor {
        comm_to: PiecewiseCommModel::new(1024, linear(1.6e-3, 79_000.0), linear(5.6e-3, 104_000.0)),
        comm_from: PiecewiseCommModel::new(
            1024,
            linear(1.5e-3, 149_000.0),
            LinearCommModel::from_fit(-4.0e-3, 83_000.0),
        ),
        comm_delays: CommDelayTable::new(
            vec![0.27, 0.61, 1.02, 1.40],
            vec![0.19, 0.49, 0.81, 1.10],
        ),
        comp_delays: CompDelayTable::new(
            vec![1, 500, 1000],
            vec![
                vec![0.22, 0.37, 0.37, 0.37],
                vec![0.66, 1.15, 1.59, 1.90],
                vec![1.68, 3.59, 5.52, 7.00],
            ],
        ),
    }
}

/// Criterion configuration shared by all benches: short warm-up and
/// measurement windows so the full suite (`cargo bench`) finishes in
/// minutes, not hours.
pub fn quick_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_sane() {
        let c = cm2_predictor();
        assert!(c.comm_to.beta.words_per_sec() > c.comm_from.beta.words_per_sec());
        let p = paragon_predictor();
        assert_eq!(p.comm_to.threshold, 1024);
        assert_eq!(p.comp_delays.buckets, vec![1, 500, 1000]);
    }
}
