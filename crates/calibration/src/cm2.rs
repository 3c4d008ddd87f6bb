//! Sun/CM2 calibration (paper §3.1.1).
//!
//! Two benchmarks recover the dedicated transfer parameters:
//!
//! 1. **Bandwidth**: transfer one large array (paper: 10⁶ elements) one
//!    way and a single word back. The large transfer dominates, so
//!    `β ≈ elements / C`.
//! 2. **Startup**: transfer many one-element arrays each way. With both
//!    `β`s known and assuming `α_sun = α_cm2`,
//!    `α ≈ (C/count − 1/β_sun − 1/β_cm2) / 2`.

use contention_model::comm::LinearCommModel;
use contention_model::predict::Cm2Predictor;
use contention_model::units::{f64_from_u64, secs, BytesPerSec};
use hetload::apps::{cm2_bandwidth_probe, cm2_startup_probe};
use hetplat::config::PlatformConfig;
use hetplat::platform::Platform;

/// Tunable sizes for the CM2 calibration benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct Cm2CalibrationSpec {
    /// Elements in the bandwidth probe's large array (paper: 10⁶).
    pub bandwidth_elements: u64,
    /// One-element arrays per direction in the startup probe
    /// (paper: 10⁶; smaller values trade precision for run time).
    pub startup_count: u64,
}

impl Default for Cm2CalibrationSpec {
    fn default() -> Self {
        Cm2CalibrationSpec { bandwidth_elements: 1_000_000, startup_count: 100_000 }
    }
}

/// Runs both benchmarks on a dedicated platform and returns the fitted
/// transfer models.
pub fn calibrate_cm2(cfg: PlatformConfig, spec: Cm2CalibrationSpec, seed: u64) -> Cm2Predictor {
    // Bandwidth toward the CM2.
    let c_to = run_probe(cfg, seed, cm2_bandwidth_probe("bw-to", spec.bandwidth_elements, true));
    let beta_sun = f64_from_u64(spec.bandwidth_elements) / c_to;

    // Bandwidth back from the CM2.
    let c_from =
        run_probe(cfg, seed, cm2_bandwidth_probe("bw-from", spec.bandwidth_elements, false));
    let beta_cm2 = f64_from_u64(spec.bandwidth_elements) / c_from;

    // Startup both ways.
    let c_start = run_probe(cfg, seed, cm2_startup_probe("start", spec.startup_count));
    let alpha = ((c_start / f64_from_u64(spec.startup_count) - 1.0 / beta_sun - 1.0 / beta_cm2)
        / 2.0)
        .max(0.0);

    Cm2Predictor {
        comm_to: LinearCommModel::new(secs(alpha), BytesPerSec::from_words_per_sec(beta_sun)),
        comm_from: LinearCommModel::new(secs(alpha), BytesPerSec::from_words_per_sec(beta_cm2)),
    }
}

/// Runs one probe on an otherwise-quiet platform (production noise floor
/// only); returns elapsed seconds.
#[expect(
    clippy::expect_used,
    reason = "a stalled probe is a simulator defect, not a model state; elapsed is Some for \
              any id run_until_done returned"
)]
fn run_probe(cfg: PlatformConfig, seed: u64, app: hetplat::phase::ScriptedApp) -> f64 {
    let mut p = Platform::new(cfg, seed);
    p.spawn(Box::new(hetload::generators::DaemonNoise::default_noise()));
    let id = p.spawn(Box::new(app));
    p.run_until_done(id).expect("probe stalled");
    p.elapsed(id).expect("probe finished").as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_model::dataset::DataSet;
    use hetplat::config::FrontendParams;

    fn cfg() -> PlatformConfig {
        PlatformConfig { frontend: FrontendParams::processor_sharing(), ..Default::default() }
    }

    fn small_spec() -> Cm2CalibrationSpec {
        Cm2CalibrationSpec { bandwidth_elements: 200_000, startup_count: 5_000 }
    }

    #[test]
    fn recovers_configured_bandwidths() {
        let cfg = cfg();
        let pred = calibrate_cm2(cfg, small_spec(), 1);
        let true_beta_sun = 1.0 / cfg.cm2.xfer_per_word_to.as_secs_f64();
        let true_beta_cm2 = 1.0 / cfg.cm2.xfer_per_word_from.as_secs_f64();
        let beta_sun = pred.comm_to.beta.words_per_sec();
        let beta_cm2 = pred.comm_from.beta.words_per_sec();
        let err_sun = (beta_sun - true_beta_sun).abs() / true_beta_sun;
        let err_cm2 = (beta_cm2 - true_beta_cm2).abs() / true_beta_cm2;
        // The calibration platform carries the production noise floor
        // (~1.5% CPU), so recovered bandwidths sit slightly below the
        // configured ones.
        assert!(err_sun < 0.05, "beta_sun {beta_sun} vs {true_beta_sun}");
        assert!(err_cm2 < 0.05, "beta_cm2 {beta_cm2} vs {true_beta_cm2}");
    }

    #[test]
    fn recovers_average_startup() {
        let cfg = cfg();
        let pred = calibrate_cm2(cfg, small_spec(), 1);
        let true_avg =
            (cfg.cm2.xfer_alpha_to.as_secs_f64() + cfg.cm2.xfer_alpha_from.as_secs_f64()) / 2.0;
        let err = (pred.comm_to.alpha - true_avg).abs() / true_avg;
        assert!(err < 0.08, "alpha {} vs {}", pred.comm_to.alpha, true_avg);
    }

    #[test]
    fn calibrated_model_predicts_dedicated_transfers() {
        let cfg = cfg();
        let pred = calibrate_cm2(cfg, small_spec(), 1).comm_to;
        // Predict a 500×500 matrix transfer and compare against the
        // configured ground truth.
        let sets = [DataSet::matrix_rows(500, 500)];
        let predicted = pred.dcomm(&sets).get();
        let actual = 500.0
            * (cfg.cm2.xfer_alpha_to.as_secs_f64()
                + 500.0 * cfg.cm2.xfer_per_word_to.as_secs_f64());
        // α is the cross-direction average, so allow a few percent.
        assert!(
            (predicted - actual).abs() / actual < 0.15,
            "predicted {predicted} actual {actual}"
        );
    }
}
