//! Shared experiment configuration and cached calibration artifacts.
//!
//! Calibration (especially the delay tables) runs many simulations; the
//! artifacts are pure functions of the platform configuration and seed,
//! so they are computed once per process and shared.

use calibration::{DelaySpec, PingPongSpec};
use contention_model::predict::{Cm2Predictor, ParagonPredictor};
use hetplat::config::PlatformConfig;
use std::sync::OnceLock;

/// Root seed for all experiments (scenario seeds derive from it).
pub(crate) const SEED: u64 = 19_960_806; // the conference date

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sweeps for unit/integration tests.
    Quick,
    /// Paper-sized sweeps for the `run_experiments` binary and benches.
    Full,
}

impl Scale {
    /// Picks `q` under `Quick` and `f` under `Full`.
    pub fn pick<T>(self, q: T, f: T) -> T {
        match self {
            Scale::Quick => q,
            Scale::Full => f,
        }
    }
}

/// The platform every experiment runs on. The front-end uses processor
/// sharing: the long-run behaviour of a priority-decay timesharing
/// scheduler, under which CPU-bound competitors take `1/(p+1)` each and a
/// waking I/O process is dispatched promptly — the behaviour the paper
/// measured on SunOS. The quantum round-robin scheduler remains available
/// as an ablation (`bench/scheduler_ablation`). "Actual" runs also carry
/// a daemon-noise process (see `scenarios`), so measurements deviate from
/// the model the way production systems do.
pub(crate) fn platform_config() -> PlatformConfig {
    PlatformConfig {
        frontend: hetplat::config::FrontendParams::processor_sharing(),
        ..Default::default()
    }
}

/// The 2-HOPS variant.
pub(crate) fn platform_config_two_hops() -> PlatformConfig {
    let mut c = platform_config();
    c.paragon.path = hetplat::config::CommPath::TwoHops;
    c
}

/// Calibration sizes per scale.
pub(crate) fn pingpong_spec(scale: Scale) -> PingPongSpec {
    match scale {
        Scale::Quick => {
            PingPongSpec { sizes: vec![1, 64, 256, 512, 768, 1024, 1536, 2048, 4096], burst: 100 }
        }
        Scale::Full => PingPongSpec::default(),
    }
}

/// Delay-measurement sizes per scale.
pub(crate) fn delay_spec(scale: Scale) -> DelaySpec {
    match scale {
        Scale::Quick => DelaySpec {
            p_max: 3,
            probe_burst: 100,
            probe_sizes: vec![64, 256, 1024],
            comp_probe: simcore::time::SimDuration::from_secs(3),
            buckets: vec![1, 500, 1000],
            warmup: simcore::time::SimDuration::from_secs(1),
        },
        Scale::Full => DelaySpec::default(),
    }
}

/// The calibrated Sun/CM2 predictor (cached per scale).
pub fn cm2_predictor(scale: Scale) -> &'static Cm2Predictor {
    static QUICK: OnceLock<Cm2Predictor> = OnceLock::new();
    static FULL: OnceLock<Cm2Predictor> = OnceLock::new();
    let cell = match scale {
        Scale::Quick => &QUICK,
        Scale::Full => &FULL,
    };
    cell.get_or_init(|| {
        let spec = match scale {
            Scale::Quick => calibration::Cm2CalibrationSpec {
                bandwidth_elements: 200_000,
                startup_count: 10_000,
            },
            Scale::Full => calibration::Cm2CalibrationSpec::default(),
        };
        calibration::calibrate_cm2(platform_config(), spec, SEED)
    })
}

/// The calibrated Sun/Paragon predictor (cached per scale). This is the
/// expensive one — it runs the full ping-pong sweep and delay tables.
pub fn paragon_predictor(scale: Scale) -> &'static ParagonPredictor {
    static QUICK: OnceLock<ParagonPredictor> = OnceLock::new();
    static FULL: OnceLock<ParagonPredictor> = OnceLock::new();
    let cell = match scale {
        Scale::Quick => &QUICK,
        Scale::Full => &FULL,
    };
    cell.get_or_init(|| {
        calibration::calibrate_paragon(
            platform_config(),
            &pingpong_spec(scale),
            &delay_spec(scale),
            SEED,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn cm2_predictor_cached_and_sane() {
        let a = cm2_predictor(Scale::Quick);
        let b = cm2_predictor(Scale::Quick);
        assert!(std::ptr::eq(a, b));
        assert!(a.comm_to.beta.words_per_sec() > 0.0);
        assert!(a.comm_from.beta.words_per_sec() > 0.0);
    }
}
