//! # calibration — the system test suite
//!
//! The paper splits the model's parameters into *system-dependent* values
//! "determined statically by a system test suite" and
//! *application-dependent* values supplied by the user. This crate is that
//! test suite, run against the simulated platforms of `hetplat`:
//!
//! * [`cm2`] — the two Sun/CM2 transfer benchmarks recovering `α` and the
//!   two `β`s;
//! * [`paragon`] — the ping-pong sweep, per-piece linear regression, and
//!   exhaustive threshold search for the piecewise dedicated model;
//! * [`delays`] — contended runs producing `delay_compⁱ`, `delay_commⁱ`,
//!   and `delay_commⁱʲ`.
//!
//! [`calibrate_paragon`] bundles everything a
//! [`ParagonPredictor`](contention_model::predict::ParagonPredictor) needs.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod cm2;
pub mod delays;
pub mod paragon;

use contention_model::predict::ParagonPredictor;
use hetplat::config::PlatformConfig;

pub use cm2::{calibrate_cm2, Cm2CalibrationSpec};
pub use delays::DelaySpec;
use delays::{measure_comm_delays, measure_comp_delays};
pub use paragon::{calibrate_paragon_comm, fit_piecewise, measure_pingpong, PingPongSpec};

/// Runs the full Sun/Paragon calibration suite and assembles a predictor.
pub fn calibrate_paragon(
    cfg: PlatformConfig,
    pingpong: &PingPongSpec,
    delays: &DelaySpec,
    seed: u64,
) -> ParagonPredictor {
    let (comm_to, comm_from) = calibrate_paragon_comm(cfg, pingpong, seed);
    ParagonPredictor {
        comm_to,
        comm_from,
        comm_delays: measure_comm_delays(cfg, delays, seed),
        comp_delays: measure_comp_delays(cfg, delays, seed),
    }
}
