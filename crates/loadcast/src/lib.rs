//! # loadcast — online load monitoring and forecasting
//!
//! The paper's premise is that a scheduler consults the contention model
//! *at allocation time* using the machines' **current** load. This crate
//! supplies the missing "current": timestamped load samples ingested into
//! bounded [`window`]s, a family of one-step-ahead [`forecast`]ers
//! (last-value, windowed mean/median, EWMA at several gains) with
//! NWS-style dynamic [`selector`] choice — track every forecaster's
//! running MAE, forward the current winner — and a [`monitor`] that turns
//! the winning forecast into the [`WorkloadMix`] the core model consumes,
//! with an explicit staleness policy: no samples within a configurable
//! horizon degrades the answer to the dedicated-machine prediction and
//! flags it stale.
//!
//! The forecast is chosen at report time: each accepted sample scores
//! the bank and stores the winner's prediction. A query never evaluates
//! a forecaster; it checks the newest sample's age against the horizon
//! and copies the stored winner, so it costs O(1) whatever the bank.
//!
//! The pipeline is deliberately exact where the model is exact: a
//! constant load trace of `p` contenders makes every forecaster predict
//! `p` to the bit (see `tests/forecast_properties.rs`), so forecast-fed
//! predictions are bit-identical to direct `decide()` calls under the
//! true mix.
//!
//! [`WorkloadMix`]: contention_model::mix::WorkloadMix
//!
//! modelcheck: float-env

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod forecast;
pub mod monitor;
pub mod selector;
pub mod window;

pub use forecast::{default_family, Ewma, Forecaster, LastValue, WindowedMean, WindowedMedian};
pub use monitor::{LoadForecast, LoadMonitor, MixForecast, MonitorConfig};
pub use selector::{ForecasterScore, SelectivePredictor};
pub use window::{LoadSample, SlidingWindow};
