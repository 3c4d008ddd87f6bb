//! # contention-model
//!
//! The analytical contention model of *"Modeling the Effects of Contention
//! on the Performance of Heterogeneous Applications"* (Figueira & Berman,
//! HPDC 1996): slowdown factors that rescale dedicated computation and
//! communication costs into realistic predictions for **non-dedicated
//! two-machine heterogeneous platforms**, so that a scheduler can rank
//! task-to-machine allocations under load.
//!
//! The crate is pure math — no simulator, no clocks. System-dependent
//! parameters (startup times `α`, effective bandwidths `β`, the piecewise
//! threshold, and the delay tables) are produced once per platform by the
//! companion `calibration` crate; application-dependent parameters (data
//! sets, compute/communicate fractions) are supplied by the user.
//!
//! ## Map of the model
//!
//! | Paper section | Module |
//! |---|---|
//! | Data sets `Nᵢ × sizeᵢ` | [`dataset`] |
//! | `dcomm` (single-piece and piecewise) | [`comm`] |
//! | Sun/CM2 `slowdown = p+1`, `T_cm2 = max(…)` | [`cm2`] |
//! | `pcompᵢ` / `pcommᵢ` dynamic program | [`mix`] |
//! | `delay_compⁱ`, `delay_commⁱ`, `delay_commⁱʲ` | [`delay`] |
//! | Sun/Paragon slowdown formulas | [`paragon`] |
//! | Cached slowdown factors (batch engine) | [`profile`] |
//! | Inequality (1) and placement | [`predict`] |
//! | §4 future work: time-varying load | [`phased`] |
//! | §4 future work: memory constraints | [`memory`] |
//!
//! ## Example
//!
//! ```
//! use contention_model::prelude::*;
//!
//! // Sun/CM2: a 12s front-end task vs 3s on the CM2 + transfers.
//! let predictor = Cm2Predictor {
//!     comm_to: LinearCommModel::new(secs(1e-3), BytesPerSec::from_words_per_sec(1_000_000.0)),
//!     comm_from: LinearCommModel::new(secs(1e-3), BytesPerSec::from_words_per_sec(500_000.0)),
//! };
//! let task = Cm2Task {
//!     costs: Cm2TaskCosts::new(secs(12.0), secs(2.5), secs(0.2), secs(0.4)),
//!     to_backend: vec![DataSet::matrix_rows(512, 512)],
//!     from_backend: vec![DataSet::matrix_rows(512, 512)],
//! };
//! // Dedicated: off-load wins.
//! assert_eq!(predictor.decide(&task, 0).placement, Placement::BackEnd);
//! // Under heavy front-end contention the serial feed of the CM2 slows
//! // too, but the front-end execution slows more; the model quantifies it.
//! let d = predictor.decide(&task, 3);
//! assert!(d.t_front == secs(48.0));
//! ```

//!
//! modelcheck: naked-f64, float-env
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod cm2;
pub mod comm;
pub mod dataset;
pub mod delay;
pub mod memory;
pub mod mix;
pub mod paragon;
pub mod phased;
pub mod predict;
pub mod profile;
pub mod units;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::cm2::{comm_cost as cm2_comm_cost, slowdown as cm2_slowdown, Cm2TaskCosts};
    pub use crate::comm::{LinearCommModel, PiecewiseCommModel};
    pub use crate::dataset::DataSet;
    pub use crate::delay::{CommDelayTable, CompDelayTable, SMALL_MESSAGE_CUTOFF_WORDS};
    pub use crate::memory::MemoryModel;
    pub use crate::mix::WorkloadMix;
    pub use crate::paragon::{
        comm_cost as paragon_comm_cost, comm_slowdown as paragon_comm_slowdown,
        comp_slowdown as paragon_comp_slowdown,
    };
    pub use crate::phased::{cm2_timeline, LoadPhase, LoadTimeline};
    pub use crate::predict::{
        Cm2Predictor, Cm2Task, ParagonPredictor, ParagonTask, Placement, PlacementDecision,
    };
    pub use crate::profile::{ProfileCache, SlowdownProfile};
    pub use crate::units::{prob, secs, words, BytesPerSec, Prob, Seconds, Slowdown, Words};
}

pub use prelude::*;
