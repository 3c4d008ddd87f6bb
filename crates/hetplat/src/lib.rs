//! # hetplat — simulated coupled heterogeneous platforms
//!
//! Discrete-event models of the paper's two platforms:
//!
//! * **Sun/CM2**: a time-shared front-end driving a SIMD back-end through a
//!   dedicated channel, with an exclusive sequencer and front-end-CPU-driven
//!   element-wise transfers;
//! * **Sun/Paragon**: the same front-end joined to a space-shared MPP by a
//!   shared Ethernet (directly per node, 1-HOP, or via a service-node NX
//!   bridge, 2-HOPS).
//!
//! These stand in for the 1996 hardware the paper measured; the analytical
//! contention model (`contention-model` crate) is calibrated against and
//! validated on these simulations exactly as the paper calibrated against
//! and validated on the real machines.
//!
//! Applications are phase machines (see [`phase`]); workload and benchmark
//! apps live in the `hetload` crate.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod config;
pub mod phase;
pub mod platform;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::config::{
        Cm2Params, CommPath, FrontendParams, ParagonParams, PlatformConfig, SchedulerKind,
    };
    pub use crate::phase::{
        AppProcess, Cm2Instr, Cm2Program, Direction, Phase, PhaseKind, PhaseRecord, ScriptedApp,
    };
    pub use crate::platform::{Ev, Platform, PlatformModel};
}

pub use prelude::*;
