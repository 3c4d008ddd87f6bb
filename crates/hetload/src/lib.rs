//! # hetload — workloads for the coupled-platform simulations
//!
//! The applications the paper's experiments run: real SOR and Gaussian-
//! elimination kernels (with the operation counts that size their
//! simulated counterparts), CM2 instruction-stream builders, transfer and
//! ping-pong probes, contention generators, and synthetic benchmark
//! generation.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod apps;
pub mod costs;
pub mod generators;
pub mod kernels;
pub mod programs;
pub mod synthetic;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::apps::{
        burst_app, cm2_bandwidth_probe, cm2_matrix_transfer_app, cm2_offloaded_task,
        cm2_program_app, cm2_startup_probe, pingpong_app, sun_task_app,
    };
    pub use crate::costs::{Cm2ProgramParams, MachineRates};
    pub use crate::generators::{
        CommGenerator, CpuHog, DaemonNoise, GenDirection, IoHog, TimedCpuHog,
    };
    pub use crate::kernels::gauss::{self, Augmented};
    pub use crate::kernels::sor::{self, SorGrid};
    pub use crate::programs::gauss_program;
    pub use crate::synthetic::{
        build_generators, random_cm2_program, random_generator_specs, GeneratorSpec,
    };
}

pub use prelude::*;
