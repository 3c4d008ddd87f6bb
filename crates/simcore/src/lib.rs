//! # simcore — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the contention-model reproduction: an integer-time
//! event engine plus the two resource types the paper's platforms are built
//! from — a time-shared CPU (ideal processor sharing or quantum round-robin)
//! and a serialized FIFO link — together with statistics and tracing.
//!
//! Nothing in this crate knows about Suns, CM2s, or Paragons; see the
//! `hetplat` crate for the platform models and `contention-model` for the
//! paper's analytical formulas.
//!
//! ## Example
//!
//! ```
//! use simcore::prelude::*;
//!
//! // Two equal CPU-bound jobs on a processor-sharing CPU finish together
//! // at twice their dedicated time — the paper's p+1 slowdown with p = 1.
//! let mut cpu = PsCpu::new();
//! cpu.arrive(SimTime::ZERO, JobId(0), SimDuration::from_secs(3));
//! cpu.arrive(SimTime::ZERO, JobId(1), SimDuration::from_secs(3));
//! let (t, gen) = cpu.next_event().unwrap();
//! assert_eq!(t.as_secs_f64(), 6.0);
//! assert_eq!(cpu.on_event(t, gen).len(), 2);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod cpu;
pub mod engine;
pub mod fifo;
pub mod ids;
pub mod num;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::cpu::{Cpu, Gen, PsCpu, RrCpu};
    pub use crate::engine::{Engine, Model};
    pub use crate::fifo::FifoServer;
    pub use crate::ids::{IdGen, JobId, ProcId, XferId};
    pub use crate::queue::EventQueue;
    pub use crate::rng::{derive_rng, jitter_factor, root_rng, SimRng};
    pub use crate::stats::{ape, kendall_tau, mape, max_ape, Accum, LinearFit};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{Span, Tracer};
}

pub use prelude::*;
