//! # hetsched — contention-aware task allocation
//!
//! The consumer of the contention model: rank candidate allocations of a
//! coarse-grained task chain onto a heterogeneous platform using
//! slowdown-adjusted cost predictions, as motivated by the paper's
//! introductory example (Tables 1–4, reproduced in [`example`]).
//!
//! * [`task`] — workflows, per-machine dedicated costs, environments;
//! * [`eval`] — schedule evaluation, exhaustive search, ranking of the
//!   best `limit` schedules, and an exact `O(k·m²)` chain dynamic
//!   program (the paper's "straightforward" generalization to more than
//!   two machines);
//! * [`adapt`] — building environments from contention-model outputs;
//! * [`forecast`] — building environments from *forecasted* contention
//!   ([`SlowdownProfile`]s produced by the loadcast/predictd pipeline);
//! * [`example`] — the paper's worked example with its exact numbers;
//! * [`dag`] — DAG workflows with HEFT-style list scheduling (beyond the
//!   paper's chains);
//! * [`migrate`] — stay-vs-migrate decisions when the mix changes mid-run
//!   (the paper's §4 future work).

//!
//! modelcheck: float-env
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod adapt;
pub mod dag;
pub mod eval;
pub mod example;
pub mod forecast;
pub mod migrate;
pub mod task;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::adapt::paragon_environment;
    pub use crate::dag::{Dag, DagTask};
    pub use crate::eval::{
        best_chain_dp, best_exhaustive, best_exhaustive_oracle, best_exhaustive_with, evaluate,
        rank_all, rank_all_oracle, rank_top, Schedule, SearchScratch,
    };
    pub use crate::forecast::{environment_from_profile, rank_all_forecast};
    pub use crate::migrate::{decide as decide_migration, InFlightTask, MigrationDecision};
    pub use crate::task::{Environment, Matrix, Task, Workflow};
}

pub use prelude::*;
