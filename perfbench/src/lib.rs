//! # perfbench — the repository benchmark
//!
//! Measures the contention-prediction service the way a scheduler uses it:
//! real `predictd` and `predictgw` processes, started through their
//! command lines, driven over loopback by a single busy-polling generator
//! thread, with every reply checked. One command runs one workload:
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run prints the end-to-end metrics ([`run::END_TO_END`]); a
//! traced run prints the per-layer metrics ([`run::PER_LAYER`]) and a
//! ledger that sets each daemon's CPU per request beside the sum of its
//! layers. The workloads are in [`workload::WORKLOADS`]; the README next to
//! this crate explains them, the metrics and their bounds.
//!
//! * [`gen`] — the open/closed-loop generator;
//! * [`workload`] — the seeded request streams;
//! * [`topology`] — starting, probing and stopping the daemons;
//! * [`host`] — the host speed probe that scales every window;
//! * [`verify`] — replies checked against an in-process oracle;
//! * [`trace`] — in-process replay through the layers, spans;
//! * [`run`] — the phases of one run and the metrics they yield;
//! * [`stats`] — exact quantiles and the seeded PRNG.

pub mod gen;
pub mod host;
pub mod run;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod verify;
pub mod workload;
