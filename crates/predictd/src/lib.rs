//! # predictd — the contention-prediction service daemon
//!
//! An NWS-inspired companion to the contention model: machines (or the
//! simulator standing in for them) stream load reports in, schedulers
//! ask placement questions out, and the daemon keeps the forecasting
//! state, one shape-keyed profile slot per machine, and request
//! metrics in between.
//! The paper's model makes run-time placement decisions cheap; this
//! daemon is the run-time: a long-lived process that turns a feed of
//! load observations into `decide()`-grade answers over a wire.
//!
//! Deliberately std-only: newline-delimited JSON (via the vendored
//! serde) or binary frames over TCP, JSON over stdio, no async runtime.
//! Connections are served by one nonblocking epoll event loop per
//! worker over a sharded service — each machine's state lives once, in
//! one of the [`std::sync::RwLock`]-guarded shards, and metrics are
//! lock-free atomics, so warm predictions run under a shared read lock
//! and `stats` never blocks the request path. The wire surface
//! (request/response types, JSON fast path, binary codec) lives in the
//! shared [`proto`] crate and is re-exported here under its historical
//! paths; see [`service`] for the request handler and sharding,
//! [`edge`]/[`server`]/[`client`] for transport, and [`metrics`] for the
//! per-request bookkeeping behind `stats`.
//!
//! Two binaries ship with the crate: `predictd` (the daemon) and
//! `predictctl` (a thin command-line client used by tests and CI).
//!
//! modelcheck: atomics, float-env, wire-taint, event-loop, lock-order

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod client;
pub mod edge;
pub mod metrics;
pub mod poll;
pub mod server;
pub mod service;

pub use ::proto::{binproto, codec, proto};

pub use client::{Client, ClientError};
pub use edge::ServerConfig;
pub use metrics::{LatencyHistogram, Metrics, ReqKind};
pub use proto::{Request, Response};
pub use server::{serve_stdio, EventedServer};
pub use service::{Affinity, Service, ServiceConfig, Slots};

use contention_model::comm::{LinearCommModel, PiecewiseCommModel};
use contention_model::delay::{CommDelayTable, CompDelayTable};
use contention_model::predict::ParagonPredictor;
use contention_model::units::{secs, BytesPerSec};

/// A representative calibrated Sun/Paragon predictor (values from a
/// real calibration run), so the daemon serves sane answers out of the
/// box without running a calibration at startup.
pub fn default_predictor() -> ParagonPredictor {
    let linear = |alpha: f64, beta_words_per_sec: f64| {
        LinearCommModel::new(secs(alpha), BytesPerSec::from_words_per_sec(beta_words_per_sec))
    };
    ParagonPredictor {
        comm_to: PiecewiseCommModel::new(1024, linear(1.6e-3, 79_000.0), linear(5.6e-3, 104_000.0)),
        comm_from: PiecewiseCommModel::new(
            1024,
            linear(1.5e-3, 149_000.0),
            LinearCommModel::from_fit(-4.0e-3, 83_000.0),
        ),
        comm_delays: CommDelayTable::new(
            vec![0.27, 0.61, 1.02, 1.40],
            vec![0.19, 0.49, 0.81, 1.10],
        ),
        comp_delays: CompDelayTable::new(
            vec![1, 500, 1000],
            vec![
                vec![0.22, 0.37, 0.37, 0.37],
                vec![0.66, 1.15, 1.59, 1.90],
                vec![1.68, 3.59, 5.52, 7.00],
            ],
        ),
    }
}
