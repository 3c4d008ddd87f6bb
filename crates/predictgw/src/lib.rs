//! # predictgw — the federation gateway tier
//!
//! One predictd process cannot serve a fleet of millions of machines;
//! the gateway tier is how the service scales out. A `predictgw`
//! daemon sits in front of N predictd backends, speaks both wire
//! codecs to its clients and the binary one to its backends, and
//! routes every request by a consistent hash of its machine ID over a
//! configurable ring with virtual nodes ([`ring`]). Load reports are
//! journaled ([`journal`]) and broadcast to every backend, so any
//! backend can answer any placement question bit-identically to a
//! monolithic daemon — which is what makes failover, scatter-gather,
//! and warm restarts sound:
//!
//! * backend health is probed with periodic `stats` requests; a dead
//!   backend's traffic fails over to its ring successors, and
//!   idempotent requests are retried ([`backend`], [`gateway`]);
//! * `decide_batch` fans out across healthy backends in task chunks,
//!   split and merged as frame bytes without decoding, and the merged
//!   decisions are bit-identical to a single node's answer;
//! * a recovered or fresh backend is warm-started by replaying the
//!   append-only load-report journal before it takes traffic again,
//!   so it never answers stale where its peers answer fresh.
//!
//! The daemon reuses the evented `poll.rs` engine pattern from
//! predictd: one nonblocking epoll loop per worker with its own
//! `SO_REUSEPORT` listener ([`server`]), per-connection codec sniff
//! and partial-I/O state machines, and relaxed-atomic gateway metrics
//! ([`metrics`]) behind the `gw_stats` wire kind. The same loop drives
//! the backends: each worker keeps one nonblocking, pipelined
//! connection per backend in its epoll set, so no backend round trip
//! ever blocks a worker. Codecs live at the client edge only: past it,
//! every request and reply crosses the gateway as a binary frame that
//! passed `binproto`'s checks or that the gateway encoded itself — a
//! JSON client's request is encoded once on the way in and its reply
//! decoded once on the way out.
//!
//! modelcheck: atomics, float-env, wire-taint, event-loop, lock-order

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod backend;
pub mod gateway;
pub mod journal;
mod lane;
pub mod metrics;
pub mod ring;
pub mod server;

pub use gateway::{Gateway, GatewayConfig};
pub use journal::Journal;
pub use metrics::GwMetrics;
pub use ring::Ring;
pub use server::GatewayServer;
