//! # proto — the contention-prediction wire surface
//!
//! The shared protocol crate: everything a process needs to *speak*
//! predictd without *being* predictd. The daemon, the gateway tier
//! ([`predictgw`]), the client library, the `loadgen` traffic
//! generator, and the tests all meet here, so a wire change is one
//! diff reviewed in one place. The codecs are wildcard-free `match`es
//! over [`Request`]/[`Response`], so a new kind does not compile until
//! each codec handles or declines it; `tests/wire_table.rs` holds the
//! DESIGN.md §8 wire table to what the codecs do with every kind.
//!
//! Three modules, split by cost model:
//!
//! * [`proto`] — the [`proto::Request`]/[`proto::Response`] enums and
//!   their payload structs, with validating serde to and from the
//!   newline-JSON representation. The source of truth for every kind.
//! * [`codec`] — the specialized byte-scan JSON fast path for the hot
//!   kinds; falls back to (and is pinned byte-identical against) the
//!   generic serde path. Its `parse_line`/`write_line` are the one JSON
//!   line edge both daemons use.
//! * [`binproto`] — the length-prefixed binary codec (`0xBD` preamble,
//!   `[u32 LE len][u8 tag][payload]` frames, raw IEEE-754 `f64`s),
//!   hostile-input safe.
//!
//! [`predictgw`]: ../predictgw/index.html
//!
//! modelcheck: atomics, float-env, wire-taint

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(
    not(test),
    warn(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod binproto;
pub mod codec;
pub mod proto;

pub use proto::{Request, Response};
