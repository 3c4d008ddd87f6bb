//! Fixture crate opting into the numeric rules.
//!
//! modelcheck: naked-f64, float-env

pub mod bad;
