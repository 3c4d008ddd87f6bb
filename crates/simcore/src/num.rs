//! Sanctioned numeric conversions for the simulation kernel.
//!
//! Bare `as` casts between integer and float types truncate or lose
//! precision silently, so clippy's cast lints (`cast_precision_loss`,
//! `cast_possible_truncation`, `cast_sign_loss`) ban them in model
//! code. The handful of conversions the kernel actually needs funnel
//! through this module instead, where each one states its bound and
//! is checked — or explicitly documented as approximate — exactly
//! once. Downstream crates (`hetplat`, `hetload`) use these helpers
//! too rather than re-justifying casts at every call site.

/// Largest integer `f64` represents exactly (2⁵³).
pub const MAX_EXACT_IN_F64: u64 = 1 << 53;

/// Converts a count to `f64`, debug-checking that the value is exactly
/// representable. Use for observation counts, matrix dimensions, word
/// and flop counts — quantities far below 2⁵³.
#[expect(clippy::cast_precision_loss, reason = "the sanctioned funnel, guarded above")]
pub fn f64_from_u64(n: u64) -> f64 {
    debug_assert!(n <= MAX_EXACT_IN_F64, "{n} is not exactly representable in f64");
    n as f64
}

/// [`f64_from_u64`] for `usize` counts (indices, lengths).
pub fn f64_from_usize(n: usize) -> f64 {
    f64_from_u64(n as u64)
}

/// Converts a signed tally (concordant − discordant pair counts and
/// the like) to `f64`, debug-checking exactness.
#[expect(clippy::cast_precision_loss, reason = "the sanctioned funnel, guarded above")]
pub(crate) fn f64_from_i64(n: i64) -> f64 {
    debug_assert!(n.unsigned_abs() <= MAX_EXACT_IN_F64, "{n} is not exactly representable in f64");
    n as f64
}

/// Converts a nanosecond tick count to `f64`, rounding to nearest
/// above 2⁵³ ticks (≈ 104 simulated days — including the
/// `SimTime::MAX` "never" sentinel). The approximation is accepted by
/// design: the result feeds seconds-granularity float arithmetic, not
/// exact tick comparisons.
#[expect(clippy::cast_precision_loss, reason = "documented approximate conversion")]
pub(crate) fn f64_approx_from_nanos(n: u64) -> f64 {
    n as f64
}

/// Converts an already-rounded non-negative float into `u64` ticks or
/// counts with saturating semantics: NaN maps to 0, negatives clamp
/// to 0, values at or beyond 2⁶⁴ clamp to `u64::MAX`. Callers choose
/// the rounding (`.ceil()`, `.round().max(1.0)`) before converting.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "`as` from float saturates: NaN to 0, negatives to 0, overflow to MAX"
)]
pub fn sat_u64_from_f64(x: f64) -> u64 {
    x as u64
}

/// [`sat_u64_from_f64`] for `usize` results (plot columns, indices).
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "`as` from float saturates: NaN to 0, negatives to 0, overflow to MAX"
)]
pub(crate) fn sat_usize_from_f64(x: f64) -> usize {
    x as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_conversions_round_trip() {
        assert_eq!(f64_from_u64(0), 0.0);
        assert_eq!(f64_from_u64(MAX_EXACT_IN_F64), 9007199254740992.0);
        assert_eq!(f64_from_usize(12345), 12345.0);
        assert_eq!(f64_from_i64(-42), -42.0);
    }

    #[test]
    fn saturating_conversions_clamp_the_edges() {
        assert_eq!(sat_u64_from_f64(f64::NAN), 0);
        assert_eq!(sat_u64_from_f64(-1.5), 0);
        assert_eq!(sat_u64_from_f64(1.9), 1, "truncates after the caller's rounding");
        assert_eq!(sat_u64_from_f64(f64::INFINITY), u64::MAX);
        assert_eq!(sat_u64_from_f64(2.0f64.powi(64)), u64::MAX);
        assert_eq!(sat_usize_from_f64(7.0), 7);
        assert_eq!(sat_usize_from_f64(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn approx_nanos_is_monotone_at_the_sentinel() {
        assert_eq!(f64_approx_from_nanos(1_000_000_000), 1.0e9);
        assert!(f64_approx_from_nanos(u64::MAX) >= f64_approx_from_nanos(u64::MAX - 1));
    }
}
