//! Compile-time units and checked invariants for the model's quantities.
//!
//! The model juggles quantities with incompatible meanings — seconds,
//! words, bandwidths, probabilities in `[0, 1]`, slowdown factors ≥ 1 —
//! and before this module they were all bare `f64`/`u64`. A transposed
//! `(α, β)` pair or a `dcomm`/`dcomp` mix-up type-checked silently,
//! exactly the class of bug that corrupts the piecewise Sun/Paragon fits
//! or the Poisson–binomial mix DP without any visible failure.
//!
//! Each newtype here carries one dimension, validates its domain at the
//! boundary, and provides only the arithmetic that is dimensionally
//! meaningful:
//!
//! | Type | Invariant | Meaning |
//! |---|---|---|
//! | [`Seconds`] | non-negative (∞ allowed) | durations and costs |
//! | [`Words`] | — (integer) | message and data-set sizes |
//! | [`BytesPerSec`] | finite, > 0 | link bandwidth (`β`) |
//! | [`Prob`] | in `[0, 1]` | mix probabilities `pcompᵢ`/`pcommᵢ` |
//! | [`Slowdown`] | finite, ≥ 1 | contention slowdown factors |
//!
//! Every constructor rejects NaN and out-of-domain values, so downstream
//! code never needs to re-validate. Fallible `try_new` variants exist for
//! data that crosses a serialization boundary. The wrappers are plain
//! `f64`/`u64` bit patterns — arithmetic routed through them is
//! bit-identical to the raw code it replaced (pinned by
//! `tests/units_equivalence.rs`).
//!
//! This is also the single sanctioned funnel for int → float conversion:
//! [`f64_from_u64`] and [`f64_from_usize`] debug-check that the integer is
//! exactly representable, and the `modelcheck` lint forbids raw `as`
//! casts between integer and float types elsewhere in the model crates.

use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul};

/// Forwards `Display` to the wrapped representation.
macro_rules! fmt_delegate {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Display::fmt(&self.0, f)
        }
    };
}

/// Bytes per word on the modeled platforms (32-bit words, as on the
/// SPARC front-ends and the Paragon's NX message units).
pub(crate) const WORD_BYTES: u32 = 4;

/// Largest integer magnitude exactly representable in an `f64` (2⁵³).
const MAX_EXACT_IN_F64: u64 = 1 << 53;

/// Converts a message/word count to `f64`, debug-checking that the value
/// is exactly representable (word counts beyond 2⁵³ would silently lose
/// precision).
#[expect(clippy::cast_precision_loss, reason = "the sanctioned funnel, guarded above")]
pub fn f64_from_u64(n: u64) -> f64 {
    debug_assert!(n <= MAX_EXACT_IN_F64, "{n} is not exactly representable in f64");
    n as f64
}

/// [`f64_from_u64`] for `usize` counts (contender indices, loop counters).
pub fn f64_from_usize(n: usize) -> f64 {
    f64_from_u64(n as u64)
}

// ---------------------------------------------------------------------------
// Seconds
// ---------------------------------------------------------------------------

/// A non-negative duration or cost in seconds. `∞` is allowed (the final
/// phase of a [`crate::phased::LoadTimeline`] is unbounded); NaN and
/// negative values are rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);
    /// An unbounded duration.
    pub const INFINITY: Seconds = Seconds(f64::INFINITY);

    /// Builds a duration; rejects NaN and negative values.
    pub fn new(s: f64) -> Self {
        assert!(s >= 0.0, "Seconds must be non-negative and not NaN, got {s}");
        Seconds(s)
    }

    /// Fallible [`Self::new`] for values crossing a trust boundary.
    pub fn try_new(s: f64) -> Option<Self> {
        if s >= 0.0 {
            Some(Seconds(s))
        } else {
            None
        }
    }

    /// The raw value in seconds.
    pub fn get(self) -> f64 {
        self.0
    }

    /// True when the duration is finite.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// The larger of two durations.
    pub fn max(self, other: Self) -> Self {
        Seconds(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Self) -> Self {
        Seconds(self.0.min(other.0))
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        Seconds(iter.map(|s| s.0).sum())
    }
}

/// Scaling a duration by a dimensionless factor (e.g. a message count).
impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

/// Scaling a duration by a dimensionless factor, factor first.
impl Mul<Seconds> for f64 {
    type Output = Seconds;
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds(self * rhs.0)
    }
}

/// `dedicated cost × slowdown = contended cost` — the model's core law.
impl Mul<Slowdown> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: Slowdown) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

/// The ratio of two durations is dimensionless.
impl Div for Seconds {
    type Output = f64;
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

/// Dividing a duration by a dimensionless factor.
impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl fmt::Display for Seconds {
    fmt_delegate!();
}

/// Shorthand constructor: `secs(1.5)` reads better than
/// `Seconds::new(1.5)` in dense call sites.
pub fn secs(s: f64) -> Seconds {
    Seconds::new(s)
}

// ---------------------------------------------------------------------------
// Words
// ---------------------------------------------------------------------------

/// A size in words (the paper's unit for message and data-set sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Words(u64);

impl Words {
    /// Zero words.
    pub const ZERO: Words = Words(0);

    /// Builds a size in words.
    pub const fn new(n: u64) -> Self {
        Words(n)
    }

    /// The raw word count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The word count as `f64`, debug-checked for exactness.
    pub fn as_f64(self) -> f64 {
        f64_from_u64(self.0)
    }

    /// The size in bytes on the modeled platforms.
    pub const fn bytes(self) -> u64 {
        self.0 * WORD_BYTES as u64
    }
}

/// `words / bandwidth = transfer time`.
impl Div<BytesPerSec> for Words {
    type Output = Seconds;
    fn div(self, rhs: BytesPerSec) -> Seconds {
        Seconds(self.as_f64() / rhs.words_per_sec())
    }
}

impl fmt::Display for Words {
    fmt_delegate!();
}

/// Shorthand constructor for [`Words`].
pub const fn words(n: u64) -> Words {
    Words(n)
}

// ---------------------------------------------------------------------------
// BytesPerSec
// ---------------------------------------------------------------------------

/// An effective link bandwidth (`β`), finite and strictly positive.
///
/// Stored in bytes/second; the paper quotes words/second, so the usual
/// entry point is [`BytesPerSec::from_words_per_sec`]. The two differ by
/// the exact factor [`WORD_BYTES`] (a power of two), so round-tripping
/// through either representation is bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct BytesPerSec(f64);

impl BytesPerSec {
    /// Builds a bandwidth from bytes/second; must be finite and positive.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be finite and positive, got {bytes_per_sec}"
        );
        BytesPerSec(bytes_per_sec)
    }

    /// Fallible [`Self::new`].
    pub fn try_new(bytes_per_sec: f64) -> Option<Self> {
        if bytes_per_sec.is_finite() && bytes_per_sec > 0.0 {
            Some(BytesPerSec(bytes_per_sec))
        } else {
            None
        }
    }

    /// Builds a bandwidth from the paper's words/second convention.
    pub fn from_words_per_sec(words_per_sec: f64) -> Self {
        Self::new(words_per_sec * f64::from(WORD_BYTES))
    }

    /// The raw value in bytes/second.
    pub fn get(self) -> f64 {
        self.0
    }

    /// The bandwidth in the paper's words/second convention.
    pub fn words_per_sec(self) -> f64 {
        self.0 / f64::from(WORD_BYTES)
    }
}

impl fmt::Display for BytesPerSec {
    fmt_delegate!();
}

// ---------------------------------------------------------------------------
// Prob
// ---------------------------------------------------------------------------

/// Numerical slack tolerated by the unchecked/debug constructors: DP
/// updates keep probabilities inside `[0, 1]` up to rounding.
const PROB_EPS: f64 = 1e-9;

/// A probability in `[0, 1]` — the mix DP's `pcompᵢ`/`pcommᵢ` weights and
/// the per-contender communication fractions `fₖ`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Prob(f64);

impl Prob {
    /// The impossible event.
    pub const ZERO: Prob = Prob(0.0);
    /// The certain event.
    pub const ONE: Prob = Prob(1.0);

    /// Builds a probability; rejects NaN, ∞, and values outside `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        Prob(p)
    }

    /// Fallible [`Self::new`] for values crossing a trust boundary.
    pub fn try_new(p: f64) -> Option<Self> {
        if (0.0..=1.0).contains(&p) {
            Some(Prob(p))
        } else {
            None
        }
    }

    /// Wraps a value produced by in-range arithmetic (convolutions of
    /// in-range inputs) without clamping, so reads stay bit-identical to
    /// the raw representation; debug builds still verify the domain up to
    /// rounding slack.
    pub(crate) fn new_unchecked(p: f64) -> Self {
        debug_assert!(
            (-PROB_EPS..=1.0 + PROB_EPS).contains(&p),
            "probability {p} outside [0,1] beyond rounding slack"
        );
        Prob(p)
    }

    /// The raw value.
    pub fn get(self) -> f64 {
        self.0
    }
}

/// Joint probability of independent events.
impl Mul for Prob {
    type Output = Prob;
    fn mul(self, rhs: Prob) -> Prob {
        Prob::new_unchecked(self.0 * rhs.0)
    }
}

/// Probability-weighting a dimensionless quantity (a delay coefficient).
impl Mul<f64> for Prob {
    type Output = f64;
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl fmt::Display for Prob {
    fmt_delegate!();
}

/// Shorthand constructor: `prob(0.2)`.
pub fn prob(p: f64) -> Prob {
    Prob::new(p)
}

// ---------------------------------------------------------------------------
// Slowdown
// ---------------------------------------------------------------------------

/// A contention slowdown factor: finite and ≥ 1. Contention can only ever
/// slow an application down — a "speedup" coming out of the model is a
/// bug, and this type makes it unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Slowdown(f64);

impl Slowdown {
    /// The dedicated machine: no slowdown.
    pub const ONE: Slowdown = Slowdown(1.0);

    /// Builds a slowdown; rejects NaN, ∞, and values below 1.
    pub fn new(s: f64) -> Self {
        assert!(s.is_finite() && s >= 1.0, "slowdown must be finite and >= 1, got {s}");
        Slowdown(s)
    }

    /// Fallible [`Self::new`] for values crossing a trust boundary.
    pub fn try_new(s: f64) -> Option<Self> {
        if s.is_finite() && s >= 1.0 {
            Some(Slowdown(s))
        } else {
            None
        }
    }

    /// The raw factor.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Default for Slowdown {
    fn default() -> Self {
        Slowdown::ONE
    }
}

/// `slowdown × dedicated cost = contended cost`.
impl Mul<Seconds> for Slowdown {
    type Output = Seconds;
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

/// Composing independent slowdown sources (e.g. CPU contention × paging).
impl Mul for Slowdown {
    type Output = Slowdown;
    fn mul(self, rhs: Slowdown) -> Slowdown {
        Slowdown(self.0 * rhs.0)
    }
}

impl fmt::Display for Slowdown {
    fmt_delegate!();
}

// ---------------------------------------------------------------------------
// Serde: every unit serializes transparently as its raw number, and
// re-validates its domain on the way back in.
// ---------------------------------------------------------------------------

macro_rules! unit_serde_f64 {
    ($t:ident, $what:literal) => {
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                self.0.to_value()
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, serde::Error> {
                let raw = f64::from_value(v)?;
                $t::try_new(raw)
                    .ok_or_else(|| serde::Error::msg(format!("invalid {}: {raw}", $what)))
            }
        }
    };
}

unit_serde_f64!(Seconds, "duration (must be >= 0)");
unit_serde_f64!(BytesPerSec, "bandwidth (must be finite and > 0)");
unit_serde_f64!(Prob, "probability (must be in [0,1])");
unit_serde_f64!(Slowdown, "slowdown (must be finite and >= 1)");

impl Serialize for Words {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for Words {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Words(u64::from_value(v)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_arithmetic_is_transparent() {
        let a = secs(1.5);
        let b = secs(2.25);
        assert_eq!((a + b).get(), 1.5 + 2.25);
        assert_eq!((a * 3.0).get(), 1.5 * 3.0);
        assert_eq!((3.0 * a).get(), 3.0 * 1.5);
        assert_eq!(a / b, 1.5 / 2.25);
        assert_eq!((b / 2.0).get(), 2.25 / 2.0);
        assert_eq!([a, b].into_iter().sum::<Seconds>().get(), 1.5 + 2.25);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(Seconds::INFINITY.get().is_infinite() && !Seconds::INFINITY.is_finite());
    }

    #[test]
    fn seconds_rejects_bad_input() {
        assert!(Seconds::try_new(-1.0).is_none());
        assert!(Seconds::try_new(f64::NAN).is_none());
        assert!(Seconds::try_new(f64::INFINITY).is_some());
        assert_eq!(Seconds::try_new(0.0), Some(Seconds::ZERO));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn seconds_new_panics_on_negative() {
        secs(-0.5);
    }

    #[test]
    fn words_conversions() {
        assert_eq!(words(1024).get(), 1024);
        assert_eq!(words(3).bytes(), 12);
        assert_eq!(words(1000).as_f64(), 1000.0);
    }

    #[test]
    fn bandwidth_roundtrips_words_per_sec_exactly() {
        for wps in [1.0, 1e-3, 2e5, 8e5, 1e6, 123456.789] {
            let b = BytesPerSec::from_words_per_sec(wps);
            // ×4 / ÷4 are exact in binary floating point.
            assert_eq!(b.words_per_sec(), wps);
        }
        assert!(BytesPerSec::try_new(0.0).is_none());
        assert!(BytesPerSec::try_new(-5.0).is_none());
        assert!(BytesPerSec::try_new(f64::INFINITY).is_none());
    }

    #[test]
    fn words_over_bandwidth_is_transfer_time() {
        let b = BytesPerSec::from_words_per_sec(1e6);
        assert_eq!((words(1000) / b).get(), 1000.0 / 1e6);
    }

    #[test]
    fn prob_domain() {
        assert_eq!(prob(0.25).get(), 0.25);
        assert_eq!((prob(0.5) * prob(0.5)).get(), 0.25);
        assert_eq!(prob(0.5) * 3.0, 1.5);
        assert!(Prob::try_new(-0.1).is_none());
        assert!(Prob::try_new(1.1).is_none());
        assert!(Prob::try_new(f64::NAN).is_none());
        assert_eq!(Prob::try_new(1.0), Some(Prob::ONE));
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn prob_new_panics_out_of_range() {
        prob(1.5);
    }

    #[test]
    fn slowdown_domain() {
        assert_eq!(Slowdown::new(1.0), Slowdown::ONE);
        assert_eq!((Slowdown::new(2.0) * secs(3.0)).get(), 6.0);
        assert_eq!((secs(3.0) * Slowdown::new(2.0)).get(), 6.0);
        assert_eq!((Slowdown::new(2.0) * Slowdown::new(1.5)).get(), 3.0);
        assert!(Slowdown::try_new(0.99).is_none());
        assert!(Slowdown::try_new(f64::NAN).is_none());
        assert!(Slowdown::try_new(f64::INFINITY).is_none());
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn slowdown_new_panics_below_one() {
        Slowdown::new(0.5);
    }

    #[test]
    fn serde_roundtrip_and_validation() {
        let s = secs(2.5);
        assert_eq!(Seconds::from_value(&s.to_value()), Ok(s));
        let p = prob(0.3);
        assert_eq!(Prob::from_value(&p.to_value()), Ok(p));
        let f = Slowdown::new(4.0);
        assert_eq!(Slowdown::from_value(&f.to_value()), Ok(f));
        let w = words(512);
        assert_eq!(Words::from_value(&w.to_value()), Ok(w));
        let b = BytesPerSec::from_words_per_sec(2e5);
        assert_eq!(BytesPerSec::from_value(&b.to_value()), Ok(b));
        // Deserialization re-validates the domain instead of panicking.
        assert!(Slowdown::from_value(&Value::Float(0.5)).is_err());
        assert!(Prob::from_value(&Value::Float(1.5)).is_err());
        assert!(Seconds::from_value(&Value::Float(-1.0)).is_err());
    }

    #[test]
    fn exact_conversion_helpers() {
        assert_eq!(f64_from_u64(0), 0.0);
        assert_eq!(f64_from_u64(1 << 52), (1u64 << 52) as f64);
        assert_eq!(f64_from_usize(12345), 12345.0);
    }
}
