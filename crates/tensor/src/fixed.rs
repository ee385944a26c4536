//! 16-bit fixed-point arithmetic (Q8.8), the numeric format of the TFE
//! datapath.
//!
//! The paper's engine is a 16-bit design (Section V.A: "the same data width
//! format (16 bit) … used in Eyeriss"). We model samples as Q8.8
//! (8 integer bits, 8 fractional bits) and partial sums as a widened 32-bit
//! accumulator ([`Accum`]), matching the hardware's PSum registers that are
//! wider than the sample path so row-length accumulations do not overflow.
//!
//! Every method and operator of [`Fx16`] and [`Accum`] is `#[inline]`,
//! and `clippy::missing_inline_in_public_items` keeps it so. The
//! workspace builds without LTO, so a non-generic function of this crate
//! is otherwise compiled once here and called out of line from every
//! other crate: the engine's output stage made two such calls per
//! accumulator, and compile one per quantized weight.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Number of fractional bits in [`Fx16`].
pub const FRAC_BITS: u32 = 8;

/// Scale factor (2^[`FRAC_BITS`]) between the integer representation and
/// the real value.
pub const SCALE: i32 = 1 << FRAC_BITS;

/// A 16-bit Q8.8 fixed-point sample.
///
/// Arithmetic saturates rather than wraps, as a hardware datapath would.
/// Construct from a float with [`Fx16::from_f32`] and read back with
/// [`Fx16::to_f32`]:
///
/// ```
/// use tfe_tensor::fixed::Fx16;
/// let x = Fx16::from_f32(1.5);
/// let y = Fx16::from_f32(-0.25);
/// assert_eq!((x * y).to_f32(), -0.375);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
// Layout-identical to `i16`: tfe-sim's x86-64 row kernel loads
// `&[Fx16]` rows as `i16` vectors.
#[repr(transparent)]
pub struct Fx16(i16);

impl Fx16 {
    /// The value `0.0`.
    pub const ZERO: Fx16 = Fx16(0);
    /// The value `1.0`.
    pub const ONE: Fx16 = Fx16(SCALE as i16);
    /// Largest representable value (≈ 127.996).
    pub const MAX: Fx16 = Fx16(i16::MAX);
    /// Smallest representable value (−128.0).
    pub const MIN: Fx16 = Fx16(i16::MIN);

    /// Creates a sample directly from its raw Q8.8 bit pattern.
    #[must_use]
    #[inline]
    pub const fn from_bits(bits: i16) -> Self {
        Fx16(bits)
    }

    /// The raw Q8.8 bit pattern.
    #[must_use]
    #[inline]
    pub const fn to_bits(self) -> i16 {
        self.0
    }

    /// Converts from `f32`, rounding to nearest and saturating at the
    /// representable range.
    #[must_use]
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let scaled = (value * SCALE as f32).round();
        let clamped = scaled.clamp(i16::MIN as f32, i16::MAX as f32);
        Fx16(clamped as i16)
    }

    /// Converts to `f32` exactly (every Q8.8 value is representable).
    #[must_use]
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / SCALE as f32
    }

    /// Whether the sample is exactly zero. The TFE PE clock-gates its
    /// multiplier on zero operands (Section IV, "Processing Element").
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition in the sample domain.
    #[must_use]
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Fx16(self.0.saturating_add(rhs.0))
    }

    /// Full-precision product, widened into the accumulator domain
    /// (Q16.16). This is what a PE's multiplier emits onto the data bus.
    #[must_use]
    #[inline]
    pub fn widening_mul(self, rhs: Self) -> Accum {
        Accum(self.0 as i32 * rhs.0 as i32)
    }
}

impl fmt::Display for Fx16 {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl fmt::LowerHex for Fx16 {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Fx16 {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Fx16 {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Fx16 {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl From<i16> for Fx16 {
    /// Interprets the integer as a whole number of units (not raw bits).
    #[inline]
    fn from(value: i16) -> Self {
        Fx16((value as i32 * SCALE).clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }
}

impl Add for Fx16 {
    type Output = Fx16;
    #[inline]
    fn add(self, rhs: Fx16) -> Fx16 {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Fx16 {
    #[inline]
    fn add_assign(&mut self, rhs: Fx16) {
        *self = *self + rhs;
    }
}

impl Sub for Fx16 {
    type Output = Fx16;
    #[inline]
    fn sub(self, rhs: Fx16) -> Fx16 {
        Fx16(self.0.saturating_sub(rhs.0))
    }
}

impl Neg for Fx16 {
    type Output = Fx16;
    #[inline]
    fn neg(self) -> Fx16 {
        Fx16(self.0.saturating_neg())
    }
}

impl Mul for Fx16 {
    type Output = Fx16;
    /// Rounded Q8.8 × Q8.8 → Q8.8 product (sample-domain multiply).
    #[inline]
    fn mul(self, rhs: Fx16) -> Fx16 {
        self.widening_mul(rhs).to_sample()
    }
}

/// The widened (Q16.16, 32-bit) partial-sum accumulator.
///
/// Matches the TFE's PSum registers and stacked registers, which carry
/// full-precision products so repeated reuse (PPSR/ERRR) never loses
/// precision relative to a fused accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
// Layout-identical to `i32`: tfe-sim's x86-64 row kernel loads and
// stores `&[Accum]` rows as `i32` vectors.
#[repr(transparent)]
pub struct Accum(i32);

impl Accum {
    /// The zero accumulator.
    pub const ZERO: Accum = Accum(0);

    /// Creates an accumulator directly from its raw Q16.16 bit pattern.
    #[must_use]
    #[inline]
    pub const fn from_bits(bits: i32) -> Self {
        Accum(bits)
    }

    /// The raw Q16.16 bit pattern.
    #[must_use]
    #[inline]
    pub const fn to_bits(self) -> i32 {
        self.0
    }

    /// Lifts a sample into the accumulator domain without loss.
    #[must_use]
    #[inline]
    pub fn from_sample(sample: Fx16) -> Self {
        Accum((sample.to_bits() as i32) << FRAC_BITS)
    }

    /// Converts back to the sample domain with round-to-nearest and
    /// saturation — the quantization performed when a finished PSum leaves
    /// the output memory system.
    #[must_use]
    #[inline]
    pub fn to_sample(self) -> Fx16 {
        // Saturating rounding add: an accumulator clamped at `i32::MAX`
        // must round to the positive sample extreme, not wrap negative.
        let rounded = self.0.saturating_add(1 << (FRAC_BITS - 1)) >> FRAC_BITS;
        Fx16(rounded.clamp(i16::MIN as i32, i16::MAX as i32) as i16)
    }

    /// Converts to `f32` exactly.
    #[must_use]
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.0 as f32 / (SCALE as f32 * SCALE as f32)
    }

    /// ReLU in the accumulator domain, used by the output memory system's
    /// activation stage before pooling.
    #[must_use]
    #[inline]
    pub fn relu(self) -> Accum {
        Accum(self.0.max(0))
    }
}

impl fmt::Display for Accum {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl Add for Accum {
    type Output = Accum;
    #[inline]
    fn add(self, rhs: Accum) -> Accum {
        Accum(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Accum {
    #[inline]
    fn add_assign(&mut self, rhs: Accum) {
        *self = *self + rhs;
    }
}

impl Sub for Accum {
    type Output = Accum;
    #[inline]
    fn sub(self, rhs: Accum) -> Accum {
        Accum(self.0.saturating_sub(rhs.0))
    }
}

impl Neg for Accum {
    type Output = Accum;
    #[inline]
    fn neg(self) -> Accum {
        Accum(self.0.saturating_neg())
    }
}

impl Sum for Accum {
    #[inline]
    fn sum<I: Iterator<Item = Accum>>(iter: I) -> Accum {
        iter.fold(Accum::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exact_values() {
        for v in [-128.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.75, 127.0] {
            assert_eq!(Fx16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn from_f32_saturates() {
        assert_eq!(Fx16::from_f32(1000.0), Fx16::MAX);
        assert_eq!(Fx16::from_f32(-1000.0), Fx16::MIN);
    }

    #[test]
    fn widening_mul_is_exact() {
        let a = Fx16::from_f32(2.5);
        let b = Fx16::from_f32(-1.25);
        assert_eq!(a.widening_mul(b).to_f32(), -3.125);
    }

    #[test]
    fn to_sample_saturates_at_the_accumulator_extremes() {
        // A clamped accumulator must quantize to the matching sample
        // extreme; the rounding add used to overflow at `i32::MAX`.
        assert_eq!(Accum::from_bits(i32::MAX).to_sample(), Fx16::MAX);
        assert_eq!(Accum::from_bits(i32::MIN).to_sample(), Fx16::MIN);
    }

    #[test]
    fn sample_mul_rounds_to_nearest() {
        // 0.00390625 * 0.5 = 0.001953125, which rounds up to 1/256.
        let tiny = Fx16::from_bits(1);
        let half = Fx16::from_f32(0.5);
        assert_eq!((tiny * half).to_bits(), 1);
    }

    #[test]
    fn accumulator_addition_matches_float_within_representation() {
        let samples = [0.5f32, -0.25, 3.0, 1.5, -2.75];
        let acc: Accum = samples
            .iter()
            .map(|&v| Fx16::from_f32(v).widening_mul(Fx16::ONE))
            .sum();
        let expected: f32 = samples.iter().sum();
        assert_eq!(acc.to_f32(), expected);
    }

    #[test]
    fn accum_relu_clamps_negative() {
        let neg = Fx16::from_f32(-1.0).widening_mul(Fx16::ONE);
        assert_eq!(neg.relu(), Accum::ZERO);
        let pos = Fx16::from_f32(1.0).widening_mul(Fx16::ONE);
        assert_eq!(pos.relu(), pos);
    }

    #[test]
    fn sample_add_saturates() {
        assert_eq!(Fx16::MAX + Fx16::ONE, Fx16::MAX);
        assert_eq!(Fx16::MIN + -Fx16::ONE, Fx16::MIN);
    }

    #[test]
    fn from_i16_units() {
        assert_eq!(Fx16::from(3i16).to_f32(), 3.0);
        // 200 units saturates the Q8.8 range.
        assert_eq!(Fx16::from(200i16), Fx16::MAX);
    }

    #[test]
    fn accum_sample_round_trip() {
        for v in [-4.5f32, 0.0, 0.125, 88.25] {
            let acc = Accum::from_sample(Fx16::from_f32(v));
            assert_eq!(acc.to_sample().to_f32(), v);
        }
    }

    #[test]
    fn bit_pattern_formatting() {
        let one = Fx16::ONE;
        assert_eq!(format!("{one:x}"), "100");
        assert_eq!(format!("{one:b}"), "100000000");
        assert_eq!(format!("{one:o}"), "400");
        assert_eq!(format!("{one:X}"), "100");
    }

    #[test]
    fn zero_detection_for_clock_gating() {
        assert!(Fx16::ZERO.is_zero());
        assert!(!Fx16::from_f32(0.01).is_zero());
    }
}
