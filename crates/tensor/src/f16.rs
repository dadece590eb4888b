//! IEEE 754 binary16 ("half precision") implemented from scratch.
//!
//! ZeRO's memory arithmetic (§3.1 of the paper) depends on parameters and
//! gradients being stored in *2 bytes per element* while the optimizer keeps
//! 4-byte master copies (K = 12 for mixed-precision Adam). This module
//! provides that 2-byte storage type with correct round-to-nearest-even
//! conversion, so the engine's measured memory matches the paper's formulas
//! byte for byte.
//!
//! Arithmetic is performed by converting to `f32`, mirroring how V100 tensor
//! cores accumulate fp16 products in fp32.
//!
//! **Conversions.** [`F16::from_f32`] and [`F16::to_f32`] are branch-free:
//! each computes every case (normal, subnormal, overflow, Inf/NaN) and
//! selects one. The subnormal case is one `f32` add or subtract of 0.5,
//! which rounds to nearest even as every `f32` operation does; the rest is
//! integer arithmetic on the bits. The slice passes ([`f32_to_f16_slice`],
//! [`f16_to_f32_slice`], [`f16_add_slice`], [`f16_round_slice`]) apply the
//! scalar functions element by element on the ISA ladder ([`crate::isa`]),
//! so they return the scalar functions' bits on every tier.

use crate::isa::{self, Kernel};

/// A 16-bit IEEE 754 binary16 floating point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values above `F16::MAX` overflow to infinity; subnormal results are
    /// produced for magnitudes below 2^-14; magnitudes up to 2^-25 round to
    /// (signed) zero. A NaN stays NaN, quieted, keeping the top nine bits of
    /// its payload.
    #[inline(always)]
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = (bits >> 16) as u16 & 0x8000;
        let abs = bits & 0x7FFF_FFFF;
        // From 2^-14: rebias the exponent (127 → 15) and round the low 13
        // mantissa bits to nearest even. A carry into the exponent is the
        // next binade, or infinity from 65 520 up.
        let odd = (abs >> 13) & 1;
        let normal = abs.wrapping_sub(112 << 23).wrapping_add(0x0FFF + odd) >> 13;
        // Below 2^-14: in 0.5 + |x| the last mantissa place is worth 2^-24,
        // the smallest subnormal, so the add rounds |x| to a subnormal.
        let subnormal = (f32::from_bits(abs) + 0.5).to_bits() - 0.5_f32.to_bits();
        let nan = 0x7E00 | ((abs >> 13) & 0x01FF);
        // Every case is computed, so these are selects.
        let out = if abs > 0x7F80_0000 {
            nan
        } else if abs >= 0x4780_0000 {
            0x7C00
        } else if abs < 0x3880_0000 {
            subnormal
        } else {
            normal
        };
        F16(sign | out as u16)
    }

    /// Converts this binary16 value to `f32` exactly (every f16 is
    /// representable in f32). A NaN keeps its payload, signalling or quiet.
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        let h = u32::from(self.0);
        let sign = (h & 0x8000) << 16;
        // Exponent and mantissa, moved to their f32 positions.
        let shifted = (h & 0x7FFF) << 13;
        // A normal value rebiases its exponent (15 → 127); Inf/NaN sets all
        // eight exponent bits.
        let normal = shifted + (112 << 23);
        let inf_nan = shifted | 0x7F80_0000;
        // A subnormal m·2^-24: 0.5 + m·2^-24 is exact in f32, so taking 0.5
        // off again leaves the value, normalized.
        let subnormal = (f32::from_bits(0.5_f32.to_bits() | (h & 0x03FF)) - 0.5).to_bits();
        let bits = match h & 0x7C00 {
            0x7C00 => inf_nan,
            0 => subnormal,
            _ => normal,
        };
        f32::from_bits(sign | bits)
    }

    /// Raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// True if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True if this value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// True if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }
}

impl std::fmt::Debug for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}f16", self.to_f32())
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

/// An fp16 pass over slices, compiled once per ISA tier by [`isa::run`].
enum Pass<'a> {
    /// `dst[i] = f16(src[i])`.
    Narrow(&'a [f32], &'a mut [F16]),
    /// `dst[i] = f32(src[i])`.
    Widen(&'a [F16], &'a mut [f32]),
    /// `acc[i] = f16(f32(acc[i]) + x[i])`.
    Accumulate(&'a mut [F16], &'a [f32]),
    /// `x[i] = f32(f16(x[i]))`.
    Round(&'a mut [f32]),
}

impl Kernel for Pass<'_> {
    #[inline(always)]
    fn run(self) {
        match self {
            Pass::Narrow(src, dst) => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = F16::from_f32(s);
                }
            }
            Pass::Widen(src, dst) => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = s.to_f32();
                }
            }
            Pass::Accumulate(acc, x) => {
                for (h, &v) in acc.iter_mut().zip(x) {
                    *h = F16::from_f32(h.to_f32() + v);
                }
            }
            Pass::Round(x) => {
                for v in x {
                    *v = F16::from_f32(*v).to_f32();
                }
            }
        }
    }
}

/// Converts `F16` storage back to `f32`, writing into `dst`.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn f16_to_f32_slice(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "f16->f32 length mismatch");
    isa::run(isa::selected(), Pass::Widen(src, dst));
}

/// Converts `f32` values into an existing `F16` buffer.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn f32_to_f16_slice(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "f32->f16 length mismatch");
    isa::run(isa::selected(), Pass::Narrow(src, dst));
}

/// Accumulates `f32` values into `F16` storage, `acc[i] = f16(acc[i] + x[i])`
/// with the sum taken in `f32`: how fp16 gradient accumulation rounds.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn f16_add_slice(acc: &mut [F16], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "f16 add length mismatch");
    isa::run(isa::selected(), Pass::Accumulate(acc, x));
}

/// Rounds every value to the nearest binary16, kept in `f32`:
/// `x[i] = f32(f16(x[i]))`.
pub fn f16_round_slice(x: &mut [f32]) {
    isa::run(isa::selected(), Pass::Round(x));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_round_trip() {
        for i in -2048..=2048 {
            let f = i as f32;
            assert_eq!(F16::from_f32(f).to_f32(), f, "integer {i} must be exact");
        }
    }

    #[test]
    fn constants_match_ieee() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0_f32.powi(-14));
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
        assert_eq!(F16::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
        assert!(F16::NAN.is_nan());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite());
        assert!(F16::from_f32(1e9).is_infinite());
        assert_eq!(F16::from_f32(-1e9), F16::NEG_INFINITY);
        // 65504 + half a ulp rounds back down (ties-to-even would go up, but
        // 65519.999 < halfway to the next representable 65536).
        assert_eq!(F16::from_f32(65519.0).to_f32(), 65504.0);
        assert!(F16::from_f32(65520.0).is_infinite(), "65520 is the tie, rounds to even=inf");
    }

    #[test]
    fn subnormals_convert_exactly() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(F16::from_bits(0x0001).to_f32(), tiny);
        // Largest subnormal.
        let big_sub = 2.0_f32.powi(-14) - 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(big_sub).to_bits(), 0x03FF);
        assert_eq!(F16::from_bits(0x03FF).to_f32(), big_sub);
        // Below half the smallest subnormal: flush to zero.
        assert_eq!(F16::from_f32(2.0_f32.powi(-26)).to_bits(), 0x0000);
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16 value
        // (1 + 2^-10); RNE keeps the even mantissa, i.e. 1.0.
        let tie_down = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(F16::from_f32(tie_down).to_f32(), 1.0);
        // (1 + 2^-10) + 2^-11 is halfway between odd mantissa 1 and even
        // mantissa 2; RNE rounds up to the even one.
        let tie_up = 1.0 + 2.0_f32.powi(-10) + 2.0_f32.powi(-11);
        assert_eq!(F16::from_f32(tie_up).to_f32(), 1.0 + 2.0_f32.powi(-9));
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_bits(0x8000).to_f32().to_bits(), (-0.0_f32).to_bits());
    }

    #[test]
    fn nan_round_trips_as_nan() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
    }

    #[test]
    fn all_f16_bit_patterns_round_trip_through_f32() {
        // Every finite f16 is exactly representable in f32, so the
        // f16 -> f32 -> f16 round trip must be the identity.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    F16::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bit pattern {bits:#06x} failed to round trip"
                );
            }
        }
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
        let bytes = words.into_iter().flat_map(u32::to_le_bytes);
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Every `f32` edge of the narrowing, with both signs: each exponent
    /// with mantissa 0, 1, one below the rounding tie, the tie, one above
    /// it, the tie with the last kept bit odd, and all ones (the tie sits
    /// lower for the exponents that land on a subnormal); the subnormal
    /// edges 2^-25, 2^-24, 2^-14 and the overflow edges 65 519, 65 520,
    /// each with its neighbours; and quiet and signalling NaN payloads.
    /// Exponent 255 covers ±Inf.
    fn sweep() -> Vec<f32> {
        let mut bits = Vec::new();
        for exp in 0..=255_u32 {
            // The f32 mantissa bit worth half the result's last place.
            let tie = match exp as i32 - 127 {
                u @ -24..=-15 => (-2 - u) as u32,
                -25 => 22,
                _ => 12,
            };
            let mans = [0, 1, (1 << tie) - 1, 1 << tie, (1 << tie) + 1, 3 << tie, 0x007F_FFFF];
            bits.extend(mans.map(|m| exp << 23 | (m & 0x007F_FFFF)));
        }
        for edge in [2.0_f32.powi(-25), 2.0_f32.powi(-24), 2.0_f32.powi(-14), 65_519.0, 65_520.0] {
            bits.extend([edge.to_bits() - 1, edge.to_bits(), edge.to_bits() + 1]);
        }
        bits.extend([0x7F80_0001, 0x7FA0_0000, 0x7FBF_FFFF, 0x7FC0_0000, 0x7FC0_0001, 0x7FE0_1000]);
        bits.iter().flat_map(|&b| [b, b | 0x8000_0000]).map(f32::from_bits).collect()
    }

    #[test]
    fn pinned_known_answers() {
        // Computed by the branchy implementation: the narrowing over every
        // edge and the widening over every binary16 pattern.
        assert_eq!(fnv1a(sweep().into_iter().map(|x| u32::from(F16::from_f32(x).to_bits()))), 0x2b44_bd75_3327_5285);
        assert_eq!(fnv1a((0..=u16::MAX).map(|h| F16::from_bits(h).to_f32().to_bits())), 0xb065_9868_ec05_3145);
    }

    #[test]
    fn slice_conversions() {
        let src = [0.5_f32, -1.25, 3.0, 1e-3];
        let mut h = [F16::ZERO; 4];
        f32_to_f16_slice(&src, &mut h);
        let mut back = [0.0_f32; 4];
        f16_to_f32_slice(&h, &mut back);
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() <= a.abs() * 1e-3 + 1e-7);
        }
        f16_add_slice(&mut h, &[0.5, 1.25, -3.0, 0.0]);
        f16_to_f32_slice(&h, &mut back);
        assert_eq!(back[..3], [1.0, 0.0, 0.0]);
        let mut x = src;
        f16_round_slice(&mut x);
        assert_eq!(x, src.map(|v| F16::from_f32(v).to_f32()));
    }

    /// The branchy conversions this module ran before the branch-free
    /// ones, kept as the reference they are compared against.
    mod reference {
        const F16_MAN_BITS: u32 = 10;
        const F16_EXP_BIAS: i32 = 15;
        const F32_MAN_BITS: u32 = 23;

        pub fn from_f32(value: f32) -> u16 {
            let bits = value.to_bits();
            let sign = ((bits >> 16) & 0x8000) as u16;
            let exp = ((bits >> F32_MAN_BITS) & 0xFF) as i32;
            let man = bits & 0x007F_FFFF;
            if exp == 0xFF {
                return if man == 0 {
                    sign | 0x7C00
                } else {
                    sign | 0x7C00 | 0x0200 | ((man >> 13) as u16 & 0x01FF)
                };
            }
            let unbiased = exp - 127;
            let f16_exp = unbiased + F16_EXP_BIAS;
            if f16_exp >= 0x1F {
                return sign | 0x7C00;
            }
            if f16_exp <= 0 {
                if f16_exp < -10 {
                    return sign;
                }
                let man = (man | 0x0080_0000) as u64;
                let shift = (-1 - unbiased) as u32;
                let halfway = 1u64 << (shift - 1);
                let mut out = (man >> shift) as u16;
                let rem = man & ((1u64 << shift) - 1);
                if rem > halfway || (rem == halfway && (out & 1) == 1) {
                    out += 1;
                }
                return sign | out;
            }
            let shift = F32_MAN_BITS - F16_MAN_BITS;
            let halfway = 1u32 << (shift - 1);
            let rem = man & ((1 << shift) - 1);
            let mut out = ((f16_exp as u32) << F16_MAN_BITS | (man >> shift)) as u16;
            if rem > halfway || (rem == halfway && (out & 1) == 1) {
                out += 1;
            }
            sign | out
        }

        pub fn to_f32(h: u16) -> f32 {
            let sign = ((h & 0x8000) as u32) << 16;
            let exp = ((h >> F16_MAN_BITS) & 0x1F) as u32;
            let man = (h & 0x03FF) as u32;
            let bits = if exp == 0 {
                if man == 0 {
                    sign
                } else {
                    let shift = man.leading_zeros() - (32 - F16_MAN_BITS - 1);
                    let man = (man << shift) & 0x03FF;
                    let exp = 127 - F16_EXP_BIAS as u32 + 1 - shift;
                    sign | (exp << F32_MAN_BITS) | (man << (F32_MAN_BITS - F16_MAN_BITS))
                }
            } else if exp == 0x1F {
                sign | 0x7F80_0000 | (man << (F32_MAN_BITS - F16_MAN_BITS))
            } else {
                let exp = exp + 127 - F16_EXP_BIAS as u32;
                sign | (exp << F32_MAN_BITS) | (man << (F32_MAN_BITS - F16_MAN_BITS))
            };
            f32::from_bits(bits)
        }
    }

    #[test]
    fn branch_free_conversions_match_the_reference() {
        for x in sweep() {
            assert_eq!(F16::from_f32(x).to_bits(), reference::from_f32(x), "from_f32({:#010x})", x.to_bits());
        }
        for h in 0..=u16::MAX {
            let want = reference::to_f32(h).to_bits();
            assert_eq!(F16::from_bits(h).to_f32().to_bits(), want, "to_f32({h:#06x})");
        }
    }

    #[test]
    #[ignore = "2^32 conversions: run in release"]
    fn from_f32_matches_the_reference_on_every_input() {
        let mut xs = vec![0.0_f32; 1 << 16];
        let mut hs = vec![F16::ZERO; xs.len()];
        for high in 0..=u16::MAX {
            for (low, x) in xs.iter_mut().enumerate() {
                *x = f32::from_bits(u32::from(high) << 16 | low as u32);
            }
            f32_to_f16_slice(&xs, &mut hs);
            for (x, h) in xs.iter().zip(&hs) {
                assert_eq!(h.to_bits(), reference::from_f32(*x), "from_f32({:#010x})", x.to_bits());
            }
        }
    }

    /// Runs the four passes on `tier` and checks each output element
    /// against the scalar functions: widen and accumulate over `hs` (plus
    /// `addend`), narrow and round over `fs`.
    fn check_tier(tier: isa::Isa, hs: &[F16], addend: &[f32], fs: &[f32]) {
        let name = tier.name();
        let mut widened = vec![f32::NAN; hs.len()];
        isa::run(tier, Pass::Widen(hs, &mut widened));
        let mut summed = hs.to_vec();
        isa::run(tier, Pass::Accumulate(&mut summed, addend));
        let mut narrowed = vec![F16::NAN; fs.len()];
        isa::run(tier, Pass::Narrow(fs, &mut narrowed));
        let mut rounded = fs.to_vec();
        isa::run(tier, Pass::Round(&mut rounded));
        for (i, h) in hs.iter().enumerate() {
            assert_eq!(widened[i].to_bits(), h.to_f32().to_bits(), "{name} widen {:#06x}", h.0);
            let want = F16::from_f32(h.to_f32() + addend[i]);
            assert_eq!(summed[i].0, want.0, "{name} accumulate {:#06x} + {:e}", h.0, addend[i]);
        }
        for (i, &x) in fs.iter().enumerate() {
            assert_eq!(narrowed[i].0, F16::from_f32(x).0, "{name} narrow {:#010x}", x.to_bits());
            let want = F16::from_f32(x).to_f32().to_bits();
            assert_eq!(rounded[i].to_bits(), want, "{name} round {:#010x}", x.to_bits());
        }
    }

    #[test]
    fn every_tier_is_bitwise_the_scalar_conversions() {
        // Every binary16 pattern, widened and accumulated into; then every
        // sweep value, narrowed, accumulated into and rounded, starting at
        // each offset up to one AVX-512 vector, so that every input meets
        // both the vector body and the scalar tail.
        let patterns: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        let wide: Vec<f32> = patterns.iter().map(|h| h.to_f32()).collect();
        let small: Vec<f32> = (0..wide.len()).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.25).collect();
        let xs = sweep();
        let narrow: Vec<F16> = xs.iter().map(|&x| F16::from_f32(x)).collect();
        let mut rotated = xs.clone();
        rotated.rotate_left(7);
        for tier in isa::runnable() {
            check_tier(tier, &patterns, &small, &wide);
            for at in 0..17 {
                check_tier(tier, &narrow[at..], &rotated[at..], &xs[at..]);
            }
        }
    }
}
