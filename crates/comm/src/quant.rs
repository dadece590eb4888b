//! Per-block affine quantization for compressed collectives (ZeRO++).
//!
//! The ZeRO++ levers (qwZ, qgZ) shrink inter-node traffic by sending int8
//! codes instead of fp16/fp32 values: every `block` consecutive elements
//! share an fp32 scale and zero-point, so a chunk of `len` elements costs
//! `len + 8·⌈len/block⌉` logical bytes on the wire (one code byte per
//! element plus scale+zero per block) instead of `2·len`/`4·len`.
//!
//! The affine map is symmetric around the block midpoint: with
//! `zero = (lo+hi)/2` and `scale = (hi−lo)/254`, codes span `[-127, 127]`
//! and dequantization `v̂ = zero + code·scale` reconstructs any in-block
//! value with absolute error at most `scale/2` — the bound the randomized
//! round-trip tests below pin down.
//!
//! Two entry points with different non-finite policies:
//!
//! * [`quantize`] — the public API; rejects NaN/Inf inputs with a typed
//!   [`QuantError`], because quantizing garbage silently would launder an
//!   upstream bug into plausible-looking numbers.
//! * [`quantize_for_transport`] — the collective-internal path; a block
//!   containing a non-finite value is *poisoned* (`scale = NaN`) so that
//!   dequantization reproduces non-finite values and fp16 gradient
//!   overflow still trips the loss-scale skip logic after a compressed
//!   reduce, exactly as it does on the raw path.

use std::fmt;

/// Default quantization block size (elements per scale/zero-point pair).
pub const DEFAULT_QUANT_BLOCK: usize = 64;

/// Typed rejection from the public quantization API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantError {
    /// The input contains a NaN or infinite value at `index`.
    NonFinite {
        /// Index of the first offending element.
        index: usize,
    },
    /// The block size was zero.
    ZeroBlock,
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::NonFinite { index } => {
                write!(f, "non-finite value at element {index} cannot be quantized")
            }
            QuantError::ZeroBlock => write!(f, "quantizer block size must be positive"),
        }
    }
}

impl std::error::Error for QuantError {}

/// Logical wire bytes of a block-quantized chunk of `len` elements: one
/// int8 code per element plus an fp32 scale and zero-point per block.
///
/// # Panics
/// Panics if `block == 0`.
pub fn quant_wire_bytes(len: usize, block: usize) -> u64 {
    assert!(block > 0, "quantizer block size must be positive");
    (len + 8 * len.div_ceil(block)) as u64
}

/// A block-quantized buffer: int8 codes plus per-block affine parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockQuantized {
    /// Element count of the original buffer.
    pub len: usize,
    /// Elements per block (the last block may be shorter).
    pub block: usize,
    /// Per-block scale. `NaN` marks a poisoned block (transport mode):
    /// the source block contained a non-finite value, and dequantization
    /// reproduces NaN for every element of it.
    pub scales: Vec<f32>,
    /// Per-block zero-point (the block's value midpoint).
    pub zeros: Vec<f32>,
    /// One code in `[-127, 127]` per element.
    pub codes: Vec<i8>,
}

/// Converts a clamped affine residual to an int8 code. The caller has
/// already clamped to `[-127.0, 127.0]`, so the narrowing conversion is
/// range-checked by construction.
#[inline]
fn clamped_code(c: f32) -> i8 {
    debug_assert!((-127.0..=127.0).contains(&c));
    c as i8
}

fn quantize_block(chunk: &[f32], scales: &mut Vec<f32>, zeros: &mut Vec<f32>, codes: &mut Vec<i8>) {
    let lo = chunk.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // Midpoint and scale computed in halves so extreme-magnitude blocks
    // cannot overflow to infinity.
    let zero = 0.5 * lo + 0.5 * hi;
    let scale = hi / 254.0 - lo / 254.0;
    scales.push(scale);
    zeros.push(zero);
    if scale == 0.0 {
        // Constant block: every value equals the zero-point exactly.
        codes.extend(std::iter::repeat_n(0_i8, chunk.len()));
        return;
    }
    let inv = 1.0 / scale;
    for &v in chunk {
        let c = ((v - zero) * inv).round().clamp(-127.0, 127.0);
        codes.push(clamped_code(c));
    }
}

/// Block-quantizes `values`, rejecting non-finite input with a typed
/// error. Use [`quantize_for_transport`] inside collectives, where
/// non-finite gradients are an expected mixed-precision event that must
/// propagate rather than fail.
pub fn quantize(values: &[f32], block: usize) -> Result<BlockQuantized, QuantError> {
    if block == 0 {
        return Err(QuantError::ZeroBlock);
    }
    if let Some(index) = values.iter().position(|v| !v.is_finite()) {
        return Err(QuantError::NonFinite { index });
    }
    Ok(quantize_for_transport(values, block))
}

/// Block-quantizes `values` for the wire: blocks containing non-finite
/// values are poisoned (`scale = NaN`) instead of rejected, so overflow
/// survives a compressed collective and downstream skip detection fires.
///
/// # Panics
/// Panics if `block == 0`.
pub fn quantize_for_transport(values: &[f32], block: usize) -> BlockQuantized {
    assert!(block > 0, "quantizer block size must be positive");
    let nb = values.len().div_ceil(block);
    let mut scales = Vec::with_capacity(nb);
    let mut zeros = Vec::with_capacity(nb);
    let mut codes = Vec::with_capacity(values.len());
    for chunk in values.chunks(block) {
        if chunk.iter().all(|v| v.is_finite()) {
            quantize_block(chunk, &mut scales, &mut zeros, &mut codes);
        } else {
            scales.push(f32::NAN);
            zeros.push(0.0);
            codes.extend(std::iter::repeat_n(0_i8, chunk.len()));
        }
    }
    BlockQuantized { len: values.len(), block, scales, zeros, codes }
}

impl BlockQuantized {
    /// Reconstructs the buffer: `v̂ = zero + code·scale` per element.
    /// Poisoned blocks (`scale = NaN`) dequantize to NaN throughout.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len);
        for (b, chunk) in self.codes.chunks(self.block.max(1)).enumerate() {
            let scale = self.scales[b];
            let zero = self.zeros[b];
            if scale.is_nan() {
                out.extend(std::iter::repeat_n(f32::NAN, chunk.len()));
            } else {
                // The clamp keeps finite blocks finite: at extreme
                // magnitudes `zero + 127·scale` can round one ulp past
                // f32::MAX. The original values sit inside the clamp
                // range, so clamping never worsens the error bound.
                out.extend(
                    chunk
                        .iter()
                        .map(|&c| (zero + f32::from(c) * scale).clamp(f32::MIN, f32::MAX)),
                );
            }
        }
        out
    }

    /// Serializes to an f32 stream (`[scales… ‖ zeros… ‖ codes…]`) so the
    /// compressed representation can travel the existing f32 fabric. Int8
    /// codes are exactly representable in f32, so encode/decode round-trips
    /// bit-for-bit and requantization error never compounds across hops.
    pub fn encode(&self) -> Vec<f32> {
        let nb = self.scales.len();
        let mut out = Vec::with_capacity(2 * nb + self.len);
        out.extend_from_slice(&self.scales);
        out.extend_from_slice(&self.zeros);
        out.extend(self.codes.iter().map(|&c| f32::from(c)));
        out
    }

    /// Inverse of [`encode`](Self::encode) for a chunk of known `len` and
    /// `block`.
    ///
    /// # Panics
    /// Panics if the stream length is inconsistent with `len`/`block`.
    pub fn decode(stream: &[f32], len: usize, block: usize) -> BlockQuantized {
        assert!(block > 0, "quantizer block size must be positive");
        let nb = len.div_ceil(block);
        assert_eq!(stream.len(), 2 * nb + len, "quantized stream length mismatch");
        let scales = stream[..nb].to_vec();
        let zeros = stream[nb..2 * nb].to_vec();
        let codes = stream[2 * nb..]
            .iter()
            .map(|&v| clamped_code(v.clamp(-127.0, 127.0)))
            .collect();
        BlockQuantized { len, block, scales, zeros, codes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* generator — the workspace adds no dev
    /// dependencies, so the property-style round-trip sweeps below drive
    /// arbitrary shapes/blocks/values from this instead of proptest.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform in [0, 1).
        fn unit(&mut self) -> f32 {
            (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
        }

        fn range(&mut self, lo: f32, hi: f32) -> f32 {
            lo + (hi - lo) * self.unit()
        }

        fn index(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Round-trip error of every element must respect the per-block
    /// `scale/2` bound (with a hair of float-rounding slack).
    fn assert_round_trip_bound(values: &[f32], block: usize) {
        let q = quantize(values, block).expect("finite input must quantize");
        let back = q.dequantize();
        assert_eq!(back.len(), values.len());
        for (b, chunk) in values.chunks(block).enumerate() {
            let scale = q.scales[b];
            assert!(scale.is_finite() && scale >= 0.0, "block {b} scale {scale}");
            let bound = 0.5 * scale * (1.0 + 1e-4) + 1e-30;
            for (j, (&v, &r)) in chunk.iter().zip(&back[b * block..]).enumerate() {
                let err = (v - r).abs();
                assert!(
                    err <= bound,
                    "block {b} elem {j}: |{v} - {r}| = {err} > scale/2 = {}",
                    0.5 * scale
                );
            }
        }
    }

    #[test]
    fn round_trip_error_within_half_scale() {
        let values: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin() * 4.0).collect();
        assert_round_trip_bound(&values, 64);
        assert_round_trip_bound(&values, 7);
        assert_round_trip_bound(&values, 300);
        assert_round_trip_bound(&values, 1000);
    }

    #[test]
    fn randomized_round_trip_bounds_hold_for_arbitrary_shapes() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for _ in 0..200 {
            let len = rng.index(257); // 0..=256, empty buffers included
            let block = 1 + rng.index(80);
            // Mixed magnitudes: each block can span tiny and large values.
            let mag = 10f32.powf(rng.range(-3.0, 4.0));
            let values: Vec<f32> =
                (0..len).map(|_| rng.range(-mag, mag)).collect();
            assert_round_trip_bound(&values, block);
        }
    }

    #[test]
    fn constant_blocks_are_exact() {
        let values = vec![3.25_f32; 130];
        let q = quantize(&values, 64).unwrap();
        assert_eq!(q.dequantize(), values);
        assert!(q.scales.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn nan_and_inf_rejected_with_typed_errors() {
        let mut values = vec![1.0_f32; 16];
        values[5] = f32::NAN;
        assert_eq!(quantize(&values, 4), Err(QuantError::NonFinite { index: 5 }));
        values[5] = f32::INFINITY;
        assert_eq!(quantize(&values, 4), Err(QuantError::NonFinite { index: 5 }));
        values[5] = f32::NEG_INFINITY;
        assert_eq!(quantize(&values, 4), Err(QuantError::NonFinite { index: 5 }));
        assert_eq!(quantize(&[1.0], 0), Err(QuantError::ZeroBlock));
    }

    #[test]
    fn transport_mode_poisons_only_the_offending_block() {
        let mut values: Vec<f32> = (0..12).map(|i| i as f32).collect();
        values[6] = f32::NAN; // second block of four
        let q = quantize_for_transport(&values, 4);
        let back = q.dequantize();
        assert!(back[..4].iter().all(|v| v.is_finite()));
        assert!(back[4..8].iter().all(|v| v.is_nan()), "poisoned block must stay non-finite");
        assert!(back[8..].iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let mut rng = Rng(42);
        for _ in 0..50 {
            let len = rng.index(200);
            let block = 1 + rng.index(50);
            let values: Vec<f32> = (0..len).map(|_| rng.range(-9.0, 9.0)).collect();
            let q = quantize_for_transport(&values, block);
            let stream = q.encode();
            assert_eq!(stream.len() as u64, (2 * len.div_ceil(block) + len) as u64);
            let d = BlockQuantized::decode(&stream, len, block);
            assert_eq!(d, q, "decode(encode(q)) must be identity");
        }
    }

    #[test]
    fn wire_bytes_formula() {
        assert_eq!(quant_wire_bytes(0, 64), 0);
        assert_eq!(quant_wire_bytes(1, 64), 1 + 8);
        assert_eq!(quant_wire_bytes(64, 64), 64 + 8);
        assert_eq!(quant_wire_bytes(65, 64), 65 + 16);
        assert_eq!(quant_wire_bytes(1000, 64), 1000 + 8 * 16);
        // Compressed fp16 ratio at the default block: ~1.7× under 2 B/elem.
        assert!(quant_wire_bytes(4096, DEFAULT_QUANT_BLOCK) * 7 < 2 * 4096 * 4);
    }

    #[test]
    fn extreme_magnitudes_do_not_overflow() {
        let values = vec![f32::MAX, f32::MIN, 0.0, 1.0];
        let q = quantize(&values, 4).unwrap();
        assert!(q.scales[0].is_finite());
        let back = q.dequantize();
        assert!(back.iter().all(|v| v.is_finite()));
    }
}
