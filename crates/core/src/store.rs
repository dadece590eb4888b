//! Flat model-state storage in genuine fp16 or fp32 width.
//!
//! The paper's byte arithmetic (2Ψ fp16 parameters, 2Ψ fp16 gradients,
//! 12Ψ fp32 optimizer states) only means something if the fp16 tensors
//! really occupy two bytes per element. [`FlatStore`] provides that: the
//! fp16 variant stores `F16` words and quantizes on every write, exactly
//! like the fp16 working copies in mixed-precision training; the fp32
//! variant backs the exact-equivalence test mode.

use zero_tensor::F16;

/// A flat parameter/gradient buffer with a selectable element width.
pub enum FlatStore {
    /// 4 bytes/element; writes are exact.
    F32(Vec<f32>),
    /// 2 bytes/element; writes round to nearest even.
    F16(Vec<F16>),
}

impl FlatStore {
    /// Zero-initialized storage of `len` elements.
    pub fn zeros(len: usize, fp16: bool) -> FlatStore {
        if fp16 {
            FlatStore::F16(vec![F16::ZERO; len])
        } else {
            FlatStore::F32(vec![0.0; len])
        }
    }

    /// Storage initialized from f32 values (quantizing if fp16).
    pub fn from_f32(src: &[f32], fp16: bool) -> FlatStore {
        let mut s = FlatStore::zeros(src.len(), fp16);
        s.write_from(0..src.len(), src);
        s
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            FlatStore::F32(v) => v.len(),
            FlatStore::F16(v) => v.len(),
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied by the storage.
    pub fn bytes(&self) -> u64 {
        match self {
            FlatStore::F32(v) => 4 * v.len() as u64,
            FlatStore::F16(v) => 2 * v.len() as u64,
        }
    }

    /// Reads `range` into a fresh `Vec<f32>` (widening if fp16).
    pub fn read_vec(&self, range: std::ops::Range<usize>) -> Vec<f32> {
        match self {
            FlatStore::F32(v) => v[range].to_vec(),
            FlatStore::F16(v) => v[range].iter().map(|h| h.to_f32()).collect(),
        }
    }

    /// Writes f32 values into `range` (quantizing if fp16).
    ///
    /// # Panics
    /// Panics if `src.len() != range.len()`.
    pub fn write_from(&mut self, range: std::ops::Range<usize>, src: &[f32]) {
        assert_eq!(src.len(), range.len(), "store write: length mismatch");
        match self {
            FlatStore::F32(v) => v[range].copy_from_slice(src),
            FlatStore::F16(v) => {
                for (h, &s) in v[range].iter_mut().zip(src) {
                    *h = F16::from_f32(s);
                }
            }
        }
    }

    /// Accumulates f32 values into `range` (`store += src`), performing the
    /// read-modify-write in f32 and re-quantizing — how fp16 gradient
    /// accumulation behaves in practice.
    pub fn add_from(&mut self, range: std::ops::Range<usize>, src: &[f32]) {
        assert_eq!(src.len(), range.len(), "store add: length mismatch");
        match self {
            FlatStore::F32(v) => {
                for (d, &s) in v[range].iter_mut().zip(src) {
                    *d += s;
                }
            }
            FlatStore::F16(v) => {
                for (h, &s) in v[range].iter_mut().zip(src) {
                    *h = F16::from_f32(h.to_f32() + s);
                }
            }
        }
    }

    /// Sets every element of `range` to zero.
    pub fn zero_range(&mut self, range: std::ops::Range<usize>) {
        match self {
            FlatStore::F32(v) => v[range].iter_mut().for_each(|x| *x = 0.0),
            FlatStore::F16(v) => v[range].iter_mut().for_each(|x| *x = F16::ZERO),
        }
    }

    /// True if any element of `range` is NaN or infinite.
    pub fn has_non_finite(&self, range: std::ops::Range<usize>) -> bool {
        match self {
            FlatStore::F32(v) => v[range].iter().any(|x| !x.is_finite()),
            FlatStore::F16(v) => v[range].iter().any(|x| !x.is_finite()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trip_is_exact() {
        let src = vec![0.1_f32, -2.7, 1e-8, 3e7];
        let s = FlatStore::from_f32(&src, false);
        assert_eq!(s.read_vec(0..4), src);
        assert_eq!(s.bytes(), 16);
    }

    #[test]
    fn f16_quantizes_on_write() {
        let src = vec![0.1_f32, 1.0, 65504.0];
        let s = FlatStore::from_f32(&src, true);
        let back = s.read_vec(0..3);
        assert_eq!(back[1], 1.0);
        assert_eq!(back[2], 65504.0);
        assert!((back[0] - 0.1).abs() < 1e-4 && back[0] != 0.1);
        assert_eq!(s.bytes(), 6, "2 bytes per element");
    }

    #[test]
    fn partial_reads_and_writes() {
        let mut s = FlatStore::zeros(6, false);
        s.write_from(2..5, &[1.0, 2.0, 3.0]);
        assert_eq!(s.read_vec(0..6), vec![0.0, 0.0, 1.0, 2.0, 3.0, 0.0]);
        s.add_from(2..4, &[10.0, 10.0]);
        assert_eq!(s.read_vec(2..4), vec![11.0, 12.0]);
        s.zero_range(0..6);
        assert_eq!(s.read_vec(0..6), vec![0.0; 6]);
    }

    #[test]
    fn f16_accumulation_quantizes_each_step() {
        let mut s = FlatStore::zeros(1, true);
        // 2048 + 1 is not representable in fp16 (ulp at 2048 is 2).
        s.write_from(0..1, &[2048.0]);
        s.add_from(0..1, &[1.0]);
        assert_eq!(s.read_vec(0..1)[0], 2048.0, "swallowed by fp16 rounding");
    }

    #[test]
    fn non_finite_detection_both_widths() {
        let mut a = FlatStore::zeros(3, false);
        a.write_from(1..2, &[f32::NAN]);
        assert!(a.has_non_finite(0..3));
        assert!(!a.has_non_finite(2..3));
        let mut b = FlatStore::zeros(3, true);
        b.write_from(0..1, &[1e9]); // overflows fp16 to +inf
        assert!(b.has_non_finite(0..3));
    }
}
