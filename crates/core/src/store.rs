//! Flat model-state storage in genuine fp16 or fp32 width.
//!
//! The paper's byte arithmetic (2Ψ fp16 parameters, 2Ψ fp16 gradients,
//! 12Ψ fp32 optimizer states) only means something if the fp16 tensors
//! really occupy two bytes per element. [`FlatStore`] provides that: the
//! fp16 variant stores `F16` words and quantizes on every write, exactly
//! like the fp16 working copies in mixed-precision training; the fp32
//! variant backs the exact-equivalence test mode.
//!
//! A store holds one slice of flat parameter space — all of it, a rank's
//! 1/N_d shard, or hpZ's node-local 1/G shard — and is read and written in
//! flat coordinates: a caller names the flat range it moves and the store
//! places it in its own buffer. The working parameters, the hpZ secondary
//! copy and the gradients are all this one kind of store.

use std::ops::Range;

use zero_tensor::f16::{f16_add_slice, f16_to_f32_slice, f32_to_f16_slice};
use zero_tensor::ops::activation::acc;
use zero_tensor::F16;

/// A slice of flat parameter/gradient space with a selectable element
/// width.
pub struct FlatStore {
    at: Range<usize>,
    words: Words,
}

/// A store's elements.
enum Words {
    /// 4 bytes/element; writes are exact.
    F32(Vec<f32>),
    /// 2 bytes/element; writes round to nearest even.
    F16(Vec<F16>),
}

impl FlatStore {
    /// Zero-initialized storage for the flat slice `at`.
    pub fn zeros(at: Range<usize>, fp16: bool) -> FlatStore {
        let words = if fp16 {
            Words::F16(vec![F16::ZERO; at.len()])
        } else {
            Words::F32(vec![0.0; at.len()])
        };
        FlatStore { at, words }
    }

    /// The flat slice `at`, initialized from `src`, which covers it
    /// (quantizing if fp16).
    pub fn from_f32(at: Range<usize>, src: &[f32], fp16: bool) -> FlatStore {
        let mut s = FlatStore::zeros(at.clone(), fp16);
        s.write(at, src);
        s
    }

    /// Bytes occupied by the storage.
    pub fn bytes(&self) -> u64 {
        match &self.words {
            Words::F32(v) => 4 * v.len() as u64,
            Words::F16(v) => 2 * v.len() as u64,
        }
    }

    /// The part of `span` this store holds (empty if none).
    fn overlap(&self, span: &Range<usize>) -> Range<usize> {
        span.start.max(self.at.start)..span.end.min(self.at.end)
    }

    /// Where the flat range `flat` sits in the buffer. An empty range maps
    /// to an empty one wherever it lies.
    ///
    /// # Panics
    /// Panics if a non-empty `flat` reaches outside the store's slice.
    fn local(&self, flat: Range<usize>) -> Range<usize> {
        if flat.is_empty() {
            return 0..0;
        }
        let at = &self.at;
        assert!(at.start <= flat.start && flat.end <= at.end, "flat {flat:?} outside store {at:?}");
        flat.start - at.start..flat.end - at.start
    }

    /// Reads the flat range `flat` into a fresh `Vec<f32>` (widening if
    /// fp16).
    pub fn read(&self, flat: Range<usize>) -> Vec<f32> {
        let range = self.local(flat);
        match &self.words {
            Words::F32(v) => v[range].to_vec(),
            Words::F16(v) => {
                let mut out = vec![0.0; range.len()];
                f16_to_f32_slice(&v[range], &mut out);
                out
            }
        }
    }

    /// This store's piece of `span`: what it contributes to a gather of it.
    pub fn piece(&self, span: &Range<usize>) -> Vec<f32> {
        self.read(self.overlap(span))
    }

    /// Writes f32 values over the flat range `flat` (quantizing if fp16).
    ///
    /// # Panics
    /// Panics if `src.len() != flat.len()`.
    pub fn write(&mut self, flat: Range<usize>, src: &[f32]) {
        assert_eq!(src.len(), flat.len(), "store write: length mismatch");
        let range = self.local(flat);
        match &mut self.words {
            Words::F32(v) => v[range].copy_from_slice(src),
            Words::F16(v) => f32_to_f16_slice(src, &mut v[range]),
        }
    }

    /// Accumulates f32 values into the flat range `flat` (`store += src`),
    /// performing the read-modify-write in f32 and re-quantizing — how fp16
    /// gradient accumulation behaves in practice.
    pub fn add(&mut self, flat: Range<usize>, src: &[f32]) {
        assert_eq!(src.len(), flat.len(), "store add: length mismatch");
        let range = self.local(flat);
        match &mut self.words {
            Words::F32(v) => acc(&mut v[range], src),
            Words::F16(v) => f16_add_slice(&mut v[range], src),
        }
    }

    /// Keeps the part of `span` this store holds out of `data`, which
    /// covers all of `span`.
    pub fn stash(&mut self, span: &Range<usize>, data: &[f32]) {
        let mine = self.overlap(span);
        if !mine.is_empty() {
            let from = mine.start - span.start..mine.end - span.start;
            self.write(mine, &data[from]);
        }
    }

    /// Sets every element to zero.
    pub fn zero(&mut self) {
        match &mut self.words {
            Words::F32(v) => v.fill(0.0),
            Words::F16(v) => v.fill(F16::ZERO),
        }
    }

    /// True if any element of the flat range `flat` is NaN or infinite.
    pub fn has_non_finite(&self, flat: Range<usize>) -> bool {
        let range = self.local(flat);
        match &self.words {
            Words::F32(v) => v[range].iter().any(|x| !x.is_finite()),
            Words::F16(v) => v[range].iter().any(|x| !x.is_finite()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trip_is_exact() {
        let src = vec![0.1_f32, -2.7, 1e-8, 3e7];
        let s = FlatStore::from_f32(0..4, &src, false);
        assert_eq!(s.read(0..4), src);
        assert_eq!(s.bytes(), 16);
    }

    #[test]
    fn f16_quantizes_on_write() {
        let src = vec![0.1_f32, 1.0, 65504.0];
        let s = FlatStore::from_f32(0..3, &src, true);
        let back = s.read(0..3);
        assert_eq!(back[1], 1.0);
        assert_eq!(back[2], 65504.0);
        assert!((back[0] - 0.1).abs() < 1e-4 && back[0] != 0.1);
        assert_eq!(s.bytes(), 6, "2 bytes per element");
    }

    #[test]
    fn partial_reads_and_writes() {
        let mut s = FlatStore::zeros(0..6, false);
        s.write(2..5, &[1.0, 2.0, 3.0]);
        assert_eq!(s.read(0..6), vec![0.0, 0.0, 1.0, 2.0, 3.0, 0.0]);
        s.add(2..4, &[10.0, 10.0]);
        assert_eq!(s.read(2..4), vec![11.0, 12.0]);
        s.zero();
        assert_eq!(s.read(0..6), vec![0.0; 6]);
    }

    #[test]
    fn f16_accumulation_quantizes_each_step() {
        let mut s = FlatStore::zeros(0..1, true);
        // 2048 + 1 is not representable in fp16 (ulp at 2048 is 2).
        s.write(0..1, &[2048.0]);
        s.add(0..1, &[1.0]);
        assert_eq!(s.read(0..1)[0], 2048.0, "swallowed by fp16 rounding");
    }

    #[test]
    fn non_finite_detection_both_widths() {
        let mut a = FlatStore::zeros(0..3, false);
        a.write(1..2, &[f32::NAN]);
        assert!(a.has_non_finite(0..3));
        assert!(!a.has_non_finite(2..3));
        let mut b = FlatStore::zeros(0..3, true);
        b.write(0..1, &[1e9]); // overflows fp16 to +inf
        assert!(b.has_non_finite(0..3));
    }

    #[test]
    fn a_shard_works_in_flat_coordinates() {
        let mut s = FlatStore::from_f32(10..14, &[1.0, 2.0, 3.0, 4.0], false);
        assert_eq!(s.read(11..13), vec![2.0, 3.0]);
        // A span straddling the slice contributes only the overlap, and a
        // disjoint one nothing, wherever it lies.
        assert_eq!(s.piece(&(12..20)), vec![3.0, 4.0]);
        assert!(s.piece(&(0..5)).is_empty() && s.piece(&(30..40)).is_empty());
        assert!(s.read(30..30).is_empty());
        // A gathered span keeps only this store's part of it.
        s.stash(&(8..12), &[9.0, 9.0, 7.0, 8.0]);
        assert_eq!(s.read(10..14), vec![7.0, 8.0, 3.0, 4.0]);
        s.stash(&(20..22), &[5.0, 5.0]);
        s.add(13..14, &[1.0]);
        assert_eq!(s.read(10..14), vec![7.0, 8.0, 3.0, 5.0]);
        s.write(10..11, &[f32::NAN]);
        assert!(s.has_non_finite(10..12) && !s.has_non_finite(11..14));
        s.zero();
        assert_eq!(s.read(10..14), vec![0.0; 4]);
        let outside = std::panic::catch_unwind(|| FlatStore::zeros(10..14, true).read(9..11));
        assert!(outside.is_err(), "a read reaching outside the slice is refused");
    }
}
