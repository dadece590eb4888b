//! Flat model-state storage in genuine fp16 or fp32 width.
//!
//! The paper's byte arithmetic (2Ψ fp16 parameters, 2Ψ fp16 gradients,
//! 12Ψ fp32 optimizer states) only means something if the fp16 tensors
//! really occupy two bytes per element. [`FlatStore`] provides that: the
//! fp16 variant stores `F16` words and quantizes on every write, exactly
//! like the fp16 working copies in mixed-precision training; the fp32
//! variant backs the exact-equivalence test mode.
//!
//! A store holds one owner's shard of a [`Partitioner`] — all of flat
//! space (the one-owner partition), a rank's 1/N_d per-unit shard, or
//! hpZ's node-local 1/G shard — and is read and written in flat
//! coordinates: a caller names a flat range and the store moves its own
//! part of it, which is one contiguous slice of its buffer. A list of flat
//! ranges (a shard's, or a CB chunk's rank-major view) is gathered and
//! scattered range by range. The working parameters, the hpZ secondary
//! copy and the gradients are all this one kind of store.

use std::ops::Range;

use zero_tensor::f16::{f16_add_slice, f16_to_f32_slice, f32_to_f16_slice};
use zero_tensor::ops::activation::acc;
use zero_tensor::F16;

use crate::partition::Partitioner;

/// One owner's shard of flat parameter/gradient space with a selectable
/// element width.
pub struct FlatStore {
    part: Partitioner,
    owner: usize,
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
    /// Zero-initialized storage for `owner`'s shard of `part`.
    pub fn zeros(part: &Partitioner, owner: usize, fp16: bool) -> FlatStore {
        let len = part.counts()[owner];
        let words = if fp16 { Words::F16(vec![F16::ZERO; len]) } else { Words::F32(vec![0.0; len]) };
        FlatStore { part: part.clone(), owner, words }
    }

    /// `owner`'s shard of `part`, initialized from `src`, which covers all
    /// of flat space (quantizing if fp16).
    pub fn from_f32(part: &Partitioner, owner: usize, src: &[f32], fp16: bool) -> FlatStore {
        let mut s = FlatStore::zeros(part, owner, fp16);
        for r in s.ranges() {
            s.write(r.clone(), &src[r]);
        }
        s
    }

    /// The flat ranges this store holds, in buffer order.
    fn ranges(&self) -> Vec<Range<usize>> {
        self.part.flat_ranges(self.owner, 0..self.part.counts()[self.owner])
    }

    /// Bytes occupied by the storage.
    pub fn bytes(&self) -> u64 {
        match &self.words {
            Words::F32(v) => 4 * v.len() as u64,
            Words::F16(v) => 2 * v.len() as u64,
        }
    }

    /// Where this store's part of the flat range `span` sits in the buffer.
    fn local(&self, span: &Range<usize>) -> Range<usize> {
        self.part.local_slice_of(self.owner, span)
    }

    /// Reads this store's part of `span` into a fresh `Vec<f32>` (widening
    /// if fp16) — all of it for a full store, what a shard contributes to a
    /// gather of it otherwise.
    pub fn read(&self, span: Range<usize>) -> Vec<f32> {
        let mut out = vec![0.0; self.local(&span).len()];
        self.read_into(span, &mut out);
        out
    }

    /// [`Self::read`] into `out`, which is exactly as long as that part.
    fn read_into(&self, span: Range<usize>, out: &mut [f32]) {
        let range = self.local(&span);
        match &self.words {
            Words::F32(v) => out.copy_from_slice(&v[range]),
            Words::F16(v) => f16_to_f32_slice(&v[range], out),
        }
    }

    /// Writes f32 values over this store's part of `span` (quantizing if
    /// fp16).
    ///
    /// # Panics
    /// Panics if `src` is not as long as that part.
    pub fn write(&mut self, span: Range<usize>, src: &[f32]) {
        let range = self.local(&span);
        assert_eq!(src.len(), range.len(), "store write: length mismatch");
        match &mut self.words {
            Words::F32(v) => v[range].copy_from_slice(src),
            Words::F16(v) => f32_to_f16_slice(src, &mut v[range]),
        }
    }

    /// Accumulates f32 values into this store's part of `span` (`store +=
    /// src`), performing the read-modify-write in f32 and re-quantizing —
    /// how fp16 gradient accumulation behaves in practice.
    pub fn add(&mut self, span: Range<usize>, src: &[f32]) {
        let range = self.local(&span);
        assert_eq!(src.len(), range.len(), "store add: length mismatch");
        match &mut self.words {
            Words::F32(v) => acc(&mut v[range], src),
            Words::F16(v) => f16_add_slice(&mut v[range], src),
        }
    }

    /// Keeps the part of `span` this store holds out of `data`, which
    /// covers all of `span` in flat order.
    pub fn stash(&mut self, span: &Range<usize>, data: &[f32]) {
        for r in self.part.flat_ranges(self.owner, self.local(span)) {
            let from = r.start - span.start..r.end - span.start;
            self.write(r, &data[from]);
        }
    }

    /// Reads the flat `ranges` back to back.
    pub fn gather(&self, ranges: &[Range<usize>]) -> Vec<f32> {
        let lens: Vec<usize> = ranges.iter().map(|r| self.local(r).len()).collect();
        let mut out = vec![0.0; lens.iter().sum()];
        let mut at = 0;
        for (r, len) in ranges.iter().zip(lens) {
            self.read_into(r.clone(), &mut out[at..at + len]);
            at += len;
        }
        out
    }

    /// Writes `src` over the flat `ranges`, back to back.
    pub fn scatter(&mut self, ranges: &[Range<usize>], src: &[f32]) {
        let mut at = 0;
        for r in ranges {
            self.write(r.clone(), &src[at..at + r.len()]);
            at += r.len();
        }
        assert_eq!(at, src.len(), "store scatter: length mismatch");
    }

    /// Sets every element to zero.
    pub fn zero(&mut self) {
        match &mut self.words {
            Words::F32(v) => v.fill(0.0),
            Words::F16(v) => v.fill(F16::ZERO),
        }
    }

    /// True if any element of the flat `ranges` is NaN or infinite.
    pub fn has_non_finite(&self, ranges: &[Range<usize>]) -> bool {
        ranges.iter().any(|r| {
            let range = self.local(r);
            match &self.words {
                Words::F32(v) => v[range].iter().any(|x| !x.is_finite()),
                Words::F16(v) => v[range].iter().any(|x| !x.is_finite()),
            }
        })
    }
}

/// The flat ranges that positions `at` of a buffer laid out as `view` (flat
/// ranges back to back) map to.
pub(crate) fn clip(view: &[Range<usize>], at: Range<usize>) -> Vec<Range<usize>> {
    let mut pos = 0;
    let mut out = Vec::new();
    for r in view {
        let (lo, hi) = (at.start.max(pos), at.end.min(pos + r.len()));
        if lo < hi {
            out.push(r.start + lo - pos..r.start + hi - pos);
        }
        pos += r.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A list holding the one flat range `r`.
    fn one(r: Range<usize>) -> Vec<Range<usize>> {
        vec![r]
    }

    fn full(src: &[f32], fp16: bool) -> FlatStore {
        FlatStore::from_f32(&Partitioner::new(src.len(), 1), 0, src, fp16)
    }

    #[test]
    fn f32_round_trip_is_exact() {
        let src = vec![0.1_f32, -2.7, 1e-8, 3e7];
        let s = full(&src, false);
        assert_eq!(s.read(0..4), src);
        assert_eq!(s.bytes(), 16);
    }

    #[test]
    fn f16_quantizes_on_write() {
        let src = vec![0.1_f32, 1.0, 65504.0];
        let s = full(&src, true);
        let back = s.read(0..3);
        assert_eq!(back[1], 1.0);
        assert_eq!(back[2], 65504.0);
        assert!((back[0] - 0.1).abs() < 1e-4 && back[0] != 0.1);
        assert_eq!(s.bytes(), 6, "2 bytes per element");
    }

    #[test]
    fn partial_reads_and_writes() {
        let mut s = full(&[0.0; 6], false);
        s.write(2..5, &[1.0, 2.0, 3.0]);
        assert_eq!(s.read(0..6), vec![0.0, 0.0, 1.0, 2.0, 3.0, 0.0]);
        s.add(2..4, &[10.0, 10.0]);
        assert_eq!(s.read(2..4), vec![11.0, 12.0]);
        s.zero();
        assert_eq!(s.read(0..6), vec![0.0; 6]);
    }

    #[test]
    fn f16_accumulation_quantizes_each_step() {
        let mut s = full(&[0.0], true);
        // 2048 + 1 is not representable in fp16 (ulp at 2048 is 2).
        s.write(0..1, &[2048.0]);
        s.add(0..1, &[1.0]);
        assert_eq!(s.read(0..1)[0], 2048.0, "swallowed by fp16 rounding");
    }

    #[test]
    fn non_finite_detection_both_widths() {
        let mut a = full(&[0.0; 3], false);
        a.write(1..2, &[f32::NAN]);
        assert!(a.has_non_finite(&one(0..3)));
        assert!(!a.has_non_finite(&[0..1, 2..3]));
        let mut b = full(&[0.0; 3], true);
        b.write(0..1, &[1e9]); // overflows fp16 to +inf
        assert!(b.has_non_finite(&one(0..3)));
    }

    #[test]
    fn a_shard_works_in_flat_coordinates() {
        // Units 0..4 and 4..8 over two owners: owner 1 holds 2..4 and 6..8.
        let part = Partitioner::from_lens(&[4, 4], 2);
        let flat: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut s = FlatStore::from_f32(&part, 1, &flat, false);
        assert_eq!(s.ranges(), vec![2..4, 6..8]);
        assert_eq!(s.read(0..8), vec![2.0, 3.0, 6.0, 7.0]);
        // A span reaching into the shard contributes only its part, and a
        // disjoint one nothing, wherever it lies.
        assert_eq!(s.read(3..7), vec![3.0, 6.0]);
        assert!(s.read(0..2).is_empty() && s.read(4..6).is_empty());
        // A gathered span keeps only this store's part of it.
        s.stash(&(4..8), &[9.0, 9.0, 7.0, 8.0]);
        assert_eq!(s.gather(&[6..8, 2..4]), vec![7.0, 8.0, 2.0, 3.0]);
        s.scatter(&[3..4, 6..7], &[5.0, 5.0]);
        s.add(7..8, &[1.0]);
        assert_eq!(s.read(0..8), vec![2.0, 5.0, 5.0, 9.0]);
        s.write(2..3, &[f32::NAN]);
        assert!(s.has_non_finite(&one(0..3)) && !s.has_non_finite(&one(3..8)));
        s.zero();
        assert_eq!(s.read(0..8), vec![0.0; 4]);
    }

    #[test]
    fn clip_maps_buffer_positions_to_flat_ranges() {
        let view = [10..14, 2..4, 20..23];
        assert_eq!(clip(&view, 0..9), view.to_vec());
        assert_eq!(clip(&view, 3..7), vec![13..14, 2..4, 20..21]);
        assert!(clip(&view, 9..9).is_empty());
    }
}
