//! Per-unit partitioning of model states across data-parallel ranks.
//!
//! ZeRO-DP groups the flattened model states "into N_d equal partitions,
//! such that the i-th data parallel process only updates the optimizer
//! states corresponding to the i-th partition" (§5.1). The paper cuts the
//! global flat space once; then a unit (one block, say) usually lies inside
//! one owner's range, and the collective that materializes or reduces it
//! runs owner-only — same volume, N× the critical path. Training instead
//! splits *every unit* N ways, as DeepSpeed's ZeRO-3 holds 1/N of every
//! layer: owner i's shard is the concatenation, in unit order, of
//! `chunk_range(unit_len, N, i)` over the units. Every op over a run of
//! whole units is then balanced to one element per unit, and the volume is
//! the paper's.
//!
//! A shard is read in its owner's *local* order. Owner-local order is
//! monotone in flat order, so the elements an owner holds of any flat range
//! are one contiguous local slice ([`Partitioner::local_slice_of`]); the
//! flat ranges a local slice holds come back from
//! [`Partitioner::flat_ranges`]. Owner 0 holds the largest piece of every
//! unit, so its local positions double as the shard space's *rows*: a CB
//! chunk (§6.2) is a range of rows, and [`Partitioner::chunk_slice`] gives
//! each owner's equal slice of it.
//!
//! [`Partitioner::new`] is the one-unit case — the contiguous flat split
//! serving shards use — so there `shard_range` is the owner's flat range.

use std::ops::Range;

use zero_comm::chunk_range;
use zero_model::Layout;

/// A partition of `total` flat elements, unit by unit, over `n` owners.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partitioner {
    /// Unit boundaries: unit u is `bounds[u]..bounds[u + 1]`, the last is Ψ.
    bounds: Vec<usize>,
    /// `local[u * n + i]`: where unit u's piece starts in owner i's shard
    /// (u = unit count gives the shard lengths).
    local: Vec<usize>,
    n: usize,
}

impl Partitioner {
    /// One unit of `total` elements over `n` owners: contiguous flat shards.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(total: usize, n: usize) -> Partitioner {
        Partitioner::from_lens(&[total], n)
    }

    /// Every unit of `layout` split `n` ways — training's partition.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn per_unit(layout: &Layout, n: usize) -> Partitioner {
        let lens: Vec<usize> = layout.units().iter().map(|u| u.range.len()).collect();
        Partitioner::from_lens(&lens, n)
    }

    /// Units of the given lengths, in flat order, each split `n` ways.
    pub(crate) fn from_lens(lens: &[usize], n: usize) -> Partitioner {
        assert!(n > 0, "cannot partition over zero owners");
        let mut bounds = vec![0];
        let mut local = vec![0; n];
        for &len in lens {
            bounds.push(bounds[bounds.len() - 1] + len);
            let next: Vec<usize> = (0..n).map(|i| local[local.len() - n + i] + chunk_range(len, n, i).len()).collect();
            local.extend(next);
        }
        Partitioner { bounds, local, n }
    }

    /// Element count of every unit, in flat order.
    pub(crate) fn unit_lens(&self) -> Vec<usize> {
        self.bounds.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Total flat elements.
    pub fn total(&self) -> usize {
        self.bounds[self.bounds.len() - 1]
    }

    /// Number of owners N_d.
    pub fn owners(&self) -> usize {
        self.n
    }

    fn units(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Owner `i`'s piece of unit `u`, as a range of the unit.
    fn piece(&self, u: usize, i: usize) -> Range<usize> {
        chunk_range(self.bounds[u + 1] - self.bounds[u], self.n, i)
    }

    /// The unit holding flat element `idx` (`idx < total`).
    fn unit_of(&self, idx: usize) -> usize {
        self.bounds.partition_point(|&b| b <= idx) - 1
    }

    /// Owner `i`'s shard as a range of shard space (every shard laid end to
    /// end in owner order) — of the flat space itself for one unit.
    pub fn shard_range(&self, i: usize) -> Range<usize> {
        assert!(i < self.n, "owner {i} out of range");
        let start = self.counts()[..i].iter().sum();
        start..start + self.len(i)
    }

    fn len(&self, i: usize) -> usize {
        self.local[self.units() * self.n + i]
    }

    /// All shard lengths, in owner order.
    pub fn counts(&self) -> Vec<usize> {
        (0..self.n).map(|i| self.len(i)).collect()
    }

    /// The owner of flat element `idx`.
    pub fn owner_of(&self, idx: usize) -> usize {
        assert!(idx < self.total(), "element {idx} out of range");
        let u = self.unit_of(idx);
        let (len, off) = (self.bounds[u + 1] - self.bounds[u], idx - self.bounds[u]);
        // Balanced chunks: the first `rem` owners have base+1 elements.
        let (base, rem) = (len / self.n, len % self.n);
        let big = (base + 1) * rem;
        if off < big {
            off / (base + 1)
        } else {
            rem + (off - big) / base.max(1)
        }
    }

    /// How many of owner `i`'s elements lie before flat position `pos`.
    fn local_of(&self, i: usize, pos: usize) -> usize {
        if pos >= self.total() {
            return self.len(i);
        }
        let u = self.unit_of(pos);
        let piece = self.piece(u, i);
        let off = (pos - self.bounds[u]).clamp(piece.start, piece.end) - piece.start;
        self.local[u * self.n + i] + off
    }

    /// For a flat subrange (e.g. one layer's parameters), the length of its
    /// intersection with each owner's shard — the `counts` argument for
    /// `start_all_gather` / `start_reduce_scatter`.
    pub fn intersect_counts(&self, range: &Range<usize>) -> Vec<usize> {
        (0..self.n).map(|i| self.local_slice_of(i, range).len()).collect()
    }

    /// The slice of owner `i`'s shard that stores its part of the flat
    /// `range`, in shard-local coordinates (empty when it holds none).
    pub fn local_slice_of(&self, i: usize, range: &Range<usize>) -> Range<usize> {
        self.local_of(i, range.start)..self.local_of(i, range.end.max(range.start))
    }

    /// Owner `i`'s slice of the CB chunk `rows`, a range of owner 0's
    /// shard: the same rows of every unit piece, so slices of one chunk
    /// differ by at most one element per unit the chunk touches.
    pub fn chunk_slice(&self, i: usize, rows: Range<usize>) -> Range<usize> {
        let at = |row: usize| {
            if row >= self.len(0) {
                return self.len(i);
            }
            let u = (0..self.units()).rfind(|&u| self.local[u * self.n] <= row).expect("row 0 starts unit 0");
            let piece = self.piece(u, i).len();
            self.local[u * self.n + i] + (row - self.local[u * self.n]).min(piece)
        };
        at(rows.start)..at(rows.end)
    }

    /// The flat ranges owner `i`'s local slice `local` holds, in order,
    /// adjacent ones merged.
    pub fn flat_ranges(&self, i: usize, local: Range<usize>) -> Vec<Range<usize>> {
        let mut out: Vec<Range<usize>> = Vec::new();
        for u in 0..self.units() {
            let at = self.local[u * self.n + i];
            let piece = self.piece(u, i);
            let (lo, hi) = (local.start.max(at), local.end.min(at + piece.len()));
            if lo >= hi {
                continue;
            }
            let flat = self.bounds[u] + piece.start + (lo - at)..self.bounds[u] + piece.start + (hi - at);
            match out.last_mut() {
                Some(last) if last.end == flat.start => last.end = flat.end,
                _ => out.push(flat),
            }
        }
        out
    }

    /// Proves the tiling invariants of this partition by arithmetic:
    ///
    /// * **cover + disjoint**: the owners' flat ranges, laid out in flat
    ///   order, run `0..total` with no gap or overlap — every flat element
    ///   is owned by exactly one rank — and each shard's ranges add up to
    ///   its length;
    /// * **per-unit balance**: within every unit, pieces differ by at most
    ///   one element (the padding the balanced-uneven split absorbs);
    /// * **owner agreement**: the closed-form [`Self::owner_of`] agrees
    ///   with the ranges at every piece boundary (first and last element —
    ///   the only places the closed form can break) and on a strided
    ///   interior sample.
    ///
    /// Returns `Err` with a description of the first violated invariant.
    pub fn verify_tiling(&self) -> Result<(), String> {
        let (total, n) = (self.total(), self.n);
        let mut owned: Vec<(Range<usize>, usize)> = Vec::new();
        for i in 0..n {
            let ranges = self.flat_ranges(i, 0..self.len(i));
            let held: usize = ranges.iter().map(|r| r.len()).sum();
            if held != self.len(i) {
                return Err(format!("shard {i} holds {held} flat elements but has length {} (n={n})", self.len(i)));
            }
            owned.extend(ranges.into_iter().map(|r| (r, i)));
        }
        owned.sort_by_key(|(r, _)| r.start);
        let mut cursor = 0;
        for (r, i) in &owned {
            if r.start != cursor {
                return Err(format!(
                    "owner {i}'s range {r:?} starts at {} but the previous range ended at {cursor} \
                     (total={total}, n={n})",
                    r.start
                ));
            }
            cursor = r.end;
            let stride = (r.len() / 16).max(1);
            for idx in [r.start, r.end - 1].into_iter().chain(r.clone().step_by(stride)) {
                let o = self.owner_of(idx);
                if o != *i {
                    return Err(format!(
                        "owner_of({idx}) = {o} but element lies in shard {i} (total={total}, n={n})"
                    ));
                }
            }
        }
        if cursor != total {
            return Err(format!("shards cover 0..{cursor} but the space is 0..{total} (n={n})"));
        }
        for u in 0..self.units() {
            let lens: Vec<usize> = (0..n).map(|i| self.local[(u + 1) * n + i] - self.local[u * n + i]).collect();
            let (lo, hi) = (lens.iter().min(), lens.iter().max());
            if hi.zip(lo).is_some_and(|(hi, lo)| hi - lo > 1) {
                return Err(format!("unit {u}'s pieces {lens:?} differ by more than one element (n={n})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_unit_shards_are_contiguous_flat_ranges() {
        for total in [0usize, 1, 10, 97, 1024] {
            for n in [1usize, 2, 3, 7, 16] {
                let p = Partitioner::new(total, n);
                let mut cursor = 0;
                for i in 0..n {
                    let r = p.shard_range(i);
                    assert_eq!(r.start, cursor);
                    assert_eq!(r, chunk_range(total, n, i));
                    if !r.is_empty() {
                        assert_eq!(p.flat_ranges(i, 0..r.len()), vec![r.clone()]);
                    }
                    cursor = r.end;
                }
                assert_eq!(cursor, total);
                assert_eq!(p.counts().iter().sum::<usize>(), total);
            }
        }
    }

    #[test]
    fn every_unit_is_split_n_ways() {
        // Units of 10, 7 and 4 over 3 owners: pieces 4/3/3, 3/2/2, 2/1/1.
        let p = Partitioner::from_lens(&[10, 7, 4], 3);
        assert_eq!(p.counts(), vec![9, 6, 6]);
        assert_eq!(p.flat_ranges(1, 0..6), vec![4..7, 13..15, 19..20]);
        assert_eq!(p.intersect_counts(&(10..17)), vec![3, 2, 2]);
        assert_eq!(p.intersect_counts(&(0..21)), p.counts());
        assert_eq!(p.local_slice_of(2, &(10..21)), 3..6);
        // Owner 1 holds 13..15 of the second unit and 19 of the third.
        assert_eq!(p.local_slice_of(1, &(14..20)), 4..6);
        assert_eq!(p.flat_ranges(1, 4..6), vec![14..15, 19..20]);
        for idx in 0..21 {
            let o = p.owner_of(idx);
            assert!(p.flat_ranges(o, 0..p.counts()[o]).iter().any(|r| r.contains(&idx)), "idx {idx}");
        }
        p.verify_tiling().unwrap();
    }

    #[test]
    fn chunk_slices_take_the_same_rows_of_every_piece() {
        let p = Partitioner::from_lens(&[10, 7, 4], 3);
        // Rows 0..9 are owner 0's shard: 4 rows of unit 0, 3 of unit 1, 2 of unit 2.
        assert_eq!((0..3).map(|i| p.chunk_slice(i, 0..4)).collect::<Vec<_>>(), vec![0..4, 0..3, 0..3]);
        assert_eq!((0..3).map(|i| p.chunk_slice(i, 4..9)).collect::<Vec<_>>(), vec![4..9, 3..6, 3..6]);
        assert_eq!(p.chunk_slice(2, 5..6), 4..5);
        assert_eq!(p.chunk_slice(2, 0..9), 0..6);
    }

    #[test]
    fn verify_tiling_accepts_valid_partitions() {
        for total in [0usize, 1, 7, 100, 12345] {
            for n in [1usize, 2, 3, 8, 64] {
                Partitioner::new(total, n).verify_tiling().unwrap();
                Partitioner::from_lens(&[total, 3, total / 2, 1], n).verify_tiling().unwrap();
            }
        }
    }

    #[test]
    fn empty_intersections_for_disjoint_ranges() {
        let p = Partitioner::new(100, 4); // shards of 25
        assert_eq!(p.intersect_counts(&(0..10)), vec![10, 0, 0, 0]);
        assert!(p.local_slice_of(3, &(0..10)).is_empty());
        assert!(p.local_slice_of(0, &(40..40)).is_empty());
    }
}
