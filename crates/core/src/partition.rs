//! Flat-space partitioning of model states across data-parallel ranks.
//!
//! ZeRO-DP groups the flattened model states "into N_d equal partitions,
//! such that the i-th data parallel process only updates the optimizer
//! states corresponding to the i-th partition" (§5.1). The partition is
//! over the *global flat element space*, so a layer's parameter range
//! generally straddles several owners; [`Partitioner::intersect_counts`]
//! computes the per-owner pieces the variable-count collectives consume.

use zero_comm::chunk_range;

/// A balanced partition of `total` flat elements over `n` owners.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partitioner {
    total: usize,
    n: usize,
}

impl Partitioner {
    /// Creates a partition of `total` elements over `n` owners.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(total: usize, n: usize) -> Partitioner {
        assert!(n > 0, "cannot partition over zero owners");
        Partitioner { total, n }
    }

    /// Total flat elements.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of owners N_d.
    pub fn owners(&self) -> usize {
        self.n
    }

    /// Owner `i`'s shard as a range of the flat space.
    pub fn shard_range(&self, i: usize) -> std::ops::Range<usize> {
        assert!(i < self.n, "owner {i} out of range");
        chunk_range(self.total, self.n, i)
    }

    /// All shard lengths, in owner order.
    pub fn counts(&self) -> Vec<usize> {
        (0..self.n).map(|i| self.shard_range(i).len()).collect()
    }

    /// The owner of flat element `idx`.
    pub fn owner_of(&self, idx: usize) -> usize {
        assert!(idx < self.total, "element {idx} out of range");
        // Balanced chunks: the first `rem` owners have base+1 elements.
        let base = self.total / self.n;
        let rem = self.total % self.n;
        let big = (base + 1) * rem;
        if idx < big {
            idx / (base + 1)
        } else {
            rem + (idx - big) / base.max(1)
        }
    }

    /// For a flat subrange (e.g. one layer's parameters), the length of its
    /// intersection with each owner's shard — the `counts` argument for
    /// `start_all_gather` / `start_reduce_scatter`.
    pub fn intersect_counts(&self, range: &std::ops::Range<usize>) -> Vec<usize> {
        (0..self.n)
            .map(|i| {
                let s = self.shard_range(i);
                let lo = s.start.max(range.start);
                let hi = s.end.min(range.end);
                hi.saturating_sub(lo)
            })
            .collect()
    }

    /// Proves the tiling invariants of this partition by arithmetic:
    ///
    /// * **cover + disjoint**: the shards are contiguous and ordered, so
    ///   `shard_0 ‖ shard_1 ‖ … = 0..total` with no gaps or overlaps —
    ///   every flat element is owned by exactly one rank;
    /// * **balance**: shard lengths differ by at most one element (the
    ///   padding the balanced-uneven split absorbs);
    /// * **owner agreement**: the closed-form [`Self::owner_of`] agrees
    ///   with [`Self::shard_range`] at every shard boundary (first and
    ///   last element of each shard — the only places the closed form can
    ///   break) and on a strided interior sample.
    ///
    /// Returns `Err` with a description of the first violated invariant.
    pub fn verify_tiling(&self) -> Result<(), String> {
        let mut cursor = 0;
        let base = self.total / self.n;
        for i in 0..self.n {
            let r = self.shard_range(i);
            if r.start != cursor {
                return Err(format!(
                    "shard {i} starts at {} but previous shard ended at {cursor} \
                     (total={}, n={})",
                    r.start, self.total, self.n
                ));
            }
            if r.end < r.start {
                return Err(format!("shard {i} is inverted: {r:?}"));
            }
            if r.len() != base && r.len() != base + 1 {
                return Err(format!(
                    "shard {i} has {} elements; balance requires {base} or {} \
                     (total={}, n={})",
                    r.len(),
                    base + 1,
                    self.total,
                    self.n
                ));
            }
            cursor = r.end;
            // Owner agreement at the boundaries and a strided sample.
            if !r.is_empty() {
                let stride = (r.len() / 16).max(1);
                for idx in [r.start, r.end - 1]
                    .into_iter()
                    .chain(r.clone().step_by(stride))
                {
                    let o = self.owner_of(idx);
                    if o != i {
                        return Err(format!(
                            "owner_of({idx}) = {o} but element lies in shard {i} \
                             (total={}, n={})",
                            self.total, self.n
                        ));
                    }
                }
            }
        }
        if cursor != self.total {
            return Err(format!(
                "shards cover 0..{cursor} but the space is 0..{} (n={})",
                self.total, self.n
            ));
        }
        Ok(())
    }

    /// The intersection of owner `i`'s shard with `range`, expressed in
    /// coordinates *relative to the owner's shard start* — i.e. the slice
    /// of the owner's local buffer that stores that part of `range`.
    pub fn local_slice_of(&self, i: usize, range: &std::ops::Range<usize>) -> std::ops::Range<usize> {
        let s = self.shard_range(i);
        let lo = s.start.max(range.start);
        let hi = s.end.min(range.end);
        if lo >= hi {
            // Empty intersection: a canonical empty range, safely sliceable.
            return 0..0;
        }
        lo - s.start..hi - s.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_without_overlap() {
        for total in [0usize, 1, 10, 97, 1024] {
            for n in [1usize, 2, 3, 7, 16] {
                let p = Partitioner::new(total, n);
                let mut cursor = 0;
                for i in 0..n {
                    let r = p.shard_range(i);
                    assert_eq!(r.start, cursor);
                    cursor = r.end;
                }
                assert_eq!(cursor, total);
                assert_eq!(p.counts().iter().sum::<usize>(), total);
            }
        }
    }

    #[test]
    fn owner_of_agrees_with_shard_range() {
        for total in [10usize, 97, 256] {
            for n in [1usize, 3, 8] {
                let p = Partitioner::new(total, n);
                for idx in 0..total {
                    let o = p.owner_of(idx);
                    assert!(p.shard_range(o).contains(&idx), "total={total} n={n} idx={idx}");
                }
            }
        }
    }

    #[test]
    fn intersect_counts_sum_to_range_length() {
        let p = Partitioner::new(100, 7);
        for range in [0..100, 13..57, 0..1, 99..100, 40..40] {
            let counts = p.intersect_counts(&range);
            assert_eq!(counts.iter().sum::<usize>(), range.len(), "{range:?}");
        }
    }

    #[test]
    fn local_slices_are_consistent_with_counts() {
        let p = Partitioner::new(50, 4);
        let range = 10..37;
        let counts = p.intersect_counts(&range);
        for (i, cnt) in counts.iter().enumerate() {
            let local = p.local_slice_of(i, &range);
            assert_eq!(local.len(), *cnt, "owner {i}");
            // The local slice must sit inside the owner's shard.
            assert!(local.end <= p.shard_range(i).len());
        }
    }

    #[test]
    fn verify_tiling_accepts_valid_partitions() {
        for total in [0usize, 1, 7, 100, 12345] {
            for n in [1usize, 2, 3, 8, 64] {
                Partitioner::new(total, n).verify_tiling().unwrap();
            }
        }
    }

    #[test]
    fn empty_intersections_for_disjoint_ranges() {
        let p = Partitioner::new(100, 4); // shards of 25
        let counts = p.intersect_counts(&(0..10));
        assert_eq!(counts, vec![10, 0, 0, 0]);
        let local = p.local_slice_of(3, &(0..10));
        assert_eq!(local.len(), 0);
    }
}
