//! CB: constant-size fused gradient buckets (§5.2, §6.2).
//!
//! Fusing many small gradients into one large buffer before a collective
//! is how DL stacks keep all-reduce bandwidth-efficient — but a fused
//! buffer proportional to model size "can become inhibiting" (12 GB for a
//! 3B model, §6.2). ZeRO instead uses a *constant-size* bucket: unit
//! gradients accumulate until the bucket reaches its capacity, then a
//! single reduction fires for the fused range. This also implements §5.2's
//! "bucketization strategy … we perform a reduction instead of an
//! all-reduce at the partition boundaries to … overlap computation and
//! communication".
//!
//! *Where* the bucket is cut is a schedule decision, taken once by the
//! plan builder: each planned bucket reduce-scatter names its fused flat
//! range. [`GradBucket`] is the data side only — it holds the pending
//! gradients, reports the range they span, and fuses them on request; its
//! owner flushes when that range is the next planned one.
//!
//! Gradients are produced in *reverse* flat order during backward (head
//! unit first, embedding last), so the pending region is always one
//! contiguous flat range growing downward. The fused buffer is laid out
//! rank-major — every owner's part of the range, in owner order — which
//! is what a reduce-scatter over the range's per-owner counts consumes;
//! for a single unit that is flat order.

use std::ops::Range;

use crate::partition::Partitioner;

/// Accumulates per-unit gradients and fuses the pending region into one
/// rank-major buffer.
#[derive(Default)]
pub struct GradBucket {
    /// Pending spans in arrival (descending) order; contiguity invariant:
    /// each new span ends where the previous began.
    pending: Vec<(Range<usize>, Vec<f32>)>,
}

impl GradBucket {
    /// Creates an empty bucket.
    pub fn new() -> GradBucket {
        GradBucket::default()
    }

    /// The flat range the pending gradients span (`None` when empty).
    pub fn span(&self) -> Option<Range<usize>> {
        let (first, _) = self.pending.first()?;
        let (last, _) = self.pending.last()?;
        Some(last.start..first.end)
    }

    /// Elements currently pending.
    pub fn pending_elems(&self) -> usize {
        self.span().map_or(0, |s| s.len())
    }

    /// Adds one unit's gradients (flat `range`, matching `data`).
    ///
    /// # Panics
    /// Panics if `range`/`data` lengths differ or contiguity (descending,
    /// adjacent) is violated.
    pub fn push(&mut self, range: Range<usize>, data: Vec<f32>) {
        assert_eq!(range.len(), data.len(), "bucket: range/data mismatch");
        if let Some((last, _)) = self.pending.last() {
            assert_eq!(
                range.end, last.start,
                "bucket: spans must arrive in descending contiguous order"
            );
        }
        self.pending.push((range, data));
    }

    /// Flushes whatever is pending: `flush(range, fused)` receives the
    /// contiguous flat range and the fused values, rank-major over `part`'s
    /// owners. A no-op when empty. This is the one place a flush callback
    /// is taken.
    pub fn flush_all(&mut self, part: &Partitioner, flush: &mut dyn FnMut(Range<usize>, Vec<f32>)) {
        let Some(span) = self.span() else {
            return;
        };
        let mut fused = Vec::with_capacity(span.len());
        for i in 0..part.owners() {
            for r in part.flat_ranges(i, part.local_slice_of(i, &span)) {
                for (at, d) in self.pending.iter().rev().filter(|(p, _)| p.start < r.end && r.start < p.end) {
                    let (lo, hi) = (r.start.max(at.start), r.end.min(at.end));
                    fused.extend_from_slice(&d[lo - at.start..hi - at.start]);
                }
            }
        }
        self.pending.clear();
        flush(span, fused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_grows_downward_and_resets_on_flush() {
        let mut b = GradBucket::new();
        assert_eq!(b.span(), None);
        b.push(20..26, vec![6.0; 6]);
        assert_eq!(b.span(), Some(20..26));
        b.push(14..20, vec![4.0; 6]);
        assert_eq!(b.span(), Some(14..26));
        assert_eq!(b.pending_elems(), 12);
        let mut flushed: Vec<(Range<usize>, Vec<f32>)> = Vec::new();
        b.flush_all(&Partitioner::new(26, 1), &mut |r, d| flushed.push((r, d.to_vec())));
        let (r, d) = &flushed[0];
        assert_eq!(*r, 14..26);
        assert_eq!(&d[..6], &[4.0; 6]);
        assert_eq!(&d[6..], &[6.0; 6]);
        assert_eq!(b.pending_elems(), 0);
    }

    #[test]
    fn flush_all_drains_remainder() {
        let mut b = GradBucket::new();
        let mut count = 0;
        let mut cb = |_: Range<usize>, _: Vec<f32>| count += 1;
        b.push(5..8, vec![1.0; 3]);
        b.push(0..5, vec![2.0; 5]);
        let one = Partitioner::new(8, 1);
        b.flush_all(&one, &mut cb);
        b.flush_all(&one, &mut cb);
        assert_eq!(count, 1, "one real flush; the empty one is a no-op");
    }

    #[test]
    #[should_panic(expected = "descending contiguous")]
    fn non_contiguous_spans_rejected() {
        let mut b = GradBucket::new();
        b.push(10..20, vec![0.0; 10]);
        b.push(0..5, vec![0.0; 5]); // gap 5..10
    }

    #[test]
    fn fused_values_are_rank_major() {
        let mut b = GradBucket::new();
        b.push(3..6, vec![30.0, 31.0, 32.0]);
        b.push(0..3, vec![0.0, 1.0, 2.0]);
        let mut got = Vec::new();
        b.flush_all(&Partitioner::new(6, 1), &mut |_, d| got = d.to_vec());
        assert_eq!(got, vec![0.0, 1.0, 2.0, 30.0, 31.0, 32.0], "one owner: flat order");
        // Units 0..3 and 3..6 over two owners: owner 0 holds 0..2 and 3..5.
        b.push(3..6, vec![30.0, 31.0, 32.0]);
        b.push(0..3, vec![0.0, 1.0, 2.0]);
        b.flush_all(&Partitioner::from_lens(&[3, 3], 2), &mut |_, d| got = d.to_vec());
        assert_eq!(got, vec![0.0, 1.0, 30.0, 31.0, 2.0, 32.0]);
    }
}
