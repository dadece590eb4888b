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
//! Gradients are produced in *reverse* flat order during backward (head
//! unit first, embedding last), so the pending region is always one
//! contiguous flat range growing downward.

/// Accumulates per-unit gradients and reports when the fused pending
/// region reaches the capacity, so the owner can flush it.
pub struct GradBucket {
    capacity: usize,
    /// Pending spans in arrival (descending) order; contiguity invariant:
    /// each new span ends where the previous began.
    pending: Vec<(std::ops::Range<usize>, Vec<f32>)>,
    pending_elems: usize,
    flushes: u64,
    max_fused: usize,
}

impl GradBucket {
    /// Creates a bucket that flushes at `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> GradBucket {
        assert!(capacity > 0, "bucket capacity must be positive");
        GradBucket {
            capacity,
            pending: Vec::new(),
            pending_elems: 0,
            flushes: 0,
            max_fused: 0,
        }
    }

    /// Bucket capacity in elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements currently pending.
    pub fn pending_elems(&self) -> usize {
        self.pending_elems
    }

    /// Number of flushes fired so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Largest fused buffer ever assembled (to verify the constant-size
    /// property: ≤ capacity + largest single unit).
    pub fn max_fused_elems(&self) -> usize {
        self.max_fused
    }

    /// Adds one unit's gradients (flat `range`, matching `data`). Returns
    /// true when the pending region has reached capacity — the caller then
    /// runs [`Self::flush_all`], the one place a flush callback is taken.
    ///
    /// # Panics
    /// Panics if `range`/`data` lengths differ or contiguity (descending,
    /// adjacent) is violated.
    #[must_use = "a full bucket must be flushed before the next push"]
    pub fn push(&mut self, range: std::ops::Range<usize>, data: Vec<f32>) -> bool {
        assert_eq!(range.len(), data.len(), "bucket: range/data mismatch");
        if let Some((last, _)) = self.pending.last() {
            assert_eq!(
                range.end, last.start,
                "bucket: spans must arrive in descending contiguous order"
            );
        }
        self.pending_elems += data.len();
        self.pending.push((range, data));
        self.pending_elems >= self.capacity
    }

    /// Flushes whatever is pending (a full bucket, or the end of the
    /// backward pass): `flush(range, fused)` receives the contiguous flat
    /// range and the fused values in flat order. A no-op when empty.
    pub fn flush_all(&mut self, flush: &mut dyn FnMut(std::ops::Range<usize>, &mut [f32])) {
        if self.pending.is_empty() {
            return;
        }
        let start = self.pending.last().unwrap().0.start;
        let end = self.pending.first().unwrap().0.end;
        let mut fused = vec![0.0; end - start];
        for (r, d) in self.pending.drain(..) {
            fused[r.start - start..r.end - start].copy_from_slice(&d);
        }
        self.max_fused = self.max_fused.max(fused.len());
        self.pending_elems = 0;
        self.flushes += 1;
        flush(start..end, &mut fused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_when_capacity_reached() {
        let mut b = GradBucket::new(10);
        let mut flushed: Vec<(std::ops::Range<usize>, Vec<f32>)> = Vec::new();
        let mut cb = |r: std::ops::Range<usize>, d: &mut [f32]| flushed.push((r, d.to_vec()));
        assert!(!b.push(20..26, vec![6.0; 6]), "below capacity");
        assert!(b.push(14..20, vec![4.0; 6]), "capacity reached");
        b.flush_all(&mut cb);
        let (r, d) = &flushed[0];
        assert_eq!(*r, 14..26);
        assert_eq!(&d[..6], &[4.0; 6]);
        assert_eq!(&d[6..], &[6.0; 6]);
        assert_eq!(b.pending_elems(), 0);
    }

    #[test]
    fn flush_all_drains_remainder() {
        let mut b = GradBucket::new(100);
        let mut count = 0;
        let mut cb = |_: std::ops::Range<usize>, _: &mut [f32]| count += 1;
        assert!(!b.push(5..8, vec![1.0; 3]));
        assert!(!b.push(0..5, vec![2.0; 5]));
        b.flush_all(&mut cb);
        b.flush_all(&mut cb);
        assert_eq!(count, 1, "one real flush; the empty one is a no-op");
    }

    #[test]
    fn oversized_unit_flushes_alone() {
        let mut b = GradBucket::new(4);
        let mut sizes = Vec::new();
        let mut cb = |r: std::ops::Range<usize>, _: &mut [f32]| sizes.push(r.len());
        assert!(b.push(10..20, vec![0.0; 10]));
        b.flush_all(&mut cb);
        assert_eq!(sizes, vec![10]);
        assert_eq!(b.max_fused_elems(), 10);
    }

    #[test]
    #[should_panic(expected = "descending contiguous")]
    fn non_contiguous_spans_rejected() {
        let mut b = GradBucket::new(100);
        let _ = b.push(10..20, vec![0.0; 10]);
        let _ = b.push(0..5, vec![0.0; 5]); // gap 5..10
    }

    #[test]
    fn fused_values_are_in_flat_order() {
        let mut b = GradBucket::new(6);
        let mut got = Vec::new();
        let mut cb = |_: std::ops::Range<usize>, d: &mut [f32]| got = d.to_vec();
        assert!(!b.push(3..6, vec![30.0, 31.0, 32.0]));
        assert!(b.push(0..3, vec![0.0, 1.0, 2.0]));
        b.flush_all(&mut cb);
        assert_eq!(got, vec![0.0, 1.0, 2.0, 30.0, 31.0, 32.0]);
    }
}
