//! MD: contiguous pre-allocated memory for long-lived tensors (§6.3).
//!
//! Memory fragmentation arises from interleaving short-lived tensors
//! (recomputed activations, activation gradients) with long-lived ones
//! (checkpoints, parameter gradients). ZeRO "performs on-the-fly memory
//! defragmentation by moving activation checkpoints and gradients to
//! pre-allocated contiguous memory buffers". [`ContiguousArena`] is that
//! pre-allocated buffer: long-lived values are *copied into* it as they
//! are produced, so the general allocator only ever sees short-lived
//! traffic, and the long-lived region is one contiguous block by
//! construction.

/// A handle to a slice placed in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaSlot {
    offset: usize,
    len: usize,
    epoch: u64,
}

/// A bump allocator over one pre-allocated contiguous `f32` buffer,
/// reset once per training iteration.
pub struct ContiguousArena {
    buf: Vec<f32>,
    cursor: usize,
    epoch: u64,
    high_water: usize,
}

impl ContiguousArena {
    /// Pre-allocates `capacity` elements.
    pub fn new(capacity: usize) -> ContiguousArena {
        ContiguousArena {
            buf: vec![0.0; capacity],
            cursor: 0,
            epoch: 0,
            high_water: 0,
        }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Elements currently allocated in this epoch.
    pub fn used(&self) -> usize {
        self.cursor
    }

    /// Largest `used()` ever observed — sizes the pre-allocation.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Copies `data` into the arena and returns its slot.
    ///
    /// # Panics
    /// Panics if the arena is out of capacity — the engine sizes arenas
    /// from the model configuration, so overflow is a sizing bug, not a
    /// runtime condition to limp through.
    pub fn store(&mut self, data: &[f32]) -> ArenaSlot {
        let len = data.len();
        assert!(
            self.cursor + len <= self.buf.len(),
            "arena overflow: need {} more elements, capacity {}",
            self.cursor + len - self.buf.len(),
            self.buf.len()
        );
        let slot = ArenaSlot {
            offset: self.cursor,
            len,
            epoch: self.epoch,
        };
        self.buf[self.cursor..self.cursor + len].copy_from_slice(data);
        self.cursor += len;
        self.high_water = self.high_water.max(self.cursor);
        slot
    }

    /// Reads a slot.
    ///
    /// # Panics
    /// Panics if the slot is from a previous epoch (stale handle).
    pub fn slot(&self, slot: &ArenaSlot) -> &[f32] {
        assert_eq!(slot.epoch, self.epoch, "stale arena slot (epoch mismatch)");
        &self.buf[slot.offset..slot.offset + slot.len]
    }

    /// Frees everything at an iteration boundary. Existing slots become
    /// stale; capacity is retained (that is the point: the block is
    /// allocated once and reused every iteration).
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_read_back() {
        let mut a = ContiguousArena::new(16);
        let s1 = a.store(&[1.0, 2.0, 3.0]);
        let s2 = a.store(&[4.0, 5.0]);
        assert_eq!(a.slot(&s1), &[1.0, 2.0, 3.0]);
        assert_eq!(a.slot(&s2), &[4.0, 5.0]);
        assert_eq!(a.used(), 5);
    }

    #[test]
    fn slots_are_contiguous() {
        let mut a = ContiguousArena::new(8);
        let s1 = a.store(&[1.0; 3]);
        let s2 = a.store(&[2.0; 2]);
        assert_eq!(s1.offset + s1.len, s2.offset, "no gaps between slots");
    }

    #[test]
    fn reset_reuses_capacity_and_invalidates() {
        let mut a = ContiguousArena::new(4);
        let s = a.store(&[1.0; 4]);
        a.reset();
        assert_eq!(a.used(), 0);
        assert_eq!(a.high_water(), 4);
        let s2 = a.store(&[2.0; 4]); // same capacity, fresh epoch
        assert_eq!(a.slot(&s2), &[2.0; 4]);
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = a.slot(&s);
        }));
        assert!(stale.is_err(), "stale slot must be rejected");
    }

    #[test]
    #[should_panic(expected = "arena overflow")]
    fn overflow_panics() {
        let mut a = ContiguousArena::new(2);
        let _ = a.store(&[0.0; 3]);
    }
}
