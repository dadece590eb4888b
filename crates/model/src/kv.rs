//! Key/value-cache storage for incremental decoding.
//!
//! A serving rank decodes many requests concurrently; each live request
//! needs one K and one V cache per transformer block. All of it lives in
//! one [`BlockArena`]: a single pre-allocated region (the contiguous
//! memory idea of the paper's §6.3 applied to serving state) carved into
//! fixed-size *position blocks* that are claimed as a request's decode
//! position crosses block boundaries. Blocks are reference counted so
//! shared prompt prefixes can map to shared read-only blocks; the page
//! tables and prefix-hash cache live with the serving engine
//! (`zero-serve`), which owns the sharing policy — this type owns
//! allocation, refcounts, scrubbing, and byte metering. A block as long
//! as the context window is the classic one-slab-slot-per-request layout;
//! it is a geometry of this arena, not a second container.
//!
//! The row-batch attention kernel (`block_rows_kv`) is generic over the
//! [`KvArena`] row-access trait, so pooled decoding and the single-request
//! reference ([`ContigKv`] under `IncrementalDecoder`) execute
//! bitwise-identical arithmetic — a tested invariant.
//!
//! Block sharing makes stale state a real hazard, so the arena *scrubs*
//! every block it hands out and detects double frees with an O(1)
//! occupancy bitset.

/// Row-level access to a K/V cache keyed by (layer, slot, position) —
/// the interface the shared row-batch attention kernel decodes through.
/// Implementations must return rows of exactly `width` elements and must
/// keep a written row readable (bitwise) until the slot is released.
pub trait KvArena {
    /// Writes position `pos` of (`layer`, `slot`): one K row and one V
    /// row of the arena's width.
    fn write_row(&mut self, layer: usize, slot: usize, pos: usize, k: &[f32], v: &[f32]);
    /// The K row of (`layer`, `slot`, `pos`).
    fn k_row(&self, layer: usize, slot: usize, pos: usize) -> &[f32];
    /// The V row of (`layer`, `slot`, `pos`).
    fn v_row(&self, layer: usize, slot: usize, pos: usize) -> &[f32];
}

/// A [`KvArena`] over plain contiguous storage, `[layer][slot][pos]` rows
/// of `width` elements on each side — no paging, no sharing. This is the
/// cache [`IncrementalDecoder`](crate::IncrementalDecoder) owns (one
/// slot) and the reference the pooled arenas are tested against.
pub struct ContigKv {
    k: Vec<f32>,
    v: Vec<f32>,
    slots: usize,
    seq: usize,
    width: usize,
}

impl ContigKv {
    /// A zeroed cache of `slots` windows of `seq` positions per layer.
    pub fn new(layers: usize, slots: usize, seq: usize, width: usize) -> ContigKv {
        let elems = layers * slots * seq * width;
        ContigKv { k: vec![0.0; elems], v: vec![0.0; elems], slots, seq, width }
    }

    fn at(&self, layer: usize, slot: usize, pos: usize) -> std::ops::Range<usize> {
        debug_assert!(slot < self.slots && pos < self.seq);
        let base = ((layer * self.slots + slot) * self.seq + pos) * self.width;
        base..base + self.width
    }
}

impl KvArena for ContigKv {
    fn write_row(&mut self, layer: usize, slot: usize, pos: usize, k: &[f32], v: &[f32]) {
        let at = self.at(layer, slot, pos);
        self.k[at.clone()].copy_from_slice(k);
        self.v[at].copy_from_slice(v);
    }

    fn k_row(&self, layer: usize, slot: usize, pos: usize) -> &[f32] {
        &self.k[self.at(layer, slot, pos)]
    }

    fn v_row(&self, layer: usize, slot: usize, pos: usize) -> &[f32] {
        &self.v[self.at(layer, slot, pos)]
    }
}

/// A fixed-word occupancy bitset: O(1) membership on every release.
#[derive(Clone, Debug)]
struct Bitset(Vec<u64>);

impl Bitset {
    fn new(n: usize) -> Bitset {
        Bitset(vec![0; n.div_ceil(64)])
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
}

/// Byte and operation meters for a [`BlockArena`], split so prefix
/// sharing is measurable: sharing shows up as *fewer allocations* for the
/// same served tokens.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockArenaStats {
    /// Blocks handed out by `alloc` over the arena's lifetime.
    pub alloc_ops: u64,
    /// Bytes those allocations cover (`alloc_ops × block_bytes`).
    pub alloc_bytes: u64,
    /// Peak simultaneously *live* (refcount ≥ 1) bytes.
    pub live_bytes_peak: u64,
}

/// A reference-counted block arena for paged KV caches.
///
/// One *block* holds `layers × block_positions × width` K elements (and
/// as many V elements): a fixed run of consecutive positions across
/// every layer of one request. Blocks are claimed on demand, shared
/// read-only between requests via refcounts (prefix reuse), and scrubbed
/// on allocation so a recycled block can never leak a previous tenant's
/// rows. Double frees of the *block* kind — reclaiming a block that is
/// not allocated — are caught by an occupancy bitset in O(1).
pub struct BlockArena {
    layers: usize,
    width: usize,
    block_positions: usize,
    cap: usize,
    k: Vec<f32>,
    v: Vec<f32>,
    free: Vec<usize>,
    occupied: Bitset,
    refcount: Vec<u32>,
    live_blocks: usize,
    live_blocks_peak: usize,
    alloc_ops: u64,
}

impl BlockArena {
    /// Creates an arena of `cap` blocks, each covering `block_positions`
    /// consecutive positions of `layers` layers at `width` elements per
    /// row and side.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(layers: usize, cap: usize, block_positions: usize, width: usize) -> BlockArena {
        assert!(
            layers > 0 && cap > 0 && block_positions > 0 && width > 0,
            "empty KV block arena"
        );
        let elems = cap * layers * block_positions * width;
        BlockArena {
            layers,
            width,
            block_positions,
            cap,
            k: vec![0.0; elems],
            v: vec![0.0; elems],
            free: (0..cap).rev().collect(),
            occupied: Bitset::new(cap),
            refcount: vec![0; cap],
            live_blocks: 0,
            live_blocks_peak: 0,
            alloc_ops: 0,
        }
    }

    /// Bytes one block occupies (both sides).
    pub fn block_bytes(&self) -> u64 {
        2 * 4 * (self.layers * self.block_positions * self.width) as u64
    }

    /// Bytes of the whole backing arena (capacity, not residency).
    pub fn arena_bytes(&self) -> u64 {
        self.cap as u64 * self.block_bytes()
    }

    /// Lifetime allocation and peak-residency meters.
    pub fn stats(&self) -> BlockArenaStats {
        BlockArenaStats {
            alloc_ops: self.alloc_ops,
            alloc_bytes: self.alloc_ops * self.block_bytes(),
            live_bytes_peak: self.live_blocks_peak as u64 * self.block_bytes(),
        }
    }

    /// Blocks currently live (refcount ≥ 1).
    pub fn live_blocks(&self) -> usize {
        self.live_blocks
    }

    /// Claims a scrubbed block with refcount 1, or `None` when the arena
    /// is exhausted (the caller evicts a cached block and retries).
    pub fn alloc(&mut self) -> Option<usize> {
        let b = self.free.pop()?;
        self.occupied.set(b);
        self.refcount[b] = 1;
        let n = self.layers * self.block_positions * self.width;
        self.k[b * n..(b + 1) * n].fill(0.0);
        self.v[b * n..(b + 1) * n].fill(0.0);
        self.alloc_ops += 1;
        self.live_blocks += 1;
        self.live_blocks_peak = self.live_blocks_peak.max(self.live_blocks);
        Some(b)
    }

    /// Adds a reference to an allocated block (prefix sharing).
    ///
    /// # Panics
    /// Panics if `b` is not allocated.
    pub fn retain(&mut self, b: usize) {
        assert!(b < self.cap && self.occupied.get(b), "retain of unallocated block {b}");
        if self.refcount[b] == 0 {
            self.live_blocks += 1;
            self.live_blocks_peak = self.live_blocks_peak.max(self.live_blocks);
        }
        self.refcount[b] += 1;
    }

    /// Drops one reference from `b`, returning the remaining count. A
    /// block at refcount 0 stays *allocated* (the caller may keep it as
    /// a reusable cached prefix) until [`Self::reclaim`] frees it.
    ///
    /// # Panics
    /// Panics if `b` is not allocated or its refcount is already 0.
    pub fn release(&mut self, b: usize) -> u32 {
        assert!(b < self.cap && self.occupied.get(b), "release of unallocated block {b}");
        assert!(self.refcount[b] > 0, "refcount underflow on block {b}");
        self.refcount[b] -= 1;
        if self.refcount[b] == 0 {
            self.live_blocks -= 1;
        }
        self.refcount[b]
    }

    /// Frees a refcount-0 block back to the free list (cache eviction).
    ///
    /// # Panics
    /// Panics if `b` is not allocated (double free, O(1) bitset check)
    /// or still referenced.
    pub fn reclaim(&mut self, b: usize) {
        assert!(b < self.cap, "block {b} out of range");
        assert!(self.occupied.get(b), "double free of block {b}");
        assert_eq!(self.refcount[b], 0, "reclaim of live block {b}");
        self.occupied.clear(b);
        self.free.push(b);
    }

    /// Current refcount of an allocated block.
    pub fn refcount(&self, b: usize) -> u32 {
        self.refcount[b]
    }

    #[inline]
    fn base(&self, b: usize, layer: usize, pos_in_block: usize) -> usize {
        debug_assert!(b < self.cap && layer < self.layers && pos_in_block < self.block_positions);
        ((b * self.layers + layer) * self.block_positions + pos_in_block) * self.width
    }

    /// The K row at (`block`, `layer`, `pos_in_block`).
    pub fn k_row(&self, b: usize, layer: usize, pos_in_block: usize) -> &[f32] {
        let at = self.base(b, layer, pos_in_block);
        &self.k[at..at + self.width]
    }

    /// The V row at (`block`, `layer`, `pos_in_block`).
    pub fn v_row(&self, b: usize, layer: usize, pos_in_block: usize) -> &[f32] {
        let at = self.base(b, layer, pos_in_block);
        &self.v[at..at + self.width]
    }

    /// Writes one position's K and V rows into a block.
    ///
    /// # Panics
    /// Panics (debug) on out-of-range indices or wrong row widths.
    pub fn write_row(&mut self, b: usize, layer: usize, pos_in_block: usize, k: &[f32], v: &[f32]) {
        debug_assert_eq!(k.len(), self.width);
        debug_assert_eq!(v.len(), self.width);
        let at = self.base(b, layer, pos_in_block);
        self.k[at..at + self.width].copy_from_slice(k);
        self.v[at..at + self.width].copy_from_slice(v);
    }

    /// Copies the first `positions` rows of every layer from block `src`
    /// into block `dst` — the copy-on-write primitive: a request that
    /// shares a prefix up to mid-block copies the shared rows into its
    /// private block and diverges from there.
    ///
    /// # Panics
    /// Panics if `positions` exceeds the block size or `src == dst`.
    pub fn copy_rows(&mut self, dst: usize, src: usize, positions: usize) {
        assert!(positions <= self.block_positions, "copy beyond the block");
        assert_ne!(src, dst, "self-copy");
        for layer in 0..self.layers {
            for p in 0..positions {
                let s = self.base(src, layer, p);
                let d = self.base(dst, layer, p);
                let w = self.width;
                let (k_src, k_dst, v_src, v_dst);
                if s < d {
                    let (a, b2) = self.k.split_at_mut(d);
                    k_src = &a[s..s + w];
                    k_dst = &mut b2[..w];
                    let (a, b2) = self.v.split_at_mut(d);
                    v_src = &a[s..s + w];
                    v_dst = &mut b2[..w];
                } else {
                    let (a, b2) = self.k.split_at_mut(s);
                    k_dst = &mut a[d..d + w];
                    k_src = &b2[..w];
                    let (a, b2) = self.v.split_at_mut(s);
                    v_dst = &mut a[d..d + w];
                    v_src = &b2[..w];
                }
                k_dst.copy_from_slice(k_src);
                v_dst.copy_from_slice(v_src);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contig_cache_is_indexed_by_layer_slot_and_position() {
        let mut kv = ContigKv::new(2, 3, 4, 2);
        kv.write_row(1, 2, 3, &[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(kv.k_row(1, 2, 3), &[1.0, 2.0]);
        assert_eq!(kv.v_row(1, 2, 3), &[3.0, 4.0]);
        // The last row of the last slot of the last layer; nothing else moved.
        assert_eq!(&kv.k[46..48], &[1.0, 2.0]);
        assert!(kv.k[..46].iter().all(|&x| x == 0.0));
        assert_eq!(kv.k_row(0, 2, 3), &[0.0, 0.0]);
    }

    #[test]
    fn block_arena_alloc_scrubs_and_meters() {
        let mut arena = BlockArena::new(2, 3, 4, 2);
        assert_eq!(arena.block_bytes(), 2 * 4 * (2 * 4 * 2) as u64);
        let a = arena.alloc().unwrap();
        arena.write_row(a, 1, 3, &[5.0, 5.0], &[6.0, 6.0]);
        assert_eq!(arena.k_row(a, 1, 3), &[5.0, 5.0]);
        assert_eq!(arena.release(a), 0);
        arena.reclaim(a);
        let b = arena.alloc().unwrap();
        assert_eq!(b, a, "LIFO reuse");
        assert_eq!(arena.k_row(b, 1, 3), &[0.0, 0.0], "scrub on alloc");
        let stats = arena.stats();
        assert_eq!(stats.alloc_ops, 2);
        assert_eq!(stats.alloc_bytes, 2 * arena.block_bytes());
        assert_eq!(stats.live_bytes_peak, arena.block_bytes());
    }

    #[test]
    fn block_refcounts_track_sharing() {
        let mut arena = BlockArena::new(1, 2, 2, 2);
        let a = arena.alloc().unwrap();
        arena.retain(a);
        assert_eq!(arena.refcount(a), 2);
        assert_eq!(arena.release(a), 1);
        assert_eq!(arena.live_blocks(), 1);
        assert_eq!(arena.release(a), 0);
        assert_eq!(arena.live_blocks(), 0);
        // Refcount-0 blocks stay allocated until reclaimed.
        arena.retain(a);
        assert_eq!(arena.refcount(a), 1);
        assert_eq!(arena.live_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn block_double_free_detected() {
        let mut arena = BlockArena::new(1, 2, 2, 2);
        let a = arena.alloc().unwrap();
        arena.release(a);
        arena.reclaim(a);
        arena.reclaim(a);
    }

    #[test]
    #[should_panic(expected = "reclaim of live block")]
    fn reclaim_of_live_block_detected() {
        let mut arena = BlockArena::new(1, 2, 2, 2);
        let a = arena.alloc().unwrap();
        arena.reclaim(a);
    }

    #[test]
    fn copy_rows_moves_the_shared_prefix_both_directions() {
        let mut arena = BlockArena::new(2, 2, 3, 2);
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        for l in 0..2 {
            for p in 0..3 {
                let x = (l * 10 + p) as f32;
                arena.write_row(a, l, p, &[x, x], &[-x, -x]);
            }
        }
        arena.copy_rows(b, a, 2);
        for l in 0..2 {
            for p in 0..2 {
                let x = (l * 10 + p) as f32;
                assert_eq!(arena.k_row(b, l, p), &[x, x]);
                assert_eq!(arena.v_row(b, l, p), &[-x, -x]);
            }
            // Beyond the copied prefix: untouched (zero from scrub).
            assert_eq!(arena.k_row(b, l, 2), &[0.0, 0.0]);
        }
        // And dst < src works the same way.
        arena.write_row(b, 0, 2, &[42.0, 42.0], &[42.0, 42.0]);
        arena.copy_rows(a, b, 3);
        assert_eq!(arena.k_row(a, 0, 2), &[42.0, 42.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Block arena under arbitrary alloc/retain/release/reclaim
        /// interleavings: refcounts, occupancy, and the live-block meter
        /// agree with a reference model, and allocation never yields a
        /// block that is still live.
        #[test]
        fn block_arena_refcount_interleavings(ops in prop::collection::vec(0u8..8, 1..96)) {
            let cap = 4usize;
            let mut arena = BlockArena::new(1, cap, 2, 2);
            // Reference refcounts, None = unallocated.
            let mut model: Vec<Option<u32>> = vec![None; cap];
            for op in ops {
                match op {
                    0..=2 => {
                        if let Some(b) = arena.alloc() {
                            prop_assert!(model[b].is_none(), "allocated an occupied block");
                            model[b] = Some(1);
                            arena.write_row(b, 0, 0, &[9.0, 9.0], &[9.0, 9.0]);
                        } else {
                            prop_assert!(model.iter().all(|m| m.is_some()));
                        }
                    }
                    3..=4 => {
                        if let Some(b) = (0..cap).find(|&b| model[b].is_some_and(|r| r > 0)) {
                            arena.retain(b);
                            model[b] = model[b].map(|r| r + 1);
                        }
                    }
                    5..=6 => {
                        if let Some(b) = (0..cap).find(|&b| model[b].is_some_and(|r| r > 0)) {
                            let left = arena.release(b);
                            model[b] = model[b].map(|r| r - 1);
                            prop_assert_eq!(left, model[b].unwrap());
                        }
                    }
                    _ => {
                        if let Some(b) = (0..cap).find(|&b| model[b] == Some(0)) {
                            arena.reclaim(b);
                            model[b] = None;
                        }
                    }
                }
                let live = model.iter().filter(|m| m.is_some_and(|r| r > 0)).count();
                prop_assert_eq!(arena.live_blocks(), live);
                for (b, m) in model.iter().enumerate() {
                    if let Some(r) = *m {
                        prop_assert_eq!(arena.refcount(b), r);
                    }
                }
            }
        }
    }
}
