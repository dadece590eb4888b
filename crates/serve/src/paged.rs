//! The serving KV pool: page tables over one block arena, with
//! hash-based prefix reuse.
//!
//! [`KvPool`] is the only KV store the engine has. Each slot holds a
//! *page table* of fixed-size position blocks in a [`BlockArena`],
//! allocated on demand as the request's positions (a whole prompt in its
//! admission step, then one per step) cross block boundaries, and freed
//! (or cached) the moment the request retires. The
//! [`KvBackend`] a run names is a *geometry* of this pool, resolved once
//! in [`KvPool::new`]: `Slab` is one `seq`-long block per slot with
//! nothing shared (every request pays for the full window, the arena is
//! exactly `slots` windows), `Paged` picks a smaller block so a request
//! holds only the blocks it has reached, and may turn on prefix reuse.
//!
//! **Prefix reuse.** A block whose positions are completely written is
//! *registered* under the hash of the full token prefix it was computed
//! from (K/V rows at position `t` are a deterministic function of tokens
//! `0..=t`, so equal prefixes mean bitwise-equal rows). A newly admitted
//! request walks its prompt block by block: a whole-block match maps the
//! shared block into its page table read-only (refcount bump — zero
//! compute, zero allocation); the first partial match *copies* the
//! matched rows into a private block and diverges from there — copy-on-
//! write at the divergence point. Matches are verified token-by-token
//! against the stored prefix, so a hash collision can never alias two
//! different prefixes (the bitwise guarantee does not rest on 64-bit
//! luck). Shared positions are rows the admission step does not compute
//! (and, for whole blocks, never allocates); they do not shorten the
//! schedule — a request is in service for `max_new_tokens` steps either
//! way — and the skip length is a deterministic function of scheduler
//! state, so SPMD lockstep is preserved.
//!
//! **Sharing discipline.** A request only ever *writes* positions it
//! computes itself, and matching is capped at `prompt_len − 1` (the last
//! prompt position is always recomputed to produce the first logits), so
//! a shared block is never written by a sharer. Retired requests leave
//! their refcount-0 registered blocks in an LRU cache; the allocator
//! evicts from it only when the arena runs dry.

use std::collections::HashMap;
use std::collections::VecDeque;

use zero_model::{BlockArena, BlockArenaStats, KvArena, ModelConfig};

/// The block geometry of the engine's [`KvPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvBackend {
    /// One `seq`-long block per in-flight request, nothing shared:
    /// `Paged { block: seq, prefix_reuse: false }` (the bench baseline).
    Slab,
    /// Blocks of `block` positions, optionally with prefix reuse.
    Paged {
        /// Positions per block (clamped to `seq`; must be ≥ 1).
        block: usize,
        /// Share whole prompt-prefix blocks between requests and
        /// copy-on-write at the divergence point.
        prefix_reuse: bool,
    },
}

/// What [`KvPool::attach_prompt`] resolved for a new request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttachOutcome {
    /// Positions already present in the page table (the prefill skip):
    /// `hit_rows + cow_rows`.
    pub matched: usize,
    /// Positions served by mapping shared read-only blocks.
    pub hit_rows: usize,
    /// Positions served by copying rows at the divergence block.
    pub cow_rows: usize,
}

/// Allocation activity from one pool call, for trace instants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolActivity {
    /// Blocks freshly allocated.
    pub allocs: u64,
    /// Cached blocks evicted to satisfy those allocations.
    pub evictions: u64,
}

/// Lifetime meters of a KV pool, all deterministic across ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvMeters {
    /// Bytes of backing storage allocated over the run: blocks
    /// allocated × block bytes, at every geometry. Prefix reuse shows up
    /// as strictly fewer allocated bytes for the same served tokens.
    pub bytes_allocated: u64,
    /// Peak simultaneously live bytes (refcounted blocks × block bytes).
    pub bytes_live_peak: u64,
    /// Prompt positions served by sharing registered blocks.
    pub prefix_hit_rows: u64,
    /// Prompt positions served by copy-on-write row copies.
    pub prefix_cow_rows: u64,
    /// Cached blocks evicted to feed the allocator.
    pub evictions: u64,
}

/// Per-block registration record (only blocks whose rows are final).
struct BlockInfo {
    /// The full token prefix the block's rows were computed from: tokens
    /// `0..start + filled`, where `start` is the block-aligned position
    /// offset the block covers and `filled ≤ block` positions hold final
    /// rows (`filled = prefix.len() − start`).
    prefix: Vec<u32>,
    /// Block-aligned start position.
    start: usize,
}

/// The engine's KV pool: page tables + prefix registry over a
/// [`BlockArena`]. Implements [`KvArena`] so the shared row-batch
/// kernel (`block_rows_kv`) decodes through it unchanged.
pub struct KvPool {
    arena: BlockArena,
    block: usize,
    free_slots: Vec<usize>,
    slot_live: Vec<bool>,
    /// Per slot: block ids covering positions `[i·B, (i+1)·B)`.
    tables: Vec<Vec<usize>>,
    /// Per slot: the token fed at each position so far (prompt then
    /// generated) — the registration key material.
    tokens: Vec<Vec<u32>>,
    prefix_reuse: bool,
    /// Registered blocks by hash of their *parent* prefix (tokens before
    /// the block). Values are candidate lists in registration order;
    /// every match is verified against `BlockInfo::prefix` token by
    /// token, so collisions cost a comparison, never correctness.
    by_parent: HashMap<u64, Vec<usize>>,
    info: Vec<Option<BlockInfo>>,
    /// Refcount-0 registered blocks, oldest first (eviction order).
    cached: VecDeque<usize>,
    hit_rows: u64,
    cow_rows: u64,
    evictions: u64,
}

fn prefix_hash(tokens: &[u32]) -> u64 {
    // FNV-1a over the little-endian token bytes: deterministic across
    // platforms, which the SPMD schedule requires.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tokens {
        for b in t.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl KvPool {
    /// A pool for `slots` concurrent requests over `model` at the
    /// geometry `backend` names — the one place `Slab` and `Paged` are
    /// told apart. The arena is sized at `slots × ⌈seq / block⌉` blocks —
    /// the worst case with zero sharing — so allocation can always
    /// succeed once the cache is evicted; sharing only ever leaves more
    /// room for cached prefixes. With prefix reuse one extra block of
    /// headroom is added: during a copy-on-write the donor block is
    /// pinned (it may be referenced by no page table at that moment)
    /// while the destination allocates, so the transient worst case is
    /// one block beyond the table capacity.
    pub fn new(model: &ModelConfig, slots: usize, backend: KvBackend) -> KvPool {
        let (block, prefix_reuse) = match backend {
            KvBackend::Slab => (model.seq, false),
            KvBackend::Paged { block, prefix_reuse } => (block, prefix_reuse),
        };
        assert!(slots > 0, "need at least one slot");
        assert!(block > 0, "block size must be at least one position");
        let block = block.min(model.seq);
        let per_slot = model.seq.div_ceil(block);
        let cap = slots * per_slot + usize::from(prefix_reuse);
        KvPool {
            arena: BlockArena::new(model.layers, cap, block, model.hidden),
            block,
            free_slots: (0..slots).rev().collect(),
            slot_live: vec![false; slots],
            tables: vec![Vec::new(); slots],
            tokens: vec![Vec::new(); slots],
            prefix_reuse,
            by_parent: HashMap::new(),
            info: (0..cap).map(|_| None).collect(),
            cached: VecDeque::new(),
            hit_rows: 0,
            cow_rows: 0,
            evictions: 0,
        }
    }

    /// Bytes of the whole backing arena (capacity, not residency).
    pub fn arena_bytes(&self) -> u64 {
        self.arena.arena_bytes()
    }

    /// Claims a free slot (empty page table), or `None` at capacity.
    pub fn alloc_slot(&mut self) -> Option<usize> {
        let slot = self.free_slots.pop()?;
        assert!(!self.slot_live[slot], "slot {slot} double-allocated");
        self.slot_live[slot] = true;
        self.tables[slot].clear();
        self.tokens[slot].clear();
        Some(slot)
    }

    fn registered(&self, b: usize) -> bool {
        self.info[b].is_some()
    }

    /// Allocates a block, evicting cached prefixes only if the arena is
    /// dry. Returns `(block, evictions_performed)`.
    fn alloc_block(&mut self) -> (usize, u64) {
        let mut evicted = 0;
        loop {
            if let Some(b) = self.arena.alloc() {
                return (b, evicted);
            }
            let victim = self
                .cached
                .pop_front()
                .expect("paged KV arena exhausted with nothing cached — sizing invariant broken");
            self.unregister(victim);
            self.arena.reclaim(victim);
            self.evictions += 1;
            evicted += 1;
        }
    }

    fn unregister(&mut self, b: usize) {
        if let Some(info) = self.info[b].take() {
            let key = prefix_hash(&info.prefix[..info.start]);
            if let Some(v) = self.by_parent.get_mut(&key) {
                v.retain(|&x| x != b);
            }
        }
    }

    fn register(&mut self, b: usize, start: usize, prefix: Vec<u32>) {
        debug_assert!(prefix.len() > start);
        debug_assert!(prefix.len() - start <= self.block);
        let key = prefix_hash(&prefix[..start]);
        self.info[b] = Some(BlockInfo { prefix, start });
        self.by_parent.entry(key).or_default().push(b);
    }

    /// Resolves prefix reuse for a newly admitted request: maps shared
    /// whole blocks, copies at the divergence block, and returns how many
    /// positions of the prompt are already present. Matching is capped at
    /// `prompt_len − 1`: the last prompt position is always recomputed so
    /// the request produces its first logits (and so sharers never write
    /// into a shared block).
    pub fn attach_prompt(&mut self, slot: usize, prompt: &[u32]) -> (AttachOutcome, PoolActivity) {
        assert!(self.slot_live[slot], "attach to a free slot");
        let mut out = AttachOutcome::default();
        let mut act = PoolActivity::default();
        if !self.prefix_reuse || prompt.len() < 2 {
            return (out, act);
        }
        let limit = prompt.len() - 1;
        loop {
            let start = self.tables[slot].len() * self.block;
            if start >= limit {
                break;
            }
            let want = (limit - start).min(self.block);
            // Deterministic candidate choice: longest verified match,
            // ties to the earliest-registered block.
            let key = prefix_hash(&prompt[..start]);
            let mut best: Option<(usize, usize)> = None; // (usable, block)
            if let Some(cands) = self.by_parent.get(&key) {
                for &b in cands {
                    let info = self.info[b].as_ref().expect("registered block has info");
                    if info.start != start || info.prefix[..start] != prompt[..start] {
                        continue;
                    }
                    let usable = info.prefix[start..]
                        .iter()
                        .zip(&prompt[start..start + want])
                        .take_while(|(a, b)| a == b)
                        .count();
                    if usable > best.map_or(0, |(u, _)| u) {
                        best = Some((usable, b));
                    }
                }
            }
            let Some((usable, b)) = best else { break };
            if usable == self.block {
                // Whole-block match: share read-only.
                self.arena.retain(b);
                // A reshared cached block leaves the eviction queue.
                if self.arena.refcount(b) == 1 {
                    self.cached.retain(|&x| x != b);
                }
                self.tables[slot].push(b);
                out.hit_rows += usable;
            } else {
                // Partial match: copy-on-write at the divergence point.
                // Pin the donor first — it may be sitting in the eviction
                // queue, and `alloc_block` must not reclaim it (and hand
                // it back as the copy destination) mid-copy.
                let donor_was_cached = self.arena.refcount(b) == 0;
                self.arena.retain(b);
                if donor_was_cached {
                    self.cached.retain(|&x| x != b);
                }
                let (nb, ev) = self.alloc_block();
                act.allocs += 1;
                act.evictions += ev;
                self.arena.copy_rows(nb, b, usable);
                if self.arena.release(b) == 0 {
                    self.cached.push_back(b);
                }
                self.tables[slot].push(nb);
                out.cow_rows += usable;
            }
            out.matched += usable;
            self.tokens[slot].extend_from_slice(&prompt[start..start + usable]);
            if usable < self.block {
                break;
            }
        }
        self.hit_rows += out.hit_rows as u64;
        self.cow_rows += out.cow_rows as u64;
        (out, act)
    }

    /// Ensures the block covering `pos` exists in `slot`'s page table
    /// (allocating on demand as positions cross a block boundary).
    pub fn ensure(&mut self, slot: usize, pos: usize) -> PoolActivity {
        assert!(self.slot_live[slot], "ensure on a free slot");
        let mut act = PoolActivity::default();
        while self.tables[slot].len() * self.block <= pos {
            let (b, ev) = self.alloc_block();
            act.allocs += 1;
            act.evictions += ev;
            self.tables[slot].push(b);
        }
        act
    }

    /// Records the token fed at `pos` for `slot`. When the token
    /// completes a block, the block's rows are final and it is
    /// registered for prefix reuse.
    pub fn note_token(&mut self, slot: usize, pos: usize, token: u32) {
        debug_assert_eq!(self.tokens[slot].len(), pos, "token history out of step");
        self.tokens[slot].push(token);
        if !self.prefix_reuse || !(pos + 1).is_multiple_of(self.block) {
            return;
        }
        let b = self.tables[slot][pos / self.block];
        if !self.registered(b) {
            let start = (pos / self.block) * self.block;
            self.register(b, start, self.tokens[slot][..pos + 1].to_vec());
        }
    }

    /// Retires `slot`: drops its block references, keeping registered
    /// refcount-0 blocks in the LRU prefix cache (the partial tail block
    /// is registered on the way out so future requests can copy-on-write
    /// from it). Without prefix reuse every block is reclaimed.
    pub fn release_slot(&mut self, slot: usize) {
        assert!(self.slot_live[slot], "double free of slot {slot}");
        // Register the incomplete tail block before dropping ownership.
        if self.prefix_reuse {
            let filled_total = self.tokens[slot].len();
            if let Some(last) = self.tables[slot].len().checked_sub(1) {
                let b = self.tables[slot][last];
                let start = last * self.block;
                if !self.registered(b) && filled_total > start {
                    self.register(b, start, self.tokens[slot][..filled_total].to_vec());
                }
            }
        }
        let table = std::mem::take(&mut self.tables[slot]);
        for b in table {
            if self.arena.release(b) == 0 {
                if self.prefix_reuse && self.registered(b) {
                    self.cached.push_back(b);
                } else {
                    self.unregister(b);
                    self.arena.reclaim(b);
                }
            }
        }
        self.tokens[slot].clear();
        self.slot_live[slot] = false;
        self.free_slots.push(slot);
    }

    /// Lifetime meters (deterministic across ranks).
    pub fn meters(&self) -> KvMeters {
        let BlockArenaStats { alloc_bytes, live_bytes_peak, .. } = self.arena.stats();
        KvMeters {
            bytes_allocated: alloc_bytes,
            bytes_live_peak: live_bytes_peak,
            prefix_hit_rows: self.hit_rows,
            prefix_cow_rows: self.cow_rows,
            evictions: self.evictions,
        }
    }
}

impl KvArena for KvPool {
    fn write_row(&mut self, layer: usize, slot: usize, pos: usize, k: &[f32], v: &[f32]) {
        let b = self.tables[slot][pos / self.block];
        debug_assert_eq!(self.arena.refcount(b), 1, "write into a shared block");
        self.arena.write_row(b, layer, pos % self.block, k, v);
    }

    fn k_row(&self, layer: usize, slot: usize, pos: usize) -> &[f32] {
        let b = self.tables[slot][pos / self.block];
        self.arena.k_row(b, layer, pos % self.block)
    }

    fn v_row(&self, layer: usize, slot: usize, pos: usize) -> &[f32] {
        let b = self.tables[slot][pos / self.block];
        self.arena.v_row(b, layer, pos % self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelConfig {
        ModelConfig { vocab: 32, seq: 16, hidden: 8, layers: 2, heads: 2 }
    }

    fn paged(m: &ModelConfig, slots: usize, block: usize, prefix_reuse: bool) -> KvPool {
        KvPool::new(m, slots, KvBackend::Paged { block, prefix_reuse })
    }

    fn fill_positions(pool: &mut KvPool, slot: usize, tokens: &[u32], from: usize) {
        for (pos, &t) in tokens.iter().enumerate().skip(from) {
            pool.ensure(slot, pos);
            let row = vec![t as f32 + pos as f32 * 0.25; 8];
            for l in 0..2 {
                KvArena::write_row(pool, l, slot, pos, &row, &row);
            }
            pool.note_token(slot, pos, t);
        }
    }

    #[test]
    fn blocks_page_in_on_demand_and_rows_round_trip() {
        let m = model();
        let mut pool = paged(&m, 2, 4, false);
        let s = pool.alloc_slot().unwrap();
        let toks: Vec<u32> = (0..10).collect();
        fill_positions(&mut pool, s, &toks, 0);
        // 10 positions at block 4 → 3 blocks.
        assert_eq!(pool.tables[s].len(), 3);
        for (pos, &tok) in toks.iter().enumerate() {
            let want = [tok as f32 + pos as f32 * 0.25; 8];
            assert_eq!(KvArena::k_row(&pool, 1, s, pos), &want[..]);
        }
        pool.release_slot(s);
        // Reuse off: everything reclaimed, nothing cached.
        assert_eq!(pool.arena.live_blocks(), 0);
        assert!(pool.cached.is_empty());
    }

    #[test]
    fn whole_block_prefix_match_shares_read_only_blocks() {
        let m = model();
        let mut pool = paged(&m, 2, 4, true);
        let s = pool.alloc_slot().unwrap();
        let prompt: Vec<u32> = (0..9).collect();
        fill_positions(&mut pool, s, &prompt, 0);
        pool.release_slot(s);
        // Two complete blocks (0..4, 4..8) + partial tail registered.
        assert_eq!(pool.cached.len(), 3);

        // Same prompt again: positions 0..8 shared, last position only.
        let s2 = pool.alloc_slot().unwrap();
        let (out, _) = pool.attach_prompt(s2, &prompt);
        assert_eq!(out, AttachOutcome { matched: 8, hit_rows: 8, cow_rows: 0 });
        // Shared rows are bitwise the donor's rows.
        let want = [3.0 + 3.0 * 0.25; 8];
        assert_eq!(KvArena::k_row(&pool, 0, s2, 3), &want[..]);
        // Only the last prompt position needs compute.
        fill_positions(&mut pool, s2, &prompt, 8);
        pool.release_slot(s2);
    }

    #[test]
    fn partial_match_copies_at_the_divergence_point() {
        let m = model();
        let mut pool = paged(&m, 2, 4, true);
        let s = pool.alloc_slot().unwrap();
        let a: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7];
        fill_positions(&mut pool, s, &a, 0);
        pool.release_slot(s);

        // Diverges inside the first block after two shared positions.
        let s2 = pool.alloc_slot().unwrap();
        let b: Vec<u32> = vec![1, 2, 9, 9, 9, 9];
        let (out, _) = pool.attach_prompt(s2, &b);
        assert_eq!(out, AttachOutcome { matched: 2, hit_rows: 0, cow_rows: 2 });
        // Copied rows are bitwise the donor's…
        let want = [2.0 + 1.0 * 0.25; 8];
        assert_eq!(KvArena::k_row(&pool, 1, s2, 1), &want[..]);
        // …and the private copy is writable (refcount 1).
        fill_positions(&mut pool, s2, &b, 2);
        pool.release_slot(s2);
    }

    #[test]
    fn matching_is_verified_not_just_hashed() {
        let m = model();
        let mut pool = paged(&m, 2, 4, true);
        let s = pool.alloc_slot().unwrap();
        fill_positions(&mut pool, s, &[5, 5, 5, 5, 5, 5], 0);
        pool.release_slot(s);
        let s2 = pool.alloc_slot().unwrap();
        // Different first block: no match at all (parent prefix differs
        // at block 1 as well, since the parent includes block 0).
        let (out, _) = pool.attach_prompt(s2, &[7, 5, 5, 5, 5, 5]);
        assert_eq!(out.matched, 0, "hash bucket hit but token verification must refuse");
        assert_eq!(out.hit_rows, 0);
        pool.release_slot(s2);
    }

    #[test]
    fn eviction_recycles_cached_blocks_oldest_first() {
        let m = ModelConfig { vocab: 32, seq: 8, hidden: 4, layers: 1, heads: 1 };
        // 1 slot × ⌈8/4⌉ = 2 blocks total.
        let mut pool = paged(&m, 1, 4, true);
        let s = pool.alloc_slot().unwrap();
        for (pos, t) in [1u32, 2, 3, 4, 5, 6, 7, 8].iter().enumerate() {
            pool.ensure(s, pos);
            for l in 0..1 {
                let row = vec![*t as f32; 4];
                KvArena::write_row(&mut pool, l, s, pos, &row, &row);
            }
            pool.note_token(s, pos, *t);
        }
        pool.release_slot(s);
        assert_eq!(pool.cached.len(), 2);
        // A fresh non-matching request filling its whole window must
        // evict: capacity is 1·2 + 1 headroom = 3 blocks, 2 are cached,
        // and the new request needs 2 of its own.
        let s2 = pool.alloc_slot().unwrap();
        let (out, _) = pool.attach_prompt(s2, &[9, 9, 9, 9, 9]);
        assert_eq!(out.matched, 0);
        let mut allocs = 0;
        for pos in 0..8 {
            allocs += pool.ensure(s2, pos).allocs;
        }
        assert_eq!(allocs, 2);
        assert!(pool.meters().evictions >= 1, "cache eviction happened");
        pool.release_slot(s2);
    }

    #[test]
    fn meters_show_sharing_as_fewer_allocated_bytes() {
        let m = model();
        let prompt: Vec<u32> = (0..13).collect();
        let run = |reuse: bool| {
            let mut pool = paged(&m, 2, 4, reuse);
            for _ in 0..3 {
                let s = pool.alloc_slot().unwrap();
                let (out, _) = pool.attach_prompt(s, &prompt);
                fill_positions(&mut pool, s, &prompt, out.matched);
                pool.release_slot(s);
            }
            pool.meters()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with.bytes_allocated < without.bytes_allocated,
            "sharing must allocate strictly fewer bytes ({} vs {})",
            with.bytes_allocated,
            without.bytes_allocated
        );
        assert!(with.prefix_hit_rows > 0);
    }

    #[test]
    fn the_slab_geometry_is_one_seq_block_per_slot() {
        let m = model();
        let slots = 3;
        let mut slab = KvPool::new(&m, slots, KvBackend::Slab);
        let window = (2 * 4 * m.layers * m.seq * m.hidden) as u64;
        assert_eq!(slab.arena_bytes(), slots as u64 * window, "no donor block without reuse");
        let seq_block = paged(&m, slots, m.seq, false);
        assert_eq!(slab.arena_bytes(), seq_block.arena_bytes());
        // Saturate it: every slot at its last position is the whole arena.
        for _ in 0..slots {
            let s = slab.alloc_slot().unwrap();
            assert_eq!(slab.ensure(s, 0).allocs, 1);
            assert_eq!(slab.ensure(s, m.seq - 1).allocs, 0, "one block covers the window");
        }
        let meters = slab.meters();
        assert_eq!(meters.bytes_allocated, slots as u64 * window);
        assert_eq!(meters.bytes_live_peak, slab.arena_bytes());
    }

    #[test]
    fn releasing_a_free_slot_is_a_detected_double_free() {
        for kv in [KvBackend::Slab, KvBackend::Paged { block: 2, prefix_reuse: false }] {
            let mut pool = KvPool::new(&model(), 2, kv);
            let s = pool.alloc_slot().unwrap();
            pool.release_slot(s);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.release_slot(s)))
                .expect_err("second release must panic");
            let msg = err.downcast_ref::<String>().expect("assert message");
            assert!(msg.contains("double free"), "{kv:?}: {msg}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> ModelConfig {
        ModelConfig { vocab: 8, seq: 5, hidden: 2, layers: 2, heads: 1 }
    }

    /// The row a tenant writes at (`layer`, `pos`): distinct per tenant,
    /// layer and position, and never zero, so scrubbing and misplacement
    /// are both observable.
    fn row(tenant: usize, layer: usize, pos: usize) -> [f32; 2] {
        let x = (1 + tenant * 100 + layer * 10 + pos) as f32;
        [x, -x]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary slot alloc/release interleavings against a reference
        /// model, at the slab geometry and a small-block one: the pool
        /// hands out each slot at most once, runs dry exactly at
        /// capacity, a new tenant's rows are always scrubbed, and every
        /// held slot's rows stay where (layer, slot, pos) put them while
        /// other slots come and go.
        #[test]
        fn slot_alloc_release_interleavings(ops in prop::collection::vec(0u8..4, 1..64)) {
            let m = model();
            let slots = 4usize;
            for kv in [KvBackend::Slab, KvBackend::Paged { block: 2, prefix_reuse: false }] {
                let mut pool = KvPool::new(&m, slots, kv);
                // (slot, tenant id) of every live request.
                let mut held: Vec<(usize, usize)> = Vec::new();
                for (tenant, op) in ops.iter().enumerate() {
                    if *op < 3 {
                        // Weighted toward alloc so the pool saturates often.
                        match pool.alloc_slot() {
                            Some(s) => {
                                prop_assert!(s < slots);
                                prop_assert!(
                                    held.iter().all(|&(h, _)| h != s),
                                    "slot {} double-allocated", s
                                );
                                for pos in 0..m.seq {
                                    pool.ensure(s, pos);
                                    for l in 0..m.layers {
                                        prop_assert_eq!(pool.k_row(l, s, pos), &[0.0; 2][..]);
                                        prop_assert_eq!(pool.v_row(l, s, pos), &[0.0; 2][..]);
                                        let r = row(tenant, l, pos);
                                        pool.write_row(l, s, pos, &r, &r);
                                    }
                                    pool.note_token(s, pos, 0);
                                }
                                held.push((s, tenant));
                            }
                            None => prop_assert_eq!(held.len(), slots, "alloc failed below capacity"),
                        }
                    } else if let Some((s, _)) = held.pop() {
                        pool.release_slot(s);
                    }
                    for &(s, t) in &held {
                        for l in 0..m.layers {
                            for pos in 0..m.seq {
                                prop_assert_eq!(pool.k_row(l, s, pos), &row(t, l, pos)[..]);
                                prop_assert_eq!(pool.v_row(l, s, pos), &row(t, l, pos)[..]);
                            }
                        }
                    }
                }
                prop_assert!(pool.meters().bytes_live_peak <= pool.arena_bytes());
            }
        }
    }
}
