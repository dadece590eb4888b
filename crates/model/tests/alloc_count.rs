//! Heap allocations on the compute path must not scale with the work: a
//! block's forward + backward allocates its activations and gradients
//! (a fixed number of buffers), never per (batch, head) map, a GEMM at a
//! shape it has already seen allocates nothing, and a decode row batch
//! runs entirely inside its caller-owned `RowBatch`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zero_model::{
    block_rows_kv, embed_rows, head_rows, init_full_params, ContigKv, Gpt, IncrementalDecoder,
    ModelConfig, RowBatch,
};
use zero_tensor::ops::matmul::{sgemm_nt, sgemm_tn};

thread_local! {
    /// Allocations made by the current thread (tests run on their own).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`
// with no destructor, so touching it cannot allocate or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations of one block forward + backward after a warm-up call.
fn block_allocations(batch: usize, heads: usize) -> usize {
    let cfg = ModelConfig { vocab: 64, seq: 32, hidden: 128, layers: 1, heads };
    let gpt = Gpt::new(cfg);
    let params = init_full_params(&cfg, 3);
    let block = &params[gpt.layout().units()[1].range.clone()];
    let x = vec![0.25; batch * cfg.seq * cfg.hidden];
    let dy = vec![0.5; x.len()];
    let mut grads = vec![0.0; block.len()];
    let mut ident = |_: &mut [f32]| {};
    let mut fwd_bwd = || {
        let (_, saved) = gpt.block_fwd(0, block, &x, batch, &mut ident);
        gpt.block_bwd(0, block, &saved, &dy, &mut grads, batch, &mut ident);
    };
    fwd_bwd();
    allocations(fwd_bwd)
}

#[test]
fn block_allocations_do_not_scale_with_batch_or_heads() {
    let (small, large) = (block_allocations(1, 1), block_allocations(8, 4));
    assert_eq!(small, large, "batch 1 · 1 head vs batch 8 · 4 heads");
}

#[test]
fn repeated_gemm_at_one_shape_allocates_nothing() {
    // Both operands are packed on every call (`_nt` transposes B, `_tn`
    // transposes A); the panels must come from the thread's grow-only
    // buffers, sized by the first call.
    let (m, k, n) = (256, 128, 512);
    let (a, b) = (vec![0.5; m * k], vec![0.25; n * k]);
    let mut c = vec![0.0; m * n];
    let mut both = || {
        sgemm_nt(&a, &b, &mut c, m, k, n);
        sgemm_tn(&a, &b, &mut c[..k * m], k, m, m);
    };
    both();
    assert_eq!(allocations(|| (0..3).for_each(|_| both())), 0);
}

#[test]
fn a_steady_state_decode_row_batch_allocates_nothing() {
    let cfg = ModelConfig { vocab: 64, seq: 32, hidden: 64, layers: 2, heads: 4 };
    let gpt = Gpt::new(cfg);
    let params = init_full_params(&cfg, 3);
    let units = gpt.layout().units();
    let unit = |u: usize| &params[units[u].range.clone()];
    let slots = 4;
    let mut kv = ContigKv::new(cfg.layers, slots, cfg.seq, cfg.hidden);
    let mut batch = RowBatch::new(&cfg, slots * cfg.seq);
    // One step of a serving rank: every slot's pending rows through every
    // unit, the head on each slot's last row.
    let mut step = |batch: &mut RowBatch, rows_per_slot: std::ops::Range<usize>| {
        batch.clear();
        for slot in 0..slots {
            rows_per_slot.clone().for_each(|pos| batch.push(slot, pos, (slot + pos) as u32));
        }
        embed_rows(&gpt, unit(0), batch).unwrap();
        for l in 0..cfg.layers {
            block_rows_kv(&gpt, l, unit(1 + l), &mut kv, batch);
        }
        let last = rows_per_slot.len();
        let picks: [usize; 4] = std::array::from_fn(|slot| (slot + 1) * last - 1);
        std::hint::black_box(head_rows(&gpt, unit(units.len() - 1), &picks, batch));
    };
    // The whole-prompt step sizes the GEMM's panels; decode steps follow.
    step(&mut batch, 0..8);
    step(&mut batch, 8..9);
    assert_eq!(allocations(|| step(&mut batch, 9..10)), 0, "one decode row per slot");
    assert_eq!(allocations(|| step(&mut batch, 10..16)), 0, "a six-row chunk per slot");

    // The single-request decoder is the same kernel at one row: its only
    // allocation is the logits `Vec` it returns.
    let mut dec = IncrementalDecoder::new(&gpt, &params);
    dec.feed(1).unwrap();
    assert_eq!(allocations(|| drop(dec.feed(2).unwrap())), 1);
}
