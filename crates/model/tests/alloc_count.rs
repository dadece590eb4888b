//! Heap allocations on the compute path must not scale with the work: a
//! block's forward + backward allocates its activations and gradients
//! (a fixed number of buffers), never per (batch, head) map, and a GEMM
//! at a shape it has already seen allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zero_model::{init_full_params, Gpt, ModelConfig};
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
