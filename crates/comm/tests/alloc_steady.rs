//! A warm fabric moves bytes without allocating: after warm-up, neither a
//! 2-rank all-gather round trip at serving-unit size — over in-process
//! pipes or over the socket backend — nor a serving step, nor an
//! offloaded step's tier moves on the host-link lane, makes a heap
//! allocation of 1 KiB or more on any thread — the rank threads, their
//! progress and lane threads, the socket reader and heartbeat threads, or
//! anything they wake. Every thread of a measured world exits once its
//! ranks have returned.
//!
//! Every allocation of at least [`BIG`] bytes made by any thread while a
//! measurement window is open is counted, and the sizes of the first
//! [`SIZES`] are kept for the failure message. Spans are switched off in the
//! measured worlds: the trace recorder keeps every span it is given, so
//! its timeline grows with the run by design. One world is measured at a
//! time, and the next is not built until every thread of the last has
//! exited: a socket reader or heartbeat thread winding down after its
//! world returned would otherwise be counted in the next window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use zero_comm::process::fresh_token;
use zero_comm::{
    connect_process_rank, launch, Communicator, Group, Precision, ProcessWorldConfig, ReduceOp, TierOrder, WireFmt,
};
use zero_core::Partitioner;
use zero_model::{init_full_params, Gpt, ModelConfig};
use zero_serve::engine::run_rank;
use zero_serve::{ServeConfig, ServeRequest};

/// The smallest allocation the gate counts.
const BIG: usize = 1024;

/// How many counted allocations have their size kept.
const SIZES: usize = 64;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// The sizes of the first [`SIZES`] allocations counted in the window:
/// atomics, so keeping one allocates nothing.
static FIRST_SIZES: [AtomicUsize; SIZES] = [const { AtomicUsize::new(0) }; SIZES];

/// Counts an allocation of `size` bytes if it is big and a window is open.
fn count(size: usize) {
    if size >= BIG && COUNTING.load(Ordering::Relaxed) {
        let i = BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = FIRST_SIZES.get(i) {
            slot.store(size, Ordering::Relaxed);
        }
    }
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain atomics, so touching
// them cannot allocate or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`, as the
        // caller guarantees; `System` handles it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One measurement at a time: the counter is process-wide.
static WINDOW: Mutex<()> = Mutex::new(());

/// Takes the one window for a whole test, its assertion included: a
/// failing assertion's panic hook allocates (with `RUST_BACKTRACE` set,
/// thousands of times, symbolizing its backtrace), and would otherwise do
/// so inside the next test's window.
fn one_window() -> MutexGuard<'static, ()> {
    WINDOW.lock().unwrap_or_else(|p| p.into_inner())
}

/// The name of the thread each measured world is built from. Linux starts
/// a thread under its creator's name and the fabric names none of its
/// threads, so every rank, progress, lane, reader and heartbeat thread of
/// the world carries it too.
const WORLD: &str = "alloc-world";

/// How long a finished world's threads get to exit.
const THREADS_EXIT: Duration = Duration::from_secs(10);

/// This process's threads that belong to a measured world. (The test
/// harness starts a test's thread when another test finishes, so the
/// process's whole thread count can rise while a world winds down.)
fn world_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten();
    let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
    tasks.map(comm).filter(|name| name.trim_end() == WORLD).count()
}

/// Runs `run` on both ranks of a 2-rank world with spans off and returns
/// the number of big allocations any thread made, with the sizes of the
/// first [`SIZES`] of them, between the point where both ranks called the
/// `open` handed to them (after their warm-up) and the point where both
/// returned. The world is a `World` of threads, or with `sockets` a socket
/// mesh whose ranks are threads of this process. The caller holds
/// [`one_window`]; this returns once the world's threads have exited.
fn big_allocs_in_world(sockets: bool, run: impl Fn(&mut Communicator, &dyn Fn()) + Sync) -> (usize, Vec<usize>) {
    let world = std::thread::Builder::new().name(WORLD.into());
    let big = std::thread::scope(|s| {
        let measured = world.spawn_scoped(s, || measure(sockets, &run)).expect("spawn the world's thread");
        measured.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
    });
    let deadline = Instant::now() + THREADS_EXIT;
    while world_threads() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(world_threads(), 0, "a thread of the finished world outlived it by {THREADS_EXIT:?}");
    big
}

/// The body of [`big_allocs_in_world`], under its window.
fn measure(sockets: bool, run: &(impl Fn(&mut Communicator, &dyn Fn()) + Sync)) -> (usize, Vec<usize>) {
    let gate = Barrier::new(2);
    let open = || {
        if gate.wait().is_leader() {
            BIG_ALLOCS.store(0, Ordering::SeqCst);
            COUNTING.store(true, Ordering::SeqCst);
        }
        gate.wait();
    };
    let rank = |mut c: Communicator| {
        c.trace().set_enabled(false);
        run(&mut c, &open);
        gate.wait();
        COUNTING.store(false, Ordering::SeqCst);
        let big = BIG_ALLOCS.load(Ordering::SeqCst);
        (big, FIRST_SIZES[..big.min(SIZES)].iter().map(|size| size.load(Ordering::SeqCst)).collect())
    };
    if !sockets {
        return launch(2, rank).swap_remove(0);
    }
    let dir = std::env::temp_dir().join(format!("zero-alloc-steady-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the socket directory");
    let mut cfg = ProcessWorldConfig::new(&dir, 2);
    cfg.token = fresh_token();
    let counts: Vec<(usize, Vec<usize>)> = std::thread::scope(|s| {
        let (rank, cfg) = (&rank, &cfg);
        let ranks: Vec<_> = (0..2)
            .map(|r| s.spawn(move || rank(connect_process_rank(r, cfg).expect("mesh handshake"))))
            .collect();
        ranks.into_iter().map(|h| h.join().expect("mesh rank")).collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    counts.into_iter().next().expect("rank 0's count")
}

/// 8 warm-up all-gathers of one average serving unit of `zero_bench`'s
/// serving model (41 024 floats, 164 KB out), then `open`, then
/// `round_trips` more, the buffer handed through every op as the serving
/// engine hands it.
fn gather_round_trips(c: &mut Communicator, open: &dyn Fn(), round_trips: usize) {
    let (n, g) = (41_024, Group::world(2));
    let counts = [n / 2, n / 2];
    let own = c.rank() * n / 2..(c.rank() + 1) * n / 2;
    let mut buf = vec![0.0_f32; n];
    for k in 0..8 + round_trips {
        if k == 8 {
            open();
        }
        buf[own.clone()].iter_mut().for_each(|v| *v = k as f32);
        buf = c.start_all_gather(&g, buf, &counts, Precision::Fp32, WireFmt::Raw).wait().unwrap();
        assert!(buf.iter().all(|&v| v == k as f32), "round trip {k} gathered stale values");
    }
}

#[test]
fn warm_all_gather_round_trips_make_no_big_allocation() {
    let _one = one_window();
    let (big, sizes) = big_allocs_in_world(false, |c, open| gather_round_trips(c, open, 200));
    assert_eq!(big, 0, "200 warm serving-unit all-gathers made {big} allocations of >= {BIG} B, the first of {sizes:?} B");
}

#[test]
fn warm_all_gather_round_trips_over_sockets_make_no_big_allocation() {
    let _one = one_window();
    let (big, sizes) = big_allocs_in_world(true, |c, open| gather_round_trips(c, open, 200));
    assert_eq!(big, 0, "200 warm serving-unit all-gathers over sockets made {big} allocations of >= {BIG} B, the first of {sizes:?} B");
}

/// 8 warm-up rounds, then `open`, then `rounds` more of an offloaded
/// step's pattern on the host-link lane: a fetch seeding a gather, a
/// reduce-scatter with the spill that drains it, and a free spill.
fn tier_rounds(c: &mut Communicator, open: &dyn Fn(), rounds: usize) {
    let (g, p, raw) = (Group::world(2), Precision::Fp32, WireFmt::Raw);
    let mut buf = vec![0.0_f32; 64];
    for k in 0..8 + rounds {
        if k == 8 {
            open();
        }
        let fetch = c.start_tier_move("tier-param-fetch", 128, Duration::ZERO, TierOrder::Seeds);
        let gather = c.start_all_gather(&g, buf, &[32, 32], p, raw);
        fetch.wait().unwrap();
        buf = gather.wait().unwrap();
        let reduce = c.start_reduce_scatter(&g, buf, ReduceOp::Sum, &[32, 32], p, raw);
        let spill = c.start_tier_move("tier-grad-spill", 128, Duration::ZERO, TierOrder::Drains);
        let free = c.start_tier_move("tier-ckpt-spill", 128, Duration::ZERO, TierOrder::Free);
        let mut piece = reduce.wait().unwrap();
        spill.wait().unwrap();
        free.wait().unwrap();
        piece.resize(64, 0.0);
        buf = piece;
    }
}

#[test]
fn warm_tier_moves_on_the_lane_make_no_big_allocation() {
    let _one = one_window();
    let (big, sizes) = big_allocs_in_world(false, |c, open| tier_rounds(c, open, 200));
    assert_eq!(big, 0, "200 warm rounds of tier moves made {big} allocations of >= {BIG} B, the first of {sizes:?} B");
}

/// A 2-rank serving run of one request generating `tokens` tokens.
fn serve(c: &mut Communicator, tokens: usize) {
    let model = ModelConfig { vocab: 32, seq: 40, hidden: 32, layers: 2, heads: 2 };
    let params = init_full_params(&model, 3);
    let shard = &params[Partitioner::new(Gpt::new(model).num_params(), 2).shard_range(c.rank())];
    let cfg = ServeConfig { slots: 2, ..ServeConfig::default() };
    let report = run_rank(c, &model, shard, &[ServeRequest::new(0, vec![1, 2, 3], tokens)], &cfg);
    assert_eq!(report.batch_steps, tokens as u64);
}

#[test]
fn serving_steps_past_warm_up_make_no_big_allocation() {
    // Two runs that differ only in their number of steps: a step that
    // allocated would show up as the difference.
    let _one = one_window();
    let warm_then = |tokens| {
        big_allocs_in_world(false, |c, open| {
            serve(c, 4);
            open();
            serve(c, tokens);
        })
    };
    let ((short, first), (long, then)) = (warm_then(6), warm_then(30));
    assert_eq!(long, short, "6 vs 30 serving steps: {short} vs {long} allocations of >= {BIG} B, the first of {first:?} vs {then:?} B");
}
