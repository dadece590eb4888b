//! Model ↔ implementation conformance.
//!
//! The model checker (`zero_verify::modelcheck`) exhaustively
//! enumerates every reachable terminal outcome class of the protocol
//! models. These tests close the loop on the real primitive: the actual
//! [`ShutdownLatch`] is driven through the critical schedules the
//! checker found — shutdown before the deadline, deadline expiring under
//! live peers, and depart racing the deadline — and every observed
//! outcome must lie inside the model's feasible classes.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use zero_comm::ShutdownLatch;
use zero_verify::modelcheck::protocols::{LatchModel, OK, TIMED_OUT};
use zero_verify::modelcheck::enumerate_final_states;

/// Plain (reduction-free) enumeration budget; far above the measured
/// plain state counts of the latch model at n ∈ {2, 3}.
const BUDGET: u64 = 2_000_000;

/// Feasible outcomes of the waiter thread (t0) in the latch model.
fn latch_waiter_classes(ranks: usize) -> BTreeSet<i64> {
    enumerate_final_states(&LatchModel { ranks }, BUDGET)
        .expect("latch enumeration must fit the budget")
        .iter()
        .map(|st| st.locals[0].regs[0])
        .collect()
}

#[test]
fn real_shutdown_latch_realizes_every_model_outcome_class() {
    for ranks in [2usize, 3] {
        // The checker enumerates exactly two waiter outcomes: cancelled
        // early (all peers departed) or deadline expiry.
        let classes = latch_waiter_classes(ranks);
        assert_eq!(classes, BTreeSet::from([TIMED_OUT, OK]), "n={ranks}");

        // Class OK — the "shutdown before deadline" schedule: every
        // peer departs, then the waiter's deadline wait is cancelled.
        let latch = ShutdownLatch::new(ranks);
        for _ in 1..ranks {
            latch.depart();
        }
        assert!(
            latch.wait_sole_survivor(Instant::now() + Duration::from_secs(5)),
            "n={ranks}: wait after full shutdown must cancel early"
        );

        // Class TIMED_OUT — the checker's injected-timeout placement:
        // the deadline expires while peers are still live.
        let latch = ShutdownLatch::new(ranks);
        assert!(
            !latch.wait_sole_survivor(Instant::now() + Duration::from_millis(10)),
            "n={ranks}: wait with live peers must hit the deadline"
        );

        // The model's TIMED_OUT terminals keep the live count intact,
        // so the real latch must stay usable after an expired wait.
        for _ in 1..ranks {
            latch.depart();
        }
        assert!(
            latch.wait_sole_survivor(Instant::now() + Duration::from_secs(5)),
            "n={ranks}: latch must remain usable after a timed-out wait"
        );
    }
}

#[test]
fn real_shutdown_latch_survives_depart_racing_deadline() {
    // The schedule the checker calls critical: depart racing the
    // deadline. Real time cannot pin the exact interleaving, but with a
    // generous deadline the depart side must win and cancel the wait —
    // the model's OK class.
    let latch = ShutdownLatch::new(2);
    let peer = Arc::clone(&latch);
    let h = thread::spawn(move || {
        thread::sleep(Duration::from_millis(20));
        peer.depart();
    });
    let cancelled = latch.wait_sole_survivor(Instant::now() + Duration::from_secs(10));
    h.join().unwrap();
    assert!(cancelled, "a depart before the far deadline must cancel the wait");
}
