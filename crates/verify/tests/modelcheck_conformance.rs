//! Model ↔ implementation conformance.
//!
//! The model checker (`zero_verify::modelcheck`) exhaustively
//! enumerates every reachable terminal outcome class of the protocol
//! models. These tests close the loop on the real primitives: the actual
//! [`ShutdownLatch`] is driven through the critical schedules the
//! checker found — shutdown before the deadline, deadline expiring under
//! live peers, and depart racing the deadline — and every observed
//! outcome must lie inside the model's feasible classes; a real
//! communicator's op desk is driven through the schedules that catch the
//! two seeded hand-off mutants (a skipped wake, a FIFO break).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use zero_comm::{ShutdownLatch, World};
use zero_trace::SpanCategory;
use zero_verify::modelcheck::protocols::{LatchModel, ProgressModel, OK, TIMED_OUT};
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

/// Starts of the tier spans named `name` on the rank's timeline.
fn tier_starts(c: &zero_comm::Communicator, name: &str) -> Vec<u64> {
    let timeline = c.trace().timeline();
    timeline.spans_in(SpanCategory::Tier).filter(|s| s.name == name).map(|s| s.start_ns).collect()
}

/// Both mutant counterexamples start here: the caller queues 1 ms ops `a`
/// and `b` on a fresh rank and at once waits on one of them, while the
/// progress thread is still parked (the first queued op only wakes it).
/// The caller usually finds the fabric free and helps; when the progress
/// thread wins the race instead, the round checks the same outcome on the
/// other schedule, so every round must pass and twenty rounds drive the
/// helper's schedule many times over.
const ROUNDS: usize = 20;

fn fresh_desk() -> (zero_comm::Communicator, [zero_comm::PendingOp; 2]) {
    let mut c = World::new(1).take(0);
    let a = c.start_tier_move("a", 0, Duration::from_millis(1));
    let b = c.start_tier_move("b", 0, Duration::from_millis(1));
    (c, [a, b])
}

#[test]
fn real_desk_outcomes_lie_in_the_models_classes() {
    for ops in [2usize, 3] {
        let classes: BTreeSet<i64> = enumerate_final_states(&ProgressModel { ops, mutant: None }, BUDGET)
            .expect("progress enumeration must fit the budget")
            .iter()
            .map(|st| st.locals[1].regs[0])
            .collect();
        assert_eq!(classes, BTreeSet::from([TIMED_OUT, OK]), "{ops} ops");
    }
    // Class OK on the real desk: a help-first wait returns its op's result.
    let (_c, [a, b]) = fresh_desk();
    assert_eq!(a.wait(), Ok(Vec::new()));
    drop(b);
}

#[test]
fn real_desk_wakes_the_progress_thread_for_ops_left_queued() {
    // The skipped-wake counterexample: the caller helps `a` and hands the
    // fabric back with `b` queued. `b` must then finish without the
    // caller waiting on it.
    for round in 0..ROUNDS {
        let (c, [a, b]) = fresh_desk();
        a.wait().expect("a");
        drop(b);
        let deadline = Instant::now() + Duration::from_secs(5);
        while tier_starts(&c, "b").is_empty() {
            assert!(Instant::now() < deadline, "round {round}: the op left queued behind the helper never ran");
            thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn real_desk_runs_a_helpers_queue_in_issue_order() {
    // The FIFO-break counterexample: the caller waits on `b` with `a`
    // queued ahead of it; whoever runs them, `a` runs first.
    for round in 0..ROUNDS {
        let (c, [a, b]) = fresh_desk();
        b.wait().expect("b");
        drop(a);
        let (at, bt) = (tier_starts(&c, "a"), tier_starts(&c, "b"));
        assert!(at.len() == 1 && bt.len() == 1 && at[0] < bt[0], "round {round}: a at {at:?}, b at {bt:?}");
    }
}
