//! Model ↔ implementation conformance.
//!
//! The model checker (`zero_verify::modelcheck`) exhaustively
//! enumerates every reachable terminal outcome class of the protocol
//! models. These tests close the loop on the real op desk: every outcome
//! a real communicator's desk shows must lie inside the model's feasible
//! classes, and the desk is driven through the schedules that catch the
//! two seeded hand-off mutants (a skipped wake, a FIFO break).

use std::collections::BTreeSet;
use std::thread;
use std::time::{Duration, Instant};

use zero_comm::World;
use zero_trace::SpanCategory;
use zero_verify::modelcheck::protocols::{ProgressModel, OK, TIMED_OUT};
use zero_verify::modelcheck::enumerate_final_states;

/// Plain (reduction-free) enumeration budget; far above the measured
/// plain state counts of the desk model at 2 and 3 ops.
const BUDGET: u64 = 2_000_000;

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
