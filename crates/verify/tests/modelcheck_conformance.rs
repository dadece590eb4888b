//! Model ↔ implementation conformance.
//!
//! The model checker (`zero_verify::modelcheck`) exhaustively
//! enumerates every reachable terminal outcome class of the protocol
//! models. These tests close the loop on the real op desk: every outcome
//! a real communicator's desk shows must lie inside the model's feasible
//! classes, and the desk is driven through the schedules that catch the
//! two seeded hand-off mutants (a skipped wake, a FIFO break) and the
//! lane model's skipped wake of the watching lane.

use std::collections::BTreeSet;
use std::thread;
use std::time::{Duration, Instant};

use zero_comm::{
    launch_with_config, Communicator, Group, PendingOp, Precision, ReduceOp, TierOrder, TieredLink, WireFmt,
    WorldConfig,
};
use zero_trace::SpanCategory;
use zero_verify::modelcheck::protocols::{ProgressModel, OK, TIMED_OUT};
use zero_verify::modelcheck::enumerate_final_states;

/// Plain (reduction-free) enumeration budget; far above the measured
/// plain state counts of the desk model at 2 and 3 ops.
const BUDGET: u64 = 2_000_000;

/// Starts of the collective spans on the rank's timeline that moved
/// `bytes`: op `a` sends 4 B, op `b` 8 B.
fn op_starts(c: &Communicator, bytes: u64) -> Vec<u64> {
    let timeline = c.trace().timeline();
    timeline.spans_in(SpanCategory::Collective).filter(|s| s.bytes == bytes).map(|s| s.start_ns).collect()
}

/// Both mutant counterexamples start here: each rank of a fresh 2-rank
/// world, whose every message costs 1 ms on its sender's thread, queues
/// all-gathers `a` (one float a member) and `b` (two) and at once waits
/// on one of them, while its progress thread is still parked (the first
/// queued op only wakes it). The caller usually finds the fabric free and
/// helps; when the progress thread wins the race instead, the round
/// checks the same outcome on the other schedule, so every round must
/// pass and twenty rounds drive the helper's schedule many times over.
const ROUNDS: usize = 20;

/// A 2-rank world whose every message costs 1 ms on its sender's thread.
fn linked() -> WorldConfig {
    WorldConfig::with_tiered_link(TieredLink {
        node_size: 1,
        intra_latency: Duration::ZERO,
        intra_bytes_per_sec: f64::INFINITY,
        inter_latency: Duration::from_millis(1),
        inter_bytes_per_sec: f64::INFINITY,
    })
}

fn on_fresh_desks<R: Send>(body: impl Fn(&Communicator, [PendingOp; 2]) -> R + Sync) -> Vec<R> {
    launch_with_config(2, linked(), |mut c| {
        let g = Group::world(2);
        let mut gather = |n: usize| {
            let buf = vec![c.rank() as f32; 2 * n];
            c.start_all_gather(&g, buf, &[n, n], Precision::Fp32, WireFmt::Raw)
        };
        let ops = [gather(1), gather(2)];
        body(&c, ops)
    })
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
    for got in on_fresh_desks(|_, [a, b]| (a.wait(), b.wait())) {
        assert_eq!(got, (Ok(vec![0.0, 1.0]), Ok(vec![0.0, 0.0, 1.0, 1.0])));
    }
}

#[test]
fn real_desk_wakes_the_progress_thread_for_ops_left_queued() {
    // The skipped-wake counterexample: the caller helps `a` and hands the
    // fabric back with `b` queued. `b` must then finish without the
    // caller waiting on it.
    for round in 0..ROUNDS {
        on_fresh_desks(|c, [a, b]| {
            a.wait().expect("a");
            drop(b);
            let deadline = Instant::now() + Duration::from_secs(5);
            while op_starts(c, 8).is_empty() {
                assert!(Instant::now() < deadline, "round {round}: the op left queued behind the helper never ran");
                thread::sleep(Duration::from_millis(1));
            }
        });
    }
}

#[test]
fn real_desk_runs_a_helpers_queue_in_issue_order() {
    // The FIFO-break counterexample: the caller waits on `b` with `a`
    // queued ahead of it; whoever runs them, `a` runs first.
    for round in 0..ROUNDS {
        on_fresh_desks(|c, [a, b]| {
            b.wait().expect("b");
            drop(a);
            let (at, bt) = (op_starts(c, 4), op_starts(c, 8));
            assert!(at.len() == 1 && bt.len() == 1 && at[0] < bt[0], "round {round}: a at {at:?}, b at {bt:?}");
        });
    }
}

#[test]
fn real_desk_wakes_the_lane_watching_an_op_its_helper_ran() {
    // The skipped-watched-wake counterexample: each rank issues a
    // reduce-scatter and the spill that drains it, then waits the
    // reduce-scatter, usually running it itself while the lane waits on
    // the desk's finished count. Handing the fabric back must wake the
    // lane, so the spill finishes right behind the reduce-scatter; left
    // parked, the lane would report `ProgressStalled` after its budget
    // (2 s at this receive timeout).
    let config = WorldConfig { recv_timeout: Duration::from_millis(100), ..linked() };
    for round in 0..ROUNDS {
        launch_with_config(2, config.clone(), |mut c| {
            let (g, p, raw) = (Group::world(2), Precision::Fp32, WireFmt::Raw);
            let rs = c.start_reduce_scatter(&g, vec![1.0; 2], ReduceOp::Sum, &[1, 1], p, raw);
            let spill = c.start_tier_move("tier-grad-spill", 4, Duration::ZERO, TierOrder::Drains);
            let t0 = Instant::now();
            assert_eq!(rs.wait(), Ok(vec![2.0]), "round {round}");
            assert_eq!(spill.wait(), Ok(Vec::new()), "round {round}: the lane missed the wake");
            assert!(t0.elapsed() < Duration::from_secs(1), "round {round}: the spill took {:?}", t0.elapsed());
        });
    }
}
