//! Non-blocking collective machinery: the progress thread, its job queue,
//! and the [`PendingOp`] completion handle.
//!
//! Every communication op a rank issues — blocking or not — is a closure
//! over the rank's private [`Fabric`](crate::world::Fabric), enqueued on
//! the rank's progress thread by `Communicator::submit`: the call site
//! moves the op's inputs into the closure and names the `Fabric` body to
//! run, so a collective is spelled twice (its `start_*`, which picks the
//! body its wire format names, and the body) and nowhere else. The
//! thread drains the queue in FIFO order, so the
//! *fabric-visible* op order is exactly the issue order. That single
//! property carries all the correctness arguments over from the
//! synchronous engine unchanged:
//!
//! * **Deadlock-freedom** — ranks run an SPMD schedule; identical issue
//!   order per rank means the rings pair up exactly as before.
//! * **Fault coordinates** — "the Nth fabric op on rank R" counts the same
//!   ops in the same order, so [`FaultPlan`](crate::fault::FaultPlan)
//!   triggers hit the same message whether the caller overlapped or not.
//! * **Volume accounting** — the same `send_raw` path records the same
//!   bytes/messages; overlap changes *when*, never *how much*.
//!
//! There is one way to run a collective: `start_all_gather` /
//! `start_reduce_scatter` submit it in any wire format and return the
//! [`PendingOp`]; *when* the caller waits is its own business. The
//! world-wide blocking wrappers in `collectives.rs` are
//! `start_*(…).wait()` for callers with nothing to overlap.
//!
//! A collective over a group of one is not communication, so it is not a
//! job: `all_reduce_in` and the `start_*` calls compute its result on the
//! caller's thread (a `start_*` returns a [`PendingOp`] that already holds
//! it). It never waits behind an in-flight prefetch, and it records no
//! span and no exec or wait time. It touches no fabric either, so the
//! FIFO's guarantees above hold unchanged: it has no peer to pair with, no
//! fault coordinate and no bytes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::stats::{CollectiveKind, TrafficStats};
use crate::world::Fabric;
use zero_trace::{SpanCategory, TraceRecorder, TRACK_PROGRESS};

/// How often the progress thread re-checks its queue for disconnection.
/// Purely a liveness bound on thread shutdown; queued jobs wake it
/// immediately.
const PROGRESS_TICK: Duration = Duration::from_millis(50);

/// What an op yields: its result payload, or its typed failure.
pub(crate) type OpResult = Result<Vec<f32>, CommError>;

/// A queued op plus the channel its result is delivered on.
pub(crate) struct Job {
    /// The stats kind the op's execution time and bytes are attributed to
    /// (`None` for tier moves, which send no payload).
    pub(crate) kind: Option<CollectiveKind>,
    /// A `Fabric` body from `collectives.rs`/`world.rs` with its inputs
    /// moved in, yielding the op's result payload (empty for tier
    /// moves).
    pub(crate) run: Box<dyn FnOnce(&mut Fabric) -> OpResult + Send>,
    pub(crate) done: Sender<OpResult>,
}

/// Handle to an in-flight communication op.
///
/// Obtained from `start_reduce_scatter` / `start_all_gather` (or
/// internally by every blocking collective). The op advances on the
/// rank's progress thread regardless of what the holder does (over a
/// group of one it is complete on return); [`PendingOp::wait`] blocks
/// until the result (or the op's typed failure) arrives.
///
/// Dropping the handle without waiting does **not** cancel the op — it
/// still executes, keeping the rank's fabric schedule aligned with its
/// SPMD peers; only the result is discarded.
#[must_use = "an unwaited PendingOp discards its result and any error"]
pub struct PendingOp {
    pub(crate) rank: usize,
    pub(crate) kind: Option<CollectiveKind>,
    pub(crate) done: Receiver<OpResult>,
    pub(crate) budget: Duration,
    pub(crate) stats: Arc<TrafficStats>,
    pub(crate) trace: Arc<TraceRecorder>,
}

impl PendingOp {
    /// Blocks until the op completes, returning its result payload (shape
    /// depends on the op — see the `start_*` that issued it) or its typed
    /// failure.
    ///
    /// The wait is bounded: the fabric bounds every op by its receive
    /// timeouts, and the budget covers the worst legal case for this op
    /// plus everything queued ahead of it, so exceeding it surfaces as
    /// [`CommError::ProgressStalled`] instead of blocking forever. Caller
    /// blocked time is recorded per kind in
    /// [`TrafficStats::timing`](crate::stats::TrafficStats::timing).
    pub fn wait(self) -> Result<Vec<f32>, CommError> {
        let span = match self.kind {
            Some(kind) => self.trace.begin(SpanCategory::Wait, kind.name()),
            None => zero_trace::SpanId::NULL,
        };
        let t0 = Instant::now();
        let res = match self.done.recv_timeout(self.budget) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => {
                Err(CommError::ProgressStalled { rank: self.rank, waited: self.budget })
            }
            // The progress thread is gone: it dropped the job unfinished,
            // or the job could not even be enqueued.
            Err(RecvTimeoutError::Disconnected) => {
                Err(CommError::ProgressLost { rank: self.rank })
            }
        };
        if let Some(kind) = self.kind {
            self.stats.record_wait(kind, t0.elapsed());
        }
        self.trace.end(span);
        res
    }
}

/// The per-rank progress loop: drains the FIFO job queue against the
/// rank's fabric until every `Communicator`/`PendingOp` sender is gone.
pub(crate) fn progress_loop(mut fabric: Fabric, jobs: Receiver<Job>, queued: Arc<AtomicUsize>) {
    loop {
        match jobs.recv_timeout(PROGRESS_TICK) {
            Ok(Job { kind, run, done }) => {
                // One collective span per executed op, byte-tagged with the
                // traffic-counter delta its execution produced: only this
                // thread records sends on this fabric, so the delta is
                // exactly the op's own volume and timeline byte sums
                // reconcile with `TrafficStats` by construction. The span
                // is recorded before the completion send so a waiter that
                // returns is guaranteed to see it in the timeline.
                let (span, bytes_before) = match kind {
                    Some(kind) => (
                        fabric.trace.begin_on(
                            TRACK_PROGRESS,
                            SpanCategory::Collective,
                            kind.name(),
                        ),
                        fabric.stats.bytes(kind),
                    ),
                    None => (zero_trace::SpanId::NULL, 0),
                };
                let t0 = Instant::now();
                let res = run(&mut fabric);
                if let Some(kind) = kind {
                    fabric.stats.record_exec(kind, t0.elapsed());
                    fabric.trace.end_with_bytes(span, fabric.stats.bytes(kind) - bytes_before);
                }
                queued.fetch_sub(1, Ordering::SeqCst);
                // The waiter may have dropped its handle; the op already
                // ran (keeping the SPMD schedule aligned), so a missing
                // listener is not an error.
                let _ = done.send(res);
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // `fabric` drops here: endpoints close and peers observe `PeerLost`.
}

#[cfg(test)]
mod tests {
    use crate::collectives::chunk_range;
    use crate::error::CommError;
    use crate::fault::FaultPlan;
    use crate::group::Group;
    use crate::stats::CollectiveKind;
    use crate::world::{launch, try_launch_with_config, TieredLink, WorldConfig};
    use crate::{Precision, ReduceOp, WireFmt};
    use std::time::{Duration, Instant};
    use zero_trace::SpanCategory;

    /// A flat modeled link on which every message costs `latency` alone,
    /// slept on its sender's progress thread.
    fn flat_link(latency: Duration) -> WorldConfig {
        WorldConfig::with_tiered_link(TieredLink {
            node_size: 1,
            intra_latency: Duration::ZERO,
            intra_bytes_per_sec: f64::INFINITY,
            inter_latency: latency,
            inter_bytes_per_sec: f64::INFINITY,
        })
    }

    #[test]
    fn started_op_completes_while_caller_computes() {
        let n = 4;
        let len = 16;
        let results = launch(n, move |mut c| {
            let g = Group::world(n);
            let input: Vec<f32> = (0..len).map(|i| (i + c.rank()) as f32).collect();
            let counts: Vec<usize> = (0..n).map(|i| chunk_range(len, n, i).len()).collect();
            let raw = WireFmt::Raw;
            let pending =
                c.start_reduce_scatter(&g, &input, ReduceOp::Sum, &counts, Precision::Fp32, raw);
            // "Compute" while the ring runs on the progress thread.
            let local: f32 = (0..1000).map(|x| (x as f32).sqrt()).sum();
            let chunk = pending.wait().unwrap();
            (local, chunk)
        });
        for (rank, (_, got)) in results.iter().enumerate() {
            let r = chunk_range(len, n, rank);
            for (j, &v) in got.iter().enumerate() {
                let want: f32 = (0..n).map(|rr| (r.start + j + rr) as f32).sum();
                assert_eq!(v, want, "rank {rank} element {j}");
            }
        }
    }

    #[test]
    fn multiple_in_flight_ops_complete_in_fifo_order() {
        let n = 3;
        let len = 9;
        let results = launch(n, move |mut c| {
            let g = Group::world(n);
            let counts: Vec<usize> = (0..n).map(|i| chunk_range(len, n, i).len()).collect();
            // Queue three all-gathers back to back, then wait in order.
            let mut pendings = Vec::new();
            for round in 0..3 {
                let shard: Vec<f32> = chunk_range(len, n, c.rank())
                    .map(|i| (i * 10 + round) as f32)
                    .collect();
                let raw = WireFmt::Raw;
                pendings.push(c.start_all_gather(&g, &shard, &counts, Precision::Fp32, raw));
            }
            pendings.into_iter().map(|p| p.wait().unwrap()).collect::<Vec<_>>()
        });
        for got in &results {
            for (round, out) in got.iter().enumerate() {
                let want: Vec<f32> = (0..len).map(|i| (i * 10 + round) as f32).collect();
                assert_eq!(out, &want, "round {round}");
            }
        }
    }

    #[test]
    fn crash_during_in_flight_op_surfaces_typed_error_without_deadlock() {
        // Rank 0's fault plan kills it at its first reduce-scatter — which
        // is in flight (started, not waited) when the fault fires. The
        // victim's wait() must yield the typed InjectedCrash and the peers
        // must observe PeerLost/Timeout, never a deadlock.
        let n = 3;
        let len = 12;
        let config = WorldConfig {
            recv_timeout: Duration::from_millis(200),
            faults: FaultPlan::new().with_crash_at_kind(0, CollectiveKind::ReduceScatter, 0),
            ..WorldConfig::default()
        };
        let out = try_launch_with_config(n, config, move |mut c| {
            let g = Group::world(n);
            let input = vec![1.0_f32; len];
            let counts: Vec<usize> = (0..n).map(|i| chunk_range(len, n, i).len()).collect();
            let raw = WireFmt::Raw;
            let pending =
                c.start_reduce_scatter(&g, &input, ReduceOp::Sum, &counts, Precision::Fp32, raw);
            pending.wait().map(|_| ())
        });
        assert_eq!(
            out[0].as_ref().unwrap(),
            &Err(CommError::InjectedCrash { rank: 0, op: 0 })
        );
        for (rank, res) in out.iter().enumerate().skip(1) {
            match res.as_ref().unwrap() {
                Err(CommError::PeerLost { .. }) | Err(CommError::Timeout { .. }) => {}
                other => panic!("rank {rank}: expected PeerLost/Timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn dropped_pending_op_still_executes_and_keeps_schedule_aligned() {
        // Dropping a handle discards the result but the op still runs on
        // the progress thread, so a later collective pairs up correctly on
        // every rank.
        let n = 2;
        let results = launch(n, move |mut c| {
            let g = Group::world(n);
            let input = vec![(c.rank() + 1) as f32; 4];
            let counts: Vec<usize> = (0..n).map(|i| chunk_range(4, n, i).len()).collect();
            let raw = WireFmt::Raw;
            drop(c.start_reduce_scatter(&g, &input, ReduceOp::Sum, &counts, Precision::Fp32, raw));
            let mut buf = vec![c.rank() as f32; 2];
            c.all_reduce_in(&g, &mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
            buf[0]
        });
        assert_eq!(results, vec![1.0; n]);
    }

    #[test]
    fn a_group_of_one_completes_on_the_caller_behind_a_queued_op() {
        // A 200 ms all-gather over the world is queued on each rank's
        // progress thread; every collective over the rank's group of one
        // still returns at once, before that op could have finished, and
        // leaves no span and no exec or wait time behind.
        let n = 2;
        let lat = Duration::from_millis(200);
        let config = flat_link(lat);
        let out = try_launch_with_config(n, config, move |mut c| {
            let (world, alone) = (Group::world(n), Group::new(vec![c.rank()]));
            let (p, raw) = (Precision::Fp32, WireFmt::Raw);
            let queued = c.start_all_gather(&world, &[c.rank() as f32], &[1, 1], p, raw);
            let t0 = Instant::now();
            let mut buf = [1.5_f32, -2.0];
            c.all_reduce_in(&alone, &mut buf, ReduceOp::Mean, p).unwrap();
            let rs = c.start_reduce_scatter(&alone, &buf, ReduceOp::Sum, &[2], p, raw).wait().unwrap();
            let ag = c.start_all_gather(&alone, &rs, &[2], p, raw).wait().unwrap();
            let local = t0.elapsed();
            let gathered = queued.wait().unwrap();
            let timeline = c.trace().timeline();
            (local, ag, gathered, timeline, c.stats().timing())
        });
        for (rank, r) in out.iter().enumerate() {
            let (local, ag, gathered, timeline, timing) = r.as_ref().unwrap();
            assert!(*local < lat, "rank {rank}: the group of one waited {local:?} behind the queue");
            assert_eq!((ag, gathered), (&vec![1.5, -2.0], &vec![0.0, 1.0]), "rank {rank}");
            // Only the world op ran on the progress thread and was waited.
            assert_eq!(timeline.count(SpanCategory::Collective), 1, "rank {rank}");
            assert_eq!(timeline.count(SpanCategory::Wait), 1, "rank {rank}");
            for kind in [CollectiveKind::AllReduce, CollectiveKind::ReduceScatter] {
                assert_eq!((timing.exec_nanos(kind), timing.wait_nanos(kind)), (0, 0), "rank {rank}");
            }
        }
    }

    #[test]
    fn a_group_of_one_refuses_a_non_member() {
        let n = 2;
        let out = launch(n, move |mut c| {
            let other = 1 - c.rank();
            let g = Group::new(vec![other]);
            let mut buf = [1.0_f32; 3];
            let p = Precision::Fp32;
            let ar = c.all_reduce_in(&g, &mut buf, ReduceOp::Sum, p);
            let rs = c.start_reduce_scatter(&g, &buf, ReduceOp::Sum, &[3], p, WireFmt::Raw).wait();
            let qwz = WireFmt::Int8Block { block: 4 };
            let ag = c.start_all_gather(&g, &buf, &[3], p, qwz).wait().map(drop);
            (other, [ar, rs.map(drop), ag], c.stats().timing().total_exec_nanos())
        });
        for (rank, (other, errs, exec)) in out.into_iter().enumerate() {
            for err in errs {
                assert_eq!(err, Err(CommError::NotInGroup { rank, group: vec![other] }));
            }
            assert_eq!(exec, 0, "rank {rank}: a refused op reached the progress thread");
        }
    }

    #[test]
    fn link_cost_is_hidden_by_overlap() {
        // With a modeled per-message link cost, computing while a started
        // op is in flight must block the caller for (measurably) less time
        // than the op executes on the progress thread.
        let n = 2;
        let len = 8;
        let lat = Duration::from_millis(20);
        let config = flat_link(lat);
        let out = try_launch_with_config(n, config, move |mut c| {
            let g = Group::world(n);
            let counts: Vec<usize> = (0..n).map(|i| chunk_range(len, n, i).len()).collect();
            let shard: Vec<f32> = chunk_range(len, n, c.rank()).map(|i| i as f32).collect();
            let pending = c.start_all_gather(&g, &shard, &counts, Precision::Fp32, WireFmt::Raw);
            // Sleep past the single ring send: by wait() time the result is in.
            std::thread::sleep(lat * 3);
            pending.wait().map(|out| {
                let t = c.stats().timing();
                (out, t.wait_nanos(CollectiveKind::AllGather), t.exec_nanos(CollectiveKind::AllGather))
            })
        });
        for (rank, r) in out.iter().enumerate() {
            let (data, wait_ns, exec_ns) = r.as_ref().unwrap().as_ref().unwrap();
            let want: Vec<f32> = (0..len).map(|i| i as f32).collect();
            assert_eq!(data, &want, "rank {rank}");
            // The send's link cost (≥ 20ms) was paid on the progress thread...
            assert!(*exec_ns >= lat.as_nanos() as u64, "rank {rank}: exec {exec_ns}ns");
            // ...while the caller, who slept past it, barely blocked.
            assert!(
                *wait_ns < exec_ns / 2,
                "rank {rank}: wait {wait_ns}ns not hidden vs exec {exec_ns}ns"
            );
        }
    }
}
