//! Non-blocking collective machinery: the rank's op desk, its progress
//! thread, and the [`PendingOp`] completion handle.
//!
//! Every communication op a rank issues is a closure over the rank's
//! private [`Fabric`](crate::world::Fabric). `start_*` queue it on the
//! rank's [`Desk`] with the op's owned buffer moved in
//! (`Communicator::submit`); the blocking collectives run their body on the
//! caller's thread over the caller's borrowed slices
//! (`Communicator::run_now`). Whoever holds the fabric runs the queue
//! front to back, so the *fabric-visible* op order is exactly the issue
//! order. That single property carries all the correctness arguments over
//! from the synchronous engine unchanged:
//!
//! * **Deadlock-freedom** — ranks run an SPMD schedule; identical issue
//!   order per rank means the rings pair up exactly as before.
//! * **Fault coordinates** — "the Nth fabric op on rank R" counts the same
//!   ops in the same order, so [`FaultPlan`](crate::fault::FaultPlan)
//!   triggers hit the same message whether the caller overlapped or not.
//! * **Volume accounting** — the same `Fabric::send_raw` path records the same
//!   bytes/messages; overlap changes *when*, never *how much*.
//!
//! Who holds the fabric is the hand-off protocol, whose decisions are the
//! pure kernel [`protocol::handoff`](crate::protocol::handoff):
//!
//! * the **progress thread** runs queued ops back to back while the caller
//!   computes, so an op issued ahead overlaps compute;
//! * **help-first wait** — a caller that waits on an op nobody has started,
//!   finding the fabric free, takes it and runs, on its own thread, every
//!   op queued up to and including its own: a synchronous op costs no
//!   thread hand-off. A helper that hands the fabric back with ops still
//!   queued wakes the progress thread, so ops issued behind its own still
//!   overlap the caller's next compute. A progress thread that is busy
//!   keeps the fabric and goes on to the next op; the caller waits for it.
//!
//! Either way the op records one collective span on the progress track,
//! byte-tagged with the traffic its execution produced, and its execution
//! time; a wait records its blocked time, which includes the execution of
//! whatever it helped run.
//!
//! A collective over a group of one is not communication, so it is not a
//! job: `all_reduce_in` and the `start_*` calls compute its result on the
//! caller's thread (a `start_*` returns a [`PendingOp`] that already holds
//! it). It never waits behind an in-flight prefetch, and it records no
//! span and no exec or wait time. It touches no fabric either, so the
//! FIFO's guarantees above hold unchanged: it has no peer to pair with, no
//! fault coordinate and no bytes.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::protocol::handoff;
use crate::stats::{CollectiveKind, TrafficStats};
use crate::transport::lock_unpoisoned;
use crate::world::Fabric;
use zero_trace::{SpanCategory, TraceRecorder, TRACK_PROGRESS};

/// What an op yields: its buffer, filled, or its typed failure.
pub(crate) type OpResult = Result<Vec<f32>, CommError>;

/// A `Fabric` body from `collectives.rs`/`world.rs` with its inputs and
/// its buffer moved in.
pub(crate) type Body = Box<dyn FnOnce(&mut Fabric) -> OpResult + Send>;

/// Where an op's result lands: written by whoever runs the op, taken by
/// its [`PendingOp`] (or dropped with the last of the two).
pub(crate) type Slot = Arc<Mutex<Option<OpResult>>>;

/// A queued op: its issue number, the stats kind its execution is
/// attributed to (`None` for tier moves), its body and its result slot.
struct Job {
    id: u64,
    kind: Option<CollectiveKind>,
    run: Body,
    slot: Slot,
}

/// One rank's op desk: the fabric when nobody holds it and the ops issued
/// but not started, shared by the `Communicator`, every [`PendingOp`] and
/// the progress thread under one mutex; one condvar carries every
/// hand-off.
pub(crate) struct Desk {
    rank: usize,
    state: Mutex<DeskState>,
    cv: Condvar,
    /// How long a blocked caller polls before parking, on the desk for an
    /// op the progress thread runs and on a pipe for a peer's message in an
    /// op it runs itself. The progress thread parks at once: its polling
    /// would take a core from the caller's compute.
    poll: Duration,
}

struct DeskState {
    /// `None` while a thread runs ops on it.
    fabric: Option<Fabric>,
    queue: VecDeque<Job>,
    next_id: u64,
    /// The `Communicator` is gone: the progress thread drains the queue
    /// and drops the fabric.
    closed: bool,
    /// A thread panicked holding the fabric: it is gone.
    lost: bool,
}

/// Marks the desk's fabric lost if the thread holding it unwinds, so
/// waiters get [`CommError::ProgressLost`] instead of blocking.
struct Holding<'a>(&'a Desk);

impl Drop for Holding<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().lost = true;
            self.0.cv.notify_all();
        }
    }
}

impl Desk {
    pub(crate) fn new(rank: usize, fabric: Fabric, poll: Duration) -> Arc<Desk> {
        let state = DeskState { fabric: Some(fabric), queue: VecDeque::new(), next_id: 0, closed: false, lost: false };
        Arc::new(Desk { rank, state: Mutex::new(state), cv: Condvar::new(), poll })
    }

    fn lock(&self) -> MutexGuard<'_, DeskState> {
        lock_unpoisoned(&self.state)
    }

    /// Runs one op on `fabric`, polling each receive for `poll`, and
    /// records one collective span byte-tagged with the traffic its
    /// execution produced (only the fabric's holder records sends, so
    /// timeline bytes reconcile with `TrafficStats` by construction) and
    /// its execution time.
    fn execute<R>(&self, fabric: &mut Fabric, poll: Duration, kind: Option<CollectiveKind>, run: impl FnOnce(&mut Fabric) -> R) -> R {
        let _holding = Holding(self);
        fabric.poll = poll;
        let Some(kind) = kind else { return run(fabric) };
        let span = fabric.trace.begin_on(TRACK_PROGRESS, SpanCategory::Collective, kind.name());
        let (bytes_before, t0) = (fabric.stats.bytes(kind), Instant::now());
        let res = run(fabric);
        fabric.stats.record_exec(kind, t0.elapsed());
        fabric.trace.end_with_bytes(span, fabric.stats.bytes(kind) - bytes_before);
        res
    }

    /// Queues `run`, waking the progress thread. Returns the op's id and
    /// how many ops run before it.
    pub(crate) fn submit(&self, kind: Option<CollectiveKind>, run: Body, slot: Slot) -> (u64, usize) {
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;
        let ahead = st.queue.len() + usize::from(st.fabric.is_none());
        st.queue.push_back(Job { id, kind, run, slot });
        drop(st);
        self.cv.notify_all();
        (id, ahead)
    }

    /// Hands the fabric back, waking the desk's sleepers when the kernel
    /// says so; `ran_others` tells it this thread ran ops others issued.
    fn release(&self, fabric: Fabric, ran_others: bool) {
        let mut st = self.lock();
        st.fabric = Some(fabric);
        let wake = handoff::wake_on_release(st.queue.len(), ran_others, st.closed);
        drop(st);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Waits until `done()`, or until the fabric is free while op `last`
    /// is still queued: then this thread takes it, runs every op queued up
    /// to `last` (help-first) and returns it with the number of ops it
    /// ran. With `last` `u64::MAX` it waits for the fabric itself.
    fn turn(&self, last: u64, done: impl Fn() -> bool, budget: Duration) -> Result<Option<(Fabric, usize)>, CommError> {
        let (start, mut st) = (Instant::now(), self.lock());
        loop {
            if done() {
                return Ok(None);
            }
            if st.lost {
                return Err(CommError::ProgressLost { rank: self.rank });
            }
            let queued = last == u64::MAX || st.queue.front().is_some_and(|j| j.id <= last);
            if handoff::helper_takes(st.fabric.is_some(), queued) {
                let (mut fabric, mut ran) = (st.fabric.take().expect("the kernel takes a free fabric"), 0);
                while st.queue.front().is_some_and(|j| handoff::helper_runs(j.id, last)) {
                    let Job { kind, run, slot, .. } = st.queue.pop_front().expect("checked non-empty");
                    drop(st);
                    let res = self.execute(&mut fabric, self.poll, kind, run);
                    st = self.lock();
                    *lock_unpoisoned(&slot) = Some(res);
                    ran += 1;
                }
                return Ok(Some((fabric, ran)));
            }
            let waited = start.elapsed();
            if waited >= budget {
                return Err(CommError::ProgressStalled { rank: self.rank, waited: budget });
            }
            // The progress thread runs the op and usually finishes within
            // microseconds of its last message: poll first.
            if waited < self.poll {
                drop(st);
                std::thread::yield_now();
                st = self.lock();
                continue;
            }
            st = match self.cv.wait_timeout(st, budget - waited) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Runs `body` on this thread once every op queued so far has run
    /// (running those nobody had started first): the blocking
    /// collectives, whose borrowed buffers never leave the caller.
    pub(crate) fn run_now<R>(
        &self,
        kind: Option<CollectiveKind>,
        budget: Duration,
        body: impl FnOnce(&mut Fabric) -> Result<R, CommError>,
    ) -> Result<R, CommError> {
        let (mut fabric, ran) = self.turn(u64::MAX, || false, budget)?.expect("a turn for the fabric ends holding it");
        let res = self.execute(&mut fabric, self.poll, kind, body);
        self.release(fabric, ran > 0);
        res
    }

    /// The `Communicator` is gone: the progress thread finishes what is
    /// queued, then drops the fabric.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// The per-rank progress loop: runs queued ops back to back until the
    /// desk closes and drains; then drops the fabric, so peers observe
    /// `PeerLost`.
    pub(crate) fn progress_loop(&self) {
        // Waiters are woken for the op just finished once the lock is next
        // dropped, so the next op starts without a hand-off.
        let (mut st, mut wake) = (self.lock(), false);
        while !st.lost {
            if handoff::progress_takes(st.fabric.is_some(), st.queue.len()) {
                let Job { kind, run, slot, .. } = st.queue.pop_front().expect("the kernel takes a queued op");
                let mut fabric = st.fabric.take().expect("the kernel takes a free fabric");
                drop(st);
                if std::mem::take(&mut wake) {
                    self.cv.notify_all();
                }
                let res = self.execute(&mut fabric, Duration::ZERO, kind, run);
                st = self.lock();
                *lock_unpoisoned(&slot) = Some(res);
                st.fabric = Some(fabric);
                wake = true;
            } else if st.closed && st.queue.is_empty() && st.fabric.is_some() {
                let fabric = st.fabric.take();
                drop((st, fabric));
                return;
            } else {
                if std::mem::take(&mut wake) {
                    self.cv.notify_all();
                }
                st = match self.cv.wait(st) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }
    }
}

/// Handle to an in-flight communication op.
///
/// Obtained from `start_reduce_scatter` / `start_all_gather` /
/// `start_tier_move`. The op runs on the rank's progress thread while the
/// holder computes, or on the holder's thread if it waits first (over a
/// group of one it is complete on return); [`PendingOp::wait`] returns
/// the buffer the op was given, filled, or the op's typed failure.
///
/// Dropping the handle without waiting does **not** cancel the op — it
/// still executes, keeping the rank's fabric schedule aligned with its
/// SPMD peers; only the result is discarded.
#[must_use = "an unwaited PendingOp discards its result and any error"]
pub struct PendingOp {
    pub(crate) kind: Option<CollectiveKind>,
    pub(crate) slot: Slot,
    /// The desk the op is queued on, and its id; `None` for a result
    /// computed on the caller's thread.
    pub(crate) queued: Option<(Arc<Desk>, u64)>,
    pub(crate) budget: Duration,
    pub(crate) stats: Arc<TrafficStats>,
    pub(crate) trace: Arc<TraceRecorder>,
}

impl PendingOp {
    /// Blocks until the op completes, returning its buffer (shape depends
    /// on the op — see the `start_*` that issued it) or its typed failure.
    /// If nobody has started the op, this thread runs it, after every op
    /// issued before it that nobody has started either.
    ///
    /// The wait is bounded: the fabric bounds every op by its receive
    /// timeouts, and the budget covers the worst legal case for this op
    /// plus everything queued ahead of it, so a progress thread that holds
    /// the fabric past it surfaces as [`CommError::ProgressStalled`]
    /// instead of blocking forever. Caller blocked time is recorded per
    /// kind in [`TrafficStats::timing`](crate::stats::TrafficStats::timing).
    pub fn wait(self) -> Result<Vec<f32>, CommError> {
        let span = match (self.kind, &self.queued) {
            (Some(kind), Some(_)) => self.trace.begin(SpanCategory::Wait, kind.name()),
            _ => zero_trace::SpanId::NULL,
        };
        let t0 = Instant::now();
        let done = || lock_unpoisoned(&self.slot).is_some();
        let turn = self.queued.as_ref().map_or(Ok(()), |(desk, id)| {
            desk.turn(*id, done, self.budget).map(|held| held.map_or((), |(fabric, ran)| desk.release(fabric, ran > 1)))
        });
        let res = turn.and_then(|()| lock_unpoisoned(&self.slot).take().expect("a finished op left its result"));
        if let (Some(kind), Some(_)) = (self.kind, &self.queued) {
            self.stats.record_wait(kind, t0.elapsed());
        }
        self.trace.end(span);
        res
    }
}

#[cfg(test)]
mod tests {
    use crate::collectives::chunk_range;
    use crate::collectives::tests::placed;
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
                c.start_reduce_scatter(&g, input, ReduceOp::Sum, &counts, Precision::Fp32, raw);
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
                let (buf, raw) = (placed(&counts, c.rank(), &shard), WireFmt::Raw);
                pendings.push(c.start_all_gather(&g, buf, &counts, Precision::Fp32, raw));
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
                c.start_reduce_scatter(&g, input, ReduceOp::Sum, &counts, Precision::Fp32, raw);
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
            drop(c.start_reduce_scatter(&g, input, ReduceOp::Sum, &counts, Precision::Fp32, raw));
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
            let queued = c.start_all_gather(&world, placed(&[1, 1], c.rank(), &[c.rank() as f32]), &[1, 1], p, raw);
            let t0 = Instant::now();
            let mut buf = [1.5_f32, -2.0];
            c.all_reduce_in(&alone, &mut buf, ReduceOp::Mean, p).unwrap();
            let rs = c.start_reduce_scatter(&alone, buf.to_vec(), ReduceOp::Sum, &[2], p, raw).wait().unwrap();
            let ag = c.start_all_gather(&alone, rs, &[2], p, raw).wait().unwrap();
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
            let rs = c.start_reduce_scatter(&g, buf.to_vec(), ReduceOp::Sum, &[3], p, WireFmt::Raw).wait();
            let qwz = WireFmt::Int8Block { block: 4 };
            let ag = c.start_all_gather(&g, buf.to_vec(), &[3], p, qwz).wait().map(drop);
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
            let buf = placed(&counts, c.rank(), &shard);
            let pending = c.start_all_gather(&g, buf, &counts, Precision::Fp32, WireFmt::Raw);
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
