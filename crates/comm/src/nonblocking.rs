//! Non-blocking collective machinery: the rank's op desk, its progress
//! thread, its host-link lane, and the [`PendingOp`] completion handle.
//!
//! Every collective a rank issues is a closure over the rank's
//! private `Fabric`. `start_*` queue it on the
//! rank's `Desk` with the op's owned buffer moved in
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
//! Tier moves do not touch the fabric: each is a modeled host-link
//! transfer, run in issue order by the rank's `Lane` thread beside the
//! progress thread, so the host link, the network and compute work at
//! once. The two queues meet only where the plan anchors a move
//! ([`protocol::lane`](crate::protocol::lane)): a gather whose piece a
//! fetch brings up starts its ring once the lane has finished that fetch,
//! and a spill that drains a reduce-scatter starts once the desk has
//! finished it. Neither wait can close a cycle: each names an op issued
//! earlier.
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
use crate::protocol::{handoff, lane};
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
/// attributed to, its body, its result slot, and the lane move that seeds
/// it with the budget of the wait on that move.
struct Job {
    id: u64,
    kind: CollectiveKind,
    run: Body,
    slot: Slot,
    seed: Option<(u64, Duration)>,
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
    /// The rank's host-link lane, which seeded ops wait on.
    lane: Arc<Lane>,
}

struct DeskState {
    /// `None` while a thread runs ops on it.
    fabric: Option<Fabric>,
    queue: VecDeque<Job>,
    next_id: u64,
    /// Ops finished so far; they finish in id order.
    finished: u64,
    /// The lane is parked until `finished` passes a spill's op.
    watched: bool,
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
    pub(crate) fn new(rank: usize, fabric: Fabric, poll: Duration, lane: Arc<Lane>) -> Arc<Desk> {
        let (fabric, queue) = (Some(fabric), VecDeque::new());
        let state = DeskState { fabric, queue, next_id: 0, finished: 0, watched: false, closed: false, lost: false };
        Arc::new(Desk { rank, state: Mutex::new(state), cv: Condvar::new(), poll, lane })
    }

    fn lock(&self) -> MutexGuard<'_, DeskState> {
        lock_unpoisoned(&self.state)
    }

    /// Runs one op on `fabric`, polling each receive for `poll`, and
    /// records one collective span byte-tagged with the traffic its
    /// execution produced (only the fabric's holder records sends, so
    /// timeline bytes reconcile with `TrafficStats` by construction) and
    /// its execution time.
    fn execute<R>(&self, fabric: &mut Fabric, poll: Duration, kind: CollectiveKind, run: impl FnOnce(&mut Fabric) -> R) -> R {
        let _holding = Holding(self);
        fabric.poll = poll;
        let span = fabric.trace.begin_on(TRACK_PROGRESS, SpanCategory::Collective, kind.name());
        let (bytes_before, t0) = (fabric.stats.bytes(kind), Instant::now());
        let res = run(fabric);
        fabric.stats.record_exec(kind, t0.elapsed());
        fabric.trace.end_with_bytes(span, fabric.stats.bytes(kind) - bytes_before);
        res
    }

    /// Runs a queued job: once the lane has finished the move that seeds
    /// it, if any, so a gather's ring starts with its piece brought up.
    fn run_job(&self, fabric: &mut Fabric, poll: Duration, kind: CollectiveKind, seed: Option<(u64, Duration)>, run: Body) -> OpResult {
        seed.map_or(Ok(()), |(move_id, budget)| self.lane.wait(move_id, budget))?;
        self.execute(fabric, poll, kind, run)
    }

    /// Records a finished job's result; the caller holds the desk's lock.
    fn finish(st: &mut DeskState, slot: &Slot, res: OpResult) {
        *lock_unpoisoned(slot) = Some(res);
        st.finished += 1;
    }

    /// Queues `run`, waking the progress thread. Returns the op's id and
    /// how many ops run before it.
    pub(crate) fn submit(&self, kind: CollectiveKind, run: Body, slot: Slot, seed: Option<(u64, Duration)>) -> (u64, usize) {
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;
        let ahead = st.queue.len() + usize::from(st.fabric.is_none());
        st.queue.push_back(Job { id, kind, run, slot, seed });
        drop(st);
        self.cv.notify_all();
        (id, ahead)
    }

    /// The id of the op issued last, if any, and how many ops are queued
    /// or running.
    pub(crate) fn backlog(&self) -> (Option<u64>, usize) {
        let st = self.lock();
        (st.next_id.checked_sub(1), st.queue.len() + usize::from(st.fabric.is_none()))
    }

    /// Blocks the lane until op `id` has finished, or the desk is lost, or
    /// `budget` runs out.
    fn wait_through(&self, id: u64, budget: Duration) -> Result<(), CommError> {
        let (start, mut st) = (Instant::now(), self.lock());
        loop {
            if lane::through(st.finished, id) {
                return Ok(());
            }
            if st.lost {
                return Err(CommError::ProgressLost { rank: self.rank });
            }
            let waited = start.elapsed();
            if waited >= budget {
                return Err(CommError::ProgressStalled { rank: self.rank, waited: budget });
            }
            st.watched = true;
            st = match self.cv.wait_timeout(st, budget - waited) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
            st.watched = false;
        }
    }

    /// Hands the fabric back, waking the desk's sleepers when the kernel
    /// says so; `ran_others` tells it this thread ran ops others issued.
    fn release(&self, fabric: Fabric, ran_others: bool) {
        let mut st = self.lock();
        st.fabric = Some(fabric);
        let wake = handoff::wake_on_release(st.queue.len(), ran_others, st.watched, st.closed);
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
                    let Job { kind, run, slot, seed, .. } = st.queue.pop_front().expect("checked non-empty");
                    drop(st);
                    let res = self.run_job(&mut fabric, self.poll, kind, seed, run);
                    st = self.lock();
                    Self::finish(&mut st, &slot, res);
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
        kind: CollectiveKind,
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
                let Job { kind, run, slot, seed, .. } = st.queue.pop_front().expect("the kernel takes a queued op");
                let mut fabric = st.fabric.take().expect("the kernel takes a free fabric");
                drop(st);
                if std::mem::take(&mut wake) {
                    self.cv.notify_all();
                }
                let res = self.run_job(&mut fabric, Duration::ZERO, kind, seed, run);
                st = self.lock();
                Self::finish(&mut st, &slot, res);
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

/// A queued tier move: its trace label and bytes, its modeled host-link
/// time, the desk op it drains (it starts once the desk has finished
/// that op), and the budget of that wait.
struct Move {
    label: &'static str,
    bytes: u64,
    delay: Duration,
    drains: Option<u64>,
    budget: Duration,
}

/// One rank's host-link lane: the tier moves the rank issued and has not
/// finished, run by the lane thread in issue order. No fabric message
/// moves: a move is the modeled time its bytes take on the link, recorded
/// as a byte-tagged `Tier` span on the progress track.
pub(crate) struct Lane {
    rank: usize,
    state: Mutex<LaneState>,
    cv: Condvar,
}

struct LaneState {
    queue: VecDeque<Move>,
    next_id: u64,
    /// Moves finished so far; they finish in id order.
    finished: u64,
    /// The first move whose wait on the desk failed, and how: it and every
    /// move behind it report the error and move nothing.
    failed: Option<(u64, CommError)>,
    /// The `Communicator` is gone: the lane thread drains and exits.
    closed: bool,
}

impl Lane {
    pub(crate) fn new(rank: usize) -> Arc<Lane> {
        let state = LaneState { queue: VecDeque::new(), next_id: 0, finished: 0, failed: None, closed: false };
        Arc::new(Lane { rank, state: Mutex::new(state), cv: Condvar::new() })
    }

    fn lock(&self) -> MutexGuard<'_, LaneState> {
        lock_unpoisoned(&self.state)
    }

    /// Queues a move of `bytes` taking `delay` on the link, after desk op
    /// `drains` if given, waking the lane thread. Returns the move's id.
    pub(crate) fn submit(&self, label: &'static str, bytes: u64, delay: Duration, drains: Option<u64>, budget: Duration) -> u64 {
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.queue.push_back(Move { label, bytes, delay, drains, budget });
        drop(st);
        self.cv.notify_all();
        id
    }

    /// Blocks until move `id` has finished, returning how it ended, or
    /// until `budget` runs out.
    pub(crate) fn wait(&self, id: u64, budget: Duration) -> Result<(), CommError> {
        let (start, mut st) = (Instant::now(), self.lock());
        loop {
            if lane::through(st.finished, id) {
                return match &st.failed {
                    Some((first, err)) if *first <= id => Err(err.clone()),
                    _ => Ok(()),
                };
            }
            let waited = start.elapsed();
            if waited >= budget {
                return Err(CommError::ProgressStalled { rank: self.rank, waited: budget });
            }
            st = match self.cv.wait_timeout(st, budget - waited) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// The `Communicator` is gone: the lane thread finishes what is
    /// queued, then exits.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// The lane thread: runs queued moves back to back, each once the desk
    /// has finished the op it drains, until the lane closes and drains.
    /// Once a move has failed, the moves behind it move nothing.
    pub(crate) fn run(&self, desk: &Desk, trace: &TraceRecorder) {
        let mut st = self.lock();
        loop {
            if let Some(m) = st.queue.pop_front() {
                let (id, failed) = (st.finished, st.failed.is_some());
                drop(st);
                let res = m.drains.filter(|_| !failed).map_or(Ok(()), |op| desk.wait_through(op, m.budget));
                if res.is_ok() && !failed {
                    let span = trace.begin_on(TRACK_PROGRESS, SpanCategory::Tier, m.label);
                    std::thread::sleep(m.delay);
                    trace.end_with_bytes(span, m.bytes);
                }
                st = self.lock();
                st.failed = st.failed.take().or(res.err().map(|err| (id, err)));
                st.finished += 1;
                self.cv.notify_all();
            } else if st.closed {
                return;
            } else {
                st = match self.cv.wait(st) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }
    }
}

/// Handle to an in-flight communication op or tier move.
///
/// Obtained from `start_reduce_scatter` / `start_all_gather` /
/// `start_tier_move`. A collective runs on the rank's progress thread
/// while the holder computes, or on the holder's thread if it waits first
/// (over a group of one it is complete on return); a tier move runs on
/// the rank's lane thread. [`PendingOp::wait`] returns the buffer the op
/// was given, filled (a tier move's is empty), or the op's typed failure.
///
/// Dropping the handle without waiting does **not** cancel the op — it
/// still executes, keeping the rank's fabric schedule aligned with its
/// SPMD peers; only the result is discarded.
#[must_use = "an unwaited PendingOp discards its result and any error"]
pub struct PendingOp {
    pub(crate) queued: Queued,
    pub(crate) budget: Duration,
    pub(crate) stats: Arc<TrafficStats>,
    pub(crate) trace: Arc<TraceRecorder>,
}

/// Where a [`PendingOp`]'s result comes from.
pub(crate) enum Queued {
    /// Computed on the caller's thread: no job was queued.
    Ready(OpResult),
    /// Op `id` on the desk, attributed to `kind`, its result landing in
    /// `slot`.
    Desk { desk: Arc<Desk>, id: u64, kind: CollectiveKind, slot: Slot },
    /// Move `id` on the lane.
    Lane { lane: Arc<Lane>, id: u64 },
}

impl PendingOp {
    /// Blocks until the op completes, returning its buffer (shape depends
    /// on the op — see the `start_*` that issued it) or its typed failure.
    /// If nobody has started a collective, this thread runs it, after
    /// every op issued before it that nobody has started either.
    ///
    /// The wait is bounded: the fabric bounds every op by its receive
    /// timeouts, and the budget covers the worst legal case for this op
    /// plus everything queued ahead of it, so a progress thread that holds
    /// the fabric past it surfaces as [`CommError::ProgressStalled`]
    /// instead of blocking forever. Caller blocked time on a collective is
    /// recorded per kind in
    /// [`TrafficStats::timing`](crate::stats::TrafficStats::timing).
    pub fn wait(self) -> Result<Vec<f32>, CommError> {
        let (desk, id, kind, slot) = match self.queued {
            Queued::Ready(res) => return res,
            Queued::Lane { lane, id } => return lane.wait(id, self.budget).map(|()| Vec::new()),
            Queued::Desk { desk, id, kind, slot } => (desk, id, kind, slot),
        };
        let span = self.trace.begin(SpanCategory::Wait, kind.name());
        let t0 = Instant::now();
        let done = || lock_unpoisoned(&slot).is_some();
        let turn = desk.turn(id, done, self.budget).map(|held| held.map_or((), |(fabric, ran)| desk.release(fabric, ran > 1)));
        let res = turn.and_then(|()| lock_unpoisoned(&slot).take().expect("a finished op left its result"));
        self.stats.record_wait(kind, t0.elapsed());
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
    use crate::world::{launch, try_launch_with_config, TierOrder, TieredLink, World, WorldConfig};
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
            c.all_reduce_in(&g, &mut buf, &[1, 1], ReduceOp::Sum, Precision::Fp32).unwrap();
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
            c.all_reduce_in(&alone, &mut buf, &[2], ReduceOp::Mean, p).unwrap();
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
            let ar = c.all_reduce_in(&g, &mut buf, &[3], ReduceOp::Sum, p);
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

    /// A one-rank communicator whose receives time out after 10 ms, so an
    /// op's wait budget is (2·1 + 6)·10 ms per op queued through it.
    fn lone_rank() -> crate::world::Communicator {
        World::with_config(1, WorldConfig { recv_timeout: Duration::from_millis(10), ..WorldConfig::default() }).take(0)
    }

    #[test]
    fn a_spill_behind_a_lost_desk_reports_progress_lost() {
        let mut c = lone_rank();
        let lost = c.submit(CollectiveKind::ReduceScatter, |_| panic!("the progress thread dies holding the fabric"));
        let spill = c.start_tier_move("tier-grad-spill", 8, Duration::ZERO, TierOrder::Drains);
        let behind = c.start_tier_move("tier-ckpt-spill", 8, Duration::ZERO, TierOrder::Free);
        let t0 = Instant::now();
        assert_eq!(spill.wait(), Err(CommError::ProgressLost { rank: 0 }));
        // The failure is sticky: the move behind it moved nothing either.
        assert_eq!(behind.wait(), Err(CommError::ProgressLost { rank: 0 }));
        assert!(t0.elapsed() < Duration::from_secs(1), "the lane waited {:?} on a lost desk", t0.elapsed());
        assert_eq!(lost.wait(), Err(CommError::ProgressLost { rank: 0 }));
        assert_eq!(c.trace().timeline().count(SpanCategory::Tier), 0);
    }

    #[test]
    fn a_spill_behind_a_stalled_desk_reports_progress_stalled_within_its_budget() {
        let mut c = lone_rank();
        let stuck = c.submit(CollectiveKind::ReduceScatter, |_| {
            std::thread::sleep(Duration::from_millis(600));
            Ok(Vec::new())
        });
        let t0 = Instant::now();
        let spill = c.start_tier_move("tier-grad-spill", 8, Duration::ZERO, TierOrder::Drains);
        // One op queued or running ahead of the spill: a 2 · 80 ms budget.
        let budget = Duration::from_millis(160);
        assert_eq!(spill.wait(), Err(CommError::ProgressStalled { rank: 0, waited: budget }));
        let took = t0.elapsed();
        assert!(took >= budget && took < Duration::from_millis(500), "the lane gave up after {took:?}");
        let waited = Duration::from_millis(80);
        assert_eq!(stuck.wait(), Err(CommError::ProgressStalled { rank: 0, waited }));
    }

    #[test]
    fn the_lane_runs_beside_the_desk_and_meets_it_only_at_anchors() {
        // Each rank: a 100 ms reduce-scatter, a free spill, a spill that
        // drains the reduce-scatter, then a fetch seeding a 100 ms
        // all-gather, each move 20 ms. The free spill runs while the
        // reduce-scatter does; the drain waits for the reduce-scatter, the
        // gather for its fetch.
        let n = 2;
        let out = try_launch_with_config(n, flat_link(Duration::from_millis(100)), move |mut c| {
            let (g, p, raw, ms) = (Group::world(n), Precision::Fp32, WireFmt::Raw, Duration::from_millis(20));
            let rs = c.start_reduce_scatter(&g, vec![1.0; 2], ReduceOp::Sum, &[1, 1], p, raw);
            let free = c.start_tier_move("tier-ckpt-spill", 4, ms, TierOrder::Free);
            let drain = c.start_tier_move("tier-grad-spill", 4, ms, TierOrder::Drains);
            let fetch = c.start_tier_move("tier-param-fetch", 4, ms, TierOrder::Seeds);
            let ag = c.start_all_gather(&g, placed(&[1, 1], c.rank(), &[7.0]), &[1, 1], p, raw);
            let waited = [fetch.wait(), ag.wait(), rs.wait(), drain.wait(), free.wait()];
            (waited, c.trace().timeline())
        });
        for (rank, r) in out.iter().enumerate() {
            let (waited, tl) = r.as_ref().unwrap();
            assert_eq!(waited[1], Ok(vec![7.0, 7.0]), "rank {rank}");
            assert_eq!(waited[2], Ok(vec![2.0]), "rank {rank}");
            let span = |name| tl.spans.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("rank {rank}: no {name}"));
            let (rs, ag) = (span("reduce-scatter"), span("all-gather"));
            let (drain, free, fetch) = (span("tier-grad-spill"), span("tier-ckpt-spill"), span("tier-param-fetch"));
            assert!(free.start_ns < rs.end_ns, "rank {rank}: the free spill waited for the reduce-scatter");
            assert!(drain.start_ns >= rs.end_ns, "rank {rank}: the drain started before its reduce-scatter ended");
            assert!(ag.start_ns >= fetch.end_ns, "rank {rank}: the gather started before its fetch ended");
            assert!(free.end_ns <= drain.start_ns && drain.end_ns <= fetch.start_ns, "rank {rank}: one host link, in issue order");
        }
    }
}
