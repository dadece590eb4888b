//! The shared-state modeling DSL: shim synchronization primitives with
//! instrumented yield points.
//!
//! A protocol model is a set of threads written as explicit program
//! counters stepping against a [`ModelState`] — a plain, cloneable,
//! hashable value holding modeled mutexes, condvars, channels, ghost
//! cells and race-checked data cells. Every shim operation is one *atomic*
//! transition; between two operations the scheduler (the explorer) may
//! run any other thread, so the explored interleavings are exactly the
//! interleavings the real primitives permit at the same granularity.
//!
//! The shims mirror `std` semantics where it matters:
//!
//! * [`ModelState::lock`] parks on contention; an unlock makes every
//!   parked waiter *eligible* and whichever the scheduler runs first
//!   acquires — all acquisition orders are explored.
//! * [`ModelState::cv_wait`] atomically releases the mutex and parks on
//!   the condvar; a woken (or timed-out) waiter must re-acquire the
//!   mutex before its program resumes, exactly like
//!   `Condvar::wait_timeout`.
//! * [`ModelState::notify_all`] on an empty waiter set is lost — no
//!   memory — which is precisely how real lost wakeups arise.
//! * [`ModelState::recv_into`] delivers in FIFO order, reports a closed
//!   channel, and parks on empty; timed parks can *time out*, gated by
//!   the scenario's injected-fault budget.
//!
//! Every operation also maintains the happens-before machinery: each
//! thread carries a vector clock, every sync object carries the clock
//! of its last release/send/notify, and the plain [`data
//! cells`](ModelState::write_data) are checked for conflicting accesses
//! unordered by any sync edge — the race pass rides on the same event
//! graph the explorer walks.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Thread index inside one model.
pub type Tid = usize;

/// Maximum threads a model may declare (vector clocks and sleep-set
/// masks are fixed-width).
pub const MAX_THREADS: usize = 8;

/// Sentinel delivered by a receive on a closed, drained channel.
pub const CLOSED: i64 = i64::MIN;

/// Object handles. Each carries its global footprint bit so the
/// explorer's independence relation is one `u64` intersection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MutexId(pub usize);
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CondvarId(pub usize);
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ChannelId(pub usize);
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DataId(pub usize);

/// Footprint bit layout over the 64-bit object universe. Each class
/// wraps within its band, so an overflowing model only *over*-reports
/// dependence (less pruning, never unsoundness).
pub fn mutex_bit(m: MutexId) -> u64 {
    1 << (m.0 % 8)
}
pub fn condvar_bit(c: CondvarId) -> u64 {
    1 << (8 + c.0 % 8)
}
pub fn data_bit(d: DataId) -> u64 {
    1 << (24 + d.0 % 10)
}
pub fn ghost_bit(g: usize) -> u64 {
    1 << (34 + g % 10)
}
pub fn channel_bit(c: ChannelId) -> u64 {
    1 << (44 + c.0 % 20)
}

/// A vector clock over the model's threads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct VClock(pub [u32; MAX_THREADS]);

impl VClock {
    /// Component-wise maximum (the happens-before join).
    pub fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// True iff the event at `(tid, at)` happened before this clock.
    pub fn saw(&self, tid: Tid, at: u32) -> bool {
        self.0[tid] >= at
    }
}

/// What a thread is doing, from the scheduler's point of view.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Status {
    /// Eligible to run its next program step.
    Runnable,
    /// Blocked acquiring a mutex; eligible whenever the mutex is free.
    ParkedMutex(MutexId),
    /// Blocked in a condvar wait (mutex released); woken by a notify —
    /// which re-routes through `ParkedMutex` — or, if `timed`, by an
    /// injected timeout.
    ParkedCv { cv: CondvarId, mx: MutexId, timed: bool },
    /// Blocked in a receive on an empty channel.
    ParkedRecv { ch: ChannelId, reg: usize, timed: bool },
    /// Finished normally.
    Done,
    /// Killed by an injected crash: never runs again, releases nothing.
    Crashed,
}

/// Per-thread program state: a program counter and a few registers,
/// plus the flags the shims report wake-up reasons through.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Locals {
    /// Program counter interpreted by the protocol's `step`.
    pub pc: u32,
    /// Scratch registers (receive targets, loop counters, outcomes).
    pub regs: [i64; 6],
    /// Set when the thread's last timed park ended in a timeout.
    pub timed_out: bool,
    /// Set when the thread's last channel op found the channel closed.
    pub closed: bool,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MMutex {
    pub owner: Option<Tid>,
    /// Happens-before clock of the last release.
    clock: VClock,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MCondvar {
    /// Parked waiter set (tids also carry `ParkedCv` status).
    pub waiters: Vec<Tid>,
    /// Notifies issued over the condvar's lifetime (for lost-wakeup
    /// classification at stuck states).
    pub notifies: u32,
    /// Happens-before clock accumulated from notifiers.
    clock: VClock,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MChannel {
    /// In-flight values, each carrying the sender's clock at send time.
    pub queue: VecDeque<(i64, VClock)>,
    /// Once closed, drained receives observe [`CLOSED`] instead of
    /// parking — `mpsc` disconnect semantics.
    pub closed: bool,
}

/// Epoch of one access to a data cell: who, at what clock value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Epoch {
    tid: Tid,
    at: u32,
}

/// A plain (non-atomic) cell, the subject of the race detector.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MData {
    pub value: i64,
    last_write: Option<Epoch>,
    /// Most recent read epoch per reader since the last write.
    reads: Vec<Epoch>,
}

/// Injected-fault budget for one execution: "up to one crash/timeout
/// per run" is `crashes: 1, timeouts: 1` (or less).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct FaultBudget {
    pub crashes: u8,
    pub timeouts: u8,
}

/// A data race found by the happens-before pass.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RaceReport {
    pub cell: DataId,
    /// (thread, pc) of the two unordered conflicting accesses.
    pub first: (Tid, u32),
    pub second: (Tid, u32),
    /// Whether the second access was a write.
    pub second_is_write: bool,
}

/// Side effects of executing one transition, drained by the explorer.
#[derive(Clone, Debug, Default)]
pub struct StepEffects {
    /// Objects the transition touched (footprint bits).
    pub footprint: u64,
    /// Races detected at this access.
    pub races: Vec<RaceReport>,
    /// Mutexes acquired while others were held: `(held, acquired)`
    /// lock-order edges.
    pub lock_edges: Vec<(MutexId, MutexId)>,
    /// Protocol-level assertion failure raised by the program.
    pub failure: Option<String>,
}

/// The complete, cloneable, hashable state of one protocol model.
#[derive(Clone)]
pub struct ModelState {
    pub mutexes: Vec<MMutex>,
    pub condvars: Vec<MCondvar>,
    pub channels: Vec<MChannel>,
    pub data: Vec<MData>,
    /// Ghost cells for specification bookkeeping: hashed (they are part
    /// of the checked state) but exempt from the race detector, since
    /// they model the *specification's* knowledge, not shared memory.
    pub ghost: Vec<i64>,
    pub status: Vec<Status>,
    pub locals: Vec<Locals>,
    pub clocks: Vec<VClock>,
    pub budget: FaultBudget,
    /// Per-thread channels severed if that thread crashes (its
    /// endpoints, as a killed process's sockets).
    pub owned_channels: Vec<Vec<ChannelId>>,
    /// Effects of the transition currently executing (not hashed).
    pub effects: StepEffects,
}

impl ModelState {
    /// An empty state for `threads` threads; add objects with the
    /// `add_*` builders.
    pub fn new(threads: usize) -> ModelState {
        assert!(threads <= MAX_THREADS, "at most {MAX_THREADS} model threads");
        ModelState {
            mutexes: Vec::new(),
            condvars: Vec::new(),
            channels: Vec::new(),
            data: Vec::new(),
            ghost: Vec::new(),
            status: vec![Status::Runnable; threads],
            locals: vec![Locals::default(); threads],
            clocks: vec![VClock::default(); threads],
            budget: FaultBudget::default(),
            owned_channels: vec![Vec::new(); threads],
            effects: StepEffects::default(),
        }
    }

    pub fn add_mutex(&mut self) -> MutexId {
        self.mutexes.push(MMutex { owner: None, clock: VClock::default() });
        MutexId(self.mutexes.len() - 1)
    }

    pub fn add_condvar(&mut self) -> CondvarId {
        self.condvars.push(MCondvar {
            waiters: Vec::new(),
            notifies: 0,
            clock: VClock::default(),
        });
        CondvarId(self.condvars.len() - 1)
    }

    pub fn add_channel(&mut self) -> ChannelId {
        self.channels.push(MChannel { queue: VecDeque::new(), closed: false });
        ChannelId(self.channels.len() - 1)
    }

    pub fn add_data(&mut self, value: i64) -> DataId {
        self.data.push(MData { value, last_write: None, reads: Vec::new() });
        DataId(self.data.len() - 1)
    }

    pub fn add_ghost(&mut self, value: i64) -> usize {
        self.ghost.push(value);
        self.ghost.len() - 1
    }

    /// Reads a ghost cell, recording it in the footprint (ghost cells
    /// are spec state, but two steps reading/writing the same cell are
    /// still dependent and must not be sleep-set-pruned against each
    /// other).
    pub fn ghost_read(&mut self, g: usize) -> i64 {
        self.touch(ghost_bit(g));
        self.ghost[g]
    }

    /// Writes a ghost cell (footprint-recorded, race-exempt).
    pub fn ghost_write(&mut self, g: usize, value: i64) {
        self.touch(ghost_bit(g));
        self.ghost[g] = value;
    }

    fn touch(&mut self, bit: u64) {
        self.effects.footprint |= bit;
    }

    // ---- program-counter and register helpers -------------------------

    pub fn pc(&self, tid: Tid) -> u32 {
        self.locals[tid].pc
    }

    pub fn goto(&mut self, tid: Tid, pc: u32) {
        self.locals[tid].pc = pc;
    }

    pub fn reg(&self, tid: Tid, r: usize) -> i64 {
        self.locals[tid].regs[r]
    }

    pub fn set_reg(&mut self, tid: Tid, r: usize, v: i64) {
        self.locals[tid].regs[r] = v;
    }

    /// Consumes and returns the timed-out flag of the last park.
    pub fn timed_out(&self, tid: Tid) -> bool {
        self.locals[tid].timed_out
    }

    /// True if the last channel op observed a closed channel.
    pub fn was_closed(&self, tid: Tid) -> bool {
        self.locals[tid].closed
    }

    /// Marks the thread finished.
    pub fn done(&mut self, tid: Tid) {
        self.status[tid] = Status::Done;
    }

    /// Raises a protocol-level assertion failure (the explorer reports
    /// it with the schedule that reached it).
    pub fn fail(&mut self, msg: impl Into<String>) {
        if self.effects.failure.is_none() {
            self.effects.failure = Some(msg.into());
        }
    }

    // ---- mutex --------------------------------------------------------

    /// Attempts to acquire `m`. On contention the thread parks and the
    /// call returns `false` — the program must leave its pc unchanged so
    /// the arm re-runs once the scheduler grants the mutex (the re-run
    /// sees itself as owner and proceeds).
    pub fn lock(&mut self, tid: Tid, m: MutexId) -> bool {
        self.touch(mutex_bit(m));
        match self.mutexes[m.0].owner {
            Some(o) if o == tid => true, // granted by the scheduler
            Some(_) => {
                self.status[tid] = Status::ParkedMutex(m);
                false
            }
            None => {
                self.grant_mutex(tid, m);
                true
            }
        }
    }

    /// Directly grants `m` to `tid` (explorer transition for a parked
    /// thread once the mutex is free).
    pub(crate) fn grant_mutex(&mut self, tid: Tid, m: MutexId) {
        debug_assert!(self.mutexes[m.0].owner.is_none());
        self.touch(mutex_bit(m));
        for held in 0..self.mutexes.len() {
            if held != m.0 && self.mutexes[held].owner == Some(tid) {
                self.effects.lock_edges.push((MutexId(held), m));
            }
        }
        self.mutexes[m.0].owner = Some(tid);
        let clock = self.mutexes[m.0].clock;
        self.clocks[tid].join(&clock);
        self.status[tid] = Status::Runnable;
    }

    /// Releases `m`; parked waiters become eligible automatically (the
    /// scheduler explores every acquisition order).
    pub fn unlock(&mut self, tid: Tid, m: MutexId) {
        assert_eq!(self.mutexes[m.0].owner, Some(tid), "unlock by non-owner");
        self.touch(mutex_bit(m));
        let clock = self.clocks[tid];
        self.mutexes[m.0].clock.join(&clock);
        self.mutexes[m.0].owner = None;
    }

    // ---- condvar ------------------------------------------------------

    /// Atomically releases `mx` and parks on `cv` (the thread must hold
    /// `mx`). Advance the pc *before* returning from the arm: on wake —
    /// notify or timeout — the thread transparently re-acquires `mx` and
    /// resumes at that pc with [`ModelState::timed_out`] set accordingly.
    pub fn cv_wait(&mut self, tid: Tid, cv: CondvarId, mx: MutexId, timed: bool) {
        self.touch(condvar_bit(cv));
        self.unlock(tid, mx);
        self.locals[tid].timed_out = false;
        self.condvars[cv.0].waiters.push(tid);
        self.status[tid] = Status::ParkedCv { cv, mx, timed };
    }

    fn wake_waiter(&mut self, w: Tid, cv: CondvarId) {
        let Status::ParkedCv { mx, .. } = self.status[w] else {
            panic!("waking a thread not parked on the condvar");
        };
        let clock = self.condvars[cv.0].clock;
        self.clocks[w].join(&clock);
        self.locals[w].timed_out = false;
        self.status[w] = Status::ParkedMutex(mx);
    }

    /// Wakes every parked waiter (each must still re-acquire the mutex).
    /// A notify with no waiters is lost, as with `std::sync::Condvar`.
    pub fn notify_all(&mut self, tid: Tid, cv: CondvarId) {
        self.touch(condvar_bit(cv));
        let clock = self.clocks[tid];
        self.condvars[cv.0].clock.join(&clock);
        self.condvars[cv.0].notifies += 1;
        let waiters = std::mem::take(&mut self.condvars[cv.0].waiters);
        for w in waiters {
            self.wake_waiter(w, cv);
        }
    }

    /// Fires the timeout of a thread parked on a condvar or receive:
    /// the injected-fault transition (or the forced drain at otherwise
    /// stuck states).
    pub(crate) fn fire_timeout(&mut self, tid: Tid) {
        match self.status[tid] {
            Status::ParkedCv { cv, mx, timed } => {
                assert!(timed, "timeout on an untimed condvar wait");
                self.touch(condvar_bit(cv));
                self.condvars[cv.0].waiters.retain(|&w| w != tid);
                self.locals[tid].timed_out = true;
                self.status[tid] = Status::ParkedMutex(mx);
            }
            Status::ParkedRecv { ch, timed, .. } => {
                assert!(timed, "timeout on an untimed receive");
                self.touch(channel_bit(ch));
                self.locals[tid].timed_out = true;
                self.status[tid] = Status::Runnable;
            }
            other => panic!("timeout on a thread in state {other:?}"),
        }
    }

    // ---- channels -----------------------------------------------------

    /// Sends `value`; returns `false` (setting the closed flag) if the
    /// channel is closed. Never blocks — queues are unbounded, as with
    /// `mpsc` senders and the socket write path's kernel buffer model.
    pub fn send(&mut self, tid: Tid, ch: ChannelId, value: i64) -> bool {
        self.touch(channel_bit(ch));
        if self.channels[ch.0].closed {
            self.locals[tid].closed = true;
            return false;
        }
        let clock = self.clocks[tid];
        self.channels[ch.0].queue.push_back((value, clock));
        true
    }

    /// Receives the next value into register `reg`, advancing to the pc
    /// the program set *before* calling. Three outcomes, all resuming at
    /// that pc: value delivered (flags clear), channel closed and
    /// drained ([`ModelState::was_closed`], reg = [`CLOSED`]), or — for
    /// timed receives, under fault budget — a timeout
    /// ([`ModelState::timed_out`]).
    pub fn recv_into(&mut self, tid: Tid, ch: ChannelId, reg: usize, timed: bool) {
        self.touch(channel_bit(ch));
        self.locals[tid].timed_out = false;
        self.locals[tid].closed = false;
        if let Some((v, clock)) = self.channels[ch.0].queue.pop_front() {
            self.clocks[tid].join(&clock);
            self.locals[tid].regs[reg] = v;
        } else if self.channels[ch.0].closed {
            self.locals[tid].closed = true;
            self.locals[tid].regs[reg] = CLOSED;
        } else {
            self.status[tid] = Status::ParkedRecv { ch, reg, timed };
        }
    }

    /// Explorer transition delivering to a parked receiver (or telling
    /// it the channel closed under it).
    pub(crate) fn deliver_recv(&mut self, tid: Tid) {
        let Status::ParkedRecv { ch, reg, .. } = self.status[tid] else {
            panic!("delivering to a thread not parked on a receive");
        };
        self.touch(channel_bit(ch));
        if let Some((v, clock)) = self.channels[ch.0].queue.pop_front() {
            self.clocks[tid].join(&clock);
            self.locals[tid].regs[reg] = v;
        } else {
            debug_assert!(self.channels[ch.0].closed);
            self.locals[tid].closed = true;
            self.locals[tid].regs[reg] = CLOSED;
        }
        self.status[tid] = Status::Runnable;
    }

    /// Closes `ch` (sender drop / severed socket). Queued values remain
    /// deliverable; a drained receive then observes [`CLOSED`].
    pub fn close(&mut self, tid: Tid, ch: ChannelId) {
        let _ = tid;
        self.touch(channel_bit(ch));
        self.channels[ch.0].closed = true;
    }

    /// Number of values currently queued (used by `choices` for
    /// multi-frame reads).
    pub fn queued(&self, ch: ChannelId) -> usize {
        self.channels[ch.0].queue.len()
    }

    // ---- race-checked data cells --------------------------------------

    fn epoch(&self, tid: Tid) -> Epoch {
        Epoch { tid, at: self.clocks[tid].0[tid] }
    }

    fn race(&mut self, cell: DataId, prior: Epoch, tid: Tid, second_is_write: bool) {
        let first = (prior.tid, self.locals[prior.tid].pc);
        let second = (tid, self.locals[tid].pc);
        self.effects.races.push(RaceReport { cell, first, second, second_is_write });
    }

    /// Reads a plain cell, flagging the read if it is unordered with the
    /// last write.
    pub fn read_data(&mut self, tid: Tid, d: DataId) -> i64 {
        self.touch(data_bit(d));
        if let Some(w) = self.data[d.0].last_write {
            if w.tid != tid && !self.clocks[tid].saw(w.tid, w.at) {
                self.race(d, w, tid, false);
            }
        }
        let e = self.epoch(tid);
        let reads = &mut self.data[d.0].reads;
        match reads.iter_mut().find(|r| r.tid == tid) {
            Some(r) => *r = e,
            None => reads.push(e),
        }
        self.data[d.0].value
    }

    /// Writes a plain cell, flagging the write if it is unordered with
    /// the last write or any read since it.
    pub fn write_data(&mut self, tid: Tid, d: DataId, value: i64) {
        self.touch(data_bit(d));
        if let Some(w) = self.data[d.0].last_write {
            if w.tid != tid && !self.clocks[tid].saw(w.tid, w.at) {
                self.race(d, w, tid, true);
            }
        }
        let reads = self.data[d.0].reads.clone();
        for r in reads {
            if r.tid != tid && !self.clocks[tid].saw(r.tid, r.at) {
                self.race(d, r, tid, true);
            }
        }
        self.data[d.0].last_write = Some(self.epoch(tid));
        self.data[d.0].reads.clear();
        self.data[d.0].value = value;
    }

    // ---- fault injection ----------------------------------------------

    /// True while `tid` may be crash-injected: budget left, thread
    /// alive, and no mutex held (ranks share mutexes only in-process,
    /// where a dying thread cannot vanish mid-critical-section).
    pub(crate) fn crash_eligible(&self, tid: Tid) -> bool {
        self.budget.crashes > 0
            && !matches!(self.status[tid], Status::Done | Status::Crashed)
            && !self.mutexes.iter().any(|m| m.owner == Some(tid))
    }

    /// Crash transition: the thread never runs again and its channel
    /// endpoints sever, exactly as `kill -9` severs a rank's sockets.
    pub(crate) fn crash(&mut self, tid: Tid) {
        debug_assert!(self.crash_eligible(tid));
        self.budget.crashes -= 1;
        if let Status::ParkedCv { cv, .. } = self.status[tid] {
            self.condvars[cv.0].waiters.retain(|&w| w != tid);
        }
        self.status[tid] = Status::Crashed;
        let severed = self.owned_channels[tid].clone();
        for ch in severed {
            self.channels[ch.0].closed = true;
        }
    }

    /// Advances the executing thread's own clock component — called by
    /// the explorer once per transition, so every event has a distinct
    /// epoch.
    pub(crate) fn tick(&mut self, tid: Tid) {
        self.clocks[tid].0[tid] += 1;
    }

    /// Hash of everything the model's semantics can observe (effects
    /// excluded — they are per-transition scratch).
    ///
    /// Vector clocks are part of the hash only while the model has
    /// race-checkable data cells: clocks never influence enabledness or
    /// control flow, only the race detector reads them, so for
    /// channel-only models (no [`MData`]) merging states that differ
    /// solely in clocks is sound — and essential, since clocks grow
    /// monotonically and would otherwise keep every schedule's states
    /// distinct.
    pub(crate) fn state_hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let race_active = !self.data.is_empty();
        for m in &self.mutexes {
            m.owner.hash(&mut h);
            if race_active {
                m.clock.hash(&mut h);
            }
        }
        for c in &self.condvars {
            c.waiters.hash(&mut h);
            c.notifies.hash(&mut h);
            if race_active {
                c.clock.hash(&mut h);
            }
        }
        for ch in &self.channels {
            ch.closed.hash(&mut h);
            ch.queue.len().hash(&mut h);
            for (v, clock) in &ch.queue {
                v.hash(&mut h);
                if race_active {
                    clock.hash(&mut h);
                }
            }
        }
        self.data.hash(&mut h);
        self.ghost.hash(&mut h);
        self.status.hash(&mut h);
        self.locals.hash(&mut h);
        if race_active {
            self.clocks.hash(&mut h);
        }
        self.budget.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_contention_parks_and_grant_resumes() {
        let mut st = ModelState::new(2);
        let m = st.add_mutex();
        assert!(st.lock(0, m));
        assert!(!st.lock(1, m), "contended lock must park");
        assert_eq!(st.status[1], Status::ParkedMutex(m));
        st.unlock(0, m);
        st.grant_mutex(1, m);
        assert!(st.lock(1, m), "granted thread re-runs its arm as owner");
    }

    #[test]
    fn notify_without_waiters_is_lost() {
        let mut st = ModelState::new(2);
        let m = st.add_mutex();
        let cv = st.add_condvar();
        st.lock(0, m);
        st.notify_all(0, cv); // nobody waits: lost
        st.unlock(0, m);
        st.lock(1, m);
        st.cv_wait(1, cv, m, false);
        // The earlier notify left no memory; thread 1 stays parked.
        assert!(matches!(st.status[1], Status::ParkedCv { .. }));
        assert_eq!(st.condvars[cv.0].notifies, 1);
    }

    #[test]
    fn channel_close_drains_then_reports_closed() {
        let mut st = ModelState::new(2);
        let ch = st.add_channel();
        st.send(0, ch, 7);
        st.close(0, ch);
        st.goto(1, 1);
        st.recv_into(1, ch, 0, false);
        assert_eq!(st.reg(1, 0), 7, "queued value survives the close");
        st.recv_into(1, ch, 0, false);
        assert!(st.was_closed(1));
        assert_eq!(st.reg(1, 0), CLOSED);
    }

    #[test]
    fn unordered_writes_race_and_channel_edge_orders() {
        // Two writes with no sync edge race…
        let mut st = ModelState::new(2);
        let d = st.add_data(0);
        st.tick(0);
        st.write_data(0, d, 1);
        st.tick(1);
        st.write_data(1, d, 2);
        assert_eq!(st.effects.races.len(), 1);

        // …but a channel send/recv edge orders them.
        let mut st = ModelState::new(2);
        let d = st.add_data(0);
        let ch = st.add_channel();
        st.tick(0);
        st.write_data(0, d, 1);
        st.send(0, ch, 0);
        st.tick(1);
        st.recv_into(1, ch, 0, false);
        st.write_data(1, d, 2);
        assert!(st.effects.races.is_empty(), "{:?}", st.effects.races);
    }

    #[test]
    fn lock_edges_record_nested_acquisition() {
        let mut st = ModelState::new(1);
        let a = st.add_mutex();
        let b = st.add_mutex();
        st.lock(0, a);
        st.lock(0, b);
        assert_eq!(st.effects.lock_edges, vec![(a, b)]);
    }

    #[test]
    fn crash_severs_owned_channels() {
        let mut st = ModelState::new(2);
        let ch = st.add_channel();
        st.owned_channels[0].push(ch);
        st.budget.crashes = 1;
        assert!(st.crash_eligible(0));
        st.crash(0);
        assert!(st.channels[ch.0].closed);
        assert!(!st.crash_eligible(1), "budget spent");
    }
}
