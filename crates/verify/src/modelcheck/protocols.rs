//! The transport/overlap concurrency protocols, re-expressed against
//! the modeling shims.
//!
//! Each model is a pc-machine transcription of one of the hand-rolled
//! protocols in `zero-comm`, its synchronization skeleton (mutexes,
//! condvars, channels, timeouts) re-expressed as shim operations. Only
//! [`ProgressModel`] and [`LaneModel`] import their *decision logic*
//! verbatim, from [`zero_comm::protocol`] (the [`handoff`] kernel the
//! real op desk runs and the [`lane`] order it keeps with the host-link
//! lane), so what the checker proves of them is about the shipped logic.
//! [`HandshakeModel`] is a transcription of `process.rs`'s hello
//! exchange: its logic is written again here, and what it proves holds
//! for the code only as far as the transcription is faithful.
//!
//! 1. [`HandshakeModel`] — the connect/accept hello exchange at byte
//!    granularity: partial reads (every split explored via scheduler
//!    choices), residue bytes carried from the hello read into the
//!    payload phase, slow/fast peers, and a sequential accept loop in
//!    the 3-peer variant.
//! 2. [`ProgressModel`] — the rank's op desk: the progress thread and a
//!    caller sharing the fabric through the [`handoff`] kernel —
//!    help-first timed waits, ops issued ahead finishing on the progress
//!    thread, and join-on-drop quiescence (the dropped communicator
//!    closes the desk; the thread drains and exits). Three seeded
//!    [`HandoffMutant`]s — no close, a skipped wake, a FIFO break — are
//!    the mutation tests.
//! 3. [`LaneModel`] — the desk beside the rank's host-link lane: a spill
//!    that waits on the desk's finished count for its reduce-scatter, a
//!    gather that waits on the lane's for its fetch (run by the progress
//!    thread or a helper), the helper's wake of the watching lane,
//!    close-and-drain of both threads on drop, and a lost desk. Three
//!    seeded [`LaneMutant`]s — a gather before its seed, a spill before
//!    its reduce-scatter, a skipped watched wake — are its mutation
//!    tests.
//!
//! Ghost cells carry the specification state the invariants quantify
//! over (live sender handles, how many jobs executed); they are hashed
//! and footprinted but race-exempt.

use zero_comm::protocol::{handoff, lane};

use super::explorer::Program;
use super::shims::{ChannelId, CondvarId, DataId, FaultBudget, ModelState, MutexId, Status, Tid};

/// Outcome register (`r0`) conventions shared by all models.
pub const PENDING: i64 = -2;
pub const ABORTED: i64 = -1;
pub const TIMED_OUT: i64 = 0;
pub const OK: i64 = 1;

/// True if any thread was crash-injected in this run.
fn any_crashed(st: &ModelState) -> bool {
    st.status.iter().any(|s| matches!(s, Status::Crashed))
}

/// Per-thread outcome register, for final-state checks.
fn outcome(st: &ModelState, tid: Tid) -> i64 {
    st.locals[tid].regs[0]
}

// ---------------------------------------------------------------------
// 1. Socket handshake with residue bytes
// ---------------------------------------------------------------------

/// The connect/accept hello exchange, modeled at byte granularity: each
/// side sends a 2-byte hello, reads the peer's hello, then sends a
/// 2-byte payload and reads the peer's. Reads consume *any* available
/// prefix (1..=queued bytes, explored via scheduler choices), so a read
/// may return the tail of the hello plus the head of the payload — the
/// residue bytes — which the protocol must carry into the next phase.
///
/// With `peers == 2`, rank 0 is the accept loop: it completes the full
/// exchange with peer 1 before servicing peer 2, while peer 2's bytes
/// queue up (the slow-accepter case).
pub struct HandshakeModel {
    /// Connecting peers (1 or 2); thread 0 is the hub, total threads =
    /// peers + 1.
    pub peers: usize,
    /// Allow one peer crash as the injected fault.
    pub crash: bool,
}

/// Register layout for the handshake state machine.
const H_STATUS: usize = 0; // r0: outcome
const H_BUF: usize = 1; // r1: packed receive buffer (LSB first)
const H_LEN: usize = 2; // r2: bytes in buffer
const H_BYTE: usize = 3; // r3: landing register for one received byte
const H_SESSION: usize = 4; // r4: hub's accept-loop index

const HELLO_TAG: i64 = 1;
const DATA_TAG: i64 = 2;

impl HandshakeModel {
    fn threads(&self) -> usize {
        self.peers + 1
    }

    /// Unidirectional byte stream `src → dst`.
    fn pipe(&self, src: usize, dst: usize) -> ChannelId {
        ChannelId(src * self.threads() + dst)
    }

    /// The remote this thread is currently talking to.
    fn peer_of(&self, st: &ModelState, tid: Tid) -> usize {
        if tid == 0 {
            st.reg(0, H_SESSION) as usize + 1
        } else {
            0
        }
    }

    fn append_byte(st: &mut ModelState, tid: Tid, byte: i64) {
        let len = st.reg(tid, H_LEN);
        let buf = st.reg(tid, H_BUF) | (byte << (8 * len));
        st.set_reg(tid, H_BUF, buf);
        st.set_reg(tid, H_LEN, len + 1);
    }

    /// Pops the parsed 2-byte frame, keeping residue bytes in place.
    fn consume_frame(st: &mut ModelState, tid: Tid) -> (i64, i64) {
        let buf = st.reg(tid, H_BUF);
        let len = st.reg(tid, H_LEN);
        st.set_reg(tid, H_BUF, buf >> 16);
        st.set_reg(tid, H_LEN, len - 2);
        (buf & 0xff, (buf >> 8) & 0xff)
    }

    fn abort(st: &mut ModelState, tid: Tid) {
        st.set_reg(tid, H_STATUS, ABORTED);
        st.done(tid);
    }

    /// Shared read-phase arm: accumulate bytes until `want` are
    /// buffered, then validate the frame `(tag, mark)`. `resume` is the
    /// parked-read continuation pc, `next` the pc after a valid frame.
    #[allow(clippy::too_many_arguments)]
    fn read_phase(
        &self,
        st: &mut ModelState,
        tid: Tid,
        choice: usize,
        tag: i64,
        next: u32,
        resume: u32,
        phase: &str,
    ) {
        let peer = self.peer_of(st, tid);
        if st.reg(tid, H_LEN) >= 2 {
            let (got_tag, got_mark) = Self::consume_frame(st, tid);
            let want_mark = 10 * tag + peer as i64;
            if got_tag != tag || got_mark != want_mark {
                st.fail(format!(
                    "t{tid} {phase}: got frame ({got_tag},{got_mark}), \
                     want ({tag},{want_mark})"
                ));
            }
            st.goto(tid, next);
            return;
        }
        let ch = self.pipe(peer, tid);
        let avail = st.queued(ch);
        if avail == 0 {
            st.goto(tid, resume);
            st.recv_into(tid, ch, H_BYTE, true);
            return;
        }
        // Consume a scheduler-chosen prefix: every read split explored.
        let take = (choice + 1).min(avail);
        for _ in 0..take {
            st.recv_into(tid, ch, H_BYTE, true);
            if st.was_closed(tid) {
                Self::abort(st, tid);
                return;
            }
            let byte = st.reg(tid, H_BYTE);
            Self::append_byte(st, tid, byte);
        }
    }

    /// Parked-read continuation: classify the wake-up, append on data.
    fn read_resume(st: &mut ModelState, tid: Tid, back: u32) {
        if st.timed_out(tid) || st.was_closed(tid) {
            Self::abort(st, tid);
            return;
        }
        let byte = st.reg(tid, H_BYTE);
        Self::append_byte(st, tid, byte);
        st.goto(tid, back);
    }
}

impl Program for HandshakeModel {
    fn init(&self) -> ModelState {
        let t = self.threads();
        let mut st = ModelState::new(t);
        for src in 0..t {
            for dst in 0..t {
                let ch = st.add_channel();
                if src != dst {
                    st.owned_channels[src].push(ch);
                    st.owned_channels[dst].push(ch);
                }
            }
        }
        st.budget = if self.crash {
            FaultBudget { crashes: 1, timeouts: 0 }
        } else {
            FaultBudget { crashes: 0, timeouts: 1 }
        };
        for tid in 0..t {
            st.set_reg(tid, H_STATUS, PENDING);
        }
        st
    }

    fn choices(&self, st: &ModelState, tid: Tid) -> usize {
        // At a read-phase pc with a short buffer, the read may consume
        // any non-empty prefix of the queued bytes.
        if matches!(st.pc(tid), 2 | 6) && st.reg(tid, H_LEN) < 2 {
            let peer = self.peer_of(st, tid);
            st.queued(self.pipe(peer, tid)).max(1)
        } else {
            1
        }
    }

    fn step(&self, st: &mut ModelState, tid: Tid, choice: usize) {
        let peer = self.peer_of(st, tid);
        let out = self.pipe(tid, peer);
        match st.pc(tid) {
            // Hello, one byte per write (partial writes explored).
            0 => {
                st.send(tid, out, HELLO_TAG);
                st.goto(tid, 1);
            }
            1 => {
                st.send(tid, out, 10 * HELLO_TAG + tid as i64);
                st.goto(tid, 2);
            }
            2 => self.read_phase(st, tid, choice, HELLO_TAG, 4, 3, "hello"),
            3 => Self::read_resume(st, tid, 2),
            // Payload phase; residue from the hello read is already in
            // the buffer.
            4 => {
                st.send(tid, out, DATA_TAG);
                st.goto(tid, 5);
            }
            5 => {
                st.send(tid, out, 10 * DATA_TAG + tid as i64);
                st.goto(tid, 6);
            }
            6 => self.read_phase(st, tid, choice, DATA_TAG, 8, 7, "payload"),
            7 => Self::read_resume(st, tid, 6),
            // Session complete.
            8 => {
                let session = st.reg(tid, H_SESSION);
                if tid == 0 && (session as usize) + 1 < self.peers {
                    // Accept loop: next peer, fresh buffer (new socket).
                    st.set_reg(tid, H_SESSION, session + 1);
                    st.set_reg(tid, H_BUF, 0);
                    st.set_reg(tid, H_LEN, 0);
                    st.goto(tid, 0);
                } else {
                    st.set_reg(tid, H_STATUS, OK);
                    st.done(tid);
                }
            }
            pc => panic!("handshake model: bad pc {pc}"),
        }
    }

    fn check_final(&self, st: &ModelState) -> Option<String> {
        if st.budget.timeouts == 1 && !any_crashed(st) {
            for tid in 0..self.threads() {
                if outcome(st, tid) != OK {
                    return Some(format!("t{tid} failed a fault-free handshake"));
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// 2. The op desk: progress thread, help-first wait, join-on-drop
// ---------------------------------------------------------------------

/// A seeded bug in the desk's hand-off, for the mutation tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandoffMutant {
    /// Nobody closes the desk on drop: the progress thread never exits.
    NoClose,
    /// A helper hands the fabric back with ops queued without waking the
    /// progress thread (the lost wakeup).
    SkipWake,
    /// A helper runs its own op ahead of an earlier queued one (the FIFO
    /// break).
    OwnOpFirst,
}

/// The op desk of `zero-comm`'s `nonblocking` module: t0 is the progress
/// thread, t1 the caller. The caller issues `ops` ops, waits on op
/// `ops − 2` with help-first (timed: `ProgressStalled`), then computes
/// while the ops issued behind it must still finish — modeled as an
/// untimed wait that never helps — and finally drops the communicator,
/// closing the desk. Every decision comes from
/// [`handoff`]; all desk state lives
/// under one mutex and one condvar, as in the real primitive.
///
/// Checked: every op runs exactly once and in issue order, whoever runs
/// it; the ops issued ahead finish without the caller; the progress
/// thread exits once the desk closes; a wait that no timeout cut short
/// returns its op's result.
pub struct ProgressModel {
    /// Ops the caller issues (2 or 3).
    pub ops: usize,
    pub mutant: Option<HandoffMutant>,
}

impl ProgressModel {
    const MX: MutexId = MutexId(0);
    const CV: CondvarId = CondvarId(0);
    /// 1 while nobody holds the fabric.
    const FREE: DataId = DataId(0);
    /// Bit `i` set: op `i` issued and not started.
    const QUEUED: DataId = DataId(1);
    /// Ops issued so far.
    const ISSUED: DataId = DataId(2);
    /// Ops finished so far.
    const DONE: DataId = DataId(3);
    const CLOSED: DataId = DataId(4);
    /// Ghost: the op that must run next (issue order).
    const NEXT: usize = 0;

    fn own(&self) -> i64 {
        self.ops as i64 - 2
    }

    /// Runs op `job`: it must be the next in issue order.
    fn run(st: &mut ModelState, job: i64) {
        let next = st.ghost_read(Self::NEXT);
        if job != next {
            st.fail(format!("op {job} ran while op {next} was still queued"));
        }
        st.ghost_write(Self::NEXT, next + 1);
    }

    /// Records a finished op and wakes whoever waits: the progress
    /// thread's `finish` + notify (the caller holds the mutex).
    fn finish(st: &mut ModelState, tid: Tid) {
        let done = st.read_data(tid, Self::DONE);
        st.write_data(tid, Self::DONE, done + 1);
    }

    /// The help-first wait's decision, made holding the mutex.
    fn help_wait(&self, st: &mut ModelState, tid: Tid) {
        let own = self.own();
        if st.read_data(tid, Self::DONE) > own {
            st.unlock(tid, Self::MX);
            st.set_reg(tid, 0, OK);
            st.goto(tid, 4);
            return;
        }
        let queued = (st.read_data(tid, Self::QUEUED) >> own) & 1 == 1;
        let free = st.read_data(tid, Self::FREE) == 1;
        if handoff::helper_takes(free, queued) {
            st.write_data(tid, Self::FREE, 0);
            st.goto(tid, 2);
        } else if st.timed_out(tid) {
            st.unlock(tid, Self::MX);
            st.set_reg(tid, 0, TIMED_OUT); // ProgressStalled
            st.goto(tid, 4);
        } else {
            st.goto(tid, 1);
            st.cv_wait(tid, Self::CV, Self::MX, true);
        }
    }

    fn caller(&self, st: &mut ModelState, tid: Tid) {
        let own = self.own();
        match st.pc(tid) {
            // Issue: queue the next op, waking the progress thread.
            0 => {
                if st.lock(tid, Self::MX) {
                    let id = st.read_data(tid, Self::ISSUED);
                    st.write_data(tid, Self::ISSUED, id + 1);
                    let q = st.read_data(tid, Self::QUEUED);
                    st.write_data(tid, Self::QUEUED, q | 1 << id);
                    st.unlock(tid, Self::MX);
                    st.set_reg(tid, 2, if id + 1 < self.ops as i64 { 0 } else { 1 });
                    st.goto(tid, 8);
                }
            }
            // Help-first wait on op `own` (woken waits come back here).
            1 => {
                if st.lock(tid, Self::MX) {
                    self.help_wait(st, tid);
                }
            }
            // Holding the fabric: run the queue up to `own`, then release.
            2 => {
                let q = st.read_data(tid, Self::QUEUED);
                let head = q.trailing_zeros() as i64;
                let pick = match self.mutant {
                    Some(HandoffMutant::OwnOpFirst) if (q >> own) & 1 == 1 => Some(own),
                    _ => (q != 0 && handoff::helper_runs(head as u64, own as u64)).then_some(head),
                };
                if let Some(job) = pick {
                    st.write_data(tid, Self::QUEUED, q & !(1 << job));
                    st.unlock(tid, Self::MX);
                    Self::run(st, job);
                    st.set_reg(tid, 3, st.reg(tid, 3) + 1);
                    st.goto(tid, 5);
                } else {
                    st.write_data(tid, Self::FREE, 1);
                    let (left, ran_others) = (q.count_ones() as usize, st.reg(tid, 3) > 1);
                    let closed = st.read_data(tid, Self::CLOSED) == 1;
                    let wake = handoff::wake_on_release(left, ran_others, false, closed)
                        && self.mutant != Some(HandoffMutant::SkipWake);
                    st.unlock(tid, Self::MX);
                    st.set_reg(tid, 0, OK);
                    st.set_reg(tid, 2, 4);
                    st.goto(tid, if wake { 8 } else { 4 });
                }
            }
            // Compute: the ops issued ahead must finish without the caller.
            4 => {
                if st.lock(tid, Self::MX) {
                    if st.read_data(tid, Self::DONE) == self.ops as i64 {
                        st.unlock(tid, Self::MX);
                        st.goto(tid, 7);
                    } else {
                        st.goto(tid, 4);
                        st.cv_wait(tid, Self::CV, Self::MX, false);
                    }
                }
            }
            // Finish an op the helper ran, then back to the queue.
            5 => {
                if st.lock(tid, Self::MX) {
                    Self::finish(st, tid);
                    st.goto(tid, 2);
                }
            }
            // Drop the communicator: close the desk.
            7 => {
                if self.mutant != Some(HandoffMutant::NoClose) {
                    if !st.lock(tid, Self::MX) {
                        return;
                    }
                    st.write_data(tid, Self::CLOSED, 1);
                    st.notify_all(tid, Self::CV);
                    st.unlock(tid, Self::MX);
                }
                st.done(tid);
            }
            // A notify, sent after the lock is dropped; then on to reg 2.
            8 => {
                st.notify_all(tid, Self::CV);
                st.goto(tid, st.reg(tid, 2) as u32);
            }
            pc => panic!("progress model: bad caller pc {pc}"),
        }
    }

    fn progress(&self, st: &mut ModelState, tid: Tid) {
        match st.pc(tid) {
            0 => {
                if !st.lock(tid, Self::MX) {
                    return;
                }
                let q = st.read_data(tid, Self::QUEUED);
                let free = st.read_data(tid, Self::FREE) == 1;
                let wake = std::mem::take(&mut st.locals[tid].regs[1]) == 1;
                if handoff::progress_takes(free, q.count_ones() as usize) {
                    let job = q.trailing_zeros() as i64;
                    st.write_data(tid, Self::QUEUED, q & !(1 << job));
                    st.write_data(tid, Self::FREE, 0);
                    st.unlock(tid, Self::MX);
                    if wake {
                        st.notify_all(tid, Self::CV);
                    }
                    Self::run(st, job);
                    st.goto(tid, 1);
                } else if st.read_data(tid, Self::CLOSED) == 1 && q == 0 && free {
                    st.unlock(tid, Self::MX);
                    st.done(tid); // drops the fabric
                } else {
                    if wake {
                        st.notify_all(tid, Self::CV);
                    }
                    st.goto(tid, 0);
                    st.cv_wait(tid, Self::CV, Self::MX, false);
                }
            }
            // Finish the op, hand the fabric back, wake the waiters.
            1 => {
                if st.lock(tid, Self::MX) {
                    Self::finish(st, tid);
                    st.write_data(tid, Self::FREE, 1);
                    // Keeps the mutex: the waiters are woken at pc 0, once
                    // it is dropped (or right before parking).
                    st.set_reg(tid, 1, 1);
                    st.goto(tid, 0);
                }
            }
            pc => panic!("progress model: bad progress pc {pc}"),
        }
    }
}

impl Program for ProgressModel {
    fn init(&self) -> ModelState {
        let mut st = ModelState::new(2);
        st.add_mutex();
        st.add_condvar();
        for value in [1, 0, 0, 0, 0] {
            st.add_data(value);
        }
        st.add_ghost(0);
        st.budget = FaultBudget { crashes: 0, timeouts: 1 };
        st.set_reg(1, 0, PENDING);
        st
    }

    fn step(&self, st: &mut ModelState, tid: Tid, _choice: usize) {
        if tid == 0 {
            self.progress(st, tid);
        } else {
            self.caller(st, tid);
        }
    }

    fn check_final(&self, st: &ModelState) -> Option<String> {
        let ran = st.ghost[Self::NEXT];
        if ran != self.ops as i64 {
            return Some(format!("the desk closed with {ran}/{} ops run", self.ops));
        }
        (st.budget.timeouts == 1 && outcome(st, 1) != OK)
            .then(|| "a wait no timeout cut short returned no result".to_string())
    }
}

// ---------------------------------------------------------------------
// 3. The desk and the host-link lane: cross-queue hand-off
// ---------------------------------------------------------------------

/// A seeded bug in the hand-off between the desk and the lane, for the
/// mutation tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneMutant {
    /// The desk starts a seeded gather without waiting for its fetch.
    GatherBeforeSeed,
    /// The lane starts a spill without waiting for the reduce-scatter it
    /// drains.
    SpillBeforeReduce,
    /// A helper hands the fabric back without waking the lane that
    /// watches the desk's finished count.
    SkipWatchedWake,
}

/// Which of the two anchors a [`LaneModel`] caller exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneScript {
    /// Issue a reduce-scatter and the spill that drains it; wait the
    /// reduce-scatter help-first, then the spill.
    Drain,
    /// Issue a fetch and the gather it seeds; wait the fetch, then the
    /// gather help-first.
    Seed,
}

/// The rank's op desk and its host-link lane (`zero-comm`'s
/// `nonblocking`): t0 is the progress thread, t1 the lane thread, t2 the
/// caller. The caller issues desk op 0 and lane move 0 as its
/// [`LaneScript`] says, waits both as `Issued::wait` does, and drops the
/// communicator, closing the desk and the lane. Each queue
/// counts the ops it has finished, in id order, under its own mutex and
/// condvar; a wait on the other queue is "until it has finished through
/// op k" ([`zero_comm::protocol::lane`]), and a helper handing the
/// fabric back wakes the desk's sleepers as [`handoff`] says, the
/// watching lane included. With `lost`, the progress thread dies holding
/// the fabric at the first op it takes (a panicked progress thread).
///
/// Every wait is modeled untimed and no timeout is injected: the explorer
/// expires a stuck timed wait for free, so a lost wake-up of a timed wait
/// would read as a wait that ran its budget out and then found its op
/// done. Waited untimed, it shows as the lost wake-up it is. The timed
/// waits' stall path is [`ProgressModel`]'s.
///
/// Checked: each queue runs its ops once and in issue order; no gather
/// starts before its seed has finished and no spill before its
/// reduce-scatter has; no wake-up is lost; both threads exit once the
/// communicator drops, a lost desk included; and, with the desk whole,
/// every wait returns its op's result.
pub struct LaneModel {
    pub script: LaneScript,
    pub lost: bool,
    pub mutant: Option<LaneMutant>,
}

impl LaneModel {
    const DESK: MutexId = MutexId(0);
    const DESK_CV: CondvarId = CondvarId(0);
    const LANE: MutexId = MutexId(1);
    const LANE_CV: CondvarId = CondvarId(1);
    /// Desk cells: 1 while nobody holds the fabric; bit `i` set while op
    /// `i` is queued and not started; ops finished; 1 while the lane
    /// waits on `D_DONE`; closed; lost.
    const FREE: DataId = DataId(0);
    const QUEUED: DataId = DataId(1);
    const D_DONE: DataId = DataId(2);
    const WATCHED: DataId = DataId(3);
    const D_CLOSED: DataId = DataId(4);
    const LOST: DataId = DataId(5);
    /// Lane cells: moves issued, moves started, moves finished, 1 + the
    /// first failed move (0 for none), closed.
    const L_ISSUED: DataId = DataId(6);
    const L_STARTED: DataId = DataId(7);
    const L_DONE: DataId = DataId(8);
    const L_FAILED: DataId = DataId(9);
    const L_CLOSED: DataId = DataId(10);
    /// Bit `i` set: desk op `i` finished with an error.
    const D_FAILED: DataId = DataId(11);
    /// Ghosts: ops each queue has run, and finished.
    const D_RAN: usize = 0;
    const L_RAN: usize = 1;
    const D_FIN: usize = 2;
    const L_FIN: usize = 3;

    /// The caller's registers: its outcome, the op a wait is on, the pc
    /// it resumes at, the ops it ran holding the fabric, and the outcome
    /// of the job it is running.
    const OUTCOME: usize = 0;
    const OWN: usize = 1;
    const NEXT: usize = 2;
    const RAN: usize = 3;
    const JOB: usize = 4;

    /// Records a failed wait: the first failure is the caller's outcome.
    fn failed(st: &mut ModelState, tid: Tid, class: i64) {
        if st.reg(tid, Self::OUTCOME) == OK {
            st.set_reg(tid, Self::OUTCOME, class);
        }
    }

    /// Runs desk op `job` (ghost checks only): issue order, and a gather
    /// after its seed.
    fn run_desk_job(&self, st: &mut ModelState, job: i64) {
        let ran = st.ghost_read(Self::D_RAN);
        if job != ran {
            st.fail(format!("desk op {job} ran while op {ran} was still queued"));
        }
        st.ghost_write(Self::D_RAN, ran + 1);
        if job == 0 && st.ghost_read(Self::L_FIN) < 1 && self.script == LaneScript::Seed {
            st.fail("the gather started before the fetch that seeds it finished");
        }
    }

    /// The seeded gather's wait on the lane, holding the fabric: resumes
    /// at `here` while parked; once the seed has finished it runs the
    /// gather, and then (or once the seed failed) goes to `finish` with
    /// the job's outcome in `JOB`.
    fn seed_wait(&self, st: &mut ModelState, tid: Tid, job: i64, here: u32, finish: u32) {
        if !st.lock(tid, Self::LANE) {
            return;
        }
        if lane::through(st.read_data(tid, Self::L_DONE) as u64, 0) {
            let failed = st.read_data(tid, Self::L_FAILED);
            st.unlock(tid, Self::LANE);
            if failed == 0 {
                self.run_desk_job(st, job);
            } else {
                st.set_reg(tid, Self::JOB, ABORTED);
            }
            st.goto(tid, finish);
        } else {
            st.goto(tid, here);
            st.cv_wait(tid, Self::LANE_CV, Self::LANE, false);
        }
    }

    /// Runs lane move `m` (ghost checks only): issue order, and a spill
    /// after the reduce-scatter it drains.
    fn run_move(&self, st: &mut ModelState, m: i64) {
        let ran = st.ghost_read(Self::L_RAN);
        if m != ran {
            st.fail(format!("lane move {m} ran while move {ran} was still queued"));
        }
        st.ghost_write(Self::L_RAN, ran + 1);
        if m == 0 && st.ghost_read(Self::D_FIN) < 1 && self.script == LaneScript::Drain {
            st.fail("the spill started before the reduce-scatter it drains finished");
        }
    }

    /// Records desk op `job` finished, with its outcome in `JOB`: the
    /// thread holds the desk's mutex.
    fn finish_desk_job(st: &mut ModelState, tid: Tid, job: i64) {
        if st.reg(tid, Self::JOB) != OK {
            let failed = st.read_data(tid, Self::D_FAILED);
            st.write_data(tid, Self::D_FAILED, failed | 1 << job);
        }
        let done = st.read_data(tid, Self::D_DONE) + 1;
        st.write_data(tid, Self::D_DONE, done);
        st.ghost_write(Self::D_FIN, done);
    }

    /// Whether desk op `job` waits for the fetch that seeds it: the
    /// seeded gather does, unless the mutant skips the wait.
    fn seeded(&self, job: i64) -> bool {
        job == 0 && self.script == LaneScript::Seed && self.mutant != Some(LaneMutant::GatherBeforeSeed)
    }

    fn progress(&self, st: &mut ModelState, tid: Tid) {
        match st.pc(tid) {
            0 => {
                if !st.lock(tid, Self::DESK) {
                    return;
                }
                let q = st.read_data(tid, Self::QUEUED);
                let free = st.read_data(tid, Self::FREE) == 1;
                if handoff::progress_takes(free, q.count_ones() as usize) {
                    let job = q.trailing_zeros() as i64;
                    st.write_data(tid, Self::QUEUED, q & !(1 << job));
                    st.write_data(tid, Self::FREE, 0);
                    st.unlock(tid, Self::DESK);
                    st.set_reg(tid, 0, job);
                    st.set_reg(tid, Self::JOB, OK);
                    if self.lost {
                        st.goto(tid, 9);
                    } else if self.seeded(job) {
                        st.goto(tid, 1);
                    } else {
                        self.run_desk_job(st, job);
                        st.goto(tid, 3);
                    }
                } else if st.read_data(tid, Self::D_CLOSED) == 1 && q == 0 && free {
                    st.unlock(tid, Self::DESK);
                    st.done(tid); // drops the fabric
                } else {
                    st.goto(tid, 0);
                    st.cv_wait(tid, Self::DESK_CV, Self::DESK, false);
                }
            }
            1 => self.seed_wait(st, tid, st.reg(tid, 0), 1, 3),
            // Finish the op, hand the fabric back, wake the waiters.
            3 => {
                if st.lock(tid, Self::DESK) {
                    Self::finish_desk_job(st, tid, st.reg(tid, 0));
                    st.write_data(tid, Self::FREE, 1);
                    st.unlock(tid, Self::DESK);
                    st.notify_all(tid, Self::DESK_CV);
                    st.goto(tid, 0);
                }
            }
            // A panic holding the fabric: mark the desk lost, wake all.
            9 => {
                if st.lock(tid, Self::DESK) {
                    st.write_data(tid, Self::LOST, 1);
                    st.unlock(tid, Self::DESK);
                    st.notify_all(tid, Self::DESK_CV);
                    st.done(tid);
                }
            }
            pc => panic!("lane model: bad progress pc {pc}"),
        }
    }

    fn lane_thread(&self, st: &mut ModelState, tid: Tid) {
        match st.pc(tid) {
            // Take the next move, or exit once closed and drained.
            0 => {
                if !st.lock(tid, Self::LANE) {
                    return;
                }
                let started = st.read_data(tid, Self::L_STARTED);
                if started < st.read_data(tid, Self::L_ISSUED) {
                    st.write_data(tid, Self::L_STARTED, started + 1);
                    let failed = st.read_data(tid, Self::L_FAILED) != 0;
                    st.unlock(tid, Self::LANE);
                    st.set_reg(tid, 0, started);
                    st.set_reg(tid, Self::JOB, OK);
                    let drains = self.script == LaneScript::Drain && self.mutant != Some(LaneMutant::SpillBeforeReduce);
                    if !failed && !drains {
                        self.run_move(st, started);
                    }
                    st.goto(tid, if !failed && drains { 1 } else { 3 });
                } else if st.read_data(tid, Self::L_CLOSED) == 1 {
                    st.unlock(tid, Self::LANE);
                    st.done(tid);
                } else {
                    st.goto(tid, 0);
                    st.cv_wait(tid, Self::LANE_CV, Self::LANE, false);
                }
            }
            // The spill's wait on the desk: through op 0, or a lost desk.
            1 => {
                if !st.lock(tid, Self::DESK) {
                    return;
                }
                st.write_data(tid, Self::WATCHED, 0);
                let outcome = if lane::through(st.read_data(tid, Self::D_DONE) as u64, 0) {
                    Some(OK)
                } else if st.read_data(tid, Self::LOST) == 1 {
                    Some(ABORTED) // ProgressLost
                } else {
                    None
                };
                match outcome {
                    Some(class) => {
                        st.unlock(tid, Self::DESK);
                        st.set_reg(tid, Self::JOB, class);
                        if class == OK {
                            self.run_move(st, st.reg(tid, 0));
                        }
                        st.goto(tid, 3);
                    }
                    None => {
                        st.write_data(tid, Self::WATCHED, 1);
                        st.goto(tid, 1);
                        st.cv_wait(tid, Self::DESK_CV, Self::DESK, false);
                    }
                }
            }
            // Finish it: count it, keep the first failure, wake waiters.
            3 => {
                if !st.lock(tid, Self::LANE) {
                    return;
                }
                if st.reg(tid, Self::JOB) != OK && st.read_data(tid, Self::L_FAILED) == 0 {
                    st.write_data(tid, Self::L_FAILED, st.reg(tid, 0) + 1);
                }
                let done = st.read_data(tid, Self::L_DONE) + 1;
                st.write_data(tid, Self::L_DONE, done);
                st.ghost_write(Self::L_FIN, done);
                st.unlock(tid, Self::LANE);
                st.notify_all(tid, Self::LANE_CV);
                st.goto(tid, 0);
            }
            pc => panic!("lane model: bad lane pc {pc}"),
        }
    }

    /// Queues desk op `job` and wakes the progress thread.
    fn issue_desk(st: &mut ModelState, tid: Tid, job: i64, next: u32) {
        if st.lock(tid, Self::DESK) {
            let q = st.read_data(tid, Self::QUEUED);
            st.write_data(tid, Self::QUEUED, q | 1 << job);
            st.unlock(tid, Self::DESK);
            st.notify_all(tid, Self::DESK_CV);
            st.goto(tid, next);
        }
    }

    /// Queues the next lane move and wakes the lane thread.
    fn issue_lane(st: &mut ModelState, tid: Tid, next: u32) {
        if st.lock(tid, Self::LANE) {
            let issued = st.read_data(tid, Self::L_ISSUED);
            st.write_data(tid, Self::L_ISSUED, issued + 1);
            st.unlock(tid, Self::LANE);
            st.notify_all(tid, Self::LANE_CV);
            st.goto(tid, next);
        }
    }

    /// Enters a help-first wait on desk op `own`, resuming at `next`.
    fn wait_desk(st: &mut ModelState, tid: Tid, own: i64, next: u32) {
        st.set_reg(tid, Self::OWN, own);
        st.set_reg(tid, Self::NEXT, next as i64);
        st.set_reg(tid, Self::RAN, 0);
        st.goto(tid, 10);
    }

    /// The caller's wait on lane move `id`, resuming at `next`.
    fn wait_lane(st: &mut ModelState, tid: Tid, id: i64, here: u32, next: u32) {
        if !st.lock(tid, Self::LANE) {
            return;
        }
        if lane::through(st.read_data(tid, Self::L_DONE) as u64, id as u64) {
            let failed = st.read_data(tid, Self::L_FAILED);
            st.unlock(tid, Self::LANE);
            if failed != 0 && failed <= id + 1 {
                Self::failed(st, tid, ABORTED);
            }
            st.goto(tid, next);
        } else {
            st.goto(tid, here);
            st.cv_wait(tid, Self::LANE_CV, Self::LANE, false);
        }
    }

    fn caller(&self, st: &mut ModelState, tid: Tid) {
        let next = st.reg(tid, Self::NEXT) as u32;
        match st.pc(tid) {
            // The script, then the drop.
            0 if self.script == LaneScript::Drain => Self::issue_desk(st, tid, 0, 1),
            1 if self.script == LaneScript::Drain => Self::issue_lane(st, tid, 2),
            2 if self.script == LaneScript::Drain => Self::wait_desk(st, tid, 0, 3),
            3 if self.script == LaneScript::Drain => Self::wait_lane(st, tid, 0, 3, 8),
            0 => Self::issue_lane(st, tid, 1),
            1 => Self::issue_desk(st, tid, 0, 2),
            2 => Self::wait_lane(st, tid, 0, 2, 3),
            3 => Self::wait_desk(st, tid, 0, 8),
            8 => {
                if st.lock(tid, Self::DESK) {
                    st.write_data(tid, Self::D_CLOSED, 1);
                    st.unlock(tid, Self::DESK);
                    st.notify_all(tid, Self::DESK_CV);
                    st.goto(tid, 9);
                }
            }
            9 => {
                if st.lock(tid, Self::LANE) {
                    st.write_data(tid, Self::L_CLOSED, 1);
                    st.unlock(tid, Self::LANE);
                    st.notify_all(tid, Self::LANE_CV);
                    st.done(tid);
                }
            }
            // Help-first wait on op `OWN` (woken waits come back here).
            10 => {
                if !st.lock(tid, Self::DESK) {
                    return;
                }
                let own = st.reg(tid, Self::OWN);
                let queued = (st.read_data(tid, Self::QUEUED) >> own) & 1 == 1;
                let free = st.read_data(tid, Self::FREE) == 1;
                if lane::through(st.read_data(tid, Self::D_DONE) as u64, own as u64) {
                    let failed = (st.read_data(tid, Self::D_FAILED) >> own) & 1 == 1;
                    st.unlock(tid, Self::DESK);
                    if failed {
                        Self::failed(st, tid, ABORTED);
                    }
                    st.goto(tid, next);
                } else if st.read_data(tid, Self::LOST) == 1 {
                    st.unlock(tid, Self::DESK);
                    Self::failed(st, tid, ABORTED); // ProgressLost
                    st.goto(tid, next);
                } else if handoff::helper_takes(free, queued) {
                    st.write_data(tid, Self::FREE, 0);
                    st.goto(tid, 11);
                } else {
                    st.goto(tid, 10);
                    st.cv_wait(tid, Self::DESK_CV, Self::DESK, false);
                }
            }
            // Holding the fabric and the desk's mutex: run the queue up to
            // `OWN`, then release.
            11 => {
                let (q, own) = (st.read_data(tid, Self::QUEUED), st.reg(tid, Self::OWN));
                let head = q.trailing_zeros() as i64;
                if q != 0 && handoff::helper_runs(head as u64, own as u64) {
                    st.write_data(tid, Self::QUEUED, q & !(1 << head));
                    st.unlock(tid, Self::DESK);
                    st.set_reg(tid, 5, head);
                    st.set_reg(tid, Self::RAN, st.reg(tid, Self::RAN) + 1);
                    st.set_reg(tid, Self::JOB, OK);
                    if self.seeded(head) {
                        st.goto(tid, 12);
                    } else {
                        self.run_desk_job(st, head);
                        st.goto(tid, 14);
                    }
                } else {
                    st.write_data(tid, Self::FREE, 1);
                    let (left, ran_others) = (q.count_ones() as usize, st.reg(tid, Self::RAN) > 1);
                    let watched = st.read_data(tid, Self::WATCHED) == 1
                        && self.mutant != Some(LaneMutant::SkipWatchedWake);
                    let closed = st.read_data(tid, Self::D_CLOSED) == 1;
                    st.unlock(tid, Self::DESK);
                    if handoff::wake_on_release(left, ran_others, watched, closed) {
                        st.notify_all(tid, Self::DESK_CV);
                    }
                    st.goto(tid, next);
                }
            }
            12 => self.seed_wait(st, tid, st.reg(tid, 5), 12, 14),
            // Finish a helped op (its outcome is the wait's if it is
            // `OWN`), then back to the queue holding the mutex.
            14 => {
                if st.lock(tid, Self::DESK) {
                    Self::finish_desk_job(st, tid, st.reg(tid, 5));
                    let job = st.reg(tid, Self::JOB);
                    if st.reg(tid, 5) == st.reg(tid, Self::OWN) && job != OK {
                        Self::failed(st, tid, job);
                    }
                    st.goto(tid, 11);
                }
            }
            pc => panic!("lane model: bad caller pc {pc}"),
        }
    }
}

impl Program for LaneModel {
    fn init(&self) -> ModelState {
        let mut st = ModelState::new(3);
        for _ in 0..2 {
            st.add_mutex();
            st.add_condvar();
        }
        for value in [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] {
            st.add_data(value);
        }
        for _ in 0..4 {
            st.add_ghost(0);
        }
        st.budget = FaultBudget { crashes: 0, timeouts: 0 };
        st.set_reg(2, Self::OUTCOME, OK);
        st
    }

    fn step(&self, st: &mut ModelState, tid: Tid, _choice: usize) {
        match tid {
            0 => self.progress(st, tid),
            1 => self.lane_thread(st, tid),
            _ => self.caller(st, tid),
        }
    }

    fn check_final(&self, st: &ModelState) -> Option<String> {
        let (desk_ran, lane_ran) = (st.ghost[Self::D_RAN], st.ghost[Self::L_RAN]);
        if !self.lost {
            if (desk_ran, lane_ran) != (1, 1) {
                return Some(format!("the queues closed with {desk_ran}/1 ops and {lane_ran}/1 moves run"));
            }
            if outcome(st, 2) != OK {
                return Some("a wait on a whole desk returned no result".to_string());
            }
        }
        None
    }
}
