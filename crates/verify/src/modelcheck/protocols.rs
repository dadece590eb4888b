//! The transport/overlap concurrency protocols, re-expressed against
//! the modeling shims.
//!
//! Each model is a pc-machine transcription of one of the hand-rolled
//! protocols in `zero-comm`, its synchronization skeleton (mutexes,
//! condvars, channels, timeouts) re-expressed as shim operations. Only
//! [`DeskModel`] imports its *decision logic* verbatim, from
//! [`zero_comm::protocol`] (the [`handoff`] kernel the real op desk runs
//! and the [`lane`] order it keeps with the host-link lane), so what the
//! checker proves of it is about the shipped logic. [`HandshakeModel`] is
//! a transcription of `process.rs`'s hello exchange: its logic is written
//! again here, and what it proves holds for the code only as far as the
//! transcription is faithful.
//!
//! 1. [`HandshakeModel`] — the connect/accept hello exchange at byte
//!    granularity: partial reads (every split explored via scheduler
//!    choices), residue bytes carried from the hello read into the
//!    payload phase, slow/fast peers, and a sequential accept loop in
//!    the 3-peer variant.
//! 2. [`DeskModel`] — the rank's op desk and its host-link lane, driven
//!    by a caller's script of [`Call`]s: the progress loop and the
//!    help-first wait, each transcribed once, ops issued ahead finishing on
//!    the progress thread, a spill that waits on the desk's finished count
//!    for its reduce-scatter and a gather that waits on the lane's for its
//!    fetch, close-and-drain of every thread on drop, and a lost desk.
//!    Six seeded [`DeskMutant`]s — no close, a skipped wake, a FIFO break,
//!    a gather before its seed, a spill before its reduce-scatter, a
//!    skipped wake of the watching lane — are the mutation tests.
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
// 2. The op desk and its host-link lane, driven by a caller's script
// ---------------------------------------------------------------------

/// A seeded bug in the desk or the lane, for the mutation tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeskMutant {
    /// Nobody closes the desk on drop: the progress thread never exits.
    NoClose,
    /// A helper hands the fabric back with ops queued without waking the
    /// progress thread (the lost wakeup).
    SkipWake,
    /// A helper runs its own op ahead of an earlier queued one (the FIFO
    /// break).
    OwnOpFirst,
    /// The desk starts a seeded gather without waiting for its fetch.
    GatherBeforeSeed,
    /// The lane starts a spill without waiting for the reduce-scatter it
    /// drains.
    SpillBeforeReduce,
    /// A helper hands the fabric back without waking the lane that
    /// watches the desk's finished count.
    SkipWatchedWake,
}

/// One step of a [`DeskModel`] caller's script. Ops and moves are
/// numbered in issue order, each queue from 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// Queue the next desk op, which waits for lane move `seed` (a gather
    /// whose piece a fetch brings up), and wake the progress thread.
    Op { seed: Option<usize> },
    /// Queue the next lane move, which waits for desk op `drains` (a
    /// spill of a reduce-scatter's piece), and wake the lane thread.
    Move { drains: Option<usize> },
    /// Wait on desk op `i`, help-first.
    WaitOp(usize),
    /// Wait on lane move `i`.
    WaitMove(usize),
    /// Compute while every op issued so far finishes without this
    /// thread: a wait that never helps, untimed.
    Compute,
}

/// The rank's op desk and, when the script issues moves, its host-link
/// lane (`zero-comm`'s `nonblocking`): t0 is the progress thread, t1 the
/// caller, t2 the lane thread. The caller runs its script of [`Call`]s,
/// then drops the communicator, closing the desk and the lane. Each queue
/// counts the ops it has finished, in id order, under its own mutex and
/// condvar, and an op is done once its queue's count passes its id
/// ([`lane::through`]); every hand-off decision comes from [`handoff`].
/// With `lost`, the progress thread dies holding the fabric at the first
/// op it takes (a panicked progress thread).
///
/// The waits are `timed` or not. The explorer expires a stuck timed wait
/// for free, so a lost wake-up of a timed wait reads as a wait that ran
/// its budget out; waited untimed, it shows as the lost wake-up it is. The
/// desk alone ([`DeskModel::progress`]) is timed, with one timeout
/// injected (`ProgressStalled`); the desk beside its lane
/// ([`DeskModel::drain`], [`DeskModel::seed`]) is untimed.
///
/// Checked: each queue runs its ops once and in issue order, whoever runs
/// them; no gather starts before its seed has finished and no spill before
/// its reduce-scatter has; no wake-up is lost; every thread exits once the
/// communicator drops, a lost desk included; and, with the desk whole,
/// every wait no timeout cut short returns its op's result.
pub struct DeskModel {
    pub script: Vec<Call>,
    pub timed: bool,
    pub lost: bool,
    pub mutant: Option<DeskMutant>,
}

impl DeskModel {
    const DESK: MutexId = MutexId(0);
    const DESK_CV: CondvarId = CondvarId(0);
    const LANE: MutexId = MutexId(1);
    const LANE_CV: CondvarId = CondvarId(1);
    /// Desk cells: 1 while nobody holds the fabric; bit `i` set while op
    /// `i` is queued and not started; ops finished; 1 while the lane waits
    /// on the finished count; closed; lost; bit `i` set once op `i`
    /// finished with an error.
    const FREE: DataId = DataId(0);
    const QUEUED: DataId = DataId(1);
    const DONE: DataId = DataId(2);
    const WATCHED: DataId = DataId(3);
    const CLOSED: DataId = DataId(4);
    const LOST: DataId = DataId(5);
    const FAILED: DataId = DataId(6);
    /// Lane cells: moves issued, started, finished; 1 + the first failed
    /// move (0 for none); closed.
    const L_ISSUED: DataId = DataId(7);
    const L_STARTED: DataId = DataId(8);
    const L_DONE: DataId = DataId(9);
    const L_FAILED: DataId = DataId(10);
    const L_CLOSED: DataId = DataId(11);
    /// Ghosts: ops each queue has run, and finished.
    const RAN: usize = 0;
    const L_RAN: usize = 1;
    const FIN: usize = 2;
    const L_FIN: usize = 3;

    /// Registers: the caller's outcome, its place in the script and the
    /// ops it ran holding the fabric; every thread's running job and that
    /// job's outcome; the progress thread's pending wake.
    const OUTCOME: usize = 0;
    const AT: usize = 1;
    const HELPED: usize = 2;
    const JOB: usize = 3;
    const JOB_OK: usize = 4;
    const WAKE: usize = 5;

    /// The desk alone: the caller issues `ops` ops, waits op `ops − 2`
    /// help-first, then computes while the ops issued behind it finish.
    pub fn progress(ops: usize) -> DeskModel {
        let issue = (0..ops).map(|_| Call::Op { seed: None });
        let script = issue.chain([Call::WaitOp(ops - 2), Call::Compute]).collect();
        DeskModel { script, timed: true, lost: false, mutant: None }
    }

    /// A reduce-scatter and the spill that drains it: the caller waits
    /// the reduce-scatter help-first, then the spill.
    pub fn drain(lost: bool) -> DeskModel {
        let script = vec![Call::Op { seed: None }, Call::Move { drains: Some(0) }, Call::WaitOp(0), Call::WaitMove(0)];
        DeskModel { script, timed: false, lost, mutant: None }
    }

    /// A fetch and the gather it seeds: the caller waits the fetch, then
    /// the gather help-first.
    pub fn seed(lost: bool) -> DeskModel {
        let script = vec![Call::Move { drains: None }, Call::Op { seed: Some(0) }, Call::WaitMove(0), Call::WaitOp(0)];
        DeskModel { script, timed: false, lost, mutant: None }
    }

    fn mutant(&self, m: DeskMutant) -> bool {
        self.mutant == Some(m)
    }

    /// One queue's calls in issue order: each op's seed (`ops`) or each
    /// move's drained op.
    fn anchors(&self, ops: bool) -> impl Iterator<Item = Option<usize>> + '_ {
        self.script.iter().filter_map(move |c| match *c {
            Call::Op { seed } if ops => Some(seed),
            Call::Move { drains } if !ops => Some(drains),
            _ => None,
        })
    }

    /// What op `i` (`ops`) or move `i` waits for on the other queue.
    fn anchor(&self, ops: bool, i: i64) -> Option<i64> {
        self.anchors(ops).nth(i as usize).flatten().map(|at| at as i64)
    }

    fn has_lane(&self) -> bool {
        self.anchors(false).next().is_some()
    }

    /// The op the caller's current call waits on, help-first.
    fn own(&self, st: &ModelState, tid: Tid) -> i64 {
        match self.script[st.reg(tid, Self::AT) as usize] {
            Call::WaitOp(own) => own as i64,
            call => panic!("desk model: helping in {call:?}"),
        }
    }

    /// Records a wait's answer: the first failure is the caller's outcome.
    fn answer(st: &mut ModelState, tid: Tid, class: i64) {
        if matches!(st.reg(tid, Self::OUTCOME), PENDING | OK) {
            st.set_reg(tid, Self::OUTCOME, class);
        }
    }

    /// On to the caller's next call.
    fn advance(st: &mut ModelState, tid: Tid) {
        st.set_reg(tid, Self::AT, st.reg(tid, Self::AT) + 1);
        st.locals[tid].timed_out = false;
        st.goto(tid, 0);
    }

    /// Runs desk op `job` (ghost checks only): issue order, and a gather
    /// after its seed.
    fn run_op(&self, st: &mut ModelState, job: i64) {
        let ran = st.ghost_read(Self::RAN);
        if job != ran {
            st.fail(format!("op {job} ran while op {ran} was still queued"));
        }
        st.ghost_write(Self::RAN, ran + 1);
        if self.anchor(true, job).is_some_and(|seed| st.ghost_read(Self::L_FIN) <= seed) {
            st.fail("the gather started before the fetch that seeds it finished");
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
        if self.anchor(false, m).is_some_and(|op| st.ghost_read(Self::FIN) <= op) {
            st.fail("the spill started before the reduce-scatter it drains finished");
        }
    }

    /// Starts desk op `job` on the thread holding the fabric: it waits for
    /// its seed at `seed_pc` (unless the mutant skips the wait), or runs at
    /// once and goes to `finish_pc`.
    fn start_op(&self, st: &mut ModelState, tid: Tid, job: i64, seed_pc: u32, finish_pc: u32) {
        st.set_reg(tid, Self::JOB, job);
        st.set_reg(tid, Self::JOB_OK, OK);
        if self.anchor(true, job).is_some() && !self.mutant(DeskMutant::GatherBeforeSeed) {
            st.goto(tid, seed_pc);
        } else {
            self.run_op(st, job);
            st.goto(tid, finish_pc);
        }
    }

    /// Whether lane move `m` has finished (`Some`), and if so whether it
    /// or a move before it failed; the thread holds the lane's mutex.
    fn lane_through(st: &mut ModelState, tid: Tid, m: i64) -> Option<bool> {
        let failed = st.read_data(tid, Self::L_FAILED);
        lane::through(st.read_data(tid, Self::L_DONE) as u64, m as u64).then_some(failed != 0 && failed <= m + 1)
    }

    /// The running op's wait on the lane for its seed, holding the fabric:
    /// parks at `here`; once the seed has finished it runs the op (or
    /// records the seed's failure) and goes to `finish_pc`.
    fn seed_wait(&self, st: &mut ModelState, tid: Tid, here: u32, finish_pc: u32) {
        if !st.lock(tid, Self::LANE) {
            return;
        }
        let job = st.reg(tid, Self::JOB);
        match Self::lane_through(st, tid, self.anchor(true, job).expect("a seeded op")) {
            Some(failed) => {
                st.unlock(tid, Self::LANE);
                if failed {
                    st.set_reg(tid, Self::JOB_OK, ABORTED);
                } else {
                    self.run_op(st, job);
                }
                st.goto(tid, finish_pc);
            }
            None => {
                st.goto(tid, here);
                st.cv_wait(tid, Self::LANE_CV, Self::LANE, self.timed);
            }
        }
    }

    /// Counts the running op finished, with its outcome; the thread holds
    /// the desk's mutex.
    fn finish_op(st: &mut ModelState, tid: Tid) {
        if st.reg(tid, Self::JOB_OK) != OK {
            let failed = st.read_data(tid, Self::FAILED);
            st.write_data(tid, Self::FAILED, failed | 1 << st.reg(tid, Self::JOB));
        }
        let done = st.read_data(tid, Self::DONE) + 1;
        st.write_data(tid, Self::DONE, done);
        st.ghost_write(Self::FIN, done);
    }

    /// `Desk::progress_loop`: it keeps the mutex from finishing one op to
    /// taking the next, and wakes the waiters for the op just finished
    /// once it drops the mutex (or right before it parks).
    fn progress_thread(&self, st: &mut ModelState, tid: Tid) {
        match st.pc(tid) {
            0 => {
                if !st.lock(tid, Self::DESK) {
                    return;
                }
                let q = st.read_data(tid, Self::QUEUED);
                let free = st.read_data(tid, Self::FREE) == 1;
                let wake = std::mem::take(&mut st.locals[tid].regs[Self::WAKE]) == 1;
                if handoff::progress_takes(free, q.count_ones() as usize) {
                    let job = q.trailing_zeros() as i64;
                    st.write_data(tid, Self::QUEUED, q & !(1 << job));
                    st.write_data(tid, Self::FREE, 0);
                    st.unlock(tid, Self::DESK);
                    if wake {
                        st.notify_all(tid, Self::DESK_CV);
                    }
                    if self.lost {
                        st.goto(tid, 3);
                    } else {
                        self.start_op(st, tid, job, 1, 2);
                    }
                } else if st.read_data(tid, Self::CLOSED) == 1 && q == 0 && free {
                    st.unlock(tid, Self::DESK);
                    st.done(tid); // drops the fabric
                } else {
                    if wake {
                        st.notify_all(tid, Self::DESK_CV);
                    }
                    st.goto(tid, 0);
                    st.cv_wait(tid, Self::DESK_CV, Self::DESK, false);
                }
            }
            1 => self.seed_wait(st, tid, 1, 2),
            // Finish the op and hand the fabric back, keeping the mutex.
            2 => {
                if st.lock(tid, Self::DESK) {
                    Self::finish_op(st, tid);
                    st.write_data(tid, Self::FREE, 1);
                    st.set_reg(tid, Self::WAKE, 1);
                    st.goto(tid, 0);
                }
            }
            // A panic holding the fabric: mark the desk lost, wake all.
            3 => {
                if st.lock(tid, Self::DESK) {
                    st.write_data(tid, Self::LOST, 1);
                    st.unlock(tid, Self::DESK);
                    st.notify_all(tid, Self::DESK_CV);
                    st.done(tid);
                }
            }
            pc => panic!("desk model: bad progress pc {pc}"),
        }
    }

    /// `Lane::run`: like the progress loop, it keeps the mutex from
    /// finishing one move to taking the next.
    fn lane_thread(&self, st: &mut ModelState, tid: Tid) {
        match st.pc(tid) {
            0 => {
                if !st.lock(tid, Self::LANE) {
                    return;
                }
                let started = st.read_data(tid, Self::L_STARTED);
                if started < st.read_data(tid, Self::L_ISSUED) {
                    st.write_data(tid, Self::L_STARTED, started + 1);
                    let failed = st.read_data(tid, Self::L_FAILED) != 0;
                    st.unlock(tid, Self::LANE);
                    st.set_reg(tid, Self::JOB, started);
                    st.set_reg(tid, Self::JOB_OK, OK);
                    let drains = self.anchor(false, started).is_some() && !self.mutant(DeskMutant::SpillBeforeReduce);
                    if !failed && !drains {
                        self.run_move(st, started);
                    }
                    st.goto(tid, if !failed && drains { 1 } else { 2 });
                } else if st.read_data(tid, Self::L_CLOSED) == 1 {
                    st.unlock(tid, Self::LANE);
                    st.done(tid);
                } else {
                    st.goto(tid, 0);
                    st.cv_wait(tid, Self::LANE_CV, Self::LANE, false);
                }
            }
            // `Desk::wait_through`: the spill waits for the op it drains,
            // watched, or for a lost desk.
            1 => {
                if !st.lock(tid, Self::DESK) {
                    return;
                }
                let m = st.reg(tid, Self::JOB);
                let op = self.anchor(false, m).expect("a draining move");
                let through = lane::through(st.read_data(tid, Self::DONE) as u64, op as u64);
                let watched = !through && st.read_data(tid, Self::LOST) == 0;
                st.write_data(tid, Self::WATCHED, i64::from(watched));
                if watched {
                    st.goto(tid, 1);
                    st.cv_wait(tid, Self::DESK_CV, Self::DESK, self.timed);
                    return;
                }
                st.unlock(tid, Self::DESK);
                if through {
                    self.run_move(st, m);
                } else {
                    st.set_reg(tid, Self::JOB_OK, ABORTED); // ProgressLost
                }
                st.goto(tid, 2);
            }
            // Count it, keep the first failure, wake the waiters, and go on
            // holding the mutex.
            2 => {
                if !st.lock(tid, Self::LANE) {
                    return;
                }
                if st.reg(tid, Self::JOB_OK) != OK && st.read_data(tid, Self::L_FAILED) == 0 {
                    st.write_data(tid, Self::L_FAILED, st.reg(tid, Self::JOB) + 1);
                }
                let done = st.read_data(tid, Self::L_DONE) + 1;
                st.write_data(tid, Self::L_DONE, done);
                st.ghost_write(Self::L_FIN, done);
                st.notify_all(tid, Self::LANE_CV);
                st.goto(tid, 0);
            }
            pc => panic!("desk model: bad lane pc {pc}"),
        }
    }

    /// The caller's help-first wait on its op (`PendingOp::wait` and
    /// `Desk::turn`): done, a lost desk, the free fabric taken while the op
    /// is queued, a spent budget, or park.
    fn help_wait(&self, st: &mut ModelState, tid: Tid) {
        if !st.lock(tid, Self::DESK) {
            return;
        }
        let own = self.own(st, tid);
        let queued = (st.read_data(tid, Self::QUEUED) >> own) & 1 == 1;
        let free = st.read_data(tid, Self::FREE) == 1;
        if lane::through(st.read_data(tid, Self::DONE) as u64, own as u64) {
            let failed = (st.read_data(tid, Self::FAILED) >> own) & 1 == 1;
            st.unlock(tid, Self::DESK);
            Self::answer(st, tid, if failed { ABORTED } else { OK });
            Self::advance(st, tid);
        } else if st.read_data(tid, Self::LOST) == 1 {
            st.unlock(tid, Self::DESK);
            Self::answer(st, tid, ABORTED); // ProgressLost
            Self::advance(st, tid);
        } else if handoff::helper_takes(free, queued) {
            st.write_data(tid, Self::FREE, 0);
            st.set_reg(tid, Self::HELPED, 0);
            st.goto(tid, 3);
        } else if st.timed_out(tid) {
            st.unlock(tid, Self::DESK);
            Self::answer(st, tid, TIMED_OUT); // ProgressStalled
            Self::advance(st, tid);
        } else {
            st.cv_wait(tid, Self::DESK_CV, Self::DESK, self.timed);
        }
    }

    /// The caller's wait on lane move `m` (`Lane::wait`).
    fn move_wait(&self, st: &mut ModelState, tid: Tid, m: i64) {
        if !st.lock(tid, Self::LANE) {
            return;
        }
        match Self::lane_through(st, tid, m) {
            Some(failed) => {
                st.unlock(tid, Self::LANE);
                Self::answer(st, tid, if failed { ABORTED } else { OK });
                Self::advance(st, tid);
            }
            None => st.cv_wait(tid, Self::LANE_CV, Self::LANE, self.timed),
        }
    }

    /// Compute: parks, never helping, until every op issued so far has
    /// finished.
    fn compute(&self, st: &mut ModelState, tid: Tid, issued: i64) {
        if !st.lock(tid, Self::DESK) {
            return;
        }
        if st.read_data(tid, Self::DONE) == issued {
            st.unlock(tid, Self::DESK);
            Self::advance(st, tid);
        } else {
            st.cv_wait(tid, Self::DESK_CV, Self::DESK, false);
        }
    }

    /// The caller's next call; a woken wait resumes here too.
    fn call(&self, st: &mut ModelState, tid: Tid) {
        let at = st.reg(tid, Self::AT) as usize;
        let ops = self.script[..at].iter().filter(|c| matches!(c, Call::Op { .. })).count() as i64;
        match self.script.get(at) {
            // Queue the op; the wake follows once the mutex is dropped.
            Some(Call::Op { .. }) => {
                if st.lock(tid, Self::DESK) {
                    let q = st.read_data(tid, Self::QUEUED);
                    st.write_data(tid, Self::QUEUED, q | 1 << ops);
                    st.unlock(tid, Self::DESK);
                    st.goto(tid, 1);
                }
            }
            Some(Call::Move { .. }) => {
                if st.lock(tid, Self::LANE) {
                    let issued = st.read_data(tid, Self::L_ISSUED);
                    st.write_data(tid, Self::L_ISSUED, issued + 1);
                    st.unlock(tid, Self::LANE);
                    st.goto(tid, 2);
                }
            }
            Some(Call::WaitOp(_)) => self.help_wait(st, tid),
            Some(&Call::WaitMove(m)) => self.move_wait(st, tid, m as i64),
            Some(Call::Compute) => self.compute(st, tid, ops),
            // Drop the communicator: close the desk, then the lane.
            None => {
                if !self.mutant(DeskMutant::NoClose) {
                    if !st.lock(tid, Self::DESK) {
                        return;
                    }
                    st.write_data(tid, Self::CLOSED, 1);
                    st.unlock(tid, Self::DESK);
                    st.notify_all(tid, Self::DESK_CV);
                }
                if self.has_lane() {
                    st.goto(tid, 6);
                } else {
                    st.done(tid);
                }
            }
        }
    }

    fn caller(&self, st: &mut ModelState, tid: Tid) {
        match st.pc(tid) {
            0 => self.call(st, tid),
            // A wake, sent after the mutex is dropped; then the next call.
            1 | 2 => {
                st.notify_all(tid, if st.pc(tid) == 1 { Self::DESK_CV } else { Self::LANE_CV });
                Self::advance(st, tid);
            }
            // Holding the fabric and the desk's mutex: run the queue up to
            // the op waited on, then hand the fabric back (`Desk::release`).
            3 => {
                let (q, own) = (st.read_data(tid, Self::QUEUED), self.own(st, tid));
                let head = q.trailing_zeros() as i64;
                let pick = match self.mutant {
                    Some(DeskMutant::OwnOpFirst) if (q >> own) & 1 == 1 => Some(own),
                    _ => (q != 0 && handoff::helper_runs(head as u64, own as u64)).then_some(head),
                };
                if let Some(job) = pick {
                    st.write_data(tid, Self::QUEUED, q & !(1 << job));
                    st.unlock(tid, Self::DESK);
                    st.set_reg(tid, Self::HELPED, st.reg(tid, Self::HELPED) + 1);
                    self.start_op(st, tid, job, 4, 5);
                } else {
                    st.write_data(tid, Self::FREE, 1);
                    let (left, ran_others) = (q.count_ones() as usize, st.reg(tid, Self::HELPED) > 1);
                    let watched = st.read_data(tid, Self::WATCHED) == 1 && !self.mutant(DeskMutant::SkipWatchedWake);
                    let closed = st.read_data(tid, Self::CLOSED) == 1;
                    st.unlock(tid, Self::DESK);
                    Self::answer(st, tid, OK);
                    if handoff::wake_on_release(left, ran_others, watched, closed) && !self.mutant(DeskMutant::SkipWake) {
                        st.goto(tid, 1);
                    } else {
                        Self::advance(st, tid);
                    }
                }
            }
            4 => self.seed_wait(st, tid, 4, 5),
            // Finish a helped op (its outcome is the wait's if it is the
            // op waited on), then back to the queue holding the mutex.
            5 => {
                if st.lock(tid, Self::DESK) {
                    Self::finish_op(st, tid);
                    if st.reg(tid, Self::JOB) == self.own(st, tid) {
                        Self::answer(st, tid, st.reg(tid, Self::JOB_OK));
                    }
                    st.goto(tid, 3);
                }
            }
            6 => {
                if st.lock(tid, Self::LANE) {
                    st.write_data(tid, Self::L_CLOSED, 1);
                    st.unlock(tid, Self::LANE);
                    st.notify_all(tid, Self::LANE_CV);
                    st.done(tid);
                }
            }
            pc => panic!("desk model: bad caller pc {pc}"),
        }
    }
}

impl Program for DeskModel {
    fn init(&self) -> ModelState {
        let lane = self.has_lane();
        let mut st = ModelState::new(if lane { 3 } else { 2 });
        for _ in 0..if lane { 2 } else { 1 } {
            st.add_mutex();
            st.add_condvar();
        }
        for value in [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] {
            st.add_data(value);
        }
        for _ in 0..4 {
            st.add_ghost(0);
        }
        st.budget = FaultBudget { crashes: 0, timeouts: u8::from(self.timed) };
        st.set_reg(1, Self::OUTCOME, PENDING);
        st
    }

    fn step(&self, st: &mut ModelState, tid: Tid, _choice: usize) {
        match tid {
            0 => self.progress_thread(st, tid),
            1 => self.caller(st, tid),
            _ => self.lane_thread(st, tid),
        }
    }

    fn check_final(&self, st: &ModelState) -> Option<String> {
        let (ops, moves) = (self.anchors(true).count() as i64, self.anchors(false).count() as i64);
        let (ran, lane_ran) = (st.ghost[Self::RAN], st.ghost[Self::L_RAN]);
        if self.lost {
            return None;
        }
        if (ran, lane_ran) != (ops, moves) {
            return Some(format!("the queues closed with {ran}/{ops} ops and {lane_ran}/{moves} moves run"));
        }
        (st.budget.timeouts == u8::from(self.timed) && outcome(st, 1) != OK)
            .then(|| "a wait no timeout cut short returned no result".to_string())
    }
}
