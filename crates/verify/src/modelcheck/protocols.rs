//! The transport/overlap concurrency protocols, re-expressed against
//! the modeling shims.
//!
//! Each model is a faithful pc-machine transcription of one of the
//! hand-rolled protocols in `zero-comm`, with the *decision logic*
//! imported verbatim from [`zero_comm::protocol`] — the same pure
//! kernels the real primitives run — and only the synchronization
//! skeleton (mutexes, condvars, channels, timeouts) re-expressed as
//! shim operations. What the checker proves is therefore about the
//! shipped logic, not a lookalike:
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
//!
//! Ghost cells carry the specification state the invariants quantify
//! over (live sender handles, how many jobs executed); they are hashed
//! and footprinted but race-exempt.

use zero_comm::protocol::handoff;

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
                    let wake = handoff::wake_on_release(left, ran_others, closed)
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
