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
//! 1. [`LatchModel`] — `ShutdownLatch`: departing handles decrement a
//!    live count under a mutex and notify; a rank in the deadline wait
//!    re-checks `latch::sole_survivor` in a timed-wait loop.
//! 2. [`HandshakeModel`] — the connect/accept hello exchange at byte
//!    granularity: partial reads (every split explored via scheduler
//!    choices), residue bytes carried from the hello read into the
//!    payload phase, slow/fast peers, and a sequential accept loop in
//!    the 3-peer variant.
//! 3. [`ProgressModel`] — the non-blocking engine's progress thread: an
//!    unbounded work queue, completion flags published under a
//!    mutex/condvar, timed `PendingOp` waits, and join-on-drop
//!    quiescence (last handle closes the queue; the thread drains and
//!    exits). The `mutant_no_close` flag drops the close — the
//!    join-would-hang bug — for the mutation test.
//!
//! Ghost cells carry the specification state the invariants quantify
//! over (live sender handles, how many jobs executed); they are hashed
//! and footprinted but race-exempt.

use zero_comm::protocol::latch;

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
// 1. ShutdownLatch deadline wait
// ---------------------------------------------------------------------

/// `ShutdownLatch`: thread 0 runs `wait_sole_survivor` with a deadline
/// (timed condvar wait re-checking [`latch::sole_survivor`]); threads
/// `1..ranks` run `depart` (decrement live under the mutex, notify).
///
/// One injected timeout models the deadline expiring mid-protocol, so
/// the checker covers "shutdown racing the deadline" exhaustively.
pub struct LatchModel {
    pub ranks: usize,
}

impl LatchModel {
    const MX: MutexId = MutexId(0);
    const CV: CondvarId = CondvarId(0);
    const LIVE: DataId = DataId(0);
}

impl Program for LatchModel {
    fn init(&self) -> ModelState {
        let mut st = ModelState::new(self.ranks);
        st.add_mutex();
        st.add_condvar();
        st.add_data(self.ranks as i64);
        st.budget = FaultBudget { crashes: 0, timeouts: 1 };
        st
    }

    fn step(&self, st: &mut ModelState, tid: Tid, _choice: usize) {
        if tid == 0 {
            // wait_sole_survivor: single arm; wakes re-enter it with the
            // mutex granted (lock is idempotent for the owner).
            if st.lock(tid, Self::MX) {
                let live = st.read_data(tid, Self::LIVE) as usize;
                if latch::sole_survivor(live) {
                    st.unlock(tid, Self::MX);
                    st.set_reg(tid, 0, OK); // cancelled: peers all gone
                    st.done(tid);
                } else if st.timed_out(tid) {
                    st.unlock(tid, Self::MX);
                    st.set_reg(tid, 0, TIMED_OUT); // deadline expired
                    st.done(tid);
                } else {
                    st.goto(tid, 0);
                    st.cv_wait(tid, Self::CV, Self::MX, true);
                }
            }
        } else {
            // depart(): the real primitive's exact critical section.
            if st.lock(tid, Self::MX) {
                let mut live = st.read_data(tid, Self::LIVE) as usize;
                latch::depart(&mut live);
                st.write_data(tid, Self::LIVE, live as i64);
                st.notify_all(tid, Self::CV);
                st.unlock(tid, Self::MX);
                st.done(tid);
            }
        }
    }

    fn check_final(&self, st: &ModelState) -> Option<String> {
        let live = st.data[Self::LIVE.0].value;
        if outcome(st, 0) == OK && live > 1 {
            return Some(format!("latch wait cancelled with {live} handles still live"));
        }
        if st.budget.timeouts == 1 && outcome(st, 0) != OK {
            return Some("latch wait missed the departures without any deadline expiry".into());
        }
        None
    }
}

// ---------------------------------------------------------------------
// 2. Socket handshake with residue bytes
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
// 3. Progress thread with join-on-drop PendingOps
// ---------------------------------------------------------------------

/// The non-blocking engine's progress thread: submitters enqueue jobs
/// on an unbounded queue and wait (timed) on a completion flag the
/// progress thread publishes under a mutex/condvar. The last submitter
/// to finish closes the queue — dropping the final sender — and the
/// progress thread drains what is left and exits: join-on-drop
/// quiescence. With `mutant_no_close` the close never happens, the
/// model's join hangs, and the checker must report the deadlock.
pub struct ProgressModel {
    pub submitters: usize,
    /// Seeded bug: nobody closes the queue on drop.
    pub mutant_no_close: bool,
}

impl ProgressModel {
    const MX: MutexId = MutexId(0);
    const CV: CondvarId = CondvarId(0);
    const JOBS: ChannelId = ChannelId(0);
    /// Ghost: live sender handles.
    const SENDERS: usize = 0;
    /// Ghost: jobs executed by the progress thread.
    const EXECUTED: usize = 1;

    fn done_cell(i: usize) -> DataId {
        DataId(i)
    }
}

impl Program for ProgressModel {
    fn init(&self) -> ModelState {
        let mut st = ModelState::new(self.submitters + 1);
        st.add_mutex();
        st.add_condvar();
        st.add_channel();
        for _ in 0..self.submitters {
            st.add_data(0);
        }
        st.add_ghost(self.submitters as i64); // live senders
        st.add_ghost(0); // executed jobs
        st.budget = FaultBudget { crashes: 0, timeouts: 1 };
        for tid in 1..=self.submitters {
            st.set_reg(tid, 0, PENDING);
        }
        st
    }

    fn step(&self, st: &mut ModelState, tid: Tid, _choice: usize) {
        if tid == 0 {
            // Progress thread: drain jobs until the queue closes.
            match st.pc(tid) {
                0 => {
                    st.goto(tid, 1);
                    st.recv_into(tid, Self::JOBS, 1, false);
                }
                1 => {
                    if st.was_closed(tid) {
                        st.done(tid); // quiescent exit
                        return;
                    }
                    if st.lock(tid, Self::MX) {
                        let job = st.reg(tid, 1) as usize;
                        st.write_data(tid, Self::done_cell(job), 1);
                        st.ghost_add(Self::EXECUTED, 1);
                        st.notify_all(tid, Self::CV);
                        st.unlock(tid, Self::MX);
                        st.goto(tid, 0);
                    }
                }
                pc => panic!("progress model: bad pc {pc}"),
            }
        } else {
            let job = tid - 1;
            match st.pc(tid) {
                // Submit.
                0 => {
                    st.send(tid, Self::JOBS, job as i64);
                    st.goto(tid, 1);
                }
                // PendingOp::wait — timed, predicate re-checked.
                1 => {
                    if st.lock(tid, Self::MX) {
                        if st.read_data(tid, Self::done_cell(job)) == 1 {
                            st.unlock(tid, Self::MX);
                            st.set_reg(tid, 0, OK);
                            st.goto(tid, 2);
                        } else if st.timed_out(tid) {
                            st.unlock(tid, Self::MX);
                            st.set_reg(tid, 0, TIMED_OUT); // ProgressStalled
                            st.goto(tid, 2);
                        } else {
                            st.goto(tid, 1);
                            st.cv_wait(tid, Self::CV, Self::MX, true);
                        }
                    }
                }
                // Drop the handle; the last one closes the queue.
                2 => {
                    let left = st.ghost_add(Self::SENDERS, -1);
                    if left == 0 && !self.mutant_no_close {
                        st.close(tid, Self::JOBS);
                    }
                    st.done(tid);
                }
                pc => panic!("progress model: bad pc {pc}"),
            }
        }
    }

    fn check(&self, st: &ModelState) -> Option<String> {
        let executed = st.ghost[Self::EXECUTED];
        (executed > self.submitters as i64)
            .then(|| format!("progress thread executed {executed} jobs, submitted at most {}",
                self.submitters))
    }

    fn check_final(&self, st: &ModelState) -> Option<String> {
        // Quiescence: the progress thread drained everything before
        // exiting, even when a submitter's wait timed out (its job still
        // runs; only the waiting was abandoned).
        let executed = st.ghost[Self::EXECUTED];
        if executed != self.submitters as i64 {
            return Some(format!(
                "progress thread exited with {executed}/{} jobs executed",
                self.submitters
            ));
        }
        if st.budget.timeouts == 1 {
            for tid in 1..=self.submitters {
                if outcome(st, tid) != OK {
                    return Some(format!("submitter {tid} stalled without any timeout"));
                }
            }
        }
        None
    }
}
