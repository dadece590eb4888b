//! Pluggable rank-to-rank transport: the [`Transport`] trait, the
//! `Pipe` every receive reads, and the in-process backend.
//!
//! The `Fabric` owns everything that makes the
//! communicator *correct* — per-pair sequence numbers, the checksum
//! verdict, fault injection, traffic accounting, spans — and its receive
//! side: one inbound `Pipe` per peer. A `Transport` only sends: it
//! moves the caller's `&[f32]` into the peer's pipe and folds the payload
//! CRC into the pass that moves the bytes; the receiver copies the
//! message into its `&mut [f32]`, checksumming again, and hands the
//! emptied buffer back to the pipe. A warm pipe moves bytes without
//! allocating. Two backends differ only in how they send:
//!
//! * `ChannelTransport` (here): ranks are threads in one process and
//!   the sender fills the peer's pipe itself. The fast path for tests and
//!   the default for `launch`/`World`.
//! * [`SocketTransport`](crate::process::SocketTransport): ranks are
//!   separate OS processes and a hop is a CRC-framed write on a Unix
//!   domain socket — the backend that makes `kill -9` a real experiment
//!   rather than a simulation. Each peer's reader thread decodes its
//!   frames into the receiver's pipe.
//!
//! A pipe closes when either end goes: the sending transport or the
//! receiving fabric is dropped, or a socket reader loses its peer. That
//! one signal is the shutdown signal on both backends: a receive from a
//! closed, drained pipe is [`CommError::PeerLost`], and a rank hung by
//! the fault plan is released once every pipe into it has closed.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::crc::crc32_f32s_through;
use crate::error::CommError;

/// A single-bit fault the fault plan injects into one message: element
/// index and bit. The transport flips it in the bytes it moves *after*
/// checksumming them, so the damage is invisible to the sender, exactly
/// like a flip on a real wire.
pub type Flip = (usize, u32);

/// What a receive reports beside the bytes it wrote: the fabric checks
/// the sequence number against the schedule and the two checksums
/// against each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Position in the sender→receiver FIFO (per ordered pair).
    pub seq: u64,
    /// CRC-32 of the payload as the sender intended it.
    pub declared_crc: u32,
    /// CRC-32 of the payload as it arrived.
    pub actual_crc: u32,
    /// The payload's length in floats. The payload was written to the
    /// destination only if this is the destination's length.
    pub len: usize,
}

/// One rank's sending side of the byte-moving layer under the fabric.
///
/// Implementations move payloads to peers and checksum them on the way;
/// they do not interpret payloads, count traffic, or decide faults — that
/// is the fabric's job. A send is deadline-bounded and returns typed
/// [`CommError`]s; it may not panic on peer failure.
pub trait Transport: Send {
    /// Delivers `data` to `dst` as the pair's message `seq`, with the CRC
    /// of `data` computed in the same pass, then `flip` applied to the
    /// bytes in flight.
    fn send_msg(&mut self, dst: usize, seq: u64, data: &[f32], flip: Option<Flip>) -> Result<(), CommError>;
}

/// Recovers a mutex guard even if a holder panicked: the pipe and desk
/// states are plain queues and flags that stay consistent between
/// statements, so poisoning carries no information here.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The one bounded condvar wait: runs `check` on `m`'s state under the
/// lock each time the thread wakes, until it answers; yields the core
/// instead of parking for the first `poll` of the wait, and returns `None`
/// once `budget` is spent. A notify that leaves `check` unanswered parks
/// the thread again.
pub(crate) fn wait_for<T, R>(
    m: &Mutex<T>,
    cv: &Condvar,
    budget: Duration,
    poll: Duration,
    mut check: impl FnMut(&mut T) -> Option<R>,
) -> Option<R> {
    let (start, mut st) = (Instant::now(), lock_unpoisoned(m));
    loop {
        if let Some(answer) = check(&mut st) {
            return Some(answer);
        }
        let waited = start.elapsed();
        if waited >= budget {
            return None;
        }
        if waited < poll {
            drop(st);
            std::thread::yield_now();
            st = lock_unpoisoned(m);
            continue;
        }
        st = match cv.wait_timeout(st, budget - waited) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

/// One ordered rank pair's FIFO of messages — sequence number, the
/// sender's CRC, the payload — plus the buffers the receiver has emptied,
/// which the sender refills: a warm pipe moves bytes without allocating.
/// Either end closing it reads as a dropped channel endpoint would:
/// `PeerLost`, once what was sent is drained. The in-process backend
/// sends on it from the peer's thread, the process backend from the
/// reader thread of the peer's socket.
#[derive(Default)]
pub(crate) struct Pipe {
    state: Mutex<PipeState>,
    ready: Condvar,
}

#[derive(Default)]
struct PipeState {
    queue: VecDeque<(u64, u32, Vec<f32>)>,
    /// Emptied buffers, each as wide as the widest message the pipe has
    /// carried (one in flight when it widened is widened as it returns),
    /// so a pipe stops allocating once it has warmed up.
    spare: Vec<Vec<f32>>,
    widest: usize,
    closed: bool,
}

impl Pipe {
    pub(crate) fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.ready.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        lock_unpoisoned(&self.state).closed
    }

    /// Queues message `seq` of `len` floats, which `fill` writes into an
    /// emptied buffer, returning the CRC the sender declares for it.
    /// `false` if the pipe is closed.
    pub(crate) fn send(&self, seq: u64, len: usize, fill: impl FnOnce(&mut Vec<f32>) -> u32) -> bool {
        let mut buf = {
            let mut st = lock_unpoisoned(&self.state);
            if st.closed {
                return false;
            }
            if len > st.widest {
                // The first message makes two buffers: a ring step's can be
                // sent before the peer has emptied the step before's.
                if st.widest == 0 {
                    st.spare.resize(2, Vec::new());
                }
                st.widest = len;
                st.spare.iter_mut().for_each(|b| b.reserve(len));
            }
            let mut buf = st.spare.pop().unwrap_or_default();
            buf.reserve(st.widest);
            buf
        };
        let crc = fill(&mut buf);
        let mut st = lock_unpoisoned(&self.state);
        if st.closed {
            return false;
        }
        st.queue.push_back((seq, crc, buf));
        drop(st);
        self.ready.notify_one();
        true
    }

    /// Waits until the pipe is closed or `deadline` passes; `true` if it
    /// closed.
    pub(crate) fn wait_closed(&self, deadline: Instant) -> bool {
        let budget = deadline.saturating_duration_since(Instant::now());
        wait_for(&self.state, &self.ready, budget, Duration::ZERO, |st| st.closed.then_some(())).is_some()
    }

    /// Copies the next message into `out`, checksumming it on the way, if
    /// it fits exactly; waits at most `timeout` for it, the first `poll` of
    /// that by polling. `rank` observes the pipe from `src`. A message of
    /// another length than `out` is reported, not written: the fabric
    /// decides what the mismatch means.
    pub(crate) fn recv_into(&self, rank: usize, src: usize, out: &mut [f32], timeout: Duration, poll: Duration) -> Result<Delivery, CommError> {
        let next = wait_for(&self.state, &self.ready, timeout, poll, |st| match st.queue.pop_front() {
            Some(msg) => Some(Ok(msg)),
            None => st.closed.then_some(Err(CommError::PeerLost { rank, peer: src })),
        });
        let (seq, declared_crc, mut buf) = next.unwrap_or(Err(CommError::Timeout { rank, peer: src, waited: timeout }))?;
        let (mut at, len) = (0, buf.len());
        let actual_crc = match len == out.len() {
            true => crc32_f32s_through(&buf, |block| {
                out[at..at + block.len()].copy_from_slice(block);
                at += block.len();
            }),
            false => 0,
        };
        buf.clear();
        // A buffer that was out of the pool when the pipe widened comes
        // back as wide as the rest, so no warm send grows it.
        let mut st = lock_unpoisoned(&self.state);
        buf.reserve(st.widest);
        st.spare.push(buf);
        Ok(Delivery { seq, declared_crc, actual_crc, len })
    }
}

/// The in-process backend: the pipes this rank sends on.
pub(crate) struct ChannelTransport {
    rank: usize,
    /// `to_peer[dst]` carries this rank's messages to `dst`.
    to_peer: Vec<Arc<Pipe>>,
}

/// Wires `n` in-process ranks all-to-all: each rank's transport and its
/// inbound pipes, `inbox[src]` carrying `src`'s messages to it.
pub(crate) fn channel_mesh(n: usize) -> Vec<(ChannelTransport, Vec<Arc<Pipe>>)> {
    // pipes[src][dst] carries src's messages to dst.
    let pipes: Vec<Vec<Arc<Pipe>>> = (0..n).map(|_| (0..n).map(|_| Arc::default()).collect()).collect();
    let inbox = |rank: usize| pipes.iter().map(|row| row[rank].clone()).collect();
    (0..n).map(|rank| (ChannelTransport { rank, to_peer: pipes[rank].clone() }, inbox(rank))).collect()
}

impl Drop for ChannelTransport {
    /// Closes every pipe this rank sends on: peers blocked on it wake and
    /// observe `PeerLost` (after draining what was already sent).
    fn drop(&mut self) {
        self.to_peer.iter().for_each(|pipe| pipe.close());
    }
}

impl Transport for ChannelTransport {
    fn send_msg(&mut self, dst: usize, seq: u64, data: &[f32], flip: Option<Flip>) -> Result<(), CommError> {
        let sent = self.to_peer[dst].send(seq, data.len(), |buf| {
            let crc = crc32_f32s_through(data, |block| buf.extend_from_slice(block));
            if let Some((elem, bit)) = flip {
                buf[elem] = f32::from_bits(buf[elem].to_bits() ^ (1 << bit));
            }
            crc
        });
        sent.then_some(()).ok_or(CommError::PeerLost { rank: self.rank, peer: dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_closed_answers_at_once_past_its_deadline_and_once_closed() {
        let pipe = Pipe::default();
        let t0 = Instant::now();
        assert!(!pipe.wait_closed(t0), "an open pipe past its deadline is not closed");
        pipe.close();
        pipe.close(); // closing twice is closing once
        assert!(pipe.wait_closed(t0), "a closed pipe is closed, even past the deadline");
        assert!(t0.elapsed() < Duration::from_millis(100), "neither answer may wait");
    }

    /// How many times a waiter has run its check, and what was published
    /// for it.
    #[derive(Default)]
    struct Board {
        checks: u32,
        answer: Option<u32>,
    }

    fn checked(board: &mut Board) -> Option<u32> {
        board.checks += 1;
        board.answer
    }

    #[test]
    fn wait_for_gives_up_no_earlier_than_its_budget() {
        let (m, cv) = (Mutex::new(Board::default()), Condvar::new());
        for poll in [Duration::ZERO, Duration::from_millis(10), Duration::from_secs(1)] {
            let (budget, t0) = (Duration::from_millis(40), Instant::now());
            assert_eq!(wait_for(&m, &cv, budget, poll, checked), None, "poll {poll:?}");
            assert!(t0.elapsed() >= budget, "poll {poll:?}: gave up after {:?}", t0.elapsed());
        }
    }

    #[test]
    fn wait_for_returns_what_another_thread_published_and_parks_again_on_an_empty_notify() {
        let (m, cv) = (Mutex::new(Board::default()), Condvar::new());
        // Once the waiter has checked `n` times it is parked: it checks
        // and parks under the lock the publisher takes.
        let after_checks = |n: u32| {
            while lock_unpoisoned(&m).checks < n {
                std::thread::yield_now();
            }
        };
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(|| wait_for(&m, &cv, Duration::from_secs(10), Duration::ZERO, checked));
            after_checks(1);
            cv.notify_all(); // leaves the check unanswered
            after_checks(2);
            lock_unpoisoned(&m).answer = Some(7);
            cv.notify_all();
            waiter.join().expect("the waiter returns")
        });
        assert_eq!(got, Some(7));
        assert!(lock_unpoisoned(&m).checks >= 3, "the empty notify woke the waiter, which checked and parked again");
    }

    #[test]
    fn wait_for_sees_a_change_without_a_notify_while_it_polls() {
        let (m, cv) = (Mutex::new(Board::default()), Condvar::new());
        let (poll, t0) = (Duration::from_secs(5), Instant::now());
        let got = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                lock_unpoisoned(&m).answer = Some(3); // and no notify
            });
            wait_for(&m, &cv, Duration::from_secs(10), poll, checked)
        });
        assert_eq!(got, Some(3));
        assert!(t0.elapsed() < poll, "the poll saw the change after {:?}", t0.elapsed());
    }
}
