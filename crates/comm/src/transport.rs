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
    /// carried, so a pipe stops allocating once it has warmed up.
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
        let mut st = lock_unpoisoned(&self.state);
        while !st.closed {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            st = match self.ready.wait_timeout(st, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        true
    }

    /// Copies the next message into `out`, checksumming it on the way, if
    /// it fits exactly; waits at most `timeout` for it, the first `poll` of
    /// that by polling. `rank` observes the pipe from `src`. A message of
    /// another length than `out` is reported, not written: the fabric
    /// decides what the mismatch means.
    pub(crate) fn recv_into(&self, rank: usize, src: usize, out: &mut [f32], timeout: Duration, poll: Duration) -> Result<Delivery, CommError> {
        let (start, mut st) = (Instant::now(), lock_unpoisoned(&self.state));
        let (seq, declared_crc, mut buf) = loop {
            if let Some(msg) = st.queue.pop_front() {
                break msg;
            }
            if st.closed {
                return Err(CommError::PeerLost { rank, peer: src });
            }
            let waited = start.elapsed();
            if waited >= timeout {
                return Err(CommError::Timeout { rank, peer: src, waited: timeout });
            }
            if waited < poll {
                drop(st);
                std::thread::yield_now();
                st = lock_unpoisoned(&self.state);
                continue;
            }
            st = match self.ready.wait_timeout(st, timeout - waited) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        };
        drop(st);
        let (mut at, len) = (0, buf.len());
        let actual_crc = match len == out.len() {
            true => crc32_f32s_through(&buf, |block| {
                out[at..at + block.len()].copy_from_slice(block);
                at += block.len();
            }),
            false => 0,
        };
        buf.clear();
        lock_unpoisoned(&self.state).spare.push(buf);
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
}
