//! Pluggable rank-to-rank transport: the [`Transport`] trait and the
//! in-process pipe backend.
//!
//! The [`Fabric`](crate::world::Fabric) owns everything that makes the
//! communicator *correct* — per-pair sequence numbers, the checksum
//! verdict, fault injection, traffic accounting, spans — and delegates
//! the byte movement to a boxed `Transport`. A transport moves a slice
//! into a slice: it sends from the caller's `&[f32]` and receives into the
//! caller's `&mut [f32]`, and it folds the payload CRC into the pass that
//! moves the bytes, so the fabric never makes a second pass to checksum.
//! Two backends implement it:
//!
//! * [`ChannelTransport`] (here): ranks are threads in one process and
//!   each ordered rank pair is a [`Pipe`]. The sender copies its slice
//!   into a message buffer the pipe recycles, checksumming each block as
//!   it copies; the receiver copies the buffer into its destination,
//!   checksumming again, and hands the emptied buffer back. A warm pipe
//!   moves bytes without allocating. The fast path for tests and the
//!   default for `launch`/`World`.
//! * [`SocketTransport`](crate::process::SocketTransport): ranks are
//!   separate OS processes and a hop is a CRC-framed write on a Unix
//!   domain socket — the backend that makes `kill -9` a real experiment
//!   rather than a simulation. Each peer's reader thread queues the
//!   frames it decodes on a [`Pipe`], so a receive is the one above.
//!
//! Both backends carry the sender's checksum beside the payload and
//! surface failures as the same typed [`CommError`]s, so the ring
//! collectives, the fault matrix, and the volume accounting built above
//! the fabric are backend-agnostic.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::crc::crc32_f32s_through;
use crate::error::CommError;
use crate::protocol::latch;

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

/// One rank's view of the byte-moving layer under the fabric.
///
/// Implementations move payloads between ranks and checksum them on the
/// way; they do not interpret payloads, count traffic, or decide faults —
/// that is the fabric's job. Every blocking entry point is
/// deadline-bounded and returns typed [`CommError`]s; none may panic on
/// peer failure.
pub trait Transport: Send {
    /// Delivers `data` to `dst` as the pair's message `seq`, with the CRC
    /// of `data` computed in the same pass, then `flip` applied to the
    /// bytes in flight.
    fn send_msg(&mut self, dst: usize, seq: u64, data: &[f32], flip: Option<Flip>) -> Result<(), CommError>;

    /// Writes the next message from `src` into `out`, waiting at most
    /// `timeout`, the first `poll` of it by polling rather than parking. A
    /// peer that is provably gone surfaces as [`CommError::PeerLost`]; one
    /// that is merely silent surfaces as [`CommError::Timeout`] after the
    /// full wait. A message of another length than `out` is reported,
    /// not written: the fabric decides what the mismatch means.
    fn recv_msg(&mut self, src: usize, out: &mut [f32], timeout: Duration, poll: Duration) -> Result<Delivery, CommError>;

    /// Parks the calling thread until `deadline`, returning early — with
    /// `true` — once the transport can prove no peer is still waiting on
    /// this rank (their endpoints are gone). Used by the `Hang` fault: the
    /// stall must outlive every peer's receive timeout, but holding the
    /// thread hostage after the last peer has shut down buys nothing, so
    /// the world's shutdown path can cancel it.
    fn wait_shutdown(&mut self, deadline: Instant) -> bool;
}

/// Recovers a mutex guard even if a holder panicked: the latch state
/// below is a plain counter whose invariant is restored by the waiters
/// themselves, so poisoning carries no information here.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Counts live communicator handles in one in-process world, so a hung
/// rank's deadline wait can be cancelled once everyone else has shut
/// down (dropped their [`Communicator`](crate::Communicator)s) and no
/// peer can possibly still be blocked on the hung rank.
///
/// Public (not `pub(crate)`) so `zero-verify`'s conformance tests can
/// drive the real latch through the critical schedules its model
/// checker enumerates.
pub struct ShutdownLatch {
    live: Mutex<usize>,
    cv: Condvar,
}

impl ShutdownLatch {
    pub fn new(n: usize) -> Arc<ShutdownLatch> {
        Arc::new(ShutdownLatch { live: Mutex::new(n), cv: Condvar::new() })
    }

    /// Records one communicator handle going away.
    pub fn depart(&self) {
        let mut live = lock_unpoisoned(&self.live);
        latch::depart(&mut live);
        self.cv.notify_all();
    }

    /// Waits until at most one handle (the caller's own rank) remains or
    /// `deadline` passes; `true` means the wait was cancelled early.
    pub fn wait_sole_survivor(&self, deadline: Instant) -> bool {
        let mut live = lock_unpoisoned(&self.live);
        while !latch::sole_survivor(*live) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timed_out) = match self.cv.wait_timeout(live, deadline - now) {
                Ok(x) => x,
                Err(poisoned) => poisoned.into_inner(),
            };
            live = guard;
        }
        true
    }
}

/// One ordered rank pair's FIFO of messages — sequence number, the
/// sender's CRC, the payload — plus the buffers the receiver has emptied,
/// which the sender refills: a warm pipe moves bytes without allocating.
/// Either end closing it (dropping its transport) reads as a dropped
/// channel endpoint would: `PeerLost`, once what was sent is drained. The
/// in-process backend sends on it from the peer's thread, the process
/// backend from the reader thread of the peer's socket.
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

    /// Copies the next message into `out`, checksumming it on the way, if
    /// it fits exactly; waits at most `timeout` for it, the first `poll` of
    /// that by polling. `rank` observes the pipe from `src`.
    pub(crate) fn recv(&self, rank: usize, src: usize, out: &mut [f32], timeout: Duration, poll: Duration) -> Result<Delivery, CommError> {
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

/// The in-process backend: a [`Pipe`] per ordered rank pair and the
/// world's [`ShutdownLatch`] for cancellable hang waits.
pub(crate) struct ChannelTransport {
    rank: usize,
    /// `to_peer[dst]` carries this rank's messages to `dst`.
    to_peer: Vec<Arc<Pipe>>,
    /// `from_peer[src]` carries `src`'s messages to this rank.
    from_peer: Vec<Arc<Pipe>>,
    latch: Arc<ShutdownLatch>,
}

impl ChannelTransport {
    pub(crate) fn new(
        rank: usize,
        to_peer: Vec<Arc<Pipe>>,
        from_peer: Vec<Arc<Pipe>>,
        latch: Arc<ShutdownLatch>,
    ) -> ChannelTransport {
        ChannelTransport { rank, to_peer, from_peer, latch }
    }
}

impl Drop for ChannelTransport {
    /// Closes every pipe this rank is an end of: peers blocked on it wake
    /// and observe `PeerLost` (after draining what was already sent).
    fn drop(&mut self) {
        self.to_peer.iter().chain(&self.from_peer).for_each(|pipe| pipe.close());
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

    fn recv_msg(&mut self, src: usize, out: &mut [f32], timeout: Duration, poll: Duration) -> Result<Delivery, CommError> {
        self.from_peer[src].recv(self.rank, src, out, timeout, poll)
    }

    fn wait_shutdown(&mut self, deadline: Instant) -> bool {
        self.latch.wait_sole_survivor(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_cancels_when_peers_depart() {
        let latch = ShutdownLatch::new(3);
        let l2 = latch.clone();
        let t = std::thread::spawn(move || {
            l2.wait_sole_survivor(Instant::now() + Duration::from_secs(30))
        });
        std::thread::sleep(Duration::from_millis(20));
        latch.depart();
        latch.depart();
        // Far before the 30 s deadline.
        assert!(t.join().unwrap(), "wait must cancel once only one handle is left");
    }

    #[test]
    fn latch_times_out_while_peers_live() {
        let latch = ShutdownLatch::new(2);
        let t0 = Instant::now();
        assert!(!latch.wait_sole_survivor(t0 + Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn latch_zero_duration_deadline_returns_immediately() {
        // An already-expired deadline must not block at all: false while
        // peers are live, true the instant the latch is already drained.
        let latch = ShutdownLatch::new(3);
        let t0 = Instant::now();
        assert!(!latch.wait_sole_survivor(t0), "peers live: expired wait must fail fast");
        assert!(t0.elapsed() < Duration::from_millis(100));
        latch.depart();
        latch.depart();
        let t1 = Instant::now();
        assert!(latch.wait_sole_survivor(t1), "sole survivor: even an expired wait succeeds");
        assert!(t1.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn latch_shutdown_racing_the_deadline_never_hangs() {
        // Departures land exactly around deadline expiry; either verdict
        // is legal, but the waiter must return promptly and a cancelled
        // wait must really mean the peers were gone.
        for spin in 0..20 {
            let latch = ShutdownLatch::new(2);
            let l2 = latch.clone();
            let deadline = Instant::now() + Duration::from_millis(5);
            let waiter = std::thread::spawn(move || l2.wait_sole_survivor(deadline));
            if spin % 2 == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            latch.depart();
            let cancelled = waiter.join().unwrap();
            if cancelled {
                assert!(
                    latch::sole_survivor(*lock_unpoisoned(&latch.live)),
                    "cancelled wait with peers still live"
                );
            }
        }
    }

    #[test]
    fn latch_double_shutdown_is_idempotent() {
        // More departs than the latch was built for must saturate at
        // zero, not underflow into a live count that strands the waiter.
        let latch = ShutdownLatch::new(2);
        latch.depart();
        latch.depart();
        latch.depart(); // double shutdown of the last handle
        assert!(latch.wait_sole_survivor(Instant::now() + Duration::from_secs(5)));
        assert_eq!(*lock_unpoisoned(&latch.live), 0);
    }
}
