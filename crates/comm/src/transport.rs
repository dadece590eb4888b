//! Pluggable rank-to-rank transport: the [`Transport`] trait and the
//! in-process channel backend.
//!
//! The [`Fabric`](crate::world::Fabric) owns everything that makes the
//! communicator *correct* — per-pair sequence numbers, payload CRCs, fault
//! injection, traffic accounting, spans — and delegates the actual byte
//! movement to a boxed `Transport`. Two backends implement it:
//!
//! * [`ChannelTransport`] (here): ranks are threads in one process and a
//!   message hop is an `mpsc` send. The fast path for tests and the
//!   default for `launch`/`World`.
//! * [`SocketTransport`](crate::process::SocketTransport): ranks are
//!   separate OS processes and a hop is a CRC-framed write on a Unix
//!   domain socket — the backend that makes `kill -9` a real experiment
//!   rather than a simulation.
//!
//! Both backends speak in whole [`Msg`]s and surface failures as the same
//! typed [`CommError`]s, so the ring collectives, the fault matrix, and
//! the volume accounting built above the fabric are backend-agnostic.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::protocol::latch;

/// A message between two ranks: an opaque f32 payload, a per-channel
/// sequence number used to detect mismatched collective schedules, and a
/// payload checksum used to detect in-flight corruption.
///
/// The checksum is computed by the *sender's* fabric before any injected
/// corruption is applied and verified by the *receiver's* fabric, so it
/// must travel with the payload on every backend (in-process it rides the
/// struct; on the socket backend it is a field of the `Data` frame).
pub struct Msg {
    /// Position in the sender→receiver FIFO (per ordered pair).
    pub seq: u64,
    /// CRC-32 of `data` as the sender intended it.
    pub crc: u32,
    /// The payload.
    pub data: Vec<f32>,
}

/// One rank's view of the byte-moving layer under the fabric.
///
/// Implementations move whole [`Msg`]s between ranks; they do not
/// interpret payloads, count traffic, or inject faults — that is the
/// fabric's job. Every blocking entry point is deadline-bounded and
/// returns typed [`CommError`]s; none may panic on peer failure.
pub trait Transport: Send {
    /// Delivers `msg` to `dst`'s incoming queue for this rank.
    fn send_msg(&mut self, dst: usize, msg: Msg) -> Result<(), CommError>;

    /// Next message from `src`, waiting at most `timeout`. A peer that is
    /// provably gone surfaces as [`CommError::PeerLost`]; one that is
    /// merely silent surfaces as [`CommError::Timeout`] after the full
    /// wait.
    fn recv_msg(&mut self, src: usize, timeout: Duration) -> Result<Msg, CommError>;

    /// Parks the calling (progress) thread until `deadline`, returning
    /// early — with `true` — once the transport can prove no peer is
    /// still waiting on this rank (their endpoints are gone). Used by the
    /// `Hang` fault: the stall must outlive every peer's receive timeout,
    /// but holding the thread hostage after the last peer has shut down
    /// buys nothing, so the world's shutdown path can cancel it.
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

/// The in-process backend: one `mpsc` FIFO per ordered rank pair and the
/// world's [`ShutdownLatch`] for cancellable hang waits. This is exactly
/// the fabric the crate has always had, now behind the trait.
pub(crate) struct ChannelTransport {
    rank: usize,
    to_peer: Vec<Sender<Msg>>,
    from_peer: Vec<Receiver<Msg>>,
    latch: Arc<ShutdownLatch>,
}

impl ChannelTransport {
    pub(crate) fn new(
        rank: usize,
        to_peer: Vec<Sender<Msg>>,
        from_peer: Vec<Receiver<Msg>>,
        latch: Arc<ShutdownLatch>,
    ) -> ChannelTransport {
        ChannelTransport { rank, to_peer, from_peer, latch }
    }
}

impl Transport for ChannelTransport {
    fn send_msg(&mut self, dst: usize, msg: Msg) -> Result<(), CommError> {
        self.to_peer[dst]
            .send(msg)
            .map_err(|_| CommError::PeerLost { rank: self.rank, peer: dst })
    }

    fn recv_msg(&mut self, src: usize, timeout: Duration) -> Result<Msg, CommError> {
        match self.from_peer[src].recv_timeout(timeout) {
            Ok(msg) => Ok(msg),
            Err(RecvTimeoutError::Timeout) => {
                Err(CommError::Timeout { rank: self.rank, peer: src, waited: timeout })
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(CommError::PeerLost { rank: self.rank, peer: src })
            }
        }
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
