//! Pure decision kernels of the hand-rolled concurrency protocols.
//!
//! The transport layer coordinates ranks with small protocols — the
//! [`ShutdownLatch`](crate::transport) counts live handles so a hung
//! rank's deadline wait can cancel. Each is a *pure state machine*
//! wrapped in synchronization: every decision ("release the waiter?") is
//! a function of plain counters, not of the mutex carrying them.
//!
//! This module holds exactly those state machines, with no
//! synchronization of any kind, so two independent consumers can share
//! them verbatim:
//!
//! * the real primitives in [`transport`](crate::transport), which run
//!   them under `Mutex`/`Condvar`, and
//! * `zero-verify`'s `modelcheck` pass, which runs them under *modeled*
//!   mutexes and channels and exhaustively explores every interleaving.
//!
//! Keeping one copy is what makes the model checker honest: it verifies
//! the decision logic that actually ships, and only the (small, shim-
//! mediated) synchronization skeleton is re-expressed in the model.

/// Latch logic: a count of live communicator handles in one world.
///
/// `depart` is saturating so a double shutdown (a handle departing
/// twice, or more departs than the latch was built for) can never
/// underflow into a huge live count that strands the waiter forever —
/// the idempotence the deadline-edge tests pin down.
pub mod latch {
    /// Records one handle going away.
    pub fn depart(live: &mut usize) {
        *live = live.saturating_sub(1);
    }

    /// True once at most the caller's own handle remains: the hung
    /// rank's deadline wait may cancel because no peer can possibly
    /// still be blocked on it.
    pub fn sole_survivor(live: usize) -> bool {
        live <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_depart_saturates() {
        let mut live = 2usize;
        latch::depart(&mut live);
        assert!(!latch::sole_survivor(2));
        assert!(latch::sole_survivor(live));
        latch::depart(&mut live);
        latch::depart(&mut live); // one more than the latch was built for
        assert_eq!(live, 0);
        assert!(latch::sole_survivor(live));
    }
}
