//! Pure decision kernels of the hand-rolled concurrency protocols.
//!
//! The transport layer coordinates ranks with small protocols — the
//! [`ShutdownLatch`](crate::transport) counts live handles so a hung
//! rank's deadline wait can cancel, and each rank's op desk
//! (`crate::nonblocking`) hands its fabric between the progress thread
//! and a caller that runs its own op. Each is a *pure state machine*
//! wrapped in synchronization: every decision ("release the waiter?",
//! "who runs the next op?") is a function of plain counters, not of the
//! mutex carrying them.
//!
//! This module holds exactly those state machines, with no
//! synchronization of any kind, so two independent consumers can share
//! them verbatim:
//!
//! * the real primitives in [`transport`](crate::transport) and
//!   `nonblocking`, which run them under `Mutex`/`Condvar`, and
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

/// Hand-off logic: who holds a rank's fabric next. The fabric runs the
/// ops a rank issued strictly in issue order, by whichever thread holds
/// it — the rank's progress thread, or a caller that finds the fabric free
/// while the op it waits on is still queued (help-first wait).
pub mod handoff {
    /// A waiter whose own op is still queued takes the free fabric and
    /// runs the queue up to its op itself: an op waited on before anyone
    /// started it costs no thread hand-off.
    pub fn helper_takes(fabric_free: bool, own_queued: bool) -> bool {
        fabric_free && own_queued
    }

    /// On its way to its own op `own`, the helper runs the queue's head
    /// op `head` iff it was issued no later: the queue's order is the
    /// fabric's order, and the helper stops at its own op.
    pub fn helper_runs(head: u64, own: u64) -> bool {
        head <= own
    }

    /// The progress thread takes the free fabric whenever an op is
    /// queued. Finishing one op, it goes straight on to the next: handing
    /// the fabric to a waiting caller instead would leave it idle for a
    /// thread wake, on this rank and on every peer the next op pairs with.
    pub fn progress_takes(fabric_free: bool, queued: usize) -> bool {
        fabric_free && queued > 0
    }

    /// A helper handing the fabric back wakes the desk's sleepers while
    /// ops are left queued (the progress thread runs them, so ops issued
    /// ahead keep overlapping compute), when it ran ops others issued
    /// (another thread may wait on one), or once the desk has closed (the
    /// progress thread drops the fabric).
    pub fn wake_on_release(queued: usize, ran_others: bool, closed: bool) -> bool {
        queued > 0 || ran_others || closed
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

    #[test]
    fn handoff_runs_the_queue_in_order_and_leaves_the_rest_to_the_progress_thread() {
        assert!(handoff::helper_takes(true, true));
        assert!(!handoff::helper_takes(false, true) && !handoff::helper_takes(true, false));
        assert!(handoff::helper_runs(3, 3) && handoff::helper_runs(2, 3) && !handoff::helper_runs(4, 3));
        assert!(handoff::progress_takes(true, 1));
        assert!(!handoff::progress_takes(false, 1) && !handoff::progress_takes(true, 0));
        assert!(handoff::wake_on_release(1, false, false) && handoff::wake_on_release(0, true, false));
        assert!(handoff::wake_on_release(0, false, true) && !handoff::wake_on_release(0, false, false));
    }
}
