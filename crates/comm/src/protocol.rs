//! Pure decision kernels of the hand-rolled concurrency protocols.
//!
//! Each rank's op desk (`crate::nonblocking`) hands its fabric between
//! the progress thread and a caller that runs its own op, and orders its
//! collectives against the rank's host-link lane. The protocol is
//! a *pure state machine* wrapped in synchronization: every decision
//! ("who runs the next op?", "wake the sleepers?") is a function of plain
//! counters, not of the mutex carrying them.
//!
//! This module holds exactly that state machine, with no synchronization
//! of any kind, so two independent consumers can share it verbatim:
//!
//! * the real desk in `nonblocking`, which runs it under
//!   `Mutex`/`Condvar`, and
//! * `zero-verify`'s `modelcheck` pass, which runs it under *modeled*
//!   mutexes and condvars and exhaustively explores every interleaving.
//!
//! Keeping one copy is what makes the model checker honest: it verifies
//! the decision logic that actually ships, and only the (small, shim-
//! mediated) synchronization skeleton is re-expressed in the model.

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
    /// (another thread may wait on one), while the host-link lane watches
    /// the desk's finished count (a spill waits on an op the helper may
    /// have run), or once the desk has closed (the progress thread drops
    /// the fabric).
    pub fn wake_on_release(queued: usize, ran_others: bool, watched: bool, closed: bool) -> bool {
        queued > 0 || ran_others || watched || closed
    }
}

/// The order between a rank's op desk and its host-link lane. Each queue
/// finishes its ops in id order and counts them, so every wait from one
/// queue on the other is "until the other has finished everything through
/// op `id`": a gather waits on the fetch that seeds it, a spill on the
/// reduce-scatter it drains. Each such wait names an op issued before the
/// waiter, so the two queues never wait on each other in a cycle.
pub mod lane {
    /// A queue that has finished `finished` ops has finished op `id`.
    pub fn through(finished: u64, id: u64) -> bool {
        finished > id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_runs_the_queue_in_order_and_leaves_the_rest_to_the_progress_thread() {
        assert!(handoff::helper_takes(true, true));
        assert!(!handoff::helper_takes(false, true) && !handoff::helper_takes(true, false));
        assert!(handoff::helper_runs(3, 3) && handoff::helper_runs(2, 3) && !handoff::helper_runs(4, 3));
        assert!(handoff::progress_takes(true, 1));
        assert!(!handoff::progress_takes(false, 1) && !handoff::progress_takes(true, 0));
        assert!(handoff::wake_on_release(1, false, false, false) && handoff::wake_on_release(0, true, false, false));
        assert!(handoff::wake_on_release(0, false, true, false) && handoff::wake_on_release(0, false, false, true));
        assert!(!handoff::wake_on_release(0, false, false, false));
    }

    #[test]
    fn a_queue_has_finished_an_op_once_its_count_passes_the_ops_id() {
        assert!(lane::through(1, 0) && lane::through(5, 3));
        assert!(!lane::through(0, 0) && !lane::through(3, 3));
    }
}
