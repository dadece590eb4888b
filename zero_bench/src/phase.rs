//! Measured phases, and how the rank threads of a world agree on when
//! one ends.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// When a phase ends. A unit is one `train_step` or one serving round.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    Units(usize),
    /// Whole units until this much wall time has passed.
    Seconds(f64),
}

/// A run of consecutive units measured together, with the program's
/// tracing on or off.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub stop: Stop,
    pub traced: bool,
}

/// Keeps ranks in lockstep: rank 0 decides when a phase is over, a
/// barrier after every unit carries the decision, so every rank runs the
/// same number of units. The count of finished phases only grows, so a
/// rank can never read a later unit's decision as its own.
pub struct Gate {
    barrier: Barrier,
    phases_done: AtomicUsize,
}

impl Gate {
    pub fn new(ranks: usize) -> Gate {
        Gate {
            barrier: Barrier::new(ranks),
            phases_done: AtomicUsize::new(0),
        }
    }

    /// Waits until every rank is here.
    pub fn sync(&self) {
        self.barrier.wait();
    }

    /// Called by every rank after each unit of phase `phase`, which began
    /// at `began` and has run `units` units; true once the phase is over.
    pub fn unit_done(
        &self,
        rank: usize,
        phase: usize,
        stop: Stop,
        began: Instant,
        units: usize,
    ) -> bool {
        if rank == 0 {
            let over = match stop {
                Stop::Units(n) => units >= n,
                Stop::Seconds(s) => began.elapsed().as_secs_f64() >= s,
            };
            if over {
                self.phases_done.store(phase + 1, Ordering::SeqCst);
            }
        }
        self.barrier.wait();
        self.phases_done.load(Ordering::SeqCst) > phase
    }
}
