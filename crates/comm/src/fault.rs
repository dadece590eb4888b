//! Deterministic fault injection for the channel fabric.
//!
//! A [`FaultPlan`] scripts failures against specific ranks at specific
//! points in their communication schedule: crash outright, hang until peers
//! time out, corrupt a payload bit, or delay an op. Because ranks run an
//! SPMD schedule, "the Nth communication op on rank R" is a precise,
//! reproducible coordinate — the same plan plus the same seed always fails
//! the same message, which is what makes recovery testable (a recovered run
//! can be compared bitwise against an unfailed control run).

use std::time::Duration;

use crate::stats::{CollectiveKind, KIND_COUNT};

/// What to do to the victim rank when a trigger fires.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The rank dies instantly: its op returns [`crate::CommError::InjectedCrash`]
    /// and its endpoints drop, so blocked peers observe `PeerLost`.
    Crash,
    /// The rank stalls long enough for every peer's receive timeout to
    /// expire (so peers observe `Timeout`), then reports itself dead with
    /// [`crate::CommError::InjectedHang`].
    Hang,
    /// The next payload this rank sends has one bit flipped *after* its
    /// checksum is computed; the receiver observes `Corrupt`. The sender
    /// proceeds normally — silent data corruption is silent at the source.
    CorruptNextSend,
    /// The op is delayed by the given duration, then proceeds normally
    /// (models stragglers / transient network congestion).
    Delay(Duration),
}

/// When a fault fires, in the victim rank's own op stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// The `n`-th communication op of any kind (0-based).
    AtOp(u64),
    /// The `n`-th op of one specific kind (0-based) — e.g. "the second
    /// reduce-scatter", to place a crash inside a particular phase of the
    /// training step.
    AtKindOp(CollectiveKind, u64),
}

/// One scripted fault: which rank, when, what.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// The victim rank.
    pub rank: usize,
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic script of faults for one world.
///
/// The `seed` feeds the corruption bit chooser (and any future randomized
/// placement), so two runs of the same plan damage the same bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan with a seed for deterministic corruption placement.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { seed, specs: Vec::new() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scripted faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// True if no faults are scripted.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Adds an arbitrary fault spec.
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// Crashes `rank` at its `nth` communication op.
    pub fn with_crash(self, rank: usize, nth: u64) -> FaultPlan {
        self.with(FaultSpec { rank, trigger: FaultTrigger::AtOp(nth), kind: FaultKind::Crash })
    }

    /// Crashes `rank` at its `nth` op of `kind` (e.g. mid-reduce-scatter).
    pub fn with_crash_at_kind(self, rank: usize, kind: CollectiveKind, nth: u64) -> FaultPlan {
        self.with(FaultSpec {
            rank,
            trigger: FaultTrigger::AtKindOp(kind, nth),
            kind: FaultKind::Crash,
        })
    }

    /// Hangs `rank` at its `nth` communication op.
    pub fn with_hang(self, rank: usize, nth: u64) -> FaultPlan {
        self.with(FaultSpec { rank, trigger: FaultTrigger::AtOp(nth), kind: FaultKind::Hang })
    }

    /// Flips one bit in the payload `rank` sends at its `nth` op.
    pub fn with_corruption(self, rank: usize, nth: u64) -> FaultPlan {
        self.with(FaultSpec {
            rank,
            trigger: FaultTrigger::AtOp(nth),
            kind: FaultKind::CorruptNextSend,
        })
    }

    /// Delays `rank`'s `nth` op by `delay`.
    pub fn with_delay(self, rank: usize, nth: u64, delay: Duration) -> FaultPlan {
        self.with(FaultSpec {
            rank,
            trigger: FaultTrigger::AtOp(nth),
            kind: FaultKind::Delay(delay),
        })
    }

    /// Builds the per-rank runtime state that the communicator consults.
    pub(crate) fn for_rank(&self, rank: usize) -> FaultState {
        FaultState {
            specs: self
                .specs
                .iter()
                .filter(|s| s.rank == rank)
                .map(|s| (s.trigger, s.kind.clone(), false))
                .collect(),
            op_count: 0,
            kind_counts: [0; KIND_COUNT],
            // splitmix64 of (seed, rank): distinct deterministic stream per rank.
            rng: splitmix64(self.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            corrupt_pending: false,
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One rank's live fault-injection state, owned by its `Communicator`.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// (trigger, kind, fired) for every spec targeting this rank.
    specs: Vec<(FaultTrigger, FaultKind, bool)>,
    op_count: u64,
    kind_counts: [u64; KIND_COUNT],
    rng: u64,
    corrupt_pending: bool,
}

impl FaultState {
    /// Registers the start of one communication op of `kind` and returns
    /// the fault to apply, if any trigger matches. Ops are counted whether
    /// or not a fault fires, so triggers stay aligned with the schedule.
    /// Returns the op index alongside the fault for error reporting.
    pub(crate) fn begin_op(&mut self, kind: CollectiveKind) -> (u64, Option<FaultKind>) {
        let op = self.op_count;
        let kind_op = self.kind_counts[kind as usize];
        self.op_count += 1;
        self.kind_counts[kind as usize] += 1;

        let mut hit = None;
        for (trigger, fault, fired) in self.specs.iter_mut() {
            if *fired {
                continue;
            }
            let matches = match *trigger {
                FaultTrigger::AtOp(n) => n == op,
                FaultTrigger::AtKindOp(k, n) => k == kind && n == kind_op,
            };
            if matches {
                *fired = true;
                hit = Some(fault.clone());
                break;
            }
        }
        (op, hit)
    }

    /// Arms one-shot corruption of the next outgoing payload.
    pub(crate) fn arm_corruption(&mut self) {
        self.corrupt_pending = true;
    }

    /// If corruption is armed, picks a deterministic (element, bit) position
    /// for a payload of `len` elements and disarms. `None` otherwise.
    pub(crate) fn take_corruption(&mut self, len: usize) -> Option<(usize, u32)> {
        if !self.corrupt_pending || len == 0 {
            return None;
        }
        self.corrupt_pending = false;
        let r = self.rng;
        self.rng = splitmix64(self.rng);
        Some(((r as usize) % len, (r >> 32) as u32 % 32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_fire_once_at_the_right_op() {
        let plan = FaultPlan::new()
            .with_crash(1, 2)
            .with_crash_at_kind(1, CollectiveKind::AllGather, 0);
        let mut state = plan.for_rank(1);

        // Op 0 (AllReduce): no trigger.
        assert_eq!(state.begin_op(CollectiveKind::AllReduce), (0, None));
        // Op 1 (AllGather): kind trigger fires.
        let (op, hit) = state.begin_op(CollectiveKind::AllGather);
        assert_eq!((op, hit), (1, Some(FaultKind::Crash)));
        // Op 2: AtOp(2) fires.
        let (op, hit) = state.begin_op(CollectiveKind::ReduceScatter);
        assert_eq!((op, hit), (2, Some(FaultKind::Crash)));
        // Later AllGathers do not re-fire the kind trigger.
        assert_eq!(state.begin_op(CollectiveKind::AllGather).1, None);
    }

    #[test]
    fn other_ranks_see_no_faults() {
        let plan = FaultPlan::new().with_crash(1, 0);
        let mut state = plan.for_rank(0);
        for _ in 0..10 {
            assert_eq!(state.begin_op(CollectiveKind::AllReduce).1, None);
        }
    }

    #[test]
    fn corruption_position_is_deterministic() {
        let plan = FaultPlan::seeded(7).with_corruption(0, 0);
        let mut a = plan.for_rank(0);
        let mut b = plan.for_rank(0);
        a.arm_corruption();
        b.arm_corruption();
        let pa = a.take_corruption(100).unwrap();
        let pb = b.take_corruption(100).unwrap();
        assert_eq!(pa, pb);
        assert!(pa.0 < 100 && pa.1 < 32);
        // Disarmed after one use.
        assert_eq!(a.take_corruption(100), None);
    }
}
