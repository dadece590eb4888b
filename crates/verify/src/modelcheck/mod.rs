//! Protocol model checking: exhaustive bounded verification of the
//! transport/overlap concurrency protocols *before they run*.
//!
//! `zero-comm` coordinates ranks with hand-rolled protocols — the socket
//! handshake, the op desk's fabric hand-off, and the order between the
//! desk and the rank's host-link lane. The desk's decision logic lives as
//! a pure kernel in [`zero_comm::protocol`]; this pass re-expresses the
//! synchronization skeleton around it against modeled primitives
//! ([`shims`]) — one model of the desk, [`DeskModel`], whose progress
//! loop, lane loop and help-first wait are each transcribed once and
//! driven by a caller's script of [`Call`]s, beside the handshake's
//! [`HandshakeModel`] — and hands the result to a deterministic bounded
//! interleaving explorer ([`explorer`]):
//!
//! * a DFS over schedule choices with **sleep-set partial-order
//!   reduction** and a **visited-state hash table**, so each
//!   equivalence class of interleavings is explored once;
//! * **fault injection under budget** — at most one crash or timeout
//!   per run, every placement explored;
//! * a **vector-clock happens-before race detector** and a
//!   **lock-order cyclic-acquisition pass** over the same event graph;
//! * violations reported as **minimal replayable schedules**.
//!
//! [`run_modelcheck`] checks every scenario of [`scenarios`] — the
//! handshake at world sizes 2 and 3, the desk alone at 2 and 3 ops, the
//! desk beside its lane on each anchor — proving: no deadlock, no lost
//! wakeup, and quiescent shutdown. The
//! CLI exposes it as `zero-verify --pass modelcheck`; `ci.sh` runs it
//! with an explicit state budget.

pub mod explorer;
pub mod protocols;
pub mod shims;

pub use explorer::{
    enumerate_final_states, explore, format_trace, ExploreResult, ExploreStats, Failure,
    Program, Sched, Violation,
};
pub use protocols::{Call, DeskModel, DeskMutant, HandshakeModel};
pub use shims::{FaultBudget, ModelState, RaceReport, Status};

/// One checked scenario: a protocol model at a world size and fault
/// regime.
pub struct Scenario {
    /// Stable name, e.g. `progress.n3` or `handshake.n2+crash`.
    pub name: &'static str,
    /// The model under check.
    pub program: Box<dyn Program>,
}

/// The scenario matrix the pass runs: the handshake and the desk alone at
/// sizes 2 and 3 (ranks for the handshake, ops issued for the desk), with
/// a one-timeout budget and additionally a one-crash budget for the
/// cross-process handshake (a thread of an in-process primitive cannot
/// vanish, a rank process can); and the desk with its host-link lane on
/// each anchor, whole and with the progress thread lost, its waits
/// modeled untimed (see [`DeskModel`]): 10 scenarios.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "handshake.n2",
            program: Box::new(HandshakeModel { peers: 1, crash: false }),
        },
        Scenario {
            name: "handshake.n2+crash",
            program: Box::new(HandshakeModel { peers: 1, crash: true }),
        },
        Scenario {
            name: "handshake.n3",
            program: Box::new(HandshakeModel { peers: 2, crash: false }),
        },
        Scenario {
            name: "handshake.n3+crash",
            program: Box::new(HandshakeModel { peers: 2, crash: true }),
        },
        Scenario { name: "progress.n2", program: Box::new(DeskModel::progress(2)) },
        Scenario { name: "progress.n3", program: Box::new(DeskModel::progress(3)) },
        Scenario { name: "lane.drain", program: Box::new(DeskModel::drain(false)) },
        Scenario { name: "lane.drain+lost", program: Box::new(DeskModel::drain(true)) },
        Scenario { name: "lane.seed", program: Box::new(DeskModel::seed(false)) },
        Scenario { name: "lane.seed+lost", program: Box::new(DeskModel::seed(true)) },
    ]
}

/// Result of checking one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    pub name: String,
    /// Distinct states explored (after reduction).
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Longest schedule examined.
    pub max_depth: usize,
    /// Schedule violation, rendered, with its replayable trace.
    pub failure: Option<String>,
    /// Data races found by the happens-before pass, rendered.
    pub races: Vec<String>,
    /// Cyclic lock-acquisition order, as a mutex cycle.
    pub lock_cycle: Option<Vec<usize>>,
    /// The state budget ran out — coverage incomplete.
    pub budget_exhausted: bool,
}

impl ScenarioOutcome {
    /// Fully covered with no violation of any kind.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
            && self.races.is_empty()
            && self.lock_cycle.is_none()
            && !self.budget_exhausted
    }

    fn from_result(name: &str, r: &ExploreResult) -> ScenarioOutcome {
        let failure = r.failure.as_ref().map(|f| {
            format!(
                "{} [{} schedule: {}]",
                f.violation,
                if f.minimal { "minimal" } else { "witness" },
                format_trace(&f.trace)
            )
        });
        let races = r
            .races
            .iter()
            .map(|race| {
                let mut s = format!(
                    "data race on cell {}: t{}@pc{} vs t{}@pc{} ({})",
                    race.cell.0,
                    race.first.0,
                    race.first.1,
                    race.second.0,
                    race.second.1,
                    if race.second_is_write { "write" } else { "read" },
                );
                if let Some(t) = &r.race_trace {
                    s.push_str(&format!(" [schedule: {}]", format_trace(t)));
                }
                s
            })
            .collect();
        ScenarioOutcome {
            name: name.to_string(),
            states: r.stats.states,
            transitions: r.stats.transitions,
            max_depth: r.stats.max_depth,
            failure,
            races,
            lock_cycle: r.lock_cycle.clone(),
            budget_exhausted: r.budget_exhausted,
        }
    }
}

/// Aggregate result of the modelcheck pass.
#[derive(Clone, Debug)]
pub struct ModelcheckReport {
    /// Per-scenario state budget the pass ran under.
    pub budget: u64,
    pub scenarios: Vec<ScenarioOutcome>,
}

impl ModelcheckReport {
    pub fn is_clean(&self) -> bool {
        self.scenarios.iter().all(ScenarioOutcome::is_clean)
    }

    /// Total states across scenarios (the CI log prints per-protocol
    /// counts too).
    pub fn total_states(&self) -> u64 {
        self.scenarios.iter().map(|s| s.states).sum()
    }
}

/// Exhaustively checks every scenario in [`scenarios`] under a
/// per-scenario state budget.
pub fn run_modelcheck(budget_per_scenario: u64) -> ModelcheckReport {
    let mut outcomes = Vec::new();
    for sc in scenarios() {
        let r = explore(sc.program.as_ref(), budget_per_scenario);
        outcomes.push(ScenarioOutcome::from_result(sc.name, &r));
    }
    ModelcheckReport { budget: budget_per_scenario, scenarios: outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: u64 = 2_000_000;

    #[test]
    fn all_protocol_scenarios_are_clean() {
        let report = run_modelcheck(BUDGET);
        for sc in &report.scenarios {
            assert!(
                sc.is_clean(),
                "{}: failure={:?} races={:?} lock_cycle={:?} exhausted={}",
                sc.name,
                sc.failure,
                sc.races,
                sc.lock_cycle,
                sc.budget_exhausted
            );
            assert!(sc.states > 0 && sc.transitions > 0, "{} explored nothing", sc.name);
        }
    }

    /// A seeded desk or lane bug, explored: the checker's minimal failing
    /// schedule.
    fn mutant_failure(model: DeskModel, mutant: DeskMutant) -> Failure {
        let r = explore(&DeskModel { mutant: Some(mutant), ..model }, BUDGET);
        let f = r.failure.unwrap_or_else(|| panic!("{mutant:?} went unnoticed"));
        assert!(f.minimal, "{mutant:?}: shortest failing schedule expected from BFS shrink");
        f
    }

    /// A desk nobody closes strands its progress thread: it parks on the
    /// desk's condvar with nobody left to wake it.
    #[test]
    fn mutated_progress_queue_without_close_deadlocks() {
        let f = mutant_failure(DeskModel::progress(2), DeskMutant::NoClose);
        assert!(
            matches!(f.violation, Violation::LostWakeup { tid: 0, condvar: 0 }),
            "want the progress thread (t0) parked on the desk forever, got {} [{}]",
            f.violation,
            format_trace(&f.trace)
        );
    }

    /// A helper that hands the fabric back without waking the parked
    /// progress thread strands the ops issued behind its own.
    #[test]
    fn a_helper_that_skips_the_wake_strands_the_ops_issued_ahead() {
        for ops in [2, 3] {
            let f = mutant_failure(DeskModel::progress(ops), DeskMutant::SkipWake);
            assert!(
                matches!(f.violation, Violation::LostWakeup { tid: 0, .. }),
                "{ops} ops: {} [{}]",
                f.violation,
                format_trace(&f.trace)
            );
        }
    }

    /// A helper that runs its own op ahead of an earlier queued one breaks
    /// the fabric's issue order.
    #[test]
    fn a_helper_that_runs_its_own_op_first_breaks_issue_order() {
        let f = mutant_failure(DeskModel::progress(3), DeskMutant::OwnOpFirst);
        match f.violation {
            Violation::Invariant(ref m) if m == "op 1 ran while op 0 was still queued" => {}
            ref v => panic!("want the FIFO break, got {v} [{}]", format_trace(&f.trace)),
        }
    }

    #[test]
    fn a_desk_that_skips_the_seed_wait_starts_a_gather_before_its_fetch() {
        let f = mutant_failure(DeskModel::seed(false), DeskMutant::GatherBeforeSeed);
        match f.violation {
            Violation::Invariant(ref m) if m == "the gather started before the fetch that seeds it finished" => {}
            ref v => panic!("want the unseeded gather, got {v} [{}]", format_trace(&f.trace)),
        }
    }

    #[test]
    fn a_lane_that_skips_the_desk_wait_starts_a_spill_before_its_reduce_scatter() {
        let f = mutant_failure(DeskModel::drain(false), DeskMutant::SpillBeforeReduce);
        match f.violation {
            Violation::Invariant(ref m) if m == "the spill started before the reduce-scatter it drains finished" => {}
            ref v => panic!("want the early spill, got {v} [{}]", format_trace(&f.trace)),
        }
    }

    /// A helper that finishes the reduce-scatter itself and hands the
    /// fabric back without waking the watching lane strands the spill's
    /// wait on the desk.
    #[test]
    fn a_helper_that_skips_the_watched_wake_strands_the_spill() {
        let f = mutant_failure(DeskModel::drain(false), DeskMutant::SkipWatchedWake);
        assert!(
            matches!(f.violation, Violation::LostWakeup { condvar: 0, .. }),
            "want the desk's sleepers, the lane thread among them, parked forever, got {} [{}]",
            f.violation,
            format_trace(&f.trace)
        );
    }

    /// Exploration must be deterministic run to run (fixed hasher,
    /// tid-major transition order) so CI failures replay locally.
    #[test]
    fn exploration_is_deterministic() {
        let a = explore(&HandshakeModel { peers: 2, crash: true }, BUDGET);
        let b = explore(&HandshakeModel { peers: 2, crash: true }, BUDGET);
        assert_eq!(a.stats.states, b.stats.states);
        assert_eq!(a.stats.transitions, b.stats.transitions);
        assert_eq!(a.stats.max_depth, b.stats.max_depth);
    }
}
