//! The bounded interleaving explorer.
//!
//! A [`Program`] is a finite set of threads stepping a [`ModelState`];
//! the explorer runs a depth-first search over *schedules* — at every
//! state it enumerates the enabled transitions (program steps, mutex
//! grants, channel deliveries, and budgeted fault injections), executes
//! each on a cloned state, and recurses. Two reductions keep the search
//! tractable without losing violations:
//!
//! * **Visited-state hashing.** The full semantic state (shim objects,
//!   program counters, vector clocks, fault budget) hashes to a key;
//!   a state already explored under a *weaker-or-equal* sleep set is
//!   pruned. Per key the explorer keeps an antichain of sleep masks and
//!   prunes only when a stored mask is a subset of the current one — the
//!   condition under which the earlier visit explored a superset of what
//!   this visit would.
//! * **Sleep sets.** After exploring sibling transition `t`, later
//!   siblings' subtrees need not re-run `t` first unless something
//!   dependent on `t` executed in between. Dependence is footprint
//!   overlap: every shim op records the objects it touched as a 64-bit
//!   mask, and a sleeping transition is woken exactly when an executed
//!   transition's mask intersects its own.
//!
//! Violations — protocol assertion failures, invariant breaks,
//! deadlocks (threads stuck on untimed waits), and lost wakeups (a
//! stuck condvar waiter though notifies were issued) — abort the search
//! and are reported with a **replayable schedule**. The reported trace
//! is then *minimized*: a plain breadth-first re-exploration capped at
//! the DFS trace's depth finds a shortest schedule reaching the same
//! violation class, falling back to the DFS trace if the cap or budget
//! is hit first.
//!
//! Timed waits and crashes are **faults under budget**: a scenario
//! allows at most `budget.timeouts` injected timeouts and
//! `budget.crashes` injected crashes per run, so "≤ 1 fault" is explored
//! exhaustively rather than sampled. Independently of the budget, when a
//! state has *no* enabled transition but timed waiters remain, the
//! lowest-tid timed waiter's timeout fires for free — modeling the
//! inevitable passage of time, so every run terminates and a timed wait
//! is never misreported as a deadlock.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::mem::discriminant;

use super::shims::{ModelState, RaceReport, Status, Tid};

/// A protocol model: threads as explicit pc-machines over a
/// [`ModelState`].
pub trait Program {
    /// The initial state (declares threads, objects, fault budget).
    fn init(&self) -> ModelState;

    /// Number of nondeterministic choices for `tid`'s next step (e.g.
    /// how many queued frames a socket read consumes). Defaults to 1.
    fn choices(&self, st: &ModelState, tid: Tid) -> usize {
        let _ = (st, tid);
        1
    }

    /// Executes one atomic step of `tid` under `choice`. Must interact
    /// with shared state only through the shim operations (and
    /// ghost/local helpers), so footprints and clocks stay accurate.
    fn step(&self, st: &mut ModelState, tid: Tid, choice: usize);

    /// Safety invariant evaluated at every reached state.
    fn check(&self, st: &ModelState) -> Option<String> {
        let _ = st;
        None
    }

    /// Post-condition evaluated at quiescent termination (every thread
    /// `Done` or `Crashed`).
    fn check_final(&self, st: &ModelState) -> Option<String> {
        let _ = st;
        None
    }
}

/// What one scheduled transition did.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ChoiceKind {
    /// Ran the thread's next program step under the given choice index.
    Step(usize),
    /// Granted the mutex the thread was parked on.
    Grant,
    /// Delivered to (or closed under) the thread's parked receive.
    Deliver,
    /// Fired the thread's timed wait. `injected` timeouts consume the
    /// fault budget; drain timeouts model inevitable expiry at
    /// otherwise-stuck states.
    Timeout { injected: bool },
    /// Crashed the thread (budgeted; severs its channels).
    Crash,
}

/// One entry of a schedule: which thread, which kind of transition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Sched {
    pub tid: Tid,
    pub kind: ChoiceKind,
}

impl fmt::Display for Sched {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ChoiceKind::Step(0) => write!(f, "t{}", self.tid),
            ChoiceKind::Step(c) => write!(f, "t{}#{}", self.tid, c),
            ChoiceKind::Grant => write!(f, "t{}:lock", self.tid),
            ChoiceKind::Deliver => write!(f, "t{}:recv", self.tid),
            ChoiceKind::Timeout { injected: true } => write!(f, "t{}:timeout!", self.tid),
            ChoiceKind::Timeout { injected: false } => write!(f, "t{}:expire", self.tid),
            ChoiceKind::Crash => write!(f, "t{}:crash!", self.tid),
        }
    }
}

/// Renders a schedule as a compact replayable string.
pub fn format_trace(trace: &[Sched]) -> String {
    trace.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(" ")
}

/// A safety violation the explorer can witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Threads stuck forever: every live thread parked on an untimed
    /// wait no other thread can satisfy.
    Deadlock { stuck: Vec<Tid> },
    /// A stuck untimed condvar waiter although the condvar has been
    /// notified — the wakeup was consumed or raced away.
    LostWakeup { tid: Tid, condvar: usize },
    /// A protocol assertion ([`ModelState::fail`]) or a [`Program::check`]
    /// / [`Program::check_final`] invariant failed.
    Invariant(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Deadlock { stuck } => {
                let tids: Vec<String> = stuck.iter().map(|t| format!("t{t}")).collect();
                write!(f, "deadlock: {{{}}} parked forever", tids.join(", "))
            }
            Violation::LostWakeup { tid, condvar } => {
                write!(f, "lost wakeup: t{tid} parked on cv{condvar} though it was notified")
            }
            Violation::Invariant(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

/// A violation plus the schedule that reaches it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub violation: Violation,
    /// Replayable schedule from the initial state to the violation.
    pub trace: Vec<Sched>,
    /// Whether the trace is a shortest schedule for this violation
    /// class (BFS-minimized) or the raw DFS witness.
    pub minimal: bool,
}

/// Exploration counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreStats {
    /// Distinct states visited (after reduction).
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Longest schedule examined.
    pub max_depth: usize,
}

/// Everything one exploration produced.
#[derive(Clone, Debug)]
pub struct ExploreResult {
    pub stats: ExploreStats,
    /// First schedule violation found, minimized if possible.
    pub failure: Option<Failure>,
    /// Distinct data races over all explored schedules.
    pub races: Vec<RaceReport>,
    /// Schedule reaching the first race, if any.
    pub race_trace: Option<Vec<Sched>>,
    /// Distinct `held → acquired` lock-order edges observed.
    pub lock_edges: Vec<(usize, usize)>,
    /// A cyclic lock-acquisition order, as the mutex cycle, if one
    /// exists in the edge graph.
    pub lock_cycle: Option<Vec<usize>>,
    /// The state budget ran out before the space was covered; absence
    /// of violations is then *not* a proof.
    pub budget_exhausted: bool,
}

impl ExploreResult {
    /// No violation of any kind and full coverage.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
            && self.races.is_empty()
            && self.lock_cycle.is_none()
            && !self.budget_exhausted
    }
}

/// Applies one scheduled transition in place, leaving its effects in
/// `st.effects`.
fn apply(prog: &dyn Program, st: &mut ModelState, s: Sched) {
    st.effects = Default::default();
    st.tick(s.tid);
    match s.kind {
        ChoiceKind::Step(choice) => prog.step(st, s.tid, choice),
        ChoiceKind::Grant => {
            let Status::ParkedMutex(m) = st.status[s.tid] else {
                panic!("grant for a thread not parked on a mutex");
            };
            st.grant_mutex(s.tid, m);
        }
        ChoiceKind::Deliver => st.deliver_recv(s.tid),
        ChoiceKind::Timeout { injected } => {
            if injected {
                st.budget.timeouts -= 1;
            }
            st.fire_timeout(s.tid);
        }
        ChoiceKind::Crash => {
            st.crash(s.tid);
            // A vanished thread conservatively conflicts with everything.
            st.effects.footprint = u64::MAX;
        }
    }
}

/// Replays a schedule from the initial state, so a reported failure
/// trace can be re-run to the state it names.
pub fn replay(prog: &dyn Program, trace: &[Sched]) -> ModelState {
    let mut st = prog.init();
    for &s in trace {
        apply(prog, &mut st, s);
    }
    st
}

/// Enumerates the enabled transitions of `st`, in deterministic
/// (tid-major) order. Fault injections come after a thread's regular
/// transition so minimal traces prefer fault-free prefixes.
fn transitions(prog: &dyn Program, st: &ModelState) -> Vec<Sched> {
    let mut ts = Vec::new();
    for tid in 0..st.status.len() {
        match st.status[tid] {
            Status::Runnable => {
                for c in 0..prog.choices(st, tid).max(1) {
                    ts.push(Sched { tid, kind: ChoiceKind::Step(c) });
                }
            }
            Status::ParkedMutex(m) => {
                if st.mutexes[m.0].owner.is_none() {
                    ts.push(Sched { tid, kind: ChoiceKind::Grant });
                }
            }
            Status::ParkedCv { timed, .. } => {
                if timed && st.budget.timeouts > 0 {
                    ts.push(Sched { tid, kind: ChoiceKind::Timeout { injected: true } });
                }
            }
            Status::ParkedRecv { ch, timed, .. } => {
                if !st.channels[ch.0].queue.is_empty() || st.channels[ch.0].closed {
                    ts.push(Sched { tid, kind: ChoiceKind::Deliver });
                } else if timed && st.budget.timeouts > 0 {
                    ts.push(Sched { tid, kind: ChoiceKind::Timeout { injected: true } });
                }
            }
            Status::Done | Status::Crashed => {}
        }
        if st.crash_eligible(tid) {
            ts.push(Sched { tid, kind: ChoiceKind::Crash });
        }
    }
    ts
}

/// True if the transition makes progress without spending fault budget
/// (used to decide when the forced timeout drain applies).
fn is_progress(s: &Sched) -> bool {
    !matches!(s.kind, ChoiceKind::Crash | ChoiceKind::Timeout { injected: true })
}

/// The free drain transition at an otherwise-stuck state: the
/// lowest-tid timed waiter's wait expires.
fn forced_drain(st: &ModelState) -> Option<Sched> {
    for tid in 0..st.status.len() {
        let timed = match st.status[tid] {
            Status::ParkedCv { timed, .. } => timed,
            Status::ParkedRecv { ch, timed, .. } => {
                timed && st.channels[ch.0].queue.is_empty() && !st.channels[ch.0].closed
            }
            _ => false,
        };
        if timed {
            return Some(Sched { tid, kind: ChoiceKind::Timeout { injected: false } });
        }
    }
    None
}

/// Classifies a state with no progress transition and no timed waiter
/// left to drain. Returns `None` when every thread terminated.
fn classify_stuck(st: &ModelState) -> Option<Violation> {
    let mut stuck = Vec::new();
    for tid in 0..st.status.len() {
        match st.status[tid] {
            Status::Done | Status::Crashed => {}
            Status::ParkedCv { cv, .. } => {
                if st.condvars[cv.0].notifies > 0 {
                    return Some(Violation::LostWakeup { tid, condvar: cv.0 });
                }
                stuck.push(tid);
            }
            _ => stuck.push(tid),
        }
    }
    if stuck.is_empty() {
        None
    } else {
        Some(Violation::Deadlock { stuck })
    }
}

/// Compact identity of a transition for sleep-set membership: stable
/// across the states it stays asleep in.
fn key(s: &Sched) -> u32 {
    let kind = match s.kind {
        ChoiceKind::Step(_) => 0u32,
        ChoiceKind::Grant => 1,
        ChoiceKind::Deliver => 2,
        ChoiceKind::Timeout { injected: false } => 3,
        ChoiceKind::Timeout { injected: true } => 4,
        ChoiceKind::Crash => 5,
    };
    let choice = match s.kind {
        ChoiceKind::Step(c) => c as u32,
        _ => 0,
    };
    (kind << 20) | ((s.tid as u32) << 16) | (choice & 0xffff)
}

/// A sleeping transition: identity plus the footprint it had when it
/// went to sleep (unchanged while only independent transitions ran).
type SleepSet = Vec<(u32, u64)>;

fn sleep_keys(sleep: &SleepSet) -> Vec<u32> {
    let mut ks: Vec<u32> = sleep.iter().map(|&(k, _)| k).collect();
    ks.sort_unstable();
    ks
}

fn is_subset(a: &[u32], b: &[u32]) -> bool {
    // Both sorted.
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

enum Stop {
    Violation(Violation),
    Budget,
}

struct Explorer<'p> {
    prog: &'p dyn Program,
    /// state hash → antichain of sleep-key sets it was explored under.
    visited: HashMap<u64, Vec<Vec<u32>>>,
    stats: ExploreStats,
    budget: u64,
    trace: Vec<Sched>,
    races: HashSet<RaceReport>,
    race_trace: Option<Vec<Sched>>,
    lock_edges: HashSet<(usize, usize)>,
}

impl<'p> Explorer<'p> {
    /// Records the state; true if it (under this sleep set) was already
    /// covered.
    fn seen(&mut self, st: &ModelState, sleep: &SleepSet) -> bool {
        let ks = sleep_keys(sleep);
        match self.visited.entry(st.state_hash()) {
            Entry::Occupied(mut e) => {
                let chain = e.get_mut();
                if chain.iter().any(|stored| is_subset(stored, &ks)) {
                    return true;
                }
                chain.retain(|stored| !is_subset(&ks, stored));
                chain.push(ks);
                false
            }
            Entry::Vacant(e) => {
                e.insert(vec![ks]);
                false
            }
        }
    }

    fn absorb_effects(&mut self, st: &ModelState) {
        for r in &st.effects.races {
            if self.races.insert(r.clone()) && self.race_trace.is_none() {
                self.race_trace = Some(self.trace.clone());
            }
        }
        for &(a, b) in &st.effects.lock_edges {
            self.lock_edges.insert((a.0, b.0));
        }
    }

    fn dfs(&mut self, st: &ModelState, sleep: SleepSet) -> Result<(), Stop> {
        if self.seen(st, &sleep) {
            return Ok(());
        }
        self.stats.states += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.trace.len());
        if self.stats.states > self.budget {
            return Err(Stop::Budget);
        }
        if let Some(msg) = self.prog.check(st) {
            return Err(Stop::Violation(Violation::Invariant(msg)));
        }

        let mut ts = transitions(self.prog, st);
        if !ts.iter().any(is_progress) {
            // Nothing moves without a fault: time passes, timed waits
            // expire (free), and only then is the state truly stuck.
            if let Some(drain) = forced_drain(st) {
                ts.push(drain);
            } else if ts.is_empty() {
                return match classify_stuck(st) {
                    Some(v) => Err(Stop::Violation(v)),
                    None => match self.prog.check_final(st) {
                        Some(msg) => Err(Stop::Violation(Violation::Invariant(msg))),
                        None => Ok(()),
                    },
                };
            }
        }

        let mut executed: SleepSet = Vec::new();
        for t in ts {
            let k = key(&t);
            if sleep.iter().any(|&(sk, _)| sk == k) {
                continue;
            }
            let mut child = st.clone();
            apply(self.prog, &mut child, t);
            self.stats.transitions += 1;
            let fp = child.effects.footprint;
            self.trace.push(t);
            self.absorb_effects(&child);
            if let Some(msg) = child.effects.failure.clone() {
                return Err(Stop::Violation(Violation::Invariant(msg)));
            }
            let child_sleep: SleepSet = sleep
                .iter()
                .chain(executed.iter())
                .filter(|&&(_, sfp)| sfp & fp == 0)
                .copied()
                .collect();
            self.dfs(&child, child_sleep)?;
            self.trace.pop();
            executed.push((k, fp));
        }
        Ok(())
    }
}

/// Breadth-first search for a shortest schedule (≤ `cap` transitions)
/// reaching a violation of the same class as `like`, within a state
/// budget. Plain exploration — no reduction — so the first hit is
/// genuinely minimal.
fn minimize(
    prog: &dyn Program,
    like: &Violation,
    cap: usize,
    budget: u64,
) -> Option<Vec<Sched>> {
    let want = discriminant(like);
    let mut seen = HashSet::new();
    let mut queue: VecDeque<(ModelState, Vec<Sched>)> = VecDeque::new();
    queue.push_back((prog.init(), Vec::new()));
    let mut visited: u64 = 0;
    while let Some((st, trace)) = queue.pop_front() {
        if !seen.insert(st.state_hash()) {
            continue;
        }
        visited += 1;
        if visited > budget {
            return None;
        }
        if let Some(msg) = st.effects.failure.clone() {
            if want == discriminant(&Violation::Invariant(msg.clone())) {
                return Some(trace);
            }
        }
        if let Some(msg) = prog.check(&st) {
            if want == discriminant(&Violation::Invariant(msg)) {
                return Some(trace);
            }
        }
        let mut ts = transitions(prog, &st);
        if !ts.iter().any(is_progress) {
            if let Some(drain) = forced_drain(&st) {
                ts.push(drain);
            } else if ts.is_empty() {
                match classify_stuck(&st) {
                    Some(v) if discriminant(&v) == want => return Some(trace),
                    Some(_) => continue,
                    None => {
                        if let Some(msg) = prog.check_final(&st) {
                            if want == discriminant(&Violation::Invariant(msg)) {
                                return Some(trace);
                            }
                        }
                        continue;
                    }
                }
            }
        }
        if trace.len() >= cap {
            continue;
        }
        for t in ts {
            let mut child = st.clone();
            apply(prog, &mut child, t);
            let mut ctrace = trace.clone();
            ctrace.push(t);
            queue.push_back((child, ctrace));
        }
    }
    None
}

/// Exhaustively enumerates the distinct *terminal* states of `prog`
/// (every thread `Done` or `Crashed`) under a state budget — plain
/// visited-hash exploration, no partial-order reduction, so the result
/// is exactly the reachable set. The conformance tests project these
/// onto per-thread outcome registers to get the feasible outcome
/// classes the real primitives must stay within. Returns `None` if the
/// budget ran out (the enumeration would be incomplete).
pub fn enumerate_final_states(prog: &dyn Program, budget: u64) -> Option<Vec<ModelState>> {
    let mut seen = HashSet::new();
    let mut finals: Vec<ModelState> = Vec::new();
    let mut stack: Vec<ModelState> = vec![prog.init()];
    let mut visited: u64 = 0;
    while let Some(st) = stack.pop() {
        if !seen.insert(st.state_hash()) {
            continue;
        }
        visited += 1;
        if visited > budget {
            return None;
        }
        let mut ts = transitions(prog, &st);
        if !ts.iter().any(is_progress) {
            if let Some(drain) = forced_drain(&st) {
                ts.push(drain);
            } else if ts.is_empty() {
                if classify_stuck(&st).is_none() {
                    finals.push(st);
                }
                continue;
            }
        }
        for t in ts {
            let mut child = st.clone();
            apply(prog, &mut child, t);
            stack.push(child);
        }
    }
    Some(finals)
}

/// Finds a cycle in the lock-order edge graph, returned as the list of
/// mutexes around the cycle.
fn lock_cycle(edges: &HashSet<(usize, usize)>) -> Option<Vec<usize>> {
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut nodes: Vec<usize> = Vec::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
        for n in [a, b] {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    nodes.sort_unstable();
    for v in adj.values_mut() {
        v.sort_unstable();
    }
    // Colors: 0 unvisited, 1 on stack, 2 done.
    let mut color: HashMap<usize, u8> = HashMap::new();
    let mut stack: Vec<usize> = Vec::new();
    fn walk(
        n: usize,
        adj: &HashMap<usize, Vec<usize>>,
        color: &mut HashMap<usize, u8>,
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color.insert(n, 1);
        stack.push(n);
        for &m in adj.get(&n).map(|v| v.as_slice()).unwrap_or(&[]) {
            match color.get(&m).copied().unwrap_or(0) {
                0 => {
                    if let Some(c) = walk(m, adj, color, stack) {
                        return Some(c);
                    }
                }
                1 => {
                    let start = stack.iter().position(|&x| x == m).unwrap();
                    return Some(stack[start..].to_vec());
                }
                _ => {}
            }
        }
        stack.pop();
        color.insert(n, 2);
        None
    }
    for &n in &nodes {
        if color.get(&n).copied().unwrap_or(0) == 0 {
            if let Some(c) = walk(n, &adj, &mut color, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// Exhaustively explores `prog` under a state budget.
pub fn explore(prog: &dyn Program, budget: u64) -> ExploreResult {
    let mut ex = Explorer {
        prog,
        visited: HashMap::new(),
        stats: ExploreStats::default(),
        budget,
        trace: Vec::new(),
        races: HashSet::new(),
        race_trace: None,
        lock_edges: HashSet::new(),
    };
    let init = prog.init();
    let outcome = ex.dfs(&init, Vec::new());
    let mut failure = None;
    let mut budget_exhausted = false;
    match outcome {
        Ok(()) => {}
        Err(Stop::Budget) => budget_exhausted = true,
        Err(Stop::Violation(v)) => {
            let dfs_trace = ex.trace.clone();
            // Spend at most the exploration budget again on shrinking.
            let minimal = minimize(prog, &v, dfs_trace.len(), budget);
            failure = Some(match minimal {
                Some(trace) => Failure { violation: v, trace, minimal: true },
                None => Failure { violation: v, trace: dfs_trace, minimal: false },
            });
        }
    }
    let mut races: Vec<RaceReport> = ex.races.into_iter().collect();
    races.sort_by_key(|r| (r.cell.0, r.first, r.second));
    let mut lock_edges: Vec<(usize, usize)> = ex.lock_edges.iter().copied().collect();
    lock_edges.sort_unstable();
    ExploreResult {
        stats: ex.stats,
        failure,
        races,
        race_trace: ex.race_trace,
        lock_edges,
        lock_cycle: lock_cycle(&ex.lock_edges),
        budget_exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelcheck::shims::{CondvarId, DataId, MutexId};

    /// Two threads increment a mutex-guarded cell; final sum checked.
    struct GuardedCounter;

    impl GuardedCounter {
        const MX: MutexId = MutexId(0);
        const CELL: DataId = DataId(0);
    }

    impl Program for GuardedCounter {
        fn init(&self) -> ModelState {
            let mut st = ModelState::new(2);
            st.add_mutex();
            st.add_data(0);
            st
        }

        fn step(&self, st: &mut ModelState, tid: Tid, _choice: usize) {
            match st.pc(tid) {
                0 => {
                    if st.lock(tid, Self::MX) {
                        let v = st.read_data(tid, Self::CELL);
                        st.set_reg(tid, 0, v);
                        st.goto(tid, 1);
                    }
                }
                1 => {
                    st.write_data(tid, Self::CELL, st.reg(tid, 0) + 1);
                    st.unlock(tid, Self::MX);
                    st.done(tid);
                }
                pc => panic!("bad pc {pc}"),
            }
        }

        fn check_final(&self, st: &ModelState) -> Option<String> {
            (st.data[0].value != 2).then(|| format!("sum {} != 2", st.data[0].value))
        }
    }

    /// Same counter without the mutex: the race detector must fire, and
    /// the final-state check must catch the lost update.
    struct RacyCounter;

    impl Program for RacyCounter {
        fn init(&self) -> ModelState {
            let mut st = ModelState::new(2);
            st.add_data(0);
            st
        }

        fn step(&self, st: &mut ModelState, tid: Tid, _choice: usize) {
            match st.pc(tid) {
                0 => {
                    let v = st.read_data(tid, DataId(0));
                    st.set_reg(tid, 0, v);
                    st.goto(tid, 1);
                }
                1 => {
                    st.write_data(tid, DataId(0), st.reg(tid, 0) + 1);
                    st.done(tid);
                }
                pc => panic!("bad pc {pc}"),
            }
        }

        fn check_final(&self, st: &ModelState) -> Option<String> {
            (st.data[0].value != 2).then(|| format!("lost update: sum {}", st.data[0].value))
        }
    }

    /// The classic unlooped-wait lost wakeup: the waiter checks a flag,
    /// then waits untimed; the setter may notify *before* the wait.
    struct LostWakeupDemo;

    impl LostWakeupDemo {
        const MX: MutexId = MutexId(0);
        const CV: CondvarId = CondvarId(0);
        const FLAG: DataId = DataId(0);
    }

    impl Program for LostWakeupDemo {
        fn init(&self) -> ModelState {
            let mut st = ModelState::new(2);
            st.add_mutex();
            st.add_condvar();
            st.add_data(0);
            st
        }

        fn step(&self, st: &mut ModelState, tid: Tid, _choice: usize) {
            if tid == 0 {
                // Setter: flag = 1, notify (no waiter memory).
                match st.pc(0) {
                    0 => {
                        if st.lock(0, Self::MX) {
                            st.write_data(0, Self::FLAG, 1);
                            st.notify_all(0, Self::CV);
                            st.unlock(0, Self::MX);
                            st.done(0);
                        }
                    }
                    pc => panic!("bad pc {pc}"),
                }
            } else {
                // Waiter: BUG — checks the flag in one critical section,
                // parks in another, with no re-check in between. The
                // notify can land in the gap and be lost forever.
                match st.pc(1) {
                    0 => {
                        if st.lock(1, Self::MX) {
                            let v = st.read_data(1, Self::FLAG);
                            st.unlock(1, Self::MX);
                            if v == 1 {
                                st.done(1);
                            } else {
                                st.goto(1, 1);
                            }
                        }
                    }
                    1 => {
                        if st.lock(1, Self::MX) {
                            st.goto(1, 2);
                            st.cv_wait(1, Self::CV, Self::MX, false);
                        }
                    }
                    2 => {
                        if st.lock(1, Self::MX) {
                            st.unlock(1, Self::MX);
                            st.done(1);
                        }
                    }
                    pc => panic!("bad pc {pc}"),
                }
            }
        }
    }

    /// Two threads acquire two mutexes in opposite orders.
    struct OrderInversion;

    impl Program for OrderInversion {
        fn init(&self) -> ModelState {
            let mut st = ModelState::new(2);
            st.add_mutex();
            st.add_mutex();
            st
        }

        fn step(&self, st: &mut ModelState, tid: Tid, _choice: usize) {
            let (first, second) =
                if tid == 0 { (MutexId(0), MutexId(1)) } else { (MutexId(1), MutexId(0)) };
            match st.pc(tid) {
                0 => {
                    if st.lock(tid, first) {
                        st.goto(tid, 1);
                    }
                }
                1 => {
                    if st.lock(tid, second) {
                        st.unlock(tid, second);
                        st.unlock(tid, first);
                        st.done(tid);
                    }
                }
                pc => panic!("bad pc {pc}"),
            }
        }
    }

    #[test]
    fn guarded_counter_is_clean() {
        let r = explore(&GuardedCounter, 10_000);
        assert!(r.is_clean(), "{:?}", r.failure);
        assert!(r.stats.states > 0 && r.stats.transitions > 0);
    }

    #[test]
    fn racy_counter_reports_the_race_and_the_lost_update() {
        let r = explore(&RacyCounter, 10_000);
        assert!(!r.races.is_empty(), "race must be detected");
        assert!(r.race_trace.is_some());
        assert_eq!(r.races[0].cell, DataId(0));
        let f = r.failure.expect("the lost update must fail the final-state check");
        assert!(matches!(f.violation, Violation::Invariant(_)), "{:?}", f.violation);
        // The reported schedule replays to a final state that fails the
        // same check.
        let st = replay(&RacyCounter, &f.trace);
        assert!(RacyCounter.check_final(&st).is_some(), "{}", format_trace(&f.trace));
    }

    #[test]
    fn lost_wakeup_is_caught_with_a_minimal_trace() {
        let r = explore(&LostWakeupDemo, 10_000);
        let f = r.failure.expect("unlooped wait must lose the wakeup");
        assert!(
            matches!(f.violation, Violation::LostWakeup { tid: 1, .. }),
            "{:?}",
            f.violation
        );
        assert!(f.minimal, "BFS shrink should succeed on this tiny model");
        // The witness replays to a stuck state: t1 parked, t0 done.
        let st = replay(&LostWakeupDemo, &f.trace);
        assert!(matches!(st.status[1], Status::ParkedCv { .. }));
        // Minimality: the shortest losing schedule lets the setter run
        // to completion before the waiter first checks the flag — no
        // shorter schedule can, since the waiter must reach its wait.
        assert!(f.trace.len() <= 4, "trace {} too long", format_trace(&f.trace));
    }

    #[test]
    fn opposite_lock_orders_deadlock_and_cycle() {
        let r = explore(&OrderInversion, 10_000);
        let f = r.failure.expect("AB/BA locking must deadlock");
        assert!(matches!(f.violation, Violation::Deadlock { .. }), "{:?}", f.violation);
        let cycle = r.lock_cycle.expect("cycle in the lock graph");
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn tiny_budget_reports_exhaustion_not_a_false_proof() {
        let r = explore(&OrderInversion, 2);
        assert!(r.budget_exhausted || r.failure.is_some());
        assert!(!r.is_clean());
    }
}
