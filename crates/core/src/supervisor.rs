//! Elastic training supervisor: run under fault injection, survive.
//!
//! The supervisor owns the whole-run lifecycle that a single
//! [`RankEngine`] cannot. This module holds the one recovery loop
//! (`supervise`) and the one per-rank round body (`run_rank`); a rank
//! fabric is nothing but a *launcher* — a closure that starts one round
//! of ranks, runs `run_rank` in each, and hands back one `RankFate` per
//! rank. [`run_supervised`] launches ranks as threads;
//! [`crate::procworld::run_supervised_process`] launches them as OS
//! processes. When a round dies the loop
//!
//! 1. classifies the casualties — ranks that *caused* the failure
//!    (self-faults, or ranks that vanished without a result) are removed,
//!    ranks that merely *observed* it (peer-lost / timeout /
//!    corrupt-message errors) are survivors;
//! 2. walks the snapshot directory backwards to the newest checkpoint that
//!    is complete, checksum-clean, and cross-rank consistent;
//! 3. reshards that checkpoint to the surviving world size with
//!    [`crate::snapshot::reshard`];
//! 4. launches a fresh round from the snapshot step, recording a
//!    [`RecoveryReport`].
//!
//! Because the data schedule is a pure function of (step, global batch,
//! DP coordinates), a recovered run is *bitwise identical* to a clean run
//! started from the same resharded snapshot — on either fabric — the
//! property the fault-recovery tests assert.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use zero_comm::{
    try_launch_with_config, CommError, Communicator, FaultPlan, Grid, WorldConfig, ALL_KINDS,
};
use zero_model::{init_full_params, Gpt, SyntheticCorpus};
use zero_trace::SpanCategory;

use crate::engine::RankEngine;
use crate::snapshot::{reshard, RankSnapshot};
use crate::trainer::TrainSetup;

/// Everything the supervisor needs for one supervised run.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Model/ZeRO/grid/batch specification. The grid must be pure data
    /// parallel (mp = 1) and the stage must shard optimizer state
    /// (stages 1–3) so checkpoints can be resharded across world sizes.
    pub setup: TrainSetup,
    /// Total optimizer steps to complete.
    pub steps: usize,
    /// Snapshot cadence: a sharded checkpoint is written after every this
    /// many steps (plus one at step 0, so recovery always has a floor).
    pub snapshot_every: usize,
    /// Directory for checkpoint subdirectories (`step_00005/`, …).
    pub snapshot_dir: PathBuf,
    /// Faults injected into the first round (recovered rounds run clean).
    pub faults: FaultPlan,
    /// Receive timeout: how long a rank waits on a silent peer before
    /// surfacing [`CommError::Timeout`].
    pub recv_timeout: Duration,
    /// Abort after this many recoveries (guards against a fault that
    /// reproduces forever).
    pub max_recoveries: usize,
}

impl SupervisorConfig {
    /// A config with conventional defaults: snapshot every 5 steps, 1 s
    /// receive timeout, at most 4 recoveries, no faults.
    pub fn new(setup: TrainSetup, steps: usize, snapshot_dir: PathBuf) -> SupervisorConfig {
        SupervisorConfig {
            setup,
            steps,
            snapshot_every: 5,
            snapshot_dir,
            faults: FaultPlan::new(),
            recv_timeout: Duration::from_secs(1),
            max_recoveries: 4,
        }
    }
}

/// What one recovery cost.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Ranks removed from the world (crashed, hung, or panicked).
    pub failed_ranks: Vec<usize>,
    /// Human-readable description per failed or erroring rank.
    pub failures: Vec<(usize, String)>,
    /// World size before the failure.
    pub old_world: usize,
    /// World size after resharding to the survivors.
    pub new_world: usize,
    /// Step of the snapshot training resumed from.
    pub resumed_from_step: u64,
    /// Completed optimizer steps whose work was discarded by the rollback
    /// (work past the snapshot that the failed round had already done).
    pub steps_lost: u64,
    /// Bytes of checkpoint state re-read and re-moved by the reshard.
    pub bytes_moved: u64,
    /// Wall time from failure detection to the relaunch being ready.
    pub wall_time: Duration,
}

/// Outcome of a supervised run, on either fabric.
#[derive(Clone, Debug)]
pub struct SupervisedReport {
    /// Mean training loss per completed step (averaged over DP ranks),
    /// stitched across recoveries: rolled-back steps appear once, with the
    /// values from the round that finally completed them.
    pub losses: Vec<f32>,
    /// Final evaluation loss on the held-out batch, averaged over ranks.
    pub final_eval: f32,
    /// World size the run finished with.
    pub final_world: usize,
    /// One entry per recovery, in order.
    pub recoveries: Vec<RecoveryReport>,
    /// Final round, per rank: `(collective-kind name, bytes, messages)`.
    pub traffic: Vec<Vec<(String, u64, u64)>>,
    /// Final round, per rank: number of checkpoint-category
    /// `snapshot-restore` spans the rank traced (> 0 after a rollback).
    pub restore_spans: Vec<usize>,
}

/// Why a supervised run could not be started or finished.
#[derive(Clone, Debug, PartialEq)]
pub enum SuperviseError {
    /// The configuration cannot be supervised: a model-parallel grid, a
    /// stage without sharded optimizer state, or a zero snapshot cadence.
    Unsupported(&'static str),
    /// The ZeRO configuration breaks a rule of [`crate::ZeroConfig::check`].
    Config(crate::ConfigError),
    /// The global batch does not split evenly over `world` ranks — at
    /// launch, or over the survivors of a recovery.
    IndivisibleWorld { global_batch: usize, world: usize },
    /// Every rank of a failed round was a casualty.
    NoSurvivors { failures: Vec<(usize, String)> },
    /// No complete, checksum-clean, cross-rank-consistent snapshot is
    /// left under `dir` to roll back to.
    NoConsistentSnapshot { dir: PathBuf },
    /// A round failed with `max` recoveries already spent.
    RecoveryBudgetExceeded { max: usize, failures: Vec<(usize, String)> },
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::Unsupported(why) => write!(f, "unsupported supervised run: {why}"),
            SuperviseError::Config(why) => write!(f, "invalid configuration: {why}"),
            SuperviseError::IndivisibleWorld { global_batch, world } => write!(
                f,
                "global batch {global_batch} does not divide evenly over a world of {world} ranks"
            ),
            SuperviseError::NoSurvivors { failures } => {
                write!(f, "no surviving ranks to recover with: {failures:?}")
            }
            SuperviseError::NoConsistentSnapshot { dir } => {
                write!(f, "no consistent snapshot to recover from in {dir:?}")
            }
            SuperviseError::RecoveryBudgetExceeded { max, failures } => {
                write!(f, "exceeded {max} recoveries; last failures: {failures:?}")
            }
        }
    }
}

impl std::error::Error for SuperviseError {}

/// What one rank reports from one round — the result type both fabrics
/// fill: in memory on the thread fabric, through a result file on the
/// process fabric.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct RankResult {
    /// Losses of the steps this rank completed, from the round's start step.
    pub losses: Vec<f32>,
    /// Held-out eval loss, if the round ran to the end.
    pub eval: Option<f32>,
    /// Text of the error that stopped the rank, if any.
    pub error: Option<String>,
    /// Whether that error was the rank's own fault
    /// ([`CommError::is_self_fault`]) rather than an observed one.
    pub self_fault: bool,
    /// `snapshot-restore` spans on the rank's timeline.
    pub restore_spans: usize,
    /// Per collective kind: `(name, bytes, messages)`.
    pub traffic: Vec<(String, u64, u64)>,
}

/// One rank's fate in one round: its result, or — for a rank that
/// vanished (panic, SIGKILL, no parseable result) — why it is presumed
/// dead.
pub(crate) type RankFate = Result<RankResult, String>;

/// What a launcher is asked to run.
pub(crate) struct Round<'a> {
    /// 0 for the first round, +1 per recovery.
    pub index: usize,
    /// Ranks to launch.
    pub world: usize,
    /// First step to train (the snapshot step after a rollback).
    pub start_step: u64,
    /// After a rollback: the resharded snapshot, one shard per rank.
    pub restore: Option<&'a [RankSnapshot]>,
    /// Faults to inject (the scripted plan in round 0, none afterwards).
    pub faults: FaultPlan,
}

/// The per-run inputs every rank derives from the setup alone: the corpus
/// (one for the whole run — the schedule is a function of the global
/// step, so it survives world-size changes) and the initial parameters.
pub(crate) struct RunData {
    corpus: SyntheticCorpus,
    full_params: Vec<f32>,
}

impl RunData {
    pub(crate) fn new(cfg: &SupervisorConfig) -> RunData {
        RunData {
            corpus: cfg.setup.corpus(cfg.steps),
            full_params: init_full_params(&cfg.setup.model, cfg.setup.seed),
        }
    }
}

/// Runs `cfg.steps` optimizer steps with ranks as threads under
/// `cfg.faults`, recovering from rank failures by snapshot rollback +
/// reshard, and returns the stitched history. See the module docs for the
/// recovery protocol and [`SuperviseError`] for the ways it can give up.
///
/// # Panics
/// Panics only on an invalid model configuration.
pub fn run_supervised(cfg: &SupervisorConfig) -> Result<SupervisedReport, SuperviseError> {
    let data = RunData::new(cfg);
    supervise(cfg, &mut |round| launch_threads(cfg, &data, round))
}

/// The thread fabric: one round is `try_launch_with_config` around
/// [`run_rank`]; a rank thread that panicked is a vanished rank.
fn launch_threads(cfg: &SupervisorConfig, data: &RunData, round: &Round<'_>) -> Vec<RankFate> {
    let config = WorldConfig {
        recv_timeout: cfg.recv_timeout,
        faults: round.faults.clone(),
        ..WorldConfig::default()
    };
    try_launch_with_config(round.world, config, |comm| {
        let restore = round.restore.map(|shards| &shards[comm.rank()]);
        run_rank(cfg, data, round.start_step, restore, comm, |_| {})
    })
    .into_iter()
    .map(|outcome| outcome.map_err(|failure| failure.message))
    .collect()
}

/// The recovery loop, for any fabric: launches rounds through `launch`
/// until one finishes clean, rolling back and resharding in between.
pub(crate) fn supervise(
    cfg: &SupervisorConfig,
    launch: &mut dyn FnMut(&Round<'_>) -> Vec<RankFate>,
) -> Result<SupervisedReport, SuperviseError> {
    let setup = &cfg.setup;
    if setup.grid.mp_degree() != 1 {
        return Err(SuperviseError::Unsupported("only pure data-parallel grids (mp = 1)"));
    }
    if !setup.zero.stage.partitions_optimizer() {
        return Err(SuperviseError::Unsupported(
            "resharding needs sharded optimizer state (ZeRO stages 1-3)",
        ));
    }
    if cfg.snapshot_every == 0 {
        return Err(SuperviseError::Unsupported("snapshot_every must be positive"));
    }
    setup.model.validate();
    setup.zero.check(setup.grid).map_err(SuperviseError::Config)?;

    let mut world = setup.grid.dp_degree();
    let mut start_step: u64 = 0;
    let mut restore: Option<Vec<RankSnapshot>> = None;
    let mut recoveries: Vec<RecoveryReport> = Vec::new();
    let mut losses: Vec<f32> = Vec::new();

    loop {
        if !setup.global_batch.is_multiple_of(world) {
            return Err(SuperviseError::IndivisibleWorld {
                global_batch: setup.global_batch,
                world,
            });
        }
        let faults = if recoveries.is_empty() { cfg.faults.clone() } else { FaultPlan::new() };
        let fates = launch(&Round {
            index: recoveries.len(),
            world,
            start_step,
            restore: restore.as_deref(),
            faults,
        });

        // Who died of what; who merely watched.
        let mut dead: Vec<usize> = Vec::new();
        let mut failures: Vec<(usize, String)> = Vec::new();
        for (rank, fate) in fates.iter().enumerate() {
            match fate {
                Ok(RankResult { error: None, .. }) => {}
                Ok(RankResult { error: Some(msg), self_fault, .. }) => {
                    failures.push((rank, msg.clone()));
                    if *self_fault {
                        dead.push(rank);
                    }
                }
                // A vanished rank takes its partial history with it.
                Err(reason) => {
                    failures.push((rank, reason.clone()));
                    dead.push(rank);
                }
            }
        }
        let reported: Vec<&RankResult> = fates.iter().flatten().collect();
        // Mean of the round's `i`-th step over the ranks that reported it.
        let mean_loss = |i: usize| {
            let vals: Vec<f32> = reported.iter().filter_map(|r| r.losses.get(i).copied()).collect();
            (!vals.is_empty()).then(|| vals.iter().sum::<f32>() / vals.len() as f32)
        };

        if failures.is_empty() {
            // Clean round: stitch and finish.
            losses.extend((0..reported[0].losses.len()).filter_map(mean_loss));
            let evals: Vec<f32> = reported.iter().filter_map(|r| r.eval).collect();
            return Ok(SupervisedReport {
                losses,
                final_eval: evals.iter().sum::<f32>() / evals.len().max(1) as f32,
                final_world: world,
                recoveries,
                traffic: reported.iter().map(|r| r.traffic.clone()).collect(),
                restore_spans: reported.iter().map(|r| r.restore_spans).collect(),
            });
        }

        // ----- recovery -----
        let t0 = Instant::now();
        if recoveries.len() >= cfg.max_recoveries {
            return Err(SuperviseError::RecoveryBudgetExceeded {
                max: cfg.max_recoveries,
                failures,
            });
        }
        let new_world = world - dead.len();
        if new_world == 0 {
            return Err(SuperviseError::NoSurvivors { failures });
        }

        // Furthest step any rank reached, to price the discarded work.
        let reached = reported
            .iter()
            .map(|r| start_step + r.losses.len() as u64)
            .max()
            .unwrap_or(start_step);

        let (snap_step, snaps) =
            latest_consistent_snapshot(&cfg.snapshot_dir, reached, cfg.snapshot_every as u64)
                .ok_or_else(|| SuperviseError::NoConsistentSnapshot {
                    dir: cfg.snapshot_dir.clone(),
                })?;
        let bytes_moved = snaps
            .iter()
            .map(|s| 4 * (s.master.len() + s.opt_m.len() + s.opt_v.len()) as u64)
            .sum();

        // Keep the stitched history only up to the rollback point (the
        // next round recomputes everything past it), then append the
        // failed round's means for steps the snapshot covers but the
        // history does not: every rank that wrote the snapshot completed
        // those steps, though vanished ranks' records are missing.
        losses.truncate(snap_step as usize);
        for step in losses.len() as u64..snap_step {
            let mean = mean_loss((step - start_step) as usize);
            losses.push(mean.unwrap_or_else(|| {
                panic!("no loss record for step {step} below snapshot step {snap_step}")
            }));
        }

        // A set that does not tile the space is no consistent snapshot.
        let resharded = reshard(&snaps, new_world)
            .map_err(|_| SuperviseError::NoConsistentSnapshot { dir: cfg.snapshot_dir.clone() })?;
        recoveries.push(RecoveryReport {
            failed_ranks: dead,
            failures,
            old_world: world,
            new_world,
            resumed_from_step: snap_step,
            steps_lost: reached.saturating_sub(snap_step),
            bytes_moved,
            wall_time: t0.elapsed(),
        });

        world = new_world;
        start_step = snap_step;
        restore = Some(resharded);
    }
}

/// One rank's whole round, on whichever fabric `comm` lives: restore the
/// rollback shard (or write the step-0 floor, so recovery can always fall
/// back to initial state), train from `start_step` toward `cfg.steps`
/// snapshotting on cadence, evaluate the held-out batch, and report.
/// `on_step` sees each completed-step count (the process fabric's
/// progress tick).
pub(crate) fn run_rank(
    cfg: &SupervisorConfig,
    data: &RunData,
    start_step: u64,
    restore: Option<&RankSnapshot>,
    comm: Communicator,
    on_step: impl FnMut(usize),
) -> RankResult {
    let setup = &cfg.setup;
    let grid = Grid::new(comm.world_size(), 1);
    let gpt = Gpt::new_mp(setup.model, 1);
    let mut engine = RankEngine::new(gpt, &data.full_params, setup.zero, grid, comm);
    let mut losses = Vec::new();
    let outcome = train_round(cfg, data, start_step, restore, &mut engine, &mut losses, on_step);
    let traffic = engine.traffic();
    RankResult {
        losses,
        eval: outcome.as_ref().ok().copied(),
        self_fault: outcome.as_ref().is_err_and(CommError::is_self_fault),
        error: outcome.err().map(|e| e.to_string()),
        restore_spans: engine.timeline().count_named(SpanCategory::Checkpoint, "snapshot-restore"),
        traffic: ALL_KINDS
            .iter()
            .map(|&k| (k.name().to_string(), traffic.bytes(k), traffic.messages(k)))
            .collect(),
    }
}

/// The fallible part of [`run_rank`]: pushes each completed step's loss
/// and returns the held-out eval loss, or the first fabric error.
fn train_round(
    cfg: &SupervisorConfig,
    data: &RunData,
    start_step: u64,
    restore: Option<&RankSnapshot>,
    engine: &mut RankEngine,
    losses: &mut Vec<f32>,
    mut on_step: impl FnMut(usize),
) -> Result<f32, CommError> {
    let setup = &cfg.setup;
    let (world, rank) = (engine.grid().dp_degree(), engine.dp_rank());
    let local_batch = setup.global_batch / world;
    let batch = |step: usize| {
        data.corpus.rank_batch(step, setup.global_batch, setup.model.seq, world, rank)
    };
    let snapshot = |engine: &RankEngine, step: usize| {
        engine
            .save_snapshot()
            .save(&snapshot_dir_for(&cfg.snapshot_dir, step as u64))
            .expect("write snapshot shard");
    };
    match restore {
        Some(shard) => engine.try_restore_snapshot(shard)?,
        None => snapshot(engine, 0),
    }
    for step in start_step as usize..cfg.steps {
        let (ids, targets) = batch(step);
        losses.push(engine.try_train_step(&[(&ids, &targets)], local_batch)?.loss);
        if (step + 1) % cfg.snapshot_every == 0 {
            snapshot(engine, step + 1);
        }
        on_step(step + 1);
    }
    // Held-out batch, same convention as the trainer: one past the end.
    let (ids, targets) = batch(cfg.steps + 1);
    engine.try_eval_loss(&ids, &targets, local_batch)
}

/// The checkpoint subdirectory for a given step.
pub fn snapshot_dir_for(root: &Path, step: u64) -> PathBuf {
    root.join(format!("step_{step:05}"))
}

/// Scans snapshot steps `reached, reached-1, … 0` (on the cadence grid,
/// plus the step-0 floor) for the newest directory holding a complete,
/// checksum-clean, cross-rank-consistent shard set. Torn, corrupt,
/// missing, or inconsistent checkpoints are skipped — that is the point.
/// The writing world size is read from the shards themselves, so a
/// checkpoint from a larger (pre-failure) world remains usable.
fn latest_consistent_snapshot(
    root: &Path,
    reached: u64,
    cadence: u64,
) -> Option<(u64, Vec<RankSnapshot>)> {
    let mut candidates: Vec<u64> = (1..=reached / cadence).map(|k| k * cadence).collect();
    candidates.push(0);
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    for step in candidates {
        let dir = snapshot_dir_for(root, step);
        if let Some(snaps) = try_load_set(&dir) {
            if snaps.iter().all(|s| s.step == step) {
                return Some((step, snaps));
            }
        }
    }
    None
}

/// Loads a shard set from one checkpoint directory: rank 0 declares the
/// world size, the rest must exist, load cleanly, and agree.
fn try_load_set(dir: &Path) -> Option<Vec<RankSnapshot>> {
    let first = RankSnapshot::load(dir, 0).ok()?;
    let world = first.world as usize;
    let mut snaps = Vec::with_capacity(world);
    snaps.push(first);
    for r in 1..world {
        snaps.push(RankSnapshot::load(dir, r).ok()?);
    }
    crate::snapshot::validate_consistent(&snaps).ok()?;
    Some(snaps)
}

/// Resumes a *clean* run from an on-disk checkpoint written by a possibly
/// different world size: loads `old_world` shards from `snapshot_dir`,
/// reshards them to `setup.grid`, and runs one thread-fabric round to
/// `steps` — the control arm the fault-recovery tests compare against,
/// and the user-facing elastic-resume entry point.
///
/// Returns the per-step mean losses from the snapshot step onward and the
/// final eval loss.
///
/// # Panics
/// Panics on a model-parallel grid, unreadable or unreshardable snapshots,
/// or rank failures (none are expected in a clean run).
pub fn resume_from_snapshot(
    setup: &TrainSetup,
    steps: usize,
    snapshot_dir: &Path,
    old_world: usize,
) -> (Vec<f32>, f32) {
    assert_eq!(setup.grid.mp_degree(), 1, "resume supports mp = 1");
    let snaps = RankSnapshot::load_all(snapshot_dir, old_world)
        .unwrap_or_else(|e| panic!("cannot resume from {snapshot_dir:?}: {e}"));
    let world = setup.grid.dp_degree();
    let resharded = reshard(&snaps, world)
        .unwrap_or_else(|e| panic!("cannot reshard {snapshot_dir:?}: {e}"));

    let mut cfg = SupervisorConfig::new(*setup, steps, std::env::temp_dir());
    // Snapshots during the control run are not needed; park them far out.
    cfg.snapshot_every = steps.max(1) * 2;
    let round = Round {
        index: 0,
        world,
        start_step: snaps[0].step,
        restore: Some(&resharded),
        faults: FaultPlan::new(),
    };
    let results: Vec<RankResult> = launch_threads(&cfg, &RunData::new(&cfg), &round)
        .into_iter()
        .map(|fate| fate.unwrap_or_else(|why| panic!("clean resume rank failed: {why}")))
        .collect();
    for r in &results {
        assert!(r.error.is_none(), "clean resume hit a comm error: {:?}", r.error);
    }
    let n = results.len() as f32;
    let losses = (0..results[0].losses.len())
        .map(|i| results.iter().map(|r| r.losses[i]).sum::<f32>() / n)
        .collect();
    let eval = results.iter().filter_map(|r| r.eval).sum::<f32>() / n;
    (losses, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ZeroConfig, ZeroStage};
    use zero_model::ModelConfig;

    /// A config the loop accepts. No engine runs under a scripted
    /// launcher, so only the supervision fields matter.
    fn config(tag: &str, dp: usize) -> SupervisorConfig {
        let dir = std::env::temp_dir().join(format!("zero-supervise-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let setup = TrainSetup {
            model: ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 },
            zero: ZeroConfig::fp32_exact(ZeroStage::Two),
            grid: Grid::new(dp, 1),
            global_batch: 12,
            seed: 1,
        };
        let mut cfg = SupervisorConfig::new(setup, 12, dir);
        cfg.snapshot_every = 5;
        cfg.faults = FaultPlan::new().with_crash(2, 7);
        cfg
    }

    /// Writes a consistent `world`-shard checkpoint of 8 parameters.
    fn write_snapshot(cfg: &SupervisorConfig, step: u64, world: usize) {
        let full = RankSnapshot {
            rank: 0,
            world: 1,
            step,
            units: vec![8],
            owners: 1,
            owner: 0,
            master: (0..8).map(|i| i as f32).collect(),
            opt_m: vec![0.5; 8],
            opt_v: vec![0.25; 8],
            opt_t: step,
            scaler: None,
        };
        for shard in reshard(&[full], world).expect("one full shard reshards") {
            shard.save(&snapshot_dir_for(&cfg.snapshot_dir, step)).expect("write shard");
        }
    }

    /// A rank that completed `steps` (reporting `base + step` for each)
    /// and then stopped on `error`: `(text, is_self_fault)`.
    fn stopped(base: u32, steps: std::ops::Range<u32>, error: (&str, bool)) -> RankFate {
        Ok(RankResult {
            losses: steps.map(|s| (base + s) as f32).collect(),
            error: Some(error.0.to_string()),
            self_fault: error.1,
            ..RankResult::default()
        })
    }

    #[test]
    fn scripted_rounds_drive_classification_rollback_and_stitching() {
        let cfg = config("script", 4);
        write_snapshot(&cfg, 0, 4);
        write_snapshot(&cfg, 5, 4);
        // The newest cadence point is torn: one shard lost its tail.
        write_snapshot(&cfg, 10, 4);
        let torn = RankSnapshot::path_for(&snapshot_dir_for(&cfg.snapshot_dir, 10), 1);
        let bytes = std::fs::read(&torn).expect("read shard");
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("tear shard");

        let observed = ("peer 2 disconnected", false);
        // Per round: (index, world, start step), restore (shards, step), clean?
        let mut seen = Vec::new();
        let mut launch = |round: &Round<'_>| -> Vec<RankFate> {
            let restore = round.restore.map(|shards| (shards.len(), shards[0].step));
            let at = (round.index, round.world, round.start_step);
            seen.push((at, restore, round.faults.is_empty()));
            match round.index {
                // Rank 2 vanishes; the rest watched it go in step 10.
                0 => vec![
                    stopped(0, 0..10, observed),
                    stopped(0, 0..10, observed),
                    Err("rank 2: killed by signal".to_string()),
                    stopped(0, 0..10, observed),
                ],
                // Nobody is at fault: a corrupt payload, seen by all.
                1 => (0..3).map(|_| stopped(100, 5..8, ("corrupt payload", false))).collect(),
                // Rank 1 crashes itself after a clean step-10 checkpoint.
                2 => {
                    write_snapshot(&cfg, 10, 3);
                    vec![
                        stopped(200, 5..11, observed),
                        stopped(200, 5..11, ("injected crash", true)),
                        stopped(200, 5..11, observed),
                    ]
                }
                _ => (0..2)
                    .map(|rank| {
                        Ok(RankResult {
                            losses: vec![310.0, 311.0],
                            eval: Some(1.5 + rank as f32),
                            restore_spans: 1,
                            traffic: vec![("all-reduce".to_string(), 64 + rank as u64, 2)],
                            ..RankResult::default()
                        })
                    })
                    .collect(),
            }
        };
        let report = supervise(&cfg, &mut launch).expect("the scripted run finishes");

        // Round 0 carries the scripted faults; every relaunch starts clean,
        // from the rollback step, with one resharded shard per survivor.
        assert_eq!(
            seen,
            vec![
                ((0, 4, 0), None, false),
                ((1, 3, 5), Some((3, 5)), true),
                ((2, 3, 5), Some((3, 5)), true),
                ((3, 2, 10), Some((2, 10)), true),
            ]
        );
        let recs = &report.recoveries;
        assert_eq!(recs.len(), 3);
        let shrink = |i: usize| (recs[i].failed_ranks.clone(), recs[i].old_world, recs[i].new_world);
        // A vanished rank shrinks the world by exactly itself, and the
        // torn step-10 set falls back to step 5.
        assert_eq!(shrink(0), (vec![2], 4, 3));
        assert_eq!((recs[0].resumed_from_step, recs[0].steps_lost), (5, 5));
        assert_eq!(recs[0].failures.len(), 4);
        assert_eq!(recs[0].bytes_moved, 4 * 3 * 8);
        // Observer-only errors keep the world size.
        assert_eq!(shrink(1), (vec![], 3, 3));
        assert_eq!((recs[1].resumed_from_step, recs[1].steps_lost), (5, 3));
        // A self-fault shrinks it by the faulting rank alone.
        assert_eq!(shrink(2), (vec![1], 3, 2));
        assert_eq!((recs[2].resumed_from_step, recs[2].steps_lost), (10, 1));

        // Each step once: 0..5 from round 0, 5..10 from the round that
        // reached the step-10 checkpoint, the tail from the clean round.
        let want: Vec<f32> =
            (0..5).chain(205..210).chain(310..312).map(|v| v as f32).collect();
        assert_eq!(report.losses, want);
        assert_eq!(report.final_eval, 2.0);
        assert_eq!(report.final_world, 2);
        assert_eq!(report.restore_spans, vec![1, 1]);
        assert_eq!(report.traffic[1], vec![("all-reduce".to_string(), 65, 2)]);
        std::fs::remove_dir_all(&cfg.snapshot_dir).ok();
    }

    #[test]
    fn giving_up_is_a_typed_error() {
        let all_observe = |round: &Round<'_>| -> Vec<RankFate> {
            (0..round.world).map(|_| stopped(0, 0..2, ("timed out", false))).collect()
        };

        let mut cfg = config("budget", 4);
        write_snapshot(&cfg, 0, 4);
        cfg.max_recoveries = 2;
        let mut rounds = 0;
        let err = supervise(&cfg, &mut |round| {
            rounds += 1;
            all_observe(round)
        })
        .expect_err("a fault that reproduces forever exhausts the budget");
        let SuperviseError::RecoveryBudgetExceeded { max: 2, failures } = &err else {
            panic!("got {err:?}");
        };
        assert_eq!(failures.len(), 4);
        assert_eq!(rounds, 3, "two recoveries, then the third failure gives up");

        // Nothing on disk to roll back to.
        std::fs::remove_dir_all(&cfg.snapshot_dir).ok();
        let err = supervise(&cfg, &mut |round| all_observe(round)).expect_err("no snapshot");
        assert_eq!(err, SuperviseError::NoConsistentSnapshot { dir: cfg.snapshot_dir.clone() });

        let err = supervise(&cfg, &mut |round| {
            (0..round.world).map(|rank| Err(format!("rank {rank}: killed by signal"))).collect()
        })
        .expect_err("nobody left");
        assert!(matches!(&err, SuperviseError::NoSurvivors { failures } if failures.len() == 4));

        // Refused before any round is launched.
        let mut never = |_: &Round<'_>| -> Vec<RankFate> { panic!("must not launch") };
        let err = supervise(&config("dp5", 5), &mut never).expect_err("12 over 5");
        assert_eq!(err, SuperviseError::IndivisibleWorld { global_batch: 12, world: 5 });
        let mut ddp = config("ddp", 4);
        ddp.setup.zero.stage = ZeroStage::Ddp;
        assert!(matches!(supervise(&ddp, &mut never), Err(SuperviseError::Unsupported(_))));
        let mut mp = config("mp", 4);
        mp.setup.grid = Grid::new(2, 2);
        assert!(matches!(supervise(&mp, &mut never), Err(SuperviseError::Unsupported(_))));
        let mut clip = config("clip", 4);
        clip.setup.zero.clip_grad_norm = Some(-1.0);
        let err = supervise(&clip, &mut never).expect_err("a negative clip is refused");
        assert!(matches!(err, SuperviseError::Config(crate::ConfigError::Switches(_))), "{err:?}");
    }
}
