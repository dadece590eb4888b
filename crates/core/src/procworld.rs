//! The process fabric's launcher: one supervised round run as *real OS
//! processes* on the socket fabric of `zero_comm::process`.
//!
//! The recovery protocol and the per-rank round body live in
//! [`crate::supervisor`] and are shared with the thread fabric; this
//! module only knows how to start a round of rank processes and collect
//! what they report. Every rank is a spawned child, so `kill -9` actually
//! severs its sockets mid-step and the driver must notice through exit
//! statuses and missing result files — and recovery must still produce
//! losses bitwise identical to a clean thread-fabric resume from the same
//! snapshot. That equivalence is the backend-parity contract.
//!
//! ## Worker protocol
//!
//! The driver writes one *spec file* per rank (a `key=value` text file:
//! the [`SupervisorConfig`] with floats as exact bit patterns, the
//! round's start step and fault plan, fabric timing, socket/restore/
//! result paths) and spawns the caller's worker command with
//! `ZERO_WORKER_SPEC` pointing at it. Any binary whose `main` (or a test
//! shim) calls [`maybe_run_worker`] first can host a rank — `zero-train`
//! does, and so do the integration tests by re-executing it.
//!
//! Workers report through the filesystem, never through pipes: a
//! per-step `progress` file (the kill watcher's trigger), and an
//! atomically renamed `result` file carrying the rank's bit-exact
//! `RankResult`. A rank that dies — by SIGKILL or panic — simply never
//! renames its result file, which is exactly how the driver detects
//! death.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use zero_comm::{
    connect_process_rank, FaultKind, FaultPlan, FaultSpec, FaultTrigger, Grid,
    ProcessWorldConfig, RankProcs, ALL_KINDS,
};
use zero_model::ModelConfig;
use zero_optim::{AdamConfig, LrSchedule, SgdConfig};

use crate::config::{CompressionConfig, OptimizerKind, TierConfig, ZeroConfig, ZeroStage};
use crate::snapshot::RankSnapshot;
use crate::supervisor::{
    run_rank, supervise, RankFate, RankResult, Round, RunData, SuperviseError, SupervisedReport,
    SupervisorConfig,
};
use crate::trainer::TrainSetup;

/// Environment variable carrying the spec-file path to a worker process.
pub const WORKER_SPEC_ENV: &str = "ZERO_WORKER_SPEC";

// ---------------------------------------------------------------------------
// Driver-side API
// ---------------------------------------------------------------------------

/// How to start one rank process. The driver appends only the
/// [`WORKER_SPEC_ENV`] environment variable; everything in `args` is the
/// caller's (e.g. a `--zero-worker` marker for leak checks, or libtest
/// filter flags when a test binary re-executes itself).
#[derive(Clone, Debug)]
pub struct WorkerCommand {
    /// Binary to execute.
    pub program: PathBuf,
    /// Arguments passed verbatim.
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// The current executable with the given arguments — the usual
    /// self-exec shape for both `zero-train` and test binaries.
    pub fn current_exe(args: Vec<String>) -> std::io::Result<WorkerCommand> {
        Ok(WorkerCommand {
            program: std::env::current_exe()?,
            args,
        })
    }

    fn command(&self, spec_path: &Path) -> Command {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args).env(WORKER_SPEC_ENV, spec_path);
        cmd
    }
}

/// SIGKILL injection: kill `rank` once its progress file shows
/// `after_step` completed optimizer steps — i.e. mid-way through step
/// `after_step`, after snapshots up to that point exist.
#[derive(Clone, Copy, Debug)]
pub struct KillSpec {
    /// Victim rank (in the first round's numbering).
    pub rank: usize,
    /// Completed-step count that triggers the kill.
    pub after_step: u64,
}

/// Driver options: worker command, scratch layout, fault injection, and
/// the fabric timing parameters shared by every rank.
#[derive(Clone, Debug)]
pub struct ProcessWorldOptions {
    /// How to spawn one rank.
    pub worker: WorkerCommand,
    /// Scratch root for sockets, specs, progress, and result files
    /// (per-round subdirectories are created inside).
    pub run_dir: PathBuf,
    /// Optional SIGKILL injection, applied in the first round only —
    /// like `cfg.faults`, which the supervisor scripts into round 0 alone.
    pub kill: Option<KillSpec>,
    /// Wall-clock budget for one round; children still alive at the
    /// deadline are killed (and the round treated as failed).
    pub round_timeout: Duration,
    /// See [`ProcessWorldConfig::heartbeat_interval`].
    pub heartbeat_interval: Duration,
    /// See [`ProcessWorldConfig::liveness_timeout`].
    pub liveness_timeout: Duration,
    /// See [`ProcessWorldConfig::handshake_timeout`].
    pub handshake_timeout: Duration,
}

impl ProcessWorldOptions {
    /// Defaults sized for test-scale models on a loaded CI machine.
    pub fn new(worker: WorkerCommand, run_dir: impl Into<PathBuf>) -> ProcessWorldOptions {
        ProcessWorldOptions {
            worker,
            run_dir: run_dir.into(),
            kill: None,
            round_timeout: Duration::from_secs(300),
            heartbeat_interval: Duration::from_millis(25),
            liveness_timeout: Duration::from_secs(1),
            handshake_timeout: Duration::from_secs(20),
        }
    }
}

/// [`crate::run_supervised`] with every rank a spawned OS process: the
/// same recovery loop, recovering from real process death (including
/// injected `kill -9`) as well as from `cfg.faults`; `opts.kill` adds
/// genuine SIGKILL to round 0.
///
/// # Panics
/// Panics on an invalid model or ZeRO configuration, or when the scratch
/// directory cannot be written or the workers cannot be spawned.
pub fn run_supervised_process(
    cfg: &SupervisorConfig,
    opts: &ProcessWorldOptions,
) -> Result<SupervisedReport, SuperviseError> {
    supervise(cfg, &mut |round| launch_processes(cfg, opts, round))
}

/// Runs one round as processes: writes the rollback shards and one spec
/// per rank, spawns the workers, runs the kill watcher, reaps everyone,
/// and reads back each rank's result file.
fn launch_processes(
    cfg: &SupervisorConfig,
    opts: &ProcessWorldOptions,
    round: &Round<'_>,
) -> Vec<RankFate> {
    let world = round.world;
    let round_dir = opts.run_dir.join(format!("round-{}", round.index));
    let sock_dir = round_dir.join("sockets");
    std::fs::create_dir_all(&sock_dir).expect("create fabric socket dir");
    // Hand each survivor its resharded shard on disk.
    let restore_dir = round.restore.map(|shards| {
        let dir = round_dir.join("restore");
        for shard in shards {
            shard.save(&dir).expect("write resharded shard");
        }
        dir
    });
    let round_cfg = SupervisorConfig {
        setup: TrainSetup { grid: Grid::new(world, 1), ..cfg.setup },
        faults: round.faults.clone(),
        ..cfg.clone()
    };
    let token = zero_comm::process::fresh_token();

    let specs: Vec<WorkerSpec> = (0..world)
        .map(|rank| WorkerSpec {
            cfg: round_cfg.clone(),
            rank,
            start_step: round.start_step,
            token,
            socket_dir: sock_dir.clone(),
            heartbeat_interval: opts.heartbeat_interval,
            liveness_timeout: opts.liveness_timeout,
            handshake_timeout: opts.handshake_timeout,
            restore_dir: restore_dir.clone(),
            result_path: round_dir.join(format!("result-{rank}.txt")),
            progress_path: round_dir.join(format!("progress-{rank}.txt")),
        })
        .collect();
    let cmds: Vec<Command> = specs
        .iter()
        .map(|spec| {
            let spec_path = round_dir.join(format!("spec-{}.txt", spec.rank));
            std::fs::write(&spec_path, spec.serialize()).expect("write worker spec");
            opts.worker.command(&spec_path)
        })
        .collect();
    let mut procs = RankProcs::spawn(cmds).expect("spawn rank processes");

    // Kill watcher: poll the victim's progress file and SIGKILL it the
    // moment it has completed `after_step` steps — a genuinely
    // asynchronous death in the middle of the following step.
    if let (0, Some(kill)) = (round.index, opts.kill) {
        assert!(kill.rank < world, "kill target outside the world");
        let deadline = Instant::now() + opts.round_timeout;
        loop {
            let progress = read_progress(&specs[kill.rank].progress_path);
            if progress.is_some_and(|done| done >= kill.after_step) {
                procs.kill(kill.rank);
                break;
            }
            // If the fleet already exited (fast failure), stop waiting.
            if procs.poll() == 0 || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    procs.wait_all(Instant::now() + opts.round_timeout);

    specs
        .iter()
        .map(|spec| {
            let rank = spec.rank;
            if procs.died_of_signal(rank) {
                return Err(format!("rank {rank}: killed by signal"));
            }
            match std::fs::read_to_string(&spec.result_path) {
                Ok(text) => RankResult::parse(&text)
                    .map_err(|e| format!("rank {rank}: bad result file: {e}")),
                Err(_) => {
                    let status = procs
                        .status(rank)
                        .map(|s| format!("{s}"))
                        .unwrap_or_else(|| "unreaped".into());
                    Err(format!("rank {rank}: exited ({status}) without a result"))
                }
            }
        })
        .collect()
}

fn read_progress(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Worker dispatch hook: call this *first* in `main` (or from a test
/// shim). If [`WORKER_SPEC_ENV`] is set, the process runs one rank to
/// completion and exits — it never returns. Otherwise it returns
/// immediately and the caller proceeds as the driver / CLI.
pub fn maybe_run_worker() {
    let Ok(spec_path) = std::env::var(WORKER_SPEC_ENV) else {
        return;
    };
    let code = match std::fs::read_to_string(&spec_path) {
        Ok(text) => run_worker(&text),
        Err(e) => {
            eprintln!("zero worker: cannot read spec {spec_path}: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run_worker(text: &str) -> i32 {
    let spec = match WorkerSpec::parse(text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("zero worker: bad spec: {e}");
            return 2;
        }
    };
    let comm = match connect_process_rank(spec.rank, &spec.fabric()) {
        Ok(comm) => comm,
        Err(e) => {
            eprintln!("zero worker rank {}: handshake failed: {e}", spec.rank);
            return 3;
        }
    };
    let restore = match &spec.restore_dir {
        Some(dir) => RankSnapshot::load(dir, spec.rank).map(Some),
        None => Ok(None),
    };
    let result = match restore {
        Ok(shard) => {
            let data = RunData::new(&spec.cfg);
            run_rank(&spec.cfg, &data, spec.start_step, shard.as_ref(), comm, |done| {
                write_atomic(&spec.progress_path, &format!("{done}\n"))
                    .expect("write progress file");
            })
        }
        // The mesh is already up, so the peers watch this rank leave.
        Err(e) => RankResult {
            error: Some(format!("restore shard unreadable: {e}")),
            self_fault: true,
            ..RankResult::default()
        },
    };
    match write_atomic(&spec.result_path, &result.serialize()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("zero worker rank {}: cannot write result: {e}", spec.rank);
            4
        }
    }
}

// ---------------------------------------------------------------------------
// Spec + result serialization (bit-exact, line-oriented key=value text)
// ---------------------------------------------------------------------------

/// Everything one rank process needs, self-contained. Floats travel as
/// exact bit patterns so the worker reconstructs configs bitwise.
#[derive(Clone, Debug)]
struct WorkerSpec {
    /// The run's configuration as this round sees it: the round's fault
    /// plan, a grid of the round's world.
    cfg: SupervisorConfig,
    rank: usize,
    start_step: u64,
    token: u64,
    socket_dir: PathBuf,
    heartbeat_interval: Duration,
    liveness_timeout: Duration,
    handshake_timeout: Duration,
    restore_dir: Option<PathBuf>,
    result_path: PathBuf,
    progress_path: PathBuf,
}

fn f32_hex(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

impl WorkerSpec {
    /// The round's mesh, as every one of its ranks must describe it.
    fn fabric(&self) -> ProcessWorldConfig {
        let mut fabric =
            ProcessWorldConfig::new(&self.socket_dir, self.cfg.setup.grid.dp_degree());
        fabric.token = self.token;
        fabric.recv_timeout = self.cfg.recv_timeout;
        fabric.faults = self.cfg.faults.clone();
        fabric.heartbeat_interval = self.heartbeat_interval;
        fabric.liveness_timeout = self.liveness_timeout;
        fabric.handshake_timeout = self.handshake_timeout;
        fabric
    }

    fn serialize(&self) -> String {
        let mut s = String::new();
        let mut kv = |k: &str, v: String| {
            s.push_str(k);
            s.push('=');
            s.push_str(&v);
            s.push('\n');
        };
        let (cfg, setup) = (&self.cfg, &self.cfg.setup);
        kv("rank", self.rank.to_string());
        kv("world", setup.grid.dp_degree().to_string());
        kv("token", self.token.to_string());
        kv("socket_dir", self.socket_dir.display().to_string());
        kv("snapshot_dir", cfg.snapshot_dir.display().to_string());
        if let Some(r) = &self.restore_dir {
            kv("restore_dir", r.display().to_string());
        }
        kv("result_path", self.result_path.display().to_string());
        kv("progress_path", self.progress_path.display().to_string());

        kv("vocab", setup.model.vocab.to_string());
        kv("seq", setup.model.seq.to_string());
        kv("hidden", setup.model.hidden.to_string());
        kv("layers", setup.model.layers.to_string());
        kv("heads", setup.model.heads.to_string());

        let z = &setup.zero;
        kv(
            "stage",
            match z.stage {
                ZeroStage::Ddp => "ddp".into(),
                ZeroStage::One => "1".into(),
                ZeroStage::Two => "2".into(),
                ZeroStage::Three => "3".into(),
            },
        );
        kv("fp16", z.fp16.to_string());
        kv("checkpoint_activations", z.checkpoint_activations.to_string());
        kv("checkpoint_interval", z.checkpoint_interval.to_string());
        kv("partition_activations", z.partition_activations.to_string());
        kv("offload_checkpoints", z.offload_checkpoints.to_string());
        kv("bucket_elems", z.bucket_elems.to_string());
        kv("use_arena", z.use_arena.to_string());
        kv("initial_loss_scale", f32_hex(z.initial_loss_scale));
        if let Some(c) = z.clip_grad_norm {
            kv("clip_grad_norm", f64_hex(c));
        }
        kv("dropout", f32_hex(z.dropout));
        if let Some(n) = z.node_size {
            kv("node_size", n.to_string());
        }
        kv("overlap", z.overlap.to_string());
        let c = &z.compression;
        kv(
            "compression",
            format!("{}:{}:{}:{}:{}", c.qwz, c.hpz, c.qgz, c.node_size, c.block),
        );
        let t = &z.tier;
        kv(
            "tier",
            format!(
                "{}:{}:{}:{}:{}",
                t.enabled,
                t.device_budget,
                t.host_bw,
                t.host_lat.as_nanos(),
                t.depth
            ),
        );
        match &z.optimizer {
            OptimizerKind::Adam(a) => kv(
                "optimizer",
                format!(
                    "adam:{}:{}:{}:{}:{}",
                    f32_hex(a.lr),
                    f32_hex(a.beta1),
                    f32_hex(a.beta2),
                    f32_hex(a.eps),
                    f32_hex(a.weight_decay)
                ),
            ),
            OptimizerKind::Sgd(c) => kv(
                "optimizer",
                format!("sgd:{}:{}", f32_hex(c.lr), f32_hex(c.momentum)),
            ),
        }
        match z.lr_schedule {
            LrSchedule::Constant => kv("lr_schedule", "constant".into()),
            LrSchedule::Warmup { warmup } => kv("lr_schedule", format!("warmup:{warmup}")),
            LrSchedule::WarmupLinear {
                warmup,
                total,
                floor,
            } => kv(
                "lr_schedule",
                format!("warmup_linear:{warmup}:{total}:{}", f32_hex(floor)),
            ),
            LrSchedule::WarmupCosine {
                warmup,
                total,
                floor,
            } => kv(
                "lr_schedule",
                format!("warmup_cosine:{warmup}:{total}:{}", f32_hex(floor)),
            ),
        }

        kv("global_batch", setup.global_batch.to_string());
        kv("seed", setup.seed.to_string());
        kv("steps", cfg.steps.to_string());
        kv("start_step", self.start_step.to_string());
        kv("snapshot_every", cfg.snapshot_every.to_string());
        kv("max_recoveries", cfg.max_recoveries.to_string());
        kv("recv_timeout_ms", cfg.recv_timeout.as_millis().to_string());
        kv("heartbeat_ms", self.heartbeat_interval.as_millis().to_string());
        kv("liveness_ms", self.liveness_timeout.as_millis().to_string());
        kv("handshake_ms", self.handshake_timeout.as_millis().to_string());

        kv("fault_seed", cfg.faults.seed().to_string());
        for f in cfg.faults.specs() {
            kv("fault", serialize_fault(f));
        }
        s
    }

    fn parse(text: &str) -> Result<WorkerSpec, String> {
        let kv = Kv::parse(text);
        let model = ModelConfig {
            vocab: kv.req("vocab")?,
            seq: kv.req("seq")?,
            hidden: kv.req("hidden")?,
            layers: kv.req("layers")?,
            heads: kv.req("heads")?,
        };
        let stage = match kv.str("stage")? {
            "ddp" => ZeroStage::Ddp,
            "1" => ZeroStage::One,
            "2" => ZeroStage::Two,
            "3" => ZeroStage::Three,
            other => return Err(format!("unknown stage {other:?}")),
        };
        let optimizer = parse_optimizer(kv.str("optimizer")?)?;
        let lr_schedule = parse_schedule(kv.str("lr_schedule")?)?;
        let zero = ZeroConfig {
            stage,
            fp16: kv.req("fp16")?,
            checkpoint_activations: kv.req("checkpoint_activations")?,
            checkpoint_interval: kv.req("checkpoint_interval")?,
            partition_activations: kv.req("partition_activations")?,
            offload_checkpoints: kv.req("offload_checkpoints")?,
            bucket_elems: kv.req("bucket_elems")?,
            use_arena: kv.req("use_arena")?,
            initial_loss_scale: kv.f32_bits("initial_loss_scale")?,
            clip_grad_norm: kv.opt_f64_bits("clip_grad_norm")?,
            optimizer,
            lr_schedule,
            dropout: kv.f32_bits("dropout")?,
            node_size: kv.opt("node_size")?,
            overlap: kv.req("overlap")?,
            compression: match kv.get("compression") {
                Some(s) => parse_compression(s)?,
                None => CompressionConfig::off(),
            },
            tier: match kv.get("tier") {
                Some(s) => parse_tier(s)?,
                None => TierConfig::off(),
            },
        };
        let mut faults = FaultPlan::seeded(kv.req("fault_seed")?);
        for line in kv.all("fault") {
            faults = faults.with(parse_fault(line)?);
        }
        let setup = TrainSetup {
            model,
            zero,
            grid: Grid::new(kv.req("world")?, 1),
            global_batch: kv.req("global_batch")?,
            seed: kv.req("seed")?,
        };
        let mut cfg =
            SupervisorConfig::new(setup, kv.req("steps")?, PathBuf::from(kv.str("snapshot_dir")?));
        cfg.snapshot_every = kv.req("snapshot_every")?;
        cfg.max_recoveries = kv.req("max_recoveries")?;
        cfg.recv_timeout = Duration::from_millis(kv.req("recv_timeout_ms")?);
        cfg.faults = faults;
        Ok(WorkerSpec {
            cfg,
            rank: kv.req("rank")?,
            start_step: kv.req("start_step")?,
            token: kv.req("token")?,
            socket_dir: PathBuf::from(kv.str("socket_dir")?),
            heartbeat_interval: Duration::from_millis(kv.req("heartbeat_ms")?),
            liveness_timeout: Duration::from_millis(kv.req("liveness_ms")?),
            handshake_timeout: Duration::from_millis(kv.req("handshake_ms")?),
            restore_dir: kv.get("restore_dir").map(PathBuf::from),
            result_path: PathBuf::from(kv.str("result_path")?),
            progress_path: PathBuf::from(kv.str("progress_path")?),
        })
    }
}

fn serialize_fault(f: &FaultSpec) -> String {
    let trigger = match f.trigger {
        FaultTrigger::AtOp(n) => format!("op:{n}"),
        FaultTrigger::AtKindOp(kind, n) => format!("kindop:{}:{n}", kind.name()),
    };
    let kind = match f.kind {
        FaultKind::Crash => "crash".to_string(),
        FaultKind::Hang => "hang".to_string(),
        FaultKind::CorruptNextSend => "corrupt".to_string(),
        FaultKind::Delay(d) => format!("delay:{}", d.as_millis()),
    };
    format!("rank:{};{trigger};{kind}", f.rank)
}

fn parse_fault(line: &str) -> Result<FaultSpec, String> {
    let parts: Vec<&str> = line.split(';').collect();
    let [rank_part, trigger_part, kind_part] = parts.as_slice() else {
        return Err(format!("fault spec {line:?} needs 3 ;-separated parts"));
    };
    let rank = rank_part
        .strip_prefix("rank:")
        .and_then(|r| r.parse().ok())
        .ok_or_else(|| format!("bad fault rank in {line:?}"))?;
    let trigger = if let Some(n) = trigger_part.strip_prefix("op:") {
        FaultTrigger::AtOp(n.parse().map_err(|_| format!("bad op in {line:?}"))?)
    } else if let Some(rest) = trigger_part.strip_prefix("kindop:") {
        let (name, n) = rest
            .rsplit_once(':')
            .ok_or_else(|| format!("bad kindop in {line:?}"))?;
        let kind = ALL_KINDS
            .iter()
            .copied()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown collective kind {name:?}"))?;
        FaultTrigger::AtKindOp(kind, n.parse().map_err(|_| format!("bad op in {line:?}"))?)
    } else {
        return Err(format!("bad fault trigger in {line:?}"));
    };
    let kind = match *kind_part {
        "crash" => FaultKind::Crash,
        "hang" => FaultKind::Hang,
        "corrupt" => FaultKind::CorruptNextSend,
        other => {
            let ms = other
                .strip_prefix("delay:")
                .and_then(|d| d.parse().ok())
                .ok_or_else(|| format!("bad fault kind in {line:?}"))?;
            FaultKind::Delay(Duration::from_millis(ms))
        }
    };
    Ok(FaultSpec {
        rank,
        trigger,
        kind,
    })
}

fn parse_tier(text: &str) -> Result<TierConfig, String> {
    let parts: Vec<&str> = text.split(':').collect();
    match parts.as_slice() {
        [enabled, budget, bw, lat_ns, depth] => Ok(TierConfig {
            enabled: enabled.parse().map_err(|e| format!("tier enabled: {e}"))?,
            device_budget: budget.parse().map_err(|e| format!("tier device_budget: {e}"))?,
            host_bw: bw.parse().map_err(|e| format!("tier host_bw: {e}"))?,
            host_lat: Duration::from_nanos(
                lat_ns.parse().map_err(|e| format!("tier host_lat: {e}"))?,
            ),
            depth: depth.parse().map_err(|e| format!("tier depth: {e}"))?,
        }),
        _ => Err(format!("malformed tier spec {text:?}")),
    }
}

fn parse_compression(text: &str) -> Result<CompressionConfig, String> {
    let parts: Vec<&str> = text.split(':').collect();
    match parts.as_slice() {
        [qwz, hpz, qgz, node_size, block] => Ok(CompressionConfig {
            qwz: qwz.parse().map_err(|e| format!("compression qwz: {e}"))?,
            hpz: hpz.parse().map_err(|e| format!("compression hpz: {e}"))?,
            qgz: qgz.parse().map_err(|e| format!("compression qgz: {e}"))?,
            node_size: node_size.parse().map_err(|e| format!("compression node_size: {e}"))?,
            block: block.parse().map_err(|e| format!("compression block: {e}"))?,
        }),
        _ => Err(format!("malformed compression spec {text:?}")),
    }
}

fn parse_optimizer(text: &str) -> Result<OptimizerKind, String> {
    let parts: Vec<&str> = text.split(':').collect();
    match parts.as_slice() {
        ["adam", lr, b1, b2, eps, wd] => Ok(OptimizerKind::Adam(AdamConfig {
            lr: parse_f32_bits(lr)?,
            beta1: parse_f32_bits(b1)?,
            beta2: parse_f32_bits(b2)?,
            eps: parse_f32_bits(eps)?,
            weight_decay: parse_f32_bits(wd)?,
        })),
        ["sgd", lr, momentum] => Ok(OptimizerKind::Sgd(SgdConfig {
            lr: parse_f32_bits(lr)?,
            momentum: parse_f32_bits(momentum)?,
        })),
        _ => Err(format!("unknown optimizer {text:?}")),
    }
}

fn parse_schedule(text: &str) -> Result<LrSchedule, String> {
    let parts: Vec<&str> = text.split(':').collect();
    match parts.as_slice() {
        ["constant"] => Ok(LrSchedule::Constant),
        ["warmup", w] => Ok(LrSchedule::Warmup {
            warmup: w.parse().map_err(|_| format!("bad warmup in {text:?}"))?,
        }),
        ["warmup_linear", w, t, f] => Ok(LrSchedule::WarmupLinear {
            warmup: w.parse().map_err(|_| format!("bad warmup in {text:?}"))?,
            total: t.parse().map_err(|_| format!("bad total in {text:?}"))?,
            floor: parse_f32_bits(f)?,
        }),
        ["warmup_cosine", w, t, f] => Ok(LrSchedule::WarmupCosine {
            warmup: w.parse().map_err(|_| format!("bad warmup in {text:?}"))?,
            total: t.parse().map_err(|_| format!("bad total in {text:?}"))?,
            floor: parse_f32_bits(f)?,
        }),
        _ => Err(format!("unknown lr schedule {text:?}")),
    }
}

fn parse_f32_bits(hex: &str) -> Result<f32, String> {
    u32::from_str_radix(hex, 16)
        .map(f32::from_bits)
        .map_err(|_| format!("bad f32 bit pattern {hex:?}"))
}

fn parse_f64_bits(hex: &str) -> Result<f64, String> {
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bit pattern {hex:?}"))
}

/// The result-file codec: floats travel as bit patterns so the driver's
/// stitched history is bitwise identical to an in-process run.
impl RankResult {
    fn serialize(&self) -> String {
        let losses: Vec<String> = self.losses.iter().map(|l| f32_hex(*l)).collect();
        let traffic: Vec<String> = self
            .traffic
            .iter()
            .map(|(name, b, m)| format!("{name}:{b}:{m}"))
            .collect();
        let mut s = String::new();
        s.push_str(&format!("losses={}\n", losses.join(",")));
        if let Some(eval) = self.eval {
            s.push_str(&format!("eval={}\n", f32_hex(eval)));
        }
        if let Some(err) = &self.error {
            // Result files are line-oriented; typed comm errors render on
            // one line, but don't let a future multi-line Display tear it.
            s.push_str(&format!("error={}\n", err.replace('\n', " ")));
        }
        s.push_str(&format!("self_fault={}\n", self.self_fault));
        s.push_str(&format!("restore_spans={}\n", self.restore_spans));
        s.push_str(&format!("traffic={}\n", traffic.join(";")));
        s
    }

    fn parse(text: &str) -> Result<RankResult, String> {
        let kv = Kv::parse(text);
        let losses = kv
            .str("losses")?
            .split(',')
            .filter(|part| !part.is_empty())
            .map(parse_f32_bits)
            .collect::<Result<Vec<f32>, String>>()?;
        let eval = match kv.get("eval") {
            Some(hex) => Some(parse_f32_bits(hex)?),
            None => None,
        };
        let traffic = kv
            .str("traffic")?
            .split(';')
            .filter(|part| !part.is_empty())
            .map(|part| {
                let fields: Vec<&str> = part.split(':').collect();
                let [name, b, m] = fields.as_slice() else {
                    return Err(format!("bad traffic entry {part:?}"));
                };
                let parsed_b = b.parse().map_err(|_| format!("bad bytes in {part:?}"))?;
                let parsed_m = m.parse().map_err(|_| format!("bad count in {part:?}"))?;
                Ok((name.to_string(), parsed_b, parsed_m))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RankResult {
            losses,
            eval,
            error: kv.get("error").map(str::to_string),
            self_fault: kv.req("self_fault")?,
            restore_spans: kv.req("restore_spans")?,
            traffic,
        })
    }
}

/// Write-then-rename so readers never observe a torn file: the rename is
/// what commits a worker's result (or progress tick).
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Minimal line-oriented `key=value` store with typed, error-reporting
/// accessors. Repeated keys are kept in order (fault specs).
struct Kv<'a> {
    entries: Vec<(&'a str, &'a str)>,
}

impl<'a> Kv<'a> {
    fn parse(text: &'a str) -> Kv<'a> {
        let entries = text
            .lines()
            .filter_map(|line| line.split_once('='))
            .map(|(k, v)| (k.trim(), v.trim()))
            .collect();
        Kv { entries }
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    fn all(&self, key: &str) -> impl Iterator<Item = &'a str> + '_ {
        let key = key.to_string();
        self.entries
            .iter()
            .filter(move |(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    fn req<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("unparseable value for {key:?}"))
    }

    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("unparseable value for {key:?}")),
        }
    }

    fn f32_bits(&self, key: &str) -> Result<f32, String> {
        parse_f32_bits(self.str(key)?)
    }

    fn opt_f64_bits(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(hex) => parse_f64_bits(hex).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zero_comm::CollectiveKind;

    fn sample_spec() -> WorkerSpec {
        let mut zero = ZeroConfig::fp32_exact(ZeroStage::Two);
        zero.bucket_elems = 512;
        zero.clip_grad_norm = Some(0.75);
        zero.lr_schedule = LrSchedule::WarmupCosine {
            warmup: 3,
            total: 50,
            floor: 0.1,
        };
        let setup = TrainSetup {
            model: ModelConfig {
                vocab: 32,
                seq: 8,
                hidden: 16,
                layers: 2,
                heads: 2,
            },
            zero,
            grid: Grid::new(4, 1),
            global_batch: 12,
            seed: 11,
        };
        let mut cfg = SupervisorConfig::new(setup, 20, PathBuf::from("/tmp/snaps"));
        cfg.snapshot_every = 4;
        cfg.max_recoveries = 2;
        cfg.recv_timeout = Duration::from_millis(500);
        cfg.faults = FaultPlan::seeded(99)
            .with_crash(2, 7)
            .with_crash_at_kind(1, CollectiveKind::AllGather, 3)
            .with_hang(0, 40)
            .with_corruption(1, 25)
            .with_delay(3, 2, Duration::from_millis(15));
        WorkerSpec {
            cfg,
            rank: 2,
            start_step: 5,
            token: 0xDEAD_BEEF_CAFE,
            socket_dir: PathBuf::from("/tmp/fabric"),
            heartbeat_interval: Duration::from_millis(30),
            liveness_timeout: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(10),
            restore_dir: Some(PathBuf::from("/tmp/restore-0")),
            result_path: PathBuf::from("/tmp/result-2.txt"),
            progress_path: PathBuf::from("/tmp/progress-2.txt"),
        }
    }

    #[test]
    fn worker_spec_round_trips_exactly() {
        let spec = sample_spec();
        let parsed = WorkerSpec::parse(&spec.serialize()).expect("parse spec");
        assert_eq!(parsed.rank, spec.rank);
        assert_eq!(parsed.start_step, spec.start_step);
        assert_eq!(parsed.token, spec.token);
        assert_eq!(parsed.socket_dir, spec.socket_dir);
        assert_eq!(parsed.restore_dir, spec.restore_dir);
        assert_eq!(parsed.result_path, spec.result_path);
        assert_eq!(parsed.progress_path, spec.progress_path);
        let (cfg, want) = (&parsed.cfg, &spec.cfg);
        assert_eq!(cfg.setup.model, want.setup.model);
        assert_eq!(cfg.setup.zero, want.setup.zero);
        assert_eq!(cfg.setup.grid, want.setup.grid);
        assert_eq!(cfg.setup.global_batch, want.setup.global_batch);
        assert_eq!(cfg.setup.seed, want.setup.seed);
        assert_eq!(cfg.steps, want.steps);
        assert_eq!(cfg.snapshot_every, want.snapshot_every);
        assert_eq!(cfg.snapshot_dir, want.snapshot_dir);
        assert_eq!(cfg.max_recoveries, want.max_recoveries);
        assert_eq!(cfg.recv_timeout, want.recv_timeout);
        assert_eq!(cfg.faults.seed(), want.faults.seed());
        assert_eq!(cfg.faults.specs(), want.faults.specs());
        assert_eq!(parsed.heartbeat_interval, spec.heartbeat_interval);
        assert_eq!(parsed.liveness_timeout, spec.liveness_timeout);
        assert_eq!(parsed.handshake_timeout, spec.handshake_timeout);
        // The mesh every rank dials is derived from the spec alone.
        let fabric = parsed.fabric();
        assert_eq!((fabric.world, fabric.token), (4, spec.token));
        assert_eq!(fabric.recv_timeout, spec.cfg.recv_timeout);
        assert_eq!(fabric.faults.specs(), spec.cfg.faults.specs());
    }

    #[test]
    fn worker_spec_floats_survive_bitwise() {
        let mut spec = sample_spec();
        // Values with no short decimal representation.
        let zero = &mut spec.cfg.setup.zero;
        if let OptimizerKind::Adam(a) = &mut zero.optimizer {
            a.lr = f32::from_bits(0x3a83_126f);
            a.eps = f32::MIN_POSITIVE;
        }
        zero.dropout = f32::from_bits(0x3e99_999a);
        zero.clip_grad_norm = Some(f64::from_bits(0x3FB9_9999_9999_999A));
        let parsed = WorkerSpec::parse(&spec.serialize()).expect("parse spec");
        assert_eq!(parsed.cfg.setup.zero, spec.cfg.setup.zero);
    }

    #[test]
    fn worker_result_round_trips_bitwise_including_nan_free_extremes() {
        let res = RankResult {
            losses: vec![f32::from_bits(0x7f7f_ffff), 1.5e-40, -0.0],
            eval: Some(f32::from_bits(0x0000_0001)),
            error: Some("rank 1 lost peer 2".to_string()),
            self_fault: true,
            restore_spans: 2,
            traffic: vec![
                ("all-reduce".into(), 123_456, 42),
                ("p2p".into(), 0, 0),
            ],
        };
        let parsed = RankResult::parse(&res.serialize()).expect("parse result");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&parsed.losses), bits(&res.losses));
        assert_eq!(parsed.eval.map(f32::to_bits), res.eval.map(f32::to_bits));
        assert_eq!(parsed.error, res.error);
        assert!(parsed.self_fault);
        assert_eq!(parsed.restore_spans, 2);
        assert_eq!(parsed.traffic, res.traffic);
    }

    #[test]
    fn empty_loss_list_round_trips() {
        let res = RankResult {
            losses: Vec::new(),
            eval: None,
            error: None,
            self_fault: false,
            restore_spans: 0,
            traffic: Vec::new(),
        };
        let parsed = RankResult::parse(&res.serialize()).expect("parse result");
        assert!(parsed.losses.is_empty());
        assert!(parsed.eval.is_none());
        assert!(parsed.error.is_none());
    }

    #[test]
    fn malformed_spec_reports_missing_keys_not_panics() {
        let err = WorkerSpec::parse("rank=0\nworld=2\n").expect_err("must fail");
        assert!(err.contains("missing key"), "got {err}");
        let err = WorkerSpec::parse("").expect_err("must fail");
        assert!(err.contains("missing key"), "got {err}");
    }
}
