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
//! The driver writes one *spec file* per rank (the [`SupervisorConfig`],
//! the round's start step and fault plan, socket/restore/result paths)
//! and spawns the caller's worker command with `ZERO_WORKER_SPEC`
//! pointing at it. Any binary whose `main` (or a test
//! shim) calls [`maybe_run_worker`] first can host a rank — `zero-train`
//! does, and so do the integration tests by re-executing it.
//!
//! Workers report through the filesystem, never through pipes: a
//! per-step `progress` file (the kill watcher's trigger), and an
//! atomically renamed `result` file carrying the rank's `RankResult`. A
//! rank that dies — by SIGKILL or panic — simply never renames its result
//! file, which is exactly how the driver detects death.
//!
//! Spec and result files are positional records in the section codec of
//! [`crate::snapshot`] — the crate's one on-disk format: little-endian
//! words, floats as bit patterns, durations as nanoseconds, paths as raw
//! bytes, a CRC32 trailer. A spec lives for one round between two copies
//! of the same binary, so it carries no field names and no version; a
//! truncated or damaged file is a typed [`SnapshotError`] (worker exit 2,
//! or a "bad result file" rank fate), never a panic.

use std::ffi::OsString;
use std::io::{self, Write as _};
use std::os::unix::ffi::{OsStrExt as _, OsStringExt as _};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use zero_comm::{
    connect_process_rank, CollectiveKind, FaultKind, FaultPlan, FaultSpec, FaultTrigger, Grid,
    ProcessWorldConfig, RankProcs, ALL_KINDS,
};
use zero_model::ModelConfig;
use zero_optim::{AdamConfig, SgdConfig};

use crate::config::{CkptPlace, CompressionConfig, OptimizerKind, TierConfig, ZeroConfig, ZeroStage};
use crate::snapshot::{RankSnapshot, SectionReader, SectionWriter, SnapshotError};
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

/// Wall-clock budget for one round; children still alive at the deadline
/// are killed (and the round treated as failed).
const ROUND_TIMEOUT: Duration = Duration::from_secs(300);

/// Driver options: worker command, scratch layout, and fault injection.
/// Every rank's mesh takes [`ProcessWorldConfig::new`]'s timing.
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
}

impl ProcessWorldOptions {
    /// Spawns `worker` under `run_dir`, with no SIGKILL injection.
    pub fn new(worker: WorkerCommand, run_dir: impl Into<PathBuf>) -> ProcessWorldOptions {
        ProcessWorldOptions { worker, run_dir: run_dir.into(), kill: None }
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
            restore_dir: restore_dir.clone(),
            result_path: round_dir.join(format!("result-{rank}.bin")),
            progress_path: round_dir.join(format!("progress-{rank}.txt")),
        })
        .collect();
    let cmds: Vec<Command> = specs
        .iter()
        .map(|spec| {
            let spec_path = round_dir.join(format!("spec-{}.bin", spec.rank));
            std::fs::write(&spec_path, to_record(spec)).expect("write worker spec");
            opts.worker.command(&spec_path)
        })
        .collect();
    let mut procs = RankProcs::spawn(cmds).expect("spawn rank processes");

    // Kill watcher: poll the victim's progress file and SIGKILL it the
    // moment it has completed `after_step` steps — a genuinely
    // asynchronous death in the middle of the following step.
    if let (0, Some(kill)) = (round.index, opts.kill) {
        assert!(kill.rank < world, "kill target outside the world");
        let deadline = Instant::now() + ROUND_TIMEOUT;
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

    procs.wait_all(Instant::now() + ROUND_TIMEOUT);

    specs
        .iter()
        .map(|spec| {
            let rank = spec.rank;
            if procs.died_of_signal(rank) {
                return Err(format!("rank {rank}: killed by signal"));
            }
            match std::fs::read(&spec.result_path) {
                Ok(bytes) => {
                    from_record(&bytes).map_err(|e| format!("rank {rank}: bad result file: {e}"))
                }
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
    let code = match std::fs::read(&spec_path) {
        Ok(bytes) => run_worker(&bytes),
        Err(e) => {
            eprintln!("zero worker: cannot read spec {spec_path}: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run_worker(spec: &[u8]) -> i32 {
    let spec: WorkerSpec = match from_record(spec) {
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
                write_atomic(&spec.progress_path, format!("{done}\n").as_bytes())
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
    match write_atomic(&spec.result_path, &to_record(&result)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("zero worker rank {}: cannot write result: {e}", spec.rank);
            4
        }
    }
}

// ---------------------------------------------------------------------------
// Spec + result files: positional records in the snapshot section codec
// ---------------------------------------------------------------------------

/// Everything one rank process needs, self-contained.
#[derive(Clone, Debug)]
struct WorkerSpec {
    /// The run's configuration as this round sees it: the round's fault
    /// plan, a grid of the round's world.
    cfg: SupervisorConfig,
    rank: usize,
    start_step: u64,
    token: u64,
    socket_dir: PathBuf,
    restore_dir: Option<PathBuf>,
    result_path: PathBuf,
    progress_path: PathBuf,
}

impl WorkerSpec {
    /// The round's mesh, as every one of its ranks must describe it.
    fn fabric(&self) -> ProcessWorldConfig {
        let mut fabric =
            ProcessWorldConfig::new(&self.socket_dir, self.cfg.setup.grid.dp_degree());
        fabric.token = self.token;
        fabric.recv_timeout = self.cfg.recv_timeout;
        fabric.faults = self.cfg.faults.clone();
        fabric
    }
}

type Enc<'a> = SectionWriter<&'a mut Vec<u8>>;
type Dec<'a> = SectionReader<&'a [u8]>;

/// A value with a place in a spec or result record. Records are
/// positional, so `put` and `get` must visit the same parts in the same
/// order; `record!` guarantees that for structs by generating both from
/// one field list.
trait Field: Sized {
    fn put(&self, w: &mut Enc) -> io::Result<()>;
    fn get(r: &mut Dec) -> Result<Self, SnapshotError>;
}

/// One CRC-closed record holding `value`.
fn to_record(value: &impl Field) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = SectionWriter::new(&mut buf);
    value.put(&mut w).and_then(|()| w.finish()).expect("writing to memory cannot fail");
    buf
}

/// The value `record` holds, decoded only once its CRC has checked out.
fn from_record<T: Field>(record: &[u8]) -> Result<T, SnapshotError> {
    T::get(&mut SectionReader::verified(record)?)
}

/// A scalar that travels as one word; `None` from `$from` is a word no
/// writer produces.
macro_rules! word {
    ($ty:ty, |$v:ident| $to:expr, |$w:ident| $from:expr) => {
        impl Field for $ty {
            fn put(&self, w: &mut Enc) -> io::Result<()> {
                let $v = *self;
                w.u64($to)
            }
            fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
                let $w = r.u64()?;
                $from.ok_or(SnapshotError::ImplausibleLength($w))
            }
        }
    };
}
word!(u64, |v| v, |w| Some(w));
word!(usize, |v| v as u64, |w| Some(w as usize));
word!(bool, |v| v as u64, |w| Some(w != 0));
word!(f32, |v| v.to_bits() as u64, |w| Some(f32::from_bits(w as u32)));
word!(f64, |v| v.to_bits(), |w| Some(f64::from_bits(w)));
// Whole nanoseconds: a 500 µs timeout must not reach the worker as 0.
word!(Duration, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX), |w| Some(Duration::from_nanos(w)));
word!(CollectiveKind, |k| k as u64, |w| ALL_KINDS.get(w as usize).copied());
word!(ZeroStage, |s| s as u64, |w| {
    [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three].get(w as usize).copied()
});
word!(CkptPlace, |p| p as u64, |w| {
    [CkptPlace::Whole, CkptPlace::Partitioned, CkptPlace::Host].get(w as usize).copied()
});

impl Field for PathBuf {
    /// The path's raw bytes: not every path is UTF-8 or free of newlines.
    fn put(&self, w: &mut Enc) -> io::Result<()> {
        w.bytes(self.as_os_str().as_bytes())
    }
    fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
        Ok(PathBuf::from(OsString::from_vec(r.bytes()?)))
    }
}

impl Field for String {
    fn put(&self, w: &mut Enc) -> io::Result<()> {
        w.bytes(self.as_bytes())
    }
    fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
        Ok(String::from_utf8_lossy(&r.bytes()?).into_owned())
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, w: &mut Enc) -> io::Result<()> {
        self.is_some().put(w)?;
        self.iter().try_for_each(|v| v.put(w))
    }
    fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, w: &mut Enc) -> io::Result<()> {
        self.len().put(w)?;
        self.iter().try_for_each(|v| v.put(w))
    }
    fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
        // Grows with the elements actually present, not the declared count.
        (0..usize::get(r)?).map(|_| T::get(r)).collect()
    }
}

/// A tuple is its parts in order (a sum type's tag, then its payload).
macro_rules! tuple {
    ($($part:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($part: Field),+> Field for ($($part,)+) {
            fn put(&self, w: &mut Enc) -> io::Result<()> {
                let ($($part,)+) = self;
                $($part.put(w)?;)+
                Ok(())
            }
            fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
                Ok(($($part::get(r)?,)+))
            }
        }
    };
}
tuple!(A, B);
tuple!(A, B, C);
tuple!(A, B, C, D);

/// A struct is its fields in the order listed — listed once, for both
/// directions, and the struct literal refuses a list that misses one.
macro_rules! record {
    ($ty:ty { $($field:ident),+ }) => {
        impl Field for $ty {
            fn put(&self, w: &mut Enc) -> io::Result<()> {
                $(self.$field.put(w)?;)+
                Ok(())
            }
            fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
                Ok(Self { $($field: Field::get(r)?),+ })
            }
        }
    };
}
record!(ModelConfig { vocab, seq, hidden, layers, heads });
record!(AdamConfig { lr, beta1, beta2, eps, weight_decay });
record!(SgdConfig { lr, momentum });
record!(CompressionConfig { qwz, hpz, qgz });
record!(TierConfig { enabled, device_budget, host_bw, host_lat, depth });
record!(ZeroConfig {
    stage, fp16, checkpoint_activations, checkpoint_interval, checkpoint_place, bucket_elems,
    initial_loss_scale, clip_grad_norm, optimizer, node_size, overlap, compression, tier
});
record!(TrainSetup { model, zero, grid, global_batch, seed });
record!(FaultSpec { rank, trigger, kind });
record!(SupervisorConfig {
    setup, steps, snapshot_every, snapshot_dir, faults, recv_timeout, max_recoveries
});
record!(WorkerSpec {
    cfg, rank, start_step, token, socket_dir, restore_dir, result_path, progress_path
});
// Floats travel as bit patterns, so the driver's stitched history is
// bitwise identical to an in-process run.
record!(RankResult { losses, eval, error, self_fault, restore_spans, traffic });

impl Field for Grid {
    /// The DP degree: `supervise` admits pure data-parallel grids only.
    fn put(&self, w: &mut Enc) -> io::Result<()> {
        self.dp_degree().put(w)
    }
    fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
        Ok(Grid::new(usize::get(r)?, 1))
    }
}

impl Field for FaultPlan {
    fn put(&self, w: &mut Enc) -> io::Result<()> {
        (self.seed(), self.specs().to_vec()).put(w)
    }
    fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
        let (seed, specs): (u64, Vec<FaultSpec>) = Field::get(r)?;
        Ok(specs.into_iter().fold(FaultPlan::seeded(seed), FaultPlan::with))
    }
}

impl Field for FaultTrigger {
    fn put(&self, w: &mut Enc) -> io::Result<()> {
        match *self {
            FaultTrigger::AtOp(nth) => (0u64, nth).put(w),
            FaultTrigger::AtKindOp(kind, nth) => (1u64, kind, nth).put(w),
        }
    }
    fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
        match u64::get(r)? {
            0 => Ok(FaultTrigger::AtOp(Field::get(r)?)),
            1 => Ok(FaultTrigger::AtKindOp(Field::get(r)?, Field::get(r)?)),
            tag => Err(SnapshotError::ImplausibleLength(tag)),
        }
    }
}

impl Field for FaultKind {
    fn put(&self, w: &mut Enc) -> io::Result<()> {
        match *self {
            FaultKind::Crash => 0u64.put(w),
            FaultKind::Hang => 1u64.put(w),
            FaultKind::CorruptNextSend => 2u64.put(w),
            FaultKind::Delay(delay) => (3u64, delay).put(w),
        }
    }
    fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
        match u64::get(r)? {
            0 => Ok(FaultKind::Crash),
            1 => Ok(FaultKind::Hang),
            2 => Ok(FaultKind::CorruptNextSend),
            3 => Ok(FaultKind::Delay(Field::get(r)?)),
            tag => Err(SnapshotError::ImplausibleLength(tag)),
        }
    }
}

impl Field for OptimizerKind {
    fn put(&self, w: &mut Enc) -> io::Result<()> {
        match *self {
            OptimizerKind::Adam(adam) => (0u64, adam).put(w),
            OptimizerKind::Sgd(sgd) => (1u64, sgd).put(w),
        }
    }
    fn get(r: &mut Dec) -> Result<Self, SnapshotError> {
        match u64::get(r)? {
            0 => Ok(OptimizerKind::Adam(Field::get(r)?)),
            1 => Ok(OptimizerKind::Sgd(Field::get(r)?)),
            tag => Err(SnapshotError::ImplausibleLength(tag)),
        }
    }
}

/// Write-then-rename so readers never observe a torn file: the rename is
/// what commits a worker's result (or progress tick).
fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> WorkerSpec {
        let mut zero = ZeroConfig::fp32_exact(ZeroStage::Two);
        zero.bucket_elems = 512;
        zero.clip_grad_norm = Some(0.75);
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
            restore_dir: Some(PathBuf::from("/tmp/restore-0")),
            result_path: PathBuf::from("/tmp/result-2.bin"),
            progress_path: PathBuf::from("/tmp/progress-2.txt"),
        }
    }

    /// Decodes `spec`'s encoding and requires every field back (`Debug`
    /// prints them all, floats in shortest round-trip form) and the same
    /// bytes when encoded again.
    fn round_trip(spec: &WorkerSpec) -> WorkerSpec {
        let bytes = to_record(spec);
        let parsed: WorkerSpec = from_record(&bytes).expect("decode spec");
        assert_eq!(format!("{parsed:?}"), format!("{spec:?}"));
        assert_eq!(to_record(&parsed), bytes);
        parsed
    }

    #[test]
    fn worker_spec_round_trips_every_variant_and_option_state() {
        let spec = sample_spec();
        // The sample holds every FaultKind and both FaultTrigger variants.
        let parsed = round_trip(&spec);
        // The mesh every rank dials is derived from the spec alone.
        let fabric = parsed.fabric();
        assert_eq!((fabric.world, fabric.token), (4, spec.token));
        assert_eq!(fabric.recv_timeout, spec.cfg.recv_timeout);
        assert_eq!(fabric.faults.specs(), spec.cfg.faults.specs());

        let optimizers = [
            OptimizerKind::Adam(AdamConfig { lr: 3e-4, beta1: 0.8, beta2: 0.95, eps: 1e-6, weight_decay: 0.01 }),
            OptimizerKind::Sgd(SgdConfig { lr: 0.05, momentum: 0.9 }),
        ];
        for (i, optimizer) in optimizers.into_iter().enumerate() {
            let some = i % 2 == 0;
            let mut spec = sample_spec();
            spec.restore_dir = some.then(|| PathBuf::from("/tmp/restore-1"));
            let zero = &mut spec.cfg.setup.zero;
            zero.optimizer = optimizer;
            zero.clip_grad_norm = some.then_some(1.25);
            zero.node_size = if some { 1 } else { 2 };
            zero.checkpoint_place = if some { CkptPlace::Host } else { CkptPlace::Partitioned };
            zero.tier = TierConfig { host_lat: Duration::from_nanos(1500), ..TierConfig::budgeted(1 << 20) };
            zero.compression = CompressionConfig { qgz: some, hpz: !some, ..zero.compression };
            round_trip(&spec);
        }
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
        zero.initial_loss_scale = f32::from_bits(0x3e99_999a);
        zero.clip_grad_norm = Some(f64::from_bits(0x3FB9_9999_9999_999A));
        assert_eq!(round_trip(&spec).cfg.setup.zero, spec.cfg.setup.zero);
    }

    #[test]
    fn sub_millisecond_durations_and_raw_paths_cross_the_process_boundary() {
        // A text spec carried `as_millis()` and `display()`: 500 µs arrived
        // as a zero timeout, a path with a newline tore the file.
        let mut spec = sample_spec();
        spec.cfg.recv_timeout = Duration::from_micros(500);
        spec.cfg.faults = FaultPlan::seeded(1).with_delay(0, 3, Duration::from_micros(250));
        let run_dir = PathBuf::from(OsString::from_vec(b"/tmp/run\nresult_path=x/\xff".to_vec()));
        spec.socket_dir = run_dir.join("sockets");
        spec.result_path = run_dir.join("result-2.bin");
        spec.cfg.snapshot_dir = run_dir.join("snaps");
        let parsed = round_trip(&spec);
        assert_eq!(parsed.fabric().recv_timeout, Duration::from_micros(500));
        assert_eq!(parsed.cfg.faults.specs(), spec.cfg.faults.specs());
        for (got, want) in [
            (&parsed.socket_dir, &spec.socket_dir),
            (&parsed.result_path, &spec.result_path),
            (&parsed.cfg.snapshot_dir, &spec.cfg.snapshot_dir),
        ] {
            assert_eq!(got.as_os_str().as_bytes(), want.as_os_str().as_bytes());
        }
    }

    fn sample_result() -> RankResult {
        RankResult {
            losses: vec![f32::from_bits(0x7f7f_ffff), 1.5e-40, -0.0],
            eval: Some(f32::from_bits(0x0000_0001)),
            error: Some("rank 1 lost peer 2\nwhile waiting".to_string()),
            self_fault: true,
            restore_spans: 2,
            traffic: vec![
                ("all-reduce".into(), 123_456, 42),
                ("all-gather".into(), 0, 0),
            ],
        }
    }

    #[test]
    fn worker_result_round_trips_bitwise_including_nan_free_extremes() {
        let res = sample_result();
        let parsed: RankResult = from_record(&to_record(&res)).expect("decode result");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&parsed.losses), bits(&res.losses));
        assert_eq!(parsed.eval.map(f32::to_bits), res.eval.map(f32::to_bits));
        assert_eq!(parsed.error, res.error, "newlines included");
        assert!(parsed.self_fault);
        assert_eq!(parsed.restore_spans, 2);
        assert_eq!(parsed.traffic, res.traffic);
    }

    #[test]
    fn empty_loss_list_round_trips() {
        let parsed: RankResult =
            from_record(&to_record(&RankResult::default())).expect("decode result");
        assert!(parsed.losses.is_empty());
        assert!(parsed.eval.is_none());
        assert!(parsed.error.is_none());
        assert!(parsed.traffic.is_empty());
    }

    #[test]
    fn damaged_spec_and_result_files_are_typed_errors_never_panics() {
        let typed = |e: SnapshotError| {
            matches!(
                e,
                SnapshotError::Torn
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::ImplausibleLength(_)
            )
        };
        let (spec, result) = (to_record(&sample_spec()), to_record(&sample_result()));
        // Every truncation, and every single-bit flip, of both files.
        for len in 0..spec.len() {
            let err = from_record::<WorkerSpec>(&spec[..len]).expect_err("truncated spec");
            assert!(typed(err), "spec cut to {len} bytes");
            assert_eq!(run_worker(&spec[..len]), 2, "spec cut to {len} bytes");
        }
        for len in 0..result.len() {
            assert!(typed(from_record::<RankResult>(&result[..len]).expect_err("truncated result")));
        }
        for bit in 0..spec.len() * 8 {
            let mut bytes = spec.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let err = from_record::<WorkerSpec>(&bytes).expect_err("flipped spec");
            assert!(typed(err), "spec bit {bit}");
            assert_eq!(run_worker(&bytes), 2, "spec bit {bit}");
        }
        for bit in 0..result.len() * 8 {
            let mut bytes = result.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let err = from_record::<RankResult>(&bytes).expect_err("flipped result");
            assert!(typed(err), "result bit {bit}");
        }
    }
}
