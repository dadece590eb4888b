//! The process fabric's end-to-end guarantees, exercised with real spawned
//! rank processes (the `zero-train --zero-worker` re-exec shim):
//!
//! * a clean multi-process run's `SupervisedReport` equals the thread
//!   fabric's field by field — losses and eval bitwise, per-rank per-kind
//!   communication volumes exactly;
//! * the fault matrix's scripted crash cell produces equal reports on both
//!   fabrics (same dead rank, same rollback point, same stitched losses);
//! * a rank killed with SIGKILL mid-run is detected, rolled back, and the
//!   resumed run is bitwise identical to a clean thread-backend resume
//!   from the same snapshot — with no orphaned worker processes left.

use std::path::{Path, PathBuf};

use zero::comm::{CollectiveKind, FaultPlan, Grid};
use zero::core::supervisor::snapshot_dir_for;
use zero::core::{
    resume_from_snapshot, run_supervised, run_supervised_process, KillSpec, ProcessWorldOptions,
    SupervisedReport, SupervisorConfig, TrainSetup, WorkerCommand, ZeroConfig, ZeroStage,
};
use zero::model::ModelConfig;

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zero-procworld-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Global batch 12 divides evenly over 4, 3, and 2 ranks, so the schedule
/// survives shrinking the world.
fn setup(dp: usize, stage: ZeroStage) -> TrainSetup {
    TrainSetup {
        model: ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 },
        zero: ZeroConfig { stage, fp16: false, bucket_elems: 512, ..ZeroConfig::default() },
        grid: Grid::new(dp, 1),
        global_batch: 12,
        seed: 11,
    }
}

fn config(dir: &Path, dp: usize, stage: ZeroStage, steps: usize) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(setup(dp, stage), steps, dir.to_path_buf());
    cfg.snapshot_every = 5;
    cfg
}

/// The re-exec worker: the `zero-train` binary dispatches into
/// `maybe_run_worker` when it sees the spec env var, and `--zero-worker`
/// marks the process for orphan detection.
fn worker() -> WorkerCommand {
    WorkerCommand {
        program: PathBuf::from(env!("CARGO_BIN_EXE_zero-train")),
        args: vec!["--zero-worker".into()],
    }
}

fn run_process(dir: &Path, cfg: &SupervisorConfig, kill: Option<KillSpec>) -> SupervisedReport {
    let mut opts = ProcessWorldOptions::new(worker(), dir.join("fabric"));
    opts.kill = kill;
    run_supervised_process(cfg, &opts).expect("supervised process run")
}

/// Live `--zero-worker` processes other than our own (orphan check).
fn leaked_workers() -> usize {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else { return 0 };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok()?.parse::<u32>().ok())
        .filter(|pid| *pid != me)
        .filter(|pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .map(|c| {
                    c.split(|b| *b == 0)
                        .any(|arg| arg == b"--zero-worker")
                })
                .unwrap_or(false)
        })
        .count()
}

/// The backend-parity contract on the unified report: everything but
/// wall time and failure wording must agree — losses and eval bit for
/// bit, each recovery's casualties and rollback point, and the final
/// round's per-rank restore-span counts and per-kind traffic (§7 volume
/// parity: the socket fabric meters what the channel fabric meters).
fn assert_reports_match(thread: &SupervisedReport, process: &SupervisedReport) {
    assert_eq!(process.losses.len(), thread.losses.len());
    for (i, (t, p)) in thread.losses.iter().zip(&process.losses).enumerate() {
        assert_eq!(t.to_bits(), p.to_bits(), "step {i}: thread {t} vs process {p}");
    }
    assert_eq!(
        thread.final_eval.to_bits(),
        process.final_eval.to_bits(),
        "eval: thread {} vs process {}",
        thread.final_eval,
        process.final_eval
    );
    assert_eq!(process.final_world, thread.final_world);
    assert_eq!(process.recoveries.len(), thread.recoveries.len());
    for (t, p) in thread.recoveries.iter().zip(&process.recoveries) {
        assert_eq!(p.failed_ranks, t.failed_ranks);
        assert_eq!((p.old_world, p.new_world), (t.old_world, t.new_world));
        assert_eq!(p.resumed_from_step, t.resumed_from_step);
        assert_eq!((p.steps_lost, p.bytes_moved), (t.steps_lost, t.bytes_moved));
    }
    assert_eq!(process.restore_spans, thread.restore_spans);
    assert_eq!(process.traffic.len(), thread.final_world);
    for (rank, (p, t)) in process.traffic.iter().zip(&thread.traffic).enumerate() {
        assert_eq!(p, t, "rank {rank}: process fabric metered differently");
        // The schedule actually communicates (a vacuous all-zero pass
        // would also "match").
        assert!(p.iter().any(|(_, bytes, _)| *bytes > 0), "rank {rank} moved no bytes");
    }
}

#[test]
fn clean_run_is_bitwise_identical_across_backends() {
    let steps = 10;
    let thread_dir = unique_dir("clean-thread");
    let proc_dir = unique_dir("clean-proc");

    let thread = run_supervised(&config(&thread_dir, 4, ZeroStage::Two, steps))
        .expect("supervised thread run");
    let process = run_process(&proc_dir, &config(&proc_dir, 4, ZeroStage::Two, steps), None);

    assert!(process.recoveries.is_empty(), "clean run must not recover");
    assert_eq!(process.final_world, 4);
    assert_reports_match(&thread, &process);
}

#[test]
fn scripted_crash_cell_matches_thread_backend() {
    let steps = 20;
    let thread_dir = unique_dir("crash-thread");
    let proc_dir = unique_dir("crash-proc");

    // Same cell as the thread-backend acceptance scenario: rank 2 of 4
    // crashes in its step-7 overflow all-reduce.
    let mut thread_cfg = config(&thread_dir, 4, ZeroStage::Two, steps);
    thread_cfg.faults = FaultPlan::new().with_crash_at_kind(2, CollectiveKind::AllReduce, 7);
    let thread = run_supervised(&thread_cfg).expect("supervised thread run");

    let mut proc_cfg = config(&proc_dir, 4, ZeroStage::Two, steps);
    proc_cfg.faults = FaultPlan::new().with_crash_at_kind(2, CollectiveKind::AllReduce, 7);
    let process = run_process(&proc_dir, &proc_cfg, None);

    assert_eq!(process.recoveries.len(), 1);
    assert_eq!(process.losses.len(), steps);
    assert_reports_match(&thread, &process);
    // Every surviving rank restored from the snapshot (trace evidence).
    assert!(
        process.restore_spans.iter().all(|&n| n >= 1),
        "final round must carry snapshot-restore spans, got {:?}",
        process.restore_spans
    );
}

#[test]
fn sigkilled_rank_recovers_bitwise_identical_to_clean_resume() {
    let steps = 20;
    let dir = unique_dir("kill9");

    let cfg = config(&dir, 4, ZeroStage::Two, steps);
    let report = run_process(&dir, &cfg, Some(KillSpec { rank: 2, after_step: 7 }));

    assert_eq!(report.recoveries.len(), 1, "exactly one recovery expected");
    let rec = &report.recoveries[0];
    assert_eq!(rec.failed_ranks, vec![2]);
    assert_eq!((rec.old_world, rec.new_world), (4, 3));
    assert_eq!(rec.resumed_from_step, 5);
    assert!(
        rec.failures.iter().any(|(r, m)| *r == 2 && m.contains("signal")),
        "the dead rank must be reported as signal-killed: {:?}",
        rec.failures
    );
    assert_eq!(report.final_world, 3);
    assert_eq!(report.losses.len(), steps);
    assert!(
        report.restore_spans.iter().all(|&n| n >= 1),
        "survivors must restore from the snapshot, got {:?}",
        report.restore_spans
    );

    // Control arm: a clean 3-rank thread-backend run resumed from the very
    // same snapshot files must reproduce the tail bit for bit.
    let (control, control_eval) =
        resume_from_snapshot(&setup(3, ZeroStage::Two), steps, &snapshot_dir_for(&dir, 5), 4);
    assert_eq!(control.len(), steps - 5);
    for (i, (a, b)) in report.losses[5..].iter().zip(&control).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "step {}: process {a} vs control {b}", 5 + i);
    }
    assert_eq!(report.final_eval.to_bits(), control_eval.to_bits());

    assert_eq!(leaked_workers(), 0, "orphaned --zero-worker processes remain");
}
