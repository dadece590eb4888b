//! Fault-injected elastic training: the supervisor must survive rank
//! crashes, hangs, and corrupted messages, and recover to a state bitwise
//! identical to a clean run resumed from the same snapshot.

use std::path::PathBuf;
use std::time::Duration;

use zero::comm::{CollectiveKind, FaultPlan, Grid};
use zero::core::supervisor::snapshot_dir_for;
use zero::core::{
    resume_from_snapshot, run_supervised, CommPlan, StepShape, SuperviseError, SupervisorConfig,
    TierConfig, TrainSetup, ZeroConfig, ZeroStage,
};
use zero::model::{Layout, ModelConfig};

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zero-fault-{tag}-{}", std::process::id()))
}

/// Global batch 12 divides evenly over 4, 3, and 2 ranks, so the schedule
/// survives shrinking the world.
fn setup(dp: usize, stage: ZeroStage) -> TrainSetup {
    TrainSetup {
        model: ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 },
        zero: ZeroConfig {
            stage,
            fp16: false,
            bucket_elems: 512,
            ..ZeroConfig::default()
        },
        grid: Grid::new(dp, 1),
        global_batch: 12,
        seed: 11,
    }
}

fn config(dir: &std::path::Path, dp: usize, stage: ZeroStage, steps: usize) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(setup(dp, stage), steps, dir.to_path_buf());
    cfg.snapshot_every = 5;
    cfg.recv_timeout = Duration::from_millis(500);
    cfg
}

/// The scripted acceptance scenario: rank 2 of 4 dies mid-step at step 7
/// of 20 (in its overflow-flag all-reduce, after gradients, before the
/// update). The supervisor must roll back to the step-5 snapshot, reshard
/// to the 3 survivors, resume, and end bitwise identical to a clean 3-rank
/// run resumed from the very same snapshot.
#[test]
fn killed_rank_recovers_bitwise_identical_to_clean_resume() {
    let dir = unique_dir("accept");
    std::fs::remove_dir_all(&dir).ok();
    let steps = 20;

    let mut cfg = config(&dir, 4, ZeroStage::Two, steps);
    // With fp16 off and clipping off there is exactly one AllReduce-kind
    // op per training step (the overflow flag), so the 0-based 7th fires
    // inside step 7.
    cfg.faults = FaultPlan::new().with_crash_at_kind(2, CollectiveKind::AllReduce, 7);
    let recovered = run_supervised(&cfg).expect("supervised run");

    assert_eq!(recovered.final_world, 3);
    assert_eq!(recovered.losses.len(), steps);
    assert_eq!(recovered.recoveries.len(), 1);
    let rec = &recovered.recoveries[0];
    assert_eq!(rec.failed_ranks, vec![2]);
    assert_eq!((rec.old_world, rec.new_world), (4, 3));
    assert_eq!(rec.resumed_from_step, 5);
    assert!(rec.steps_lost >= 2, "steps 5..7 were discarded, got {}", rec.steps_lost);
    assert!(rec.bytes_moved > 0);
    assert!(
        rec.failures.iter().any(|(r, m)| *r == 2 && m.contains("crashed this rank")),
        "failures must name the injected crash: {:?}",
        rec.failures
    );

    // Control arm: clean 3-rank run resumed from the same snapshot files.
    let (control_losses, control_eval) = resume_from_snapshot(
        &setup(3, ZeroStage::Two),
        steps,
        &snapshot_dir_for(&dir, 5),
        4,
    );
    assert_eq!(control_losses.len(), steps - 5);
    for (i, (a, b)) in recovered.losses[5..].iter().zip(&control_losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "step {}: recovered {a} != control {b}",
            5 + i
        );
    }
    assert_eq!(
        recovered.final_eval.to_bits(),
        control_eval.to_bits(),
        "final eval loss must be bitwise identical: {} vs {}",
        recovered.final_eval,
        control_eval
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A hung rank must not deadlock the job: peers time out, the supervisor
/// removes the hung rank, and training completes on the survivors.
#[test]
fn hung_rank_times_out_and_world_shrinks() {
    let dir = unique_dir("hang");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = config(&dir, 3, ZeroStage::One, 8);
    cfg.recv_timeout = Duration::from_millis(150);
    cfg.faults = FaultPlan::new().with_hang(1, 40);
    let report = run_supervised(&cfg).expect("supervised run");
    assert_eq!(report.final_world, 2);
    assert_eq!(report.losses.len(), 8);
    assert_eq!(report.recoveries.len(), 1);
    assert_eq!(report.recoveries[0].failed_ranks, vec![1]);
    assert!(
        report
            .recoveries[0]
            .failures
            .iter()
            .any(|(_, m)| m.contains("hang") || m.contains("timed out") || m.contains("lost")),
        "failures should show the hang and/or its observers: {:?}",
        report.recoveries[0].failures
    );
    assert!(report.losses.iter().all(|l| l.is_finite()));
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped bit in one payload must be *detected* (CRC), never silently
/// averaged into the model: the round aborts, everyone rolls back, and —
/// since the corrupting rank is healthy — the world keeps its size.
#[test]
fn corrupted_message_detected_and_rolled_back() {
    let dir = unique_dir("corrupt");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = config(&dir, 3, ZeroStage::Two, 8);
    cfg.faults = FaultPlan::seeded(99).with_corruption(1, 25);
    let report = run_supervised(&cfg).expect("supervised run");
    assert_eq!(report.final_world, 3, "no rank died, world must not shrink");
    assert_eq!(report.losses.len(), 8);
    assert_eq!(report.recoveries.len(), 1);
    assert!(report.recoveries[0].failed_ranks.is_empty());
    assert!(
        report.recoveries[0].failures.iter().any(|(_, m)| m.contains("corrupt")),
        "some rank must report the corrupt payload: {:?}",
        report.recoveries[0].failures
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault the fabric survives can still leave a world the batch does not
/// split over (8 sequences, 4 ranks, one dies → 3): that is a typed
/// refusal naming the batch and the surviving world, not a supervisor
/// panic after the recovery already succeeded.
#[test]
fn indivisible_surviving_world_is_a_typed_error() {
    let dir = unique_dir("indivisible");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = config(&dir, 4, ZeroStage::Two, 12);
    cfg.setup.global_batch = 8;
    cfg.faults = FaultPlan::new().with_crash_at_kind(2, CollectiveKind::AllReduce, 7);
    let err = run_supervised(&cfg).expect_err("3 survivors cannot split a batch of 8");
    assert_eq!(err, SuperviseError::IndivisibleWorld { global_batch: 8, world: 3 });
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash placement matrix: dying inside the gradient reduce-scatter, the
/// parameter all-gather, or the optimizer-step all-reduce must all be
/// recoverable — the three phases exercise different in-flight state.
#[test]
fn crash_in_any_collective_phase_recovers() {
    for (kind, nth, tag) in [
        // At this model size stage 2 runs 4 reduce-scatters (bucket
        // flushes) and 16 all-gathers (parameter publishes) per step, but
        // exactly one all-reduce (the overflow flag), so the indices
        // differ to land each crash mid-run after the step-5 snapshot.
        (CollectiveKind::ReduceScatter, 25, "rs"),
        (CollectiveKind::AllGather, 100, "ag"),
        (CollectiveKind::AllReduce, 8, "opt"),
    ] {
        let dir = unique_dir(&format!("matrix-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = config(&dir, 4, ZeroStage::Two, 12);
        cfg.faults = FaultPlan::new().with_crash_at_kind(2, kind, nth);
        let report = run_supervised(&cfg).expect("supervised run");
        assert_eq!(report.final_world, 3, "{tag}: world must shrink by the one dead rank");
        assert_eq!(report.losses.len(), 12, "{tag}: run must complete");
        assert_eq!(report.recoveries.len(), 1, "{tag}");
        assert_eq!(report.recoveries[0].failed_ranks, vec![2], "{tag}");
        assert!(report.losses.iter().all(|l| l.is_finite()), "{tag}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Stage 3 (parameter partitioning) keeps working under crash + recovery:
/// the all-gather-on-demand path is the one most entangled with the fabric.
#[test]
fn stage3_crash_recovers() {
    let dir = unique_dir("stage3");
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = config(&dir, 4, ZeroStage::Three, 10);
    // Stage 3 runs ~11 fabric ops per step here; op 75 lands in step 6,
    // past the step-5 snapshot.
    cfg.faults = FaultPlan::new().with_crash(3, 75);
    let report = run_supervised(&cfg).expect("supervised run");
    assert_eq!(report.final_world, 3);
    assert_eq!(report.losses.len(), 10);
    assert!(report.losses.iter().all(|l| l.is_finite()));
    std::fs::remove_dir_all(&dir).ok();
}

/// An offloaded stage-3 run with overlap over 4 ranks, in which `faults`
/// kills rank 2 past the step-5 snapshot: the supervisor must roll back,
/// reshard to 3 survivors (whose engines rebuild their tier stores from
/// the snapshot), and finish bitwise identical to a clean offloaded 3-rank
/// run resumed from the same snapshot files.
fn offloaded_crash_recovers_bitwise_identical(tag: &str, tier: TierConfig, faults: FaultPlan) {
    let dir = unique_dir(tag);
    std::fs::remove_dir_all(&dir).ok();
    let steps = 12;

    let tiered = |dp: usize| {
        let mut s = setup(dp, ZeroStage::Three);
        s.zero.overlap = true;
        s.zero.tier = tier;
        s
    };
    let mut cfg = SupervisorConfig::new(tiered(4), steps, dir.clone());
    cfg.snapshot_every = 5;
    cfg.recv_timeout = Duration::from_millis(500);
    cfg.faults = faults;
    let recovered = run_supervised(&cfg).expect("supervised run");

    assert_eq!(recovered.final_world, 3);
    assert_eq!(recovered.losses.len(), steps);
    assert_eq!(recovered.recoveries.len(), 1);
    let rec = &recovered.recoveries[0];
    assert_eq!(rec.failed_ranks, vec![2]);
    assert_eq!(rec.resumed_from_step, 5, "crash must land after the step-5 snapshot");
    assert!(
        rec.failures.iter().any(|(r, m)| *r == 2 && m.contains("crashed this rank")),
        "failures must name the injected crash: {:?}",
        rec.failures
    );

    // Control arm: clean offloaded 3-rank run from the same snapshots.
    let (control_losses, control_eval) =
        resume_from_snapshot(&tiered(3), steps, &snapshot_dir_for(&dir, 5), 4);
    assert_eq!(control_losses.len(), steps - 5);
    for (i, (a, b)) in recovered.losses[5..].iter().zip(&control_losses).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "step {}: recovered {a} != control {b}",
            5 + i
        );
    }
    assert_eq!(
        recovered.final_eval.to_bits(),
        control_eval.to_bits(),
        "final eval loss must be bitwise identical under offload: {} vs {}",
        recovered.final_eval,
        control_eval
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The offload corner of the matrix, with the strongest oracle: rank 2
/// dies while a memory-tier prefetch is in flight. Stage 3 with overlap
/// issues each unit's parameter all-gather one unit ahead of compute,
/// and under offload every such gather is seeded by a host-tier
/// `tier-param-fetch` on the rank's host-link lane — crashing inside an
/// all-gather therefore kills the rank with tier traffic pending
/// settlement.
#[test]
fn killed_rank_with_offload_prefetch_in_flight_recovers_bitwise_identical() {
    // Stage 3 runs 5 parameter all-gathers a step here, every one after
    // the embedding's issued ahead (the plan holds the last block into its
    // backward); gather 42 (from 0) is step 8's fetch of the last block,
    // past the step-5 snapshot: an open prefetch window with its tier
    // fetch already metered.
    let faults = FaultPlan::new().with_crash_at_kind(2, CollectiveKind::AllGather, 42);
    offloaded_crash_recovers_bitwise_identical("offload", TierConfig::budgeted(64 << 20), faults);
}

/// Rank 2 dies in a reduce-scatter in the middle of step 8's backward,
/// with every tier move priced at 1 ms: the gradient spills of the
/// buckets reduced before it are on the rank's host-link lane, each
/// waiting on its reduce-scatter or running beside the collectives that
/// follow it. The crash is reported and recovered as it is where spills
/// share the collectives' queue.
#[test]
fn killed_rank_mid_offloaded_backward_recovers_bitwise_identical() {
    let tier = TierConfig { host_lat: Duration::from_millis(1), ..TierConfig::budgeted(64 << 20) };
    let mut s = setup(4, ZeroStage::Three);
    (s.zero.overlap, s.zero.tier) = (true, tier);
    let shape = StepShape { micro_batches: 1, act_elems: 3 * s.model.seq * s.model.hidden, skipped: false };
    let plan = CommPlan::train_step(&Layout::build_mp(&s.model, 1), &s.zero, s.grid, &shape);
    let reduces = plan.ops().iter().filter(|op| op.kind == CollectiveKind::ReduceScatter).count() as u64;
    let spills = plan.tier_ops().iter().filter(|t| t.label == "tier-grad-spill").count() as u64;
    assert!(reduces > 2 && spills == reduces, "a spill behind each of several reduce-scatters a step");
    let faults = FaultPlan::new().with_crash_at_kind(2, CollectiveKind::ReduceScatter, 7 * reduces + reduces / 2);
    offloaded_crash_recovers_bitwise_identical("offload-backward", tier, faults);
}

/// Runs one cell of the randomized fault matrix: deterministic
/// splitmix64-derived placement of a crash, hang, or corruption across
/// stage, victim rank, and fabric-op index. Asserts the run finishes with
/// a full, finite loss history and — when a recovery fired — that the
/// supervisor rollback is visible in the final round's traces as a
/// checkpoint-category `snapshot-restore` span on every rank.
fn run_matrix_case(case: u64) {
    run_matrix_case_tiered(case, TierConfig::off());
}

/// [`run_matrix_case`] with the memory tier dialed in: the same
/// deterministic fault placements replayed against an engine whose
/// optimizer/gradient/parameter shards live in the host tier.
fn run_matrix_case_tiered(case: u64, tier: TierConfig) {
    let stages = [ZeroStage::One, ZeroStage::Two, ZeroStage::Three];
    // Deterministic pseudo-random placement (splitmix64 spread).
    let mut z = case.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xA5A5_A5A5);
    let mut next = || {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    };
    let stage = stages[(next() % 3) as usize];
    let victim = (next() % 4) as usize;
    let op = 10 + next() % 150;
    let flavor = next() % 3;
    let faults = match flavor {
        0 => FaultPlan::seeded(case).with_crash(victim, op),
        1 => FaultPlan::seeded(case).with_hang(victim, op),
        _ => FaultPlan::seeded(case).with_corruption(victim, op),
    };

    let dir = unique_dir(&format!("stress-{case}-{}", tier.enabled));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = config(&dir, 4, stage, 12);
    cfg.setup.zero.tier = tier;
    cfg.snapshot_every = 3;
    cfg.recv_timeout = Duration::from_millis(200);
    cfg.faults = faults;
    let report = run_supervised(&cfg).expect("supervised run");
    assert_eq!(
        report.losses.len(),
        12,
        "case {case} ({stage:?}, victim {victim}, op {op}, flavor {flavor}) must finish"
    );
    assert!(report.losses.iter().all(|l| l.is_finite()), "case {case}: finite losses");
    if !report.recoveries.is_empty() {
        // The final clean round started from a snapshot restore; the
        // rollback must appear in every surviving rank's trace.
        assert!(!report.restore_spans.is_empty(), "case {case}: report must carry span counts");
        for (rank, spans) in report.restore_spans.iter().enumerate() {
            assert!(
                *spans > 0,
                "case {case} rank {rank}: recovery happened but no snapshot-restore span"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// Four promoted matrix cells, one per flavor×stage corner, cheap enough
// for the default tier-1 pass: stage-3 crash, stage-2 corruption,
// stage-3 hang, stage-1 crash (placements listed in `run_matrix_case`).

#[test]
fn matrix_case_stage3_crash() {
    run_matrix_case(0);
}

#[test]
fn matrix_case_stage2_corruption() {
    run_matrix_case(2);
}

#[test]
fn matrix_case_stage3_hang() {
    run_matrix_case(3);
}

#[test]
fn matrix_case_stage1_crash() {
    run_matrix_case(4);
}

// The same corners with the memory tier enabled: every fault now races
// host-tier traffic (spills mid-backward, fetches ahead of compute) and
// recovery must rebuild the survivors' tier stores from the snapshot.

#[test]
fn matrix_case_stage3_crash_offloaded() {
    run_matrix_case_tiered(0, TierConfig::budgeted(64 << 20));
}

#[test]
fn matrix_case_stage3_hang_offloaded() {
    run_matrix_case_tiered(3, TierConfig::budgeted(64 << 20));
}

/// Randomized stress matrix (ignored by default; run with
/// `cargo test -- --ignored`): the remaining cells of the same sweep the
/// promoted `matrix_case_*` tests above cover four corners of — each cell
/// run twice, tier off and tier on.
#[test]
#[ignore = "stress matrix: minutes of runtime; exercised in CI's ignored pass"]
fn randomized_fault_matrix_stress() {
    for case in 0u64..18 {
        run_matrix_case(case);
        run_matrix_case_tiered(case, TierConfig::budgeted(64 << 20));
    }
}
