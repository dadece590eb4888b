//! Overlap-centric execution must be *invisible* except in wall-clock:
//!
//! * losses and master parameters bitwise identical to synchronous
//!   execution at stages 2 and 3 (the waits move, the arithmetic and its
//!   order do not), and refused at DDP and stage 1, whose one end-of-step
//!   reduction has nothing to issue ahead of;
//! * per-rank traffic still exactly equal to the declarative CommPlan's
//!   analytic volumes (bytes AND message counts, per collective kind);
//! * a rank crashing while async ops are in flight surfaces as a typed
//!   error — no deadlock — and the supervisor still recovers.

use std::time::Duration;

use zero::comm::{CollectiveKind, FaultPlan, Grid, KIND_COUNT};
use zero::core::{
    run_supervised, run_training, CommPlan, ConfigError, StepShape, SupervisorConfig, TrainSetup, ZeroConfig,
    ZeroStage,
};
use zero::model::{Layout, ModelConfig};

const STEPS: usize = 3;

fn model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

fn setup(stage: ZeroStage, dp: usize, overlap: bool) -> TrainSetup {
    TrainSetup {
        model: model(),
        zero: ZeroConfig {
            stage,
            fp16: true,
            initial_loss_scale: 1.0,
            checkpoint_activations: false,
            bucket_elems: 1000, // several bucket flushes per backward
            overlap,
            ..ZeroConfig::default()
        },
        grid: Grid::new(dp, 1),
        global_batch: 4,
        seed: 77,
    }
}

#[test]
fn overlapped_losses_bitwise_match_sync_for_all_stages() {
    for stage in [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        for dp in [2usize, 4] {
            if !stage.partitions_grads() {
                let refused = setup(stage, dp, true).zero.check(Grid::new(dp, 1));
                assert!(matches!(refused, Err(ConfigError::Overlap(_))), "{stage:?} dp={dp}: {refused:?}");
                continue;
            }
            // eval_every exercises the prefetch path of the eval pass too.
            let sync = run_training(&setup(stage, dp, false), STEPS, 2);
            let over = run_training(&setup(stage, dp, true), STEPS, 2);
            for (i, (a, b)) in sync.losses.iter().zip(&over.losses).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{stage:?} dp={dp} step {i}: sync {a} != overlapped {b}"
                );
            }
            for (a, b) in sync.val_losses.iter().zip(&over.val_losses) {
                assert_eq!(a.to_bits(), b.to_bits(), "{stage:?} dp={dp}: eval loss drifted");
            }
            for (rs, ro) in sync.ranks.iter().zip(&over.ranks) {
                assert_eq!(
                    rs.master, ro.master,
                    "{stage:?} dp={dp} rank {}: master params drifted",
                    rs.rank
                );
            }
        }
    }
}

#[test]
fn overlapped_checkpointed_stage3_is_bitwise_identical() {
    // Checkpointed segments restart the prefetch chain per recompute
    // window; interval 2 makes segments span multiple blocks.
    for interval in [1usize, 2] {
        let mut sync = setup(ZeroStage::Three, 4, false);
        sync.zero.checkpoint_activations = true;
        sync.zero.checkpoint_interval = interval;
        let mut over = setup(ZeroStage::Three, 4, true);
        over.zero.checkpoint_activations = true;
        over.zero.checkpoint_interval = interval;
        let a = run_training(&sync, STEPS, 0);
        let b = run_training(&over, STEPS, 0);
        for (x, y) in a.losses.iter().zip(&b.losses) {
            assert_eq!(x.to_bits(), y.to_bits(), "interval {interval}: loss drifted");
        }
    }
}

#[test]
fn overlapped_traffic_matches_plan_exactly() {
    // The acceptance bar: overlapped per-rank bytes AND messages per kind
    // remain exactly equal to the summed plan volume — the async schedule
    // moves precisely the planned ops, nothing more, nothing less.
    let cfg = model();
    let layout = Layout::build(&cfg);
    for stage in [ZeroStage::Two, ZeroStage::Three] {
        for n in [2usize, 4, 8] {
            let zcfg = ZeroConfig {
                stage,
                fp16: true,
                initial_loss_scale: 1.0,
                checkpoint_activations: false,
                bucket_elems: 1000,
                overlap: true,
                ..ZeroConfig::default()
            };
            let grid = Grid::new(n, 1);
            let setup = TrainSetup {
                model: cfg,
                zero: zcfg,
                grid,
                global_batch: n, // local batch 1 at every N
                seed: 5,
            };
            let report = run_training(&setup, 2, 0);
            let act_elems = cfg.seq * cfg.hidden;
            for r in &report.ranks {
                let mut want_bytes = [0u64; KIND_COUNT];
                let mut want_msgs = [0u64; KIND_COUNT];
                for &skipped in &report.skipped {
                    let plan = CommPlan::train_step(
                        &layout,
                        &zcfg,
                        grid,
                        &StepShape { micro_batches: 1, act_elems, skipped },
                    );
                    for (i, b) in plan.rank_bytes(r.rank).iter().enumerate() {
                        want_bytes[i] += b;
                    }
                    for (i, m) in plan.rank_messages(r.rank).iter().enumerate() {
                        want_msgs[i] += m;
                    }
                }
                for (i, kind) in zero::comm::ALL_KINDS.iter().enumerate() {
                    assert_eq!(
                        r.traffic.bytes(*kind),
                        want_bytes[i],
                        "{stage:?} n={n} rank {} {kind:?} bytes",
                        r.rank
                    );
                    assert_eq!(
                        r.traffic.messages(*kind),
                        want_msgs[i],
                        "{stage:?} n={n} rank {} {kind:?} messages",
                        r.rank
                    );
                }
            }
        }
    }
}

#[test]
fn overlap_moves_exactly_one_block_gather_less_per_micro_batch() {
    // Static half of the same claim: the overlapped plan is a reordering
    // (fetches move to issue positions) of the same op multiset, less, at
    // stage 3, the last block's backward refetch — the plan holds that
    // block's gather through the head — once per micro-batch. Stage 2
    // moves identical volume.
    let cfg = model();
    let layout = Layout::build(&cfg);
    let last = layout.units()[cfg.layers].range.len();
    for stage in [ZeroStage::Two, ZeroStage::Three] {
        for n in 2..=6 {
            let grid = Grid::new(n, 1);
            let micros = 2;
            let shape = StepShape { micro_batches: micros, act_elems: cfg.seq * cfg.hidden, skipped: false };
            let base = ZeroConfig {
                stage,
                fp16: true,
                initial_loss_scale: 1.0,
                checkpoint_activations: false,
                bucket_elems: 1000,
                ..ZeroConfig::default()
            };
            let sync = CommPlan::train_step(&layout, &base, grid, &shape);
            let over = CommPlan::train_step(&layout, &base.overlapped(), grid, &shape);
            let held = if stage == ZeroStage::Three { micros } else { 0 };
            assert_eq!(sync.ops().len(), over.ops().len() + held, "{stage:?} n={n}: op count");
            let ag = CollectiveKind::AllGather as usize;
            for rank in 0..n {
                // A ring all-gather of the block sends every piece but the
                // successor's, in n - 1 messages, at 2 bytes an element.
                let successor = zero::comm::chunk_range(last, n, (rank + 1) % n).len();
                let (mut bytes, mut msgs) = (over.rank_bytes(rank), over.rank_messages(rank));
                bytes[ag] += (held * 2 * (last - successor)) as u64;
                msgs[ag] += (held * (n - 1)) as u64;
                assert_eq!(sync.rank_bytes(rank), bytes, "{stage:?} n={n} r{rank}");
                assert_eq!(sync.rank_messages(rank), msgs, "{stage:?} n={n} r{rank}");
            }
        }
    }
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("zero-overlap-{tag}-{}", std::process::id()))
}

#[test]
fn crash_during_inflight_async_reduce_recovers() {
    // Stage 2 + overlap: bucket reduce-scatters are in flight while
    // backward keeps running when rank 2 dies inside one of them. The
    // waits must surface typed errors (no deadlock) and the supervisor
    // must reshard and finish the run.
    let dir = unique_dir("rs");
    std::fs::remove_dir_all(&dir).ok();
    let train = TrainSetup {
        model: model(),
        zero: ZeroConfig {
            stage: ZeroStage::Two,
            fp16: false,
            bucket_elems: 512,
            overlap: true,
            ..ZeroConfig::default()
        },
        grid: Grid::new(4, 1),
        global_batch: 12,
        seed: 11,
    };
    let mut cfg = SupervisorConfig::new(train, 12, dir.clone());
    cfg.snapshot_every = 5;
    cfg.recv_timeout = Duration::from_millis(500);
    // Stage 2 runs 4 bucket reduce-scatters per step; the 25th lands in
    // step 6, past the step-5 snapshot, mid-backward.
    cfg.faults = FaultPlan::new().with_crash_at_kind(2, CollectiveKind::ReduceScatter, 25);
    let report = run_supervised(&cfg).expect("supervised run");
    assert_eq!(report.final_world, 3, "world must shrink by the dead rank");
    assert_eq!(report.losses.len(), 12, "run must complete");
    assert_eq!(report.recoveries.len(), 1);
    assert_eq!(report.recoveries[0].failed_ranks, vec![2]);
    assert!(report.losses.iter().all(|l| l.is_finite()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_during_inflight_prefetch_recovers() {
    // Stage 3 + overlap: the victim dies inside a parameter all-gather
    // that other ranks are holding as a prefetch handle.
    let dir = unique_dir("ag");
    std::fs::remove_dir_all(&dir).ok();
    let train = TrainSetup {
        model: model(),
        zero: ZeroConfig {
            stage: ZeroStage::Three,
            fp16: false,
            bucket_elems: 512,
            overlap: true,
            ..ZeroConfig::default()
        },
        grid: Grid::new(4, 1),
        global_batch: 12,
        seed: 11,
    };
    let mut cfg = SupervisorConfig::new(train, 10, dir.clone());
    cfg.snapshot_every = 5;
    cfg.recv_timeout = Duration::from_millis(500);
    // Stage 3 runs 5 fetch all-gathers per step here: embed, the two
    // blocks, head, and the first block's recompute (the plan holds the
    // last block into its backward). Gather 42 (from 0) is step 8's fetch
    // of the last block, issued ahead under the first block's compute,
    // past the step-5 snapshot.
    cfg.faults = FaultPlan::new().with_crash_at_kind(3, CollectiveKind::AllGather, 42);
    let report = run_supervised(&cfg).expect("supervised run");
    assert_eq!(report.final_world, 3);
    let rec = &report.recoveries[0];
    assert_eq!((rec.resumed_from_step, rec.steps_lost), (5, 3), "the crash must land in step 8");
    assert_eq!(report.losses.len(), 10);
    assert!(report.losses.iter().all(|l| l.is_finite()));
    std::fs::remove_dir_all(&dir).ok();
}
