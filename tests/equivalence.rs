//! Convergence-equivalence tests: the paper's central correctness claim.
//!
//! "ZeRO … does not change the model optimization method or affect model
//! convergence" (§2.2.3): for the same seed and data order, DDP and every
//! ZeRO stage must produce the same parameter trajectory as a single
//! process, up to floating-point reassociation in the ring reductions.

use zero::comm::Grid;
use zero::core::{run_training, CkptPlace, TrainSetup, ZeroConfig, ZeroStage};
use zero::model::ModelConfig;

const STEPS: usize = 4;

fn model() -> ModelConfig {
    ModelConfig {
        vocab: 32,
        seq: 8,
        hidden: 16,
        layers: 2,
        heads: 2,
    }
}

fn setup(stage: ZeroStage, dp: usize, mp: usize) -> TrainSetup {
    TrainSetup {
        model: model(),
        zero: ZeroConfig {
            bucket_elems: 777, // deliberately unaligned with unit sizes
            ..ZeroConfig::fp32_exact(stage)
        },
        grid: Grid::new(dp, mp),
        global_batch: 4,
        seed: 1234,
    }
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "parameter buffers differ in length");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// The single-process reference trajectory.
fn reference() -> (Vec<f32>, Vec<f32>) {
    let report = run_training(&setup(ZeroStage::Ddp, 1, 1), STEPS, 0);
    (report.gather_master_mp1(), report.losses.clone())
}

#[test]
fn ddp_matches_single_process() {
    let (ref_params, ref_losses) = reference();
    let report = run_training(&setup(ZeroStage::Ddp, 4, 1), STEPS, 0);
    let params = report.gather_master_mp1();
    let diff = max_abs_diff(&ref_params, &params);
    assert!(diff < 1e-4, "DDP diverged from single process: {diff}");
    for (a, b) in ref_losses.iter().zip(&report.losses) {
        assert!((a - b).abs() < 1e-4, "loss mismatch: {a} vs {b}");
    }
}

#[test]
fn zero_stage1_matches_single_process() {
    let (ref_params, _) = reference();
    let report = run_training(&setup(ZeroStage::One, 4, 1), STEPS, 0);
    let diff = max_abs_diff(&ref_params, &report.gather_master_mp1());
    assert!(diff < 1e-4, "ZeRO-1 diverged from single process: {diff}");
}

#[test]
fn zero_stage2_matches_single_process() {
    let (ref_params, _) = reference();
    let report = run_training(&setup(ZeroStage::Two, 4, 1), STEPS, 0);
    let diff = max_abs_diff(&ref_params, &report.gather_master_mp1());
    assert!(diff < 1e-4, "ZeRO-2 diverged from single process: {diff}");
}

#[test]
fn zero_stage3_matches_single_process() {
    let (ref_params, _) = reference();
    let report = run_training(&setup(ZeroStage::Three, 4, 1), STEPS, 0);
    let diff = max_abs_diff(&ref_params, &report.gather_master_mp1());
    assert!(diff < 1e-4, "ZeRO-3 diverged from single process: {diff}");
}

#[test]
fn all_stages_agree_with_each_other() {
    // Transitivity check at a different DP degree (2) and batch split.
    let reports: Vec<Vec<f32>> = [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three]
        .iter()
        .map(|&s| run_training(&setup(s, 2, 1), STEPS, 0).gather_master_mp1())
        .collect();
    for i in 1..reports.len() {
        let diff = max_abs_diff(&reports[0], &reports[i]);
        assert!(diff < 1e-4, "stage index {i} differs from DDP by {diff}");
    }
}

#[test]
fn checkpointing_does_not_change_the_trajectory() {
    // Recompute-in-backward must be bit-compatible with saved activations
    // (deterministic kernels, same inputs).
    let mut with = setup(ZeroStage::Two, 2, 1);
    with.zero.checkpoint_activations = true;
    let mut without = setup(ZeroStage::Two, 2, 1);
    without.zero.checkpoint_activations = false;
    let a = run_training(&with, STEPS, 0).gather_master_mp1();
    let b = run_training(&without, STEPS, 0).gather_master_mp1();
    let diff = max_abs_diff(&a, &b);
    assert_eq!(diff, 0.0, "checkpointing must be exactly neutral: {diff}");
}

#[test]
fn partitioned_activations_do_not_change_the_trajectory() {
    // P_a stores each checkpoint partitioned over the MP group and
    // all-gathers it back: values must be identical.
    let mut pa = setup(ZeroStage::Two, 2, 2);
    pa.zero.checkpoint_activations = true;
    pa.zero.checkpoint_place = CkptPlace::Partitioned;
    let mut plain = setup(ZeroStage::Two, 2, 2);
    plain.zero.checkpoint_activations = true;
    let a = run_training(&pa, STEPS, 0);
    let b = run_training(&plain, STEPS, 0);
    for (x, y) in a.losses.iter().zip(&b.losses) {
        assert_eq!(x, y, "P_a must be exactly neutral to the loss");
    }
}

#[test]
fn cpu_offloaded_checkpoints_do_not_change_the_trajectory() {
    let mut pa_cpu = setup(ZeroStage::Two, 2, 2);
    pa_cpu.zero.checkpoint_activations = true;
    pa_cpu.zero.checkpoint_place = CkptPlace::Host;
    let mut pa = setup(ZeroStage::Two, 2, 2);
    pa.zero.checkpoint_activations = true;
    pa.zero.checkpoint_place = CkptPlace::Partitioned;
    let a = run_training(&pa_cpu, STEPS, 0);
    let b = run_training(&pa, STEPS, 0);
    for (x, y) in a.losses.iter().zip(&b.losses) {
        assert_eq!(x, y, "P_a+cpu must be exactly neutral to the loss");
    }
    // …and it must actually have moved checkpoint bytes across the tier.
    assert!(a.ranks.iter().all(|r| r.tier.total_bytes() > 0), "P_a+cpu must meter its tier round trip");
    assert!(b.ranks.iter().all(|r| r.tier.total_bytes() == 0));
}

#[test]
fn model_parallel_matches_single_process() {
    // Pure MP (dp = 1, mp = 2), fp32: the Megatron-style sharded model
    // must train identically to the unsharded one.
    let (ref_params, ref_losses) = reference();
    let _ = ref_params; // parameters live in shard layouts; compare losses
    let report = run_training(&setup(ZeroStage::Ddp, 1, 2), STEPS, 0);
    for (a, b) in ref_losses.iter().zip(&report.losses) {
        assert!(
            (a - b).abs() < 2e-4,
            "MP loss trajectory diverged: {a} vs {b}"
        );
    }
}

#[test]
fn zero_plus_mp_matches_single_process() {
    // The paper's combined mode: MP within the "node", ZeRO-DP across.
    let (_, ref_losses) = reference();
    let report = run_training(&setup(ZeroStage::Two, 2, 2), STEPS, 0);
    for (a, b) in ref_losses.iter().zip(&report.losses) {
        assert!(
            (a - b).abs() < 2e-4,
            "ZeRO-2 × MP loss trajectory diverged: {a} vs {b}"
        );
    }
}

#[test]
fn bucket_size_does_not_change_results() {
    // CB is a pure communication-granularity knob.
    let mut small = setup(ZeroStage::Two, 4, 1);
    small.zero.bucket_elems = 64;
    let mut large = setup(ZeroStage::Two, 4, 1);
    large.zero.bucket_elems = 1 << 20;
    let a = run_training(&small, STEPS, 0).gather_master_mp1();
    let b = run_training(&large, STEPS, 0).gather_master_mp1();
    let diff = max_abs_diff(&a, &b);
    assert!(diff < 1e-5, "bucket size changed the trajectory by {diff}");
}

#[test]
fn checkpoint_interval_does_not_change_the_trajectory() {
    // §3.2's memory/recompute dial: any interval must be numerically
    // neutral — segments recompute exactly what the forward pass saw.
    let mut reference = setup(ZeroStage::Two, 2, 1);
    reference.zero.checkpoint_activations = true;
    reference.zero.checkpoint_interval = 1;
    let base = run_training(&reference, STEPS, 0).gather_master_mp1();
    for interval in [2usize, 3, 10] {
        let mut s = setup(ZeroStage::Two, 2, 1);
        s.zero.checkpoint_activations = true;
        s.zero.checkpoint_interval = interval;
        let got = run_training(&s, STEPS, 0).gather_master_mp1();
        let diff = max_abs_diff(&base, &got);
        assert_eq!(diff, 0.0, "interval {interval} changed the trajectory");
    }
}
