//! Trace conformance: real training traffic ≡ the declarative plan.
//!
//! The schedule checker proves properties of [`CommPlan`] *statically*;
//! this test closes the loop at runtime. For one configuration per stage
//! (plus MP, hierarchical, checkpointed, and clipped variants) it runs
//! real multi-threaded training, then compares every rank's metered
//! fabric traffic — bytes **and** message counts, per collective kind —
//! against the analytic volume of the plans the engine installed. The
//! match must be exact: a single stray or missing message anywhere in
//! the run fails the test.

use zero_comm::{Grid, ALL_KINDS};
use zero_core::{
    run_training, CkptPlace, CommPlan, StepShape, TrainSetup, ZeroConfig, ZeroStage,
};
use zero_model::{Layout, ModelConfig};

fn model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

fn setup(zero: ZeroConfig, dp: usize, mp: usize) -> TrainSetup {
    TrainSetup {
        model: model(),
        zero,
        grid: Grid::new(dp, mp),
        global_batch: 2 * dp,
        seed: 11,
    }
}

/// Runs `steps` steps of `setup` and asserts every rank's recorded
/// traffic equals the summed analytic plan volume, byte for byte and
/// message for message.
fn assert_conformance(setup: &TrainSetup, steps: usize, eval_every: usize, what: &str) {
    let report = run_training(setup, steps, eval_every);
    assert_eq!(report.skipped.len(), steps, "{what}: steps run");

    let layout = Layout::build_mp(&setup.model, setup.grid.mp_degree());
    let local_batch = setup.global_batch / setup.grid.dp_degree();
    let act_elems = local_batch * setup.model.seq * setup.model.hidden;

    // Sum the plans the engine installed over the run: one train-step
    // plan per step (shaped by the step's observed skip flag) plus one
    // eval plan per validation pass.
    let mut plans: Vec<CommPlan> = report
        .skipped
        .iter()
        .map(|&skipped| {
            CommPlan::train_step(
                &layout,
                &setup.zero,
                setup.grid,
                &StepShape { micro_batches: 1, act_elems, skipped },
            )
        })
        .collect();
    for _ in 0..report.val_losses.len() {
        plans.push(CommPlan::eval_pass(&layout, &setup.zero, setup.grid, act_elems));
    }

    for rank_report in &report.ranks {
        let rank = rank_report.rank;
        let mut bytes = [0u64; zero_comm::KIND_COUNT];
        let mut messages = [0u64; zero_comm::KIND_COUNT];
        for plan in &plans {
            let b = plan.rank_bytes(rank);
            let m = plan.rank_messages(rank);
            for i in 0..zero_comm::KIND_COUNT {
                bytes[i] += b[i];
                messages[i] += m[i];
            }
        }
        for (i, kind) in ALL_KINDS.iter().enumerate() {
            assert_eq!(
                rank_report.traffic.bytes(*kind),
                bytes[i],
                "{what}: rank {rank} {kind:?} bytes diverge from plan"
            );
            assert_eq!(
                rank_report.traffic.messages(*kind),
                messages[i],
                "{what}: rank {rank} {kind:?} messages diverge from plan"
            );
        }
    }
}

#[test]
fn ddp_with_clipping_conforms() {
    let zero = ZeroConfig {
        bucket_elems: 512,
        clip_grad_norm: Some(1.0),
        ..ZeroConfig::fp32_exact(ZeroStage::Ddp)
    };
    assert_conformance(&setup(zero, 4, 1), 2, 0, "DDP dp=4 fp32 clip");
}

#[test]
fn ddp_hierarchical_conforms() {
    let zero = ZeroConfig {
        bucket_elems: 512,
        node_size: 2,
        ..ZeroConfig::fp32_exact(ZeroStage::Ddp)
    };
    assert_conformance(&setup(zero, 4, 1), 2, 0, "DDP dp=4 hier g=2");
}

#[test]
fn stage1_conforms() {
    let zero = ZeroConfig {
        bucket_elems: 512,
        ..ZeroConfig::fp32_exact(ZeroStage::One)
    };
    assert_conformance(&setup(zero, 3, 1), 2, 0, "ZeRO-1 dp=3 fp32");
}

#[test]
fn stage2_fp16_default_conforms() {
    // Default config: fp16 with a high initial loss scale, so early steps
    // are skipped by the scaler — exercising the skipped-step suffix.
    let zero = ZeroConfig {
        stage: ZeroStage::Two,
        bucket_elems: 512,
        ..ZeroConfig::default()
    };
    assert_conformance(&setup(zero, 4, 1), 3, 0, "ZeRO-2 dp=4 fp16 default");
}

#[test]
fn stage2_mp_checkpointed_pa_with_eval_conforms() {
    let zero = ZeroConfig {
        stage: ZeroStage::Two,
        bucket_elems: 512,
        checkpoint_activations: true,
        checkpoint_place: CkptPlace::Partitioned,
        ..ZeroConfig::default()
    };
    assert_conformance(
        &setup(zero, 2, 2),
        2,
        1,
        "ZeRO-2 dp=2 mp=2 ckpt+Pa eval",
    );
}

#[test]
fn stage3_with_clipping_conforms() {
    let zero = ZeroConfig {
        bucket_elems: 512,
        clip_grad_norm: Some(1.0),
        ..ZeroConfig::fp32_exact(ZeroStage::Three)
    };
    assert_conformance(&setup(zero, 4, 1), 2, 0, "ZeRO-3 dp=4 fp32 clip");
}

#[test]
fn stage3_mp_conforms() {
    let zero = ZeroConfig {
        bucket_elems: 512,
        ..ZeroConfig::fp32_exact(ZeroStage::Three)
    };
    assert_conformance(&setup(zero, 2, 2), 2, 0, "ZeRO-3 dp=2 mp=2 fp32");
}
