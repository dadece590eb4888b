//! Combinatorial smoke matrix: every ZeRO stage × precision ×
//! checkpointing mode × activation partitioning × grid shape must train
//! two steps to a finite loss. Catches interaction bugs between features
//! that the focused tests exercise one at a time.

use zero::comm::Grid;
use zero::core::{run_training, TrainSetup, ZeroConfig, ZeroStage};
use zero::model::ModelConfig;

#[test]
fn every_supported_configuration_trains() {
    let model = ModelConfig {
        vocab: 32,
        seq: 8,
        hidden: 16,
        layers: 2,
        heads: 2,
    };
    let mut tried = 0;
    for stage in [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        for fp16 in [false, true] {
            for (ckpt, interval) in [(false, 1usize), (true, 1), (true, 2)] {
                for (dp, mp, pa) in [(2usize, 1usize, false), (2, 2, false), (2, 2, true)] {
                    if pa && !ckpt {
                        continue; // invalid by construction
                    }
                    let setup = TrainSetup {
                        model,
                        zero: ZeroConfig {
                            stage,
                            fp16,
                            initial_loss_scale: if fp16 { 16.0 } else { 1.0 },
                            checkpoint_activations: ckpt,
                            checkpoint_interval: interval,
                            partition_activations: pa,
                            bucket_elems: 777,
                            ..ZeroConfig::default()
                        },
                        grid: Grid::new(dp, mp),
                        global_batch: 4,
                        seed: 5,
                    };
                    let report = run_training(&setup, 2, 0);
                    assert!(
                        report.losses.iter().all(|l| l.is_finite()),
                        "non-finite loss: {stage:?} fp16={fp16} ckpt={ckpt}/{interval} dp={dp} mp={mp} pa={pa}"
                    );
                    assert!(
                        report.skipped.iter().all(|&s| !s),
                        "unexpected overflow skip: {stage:?} fp16={fp16}"
                    );
                    tried += 1;
                }
            }
        }
    }
    assert!(tried >= 60, "matrix shrank unexpectedly: {tried} configs");
}
