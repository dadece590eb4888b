//! Combinatorial smoke matrix: every ZeRO stage × precision ×
//! checkpointing mode × activation partitioning (none, P_a, P_a+cpu) ×
//! grid shape must train two steps to a finite loss. Catches interaction bugs between features
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
                // (dp, mp, P_a, P_a+cpu)
                let grids = [
                    (2usize, 1usize, false, false),
                    (2, 2, false, false),
                    (2, 2, true, false),
                    (2, 2, true, true),
                    (2, 1, true, true),
                ];
                for (dp, mp, pa, pa_cpu) in grids {
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
                            offload_checkpoints: pa_cpu,
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
                        "non-finite loss: {stage:?} fp16={fp16} ckpt={ckpt}/{interval} dp={dp} mp={mp} pa={pa} cpu={pa_cpu}"
                    );
                    assert_eq!(
                        report.ranks.iter().all(|r| r.tier.total_bytes() > 0),
                        pa_cpu,
                        "P_a+cpu and only P_a+cpu crosses the tier: {stage:?} dp={dp} mp={mp}"
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
    assert!(tried >= 96, "matrix shrank unexpectedly: {tried} configs");
}
