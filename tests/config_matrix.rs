//! Combinatorial smoke matrix: every ZeRO stage × precision ×
//! checkpointing mode × activation partitioning (none, P_a, P_a+cpu) ×
//! grid shape must train two steps to a finite loss. Catches interaction bugs between features
//! that the focused tests exercise one at a time.

use zero::comm::Grid;
use zero::core::{run_training, CkptPlace, TrainSetup, ZeroConfig, ZeroStage};
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
                // (dp, mp, where checkpoints live)
                let grids = [
                    (2usize, 1usize, CkptPlace::Whole),
                    (2, 2, CkptPlace::Whole),
                    (2, 2, CkptPlace::Partitioned),
                    (2, 2, CkptPlace::Host),
                    (2, 1, CkptPlace::Host),
                ];
                for (dp, mp, place) in grids {
                    if place.partitioned() && !ckpt {
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
                            checkpoint_place: place,
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
                        "non-finite loss: {stage:?} fp16={fp16} ckpt={ckpt}/{interval} dp={dp} mp={mp} {place:?}"
                    );
                    assert_eq!(
                        report.ranks.iter().all(|r| r.tier.total_bytes() > 0),
                        place == CkptPlace::Host,
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
