//! Run-to-run determinism: identical seeds must give bit-identical
//! results — losses, parameters, memory, and traffic — across every
//! stage, even with fp16 and multi-threaded ring collectives
//! (the SPMD schedule fixes the reduction order).

use zero::comm::Grid;
use zero::core::{run_training, TrainSetup, ZeroConfig, ZeroStage};
use zero::model::ModelConfig;

fn setup(stage: ZeroStage) -> TrainSetup {
    TrainSetup {
        model: ModelConfig {
            vocab: 32,
            seq: 8,
            hidden: 16,
            layers: 2,
            heads: 2,
        },
        zero: ZeroConfig {
            stage,
            fp16: true,
            initial_loss_scale: 32.0,
            ..ZeroConfig::default()
        },
        grid: Grid::new(4, 1),
        global_batch: 4,
        seed: 77,
    }
}

#[test]
fn identical_seeds_are_bit_identical() {
    for stage in [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        let s = setup(stage);
        let a = run_training(&s, 4, 2);
        let b = run_training(&s, 4, 2);
        assert_eq!(a.losses, b.losses, "{stage:?}: losses");
        assert_eq!(a.val_losses, b.val_losses, "{stage:?}: val losses");
        assert_eq!(
            a.gather_master_mp1(),
            b.gather_master_mp1(),
            "{stage:?}: parameters"
        );
        for (x, y) in a.ranks.iter().zip(&b.ranks) {
            assert_eq!(x.peak_model_state_bytes, y.peak_model_state_bytes);
            assert_eq!(x.traffic, y.traffic, "{stage:?}: traffic");
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_training(&setup(ZeroStage::Two), 3, 0);
    let mut s = setup(ZeroStage::Two);
    s.seed = 78;
    let b = run_training(&s, 3, 0);
    assert_ne!(a.losses, b.losses, "seed must matter");
}
