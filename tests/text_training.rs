//! End-to-end training on real text through `ByteCorpus` +
//! `run_training_on` — the user-facing data path of the `zero-train`
//! CLI's `--text` mode.

use zero::comm::Grid;
use zero::core::{run_training_on, TrainSetup, ZeroConfig, ZeroStage};
use zero::model::{ByteCorpus, ModelConfig};

#[test]
fn byte_level_training_learns_text_structure() {
    let text = "the quick brown fox jumps over the lazy dog. ".repeat(120);
    let corpus = ByteCorpus::from_text(&text);
    let setup = TrainSetup {
        model: ModelConfig {
            vocab: 256,
            seq: 16,
            hidden: 32,
            layers: 2,
            heads: 4,
        },
        zero: ZeroConfig {
            stage: ZeroStage::Two,
            fp16: false,
            initial_loss_scale: 1.0,
            ..ZeroConfig::default()
        },
        grid: Grid::new(2, 1),
        global_batch: 8,
        seed: 3,
    };
    let report = run_training_on(&setup, 60, 0, corpus.tokens());
    let first: f32 = report.losses[..5].iter().sum::<f32>() / 5.0;
    let last: f32 = report.losses[55..].iter().sum::<f32>() / 5.0;
    // Highly repetitive text: the loss keeps falling.
    assert!(
        last < 0.7 * first,
        "text loss should fall: {first} -> {last}"
    );
}

#[test]
fn external_stream_equals_synthetic_path_for_same_tokens() {
    // run_training and run_training_on must be the same machinery.
    let setup = TrainSetup {
        model: ModelConfig {
            vocab: 32,
            seq: 8,
            hidden: 16,
            layers: 2,
            heads: 2,
        },
        zero: ZeroConfig::fp32_exact(ZeroStage::Two),
        grid: Grid::new(2, 1),
        global_batch: 4,
        seed: 9,
    };
    let a = zero::core::run_training(&setup, 3, 0);
    let tokens = setup.corpus(3);
    let b = run_training_on(&setup, 3, 0, tokens.tokens());
    assert_eq!(a.losses, b.losses, "the two entry points must agree");
}

#[test]
#[should_panic(expected = "exceeds the model vocabulary")]
fn oversized_tokens_rejected() {
    let setup = TrainSetup {
        model: ModelConfig {
            vocab: 16,
            seq: 8,
            hidden: 16,
            layers: 1,
            heads: 2,
        },
        zero: ZeroConfig::default(),
        grid: Grid::new(1, 1),
        global_batch: 2,
        seed: 1,
    };
    let tokens = vec![99u32; 1000]; // out of vocab
    let _ = run_training_on(&setup, 1, 0, &tokens);
}
