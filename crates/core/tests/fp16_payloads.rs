//! Every fp16 all-gather sends fp16 values.
//!
//! In-process, an fp16 op's payload travels as f32 and is only *priced*
//! at 2 B an element. A `u16` wire would carry it losslessly exactly when
//! every float it sends is an fp16 value. `ResolvedOp::place`, which
//! builds every planned all-gather's buffer, checks that of the piece it
//! sends in debug builds; this test trains stages 1–3 in mixed precision
//! under that check. The ring reduce-scatter's partial sums are pinned in
//! `zero-comm`'s collectives tests.
#![cfg(debug_assertions)]

use zero_comm::{launch, CollectiveKind, Grid};
use zero_core::{RankEngine, ZeroConfig, ZeroStage};
use zero_model::{init_full_params, Gpt, ModelConfig, SyntheticCorpus};

#[test]
fn fp16_gathers_carry_fp16_values() {
    let model = ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 };
    let corpus = SyntheticCorpus::generate(model.vocab, 5000, 77);
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        for n in [2, 4] {
            let gathered = launch(n, |comm| {
                let zcfg = ZeroConfig { stage, fp16: true, initial_loss_scale: 64.0, ..ZeroConfig::default() };
                let params = init_full_params(&model, 21);
                let mut engine = RankEngine::new(Gpt::new(model), &params, zcfg, Grid::new(n, 1), comm);
                for step in 0..2 {
                    let (ids, targets) = corpus.rank_batch(step, 2 * n, model.seq, n, engine.dp_rank());
                    engine.train_step(&ids, &targets, 2);
                }
                engine.traffic().bytes(CollectiveKind::AllGather)
            });
            // Every rank gathered, each gather through `place`'s check.
            assert!(gathered.iter().all(|&b| b > 0), "{stage:?} on {n} ranks: {gathered:?}");
        }
    }
}
