//! Multi-rank training harness.
//!
//! Spawns one [`RankEngine`] per grid rank (each a thread, per
//! `zero-comm`), feeds every rank its share of each global batch, and
//! collects losses, memory footprints, and communication traffic — the
//! measurements the reproduction's experiments and equivalence tests
//! consume.

use zero_comm::{launch_with_config, Grid, TimingSnapshot, TrafficSnapshot, WorldConfig};
use zero_model::{init_full_params, rank_batch, shard_params, Gpt, ModelConfig, SyntheticCorpus};

use crate::config::ZeroConfig;
use crate::engine::RankEngine;
use crate::memory::{MemCategory, ALL_CATEGORIES, CATEGORY_COUNT};

/// A complete training-run specification.
#[derive(Clone, Copy, Debug)]
pub struct TrainSetup {
    /// Model configuration (per the full, unsharded model).
    pub model: ModelConfig,
    /// ZeRO engine configuration.
    pub zero: ZeroConfig,
    /// Process grid (dp × mp).
    pub grid: Grid,
    /// Global batch size (split evenly over DP replicas).
    pub global_batch: usize,
    /// Parameter-init and data seed.
    pub seed: u64,
}

impl TrainSetup {
    /// The synthetic corpus of a `steps`-step run: long enough for every
    /// training batch plus the held-out one, seeded from `seed`. A pure
    /// function of the setup and `steps` — never of the world size or
    /// fabric — which is what makes losses comparable bit for bit across
    /// fabrics and across a recovery's shrunken worlds.
    pub fn corpus(&self, steps: usize) -> SyntheticCorpus {
        let tokens = self.global_batch * (self.model.seq + 1) * (steps + 2);
        SyntheticCorpus::generate(self.model.vocab, tokens.max(10_000), self.seed ^ 0x5EED)
    }
}

/// Per-rank measurements captured after a run.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// Global rank.
    pub rank: usize,
    /// Peak device bytes.
    pub peak_device_bytes: u64,
    /// Peak model-state bytes (Figure 1 / Table 1 quantity).
    pub peak_model_state_bytes: u64,
    /// Live bytes per category at end of run (discriminant order).
    pub live_by_category: [u64; CATEGORY_COUNT],
    /// Peak bytes per category over the run (discriminant order).
    pub peak_by_category: [u64; CATEGORY_COUNT],
    /// Bytes moved over the simulated PCIe link (P_a+cpu).
    pub cpu_transfer_bytes: u64,
    /// Memory-tier fetch/spill meters (zero when offload is off).
    pub tier: crate::tier::TierStats,
    /// Modeled wall time of all tier transfers on the configured link.
    pub tier_time: std::time::Duration,
    /// Communication traffic snapshot.
    pub traffic: TrafficSnapshot,
    /// Per-kind wait vs in-flight execution timing.
    pub timing: TimingSnapshot,
    /// Everything this rank traced: spans, instants, counter samples
    /// (see [`zero_trace::StepTimeline`]).
    pub timeline: zero_trace::StepTimeline,
    /// This rank's fp32 master shard (or full buffer under DDP).
    pub master: Vec<f32>,
    /// The flat range the master shard covers.
    pub shard_range: std::ops::Range<usize>,
}

/// Results of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean loss per step, averaged over DP replicas.
    pub losses: Vec<f32>,
    /// Steps skipped by the loss scaler, per step (true = skipped).
    pub skipped: Vec<bool>,
    /// Validation losses, if eval points were requested.
    pub val_losses: Vec<f32>,
    /// Per-rank measurements.
    pub ranks: Vec<RankReport>,
}

impl TrainReport {
    /// Peak model-state bytes, maximum over ranks.
    pub fn max_model_state_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.peak_model_state_bytes).max().unwrap_or(0)
    }

    /// Reassembles the full fp32 master parameter buffer from the MP-rank-0
    /// replicas' shards (valid for mp = 1; for mp > 1 use per-shard
    /// comparisons instead). Under DDP each rank holds the full buffer and
    /// rank 0's copy is returned.
    ///
    /// # Panics
    /// Panics if the shards do not tile the flat space.
    pub fn gather_master_mp1(&self) -> Vec<f32> {
        let pieces = self.ranks.iter().map(|r| (r.shard_range.clone(), &r.master[..])).collect();
        crate::snapshot::assemble_flat(pieces)
            .unwrap_or_else(|e| panic!("shards must tile the space: {e}"))
    }
}

/// Runs `steps` training steps on a fresh model over a synthetic corpus.
///
/// `eval_every` (if nonzero) runs a validation pass on a held-out batch
/// after every that many steps.
pub fn run_training(setup: &TrainSetup, steps: usize, eval_every: usize) -> TrainReport {
    run_training_world(setup, steps, eval_every, WorldConfig::default())
}

/// Like [`run_training`] but over a fabric built from the given
/// [`WorldConfig`] — e.g. with a nonzero link latency, which is what
/// makes computation/communication overlap measurable on one host.
pub fn run_training_world(
    setup: &TrainSetup,
    steps: usize,
    eval_every: usize,
    world: WorldConfig,
) -> TrainReport {
    run_training_inner(setup, steps, eval_every, setup.corpus(steps).tokens(), world)
}

/// Like [`run_training`] but over a caller-supplied token stream (e.g. a
/// [`zero_model::ByteCorpus`] built from real text). Every token must be
/// `< model.vocab`.
pub fn run_training_on(
    setup: &TrainSetup,
    steps: usize,
    eval_every: usize,
    tokens: &[u32],
) -> TrainReport {
    run_training_inner(setup, steps, eval_every, tokens, WorldConfig::default())
}

/// Per-rank results collected by the training driver: losses, skipped
/// flags, validation losses, and the rank's report.
type RankOutput = (Vec<f32>, Vec<bool>, Vec<f32>, RankReport);

fn run_training_inner(
    setup: &TrainSetup,
    steps: usize,
    eval_every: usize,
    tokens: &[u32],
    world_cfg: WorldConfig,
) -> TrainReport {
    setup.model.validate();
    setup.zero.check(setup.grid).unwrap_or_else(|e| panic!("{e}"));
    let dp = setup.grid.dp_degree();
    assert_eq!(setup.global_batch % dp, 0, "global batch must divide evenly over DP replicas");
    assert!(
        tokens.iter().all(|&t| (t as usize) < setup.model.vocab),
        "token stream exceeds the model vocabulary"
    );
    assert!(
        tokens.len() > setup.model.seq + 1,
        "token stream shorter than one sequence"
    );
    let full = init_full_params(&setup.model, setup.seed);
    let local_batch = setup.global_batch / dp;

    let outputs: Vec<RankOutput> = launch_with_config(setup.grid.world_size(), world_cfg, |comm| {
        let rank = comm.rank();
        let (dp_rank, mp_rank) = setup.grid.coords(rank);
        let mp = setup.grid.mp_degree();
        let gpt = Gpt::new_mp(setup.model, mp);
        let my_params = if mp == 1 {
            full.clone()
        } else {
            shard_params(&setup.model, &full, mp, mp_rank)
        };
        let mut engine = RankEngine::new(gpt, &my_params, setup.zero, setup.grid, comm);
        drop(my_params);

        let batch =
            |index| rank_batch(tokens, index, setup.global_batch, setup.model.seq, dp, dp_rank);
        let mut losses = Vec::with_capacity(steps);
        let mut skipped = Vec::with_capacity(steps);
        let mut val_losses = Vec::new();
        for step in 0..steps {
            let (ids, targets) = batch(step);
            let out = engine.train_step(&ids, &targets, local_batch);
            losses.push(out.loss);
            skipped.push(out.skipped);
            if eval_every > 0 && (step + 1) % eval_every == 0 {
                // Held-out batch: beyond the training range.
                let (ids, targets) = batch(steps + 1);
                val_losses.push(engine.eval_loss(&ids, &targets, local_batch));
            }
        }
        let mem = engine.memory();
        let mut live = [0u64; CATEGORY_COUNT];
        let mut peak = [0u64; CATEGORY_COUNT];
        for (i, c) in ALL_CATEGORIES.iter().enumerate() {
            live[i] = mem.live(*c);
            peak[i] = mem.peak(*c);
        }
        let report = RankReport {
            rank,
            peak_device_bytes: mem.peak_device(),
            peak_model_state_bytes: mem.peak_model_states(),
            live_by_category: live,
            peak_by_category: peak,
            cpu_transfer_bytes: mem.cpu_transfer_bytes(),
            tier: engine.tier_stats(),
            tier_time: engine.tier_time(),
            traffic: engine.traffic(),
            timing: engine.timing(),
            timeline: engine.timeline(),
            master: engine.master_params().to_vec(),
            shard_range: engine.master_range(),
        };
        (losses, skipped, val_losses, report)
    });

    // Average losses over DP replicas (take mp_rank 0 of each replica —
    // MP ranks report identical losses).
    let steps_run = outputs[0].0.len();
    let mut losses = vec![0.0_f32; steps_run];
    for d in 0..dp {
        let rank = setup.grid.rank_at(d, 0);
        for (i, l) in outputs[rank].0.iter().enumerate() {
            losses[i] += l / dp as f32;
        }
    }
    let mut val_losses = vec![0.0_f32; outputs[0].2.len()];
    for d in 0..dp {
        let rank = setup.grid.rank_at(d, 0);
        for (i, l) in outputs[rank].2.iter().enumerate() {
            val_losses[i] += l / dp as f32;
        }
    }
    let skipped = outputs[0].1.clone();
    let ranks = outputs.into_iter().map(|o| o.3).collect();
    TrainReport {
        losses,
        skipped,
        val_losses,
        ranks,
    }
}

/// Convenience: the live model-state bytes of one rank report.
pub fn model_state_bytes(report: &RankReport) -> u64 {
    use MemCategory::*;
    [ParamsFp16, Gradients, MasterParams, Momentum, Variance]
        .iter()
        .map(|&c| report.live_by_category[c as usize])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ZeroConfig, ZeroStage};

    fn tiny_setup(stage: ZeroStage, dp: usize, mp: usize) -> TrainSetup {
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
                bucket_elems: 512,
                ..ZeroConfig::default()
            },
            grid: Grid::new(dp, mp),
            global_batch: 4,
            seed: 7,
        }
    }

    #[test]
    fn smoke_train_all_stages_fp16() {
        for stage in [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            let setup = tiny_setup(stage, 2, 1);
            let report = run_training(&setup, 3, 0);
            assert_eq!(report.losses.len(), 3);
            assert!(
                report.losses.iter().all(|l| l.is_finite()),
                "{stage:?}: losses finite"
            );
        }
    }

    #[test]
    fn smoke_train_with_mp() {
        let setup = tiny_setup(ZeroStage::Two, 2, 2);
        let report = run_training(&setup, 2, 1);
        assert_eq!(report.losses.len(), 2);
        assert_eq!(report.val_losses.len(), 2);
        assert!(report.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn smoke_train_offload_stages() {
        for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            for overlap in [false, true] {
                let mut setup = tiny_setup(stage, 2, 1);
                setup.zero.overlap = overlap;
                setup.zero.tier = crate::config::TierConfig::budgeted(64 << 20);
                let report = run_training(&setup, 2, 1);
                assert!(
                    report.losses.iter().all(|l| l.is_finite()),
                    "{stage:?} overlap={overlap}: losses finite"
                );
                let t = &report.ranks[0].tier;
                assert!(
                    t.total_bytes() > 0,
                    "{stage:?} overlap={overlap}: tier traffic metered"
                );
                assert!(
                    report.ranks[0].peak_device_bytes <= 64 << 20,
                    "{stage:?} overlap={overlap}: budget respected"
                );
            }
        }
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut setup = tiny_setup(ZeroStage::Two, 2, 1);
        setup.zero.fp16 = false; // avoid scaler warm-up noise in a short run
        setup.zero.optimizer = crate::config::OptimizerKind::Adam(zero_optim::AdamConfig {
            lr: 3e-3,
            ..Default::default()
        });
        let report = run_training(&setup, 25, 0);
        let first: f32 = report.losses[..5].iter().sum::<f32>() / 5.0;
        let last: f32 = report.losses[20..].iter().sum::<f32>() / 5.0;
        assert!(last < first, "loss should fall: {first} -> {last}");
    }
}
