//! Engine behavior under stress: loss-scaler overflow recovery, parameter
//! freezing on skipped steps, gradient accumulation semantics, and the
//! optimizer-choice (K multiplier) memory footprints.

use zero::comm::{launch, Grid};
use zero::core::{
    run_training, CkptPlace, CommPlan, CompressionConfig, OptimizerKind, RankEngine, TierConfig, TrainSetup,
    ZeroConfig, ZeroStage,
};
use zero::model::{init_full_params, Gpt, Layout, ModelConfig, SyntheticCorpus};
use zero::optim::{AdamConfig, SgdConfig};
use zero_verify::memory::FULL_OFFLOAD_BUDGET;

fn model() -> ModelConfig {
    ModelConfig {
        vocab: 32,
        seq: 8,
        hidden: 16,
        layers: 2,
        heads: 2,
    }
}

#[test]
fn overflow_skips_step_and_scaler_recovers() {
    // An absurd initial loss scale forces fp16 gradient overflow; the
    // scaler must skip updates and halve until training proceeds.
    let cfg = model();
    let outcomes = launch(2, |comm| {
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 4);
        let zcfg = ZeroConfig {
            stage: ZeroStage::Two,
            fp16: true,
            initial_loss_scale: 1e30,
            ..ZeroConfig::default()
        };
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(2, 1), comm);
        let corpus = SyntheticCorpus::generate(cfg.vocab, 5000, 1);
        let master_before = engine.master_params().to_vec();
        let mut results = Vec::new();
        for step in 0..120 {
            let (ids, targets) = corpus.rank_batch(step, 2, cfg.seq, 2, engine.dp_rank());
            let out = engine.train_step(&ids, &targets, 1);
            if step == 0 {
                // First step must have overflowed and left parameters
                // untouched.
                assert!(out.skipped, "1e30 scale must overflow");
                assert_eq!(engine.master_params(), &master_before[..]);
            }
            results.push(out);
        }
        results
    });
    let r0 = &outcomes[0];
    assert!(r0[0].skipped);
    assert!(
        r0.iter().any(|o| !o.skipped),
        "scaler should back off until steps succeed"
    );
    let first_clean = r0.iter().position(|o| !o.skipped).unwrap();
    // After recovery, the vast majority of steps proceed (the scaler may
    // still occasionally back off near the overflow boundary — that is
    // its job).
    let clean = r0[first_clean..].iter().filter(|o| !o.skipped).count();
    let tail = r0.len() - first_clean;
    assert!(
        clean * 10 >= tail * 8,
        "only {clean}/{tail} clean steps after recovery"
    );
    // The scale halved at least ~66 times to get under fp16 range.
    assert!(r0[first_clean].loss_scale < 1e10);
}

#[test]
fn gradient_accumulation_equals_bigger_batch() {
    // One step over [micro1, micro2] must equal one step over the
    // concatenated batch (fp32, mean losses and mean gradients agree).
    let cfg = model();
    let corpus = SyntheticCorpus::generate(cfg.vocab, 5000, 7);
    let (ids, targets) = corpus.batch(0, 4, cfg.seq);
    let half = 2 * cfg.seq;

    let masters = launch(1, |comm| {
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 9);
        let zcfg = ZeroConfig::fp32_exact(ZeroStage::Two);
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(1, 1), comm);
        let micros = [
            (&ids[..half], &targets[..half]),
            (&ids[half..], &targets[half..]),
        ];
        let out = engine.try_train_step(&micros, 2).unwrap();
        (engine.master_params().to_vec(), out.loss)
    });
    let (accum_master, accum_loss) = masters[0].clone();

    let full = launch(1, |comm| {
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 9);
        let zcfg = ZeroConfig::fp32_exact(ZeroStage::Two);
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(1, 1), comm);
        let out = engine.train_step(&ids, &targets, 4);
        (engine.master_params().to_vec(), out.loss)
    });
    let (full_master, full_loss) = full[0].clone();

    assert!(
        (accum_loss - full_loss).abs() < 1e-5,
        "losses: {accum_loss} vs {full_loss}"
    );
    let max_diff = accum_master
        .iter()
        .zip(&full_master)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f32, f32::max);
    assert!(max_diff < 1e-5, "accumulation diverged by {max_diff}");
}

#[test]
fn accumulation_across_stages_is_consistent() {
    let cfg = model();
    let corpus = SyntheticCorpus::generate(cfg.vocab, 5000, 3);
    let run = |stage: ZeroStage| {
        let corpus = &corpus;
        let masters = launch(2, move |comm| {
            let gpt = Gpt::new(cfg);
            let params = init_full_params(&cfg, 5);
            let zcfg = ZeroConfig::fp32_exact(stage);
            let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(2, 1), comm);
            for step in 0..3 {
                let (a_ids, a_tg) = corpus.rank_batch(2 * step, 4, cfg.seq, 2, engine.dp_rank());
                let (b_ids, b_tg) =
                    corpus.rank_batch(2 * step + 1, 4, cfg.seq, 2, engine.dp_rank());
                let micros = [(&a_ids[..], &a_tg[..]), (&b_ids[..], &b_tg[..])];
                engine.try_train_step(&micros, 2).unwrap();
            }
            (engine.master_params().to_vec(), engine.master_ranges().to_vec())
        });
        let mut flat = vec![0.0; cfg.total_params()];
        for (m, ranges) in &masters {
            for (i, v) in ranges.iter().cloned().flatten().zip(m) {
                flat[i] = *v;
            }
        }
        flat
    };
    let two = run(ZeroStage::Two);
    let three = run(ZeroStage::Three);
    let ddp = run(ZeroStage::Ddp);
    for (i, ((a, b), c)) in two.iter().zip(&three).zip(&ddp).enumerate() {
        assert!((a - b).abs() < 1e-4, "param {i}: stage2 {a} vs stage3 {b}");
        assert!((a - c).abs() < 1e-4, "param {i}: stage2 {a} vs ddp {c}");
    }
}

#[test]
fn optimizer_choice_sets_the_k_multiplier() {
    // §2.3: the optimizer decides K (Adam 12, SGD with momentum 8, plain
    // SGD 4); the stage decides which classes are cut to this rank's shard
    // (§5): DDP (2+2+K)Ψ, stage 1 4Ψ + K·shard, stage 2 2Ψ + (2+K)·shard,
    // stage 3 (4+K)·shard. On the host tier stage 2's shards move to the
    // host categories at the same bytes. Every measured peak is the
    // memory walk's prediction to the byte.
    use zero::core::MemCategory::{HostGradShard, HostOptimizerStates};
    use ZeroStage::{Ddp, One, Three, Two};
    let cfg = model();
    let (layout, psi, grid) = (Layout::build(&cfg), cfg.total_params() as u64, Grid::new(2, 1));
    let sgd = |momentum| OptimizerKind::Sgd(SgdConfig { lr: 0.01, momentum });
    for (optimizer, k) in [(OptimizerKind::Adam(AdamConfig::default()), 12), (sgd(0.9), 8), (sgd(0.0), 4)] {
        for (stage, on) in [(Ddp, false), (One, false), (Two, false), (Three, false), (Two, true)] {
            let tier = if on { TierConfig::budgeted(u64::MAX) } else { TierConfig::off() };
            let zero = ZeroConfig { stage, fp16: true, optimizer, tier, ..ZeroConfig::default() };
            let setup = TrainSetup { model: cfg, zero, grid, global_batch: 4, seed: 1 };
            for (d, r) in run_training(&setup, 1, 0).ranks.iter().enumerate() {
                let (shard, what) = (r.master.len() as u64, format!("{stage:?} K = {k} tier {on} rank {d}"));
                let (device, host) = match stage {
                    Ddp => ((4 + k) * psi, [0, 0]),
                    One => (4 * psi + k * shard, [0, 0]),
                    Two if on => (2 * psi, [k * shard, 2 * shard]),
                    Two => (2 * psi + (2 + k) * shard, [0, 0]),
                    Three => ((4 + k) * shard, [0, 0]),
                };
                let host_peak = [HostOptimizerStates, HostGradShard].map(|c| r.peak_by_category[c as usize]);
                assert_eq!((r.peak_model_state_bytes, host_peak), (device, host), "{what}");
                let walked = CommPlan::footprint(&layout, &zero, grid, 1, 2 * cfg.seq * cfg.hidden, d);
                assert_eq!(r.peak_device_bytes, walked, "{what}: the memory walk");
            }
        }
    }
}

#[test]
fn sgd_training_also_converges_under_zero() {
    let setup = TrainSetup {
        model: model(),
        zero: ZeroConfig {
            stage: ZeroStage::Two,
            fp16: false,
            initial_loss_scale: 1.0,
            optimizer: OptimizerKind::Sgd(SgdConfig {
                lr: 0.05,
                momentum: 0.9,
            }),
            ..ZeroConfig::default()
        },
        grid: Grid::new(2, 1),
        global_batch: 4,
        seed: 6,
    };
    let report = run_training(&setup, 25, 0);
    let first: f32 = report.losses[..5].iter().sum::<f32>() / 5.0;
    let last: f32 = report.losses[20..].iter().sum::<f32>() / 5.0;
    assert!(last < first, "SGD under ZeRO should learn: {first} -> {last}");
}

#[test]
fn eval_does_not_mutate_parameters_or_state() {
    let cfg = model();
    launch(2, |comm| {
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 8);
        let zcfg = ZeroConfig::default();
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(2, 1), comm);
        let corpus = SyntheticCorpus::generate(cfg.vocab, 5000, 2);
        let (ids, targets) = corpus.rank_batch(0, 2, cfg.seq, 2, engine.dp_rank());
        let before = engine.master_params().to_vec();
        let l1 = engine.try_eval_loss(&ids, &targets, 1).unwrap();
        let l2 = engine.try_eval_loss(&ids, &targets, 1).unwrap();
        assert_eq!(l1, l2, "eval must be deterministic");
        assert_eq!(engine.master_params(), &before[..], "eval must not train");
        assert_eq!(engine.steps(), 0);
    });
}

#[test]
fn checkpoint_arena_grows_with_the_batch() {
    // The default config checkpoints activations into the MD arena, which
    // is sized from the step's activation shape: a larger batch on the
    // same engine must re-size it, not overflow the first step's.
    let cfg = model();
    launch(2, |comm| {
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 4);
        let zcfg = ZeroConfig { stage: ZeroStage::Two, ..ZeroConfig::default() };
        assert!(zcfg.checkpoint_activations);
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(2, 1), comm);
        let corpus = SyntheticCorpus::generate(cfg.vocab, 5000, 1);
        let (ids, targets) = corpus.rank_batch(0, 2, cfg.seq, 2, engine.dp_rank());
        assert!(engine.train_step(&ids, &targets, 1).loss.is_finite());
        let (ids, targets) = corpus.rank_batch(1, 4, cfg.seq, 2, engine.dp_rank());
        assert!(engine.train_step(&ids, &targets, 2).loss.is_finite());
        // …and back down: the grown arena keeps serving smaller batches.
        let (ids, targets) = corpus.rank_batch(2, 2, cfg.seq, 2, engine.dp_rank());
        assert!(engine.train_step(&ids, &targets, 1).loss.is_finite());
    });
}

#[test]
fn mixed_precision_trains_close_to_fp32() {
    // The whole point of the fp16 + fp32-master scheme: training quality
    // tracks fp32 closely.
    let mk = |fp16: bool| TrainSetup {
        model: model(),
        zero: ZeroConfig {
            stage: ZeroStage::Two,
            fp16,
            initial_loss_scale: 64.0,
            ..ZeroConfig::default()
        },
        grid: Grid::new(2, 1),
        global_batch: 4,
        seed: 13,
    };
    let fp16 = run_training(&mk(true), 20, 0);
    let fp32 = run_training(&mk(false), 20, 0);
    for (a, b) in fp16.losses.iter().zip(&fp32.losses) {
        assert!(
            (a - b).abs() < 0.05 * (1.0 + b.abs()),
            "fp16 {a} vs fp32 {b} drifted"
        );
    }
}

#[test]
fn hierarchical_all_reduce_matches_flat_in_training() {
    // Topology-aware DDP gradient reduction must be numerically
    // equivalent to the flat ring (up to reassociation — exact here
    // because both sum the same 4 values, grouped differently, on data
    // where f32 addition happens to associate; tolerance covers the rest).
    let mk = |node: usize| TrainSetup {
        model: model(),
        zero: ZeroConfig {
            node_size: node,
            ..ZeroConfig::fp32_exact(ZeroStage::Ddp)
        },
        grid: Grid::new(4, 1),
        global_batch: 4,
        seed: 31,
    };
    let flat = run_training(&mk(1), 4, 0);
    let hier = run_training(&mk(2), 4, 0);
    let a = flat.gather_master_mp1();
    let b = hier.gather_master_mp1();
    let diff = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f32, f32::max);
    assert!(diff < 1e-5, "hierarchical diverged by {diff}");
}

#[test]
fn first_losses_are_pinned_bit_for_bit() {
    // A kernel change that alters any element's summation order moves
    // these bit patterns, whatever it does to speed; they may only be
    // re-captured by a change that means to alter the arithmetic. Stage 2
    // runs fp16 with activation checkpointing (forward, recompute and
    // backward GEMMs); stage 3 runs fp32 with overlap. The last three rows
    // pin the synchronous engine paths: stage 3 fp16 with every ZeRO++
    // lever on two nodes of two (first-touch vs node-local refetch, both
    // wire formats), stage 3 under a tier budget that fits only the
    // offloaded parameter shard (a tier fetch at every gather, per-flush
    // spills), stage 1 with a bucket smaller than Ψ
    // (chunked gradient reduce-scatter and parameter publish), and DDP's
    // two-level all-reduce on two nodes of two, chunked the same way. The
    // next two rows pin the checkpoint walk: stage 3 fp16 with overlap at
    // interval 2 (one two-block recompute segment holding its units), and
    // stage 2 on a 2 × 2 grid with P_a+cpu (each rank's slice in the MD
    // arena, spilled to the host tier and fetched back to seed the MP
    // checkpoint gather). The next two rows clip on a 2 × 2 grid, where
    // the grad norm is summed over the MP group under DDP and over the
    // world under stage 2: a norm reduced over the wrong group moves the
    // clip coefficient and the losses. The last row runs stage 3 fp16
    // with overlap at interval 1: two one-block recompute segments, so the
    // prefetch chain meets a segment boundary, and the row after it runs
    // the same config over N = 4, where every reduction is a three-hop
    // ring sum. Every row also pins rank
    // 0's peak device bytes, so an alloc/free reordered across the step
    // fails here.
    let two = Grid::new(2, 1);
    let zeropp = CompressionConfig { qwz: true, hpz: true, qgz: true };
    let pinned: [(ZeroConfig, Grid, u64, [u32; 5], u64); 12] = [
        (
            ZeroConfig { stage: ZeroStage::Two, initial_loss_scale: 1.0, ..ZeroConfig::default() },
            two,
            11,
            [0x405e27a6, 0x405e6cda, 0x405d88e4, 0x405e4936, 0x405e518c],
            100_992,
        ),
        (
            ZeroConfig::fp32_exact(ZeroStage::Three).overlapped(),
            two,
            12,
            [0x405db1ea, 0x405ec222, 0x405bcee1, 0x405efd86, 0x405c555a],
            139_008,
        ),
        (
            ZeroConfig {
                stage: ZeroStage::Three,
                initial_loss_scale: 1.0,
                node_size: 2,
                compression: zeropp,
                ..ZeroConfig::default()
            },
            Grid::new(4, 1),
            13,
            // qwZ quantizes each member's piece of a unit in 64-element
            // blocks and qgZ each destination's chunk, so these bits depend
            // on where the per-unit split puts the pieces, and on which
            // weights the flat layout puts side by side in a block (linear
            // weights are input-major).
            [0x405cc28e, 0x405c9a66, 0x405d8710, 0x405d44ca, 0x405ee790],
            69_696,
        ),
        (
            ZeroConfig { tier: TierConfig::budgeted(FULL_OFFLOAD_BUDGET), ..ZeroConfig::fp32_exact(ZeroStage::Three) },
            two,
            14,
            [0x405d81d7, 0x405c724f, 0x405e1688, 0x405cc4ba, 0x405a73b4],
            48_448,
        ),
        (
            ZeroConfig {
                stage: ZeroStage::One,
                initial_loss_scale: 1.0,
                bucket_elems: 1000,
                ..ZeroConfig::default()
            },
            two,
            15,
            [0x405e3953, 0x405d243e, 0x405c2ff8, 0x405c2052, 0x405d0e5b],
            108_736,
        ),
        (
            ZeroConfig {
                stage: ZeroStage::Ddp,
                initial_loss_scale: 1.0,
                bucket_elems: 1000,
                node_size: 2,
                ..ZeroConfig::default()
            },
            Grid::new(4, 1),
            16,
            [0x405de746, 0x405d978f, 0x405c001a, 0x405ee946, 0x405d56e1],
            146_112,
        ),
        (
            ZeroConfig {
                stage: ZeroStage::Three,
                initial_loss_scale: 1.0,
                checkpoint_interval: 2,
                ..ZeroConfig::default()
            }
            .overlapped(),
            two,
            17,
            [0x405ed4f8, 0x405ceadb, 0x405ccd3c, 0x405cc6b1, 0x405c061d],
            123_520,
        ),
        (
            ZeroConfig {
                stage: ZeroStage::Two,
                initial_loss_scale: 1.0,
                checkpoint_place: CkptPlace::Host,
                ..ZeroConfig::default()
            },
            Grid::new(2, 2),
            18,
            [0x405e825f, 0x405f1560, 0x405eed28, 0x405e8ff4, 0x405d3321],
            59_280,
        ),
        (
            ZeroConfig {
                stage: ZeroStage::Ddp,
                initial_loss_scale: 1.0,
                clip_grad_norm: Some(0.5),
                ..ZeroConfig::default()
            },
            Grid::new(2, 2),
            19,
            [0x405c52f2, 0x405f5b5a, 0x405c4c96, 0x405c3e88, 0x405da82e],
            91_232,
        ),
        (
            ZeroConfig {
                stage: ZeroStage::Two,
                initial_loss_scale: 1.0,
                clip_grad_norm: Some(0.5),
                ..ZeroConfig::default()
            },
            Grid::new(2, 2),
            20,
            [0x405cc1ba, 0x405d4c6c, 0x405ba288, 0x405aa38c, 0x405cd5f2],
            59_312,
        ),
        (
            ZeroConfig { stage: ZeroStage::Three, initial_loss_scale: 1.0, ..ZeroConfig::default() }.overlapped(),
            two,
            21,
            [0x405f4e50, 0x405d65e6, 0x405f3739, 0x405c9fba, 0x405c67a1],
            // Block 0's gather is issued under block 1's recompute and
            // backward: one block unit buffer (4 × 3 280 bytes) over the
            // 93 248 of a chain that restarted at each segment.
            106_368,
        ),
        (
            ZeroConfig { stage: ZeroStage::Three, initial_loss_scale: 1.0, ..ZeroConfig::default() }.overlapped(),
            Grid::new(4, 1),
            22,
            [0x405ea908, 0x405d7f7c, 0x405d808c, 0x405dc82a, 0x405b5936],
            66_304,
        ),
    ];
    for (zero, grid, seed, want, peak) in pinned {
        let setup = TrainSetup { model: model(), zero, grid, global_batch: 4, seed };
        let report = run_training(&setup, 5, 0);
        let got: Vec<u32> = report.losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(got, want, "stage {:?} seed {seed} losses {:x?}", setup.zero.stage, got);
        assert_eq!(report.ranks[0].peak_device_bytes, peak, "seed {seed} peak device bytes");
    }
}
