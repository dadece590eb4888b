//! Sharded checkpoint save/resume: training interrupted at step k and
//! resumed from disk must produce exactly the same trajectory as an
//! uninterrupted run — for every ZeRO stage, including the loss-scaler
//! and Adam-moment state.

use zero::comm::{launch, Grid};
use zero::core::{RankEngine, RankSnapshot, ZeroConfig, ZeroStage};
use zero::model::{init_full_params, Gpt, ModelConfig, SyntheticCorpus};

fn model() -> ModelConfig {
    ModelConfig {
        vocab: 32,
        seq: 8,
        hidden: 16,
        layers: 2,
        heads: 2,
    }
}

fn make_engine(cfg: ModelConfig, stage: ZeroStage, fp16: bool, comm: zero::comm::Communicator) -> RankEngine {
    let gpt = Gpt::new(cfg);
    let params = init_full_params(&cfg, 21);
    let zcfg = ZeroConfig {
        stage,
        fp16,
        initial_loss_scale: 64.0,
        ..ZeroConfig::default()
    };
    RankEngine::new(gpt, &params, zcfg, Grid::new(2, 1), comm)
}

/// Trains `total` steps, optionally snap/restoring at `interrupt`.
fn run(stage: ZeroStage, fp16: bool, total: usize, interrupt: Option<usize>, dir: &std::path::Path) -> Vec<Vec<f32>> {
    let cfg = model();
    let corpus = SyntheticCorpus::generate(cfg.vocab, 5000, 77);
    let corpus = &corpus;
    launch(2, move |comm| {
        let rank = comm.rank();
        let mut engine = make_engine(cfg, stage, fp16, comm);
        for step in 0..total {
            if interrupt == Some(step) {
                // Simulate a crash/restart: persist, rebuild from scratch,
                // reload.
                let snap = engine.save_snapshot();
                snap.save(dir).expect("save shard");
                let comm = engine.into_comm();
                engine = make_engine(cfg, stage, fp16, comm);
                let snap = RankSnapshot::load(dir, rank).expect("load shard");
                engine.try_restore_snapshot(&snap).unwrap();
            }
            let (ids, targets) = corpus.rank_batch(step, 2, cfg.seq, 2, engine.dp_rank());
            engine.train_step(&ids, &targets, 1);
        }
        engine.master_params().to_vec()
    })
}

fn check_stage(stage: ZeroStage, fp16: bool) {
    let dir = std::env::temp_dir().join(format!(
        "zero-resume-{:?}-{}-{}",
        stage,
        fp16,
        std::process::id()
    ));
    let baseline = run(stage, fp16, 8, None, &dir);
    let resumed = run(stage, fp16, 8, Some(4), &dir);
    for (rank, (a, b)) in baseline.iter().zip(&resumed).enumerate() {
        assert_eq!(a, b, "rank {rank}: resume diverged under {stage:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_is_exact_for_ddp() {
    check_stage(ZeroStage::Ddp, false);
}

#[test]
fn resume_is_exact_for_stage1() {
    check_stage(ZeroStage::One, false);
}

#[test]
fn resume_is_exact_for_stage2_fp16() {
    check_stage(ZeroStage::Two, true);
}

#[test]
fn resume_is_exact_for_stage3_fp16() {
    check_stage(ZeroStage::Three, true);
}

#[test]
fn shards_tile_the_parameter_space() {
    let cfg = model();
    let dir = std::env::temp_dir().join(format!("zero-tile-{}", std::process::id()));
    let dir_ref = &dir;
    let corpus = SyntheticCorpus::generate(cfg.vocab, 5000, 1);
    let corpus = &corpus;
    launch(2, move |comm| {
        let mut engine = make_engine(cfg, ZeroStage::Two, true, comm);
        let (ids, targets) = corpus.rank_batch(0, 2, cfg.seq, 2, engine.dp_rank());
        engine.train_step(&ids, &targets, 1);
        engine.save_snapshot().save(dir_ref).expect("save");
    });
    let a = RankSnapshot::load(&dir, 0).unwrap();
    let b = RankSnapshot::load(&dir, 1).unwrap();
    // Each shard records the layout's unit table and holds its half of
    // every unit; laid out in flat order the halves run 0..Ψ.
    let layout = zero::model::Layout::build(&cfg);
    let units: Vec<u64> = layout.units().iter().map(|u| u.range.len() as u64).collect();
    assert_eq!((&a.units, a.owners, a.owner, b.owner), (&units, 2, 0, 1));
    let mut ranges = [a.flat_ranges().unwrap(), b.flat_ranges().unwrap()].concat();
    assert_eq!(ranges.len(), 2 * units.len(), "one piece of every unit per shard");
    ranges.sort_by_key(|r| r.start);
    let mut cursor = 0;
    for r in &ranges {
        assert_eq!(r.start, cursor, "shards must tile");
        cursor = r.end;
    }
    assert_eq!(cursor, cfg.total_params());
    assert_eq!(
        a.master.len() + b.master.len(),
        cfg.total_params(),
        "together the shards hold exactly one copy of the state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_rejects_wrong_rank() {
    let cfg = model();
    let dir = std::env::temp_dir().join(format!("zero-wrongrank-{}", std::process::id()));
    let dir_ref = &dir;
    launch(2, move |comm| {
        let engine = make_engine(cfg, ZeroStage::Two, true, comm);
        engine.save_snapshot().save(dir_ref).expect("save");
    });
    let caught = std::panic::catch_unwind(|| {
        launch(2, |comm| {
            let rank = comm.rank();
            let mut engine = make_engine(cfg, ZeroStage::Two, true, comm);
            // Deliberately load the OTHER rank's shard.
            let snap = RankSnapshot::load(dir_ref, 1 - rank).unwrap();
            engine.try_restore_snapshot(&snap).unwrap();
        });
    });
    assert!(caught.is_err(), "cross-rank restore must be rejected");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every rank's master values placed at their flat indices.
fn flat(masters: &[(Vec<f32>, Vec<std::ops::Range<usize>>)], total: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; total];
    for (m, ranges) in masters {
        for (i, v) in ranges.iter().cloned().flatten().zip(m) {
            out[i] = *v;
        }
    }
    out
}

#[test]
fn reshard_to_three_and_back_resumes_bit_identical() {
    // A 2-rank checkpoint re-split per unit onto 3 ranks and back onto 2
    // restores exactly the state it started from: the resumed run equals
    // an uninterrupted one bit for bit, Adam moments and scaler included.
    let cfg = model();
    let corpus = SyntheticCorpus::generate(cfg.vocab, 5000, 56);
    let corpus = &corpus;
    let train = |from: Option<&[RankSnapshot]>, steps: std::ops::Range<usize>| {
        launch(2, move |comm| {
            let rank = comm.rank();
            let mut engine = make_engine(cfg, ZeroStage::Two, true, comm);
            if let Some(snaps) = from {
                engine.try_restore_snapshot(&snaps[rank]).unwrap();
            }
            for step in steps.clone() {
                let (ids, tg) = corpus.rank_batch(step, 4, cfg.seq, 2, engine.dp_rank());
                engine.train_step(&ids, &tg, 2);
            }
            engine.save_snapshot()
        })
    };
    let uninterrupted = train(None, 0..8);
    let three = zero::core::reshard(&train(None, 0..4), 3).expect("shards tile the space");
    assert_eq!(three.iter().map(|s| s.master.len()).sum::<usize>(), cfg.total_params());
    let back = zero::core::reshard(&three, 2).expect("shards tile the space");
    let resumed = train(Some(&back), 4..8);
    assert_eq!(resumed, uninterrupted, "a resharded resume must equal the unresharded run");
}

#[test]
fn elastic_resume_on_a_different_dp_degree() {
    // Train 4 steps on 2 ranks, reshard the snapshots to 4 ranks, resume
    // 4 more steps — the parameter trajectory must match an uninterrupted
    // 2-rank run (fp32; the global batch and data order are identical, so
    // only ring reassociation differs).
    let cfg = model();
    let corpus = SyntheticCorpus::generate(cfg.vocab, 5000, 55);
    let corpus = &corpus;
    let global_batch = 4;

    // Uninterrupted baseline on 2 ranks.
    let baseline = launch(2, move |comm| {
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 15);
        let zcfg = ZeroConfig::fp32_exact(ZeroStage::Two);
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(2, 1), comm);
        for step in 0..8 {
            let (ids, tg) = corpus.rank_batch(step, global_batch, cfg.seq, 2, engine.dp_rank());
            engine.train_step(&ids, &tg, global_batch / 2);
        }
        (engine.master_params().to_vec(), engine.master_ranges().to_vec())
    });
    let base_full = flat(&baseline, cfg.total_params());

    // Phase 1: 2 ranks, 4 steps, snapshot.
    let snaps = launch(2, move |comm| {
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 15);
        let zcfg = ZeroConfig::fp32_exact(ZeroStage::Two);
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(2, 1), comm);
        for step in 0..4 {
            let (ids, tg) = corpus.rank_batch(step, global_batch, cfg.seq, 2, engine.dp_rank());
            engine.train_step(&ids, &tg, global_batch / 2);
        }
        engine.save_snapshot()
    });
    // Reshard 2 → 4.
    let resharded = zero::core::reshard(&snaps, 4).expect("shards tile the space");
    let resharded = &resharded;

    // Phase 2: 4 ranks resume steps 4..8 with the same global batches.
    let resumed = launch(4, move |comm| {
        let rank = comm.rank();
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 15);
        let zcfg = ZeroConfig::fp32_exact(ZeroStage::Two);
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(4, 1), comm);
        engine.try_restore_snapshot(&resharded[rank]).unwrap();
        for step in 4..8 {
            let (ids, tg) = corpus.rank_batch(step, global_batch, cfg.seq, 4, engine.dp_rank());
            engine.train_step(&ids, &tg, global_batch / 4);
        }
        (engine.master_params().to_vec(), engine.master_ranges().to_vec())
    });
    let res_full = flat(&resumed, cfg.total_params());

    assert_eq!(base_full.len(), res_full.len());
    let diff = base_full
        .iter()
        .zip(&res_full)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f32, f32::max);
    assert!(diff < 1e-4, "elastic resume diverged by {diff}");
}
