//! Elastic resume: train on 2 "GPUs", checkpoint (each rank saves only
//! its 1/N_d shard), reshard the checkpoint, and resume on 4 "GPUs" —
//! ZeRO's sharded state makes the cluster size a restart-time choice.
//!
//! Then the involuntary version: a supervised run where a rank is *killed*
//! mid-step by an injected fault, and the supervisor rolls the survivors
//! back to the last consistent snapshot, reshards it onto the smaller
//! world, and finishes the job — no human in the loop.
//!
//! ```text
//! cargo run --release --example elastic_resume
//! ```

use zero::comm::{launch, CollectiveKind, FaultPlan, Grid};
use zero::core::{
    reshard, run_supervised, RankEngine, RankSnapshot, SupervisorConfig, TrainSetup, ZeroConfig,
    ZeroStage,
};
use zero::model::{init_full_params, Gpt, ModelConfig, SyntheticCorpus};

fn main() {
    let cfg = ModelConfig {
        vocab: 64,
        seq: 16,
        hidden: 32,
        layers: 2,
        heads: 4,
    };
    let global_batch = 8;
    let corpus = SyntheticCorpus::generate(cfg.vocab, 20_000, 99);
    let corpus = &corpus;
    let dir = std::env::temp_dir().join("zero-elastic-demo");
    let dir_ref = &dir;

    // ---- Phase 1: 2 ranks, 10 steps, save sharded checkpoint ----
    println!("phase 1: training on 2 ranks…");
    let losses1 = launch(2, move |comm| {
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 7);
        let zcfg = ZeroConfig {
            stage: ZeroStage::Two,
            ..ZeroConfig::default()
        };
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(2, 1), comm);
        let mut losses = Vec::new();
        for step in 0..10 {
            let (ids, tg) = corpus.rank_batch(step, global_batch, cfg.seq, 2, engine.dp_rank());
            losses.push(engine.train_step(&ids, &tg, global_batch / 2).loss);
        }
        engine.save_snapshot().save(dir_ref).expect("save shard");
        losses
    });
    println!(
        "  loss {:.3} → {:.3}; wrote 2 shard files to {}",
        losses1[0][0],
        losses1[0].last().unwrap(),
        dir.display()
    );

    // ---- Reshard 2 → 4 (an offline operation on the checkpoint) ----
    let snaps: Vec<RankSnapshot> = (0..2)
        .map(|r| RankSnapshot::load(&dir, r).expect("load shard"))
        .collect();
    let bigger = reshard(&snaps, 4).expect("shards tile the space");
    println!(
        "resharded 2 → 4: shard sizes {:?}",
        bigger.iter().map(|s| s.master.len()).collect::<Vec<_>>()
    );
    let bigger = &bigger;

    // ---- Phase 2: resume on 4 ranks ----
    println!("phase 2: resuming on 4 ranks…");
    let losses2 = launch(4, move |comm| {
        let rank = comm.rank();
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 7);
        let zcfg = ZeroConfig {
            stage: ZeroStage::Two,
            ..ZeroConfig::default()
        };
        let mut engine = RankEngine::new(gpt, &params, zcfg, Grid::new(4, 1), comm);
        engine.try_restore_snapshot(&bigger[rank]).expect("fault-free restore");
        let mut losses = Vec::new();
        for step in 10..20 {
            let (ids, tg) = corpus.rank_batch(step, global_batch, cfg.seq, 4, engine.dp_rank());
            losses.push(engine.train_step(&ids, &tg, global_batch / 4).loss);
        }
        losses
    });
    println!(
        "  loss {:.3} → {:.3} (continues where phase 1 left off)",
        losses2[0][0],
        losses2[0].last().unwrap()
    );
    assert!(
        losses2[0][0] < losses1[0][0],
        "resumed run must start from trained state, not from scratch"
    );
    std::fs::remove_dir_all(&dir).ok();
    println!("\nEach rank only ever wrote/read its own 1/N_d state shard — the");
    println!("N_d files together hold exactly one copy of the training state.");

    // ---- Phase 3: the involuntary shrink — survive a mid-step crash ----
    println!("\nphase 3: supervised run, killing rank 2 of 4 mid-step…");
    let sup_dir = std::env::temp_dir().join("zero-elastic-demo-supervised");
    std::fs::remove_dir_all(&sup_dir).ok();
    let setup = TrainSetup {
        model: cfg,
        zero: ZeroConfig { stage: ZeroStage::Two, fp16: false, ..ZeroConfig::default() },
        grid: Grid::new(4, 1),
        global_batch: 12,
        seed: 7,
    };
    let mut sup = SupervisorConfig::new(setup, 16, sup_dir.clone());
    sup.snapshot_every = 4;
    // Crash rank 2 in its 8th overflow-check all-reduce: mid-step, after
    // gradients are reduced, before the optimizer update lands.
    sup.faults = FaultPlan::new().with_crash_at_kind(2, CollectiveKind::AllReduce, 7);
    let report = run_supervised(&sup).expect("the supervised run survives one crash");

    for rec in &report.recoveries {
        println!(
            "  rank(s) {:?} died; rolled {} → {} ranks back to step {} \
             ({} steps of work lost, {} checkpoint bytes resharded)",
            rec.failed_ranks,
            rec.old_world,
            rec.new_world,
            rec.resumed_from_step,
            rec.steps_lost,
            rec.bytes_moved,
        );
    }
    println!(
        "  finished all {} steps on {} survivors; final eval loss {:.3}",
        report.losses.len(),
        report.final_world,
        report.final_eval,
    );
    assert_eq!(report.final_world, 3, "exactly one rank should have died");
    assert_eq!(report.losses.len(), 16, "the job must still run to completion");
    std::fs::remove_dir_all(&sup_dir).ok();
}
