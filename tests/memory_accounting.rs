//! Measured memory vs. the paper's closed-form expressions (§3.1, §5,
//! Figure 1): with mixed-precision Adam the model states take
//!
//! * DDP:      2Ψ + 2Ψ + KΨ            (K = 12)
//! * P_os:     2Ψ + 2Ψ + KΨ/N_d
//! * P_os+g:   2Ψ + (2+K)Ψ/N_d
//! * P_os+g+p: (4+K)Ψ/N_d
//!
//! The engine's MemoryTracker registers every model-state allocation, so
//! these are *measured equalities*, exact to the byte (the shard of rank
//! `d` has `chunk_range(Ψ, N_d, d)` elements, so per-rank values differ by
//! at most one element's worth).

use zero::comm::{try_launch_with_config, CollectiveKind, FaultPlan, Grid, WorldConfig};
use zero::core::{
    run_training, CkptPlace, CommPlan, MemCategory, RankEngine, TrainSetup, ZeroConfig, ZeroStage,
};
use zero::model::{init_full_params, shard_params, Gpt, Layout, ModelConfig, SyntheticCorpus};

fn model() -> ModelConfig {
    ModelConfig {
        vocab: 32,
        seq: 8,
        hidden: 16,
        layers: 2,
        heads: 2,
    }
}

fn run(stage: ZeroStage, dp: usize) -> zero::core::TrainReport {
    let setup = TrainSetup {
        model: model(),
        zero: ZeroConfig {
            stage,
            fp16: true,
            checkpoint_activations: false,
            ..ZeroConfig::default()
        },
        grid: Grid::new(dp, 1),
        global_batch: 4,
        seed: 3,
    };
    run_training(&setup, 2, 0)
}

fn shard_len(total: usize, n: usize, i: usize) -> u64 {
    zero::comm::chunk_range(total, n, i).len() as u64
}

#[test]
fn ddp_model_states_are_16_psi() {
    let psi = model().total_params() as u64;
    let report = run(ZeroStage::Ddp, 4);
    for r in &report.ranks {
        assert_eq!(
            r.peak_model_state_bytes,
            16 * psi,
            "rank {}: DDP must hold 2Ψ+2Ψ+12Ψ bytes",
            r.rank
        );
    }
}

#[test]
fn stage1_model_states_are_4_psi_plus_k_over_nd() {
    let psi = model().total_params();
    let dp = 4;
    let report = run(ZeroStage::One, dp);
    for (d, r) in report.ranks.iter().enumerate() {
        let want = 4 * psi as u64 + 12 * shard_len(psi, dp, d);
        assert_eq!(r.peak_model_state_bytes, want, "rank {d}");
    }
}

#[test]
fn stage2_model_states_are_2_psi_plus_14_over_nd() {
    let psi = model().total_params();
    let dp = 4;
    let report = run(ZeroStage::Two, dp);
    for (d, r) in report.ranks.iter().enumerate() {
        let want = 2 * psi as u64 + 14 * shard_len(psi, dp, d);
        assert_eq!(r.peak_model_state_bytes, want, "rank {d}");
    }
}

#[test]
fn stage3_model_states_are_16_over_nd() {
    let psi = model().total_params();
    let dp = 4;
    let report = run(ZeroStage::Three, dp);
    for (d, r) in report.ranks.iter().enumerate() {
        let want = 16 * shard_len(psi, dp, d);
        assert_eq!(r.peak_model_state_bytes, want, "rank {d}");
    }
}

fn offloaded(stage: ZeroStage, budget: u64) -> ZeroConfig {
    ZeroConfig {
        stage,
        fp16: true,
        checkpoint_activations: false,
        tier: zero::core::TierConfig::budgeted(budget),
        ..ZeroConfig::default()
    }
}

fn run_offloaded(stage: ZeroStage, dp: usize, budget: u64) -> zero::core::TrainReport {
    let setup = TrainSetup {
        model: model(),
        zero: offloaded(stage, budget),
        grid: Grid::new(dp, 1),
        global_batch: 4,
        seed: 3,
    };
    run_training(&setup, 2, 0)
}

/// The largest tier budget under which stage 3 at `run_offloaded`'s shape
/// offloads its parameter shard.
fn full_offload_budget(dp: usize) -> u64 {
    let (m, zcfg) = (model(), offloaded(ZeroStage::Three, u64::MAX));
    CommPlan::full_offload_budget(&Layout::build(&m), &zcfg, Grid::new(dp, 1), 1, 4 / dp * m.seq * m.hidden)
}

#[test]
fn offload_moves_model_state_shards_to_host_categories_byte_exactly() {
    // Under tier offload the per-rank shards leave the device categories
    // for their Host* twins at exactly the paper's per-shard sizes:
    // 12·shard of fp32 optimizer state (stage ≥ 1), 2·shard of fp16
    // gradient shard (stage ≥ 2), 2·shard of fp16 working parameters
    // (stage 3, under a budget that cannot hold it beside the step).
    let psi = model().total_params();
    let dp = 4;
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        let budget = if stage == ZeroStage::Three { full_offload_budget(dp) } else { u64::MAX };
        let report = run_offloaded(stage, dp, budget);
        for (d, r) in report.ranks.iter().enumerate() {
            let shard = shard_len(psi, dp, d);
            let host = |c: MemCategory| r.peak_by_category[c as usize];
            let dev = |c: MemCategory| r.peak_by_category[c as usize];
            assert_eq!(
                host(MemCategory::HostOptimizerStates),
                12 * shard,
                "{stage:?} rank {d}: host optimizer shard"
            );
            assert_eq!(dev(MemCategory::MasterParams), 0, "{stage:?} rank {d}");
            assert_eq!(dev(MemCategory::Momentum), 0, "{stage:?} rank {d}");
            assert_eq!(dev(MemCategory::Variance), 0, "{stage:?} rank {d}");
            if stage.partitions_grads() {
                assert_eq!(
                    host(MemCategory::HostGradShard),
                    2 * shard,
                    "{stage:?} rank {d}: host gradient shard"
                );
                assert_eq!(dev(MemCategory::Gradients), 0, "{stage:?} rank {d}");
            } else {
                // Stage 1 keeps the full fp16 gradient buffer on device.
                assert_eq!(host(MemCategory::HostGradShard), 0);
                assert_eq!(dev(MemCategory::Gradients), 2 * psi as u64);
            }
            if stage.partitions_params() {
                assert_eq!(
                    host(MemCategory::HostParamShard),
                    2 * shard,
                    "{stage:?} rank {d}: host parameter shard"
                );
                assert_eq!(dev(MemCategory::ParamsFp16), 0, "{stage:?} rank {d}");
            } else {
                assert_eq!(host(MemCategory::HostParamShard), 0);
                assert_eq!(dev(MemCategory::ParamsFp16), 2 * psi as u64);
            }
        }
    }
}

#[test]
fn a_budget_that_holds_the_parameter_shard_keeps_it_on_the_device() {
    // The placement is the plan's: with room beside the step, the stage-3
    // parameter shard stays a device category at the same 2·shard bytes,
    // costing exactly those bytes of peak, and the losses do not move.
    let (psi, dp) = (model().total_params(), 4);
    let tight = full_offload_budget(dp);
    let (offloaded, kept) = (run_offloaded(ZeroStage::Three, dp, tight), run_offloaded(ZeroStage::Three, dp, tight + 1));
    for (d, (o, k)) in offloaded.ranks.iter().zip(&kept.ranks).enumerate() {
        let shard = 2 * shard_len(psi, dp, d);
        let cat = |r: &zero::core::RankReport, c: MemCategory| r.live_by_category[c as usize];
        assert_eq!((cat(k, MemCategory::ParamsFp16), cat(k, MemCategory::HostParamShard)), (shard, 0), "rank {d}");
        assert_eq!((cat(o, MemCategory::ParamsFp16), cat(o, MemCategory::HostParamShard)), (0, shard), "rank {d}");
        assert_eq!(k.peak_device_bytes, o.peak_device_bytes + shard, "rank {d}");
        assert!(k.peak_device_bytes <= tight + 1 && o.peak_device_bytes <= tight, "rank {d}");
    }
    let bits = |r: &zero::core::TrainReport| r.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&offloaded), bits(&kept));
}

#[test]
fn offload_budget_is_enforced_and_binds_below_the_unconstrained_peak() {
    // The device-budget proof: pick a budget strictly between the
    // offloaded and unconstrained peaks. The offloaded run completes —
    // the armed tracker would have panicked past the budget — while the
    // baseline demonstrably needed more than the budget allows.
    let dp = 2;
    let baseline = run(ZeroStage::Three, dp);
    let probe = run_offloaded(ZeroStage::Three, dp, u64::MAX);
    let base_peak =
        baseline.ranks.iter().map(|r| r.peak_device_bytes).max().unwrap();
    let off_peak = probe.ranks.iter().map(|r| r.peak_device_bytes).max().unwrap();
    assert!(
        off_peak < base_peak,
        "offload must lower the device peak: {off_peak} vs {base_peak}"
    );
    let budget = (off_peak + base_peak) / 2;
    let proven = run_offloaded(ZeroStage::Three, dp, budget);
    for r in &proven.ranks {
        assert!(
            r.peak_device_bytes <= budget,
            "rank {}: peak {} exceeds enforced budget {budget}",
            r.rank,
            r.peak_device_bytes
        );
    }
    // Same data, same arithmetic: the constrained run's losses are the
    // baseline's, bitwise.
    for (a, b) in baseline.losses.iter().zip(&proven.losses) {
        assert_eq!(a.to_bits(), b.to_bits(), "budget must not perturb training");
    }
}

#[test]
fn memory_reduction_ratios_match_figure1() {
    // Figure 1's example ratios at N_d = 4: DDP = 16Ψ, P_os ≈ 7Ψ,
    // P_os+g ≈ 5.5Ψ, P_os+g+p = 4Ψ.
    let psi = model().total_params() as f64;
    let ddp = run(ZeroStage::Ddp, 4).max_model_state_bytes() as f64 / psi;
    let s1 = run(ZeroStage::One, 4).max_model_state_bytes() as f64 / psi;
    let s2 = run(ZeroStage::Two, 4).max_model_state_bytes() as f64 / psi;
    let s3 = run(ZeroStage::Three, 4).max_model_state_bytes() as f64 / psi;
    assert!((ddp - 16.0).abs() < 0.01, "DDP {ddp}");
    assert!((s1 - 7.0).abs() < 0.05, "P_os {s1}");
    assert!((s2 - 5.5).abs() < 0.05, "P_os+g {s2}");
    assert!((s3 - 4.0).abs() < 0.05, "P_os+g+p {s3}");
    assert!(ddp > s1 && s1 > s2 && s2 > s3, "each stage strictly helps");
}

#[test]
fn fp32_mode_has_k_8_footprint() {
    // Without mixed precision there is no separate fp16 copy: 4Ψ params
    // (working) + 4Ψ grads + 4Ψ master + 8Ψ Adam = 20Ψ under DDP.
    let psi = model().total_params() as u64;
    let setup = TrainSetup {
        model: model(),
        zero: ZeroConfig::fp32_exact(ZeroStage::Ddp),
        grid: Grid::new(2, 1),
        global_batch: 4,
        seed: 3,
    };
    let report = run_training(&setup, 1, 0);
    assert_eq!(report.ranks[0].peak_model_state_bytes, 20 * psi);
}

#[test]
fn checkpointing_reduces_activation_memory() {
    let mk = |ckpt: bool| TrainSetup {
        model: model(),
        zero: ZeroConfig {
            stage: ZeroStage::Two,
            checkpoint_activations: ckpt,
            ..ZeroConfig::default()
        },
        grid: Grid::new(2, 1),
        global_batch: 4,
        seed: 3,
    };
    let with = run_training(&mk(true), 1, 0);
    let without = run_training(&mk(false), 1, 0);
    let act = MemCategory::Activations as usize;
    let ck = MemCategory::Checkpoints as usize;
    let _ = act;
    let _ = ck;
    assert!(
        with.ranks[0].peak_device_bytes < without.ranks[0].peak_device_bytes,
        "checkpointing must lower peak device memory: {} vs {}",
        with.ranks[0].peak_device_bytes,
        without.ranks[0].peak_device_bytes
    );
}

#[test]
fn pa_partitions_checkpoint_memory_by_mp_degree() {
    // §6.1: P_a reduces the checkpoint footprint proportional to N_m.
    let mk = |checkpoint_place| TrainSetup {
        model: ModelConfig {
            heads: 4,
            ..model()
        },
        zero: ZeroConfig {
            stage: ZeroStage::Two,
            checkpoint_activations: true,
            checkpoint_place,
            ..ZeroConfig::default()
        },
        grid: Grid::new(2, 2),
        global_batch: 4,
        seed: 3,
    };
    let plain = run_training(&mk(CkptPlace::Whole), 1, 0);
    let pa = run_training(&mk(CkptPlace::Partitioned), 1, 0);
    let ck = MemCategory::Checkpoints as usize;
    let plain_peak = plain.ranks[0].peak_by_category[ck];
    let pa_peak = pa.ranks[0].peak_by_category[ck];
    assert!(plain_peak > 0, "checkpoints were stored");
    assert_eq!(
        pa_peak * 2,
        plain_peak,
        "P_a must shrink checkpoint bytes by exactly N_m = 2"
    );
}

#[test]
fn cpu_offload_moves_checkpoints_off_device() {
    let mk = |checkpoint_place| TrainSetup {
        model: ModelConfig { heads: 4, ..model() },
        zero: ZeroConfig {
            stage: ZeroStage::Two,
            checkpoint_activations: true,
            checkpoint_place,
            ..ZeroConfig::default()
        },
        grid: Grid::new(1, 2),
        global_batch: 2,
        seed: 3,
    };
    let on_device = run_training(&mk(CkptPlace::Partitioned), 1, 0);
    let offloaded = run_training(&mk(CkptPlace::Host), 1, 0);
    let ck = MemCategory::Checkpoints as usize;
    let host = MemCategory::HostCheckpoints as usize;
    // All checkpoint bytes move to the host tier: device checkpoint peak
    // drops to zero and the host holds exactly what the device held.
    assert!(on_device.ranks[0].peak_by_category[ck] > 0);
    assert_eq!(offloaded.ranks[0].peak_by_category[ck], 0);
    let held = offloaded.ranks[0].peak_by_category[host];
    assert_eq!(held, on_device.ranks[0].peak_by_category[ck], "the host must hold exactly the former device checkpoints");
    // §8: P_a+cpu moves each checkpoint across the host link twice (down
    // at store, back at restore), metered by the tier; with the tier off
    // the link is free.
    let tier = offloaded.ranks[0].tier;
    assert_eq!((tier.spill_bytes, tier.fetch_bytes), (held, held), "each checkpoint crosses the link twice");
    assert_eq!(offloaded.ranks[0].tier_time, std::time::Duration::ZERO);
    assert_eq!(on_device.ranks[0].tier.total_bytes(), 0);
}

#[test]
fn checkpoint_interval_trades_checkpoint_memory_for_activation_memory() {
    // Interval k stores ⌈L/k⌉ checkpoints; during backward a whole
    // segment's saved activations are live at once.
    let mk = |interval: usize| TrainSetup {
        model: ModelConfig {
            layers: 4,
            ..model()
        },
        zero: ZeroConfig {
            stage: ZeroStage::Two,
            checkpoint_activations: true,
            checkpoint_interval: interval,
            ..ZeroConfig::default()
        },
        grid: Grid::new(2, 1),
        global_batch: 4,
        seed: 3,
    };
    let every = run_training(&mk(1), 1, 0);
    let half = run_training(&mk(2), 1, 0);
    let ck = MemCategory::Checkpoints as usize;
    let act = MemCategory::Activations as usize;
    // Checkpoint bytes halve exactly (4 checkpoints -> 2).
    assert_eq!(
        every.ranks[0].peak_by_category[ck],
        2 * half.ranks[0].peak_by_category[ck]
    );
    // Peak saved activations grow (two blocks' worth live per segment).
    assert!(
        half.ranks[0].peak_by_category[act] > every.ranks[0].peak_by_category[act],
        "{} vs {}",
        half.ranks[0].peak_by_category[act],
        every.ranks[0].peak_by_category[act]
    );
}

#[test]
fn failed_step_returns_staging_buffers_to_the_tracker() {
    // A dead peer must leave no transient bytes charged in the tracker.
    // The victim's first stage-3 parameter all-gather (a unit fetch) and
    // first stage-1 gradient reduce-scatter (a CB chunk) fail the step with
    // a staging buffer charged; later stage-3 gathers fail it with block
    // activations kept (the backward's first refetch, without
    // checkpointing), with a checkpoint stored (the second block's forward
    // fetch at interval 2), or with a recomputed segment's units and
    // activations held (its second recompute fetch) — in synchronous and
    // (stage 3) overlapped mode alike.
    let transient = [MemCategory::Buffers, MemCategory::Activations, MemCategory::Checkpoints, MemCategory::HostCheckpoints];
    let cases = [
        (ZeroStage::Three, CollectiveKind::AllGather, 0, Some(1)),
        (ZeroStage::One, CollectiveKind::ReduceScatter, 0, Some(1)),
        (ZeroStage::Three, CollectiveKind::AllGather, 3, None),
        (ZeroStage::Three, CollectiveKind::AllGather, 2, Some(2)),
        (ZeroStage::Three, CollectiveKind::AllGather, 5, Some(2)),
    ];
    for (stage, kind, nth, interval) in cases {
        for overlap in [false, true].into_iter().filter(|&o| !o || stage.partitions_grads()) {
            let cfg = model();
            let wcfg = WorldConfig {
                recv_timeout: std::time::Duration::from_millis(200),
                faults: FaultPlan::new().with_crash_at_kind(0, kind, nth),
                ..WorldConfig::default()
            };
            let out = try_launch_with_config(2, wcfg, move |comm| {
                let zcfg = ZeroConfig {
                    stage,
                    overlap,
                    bucket_elems: 1000,
                    checkpoint_activations: interval.is_some(),
                    checkpoint_interval: interval.unwrap_or(1),
                    ..ZeroConfig::default()
                };
                let params = init_full_params(&cfg, 4);
                let mut engine = RankEngine::new(Gpt::new(cfg), &params, zcfg, Grid::new(2, 1), comm);
                let corpus = SyntheticCorpus::generate(cfg.vocab, 2000, 1);
                let (ids, targets) = corpus.rank_batch(0, 2, cfg.seq, 2, engine.dp_rank());
                let live = |e: &RankEngine| transient.map(|c| e.memory().live(c));
                let before = live(&engine);
                let res = engine.try_train_step(&[(&ids, &targets)], 1);
                (res.is_err(), before, live(&engine))
            });
            for (rank, r) in out.iter().enumerate() {
                let (failed, before, after) = r.as_ref().expect("no rank panics");
                let what = format!("{stage:?} {kind:?} #{nth} interval {interval:?} overlap={overlap} rank {rank}");
                assert!(failed, "{what}: the step must fail");
                assert_eq!(after, before, "{what}: {transient:?} leaked on the error path");
            }
        }
    }
}

#[test]
fn overlapped_stage3_settles_each_reduce_scatter_at_the_first_gather_behind_it() {
    // `train.offload`'s shape: 4 blocks of hidden 128 (198 272 parameters
    // each), ZeRO-3 with overlap over two ranks, checkpointing every block,
    // bucket 65 536. Every block fills a bucket of its own; the head rides
    // with the last block and the embedding with the first. A bucket's
    // fp32 reduce-scatter buffer is released when the gather issued right
    // behind it is consumed, so at most one is held beside the two units
    // the prefetch window keeps: block 2 and block 1 gathered, head+block 3
    // in flight. Held to the end-of-backward drain, all four (4Ψ) were.
    let cfg = ModelConfig { vocab: 64, seq: 32, hidden: 128, layers: 4, heads: 4 };
    let out = zero::comm::launch(2, move |comm| {
        let zcfg = ZeroConfig {
            stage: ZeroStage::Three,
            overlap: true,
            initial_loss_scale: 1.0,
            tier: zero::core::TierConfig::budgeted(6 << 20),
            ..ZeroConfig::default()
        };
        let params = init_full_params(&cfg, 41);
        let mut engine = RankEngine::new(Gpt::new(cfg), &params, zcfg, Grid::new(2, 1), comm);
        let corpus = SyntheticCorpus::generate(cfg.vocab, 2000, 41);
        let (ids, targets) = corpus.rank_batch(0, 4, cfg.seq, 2, engine.dp_rank());
        engine.train_step(&ids, &targets, 2);
        engine.memory().peak(MemCategory::Buffers)
    });
    let (block, head_and_last) = (4 * 198_272, 4 * (198_272 + 8_448));
    assert_eq!(2 * block + head_and_last, 2_413_056);
    assert_eq!(out, [2_413_056; 2], "two gathered units plus one bucket");
}

/// Each rank's measured peak after one training step of `micros`
/// micro-batches of `local_batch` sequences on a fresh engine.
fn measured_peaks(setup: &TrainSetup, micros: usize, local_batch: usize) -> Vec<u64> {
    let (m, grid) = (setup.model, setup.grid);
    let full = init_full_params(&m, setup.seed);
    let corpus = setup.corpus(micros);
    zero::comm::launch(grid.world_size(), |comm| {
        let (dp_rank, mp_rank) = grid.coords(comm.rank());
        let params = if grid.mp_degree() == 1 { full.clone() } else { shard_params(&m, &full, grid.mp_degree(), mp_rank) };
        let mut engine = RankEngine::new(Gpt::new_mp(m, grid.mp_degree()), &params, setup.zero, grid, comm);
        let batches: Vec<_> =
            (0..micros).map(|i| corpus.rank_batch(i, setup.global_batch, m.seq, grid.dp_degree(), dp_rank)).collect();
        let micro_refs: Vec<(&[u32], &[u32])> = batches.iter().map(|(i, t)| (&i[..], &t[..])).collect();
        engine.try_train_step(&micro_refs, local_batch).expect("the step runs");
        engine.memory().peak_device()
    })
}

#[test]
fn the_memory_walk_predicts_every_peak_to_the_byte() {
    // Every configuration the schedule digests pin (DDP and stages 1–3,
    // tier on and off, synchronous and overlapped, ZeRO++ levers, MP
    // grids, the two-level all-reduce, P_a and P_a+cpu), trained one step
    // at two batch sizes, of one micro-batch and of two (the second
    // crosses the end-of-micro drain with reduce-scatters settled and
    // checkpoints restored): each rank's measured peak is the one
    // `CommPlan::footprint` walks to from the plan.
    let m = zero_verify::memory::digest_model();
    let mut configs = zero_verify::memory::digest_configs();
    configs.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));
    assert!(configs.len() >= 170, "{} configurations", configs.len());
    for (zcfg, grid, _) in configs {
        for (local_batch, micros) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            let setup = TrainSetup { model: m, zero: zcfg, grid, global_batch: local_batch * grid.dp_degree(), seed: 3 };
            let layout = Layout::build_mp(&m, grid.mp_degree());
            let act_elems = local_batch * m.seq * m.hidden;
            for (rank, peak) in measured_peaks(&setup, micros, local_batch).into_iter().enumerate() {
                let walked = CommPlan::footprint(&layout, &zcfg, grid, micros, act_elems, rank);
                assert_eq!(walked, peak, "{zcfg:?} {grid:?} batch {local_batch} micros {micros} rank {rank}");
            }
        }
    }
}
