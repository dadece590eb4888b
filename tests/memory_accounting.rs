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
use zero::core::{run_training, CkptPlace, MemCategory, RankEngine, TrainSetup, ZeroConfig, ZeroStage};
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

fn run_offloaded(stage: ZeroStage, dp: usize, budget: u64) -> zero::core::TrainReport {
    let setup = TrainSetup {
        model: model(),
        zero: ZeroConfig {
            stage,
            fp16: true,
            checkpoint_activations: false,
            tier: zero::core::TierConfig::budgeted(budget),
            ..ZeroConfig::default()
        },
        grid: Grid::new(dp, 1),
        global_batch: 4,
        seed: 3,
    };
    run_training(&setup, 2, 0)
}

#[test]
fn offload_moves_model_state_shards_to_host_categories_byte_exactly() {
    // Under tier offload the per-rank shards leave the device categories
    // for their Host* twins at exactly the paper's per-shard sizes:
    // 12·shard of fp32 optimizer state (stage ≥ 1), 2·shard of fp16
    // gradient shard (stage ≥ 2), 2·shard of fp16 working parameters
    // (stage 3).
    let psi = model().total_params();
    let dp = 4;
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        let report = run_offloaded(stage, dp, u64::MAX);
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
    // A dead peer must not leak `Buffers` in the tracker: the victim's
    // first stage-3 parameter all-gather (a unit fetch) and first stage-1
    // gradient reduce-scatter (a CB chunk) each fail the step with the
    // staging buffer charged, in synchronous and (stage 3) overlapped mode
    // alike.
    let cases = [
        (ZeroStage::Three, CollectiveKind::AllGather),
        (ZeroStage::One, CollectiveKind::ReduceScatter),
    ];
    for (stage, kind) in cases {
        for overlap in [false, true].into_iter().filter(|&o| !o || stage.partitions_grads()) {
            let cfg = model();
            let wcfg = WorldConfig {
                recv_timeout: std::time::Duration::from_millis(200),
                faults: FaultPlan::new().with_crash_at_kind(0, kind, 0),
                ..WorldConfig::default()
            };
            let out = try_launch_with_config(2, wcfg, move |comm| {
                let zcfg = ZeroConfig { stage, overlap, bucket_elems: 1000, ..ZeroConfig::default() };
                let params = init_full_params(&cfg, 4);
                let mut engine = RankEngine::new(Gpt::new(cfg), &params, zcfg, Grid::new(2, 1), comm);
                let corpus = SyntheticCorpus::generate(cfg.vocab, 2000, 1);
                let (ids, targets) = corpus.rank_batch(0, 2, cfg.seq, 2, engine.dp_rank());
                let before = engine.memory().live(MemCategory::Buffers);
                let res = engine.try_train_step(&[(&ids, &targets)], 1);
                (res.is_err(), before, engine.memory().live(MemCategory::Buffers))
            });
            for (rank, r) in out.iter().enumerate() {
                let (failed, before, after) = r.as_ref().expect("no rank panics");
                assert!(failed, "{stage:?} overlap={overlap} rank {rank}: the step must fail");
                assert_eq!(
                    after, before,
                    "{stage:?} overlap={overlap} rank {rank}: Buffers leaked on the error path"
                );
            }
        }
    }
}
