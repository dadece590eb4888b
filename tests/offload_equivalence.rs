//! Memory-tier offload must be *invisible* except in residency and
//! modeled time:
//!
//! * losses, validation losses, and master parameters bitwise identical
//!   to the unconstrained run across stages 1–3 × N × sync (and overlap
//!   at stages 2–3) — at stage 3 under both placements of the parameter
//!   shard, kept on the device and offloaded — and
//!   with every ZeRO++ lever mix on top — offload moves exact copies,
//!   never values;
//! * the collective schedule untouched: per-rank traffic still exactly
//!   equals the tier-off plan's analytic volumes;
//! * every byte crossing the tier metered and equal to the plan's
//!   per-rank tier stream, summed over executed steps;
//! * the device budget a completed run proves is genuinely below what
//!   the unconstrained run needed.

use zero::comm::{Grid, KIND_COUNT};
use zero::core::{
    run_training, CommPlan, CompressionConfig, StepShape, TierConfig, TrainSetup, ZeroConfig,
    ZeroStage,
};
use zero::model::{Layout, ModelConfig};

const STEPS: usize = 3;

fn model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

fn setup(stage: ZeroStage, dp: usize, overlap: bool, tier: TierConfig) -> TrainSetup {
    TrainSetup {
        model: model(),
        zero: ZeroConfig {
            stage,
            fp16: true,
            initial_loss_scale: 1.0,
            checkpoint_activations: false,
            bucket_elems: 1000, // several bucket flushes per backward
            overlap,
            tier,
            ..ZeroConfig::default()
        },
        grid: Grid::new(dp, 1),
        global_batch: 4,
        seed: 77,
    }
}

/// The tiers each stage is run under: one with room on the device and,
/// at stage 3, the largest budget the step fits only with the parameter
/// shard offloaded, so both placements run.
fn tiers(stage: ZeroStage, dp: usize, overlap: bool) -> Vec<TierConfig> {
    let roomy = TierConfig::budgeted(64 << 20);
    if stage != ZeroStage::Three {
        return vec![roomy];
    }
    let (s, m) = (setup(stage, dp, overlap, roomy), model());
    let act_elems = s.global_batch / dp * m.seq * m.hidden;
    let tight = TierConfig::budgeted(CommPlan::full_offload_budget(&Layout::build(&m), &s.zero, s.grid, 1, act_elems));
    assert!(CommPlan::placement(&Layout::build(&m), &ZeroConfig { tier: tight, ..s.zero }, s.grid, 1, act_elems).params);
    vec![roomy, tight]
}

#[test]
fn offloaded_losses_bitwise_match_unconstrained_for_all_stages() {
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        for dp in [2usize, 4] {
            // Stage 1 has nothing to issue ahead, so no overlapped form.
            for (overlap, tier) in [false, true]
                .into_iter()
                .filter(|&o| !o || stage.partitions_grads())
                .flat_map(|o| tiers(stage, dp, o).into_iter().map(move |t| (o, t)))
            {
                // eval_every exercises the eval pass's fetch path too.
                let off = run_training(&setup(stage, dp, overlap, tier), STEPS, 2);
                let base =
                    run_training(&setup(stage, dp, overlap, TierConfig::off()), STEPS, 2);
                for (i, (a, b)) in base.losses.iter().zip(&off.losses).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{stage:?} dp={dp} overlap={overlap} step {i}: \
                         unconstrained {a} != offloaded {b}"
                    );
                }
                assert_eq!(base.skipped, off.skipped, "{stage:?} dp={dp}");
                for (a, b) in base.val_losses.iter().zip(&off.val_losses) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{stage:?} dp={dp} overlap={overlap}: eval loss drifted"
                    );
                }
                for (rb, ro) in base.ranks.iter().zip(&off.ranks) {
                    assert_eq!(
                        rb.master, ro.master,
                        "{stage:?} dp={dp} overlap={overlap} rank {}: master drifted",
                        rb.rank
                    );
                    assert!(
                        ro.tier.total_bytes() > 0,
                        "{stage:?} dp={dp} rank {}: offload must move tier bytes",
                        rb.rank
                    );
                }
            }
        }
    }
}

#[test]
fn offload_composes_with_zeropp_compression_bitwise() {
    // qwZ, hpZ, qgZ and all three at G = 2 stack with the tier, each at
    // the stages that own it (stage 2 takes qgZ alone): the compressed
    // run's losses, eval losses and master parameters are the same bits
    // with offload on or off, and the metered tier bytes are the plan's —
    // an hpZ refetch reads the device-resident secondary copy and climbs
    // nothing.
    let cfg = model();
    let layout = Layout::build(&cfg);
    let lever = |qwz, hpz, qgz| CompressionConfig { qwz, hpz, qgz };
    let mixes = [lever(true, false, false), lever(false, true, false), lever(false, false, true), lever(true, true, true)];
    for stage in [ZeroStage::Two, ZeroStage::Three] {
        for compression in mixes.into_iter().filter(|c| stage.partitions_params() || !(c.qwz || c.hpz)) {
            for overlap in [false, true] {
                let run = |tier| {
                    let mut s = setup(stage, 4, overlap, tier);
                    s.zero.compression = compression;
                    s.zero.node_size = if compression.hpz || compression.qgz { 2 } else { 1 };
                    (run_training(&s, STEPS, 2), s.zero)
                };
                let ((off, zcfg), (base, _)) = (run(TierConfig::budgeted(64 << 20)), run(TierConfig::off()));
                let what = format!("{stage:?} {compression:?} overlap={overlap}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&base.losses), bits(&off.losses), "{what}: losses");
                assert_eq!(bits(&base.val_losses), bits(&off.val_losses), "{what}: eval losses");
                for (rb, ro) in base.ranks.iter().zip(&off.ranks) {
                    assert_eq!(bits(&rb.master), bits(&ro.master), "{what} rank {}: master", rb.rank);
                    // Every step's plan, and every eval pass's.
                    let (grid, act_elems) = (Grid::new(4, 1), cfg.seq * cfg.hidden);
                    let steps = off.skipped.iter().map(|&skipped| {
                        let shape = StepShape { micro_batches: 1, act_elems, skipped };
                        CommPlan::train_step(&layout, &zcfg, grid, &shape)
                    });
                    let evals = off.val_losses.iter().map(|_| CommPlan::eval_pass(&layout, &zcfg, grid, act_elems));
                    let (mut fetch, mut spill) = (0, 0);
                    for plan in steps.chain(evals) {
                        let (f, s) = plan.rank_tier_bytes(ro.rank);
                        (fetch, spill) = (fetch + f, spill + s);
                    }
                    assert!(ro.tier.total_bytes() > 0, "{what} rank {}: no tier bytes", ro.rank);
                    assert_eq!((ro.tier.fetch_bytes, ro.tier.spill_bytes), (fetch, spill), "{what} rank {}", ro.rank);
                }
            }
        }
    }
}

#[test]
fn offload_leaves_the_collective_schedule_untouched() {
    // The static core of the bitwise-loss guarantee: the offloaded run's
    // per-rank collective traffic equals the TIER-OFF plan's analytic
    // volume exactly — the tier stream rides alongside the collectives
    // without adding, dropping, or resizing a single message.
    let cfg = model();
    let layout = Layout::build(&cfg);
    for stage in [ZeroStage::Two, ZeroStage::Three] {
        for overlap in [false, true] {
            let s = setup(stage, 2, overlap, TierConfig::budgeted(64 << 20));
            let report = run_training(&s, 2, 0);
            let base_zero = ZeroConfig { tier: TierConfig::off(), ..s.zero };
            let act_elems = cfg.seq * cfg.hidden;
            for r in &report.ranks {
                let mut want = [0u64; KIND_COUNT];
                for &skipped in &report.skipped {
                    let plan = CommPlan::train_step(
                        &layout,
                        &base_zero,
                        s.grid,
                        &StepShape { micro_batches: 1, act_elems, skipped },
                    );
                    for (acc, b) in want.iter_mut().zip(plan.rank_bytes(r.rank)) {
                        *acc += b;
                    }
                }
                for (i, kind) in zero::comm::ALL_KINDS.iter().enumerate() {
                    assert_eq!(
                        r.traffic.bytes(*kind),
                        want[i],
                        "{stage:?} overlap={overlap} rank {} {kind:?} bytes",
                        r.rank
                    );
                }
            }
        }
    }
}

#[test]
fn metered_tier_bytes_reconcile_with_plan_volumes_exactly() {
    let cfg = model();
    let layout = Layout::build(&cfg);
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        for dp in [2usize, 4] {
            for (overlap, tier) in [false, true]
                .into_iter()
                .filter(|&o| !o || stage.partitions_grads())
                .flat_map(|o| tiers(stage, dp, o).into_iter().map(move |t| (o, t)))
            {
                let s = setup(stage, dp, overlap, tier);
                let report = run_training(&s, 2, 0);
                let act_elems = s.global_batch / dp * cfg.seq * cfg.hidden;
                for r in &report.ranks {
                    let (mut fetch, mut spill) = (0u64, 0u64);
                    let mut ops = 0u64;
                    for &skipped in &report.skipped {
                        let plan = CommPlan::train_step(
                            &layout,
                            &s.zero,
                            s.grid,
                            &StepShape { micro_batches: 1, act_elems, skipped },
                        );
                        let (f, sp) = plan.rank_tier_bytes(r.rank);
                        fetch += f;
                        spill += sp;
                        ops += plan.tier_ops().len() as u64;
                    }
                    assert_eq!(
                        r.tier.fetch_bytes, fetch,
                        "{stage:?} dp={dp} overlap={overlap} rank {}: fetch bytes",
                        r.rank
                    );
                    assert_eq!(
                        r.tier.spill_bytes, spill,
                        "{stage:?} dp={dp} overlap={overlap} rank {}: spill bytes",
                        r.rank
                    );
                    assert_eq!(
                        r.tier.fetch_ops + r.tier.spill_ops,
                        ops,
                        "{stage:?} dp={dp} overlap={overlap} rank {}: tier op count",
                        r.rank
                    );
                }
            }
        }
    }
}

#[test]
fn training_proceeds_beyond_the_device_budget() {
    // The acceptance bar, as a test: a stage-3 config whose unconstrained
    // peak exceeds the budget trains to completion under it — proved by
    // the armed tracker — with bitwise-identical losses.
    let base = run_training(&setup(ZeroStage::Three, 2, true, TierConfig::off()), STEPS, 0);
    let unconstrained_peak =
        base.ranks.iter().map(|r| r.peak_device_bytes).max().unwrap();
    let probe = run_training(
        &setup(ZeroStage::Three, 2, true, TierConfig::budgeted(u64::MAX)),
        STEPS,
        0,
    );
    let offloaded_peak =
        probe.ranks.iter().map(|r| r.peak_device_bytes).max().unwrap();
    assert!(offloaded_peak < unconstrained_peak);
    let budget = (offloaded_peak + unconstrained_peak) / 2;
    let proven = run_training(
        &setup(ZeroStage::Three, 2, true, TierConfig::budgeted(budget)),
        STEPS,
        0,
    );
    assert!(
        unconstrained_peak > budget,
        "budget {budget} must sit below the unconstrained peak {unconstrained_peak}"
    );
    for r in &proven.ranks {
        assert!(r.peak_device_bytes <= budget, "rank {}: budget violated", r.rank);
    }
    for (a, b) in base.losses.iter().zip(&proven.losses) {
        assert_eq!(a.to_bits(), b.to_bits(), "budget must not perturb the loss");
    }
}

#[test]
fn throttled_tier_link_accumulates_modeled_time() {
    // A bandwidth/latency-throttled link must charge modeled time equal
    // to the affine law over the metered bytes — and the engine's clock
    // must agree with the store's.
    let tier = TierConfig {
        host_bw: 1 << 30,
        host_lat: std::time::Duration::from_micros(5),
        ..TierConfig::budgeted(64 << 20)
    };
    let report = run_training(&setup(ZeroStage::Three, 2, false, tier), 2, 0);
    for r in &report.ranks {
        let crossings = (r.tier.fetch_ops + r.tier.spill_ops) as u32;
        assert!(crossings > 0);
        let floor = (tier.host_lat * crossings).as_secs_f64();
        let t = r.tier_time.as_secs_f64();
        assert!(
            t >= floor,
            "rank {}: modeled {t}s below latency floor {floor}s",
            r.rank
        );
        let ceil = floor + r.tier.total_bytes() as f64 / (1u64 << 30) as f64 + 1e-6;
        assert!(t <= ceil, "rank {}: modeled {t}s above ceiling {ceil}s", r.rank);
    }
}
