//! The memory clause: where every plan the schedule digests pin releases
//! its transient buffers, and what the memory walk
//! ([`CommPlan::footprint`]) predicts of it — zero training steps
//! executed.
//!
//! * **Settling.** The plan builder stamps each bucket reduce-scatter
//!   with where the engine settles it ([`Settle`]). The clause derives
//!   that point again from the op stream alone (`settled_by`), written
//!   apart from the builder: an overlapped reduce-scatter's fused buffer
//!   is released when the first gather issued behind it is consumed — the
//!   fabric runs a rank's ops in issue order, so the wait costs nothing —
//!   or, when no gather goes out ahead behind it in the micro-batch, at the
//!   end-of-micro drain; a synchronous one at its flush. A stamp that
//!   holds a buffer past that point, releases it before the gather behind
//!   it exists, or names no gather at all is refused ([`check_settles`]).
//! * **Placement.** Under an armed tier budget the walked peak fits the
//!   budget on every rank, and a placement that keeps the stage-3
//!   parameter shard on the device costs exactly the shard's bytes over
//!   the one that offloads it.
//!
//! That the walk's peak is the engine's, to the byte, is a runtime fact:
//! `tests/memory_accounting.rs` trains every configuration here at two
//! batch sizes and compares.

use zero_comm::Grid;
use zero_core::{
    CkptPlace, CommPlan, CompressionConfig, OpRole, PlanOp, Partitioner, Settle, TierConfig, ZeroConfig, ZeroStage,
};
use zero_model::{Layout, ModelConfig};

use crate::{compression, offload, schedule};

/// A tier budget the loss-pinned stage-3 row fits only with its parameter
/// shard offloaded: above its offloaded peak (48 448 B at rank 0), below
/// that peak plus the 15 488-byte shard. It keeps the per-gather
/// parameter fetch under the loss and digest pins.
pub const FULL_OFFLOAD_BUDGET: u64 = 56 << 10;

/// The model every schedule sweep plans for.
pub fn digest_model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

/// The eleven configurations whose losses `tests/engine_behavior.rs`
/// (`first_losses_are_pinned_bit_for_bit`) pins, with their local batch
/// (global batch 4 over the DP degree).
fn loss_pinned_configs() -> Vec<(ZeroConfig, Grid, usize)> {
    let (two, two_by_two) = (Grid::new(2, 1), Grid::new(2, 2));
    let clipped =
        |stage| ZeroConfig { stage, initial_loss_scale: 1.0, clip_grad_norm: Some(0.5), ..ZeroConfig::default() };
    let zeropp = CompressionConfig { qwz: true, hpz: true, qgz: true };
    vec![
        (ZeroConfig { stage: ZeroStage::Two, initial_loss_scale: 1.0, ..ZeroConfig::default() }, two, 2),
        (ZeroConfig::fp32_exact(ZeroStage::Three).overlapped(), two, 2),
        (
            ZeroConfig {
                stage: ZeroStage::Three,
                initial_loss_scale: 1.0,
                node_size: 2,
                compression: zeropp,
                ..ZeroConfig::default()
            },
            Grid::new(4, 1),
            1,
        ),
        (
            ZeroConfig { tier: TierConfig::budgeted(FULL_OFFLOAD_BUDGET), ..ZeroConfig::fp32_exact(ZeroStage::Three) },
            two,
            2,
        ),
        (
            ZeroConfig {
                stage: ZeroStage::One,
                initial_loss_scale: 1.0,
                bucket_elems: 1000,
                ..ZeroConfig::default()
            },
            two,
            2,
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
            1,
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
            2,
        ),
        (
            ZeroConfig {
                stage: ZeroStage::Two,
                initial_loss_scale: 1.0,
                checkpoint_place: CkptPlace::Host,
                ..ZeroConfig::default()
            },
            two_by_two,
            2,
        ),
        (clipped(ZeroStage::Ddp), two_by_two, 2),
        (clipped(ZeroStage::Two), two_by_two, 2),
        (ZeroConfig { stage: ZeroStage::Three, initial_loss_scale: 1.0, ..ZeroConfig::default() }.overlapped(), two, 2),
    ]
}

/// Stage 3 under a budgeted tier with P_a+cpu checkpoints at dp 2: the
/// model-state and checkpoint tier classes in one stream.
fn tiered_checkpoint_config() -> (ZeroConfig, Grid, usize) {
    let zcfg = ZeroConfig {
        tier: TierConfig::budgeted(1 << 20),
        checkpoint_activations: true,
        checkpoint_place: CkptPlace::Host,
        ..ZeroConfig::fp32_exact(ZeroStage::Three)
    };
    (zcfg, Grid::new(2, 1), 2)
}

/// Every configuration `crates/verify/tests/schedule_digest.rs` pins, with
/// its local batch: the schedule and compression sweeps synchronous and
/// (stages 2–3) overlapped, the offload sweep, the loss-pinned rows and a
/// tiered P_a+cpu row, at local batch 2 unless the row says otherwise.
pub fn digest_configs() -> Vec<(ZeroConfig, Grid, usize)> {
    let mut configs: Vec<(ZeroConfig, Grid, usize)> = Vec::new();
    // The schedule and compression sweeps prove every configuration both
    // synchronous and overlapped (`check_overlap_pair`) where the stage has
    // something to issue ahead (2 and 3); pin both.
    let both = schedule::sweep_configs()
        .into_iter()
        .chain(schedule::overlap_pair_configs())
        .chain(compression::sweep_configs());
    for (zcfg, grid) in both {
        configs.push((ZeroConfig { overlap: false, ..zcfg }, grid, 2));
        if zcfg.stage.partitions_grads() {
            configs.push((zcfg.overlapped(), grid, 2));
        }
    }
    configs.extend(offload::sweep_configs().into_iter().map(|(z, g)| (z, g, 2)));
    configs.extend(loss_pinned_configs());
    configs.push(tiered_checkpoint_config());
    configs
}

/// Where bucket reduce-scatter `rs` of `ops` is settled: at its flush
/// without `overlap`; with it at the first fetch issued behind it, if that
/// fetch goes out ahead (an on-demand one opens the next micro-batch,
/// after the drain), at the drain otherwise.
fn settled_by(ops: &[PlanOp], rs: usize, overlap: bool) -> Settle {
    if !overlap {
        return Settle::Flush;
    }
    match ops.iter().enumerate().skip(rs + 1).find(|(_, op)| matches!(op.role, OpRole::Fetch { .. })) {
        Some((at, PlanOp { role: OpRole::Fetch { ahead: true, .. }, .. })) => Settle::Gather(at),
        _ => Settle::Drain,
    }
}

/// The settle clause: every bucket reduce-scatter of `ops`, planned with
/// or without `overlap`, carries the stamp `settled_by` derives. Returns
/// how many it checked.
pub fn check_settles(ops: &[PlanOp], overlap: bool, what: &str) -> Result<usize, String> {
    let is_gather = |g: usize| ops.get(g).is_some_and(|op| matches!(op.role, OpRole::Fetch { .. }));
    let mut checked = 0;
    for (rs, op) in ops.iter().enumerate() {
        let OpRole::Span(_, stamp) = op.role else { continue };
        let want = settled_by(ops, rs, overlap);
        match stamp {
            _ if stamp == want => checked += 1,
            Settle::Gather(g) if g <= rs || !is_gather(g) => {
                let why = if g <= rs { "issued before it" } else { "no gather" };
                return Err(format!("{what}: reduce-scatter op {rs} is settled at op {g}, {why}: its buffer is never released"));
            }
            _ => {
                return Err(format!("{what}: reduce-scatter op {rs}'s buffer is released at {stamp:?}, the first gather behind it settles it at {want:?}"));
            }
        }
    }
    Ok(checked)
}

/// Counters from the memory clause.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryReport {
    /// Configurations checked.
    pub configs: usize,
    /// Bucket reduce-scatter settle stamps checked.
    pub settles: usize,
    /// Rank placements proven within their tier budget.
    pub placements: usize,
}

/// Walks every digest configuration on every rank.
pub fn check_memory() -> Result<MemoryReport, String> {
    let mut report = MemoryReport::default();
    for (zcfg, grid, batch) in digest_configs() {
        let m = digest_model();
        let layout = Layout::build_mp(&m, grid.mp_degree());
        let act_elems = batch * m.seq * m.hidden;
        let what = format!("{} dp{}mp{} overlap={} tier={}", zcfg.stage.name(), grid.dp_degree(), grid.mp_degree(), zcfg.overlap, zcfg.tier.enabled);
        let prefix = CommPlan::step_prefix(&layout, &zcfg, grid, 2, act_elems);
        let placed = CommPlan::placement(&layout, &zcfg, grid, 2, act_elems);
        let part = Partitioner::per_unit(&layout, grid.dp_degree());
        report.settles += check_settles(prefix.ops(), zcfg.overlap, &what)?;
        for rank in (0..grid.world_size()).filter(|_| zcfg.tier.enabled) {
            let walked = CommPlan::footprint(&layout, &zcfg, grid, 2, act_elems, rank);
            report.placements += 1;
            if walked > zcfg.tier.device_budget {
                return Err(format!("{what} rank {rank}: walked peak {walked} over the budget {}", zcfg.tier.device_budget));
            }
            if zcfg.stage != ZeroStage::Three {
                continue;
            }
            // The other placement, under a budget that admits it: the two
            // differ by the shard's bytes on the device.
            let other = ZeroConfig { tier: TierConfig::budgeted(if placed.params { u64::MAX } else { 1 }), ..zcfg };
            let flipped = CommPlan::footprint(&layout, &other, grid, 2, act_elems, rank);
            let shard = if zcfg.fp16 { 2 } else { 4 } * part.counts()[grid.coords(rank).0] as u64;
            let (kept, offloaded) = if placed.params { (flipped, walked) } else { (walked, flipped) };
            if kept != offloaded + shard {
                return Err(format!("{what} rank {rank}: keeping the {shard}-byte shard walks to {kept}, offloading it to {offloaded}"));
            }
        }
        report.configs += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_digest_configuration_walks_clean() {
        let r = check_memory().expect("memory clause");
        assert_eq!(r.configs, digest_configs().len());
        assert!(r.settles > 1000 && r.placements > 0, "{r:?}");
    }

    #[test]
    fn a_buffer_held_past_the_gather_behind_it_is_refused() {
        // Overlapped stage 3 at interval 1, two micro-batches: every bucket
        // but each micro-batch's last is settled at a gather.
        let m = digest_model();
        let (layout, grid, act) = (Layout::build(&m), Grid::new(2, 1), 2 * m.seq * m.hidden);
        let zcfg = ZeroConfig {
            stage: ZeroStage::Three,
            initial_loss_scale: 1.0,
            bucket_elems: 512,
            overlap: true,
            ..ZeroConfig::default()
        };
        let plan = CommPlan::step_prefix(&layout, &zcfg, grid, 2, act);
        let spans: Vec<usize> = (0..plan.ops().len()).filter(|&i| matches!(plan.ops()[i].role, OpRole::Span(..))).collect();
        assert_eq!(check_settles(plan.ops(), true, "planned"), Ok(spans.len()));
        let stamp = |ops: &[PlanOp], i: usize| match ops[i].role {
            OpRole::Span(_, s) => s,
            _ => unreachable!("a bucket"),
        };
        let at_gathers: Vec<usize> = spans.iter().copied().filter(|&i| matches!(stamp(plan.ops(), i), Settle::Gather(_))).collect();
        assert!(at_gathers.len() >= 2 && at_gathers.len() < spans.len(), "{at_gathers:?} of {spans:?}");
        let restamped = |i: Option<usize>, to: Settle| {
            let mut ops = plan.ops().to_vec();
            for (_, op) in ops.iter_mut().enumerate().filter(|(j, _)| i.is_none_or(|i| i == *j)) {
                if let OpRole::Span(_, s) = &mut op.role {
                    *s = to;
                }
            }
            ops
        };
        // Mutant 1: every buffer held to the end-of-micro drain.
        let err = check_settles(&restamped(None, Settle::Drain), true, "drained").unwrap_err();
        assert!(err.contains("released at Drain"), "{err}");
        // Mutant 2: one buffer stamped a gather early, at the one issued
        // before it, whose consumption is past before it is in flight.
        let k = at_gathers[0];
        let Settle::Gather(by) = stamp(plan.ops(), k) else { unreachable!("stamped at a gather") };
        let fetches: Vec<usize> = (0..plan.ops().len()).filter(|&i| matches!(plan.ops()[i].role, OpRole::Fetch { .. })).collect();
        let at = fetches.iter().position(|&g| g == by).unwrap();
        let err = check_settles(&restamped(Some(k), Settle::Gather(fetches[at - 1])), true, "early").unwrap_err();
        assert!(err.contains("issued before it"), "{err}");
        // Mutant 3: one buffer held past the gather behind it, to the next.
        let err = check_settles(&restamped(Some(k), Settle::Gather(fetches[at + 1])), true, "late").unwrap_err();
        assert!(err.contains("the first gather behind it settles it"), "{err}");
        // Mutant 4: a lost stamp, naming an op no gather consumes: the
        // buffer would stay charged for good.
        let err = check_settles(&restamped(Some(k), Settle::Gather(plan.ops().len())), true, "lost").unwrap_err();
        assert!(err.contains("no gather: its buffer is never released"), "{err}");
    }
}
