//! The memory clause: what the memory walk ([`CommPlan::footprint`])
//! predicts of every plan the schedule digests pin, proven against the
//! plan it walks — zero training steps executed.
//!
//! * **Settling.** An overlapped bucket reduce-scatter's fused buffer is
//!   released when the first gather issued behind it is consumed — the
//!   fabric runs a rank's ops in issue order, so the wait costs nothing —
//!   or, when no gather follows it in the micro-batch, at the end-of-micro
//!   drain; a synchronous one at its flush. The clause recomputes that
//!   position from the op stream alone ([`check_settles`]): a buffer held
//!   past it (or released before the gather behind it exists) is refused.
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
    CkptPlace, CommPlan, CompressionConfig, Footprint, OpRole, PlanOp, Partitioner, TierConfig, ZeroConfig,
    ZeroStage,
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

/// Where the settle rule releases bucket reduce-scatter `rs`'s buffer in
/// `ops`: at the first fetch issued behind it, if that fetch goes out
/// ahead (an on-demand one opens the next micro-batch, after the drain);
/// at the drain or its flush otherwise.
fn settled_by(ops: &[PlanOp], rs: usize) -> Option<usize> {
    if !ops[rs].nonblocking {
        return None;
    }
    let behind = ops.iter().enumerate().skip(rs + 1).find(|(_, op)| matches!(op.role, OpRole::Fetch { .. }));
    behind.filter(|(_, op)| matches!(op.role, OpRole::Fetch { ahead: true, .. })).map(|(at, _)| at)
}

/// The settle clause: the walk releases every bucket reduce-scatter of
/// `ops`, once and in plan order, exactly where `settled_by` puts it, at a
/// plan position after the op that releases it (the gather, or the
/// reduce-scatter that closes its flush or micro-batch) and before the
/// next fetch goes out. The engine waits each gradient spill there too.
pub fn check_settles(ops: &[PlanOp], walked: &Footprint, what: &str) -> Result<usize, String> {
    let planned: Vec<usize> = (0..ops.len()).filter(|&i| matches!(ops[i].role, OpRole::Span(_))).collect();
    let walked_rs: Vec<usize> = walked.settles.iter().map(|s| s.0).collect();
    if walked_rs != planned {
        return Err(format!("{what}: the walk settles reduce-scatters {walked_rs:?}, the plan issues {planned:?}"));
    }
    let is_fetch = |op: &PlanOp| matches!(op.role, OpRole::Fetch { .. });
    for &(rs, by, at) in &walked.settles {
        let want = settled_by(ops, rs);
        if by != want {
            return Err(format!(
                "{what}: reduce-scatter op {rs}'s buffer is released at {}, the first gather behind it is consumed at {}",
                by.map_or("the drain".into(), |g| format!("fetch op {g}")),
                want.map_or("the drain".into(), |g| format!("fetch op {g}")),
            ));
        }
        // Where the engine is when it waits: past the op that releases the
        // buffer (a drain follows a reduce-scatter), before the next fetch.
        let from = by.unwrap_or(rs);
        let past = from < at && at <= ops.len() && !ops[from + 1..at].iter().any(is_fetch);
        if !past || (by.is_none() && !matches!(ops[at - 1].role, OpRole::Span(_))) {
            return Err(format!("{what}: reduce-scatter op {rs}'s buffer is released at plan position {at}, not right after op {from}"));
        }
    }
    Ok(planned.len())
}

/// Counters from the memory clause.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryReport {
    /// Configurations walked.
    pub configs: usize,
    /// Reduce-scatter releases placed (over every rank).
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
        for rank in 0..grid.world_size() {
            let walked = CommPlan::footprint(&layout, &zcfg, grid, 2, act_elems, rank);
            report.settles += check_settles(prefix.ops(), &walked, &what)?;
            if !zcfg.tier.enabled {
                continue;
            }
            report.placements += 1;
            if walked.peak_device > zcfg.tier.device_budget {
                return Err(format!("{what} rank {rank}: walked peak {} over the budget {}", walked.peak_device, zcfg.tier.device_budget));
            }
            if zcfg.stage != ZeroStage::Three {
                continue;
            }
            // The other placement, under a budget that admits it: the two
            // differ by the shard's bytes on the device.
            let other = ZeroConfig { tier: TierConfig::budgeted(if placed.params { u64::MAX } else { 1 }), ..zcfg };
            let flipped = CommPlan::footprint(&layout, &other, grid, 2, act_elems, rank).peak_device;
            let shard = if zcfg.fp16 { 2 } else { 4 } * part.counts()[grid.coords(rank).0] as u64;
            let (kept, offloaded) = if placed.params { (flipped, walked.peak_device) } else { (walked.peak_device, flipped) };
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
        // Overlapped stage 3 at interval 1, two micro-batches: the walk
        // releases every bucket but each micro-batch's last at a gather.
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
        let walked = CommPlan::footprint(&layout, &zcfg, grid, 2, act, 0);
        assert!(check_settles(plan.ops(), &walked, "walked").is_ok());
        let at_gathers = walked.settles.iter().filter(|s| s.1.is_some()).count();
        assert!(at_gathers >= 2 && at_gathers < walked.settles.len(), "{:?}", walked.settles);
        // Mutant 1: every buffer held to the end-of-micro drain.
        let drained = Footprint { settles: walked.settles.iter().map(|&(rs, _, at)| (rs, None, at)).collect(), ..walked.clone() };
        let err = check_settles(plan.ops(), &drained, "drained").unwrap_err();
        assert!(err.contains("released at the drain"), "{err}");
        // Mutant 2: one buffer released a gather early, before the gather
        // behind it was issued.
        let mut early = walked.clone();
        let (k, by) = early.settles.iter().enumerate().find_map(|(k, s)| s.1.map(|g| (k, g))).unwrap();
        let before = plan.ops()[..by].iter().rposition(|op| matches!(op.role, OpRole::Fetch { .. })).unwrap();
        early.settles[k].1 = Some(before);
        assert!(check_settles(plan.ops(), &early, "early").is_err());
        // Mutant 3: a release recorded at the right gather but past the
        // next fetch, where the engine no longer is.
        let mut late = walked.clone();
        let next = (by + 1..plan.ops().len()).find(|&i| matches!(plan.ops()[i].role, OpRole::Fetch { .. })).unwrap();
        late.settles[k].2 = next + 1;
        assert!(check_settles(plan.ops(), &late, "late").unwrap_err().contains("plan position"));
        // Mutant 4: a reduce-scatter the walk never released.
        let mut lost = walked;
        lost.settles.pop();
        assert!(check_settles(plan.ops(), &lost, "lost").unwrap_err().contains("the plan issues"));
    }
}
