//! The memory-tier offload prover.
//!
//! Sweeps stages 1–3 × N ∈ {2,4,8} × sync (and overlap at stages 2–3) ×
//! fp16/fp32, plus stages 2–3 × N ∈ {4,8} × sync/overlap with every ZeRO++
//! lever the stage owns on at G = 2 (stage 2: qgZ; stage 3: qwZ+hpZ+qgZ),
//! and proves four things about the tier-movement stream of every
//! offloaded plan, all from plan arithmetic — zero training steps executed:
//!
//! * **Prefetch windows.** Every tier op is issued no later than it is
//!   demanded (`issue_pos ≤ demand_pos`). Synchronous plans have zero
//!   window everywhere; overlapped stage-3 plans must open a real window
//!   (`demand_pos > issue_pos`) on their parameter fetches — a prefetch
//!   that never runs ahead of demand is a bug, not a schedule.
//! * **Pairing.** Every parameter fetch anchors exactly at the
//!   all-gather it seeds, with byte-identical per-rank counts, and every
//!   gather of the primary shards has one (an hpZ refetch reads the
//!   device-resident secondary copy and has none); every gradient spill,
//!   synchronous or overlapped, anchors right after the reduce-scatter
//!   that produced its piece; every publish fetch anchors at its publish
//!   all-gather. Anchors never decrease — the tier stream cannot reorder
//!   against the collective stream. The engine is handed each movement
//!   together with the collective it `rides`, so the same anchors are
//!   proven of that link: a fetch rides the all-gather at its anchor, a
//!   spill rides the reduce-scatter right before its anchor with
//!   byte-identical counts (one rule for both modes: the rank's FIFO runs
//!   the spill before anything issued later), and only stage 1's
//!   end-of-step spill and checkpoint spills ride nothing. Each gradient
//!   spill is blocked on where the memory walk releases the reduce-scatter
//!   it rides ([`CommPlan::footprint`], whose release points
//!   `--pass memory` proves): the engine waits the two together.
//! * **Telescoping volumes.** Per rank and step, gradient-spill bytes
//!   total exactly `micro_batches · shard` elements for stages 2–3 (the
//!   buckets tile Ψ each micro-batch) and one `shard` for stage 1 on
//!   non-skipped steps; publish-fetch bytes total one `shard` on
//!   non-skipped steps for stages 1–2; stage-3 parameter fetches lift
//!   each unit's piece once per primary gather of a host-resident shard —
//!   once a step under hpZ, else per micro-batch once for embed, head and
//!   a held last block and twice for every other block — all independently
//!   recomputed from the
//!   partition, not read back from the plan — and a stage-3 plan whose
//!   placement keeps the parameter shard on the device lifts each unit's
//!   piece once a step, at its first gather. Stage 3 is proven at both
//!   placements: at the swept budget, which holds the shard on the device,
//!   and at the largest one that does not. Per rank and step, the tier
//!   carries exactly the sum of those crossings of the placed classes.
//! * **Equivalence.** The collective stream of an offloaded plan is
//!   bitwise identical to the tier-off baseline (offload adds a tier
//!   stream, it never perturbs a collective — which is why losses are
//!   bitwise identical), and a tier-off plan carries no tier ops.
//!
//! A checkpoint clause sweeps P_a+cpu (§6.1) over DDP and stages 1–3 ×
//! mp ∈ {1,2} × sync (and overlap at stages 2–3), plus stage 3 with the
//! model-state tier on at mp = 1 (13 configurations), and proves that
//! every checkpoint spill rides nothing and pairs with exactly one later
//! fetch of equal bytes, blocked on where that fetch goes; that the fetch
//! rides a `ckpt-gather` whose own piece is those bytes; that checkpoint
//! bytes telescope per rank and step to micro-batches × segments × slice
//! × width, recomputed from the layer count and interval; and that the
//! collective stream is bitwise the one of the same slices kept on device
//! (`CkptPlace::Partitioned`).
//!
//! Rank-symmetry ([`schedule`](crate::schedule)) is re-proven on every
//! offloaded configuration.

use zero_comm::Grid;
use zero_core::{
    CkptPlace, CommPlan, CompressionConfig, Footprint, OpRole, ParamStore, Partitioner, PlanOp, ResolvedTierOp,
    StepShape, TierConfig, TierDir, TierOp, ZeroConfig, ZeroStage,
};
use zero_model::{Layout, ModelConfig};

use crate::schedule::check_symmetry;

/// Counters from the offload sweep.
#[derive(Clone, Debug, Default)]
pub struct OffloadReport {
    /// (stage, N, overlap, precision) configurations proven.
    pub configs: usize,
    /// Tier ops checked (windows + anchors + volumes).
    pub tier_ops_checked: usize,
    /// Tier ops paired byte-exactly with their anchor collective.
    pub paired_ops: usize,
    /// Real prefetch windows (`demand_pos > issue_pos`) proven open.
    pub windows_proven: usize,
    /// P_a+cpu configurations proven by the checkpoint clause.
    pub checkpoint_configs: usize,
    /// Checkpoint spill/fetch round trips paired byte-exactly.
    pub checkpoint_pairs: usize,
}

fn test_model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

fn cfg(stage: ZeroStage, overlap: bool, fp16: bool, tier: TierConfig) -> ZeroConfig {
    ZeroConfig {
        stage,
        fp16,
        overlap,
        checkpoint_activations: false,
        initial_loss_scale: 1.0,
        bucket_elems: 512,
        tier,
        ..ZeroConfig::default()
    }
}

/// Two micro-batches: the regime where per-micro spill telescoping and
/// the spills blocked on at the end-of-micro drain are both visible.
fn shape(skipped: bool) -> StepShape {
    let m = test_model();
    StepShape { micro_batches: 2, act_elems: 2 * m.seq * m.hidden, skipped }
}

/// Checks windows, anchors, and strict anchor monotonicity for one
/// rank's resolved tier stream against the resolved collective stream.
fn check_anchors(
    tier: &[ResolvedTierOp],
    ops: &[zero_core::ResolvedOp],
    rank: usize,
    overlap: bool,
    what: &str,
    report: &mut OffloadReport,
) -> Result<(), String> {
    let mut last_issue = 0usize;
    for (i, t) in tier.iter().enumerate() {
        if t.issue_pos > t.demand_pos {
            return Err(format!(
                "{what} rank {rank}: tier op {i} '{}' issued at {} but demanded \
                 earlier at {} — the transfer would arrive after its use",
                t.label, t.issue_pos, t.demand_pos
            ));
        }
        if t.demand_pos > ops.len() {
            return Err(format!(
                "{what} rank {rank}: tier op {i} '{}' demand anchor {} beyond the \
                 {}-op collective stream",
                t.label,
                t.demand_pos,
                ops.len()
            ));
        }
        if t.issue_pos < last_issue {
            return Err(format!(
                "{what} rank {rank}: tier op {i} '{}' anchor {} precedes an earlier \
                 op's anchor {last_issue} — the stream reorders against the collectives",
                t.label, t.issue_pos
            ));
        }
        last_issue = t.issue_pos;
        // A checkpoint spill is blocked on at its restore, not where it
        // is issued: `check_checkpoint_pairs` places that demand.
        if t.label == "tier-ckpt-spill" {
            report.tier_ops_checked += 1;
            continue;
        }
        if !overlap && t.demand_pos != t.issue_pos {
            return Err(format!(
                "{what} rank {rank}: synchronous plan opened a prefetch window on \
                 tier op {i} '{}' ({} -> {})",
                t.label, t.issue_pos, t.demand_pos
            ));
        }
        if t.demand_pos > t.issue_pos {
            report.windows_proven += 1;
        }
        // Anchor pairing: each movement sits against the collective that
        // consumes (fetch) or produced (spill) its bytes.
        match t.label {
            "tier-param-fetch" | "tier-publish-fetch" | "tier-ckpt-fetch" => {
                let op = ops.get(t.issue_pos).ok_or_else(|| {
                    format!(
                        "{what} rank {rank}: tier op {i} '{}' anchors past the end of \
                         the collective stream",
                        t.label
                    )
                })?;
                let gather = op.kind == zero_comm::CollectiveKind::AllGather;
                if !gather || (t.label == "tier-ckpt-fetch") != (op.label == "ckpt-gather") {
                    return Err(format!(
                        "{what} rank {rank}: tier fetch {i} '{}' anchors at '{}' ({:?}), \
                         not the all-gather it seeds",
                        t.label, op.label, op.kind
                    ));
                }
                let want = op.prec.bytes() * op.own_piece(rank).len() as u64;
                if t.bytes != want {
                    return Err(format!(
                        "{what} rank {rank}: tier fetch {i} moves {} bytes but its \
                         all-gather's shard piece is {want}",
                        t.bytes
                    ));
                }
                report.paired_ops += 1;
            }
            "tier-grad-spill" if t.issue_pos > 0 => {
                // Spills follow their reduce-scatter immediately (stage
                // 1's single end-of-step spill anchors at 0 in the suffix
                // segment and is volume-checked below instead).
                let op = &ops[t.issue_pos - 1];
                if op.kind == zero_comm::CollectiveKind::ReduceScatter {
                    let want = op.prec.bytes() * op.counts[rank] as u64;
                    if t.bytes != want {
                        return Err(format!(
                            "{what} rank {rank}: tier spill {i} moves {} bytes but \
                             its reduce-scatter's owner piece is {want}",
                            t.bytes
                        ));
                    }
                    report.paired_ops += 1;
                }
            }
            _ => {}
        }
        report.tier_ops_checked += 1;
    }
    Ok(())
}

/// Proves the `rides` link of every tier op of a plan (`tier` over `ops`)
/// consistent with its anchor: the engine issues a movement with the
/// collective it rides, so this is what makes the runtime order the
/// planned one.
fn check_rides(tier: &[TierOp], ops: &[PlanOp], zcfg: &ZeroConfig, what: &str) -> Result<(), String> {
    use zero_comm::CollectiveKind::{AllGather, ReduceScatter};
    for (i, t) in tier.iter().enumerate() {
        let Some(r) = t.rides else {
            if t.label == "tier-ckpt-spill" || (t.dir == TierDir::Spill && !zcfg.stage.partitions_grads()) {
                continue;
            }
            return Err(format!("{what}: tier op {i} '{}' rides no collective", t.label));
        };
        let op = ops
            .get(r)
            .ok_or_else(|| format!("{what}: tier op {i} '{}' rides op {r}, past the stream", t.label))?;
        let anchored = match t.dir {
            TierDir::Fetch => op.kind == AllGather && r == t.issue_pos,
            TierDir::Spill => op.kind == ReduceScatter && r + 1 == t.issue_pos,
        };
        // A checkpoint fetch's counts are per world rank, its MP gather's
        // per member: `check_anchors` pairs them rank by rank.
        let paired =
            t.label == "tier-ckpt-fetch" || op.counts == zero_core::CountSpec::Explicit(t.counts.clone());
        if !anchored || !paired {
            return Err(format!(
                "{what}: tier op {i} '{}' (issued at {}) rides op {r} '{}', which is not \
                 the collective it seeds or drains",
                t.label, t.issue_pos, op.label
            ));
        }
    }
    Ok(())
}

/// Proves every gradient spill riding a reduce-scatter blocked on at that
/// reduce-scatter's release point in `walked`: the engine waits the two
/// together.
fn check_spill_demands(tier: &[TierOp], walked: &Footprint, what: &str) -> Result<(), String> {
    for (i, t) in tier.iter().enumerate().filter(|(_, t)| t.label == "tier-grad-spill") {
        let Some(rs) = t.rides else { continue };
        let released = walked.settles.iter().find(|s| s.0 == rs).map(|s| s.2);
        if released != Some(t.demand_pos) {
            return Err(format!(
                "{what}: gradient spill {i} is blocked on at {}, its reduce-scatter op {rs} is released at {released:?}",
                t.demand_pos
            ));
        }
    }
    Ok(())
}

/// `zcfg` as swept and, at stage 3, under the largest budget that fits it
/// only with the parameter shard offloaded.
fn placements(zcfg: &ZeroConfig, grid: Grid, layout: &Layout) -> Vec<ZeroConfig> {
    if !zcfg.stage.partitions_params() {
        return vec![*zcfg];
    }
    let sh = shape(false);
    let tight = CommPlan::full_offload_budget(layout, zcfg, grid, sh.micro_batches, sh.act_elems);
    vec![*zcfg, ZeroConfig { tier: TierConfig { device_budget: tight, ..zcfg.tier }, ..*zcfg }]
}

/// Checks one offloaded configuration end to end, at each placement.
fn check_offload_config(zcfg: &ZeroConfig, grid: Grid, report: &mut OffloadReport) -> Result<(), String> {
    let layout = Layout::build_mp(&test_model(), 1);
    for (i, placed) in placements(zcfg, grid, &layout).iter().enumerate() {
        let sh = shape(false);
        let off = CommPlan::placement(&layout, placed, grid, sh.micro_batches, sh.act_elems);
        if zcfg.stage.partitions_params() && off.params != (i == 1) {
            return Err(format!("budget {}: the shard is placed {:?}", placed.tier.device_budget, off));
        }
        check_placed_config(placed, grid, &layout, off.params, report)?;
    }
    report.configs += 1;
    Ok(())
}

/// Checks one offloaded configuration whose stage-3 parameter shard is
/// (`shard_crosses`) or is not host-resident.
fn check_placed_config(
    zcfg: &ZeroConfig,
    grid: Grid,
    layout: &Layout,
    shard_crosses: bool,
    report: &mut OffloadReport,
) -> Result<(), String> {
    let part = Partitioner::per_unit(layout, grid.dp_degree());
    let elem_bytes: u64 = if zcfg.fp16 { 2 } else { 4 };
    let what = format!(
        "offload {} dp={} overlap={} fp16={} zero++={} shard-crosses={shard_crosses}",
        zcfg.stage.name(),
        grid.dp_degree(),
        zcfg.overlap,
        zcfg.fp16,
        zcfg.compression.any()
    );
    for skipped in [false, true] {
        let sh = shape(skipped);
        let plan = CommPlan::train_step(layout, zcfg, grid, &sh);
        check_symmetry(&plan, &what)?;
        check_rides(plan.tier_ops(), plan.ops(), zcfg, &what)?;
        // Release points are the same on every rank.
        let walked = CommPlan::footprint(layout, zcfg, grid, sh.micro_batches, sh.act_elems, 0);
        check_spill_demands(plan.tier_ops(), &walked, &what)?;

        // Offload must not perturb a single collective: the op stream is
        // bitwise identical to the tier-off baseline.
        let mut base_cfg = *zcfg;
        base_cfg.tier = TierConfig::off();
        let base = CommPlan::train_step(layout, &base_cfg, grid, &sh);
        if plan.ops() != base.ops() {
            return Err(format!(
                "{what} skipped={skipped}: offloaded plan's collective stream \
                 differs from the tier-off baseline"
            ));
        }
        if !base.tier_ops().is_empty() {
            return Err(format!(
                "{what} skipped={skipped}: tier-off baseline carries tier ops"
            ));
        }
        // Stage 1 skips both its spill and its publish on a skipped step,
        // so its tier stream is legitimately empty there; everywhere else
        // an offloaded plan must move bytes.
        let may_be_empty = skipped && !zcfg.stage.partitions_grads();
        if plan.tier_ops().is_empty() && !may_be_empty {
            return Err(format!(
                "{what} skipped={skipped}: offloaded plan carries no tier ops"
            ));
        }

        for rank in 0..grid.world_size() {
            let ops = plan.resolve_for(rank);
            crate::schedule::check_balance(layout, zcfg, grid, &ops, plan.tier_ops(), &what)?;
            let tier = plan.resolve_tier_for(rank);
            check_anchors(&tier, &ops, rank, zcfg.overlap, &what, report)?;

            // Independent telescoping volumes, from the partition alone.
            let shard = part.counts()[rank] as u64;
            let spill: u64 = tier
                .iter()
                .filter(|t| t.dir == TierDir::Spill)
                .map(|t| t.bytes)
                .sum();
            let publish: u64 = tier
                .iter()
                .filter(|t| t.dir == TierDir::Fetch && t.label == "tier-publish-fetch")
                .map(|t| t.bytes)
                .sum();
            let want_spill = elem_bytes
                * if zcfg.stage.partitions_grads() {
                    sh.micro_batches as u64 * shard
                } else if skipped {
                    0
                } else {
                    shard
                };
            if spill != want_spill {
                return Err(format!(
                    "{what} skipped={skipped} rank {rank}: spill bytes {spill} != \
                     telescoped {want_spill} (shard {shard} elems)"
                ));
            }
            let want_publish = elem_bytes
                * if zcfg.stage.partitions_params() || skipped {
                    0
                } else {
                    shard
                };
            if publish != want_publish {
                return Err(format!(
                    "{what} skipped={skipped} rank {rank}: publish-fetch bytes \
                     {publish} != telescoped {want_publish}"
                ));
            }

            // Stage 3: a gather of a host-resident shard lifts this rank's
            // piece of its unit, so per step each unit's piece climbs once
            // per primary gather — once in all under hpZ (refetches read
            // the secondary store), else per micro-batch once for embed
            // and head and twice for a block, once for the last block
            // where the plan holds it into its backward. A shard kept on
            // the device takes its updated piece once a step.
            let mut want_params = 0;
            if zcfg.stage.partitions_params() {
                let layers = layout.unit_count() - 2;
                let held = crate::schedule::holds_last_block(zcfg, layers).then_some(layers);
                let lifts = |u: usize| match (zcfg.compression.hpz || !shard_crosses, u) {
                    (true, _) => 1,
                    (false, u) if u == 0 || u == layers + 1 || held == Some(u) => sh.micro_batches,
                    _ => 2 * sh.micro_batches,
                };
                let want: u64 = layout.units().iter().enumerate().map(|(u, unit)| {
                    elem_bytes * (lifts(u) * zero_comm::chunk_range(unit.range.len(), grid.dp_degree(), rank).len()) as u64
                }).sum();
                let got: u64 = tier.iter().filter(|t| t.label == "tier-param-fetch").map(|t| t.bytes).sum();
                want_params = want;
                if got != want {
                    return Err(format!(
                        "{what} skipped={skipped} rank {rank}: parameter tier fetches move {got} bytes, \
                         telescoped {want}"
                    ));
                }
            }

            // Stage 3: every planned gather seeded by a host-resident
            // primary store has exactly one paired tier fetch (completeness
            // of the fetch stream), and a unit's first one when the shard
            // is on the device; hpZ's node-local refetches read the
            // device-resident secondary store and have none.
            if zcfg.stage.partitions_params() {
                let fetches =
                    tier.iter().filter(|t| t.label == "tier-param-fetch").count();
                let primary = ops
                    .iter()
                    .filter(|o| {
                        matches!(o.role, OpRole::Fetch { from: ParamStore::Primary, .. })
                    })
                    .count();
                let gathers = if shard_crosses { primary } else { layout.unit_count() };
                if fetches != gathers {
                    return Err(format!(
                        "{what} skipped={skipped} rank {rank}: {gathers} parameter \
                         all-gathers but {fetches} tier fetches"
                    ));
                }
            }

            // The tier carries the placed classes' crossings and nothing
            // else.
            let total: u64 = tier.iter().map(|t| t.bytes).sum();
            if total != want_spill + want_publish + want_params {
                return Err(format!(
                    "{what} skipped={skipped} rank {rank}: {total} tier bytes, the placed classes \
                     cross {want_spill} + {want_publish} + {want_params}"
                ));
            }
        }
    }
    Ok(())
}

/// Pairs one rank's checkpoint round trips in restore (last-in,
/// first-out) order: each `tier-ckpt-spill` with exactly one later
/// `tier-ckpt-fetch` of equal bytes, and blocked on where that fetch
/// goes. Returns the pairs and the bytes spilled.
fn check_checkpoint_pairs(tier: &[ResolvedTierOp], rank: usize, what: &str) -> Result<(usize, u64), String> {
    let (mut stored, mut pairs, mut bytes) = (Vec::new(), 0, 0);
    for t in tier {
        match t.label {
            "tier-ckpt-spill" => stored.push(t),
            "tier-ckpt-fetch" => {
                let spill = stored.pop().ok_or_else(|| {
                    format!("{what} rank {rank}: checkpoint fetch at {} has no spill to pair with", t.issue_pos)
                })?;
                if spill.bytes != t.bytes || spill.demand_pos != t.issue_pos {
                    return Err(format!(
                        "{what} rank {rank}: checkpoint spill at {} ({} bytes, blocked on at {}) does \
                         not pair with the fetch at {} ({} bytes)",
                        spill.issue_pos, spill.bytes, spill.demand_pos, t.issue_pos, t.bytes
                    ));
                }
                (pairs, bytes) = (pairs + 1, bytes + t.bytes);
            }
            _ => {}
        }
    }
    match stored.first() {
        Some(spill) => Err(format!(
            "{what} rank {rank}: {} checkpoint spill(s) never fetched back, the first at {}",
            stored.len(),
            spill.issue_pos
        )),
        None => Ok((pairs, bytes)),
    }
}

/// The checkpoint clause for one P_a+cpu configuration.
fn check_checkpoint_config(zcfg: &ZeroConfig, grid: Grid, report: &mut OffloadReport) -> Result<(), String> {
    let m = test_model();
    let layout = Layout::build_mp(&m, grid.mp_degree());
    let what = format!(
        "P_a+cpu {} dp={} mp={} overlap={} tier={}",
        zcfg.stage.name(),
        grid.dp_degree(),
        grid.mp_degree(),
        zcfg.overlap,
        zcfg.tier.enabled
    );
    // One checkpoint per segment of `checkpoint_interval` blocks.
    let segments = m.layers.div_ceil(zcfg.checkpoint_interval) as u64;
    let width: u64 = if zcfg.fp16 { 2 } else { 4 };
    for skipped in [false, true] {
        let sh = shape(skipped);
        let plan = CommPlan::train_step(&layout, zcfg, grid, &sh);
        check_symmetry(&plan, &what)?;
        check_rides(plan.tier_ops(), plan.ops(), zcfg, &what)?;
        if let Some(t) = plan.tier_ops().iter().find(|t| t.label == "tier-ckpt-spill" && t.rides.is_some()) {
            return Err(format!("{what}: the checkpoint spill at {} rides a collective", t.issue_pos));
        }
        let on_device_cfg = ZeroConfig { checkpoint_place: CkptPlace::Partitioned, ..*zcfg };
        let on_device = CommPlan::train_step(&layout, &on_device_cfg, grid, &sh);
        if plan.ops() != on_device.ops() {
            return Err(format!(
                "{what} skipped={skipped}: the collective stream differs from the one with \
                 the slices kept on device"
            ));
        }
        if on_device.tier_ops().iter().any(|t| t.label.starts_with("tier-ckpt")) {
            return Err(format!("{what} skipped={skipped}: on-device checkpoints cross the tier"));
        }
        for rank in 0..grid.world_size() {
            let tier = plan.resolve_tier_for(rank);
            check_anchors(&tier, &plan.resolve_for(rank), rank, zcfg.overlap, &what, report)?;
            let (pairs, bytes) = check_checkpoint_pairs(&tier, rank, &what)?;
            let slice = zero_comm::chunk_range(sh.act_elems, grid.mp_degree(), grid.coords(rank).1).len() as u64;
            let want = sh.micro_batches as u64 * segments * slice * width;
            if bytes != want {
                return Err(format!(
                    "{what} skipped={skipped} rank {rank}: checkpoint bytes {bytes} != telescoped \
                     {want} ({segments} segments of a {slice}-element slice)"
                ));
            }
            report.checkpoint_pairs += pairs;
        }
    }
    report.checkpoint_configs += 1;
    Ok(())
}

/// The P_a+cpu configurations the checkpoint clause sweeps: DDP and
/// stages 1–3 × mp ∈ {1,2} × sync (and overlap at stages 2–3) at dp 2 and
/// interval 1, plus stage 3 overlapped at interval 2 with the model-state
/// tier on at mp = 1 — 13 in all.
fn checkpoint_configs() -> Vec<(ZeroConfig, Grid)> {
    let pa_cpu = |stage, overlap, tier| ZeroConfig {
        checkpoint_activations: true,
        checkpoint_place: CkptPlace::Host,
        ..cfg(stage, overlap, true, tier)
    };
    let mut out = Vec::new();
    for stage in [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        for mp in [1, 2] {
            for &overlap in overlaps(stage) {
                out.push((pa_cpu(stage, overlap, TierConfig::off()), Grid::new(2, mp)));
            }
        }
    }
    let tiered = pa_cpu(ZeroStage::Three, true, TierConfig::budgeted(1 << 30));
    out.push((ZeroConfig { checkpoint_interval: 2, ..tiered }, Grid::new(2, 1)));
    out
}

/// Synchronous, plus overlapped where `stage` has something to issue
/// ahead (2 and 3).
fn overlaps(stage: ZeroStage) -> &'static [bool] {
    if stage.partitions_grads() {
        &[false, true]
    } else {
        &[false]
    }
}

/// The swept configurations: stages 1–3 × N ∈ {2,4,8} × sync (and
/// overlap at stages 2–3) × fp16/fp32, then stages 2–3 × N ∈ {4,8} ×
/// sync/overlap with every lever the stage owns at G = 2 (qgZ; plus qwZ
/// and hpZ at stage 3) — 38 in all.
pub fn sweep_configs() -> Vec<(ZeroConfig, Grid)> {
    let tier = TierConfig::budgeted(1 << 30);
    let mut out = Vec::new();
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        for n in [2usize, 4, 8] {
            for &overlap in overlaps(stage) {
                for fp16 in [true, false] {
                    out.push((cfg(stage, overlap, fp16, tier), Grid::new(n, 1)));
                }
            }
        }
    }
    for stage in [ZeroStage::Two, ZeroStage::Three] {
        let params = stage.partitions_params();
        let compression = CompressionConfig { qwz: params, hpz: params, qgz: true };
        for n in [4usize, 8] {
            for overlap in [false, true] {
                let zcfg = ZeroConfig { node_size: 2, compression, ..cfg(stage, overlap, true, tier) };
                out.push((zcfg, Grid::new(n, 1)));
            }
        }
    }
    out
}

/// Runs the full offload sweep (the 38 [`sweep_configs`], each at
/// skipped ∈ {false,true}), then the checkpoint clause over its 13
/// P_a+cpu configurations.
pub fn check_offload() -> Result<OffloadReport, String> {
    let mut report = OffloadReport::default();
    for (zcfg, grid) in sweep_configs() {
        check_offload_config(&zcfg, grid, &mut report)?;
    }
    for (zcfg, grid) in checkpoint_configs() {
        check_checkpoint_config(&zcfg, grid, &mut report)?;
    }
    if report.windows_proven == 0 {
        return Err("offload sweep proved no open prefetch window anywhere — \
                    overlapped stage-3 plans must prefetch ahead of demand"
            .to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_passes() {
        let r = check_offload().expect("offload proof");
        // 3 worlds × fp16/fp32 × (stage 1 sync + stages 2-3 sync/overlap),
        // plus the 8 ZeRO++ configurations.
        assert_eq!(r.configs, 38, "sweep covered {} configs", r.configs);
        assert_eq!(r.checkpoint_configs, 13, "checkpoint clause covered {}", r.checkpoint_configs);
        assert!(r.tier_ops_checked > 100, "checked {} tier ops", r.tier_ops_checked);
        assert!(r.paired_ops > 50, "paired {} tier ops", r.paired_ops);
        assert!(r.windows_proven > 0, "no prefetch window proven open");
    }

    #[test]
    fn overlapped_stage3_opens_windows() {
        let layout = Layout::build_mp(&test_model(), 1);
        let zcfg = cfg(ZeroStage::Three, true, true, TierConfig::budgeted(1 << 30));
        let plan = CommPlan::train_step(&layout, &zcfg, Grid::new(4, 1), &shape(false));
        assert!(
            plan.tier_ops()
                .iter()
                .any(|t| t.demand_pos > t.issue_pos),
            "overlapped stage-3 plan must prefetch ahead of demand"
        );
    }

    #[test]
    fn spills_moved_back_to_the_drain_are_refused() {
        // Overlapped stage 3, two micro-batches of several buckets: each
        // spill rides the reduce-scatter right before it.
        let layout = Layout::build_mp(&test_model(), 1);
        let (zcfg, grid, sh) = (cfg(ZeroStage::Three, true, true, TierConfig::budgeted(1 << 30)), Grid::new(2, 1), shape(false));
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &sh);
        let walked = CommPlan::footprint(&layout, &zcfg, grid, sh.micro_batches, sh.act_elems, 0);
        check_rides(plan.tier_ops(), plan.ops(), &zcfg, "healthy").expect("a healthy plan rides");
        check_spill_demands(plan.tier_ops(), &walked, "healthy").expect("healthy demands");
        let spills = plan.tier_ops().iter().filter(|t| t.label == "tier-grad-spill").count();
        assert!(spills >= 4, "{spills} spills");
        // Mutant: every spill queued and blocked on at its micro-batch's
        // drain, the release point of the micro-batch's last bucket.
        let mut drained: Vec<TierOp> = plan.tier_ops().to_vec();
        for t in drained.iter_mut().filter(|t| t.label == "tier-grad-spill") {
            let rs = t.rides.expect("a bucket spill rides its reduce-scatter");
            let drain = walked.settles.iter().find(|s| s.0 >= rs && s.1.is_none()).expect("a drain").2;
            (t.issue_pos, t.demand_pos) = (drain, drain);
        }
        let err = check_rides(&drained, plan.ops(), &zcfg, "drained").expect_err("drained spills must be refused");
        assert!(err.contains("not the collective it seeds or drains"), "{err}");
        // A spill left behind its reduce-scatter but blocked on at the
        // drain, where the engine no longer is.
        let mut late: Vec<TierOp> = plan.tier_ops().to_vec();
        let first = late.iter().position(|t| t.label == "tier-grad-spill").expect("a spill");
        late[first].demand_pos = drained[first].demand_pos;
        assert_ne!(late[first].demand_pos, plan.tier_ops()[first].demand_pos, "the first bucket settles at a gather");
        assert!(check_spill_demands(&late, &walked, "late").unwrap_err().contains("is released at"));
    }

    #[test]
    fn tampered_window_is_rejected() {
        // Guard against the checker degenerating: an op demanded before
        // it is issued must fail the window check.
        let t = ResolvedTierOp {
            dir: TierDir::Fetch,
            label: "tier-param-fetch",
            bytes: 64,
            issue_pos: 3,
            demand_pos: 1,
        };
        let mut report = OffloadReport::default();
        let err = check_anchors(&[t], &[], 0, true, "tamper", &mut report)
            .expect_err("inverted window must be rejected");
        assert!(err.contains("demanded"), "unexpected error: {err}");
    }

    #[test]
    fn tampered_checkpoint_round_trips_are_rejected() {
        let (zcfg, grid) = checkpoint_configs()[6]; // stage 1, mp 2, sync
        assert_eq!((grid.mp_degree(), zcfg.overlap), (2, false));
        let layout = Layout::build_mp(&test_model(), 2);
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape(false));
        let tier = plan.resolve_tier_for(3);
        let (pairs, bytes) = check_checkpoint_pairs(&tier, 3, "healthy").expect("a healthy plan pairs");
        assert_eq!((pairs, bytes), (4, 4 * 2 * 128), "2 micro-batches x 2 segments of a 128-element fp16 slice");
        let fetch = tier.iter().position(|t| t.label == "tier-ckpt-fetch").expect("a checkpoint fetch");
        let tamper = |f: &dyn Fn(&mut Vec<ResolvedTierOp>)| {
            let mut t = tier.clone();
            f(&mut t);
            check_checkpoint_pairs(&t, 3, "tamper").expect_err("a tampered round trip must be rejected")
        };
        assert!(tamper(&|t| t[fetch].bytes -= 2).contains("does not pair"));
        assert!(tamper(&|t| t[fetch].issue_pos += 1).contains("does not pair"));
        assert!(tamper(&|t| { t.remove(fetch); }).contains("does not pair"));
        let last = tier.iter().rposition(|t| t.label == "tier-ckpt-fetch").expect("a checkpoint fetch");
        assert!(tamper(&|t| { t.remove(last); }).contains("never fetched back"));
        // A fetch seeding a gather other than the checkpoint's.
        let mut report = OffloadReport::default();
        let mut moved = tier.clone();
        moved[fetch].issue_pos = 0;
        moved[fetch].demand_pos = 0;
        let ops = plan.resolve_for(3);
        let err = check_anchors(&moved[fetch..=fetch], &ops, 3, false, "tamper", &mut report)
            .expect_err("a checkpoint fetch must seed its ckpt-gather");
        assert!(err.contains("not the all-gather it seeds"), "{err}");
    }

    #[test]
    fn tampered_volume_is_rejected() {
        // A plan whose tier stream under-reports a spill must fail the
        // telescoping identity. Build a real plan, then shrink one spill.
        let layout = Layout::build_mp(&test_model(), 1);
        let zcfg = cfg(ZeroStage::Two, false, true, TierConfig::budgeted(1 << 30));
        let grid = Grid::new(2, 1);
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape(false));
        let part = Partitioner::per_unit(&layout, 2);
        let spill: u64 = plan
            .resolve_tier_for(0)
            .iter()
            .filter(|t| t.dir == TierDir::Spill)
            .map(|t| t.bytes)
            .sum();
        let want = 2 * 2 * part.counts()[0] as u64; // elem_bytes × micros × shard
        assert_eq!(spill, want, "healthy plan telescopes");
        assert_ne!(spill.saturating_sub(2), want, "tampered volume must disagree");
    }
}
