//! The static collective-schedule checker.
//!
//! A [`CommPlan`] is pure data, so every property the paper argues about a
//! training step's communication can be proven by arithmetic:
//!
//! * **Rank-symmetry / deadlock-freedom.** Every rank executes the same
//!   indexed op sequence. For each op index, any two ranks that appear in
//!   each other's resolved group must agree *exactly* on the group's
//!   member order and per-member counts. Groups at one index are then
//!   either identical or disjoint, so the schedule is a sequence of
//!   consistent collectives over a partition of the world — no rank can
//!   wait on a peer that is executing a different op, which is the only
//!   way this fabric deadlocks.
//! * **Membership consistency.** Each rank belongs to its own resolved
//!   group, and counts vectors match the group size.
//! * **Volume.** Per-rank bytes are compared against independently
//!   derived telescoping identities (exact, not bounds): one step of
//!   stage 1/2 reduce-scatters Ψ − |shard_i| elements and all-gathers
//!   Ψ − |shard_{i+1}|; stage 3 gathers each unit once per pass it is
//!   computed on — every block twice, except the last block where the
//!   plan holds it through the head into its backward (overlap, with the
//!   backward opening on that block: `holds_last_block`); the paper's
//!   2Ψ·(N−1)/N and ≤ 3Ψ headline numbers follow and are asserted too.
//! * **Window.** Replaying each stage-3 plan's fetches against the walk,
//!   no rank ever has more than two gathered units alive under overlap
//!   (the unit computed on, plus the one in flight or the held one) and
//!   more than one without, beyond the blocks a recompute segment keeps
//!   for its backward (`check_unit_window`).
//! * **Balance.** Training partitions every unit N ways, so every op over
//!   parameter space — a unit fetch, a gradient bucket, a CB chunk — and
//!   every tier movement carrying a piece of one has member counts within
//!   one element per unit it covers (`check_balance`): no member's link
//!   carries an op alone while its peers idle.
//! * **Issue/complete ordering (overlap).** Overlapped plans list ops in
//!   *issue* order, and every rank's ops execute on one FIFO progress
//!   thread — so per-rank completion order equals issue order and the
//!   pairwise-agreement proof above covers the async schedule verbatim
//!   (the reduction — Sum, Mean, Max, or the two-level all-reduce's
//!   closing average — and the op's role — which unit a fetch
//!   materializes between which stores, whether it goes out ahead or is
//!   held, which flat range a bucket or chunk covers and where a bucket
//!   settles — must also agree between peers). On top,
//!   `check_overlap_pair`-style invariance is proven: an overlapped
//!   plan is a pure reordering of its synchronous twin's op multiset
//!   less the held block's refetch, one per micro-batch where the hold
//!   applies (identical per-rank bytes *and* messages per kind), fetches keep
//!   their relative issue order, and each fetch is issued no later than
//!   its synchronous position and no earlier than its *predecessor's*
//!   synchronous position — at most one unit ahead, which is exactly
//!   the double-buffered prefetch window. The window is also used: every
//!   stage-3 fetch after the step's first goes out ahead, through the
//!   backward and across recompute segments. (An op over a group of one
//!   completes on the caller, off the FIFO; it has no peer to pair with.)

use zero_comm::{CollectiveKind, Grid};
use std::ops::Range;

use zero_comm::chunk_range;
use zero_core::{CkptPlace, CommPlan, OpRole, ParamStore, Partitioner, ResolvedOp, StepShape, TierOp, ZeroConfig, ZeroStage};
use zero_model::{Layout, ModelConfig};

/// Counters describing how much the checker covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleReport {
    /// Distinct (stage, grid, flags) configurations checked.
    pub configs: usize,
    /// Plans resolved and checked (train prefix+suffix, eval, refresh…).
    pub plans: usize,
    /// Total resolved ops validated across all ranks.
    pub ops_checked: usize,
    /// (rank, peer) group agreements proven.
    pub pair_checks: usize,
}

const RS: usize = CollectiveKind::ReduceScatter as usize;
const AG: usize = CollectiveKind::AllGather as usize;
const AR: usize = CollectiveKind::AllReduce as usize;

fn test_model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

/// Proves rank-symmetry and membership consistency for one plan.
///
/// Returns `(ops_checked, pair_checks)` on success.
pub(crate) fn check_symmetry(plan: &CommPlan, what: &str) -> Result<(usize, usize), String> {
    let world = plan.grid().world_size();
    let resolved: Vec<_> = (0..world).map(|r| plan.resolve_for(r)).collect();
    check_resolved_symmetry(&resolved, plan.ops().len(), what)
}

/// [`check_symmetry`] over every rank's resolved op stream.
#[allow(clippy::needless_range_loop)] // ranks cross-index each other's op lists
fn check_resolved_symmetry(
    resolved: &[Vec<ResolvedOp>],
    n_ops: usize,
    what: &str,
) -> Result<(usize, usize), String> {
    let world = resolved.len();
    for r in 0..world {
        if resolved[r].len() != n_ops {
            return Err(format!(
                "{what}: rank {r} resolved {} ops, plan has {n_ops}",
                resolved[r].len()
            ));
        }
    }
    let mut pairs = 0;
    for i in 0..n_ops {
        for r in 0..world {
            let op = &resolved[r][i];
            if !op.members.contains(&r) {
                return Err(format!(
                    "{what}: op {i} '{}' resolved for rank {r} to group {:?} \
                     that does not contain it",
                    op.label, op.members
                ));
            }
            if op.counts.len() != op.members.len() {
                return Err(format!(
                    "{what}: op {i} '{}' rank {r}: {} counts for {} members",
                    op.label,
                    op.counts.len(),
                    op.members.len()
                ));
            }
            // Every peer this rank expects to meet inside the collective
            // must resolve the *same* collective instance at this index.
            for &s in &op.members {
                let peer = &resolved[s][i];
                if peer.kind != op.kind
                    || peer.members != op.members
                    || peer.counts != op.counts
                    || peer.prec != op.prec
                    || peer.wire != op.wire
                    || peer.reduce != op.reduce
                    || peer.role != op.role
                {
                    return Err(format!(
                        "{what}: op {i} '{}': rank {r} sees {:?} {:?} over {:?} \
                         (counts {:?}) but member {s} sees {:?} {:?} over {:?} \
                         (counts {:?}) — asymmetric schedule would deadlock",
                        op.label,
                        op.kind,
                        op.reduce,
                        op.members,
                        op.counts,
                        peer.kind,
                        peer.reduce,
                        peer.members,
                        peer.counts
                    ));
                }
                pairs += 1;
            }
        }
    }
    Ok((n_ops * world, pairs))
}

/// The overflow-flag (and grad-norm) contribution: a 1-element fp32
/// all-reduce over an `n`-rank group, derived from first principles.
fn one_elem_ar_bytes(n: usize, local_idx: usize) -> u64 {
    if n == 1 {
        return 0;
    }
    // Balanced split of 1 element over n: member 0 owns it, the ring
    // still circulates one (mostly empty) chunk per phase.
    let own = usize::from(local_idx == 0);
    let succ = usize::from((local_idx + 1).is_multiple_of(n));
    4 * (2 - own - succ) as u64
}

/// Per-rank ring volume of an even split of `total` over `n` members:
/// `(total − c_i) + (total − c_{i+1})` for all-reduce, single phases for
/// reduce-scatter / all-gather.
fn even_counts(total: usize, n: usize) -> Vec<usize> {
    (0..n).map(|i| zero_comm::chunk_range(total, n, i).len()).collect()
}

struct Expected {
    rs: u64,
    ag: u64,
    /// Exact all-reduce bytes, or a (center, slack) band for DDP's
    /// chunked ring where only the paper-level 2Ψ·(N−1)/N claim holds.
    ar: ArExpect,
}

enum ArExpect {
    Exact(u64),
    Band { center: f64, slack: f64 },
}

/// Independently derives one rank's per-kind byte volume for one training
/// step (micro_batches = 1) from layout + config + grid — the telescoping
/// identities of §7, *not* the plan-builder's op list.
fn expected_step(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, rank: usize, skipped: bool) -> Expected {
    let psi = layout.total_params();
    let dp = grid.dp_degree();
    let mp = grid.mp_degree();
    let world = grid.world_size();
    let (dpr, mpr) = grid.coords(rank);
    let w: u64 = if zcfg.fp16 { 2 } else { 4 };
    // Every unit is split dp ways: a shard is its owner's piece of each.
    let piece = |unit: &Range<usize>, i: usize| chunk_range(unit.len(), dp, i).len() as u64;
    let shard: u64 = layout.units().iter().map(|u| piece(&u.range, dpr)).sum();
    let next: u64 = layout.units().iter().map(|u| piece(&u.range, (dpr + 1) % dp)).sum();
    let layers = layout.unit_count() - 2;

    // --- MP traffic (identical for every stage) ---
    // Two all-reduces per block pass; passes per block: forward + backward
    // (+ one recompute pass per block under checkpointing).
    let act = {
        // act_elems is supplied via shape at plan build; re-derive it here
        // to stay independent: local_batch encoded by the caller in
        // `SHAPE_LOCAL_BATCH`.
        SHAPE_LOCAL_BATCH * test_model().seq * test_model().hidden
    };
    let block_passes: u64 = if zcfg.checkpoint_activations { 3 } else { 2 };
    let mut mp_ar = 0u64;
    let mut mp_ag = 0u64;
    if mp > 1 {
        let c = even_counts(act, mp);
        let ci = c[mpr];
        let cn = c[(mpr + 1) % mp];
        let per_hook = ((act - ci) + (act - cn)) as u64;
        mp_ar = w * 2 * block_passes * layers as u64 * per_hook;
        if zcfg.checkpoint_place.partitioned() {
            // One checkpoint gather per segment (interval 1 ⇒ per layer).
            let segments = layers.div_ceil(zcfg.checkpoint_interval.max(1)) as u64;
            mp_ag = w * segments * (act - cn) as u64;
        }
    }

    // --- overflow flag (+ grad-norm when clipping an unskipped step) ---
    let world_idx = rank; // world group is identity-ordered
    let mut flag_ar = one_elem_ar_bytes(world, world_idx);
    if zcfg.clip_grad_norm.is_some() && !skipped {
        flag_ar += if zcfg.stage.partitions_optimizer() {
            one_elem_ar_bytes(world, world_idx)
        } else {
            one_elem_ar_bytes(mp, mpr)
        };
    }

    match zcfg.stage {
        ZeroStage::One | ZeroStage::Two => Expected {
            // Reduce-scatter skips this rank's own shard; the publish
            // all-gather (absent when skipped) skips the successor's.
            rs: w * (psi as u64 - shard),
            ag: mp_ag + if skipped { 0 } else { w * (psi as u64 - next) },
            ar: ArExpect::Exact(mp_ar + flag_ar),
        },
        ZeroStage::Three => {
            // Each unit is gathered once per pass it is computed on: embed
            // and head once (the head's backward runs with its forward,
            // the embedding's needs no parameters); every block in forward
            // and again for backward (or recompute, which subsumes the
            // backward fetch) — except the last block where the plan holds
            // it through the head, gathered once.
            let mut ag = 0u64;
            let units = layout.units();
            let held = holds_last_block(zcfg, layers).then_some(layers);
            for (ui, unit) in units.iter().enumerate() {
                let passes: u64 = if ui == 0 || ui + 1 == units.len() || held == Some(ui) { 1 } else { 2 };
                ag += passes * (unit.range.len() as u64 - piece(&unit.range, (dpr + 1) % dp));
            }
            Expected {
                rs: w * (psi as u64 - shard),
                ag: mp_ag + w * ag,
                ar: ArExpect::Exact(mp_ar + flag_ar),
            }
        }
        ZeroStage::Ddp => {
            let chunks = psi.div_ceil(zcfg.bucket_elems) as u64;
            Expected {
                rs: 0,
                ag: mp_ag,
                ar: ArExpect::Band {
                    // The paper's 2Ψ·(N−1)/N, ±2 boundary elements per
                    // CB chunk for the balanced-uneven split.
                    center: (mp_ar + flag_ar) as f64
                        + w as f64 * 2.0 * psi as f64 * (dp as f64 - 1.0) / dp as f64,
                    slack: (w * 2 * chunks) as f64 + 1.0,
                },
            }
        }
    }
}

/// Whether a stage-3 plan holds the forward's last block (unit `layers`)
/// through the head into its backward, restated from the walk rather than
/// read off the builder: under overlap, when the backward opens on that
/// block — without checkpointing, or when the last checkpoint segment is
/// that block alone (every segment, at interval 1). Without overlap the
/// window is one unit and holds nothing; a longer last segment opens its
/// recompute on another block, which the held one would sit beside.
pub(crate) fn holds_last_block(zcfg: &ZeroConfig, layers: usize) -> bool {
    let one_block_segment = (layers.max(1) - 1).is_multiple_of(zcfg.checkpoint_interval.max(1));
    let opens_on_last = !zcfg.checkpoint_activations || one_block_segment;
    zcfg.stage.partitions_params() && zcfg.overlap && layers > 0 && opens_on_last
}

/// The units one micro-batch computes on, in walk order (§5.3, §6.1):
/// embed, every block, head; then with `train` every checkpoint segment's
/// blocks again from the last segment (recompute; `k` is the interval),
/// or without checkpointing every block from the last.
fn walk_uses(layers: usize, k: Option<usize>, train: bool) -> Vec<usize> {
    let mut uses: Vec<usize> = (0..layers + 2).collect();
    match k.filter(|_| train) {
        Some(k) => {
            for start in (0..layers).step_by(k).rev() {
                uses.extend(1 + start..1 + (start + k).min(layers));
            }
        }
        None if train => uses.extend((1..=layers).rev()),
        None => {}
    }
    uses
}

/// One planned fetch as the window clause replays it.
#[derive(Clone, Copy, Debug)]
struct Fetch {
    unit: usize,
    ahead: bool,
    held: bool,
}

/// Every fetch of `plan`, in issue order.
fn fetches(plan: &CommPlan) -> Vec<Fetch> {
    let fetch = |op: &zero_core::PlanOp| match op.role {
        OpRole::Fetch { unit, ahead, hold, .. } => Some(Fetch { unit, ahead, held: hold.is_some() }),
        _ => None,
    };
    plan.ops().iter().filter_map(fetch).collect()
}

/// The window clause: replays `fetches` against the walk's `uses` the way
/// the engine interprets them — a use takes its unit from the hold, from
/// the one fetch in flight, or gathers it on demand; a fetch marked ahead
/// goes out during the use before the one it names — and counts the
/// gathered units alive at every issue: the held unit, the unit being
/// computed on and the one issued. No more than `limit` (two under
/// overlap, one without) may be alive; the blocks a recompute segment
/// keeps for its backward (§6.1) are not the window's and are not counted.
fn check_unit_window(fetches: &[Fetch], uses: &[usize], limit: usize) -> Result<(), String> {
    let mut ops = fetches.iter().copied().peekable();
    let (mut held, mut slot): (Option<usize>, Option<Fetch>) = (None, None);
    let window = |live: usize, i: usize, u: usize| match live > limit {
        true => Err(format!("use {i} (unit {u}): {live} gathered units alive, the window holds {limit}")),
        false => Ok(()),
    };
    for (i, &u) in uses.iter().enumerate() {
        let live = usize::from(held.is_some());
        let cur = if held == Some(u) {
            held = None;
            None
        } else {
            let f = match slot.take() {
                Some(f) => f,
                None => {
                    window(live + 1, i, u)?;
                    ops.next().ok_or_else(|| format!("use {i}: unit {u} is never fetched"))?
                }
            };
            if f.unit != u {
                return Err(format!("use {i}: the plan fetches unit {} where the walk computes on unit {u}", f.unit));
            }
            Some(f)
        };
        if let Some(f) = ops.next_if(|f| f.ahead && uses.get(i + 1) == Some(&f.unit)) {
            window(usize::from(held.is_some()) + 2, i, u)?;
            slot = Some(f);
        }
        if cur.is_some_and(|f| f.held) && held.replace(u).is_some() {
            return Err(format!("use {i}: unit {u} held while another unit is held"));
        }
    }
    match (ops.next(), held, slot) {
        (None, None, None) => Ok(()),
        left => Err(format!("the walk ends with fetches unused, a unit held or one in flight: {left:?}")),
    }
}

/// [`check_unit_window`] over every micro-batch of a stage-3 plan.
fn check_plan_window(plan: &CommPlan, zcfg: &ZeroConfig, layers: usize, micros: usize, train: bool) -> Result<(), String> {
    if !zcfg.stage.partitions_params() {
        return Ok(());
    }
    let k = zcfg.checkpoint_activations.then_some(zcfg.checkpoint_interval.max(1));
    let uses = walk_uses(layers, k, train).repeat(micros);
    check_unit_window(&fetches(plan), &uses, if zcfg.overlap { 2 } else { 1 })
}

/// The local batch all shape-dependent checks assume.
const SHAPE_LOCAL_BATCH: usize = 2;

fn shape(skipped: bool) -> StepShape {
    let m = test_model();
    StepShape {
        micro_batches: 1,
        act_elems: SHAPE_LOCAL_BATCH * m.seq * m.hidden,
        skipped,
    }
}

/// The balance clause: in every op over parameter space — a unit fetch, a
/// gradient bucket, a CB chunk of the partition's rows — and every tier
/// movement riding one (or stage 1's whole-shard spill), member counts
/// differ by at most one element per unit the op covers. `ops` is one
/// rank's resolved stream, `tier` the plan's. The per-unit partition meets
/// this by construction; a flat one leaves most units owner-only.
pub(crate) fn check_balance(
    layout: &Layout,
    zcfg: &ZeroConfig,
    grid: Grid,
    ops: &[ResolvedOp],
    tier: &[TierOp],
    what: &str,
) -> Result<(), String> {
    let owners = if zcfg.stage.partitions_optimizer() { grid.dp_degree() } else { 1 };
    let part = Partitioner::per_unit(layout, owners);
    let touched = |ranges: &[Range<usize>]| {
        let units = layout.units().iter();
        units.filter(|u| ranges.iter().any(|r| r.start < u.range.end && u.range.start < r.end)).count()
    };
    let units = |role: &OpRole| match role {
        OpRole::Fetch { .. } => Some(1),
        OpRole::Span(r, _) => Some(touched(std::slice::from_ref(r))),
        OpRole::Chunk(rows) => Some(touched(&part.flat_ranges(0, rows.clone()))),
        OpRole::Plain => None,
    };
    let spread = |c: &[usize]| c.iter().max().unwrap_or(&0) - c.iter().min().unwrap_or(&0);
    for (i, op) in ops.iter().enumerate() {
        match units(&op.role) {
            Some(u) if spread(&op.counts) > u.max(1) => {
                return Err(format!(
                    "{what}: op {i} '{}' has counts {:?} over {u} unit(s): out of balance",
                    op.label, op.counts
                ))
            }
            _ => {}
        }
    }
    for t in tier {
        let u = match t.at.op() {
            Some(k) => units(&ops[k].role),
            None => (t.label == "tier-grad-spill").then(|| layout.units().len()),
        };
        if u.is_some_and(|u| spread(&t.counts) > u.max(1)) {
            return Err(format!("{what}: tier op '{}' moves {:?}: out of balance", t.label, t.counts));
        }
    }
    Ok(())
}

/// Checks one configuration: symmetry and balance of every plan the
/// engine can install, and exact volume agreement for the train step.
fn check_config(
    zcfg: &ZeroConfig,
    grid: Grid,
    report: &mut ScheduleReport,
) -> Result<(), String> {
    let model = test_model();
    let layout = Layout::build_mp(&model, grid.mp_degree());
    let what = format!(
        "{} dp={} mp={} fp16={} ckpt={} place={:?} node={}",
        zcfg.stage.name(),
        grid.dp_degree(),
        grid.mp_degree(),
        zcfg.fp16,
        zcfg.checkpoint_activations,
        zcfg.checkpoint_place,
        zcfg.node_size
    );

    let layers = layout.unit_count() - 2;
    for skipped in [false, true] {
        let plan = CommPlan::train_step(&layout, zcfg, grid, &shape(skipped));
        let (ops, pairs) = check_symmetry(&plan, &what)?;
        report.ops_checked += ops;
        report.pair_checks += pairs;
        report.plans += 1;
        check_plan_window(&plan, zcfg, layers, 1, true).map_err(|e| format!("{what}: {e}"))?;

        for rank in 0..grid.world_size() {
            check_balance(&layout, zcfg, grid, &plan.resolve_for(rank), plan.tier_ops(), &what)?;
            let got = plan.rank_bytes(rank);
            let want = expected_step(&layout, zcfg, grid, rank, skipped);
            if got[RS] != want.rs {
                return Err(format!(
                    "{what} skipped={skipped}: rank {rank} reduce-scatter bytes {} ≠ \
                     telescoped identity {}",
                    got[RS], want.rs
                ));
            }
            if got[AG] != want.ag {
                return Err(format!(
                    "{what} skipped={skipped}: rank {rank} all-gather bytes {} ≠ \
                     telescoped identity {}",
                    got[AG], want.ag
                ));
            }
            match want.ar {
                ArExpect::Exact(b) => {
                    if got[AR] != b {
                        return Err(format!(
                            "{what} skipped={skipped}: rank {rank} all-reduce bytes {} ≠ {}",
                            got[AR], b
                        ));
                    }
                }
                ArExpect::Band { center, slack } => {
                    let d = (got[AR] as f64 - center).abs();
                    if d > slack {
                        return Err(format!(
                            "{what} skipped={skipped}: rank {rank} all-reduce bytes {} \
                             outside 2Ψ(N−1)/N band {center}±{slack}",
                            got[AR]
                        ));
                    }
                }
            }
            // Paper headline bounds (§7): stages 1/2 move < 2Ψ per rank
            // across DP; stage 3 at most 3Ψ.
            let w: u64 = if zcfg.fp16 { 2 } else { 4 };
            let psi = layout.total_params() as u64;
            let dp_total = want.rs + want.ag;
            match zcfg.stage {
                ZeroStage::One | ZeroStage::Two
                    if !skipped && grid.mp_degree() == 1 && dp_total > 2 * psi * w =>
                {
                    return Err(format!("{what}: rank {rank} exceeds the 2Ψ bound"));
                }
                ZeroStage::Three if grid.mp_degree() == 1 && dp_total > 3 * psi * w => {
                    return Err(format!("{what}: rank {rank} exceeds the 3Ψ bound"));
                }
                _ => {}
            }
        }
    }

    // The other installable plans must be symmetric too.
    for (plan, name) in [
        (CommPlan::eval_pass(&layout, zcfg, grid, shape(false).act_elems), "eval"),
        (CommPlan::publish_refresh(&layout, zcfg, grid), "refresh"),
    ] {
        let (ops, pairs) = check_symmetry(&plan, &format!("{what} [{name}]"))?;
        if name == "eval" {
            check_plan_window(&plan, zcfg, layers, 1, false).map_err(|e| format!("{what} [{name}]: {e}"))?;
        }
        for rank in 0..grid.world_size() {
            check_balance(&layout, zcfg, grid, &plan.resolve_for(rank), plan.tier_ops(), &format!("{what} [{name}]"))?;
        }
        report.ops_checked += ops;
        report.pair_checks += pairs;
        report.plans += 1;
    }
    report.configs += 1;
    Ok(())
}

/// One plan's fetch issue trace: for every `fetch-unit` op in issue
/// order, its identity key plus the number of non-fetch ops issued
/// before it. The prefix count is the positional coordinate the
/// double-buffer proof runs on — moving a fetch across compute/comm
/// ops changes it, moving it across other fetches does not.
fn fetch_trace(plan: &CommPlan) -> Vec<(String, usize)> {
    let mut prefix = 0usize;
    let mut fetches = Vec::new();
    for op in plan.ops() {
        if op.label == "fetch-unit" {
            fetches.push((
                format!("{:?}|{:?}|{:?}|{:?}", op.kind, op.counts, op.prec, op.wire),
                prefix,
            ));
        } else {
            prefix += 1;
        }
    }
    fetches
}

/// The positional double-buffer proof over two fetch traces.
///
/// Three clauses: (1) both schedules fetch the same units in the same
/// relative order — prefetch moves waits, never reorders issues, which
/// (with FIFO completion) pins the async completion order to the sync
/// one; (2) no fetch is issued *later* than its synchronous position —
/// a parameter is always resident by the time compute needs it; (3) no
/// fetch is issued earlier than its predecessor's synchronous position
/// — at most one unit is in flight beyond the one being consumed,
/// i.e. exactly a double-buffered slot, never triple buffering.
fn check_fetch_window(
    sync: &[(String, usize)],
    over: &[(String, usize)],
) -> Result<(), String> {
    if sync.len() != over.len() {
        return Err(format!(
            "fetch count differs — sync {} vs overlapped {}",
            sync.len(),
            over.len()
        ));
    }
    for k in 0..sync.len() {
        if sync[k].0 != over[k].0 {
            return Err(format!("fetch {k} reordered between schedules"));
        }
        if over[k].1 > sync[k].1 {
            return Err(format!(
                "fetch {k} issued later than its synchronous position"
            ));
        }
        if k > 0 && over[k].1 < sync[k - 1].1 {
            return Err(format!(
                "fetch {k} issued more than one unit ahead — exceeds the \
                 double-buffered prefetch window"
            ));
        }
    }
    Ok(())
}

/// The chain clause next to [`check_fetch_window`], over an overlapped
/// step's fetches in issue order (`true` = issued ahead): only the first
/// waits on demand, every later one goes out under its predecessor's
/// compute — through the backward and across recompute segments, whether
/// checkpointing is on or off.
fn check_fetch_chain(ahead: &[bool]) -> Result<(), String> {
    match ahead.iter().enumerate().find(|&(k, &ahead)| ahead == (k == 0)) {
        None => Ok(()),
        Some((0, _)) => Err("the step's first fetch is marked ahead of nothing".into()),
        Some((k, _)) => Err(format!("fetch {k} waits on demand — the prefetch chain broke")),
    }
}

/// Per-kind bytes and messages `rank` sends over `ops`.
fn volume(ops: &[ResolvedOp], rank: usize) -> Vec<(CollectiveKind, u64, usize)> {
    zero_comm::ALL_KINDS
        .iter()
        .map(|&kind| {
            let of_kind = ops.iter().filter(|op| op.kind == kind);
            (kind, of_kind.clone().map(|op| op.sent_bytes(rank)).sum(), of_kind.map(|op| op.sent_messages(rank)).sum())
        })
        .collect()
}

/// Every fetch's `ahead` flag, in issue order.
fn fetch_ahead(plan: &CommPlan) -> Vec<bool> {
    fetches(plan).iter().map(|f| f.ahead).collect()
}

/// Proves overlap invariance for one configuration: the overlapped plan
/// must be a pure reordering of the synchronous plan's op multiset (same
/// per-rank bytes and messages per kind, same resolved ops up to order),
/// the synchronous plan must issue no fetch ahead, and the
/// overlapped plan's fetch issue positions must respect the
/// double-buffered window ([`check_fetch_window`]).
pub(crate) fn check_overlap_pair(
    zcfg: &ZeroConfig,
    grid: Grid,
    report: &mut ScheduleReport,
) -> Result<(), String> {
    let model = test_model();
    let layout = Layout::build_mp(&model, grid.mp_degree());
    let sync_cfg = ZeroConfig { overlap: false, ..*zcfg };
    let over_cfg = ZeroConfig { overlap: true, ..*zcfg };
    let what = format!(
        "overlap-invariance {} dp={} mp={} ckpt={}",
        zcfg.stage.name(),
        grid.dp_degree(),
        grid.mp_degree(),
        zcfg.checkpoint_activations
    );
    let layers = layout.unit_count() - 2;
    for skipped in [false, true] {
        let sync = CommPlan::train_step(&layout, &sync_cfg, grid, &shape(skipped));
        let over = CommPlan::train_step(&layout, &over_cfg, grid, &shape(skipped));
        // Where the hold applies, the overlapped plan drops the backward
        // refetch of the last block: in the synchronous plan, every fetch
        // of that block that comes right after the head's.
        let units: Vec<(usize, usize)> = sync
            .ops()
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op.role {
                OpRole::Fetch { unit, .. } => Some((i, unit)),
                _ => None,
            })
            .collect();
        let hold = holds_last_block(&over_cfg, layers);
        let elided: Vec<usize> = (1..units.len())
            .filter(|&j| hold && units[j].1 == layers && units[j - 1].1 == layers + 1)
            .collect();
        let kept = |i: &usize| !elided.iter().any(|&j| units[j].0 == *i);
        if sync.ops().len() != over.ops().len() + elided.len() {
            return Err(format!(
                "{what}: op count differs — sync {} less {} held refetch(es) vs overlapped {}",
                sync.ops().len(),
                elided.len(),
                over.ops().len()
            ));
        }
        if fetch_ahead(&sync).contains(&true) {
            return Err(format!("{what}: a synchronous plan issues a fetch ahead"));
        }
        for rank in 0..grid.world_size() {
            let sync_ops: Vec<_> = sync.resolve_for(rank).into_iter().enumerate().filter(|(i, _)| kept(i)).map(|(_, op)| op).collect();
            if volume(&sync_ops, rank) != volume(&over.resolve_for(rank), rank) {
                return Err(format!("{what}: rank {rank} bytes or messages differ between schedules"));
            }
            // Multiset equality of the resolved ops: the overlapped
            // schedule may only *move* fetches to their issue positions.
            let key = |ops: Vec<zero_core::ResolvedOp>| {
                let mut keys: Vec<String> = ops
                    .iter()
                    .map(|op| {
                        format!(
                            "{:?}|{:?}|{:?}|{:?}|{:?}|{}",
                            op.kind, op.members, op.counts, op.prec, op.wire, op.label
                        )
                    })
                    .collect();
                keys.sort();
                keys
            };
            if key(sync_ops) != key(over.resolve_for(rank)) {
                return Err(format!(
                    "{what}: rank {rank}: overlapped plan is not a reordering of the \
                     synchronous op multiset"
                ));
            }
        }
        let sf: Vec<_> = fetch_trace(&sync).into_iter().enumerate().filter(|(j, _)| !elided.contains(j)).map(|(_, f)| f).collect();
        let of = fetch_trace(&over);
        check_fetch_window(&sf, &of).map_err(|e| format!("{what}: {e}"))?;
        if zcfg.stage.partitions_params() {
            check_fetch_chain(&fetch_ahead(&over)).map_err(|e| format!("{what}: {e}"))?;
        }
        for (plan, cfg) in [(&sync, &sync_cfg), (&over, &over_cfg)] {
            check_plan_window(plan, cfg, layers, 1, true).map_err(|e| format!("{what}: {e}"))?;
        }
        report.plans += 2;
    }
    report.configs += 1;
    Ok(())
}

/// Proves the serving gather schedule (`CommPlan::serve_step`): exactly
/// one all-gather per unit, fetching the units in walk order from the
/// primary shards, world-scoped and rank-symmetric, with each rank's step
/// volume matching the telescoping identity
///
/// ```text
/// Σ_u (|u| − c_u[(i+1) mod N]) = Ψ − |shard_{(i+1) mod N}|
/// ```
///
/// (the unit intersections of a shard sum to the shard, since units tile
/// the flat space) — and *no* traffic of any other kind. Its window is
/// training's: the overlapped step against its synchronous twin through
/// [`check_fetch_window`] and [`check_fetch_chain`], and nothing ahead
/// without overlap.
fn check_serve(n: usize, overlap: bool, report: &mut ScheduleReport) -> Result<(), String> {
    let layout = Layout::build(&test_model());
    let plan = CommPlan::serve_step(&layout, n, overlap);
    let what = format!("serve N={n} overlap={overlap}");
    let (ops, pairs) = check_symmetry(&plan, &what)?;
    report.ops_checked += ops;
    report.pair_checks += pairs;
    report.plans += 1;

    if plan.ops().len() != layout.units().len() {
        return Err(format!(
            "{what}: {} ops for {} units — the serving step must gather each unit exactly once",
            plan.ops().len(),
            layout.units().len()
        ));
    }
    for (k, op) in plan.ops().iter().enumerate() {
        if op.kind != CollectiveKind::AllGather
            || op.label != "fetch-unit"
            || !matches!(op.role, OpRole::Fetch { unit, from: ParamStore::Primary, into: None, .. } if unit == k)
        {
            return Err(format!(
                "{what}: unexpected op {k} {:?} '{}' ({:?})",
                op.kind, op.label, op.role
            ));
        }
    }
    let uses = walk_uses(layout.unit_count() - 2, None, false);
    check_unit_window(&fetches(&plan), &uses, if overlap { 2 } else { 1 }).map_err(|e| format!("{what}: {e}"))?;
    let ahead = fetch_ahead(&plan);
    if overlap {
        let sync = fetch_trace(&CommPlan::serve_step(&layout, n, false));
        check_fetch_window(&sync, &fetch_trace(&plan)).map_err(|e| format!("{what}: {e}"))?;
        check_fetch_chain(&ahead).map_err(|e| format!("{what}: {e}"))?;
    } else if ahead.contains(&true) {
        return Err(format!("{what}: a synchronous step issues a fetch ahead"));
    }

    let psi = layout.total_params() as u64;
    let part = Partitioner::new(layout.total_params(), n);
    for rank in 0..n {
        let got = plan.rank_bytes(rank)[AG];
        let next = part.shard_range((rank + 1) % n).len() as u64;
        let want = 4 * (psi - next);
        if got != want {
            return Err(format!(
                "{what}: rank {rank} all-gathers {got} bytes, telescoped identity says {want}"
            ));
        }
        let total = plan.total_rank_bytes(rank);
        if total != got {
            return Err(format!(
                "{what}: rank {rank} sends {total} bytes total but {got} as all-gather — \
                 the serving step must carry no other traffic"
            ));
        }
    }
    Ok(())
}

/// The sweep's base configuration at one stage.
fn base(stage: ZeroStage) -> ZeroConfig {
    ZeroConfig {
        stage,
        fp16: true,
        checkpoint_activations: false,
        initial_loss_scale: 1.0,
        bucket_elems: 512,
        clip_grad_norm: None,
        ..ZeroConfig::default()
    }
}

/// The synchronous configurations [`check_all`] proves: every stage ×
/// N ∈ {2..8}, mixed DP × MP grids, P_a, clipping, and the hierarchical
/// all-reduce (told apart by `node_size`) — 38 in all.
pub fn sweep_configs() -> Vec<(ZeroConfig, Grid)> {
    let mut out = Vec::new();
    // Stage × N sweep (the acceptance grid), pure data parallelism.
    for stage in [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        for n in 2..=8 {
            out.push((base(stage), Grid::new(n, 1)));
        }
    }
    // Mixed DP × MP grids (Megatron-style groups).
    for stage in [ZeroStage::Two, ZeroStage::Three] {
        for (dp, mp) in [(2, 2), (4, 2)] {
            out.push((base(stage), Grid::new(dp, mp)));
        }
    }
    // ZeRO-R: checkpointing with partitioned activations (P_a).
    let pa = ZeroConfig {
        checkpoint_activations: true,
        checkpoint_place: CkptPlace::Partitioned,
        ..base(ZeroStage::Two)
    };
    for (dp, mp) in [(2, 2), (4, 2)] {
        out.push((pa, Grid::new(dp, mp)));
    }
    // Gradient clipping adds the grad-norm reduction.
    for stage in [ZeroStage::Ddp, ZeroStage::Three] {
        out.push((ZeroConfig { clip_grad_norm: Some(1.0), ..base(stage) }, Grid::new(4, 1)));
    }
    // Hierarchical (two-level) all-reduce under DDP.
    for (world, g) in [(4usize, 2usize), (8, 4)] {
        out.push((ZeroConfig { node_size: g, ..base(ZeroStage::Ddp) }, Grid::new(world, 1)));
    }
    out
}

/// The configurations proven overlap-invariant (each is run both
/// synchronous and overlapped): stages 2–3 × N ∈ {2..8}, checkpointed
/// stage 3, and mixed DP × MP stage-3 grids — 18 in all. DDP and stage 1
/// have nothing to issue ahead, so `check` refuses them overlapped.
pub fn overlap_pair_configs() -> Vec<(ZeroConfig, Grid)> {
    let mut out = Vec::new();
    for stage in [ZeroStage::Two, ZeroStage::Three] {
        for n in 2..=8 {
            out.push((base(stage), Grid::new(n, 1)));
        }
    }
    let ckpt3 = ZeroConfig { checkpoint_activations: true, ..base(ZeroStage::Three) };
    for n in [2usize, 4] {
        out.push((ckpt3, Grid::new(n, 1)));
    }
    for (dp, mp) in [(2usize, 2usize), (4, 2)] {
        out.push((base(ZeroStage::Three), Grid::new(dp, mp)));
    }
    out
}

/// Runs only the overlap-invariance battery: every overlapped plan is
/// proven a volume-preserving reordering of its synchronous twin with a
/// double-buffered prefetch window, over [`overlap_pair_configs`]. This is
/// the same sweep [`check_all`] embeds, exposed as its own CLI pass so
/// overlap regressions are attributable at a glance.
pub fn check_overlap() -> Result<ScheduleReport, String> {
    let mut report = ScheduleReport::default();
    for (zcfg, grid) in overlap_pair_configs() {
        check_overlap_pair(&zcfg, grid, &mut report)?;
    }
    Ok(report)
}

/// Runs the full static sweep: every stage × N ∈ {2..8} (plus MP grids,
/// checkpointing/P_a, clipping, hierarchical-all-reduce, overlapped
/// variants, and the serving gather schedule) — zero training steps
/// executed.
pub fn check_all() -> Result<ScheduleReport, String> {
    let mut report = ScheduleReport::default();

    for (zcfg, grid) in sweep_configs() {
        let g = zcfg.node_size;
        if g == 1 {
            check_config(&zcfg, grid, &mut report)?;
            continue;
        }
        // Hierarchical all-reduce: symmetry only — the three-phase volume
        // is covered empirically by the conformance tests.
        let layout = Layout::build_mp(&test_model(), 1);
        for skipped in [false, true] {
            let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape(skipped));
            let what = format!("DDP hier world={} g={g}", grid.world_size());
            let (ops, pairs) = check_symmetry(&plan, &what)?;
            report.ops_checked += ops;
            report.pair_checks += pairs;
            report.plans += 1;
        }
        report.configs += 1;
    }

    // Overlap-centric execution: the full symmetry + volume battery on
    // the *overlapped* plan (issue-ordered fetches, non-blocking bucket
    // reduce-scatters), and each overlapped schedule proven a
    // volume-preserving reordering of its synchronous twin, with bounded
    // prefetch depth.
    for (zcfg, grid) in overlap_pair_configs() {
        check_config(&zcfg.overlapped(), grid, &mut report)?;
        check_overlap_pair(&zcfg, grid, &mut report)?;
    }

    // Shard-hosted serving: the stage-3 fetch schedule with no training
    // traffic, both synchronous and prefetched.
    for n in 1..=8 {
        for overlap in [false, true] {
            check_serve(n, overlap, &mut report)?;
        }
        report.configs += 1;
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zero_comm::ReduceOp;
    use zero_core::Reduction;

    #[test]
    fn full_sweep_passes() {
        let r = check_all().expect("static schedule check");
        // 38 synchronous configs, the 18 overlap pairs (each run through
        // the battery overlapped and proven against its synchronous twin)
        // and 8 serving worlds.
        assert_eq!(r.configs, 38 + 2 * 18 + 8, "sweep covered {} configs", r.configs);
        assert!(r.ops_checked > 1000);
    }

    #[test]
    fn prefetch_moves_issues_within_double_buffer() {
        // Stage 3 on a DP×MP grid (MP hooks interleave with fetches, so
        // issue positions are observable): the overlapped plan must move
        // at least one fetch strictly earlier than its synchronous
        // position — the prefetch is real, not a relabeling — while
        // every fetch stays inside the double-buffered window.
        let grid = Grid::new(2, 2);
        let layout = Layout::build_mp(&test_model(), 2);
        let zcfg = ZeroConfig {
            stage: ZeroStage::Three,
            fp16: true,
            checkpoint_activations: false,
            ..ZeroConfig::default()
        };
        let sync = CommPlan::train_step(&layout, &zcfg, grid, &shape(false));
        let over = CommPlan::train_step(&layout, &zcfg.overlapped(), grid, &shape(false));
        let mut sf = fetch_trace(&sync);
        let of = fetch_trace(&over);
        // The overlapped plan holds the last block through the head: the
        // backward's first refetch is the synchronous plan's alone.
        sf.remove(test_model().layers + 2);
        assert!(!sf.is_empty(), "stage 3 must fetch units");
        check_fetch_window(&sf, &of).expect("double-buffer window");
        let moved = sf.iter().zip(&of).filter(|(s, o)| o.1 < s.1).count();
        assert!(moved > 0, "no fetch was issued ahead of its sync position");
        // And the engine's real plans issue fetches ahead only overlapped.
        assert!(fetch_ahead(&over).contains(&true));
        assert!(!fetch_ahead(&sync).contains(&true));
    }

    #[test]
    fn overlap_depth_violation_is_caught() {
        // Synthetic traces guard the checker against regressing to a
        // rubber stamp: a fetch issued two units ahead (triple
        // buffering), a late fetch, and a reordered pair must all be
        // rejected by the positional window proof.
        let t = |v: &[(&str, usize)]| -> Vec<(String, usize)> {
            v.iter().map(|(k, p)| (k.to_string(), *p)).collect()
        };
        let sync = t(&[("a", 0), ("b", 3), ("c", 6)]);
        assert!(check_fetch_window(&sync, &t(&[("a", 0), ("b", 0), ("c", 3)])).is_ok());
        let triple = t(&[("a", 0), ("b", 0), ("c", 0)]); // "c" before "b"'s sync spot
        assert!(
            check_fetch_window(&sync, &triple)
                .unwrap_err()
                .contains("double-buffered"),
            "triple buffering must be rejected"
        );
        let late = t(&[("a", 0), ("b", 4), ("c", 6)]);
        assert!(check_fetch_window(&sync, &late).unwrap_err().contains("later"));
        let reordered = t(&[("b", 0), ("a", 3), ("c", 6)]);
        assert!(check_fetch_window(&sync, &reordered).unwrap_err().contains("reordered"));
        // The chain: one on-demand fetch opens the step, none after it.
        assert!(check_fetch_chain(&[false, true, true]).is_ok());
        let restarted = check_fetch_chain(&[false, true, false, true]).unwrap_err();
        assert!(restarted.contains("fetch 2"), "{restarted}");
        assert!(check_fetch_chain(&[true, true]).is_err());
    }

    #[test]
    fn the_window_clause_catches_a_hold_in_sync_mode_and_at_interval_two() {
        // The planned streams pass: sync and overlapped at interval 1 (the
        // overlapped one holds the last block), overlapped at interval 2.
        let (layout, grid, layers) = (Layout::build(&test_model()), Grid::new(2, 1), test_model().layers);
        let ck = |k: usize| ZeroConfig { checkpoint_activations: true, checkpoint_interval: k, ..base(ZeroStage::Three) };
        let planned = |zcfg: &ZeroConfig| fetches(&CommPlan::train_step(&layout, zcfg, grid, &shape(false)));
        let (sync, over1, over2) = (planned(&ck(1)), planned(&ck(1).overlapped()), planned(&ck(2).overlapped()));
        let (uses1, uses2) = (walk_uses(layers, Some(1), true), walk_uses(layers, Some(2), true));
        assert!(check_unit_window(&sync, &uses1, 1).is_ok());
        assert!(check_unit_window(&over1, &uses1, 2).is_ok() && over1[layers].held);
        assert!(check_unit_window(&over2, &uses2, 2).is_ok() && over2.iter().all(|f| !f.held));
        // Fetches: embed, the blocks, head, then the backward's. A mutant
        // holds the forward's fetch of the last block and drops its
        // refetch: the first one after the head's at interval 1, the last
        // one (the recompute of the one two-block segment) at interval 2.
        let hold = |mut f: Vec<Fetch>, refetch: usize| {
            f[layers].held = true;
            assert_eq!(f.remove(refetch).unit, layers);
            f
        };
        // Without overlap the head is gathered beside the held block.
        let err = check_unit_window(&hold(sync, layers + 2), &uses1, 1).unwrap_err();
        assert!(err.contains(&format!("unit {}", layers + 1)) && err.contains("2 gathered units"), "{err}");
        // At interval 2 the head's prefetch of the segment's first block
        // goes out with the held block and the head alive.
        let refetch = over2.len() - 1;
        let err = check_unit_window(&hold(over2, refetch), &uses2, 2).unwrap_err();
        assert!(err.contains(&format!("unit {}", layers + 1)) && err.contains("3 gathered units"), "{err}");
        // Holding the last block at interval 2 would move no byte through
        // the restated identity: `holds_last_block` refuses it there.
        assert!(holds_last_block(&ck(1).overlapped(), layers) && !holds_last_block(&ck(2).overlapped(), layers));
        assert!(!holds_last_block(&ck(1), layers) && holds_last_block(&ck(2).overlapped(), 3));
    }

    #[test]
    fn disagreeing_reduction_is_refused() {
        // Stage 1 on a 2 × 2 grid clipping its gradients: every reduction
        // kind is planned (Mean chunks, Max flag, Sum norm and hooks). A
        // shared op one member reduces differently from its peers — a
        // Sum where they average — is an asymmetric schedule.
        let grid = Grid::new(2, 2);
        let layout = Layout::build_mp(&test_model(), 2);
        let zcfg = ZeroConfig {
            stage: ZeroStage::One,
            clip_grad_norm: Some(1.0),
            ..ZeroConfig::default()
        };
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape(false));
        let mut resolved: Vec<_> = (0..4).map(|r| plan.resolve_for(r)).collect();
        let n_ops = plan.ops().len();
        assert!(check_resolved_symmetry(&resolved, n_ops, "as planned").is_ok());
        for label in ["grad-reduce-scatter", "overflow-flag", "grad-norm", "mp-block-allreduce"] {
            let i = resolved[1].iter().position(|op| op.label == label).expect(label);
            let planned = resolved[1][i].reduce;
            let Reduction::Reduce(r) = planned else { panic!("'{label}' reduces") };
            let other = if r == ReduceOp::Sum { ReduceOp::Mean } else { ReduceOp::Sum };
            resolved[1][i].reduce = Reduction::Reduce(other);
            let err = check_resolved_symmetry(&resolved, n_ops, "tampered").unwrap_err();
            assert!(err.contains(&format!("'{label}'")) && err.contains("deadlock"), "{err}");
            resolved[1][i].reduce = planned;
        }
    }

    #[test]
    fn flat_partition_counts_fail_the_balance_clause() {
        // `train.comm`'s shape at the test model: stage 3 with overlap and
        // a bucket under one block, so every op is one unit. The planned
        // (per-unit) counts pass; the same stream with each fetch and
        // bucket cut by the flat partition instead — one range of Ψ per
        // rank — leaves units owner-only and is refused.
        let layout = Layout::build(&test_model());
        let zcfg = ZeroConfig { bucket_elems: 64, ..base(ZeroStage::Three).overlapped() };
        let grid = Grid::new(2, 1);
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape(false));
        let mut ops = plan.resolve_for(0);
        check_balance(&layout, &zcfg, grid, &ops, plan.tier_ops(), "as planned").expect("balanced");
        let flat = Partitioner::new(layout.total_params(), 2);
        for op in &mut ops {
            match &op.role {
                OpRole::Fetch { unit, .. } => op.counts = flat.intersect_counts(&layout.units()[*unit].range),
                OpRole::Span(r, _) => op.counts = flat.intersect_counts(r),
                _ => {}
            }
        }
        let err = check_balance(&layout, &zcfg, grid, &ops, plan.tier_ops(), "flat").unwrap_err();
        assert!(err.contains("out of balance"), "{err}");
        // So is a tier movement carrying a flat piece of a balanced op.
        let tiered = ZeroConfig { tier: zero_core::TierConfig::budgeted(1 << 30), ..zcfg };
        let plan = CommPlan::train_step(&layout, &tiered, grid, &shape(false));
        let mut tier = plan.tier_ops().to_vec();
        check_balance(&layout, &tiered, grid, &plan.resolve_for(0), &tier, "as planned").expect("balanced");
        let fetch = tier.iter_mut().find(|t| t.label == "tier-param-fetch").expect("stage-3 tier fetch");
        let total: usize = fetch.counts.iter().sum();
        fetch.counts = vec![total, 0];
        let err = check_balance(&layout, &tiered, grid, &plan.resolve_for(0), &tier, "flat tier").unwrap_err();
        assert!(err.contains("'tier-param-fetch'"), "{err}");
    }

    #[test]
    fn flag_volume_formula_matches_ring() {
        // Cross-check the first-principles 1-element all-reduce bytes
        // against the plan machinery itself.
        let layout = Layout::build(&test_model());
        let zcfg = ZeroConfig {
            stage: ZeroStage::Two,
            fp16: true,
            checkpoint_activations: false,
            ..ZeroConfig::default()
        };
        for n in [1usize, 2, 5] {
            let plan = CommPlan::step_prefix(&layout, &zcfg, Grid::new(n, 1), 1, 16);
            for rank in 0..n {
                let flag: u64 = plan
                    .resolve_for(rank)
                    .iter()
                    .filter(|op| op.label == "overflow-flag")
                    .map(|op| op.sent_bytes(rank))
                    .sum();
                assert_eq!(flag, one_elem_ar_bytes(n, rank), "n={n} rank={rank}");
            }
        }
    }
}
