//! Residency: one rank's memory over a training step, written once and
//! predicted from its plan without running it.
//!
//! Two things are charged to a rank's [`MemoryTracker`]. The persistent
//! model states are one table of `(category, bytes)` rows under a
//! placement (`states`): the engine charges it when it builds its
//! stores, asserting each store against its row, and re-charges it when
//! its first step's plan fixes the placement. The transient buffers are
//! the plan `Builder`'s: it decides each lifetime and records every
//! charge in walk order as it builds the plan — a gathered unit from its
//! gather's issue to its release (a held unit to its release after the
//! next fetch); a bucket's fused reduce-scatter buffer from its flush to
//! the point its [`Settle`](crate::plan::Settle) stamp names; kept block
//! activations from forward to backward; a checkpoint from store to
//! restore, in the category and at the bytes `ckpt_row` gives both the
//! builder and the engine; a CB chunk's staging buffer for its ops.
//!
//! The memory walk is the table and a fold over that stream. Its peak is
//! the engine's `peak_device()` to the byte (`tests/memory_accounting.rs`
//! holds it there over every `schedule_digest` configuration, stages
//! 0–3, at two batch sizes and two micro-batch counts, against the
//! engine's own tracker), which is what lets the plan builder choose a
//! placement before a step runs ([`CommPlan::placement`]). The same
//! stream sizes the engine's MD arena (`CommPlan::arena_elems`).

use zero_comm::Grid;
use zero_model::Layout;

use crate::config::{CkptPlace, OptimizerKind, ZeroConfig};
use crate::memory::{MemCategory, MemoryTracker};
use crate::partition::Partitioner;
use crate::plan::{CommPlan, EffectiveOffload};

/// One transient charge the engine makes on its tracker as it runs a
/// plan: `bytes` allocated in (or freed from) `cat`, the same on every
/// rank (one entry) or each world rank's own (a checkpoint's slice).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Charge {
    pub(crate) alloc: bool,
    pub(crate) cat: MemCategory,
    pub(crate) bytes: Vec<u64>,
}

/// One row of a rank's residency table: the category a store's bytes are
/// charged in, and the bytes.
pub(crate) type Row = (MemCategory, u64);

/// Rank `rank`'s model-state table under placement `off`: the persistent
/// stores the engine builds, in its order — hpZ's node-local secondary
/// parameter shard (≈ 2Ψ/G), the working parameters, the fp32 master,
/// the optimizer's two moment slots (Adam's moments, SGD's velocity with
/// momentum: K = 12, 8 or 4 with the master) and the gradient store —
/// each at its bytes (§3: 2Ψ + 2Ψ + KΨ, each class cut 1/N_d by the stage
/// that partitions it) in the device or host category the placement puts
/// it in. A store the configuration does not build is a row of 0 bytes.
pub(crate) fn states(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, off: EffectiveOffload, rank: usize) -> [Row; 6] {
    use MemCategory::*;
    let part = Partitioner::per_unit(layout, zcfg.dp_owners(grid));
    let shard = part.counts()[grid.coords(rank).0 % part.owners()] as u64;
    let (psi, width, g) = (layout.total_params() as u64, if zcfg.fp16 { 2 } else { 4 }, zcfg.node_size);
    let secondary = if zcfg.compression.hpz { width * Partitioner::per_unit(layout, g).counts()[rank % g] as u64 } else { 0 };
    let [mom, var] = match zcfg.optimizer {
        OptimizerKind::Adam(_) => [4 * shard; 2],
        OptimizerKind::Sgd(cfg) => [if cfg.momentum != 0.0 { 4 * shard } else { 0 }, 0],
    };
    let opt = |cat| if off.opt_state { HostOptimizerStates } else { cat };
    let (work, grads) = (zcfg.stage.partitions_params(), zcfg.stage.partitions_grads());
    [
        (SecondaryParams, secondary),
        (if off.params { HostParamShard } else { ParamsFp16 }, width * if work { shard } else { psi }),
        (opt(MasterParams), 4 * shard),
        (opt(Momentum), mom),
        (opt(Variance), var),
        (if off.grads { HostGradShard } else { Gradients }, width * if grads { shard } else { psi }),
    ]
}

/// Where a checkpoint slice of `elems` elements is charged, and its bytes
/// at the activation width: the host tier under P_a+cpu.
pub(crate) fn ckpt_row(zcfg: &ZeroConfig, elems: usize) -> Row {
    let cat = if zcfg.checkpoint_place == CkptPlace::Host { MemCategory::HostCheckpoints } else { MemCategory::Checkpoints };
    (cat, if zcfg.fp16 { 2 } else { 4 } * elems as u64)
}

/// Charges `rows`, then rank `rank`'s bytes of each of `charges` in order,
/// to a fresh tracker.
fn fold(rows: &[Row], charges: &[Charge], rank: usize) -> MemoryTracker {
    let mut mem = MemoryTracker::new();
    rows.iter().for_each(|&(cat, bytes)| mem.alloc(cat, bytes));
    for c in charges {
        let bytes = c.bytes[if c.bytes.len() == 1 { 0 } else { rank }];
        if c.alloc {
            mem.alloc(c.cat, bytes);
        } else {
            mem.free(c.cat, bytes);
        }
    }
    mem
}

/// Rank `rank`'s peak device bytes: its model-state table under placement
/// `off`, then `charges` in order.
fn peak_device(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, off: EffectiveOffload, charges: &[Charge], rank: usize) -> u64 {
    fold(&states(layout, zcfg, grid, off, rank), charges, rank).peak_device()
}

impl CommPlan {
    /// Which state classes a training step at this shape moves across the
    /// tier: what [`ZeroConfig::check`] says *may* cross, except that the
    /// stage-3 parameter shard stays on the device when the memory walk
    /// says the step's peak, with the shard there, fits `device_budget`
    /// on every rank. Only the host optimizer's updated piece then climbs,
    /// once a step (ZeRO-Offload's placement: gradients go down, updated
    /// parameters come up).
    ///
    /// # Panics
    /// Panics if `zcfg` cannot run on `grid` (see [`ZeroConfig::check`]).
    pub fn placement(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, micro_batches: usize, act_elems: usize) -> EffectiveOffload {
        let may = zcfg.check(grid).unwrap_or_else(|e| panic!("{e}"));
        if !may.params {
            return may;
        }
        let kept = EffectiveOffload { params: false, ..may };
        let charges = Self::walked_charges(layout, zcfg, grid, (micro_batches, act_elems), kept);
        let fits = |r| peak_device(layout, zcfg, grid, kept, &charges, r) <= zcfg.tier.device_budget;
        if (0..grid.world_size()).all(fits) { kept } else { may }
    }

    /// The largest `device_budget` under which a stage-3 step of this shape
    /// offloads its parameter shard: one byte below the most any rank's
    /// step peaks with the shard kept on the device.
    ///
    /// # Panics
    /// Panics if `zcfg` cannot run on `grid` (see [`ZeroConfig::check`]).
    pub fn full_offload_budget(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, micro_batches: usize, act_elems: usize) -> u64 {
        let kept = EffectiveOffload { params: false, ..zcfg.check(grid).unwrap_or_else(|e| panic!("{e}")) };
        let charges = Self::walked_charges(layout, zcfg, grid, (micro_batches, act_elems), kept);
        let peak = |r| peak_device(layout, zcfg, grid, kept, &charges, r);
        (0..grid.world_size()).map(peak).max().unwrap_or(1) - 1
    }

    /// The memory walk's prediction of rank `rank`'s peak device bytes
    /// over a training step of `micro_batches` micro-batches of
    /// `act_elems`-element activations, under the step's
    /// [`placement`](Self::placement): what the engine's
    /// `MemoryTracker::peak_device` reads after the step.
    pub fn footprint(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, micro_batches: usize, act_elems: usize, rank: usize) -> u64 {
        let off = Self::placement(layout, zcfg, grid, micro_batches, act_elems);
        let charges = Self::walked_charges(layout, zcfg, grid, (micro_batches, act_elems), off);
        peak_device(layout, zcfg, grid, off, &charges, rank)
    }

    /// Elements of the MD arena (§6.3) rank `rank` needs to run this plan
    /// under `zcfg`: the most checkpoint bytes its charges hold live at
    /// once (in the one category [`ckpt_row`] names: on the device, or
    /// under P_a+cpu on their way to and from the host), at the
    /// activation width.
    pub(crate) fn arena_elems(&self, zcfg: &ZeroConfig, rank: usize) -> usize {
        let mem = fold(&[], &self.charges, rank);
        let (cat, width) = ckpt_row(zcfg, 1);
        (mem.peak(cat) / width) as usize
    }

    /// The charges of a step that updates: the prefix's under placement
    /// `off`, then the suffix's.
    fn walked_charges(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, (micros, act): (usize, usize), off: EffectiveOffload) -> Vec<Charge> {
        let mut charges = CommPlan::prefix_placed(layout, zcfg, grid, micros, act, off).charges;
        charges.extend(CommPlan::step_suffix(layout, zcfg, grid, false).charges);
        charges
    }
}
