//! The memory walk: one rank's device bytes over a training step, predicted
//! from its plan without running it.
//!
//! The engine charges its [`MemoryTracker`] as it interprets a step plan:
//! the model-state stores once, at construction, in the device or host
//! category the placement names; a gathered unit from its gather's issue
//! to its release (a held unit to its release after the next fetch); a
//! bucket's fused reduce-scatter buffer from its flush to the point its
//! [`Settle`](crate::plan::Settle) stamp names; kept block activations
//! from forward to backward; a checkpoint from store to restore; a CB
//! chunk's staging buffer for its ops. The plan `Builder` decides each of
//! those lifetimes and records every transient charge in walk order as it
//! builds the plan, so the walk here is `charge_states` and a fold over
//! that stream. Its peak is the engine's `peak_device()` to the byte
//! (`tests/memory_accounting.rs` holds it there over every
//! `schedule_digest` configuration, stages 0–3, at two batch sizes and
//! two micro-batch counts, against the engine's own tracker), which is
//! what lets the plan builder choose a placement before a step runs
//! ([`CommPlan::placement`]).

use zero_comm::Grid;
use zero_model::Layout;

use crate::config::{OptimizerKind, ZeroConfig};
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

/// Rank `rank`'s peak device bytes: the model-state stores under placement
/// `off`, then `charges` in order.
fn peak_device(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, off: EffectiveOffload, charges: &[Charge], rank: usize) -> u64 {
    let mut mem = MemoryTracker::new();
    charge_states(&mut mem, layout, zcfg, grid, off, rank);
    for c in charges {
        let bytes = c.bytes[if c.bytes.len() == 1 { 0 } else { rank }];
        if c.alloc {
            mem.alloc(c.cat, bytes);
        } else {
            mem.free(c.cat, bytes);
        }
    }
    mem.peak_device()
}

/// The model-state stores `RankEngine::new` charges, in its order and in
/// the categories placement `off` puts them in.
fn charge_states(mem: &mut MemoryTracker, layout: &Layout, zcfg: &ZeroConfig, grid: Grid, off: EffectiveOffload, rank: usize) {
    let part = Partitioner::per_unit(layout, zcfg.dp_owners(grid));
    let shard = part.counts()[grid.coords(rank).0 % part.owners()] as u64;
    let (psi, width) = (layout.total_params() as u64, if zcfg.fp16 { 2 } else { 4 });
    if zcfg.compression.hpz {
        let g = zcfg.node_size;
        mem.alloc(MemCategory::SecondaryParams, width * Partitioner::per_unit(layout, g).counts()[rank % g] as u64);
    }
    let work = if zcfg.stage.partitions_params() { shard } else { psi };
    mem.alloc(if off.params { MemCategory::HostParamShard } else { MemCategory::ParamsFp16 }, width * work);
    let [master, mom, var] = if off.opt_state {
        [MemCategory::HostOptimizerStates; 3]
    } else {
        [MemCategory::MasterParams, MemCategory::Momentum, MemCategory::Variance]
    };
    mem.alloc(master, 4 * shard);
    match zcfg.optimizer {
        OptimizerKind::Adam(_) => {
            mem.alloc(mom, 4 * shard);
            mem.alloc(var, 4 * shard);
        }
        OptimizerKind::Sgd(cfg) => mem.alloc(mom, if cfg.momentum != 0.0 { 4 * shard } else { 0 }),
    }
    let grads = if zcfg.stage.partitions_grads() { shard } else { psi };
    mem.alloc(if off.grads { MemCategory::HostGradShard } else { MemCategory::Gradients }, width * grads);
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

    /// The charges of a step that updates: the prefix's under placement
    /// `off`, then the suffix's.
    fn walked_charges(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, (micros, act): (usize, usize), off: EffectiveOffload) -> Vec<Charge> {
        let mut charges = CommPlan::prefix_placed(layout, zcfg, grid, micros, act, off).charges;
        charges.extend(CommPlan::step_suffix(layout, zcfg, grid, false).charges);
        charges
    }
}
