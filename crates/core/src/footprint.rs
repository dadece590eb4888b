//! The memory walk: one rank's device bytes over a training step, predicted
//! from its plan without running it.
//!
//! The engine charges its [`MemoryTracker`] as it interprets a step plan:
//! the model-state stores once, at construction, in the device or host
//! category the placement names; a gathered unit from its gather's issue
//! to its release (a held unit to its release after the next fetch); a
//! bucket's fused reduce-scatter buffer from its flush until it is
//! settled; kept block activations from forward to backward; a checkpoint
//! from store to restore; a CB chunk's staging buffer for its ops. The
//! `Replay` here is the third `Walker` beside the plan `Builder` and the
//! engine's `Pass`: it walks the same micro-batches over the finished
//! plan, reads every decision off the ops as the engine does, and makes
//! the same charges in the same order on a tracker of its own. Its peak is
//! the engine's `peak_device()` to the byte (`tests/memory_accounting.rs`
//! holds it there over every `schedule_digest` configuration, stages 0–3,
//! at two batch sizes), which is what lets the plan builder choose a
//! placement before a step runs ([`CommPlan::placement`]).

use std::collections::VecDeque;
use std::convert::Infallible;
use std::ops::Range;

use zero_comm::{CollectiveKind, Grid};
use zero_model::Layout;

use crate::config::{CkptPlace, OptimizerKind, ZeroConfig};
use crate::memory::{MemCategory, MemoryTracker};
use crate::partition::Partitioner;
use crate::plan::{CommPlan, CountSpec, EffectiveOffload, OpRole, PlanOp};
use crate::walk::{self, Walker};

/// What the memory walk predicts for one rank's training step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Peak device bytes: what the engine's `MemoryTracker::peak_device`
    /// reads after the step.
    pub peak_device: u64,
    /// Every bucket reduce-scatter of the step in plan order: its op index,
    /// and the index of the gather at whose consumption its buffer was
    /// released — `None` when it was settled at its flush (synchronous) or
    /// at the end-of-micro drain.
    pub settles: Vec<(usize, Option<usize>)>,
}

/// Walks one step of `plan` (micro-batch forward/backward passes, then the
/// CB chunks) charging what rank `rank`'s engine would, under placement
/// `off`.
pub(crate) fn replay(
    layout: &Layout,
    zcfg: &ZeroConfig,
    ops: &[PlanOp],
    grid: Grid,
    shape: (usize, usize),
    off: EffectiveOffload,
    rank: usize,
) -> Footprint {
    let (micro_batches, act_elems) = shape;
    let mut mem = MemoryTracker::new();
    charge_states(&mut mem, layout, zcfg, grid, off, rank);
    let dims = layout.block_dims(1);
    let saved = 4 * layout.block_dims(act_elems / (dims.seq * dims.hidden)).saved_elems() as u64;
    let slice = zcfg.checkpoint_place.slice(act_elems, grid.mp_degree(), grid.coords(rank).1).len() as u64;
    let ckpt_cat = if zcfg.checkpoint_place == CkptPlace::Host { MemCategory::HostCheckpoints } else { MemCategory::Checkpoints };
    let mut r = Replay {
        ops,
        next: 0,
        units: layout.units().iter().map(|u| u.range.clone()).collect(),
        zcfg: *zcfg,
        mem,
        slot: None,
        held: None,
        inflight: VecDeque::new(),
        settles: Vec::new(),
        pending: None,
        saved,
        ckpt: (ckpt_cat, if zcfg.fp16 { 2 } else { 4 } * slice),
    };
    let layers = layout.unit_count() - 2;
    for _ in 0..micro_batches {
        let Ok(()) = walk::micro(&mut r, layers, walk::interval(zcfg), true);
    }
    // The end-of-step CB chunks: each stages its rows for its ops alone.
    while let Some(op) = r.ops.get(r.next) {
        if let OpRole::Chunk(rows) = &op.role {
            let bytes = 4 * elems(op) as u64;
            r.mem.alloc(MemCategory::Buffers, bytes);
            r.mem.free(MemCategory::Buffers, bytes);
            r.next += ops[r.next..].iter().take_while(|o| o.role == OpRole::Chunk(rows.clone())).count();
        } else {
            r.next += 1;
        }
    }
    Footprint { peak_device: r.mem.peak_device(), settles: r.settles }
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

/// Elements of a planned op's buffer (its counts summed).
fn elems(op: &PlanOp) -> usize {
    match &op.counts {
        CountSpec::Explicit(v) => v.iter().sum(),
        CountSpec::Even { total } | CountSpec::NodeChunk { total } => *total,
    }
}

/// The replay's cursor over the plan and its tracker.
struct Replay<'a> {
    ops: &'a [PlanOp],
    next: usize,
    units: Vec<Range<usize>>,
    zcfg: ZeroConfig,
    mem: MemoryTracker,
    /// The gather issued ahead: its unit and op index.
    slot: Option<(usize, usize)>,
    /// The unit the plan holds into its next fetch.
    held: Option<usize>,
    /// Bucket reduce-scatters in flight: op index and buffer bytes.
    inflight: VecDeque<(usize, u64)>,
    settles: Vec<(usize, Option<usize>)>,
    /// The gradients dispatched since the last flush.
    pending: Option<Range<usize>>,
    /// Bytes of one block's kept activations, and of one checkpoint.
    saved: u64,
    ckpt: (MemCategory, u64),
}

impl Replay<'_> {
    /// Takes the next op, which must be a `kind` collective; its index.
    fn take(&mut self, kind: CollectiveKind) -> usize {
        let op = &self.ops[self.next];
        assert_eq!(op.kind, kind, "memory walk drift at op {} '{}'", self.next, op.label);
        self.next += 1;
        self.next - 1
    }

    fn unit_bytes(&self, u: usize) -> u64 {
        4 * self.units[u].len() as u64
    }

    /// One block pass's two Megatron hooks.
    fn block_pass(&mut self) {
        self.take(CollectiveKind::AllReduce);
        self.take(CollectiveKind::AllReduce);
    }

    /// Releases every reduce-scatter in flight issued before op `before`,
    /// recording the gather `by` whose consumption released it.
    fn settle(&mut self, before: usize, by: Option<usize>) {
        while let Some(&(at, bytes)) = self.inflight.front().filter(|(at, _)| *at < before) {
            self.inflight.pop_front();
            self.mem.free(MemCategory::Buffers, bytes);
            if let Some(s) = self.settles.iter_mut().find(|s| s.0 == at) {
                s.1 = by;
            }
        }
    }

    /// Issues the next op into the slot if it is a fetch of `next` planned
    /// ahead.
    fn prefetch_next(&mut self, next: Option<usize>) {
        match self.ops.get(self.next).map(|op| &op.role) {
            Some(&OpRole::Fetch { ahead: true, unit, .. }) if Some(unit) == next => {
                let at = self.take(CollectiveKind::AllGather);
                self.mem.alloc(MemCategory::Buffers, self.unit_bytes(unit));
                self.slot = Some((unit, at));
            }
            _ => {}
        }
    }

    /// Pushes unit `u`'s gradients into the bucket and flushes it when the
    /// next planned op is the reduce-scatter of what it holds.
    fn dispatch(&mut self, u: usize) {
        if !self.zcfg.stage.partitions_grads() {
            return;
        }
        let span = self.pending.take().map_or(self.units[u].clone(), |p| self.units[u].start..p.end);
        if self.ops.get(self.next).is_none_or(|op| op.role != OpRole::Span(span.clone())) {
            self.pending = Some(span);
            return;
        }
        let at = self.take(CollectiveKind::ReduceScatter);
        let bytes = 4 * span.len() as u64;
        self.mem.alloc(MemCategory::Buffers, bytes);
        self.inflight.push_back((at, bytes));
        self.settles.push((at, None));
        if !self.ops[at].nonblocking {
            self.settle(usize::MAX, None);
        }
    }
}

impl Walker for Replay<'_> {
    type Unit = usize;
    type Saved = ();
    type Ckpt = ();
    type Error = Infallible;

    fn fetch(&mut self, u: usize, next: Option<usize>) -> Result<usize, Infallible> {
        if !self.zcfg.stage.partitions_params() {
            self.mem.alloc(MemCategory::Buffers, self.unit_bytes(u));
            return Ok(u);
        }
        if self.held.take_if(|held| *held == u).is_some() {
            self.prefetch_next(next);
            return Ok(u);
        }
        let at = match self.slot.take() {
            Some((_, at)) => at,
            None => {
                self.mem.alloc(MemCategory::Buffers, self.unit_bytes(u));
                self.take(CollectiveKind::AllGather)
            }
        };
        let OpRole::Fetch { unit, hold, .. } = self.ops[at].role else { panic!("memory walk drift: op {at} is no fetch") };
        assert_eq!(unit, u, "memory walk drift: op {at} fetches another unit");
        self.settle(at, Some(at));
        self.prefetch_next(next);
        if hold.is_some() {
            self.held = Some(u);
        }
        Ok(u)
    }

    fn release(&mut self, u: usize, _: usize) {
        if self.held != Some(u) {
            self.mem.free(MemCategory::Buffers, self.unit_bytes(u));
        }
    }

    fn embed(&mut self, p: usize) -> Result<(), Infallible> {
        self.release(0, p);
        Ok(())
    }

    fn block_fwd(&mut self, _: usize, _: &usize, _: bool) -> Result<(), Infallible> {
        self.block_pass();
        Ok(())
    }

    fn keep(&mut self, (): ()) {
        self.mem.alloc(MemCategory::Activations, self.saved);
    }

    fn store_checkpoint(&mut self) {
        self.mem.alloc(self.ckpt.0, self.ckpt.1);
    }

    fn restore(&mut self, (): ()) -> Result<(), Infallible> {
        if self.zcfg.checkpoint_place.partitioned() {
            self.take(CollectiveKind::AllGather);
        }
        self.mem.free(self.ckpt.0, self.ckpt.1);
        Ok(())
    }

    fn head(&mut self, p: usize, train: bool) -> Result<(), Infallible> {
        self.release(p, p);
        if train {
            self.dispatch(p);
        }
        Ok(())
    }

    fn block_bwd(&mut self, l: usize, p: usize, (): ()) -> Result<(), Infallible> {
        self.mem.free(MemCategory::Activations, self.saved);
        self.block_pass();
        self.release(1 + l, p);
        self.dispatch(1 + l);
        Ok(())
    }

    fn embed_bwd(&mut self) -> Result<(), Infallible> {
        self.dispatch(0);
        self.settle(usize::MAX, None);
        Ok(())
    }
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
        let (kept, shape) = (EffectiveOffload { params: false, ..may }, (micro_batches, act_elems));
        let ops = Self::walked_ops(layout, zcfg, grid, shape, kept);
        let fits = |r| replay(layout, zcfg, &ops, grid, shape, kept, r).peak_device <= zcfg.tier.device_budget;
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
        let (shape, ops) = ((micro_batches, act_elems), Self::walked_ops(layout, zcfg, grid, (micro_batches, act_elems), kept));
        let peak = |r| replay(layout, zcfg, &ops, grid, shape, kept, r).peak_device;
        (0..grid.world_size()).map(peak).max().unwrap_or(1) - 1
    }

    /// The memory walk's prediction for rank `rank` of a training step of
    /// `micro_batches` micro-batches of `act_elems`-element activations,
    /// under the step's [`placement`](Self::placement).
    pub fn footprint(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, micro_batches: usize, act_elems: usize, rank: usize) -> Footprint {
        let off = Self::placement(layout, zcfg, grid, micro_batches, act_elems);
        let ops = Self::walked_ops(layout, zcfg, grid, (micro_batches, act_elems), off);
        replay(layout, zcfg, &ops, grid, (micro_batches, act_elems), off, rank)
    }

    /// The collective stream of a step that updates: the prefix under
    /// placement `off`, then the suffix.
    fn walked_ops(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, (micros, act): (usize, usize), off: EffectiveOffload) -> Vec<PlanOp> {
        let mut ops = CommPlan::prefix_placed(layout, zcfg, grid, micros, act, off).ops().to_vec();
        ops.extend_from_slice(CommPlan::step_suffix(layout, zcfg, grid, false).ops());
        ops
    }
}
