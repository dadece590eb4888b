//! The per-rank ZeRO training engine.
//!
//! One `RankEngine` runs on each rank (thread) of a `dp × mp` grid and
//! implements the paper's four data-parallel regimes over the same model
//! and collectives:
//!
//! * [`ZeroStage::Ddp`] — replicate everything, all-reduce gradients
//!   (the PyTorch-DDP baseline of §10.1).
//! * [`ZeroStage::One`] — P_os (§5.1): optimizer states sharded 1/N_d;
//!   gradients reduce-scattered so each rank owns its shard's average,
//!   updated parameters all-gathered.
//! * [`ZeroStage::Two`] — P_os+g (§5.2): gradients partitioned too;
//!   per-unit gradients are bucketized (CB, §6.2) and reduce-scattered to
//!   their owners as backward proceeds, then freed.
//! * [`ZeroStage::Three`] — P_os+g+p (§5.3): parameters partitioned;
//!   each unit's parameters are all-gathered right before use in forward
//!   and again in backward, and discarded right after — the dynamic
//!   communication schedule of §7.2.2 with its 3Ψ total volume.
//!
//! ZeRO-R is layered on top: activation checkpointing with optional
//! MP-partitioned checkpoints P_a and CPU offload P_a+cpu (§6.1),
//! constant-size fused buffers CB for every flat-space collective (§6.2),
//! and a contiguous checkpoint arena MD (§6.3).

use std::collections::VecDeque;
use std::sync::Arc;

use zero_comm::{
    CollectiveKind, CommError, Communicator, Grid, Group, PendingOp, Precision, ReduceOp,
};
use zero_model::{BlockSaved, Dropout, Gpt};
use zero_trace::{SpanCategory, StepTimeline, TraceRecorder};
use zero_optim::{
    apply_clip, clip_coefficient, local_sq_norm, Adam, DynamicLossScaler, Sgd,
};
use zero_tensor::F16;

use crate::config::OptimizerKind;

use crate::arena::{ArenaSlot, ContiguousArena};
use crate::bucket::GradBucket;
use crate::config::{ZeroConfig, ZeroStage};
use crate::memory::{MemCategory, MemoryTracker};
use crate::partition::Partitioner;
use crate::plan::{CommPlan, EffectiveCompression, EffectiveOffload, PlanCursor, TierDir, WireFmt};
use crate::store::FlatStore;
use crate::tier::{TierStats, TierStore};

/// Result of one training step.
#[derive(Clone, Copy, Debug)]
pub struct StepOutcome {
    /// Mean loss over this rank's micro-batch (identical across MP ranks).
    pub loss: f32,
    /// True if the optimizer step was skipped (fp16 overflow).
    pub skipped: bool,
    /// Global gradient norm, when clipping is enabled.
    pub grad_norm: Option<f64>,
    /// Loss scale in effect during the step (1.0 in fp32 mode).
    pub loss_scale: f32,
}

/// Storage for one activation checkpoint.
struct Checkpoint {
    data: CkptData,
    /// Elements of the full (unpartitioned) activation.
    full_len: usize,
    /// Whether only this rank's 1/N_m slice is stored (P_a).
    partitioned: bool,
    /// Whether the slice lives in CPU memory (P_a+cpu).
    offloaded: bool,
    /// Logical bytes accounted (for the matching free).
    bytes: u64,
}

enum CkptData {
    Own(Vec<f32>),
    Arena(ArenaSlot),
}

/// A bucket flush whose reduce-scatter is in flight on the progress
/// thread: the handle plus where its owner piece lands when waited.
struct InflightReduce {
    /// Destination range within `grad_shard` (shard-local coordinates).
    local: std::ops::Range<usize>,
    op: PendingOp,
    /// Fused-buffer bytes held until the wait (memory accounting).
    bytes: u64,
}

/// A stage-3 parameter all-gather issued ahead of use (the double-buffered
/// prefetch slot: at most one of these is outstanding).
struct PendingFetch {
    /// Unit index the gather materializes.
    unit: usize,
    op: PendingOp,
    /// Full unit length in elements.
    len: usize,
    /// hpZ: when this is a global (first-touch) gather, the unit's flat
    /// range — on completion the rank's secondary slice is stashed into
    /// the node-local replica. `None` for node-scope refetches.
    stash: Option<std::ops::Range<usize>>,
    /// Offload: the host→device fetch of this rank's shard piece, issued
    /// to the FIFO progress thread ahead of the gather (so the modeled
    /// transfer completes before the ring starts) and waited first.
    tier: Option<PendingOp>,
}

/// The optimizer over the master shard, selected by
/// [`OptimizerKind`](crate::config::OptimizerKind).
enum OptState {
    Adam(Adam),
    Sgd(Sgd),
}

impl OptState {
    fn new(numel: usize, kind: OptimizerKind) -> OptState {
        match kind {
            OptimizerKind::Adam(cfg) => OptState::Adam(Adam::new(numel, cfg)),
            OptimizerKind::Sgd(cfg) => OptState::Sgd(Sgd::new(numel, cfg)),
        }
    }

    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        match self {
            OptState::Adam(a) => a.step(params, grads),
            OptState::Sgd(s) => s.step(params, grads),
        }
    }

    fn set_lr(&mut self, lr: f32) {
        match self {
            OptState::Adam(a) => a.set_lr(lr),
            OptState::Sgd(s) => s.set_lr(lr),
        }
    }
}

/// One rank's ZeRO engine.
pub struct RankEngine {
    gpt: Gpt,
    zcfg: ZeroConfig,
    grid: Grid,
    comm: Communicator,
    dp_group: Group,
    mp_group: Group,
    dp_idx: usize,
    mp_idx: usize,
    part: Partitioner,
    /// Effective ZeRO++ levers for this run (qwZ/hpZ/qgZ after stage and
    /// topology gating) — resolved identically to the plan builder's.
    comp: EffectiveCompression,
    /// Effective tier-offload levers (which state classes live in the
    /// host tier) — resolved identically to the plan builder's.
    off: EffectiveOffload,
    /// The memory tier: byte meter and modeled host-link clock for every
    /// spill/fetch the engine issues. `None` when offload is off.
    tier: Option<TierStore>,
    /// hpZ: this rank's intra-node group (`node_size` consecutive ranks);
    /// aliases the DP group when hpZ is off.
    node_group: Group,
    /// hpZ: partition of flat parameter space over the node's G slots.
    sec_part: Partitioner,
    /// hpZ secondary parameter partition: the node-local replica shard
    /// (≈ 2Ψ/G), populated by each unit's first global all-gather of the
    /// step and served back by node-scope refetches.
    secondary: Option<FlatStore>,
    /// hpZ per-unit first-touch flags, reset at every plan install: once a
    /// unit's global gather has been issued this step, every later fetch
    /// of it resolves intra-node over the secondary partition.
    sec_stashed: Vec<bool>,

    /// Working parameters consumed by forward/backward: full flat buffer
    /// (stages DDP/1/2) or this rank's 1/N_d shard (stage 3).
    work: FlatStore,
    /// fp32 master parameters: full (DDP) or the DP shard (stages 1–3).
    master: Vec<f32>,
    /// Optimizer state over `master`.
    opt: OptState,
    /// Full flat gradient buffer (stages DDP/1 only).
    full_grads: Option<FlatStore>,
    /// Reduced gradient shard (stages 2/3 only).
    grad_shard: Option<FlatStore>,

    bucket: GradBucket,
    /// In-flight bucket reduce-scatters: issued as backward produces them
    /// and settled in FIFO order — right after the flush in synchronous
    /// mode, at end-of-backward under overlap — so gradient accumulation
    /// order, and therefore the loss, is bitwise identical either way.
    inflight_rs: VecDeque<InflightReduce>,
    /// The stage-3 prefetch slot: the next unit's parameter all-gather,
    /// issued one layer ahead (overlap mode).
    prefetch: Option<PendingFetch>,
    /// The declarative schedule the runtime collectives are derived from:
    /// every engine entry point installs its [`CommPlan`] here, and every
    /// collective call site pops (and is parameterized by) the next
    /// planned op — see [`crate::plan`].
    plan: PlanCursor,
    scaler: Option<DynamicLossScaler>,
    arena: Option<ContiguousArena>,
    mem: MemoryTracker,
    /// This rank's span recorder — shared with the communicator, whose
    /// progress thread records collective execution spans on it.
    trace: Arc<TraceRecorder>,
    step: u64,
    /// Monotone micro-batch counter (drives deterministic dropout seeds).
    micro_seq: u64,
}

impl RankEngine {
    /// Builds the engine for one rank.
    ///
    /// `initial_params` is this MP shard's full flat fp32 parameter buffer
    /// (every DP replica passes identical values); the engine derives its
    /// working copy and master shard from it.
    ///
    /// # Panics
    /// Panics on configuration inconsistencies (grid vs. world size,
    /// parameter length vs. layout, invalid `ZeroConfig`).
    pub fn new(
        gpt: Gpt,
        initial_params: &[f32],
        zcfg: ZeroConfig,
        grid: Grid,
        comm: Communicator,
    ) -> RankEngine {
        zcfg.validate();
        assert_eq!(
            grid.world_size(),
            comm.world_size(),
            "grid does not match communicator world"
        );
        assert_eq!(
            initial_params.len(),
            gpt.num_params(),
            "initial params do not match model layout"
        );
        assert_eq!(
            gpt.mp_degree(),
            grid.mp_degree(),
            "model MP degree does not match grid"
        );
        let rank = comm.rank();
        let trace = comm.trace();
        let (dp_idx, mp_idx) = grid.coords(rank);
        let dp_group = grid.dp_group(rank);
        let mp_group = grid.mp_group(rank);
        let psi = gpt.num_params();
        let part = Partitioner::new(psi, grid.dp_degree());
        let my_shard = part.shard_range(dp_idx);

        let comp = EffectiveCompression::resolve(&zcfg, grid);
        let off = EffectiveOffload::resolve(&zcfg, grid);
        let node_group = if comp.hpz {
            zero_comm::NodeTopology::new(comp.node_size).node_group(rank)
        } else {
            dp_group.clone()
        };
        let sec_part = Partitioner::new(psi, comp.node_size.max(1));

        let mut mem = MemoryTracker::new();
        // Arm the device budget before the first allocation: from here on
        // the tracker panics the moment live device bytes would exceed it,
        // so a run that completes has *proved* peak device memory fit.
        if zcfg.tier.enabled {
            mem.set_device_budget(Some(zcfg.tier.device_budget));
        }

        // hpZ secondary partition: the node-local replica shard, priced as
        // device memory (but not a §3 model state — it is a derived cache).
        let secondary = comp.hpz.then(|| {
            // Node groups are G consecutive ranks, so the slot is direct.
            let slot = rank % comp.node_size;
            let sec = FlatStore::zeros(sec_part.shard_range(slot).len(), zcfg.fp16);
            mem.alloc(MemCategory::SecondaryParams, sec.bytes());
            sec
        });
        let sec_stashed = vec![false; gpt.layout().units().len()];

        // Working parameters. Under stage-3 offload the shard's home is
        // the host tier (every use fetches a unit's piece up), so it is
        // priced as host — not device — residency.
        let work = if zcfg.stage.partitions_params() {
            FlatStore::from_f32(&initial_params[my_shard.clone()], zcfg.fp16)
        } else {
            FlatStore::from_f32(initial_params, zcfg.fp16)
        };
        let work_cat = if off.params {
            MemCategory::HostParamShard
        } else {
            MemCategory::ParamsFp16
        };
        mem.alloc(work_cat, work.bytes());

        // fp32 master copy: full for DDP, shard otherwise. With offload
        // the master and both moments are host-resident (ZeRO-Offload's
        // host optimizer), collapsing into one host category.
        let (master_cat, mom_cat, var_cat) = if off.opt_state {
            (
                MemCategory::HostOptimizerStates,
                MemCategory::HostOptimizerStates,
                MemCategory::HostOptimizerStates,
            )
        } else {
            (
                MemCategory::MasterParams,
                MemCategory::Momentum,
                MemCategory::Variance,
            )
        };
        let master: Vec<f32> = if zcfg.stage.partitions_optimizer() {
            initial_params[my_shard].to_vec()
        } else {
            initial_params.to_vec()
        };
        mem.alloc(master_cat, 4 * master.len() as u64);
        let mut opt = OptState::new(master.len(), zcfg.optimizer);
        if let OptState::Adam(a) = &mut opt {
            a.attach_trace(trace.clone());
        }
        // Optimizer-state accounting: Adam = momentum + variance (K = 12
        // with the master copy); SGD-momentum = velocity only (K = 8);
        // plain SGD = nothing (K = 4).
        match &opt {
            OptState::Adam(_) => {
                mem.alloc(mom_cat, 4 * master.len() as u64);
                mem.alloc(var_cat, 4 * master.len() as u64);
            }
            OptState::Sgd(s) => {
                mem.alloc(mom_cat, s.state_bytes() as u64);
            }
        }

        // Gradient storage. Offloaded stages 2/3 keep the reduced shard
        // host-resident (it feeds the host optimizer, spilled bucket by
        // bucket as backward reduces).
        let (full_grads, grad_shard) = if zcfg.stage.partitions_grads() {
            let shard = FlatStore::zeros(part.shard_range(dp_idx).len(), zcfg.fp16);
            let cat = if off.grads {
                MemCategory::HostGradShard
            } else {
                MemCategory::Gradients
            };
            mem.alloc(cat, shard.bytes());
            (None, Some(shard))
        } else {
            let full = FlatStore::zeros(psi, zcfg.fp16);
            mem.alloc(MemCategory::Gradients, full.bytes());
            (Some(full), None)
        };

        RankEngine {
            bucket: GradBucket::new(zcfg.bucket_elems),
            inflight_rs: VecDeque::new(),
            prefetch: None,
            plan: PlanCursor::idle(),
            scaler: zcfg.fp16.then(|| DynamicLossScaler::new(zcfg.initial_loss_scale)),
            arena: None,
            gpt,
            zcfg,
            grid,
            comm,
            dp_group,
            mp_group,
            dp_idx,
            mp_idx,
            part,
            comp,
            tier: off.any().then(|| TierStore::new(zcfg.tier)),
            off,
            node_group,
            sec_part,
            secondary,
            sec_stashed,
            work,
            master,
            opt,
            full_grads,
            grad_shard,
            mem,
            trace,
            step: 0,
            micro_seq: 0,
        }
    }

    /// This rank's global id.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Data-parallel coordinate.
    pub fn dp_rank(&self) -> usize {
        self.dp_idx
    }

    /// Model-parallel coordinate.
    pub fn mp_rank(&self) -> usize {
        self.mp_idx
    }

    /// The memory tracker (read it after steps for measured footprints).
    pub fn memory(&self) -> &MemoryTracker {
        &self.mem
    }

    /// Which state classes cross the memory tier on this rank.
    pub fn offload(&self) -> EffectiveOffload {
        self.off
    }

    /// Byte/op meters for this rank's tier traffic (zero when offload is
    /// off).
    pub fn tier_stats(&self) -> TierStats {
        self.tier.as_ref().map(|t| t.stats()).unwrap_or_default()
    }

    /// Modeled wall time this rank's tier transfers would take on the
    /// configured host link.
    pub fn tier_time(&self) -> std::time::Duration {
        self.tier
            .as_ref()
            .map(|t| t.modeled_time())
            .unwrap_or_default()
    }

    /// Communication counters for this rank.
    pub fn traffic(&self) -> zero_comm::TrafficSnapshot {
        self.comm.stats().snapshot()
    }

    /// Per-kind wait vs in-flight execution timing for this rank's
    /// collectives. Under overlap, wait time shrinks toward zero while
    /// execution time (on the progress thread) stays put.
    pub fn timing(&self) -> zero_comm::TimingSnapshot {
        self.comm.stats().timing()
    }

    /// This rank's span recorder (shared with the communicator).
    pub fn trace(&self) -> Arc<TraceRecorder> {
        self.trace.clone()
    }

    /// Snapshot of everything traced on this rank so far: spans, instant
    /// events, and counter samples, ready for querying or Chrome export.
    pub fn timeline(&self) -> StepTimeline {
        self.trace.timeline()
    }

    /// The flat range of this rank's DP shard.
    pub fn dp_shard_range(&self) -> std::ops::Range<usize> {
        self.part.shard_range(self.dp_idx)
    }

    /// The flat range covered by [`Self::master_params`]: the DP shard for
    /// stages 1–3, the full space for DDP.
    pub fn master_range(&self) -> std::ops::Range<usize> {
        if self.zcfg.stage.partitions_optimizer() {
            self.part.shard_range(self.dp_idx)
        } else {
            0..self.part.total()
        }
    }

    /// fp32 master parameters: the full buffer under DDP, the DP shard
    /// otherwise.
    pub fn master_params(&self) -> &[f32] {
        &self.master
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Current loss scale (1.0 in fp32 mode).
    pub fn loss_scale(&self) -> f32 {
        self.scaler.as_ref().map_or(1.0, |s| s.scale())
    }

    /// The model.
    pub fn model(&self) -> &Gpt {
        &self.gpt
    }

    /// The process grid this engine runs on.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Tears the engine down, returning its communicator — used when
    /// rebuilding an engine in place (e.g. restart-and-resume tests).
    pub fn into_comm(self) -> Communicator {
        self.comm
    }

    // ----- tier movement (offload) -----

    /// Pops the next planned tier op, meters it through the [`TierStore`]
    /// (bytes + modeled host-link time), and submits the transfer to the
    /// FIFO progress thread. The plan's `issue_pos` anchor is checked by
    /// the pop — the engine cannot reorder tier traffic against the
    /// collective stream without panicking. FIFO submission means a fetch
    /// issued before an all-gather completes before that gather starts.
    fn start_tier_op(&mut self, dir: TierDir, label: &str) -> PendingOp {
        let t = self.plan.take_tier(dir, label);
        let store = self.tier.as_mut().expect("tier store when offload is on");
        let delay = match dir {
            TierDir::Fetch => store.record_fetch(t.bytes),
            TierDir::Spill => store.record_spill(t.bytes),
        };
        self.comm.start_tier_move(t.label, t.bytes, delay)
    }

    // ----- planned collectives -----

    /// The one place a planned all-gather or reduce-scatter is issued: pops
    /// the next op off the plan cursor (plan order is issue order, which is
    /// what the static checks verify), checks it against what the engine is
    /// about to move, and hands it to the progress thread in the wire
    /// format the plan chose — raw ring, qwZ int8 blocks, or qgZ two-phase.
    /// Every caller gets a [`PendingOp`]; when it waits is the only thing
    /// that distinguishes synchronous from overlapped execution.
    fn issue(
        plan: &mut PlanCursor,
        comm: &mut Communicator,
        kind: CollectiveKind,
        group: &Group,
        data: &[f32],
        total: usize,
        prec: Precision,
    ) -> PendingOp {
        let op = plan.take(kind, group);
        assert_eq!(op.total_elems(), total, "planned '{}' size", op.label);
        match (kind, op.wire) {
            (CollectiveKind::AllGather, WireFmt::Int8Block { block }) => {
                comm.start_all_gather_quant(group, data, &op.counts, block)
            }
            (CollectiveKind::AllGather, _) => {
                comm.start_all_gather_var(group, data, &op.counts, prec)
            }
            (CollectiveKind::ReduceScatter, WireFmt::QgzInt8 { node_size, block }) => comm
                .start_reduce_scatter_qgz(
                    group,
                    data,
                    ReduceOp::Mean,
                    &op.counts,
                    node_size,
                    block,
                    prec,
                ),
            (CollectiveKind::ReduceScatter, _) => {
                comm.start_reduce_scatter_var(group, data, ReduceOp::Mean, &op.counts, prec)
            }
            _ => unreachable!("only gathers and reduce-scatters are issued through handles"),
        }
    }

    /// The planned Megatron all-reduce over the MP group, in place.
    fn mp_all_reduce(
        plan: &mut PlanCursor,
        comm: &mut Communicator,
        mp_group: &Group,
        buf: &mut [f32],
        prec: Precision,
    ) -> Result<(), CommError> {
        let op = plan.take(CollectiveKind::AllReduce, mp_group);
        assert_eq!(op.total_elems(), buf.len(), "planned MP all-reduce size");
        comm.all_reduce_in(mp_group, buf, ReduceOp::Sum, prec)
    }

    // ----- parameter materialization -----

    /// Releases a fetched unit buffer (the stage-3 "discard after use").
    fn release_unit(&mut self, params: Vec<f32>) {
        self.mem.free(MemCategory::Buffers, 4 * params.len() as u64);
        drop(params);
    }

    /// The one thing `overlap` decides for fetches: whether the next
    /// unit's gather is issued before this unit's is waited (a window of
    /// one unit ahead through the double-buffered slot) or not at all.
    #[inline]
    fn prefetches(&self) -> bool {
        self.zcfg.overlap && self.zcfg.stage.partitions_params()
    }

    /// Issues stage-3 unit `u`'s parameter all-gather — "broadcast … from
    /// the data parallel process responsible for that partition" (§5.3),
    /// realized as a ring all-gather of uneven pieces — without waiting.
    fn start_fetch(&mut self, u: usize) -> PendingFetch {
        let unit_range = self.gpt.layout().units()[u].range.clone();
        let len = unit_range.len();
        self.mem.alloc(MemCategory::Buffers, 4 * len as u64);
        let prec = self.precision();
        // Offload: the local shard piece lives in the host tier. Its
        // host→device move rides the same FIFO as the gather it seeds, so
        // it completes before the ring runs; it is waited first.
        let tier = self
            .off
            .params
            .then(|| self.start_tier_op(TierDir::Fetch, "tier-param-fetch"));
        // hpZ: a unit already gathered this step is refetched over the
        // node-local secondary partition and never crosses a node
        // boundary; the first touch goes global, on the planned wire.
        let refetch = self.comp.hpz && self.sec_stashed[u];
        let (group, piece) = if refetch {
            (&self.node_group, self.read_secondary_piece(&unit_range))
        } else {
            let local = self.part.local_slice_of(self.dp_idx, &unit_range);
            (&self.dp_group, self.work.read_vec(local))
        };
        self.trace.instant(SpanCategory::Collective, "prefetch-issue");
        let (plan, comm) = (&mut self.plan, &mut self.comm);
        let op = Self::issue(plan, comm, CollectiveKind::AllGather, group, &piece, len, prec);
        // First-touch flags flip at issue time, mirroring the plan
        // builder: any fetch issued after this one sees the stash.
        let stash = (self.comp.hpz && !refetch).then_some(unit_range);
        if stash.is_some() {
            self.sec_stashed[u] = true;
        }
        PendingFetch { unit: u, op, len, stash, tier }
    }

    /// Materializes unit `u`'s parameters as an f32 buffer. Stages below 3
    /// widen the local slice. Stage 3 takes `u`'s gather from the prefetch
    /// slot (or issues it now), issues `next`'s into the slot when the
    /// window is open — so the next unit's communication rides under this
    /// unit's compute — and then waits `u`'s.
    fn fetch_unit_pf(&mut self, u: usize, next: Option<usize>) -> Result<Vec<f32>, CommError> {
        if !self.zcfg.stage.partitions_params() {
            let unit_range = self.gpt.layout().units()[u].range.clone();
            self.mem.alloc(MemCategory::Buffers, 4 * unit_range.len() as u64);
            return Ok(self.work.read_vec(unit_range));
        }
        let cur = match self.prefetch.take() {
            Some(pf) => {
                assert_eq!(pf.unit, u, "prefetch drift: slot holds a different unit");
                pf
            }
            None => self.start_fetch(u),
        };
        if let Some(v) = next.filter(|_| self.prefetches()) {
            let pf = self.start_fetch(v);
            self.prefetch = Some(pf);
        }
        // The tier fetch ran first on the FIFO; settle it before the
        // gather so transfer failures surface in issue order.
        let tier = cur.tier.map_or(Ok(()), |t| t.wait().map(drop));
        match tier.and_then(|()| cur.op.wait()) {
            Ok(out) => {
                debug_assert_eq!(out.len(), cur.len);
                if let Some(range) = cur.stash {
                    self.stash_secondary(&range, &out);
                }
                Ok(out)
            }
            Err(e) => {
                self.mem.free(MemCategory::Buffers, 4 * cur.len as u64);
                Err(e)
            }
        }
    }

    /// hpZ: this rank's slot within its node (shard index in `sec_part`).
    /// Node groups are G consecutive ranks, so the slot is direct.
    #[inline]
    fn node_slot(&self) -> usize {
        let slot = self.comm.rank() % self.comp.node_size;
        debug_assert_eq!(self.node_group.local_index(self.comm.rank()), Some(slot));
        slot
    }

    /// hpZ: copies this rank's secondary-partition slice of a freshly
    /// gathered unit into the node-local replica. The gathered buffer is
    /// bitwise identical on every rank (raw and qwZ alike), so the replica
    /// stays node-consistent without extra communication. In fp16 mode the
    /// store rounds dequantized values to fp16 — the replica is exactly
    /// the fp16 image of what this step's forward saw.
    fn stash_secondary(&mut self, unit_range: &std::ops::Range<usize>, data: &[f32]) {
        if self.secondary.is_none() {
            return;
        }
        let slot = self.node_slot();
        let sec_range = self.sec_part.shard_range(slot);
        let lo = sec_range.start.max(unit_range.start);
        let hi = sec_range.end.min(unit_range.end);
        if lo >= hi {
            return;
        }
        let local = self.sec_part.local_slice_of(slot, unit_range);
        self.secondary
            .as_mut()
            .expect("hpZ secondary store")
            .write_from(local, &data[lo - unit_range.start..hi - unit_range.start]);
    }

    /// hpZ: this rank's contribution to a node-scope refetch — the
    /// intersection of the unit with its secondary shard.
    fn read_secondary_piece(&self, unit_range: &std::ops::Range<usize>) -> Vec<f32> {
        let slot = self.node_slot();
        let local = self.sec_part.local_slice_of(slot, unit_range);
        self.secondary.as_ref().expect("hpZ secondary store").read_vec(local)
    }

    /// Settles every in-flight bucket reduce-scatter in FIFO (issue) order:
    /// wait, land the owner piece in `grad_shard`, release the fused
    /// buffer, and — under offload — spill the reduced piece down to the
    /// host tier, the first point it exists. Synchronous mode calls this
    /// right after each flush, overlap mode once at end-of-backward; FIFO
    /// order makes the accumulation order, and so the loss, identical.
    fn drain_inflight(&mut self) -> Result<(), CommError> {
        let mut first_err: Option<CommError> = None;
        while let Some(inf) = self.inflight_rs.pop_front() {
            // After an error the remaining handles are dropped unawaited —
            // their ops still execute on the progress thread, keeping the
            // SPMD schedule aligned for recovery.
            if first_err.is_none() {
                let span = self.trace.begin(SpanCategory::Wait, "drain-inflight");
                match inf.op.wait() {
                    Ok(out) => {
                        let shard = self.grad_shard.as_mut().expect("gradient shard");
                        shard.add_from(inf.local, &out);
                    }
                    Err(e) => first_err = Some(e),
                }
                self.trace.end(span);
            }
            self.mem.free(MemCategory::Buffers, inf.bytes);
            if self.off.grads && first_err.is_none() {
                first_err = self.start_tier_op(TierDir::Spill, "tier-grad-spill").wait().err();
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Drops any async state left over from a failed step (handles are
    /// dropped unawaited; the progress thread still runs the ops). Called
    /// on entry to every engine entry point that installs a fresh plan.
    fn clear_transients(&mut self) {
        for inf in self.inflight_rs.drain(..) {
            self.mem.free(MemCategory::Buffers, inf.bytes);
        }
        if let Some(pf) = self.prefetch.take() {
            self.mem.free(MemCategory::Buffers, 4 * pf.len as u64);
        }
        // hpZ first-touch flags reset with each plan, mirroring the
        // builder's per-plan state.
        for s in &mut self.sec_stashed {
            *s = false;
        }
    }

    #[inline]
    fn precision(&self) -> Precision {
        if self.zcfg.fp16 {
            Precision::Fp16
        } else {
            Precision::Fp32
        }
    }

    /// Quantizes activations to fp16 width in mixed-precision mode, so the
    /// values flowing between units are genuine fp16 (and checkpointed
    /// values match recomputed ones bit for bit).
    fn maybe_quantize(&self, x: &mut [f32]) {
        if self.zcfg.fp16 {
            for v in x {
                *v = F16::from_f32(*v).to_f32();
            }
        }
    }

    // ----- checkpoints (ZeRO-R: P_a / P_a+cpu / MD) -----

    fn ckpt_store_len(&self, full_len: usize) -> usize {
        if self.zcfg.partition_activations {
            zero_comm::chunk_range(full_len, self.mp_group.len(), self.mp_idx).len()
        } else {
            full_len
        }
    }

    fn store_checkpoint(&mut self, x: &[f32]) -> Checkpoint {
        let span = self.trace.begin(SpanCategory::Checkpoint, "ckpt-store");
        let full_len = x.len();
        let partitioned = self.zcfg.partition_activations;
        let offloaded = self.zcfg.offload_checkpoints;
        let slice: &[f32] = if partitioned {
            &x[zero_comm::chunk_range(full_len, self.mp_group.len(), self.mp_idx)]
        } else {
            x
        };
        let bytes = self.precision().bytes() * slice.len() as u64;
        let cat = if offloaded {
            MemCategory::CpuOffload
        } else {
            MemCategory::Checkpoints
        };
        self.mem.alloc(cat, bytes);
        if offloaded {
            self.mem.record_cpu_transfer(bytes);
        }
        let data = if self.zcfg.use_arena && !offloaded {
            if self.arena.is_none() {
                // Size the arena once: one checkpoint per block.
                let cap = self.ckpt_store_len(full_len) * self.gpt.config().layers;
                self.arena = Some(ContiguousArena::new(cap));
            }
            CkptData::Arena(self.arena.as_mut().unwrap().store(slice))
        } else {
            CkptData::Own(slice.to_vec())
        };
        self.trace.end(span);
        Checkpoint {
            data,
            full_len,
            partitioned,
            offloaded,
            bytes,
        }
    }

    /// Re-materializes a checkpointed activation: P_a all-gathers the
    /// slices across the MP group (the extra all-gather §8 prices at
    /// seq·hidden per block); P_a+cpu additionally pays the PCIe
    /// round-trip, which we meter.
    fn fetch_checkpoint(&mut self, c: &Checkpoint) -> Result<Vec<f32>, CommError> {
        let span = self.trace.begin(SpanCategory::Checkpoint, "ckpt-fetch");
        let res = self.fetch_checkpoint_inner(c);
        self.trace.end(span);
        res
    }

    fn fetch_checkpoint_inner(&mut self, c: &Checkpoint) -> Result<Vec<f32>, CommError> {
        let slice: Vec<f32> = match &c.data {
            CkptData::Own(v) => v.clone(),
            CkptData::Arena(slot) => self.arena.as_ref().unwrap().slot(slot).to_vec(),
        };
        if c.offloaded {
            self.mem.record_cpu_transfer(c.bytes);
        }
        if c.partitioned {
            let prec = self.precision();
            let Self { plan, comm, mp_group, .. } = self;
            Self::issue(plan, comm, CollectiveKind::AllGather, mp_group, &slice, c.full_len, prec)
                .wait()
        } else {
            Ok(slice)
        }
    }

    fn free_checkpoint(&mut self, c: Checkpoint) {
        let cat = if c.offloaded {
            MemCategory::CpuOffload
        } else {
            MemCategory::Checkpoints
        };
        self.mem.free(cat, c.bytes);
    }

    // ----- gradient dispatch (stage-dependent) -----

    /// Consumes one unit's freshly computed gradients.
    ///
    /// Stages DDP/1 accumulate into the persistent full gradient buffer.
    /// Stages 2/3 push into the constant-size bucket and flush it when it
    /// fills.
    fn dispatch_grads(
        &mut self,
        range: std::ops::Range<usize>,
        mut g: Vec<f32>,
    ) -> Result<(), CommError> {
        if !self.zcfg.stage.partitions_grads() {
            self.full_grads
                .as_mut()
                .expect("full gradient buffer")
                .add_from(range, &g);
            return Ok(());
        }
        // fp16 gradients: quantize before they enter the fused buffer.
        self.maybe_quantize(&mut g);
        if self.bucket.push(range, g) {
            self.flush_bucket()?;
        }
        Ok(())
    }

    /// Flushes whatever the bucket holds (stages 2/3; a no-op when empty):
    /// one reduce-scatter of the fused range goes in flight, its owner
    /// piece destined for `grad_shard`, after which the bucket contents are
    /// dropped — "after the reduction we no longer need the gradients and
    /// their memory can be released" (§5.2). Overlap leaves the handle in
    /// flight so backward keeps computing while the ring runs; synchronous
    /// mode settles it here.
    fn flush_bucket(&mut self) -> Result<(), CommError> {
        let prec = self.precision();
        let Self { bucket, comm, dp_group, part, dp_idx, mem, plan, inflight_rs, trace, .. } = self;
        bucket.flush_all(&mut |r, fused| {
            trace.instant(SpanCategory::Collective, "bucket-flush");
            let bytes = 4 * fused.len() as u64;
            mem.alloc(MemCategory::Buffers, bytes);
            let kind = CollectiveKind::ReduceScatter;
            let op = Self::issue(plan, comm, kind, dp_group, fused, fused.len(), prec);
            let local = part.local_slice_of(*dp_idx, &r);
            inflight_rs.push_back(InflightReduce { local, op, bytes });
        });
        if !self.zcfg.overlap {
            self.drain_inflight()?;
        }
        Ok(())
    }

    /// Walks flat parameter space in constant-size (CB) chunks, charging
    /// each chunk's staging buffer to the tracker for exactly the duration
    /// of `f` — on the error path too.
    fn for_each_chunk(
        &mut self,
        mut f: impl FnMut(&mut Self, std::ops::Range<usize>) -> Result<(), CommError>,
    ) -> Result<(), CommError> {
        let psi = self.part.total();
        for start in (0..psi).step_by(self.zcfg.bucket_elems) {
            let chunk = start..(start + self.zcfg.bucket_elems).min(psi);
            let bytes = 4 * chunk.len() as u64;
            self.mem.alloc(MemCategory::Buffers, bytes);
            let res = f(self, chunk);
            self.mem.free(MemCategory::Buffers, bytes);
            res?;
        }
        Ok(())
    }

    /// End-of-backward gradient reduction for the non-bucketed stages,
    /// staged through constant-size buffers (CB): DDP all-reduces every
    /// chunk in place; stage 1 reduce-scatters so this rank's shard region
    /// of the full buffer holds the averaged values.
    fn reduce_full_grads(&mut self) -> Result<(), CommError> {
        if self.zcfg.stage.partitions_grads() {
            // Stages 2/3 already reduced everything through the bucket.
            debug_assert_eq!(self.bucket.pending_elems(), 0);
            return Ok(());
        }
        let prec = self.precision();
        let shard = self.part.shard_range(self.dp_idx);
        self.for_each_chunk(|this, chunk| {
            let Self { full_grads, plan, comm, dp_group, part, dp_idx, zcfg, grid, .. } = this;
            let full = full_grads.as_mut().expect("full gradient buffer");
            let mut staging = full.read_vec(chunk.clone());
            match (zcfg.stage, zcfg.node_size) {
                (ZeroStage::Ddp, Some(g)) => {
                    assert_eq!(grid.mp_degree(), 1, "hierarchical all-reduce requires mp = 1");
                    let topo = zero_comm::NodeTopology::new(g);
                    // The hierarchy is three planned ops: node
                    // reduce-scatter, cross-node all-reduce of the owned
                    // chunk, node all-gather.
                    let node_group = topo.node_group(comm.rank());
                    let cross_group = topo.cross_group(comm.rank(), comm.world_size());
                    let rs = plan.take(CollectiveKind::ReduceScatter, &node_group);
                    assert_eq!(rs.total_elems(), staging.len(), "planned hier size");
                    let _ar = plan.take(CollectiveKind::AllReduce, &cross_group);
                    let _ag = plan.take(CollectiveKind::AllGather, &node_group);
                    comm.hierarchical_all_reduce(&topo, &mut staging, ReduceOp::Mean, prec)?;
                    full.write_from(chunk, &staging);
                }
                (ZeroStage::Ddp, None) => {
                    let op = plan.take(CollectiveKind::AllReduce, dp_group);
                    assert_eq!(op.total_elems(), staging.len(), "planned chunk size");
                    comm.all_reduce_in(dp_group, &mut staging, ReduceOp::Mean, prec)?;
                    full.write_from(chunk, &staging);
                }
                (ZeroStage::One, _) => {
                    let kind = CollectiveKind::ReduceScatter;
                    let out = Self::issue(plan, comm, kind, dp_group, &staging, staging.len(), prec)
                        .wait()?;
                    let own = part.local_slice_of(*dp_idx, &chunk);
                    full.write_from(shard.start + own.start..shard.start + own.end, &out);
                }
                _ => unreachable!("stages 2/3 reduce through the bucket"),
            }
            Ok(())
        })
    }

    /// Reads the reduced gradients covering [`Self::master_range`] as f32:
    /// the full averaged buffer under DDP, this rank's shard otherwise.
    fn read_grad_shard(&self) -> Vec<f32> {
        match (&self.full_grads, &self.grad_shard) {
            (Some(full), None) => full.read_vec(self.master_range()),
            (None, Some(s)) => s.read_vec(0..s.len()),
            _ => unreachable!("exactly one gradient store exists"),
        }
    }

    /// True if this rank's reduced gradients contain NaN/Inf.
    fn shard_has_overflow(&self) -> bool {
        let shard = self.part.shard_range(self.dp_idx);
        match (&self.full_grads, &self.grad_shard) {
            (Some(full), None) => full.has_non_finite(shard),
            (None, Some(s)) => s.has_non_finite(0..s.len()),
            _ => unreachable!(),
        }
    }

    /// Publishes updated master parameters into the working copy.
    /// Stages 1/2 all-gather the updated fp16 shards across DP — "an
    /// all-gather … to get the fully updated parameters" (§5.1) — staged
    /// through CB-sized chunks; stage 3 keeps only the local shard; DDP
    /// wrote the full buffer locally.
    fn publish_params(&mut self) -> Result<(), CommError> {
        // Refresh what this rank owns from master: everything `work`
        // holds (DDP, stage 3) or the shard region of the full copy.
        let shard = self.part.shard_range(self.dp_idx);
        let gathers = matches!(self.zcfg.stage, ZeroStage::One | ZeroStage::Two);
        let start = if gathers { shard.start } else { 0 };
        self.work.write_from(start..start + self.master.len(), &self.master);
        if !gathers {
            return Ok(());
        }
        // …then all-gather the (quantized) shards chunk by chunk.
        let prec = self.precision();
        self.for_each_chunk(|this, chunk| {
            // Host optimizer: the updated shard chunk is fetched up from
            // the host-resident master before the gather.
            if this.off.opt_state {
                this.start_tier_op(TierDir::Fetch, "tier-publish-fetch").wait()?;
            }
            let own = this.part.local_slice_of(this.dp_idx, &chunk);
            let piece = this.work.read_vec(shard.start + own.start..shard.start + own.end);
            let Self { plan, comm, dp_group, .. } = this;
            let kind = CollectiveKind::AllGather;
            let out = Self::issue(plan, comm, kind, dp_group, &piece, chunk.len(), prec).wait()?;
            this.work.write_from(chunk, &out);
            Ok(())
        })
    }

    /// Global gradient norm across the whole grid, counting every logical
    /// parameter exactly once: under partitioned stages each DP rank
    /// contributes only its shard and the squares are summed over the
    /// whole world; under DDP every rank already holds the full averaged
    /// gradients, so only the MP dimension is summed. Fields replicated
    /// across MP are down-weighted by 1/N_m either way.
    fn global_grad_norm(&mut self, grads: &[f32]) -> Result<f64, CommError> {
        let range = self.master_range();
        let nm = self.mp_group.len() as f64;
        let mut sq = 0.0_f64;
        if nm > 1.0 {
            let layout = self.gpt.layout();
            for field in layout.fields() {
                let lo = field.range.start.max(range.start);
                let hi = field.range.end.min(range.end);
                if lo >= hi {
                    continue;
                }
                let w = if field.replicated_under_mp() { 1.0 / nm } else { 1.0 };
                sq += w * local_sq_norm(&grads[lo - range.start..hi - range.start]);
            }
        } else {
            sq = local_sq_norm(grads);
        }
        let mut buf = [sq as f32];
        if self.zcfg.stage.partitions_optimizer() {
            let world_group = Group::world(self.comm.world_size());
            let _op = self.plan.take(CollectiveKind::AllReduce, &world_group);
            self.comm.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32)?;
        } else {
            let Self { comm, mp_group, plan, .. } = self;
            Self::mp_all_reduce(plan, comm, mp_group, &mut buf, Precision::Fp32)?;
        }
        Ok((buf[0] as f64).sqrt())
    }

    // ----- sharded checkpointing -----

    /// Captures this rank's training-state shard (master parameters,
    /// optimizer state, loss-scaler state). Under stages 1-3 the N_d
    /// shards together hold exactly one copy of the training state --
    /// ZeRO's natural sharded-checkpoint layout.
    pub fn save_snapshot(&self) -> crate::snapshot::RankSnapshot {
        let span = self.trace.begin(SpanCategory::Checkpoint, "snapshot-capture");
        let range = self.master_range();
        let (opt_m, opt_v, opt_t) = match &self.opt {
            OptState::Adam(a) => {
                let (m, v) = a.moments();
                (m.to_vec(), v.to_vec(), a.steps())
            }
            OptState::Sgd(s) => (
                s.velocity().map(|v| v.to_vec()).unwrap_or_default(),
                Vec::new(),
                0,
            ),
        };
        let snap = crate::snapshot::RankSnapshot {
            rank: self.comm.rank() as u32,
            world: self.comm.world_size() as u32,
            step: self.step,
            shard_start: range.start as u64,
            shard_end: range.end as u64,
            master: self.master.clone(),
            opt_m,
            opt_v,
            opt_t,
            scaler: self.scaler.as_ref().map(|s| s.state()),
        };
        self.trace.instant(SpanCategory::Checkpoint, "snapshot-write");
        self.trace.end(span);
        snap
    }

    /// Restores training state from a snapshot and re-publishes the
    /// working parameters. **Collective**: every rank of the grid must
    /// call this (stages 1/2 all-gather the refreshed fp16 parameters).
    ///
    /// # Panics
    /// Panics if the snapshot's rank/world/shard do not match this engine,
    /// or on a communication failure (see [`Self::try_restore_snapshot`]).
    pub fn restore_snapshot(&mut self, snap: &crate::snapshot::RankSnapshot) {
        self.try_restore_snapshot(snap)
            .unwrap_or_else(|e| std::panic::panic_any(e));
    }

    /// Fallible [`Self::restore_snapshot`]: surfaces communication failures
    /// during the parameter re-publish as [`CommError`] instead of
    /// panicking, so a supervisor can treat them as recoverable.
    pub fn try_restore_snapshot(
        &mut self,
        snap: &crate::snapshot::RankSnapshot,
    ) -> Result<(), CommError> {
        let span = self.trace.begin(SpanCategory::Checkpoint, "snapshot-restore");
        let res = self.try_restore_snapshot_inner(snap);
        self.trace.end(span);
        res
    }

    fn try_restore_snapshot_inner(
        &mut self,
        snap: &crate::snapshot::RankSnapshot,
    ) -> Result<(), CommError> {
        assert_eq!(snap.rank as usize, self.comm.rank(), "snapshot rank mismatch");
        assert_eq!(
            snap.world as usize,
            self.comm.world_size(),
            "snapshot world-size mismatch (resume requires the same grid)"
        );
        let range = self.master_range();
        assert_eq!(
            (snap.shard_start as usize, snap.shard_end as usize),
            (range.start, range.end),
            "snapshot shard mismatch"
        );
        assert_eq!(snap.master.len(), self.master.len(), "master length mismatch");
        self.master.copy_from_slice(&snap.master);
        self.opt = match self.zcfg.optimizer {
            OptimizerKind::Adam(cfg) => OptState::Adam(Adam::from_state(
                cfg,
                snap.opt_m.clone(),
                snap.opt_v.clone(),
                snap.opt_t,
            )),
            OptimizerKind::Sgd(cfg) => OptState::Sgd(Sgd::from_state(
                cfg,
                (cfg.momentum != 0.0).then(|| snap.opt_m.clone()),
            )),
        };
        if let OptState::Adam(a) = &mut self.opt {
            a.attach_trace(self.trace.clone());
        }
        self.step = snap.step;
        if let (Some(scaler), Some((scale, good, skipped))) = (&mut self.scaler, snap.scaler) {
            scaler.restore(scale, good, skipped);
        }
        self.clear_transients();
        let refresh = CommPlan::publish_refresh(self.gpt.layout(), &self.zcfg, self.grid);
        self.plan.install(&refresh, self.comm.rank(), "publish-refresh");
        self.publish_params()?;
        self.plan.assert_exhausted("snapshot restore");
        Ok(())
    }

    // ----- the training step -----

    /// Runs one training step over this rank's micro-batch.
    ///
    /// `ids`/`targets` hold `local_batch · seq` tokens. Under MP, all
    /// ranks of an MP group must receive identical data.
    ///
    /// # Panics
    /// Panics on a communication failure — the [`CommError`] itself is the
    /// panic payload, so [`zero_comm::try_launch`] recovers it typed. Use
    /// [`Self::try_train_step`] to handle failures in-line.
    pub fn train_step(&mut self, ids: &[u32], targets: &[u32], local_batch: usize) -> StepOutcome {
        self.train_step_micro(&[(ids, targets)], local_batch)
    }

    /// Fallible [`Self::train_step`]: a dead, hung, or corrupting peer
    /// surfaces as `Err(CommError)` instead of a panic.
    pub fn try_train_step(
        &mut self,
        ids: &[u32],
        targets: &[u32],
        local_batch: usize,
    ) -> Result<StepOutcome, CommError> {
        self.try_train_step_micro(&[(ids, targets)], local_batch)
    }

    /// Runs one training step with gradient accumulation over several
    /// micro-batches: forward+backward per micro-batch, gradients
    /// accumulated (and, under stages 2/3, reduce-scattered as they are
    /// produced), one optimizer step at the end. This is how the paper's
    /// large total batch sizes (Tables 5–6) are realized on limited
    /// memory: total batch = micro-batch × accumulation × N_d.
    ///
    /// # Panics
    /// Panics if `micros` is empty, or on a communication failure (the
    /// [`CommError`] is the panic payload — see [`Self::try_train_step_micro`]).
    pub fn train_step_micro(
        &mut self,
        micros: &[(&[u32], &[u32])],
        local_batch: usize,
    ) -> StepOutcome {
        self.try_train_step_micro(micros, local_batch)
            .unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// Fallible [`Self::train_step_micro`].
    ///
    /// On `Err` the engine's own state may be mid-step (partially
    /// accumulated gradients) but the master parameters and optimizer state
    /// are untouched — recovery is "restore the last snapshot", not "patch
    /// the wreckage".
    pub fn try_train_step_micro(
        &mut self,
        micros: &[(&[u32], &[u32])],
        local_batch: usize,
    ) -> Result<StepOutcome, CommError> {
        assert!(!micros.is_empty(), "need at least one micro-batch");
        // A previously failed step may have left handles in flight; they
        // are dropped (not cancelled) before the fresh plan goes in.
        self.clear_transients();
        let scale = self.loss_scale();

        // Declare the step's communication schedule up front; every
        // collective below is derived from (and checked against) it.
        let act_elems = local_batch * self.gpt.config().seq * self.gpt.config().hidden;
        let prefix =
            CommPlan::step_prefix(self.gpt.layout(), &self.zcfg, self.grid, micros.len(), act_elems);
        self.plan.install(&prefix, self.comm.rank(), "step-prefix");

        // Zero persistent gradient storage once per optimizer step.
        if let Some(full) = &mut self.full_grads {
            let len = full.len();
            full.zero_range(0..len);
        }
        if let Some(shard) = &mut self.grad_shard {
            let len = shard.len();
            shard.zero_range(0..len);
        }

        let res = micros
            .iter()
            .try_fold(0.0_f32, |sum, &(ids, targets)| {
                Ok(sum + self.accumulate_micro(ids, targets, local_batch, scale)?)
            })
            .and_then(|sum| self.finish_step(sum / micros.len() as f32, scale, micros.len()));
        if res.is_err() {
            // Release what the failed step left in flight now rather than
            // at the next entry, so the tracker is exact on the error path.
            self.clear_transients();
        }
        res
    }

    /// Runs one block pass `f` of the model under a compute span named
    /// `span`, lending it the MP hook: each call is one planned Megatron
    /// all-reduce. The model's hook is an infallible `FnMut(&mut [f32])`,
    /// so a communication error is parked (later hook calls become no-ops)
    /// and surfaced once the pass returns.
    fn block_pass<T>(
        &mut self,
        span: &'static str,
        f: impl FnOnce(&Gpt, &mut dyn FnMut(&mut [f32])) -> T,
    ) -> Result<T, CommError> {
        let prec = self.precision();
        let Self { gpt, comm, mp_group, plan, trace, .. } = self;
        let mut err: Option<CommError> = None;
        let span = trace.begin(SpanCategory::Compute, span);
        let out = f(gpt, &mut |buf: &mut [f32]| {
            if err.is_none() {
                err = Self::mp_all_reduce(plan, comm, mp_group, buf, prec).err();
            }
        });
        trace.end(span);
        err.map_or(Ok(out), Err)
    }

    /// Block `l` forward over `x` (span `"block-fwd"`, or `"block-refwd"`
    /// for a checkpoint recompute), output quantized to the activation
    /// width.
    fn block_fwd(
        &mut self,
        span: &'static str,
        l: usize,
        p: &[f32],
        x: &[f32],
        local_batch: usize,
        drop: Dropout,
    ) -> Result<(Vec<f32>, BlockSaved), CommError> {
        let (mut y, saved) = self.block_pass(span, |gpt, hook| {
            gpt.block_fwd_dropout(l, p, x, local_batch, hook, drop)
        })?;
        self.maybe_quantize(&mut y);
        Ok((y, saved))
    }

    /// Block `l` backward: releases its saved activations, runs the
    /// kernel, discards the unit's parameters and dispatches its
    /// gradients. Returns `dx`.
    fn block_bwd(
        &mut self,
        l: usize,
        p: Vec<f32>,
        saved: BlockSaved,
        dy: &[f32],
        local_batch: usize,
        drop: Dropout,
    ) -> Result<Vec<f32>, CommError> {
        self.mem.free(MemCategory::Activations, 4 * saved.elems() as u64);
        let range = self.gpt.layout().units()[1 + l].range.clone();
        let mut grads = vec![0.0; range.len()];
        let dx = self.block_pass("block-bwd", |gpt, hook| {
            gpt.block_bwd_dropout(l, &p, &saved, dy, &mut grads, local_batch, hook, drop)
        })?;
        self.release_unit(p);
        self.dispatch_grads(range, grads)?;
        Ok(dx)
    }

    /// One micro-batch's forward + backward, dispatching gradients into
    /// the stage-appropriate stores. Returns the micro-batch loss.
    fn accumulate_micro(
        &mut self,
        ids: &[u32],
        targets: &[u32],
        local_batch: usize,
        scale: f32,
    ) -> Result<f32, CommError> {
        let layers = self.gpt.config().layers;
        let embed_range = self.gpt.layout().units()[0].range.clone();
        let head_range = self.gpt.layout().units()[1 + layers].range.clone();
        if let Some(arena) = &mut self.arena {
            arena.reset();
        }
        // Deterministic per-(micro, layer) dropout seeds: the checkpoint
        // recompute in backward regenerates identical masks.
        self.micro_seq += 1;
        let drop_base = self
            .micro_seq
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        let drop_p = self.zcfg.dropout;
        let drop_for = move |layer: usize| Dropout {
            p: drop_p,
            seed: drop_base ^ (layer as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        };

        // ---------- forward ----------
        // Each fetch names the unit after it: under the prefetch window
        // that unit's all-gather is issued before this one's is waited, so
        // unit u+1's ring runs under unit u's compute.
        let p_embed = self.fetch_unit_pf(0, Some(1))?;
        let span = self.trace.begin(SpanCategory::Compute, "embed-fwd");
        let mut x = self.gpt.embed(&p_embed, ids, local_batch);
        self.trace.end(span);
        self.release_unit(p_embed);
        self.maybe_quantize(&mut x);

        let checkpointing = self.zcfg.checkpoint_activations;
        let interval = self.zcfg.checkpoint_interval.max(1);
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut saveds: Vec<Option<BlockSaved>> = Vec::new();
        for l in 0..layers {
            // `2 + l` is the next block — or the head when this is the
            // last block.
            let p = self.fetch_unit_pf(1 + l, Some(2 + l))?;
            if checkpointing && l % interval == 0 {
                // One checkpoint per segment of `interval` blocks (§3.2's
                // memory/recompute dial; interval 1 = one per layer).
                let c = self.store_checkpoint(&x);
                checkpoints.push(c);
            }
            let (y, saved) = self.block_fwd("block-fwd", l, &p, &x, local_batch, drop_for(l))?;
            self.release_unit(p);
            if !checkpointing {
                self.mem
                    .alloc(MemCategory::Activations, 4 * saved.elems() as u64);
                saveds.push(Some(saved));
            }
            x = y;
        }

        // ---------- head forward + backward (loss gradient is born here) ----------
        // The head's fetch chains the prefetch into backward's first
        // block refetch (non-checkpointed mode only: checkpointed
        // segments restart the chain at each recompute).
        let head_next = (!checkpointing && layers > 0).then_some(layers);
        let p_head = self.fetch_unit_pf(1 + layers, head_next)?;
        let mut head_grads = vec![0.0; head_range.len()];
        let span = self.trace.begin(SpanCategory::Compute, "head-fwd-bwd");
        let (loss, mut dy) =
            self.gpt
                .head_fwd_bwd(&p_head, &x, targets, &mut head_grads, local_batch);
        self.trace.end(span);
        self.release_unit(p_head);
        drop(x);
        // Apply the loss scale to everything downstream of the loss.
        if scale != 1.0 {
            for v in &mut dy {
                *v *= scale;
            }
            for v in &mut head_grads {
                *v *= scale;
            }
        }
        self.dispatch_grads(head_range, head_grads)?;

        // ---------- backward through blocks ----------
        if checkpointing {
            // Segment-wise: re-materialize `interval` blocks from their
            // checkpoint (the §8-counted recompute all-reduces), then walk
            // the segment backward.
            let mut seg_end = layers;
            while seg_end > 0 {
                let seg_start = ((seg_end - 1) / interval) * interval;
                let ck = checkpoints.pop().expect("checkpoint for segment");
                let mut x_in = self.fetch_checkpoint(&ck)?;
                self.free_checkpoint(ck);
                let mut segment: Vec<(Vec<f32>, BlockSaved)> = Vec::new();
                for l in seg_start..seg_end {
                    let p = self.fetch_unit_pf(1 + l, (l + 1 < seg_end).then(|| 2 + l))?;
                    let (y, saved) =
                        self.block_fwd("block-refwd", l, &p, &x_in, local_batch, drop_for(l))?;
                    self.mem
                        .alloc(MemCategory::Activations, 4 * saved.elems() as u64);
                    x_in = y;
                    segment.push((p, saved));
                }
                for l in (seg_start..seg_end).rev() {
                    let (p, saved) = segment.pop().expect("segment entry");
                    dy = self.block_bwd(l, p, saved, &dy, local_batch, drop_for(l))?;
                }
                seg_end = seg_start;
            }
        } else {
            for l in (0..layers).rev() {
                // `l` is block l-1's unit; the last block was issued by
                // the head's fetch above.
                let p = self.fetch_unit_pf(1 + l, (l > 0).then_some(l))?;
                let saved = saveds[l].take().expect("saved activations for block");
                dy = self.block_bwd(l, p, saved, &dy, local_batch, drop_for(l))?;
            }
        }

        // ---------- embedding backward ----------
        let mut embed_grads = vec![0.0; embed_range.len()];
        let span = self.trace.begin(SpanCategory::Compute, "embed-bwd");
        self.gpt
            .embed_backward(ids, &dy, &mut embed_grads, local_batch);
        self.trace.end(span);
        drop(dy);
        self.dispatch_grads(embed_range, embed_grads)?;
        // Drain the bucket so the next micro-batch's head-first pushes
        // start a fresh contiguous descending run, then settle every
        // reduce-scatter still in flight (the end-of-backward barrier
        // overlap moves the waits to; nothing is left in sync mode).
        self.flush_bucket()?;
        self.drain_inflight()?;
        debug_assert!(self.prefetch.is_none(), "prefetch slot must drain with backward");
        Ok(loss)
    }

    /// Reduces accumulated gradients (stages DDP/1), synchronizes the
    /// overflow flag, and applies (or skips) the optimizer update.
    fn finish_step(
        &mut self,
        loss: f32,
        scale: f32,
        n_micro: usize,
    ) -> Result<StepOutcome, CommError> {
        // ---------- reduce & update ----------
        debug_assert!(self.inflight_rs.is_empty(), "in-flight reduces must drain per micro");
        self.reduce_full_grads()?;

        let local_overflow = self.shard_has_overflow();
        let mut flag = [if local_overflow { 1.0_f32 } else { 0.0 }];
        let world_group = Group::world(self.comm.world_size());
        let _op = self.plan.take(CollectiveKind::AllReduce, &world_group);
        self.comm.all_reduce(&mut flag, ReduceOp::Max, Precision::Fp32)?;
        let overflow = flag[0] > 0.0;
        // The prefix plan ends at the flag — the one data-dependent branch
        // point in the schedule; the rest of the step follows the suffix
        // plan for the observed skip outcome.
        self.plan.assert_exhausted("after overflow flag");

        let skipped = match &mut self.scaler {
            Some(s) => s.update_traced(overflow, &self.trace),
            None => overflow, // fp32 overflow: skip, nothing to rescale
        };
        let suffix = CommPlan::step_suffix(self.gpt.layout(), &self.zcfg, self.grid, skipped);
        self.plan.install(&suffix, self.comm.rank(), "step-suffix");

        let mut grad_norm = None;
        if !skipped {
            let mut g = self.read_grad_shard();
            // Stage 1 host optimizer: gradients reduced into the full
            // device buffer, so the owned shard region spills down once
            // per step (stages 2/3 already spilled bucket by bucket).
            if self.off.opt_state && !self.zcfg.stage.partitions_grads() {
                self.start_tier_op(TierDir::Spill, "tier-grad-spill").wait()?;
            }
            // Undo the loss scale and average over accumulation steps.
            let inv = 1.0 / (scale * n_micro as f32);
            if inv != 1.0 {
                for v in &mut g {
                    *v *= inv;
                }
            }
            if let Some(max_norm) = self.zcfg.clip_grad_norm {
                let norm = self.global_grad_norm(&g)?;
                grad_norm = Some(norm);
                apply_clip(&mut g, clip_coefficient(norm, max_norm));
            }
            let base_lr = match self.zcfg.optimizer {
                OptimizerKind::Adam(c) => c.lr,
                OptimizerKind::Sgd(c) => c.lr,
            };
            self.opt
                .set_lr(base_lr * self.zcfg.lr_schedule.factor(self.step));
            let span = self.trace.begin(SpanCategory::Optimizer, "opt-step");
            self.opt.step(&mut self.master, &g);
            self.trace.end(span);
            self.publish_params()?;
        }
        self.plan.assert_exhausted("end of step");
        self.step += 1;
        self.trace.counter("peak-device-bytes", self.mem.peak_device());
        Ok(StepOutcome {
            loss,
            skipped,
            grad_norm,
            loss_scale: scale,
        })
    }

    /// Forward-only validation loss over this rank's micro-batch.
    ///
    /// # Panics
    /// Panics on a communication failure (the [`CommError`] is the panic
    /// payload — see [`Self::try_eval_loss`]).
    pub fn eval_loss(&mut self, ids: &[u32], targets: &[u32], local_batch: usize) -> f32 {
        self.try_eval_loss(ids, targets, local_batch)
            .unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// Fallible [`Self::eval_loss`].
    pub fn try_eval_loss(
        &mut self,
        ids: &[u32],
        targets: &[u32],
        local_batch: usize,
    ) -> Result<f32, CommError> {
        let layers = self.gpt.config().layers;
        let act_elems = local_batch * self.gpt.config().seq * self.gpt.config().hidden;
        self.clear_transients();
        let eval_plan = CommPlan::eval_pass(self.gpt.layout(), &self.zcfg, self.grid, act_elems);
        self.plan.install(&eval_plan, self.comm.rank(), "eval-pass");
        let p = self.fetch_unit_pf(0, Some(1))?;
        let span = self.trace.begin(SpanCategory::Compute, "embed-fwd");
        let mut x = self.gpt.embed(&p, ids, local_batch);
        self.trace.end(span);
        self.release_unit(p);
        self.maybe_quantize(&mut x);
        for l in 0..layers {
            let p = self.fetch_unit_pf(1 + l, Some(2 + l))?;
            (x, _) = self.block_fwd("block-fwd", l, &p, &x, local_batch, Dropout::OFF)?;
            self.release_unit(p);
        }
        let p = self.fetch_unit_pf(1 + layers, None)?;
        let span = self.trace.begin(SpanCategory::Compute, "head-loss");
        let loss = self.gpt.head_loss(&p, &x, targets, local_batch);
        self.trace.end(span);
        self.release_unit(p);
        self.plan.assert_exhausted("end of eval");
        Ok(loss)
    }
}
