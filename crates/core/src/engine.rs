//! The per-rank ZeRO training engine.
//!
//! One `RankEngine` runs on each rank (thread) of a `dp × mp` grid and
//! implements the paper's four data-parallel regimes over the same model
//! and collectives:
//!
//! * [`ZeroStage::Ddp`](crate::ZeroStage::Ddp) — replicate everything,
//!   all-reduce gradients (the PyTorch-DDP baseline of §10.1).
//! * [`ZeroStage::One`](crate::ZeroStage::One) — P_os (§5.1): optimizer
//!   states sharded 1/N_d; gradients reduce-scattered so each rank owns its
//!   shard's average, updated parameters all-gathered.
//! * [`ZeroStage::Two`](crate::ZeroStage::Two) — P_os+g (§5.2): gradients
//!   partitioned too; per-unit gradients are bucketized (CB, §6.2) and
//!   reduce-scattered to their owners as backward proceeds, then freed.
//! * [`ZeroStage::Three`](crate::ZeroStage::Three) — P_os+g+p (§5.3):
//!   parameters partitioned; each unit's are all-gathered right before use
//!   in forward and again in backward, and discarded right after — the
//!   dynamic communication schedule of §7.2.2 with its 3Ψ total volume.
//!
//! ZeRO-R is layered on top: activation checkpointing with optional
//! MP-partitioned checkpoints P_a and CPU offload P_a+cpu (§6.1, the
//! slices' planned round trip through the memory tier), constant-size
//! fused buffers CB for every flat-space collective (§6.2), and a
//! contiguous checkpoint arena MD (§6.3) that holds every checkpoint.
//!
//! The engine owns the arithmetic and the stores; it owns no schedule.
//! The order of a micro-batch — which unit is fetched, checkpointed,
//! recomputed and reduced when — is the one walk in `crate::walk`, which
//! the plan builder records and the engine executes through a per-micro
//! `Pass`. Every entry point installs the [`CommPlan`] for what it is
//! about to run and then interprets it: each collective pops its op off
//! the [`PlanCursor`], and the op is the only source of its group, counts,
//! precision, wire format and reduction, of the stores a fetch reads and
//! stashes into, of whether the next unit's fetch goes out before this one
//! is waited, where the gradient bucket is cut, which ops each CB chunk
//! runs, where each reduce-scatter is settled (its `Settle` stamp), and
//! which tier movement goes ahead of it or behind it. The engine derives
//! no group, picks no reduction and decides no buffer's lifetime or
//! residency of its own: the charges it makes on its `MemoryTracker` check
//! the plan's, its model-state stores and checkpoint slices are charged
//! where `crate::footprint` says, and its MD arena is sized from the plan.

use std::collections::VecDeque;
use std::sync::Arc;

use zero_comm::{CollectiveKind, CommError, Communicator, Grid, PendingOp, Precision};
use zero_model::{BlockSaved, Gpt};
use zero_trace::{SpanCategory, StepTimeline, TraceRecorder};
use zero_optim::{
    apply_clip, clip_coefficient, local_sq_norm, Adam, DynamicLossScaler, Sgd,
};
use zero_tensor::f16::f16_round_slice;

use crate::config::{OptimizerKind, TierConfig};

use crate::arena::{ArenaSlot, ContiguousArena};
use crate::bucket::GradBucket;
use crate::config::ZeroConfig;
use crate::footprint;
use crate::memory::{MemCategory, MemoryTracker};
use crate::partition::Partitioner;
use crate::plan::{
    CommPlan, EffectiveOffload, OpRole, ParamStore, PlanCursor, Reduction, ResolvedOp, ResolvedTierOp, Settle,
};
use crate::store::{clip, FlatStore};
use crate::tier::{TierStats, TierStore};
use crate::walk::{self, Walker};

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

/// A planned gather or reduce-scatter queued on the rank's fabric, with
/// the tier movement the plan attached to it.
struct Issued {
    /// Offload: the host→device fetch seeding the op, queued on the
    /// rank's host-link lane right before it (the op's ring starts once
    /// the modeled transfer has finished) and waited first.
    seed: Option<PendingOp>,
    pending: PendingOp,
    /// Offload: the device→host spill of the op's result, queued on the
    /// lane right behind it (it leaves as soon as the ring has produced
    /// the piece, while later collectives run) and waited last.
    spill: Option<PendingOp>,
    /// The planned op: its group geometry, issue mode and reduction.
    op: ResolvedOp,
    /// The op's position in the installed plan: the index a
    /// `Settle::Gather` stamp names.
    pos: usize,
}

impl Issued {
    /// Settles the seeding transfer, then the op, then its spill, so
    /// failures surface in issue order, and applies the average the op
    /// closes with, if any.
    fn wait(self) -> Result<Vec<f32>, CommError> {
        if let Some(seed) = self.seed {
            seed.wait()?;
        }
        let mut out = self.pending.wait()?;
        if let Some(spill) = self.spill {
            spill.wait()?;
        }
        if let Reduction::Average { over } = self.op.reduce {
            let inv = 1.0 / over as f32;
            out.iter_mut().for_each(|v| *v *= inv);
        }
        Ok(out)
    }
}

/// A bucket flush whose reduce-scatter is in flight on the progress
/// thread: the handle plus where its owner piece lands when waited.
struct InflightReduce {
    /// The bucket's flat range: this rank's part of it is the reduced piece.
    span: std::ops::Range<usize>,
    /// The reduce-scatter, whose fused buffer is held until the wait.
    issued: Issued,
}

/// The rank's end of the schedule: the cursor over the installed plan,
/// and the two things a planned op is issued to.
struct Issuer {
    /// Every engine entry point installs its [`CommPlan`] here, and every
    /// collective call site pops (and is parameterized by) the next
    /// planned op — see [`crate::plan`].
    plan: PlanCursor,
    comm: Communicator,
    /// The memory tier: byte meter and modeled host-link clock for every
    /// spill/fetch the engine issues. `None` when nothing crosses it.
    tier: Option<TierStore>,
}

impl Issuer {
    /// Meters a planned tier movement through the [`TierStore`] (bytes +
    /// modeled host-link time) and queues the transfer on the rank's
    /// host-link lane, which its anchor orders against the collectives
    /// (`TierAt::order`: a seeded gather waits for it, it for a drained op).
    fn tier_move(&mut self, t: ResolvedTierOp) -> PendingOp {
        let store = self.tier.as_mut().expect("tier store when the plan moves tier bytes");
        let delay = if t.at.is_fetch() { store.record_fetch(t.bytes) } else { store.record_spill(t.bytes) };
        self.comm.start_tier_move(t.label, t.bytes, delay, t.at.order())
    }

    /// The one place a planned all-gather or reduce-scatter is issued: pops
    /// the next op off the plan cursor (plan order is issue order, which is
    /// what the static checks verify), submits the tier fetch that seeds
    /// it, starts it on `buf`, handed back as the result, with the op's
    /// group, counts, precision, wire format (raw ring, qwZ int8 blocks,
    /// or qgZ two-phase) and reduction, and queues the tier spill that
    /// carries its result. When the caller waits is the only thing that
    /// distinguishes synchronous from overlapped runs.
    fn start(&mut self, kind: CollectiveKind, buf: Vec<f32>) -> Issued {
        let pos = self.plan.position();
        let (op, tier) = self.plan.take_riding(kind);
        // A fetch riding the op seeds it and goes first; a spill carries
        // its result and goes right behind it.
        let (seed, spill) = match tier {
            Some(t) if t.at.is_fetch() => (Some(self.tier_move(t)), None),
            spill => (None, spill),
        };
        let (group, counts, comm) = (op.group(), &op.counts, &mut self.comm);
        let pending = match op.reduce {
            Reduction::Reduce(r) => {
                comm.start_reduce_scatter(&group, buf, r, counts, op.prec, op.wire)
            }
            Reduction::Copy | Reduction::Average { .. } => {
                comm.start_all_gather(&group, op.place(comm.rank(), buf), counts, op.prec, op.wire)
            }
        };
        let spill = spill.map(|t| self.tier_move(t));
        Issued { seed, pending, spill, op, pos }
    }

    /// A planned all-reduce, in place: the Megatron hooks, DDP's gradient
    /// chunks, the two-level reduction's cross-node phase, the overflow
    /// flag and the grad norm. The communicator holds each member's
    /// planned count to its ring chunk of `buf`.
    fn all_reduce(&mut self, buf: &mut [f32]) -> Result<(), CommError> {
        let op = self.plan.take(CollectiveKind::AllReduce);
        let Reduction::Reduce(reduce) = op.reduce else {
            panic!("planned '{}' reduces nothing", op.label)
        };
        self.comm.all_reduce_in(&op.group(), buf, &op.counts, reduce, op.prec)
    }

    /// Runs the CB chunks of `part`'s rows the plan lists next, charging
    /// each chunk's staging buffer to `mem` for exactly the duration of its
    /// ops, on the error path too.
    fn run_chunks(
        &mut self,
        part: &Partitioner,
        store: &mut FlatStore,
        mem: &mut MemoryTracker,
    ) -> Result<(), CommError> {
        let chunk = |op: &ResolvedOp| match &op.role {
            OpRole::Chunk(rows) => Some((rows.clone(), 4 * op.total_elems() as u64)),
            _ => None,
        };
        while let Some((rows, bytes)) = self.plan.peek().and_then(chunk) {
            mem.alloc(MemCategory::Buffers, bytes);
            let res = self.run_chunk(rows, part, store);
            mem.free(MemCategory::Buffers, bytes);
            res?;
        }
        Ok(())
    }

    /// Runs every op the plan lists for one CB chunk over one staging
    /// buffer (§6.2), which holds every member's slice of the chunk's rows
    /// in member order — a view of flat ranges of the full `store`. The
    /// buffer is read from the store — the whole chunk, or this rank's
    /// slice when the chunk opens with a gather; a reduce-scatter narrows
    /// it to this rank's slice, an all-gather widens it back, an all-reduce
    /// keeps it — and is written back where it then sits in the view.
    fn run_chunk(
        &mut self,
        rows: std::ops::Range<usize>,
        part: &Partitioner,
        store: &mut FlatStore,
    ) -> Result<(), CommError> {
        let rank = self.comm.rank();
        let view: Vec<_> = (0..part.owners()).flat_map(|i| part.flat_ranges(i, part.chunk_slice(i, rows.clone()))).collect();
        let mut at = 0..view.iter().map(|r| r.len()).sum();
        if let Some(first) = self.plan.peek().filter(|op| op.kind == CollectiveKind::AllGather) {
            at = first.own_piece(rank);
        }
        let mut buf = store.gather(&clip(&view, at.clone()));
        let span = OpRole::Chunk(rows);
        while let Some(kind) = self.plan.peek().filter(|op| op.role == span).map(|op| op.kind) {
            if kind == CollectiveKind::AllReduce {
                self.all_reduce(&mut buf)?;
                continue;
            }
            let issued = self.start(kind, std::mem::take(&mut buf));
            let (own, total) = (issued.op.own_piece(rank), issued.op.total_elems());
            at = match kind {
                CollectiveKind::ReduceScatter => at.start + own.start..at.start + own.end,
                _ => at.start - own.start..at.start - own.start + total,
            };
            buf = issued.wait()?;
        }
        store.scatter(&clip(&view, at), &buf);
        Ok(())
    }
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

    /// Bytes of the state over the master: Adam's two moments, SGD's
    /// velocity (nothing without momentum).
    fn moment_bytes(&self) -> [u64; 2] {
        match self {
            OptState::Adam(a) => [4 * a.moments().0.len() as u64, 4 * a.moments().1.len() as u64],
            OptState::Sgd(s) => [s.state_bytes() as u64, 0],
        }
    }

    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        match self {
            OptState::Adam(a) => a.step(params, grads),
            OptState::Sgd(s) => s.step(params, grads),
        }
    }
}

/// One rank's ZeRO engine.
pub struct RankEngine {
    gpt: Gpt,
    zcfg: ZeroConfig,
    grid: Grid,
    /// The plan cursor, the communicator and the memory tier.
    io: Issuer,
    dp_idx: usize,
    mp_idx: usize,
    /// The per-unit partition of the model states over the DP group (one
    /// owner under DDP), and the flat ranges of it `master` covers.
    part: Partitioner,
    shard: Vec<std::ops::Range<usize>>,
    /// hpZ secondary parameter store ([`ParamStore::Secondary`]): the
    /// node-local replica shard (≈ 2Ψ/G), stashed into by each unit's
    /// first fetch of the step and seeding the fetches the plan reads
    /// from it.
    secondary: Option<FlatStore>,

    /// Working parameters consumed by forward/backward
    /// ([`ParamStore::Primary`]): all of flat space (stages DDP/1/2) or
    /// this rank's 1/N_d per-unit shard (stage 3).
    work: FlatStore,
    /// fp32 master parameters: full (DDP) or the DP shard (stages 1–3).
    master: Vec<f32>,
    /// Optimizer state over `master`.
    opt: OptState,
    /// Where gradients accumulate: all of flat space (DDP/1, reduced at
    /// the end of the step) or this rank's reduced shard (stages 2/3).
    grads: FlatStore,
    /// Stages 2/3: gradients go through the bucket, reduced to their
    /// owners as backward produces them.
    bucketed: bool,
    /// Which classes cross the tier: `check`'s until the first step's
    /// plan fixes the placement (`placed`).
    off: EffectiveOffload,
    placed: bool,

    bucket: GradBucket,
    /// In-flight bucket reduce-scatters, each with the spill behind it:
    /// issued as backward produces them and settled in FIFO order where
    /// the plan stamps them — right after the flush in synchronous mode,
    /// under overlap when the first gather issued ahead behind them is
    /// consumed — so gradient accumulation order, and therefore the loss,
    /// is bitwise identical either way.
    inflight_rs: VecDeque<InflightReduce>,
    /// The stage-3 prefetch slot: a parameter all-gather the plan issued
    /// ahead of its unit's use.
    prefetch: Option<Issued>,
    /// The stage-3 unit the plan holds into its next fetch, the precision
    /// its op holds it at, and its buffer once the walk has released it.
    held: Option<(usize, Precision, Vec<f32>)>,
    scaler: Option<DynamicLossScaler>,
    arena: Option<ContiguousArena>,
    mem: MemoryTracker,
    /// This rank's span recorder — shared with the communicator, whose
    /// progress thread records collective execution spans on it.
    trace: Arc<TraceRecorder>,
    step: u64,
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
        let off = zcfg.check(grid).unwrap_or_else(|e| panic!("{e}"));
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
        let part = Partitioner::per_unit(gpt.layout(), zcfg.dp_owners(grid));
        let (full, owner) = (Partitioner::new(gpt.num_params(), 1), dp_idx % part.owners());
        let shard = part.flat_ranges(owner, 0..part.counts()[owner]);

        // The model states are charged from the one table the memory walk
        // also folds (`footprint::states`), in the categories `check`'s
        // placement names until the first step's plan fixes it (`place`).
        // Arm the device budget first: from then on the tracker panics the
        // moment live device bytes would exceed it, so a run that completes
        // has *proved* peak device memory fit.
        let states = footprint::states(gpt.layout(), &zcfg, grid, off, rank);
        let mut mem = MemoryTracker::new();
        if zcfg.tier.enabled {
            mem.set_device_budget(Some(zcfg.tier.device_budget));
        }
        states.into_iter().for_each(|(cat, bytes)| mem.alloc(cat, bytes));

        // hpZ secondary store: the node-local replica shard. Node groups
        // are G consecutive ranks, so the slot is direct.
        let g = zcfg.node_size;
        let secondary = zcfg.compression.hpz.then(|| FlatStore::zeros(&Partitioner::per_unit(gpt.layout(), g), rank % g, zcfg.fp16));
        // Working parameters, the fp32 master copy (full for DDP, the
        // shard otherwise), the optimizer state over it, and the gradient
        // store (the reduced shard from stage 2 on).
        let (at, of) = if zcfg.stage.partitions_params() { (&part, owner) } else { (&full, 0) };
        let work = FlatStore::from_f32(at, of, initial_params, zcfg.fp16);
        let master: Vec<f32> = shard.iter().map(|r| &initial_params[r.clone()]).collect::<Vec<_>>().concat();
        let mut opt = OptState::new(master.len(), zcfg.optimizer);
        if let OptState::Adam(a) = &mut opt {
            a.attach_trace(trace.clone());
        }
        let bucketed = zcfg.stage.partitions_grads();
        let grads = if bucketed { FlatStore::zeros(&part, owner, zcfg.fp16) } else { FlatStore::zeros(&full, 0, zcfg.fp16) };
        let ([mom, var], sec) = (opt.moment_bytes(), secondary.as_ref().map_or(0, FlatStore::bytes));
        let built = [sec, work.bytes(), 4 * master.len() as u64, mom, var, grads.bytes()];
        assert_eq!(built, states.map(|(_, bytes)| bytes), "model-state stores vs their table rows");

        // The host link prices tier moves only when the tier is on:
        // P_a+cpu checkpoints alone cross it for free.
        let link = if zcfg.tier.enabled { zcfg.tier } else { TierConfig::off() };
        RankEngine {
            bucket: GradBucket::new(),
            inflight_rs: VecDeque::new(),
            prefetch: None,
            held: None,
            io: Issuer {
                plan: PlanCursor::default(),
                comm,
                tier: off.any().then(|| TierStore::new(link)),
            },
            scaler: zcfg.fp16.then(|| DynamicLossScaler::new(zcfg.initial_loss_scale)),
            arena: None,
            gpt,
            zcfg,
            grid,
            dp_idx,
            mp_idx,
            part,
            shard,
            secondary,
            work,
            master,
            opt,
            grads,
            bucketed,
            off,
            placed: false,
            mem,
            trace,
            step: 0,
        }
    }

    /// This rank's global id.
    pub fn rank(&self) -> usize {
        self.io.comm.rank()
    }

    /// Data-parallel coordinate.
    pub fn dp_rank(&self) -> usize {
        self.dp_idx
    }

    /// The memory tracker (read it after steps for measured footprints).
    pub fn memory(&self) -> &MemoryTracker {
        &self.mem
    }

    /// Byte/op meters for this rank's tier traffic (zero when nothing
    /// crosses the tier).
    pub fn tier_stats(&self) -> TierStats {
        self.io.tier.as_ref().map(|t| t.stats()).unwrap_or_default()
    }

    /// Modeled wall time this rank's tier transfers would take on the
    /// configured host link.
    pub fn tier_time(&self) -> std::time::Duration {
        self.io.tier
            .as_ref()
            .map(|t| t.modeled_time())
            .unwrap_or_default()
    }

    /// Communication counters for this rank.
    pub fn traffic(&self) -> zero_comm::TrafficSnapshot {
        self.io.comm.stats().snapshot()
    }

    /// Per-kind wait vs in-flight execution timing for this rank's
    /// collectives. Under overlap, wait time shrinks toward zero while
    /// execution time (on the progress thread) stays put.
    pub fn timing(&self) -> zero_comm::TimingSnapshot {
        self.io.comm.stats().timing()
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

    /// The flat ranges [`Self::master_params`] covers, in order: this DP
    /// rank's piece of every unit for stages 1–3, the full space for DDP.
    pub fn master_ranges(&self) -> &[std::ops::Range<usize>] {
        &self.shard
    }

    /// This rank's owner index in `part`: its DP rank, or 0 under DDP.
    fn owner(&self) -> usize {
        self.dp_idx % self.part.owners()
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

    /// The process grid this engine runs on.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Tears the engine down, returning its communicator — used when
    /// rebuilding an engine in place (e.g. restart-and-resume tests).
    pub fn into_comm(self) -> Communicator {
        self.io.comm
    }

    // ----- parameter materialization -----

    /// Issues the next planned parameter fetch — "broadcast … from the
    /// data parallel process responsible for that partition" (§5.3),
    /// realized as a ring all-gather of uneven pieces — without waiting.
    /// The op names the unit and the store this rank's piece is read from:
    /// the primary shard, or (hpZ) the node-local secondary store, whose
    /// gather never crosses a node boundary.
    fn start_fetch(&mut self) -> Issued {
        let (unit, from) = match self.io.plan.peek().map(|op| &op.role) {
            Some(&OpRole::Fetch { unit, from, .. }) => (unit, from),
            other => panic!("comm-plan drift: engine needs a parameter fetch, plan has {other:?}"),
        };
        let unit_range = self.gpt.layout().units()[unit].range.clone();
        self.mem.alloc(MemCategory::Buffers, 4 * unit_range.len() as u64);
        let piece = self.param_store(from).read(unit_range);
        self.trace.instant(SpanCategory::Collective, "prefetch-issue");
        self.io.start(CollectiveKind::AllGather, piece)
    }

    /// Issues the plan's next fetch into the prefetch slot if it goes out
    /// ahead and names `next`, the unit the walk fetches after this one.
    fn prefetch_next(&mut self, next: Option<usize>) {
        let ahead = |op: &ResolvedOp| matches!(op.role, OpRole::Fetch { ahead: true, unit, .. } if Some(unit) == next);
        if self.io.plan.peek().is_some_and(ahead) {
            self.prefetch = Some(self.start_fetch());
        }
    }

    /// The parameter store a fetch op names. The gathered buffer is
    /// bitwise identical on every rank (raw and qwZ alike), so a store
    /// stashed from it stays node-consistent without extra communication;
    /// in fp16 mode it holds exactly the fp16 image of what this step's
    /// forward saw.
    fn param_store(&mut self, store: ParamStore) -> &mut FlatStore {
        match store {
            ParamStore::Primary => &mut self.work,
            ParamStore::Secondary => self.secondary.as_mut().expect("hpZ secondary store"),
        }
    }

    /// Settles, in issue order, the in-flight bucket reduce-scatters the
    /// plan stamps for `point`, the one the engine is at: wait each and the
    /// spill behind it, land the owner piece in the gradient shard, free
    /// the fused buffer (§5.2). After an error `clear_transients` drops the
    /// handles left unawaited; their ops still run in issue order, keeping
    /// the SPMD schedule aligned for recovery.
    fn settle(&mut self, point: Settle) -> Result<(), CommError> {
        while self.inflight_rs.front().is_some_and(|inf| matches!(inf.issued.op.role, OpRole::Span(_, at) if at == point)) {
            let Some(inf) = self.inflight_rs.pop_front() else { break };
            let bytes = 4 * inf.issued.op.total_elems() as u64;
            let span = self.trace.begin(SpanCategory::Wait, "settle-reduce");
            let out = inf.issued.wait();
            self.trace.end(span);
            self.mem.free(MemCategory::Buffers, bytes);
            self.grads.add(inf.span, &out?);
        }
        Ok(())
    }

    /// Drops any async state left over from a failed step (handles are
    /// dropped unawaited; the fabric still runs the ops) and frees every
    /// transient byte still charged: staging buffers, kept activations
    /// and stored checkpoints. Called on entry to every engine entry point
    /// that installs a fresh plan.
    fn clear_transients(&mut self) {
        (self.inflight_rs, self.held, self.prefetch) = (VecDeque::new(), None, None);
        for cat in [MemCategory::Buffers, MemCategory::Activations, MemCategory::Checkpoints, MemCategory::HostCheckpoints] {
            self.mem.free(cat, self.mem.live(cat));
        }
    }

    /// Quantizes activations to fp16 width in mixed-precision mode, so the
    /// values flowing between units are genuine fp16 (and checkpointed
    /// values match recomputed ones bit for bit).
    fn maybe_quantize(&self, x: &mut [f32]) {
        if self.zcfg.fp16 {
            f16_round_slice(x);
        }
    }

    // ----- checkpoints (ZeRO-R: P_a / P_a+cpu / MD) -----

    /// Sizes the MD arena for the step `prefix` plans: the most checkpoint
    /// bytes its charges hold live on this rank, at the activation width
    /// (this rank's slice of each checkpoint under P_a). Grow-only, so a
    /// constant batch allocates once and a larger one re-allocates instead
    /// of overflowing.
    fn size_arena(&mut self, prefix: &CommPlan) {
        let cap = prefix.arena_elems(&self.zcfg, self.io.comm.rank());
        if cap > 0 && self.arena.as_ref().is_none_or(|a| a.capacity() < cap) {
            self.arena = Some(ContiguousArena::new(cap));
        }
    }

    // ----- gradient dispatch (stage-dependent) -----

    /// Consumes one unit's freshly computed gradients.
    ///
    /// Stages DDP/1 accumulate into the persistent full gradient buffer.
    /// Stages 2/3 push into the bucket and flush it once the pending
    /// gradients span the range of the next planned reduce-scatter — the
    /// plan drew the constant-size bucket boundaries (§6.2).
    fn dispatch_grads(
        &mut self,
        range: std::ops::Range<usize>,
        mut g: Vec<f32>,
    ) -> Result<(), CommError> {
        if !self.bucketed {
            self.grads.add(range, &g);
            return Ok(());
        }
        // fp16 gradients: quantize before they enter the fused buffer.
        self.maybe_quantize(&mut g);
        self.bucket.push(range, g);
        if matches!(self.io.plan.peek().map(|op| &op.role), Some(OpRole::Span(next, _)) if Some(next) == self.bucket.span().as_ref()) {
            self.flush_bucket()?;
        }
        Ok(())
    }

    /// Flushes the bucket: one reduce-scatter of the fused range goes in
    /// flight, its owner piece destined for the gradient shard, after which the
    /// bucket contents are dropped — "after the reduction we no longer
    /// need the gradients and their memory can be released" (§5.2). A
    /// non-blocking op stays in flight so backward keeps computing while
    /// the ring runs; one the plan settles at its flush is settled here.
    fn flush_bucket(&mut self) -> Result<(), CommError> {
        let Self { bucket, io, mem, inflight_rs, trace, part, .. } = self;
        bucket.flush_all(part, &mut |span, fused| {
            trace.instant(SpanCategory::Collective, "bucket-flush");
            mem.alloc(MemCategory::Buffers, 4 * fused.len() as u64);
            let issued = io.start(CollectiveKind::ReduceScatter, fused);
            inflight_rs.push_back(InflightReduce { span, issued });
        });
        self.settle(Settle::Flush)
    }

    /// Publishes updated master parameters into the working copy, then
    /// runs the publish chunks the plan lists: stages 1/2 all-gather the
    /// updated fp16 shards across DP — "an all-gather … to get the fully
    /// updated parameters" (§5.1) — staged through CB-sized chunks, each
    /// seeded by a tier fetch under a host optimizer; DDP and stage 3 plan
    /// none, their working copy being exactly what `master` covers.
    fn publish_params(&mut self) -> Result<(), CommError> {
        self.work.scatter(&self.shard, &self.master);
        self.io.run_chunks(&self.part, &mut self.work, &mut self.mem)
    }

    /// Global gradient norm across the whole grid, counting every logical
    /// parameter exactly once: this rank squares what `grads` covers, and
    /// the planned grad-norm op sums the squares over its group — the
    /// whole world under partitioned stages, where each DP rank holds only
    /// its shard; the MP group under DDP, where every rank already holds
    /// the full averaged gradients. Fields replicated across MP are
    /// down-weighted by 1/N_m either way.
    fn global_grad_norm(&mut self, grads: &[f32]) -> Result<f64, CommError> {
        let (nm, owner) = (self.grid.mp_degree() as f64, self.owner());
        let mut sq = 0.0_f64;
        if nm > 1.0 {
            for field in self.gpt.layout().fields() {
                let w = if field.replicated_under_mp() { 1.0 / nm } else { 1.0 };
                sq += w * local_sq_norm(&grads[self.part.local_slice_of(owner, &field.range)]);
            }
        } else {
            sq = local_sq_norm(grads);
        }
        let mut buf = [sq as f32];
        self.io.all_reduce(&mut buf)?;
        Ok((buf[0] as f64).sqrt())
    }

    // ----- sharded checkpointing -----

    /// Captures this rank's training-state shard (master parameters,
    /// optimizer state, loss-scaler state). Under stages 1-3 the N_d
    /// shards together hold exactly one copy of the training state --
    /// ZeRO's natural sharded-checkpoint layout.
    pub fn save_snapshot(&self) -> crate::snapshot::RankSnapshot {
        let span = self.trace.begin(SpanCategory::Checkpoint, "snapshot-capture");
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
            rank: self.io.comm.rank() as u32,
            world: self.io.comm.world_size() as u32,
            step: self.step,
            units: self.part.unit_lens().into_iter().map(|len| len as u64).collect(),
            owners: self.part.owners() as u32,
            owner: self.owner() as u32,
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
    /// A communication failure during the re-publish surfaces as
    /// [`CommError`], so a supervisor can treat it as recoverable.
    ///
    /// # Panics
    /// Panics if the snapshot's rank/world/shard do not match this engine.
    pub fn try_restore_snapshot(
        &mut self,
        snap: &crate::snapshot::RankSnapshot,
    ) -> Result<(), CommError> {
        let span = self.trace.begin(SpanCategory::Checkpoint, "snapshot-restore");
        assert_eq!(snap.rank as usize, self.io.comm.rank(), "snapshot rank mismatch");
        assert_eq!(
            snap.world as usize,
            self.io.comm.world_size(),
            "snapshot world-size mismatch (resume requires the same grid)"
        );
        assert_eq!(snap.flat_ranges().ok().as_deref(), Some(&self.shard[..]), "snapshot shard mismatch");
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
        self.io.plan.install(&refresh, self.io.comm.rank(), "publish-refresh");
        let res = self.publish_params();
        if res.is_ok() {
            self.io.plan.assert_exhausted("snapshot restore");
        }
        self.trace.end(span);
        res
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
        self.try_train_step(&[(ids, targets)], local_batch).unwrap_or_else(|e| std::panic::panic_any(e))
    }

    /// Runs one training step with gradient accumulation over several
    /// micro-batches: forward+backward per micro-batch, gradients
    /// accumulated (and, under stages 2/3, reduce-scattered as they are
    /// produced), one optimizer step at the end. This is how the paper's
    /// large total batch sizes (Tables 5–6) are realized on limited
    /// memory: total batch = micro-batch × accumulation × N_d.
    ///
    /// A dead, hung, or corrupting peer surfaces as `Err(CommError)`. The
    /// engine's own state may then be mid-step (partially accumulated
    /// gradients) but the master parameters and optimizer state are
    /// untouched — recovery is "restore the last snapshot", not "patch the
    /// wreckage".
    ///
    /// # Panics
    /// Panics if `micros` is empty.
    pub fn try_train_step(
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
        let off = self.place(micros.len(), act_elems);
        let prefix =
            CommPlan::prefix_placed(self.gpt.layout(), &self.zcfg, self.grid, micros.len(), act_elems, off);
        self.io.plan.install(&prefix, self.io.comm.rank(), "step-prefix");
        self.size_arena(&prefix);

        // Zero persistent gradient storage once per optimizer step.
        self.grads.zero();

        let res = micros
            .iter()
            .try_fold(0.0_f32, |sum, &(ids, targets)| {
                Ok(sum + self.walk(ids, targets, local_batch, Some(scale))?)
            })
            .and_then(|sum| self.finish_step(sum / micros.len() as f32, scale, micros.len()));
        // Release what a failed step left in flight or charged now rather
        // than at the next entry, so the tracker is exact on the error path.
        res.inspect_err(|_| self.clear_transients())
    }

    /// The placement of every step, fixed by the first one's plan: the
    /// model-state table is freed under `check`'s placement and charged
    /// under the planned one.
    fn place(&mut self, micros: usize, act_elems: usize) -> EffectiveOffload {
        if !std::mem::replace(&mut self.placed, true) {
            let (layout, rank) = (self.gpt.layout(), self.io.comm.rank());
            let off = CommPlan::placement(layout, &self.zcfg, self.grid, micros, act_elems);
            let [was, now] = [self.off, off].map(|off| footprint::states(layout, &self.zcfg, self.grid, off, rank));
            was.into_iter().for_each(|(cat, bytes)| self.mem.free(cat, bytes));
            now.into_iter().for_each(|(cat, bytes)| self.mem.alloc(cat, bytes));
            self.off = off;
        }
        self.off
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
        let Self { gpt, io, trace, .. } = self;
        let mut err: Option<CommError> = None;
        let span = trace.begin(SpanCategory::Compute, span);
        let out = f(gpt, &mut |buf: &mut [f32]| {
            if err.is_none() {
                err = io.all_reduce(buf).err();
            }
        });
        trace.end(span);
        err.map_or(Ok(out), Err)
    }

    /// Walks one micro-batch and returns its loss: a training pass at loss
    /// scale `scale`, dispatching gradients into the stage's stores, or
    /// (`None`) an evaluation pass.
    fn walk(&mut self, ids: &[u32], targets: &[u32], local_batch: usize, scale: Option<f32>) -> Result<f32, CommError> {
        if scale.is_some() {
            if let Some(arena) = &mut self.arena {
                arena.reset();
            }
        }
        let (layers, k) = (self.gpt.config().layers, walk::interval(&self.zcfg));
        let (x, dy, loss) = (Vec::new(), Vec::new(), 0.0);
        let mut pass = Pass { e: self, ids, targets, local_batch, scale: scale.unwrap_or(1.0), x, dy, loss };
        walk::micro(&mut pass, layers, k, scale.is_some())?;
        Ok(pass.loss)
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
        // The non-bucketed stages reduce their full gradient buffer here,
        // through the chunks the plan lists; stages 2/3 reduced everything
        // through the bucket and have none.
        debug_assert!(self.inflight_rs.is_empty(), "in-flight reduces must drain per micro");
        assert_eq!(self.bucket.pending_elems(), 0, "comm-plan drift: gradients left unflushed");
        self.io.run_chunks(&self.part, &mut self.grads, &mut self.mem)?;

        let mut flag = [if self.grads.has_non_finite(&self.shard) { 1.0_f32 } else { 0.0 }];
        self.io.all_reduce(&mut flag)?;
        let overflow = flag[0] > 0.0;
        // The prefix plan ends at the flag — the one data-dependent branch
        // point in the schedule; the rest of the step follows the suffix
        // plan for the observed skip outcome.
        self.io.plan.assert_exhausted("after overflow flag");

        let skipped = match &mut self.scaler {
            Some(s) => s.update_traced(overflow, &self.trace),
            None => overflow, // fp32 overflow: skip, nothing to rescale
        };
        let suffix = CommPlan::step_suffix(self.gpt.layout(), &self.zcfg, self.grid, skipped);
        self.io.plan.install(&suffix, self.io.comm.rank(), "step-suffix");

        let mut grad_norm = None;
        if !skipped {
            let mut g = self.grads.gather(&self.shard);
            // Stage 1's host optimizer reduced gradients into the full
            // device buffer, so the owned shard region spills down once
            // per step, here: the suffix opens with that spill, anchored
            // `TierAt::Free(0)`, when the plan has it. (The other free
            // moves, checkpoint spills, go out where each is stored.)
            if let Some(t) = self.io.plan.take_free_tier() {
                self.io.tier_move(t).wait()?;
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
            let span = self.trace.begin(SpanCategory::Optimizer, "opt-step");
            self.opt.step(&mut self.master, &g);
            self.trace.end(span);
            self.publish_params()?;
        }
        self.io.plan.assert_exhausted("end of step");
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
    pub fn try_eval_loss(
        &mut self,
        ids: &[u32],
        targets: &[u32],
        local_batch: usize,
    ) -> Result<f32, CommError> {
        let act_elems = local_batch * self.gpt.config().seq * self.gpt.config().hidden;
        self.clear_transients();
        let eval_plan = CommPlan::eval_pass(self.gpt.layout(), &self.zcfg, self.grid, act_elems);
        self.io.plan.install(&eval_plan, self.io.comm.rank(), "eval-pass");
        let loss = self.walk(ids, targets, local_batch, None).inspect_err(|_| self.clear_transients())?;
        self.io.plan.assert_exhausted("end of eval");
        Ok(loss)
    }
}

/// The engine side of the walk over one micro-batch: the activation
/// flowing forward, the gradient flowing backward, and the loss.
struct Pass<'a> {
    e: &'a mut RankEngine,
    ids: &'a [u32],
    targets: &'a [u32],
    local_batch: usize,
    /// Loss scale applied to everything downstream of the loss.
    scale: f32,
    x: Vec<f32>,
    dy: Vec<f32>,
    loss: f32,
}

impl Walker for Pass<'_> {
    type Unit = Vec<f32>;
    type Saved = BlockSaved;
    /// The checkpoint's MD-arena slot, and its P_a+cpu spill in flight.
    type Ckpt = (ArenaSlot, Option<PendingOp>);
    type Error = CommError;

    /// Materializes unit `u`'s parameters as an f32 buffer: the buffer the
    /// plan held for `u`, rounded to the image its op names; read from the
    /// working store when the plan gathers nothing (stages below 3); else
    /// `u`'s gather, out of the prefetch slot or issued now. The next
    /// planned fetch goes into the slot if it is `ahead` for `next` — so
    /// it rides under this unit's compute — then `u`'s is waited, stashed
    /// into the store its op names, and held at its release if it says so.
    fn fetch(&mut self, u: usize, next: Option<usize>) -> Result<Vec<f32>, CommError> {
        let e = &mut *self.e;
        if let Some((_, image, mut buf)) = e.held.take_if(|(unit, ..)| *unit == u) {
            if image == Precision::Fp16 {
                f16_round_slice(&mut buf);
            }
            e.prefetch_next(next);
            return Ok(buf);
        }
        let unit_range = e.gpt.layout().units()[u].range.clone();
        let cur = match e.prefetch.take() {
            Some(pf) => pf,
            None if e.zcfg.stage.partitions_params() => e.start_fetch(),
            None => {
                e.mem.alloc(MemCategory::Buffers, 4 * unit_range.len() as u64);
                return Ok(e.work.read(unit_range));
            }
        };
        let OpRole::Fetch { unit, into, hold, .. } = cur.op.role else { unreachable!("a fetch op") };
        assert_eq!(unit, u, "comm-plan drift: the plan fetched a unit the engine is not at");
        // The reduce-scatters the plan settles at this gather are settled
        // as it is consumed, before the next prefetch goes out.
        let out = e.settle(Settle::Gather(cur.pos)).and_then(|()| {
            e.prefetch_next(next);
            if let Some(image) = hold {
                e.held = Some((unit, image, Vec::new()));
            }
            cur.wait()
        })?;
        if let Some(store) = into {
            e.param_store(store).stash(&unit_range, &out);
        }
        Ok(out)
    }

    /// The stage-3 "discard after use", or the hand-over of a held unit.
    fn release(&mut self, u: usize, p: Vec<f32>) {
        match self.e.held.as_mut() {
            Some((unit, _, held)) if *unit == u => *held = p,
            _ => self.e.mem.free(MemCategory::Buffers, 4 * p.len() as u64),
        }
    }

    fn embed(&mut self, p: Vec<f32>) -> Result<(), CommError> {
        let span = self.e.trace.begin(SpanCategory::Compute, "embed-fwd");
        self.x = self.e.gpt.embed(&p, self.ids, self.local_batch);
        self.e.trace.end(span);
        self.release(0, p);
        self.e.maybe_quantize(&mut self.x);
        Ok(())
    }

    /// Span `"block-fwd"`, or `"block-refwd"` for a checkpoint recompute;
    /// output quantized to the activation width.
    fn block_fwd(&mut self, l: usize, p: &Vec<f32>, recompute: bool) -> Result<BlockSaved, CommError> {
        let span = if recompute { "block-refwd" } else { "block-fwd" };
        let (x, batch) = (&self.x, self.local_batch);
        let (mut y, saved) = self.e.block_pass(span, |gpt, hook| gpt.block_fwd(l, p, x, batch, hook))?;
        self.e.maybe_quantize(&mut y);
        self.x = y;
        Ok(saved)
    }

    fn keep(&mut self, saved: BlockSaved) -> BlockSaved {
        self.e.mem.alloc(MemCategory::Activations, 4 * saved.elems() as u64);
        saved
    }

    /// Checkpoints are held in the MD arena at the activation width (fp16
    /// or fp32), this rank's 1/N_m slice under P_a. Under P_a+cpu the
    /// plan's spill takes the slice down to the host tier, in flight until
    /// the restore.
    fn store_checkpoint(&mut self) -> Self::Ckpt {
        let e = &mut *self.e;
        let span = e.trace.begin(SpanCategory::Checkpoint, "ckpt-store");
        let slice = &self.x[e.zcfg.checkpoint_place.slice(self.x.len(), e.grid.mp_degree(), e.mp_idx)];
        let (cat, bytes) = footprint::ckpt_row(&e.zcfg, slice.len());
        e.mem.alloc(cat, bytes);
        let slot = e.arena.as_mut().expect("checkpointing sizes the arena").store(slice);
        let spill = e.io.plan.take_free_tier().map(|t| e.io.tier_move(t));
        e.trace.end(span);
        (slot, spill)
    }

    /// Re-materializes a checkpointed activation and releases its storage:
    /// P_a all-gathers the slices across the MP group (the extra
    /// all-gather §8 prices at seq·hidden per block). Under P_a+cpu the
    /// slice's spill is settled first, and its fetch back seeds the gather.
    fn restore(&mut self, (slot, spill): Self::Ckpt) -> Result<(), CommError> {
        let e = &mut *self.e;
        let span = e.trace.begin(SpanCategory::Checkpoint, "ckpt-fetch");
        let slice = e.arena.as_ref().expect("arena slot").slot(&slot).to_vec();
        let (cat, bytes) = footprint::ckpt_row(&e.zcfg, slice.len());
        let res = spill.map_or(Ok(()), |s| s.wait().map(drop)).and_then(|()| {
            if e.zcfg.checkpoint_place.partitioned() {
                e.io.start(CollectiveKind::AllGather, slice).wait()
            } else {
                Ok(slice)
            }
        });
        e.trace.end(span);
        e.mem.free(cat, bytes);
        self.x = res?;
        Ok(())
    }

    /// Training: the loss gradient is born here, scaled, and the head's
    /// gradients dispatched. Evaluation: the loss alone.
    fn head(&mut self, p: Vec<f32>, train: bool) -> Result<(), CommError> {
        let e = &mut *self.e;
        let head = 1 + e.gpt.config().layers;
        if !train {
            let span = e.trace.begin(SpanCategory::Compute, "head-loss");
            self.loss = e.gpt.head_loss(&p, &self.x, self.targets, self.local_batch);
            e.trace.end(span);
            self.release(head, p);
            return Ok(());
        }
        let range = e.gpt.layout().units()[head].range.clone();
        let mut grads = vec![0.0; range.len()];
        let span = e.trace.begin(SpanCategory::Compute, "head-fwd-bwd");
        (self.loss, self.dy) = e.gpt.head_fwd_bwd(&p, &self.x, self.targets, &mut grads, self.local_batch);
        e.trace.end(span);
        self.release(head, p);
        self.x = Vec::new();
        // Apply the loss scale to everything downstream of the loss.
        if self.scale != 1.0 {
            for v in self.dy.iter_mut().chain(&mut grads) {
                *v *= self.scale;
            }
        }
        self.e.dispatch_grads(range, grads)
    }

    /// Releases the block's saved activations, runs the kernel, discards
    /// the unit's parameters and dispatches its gradients.
    fn block_bwd(&mut self, l: usize, p: Vec<f32>, saved: BlockSaved) -> Result<(), CommError> {
        let (dy, batch) = (&self.dy, self.local_batch);
        let e = &mut *self.e;
        e.mem.free(MemCategory::Activations, 4 * saved.elems() as u64);
        let range = e.gpt.layout().units()[1 + l].range.clone();
        let mut grads = vec![0.0; range.len()];
        let dx = e.block_pass("block-bwd", |gpt, hook| gpt.block_bwd(l, &p, &saved, dy, &mut grads, batch, hook))?;
        self.dy = dx;
        self.release(1 + l, p);
        self.e.dispatch_grads(range, grads)
    }

    /// Embedding backward, then drain: settle what the plan stamps for the
    /// drain, with the spills queued behind it (nothing in sync mode). The
    /// last planned bucket ends at element 0, so the
    /// embedding's push flushed it and the next micro-batch's head-first
    /// pushes start a fresh descending run.
    fn embed_bwd(&mut self) -> Result<(), CommError> {
        let e = &mut *self.e;
        let range = e.gpt.layout().units()[0].range.clone();
        let mut grads = vec![0.0; range.len()];
        let span = e.trace.begin(SpanCategory::Compute, "embed-bwd");
        e.gpt.embed_backward(self.ids, &self.dy, &mut grads, self.local_batch);
        e.trace.end(span);
        self.dy = Vec::new();
        e.dispatch_grads(range, grads)?;
        e.settle(Settle::Drain)?;
        debug_assert!(e.prefetch.is_none(), "prefetch slot must drain with backward");
        Ok(())
    }
}

#[cfg(test)]
impl RankEngine {
    /// The MD arena, once a checkpointed step has sized it.
    pub(crate) fn arena(&self) -> Option<&ContiguousArena> {
        self.arena.as_ref()
    }
}
