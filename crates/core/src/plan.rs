//! The declarative communication plan (CommPlan IR).
//!
//! ZeRO's schedule is static: which shard is gathered, reduced or spilled,
//! when, over which group and in which wire format is fixed by stage,
//! partition and bucket size before any step runs (§5, §7). [`CommPlan`]
//! *is* that schedule — built from a layout + [`ZeroConfig`] + [`Grid`]
//! alone — and this module's `Builder` is the only place a schedule
//! decision is taken. A [`PlanOp`] carries everything the engine needs to
//! execute it: kind, group, counts, precision and wire format; the
//! [`Reduction`] it applies; its [`OpRole`] (which unit a fetch
//! materializes, the [`ParamStore`] that seeds it and the one it stashes
//! into, and whether it goes out ahead of the previous unit's wait; which
//! flat range of whole units a gradient bucket covers and where its buffer
//! is [`Settle`]d, or which rows of the per-unit [`Partitioner`] a CB
//! chunk does); and the tier movement that rides it ([`TierOp::at`]).
//! No field says whether an op blocks: the engine waits a fetch where its
//! `ahead` and `hold` say, a bucket where its [`Settle`] stamp says, and
//! every other op where it is issued. Counts come from that partition,
//! which splits every unit over the DP group, so every op over parameter
//! space is balanced across its members. What an op sends is described
//! once, message by message ([`ResolvedOp::sends`]); every byte and
//! message count the plan reports is a fold of that list.
//! Beside the two streams the `Builder` records the transient device
//! charges the engine makes running the plan, in walk order, which the
//! memory walk (`crate::footprint`) folds.
//!
//! Training micro-batches and evaluation passes are `crate::walk`'s one
//! walk over the layers: the `Builder` is the walker that records each
//! step's communication, and the engine executes the same walk. A serving
//! step is the same walker's fetches alone, one per unit.
//!
//! The engine interprets this stream through a [`PlanCursor`]: it pops the
//! next op, checks its kind against what it is about to run, and reads
//! everything else — group, counts, reduction, stores — off the op. The op
//! is the only source of those; the engine derives no group and picks no
//! reduction of its own. The cursor still fails loudly on a kind mismatch
//! and on a plan left unfinished.
//!
//! Because the plan is pure data, `zero-verify` can *statically* prove,
//! with zero training steps executed:
//! * rank-symmetry / deadlock-freedom (every pair of ranks agrees on the
//!   subsequence of ops they share, reduction and role included),
//! * group-membership consistency,
//! * per-rank byte volumes matching the paper's formulas (2Ψ·(N−1)/N for
//!   DDP and stages 1–2, ≤ 3Ψ for stage 3, §7).

use std::collections::VecDeque;
use std::convert::Infallible;
use std::ops::Range;

use zero_comm::{
    chunk_range, quant_wire_bytes, CollectiveKind, Grid, Group, NodeTopology, Precision, ReduceOp, TierOrder,
    WireFmt, KIND_COUNT,
};
use zero_model::{BlockDims, Layout};
use zero_tensor::f16::F16;

use crate::config::{CompressionConfig, ZeroConfig, ZeroStage};
use crate::footprint::{self, Charge};
use crate::memory::MemCategory;
use crate::partition::Partitioner;
use crate::walk::{self, Walker};

/// The rank-relative group a planned op runs over. Scopes resolve to
/// concrete [`Group`]s per rank, so one plan describes every rank of the
/// grid (the schedule is SPMD; only the group *instances* differ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanScope {
    /// Every rank of the grid.
    World,
    /// The rank's data-parallel group (same MP column across replicas).
    Dp,
    /// The rank's model-parallel group (contiguous ranks of one replica).
    Mp,
    /// The rank's intra-node group of the two-level all-reduce.
    Node {
        /// Ranks per node G.
        g: usize,
    },
    /// The rank's inter-node group (same node-local slot on every node).
    Cross {
        /// Ranks per node G.
        g: usize,
    },
}

/// How a planned op's per-member element counts are derived at resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CountSpec {
    /// Explicit per-member counts: each member's piece of the op's units
    /// or rows.
    Explicit(Vec<usize>),
    /// `total` elements split evenly (balanced-uneven) over the group.
    Even {
        /// Buffer length in elements.
        total: usize,
    },
    /// The cross-node phase of the hierarchical all-reduce: the buffer is
    /// this rank's node-local chunk of `total`, split evenly over the
    /// cross group. Only valid under [`PlanScope::Cross`].
    NodeChunk {
        /// The full (pre-chunking) buffer length in elements.
        total: usize,
    },
}

/// A rank-resident copy of parameters a fetch reads its piece from or
/// stashes the gathered unit into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamStore {
    /// The rank's primary 1/N_d shard, gathered over [`PlanScope::Dp`].
    Primary,
    /// hpZ: the node-local secondary 1/G shard a unit's first fetch of the
    /// step stashes into, gathered over [`PlanScope::Node`].
    Secondary,
}

/// What a planned op does to the values it moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// Moved unchanged: parameter, publish and checkpoint gathers.
    Copy,
    /// Combined elementwise across the group by the collective.
    Reduce(ReduceOp),
    /// Gathered unchanged, then every element scaled by 1/`over` once: the
    /// node all-gather that closes the two-level all-reduce, whose two
    /// reducing phases sum, averaging over N_d.
    Average {
        /// The divisor N_d.
        over: usize,
    },
}

/// The schedule decision a planned op carries beyond its bytes — what the
/// engine reads off the op instead of deriving it again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpRole {
    /// A buffer the counts fully describe (activations, scalars).
    Plain,
    /// One fused gradient bucket: a run of whole units of flat parameter
    /// space, whose buffer holds every member's part of it in member order,
    /// and where that buffer is settled. The engine flushes its bucket when
    /// the pending gradients span the next planned range.
    Span(Range<usize>, Settle),
    /// One CB chunk (§6.2) of an end-of-step gradient reduction or
    /// parameter publish: a range of rows of the plan's partition (see
    /// [`Partitioner::chunk_slice`]), every member contributing its slice
    /// of them, in member order. The engine runs each chunk's ops over one
    /// staging buffer.
    Chunk(Range<usize>),
    /// The stage-3 materialization of one parameter unit.
    Fetch {
        /// Index of the unit in the layout.
        unit: usize,
        /// The store this rank's piece of the gather is read from.
        from: ParamStore,
        /// The store that keeps its slice of the gathered unit, if any.
        into: Option<ParamStore>,
        /// Issued while the previously fetched unit is still being waited
        /// and computed on — the open prefetch window. A fetch that is
        /// not `ahead` is issued on demand, when its unit is needed.
        ahead: bool,
        /// Held past the walk's release for the unit's next fetch, which
        /// gathers nothing (reuse distance 0), at the precision of the
        /// store that refetch would have read: `Fp16` (an fp16 hpZ store)
        /// rounds the buffer once, `Fp32` keeps it as gathered, as a
        /// gather of the primary shards would gather it again.
        hold: Option<Precision>,
    },
}

/// Where a bucket reduce-scatter is settled: waited with the spill queued
/// behind it, its owner piece landed in the gradient shard and its fused
/// buffer freed (§5.2). The fabric runs a rank's ops in issue order, so
/// at a consumed gather's point the wait is free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Settle {
    /// Right after its flush: a blocking op.
    Flush,
    /// When the gather at this op index, the first one issued ahead behind
    /// it, is consumed.
    Gather(usize),
    /// At the end-of-micro drain: no gather goes out ahead behind it in
    /// its micro-batch.
    Drain,
}

/// One planned collective: kind, scope, counts, accounting precision, and
/// a stable label naming the schedule position it models.
///
/// Plan order is **issue order**. It is also each rank's completion
/// order, since a rank runs its ops on one FIFO, so the static
/// pairwise-agreement check proves deadlock-freedom for the overlapped
/// schedule exactly as for the synchronous one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanOp {
    /// Collective kind (the traffic-accounting category it lands in).
    pub kind: CollectiveKind,
    /// Group the op runs over, relative to the issuing rank.
    pub scope: PlanScope,
    /// Per-member element counts.
    pub counts: CountSpec,
    /// Logical element width for byte accounting.
    pub prec: Precision,
    /// Schedule position, e.g. `"fetch-unit"` or `"overflow-flag"`.
    pub label: &'static str,
    /// Wire encoding (ZeRO++ compression lever, or `Raw`).
    pub wire: WireFmt,
    /// What the op does to the values it moves.
    pub reduce: Reduction,
    /// The decision the engine reads off this op.
    pub role: OpRole,
}

/// A [`PlanOp`] resolved for one concrete rank: explicit members and
/// per-member counts. This is what the static checks compare across ranks
/// and what the engine's [`PlanCursor`] hands to the runtime collectives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedOp {
    /// Collective kind.
    pub kind: CollectiveKind,
    /// Group members in collective order.
    pub members: Vec<usize>,
    /// Element count contributed by / owned by each member (Σ = buffer).
    pub counts: Vec<usize>,
    /// Accounting precision.
    pub prec: Precision,
    /// Schedule position label.
    pub label: &'static str,
    /// Wire encoding (ZeRO++ compression lever, or `Raw`).
    pub wire: WireFmt,
    /// What the op does to the values it moves.
    pub reduce: Reduction,
    /// The decision the engine reads off this op (see [`PlanOp`]).
    pub role: OpRole,
}

impl ResolvedOp {
    /// Total buffer elements (`Σ counts`).
    pub fn total_elems(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The group the op runs over.
    pub fn group(&self) -> Group {
        Group::new(self.members.clone())
    }

    /// `rank`'s `piece`, widened in place into the op's whole buffer at
    /// [`own_piece`](Self::own_piece): the in-place buffer an all-gather
    /// takes. An fp16 [`Reduction::Copy`] gather's piece is read out of an
    /// fp16 store, so every float it sends is an fp16 value (checked in
    /// debug builds); DDP's two-level node gather carries reduced sums.
    pub fn place(&self, rank: usize, mut piece: Vec<f32>) -> Vec<f32> {
        let own = self.own_piece(rank);
        assert_eq!(piece.len(), own.len(), "planned '{}' piece", self.label);
        let fp16 = |x: &f32| F16::from_f32(*x).to_f32().to_bits() == x.to_bits();
        let checked = self.prec == Precision::Fp16 && matches!(self.reduce, Reduction::Copy);
        debug_assert!(!checked || piece.iter().all(fp16), "planned '{}' gathers non-fp16 values", self.label);
        piece.resize(self.total_elems(), 0.0);
        piece.copy_within(0..own.len(), own.start);
        piece
    }

    /// Where `rank`'s piece sits in the op's buffer: what it contributes
    /// to a gather, or what a reduce-scatter leaves it.
    pub fn own_piece(&self, rank: usize) -> Range<usize> {
        let i = self.member_index(rank);
        let start = self.counts[..i].iter().sum();
        start..start + self.counts[i]
    }

    /// The messages `rank` sends running this op, as `(partner, logical
    /// bytes)` in the order the `zero-comm` collective sends them: the one
    /// description of what the op puts on the wire, which the traffic
    /// counters meter message by message.
    ///
    /// A ring (n members, `rank` at index i) sends every message to its
    /// successor: a reduce-scatter the chunks i−1, i−2, …, i+1 (every
    /// chunk but its own), an all-gather i, i−1, …, i+2 (every chunk but
    /// the successor's), an all-reduce both back to back. Under qwZ
    /// (`Int8Block`) an all-gather hop costs its chunk's int8 wire bytes.
    /// qgZ's two-phase reduce-scatter (`QgzInt8`, G per node) sends, in
    /// round d, the raw column of chunks owned by slot `slot + d` on every
    /// node to that node-mate, then, in round d, this slot's quantized
    /// chunk for node `node + d` to that node's same-slot owner. A
    /// zero-length chunk is still a message; a group of one sends none.
    ///
    /// # Panics
    /// Panics if `rank` is not a member, or a compressed wire carries a
    /// kind it does not model (qwZ only all-gathers, qgZ only
    /// reduce-scatters).
    pub fn sends(&self, rank: usize) -> Vec<(usize, u64)> {
        let (n, i, counts) = (self.members.len(), self.member_index(rank), &self.counts);
        if n == 1 {
            return Vec::new();
        }
        let raw = |elems: usize| self.prec.bytes() * elems as u64;
        // One ring phase's n − 1 chunk sizes, from chunk `first` backwards.
        let hops = |first: usize| (0..n - 1).map(move |s| counts[(first + n - s) % n]);
        let next = self.members[(i + 1) % n];
        let wire_only = |kind: CollectiveKind| {
            assert_eq!(self.kind, kind, "{:?} wire cannot carry '{}' ({:?})", self.wire, self.label, self.kind);
        };
        match self.wire {
            WireFmt::Raw => {
                let reduce = (self.kind != CollectiveKind::AllGather).then_some(i + n - 1);
                let gather = (self.kind != CollectiveKind::ReduceScatter).then_some(i);
                reduce.into_iter().chain(gather).flat_map(hops).map(|c| (next, raw(c))).collect()
            }
            WireFmt::Int8Block { block } => {
                wire_only(CollectiveKind::AllGather);
                hops(i).map(|c| (next, quant_wire_bytes(c, block))).collect()
            }
            WireFmt::QgzInt8 { node_size: g, block } => {
                wire_only(CollectiveKind::ReduceScatter);
                let (slot, node, nodes) = (i % g, i / g, n / g);
                let mates = (1..g).map(|d| {
                    let s = (slot + d) % g;
                    (self.members[node * g + s], raw((0..nodes).map(|m| counts[m * g + s]).sum()))
                });
                let peers = (1..nodes).map(|d| {
                    let peer = (node + d) % nodes * g + slot;
                    (self.members[peer], quant_wire_bytes(counts[peer], block))
                });
                mates.chain(peers).collect()
            }
        }
    }

    /// How many messages `rank` sends: [`Self::sends`], counted.
    pub fn sent_messages(&self, rank: usize) -> usize {
        self.sends(rank).len()
    }

    /// Bytes `rank` sends — the exact per-rank cost the `zero-comm`
    /// traffic counters meter: [`Self::sends`], summed.
    pub fn sent_bytes(&self, rank: usize) -> u64 {
        self.sends(rank).iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Bytes `rank` pushes across the slow links of a `g`-rank-per-node
    /// topology: [`Self::sends`] to partners on another node, summed.
    pub fn sent_inter_node_bytes(&self, rank: usize, g: usize) -> u64 {
        self.sends(rank).iter().filter(|&&(partner, _)| partner / g != rank / g).map(|&(_, bytes)| bytes).sum()
    }

    fn member_index(&self, rank: usize) -> usize {
        self.members
            .iter()
            .position(|&m| m == rank)
            .unwrap_or_else(|| panic!("rank {rank} not in planned op '{}'", self.label))
    }
}

/// Where a planned tier movement is issued: against the collective it
/// rides, which also fixes its direction and its order on the rank's
/// host-link lane. The engine issues a riding move together with that op
/// and waits the two together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierAt {
    /// Host → device: a fetch issued right before the all-gather at this
    /// op index, whose piece it brings up (parameter, publish and
    /// checkpoint fetches): the gather's ring starts once it has finished.
    Seeds(usize),
    /// Device → host: a spill issued right behind the reduce-scatter at
    /// this op index, whose reduced piece it takes down (gradient spills
    /// under stages 2–3): it starts once the reduce-scatter has finished.
    Drains(usize),
    /// Device → host: a spill that rides nothing, issued once this many
    /// ops have gone out (P_a+cpu checkpoint spills, stage 1's end-of-step
    /// gradient spill).
    Free(usize),
}

impl TierAt {
    /// True for a host → device fetch, false for a spill.
    pub fn is_fetch(self) -> bool {
        matches!(self, TierAt::Seeds(_))
    }

    /// How the host-link lane orders this movement against the rank's
    /// collectives.
    pub fn order(self) -> TierOrder {
        match self {
            TierAt::Seeds(_) => TierOrder::Seeds,
            TierAt::Drains(_) => TierOrder::Drains,
            TierAt::Free(_) => TierOrder::Free,
        }
    }

    /// The op this movement rides, if any.
    pub fn op(self) -> Option<usize> {
        match self {
            TierAt::Seeds(i) | TierAt::Drains(i) => Some(i),
            TierAt::Free(_) => None,
        }
    }

    /// How many collective ops are issued before this movement is.
    pub fn issue_pos(self) -> usize {
        match self {
            TierAt::Seeds(i) | TierAt::Free(i) => i,
            TierAt::Drains(i) => i + 1,
        }
    }

    /// The same anchor in a plan appended behind `base` ops.
    fn shifted(self, base: usize) -> TierAt {
        match self {
            TierAt::Seeds(i) => TierAt::Seeds(i + base),
            TierAt::Drains(i) => TierAt::Drains(i + base),
            TierAt::Free(i) => TierAt::Free(i + base),
        }
    }
}

/// One planned host↔device tier movement (ZeRO-Offload traffic). Tier ops
/// form a second stream alongside the collective ops, in issue order; each
/// is anchored ([`TierAt`]) to the collective it seeds or drains, or to a
/// position when it rides none, which is how the runtime cursor hands it
/// to the engine: together with that op, or at that position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierOp {
    /// Schedule position, e.g. `"tier-param-fetch"`.
    pub label: &'static str,
    /// Elements moved by each world rank — a DP shard piece or a P_a
    /// checkpoint slice: per-rank volumes, not collective group counts.
    pub counts: Vec<usize>,
    /// Bytes per element on the tier link.
    pub elem_bytes: u64,
    /// Where it is issued, and so which way it moves.
    pub at: TierAt,
}

/// A [`TierOp`] resolved for one concrete rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedTierOp {
    /// Schedule position label.
    pub label: &'static str,
    /// Bytes this rank moves across the tier link.
    pub bytes: u64,
    /// Where it is issued (see [`TierOp::at`]).
    pub at: TierAt,
}

/// The shape parameters a step plan depends on beyond config and layout.
#[derive(Clone, Copy, Debug)]
pub struct StepShape {
    /// Gradient-accumulation micro-batches in the step.
    pub micro_batches: usize,
    /// Elements of one block activation (`local_batch · seq · hidden`) —
    /// the buffer every MP all-reduce and P_a gather moves.
    pub act_elems: usize,
    /// Whether the optimizer update is skipped (fp16 overflow). The
    /// schedule is data-dependent at exactly this one point: skipped steps
    /// run neither the grad-norm reduction nor the parameter publish.
    pub skipped: bool,
}

/// An ordered communication schedule for one grid, buildable without
/// running any training.
#[derive(Clone, Debug)]
pub struct CommPlan {
    grid: Grid,
    ops: Vec<PlanOp>,
    tier: Vec<TierOp>,
    /// The transient device charges the engine makes executing the plan,
    /// in walk order: what the memory walk folds.
    pub(crate) charges: Vec<Charge>,
}

/// Which state classes cross the memory tier. [`ZeroConfig::check`] says
/// which *may*: each model state by the tier flag gated by the stage that
/// owns it (§3: optimizer states at stage ≥ 1, gradients ≥ 2, parameters
/// 3), P_a+cpu checkpoints (§6.1) by their own switch.
/// [`CommPlan::placement`] says which *do*: the same, except that the
/// stage-3 parameter shard stays on the device when the step's memory walk
/// fits the budget with it there. The plan builder turns a placement
/// into tier ops; the engine prices memory residency (host vs device) from
/// the placement its first step planned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EffectiveOffload {
    /// Master params + Adam moments live in the host tier; the optimizer
    /// updates there (grad shards spill down, updated params fetch up).
    pub opt_state: bool,
    /// Reduced gradient shards spill to the host tier bucket by bucket.
    pub grads: bool,
    /// The stage-3 working parameter shard lives in the host tier: every
    /// gather of the primary shards first fetches the local piece up.
    /// When it does not under a host optimizer (`opt_state`), the shard
    /// stays on the device and the updated piece climbs once a step,
    /// riding its unit's first gather.
    pub params: bool,
    /// P_a+cpu: checkpoint slices spill when stored, fetch back at restore.
    pub checkpoints: bool,
}

impl EffectiveOffload {
    /// True if any state class crosses the tier.
    pub fn any(&self) -> bool {
        self.opt_state || self.grads || self.params || self.checkpoints
    }
}

/// Internal builder state shared by the plan constructors.
struct Builder {
    zcfg: ZeroConfig,
    grid: Grid,
    /// Flat range of every unit: embed, blocks…, head.
    units: Vec<Range<usize>>,
    ops: Vec<PlanOp>,
    /// The per-unit partition of the model states over the DP group — one
    /// owner under DDP, whose states are replicated.
    part: Partitioner,
    prec: Precision,
    /// hpZ secondary partition: every unit over the G ranks of a node.
    sec_part: Partitioner,
    /// Units gathered from the primary shards so far this step. Parameters
    /// only change at the optimizer step, so under hpZ their secondary copy
    /// is populated and re-fetches resolve intra-node; with the parameter
    /// shard on the device, their updated piece has climbed from the host.
    gathered: Vec<bool>,
    /// The double-buffered prefetch slot: the unit whose gather was issued
    /// ahead of use, with the index of that op.
    slot: Option<(usize, usize)>,
    /// The unit this micro-batch computed on last and the index of the
    /// gather that materialized it: the one a hold can keep.
    last: Option<(usize, usize)>,
    /// The unit held for its next fetch, which gathers nothing.
    held: Option<usize>,
    /// The charge that released the unit computed on last: a hold takes
    /// it back, and the buffer stays charged until the release after the
    /// unit's next fetch.
    released: Option<usize>,
    /// Bucket reduce-scatters whose fused buffers are charged, in issue
    /// order, each until the point its [`Settle`] names.
    inflight: Vec<usize>,
    /// Every transient device charge the engine makes as it runs the walk
    /// recorded so far, in its order.
    charges: Vec<Charge>,
    /// One block's dimensions at batch 1, which size its kept activations.
    block: BlockDims,
    /// The placement: which state classes cross the tier.
    off: EffectiveOffload,
    /// The tier-movement stream being built alongside `ops`.
    tier: Vec<TierOp>,
    /// The gradient bucket (§5.2 bucketization, §6.2 CB): the flat range
    /// of the gradients backward has produced since the last flush. Unit
    /// spans arrive descending and contiguous, and the fused range is cut
    /// whenever it reaches `bucket_elems`, so a fused buffer never exceeds
    /// that plus one unit. This is the only flush trigger in the system;
    /// the engine's [`GradBucket`](crate::bucket::GradBucket) fuses
    /// whatever range the planned reduce-scatter names.
    bucket: Option<Range<usize>>,
    /// Elements of one block activation: what every MP all-reduce and P_a
    /// gather of the walk moves.
    act_elems: usize,
}

impl Builder {
    fn new(layout: &Layout, zcfg: &ZeroConfig, grid: Grid) -> Builder {
        let off = zcfg.check(grid).unwrap_or_else(|e| panic!("{e}"));
        Builder {
            zcfg: *zcfg,
            grid,
            units: layout.units().iter().map(|u| u.range.clone()).collect(),
            ops: Vec::new(),
            part: Partitioner::per_unit(layout, zcfg.dp_owners(grid)),
            prec: if zcfg.fp16 { Precision::Fp16 } else { Precision::Fp32 },
            sec_part: Partitioner::per_unit(layout, zcfg.node_size),
            gathered: vec![false; layout.units().len()],
            slot: None,
            last: None,
            held: None,
            released: None,
            inflight: Vec::new(),
            charges: Vec::new(),
            block: layout.block_dims(1),
            bucket: None,
            off,
            tier: Vec::new(),
            act_elems: 0,
        }
    }

    /// Pushes a tier movement anchored at `at`. Returns its index in the
    /// tier stream.
    fn tier_op(&mut self, label: &'static str, counts: Vec<usize>, at: TierAt) -> usize {
        self.tier.push(TierOp { label, counts, elem_bytes: self.prec.bytes(), at });
        self.tier.len() - 1
    }

    /// Records `bytes` allocated in (or freed from) `cat` on every rank.
    fn charge(&mut self, alloc: bool, cat: MemCategory, bytes: u64) {
        self.charges.push(Charge { alloc, cat, bytes: vec![bytes] });
    }

    /// Charges a gathered unit `u`'s buffer: the whole unit, fp32.
    fn unit_charge(&mut self, alloc: bool, u: usize) {
        self.charge(alloc, MemCategory::Buffers, 4 * self.units[u].len() as u64);
    }

    /// Frees the fused buffers of the bucket reduce-scatters in flight
    /// that are settled at `point`.
    fn settle(&mut self, point: Settle) {
        let (ops, charges) = (&self.ops, &mut self.charges);
        self.inflight.retain(|&rs| match &ops[rs].role {
            OpRole::Span(span, at) if *at == point => {
                charges.push(Charge { alloc: false, cat: MemCategory::Buffers, bytes: vec![4 * span.len() as u64] });
                false
            }
            _ => true,
        });
    }

    /// Pushes a blocking raw-wire op at the step's precision and returns
    /// it for the callers that set more.
    fn op(
        &mut self,
        kind: CollectiveKind,
        scope: PlanScope,
        counts: CountSpec,
        reduce: Reduction,
        label: &'static str,
        role: OpRole,
    ) -> &mut PlanOp {
        let (prec, wire) = (self.prec, WireFmt::Raw);
        self.ops.push(PlanOp { kind, scope, counts, prec, label, wire, reduce, role });
        self.ops.last_mut().expect("op just pushed")
    }

    /// Pushes a parameter fetch (copied) or a bucket reduce-scatter
    /// (averaged over N_d) on `wire`. Where the engine waits it is its
    /// role's: a fetch's `ahead`, a bucket's [`Settle`].
    fn shard_op(&mut self, kind: CollectiveKind, scope: PlanScope, counts: Vec<usize>, label: &'static str, wire: WireFmt, role: OpRole) {
        let reduce = match kind {
            CollectiveKind::ReduceScatter => Reduction::Reduce(ReduceOp::Mean),
            _ => Reduction::Copy,
        };
        self.op(kind, scope, CountSpec::Explicit(counts), reduce, label, role).wire = wire;
    }

    /// Issues unit `u`'s parameter all-gather (§5.3): every DP shard's
    /// piece of the unit. Under hpZ the *first* fetch of a
    /// unit in the step is the global gather (qwZ wire if enabled) that
    /// also stashes into the node-local secondary store; every later fetch
    /// of the same unit is seeded by that store and resolves inside the
    /// node. Returns the gather's index.
    fn issue_fetch(&mut self, u: usize, ahead: bool) -> usize {
        let unit = self.units[u].clone();
        let comp = self.zcfg.compression;
        let first = !self.gathered[u];
        let (scope, counts, wire, from, into) = if comp.hpz && !first {
            let node = PlanScope::Node { g: self.zcfg.node_size };
            (node, self.sec_part.intersect_counts(&unit), WireFmt::Raw, ParamStore::Secondary, None)
        } else {
            self.gathered[u] = true;
            let wire = if comp.qwz {
                WireFmt::Int8Block { block: CompressionConfig::BLOCK }
            } else {
                WireFmt::Raw
            };
            let into = comp.hpz.then_some(ParamStore::Secondary);
            (PlanScope::Dp, self.part.intersect_counts(&unit), wire, ParamStore::Primary, into)
        };
        // The local shard piece of the unit climbs host → device right
        // before it seeds the all-gather (the FIFO serializes the two, so
        // both hide behind compute together under overlap): at every
        // gather of a host-resident shard, else at the unit's first gather
        // of the step, bringing up what the host optimizer updated. An hpZ
        // refetch reads the device-resident secondary store: nothing
        // crosses.
        let climbs = self.off.params || (self.off.opt_state && first);
        if climbs && from == ParamStore::Primary {
            self.tier_op("tier-param-fetch", counts.clone(), TierAt::Seeds(self.ops.len()));
        }
        let (at, role) = (self.ops.len(), OpRole::Fetch { unit: u, from, into, ahead, hold: None });
        self.shard_op(CollectiveKind::AllGather, scope, counts, "fetch-unit", wire, role);
        self.unit_charge(true, u);
        if ahead {
            // Every reduce-scatter in flight that no earlier gather settles
            // is settled as this one is consumed.
            for &rs in &self.inflight {
                if let OpRole::Span(_, settle @ Settle::Drain) = &mut self.ops[rs].role {
                    *settle = Settle::Gather(at);
                }
            }
        }
        at
    }

    /// An MP-group collective over one block activation buffer.
    fn mp_op(&mut self, kind: CollectiveKind, reduce: Reduction, label: &'static str) {
        let counts = CountSpec::Even { total: self.act_elems };
        self.op(kind, PlanScope::Mp, counts, reduce, label, OpRole::Plain);
    }

    /// A one-element fp32 all-reduce: the overflow flag (max), the grad
    /// norm (sum).
    fn scalar_all_reduce(&mut self, scope: PlanScope, reduce: ReduceOp, label: &'static str) {
        let (one, reduce) = (CountSpec::Even { total: 1 }, Reduction::Reduce(reduce));
        self.op(CollectiveKind::AllReduce, scope, one, reduce, label, OpRole::Plain).prec = Precision::Fp32;
    }

    /// One block pass's Megatron hooks: two MP all-reduces (sums) of the
    /// activation buffer (§8: two in forward, two in backward, and two
    /// more per recomputed block).
    fn mp_block_pass(&mut self) {
        for _ in 0..2 {
            self.mp_op(CollectiveKind::AllReduce, Reduction::Reduce(ReduceOp::Sum), "mp-block-allreduce");
        }
    }

    /// Stages 2/3 gradient dispatch: add unit `u`'s span to the bucket and
    /// emit one reduce-scatter when it reaches capacity.
    fn dispatch_grads(&mut self, u: usize) {
        if !self.zcfg.stage.partitions_grads() {
            return;
        }
        let unit = &self.units[u];
        let end = self.bucket.take().map_or(unit.end, |pending| {
            assert_eq!(unit.end, pending.start, "plan bucket: spans must be descending-contiguous");
            pending.end
        });
        let fused = unit.start..end;
        if fused.len() >= self.zcfg.bucket_elems {
            self.grad_flush(fused);
        } else {
            self.bucket = Some(fused);
        }
    }

    /// Emits one bucket reduce-scatter of `fused`, and under gradient
    /// offload the spill of each rank's reduced piece of it to the host
    /// optimizer, anchored [`TierAt::Drains`] on that reduce-scatter in
    /// both modes: the host-link lane starts the spill once the
    /// reduce-scatter has finished, and the engine waits the spill right
    /// after it, where it settles the reduce-scatter. A blocking one is settled at its
    /// flush; an overlapped one at the drain until a gather issued ahead
    /// behind it takes it over.
    fn grad_flush(&mut self, fused: Range<usize>) {
        let counts = self.part.intersect_counts(&fused);
        let comp = self.zcfg.compression;
        let wire = if comp.qgz {
            WireFmt::QgzInt8 { node_size: self.zcfg.node_size, block: CompressionConfig::BLOCK }
        } else {
            WireFmt::Raw
        };
        let (rs, bytes) = (self.ops.len(), 4 * fused.len() as u64);
        let settle = if self.zcfg.overlap { Settle::Drain } else { Settle::Flush };
        let kind = CollectiveKind::ReduceScatter;
        self.shard_op(kind, PlanScope::Dp, counts.clone(), "grad-bucket", wire, OpRole::Span(fused, settle));
        self.charge(true, MemCategory::Buffers, bytes);
        self.inflight.push(rs);
        self.settle(Settle::Flush);
        if self.off.grads {
            self.tier_op("tier-grad-spill", counts, TierAt::Drains(rs));
        }
    }

    /// The partition's rows in constant-size (CB, §6.2) chunks of at most
    /// `bucket_elems` elements over all members — the staging granularity
    /// of every end-of-step collective. One owner (DDP) has a row per flat
    /// element.
    fn chunks(&self) -> impl Iterator<Item = Range<usize>> {
        let (rows, step) = (self.part.counts()[0], (self.zcfg.bucket_elems / self.part.owners()).max(1));
        (0..rows).step_by(step).map(move |start| start..(start + step).min(rows))
    }

    /// Charges a CB chunk's staging buffer of `elems` elements for its
    /// ops alone.
    fn stage_chunk(&mut self, elems: usize) {
        self.charge(true, MemCategory::Buffers, 4 * elems as u64);
        self.charge(false, MemCategory::Buffers, 4 * elems as u64);
    }

    /// Each world rank's slice of one checkpoint, and the charge of
    /// storing it (`alloc`) or restoring it, in the category
    /// [`footprint::ckpt_row`] names.
    fn charge_ckpt(&mut self, alloc: bool) -> Vec<usize> {
        let (grid, act_elems, place) = (self.grid, self.act_elems, self.zcfg.checkpoint_place);
        let counts: Vec<usize> =
            (0..grid.world_size()).map(|r| place.slice(act_elems, grid.mp_degree(), grid.coords(r).1).len()).collect();
        let (cat, _) = footprint::ckpt_row(&self.zcfg, 0);
        let bytes = counts.iter().map(|&n| footprint::ckpt_row(&self.zcfg, n).1).collect();
        self.charges.push(Charge { alloc, cat, bytes });
        counts
    }

    /// Bytes of one block's kept activations.
    fn saved_bytes(&self) -> u64 {
        let batch = self.act_elems / (self.block.seq * self.block.hidden);
        4 * BlockDims { batch, ..self.block }.saved_elems() as u64
    }

    /// Every member's slice of chunk `rows`.
    fn chunk_counts(&self, rows: &Range<usize>) -> Vec<usize> {
        (0..self.part.owners()).map(|i| self.part.chunk_slice(i, rows.clone()).len()).collect()
    }

    /// End-of-step gradient reduction for the non-bucketed stages, chunk
    /// by chunk: DDP all-reduces (flat or two-level), stage 1
    /// reduce-scatters each chunk to its shard owners. Every path averages
    /// over N_d exactly once.
    fn grad_reduce(&mut self) {
        if self.zcfg.stage.partitions_grads() {
            return;
        }
        use CollectiveKind::{AllGather, AllReduce, ReduceScatter};
        let (sum, mean) = (Reduction::Reduce(ReduceOp::Sum), Reduction::Reduce(ReduceOp::Mean));
        let average = Reduction::Average { over: self.grid.dp_degree() };
        for chunk in self.chunks() {
            let total = chunk.len();
            let ops = match (self.zcfg.stage, self.zcfg.node_size) {
                (ZeroStage::One, _) => {
                    let counts = CountSpec::Explicit(self.chunk_counts(&chunk));
                    vec![(ReduceScatter, PlanScope::Dp, counts, mean, "grad-reduce-scatter")]
                }
                // DDP's two-level all-reduce: node reduce-scatter,
                // cross-node all-reduce of the owned chunk, node all-gather
                // — summed through, then averaged over N_d once.
                (_, g) if g > 1 => vec![
                    (ReduceScatter, PlanScope::Node { g }, CountSpec::Even { total }, sum, "hier-node-rs"),
                    (AllReduce, PlanScope::Cross { g }, CountSpec::NodeChunk { total }, sum, "hier-cross-ar"),
                    (AllGather, PlanScope::Node { g }, CountSpec::Even { total }, average, "hier-node-ag"),
                ],
                _ => {
                    vec![(AllReduce, PlanScope::Dp, CountSpec::Even { total }, mean, "grad-allreduce")]
                }
            };
            self.stage_chunk(match &ops[0].2 {
                CountSpec::Explicit(v) => v.iter().sum(),
                _ => total,
            });
            for (kind, scope, counts, reduce, label) in ops {
                self.op(kind, scope, counts, reduce, label, OpRole::Chunk(chunk.clone()));
            }
        }
    }

    /// Stage 1/2 parameter publish: all-gather updated shards chunk by
    /// chunk.
    fn publish(&mut self) {
        if !matches!(self.zcfg.stage, ZeroStage::One | ZeroStage::Two) {
            return;
        }
        for chunk in self.chunks() {
            let counts = self.chunk_counts(&chunk);
            if self.off.opt_state {
                // The host optimizer's freshly updated fp16 shard piece
                // climbs host → device to seed the publish all-gather.
                self.tier_op("tier-publish-fetch", counts.clone(), TierAt::Seeds(self.ops.len()));
            }
            self.stage_chunk(counts.iter().sum());
            let (kind, counts) = (CollectiveKind::AllGather, CountSpec::Explicit(counts));
            self.op(kind, PlanScope::Dp, counts, Reduction::Copy, "publish-params", OpRole::Chunk(chunk));
        }
    }

    /// Seals the builder into a plan, checking the walk left nothing
    /// half-scheduled: the prefetch slot was consumed and no unit is still
    /// held.
    fn finish(self) -> CommPlan {
        debug_assert!(self.slot.is_none(), "plan builder: a prefetched unit was never consumed");
        debug_assert!(self.held.is_none(), "plan builder: a held unit was never fetched again");
        debug_assert!(self.inflight.is_empty(), "plan builder: a reduce-scatter was never settled");
        CommPlan { grid: self.grid, ops: self.ops, tier: self.tier, charges: self.charges }
    }
}

/// The plan side of the walk: each step records the communication it
/// implies and the transient device charges the engine makes for it.
/// Units and activations are nothing here; a checkpoint is the index of
/// its P_a+cpu spill in the tier stream, if it has one.
impl Walker for Builder {
    type Unit = ();
    type Saved = ();
    type Ckpt = Option<usize>;
    type Error = Infallible;

    /// Stage-3 materialization of unit `u` at the point the engine
    /// computes on it. `u`'s gather comes out of the prefetch slot, or is
    /// issued now on demand; as it is consumed, the reduce-scatters it
    /// settles are. With overlap, `next`'s gather is then issued into the
    /// slot *before* `u`'s is waited, so the next unit's communication
    /// rides under this unit's compute — the double-buffered one-ahead
    /// window. Without overlap the slot stays empty and every fetch is on
    /// demand.
    ///
    /// When `next` is the unit the micro-batch computed on just before
    /// `u` — the last block, when the backward opens on it: without
    /// checkpointing, or when the last segment is that block alone, as at
    /// interval 1 — that unit's gather is marked held instead of issued
    /// again, and its next fetch gathers nothing. The window
    /// keeps two units, the held block and `u`, where a refetch would
    /// keep `u` and the block in flight; without overlap the window is
    /// one unit and nothing is held.
    fn fetch(&mut self, u: usize, next: Option<usize>) -> Result<(), Infallible> {
        if !self.zcfg.stage.partitions_params() {
            self.unit_charge(true, u);
            return Ok(());
        }
        let at = if self.held.take_if(|held| *held == u).is_some() {
            None
        } else if let Some((unit, at)) = self.slot.take() {
            assert_eq!(unit, u, "plan builder: prefetch slot holds a different unit");
            Some(at)
        } else {
            Some(self.issue_fetch(u, false))
        };
        if let Some(at) = at {
            self.settle(Settle::Gather(at));
        }
        let last = std::mem::replace(&mut self.last, at.map(|at| (u, at)));
        if !self.zcfg.overlap {
            return Ok(());
        }
        match (next, last) {
            (Some(v), Some((w, at))) if v == w => {
                // An hpZ refetch would read the secondary store, at the
                // step's precision; any other would gather these values.
                let image = if self.zcfg.compression.hpz { self.prec } else { Precision::Fp32 };
                if let OpRole::Fetch { hold, .. } = &mut self.ops[at].role {
                    *hold = Some(image);
                }
                self.held = Some(v);
                self.charges.remove(self.released.take().expect("the walk released the unit it holds"));
            }
            (Some(v), _) => self.slot = Some((v, self.issue_fetch(v, true))),
            (None, _) => {}
        }
        Ok(())
    }

    fn release(&mut self, u: usize, (): ()) {
        self.released = Some(self.charges.len());
        self.unit_charge(false, u);
    }

    fn embed(&mut self, (): ()) -> Result<(), Infallible> {
        self.release(0, ());
        Ok(())
    }

    /// Two MP hooks per block pass, forward or recompute.
    fn block_fwd(&mut self, _: usize, (): &(), _: bool) -> Result<(), Infallible> {
        self.mp_block_pass();
        Ok(())
    }

    fn keep(&mut self, (): ()) {
        self.charge(true, MemCategory::Activations, self.saved_bytes());
    }

    /// P_a+cpu: each rank's 1/N_m slice spills, riding no collective.
    fn store_checkpoint(&mut self) -> Option<usize> {
        let counts = self.charge_ckpt(true);
        let counts = self.off.checkpoints.then_some(counts)?;
        Some(self.tier_op("tier-ckpt-spill", counts, TierAt::Free(self.ops.len())))
    }

    /// P_a checkpoint re-materialization: all-gather the 1/N_m slices
    /// across the MP group (§6.1), P_a+cpu's spill settled and its slice
    /// fetched back to seed the gather.
    fn restore(&mut self, spill: Option<usize>) -> Result<(), Infallible> {
        if let Some(spill) = spill {
            let counts = self.tier[spill].counts.clone();
            self.tier_op("tier-ckpt-fetch", counts, TierAt::Seeds(self.ops.len()));
        }
        if self.zcfg.checkpoint_place.partitioned() {
            self.mp_op(CollectiveKind::AllGather, Reduction::Copy, "ckpt-gather");
        }
        self.charge_ckpt(false);
        Ok(())
    }

    /// Training: head forward+backward births the first gradients.
    fn head(&mut self, (): (), train: bool) -> Result<(), Infallible> {
        self.release(self.units.len() - 1, ());
        if train {
            self.dispatch_grads(self.units.len() - 1);
        }
        Ok(())
    }

    fn block_bwd(&mut self, l: usize, (): (), (): ()) -> Result<(), Infallible> {
        self.charge(false, MemCategory::Activations, self.saved_bytes());
        self.mp_block_pass();
        self.release(1 + l, ());
        self.dispatch_grads(1 + l);
        Ok(())
    }

    /// Embedding backward, then flush what the bucket holds for the next
    /// micro-batch: the engine waits every reduce-scatter still in flight,
    /// and the spill queued behind each, at the end-of-micro drain.
    fn embed_bwd(&mut self) -> Result<(), Infallible> {
        self.last = None;
        self.dispatch_grads(0);
        if let Some(rest) = self.bucket.take() {
            self.grad_flush(rest);
        }
        self.settle(Settle::Drain);
        Ok(())
    }
}

impl CommPlan {
    /// The deterministic prefix of a training step: every micro-batch's
    /// forward/backward comm, the end-of-step gradient reduction, and the
    /// world-wide overflow-flag all-reduce. Everything up to (and
    /// including) the point where the skip decision becomes known. Its tier
    /// stream follows the step's [`placement`](Self::placement).
    pub fn step_prefix(
        layout: &Layout,
        zcfg: &ZeroConfig,
        grid: Grid,
        micro_batches: usize,
        act_elems: usize,
    ) -> CommPlan {
        let off = CommPlan::placement(layout, zcfg, grid, micro_batches, act_elems);
        CommPlan::prefix_placed(layout, zcfg, grid, micro_batches, act_elems, off)
    }

    /// [`Self::step_prefix`] under a given placement: the engine's, which
    /// its first step fixes.
    pub(crate) fn prefix_placed(
        layout: &Layout,
        zcfg: &ZeroConfig,
        grid: Grid,
        micro_batches: usize,
        act_elems: usize,
        off: EffectiveOffload,
    ) -> CommPlan {
        assert!(micro_batches > 0, "need at least one micro-batch");
        let mut b = Builder { act_elems, off, ..Builder::new(layout, zcfg, grid) };
        for _ in 0..micro_batches {
            let Ok(()) = walk::micro(&mut b, layout.units().len() - 2, walk::interval(zcfg), true);
        }
        b.grad_reduce();
        b.scalar_all_reduce(PlanScope::World, ReduceOp::Max, "overflow-flag");
        b.finish()
    }

    /// The data-dependent suffix of a training step, given the skip
    /// outcome: the global grad-norm reduction (when clipping) and the
    /// parameter publish — both absent on skipped steps.
    pub fn step_suffix(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, skipped: bool) -> CommPlan {
        let mut b = Builder::new(layout, zcfg, grid);
        if !skipped {
            if b.off.opt_state && !zcfg.stage.partitions_grads() {
                // Stage 1: gradients were reduced into the full device
                // buffer; the optimizer's shard piece spills to the host
                // before the update (stages 2–3 spilled bucket by bucket
                // during accumulation). It rides no collective.
                let counts = b.part.counts().to_vec();
                b.tier_op("tier-grad-spill", counts, TierAt::Free(0));
            }
            if zcfg.clip_grad_norm.is_some() {
                let scope = if zcfg.stage.partitions_optimizer() {
                    // Shard contributions sum across the whole world.
                    PlanScope::World
                } else {
                    // DDP already holds full DP-averaged grads; only MP
                    // contributions remain to be summed.
                    PlanScope::Mp
                };
                b.scalar_all_reduce(scope, ReduceOp::Sum, "grad-norm");
            }
            b.publish();
        }
        b.finish()
    }

    /// One whole training step (prefix + suffix) for a known skip outcome
    /// — what the static checker and the conformance tests consume.
    pub fn train_step(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, shape: &StepShape) -> CommPlan {
        let mut plan = CommPlan::step_prefix(layout, zcfg, grid, shape.micro_batches, shape.act_elems);
        let suffix = CommPlan::step_suffix(layout, zcfg, grid, shape.skipped);
        let base = plan.ops.len();
        plan.ops.extend(suffix.ops);
        plan.tier.extend(suffix.tier.into_iter().map(|t| TierOp { at: t.at.shifted(base), ..t }));
        plan.charges.extend(suffix.charges);
        plan
    }

    /// A forward-only evaluation pass: the forward walk of a micro-batch
    /// and the head, which reduces nothing.
    pub fn eval_pass(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, act_elems: usize) -> CommPlan {
        let mut b = Builder { act_elems, ..Builder::new(layout, zcfg, grid) };
        let Ok(()) = walk::micro(&mut b, layout.units().len() - 2, None, false);
        b.finish()
    }

    /// The standalone parameter re-publish a snapshot restore performs.
    pub fn publish_refresh(layout: &Layout, zcfg: &ZeroConfig, grid: Grid) -> CommPlan {
        let mut b = Builder::new(layout, zcfg, grid);
        b.publish();
        b.finish()
    }

    /// One shard-hosted *serving* step over `n` inference ranks: the
    /// stage-3 fetch schedule (§5.3) of every unit (embed, blocks…, head)
    /// in walk order, and no gradient or optimizer traffic. The `Builder`
    /// records it as a forward walk's fetches over the contiguous serving
    /// partition ([`Partitioner::new`]), fp32 and raw: with `overlap` each
    /// gather after the first goes out ahead, one unit before it is used,
    /// through the same `Walker::fetch` that decides training's window.
    pub fn serve_step(layout: &Layout, n: usize, overlap: bool) -> CommPlan {
        assert!(n > 0, "serving world must be non-empty");
        let (grid, zcfg) = (Grid::new(n, 1), ZeroConfig { overlap, ..ZeroConfig::fp32_exact(ZeroStage::Three) });
        let mut b = Builder { part: Partitioner::new(layout.total_params(), n), ..Builder::new(layout, &zcfg, grid) };
        let units = layout.units().len();
        for u in 0..units {
            let Ok(()) = b.fetch(u, (u + 1 < units).then_some(u + 1));
        }
        b.finish()
    }

    /// The slack ε of [`Self::serve_param_bound`]: the share of a full
    /// replica a serving rank may hold beyond its 2/N, for the unit window.
    pub const SERVE_EPSILON: f64 = 0.10;

    /// The §5.3 bound on a serving rank's parameter bytes over a model of
    /// `params` elements: 4Ψ·(2/N + ε), truncated to whole bytes.
    pub fn serve_param_bound(params: usize, n: usize) -> u64 {
        (4.0 * params as f64 * (2.0 / n as f64 + Self::SERVE_EPSILON)) as u64
    }

    /// The grid this plan is for.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The scope-relative ops in schedule order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// The tier-movement stream in submission order (empty unless the
    /// config offloads to the memory tier).
    pub fn tier_ops(&self) -> &[TierOp] {
        &self.tier
    }

    /// Resolves the tier stream for one concrete rank: tier counts are per
    /// world rank, so the rank indexes them directly.
    ///
    /// # Panics
    /// Panics if `rank` is outside the grid.
    pub fn resolve_tier_for(&self, rank: usize) -> Vec<ResolvedTierOp> {
        let world = self.grid.world_size();
        assert!(rank < world, "rank {rank} outside grid of {world}");
        self.tier
            .iter()
            .map(|t| {
                assert_eq!(t.counts.len(), world, "tier counts cover every world rank");
                ResolvedTierOp { label: t.label, bytes: t.elem_bytes * t.counts[rank] as u64, at: t.at }
            })
            .collect()
    }

    /// Analytic tier bytes `rank` moves executing this plan, as
    /// `(fetch_bytes, spill_bytes)` — directly comparable to a
    /// [`crate::tier::TierStats`].
    pub fn rank_tier_bytes(&self, rank: usize) -> (u64, u64) {
        let (mut fetch, mut spill) = (0, 0);
        for t in self.resolve_tier_for(rank) {
            if t.at.is_fetch() {
                fetch += t.bytes;
            } else {
                spill += t.bytes;
            }
        }
        (fetch, spill)
    }

    /// Resolves the schedule for one concrete rank: explicit group members
    /// and per-member counts for every op.
    ///
    /// # Panics
    /// Panics if `rank` is outside the grid. (A `Node`/`Cross` scope's node
    /// size divides the world: [`ZeroConfig::check`] refused it otherwise.)
    pub fn resolve_for(&self, rank: usize) -> Vec<ResolvedOp> {
        let world = self.grid.world_size();
        assert!(rank < world, "rank {rank} outside grid of {world}");
        self.ops
            .iter()
            .map(|op| {
                let group = match op.scope {
                    PlanScope::World => Group::world(world),
                    PlanScope::Dp => self.grid.dp_group(rank),
                    PlanScope::Mp => self.grid.mp_group(rank),
                    PlanScope::Node { g } => NodeTopology::new(g).node_group(rank),
                    PlanScope::Cross { g } => NodeTopology::new(g).cross_group(rank, world),
                };
                let n = group.len();
                let counts: Vec<usize> = match &op.counts {
                    CountSpec::Explicit(v) => {
                        assert_eq!(v.len(), n, "explicit counts match group size");
                        v.clone()
                    }
                    CountSpec::Even { total } => {
                        (0..n).map(|i| chunk_range(*total, n, i).len()).collect()
                    }
                    CountSpec::NodeChunk { total } => {
                        let g = match op.scope {
                            PlanScope::Cross { g } => g,
                            other => panic!("NodeChunk counts need a Cross scope, got {other:?}"),
                        };
                        // This rank's node-local chunk is the cross-phase
                        // buffer; every member of the cross group shares
                        // the same node-local slot, hence the same length.
                        let slot_len = chunk_range(*total, g, rank % g).len();
                        (0..n).map(|i| chunk_range(slot_len, n, i).len()).collect()
                    }
                };
                ResolvedOp {
                    kind: op.kind,
                    members: group.members().to_vec(),
                    counts,
                    prec: op.prec,
                    label: op.label,
                    wire: op.wire,
                    reduce: op.reduce,
                    role: op.role.clone(),
                }
            })
            .collect()
    }

    /// Analytic bytes `rank` sends executing this plan, by collective kind
    /// — directly comparable to a [`zero_comm::TrafficSnapshot`].
    pub fn rank_bytes(&self, rank: usize) -> [u64; KIND_COUNT] {
        let mut out = [0u64; KIND_COUNT];
        for op in self.resolve_for(rank) {
            out[op.kind as usize] += op.sent_bytes(rank);
        }
        out
    }

    /// Analytic messages `rank` sends, by collective kind.
    pub fn rank_messages(&self, rank: usize) -> [u64; KIND_COUNT] {
        let mut out = [0u64; KIND_COUNT];
        for op in self.resolve_for(rank) {
            out[op.kind as usize] += op.sent_messages(rank) as u64;
        }
        out
    }

    /// Total analytic bytes `rank` sends executing this plan.
    pub fn total_rank_bytes(&self, rank: usize) -> u64 {
        self.rank_bytes(rank).iter().sum()
    }

    /// The sum over ops of the most bytes any one member sends: the plan's
    /// critical-path volume when each rank's link is its own. With every op
    /// balanced it is, to rounding, what each rank sends
    /// ([`Self::total_rank_bytes`]); ops left owner-only push it toward N×
    /// that.
    pub fn busiest_member_bytes(&self) -> u64 {
        let by_rank: Vec<Vec<ResolvedOp>> = (0..self.grid.world_size()).map(|r| self.resolve_for(r)).collect();
        let busiest = |k: usize| by_rank.iter().enumerate().map(|(r, ops)| ops[k].sent_bytes(r)).max();
        (0..self.ops.len()).filter_map(busiest).sum()
    }

    /// Analytic bytes all ranks together push across the slow links of a
    /// `g`-rank-per-node topology executing this plan: the total load on
    /// the inter-node fabric — the quantity the ZeRO++ levers shrink.
    pub fn total_inter_node_bytes(&self, g: usize) -> u64 {
        (0..self.grid.world_size())
            .flat_map(|r| self.resolve_for(r).into_iter().map(move |op| (r, op)))
            .map(|(r, op)| op.sent_inter_node_bytes(r, g))
            .sum()
    }
}

/// The engine's handle on the current plan: every runtime collective pops
/// its op off this cursor — group, counts, wire format, [`Reduction`],
/// [`OpRole`] and the tier movement anchored on it all come from the op —
/// so execution cannot diverge from the declared schedule silently: a
/// collective of the wrong kind, and a plan left unfinished, both panic.
/// A [`TierAt::Free`] movement is handed out by position instead. The
/// default cursor has no plan installed.
#[derive(Debug, Default)]
pub struct PlanCursor {
    /// The resolved ops, each with the tier movement that rides it.
    ops: VecDeque<(ResolvedOp, Option<ResolvedTierOp>)>,
    /// Tier movements that ride no op, in issue order.
    free_tier: VecDeque<ResolvedTierOp>,
    source: &'static str,
    installed: usize,
    consumed: usize,
}

impl PlanCursor {
    /// Installs `plan` resolved for `rank`, replacing any leftover ops
    /// (a failed step abandons its plan; the next entry point re-plans).
    pub fn install(&mut self, plan: &CommPlan, rank: usize, source: &'static str) {
        self.ops = plan.resolve_for(rank).into_iter().map(|op| (op, None)).collect();
        self.free_tier.clear();
        for t in plan.resolve_tier_for(rank) {
            match t.at.op() {
                Some(i) => {
                    let taken = self.ops[i].1.replace(t);
                    assert!(taken.is_none(), "two tier movements ride op {i} of '{source}'");
                }
                None => self.free_tier.push_back(t),
            }
        }
        self.source = source;
        self.installed = self.ops.len();
        self.consumed = 0;
    }

    /// The next planned op, for the decisions the engine reads ahead of
    /// issuing it: which unit a fetch materializes and between which
    /// stores, whether the next fetch goes out ahead, which flat range
    /// comes next.
    pub fn peek(&self) -> Option<&ResolvedOp> {
        self.ops.front().map(|(op, _)| op)
    }

    /// The position of the next op in the installed plan: how many of its
    /// ops have been issued.
    pub fn position(&self) -> usize {
        self.consumed
    }

    /// Pops the next planned op together with the tier movement riding
    /// it, asserting it is a `kind` collective. The returned op
    /// parameterizes the call: group, counts, precision, wire, reduction.
    ///
    /// # Panics
    /// Panics on schedule drift: the plan is exhausted, or the next op's
    /// kind disagrees with what the engine is about to execute.
    pub fn take_riding(&mut self, kind: CollectiveKind) -> (ResolvedOp, Option<ResolvedTierOp>) {
        let (op, tier) = self.ops.pop_front().unwrap_or_else(|| {
            panic!(
                "comm-plan drift: engine issued {kind:?} but the '{}' plan ({} ops) is exhausted",
                self.source, self.installed
            )
        });
        assert_eq!(
            op.kind, kind,
            "comm-plan drift at '{}' ({}): planned {:?}, engine issued {kind:?}",
            op.label, self.source, op.kind
        );
        self.consumed += 1;
        (op, tier)
    }

    /// [`PlanCursor::take_riding`] for a call site that moves no tier
    /// bytes.
    ///
    /// # Panics
    /// Panics on schedule drift, or if a tier movement rides the op.
    pub fn take(&mut self, kind: CollectiveKind) -> ResolvedOp {
        let (op, tier) = self.take_riding(kind);
        assert!(
            tier.is_none(),
            "tier-plan drift at '{}' ({}): a tier movement rides an op issued where none can",
            op.label,
            self.source
        );
        op
    }

    /// Pops the tier movement planned at the current position (the number
    /// of collective ops consumed so far) that rides no op, if there is
    /// one.
    pub fn take_free_tier(&mut self) -> Option<ResolvedTierOp> {
        match self.free_tier.front() {
            Some(t) if t.at == TierAt::Free(self.consumed) => self.free_tier.pop_front(),
            _ => None,
        }
    }

    /// Asserts the installed plan was fully consumed — called at the end
    /// of every successful engine entry point.
    ///
    /// # Panics
    /// Panics if planned ops (collective or tier) were never issued.
    pub fn assert_exhausted(&self, context: &str) {
        assert!(
            self.ops.is_empty(),
            "comm-plan drift: {} op(s) of '{}' never executed ({context}); next: '{}'",
            self.ops.len(),
            self.source,
            self.ops.front().map_or("-", |(op, _)| op.label)
        );
        assert!(
            self.free_tier.is_empty(),
            "tier-plan drift: {} tier op(s) of '{}' never executed ({context}); next: '{}'",
            self.free_tier.len(),
            self.source,
            self.free_tier.front().map_or("-", |t| t.label)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CkptPlace;
    use zero_model::{Layout, ModelConfig};

    fn tiny() -> ModelConfig {
        ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
    }

    fn cfg(stage: ZeroStage) -> ZeroConfig {
        ZeroConfig {
            stage,
            fp16: false,
            checkpoint_activations: false,
            initial_loss_scale: 1.0,
            bucket_elems: 1000,
            ..ZeroConfig::default()
        }
    }

    fn shape() -> StepShape {
        StepShape { micro_batches: 1, act_elems: 2 * 8 * 16, skipped: false }
    }

    #[test]
    fn buckets_are_cut_at_capacity_and_never_split_a_unit() {
        let layout = Layout::build(&tiny());
        let units: Vec<Range<usize>> = layout.units().iter().map(|u| u.range.clone()).collect();
        let largest = units.iter().map(|u| u.len()).max().unwrap();
        let buckets = |bucket_elems: usize| -> Vec<Range<usize>> {
            let zcfg = ZeroConfig { bucket_elems, ..cfg(ZeroStage::Two) };
            let plan = CommPlan::step_prefix(&layout, &zcfg, Grid::new(2, 1), 1, 64);
            let spans = plan.ops().iter().filter_map(|op| match &op.role {
                OpRole::Span(r, _) => Some(r.clone()),
                _ => None,
            });
            spans.collect()
        };
        // Head first, embed last.
        let backward: Vec<Range<usize>> = units.iter().rev().cloned().collect();
        assert_eq!(buckets(1), backward, "every unit reaches capacity alone");
        assert_eq!(buckets(usize::MAX), vec![0..layout.total_params()], "one end-of-backward drain");
        for cap in [100, 1000, 3000] {
            let cut = buckets(cap);
            assert!(cut.len() > 1, "capacity {cap} must cut");
            for (k, r) in cut.iter().enumerate() {
                assert!(units.iter().any(|u| u.start == r.start) && units.iter().any(|u| u.end == r.end));
                // The constant-size property: under capacity plus the unit
                // that tipped it over; only the final drain may be short.
                assert!(r.len() < cap + largest, "capacity {cap}: {r:?}");
                assert!(r.len() >= cap || k + 1 == cut.len(), "capacity {cap}: {r:?}");
            }
        }
    }

    #[test]
    fn planned_roles_name_units_ranges_and_the_prefetch_window() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(2, 1);
        let units = layout.units();
        // Checkpointing every block cuts the two blocks into two recompute
        // segments, so the prefetch chain crosses a segment boundary.
        for (overlap, checkpoint_activations) in [(false, false), (true, false), (false, true), (true, true)] {
            let zcfg =
                ZeroConfig { overlap, checkpoint_activations, bucket_elems: 100, ..cfg(ZeroStage::Three) };
            let segments = walk::interval(&zcfg).map(|k| walk::segments(tiny().layers, k).count());
            assert_eq!(segments, checkpoint_activations.then_some(2));
            let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape());
            let mut grads_down_to = layout.total_params();
            let (mut first, mut held) = (true, Vec::new());
            for op in plan.ops() {
                match &op.role {
                    OpRole::Fetch { unit, ahead, hold, .. } => {
                        // The backward opens on the last block either way
                        // (interval 1, or no checkpointing): overlap holds
                        // its forward gather, as gathered at fp32.
                        if let Some(image) = hold {
                            held.push((*unit, *image));
                        }
                        assert_eq!(op.label, "fetch-unit");
                        // Every unit is split two ways.
                        let len = units[*unit].range.len();
                        let counts = vec![len.div_ceil(2), len / 2];
                        assert_eq!(op.counts, CountSpec::Explicit(counts));
                        // Only the embed fetch that opens the pass is on
                        // demand under overlap, recomputing or not;
                        // nothing is ahead without.
                        assert_eq!(*ahead, overlap && !first, "unit {unit}");
                        first = false;
                    }
                    OpRole::Span(r, _) => {
                        assert_eq!(op.label, "grad-bucket");
                        assert_eq!(r.end, grads_down_to, "buckets tile Ψ head to embed");
                        grads_down_to = r.start;
                    }
                    OpRole::Plain => assert_ne!(op.kind, CollectiveKind::ReduceScatter),
                    OpRole::Chunk(_) => panic!("stage 3 plans no CB chunk"),
                }
            }
            assert_eq!(grads_down_to, 0);
            let want = if overlap { vec![(tiny().layers, Precision::Fp32)] } else { vec![] };
            assert_eq!(held, want, "overlap {overlap} checkpointing {checkpoint_activations}");
        }
        // The CB chunk loops of stage 1 tile the partition's rows (each
        // owner's shard, side by side) front to back, twice: the gradient
        // reduce-scatters, then the publish all-gathers. A chunk takes 500
        // rows, so 1000 elements over the two owners.
        let zcfg = ZeroConfig { bucket_elems: 1000, ..cfg(ZeroStage::One) };
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape());
        let spans: Vec<Range<usize>> = plan
            .ops()
            .iter()
            .filter_map(|op| match &op.role {
                OpRole::Chunk(r) => Some(r.clone()),
                _ => None,
            })
            .collect();
        let rows: usize = units.iter().map(|u| u.range.len().div_ceil(2)).sum();
        let chunks: Vec<Range<usize>> = (0..rows).step_by(500).map(|s| s..(s + 500).min(rows)).collect();
        assert_eq!(spans, [chunks.clone(), chunks].concat());
    }

    #[test]
    fn stage2_volume_is_exactly_2_psi_ring() {
        // Per-rank DP traffic for stage 2 telescopes exactly: the
        // reduce-scatters skip this rank's own shard (Ψ − |shard_i|), the
        // publish all-gathers skip the ring successor's shard
        // (Ψ − |shard_{i+1}|) — together the paper's 2Ψ·(N−1)/N.
        let model = tiny();
        let layout = Layout::build(&model);
        let psi = layout.total_params();
        for n in [2usize, 3, 5, 8] {
            let grid = Grid::new(n, 1);
            let plan = CommPlan::train_step(&layout, &cfg(ZeroStage::Two), grid, &shape());
            let part = Partitioner::per_unit(&layout, n);
            for rank in 0..n {
                let bytes = plan.rank_bytes(rank);
                let shard = part.shard_range(rank).len();
                let next = part.shard_range((rank + 1) % n).len();
                assert_eq!(
                    bytes[CollectiveKind::ReduceScatter as usize],
                    4 * (psi - shard) as u64,
                    "rs n={n}"
                );
                assert_eq!(
                    bytes[CollectiveKind::AllGather as usize],
                    4 * (psi - next) as u64,
                    "ag n={n}"
                );
            }
        }
    }

    #[test]
    fn skipped_suffix_is_empty_and_unskipped_is_not() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        let skipped = CommPlan::step_suffix(&layout, &cfg(ZeroStage::Two), grid, true);
        assert!(skipped.ops().is_empty());
        let live = CommPlan::step_suffix(&layout, &cfg(ZeroStage::Two), grid, false);
        assert!(!live.ops().is_empty());
    }

    #[test]
    fn cursor_rejects_wrong_kind() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(2, 1);
        let plan = CommPlan::step_prefix(&layout, &cfg(ZeroStage::Ddp), grid, 1, 64);
        let mut cur = PlanCursor::default();
        cur.install(&plan, 0, "test");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // DDP plans MP all-reduces first; asking for a ReduceScatter
            // must trip the drift assert.
            cur.take(CollectiveKind::ReduceScatter);
        }));
        assert!(err.is_err());
    }

    fn comp_all() -> crate::config::CompressionConfig {
        crate::config::CompressionConfig {
            qwz: true,
            hpz: true,
            qgz: true,
        }
    }

    #[test]
    fn compression_off_leaves_plans_bitwise_identical() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        for stage in [ZeroStage::Two, ZeroStage::Three] {
            let base = CommPlan::train_step(&layout, &cfg(stage), grid, &shape());
            let explicit_off = ZeroConfig {
                compression: crate::config::CompressionConfig::off(),
                ..cfg(stage)
            };
            let off = CommPlan::train_step(&layout, &explicit_off, grid, &shape());
            assert_eq!(base.ops(), off.ops());
            assert!(base.ops().iter().all(|op| op.wire == WireFmt::Raw));
        }
    }

    #[test]
    fn qwz_fetch_bytes_shrink_but_elems_match() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        let zcfg = ZeroConfig {
            compression: crate::config::CompressionConfig {
                qwz: true,
                ..crate::config::CompressionConfig::off()
            },
            ..cfg(ZeroStage::Three)
        };
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape());
        let raw = CommPlan::train_step(&layout, &cfg(ZeroStage::Three), grid, &shape());
        let mut saw_fetch = false;
        for (q, r) in plan.resolve_for(1).iter().zip(raw.resolve_for(1).iter()) {
            assert_eq!(q.counts, r.counts, "counts are wire-independent");
            if q.label == "fetch-unit" {
                saw_fetch = true;
                assert!(matches!(q.wire, WireFmt::Int8Block { block: 64 }));
                assert!(q.sent_bytes(1) < r.sent_bytes(1), "int8 beats fp32 on the wire");
                assert_eq!(q.sent_messages(1), r.sent_messages(1));
            }
        }
        assert!(saw_fetch);
    }

    #[test]
    fn hpz_refetches_resolve_intra_node() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        let zcfg = ZeroConfig {
            node_size: 2,
            compression: crate::config::CompressionConfig {
                hpz: true,
                ..crate::config::CompressionConfig::off()
            },
            ..cfg(ZeroStage::Three)
        };
        // Two micro-batches: the second micro's forward refetches must all
        // be node-local (first-touch already stashed every unit).
        let shape2 = StepShape { micro_batches: 2, ..shape() };
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape2);
        let fetches: Vec<&PlanOp> =
            plan.ops().iter().filter(|op| op.label == "fetch-unit").collect();
        let units = layout.units().len();
        let global: Vec<bool> =
            fetches.iter().map(|op| op.scope == PlanScope::Dp).collect();
        assert_eq!(global.iter().filter(|&&d| d).count(), units, "one global fetch per unit");
        assert!(global[..units].iter().all(|&d| d), "micro 1 forward is global");
        assert!(global[units..].iter().all(|&d| !d), "every refetch is node-local");
        for op in &fetches {
            if op.scope != PlanScope::Dp {
                assert_eq!(op.scope, PlanScope::Node { g: 2 });
            }
        }
        // Node-scope fetches still cover the whole unit.
        for (rank, op) in [(0usize, plan.resolve_for(0)), (3, plan.resolve_for(3))]
            .into_iter()
            .flat_map(|(r, ops)| ops.into_iter().map(move |o| (r, o)))
        {
            if op.label == "fetch-unit" && op.members.len() == 2 {
                assert!(op.members.contains(&rank));
                assert!(op.total_elems() > 0);
            }
        }
    }

    #[test]
    fn qgz_two_phase_messages_and_inter_bytes() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        let zcfg = ZeroConfig {
            node_size: 2,
            compression: crate::config::CompressionConfig {
                qgz: true,
                ..crate::config::CompressionConfig::off()
            },
            ..cfg(ZeroStage::Two)
        };
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape());
        let mut saw = false;
        for op in plan.resolve_for(0) {
            if op.label == "grad-bucket" {
                saw = true;
                assert!(matches!(op.wire, WireFmt::QgzInt8 { node_size: 2, block: 64 }));
                // (G−1) intra + (N/G−1) inter messages.
                assert_eq!(op.sent_messages(0), 2);
                // Phase 1 is intra-node by construction; only phase 2
                // (one quantized chunk to the other node) crosses.
                let inter = op.sent_inter_node_bytes(0, 2);
                assert_eq!(inter, quant_wire_bytes(op.counts[2], 64));
                assert!(inter <= op.sent_bytes(0));
            }
        }
        assert!(saw);
        // Aggregate: qgZ strictly shrinks the step's inter-node load.
        let raw = CommPlan::train_step(&layout, &cfg(ZeroStage::Two), grid, &shape());
        assert!(plan.total_inter_node_bytes(2) < raw.total_inter_node_bytes(2));
    }

    #[test]
    fn all_levers_cut_inter_node_bytes_past_the_gate() {
        // The ISSUE acceptance bar, straight off the plan algebra:
        // stage 3, N = 4, G = 2, two micro-batches, qwZ+hpZ+qgZ ⇒ the
        // inter-node fabric carries ≥ 3.5× fewer bytes per step.
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        let shape2 = StepShape { micro_batches: 2, ..shape() };
        // fp16 is the tight case: the int8 stream only beats the raw wire
        // 1.78×, so the gate genuinely needs hpZ's zero-cost refetches.
        let fp16 = ZeroConfig { fp16: true, ..cfg(ZeroStage::Three) };
        let base = CommPlan::train_step(&layout, &fp16, grid, &shape2);
        let zcfg = ZeroConfig { node_size: 2, compression: comp_all(), ..fp16 };
        let comp = CommPlan::train_step(&layout, &zcfg, grid, &shape2);
        let raw = base.total_inter_node_bytes(2);
        let squeezed = comp.total_inter_node_bytes(2);
        assert!(
            raw as f64 >= 3.5 * squeezed as f64,
            "inter-node reduction {:.2}× below the 3.5× gate",
            raw as f64 / squeezed as f64
        );
    }

    fn tiered(stage: ZeroStage, overlap: bool) -> ZeroConfig {
        ZeroConfig {
            tier: crate::config::TierConfig::budgeted(1 << 20),
            overlap,
            ..cfg(stage)
        }
    }

    #[test]
    fn offload_off_leaves_plans_bitwise_identical() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            for overlap in [false, true].into_iter().filter(|&o| !o || stage.partitions_grads()) {
                let base = ZeroConfig { overlap, ..cfg(stage) };
                let off = ZeroConfig { tier: crate::config::TierConfig::off(), ..base };
                let p_base = CommPlan::train_step(&layout, &base, grid, &shape());
                let p_off = CommPlan::train_step(&layout, &off, grid, &shape());
                assert_eq!(p_base.ops(), p_off.ops());
                assert!(p_base.tier_ops().is_empty());
                assert!(p_off.tier_ops().is_empty());
            }
        }
    }

    #[test]
    fn tier_offload_does_not_change_the_collective_schedule() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            for overlap in [false, true].into_iter().filter(|&o| !o || stage.partitions_grads()) {
                let base = CommPlan::train_step(&layout, &ZeroConfig { overlap, ..cfg(stage) }, grid, &shape());
                let off = CommPlan::train_step(&layout, &tiered(stage, overlap), grid, &shape());
                assert_eq!(base.ops(), off.ops(), "stage {stage:?} overlap {overlap}");
                assert!(!off.tier_ops().is_empty());
            }
        }
    }

    #[test]
    fn tier_moves_anchor_on_the_collectives_they_ride() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        for overlap in [false, true] {
            let plan = CommPlan::train_step(&layout, &tiered(ZeroStage::Three, overlap), grid, &shape());
            let mut windows = 0usize;
            for t in plan.tier_ops() {
                let (kind, ahead) = match t.at {
                    TierAt::Seeds(i) => (CollectiveKind::AllGather, matches!(plan.ops()[i].role, OpRole::Fetch { ahead: true, .. })),
                    TierAt::Drains(_) => (CollectiveKind::ReduceScatter, false),
                    TierAt::Free(_) => panic!("'{}': stage 3 has no free-standing move", t.label),
                };
                let anchor = &plan.ops()[t.at.op().expect("rides an op")];
                assert_eq!(anchor.kind, kind, "'{}'", t.label);
                assert_eq!(anchor.counts, CountSpec::Explicit(t.counts.clone()));
                windows += usize::from(ahead);
            }
            // A seed of an ahead gather climbs while the unit before it is
            // computed on.
            if overlap {
                assert!(windows > 0, "overlap mode must open real prefetch windows");
            } else {
                assert_eq!(windows, 0, "sync mode issues every gather on demand");
            }
        }
    }

    #[test]
    fn the_suffix_tier_stream_is_rebased_behind_the_prefix() {
        // Stage 1 under a host optimizer: the suffix opens with the
        // free-standing gradient spill and seeds every publish gather.
        let layout = Layout::build(&tiny());
        let (grid, zcfg) = (Grid::new(4, 1), tiered(ZeroStage::One, false));
        let sh = shape();
        let prefix = CommPlan::step_prefix(&layout, &zcfg, grid, sh.micro_batches, sh.act_elems).ops().len();
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &sh);
        let spills: Vec<TierAt> = plan.tier_ops().iter().filter(|t| !t.at.is_fetch()).map(|t| t.at).collect();
        assert_eq!(spills, [TierAt::Free(prefix)]);
        let mut seeded = 0;
        for t in plan.tier_ops().iter().filter(|t| t.label == "tier-publish-fetch") {
            let TierAt::Seeds(i) = t.at else { panic!("a publish fetch seeds its gather") };
            assert_eq!(plan.ops()[i].label, "publish-params");
            assert_eq!(plan.ops()[i].counts, CountSpec::Explicit(t.counts.clone()));
            seeded += 1;
        }
        assert_eq!(seeded, plan.ops().iter().filter(|op| op.label == "publish-params").count());
        assert!(seeded > 1, "several CB chunks");
    }

    #[test]
    fn tier_volumes_telescope() {
        let model = tiny();
        let layout = Layout::build(&model);
        let grid = Grid::new(4, 1);
        let part = Partitioner::per_unit(&layout, 4);
        for overlap in [false, true] {
            // Stages 2/3: per-step spill volume is exactly micro_batches ×
            // the rank's shard (every reduced element crosses once).
            let shape2 = StepShape { micro_batches: 2, ..shape() };
            for stage in [ZeroStage::Two, ZeroStage::Three] {
                let plan = CommPlan::train_step(&layout, &tiered(stage, overlap), grid, &shape2);
                for rank in 0..4 {
                    let spilled: usize = plan
                        .tier_ops()
                        .iter()
                        .filter(|t| !t.at.is_fetch())
                        .map(|t| t.counts[rank])
                        .sum();
                    assert_eq!(spilled, 2 * part.shard_range(rank).len(), "{stage:?}");
                }
            }
            // Stages 1/2: per-step publish fetch is exactly the shard
            // (stage 1 has no overlapped form).
            for stage in [ZeroStage::One, ZeroStage::Two] {
                let zcfg = tiered(stage, overlap && stage.partitions_grads());
                let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape2);
                for rank in 0..4 {
                    let fetched: usize = plan
                        .tier_ops()
                        .iter()
                        .filter(|t| t.label == "tier-publish-fetch")
                        .map(|t| t.counts[rank])
                        .sum();
                    assert_eq!(fetched, part.shard_range(rank).len(), "{stage:?}");
                }
            }
        }
        // Stage 1 spills its shard exactly once, in the suffix.
        let shape2 = StepShape { micro_batches: 2, ..shape() };
        let plan = CommPlan::train_step(&layout, &tiered(ZeroStage::One, false), grid, &shape2);
        let spills: Vec<_> = plan.tier_ops().iter().filter(|t| !t.at.is_fetch()).collect();
        assert_eq!(spills.len(), 1);
        assert_eq!(spills[0].counts, part.counts().to_vec());
    }

    #[test]
    fn skipped_steps_plan_no_suffix_tier_traffic() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(2, 1);
        for stage in [ZeroStage::One, ZeroStage::Two] {
            let suffix = CommPlan::step_suffix(&layout, &tiered(stage, false), grid, true);
            assert!(suffix.tier_ops().is_empty(), "{stage:?}");
        }
    }

    #[test]
    fn cursor_hands_tier_moves_out_with_the_op_they_ride() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(2, 1);
        // Stage 3 under a budget that holds the step only with the shard
        // offloaded: every parameter all-gather comes with the fetch that
        // seeds it, every bucket reduce-scatter with its spill.
        let (act, zcfg) = (shape().act_elems, tiered(ZeroStage::Three, false));
        let tight = crate::config::TierConfig::budgeted(CommPlan::full_offload_budget(&layout, &zcfg, grid, 1, act));
        let zcfg = ZeroConfig { tier: tight, ..zcfg };
        assert!(CommPlan::placement(&layout, &zcfg, grid, 1, act).params);
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape());
        let mut cur = PlanCursor::default();
        cur.install(&plan, 0, "test");
        let mut handed = 0;
        for op in plan.resolve_for(0) {
            let (_, tier) = cur.take_riding(op.kind);
            match (op.kind, tier) {
                (CollectiveKind::AllGather, Some(t)) => assert!(t.at.is_fetch()),
                (CollectiveKind::ReduceScatter, Some(t)) => assert!(!t.at.is_fetch()),
                (kind, tier) => assert!(tier.is_none(), "{kind:?} carries {tier:?}"),
            }
            handed += usize::from(op.kind != CollectiveKind::AllReduce);
            assert!(cur.take_free_tier().is_none(), "stage 3 has no free-standing move");
        }
        assert_eq!(handed, plan.tier_ops().len());
        cur.assert_exhausted("test");

        // Stage 1's end-of-step spill rides nothing: it is handed out by
        // position, at the head of the suffix, and blocks exhaustion.
        let suffix = CommPlan::step_suffix(&layout, &tiered(ZeroStage::One, false), grid, false);
        cur.install(&suffix, 0, "test");
        let unfinished = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cur.assert_exhausted("spill pending");
        }));
        assert!(unfinished.is_err());
        let spill = cur.take_free_tier().expect("spill due before the first suffix op");
        assert_eq!(spill.at, TierAt::Free(0));
        assert!(cur.take_free_tier().is_none());
        // A call site that cannot move tier bytes must not swallow one.
        let swallowed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cur.take(CollectiveKind::AllGather);
        }));
        assert!(swallowed.is_err(), "publish gathers carry their tier fetch");
    }

    #[test]
    fn every_reducing_op_carries_its_reduction() {
        // The reductions the engine used to pass by hand, now read off
        // the op: gradient averages are Mean, the two-level all-reduce
        // sums through and averages over N_d once at its closing gather,
        // the overflow flag is Max, the grad norm and the Megatron hooks
        // are Sum, and every other gather copies.
        use CollectiveKind::{AllGather, AllReduce, ReduceScatter};
        let (sum, mean) = (Reduction::Reduce(ReduceOp::Sum), Reduction::Reduce(ReduceOp::Mean));
        let layout = Layout::build_mp(&tiny(), 2);
        let clip = |stage| ZeroConfig { clip_grad_norm: Some(1.0), bucket_elems: 500, ..cfg(stage) };
        let two_level = ZeroConfig { node_size: 2, ..clip(ZeroStage::Ddp) };
        let hpz = ZeroConfig { node_size: 2, compression: comp_all(), ..clip(ZeroStage::Three) };
        let configs = [
            (clip(ZeroStage::Ddp), Grid::new(2, 2)),
            (two_level, Grid::new(4, 1)),
            (clip(ZeroStage::One), Grid::new(2, 2)),
            (ZeroConfig { checkpoint_activations: true, checkpoint_place: CkptPlace::Partitioned, ..clip(ZeroStage::Two) }, Grid::new(2, 2)),
            (clip(ZeroStage::Three), Grid::new(2, 2)),
            (hpz, Grid::new(4, 1)),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (zcfg, grid) in configs {
            let layout = if grid.mp_degree() == 1 { Layout::build(&tiny()) } else { layout.clone() };
            let shape = StepShape { micro_batches: 2, ..shape() };
            let plans = [
                CommPlan::train_step(&layout, &zcfg, grid, &shape),
                CommPlan::eval_pass(&layout, &zcfg, grid, 64),
                CommPlan::publish_refresh(&layout, &zcfg, grid),
            ];
            for op in plans.iter().flat_map(|p| p.ops()) {
                let want = match (op.label, op.kind) {
                    ("grad-bucket" | "grad-reduce-scatter", ReduceScatter) => mean,
                    ("grad-allreduce", AllReduce) => mean,
                    ("hier-node-rs", ReduceScatter) | ("hier-cross-ar", AllReduce) => sum,
                    ("hier-node-ag", AllGather) => Reduction::Average { over: grid.dp_degree() },
                    ("overflow-flag", AllReduce) => Reduction::Reduce(ReduceOp::Max),
                    ("grad-norm" | "mp-block-allreduce", AllReduce) => sum,
                    ("fetch-unit" | "publish-params" | "ckpt-gather", AllGather) => Reduction::Copy,
                    other => panic!("unexpected op {other:?}"),
                };
                assert_eq!(op.reduce, want, "'{}' under {:?}", op.label, zcfg.stage);
                seen.insert(op.label);
            }
            // The two-level all-reduce divides once per chunk, after both
            // of its summing phases.
            let ops = plans[0].ops();
            for (i, op) in ops.iter().enumerate().filter(|(_, op)| op.label == "hier-node-ag") {
                let labels: Vec<_> = ops[i - 2..i].iter().map(|op| op.label).collect();
                assert_eq!(labels, ["hier-node-rs", "hier-cross-ar"]);
                assert_eq!(ops[i - 2].role, op.role, "one chunk");
            }
        }
        assert_eq!(seen.len(), 12, "every labelled op was checked: {seen:?}");
    }

    #[test]
    fn hpz_fetches_name_their_stores() {
        // The first fetch of a unit in the step reads the primary shard
        // and stashes into the secondary store; every later one is seeded
        // by that store and stashes nowhere. Without hpZ nothing stashes.
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        let shape2 = StepShape { micro_batches: 2, ..shape() };
        let hpz = ZeroConfig { node_size: 2, compression: comp_all(), ..cfg(ZeroStage::Three) };
        for (zcfg, hpz_on) in [(hpz, true), (cfg(ZeroStage::Three), false)] {
            let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape2);
            let mut stashed = vec![false; layout.units().len()];
            for op in plan.ops() {
                let OpRole::Fetch { unit, from, into, .. } = op.role else { continue };
                let first = !std::mem::replace(&mut stashed[unit], true);
                let want = match (hpz_on, first) {
                    (true, true) => (ParamStore::Primary, Some(ParamStore::Secondary)),
                    (true, false) => (ParamStore::Secondary, None),
                    (false, _) => (ParamStore::Primary, None),
                };
                assert_eq!((from, into), want, "unit {unit}");
            }
        }
    }

    #[test]
    fn own_pieces_tile_the_op_buffer() {
        let layout = Layout::build(&tiny());
        let plan = CommPlan::train_step(&layout, &cfg(ZeroStage::Three), Grid::new(3, 1), &shape());
        let ops: Vec<_> = (0..3).map(|r| plan.resolve_for(r)).collect();
        let dp_wide = (0..plan.ops().len()).filter(|&i| ops[0][i].members.len() == 3);
        for i in dp_wide {
            let mut next = 0;
            for (rank, ops) in ops.iter().enumerate() {
                let piece = ops[i].own_piece(rank);
                assert_eq!((piece.start, piece.len()), (next, ops[i].counts[rank]));
                next = piece.end;
            }
            assert_eq!(next, ops[0][i].total_elems());
        }
    }

    #[test]
    fn hierarchical_plan_resolves_cross_chunks() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        let zcfg = ZeroConfig { node_size: 2, ..cfg(ZeroStage::Ddp) };
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape());
        // Every rank resolves; cross-phase counts sum to its node chunk.
        for rank in 0..4 {
            for op in plan.resolve_for(rank) {
                if op.label == "hier-cross-ar" {
                    assert_eq!(op.members.len(), 2);
                    assert!(op.total_elems() > 0);
                }
            }
        }
        // The point of the hierarchy: only the cross-node all-reduce of
        // each owned 1/G chunk crosses the slow links.
        let flat = CommPlan::train_step(&layout, &cfg(ZeroStage::Ddp), grid, &shape());
        assert!(plan.total_inter_node_bytes(2) < flat.total_inter_node_bytes(2));
    }

    /// Known answers: the bounds `results/BENCH_serve.json` records for
    /// its model (Ψ = 410 240) at N = 2 and 4, and one truncated from 9.2
    /// bytes.
    #[test]
    fn serve_param_bound_is_four_psi_times_two_over_n_plus_epsilon() {
        assert_eq!(CommPlan::serve_param_bound(410_240, 2), 1_805_056);
        assert_eq!(CommPlan::serve_param_bound(410_240, 4), 984_576);
        assert_eq!(CommPlan::serve_param_bound(3, 3), 9);
    }
}
