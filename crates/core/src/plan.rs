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
//! flat range of whole units a gradient bucket covers, or which rows of the
//! per-unit [`Partitioner`] a CB chunk does); and the tier movement that
//! rides it ([`TierOp::rides`]). Counts come from that partition, which
//! splits every unit over the DP group, so every op over parameter space is
//! balanced across its members.
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
    chunk_range, quant_wire_bytes, CollectiveKind, Grid, Group, NodeTopology, Precision, ReduceOp,
    WireFmt, KIND_COUNT,
};
use zero_model::Layout;
use zero_tensor::f16::F16;

use crate::config::{CompressionConfig, ZeroConfig, ZeroStage};
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
    /// space, whose buffer holds every member's part of it in member order.
    /// The engine flushes its bucket when the pending gradients span the
    /// next planned range.
    Span(Range<usize>),
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

/// One planned collective: kind, scope, counts, accounting precision, and
/// a stable label naming the schedule position it models.
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
    /// Issue mode: `true` means the engine *issues* the op here (hands it
    /// to its rank's FIFO progress thread) but completes it later — the
    /// overlapped prefetches and bucket reduce-scatters. Plan order is
    /// always **issue order**, which is also per-rank completion order
    /// (one FIFO queue per rank), so the static pairwise-agreement check
    /// proves deadlock-freedom for the async schedule exactly as for the
    /// synchronous one.
    pub nonblocking: bool,
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
    /// Whether the engine issues this op non-blocking (see [`PlanOp`]).
    pub nonblocking: bool,
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

    /// Messages this rank sends: `2(n−1)` for all-reduce, `n−1` for the
    /// single-phase ring collectives, `(G−1) + (n/G−1)` for the two-phase
    /// qgZ all-to-all, `0` for single-member groups. (Empty chunks still
    /// travel as zero-length messages.)
    pub fn sent_messages(&self, rank: usize) -> usize {
        let n = self.members.len();
        if n == 1 {
            return 0;
        }
        let _is_member = self.member_index(rank);
        if let WireFmt::QgzInt8 { node_size, .. } = self.wire {
            return (node_size - 1) + (n / node_size - 1);
        }
        match self.kind {
            CollectiveKind::AllReduce => 2 * (n - 1),
            CollectiveKind::ReduceScatter | CollectiveKind::AllGather => n - 1,
        }
    }

    /// Bytes this rank sends — the exact per-rank cost the `zero-comm`
    /// traffic counters meter, wire-aware.
    ///
    /// Raw ring algebra (n = group size, L = Σ counts, c = counts, i =
    /// local index): all-gather sends every chunk except `c[(i+1) mod n]`;
    /// reduce-scatter every chunk except `c[i]`; all-reduce is both phases
    /// back to back. Single-member groups exchange nothing. Compressed ops
    /// cost exactly what the `zero-comm` compressed collectives meter.
    ///
    /// # Panics
    /// Panics if `rank` is not a member, or an `Int8Block` wire carries
    /// anything but an all-gather.
    pub fn sent_bytes(&self, rank: usize) -> u64 {
        let n = self.members.len();
        if n == 1 {
            return 0;
        }
        let i = self.member_index(rank);
        let total = self.total_elems();
        match self.wire {
            WireFmt::Raw => {
                let elems = match self.kind {
                    CollectiveKind::AllReduce => {
                        (total - self.counts[i]) + (total - self.counts[(i + 1) % n])
                    }
                    CollectiveKind::ReduceScatter => total - self.counts[i],
                    CollectiveKind::AllGather => total - self.counts[(i + 1) % n],
                };
                self.prec.bytes() * elems as u64
            }
            WireFmt::Int8Block { block } => {
                // qwZ ring all-gather of encoded streams: forward every
                // member's stream except the successor's own.
                assert_eq!(
                    self.kind,
                    CollectiveKind::AllGather,
                    "Int8Block wire only models all-gathers ('{}')",
                    self.label
                );
                self.counts
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != (i + 1) % n)
                    .map(|(_, &c)| quant_wire_bytes(c, block))
                    .sum()
            }
            WireFmt::QgzInt8 { node_size, block } => {
                self.qgz_sends(i, node_size, block).map(|(_, bytes)| bytes).sum()
            }
        }
    }

    /// qgZ two-phase all-to-all: every `(partner rank, bytes)` member `i`
    /// sends. Phase 1 is the raw pairwise intra-node exchange — to each
    /// local peer s′, the full column of chunks owned by slot s′ on any
    /// node; phase 2 the quantized pairwise inter-node exchange of this
    /// slot's per-node chunks.
    fn qgz_sends(&self, i: usize, node_size: usize, block: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        assert_eq!(
            self.kind,
            CollectiveKind::ReduceScatter,
            "QgzInt8 wire only models reduce-scatters ('{}')",
            self.label
        );
        let (slot, node) = (i % node_size, i / node_size);
        let nodes = self.members.len() / node_size;
        let phase1 = (0..node_size).filter(move |&s| s != slot).map(move |s| {
            let column: usize = (0..nodes).map(|m| self.counts[m * node_size + s]).sum();
            (self.members[node * node_size + s], self.prec.bytes() * column as u64)
        });
        let phase2 = (0..nodes).filter(move |&m| m != node).map(move |m| {
            let peer = m * node_size + slot;
            (self.members[peer], quant_wire_bytes(self.counts[peer], block))
        });
        phase1.chain(phase2)
    }

    /// Bytes this rank pushes across the slow links of a `g`-rank-per-node
    /// topology. Ring collectives send only to the ring successor, so the
    /// whole op is inter-node iff that successor lives on another node;
    /// the qgZ all-to-all is split per partner (phase 1 partners share the
    /// node, phase 2 partners never do).
    pub fn sent_inter_node_bytes(&self, rank: usize, g: usize) -> u64 {
        assert!(g > 0, "node size must be positive");
        let n = self.members.len();
        if n == 1 {
            return 0;
        }
        let i = self.member_index(rank);
        let crosses = |partner: usize| partner / g != rank / g;
        match self.wire {
            WireFmt::QgzInt8 { node_size, block } => self
                .qgz_sends(i, node_size, block)
                .filter(|&(partner, _)| crosses(partner))
                .map(|(_, bytes)| bytes)
                .sum(),
            _ if crosses(self.members[(i + 1) % n]) => self.sent_bytes(rank),
            _ => 0,
        }
    }

    fn member_index(&self, rank: usize) -> usize {
        self.members
            .iter()
            .position(|&m| m == rank)
            .unwrap_or_else(|| panic!("rank {rank} not in planned op '{}'", self.label))
    }
}

/// Direction of a planned tier movement (ZeRO-Offload traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierDir {
    /// Device → host (gradient shards, P_a+cpu checkpoint slices).
    Spill,
    /// Host → device (parameter pieces, checkpoint slices).
    Fetch,
}

/// One planned host↔device tier movement. Tier ops form a second stream
/// alongside the collective ops: each records *where* in the collective
/// stream it is issued (`issue_pos`) and where its result is first needed
/// (`demand_pos`), so the `offload` verify pass can prove the prefetch
/// window statically — `issue_pos ≤ demand_pos` — and which collective it
/// rides (`rides`), which is how the runtime cursor hands it to the
/// engine: together with that op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierOp {
    /// Movement direction.
    pub dir: TierDir,
    /// Schedule position, e.g. `"tier-param-fetch"`.
    pub label: &'static str,
    /// Elements moved by each world rank — a DP shard piece or a P_a
    /// checkpoint slice: per-rank volumes, not collective group counts.
    pub counts: Vec<usize>,
    /// Bytes per element on the tier link.
    pub elem_bytes: u64,
    /// Number of collective ops issued before this movement is submitted.
    pub issue_pos: usize,
    /// Number of collective ops issued before the engine blocks on it.
    pub demand_pos: usize,
    /// Index of the collective this movement rides: a fetch seeds that
    /// all-gather and goes onto the FIFO right before it; a spill carries
    /// that reduce-scatter's result and goes onto the FIFO right behind it
    /// (`issue_pos = rides + 1`), waited where the reduce-scatter is
    /// settled. `None` (stage 1's end-of-step spill, checkpoint spills):
    /// issued at `issue_pos`.
    pub rides: Option<usize>,
}

/// A [`TierOp`] resolved for one concrete rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedTierOp {
    /// Movement direction.
    pub dir: TierDir,
    /// Schedule position label.
    pub label: &'static str,
    /// Bytes this rank moves across the tier link.
    pub bytes: u64,
    /// Collective ops issued before submission.
    pub issue_pos: usize,
    /// Collective ops issued before the engine blocks on it.
    pub demand_pos: usize,
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
    /// ahead of use, with the index of that op and the index into `tier`
    /// of the fetch seeding it (whose demand position is stamped when the
    /// unit is consumed).
    slot: Option<(usize, usize, Option<usize>)>,
    /// The unit this micro-batch computed on last and the index of the
    /// gather that materialized it: the one a hold can keep.
    last: Option<(usize, usize)>,
    /// The unit held for its next fetch, which gathers nothing.
    held: Option<usize>,
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
            bucket: None,
            off,
            tier: Vec::new(),
            act_elems: 0,
        }
    }

    /// Pushes a tier movement anchored at the current op position, issued
    /// and blocked on here (`demand = issue`) unless the builder's `fetch`
    /// later stamps an open window. Returns its index in the tier stream.
    fn tier_op(&mut self, dir: TierDir, label: &'static str, counts: Vec<usize>, rides: Option<usize>) -> usize {
        let pos = self.ops.len();
        self.tier.push(TierOp {
            dir,
            label,
            counts,
            elem_bytes: self.prec.bytes(),
            issue_pos: pos,
            demand_pos: pos,
            rides,
        });
        self.tier.len() - 1
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
        let (prec, nonblocking, wire) = (self.prec, false, WireFmt::Raw);
        self.ops.push(PlanOp { kind, scope, counts, prec, label, nonblocking, wire, reduce, role });
        self.ops.last_mut().expect("op just pushed")
    }

    /// Pushes an op on `wire` that the engine leaves in flight when overlap
    /// is on — a parameter fetch (copied) or a bucket reduce-scatter
    /// (averaged over N_d). Volumes and issue order are identical either
    /// way; the engine settles a blocking one at once.
    fn op_nb(&mut self, kind: CollectiveKind, scope: PlanScope, counts: Vec<usize>, label: &'static str, wire: WireFmt, role: OpRole) {
        let (overlap, counts) = (self.zcfg.overlap, CountSpec::Explicit(counts));
        let reduce = match kind {
            CollectiveKind::ReduceScatter => Reduction::Reduce(ReduceOp::Mean),
            _ => Reduction::Copy,
        };
        let op = self.op(kind, scope, counts, reduce, label, role);
        (op.nonblocking, op.wire) = (overlap, wire);
    }

    /// Issues unit `u`'s parameter all-gather (§5.3): every DP shard's
    /// piece of the unit. Under hpZ the *first* fetch of a
    /// unit in the step is the global gather (qwZ wire if enabled) that
    /// also stashes into the node-local secondary store; every later fetch
    /// of the same unit is seeded by that store and resolves inside the
    /// node. Returns the index of the tier fetch seeding the gather, if a
    /// piece climbs from the host tier.
    fn issue_fetch(&mut self, u: usize, ahead: bool) -> Option<usize> {
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
        let seed = (climbs && from == ParamStore::Primary).then(|| {
            self.tier_op(TierDir::Fetch, "tier-param-fetch", counts.clone(), Some(self.ops.len()))
        });
        let role = OpRole::Fetch { unit: u, from, into, ahead, hold: None };
        self.op_nb(CollectiveKind::AllGather, scope, counts, "fetch-unit", wire, role);
        seed
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
    /// optimizer, in both modes right behind the reduce-scatter that
    /// produces it (`issue_pos = rides + 1`): the rank's FIFO runs the
    /// spill before any op issued later. The engine blocks on the spill
    /// where it settles the reduce-scatter; `prefix_placed` stamps that
    /// demand position.
    fn grad_flush(&mut self, fused: Range<usize>) {
        let counts = self.part.intersect_counts(&fused);
        let comp = self.zcfg.compression;
        let wire = if comp.qgz {
            WireFmt::QgzInt8 { node_size: self.zcfg.node_size, block: CompressionConfig::BLOCK }
        } else {
            WireFmt::Raw
        };
        let rs = self.ops.len();
        let kind = CollectiveKind::ReduceScatter;
        self.op_nb(kind, PlanScope::Dp, counts.clone(), "grad-bucket", wire, OpRole::Span(fused));
        if self.off.grads {
            self.tier_op(TierDir::Spill, "tier-grad-spill", counts, Some(rs));
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
                self.tier_op(TierDir::Fetch, "tier-publish-fetch", counts.clone(), Some(self.ops.len()));
            }
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
        CommPlan { grid: self.grid, ops: self.ops, tier: self.tier }
    }
}

/// The plan side of the walk: each step records the communication it
/// implies. Units and activations are nothing here; a checkpoint is the
/// index of its P_a+cpu spill in the tier stream, if it has one.
impl Walker for Builder {
    type Unit = ();
    type Saved = ();
    type Ckpt = Option<usize>;
    type Error = Infallible;

    /// Stage-3 materialization of unit `u` at the point the engine
    /// computes on it. `u`'s gather comes out of the prefetch slot, or is
    /// issued now on demand; with overlap, `next`'s gather is then issued
    /// into the slot *before* `u`'s is waited, so the next unit's
    /// communication rides under this unit's compute — the
    /// double-buffered one-ahead window. Without overlap the slot stays
    /// empty and every fetch is on demand.
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
            return Ok(());
        }
        let (at, seed) = if self.held.take_if(|held| *held == u).is_some() {
            (None, None)
        } else if let Some((unit, at, seed)) = self.slot.take() {
            assert_eq!(unit, u, "plan builder: prefetch slot holds a different unit");
            (Some(at), seed)
        } else {
            (Some(self.ops.len()), self.issue_fetch(u, false))
        };
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
            }
            (Some(v), _) => self.slot = Some((v, self.ops.len(), self.issue_fetch(v, true))),
            (None, _) => {}
        }
        // The engine blocks on `u` here: its tier fetch's window closes.
        if let Some(idx) = seed {
            self.tier[idx].demand_pos = self.ops.len();
        }
        Ok(())
    }

    /// P_a+cpu: each rank's 1/N_m slice spills, riding no collective.
    fn store_checkpoint(&mut self) -> Option<usize> {
        let (grid, act_elems, place) = (self.grid, self.act_elems, self.zcfg.checkpoint_place);
        let slice = |r| place.slice(act_elems, grid.mp_degree(), grid.coords(r).1).len();
        let counts = self.off.checkpoints.then(|| (0..grid.world_size()).map(slice).collect())?;
        Some(self.tier_op(TierDir::Spill, "tier-ckpt-spill", counts, None))
    }

    /// Two MP hooks per block pass, forward or recompute.
    fn block_fwd(&mut self, _: usize, (): &(), _: bool) -> Result<(), Infallible> {
        self.mp_block_pass();
        Ok(())
    }

    /// P_a checkpoint re-materialization: all-gather the 1/N_m slices
    /// across the MP group (§6.1), P_a+cpu's spill settled and fetched back.
    fn restore(&mut self, spill: Option<usize>) -> Result<(), Infallible> {
        if let Some(spill) = spill.map(|i| &mut self.tier[i]) {
            spill.demand_pos = self.ops.len();
            let counts = spill.counts.clone();
            self.tier_op(TierDir::Fetch, "tier-ckpt-fetch", counts, Some(self.ops.len()));
        }
        if self.zcfg.checkpoint_place.partitioned() {
            self.mp_op(CollectiveKind::AllGather, Reduction::Copy, "ckpt-gather");
        }
        Ok(())
    }

    /// Training: head forward+backward births the first gradients.
    fn head(&mut self, (): (), train: bool) -> Result<(), Infallible> {
        if train {
            self.dispatch_grads(self.units.len() - 1);
        }
        Ok(())
    }

    fn block_bwd(&mut self, l: usize, (): (), (): ()) -> Result<(), Infallible> {
        self.mp_block_pass();
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
        let mut plan = b.finish();
        if off.grads {
            // The engine blocks on a gradient spill where it settles the
            // reduce-scatter the spill rides: the memory walk's release
            // point, the same on every rank.
            let settles = crate::footprint::replay(layout, zcfg, &plan.ops, grid, (micro_batches, act_elems), off, 0).settles;
            for t in &mut plan.tier {
                if let Some(&(.., at)) = settles.iter().find(|s| Some(s.0) == t.rides) {
                    t.demand_pos = at;
                }
            }
        }
        plan
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
                b.tier_op(TierDir::Spill, "tier-grad-spill", counts, None);
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
        plan.tier.extend(suffix.tier.into_iter().map(|mut t| {
            t.issue_pos += base;
            t.demand_pos += base;
            t.rides = t.rides.map(|i| i + base);
            t
        }));
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
                ResolvedTierOp {
                    dir: t.dir,
                    label: t.label,
                    bytes: t.elem_bytes * t.counts[rank] as u64,
                    issue_pos: t.issue_pos,
                    demand_pos: t.demand_pos,
                }
            })
            .collect()
    }

    /// Analytic tier bytes `rank` moves executing this plan, as
    /// `(fetch_bytes, spill_bytes)` — directly comparable to a
    /// [`crate::tier::TierStats`].
    pub fn rank_tier_bytes(&self, rank: usize) -> (u64, u64) {
        let mut fetch = 0u64;
        let mut spill = 0u64;
        for t in self.resolve_tier_for(rank) {
            match t.dir {
                TierDir::Fetch => fetch += t.bytes,
                TierDir::Spill => spill += t.bytes,
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
                    nonblocking: op.nonblocking,
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
/// [`OpRole`] and the tier movement riding it all come from the op — so
/// execution cannot diverge from the declared schedule silently: a
/// collective of the wrong kind, and a plan left unfinished, both panic.
/// The default cursor has no plan installed.
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
        for (t, resolved) in plan.tier.iter().zip(plan.resolve_tier_for(rank)) {
            match t.rides {
                Some(i) => {
                    let taken = self.ops[i].1.replace(resolved);
                    assert!(taken.is_none(), "two tier movements ride op {i} of '{source}'");
                }
                None => self.free_tier.push_back(resolved),
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
            Some(t) if t.issue_pos == self.consumed => self.free_tier.pop_front(),
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
                OpRole::Span(r) => Some(r.clone()),
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
                    OpRole::Span(r) => {
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
    fn tier_fetches_anchor_on_their_allgathers() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        for overlap in [false, true] {
            let plan = CommPlan::train_step(&layout, &tiered(ZeroStage::Three, overlap), grid, &shape());
            let mut windows = 0usize;
            for t in plan.tier_ops() {
                assert!(t.issue_pos <= t.demand_pos, "'{}' window inverted", t.label);
                assert!(t.demand_pos <= plan.ops().len());
                if t.dir == TierDir::Fetch {
                    let anchor = &plan.ops()[t.issue_pos];
                    assert_eq!(anchor.kind, CollectiveKind::AllGather, "'{}'", t.label);
                    assert_eq!(anchor.counts, CountSpec::Explicit(t.counts.clone()));
                }
                if t.demand_pos > t.issue_pos {
                    windows += 1;
                }
            }
            if overlap {
                assert!(windows > 0, "overlap mode must open real prefetch windows");
            } else {
                assert_eq!(windows, 0, "sync mode blocks at issue");
            }
        }
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
                        .filter(|t| t.dir == TierDir::Spill)
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
        let spills: Vec<_> = plan.tier_ops().iter().filter(|t| t.dir == TierDir::Spill).collect();
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
                (CollectiveKind::AllGather, Some(t)) => assert_eq!(t.dir, TierDir::Fetch),
                (CollectiveKind::ReduceScatter, Some(t)) => assert_eq!(t.dir, TierDir::Spill),
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
        assert_eq!((spill.dir, spill.issue_pos), (TierDir::Spill, 0));
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
