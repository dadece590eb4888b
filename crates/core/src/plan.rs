//! The declarative communication plan (CommPlan IR).
//!
//! ZeRO's §7 analysis argues about *schedules*: which collectives fire, in
//! what order, over which groups, moving how many bytes per rank. The
//! engine used to realize that schedule implicitly — each call site
//! computed its own group and counts — which made the paper's 2Ψ/3Ψ
//! claims checkable only by running training and metering traffic.
//!
//! This module makes the schedule *first-class*: [`CommPlan`] builds, from
//! a layout + [`ZeroConfig`] + [`Grid`] alone, the exact ordered list of
//! collective operations one training step performs. The engine then
//! **derives its runtime calls from the plan** through a [`PlanCursor`]:
//! every collective call pops the next planned op, asserts kind and group,
//! and uses the planned per-member counts as the collective's counts —
//! the plan is the single source of truth, and any drift between schedule
//! model and execution fails loudly at the first divergent op.
//!
//! Because the plan is pure data, `zero-verify` can *statically* prove,
//! with zero training steps executed:
//! * rank-symmetry / deadlock-freedom (every pair of ranks agrees on the
//!   subsequence of ops they share),
//! * group-membership consistency,
//! * per-rank byte volumes matching the paper's formulas (2Ψ·(N−1)/N for
//!   DDP and stages 1–2, ≤ 3Ψ for stage 3, §7).

use std::collections::VecDeque;
use std::ops::Range;

use zero_comm::{
    chunk_range, quant_wire_bytes, CollectiveKind, Grid, Group, NodeTopology, Precision,
    KIND_COUNT,
};
use zero_model::Layout;

use crate::config::{ZeroConfig, ZeroStage};
use crate::partition::Partitioner;

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
    /// Explicit per-member counts (uneven flat-space intersections).
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

/// Wire format of a planned collective: how the engine encodes the buffer
/// on the wire, and therefore how many bytes each hop actually carries.
/// `Raw` reproduces the uncompressed engine exactly; the other variants
/// are the ZeRO++ compression levers, whose byte formulas mirror the
/// metered costs of the `zero-comm` compressed collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFmt {
    /// Uncompressed `prec`-width elements.
    Raw,
    /// qwZ: ring all-gather of block-quantized streams — 1 byte per
    /// element plus one fp32 scale/zero pair per `block` elements.
    Int8Block {
        /// Quantization block length.
        block: usize,
    },
    /// qgZ: two-phase all-to-all reduce-scatter — raw pairwise exchange
    /// inside each node of `node_size` ranks, block-quantized pairwise
    /// exchange between same-slot ranks across nodes.
    QgzInt8 {
        /// Ranks per node G of the two-tier grouping.
        node_size: usize,
        /// Quantization block length.
        block: usize,
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
}

impl ResolvedOp {
    /// Total buffer elements (`Σ counts`).
    pub fn total_elems(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Elements this `rank` *sends* under the ring schedule of
    /// `zero-comm` — the exact per-rank cost the traffic counters meter.
    ///
    /// Ring algebra (n = group size, L = Σ counts, c = counts, i = local
    /// index): all-gather sends every chunk except `c[(i+1) mod n]`;
    /// reduce-scatter every chunk except `c[i]`; all-reduce is both phases
    /// back to back. Single-member groups exchange nothing.
    ///
    /// # Panics
    /// Panics if `rank` is not a member, or the kind is not one of the
    /// ring collectives the engine plans (AllReduce/ReduceScatter/AllGather).
    pub fn sent_elems(&self, rank: usize) -> usize {
        let n = self.members.len();
        if n == 1 {
            return 0;
        }
        let i = self
            .members
            .iter()
            .position(|&m| m == rank)
            .unwrap_or_else(|| panic!("rank {rank} not in planned op '{}'", self.label));
        let total = self.total_elems();
        match self.kind {
            CollectiveKind::AllReduce => {
                (total - self.counts[i]) + (total - self.counts[(i + 1) % n])
            }
            CollectiveKind::ReduceScatter => total - self.counts[i],
            CollectiveKind::AllGather => total - self.counts[(i + 1) % n],
            other => panic!("plan does not model {other:?} ops"),
        }
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
        assert!(
            self.members.contains(&rank),
            "rank {rank} not in planned op '{}'",
            self.label
        );
        if let WireFmt::QgzInt8 { node_size, .. } = self.wire {
            return (node_size - 1) + (n / node_size - 1);
        }
        match self.kind {
            CollectiveKind::AllReduce => 2 * (n - 1),
            CollectiveKind::ReduceScatter | CollectiveKind::AllGather => n - 1,
            other => panic!("plan does not model {other:?} ops"),
        }
    }

    /// Bytes this rank sends, wire-aware: raw ops cost
    /// `sent_elems · precision width`; compressed ops cost exactly what
    /// the `zero-comm` compressed collectives meter.
    pub fn sent_bytes(&self, rank: usize) -> u64 {
        let n = self.members.len();
        if n == 1 {
            return 0;
        }
        match self.wire {
            WireFmt::Raw => self.prec.bytes() * self.sent_elems(rank) as u64,
            WireFmt::Int8Block { block } => {
                // qwZ ring all-gather of encoded streams: forward every
                // member's stream except the successor's own.
                assert_eq!(
                    self.kind,
                    CollectiveKind::AllGather,
                    "Int8Block wire only models all-gathers ('{}')",
                    self.label
                );
                let i = self.member_index(rank);
                self.counts
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != (i + 1) % n)
                    .map(|(_, &c)| quant_wire_bytes(c, block))
                    .sum()
            }
            WireFmt::QgzInt8 { node_size, block } => {
                assert_eq!(
                    self.kind,
                    CollectiveKind::ReduceScatter,
                    "QgzInt8 wire only models reduce-scatters ('{}')",
                    self.label
                );
                let i = self.member_index(rank);
                let (slot, node) = (i % node_size, i / node_size);
                let nodes = n / node_size;
                // Phase 1: raw pairwise intra-node all-to-all — to each
                // local peer s′, the full column of chunks owned by slot
                // s′ on any node.
                let phase1: u64 = (0..node_size)
                    .filter(|&s| s != slot)
                    .map(|s| (0..nodes).map(|m| self.counts[m * node_size + s]).sum::<usize>())
                    .sum::<usize>() as u64
                    * self.prec.bytes();
                // Phase 2: quantized pairwise inter-node exchange of this
                // slot's per-node chunks.
                let phase2: u64 = (0..nodes)
                    .filter(|&m| m != node)
                    .map(|m| quant_wire_bytes(self.counts[m * node_size + slot], block))
                    .sum();
                phase1 + phase2
            }
        }
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
        let node_of = |r: usize| r / g;
        match self.wire {
            WireFmt::QgzInt8 { node_size, block } => {
                let i = self.member_index(rank);
                let (slot, node) = (i % node_size, i / node_size);
                let nodes = n / node_size;
                let mut inter = 0u64;
                for s in 0..node_size {
                    if s == slot {
                        continue;
                    }
                    let partner = self.members[node * node_size + s];
                    if node_of(partner) != node_of(rank) {
                        let col: usize =
                            (0..nodes).map(|m| self.counts[m * node_size + s]).sum();
                        inter += self.prec.bytes() * col as u64;
                    }
                }
                for m in 0..nodes {
                    if m == node {
                        continue;
                    }
                    let partner = self.members[m * node_size + slot];
                    if node_of(partner) != node_of(rank) {
                        inter += quant_wire_bytes(self.counts[m * node_size + slot], block);
                    }
                }
                inter
            }
            _ => {
                let i = self.member_index(rank);
                let succ = self.members[(i + 1) % n];
                if node_of(succ) != node_of(rank) {
                    self.sent_bytes(rank)
                } else {
                    0
                }
            }
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
    /// Device → host (gradient shards headed for the host optimizer).
    Spill,
    /// Host → device (parameter pieces materialized for compute).
    Fetch,
}

/// One planned host↔device tier movement. Tier ops form a second stream
/// alongside the collective ops: each records *where* in the collective
/// stream it is issued (`issue_pos`) and where its result is first needed
/// (`demand_pos`), so the `offload` verify pass can prove the prefetch
/// window statically — `issue_pos ≤ demand_pos` — and the runtime cursor
/// can assert the engine issues each movement at exactly the planned
/// anchor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierOp {
    /// Movement direction.
    pub dir: TierDir,
    /// Schedule position, e.g. `"tier-param-fetch"`.
    pub label: &'static str,
    /// Elements moved by each DP rank (tier traffic is rank-local, so the
    /// counts are per-rank volumes, not collective group counts).
    pub counts: Vec<usize>,
    /// Bytes per element on the tier link.
    pub elem_bytes: u64,
    /// Number of collective ops issued before this movement is submitted.
    pub issue_pos: usize,
    /// Number of collective ops issued before the engine blocks on it.
    pub demand_pos: usize,
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

/// Mirrors [`GradBucket`](crate::bucket::GradBucket)'s flush decisions
/// arithmetically (spans only, no data): push descending-contiguous
/// ranges, flush the fused span when pending reaches capacity. The
/// trace-conformance tests pin this mirror to the real bucket.
struct BucketMirror {
    capacity: usize,
    pending: usize,
    start: usize,
    end: usize,
    has: bool,
}

impl BucketMirror {
    fn new(capacity: usize) -> BucketMirror {
        assert!(capacity > 0, "bucket capacity must be positive");
        BucketMirror { capacity, pending: 0, start: 0, end: 0, has: false }
    }

    fn take(&mut self) -> Range<usize> {
        let r = self.start..self.end;
        self.has = false;
        self.pending = 0;
        r
    }

    /// Pushes one unit's span; returns the fused range if this push
    /// reached capacity (same trigger as `GradBucket::push`).
    fn push(&mut self, r: &Range<usize>) -> Option<Range<usize>> {
        if self.has {
            assert_eq!(r.end, self.start, "plan bucket: spans must be descending-contiguous");
        } else {
            self.end = r.end;
            self.has = true;
        }
        self.start = r.start;
        self.pending += r.len();
        (self.pending >= self.capacity).then(|| self.take())
    }

    /// Drains the remainder (end of backward), if any.
    fn flush(&mut self) -> Option<Range<usize>> {
        self.has.then(|| self.take())
    }
}

/// Which ZeRO++ levers are actually in effect for a stage/grid — the
/// config flags gated by the stage that owns the collective each lever
/// compresses. Shared verbatim by the plan [`Builder`] and the engine so
/// the two cannot disagree about when a compressed op appears.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EffectiveCompression {
    /// Quantized weight all-gather (stage-3 parameter fetches only).
    pub qwz: bool,
    /// Secondary node-local parameter partition (stage-3 fetches only).
    pub hpz: bool,
    /// Quantized all-to-all gradient reduce-scatter (bucketed stages 2–3).
    pub qgz: bool,
    /// Ranks per node G.
    pub node_size: usize,
    /// Quantization block length.
    pub block: usize,
}

impl EffectiveCompression {
    /// Resolves the configured levers against the stage and grid.
    ///
    /// # Panics
    /// Panics if a lever is in effect with model parallelism (the two-tier
    /// node grouping is defined over pure DP ranks) or a DP degree not
    /// divisible by the node size.
    pub fn resolve(zcfg: &ZeroConfig, grid: Grid) -> EffectiveCompression {
        let comp = zcfg.compression;
        let eff = EffectiveCompression {
            qwz: comp.qwz && zcfg.stage.partitions_params(),
            hpz: comp.hpz && zcfg.stage.partitions_params(),
            qgz: comp.qgz && zcfg.stage.partitions_grads(),
            node_size: comp.node_size,
            block: comp.block,
        };
        if eff.any() {
            assert_eq!(
                grid.mp_degree(),
                1,
                "compression requires mp = 1 (node grouping is over DP ranks)"
            );
            assert!(eff.node_size >= 1, "compression node_size must be positive");
            assert_eq!(
                grid.dp_degree() % eff.node_size,
                0,
                "DP degree {} must be divisible by node size {}",
                grid.dp_degree(),
                eff.node_size
            );
        }
        eff
    }

    /// True if any lever is in effect.
    pub fn any(&self) -> bool {
        self.qwz || self.hpz || self.qgz
    }
}

/// Which state classes actually cross the memory tier for a stage — the
/// tier flag gated by the stage that owns each class (§3's taxonomy:
/// optimizer states partition at stage ≥ 1, gradients at stage ≥ 2,
/// parameters at stage 3). Shared verbatim by the plan [`Builder`] and
/// the engine so the two cannot disagree about which tier ops appear.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EffectiveOffload {
    /// Master params + Adam moments live in the host tier; the optimizer
    /// updates there (grad shards spill down, updated params fetch up).
    pub opt_state: bool,
    /// Reduced gradient shards spill to the host tier bucket by bucket.
    pub grads: bool,
    /// The stage-3 working parameter shard lives in the host tier; every
    /// unit materialization first fetches the local piece up.
    pub params: bool,
}

impl EffectiveOffload {
    /// Resolves the configured tier against the stage and grid.
    ///
    /// # Panics
    /// Panics if the tier is enabled with model parallelism (tier volumes
    /// are defined over the DP partition of the flat space).
    pub fn resolve(zcfg: &ZeroConfig, grid: Grid) -> EffectiveOffload {
        let on = zcfg.tier.enabled;
        let eff = EffectiveOffload {
            opt_state: on && zcfg.stage.partitions_optimizer(),
            grads: on && zcfg.stage.partitions_grads(),
            params: on && zcfg.stage.partitions_params(),
        };
        if eff.any() {
            assert_eq!(
                grid.mp_degree(),
                1,
                "tier offload requires mp = 1 (tier volumes are over DP shards)"
            );
            assert!(
                !(zcfg.compression.qwz || zcfg.compression.hpz || zcfg.compression.qgz),
                "tier offload cannot combine with ZeRO++ compression"
            );
        }
        eff
    }

    /// True if any state class crosses the tier.
    pub fn any(&self) -> bool {
        self.opt_state || self.grads || self.params
    }
}

/// Internal builder state shared by the plan constructors.
struct Builder {
    ops: Vec<PlanOp>,
    part: Partitioner,
    prec: Precision,
    /// Overlap-centric execution: fetches and bucket reduce-scatters are
    /// issued non-blocking, and stage-3 fetch ops appear in prefetch
    /// *issue* order (one unit ahead of use).
    overlap: bool,
    /// Effective ZeRO++ levers for this stage/grid.
    comp: EffectiveCompression,
    /// hpZ secondary partition: the flat space over the G ranks of a node.
    sec_part: Partitioner,
    /// hpZ: units whose secondary copy is populated at this point of the
    /// step — their re-fetches resolve intra-node. Parameters only change
    /// at the optimizer step, so one global gather per unit per step
    /// suffices; the engine mirrors this first-touch rule exactly.
    stashed: Vec<bool>,
    /// Effective tier-offload levers for this stage/grid.
    off: EffectiveOffload,
    /// The tier-movement stream being built alongside `ops`.
    tier: Vec<TierOp>,
    /// Index into `tier` of each unit's in-flight prefetch param fetch,
    /// until [`Builder::demand_unit`] stamps its demand position.
    unit_tier_idx: Vec<Option<usize>>,
    /// Overlap mode: gradient spills recorded at their reduce-scatter but
    /// issued at the end-of-micro drain (the engine submits a spill only
    /// once the bucket's reduce-scatter has completed on the FIFO).
    pending_spills: Vec<Vec<usize>>,
}

impl Builder {
    fn new(layout: &Layout, zcfg: &ZeroConfig, grid: Grid) -> Builder {
        let comp = EffectiveCompression::resolve(zcfg, grid);
        Builder {
            ops: Vec::new(),
            part: Partitioner::new(layout.total_params(), grid.dp_degree()),
            prec: if zcfg.fp16 { Precision::Fp16 } else { Precision::Fp32 },
            overlap: zcfg.overlap,
            comp,
            sec_part: Partitioner::new(layout.total_params(), comp.node_size.max(1)),
            stashed: vec![false; layout.units().len()],
            off: EffectiveOffload::resolve(zcfg, grid),
            tier: Vec::new(),
            unit_tier_idx: vec![None; layout.units().len()],
            pending_spills: Vec::new(),
        }
    }

    /// Pushes a tier movement anchored at the current op position. Sync
    /// call sites both issue and block here (`demand = issue`); prefetch
    /// fetches get their demand stamped later by [`Builder::demand_unit`].
    fn tier_op(&mut self, dir: TierDir, label: &'static str, counts: Vec<usize>) -> usize {
        let pos = self.ops.len();
        self.tier.push(TierOp {
            dir,
            label,
            counts,
            elem_bytes: self.prec.bytes(),
            issue_pos: pos,
            demand_pos: pos,
        });
        self.tier.len() - 1
    }

    /// Marks the point where the engine blocks on unit `u`'s prefetched
    /// tier fetch (the `fetch_unit_pf` wait). No-op unless a prefetch
    /// fetch for `u` is outstanding.
    fn demand_unit(&mut self, u: usize) {
        if let Some(idx) = self.unit_tier_idx[u].take() {
            self.tier[idx].demand_pos = self.ops.len();
        }
    }

    /// Flushes overlap-mode gradient spills at the end-of-micro drain:
    /// the engine waits each bucket's reduce-scatter there, accumulates,
    /// and only then submits the spill of the reduced piece.
    fn drain_spills(&mut self) {
        let pending = std::mem::take(&mut self.pending_spills);
        for counts in pending {
            self.tier_op(TierDir::Spill, "tier-grad-spill", counts);
        }
    }

    fn op(&mut self, kind: CollectiveKind, scope: PlanScope, counts: CountSpec, prec: Precision, label: &'static str) {
        self.ops.push(PlanOp { kind, scope, counts, prec, label, nonblocking: false, wire: WireFmt::Raw });
    }

    /// Pushes an op the engine issues through a non-blocking handle when
    /// overlap is on (the marker is informative: volumes and issue order
    /// are identical either way).
    fn op_nb(&mut self, kind: CollectiveKind, scope: PlanScope, counts: CountSpec, prec: Precision, label: &'static str, wire: WireFmt) {
        let nonblocking = self.overlap;
        self.ops.push(PlanOp { kind, scope, counts, prec, label, nonblocking, wire });
    }

    /// Stage-3 parameter materialization of unit `u` (§5.3): all-gather
    /// the flat-space intersections from every DP shard. Under hpZ the
    /// *first* fetch of a unit in the step is the global gather (qwZ wire
    /// if enabled) that also populates the node-local secondary copy;
    /// every later fetch of the same unit resolves inside the node.
    fn fetch_unit(&mut self, zcfg: &ZeroConfig, unit: &Range<usize>, u: usize) {
        if !zcfg.stage.partitions_params() {
            return;
        }
        if self.off.params {
            // The local shard piece of the unit climbs host → device right
            // before it seeds the all-gather (the FIFO serializes the two,
            // so both hide behind compute together under overlap).
            let counts = self.part.intersect_counts(unit);
            let idx = self.tier_op(TierDir::Fetch, "tier-param-fetch", counts);
            if self.prefetches(zcfg) {
                self.unit_tier_idx[u] = Some(idx);
            }
        }
        if self.comp.hpz && self.stashed[u] {
            let counts = self.sec_part.intersect_counts(unit);
            self.op_nb(
                CollectiveKind::AllGather,
                PlanScope::Node { g: self.comp.node_size },
                CountSpec::Explicit(counts),
                self.prec,
                "fetch-unit",
                WireFmt::Raw,
            );
            return;
        }
        self.stashed[u] = true;
        let wire = if self.comp.qwz {
            WireFmt::Int8Block { block: self.comp.block }
        } else {
            WireFmt::Raw
        };
        let counts = self.part.intersect_counts(unit);
        self.op_nb(
            CollectiveKind::AllGather,
            PlanScope::Dp,
            CountSpec::Explicit(counts),
            self.prec,
            "fetch-unit",
            wire,
        );
    }

    /// One block pass's Megatron hooks: two MP all-reduces of the
    /// activation buffer (§8: two in forward, two in backward, and two
    /// more per recomputed block).
    fn mp_block_pass(&mut self, act_elems: usize) {
        for _ in 0..2 {
            self.op(
                CollectiveKind::AllReduce,
                PlanScope::Mp,
                CountSpec::Even { total: act_elems },
                self.prec,
                "mp-block-allreduce",
            );
        }
    }

    /// P_a checkpoint re-materialization: all-gather the 1/N_m slices
    /// across the MP group (§6.1).
    fn ckpt_gather(&mut self, act_elems: usize) {
        self.op(
            CollectiveKind::AllGather,
            PlanScope::Mp,
            CountSpec::Even { total: act_elems },
            self.prec,
            "ckpt-gather",
        );
    }

    /// Stages 2/3 gradient dispatch: bucket the unit's span, emit one
    /// reduce-scatter per flush (§5.2 bucketization).
    fn dispatch_grads(&mut self, zcfg: &ZeroConfig, unit: &Range<usize>, bucket: &mut BucketMirror) {
        if !zcfg.stage.partitions_grads() {
            return;
        }
        if let Some(r) = bucket.push(unit) {
            self.grad_flush(&r);
        }
    }

    fn grad_flush(&mut self, fused: &Range<usize>) {
        let counts = self.part.intersect_counts(fused);
        let wire = if self.comp.qgz {
            WireFmt::QgzInt8 { node_size: self.comp.node_size, block: self.comp.block }
        } else {
            WireFmt::Raw
        };
        self.op_nb(
            CollectiveKind::ReduceScatter,
            PlanScope::Dp,
            CountSpec::Explicit(counts),
            self.prec,
            "grad-bucket",
            wire,
        );
        if self.off.grads {
            // Each rank spills its reduced piece of the bucket to the host
            // optimizer. The spill can only leave once the reduce-scatter
            // has produced it: sync mode spills right here, overlap mode
            // at the end-of-micro drain (where the engine first waits the
            // bucket's reduce-scatter).
            let counts = self.part.intersect_counts(fused);
            if self.overlap {
                self.pending_spills.push(counts);
            } else {
                self.tier_op(TierDir::Spill, "tier-grad-spill", counts);
            }
        }
    }

    /// True when the plan must list stage-3 fetches in prefetch *issue*
    /// order (the engine pops a plan op when it hands the all-gather to
    /// the progress thread, one unit ahead of use).
    fn prefetches(&self, zcfg: &ZeroConfig) -> bool {
        self.overlap && zcfg.stage.partitions_params()
    }

    /// One micro-batch's forward + backward comm, mirroring
    /// `RankEngine::accumulate_micro` op for op.
    fn micro(&mut self, layout: &Layout, zcfg: &ZeroConfig, act_elems: usize) {
        let units: Vec<Range<usize>> = layout.units().iter().map(|u| u.range.clone()).collect();
        let layers = units.len() - 2;
        let mut bucket = BucketMirror::new(zcfg.bucket_elems);
        let pf = self.prefetches(zcfg);

        // Forward: embed, blocks (two MP all-reduces each), head. Under
        // prefetch the first call issues units 0 and 1 back to back, and
        // each block's call issues the *next* unit before its own MP ops
        // (the double-buffered one-ahead window).
        if pf {
            self.fetch_unit(zcfg, &units[0], 0);
            self.fetch_unit(zcfg, &units[1], 1);
            self.demand_unit(0);
            for l in 0..layers {
                self.fetch_unit(zcfg, &units[2 + l], 2 + l);
                self.demand_unit(1 + l);
                self.mp_block_pass(act_elems);
            }
            // The head's call chains the prefetch into backward's first
            // refetch (non-checkpointed mode refetches block params).
            if !zcfg.checkpoint_activations && layers > 0 {
                self.fetch_unit(zcfg, &units[layers], layers);
            }
            self.demand_unit(1 + layers);
        } else {
            self.fetch_unit(zcfg, &units[0], 0);
            for l in 0..layers {
                self.fetch_unit(zcfg, &units[1 + l], 1 + l);
                self.mp_block_pass(act_elems);
            }
            self.fetch_unit(zcfg, &units[1 + layers], 1 + layers);
        }
        // Head forward+backward births the first gradients.
        self.dispatch_grads(zcfg, &units[1 + layers], &mut bucket);

        // Backward through blocks.
        if zcfg.checkpoint_activations {
            let interval = zcfg.checkpoint_interval.max(1);
            let mut seg_end = layers;
            while seg_end > 0 {
                let seg_start = ((seg_end - 1) / interval) * interval;
                if zcfg.partition_activations {
                    self.ckpt_gather(act_elems);
                }
                // Recompute the segment forward (block params are fetched
                // again; each recomputed block fires its two MP hooks)…
                // Under prefetch the chain restarts per segment: the first
                // block issues itself and its successor, later blocks issue
                // one ahead, the last issues nothing.
                for l in seg_start..seg_end {
                    if pf {
                        if l == seg_start {
                            self.fetch_unit(zcfg, &units[1 + l], 1 + l);
                        }
                        if l + 1 < seg_end {
                            self.fetch_unit(zcfg, &units[2 + l], 2 + l);
                        }
                        self.demand_unit(1 + l);
                    } else {
                        self.fetch_unit(zcfg, &units[1 + l], 1 + l);
                    }
                    self.mp_block_pass(act_elems);
                }
                // …then walk it backward (two MP hooks per block, grads
                // dispatched head-to-embed).
                for l in (seg_start..seg_end).rev() {
                    self.mp_block_pass(act_elems);
                    self.dispatch_grads(zcfg, &units[1 + l], &mut bucket);
                }
                seg_end = seg_start;
            }
        } else {
            for l in (0..layers).rev() {
                if pf {
                    // Block `layers-1` was issued by the head's call; each
                    // block issues its predecessor one ahead.
                    if l > 0 {
                        self.fetch_unit(zcfg, &units[l], l);
                    }
                    self.demand_unit(1 + l);
                } else {
                    self.fetch_unit(zcfg, &units[1 + l], 1 + l);
                }
                self.mp_block_pass(act_elems);
                self.dispatch_grads(zcfg, &units[1 + l], &mut bucket);
            }
        }

        // Embedding backward, then drain the bucket for the next micro.
        self.dispatch_grads(zcfg, &units[0], &mut bucket);
        if let Some(r) = bucket.flush() {
            self.grad_flush(&r);
        }
        self.drain_spills();
    }

    /// End-of-step gradient reduction for the non-bucketed stages,
    /// chunked through CB-sized buffers (mirrors `reduce_full_grads`).
    fn grad_reduce(&mut self, zcfg: &ZeroConfig) {
        if zcfg.stage.partitions_grads() {
            return;
        }
        let psi = self.part.total();
        let step = zcfg.bucket_elems;
        let mut cursor = 0;
        while cursor < psi {
            let end = (cursor + step).min(psi);
            let chunk = cursor..end;
            match zcfg.stage {
                ZeroStage::Ddp => match zcfg.node_size {
                    Some(g) => {
                        // Two-level all-reduce: node reduce-scatter,
                        // cross-node all-reduce of the owned chunk, node
                        // all-gather.
                        self.op(
                            CollectiveKind::ReduceScatter,
                            PlanScope::Node { g },
                            CountSpec::Even { total: chunk.len() },
                            self.prec,
                            "hier-node-rs",
                        );
                        self.op(
                            CollectiveKind::AllReduce,
                            PlanScope::Cross { g },
                            CountSpec::NodeChunk { total: chunk.len() },
                            self.prec,
                            "hier-cross-ar",
                        );
                        self.op(
                            CollectiveKind::AllGather,
                            PlanScope::Node { g },
                            CountSpec::Even { total: chunk.len() },
                            self.prec,
                            "hier-node-ag",
                        );
                    }
                    None => self.op(
                        CollectiveKind::AllReduce,
                        PlanScope::Dp,
                        CountSpec::Even { total: chunk.len() },
                        self.prec,
                        "grad-allreduce",
                    ),
                },
                ZeroStage::One => {
                    let counts = self.part.intersect_counts(&chunk);
                    self.op(
                        CollectiveKind::ReduceScatter,
                        PlanScope::Dp,
                        CountSpec::Explicit(counts),
                        self.prec,
                        "grad-reduce-scatter",
                    );
                }
                _ => unreachable!("stages 2/3 reduce through the bucket"),
            }
            cursor = end;
        }
    }

    /// Stage 1/2 parameter publish: all-gather updated shards chunk by
    /// chunk (mirrors `publish_params`).
    fn publish(&mut self, zcfg: &ZeroConfig) {
        if !matches!(zcfg.stage, ZeroStage::One | ZeroStage::Two) {
            return;
        }
        let psi = self.part.total();
        let step = zcfg.bucket_elems;
        let mut cursor = 0;
        while cursor < psi {
            let end = (cursor + step).min(psi);
            let counts = self.part.intersect_counts(&(cursor..end));
            if self.off.opt_state {
                // The host optimizer's freshly updated fp16 shard piece
                // climbs host → device to seed the publish all-gather.
                self.tier_op(TierDir::Fetch, "tier-publish-fetch", counts.clone());
            }
            self.op(
                CollectiveKind::AllGather,
                PlanScope::Dp,
                CountSpec::Explicit(counts),
                self.prec,
                "publish-params",
            );
            cursor = end;
        }
    }

    /// Seals the builder into a plan, checking the tier mirror is
    /// balanced: every prefetch fetch got a demand stamp and every
    /// overlap spill was drained.
    fn finish(self, grid: Grid) -> CommPlan {
        debug_assert!(
            self.unit_tier_idx.iter().all(Option::is_none),
            "plan builder: a prefetched tier fetch was never demanded"
        );
        debug_assert!(
            self.pending_spills.is_empty(),
            "plan builder: pending tier spills were never drained"
        );
        CommPlan { grid, ops: self.ops, tier: self.tier }
    }
}

impl CommPlan {
    /// The deterministic prefix of a training step: every micro-batch's
    /// forward/backward comm, the end-of-step gradient reduction, and the
    /// world-wide overflow-flag all-reduce. Everything up to (and
    /// including) the point where the skip decision becomes known.
    pub fn step_prefix(
        layout: &Layout,
        zcfg: &ZeroConfig,
        grid: Grid,
        micro_batches: usize,
        act_elems: usize,
    ) -> CommPlan {
        assert!(micro_batches > 0, "need at least one micro-batch");
        let mut b = Builder::new(layout, zcfg, grid);
        for _ in 0..micro_batches {
            b.micro(layout, zcfg, act_elems);
        }
        b.grad_reduce(zcfg);
        b.op(
            CollectiveKind::AllReduce,
            PlanScope::World,
            CountSpec::Even { total: 1 },
            Precision::Fp32,
            "overflow-flag",
        );
        b.finish(grid)
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
                // during accumulation).
                let counts = b.part.counts().to_vec();
                b.tier_op(TierDir::Spill, "tier-grad-spill", counts);
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
                b.op(
                    CollectiveKind::AllReduce,
                    scope,
                    CountSpec::Even { total: 1 },
                    Precision::Fp32,
                    "grad-norm",
                );
            }
            b.publish(zcfg);
        }
        b.finish(grid)
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
            t
        }));
        plan
    }

    /// A forward-only evaluation pass (mirrors `try_eval_loss`).
    pub fn eval_pass(layout: &Layout, zcfg: &ZeroConfig, grid: Grid, act_elems: usize) -> CommPlan {
        let mut b = Builder::new(layout, zcfg, grid);
        let units: Vec<Range<usize>> = layout.units().iter().map(|u| u.range.clone()).collect();
        let layers = units.len() - 2;
        if b.prefetches(zcfg) {
            // Same one-ahead issue order as the forward pass of `micro`;
            // the head's call has nothing left to chain into.
            b.fetch_unit(zcfg, &units[0], 0);
            b.fetch_unit(zcfg, &units[1], 1);
            b.demand_unit(0);
            for l in 0..layers {
                b.fetch_unit(zcfg, &units[2 + l], 2 + l);
                b.demand_unit(1 + l);
                b.mp_block_pass(act_elems);
            }
            b.demand_unit(1 + layers);
        } else {
            b.fetch_unit(zcfg, &units[0], 0);
            for l in 0..layers {
                b.fetch_unit(zcfg, &units[1 + l], 1 + l);
                b.mp_block_pass(act_elems);
            }
            b.fetch_unit(zcfg, &units[1 + layers], 1 + layers);
        }
        b.finish(grid)
    }

    /// The standalone parameter re-publish a snapshot restore performs.
    pub fn publish_refresh(layout: &Layout, zcfg: &ZeroConfig, grid: Grid) -> CommPlan {
        let mut b = Builder::new(layout, zcfg, grid);
        b.publish(zcfg);
        b.finish(grid)
    }

    /// One shard-hosted *serving* step over `n` inference ranks: every
    /// unit (embed, blocks…, head) is all-gathered from the balanced
    /// [`Partitioner`] shards in walk order — the stage-3 fetch schedule
    /// (§5.3) without any gradient or optimizer traffic. With `overlap`
    /// the gathers are issued non-blocking (the serving engine runs them
    /// one unit ahead of compute, the PR-3 double-buffer shape); issue
    /// order is identical either way, so the same static symmetry and
    /// volume checks apply.
    pub fn serve_step(layout: &Layout, n: usize, overlap: bool) -> CommPlan {
        assert!(n > 0, "serving world must be non-empty");
        let grid = Grid::new(n, 1);
        let part = Partitioner::new(layout.total_params(), n);
        let ops = layout
            .units()
            .iter()
            .map(|u| PlanOp {
                kind: CollectiveKind::AllGather,
                scope: PlanScope::Dp,
                counts: CountSpec::Explicit(part.intersect_counts(&u.range)),
                prec: Precision::Fp32,
                label: "serve-fetch-unit",
                nonblocking: overlap,
                wire: WireFmt::Raw,
            })
            .collect();
        CommPlan { grid, ops, tier: Vec::new() }
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

    /// Resolves the tier stream for one concrete rank. Tier offload
    /// requires mp = 1, so the rank indexes the DP partition directly.
    ///
    /// # Panics
    /// Panics if `rank` is outside the grid, or the plan has tier ops but
    /// a model-parallel grid.
    pub fn resolve_tier_for(&self, rank: usize) -> Vec<ResolvedTierOp> {
        let world = self.grid.world_size();
        assert!(rank < world, "rank {rank} outside grid of {world}");
        if !self.tier.is_empty() {
            assert_eq!(self.grid.mp_degree(), 1, "tier plans are mp = 1 only");
        }
        self.tier
            .iter()
            .map(|t| {
                assert_eq!(t.counts.len(), world, "tier counts cover every DP rank");
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
    /// Panics if `rank` is outside the grid or a `Node`/`Cross` scope's
    /// node size does not divide the world.
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
                    PlanScope::Node { g } => {
                        assert_eq!(world % g, 0, "node size {g} must divide world {world}");
                        NodeTopology::new(g).node_group(rank)
                    }
                    PlanScope::Cross { g } => {
                        assert_eq!(world % g, 0, "node size {g} must divide world {world}");
                        NodeTopology::new(g).cross_group(rank, world)
                    }
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

    /// Analytic bytes `rank` pushes across the slow links of a
    /// `g`-rank-per-node topology executing this plan — the quantity the
    /// ZeRO++ levers shrink.
    pub fn rank_inter_node_bytes(&self, rank: usize, g: usize) -> u64 {
        self.resolve_for(rank)
            .iter()
            .map(|op| op.sent_inter_node_bytes(rank, g))
            .sum()
    }

    /// [`CommPlan::rank_inter_node_bytes`] summed over every rank: the
    /// total load on the inter-node fabric per plan execution.
    pub fn total_inter_node_bytes(&self, g: usize) -> u64 {
        (0..self.grid.world_size())
            .map(|r| self.rank_inter_node_bytes(r, g))
            .sum()
    }
}

/// The engine's handle on the current plan: runtime collective calls pop
/// ops off this cursor, so execution cannot silently diverge from the
/// declared schedule (and the planned counts drive the actual calls).
#[derive(Debug, Default)]
pub struct PlanCursor {
    ops: VecDeque<ResolvedOp>,
    tier: VecDeque<ResolvedTierOp>,
    source: &'static str,
    installed: usize,
    consumed: usize,
}

impl PlanCursor {
    /// An empty cursor (no plan installed yet).
    pub fn idle() -> PlanCursor {
        PlanCursor::default()
    }

    /// Installs `plan` resolved for `rank`, replacing any leftover ops
    /// (a failed step abandons its plan; the next entry point re-plans).
    pub fn install(&mut self, plan: &CommPlan, rank: usize, source: &'static str) {
        self.ops = plan.resolve_for(rank).into();
        self.tier = plan.resolve_tier_for(rank).into();
        self.source = source;
        self.installed = self.ops.len();
        self.consumed = 0;
    }

    /// Pops the next planned op, asserting it is a `kind` collective over
    /// exactly `group`. The returned op's counts parameterize the call.
    ///
    /// # Panics
    /// Panics on schedule drift: the plan is exhausted, or the next op's
    /// kind/group disagree with what the engine is about to execute.
    pub fn take(&mut self, kind: CollectiveKind, group: &Group) -> ResolvedOp {
        let op = self.ops.pop_front().unwrap_or_else(|| {
            panic!(
                "comm-plan drift: engine issued {kind:?} over {:?} but the \
                 '{}' plan ({} ops) is exhausted",
                group.members(),
                self.source,
                self.installed
            )
        });
        assert_eq!(
            op.kind, kind,
            "comm-plan drift at '{}' ({}): planned {:?}, engine issued {kind:?}",
            op.label, self.source, op.kind
        );
        assert_eq!(
            op.members,
            group.members(),
            "comm-plan group drift at '{}' ({})",
            op.label,
            self.source
        );
        self.consumed += 1;
        op
    }

    /// Pops the next planned tier movement, asserting direction, label,
    /// and that the engine is at exactly the planned issue anchor (the
    /// number of collective ops consumed so far).
    ///
    /// # Panics
    /// Panics on tier-schedule drift.
    pub fn take_tier(&mut self, dir: TierDir, label: &str) -> ResolvedTierOp {
        let t = self.tier.pop_front().unwrap_or_else(|| {
            panic!(
                "tier-plan drift: engine issued {dir:?} '{label}' but the \
                 '{}' plan's tier stream is exhausted",
                self.source
            )
        });
        assert!(
            t.dir == dir && t.label == label,
            "tier-plan drift ({}): planned {:?} '{}', engine issued {dir:?} '{label}'",
            self.source,
            t.dir,
            t.label
        );
        assert_eq!(
            t.issue_pos, self.consumed,
            "tier-plan anchor drift at '{}' ({}): planned issue after {} collective \
             op(s), engine has consumed {}",
            t.label, self.source, t.issue_pos, self.consumed
        );
        t
    }

    /// Ops not yet consumed.
    pub fn remaining(&self) -> usize {
        self.ops.len()
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
            self.ops.front().map_or("-", |op| op.label)
        );
        assert!(
            self.tier.is_empty(),
            "tier-plan drift: {} tier op(s) of '{}' never executed ({context}); next: '{}'",
            self.tier.len(),
            self.source,
            self.tier.front().map_or("-", |t| t.label)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::GradBucket;
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
    fn bucket_mirror_matches_grad_bucket() {
        // Same spans through both implementations → same flush ranges.
        let spans = [90..120, 60..90, 40..60, 10..40, 0..10];
        for cap in [1usize, 25, 64, 1000] {
            let mut real = GradBucket::new(cap);
            let mut real_flushes: Vec<Range<usize>> = Vec::new();
            let mut mirror = BucketMirror::new(cap);
            let mut mirror_flushes: Vec<Range<usize>> = Vec::new();
            for s in &spans {
                if real.push(s.clone(), vec![0.0; s.len()]) {
                    real.flush_all(&mut |r, _| real_flushes.push(r));
                }
                if let Some(r) = mirror.push(s) {
                    mirror_flushes.push(r);
                }
            }
            real.flush_all(&mut |r, _| real_flushes.push(r));
            if let Some(r) = mirror.flush() {
                mirror_flushes.push(r);
            }
            assert_eq!(real_flushes, mirror_flushes, "capacity {cap}");
        }
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
            let part = Partitioner::new(psi, n);
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
        let mut cur = PlanCursor::idle();
        cur.install(&plan, 0, "test");
        let g = Group::world(2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // DDP plans MP all-reduces (size-1 groups) first; asking for a
            // ReduceScatter over the world must trip the drift assert.
            cur.take(CollectiveKind::ReduceScatter, &g);
        }));
        assert!(err.is_err());
    }

    fn comp_all() -> crate::config::CompressionConfig {
        crate::config::CompressionConfig {
            qwz: true,
            hpz: true,
            qgz: true,
            node_size: 2,
            block: 64,
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
            compression: crate::config::CompressionConfig {
                hpz: true,
                node_size: 2,
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
            compression: crate::config::CompressionConfig {
                qgz: true,
                node_size: 2,
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
        let zcfg = ZeroConfig { compression: comp_all(), ..fp16 };
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
            for overlap in [false, true] {
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
            for overlap in [false, true] {
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
        let psi = layout.total_params();
        let grid = Grid::new(4, 1);
        let part = Partitioner::new(psi, 4);
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
            // Stages 1/2: per-step publish fetch is exactly the shard.
            for stage in [ZeroStage::One, ZeroStage::Two] {
                let plan = CommPlan::train_step(&layout, &tiered(stage, overlap), grid, &shape2);
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
            // Stage 1 spills its shard exactly once, in the suffix.
            let plan = CommPlan::train_step(&layout, &tiered(ZeroStage::One, overlap), grid, &shape2);
            let spills: Vec<_> =
                plan.tier_ops().iter().filter(|t| t.dir == TierDir::Spill).collect();
            assert_eq!(spills.len(), 1);
            assert_eq!(spills[0].counts, part.counts().to_vec());
        }
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
    fn cursor_enforces_tier_anchor() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(2, 1);
        let plan = CommPlan::train_step(&layout, &tiered(ZeroStage::Three, false), grid, &shape());
        let mut cur = PlanCursor::idle();
        cur.install(&plan, 0, "test");
        // The first planned movement is the embed fetch at anchor 0.
        let t = cur.take_tier(TierDir::Fetch, "tier-param-fetch");
        assert_eq!(t.issue_pos, 0);
        assert!(t.bytes > 0);
        // The next fetch anchors after the embed all-gather; taking it
        // without consuming that op must trip the anchor assert.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cur.take_tier(TierDir::Fetch, "tier-param-fetch");
        }));
        assert!(err.is_err());
    }

    #[test]
    fn hierarchical_plan_resolves_cross_chunks() {
        let layout = Layout::build(&tiny());
        let grid = Grid::new(4, 1);
        let zcfg = ZeroConfig { node_size: Some(2), ..cfg(ZeroStage::Ddp) };
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
    }
}
