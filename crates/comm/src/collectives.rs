//! Ring collectives.
//!
//! These are the same pipelined ring schedules NCCL uses, which is what
//! makes the paper's volume arithmetic hold: a ring all-reduce of Ψ
//! elements moves 2Ψ·(N−1)/N per rank (reduce-scatter Ψ·(N−1)/N plus
//! all-gather Ψ·(N−1)/N), which §7.1 rounds to 2Ψ.
//!
//! All collectives run over an explicit member list so the same code serves
//! the full world and DP/MP subgroups (§ "ZeRO and MP"). Chunking is
//! balanced-uneven (no padding): chunk `i` of `total` over `n` ranks has
//! `total/n + (i < total%n)` elements, and member `i` owns chunk `i`.
//!
//! ZeRO's communication is two collectives and their sum (§7):
//! reduce-scatter, all-gather, and all-reduce = reduce-scatter then
//! all-gather. The ring's two phases — reduce around the ring, gather
//! around the ring — are written once (`ring_reduce`, `ring_gather`).
//! ZeRO++'s qwZ and qgZ are [`WireFmt`]s of the same all-gather and
//! reduce-scatter, not further collectives. The surface is what a plan can
//! issue: [`Communicator::start_all_gather`] and
//! [`Communicator::start_reduce_scatter`] take explicit per-member counts
//! and a wire format, pick the `Fabric` body it names (run on the progress
//! thread), and return a [`PendingOp`]; [`Communicator::all_reduce_in`] is
//! the raw ring all-reduce over a group. The world-wide `all_reduce` /
//! `reduce_scatter` / `all_gather` are those over [`Group::world`] with
//! balanced counts, waited at once.

use crate::error::CommError;
use crate::group::Group;
use crate::nonblocking::PendingOp;
use crate::quant::{quant_wire_bytes, quantize_for_transport, BlockQuantized};
use crate::stats::CollectiveKind;
use crate::world::{Communicator, Fabric};

/// Reduction operator for reduce-style collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise sum divided by the group size.
    Mean,
    /// Elementwise maximum.
    Max,
}

/// Logical element width for traffic accounting.
///
/// In-process payloads always travel widened to `f32`, but fp16 tensors
/// must be *accounted* at 2 bytes/element for the paper's arithmetic
/// (gradients and parameters are fp16 in mixed-precision training).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// 4 bytes per element.
    Fp32,
    /// 2 bytes per element.
    Fp16,
}

impl Precision {
    /// Bytes per element.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 => 2,
        }
    }
}

/// Wire format of an all-gather or reduce-scatter: how its chunks are
/// encoded on the wire, and therefore how many bytes each hop carries.
/// `Raw` is the uncompressed ring; the other two are the ZeRO++
/// compression levers, each a wire of one of the two collectives.
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

/// The element range of chunk `i` when `total` elements are split over `n`
/// owners: sizes differ by at most one, larger chunks first.
pub fn chunk_range(total: usize, n: usize, i: usize) -> std::ops::Range<usize> {
    debug_assert!(i < n);
    let base = total / n;
    let rem = total % n;
    let start = i * base + i.min(rem);
    let len = base + usize::from(i < rem);
    start..start + len
}

/// Per-member lengths of the balanced split of `total` over `n` owners.
fn even_counts(total: usize, n: usize) -> Vec<usize> {
    (0..n).map(|i| chunk_range(total, n, i).len()).collect()
}

/// Converts explicit per-member chunk lengths into contiguous ranges.
fn ranges_from_counts(counts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::with_capacity(counts.len());
    let mut cursor = 0;
    for &c in counts {
        out.push(cursor..cursor + c);
        cursor += c;
    }
    out
}

/// Resolves `rank`'s position within `group`, surfacing a missing
/// membership as [`CommError::NotInGroup`] instead of a panic, so a
/// mis-grouped collective call leaves the rank recoverable (peers time out
/// cleanly rather than observing a poisoned thread).
fn member_index(group: &Group, rank: usize) -> Result<usize, CommError> {
    group.local_index(rank).ok_or_else(|| CommError::NotInGroup {
        rank,
        group: group.members().to_vec(),
    })
}

#[inline]
fn apply(op: ReduceOp, dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    match op {
        ReduceOp::Sum | ReduceOp::Mean => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        ReduceOp::Max => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = d.max(s);
            }
        }
    }
}

#[inline]
fn finalize(op: ReduceOp, buf: &mut [f32], n: usize) {
    if op == ReduceOp::Mean {
        let inv = 1.0 / n as f32;
        for v in buf {
            *v *= inv;
        }
    }
}

// ----- fabric-side bodies (run by whoever holds the fabric) -----
//
// Every membership check, fault trigger (`begin_op`), send, and receive
// happens in the order the synchronous implementations had. The public
// `Communicator` methods below either run one of these bodies on the
// caller's thread over its borrowed slices (the blocking collectives) or
// move the op's owned buffer into a closure over one and queue it (the
// `start_*` calls); argument lengths are asserted there, on the caller's
// thread. A group of one never gets here: it exchanges nothing, so those
// methods compute its result on the caller's thread.

/// One member's seat on the ring a collective runs around.
struct Ring {
    n: usize,
    idx: usize,
    next: usize,
    prev: usize,
}

impl Ring {
    /// `rank`'s seat in `group` ([`CommError::NotInGroup`] for a non-member).
    fn seat(group: &Group, rank: usize) -> Result<Ring, CommError> {
        let (n, idx) = (group.len(), member_index(group, rank)?);
        let at = |i: usize| group.members()[i % n];
        Ok(Ring { n, idx, next: at(idx + 1), prev: at(idx + n - 1) })
    }
}

impl Fabric {
    /// Ring phase 1 — reduce around the ring: after n−1 steps this member
    /// holds the fully reduced chunk `idx` of `buf` (the other chunks hold
    /// partial sums). Each step receives into the fabric's scratch buffer
    /// and reduces it into `buf`.
    fn ring_reduce(
        &mut self,
        ring: &Ring,
        buf: &mut [f32],
        chunks: &[std::ops::Range<usize>],
        op: ReduceOp,
        kind: CollectiveKind,
        prec: Precision,
    ) -> Result<(), CommError> {
        let Ring { n, idx, next, prev } = *ring;
        let mut incoming = std::mem::take(&mut self.scratch);
        let mut steps = || -> Result<(), CommError> {
            for step in 0..n - 1 {
                let send_c = chunks[(idx + 2 * n - 1 - step) % n].clone();
                let recv_c = chunks[(idx + 2 * n - 2 - step) % n].clone();
                self.send_raw(next, &buf[send_c.clone()], kind, prec.bytes() * send_c.len() as u64)?;
                incoming.resize(recv_c.len(), 0.0);
                self.recv_raw(prev, &mut incoming)?;
                apply(op, &mut buf[recv_c], &incoming);
            }
            Ok(())
        };
        let res = steps();
        self.scratch = incoming;
        res
    }

    /// Ring phase 2 — gather around the ring: this member starts with
    /// chunk `idx` of `buf` final and ends with every chunk. A raw ring
    /// forwards each chunk straight out of `buf` and receives straight
    /// into it. Under qwZ (`Int8Block`) the encoded stream circulates
    /// instead: `own` is this member's chunk as the wire encodes it, each
    /// step forwards the stream the step before received, so a chunk is
    /// encoded once, by its owner, and every member decodes the same
    /// stream into `buf`. A hop is priced at `prec` raw or at int8 wire
    /// cost (qwZ).
    #[allow(clippy::too_many_arguments)]
    fn ring_gather(
        &mut self,
        ring: &Ring,
        buf: &mut [f32],
        chunks: &[std::ops::Range<usize>],
        own: Option<Vec<f32>>,
        kind: CollectiveKind,
        prec: Precision,
        wire: WireFmt,
    ) -> Result<(), CommError> {
        let Ring { n, idx, next, prev } = *ring;
        let (mut stream, mut incoming) = (own.unwrap_or_default(), Vec::new());
        for step in 0..n - 1 {
            let send_c = chunks[(idx + n - step) % n].clone();
            let recv_c = chunks[(idx + 2 * n - 1 - step) % n].clone();
            match wire {
                WireFmt::Int8Block { block } => {
                    self.send_raw(next, &stream, kind, quant_wire_bytes(send_c.len(), block))?;
                    incoming.resize(2 * recv_c.len().div_ceil(block) + recv_c.len(), 0.0);
                    self.recv_raw(prev, &mut incoming)?;
                    let dst = &mut buf[recv_c];
                    dst.copy_from_slice(&BlockQuantized::decode(&incoming, dst.len(), block).dequantize());
                    std::mem::swap(&mut stream, &mut incoming);
                }
                _ => {
                    self.send_raw(next, &buf[send_c.clone()], kind, prec.bytes() * send_c.len() as u64)?;
                    self.recv_raw(prev, &mut buf[recv_c])?;
                }
            }
        }
        Ok(())
    }

    /// Ring all-reduce within `group`, in place: both phases over balanced
    /// chunks.
    fn all_reduce_in(&mut self, group: &Group, buf: &mut [f32], op: ReduceOp, prec: Precision) -> Result<(), CommError> {
        let n = group.len();
        self.begin_op(CollectiveKind::AllReduce)?;
        let ring = Ring::seat(group, self.rank)?;
        let chunks: Vec<_> = (0..n).map(|i| chunk_range(buf.len(), n, i)).collect();
        self.ring_reduce(&ring, buf, &chunks, op, CollectiveKind::AllReduce, prec)?;
        self.ring_gather(&ring, buf, &chunks, None, CollectiveKind::AllReduce, prec, WireFmt::Raw)?;
        finalize(op, buf, n);
        Ok(())
    }

    /// Raw ring reduce-scatter with explicit per-member chunk lengths:
    /// phase 1 with `buf` (the full input) as the working buffer, which
    /// then shrinks, in place, to this member's reduced chunk.
    fn reduce_scatter_ring(
        &mut self,
        group: &Group,
        mut buf: Vec<f32>,
        op: ReduceOp,
        counts: &[usize],
        prec: Precision,
    ) -> Result<Vec<f32>, CommError> {
        let ring = Ring::seat(group, self.rank)?;
        let chunks = ranges_from_counts(counts);
        self.begin_op(CollectiveKind::ReduceScatter)?;
        self.ring_reduce(&ring, &mut buf, &chunks, op, CollectiveKind::ReduceScatter, prec)?;
        let own = chunks[ring.idx].clone();
        buf.copy_within(own.clone(), 0);
        buf.truncate(own.len());
        finalize(op, &mut buf, ring.n);
        Ok(buf)
    }

    /// Ring all-gather with explicit per-member chunk lengths, in place:
    /// `buf` is the `Σ counts` output, whose chunk for this member holds
    /// its shard on entry. Under qwZ (`Int8Block`) the wire carries int8
    /// codes plus per-block fp32 scale/zero-points: each rank quantizes
    /// its own chunk exactly once, the *encoded* stream circulates the
    /// ring verbatim, and every rank — owner included — dequantizes from
    /// that stream, so the gathered buffer is bitwise identical across
    /// the group and requantization error never compounds across hops.
    fn all_gather_ring(
        &mut self,
        group: &Group,
        buf: &mut [f32],
        counts: &[usize],
        prec: Precision,
        wire: WireFmt,
    ) -> Result<(), CommError> {
        let ring = Ring::seat(group, self.rank)?;
        let chunks = ranges_from_counts(counts);
        let own = match wire {
            WireFmt::Int8Block { block } => {
                let seed = &mut buf[chunks[ring.idx].clone()];
                let q = quantize_for_transport(seed, block);
                seed.copy_from_slice(&q.dequantize());
                Some(q.encode())
            }
            _ => None,
        };
        self.begin_op(CollectiveKind::AllGather)?;
        self.ring_gather(&ring, buf, &chunks, own, CollectiveKind::AllGather, prec, wire)
    }

    /// Two-phase quantized reduce-scatter (ZeRO++ qgZ) over a group whose
    /// ranks are laid out node-major (`node_size` consecutive members per
    /// node):
    ///
    /// 1. **raw intra-node all-to-all** — node-mate at slot `s` collects,
    ///    at full precision, every chunk destined to a slot-`s` rank on
    ///    any node, then reduces the node's contributions locally in slot
    ///    order;
    /// 2. **quantized inter-node all-to-all** — each rank sends its local
    ///    partial for node `m`'s same-slot owner as int8 codes, and sums
    ///    the dequantized partials in node order.
    ///
    /// Only the slow inter-node hop is quantized; the rank's own partial
    /// stays full precision. Accumulation order (slots, then nodes) is
    /// fixed, so results are bit-deterministic across runs.
    ///
    /// # Errors
    /// Membership violations surface as [`CommError::NotInGroup`], and a
    /// `node_size` that does not divide the group as
    /// [`CommError::InvalidTopology`].
    #[allow(clippy::too_many_arguments)]
    fn reduce_scatter_qgz(
        &mut self,
        group: &Group,
        input: &[f32],
        op: ReduceOp,
        counts: &[usize],
        node_size: usize,
        block: usize,
        prec: Precision,
    ) -> Result<Vec<f32>, CommError> {
        let n = group.len();
        let idx = member_index(group, self.rank)?;
        let g = node_size;
        if g == 0 || !n.is_multiple_of(g) {
            return Err(CommError::InvalidTopology { rank: self.rank, world: n, node_size: g });
        }
        self.begin_op(CollectiveKind::ReduceScatter)?;
        let nodes = n / g;
        let slot = idx % g;
        let node = idx / g;
        let ranges = ranges_from_counts(counts);
        // Mean sums through both phases and divides once at the end.
        let inner = if op == ReduceOp::Mean { ReduceOp::Sum } else { op };

        // Phase 1 — raw intra-node all-to-all in pairwise rounds (round `d`
        // sends to slot+d and receives from slot−d). The payload to slot
        // `s` concatenates the chunks of every slot-`s` owner in node order.
        let col_len: usize = (0..nodes).map(|m| counts[m * g + slot]).sum();
        let mut from_mates: Vec<Option<Vec<f32>>> = vec![None; g];
        for d in 1..g {
            let to_slot = (slot + d) % g;
            let from_slot = (slot + g - d) % g;
            let to = group.members()[node * g + to_slot];
            let from = group.members()[node * g + from_slot];
            let mut payload = Vec::new();
            for m in 0..nodes {
                payload.extend_from_slice(&input[ranges[m * g + to_slot].clone()]);
            }
            let bytes = prec.bytes() * payload.len() as u64;
            self.send_raw(to, &payload, CollectiveKind::ReduceScatter, bytes)?;
            let mut incoming = vec![0.0; col_len];
            self.recv_raw(from, &mut incoming)?;
            from_mates[from_slot] = Some(incoming);
        }
        // Node-local partials for this rank's slot column, accumulated in
        // slot order so every rank reduces identically.
        let mut partial: Vec<Vec<f32>> = Vec::with_capacity(nodes);
        for m in 0..nodes {
            partial.push(vec![0.0; counts[m * g + slot]]);
        }
        for (s, mate) in from_mates.iter().enumerate() {
            let mut off = 0usize;
            for (m, dst) in partial.iter_mut().enumerate() {
                let len = counts[m * g + slot];
                let src: &[f32] = if s == slot {
                    &input[ranges[m * g + slot].clone()]
                } else {
                    let Some(buf) = mate else {
                        unreachable!("phase 1 received from every node-mate")
                    };
                    &buf[off..off + len]
                };
                if s == 0 {
                    dst.copy_from_slice(src);
                } else {
                    apply(inner, dst, src);
                }
                off += len;
            }
        }

        // Phase 2 — quantized inter-node all-to-all: node `m`'s same-slot
        // owner receives this node's partial for its chunk as int8 codes.
        let mut from_nodes: Vec<Option<Vec<f32>>> = vec![None; nodes];
        for d in 1..nodes {
            let to_node = (node + d) % nodes;
            let from_node = (node + nodes - d) % nodes;
            let to = group.members()[to_node * g + slot];
            let from = group.members()[from_node * g + slot];
            let q = quantize_for_transport(&partial[to_node], block);
            let logical = quant_wire_bytes(counts[to_node * g + slot], block);
            self.send_raw(to, &q.encode(), CollectiveKind::ReduceScatter, logical)?;
            let mut stream = vec![0.0; 2 * counts[idx].div_ceil(block) + counts[idx]];
            self.recv_raw(from, &mut stream)?;
            from_nodes[from_node] = Some(stream);
        }
        // Final reduction in node order; the local partial stays full
        // precision — only the slow hop was quantized.
        let mut out = vec![0.0; counts[idx]];
        for (m, incoming) in from_nodes.iter().enumerate() {
            let src: Vec<f32> = if m == node {
                partial[node].clone()
            } else {
                let Some(stream) = incoming else {
                    unreachable!("phase 2 received from every peer node")
                };
                BlockQuantized::decode(stream, counts[idx], block).dequantize()
            };
            if m == 0 {
                out.copy_from_slice(&src);
            } else {
                apply(inner, &mut out, &src);
            }
        }
        finalize(op, &mut out, n);
        Ok(out)
    }
}


// ----- the public surface: run on the caller, or queue with an owned buffer -----

impl Communicator {
    /// `Some` when `group` has one member: a collective over it is not
    /// communication, so its result is computed on the caller's thread,
    /// with no job, span, or exec or wait time. `Ok` for this rank,
    /// [`CommError::NotInGroup`] for any other.
    fn alone_in(&self, group: &Group) -> Option<Result<(), CommError>> {
        (group.len() == 1).then(|| member_index(group, self.rank()).map(drop))
    }

    /// Ring all-reduce over the whole world, in place.
    pub fn all_reduce(
        &mut self,
        buf: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let n = self.world_size();
        self.all_reduce_in(&Group::world(n), buf, &even_counts(buf.len(), n), op, prec)
    }

    /// Ring reduce-scatter over the whole world, run on the caller's
    /// thread. `input` has the full length; this rank's reduced chunk is
    /// written to `out`.
    ///
    /// # Panics
    /// Panics unless `out` has exactly `chunk_range(len, n, rank).len()`
    /// elements.
    pub fn reduce_scatter(
        &mut self,
        input: &[f32],
        out: &mut [f32],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let n = self.world_size();
        let own = chunk_range(input.len(), n, self.rank());
        assert_eq!(out.len(), own.len(), "reduce_scatter: bad output length");
        if n == 1 {
            out.copy_from_slice(input);
            return Ok(());
        }
        let (g, counts) = (Group::world(n), even_counts(input.len(), n));
        self.run_now(CollectiveKind::ReduceScatter, |f| {
            let chunk = f.reduce_scatter_ring(&g, input.to_vec(), op, &counts, prec)?;
            out.copy_from_slice(&chunk);
            Ok(())
        })
    }

    /// Ring all-gather over the whole world, run on the caller's thread:
    /// this rank contributes `shard` (its chunk of `out`), and `out`
    /// receives every rank's chunk, straight off the wire.
    ///
    /// # Panics
    /// Panics if `shard` is not this rank's balanced chunk of `out`.
    pub fn all_gather(
        &mut self,
        shard: &[f32],
        out: &mut [f32],
        prec: Precision,
    ) -> Result<(), CommError> {
        let n = self.world_size();
        let own = chunk_range(out.len(), n, self.rank());
        assert_eq!(shard.len(), own.len(), "all_gather: bad shard length");
        out[own].copy_from_slice(shard);
        if n == 1 {
            return Ok(());
        }
        let (g, counts) = (Group::world(n), even_counts(out.len(), n));
        self.run_now(CollectiveKind::AllGather, |f| f.all_gather_ring(&g, out, &counts, prec, WireFmt::Raw))
    }

    /// Ring all-reduce within `group`, in place, run on the caller's
    /// thread. Member `i` reduces chunk `i` of `buf`, `counts[i]` elements
    /// long: the ring's balanced chunks, which a planned all-reduce names.
    ///
    /// # Panics
    /// Panics unless `counts[i]` is `chunk_range(buf.len(), group.len(),
    /// i).len()` for every member `i`.
    ///
    /// # Errors
    /// Returns [`CommError::NotInGroup`] if this rank is not a member of
    /// `group`.
    pub fn all_reduce_in(
        &mut self,
        group: &Group,
        buf: &mut [f32],
        counts: &[usize],
        op: ReduceOp,
        prec: Precision,
    ) -> Result<(), CommError> {
        let (len, n) = (buf.len(), group.len());
        let ring = |(i, &count): (usize, &usize)| count == chunk_range(len, n, i).len();
        assert!(
            counts.len() == n && counts.iter().enumerate().all(ring),
            "all_reduce: counts {counts:?} are not the ring's chunks of {len} elements over {n} members"
        );
        // Alone, every reduction (Mean divides by one) leaves `buf` as is.
        if let Some(member) = self.alone_in(group) {
            return member;
        }
        self.run_now(CollectiveKind::AllReduce, |f| f.all_reduce_in(group, buf, op, prec))
    }

    /// Starts a reduce-scatter within `group` without blocking: member `i`
    /// owns reduced chunk `i` of `buf` (the full input), `counts[i]`
    /// elements long (zero counts are allowed — ZeRO's flat-space
    /// partitioning produces uneven and sometimes empty intersections
    /// between a layer's parameter range and a rank's shard). `wire` picks
    /// the body: the raw ring, which reduces in `buf` itself, or qgZ's
    /// two-phase all-to-all, whose raw intra-node phase is priced at `prec`
    /// and inter-node phase at int8 wire cost. [`PendingOp::wait`] returns
    /// this rank's chunk — for the raw ring, `buf` shrunk to it, its
    /// capacity kept.
    ///
    /// # Panics
    /// Panics if `counts` is inconsistent with `group` and `buf`, or
    /// `wire` is not a reduce-scatter wire with a positive block.
    pub fn start_reduce_scatter(
        &mut self,
        group: &Group,
        buf: Vec<f32>,
        op: ReduceOp,
        counts: &[usize],
        prec: Precision,
        wire: WireFmt,
    ) -> PendingOp {
        assert_eq!(counts.len(), group.len(), "reduce_scatter: counts length");
        assert_eq!(counts.iter().sum::<usize>(), buf.len(), "reduce_scatter: counts sum");
        assert!(
            !matches!(wire, WireFmt::Int8Block { .. } | WireFmt::QgzInt8 { block: 0, .. }),
            "reduce_scatter: {wire:?} is not a reduce-scatter wire"
        );
        if let Some(member) = self.alone_in(group) {
            return self.ready(member.map(|()| buf));
        }
        let (group, counts) = (group.clone(), counts.to_vec());
        self.submit(CollectiveKind::ReduceScatter, move |f| match wire {
            WireFmt::QgzInt8 { node_size, block } => {
                f.reduce_scatter_qgz(&group, &buf, op, &counts, node_size, block, prec)
            }
            _ => f.reduce_scatter_ring(&group, buf, op, &counts, prec),
        })
    }

    /// Starts an all-gather within `group` without blocking, in place:
    /// `buf` is the `Σ counts` output, and member `i`'s chunk of it
    /// (`counts[i]` elements, zero allowed) holds member `i`'s shard on
    /// its own rank. [`PendingOp::wait`] returns `buf` with every chunk
    /// filled. `wire` picks the body: the raw ring, or qwZ's ring of
    /// block-quantized streams, dequantized identically on every member.
    ///
    /// # Panics
    /// Panics if `counts` is inconsistent with `group` and `buf`, or
    /// `wire` is not an all-gather wire with a positive block.
    pub fn start_all_gather(
        &mut self,
        group: &Group,
        mut buf: Vec<f32>,
        counts: &[usize],
        prec: Precision,
        wire: WireFmt,
    ) -> PendingOp {
        assert_eq!(counts.len(), group.len(), "all_gather: counts length");
        assert_eq!(counts.iter().sum::<usize>(), buf.len(), "all_gather: counts sum");
        assert!(
            !matches!(wire, WireFmt::QgzInt8 { .. } | WireFmt::Int8Block { block: 0 }),
            "all_gather: {wire:?} is not an all-gather wire"
        );
        if let Some(member) = self.alone_in(group) {
            // qwZ stays lossy alone: the member keeps the shard its peers
            // would have decoded.
            return self.ready(member.map(|()| {
                if let WireFmt::Int8Block { block } = wire {
                    buf = quantize_for_transport(&buf, block).dequantize();
                }
                buf
            }));
        }
        let (group, counts) = (group.clone(), counts.to_vec());
        self.submit(CollectiveKind::AllGather, move |f| {
            f.all_gather_ring(&group, &mut buf, &counts, prec, wire).map(|()| buf)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stats::TrafficStats;
    use crate::transport::{channel_mesh, ChannelTransport, Flip, Transport};
    use crate::world::{launch, launch_with_stats, WorldConfig};
    use std::sync::{Arc, Mutex};
    use zero_tensor::f16::f16_round_slice;
    use zero_trace::TraceRecorder;

    /// An in-place all-gather buffer for member `idx`: `shard` in its
    /// chunk, NaN in every chunk the gather must fill.
    pub(crate) fn placed(counts: &[usize], idx: usize, shard: &[f32]) -> Vec<f32> {
        let mut buf = vec![f32::NAN; counts.iter().sum()];
        buf[ranges_from_counts(counts)[idx].clone()].copy_from_slice(shard);
        buf
    }

    /// A transport that records every payload it sends, as its sender
    /// meant it, then hands it to the pipe fabric.
    struct Recording(ChannelTransport, Arc<Mutex<Vec<f32>>>);

    impl Transport for Recording {
        fn send_msg(&mut self, dst: usize, seq: u64, data: &[f32], flip: Option<Flip>) -> Result<(), CommError> {
            self.1.lock().unwrap().extend_from_slice(data);
            self.0.send_msg(dst, seq, data, flip)
        }
    }

    /// Every float `n` ranks send in one fp16 reduce-scatter of fp16
    /// inputs, and how many of them are not fp16 values.
    fn fp16_reduce_scatter_sends(n: usize) -> (usize, usize) {
        let (sent, config) = (Arc::new(Mutex::new(Vec::new())), WorldConfig::default());
        let len = 64 * n;
        std::thread::scope(|s| {
            for (rank, (link, inbox)) in channel_mesh(n).into_iter().enumerate() {
                let (stats, trace) = (TrafficStats::new(), Arc::new(TraceRecorder::new()));
                let link = Box::new(Recording(link, sent.clone()));
                let mut c = Communicator::spawn(rank, n, link, inbox, stats, trace, &config);
                s.spawn(move || {
                    let mut input: Vec<f32> = (0..len).map(|i| ((i * 7 + rank * 13) as f32 * 0.37).sin()).collect();
                    f16_round_slice(&mut input);
                    let (g, counts) = (Group::world(n), even_counts(len, n));
                    let p = c.start_reduce_scatter(&g, input, ReduceOp::Sum, &counts, Precision::Fp16, WireFmt::Raw);
                    p.wait().unwrap();
                });
            }
        });
        let sent = sent.lock().unwrap();
        let mut rounded = sent.clone();
        f16_round_slice(&mut rounded);
        (sent.len(), rounded.iter().zip(sent.iter()).filter(|(r, s)| r.to_bits() != s.to_bits()).count())
    }

    #[test]
    fn fp16_ring_reduce_scatter_sends_fp16_values_at_two_ranks_only() {
        // The first hop sends the member's own fp16 inputs; every later
        // hop an f32 partial sum of several, which fp16 cannot hold: a
        // `u16` wire carries the ring losslessly at 2 ranks only.
        assert_eq!(fp16_reduce_scatter_sends(2), (2 * 64, 0));
        let (sent, not_fp16) = fp16_reduce_scatter_sends(4);
        assert_eq!(sent, 4 * 3 * 64);
        assert!(not_fp16 > 0, "{not_fp16} of {sent} partial sums were not fp16 values");
    }

    #[test]
    fn chunk_ranges_cover_and_are_balanced() {
        for total in [0usize, 1, 7, 64, 65] {
            for n in [1usize, 2, 3, 5, 8] {
                let mut covered = 0;
                let mut sizes = Vec::new();
                for i in 0..n {
                    let r = chunk_range(total, n, i);
                    assert_eq!(r.start, covered, "chunks must be contiguous");
                    covered = r.end;
                    sizes.push(r.len());
                }
                assert_eq!(covered, total, "chunks must cover the buffer");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced within one element");
            }
        }
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        for n in [1usize, 2, 3, 4, 7] {
            for len in [1usize, 5, 16, 33] {
                let results = launch(n, |mut c| {
                    let mut buf: Vec<f32> =
                        (0..len).map(|i| (c.rank() * 100 + i) as f32).collect();
                    c.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
                    buf
                });
                let want: Vec<f32> = (0..len)
                    .map(|i| (0..n).map(|r| (r * 100 + i) as f32).sum())
                    .collect();
                for (rank, got) in results.iter().enumerate() {
                    for (g, w) in got.iter().zip(&want) {
                        assert!((g - w).abs() < 1e-3, "n={n} len={len} rank={rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_reduce_mean_divides() {
        let results = launch(4, |mut c| {
            let mut buf = vec![(c.rank() + 1) as f32; 8];
            c.all_reduce(&mut buf, ReduceOp::Mean, Precision::Fp32).unwrap();
            buf
        });
        for got in &results {
            for &v in got {
                assert!((v - 2.5).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn all_reduce_max() {
        let results = launch(3, |mut c| {
            let mut buf = vec![c.rank() as f32, -(c.rank() as f32)];
            c.all_reduce(&mut buf, ReduceOp::Max, Precision::Fp32).unwrap();
            buf
        });
        for got in &results {
            assert_eq!(got[0], 2.0);
            assert_eq!(got[1], 0.0);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_chunk() {
        let n = 4;
        let len = 10; // uneven: chunks of 3,3,2,2
        let results = launch(n, |mut c| {
            let input: Vec<f32> = (0..len).map(|i| (i + c.rank()) as f32).collect();
            let my_len = chunk_range(len, n, c.rank()).len();
            let mut out = vec![0.0; my_len];
            c.reduce_scatter(&input, &mut out, ReduceOp::Sum, Precision::Fp32).unwrap();
            out
        });
        for (rank, got) in results.iter().enumerate() {
            let r = chunk_range(len, n, rank);
            for (j, &v) in got.iter().enumerate() {
                let i = r.start + j;
                let want: f32 = (0..n).map(|rr| (i + rr) as f32).sum();
                assert_eq!(v, want, "rank {rank} element {i}");
            }
        }
    }

    #[test]
    fn all_gather_reassembles() {
        let n = 3;
        let len = 8; // chunks 3,3,2
        let results = launch(n, |mut c| {
            let r = chunk_range(len, n, c.rank());
            let shard: Vec<f32> = r.clone().map(|i| i as f32 * 2.0).collect();
            let mut out = vec![0.0; len];
            c.all_gather(&shard, &mut out, Precision::Fp32).unwrap();
            out
        });
        let want: Vec<f32> = (0..len).map(|i| i as f32 * 2.0).collect();
        for got in &results {
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn all_reduce_volume_matches_ring_formula() {
        // A ring all-reduce of `len` f32 elements sends 2·len·(n−1)/n
        // elements per rank — the 2Ψ of §7.1.
        let n = 4;
        let len = 1024; // divisible by n so the formula is exact
        let (_, snaps) = launch_with_stats(n, |mut c| {
            let mut buf = vec![1.0_f32; len];
            c.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
        });
        let want = (2 * len * (n - 1) / n * 4) as u64;
        for s in &snaps {
            assert_eq!(s.bytes(CollectiveKind::AllReduce), want);
        }
    }

    #[test]
    fn fp16_accounting_halves_bytes() {
        let n = 2;
        let len = 100;
        let (_, snaps) = launch_with_stats(n, |mut c| {
            let mut buf = vec![1.0_f32; len];
            c.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp16).unwrap();
        });
        let want = (2 * len * (n - 1) / n * 2) as u64;
        assert_eq!(snaps[0].bytes(CollectiveKind::AllReduce), want);
    }

    #[test]
    fn single_rank_collectives_are_local() {
        let (_, snaps) = launch_with_stats(1, |mut c| {
            let mut buf = vec![3.0_f32; 7];
            c.all_reduce(&mut buf, ReduceOp::Mean, Precision::Fp32).unwrap();
            assert_eq!(buf, vec![3.0; 7]);
            let mut out = vec![0.0; 7];
            c.reduce_scatter(&buf, &mut out, ReduceOp::Sum, Precision::Fp32).unwrap();
            assert_eq!(out, vec![3.0; 7]);
            let mut gathered = vec![0.0; 7];
            c.all_gather(&out, &mut gathered, Precision::Fp32).unwrap();
            assert_eq!(gathered, vec![3.0; 7]);
        });
        assert_eq!(snaps[0].total_bytes(), 0, "no traffic for world of 1");
    }

    #[test]
    #[should_panic(expected = "all_reduce: counts [3, 1] are not the ring's chunks of 4 elements over 2 members")]
    fn uneven_planned_all_reduce_counts_are_refused() {
        // The sum is right; member 0's count is not its ring chunk.
        let mut c = crate::world::World::new(2).take(0);
        let _ = c.all_reduce_in(&Group::world(2), &mut [0.0; 4], &[3, 1], ReduceOp::Sum, Precision::Fp32);
    }

    /// Every op over a group of one, in every reduction and wire format,
    /// on `input`: the all-reduce, the reduce-scatter and the all-gather,
    /// each result in that order.
    fn alone(c: &mut Communicator, g: &Group, input: &[f32]) -> Vec<Vec<f32>> {
        let (counts, prec) = ([input.len()], Precision::Fp16);
        let ops = [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Max];
        let mut out = Vec::new();
        for op in ops {
            let mut buf = input.to_vec();
            c.all_reduce_in(g, &mut buf, &counts, op, prec).unwrap();
            out.push(buf);
        }
        for op in ops {
            for wire in [WireFmt::Raw, WireFmt::QgzInt8 { node_size: 1, block: 4 }] {
                out.push(c.start_reduce_scatter(g, input.to_vec(), op, &counts, prec, wire).wait().unwrap());
            }
        }
        for wire in [WireFmt::Raw, WireFmt::Int8Block { block: 4 }] {
            out.push(c.start_all_gather(g, input.to_vec(), &counts, prec, wire).wait().unwrap());
        }
        out
    }

    #[test]
    fn one_member_results_are_pinned_bit_for_bit() {
        // Signed zeros, a subnormal, fp32's edge and a tail shorter than a
        // quantization block: a group of one returns every lossless op's
        // input bit for bit (Mean divides by one), and qwZ the dequantized
        // shard its peers would decode, lossy even with no peers. The same
        // bits in a world of one and in a one-rank subgroup of a world of
        // two, pinned by their CRC.
        let input = [0.0, -0.0, 1.5, -2.25, 1e-40, 3.0e38, 0.1, -7.3, 1e-3];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let solo = launch(1, move |mut c| alone(&mut c, &Group::world(1), &input));
        let sub = launch(2, move |mut c| {
            let g = Group::new(vec![c.rank()]);
            alone(&mut c, &g, &input)
        });
        let qwz = quantize_for_transport(&input, 4).dequantize();
        assert_ne!(bits(&qwz), bits(&input), "qwZ is lossy at n = 1");
        for got in solo.iter().chain(&sub) {
            let (lossless, gathered) = got.split_at(got.len() - 1);
            for out in lossless {
                assert_eq!(bits(out), bits(&input));
            }
            assert_eq!(bits(&gathered[0]), bits(&qwz));
        }
        let all: Vec<f32> = solo[0].concat();
        assert_eq!(crate::crc32_f32s(&all), 0x492a_6bca, "one-member result bits moved");
    }

    #[test]
    fn var_reduce_scatter_with_uneven_and_zero_counts() {
        let n = 4;
        let counts = [5usize, 0, 2, 3];
        let total: usize = counts.iter().sum();
        let results = launch(n, move |mut c| {
            let input: Vec<f32> = (0..total).map(|i| (i * (c.rank() + 1)) as f32).collect();
            let g = Group::world(n);
            let (op, raw) = (ReduceOp::Sum, WireFmt::Raw);
            c.start_reduce_scatter(&g, input, op, &counts, Precision::Fp32, raw).wait().unwrap()
        });
        // Element i of the reduced buffer is i * (1+2+3+4) = 10i.
        let mut offset = 0;
        for (rank, cnt) in counts.iter().enumerate() {
            assert_eq!(results[rank].len(), *cnt, "rank {rank}");
            for (j, &got) in results[rank].iter().enumerate() {
                assert_eq!(got, (10 * (offset + j)) as f32, "rank {rank}");
            }
            offset += cnt;
        }
        assert!(results[1].is_empty());
    }

    #[test]
    fn var_all_gather_with_uneven_and_zero_counts() {
        let n = 3;
        let counts = [4usize, 0, 3];
        let total: usize = counts.iter().sum();
        let results = launch(n, move |mut c| {
            let offset: usize = counts[..c.rank()].iter().sum();
            let shard: Vec<f32> = (0..counts[c.rank()]).map(|j| (offset + j) as f32).collect();
            let g = Group::world(n);
            let buf = placed(&counts, c.rank(), &shard);
            c.start_all_gather(&g, buf, &counts, Precision::Fp32, WireFmt::Raw).wait().unwrap()
        });
        let want: Vec<f32> = (0..total).map(|i| i as f32).collect();
        for got in &results {
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn var_versions_match_equal_versions() {
        let n = 4;
        let len = 12;
        let results = launch(n, move |mut c| {
            let input: Vec<f32> = (0..len).map(|i| (i + c.rank() * 3) as f32).collect();
            let mut out_a = vec![0.0; chunk_range(len, n, c.rank()).len()];
            c.reduce_scatter(&input, &mut out_a, ReduceOp::Mean, Precision::Fp32).unwrap();
            let (g, counts) = (Group::world(n), even_counts(len, n));
            let (op, raw) = (ReduceOp::Mean, WireFmt::Raw);
            let out_b = c.start_reduce_scatter(&g, input.clone(), op, &counts, Precision::Fp32, raw);
            (out_a, out_b.wait().unwrap())
        });
        for (a, b) in &results {
            assert_eq!(a, b);
        }
    }

    /// Shared helper: rank r's shard values for uneven counts.
    fn shard_of(counts: &[usize], rank: usize) -> Vec<f32> {
        let offset: usize = counts[..rank].iter().sum();
        (0..counts[rank]).map(|j| ((offset + j) as f32 * 0.13).sin() * 3.0).collect()
    }

    #[test]
    fn quant_all_gather_matches_raw_within_block_error() {
        let n = 4;
        let counts = [9usize, 0, 17, 5];
        let block = 4;
        let results = launch(n, move |mut c| {
            let (g, prec) = (Group::world(n), Precision::Fp16);
            let shard = shard_of(&counts, c.rank());
            let buf = placed(&counts, c.rank(), &shard);
            let raw = c.start_all_gather(&g, buf.clone(), &counts, prec, WireFmt::Raw).wait().unwrap();
            let qwz = WireFmt::Int8Block { block };
            (raw, c.start_all_gather(&g, buf, &counts, prec, qwz).wait().unwrap())
        });
        // All ranks see bitwise-identical gathered buffers...
        for w in results.windows(2) {
            assert_eq!(w[0].1, w[1].1, "quantized gather must agree across ranks");
        }
        // ...and each element is within the per-block error bound of raw.
        let (raw, q) = &results[0];
        let mut offset = 0;
        for (rank, &cnt) in counts.iter().enumerate() {
            let quantized = crate::quant::quantize(&raw[offset..offset + cnt], block)
                .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
            for (b, chunk) in raw[offset..offset + cnt].chunks(block).enumerate() {
                let bound = 0.5 * quantized.scales[b] * (1.0 + 1e-4) + 1e-30;
                for (j, &v) in chunk.iter().enumerate() {
                    let got = q[offset + b * block + j];
                    assert!(
                        (v - got).abs() <= bound,
                        "rank {rank} block {b} elem {j}: {v} vs {got}"
                    );
                }
            }
            offset += cnt;
        }
    }

    #[test]
    fn quant_all_gather_wire_volume_matches_formula() {
        let n = 4;
        let counts = [100usize, 37, 64, 9];
        let block = 16;
        let (_, snaps) = launch_with_stats(n, move |mut c| {
            let g = Group::world(n);
            let shard = shard_of(&counts, c.rank());
            let qwz = WireFmt::Int8Block { block };
            let buf = placed(&counts, c.rank(), &shard);
            c.start_all_gather(&g, buf, &counts, Precision::Fp16, qwz).wait().unwrap();
        });
        // Rank i forwards every chunk except its successor's.
        for (i, s) in snaps.iter().enumerate() {
            let want: u64 = (0..n)
                .filter(|&j| j != (i + 1) % n)
                .map(|j| quant_wire_bytes(counts[j], block))
                .sum();
            assert_eq!(s.bytes(CollectiveKind::AllGather), want, "rank {i}");
        }
    }

    #[test]
    fn qgz_reduce_scatter_matches_raw_within_tolerance() {
        // 4 ranks on 2 "nodes" of 2; Mean semantics like the grad path.
        let n = 4;
        let node_size = 2;
        let counts = [11usize, 6, 0, 13];
        let total: usize = counts.iter().sum();
        let block = 4;
        let results = launch(n, move |mut c| {
            let g = Group::world(n);
            let input: Vec<f32> =
                (0..total).map(|i| ((i + 3 * c.rank()) as f32 * 0.21).cos() * 2.0).collect();
            let (op, prec) = (ReduceOp::Mean, Precision::Fp16);
            let raw = c.start_reduce_scatter(&g, input.clone(), op, &counts, prec, WireFmt::Raw);
            let raw = raw.wait().unwrap();
            let qgz = WireFmt::QgzInt8 { node_size, block };
            (raw, c.start_reduce_scatter(&g, input, op, &counts, prec, qgz).wait().unwrap())
        });
        for (rank, (raw, q)) in results.iter().enumerate() {
            assert_eq!(raw.len(), q.len());
            for (j, (&a, &b)) in raw.iter().zip(q).enumerate() {
                // One quantized hop of partials in ±(n/node_size)·range;
                // a loose absolute bound suffices here (tight per-block
                // bounds are covered in quant.rs).
                assert!((a - b).abs() < 0.05, "rank {rank} elem {j}: raw {a} vs qgz {b}");
            }
        }
    }

    #[test]
    fn qgz_is_bit_deterministic_across_runs() {
        let n = 4;
        let counts = [7usize, 7, 7, 7];
        let run = || {
            launch(n, move |mut c| {
                let g = Group::world(n);
                let input: Vec<f32> =
                    (0..28).map(|i| ((i * (c.rank() + 2)) as f32 * 0.11).sin()).collect();
                let qgz = WireFmt::QgzInt8 { node_size: 2, block: 4 };
                c.start_reduce_scatter(&g, input, ReduceOp::Mean, &counts, Precision::Fp16, qgz)
                    .wait()
                    .unwrap()
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert!(x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    #[test]
    fn qgz_wire_volume_matches_two_phase_formula() {
        let n = 4;
        let node_size = 2;
        let counts = [40usize, 23, 31, 10];
        let total: usize = counts.iter().sum();
        let block = 8;
        let (_, snaps) = launch_with_stats(n, move |mut c| {
            let g = Group::world(n);
            let input = vec![1.0_f32; total];
            let qgz = WireFmt::QgzInt8 { node_size, block };
            c.start_reduce_scatter(&g, input, ReduceOp::Sum, &counts, Precision::Fp16, qgz)
                .wait()
                .unwrap();
        });
        let g = node_size;
        let nodes = n / g;
        for (i, s) in snaps.iter().enumerate() {
            let (slot, node) = (i % g, i / g);
            // Phase 1: to each node-mate s', the full column of slot s'.
            let phase1: u64 = (0..g)
                .filter(|&sp| sp != slot)
                .map(|sp| {
                    let col: usize = (0..nodes).map(|m| counts[m * g + sp]).sum();
                    Precision::Fp16.bytes() * col as u64
                })
                .sum();
            // Phase 2: to each other node, the quantized same-slot chunk.
            let phase2: u64 = (0..nodes)
                .filter(|&m| m != node)
                .map(|m| quant_wire_bytes(counts[m * g + slot], block))
                .sum();
            assert_eq!(s.bytes(CollectiveKind::ReduceScatter), phase1 + phase2, "rank {i}");
        }
    }

    #[test]
    fn qgz_rejects_indivisible_node_size() {
        let errs = launch(4, move |mut c| {
            let g = Group::world(4);
            let input = vec![0.0_f32; 8];
            let qgz = WireFmt::QgzInt8 { node_size: 3, block: 4 };
            c.start_reduce_scatter(&g, input, ReduceOp::Sum, &[2, 2, 2, 2], Precision::Fp32, qgz)
                .wait()
                .unwrap_err()
        });
        for (rank, e) in errs.iter().enumerate() {
            assert_eq!(*e, CommError::InvalidTopology { rank, world: 4, node_size: 3 });
        }
    }

    #[test]
    fn qgz_single_node_group_stays_raw() {
        // node_size == group size: phase 2 degenerates, no quantization of
        // anything this rank keeps — result matches the raw reduce-scatter
        // bit for bit (phase-1 ordering equals slot order on one node).
        let n = 3;
        let counts = [5usize, 4, 3];
        let total: usize = counts.iter().sum();
        let results = launch(n, move |mut c| {
            let g = Group::world(n);
            let input: Vec<f32> = (0..total).map(|i| (i + c.rank() * 7) as f32).collect();
            let qgz = WireFmt::QgzInt8 { node_size: n, block: 4 };
            c.start_reduce_scatter(&g, input, ReduceOp::Sum, &counts, Precision::Fp32, qgz)
                .wait()
                .unwrap()
        });
        // Integers sum exactly: compare against the analytic reduction.
        let mut offset = 0;
        for (rank, &cnt) in counts.iter().enumerate() {
            for (j, &got) in results[rank].iter().enumerate().take(cnt) {
                let want: f32 = (0..n).map(|r| (offset + j + r * 7) as f32).sum();
                assert_eq!(got, want, "rank {rank} elem {j}");
            }
            offset += cnt;
        }
    }
}
