//! The ZeRO++ compression prover.
//!
//! Sweeps stages 2–3 × N ∈ {2,4,8} × G ∈ {2,4} × every lever combination
//! the stage owns (qgZ at stage 2, every non-empty qwZ/hpZ/qgZ combination
//! at stage 3) that `ZeroConfig::check` admits — qwZ alone runs flat, and
//! hpZ needs G < N — and proves three things about the compressed
//! schedules, all from plan arithmetic — zero training steps executed:
//!
//! * **Symmetry.** Every compressed plan stays rank-symmetric (the
//!   [`schedule`](crate::schedule) deadlock-freedom proof), with the wire
//!   format included in the peer agreement — two ranks disagreeing on
//!   raw-vs-int8 would corrupt the stream even if counts matched.
//! * **Wire bytes.** Every compressed op's per-rank sent bytes equal an
//!   *independently* recomputed value from the wire definition: an int8
//!   block stream costs `c + 8·⌈c/block⌉` bytes per c-element chunk, a
//!   qgZ reduce-scatter pays full precision intra-node (phase 1) and the
//!   int8 stream inter-node (phase 2).
//! * **Volume reduction.** For multi-node worlds, the total inter-node
//!   byte count under every lever the stage owns shrinks against the raw
//!   baseline (stage 2: qgZ; stage 3: qwZ+hpZ+qgZ), by the
//!   paper-level factor: ≥ 3.5× at stage 3 for N ≥ 4, G ≥ 2 (two
//!   micro-batches — the gradient-accumulation regime hpZ pays off in).
//!
//! Overlap invariance (`schedule::check_overlap_pair`) is also re-run
//! on every compressed configuration, so prefetch reordering proofs hold
//! with mixed-wire fetches too.

use zero_comm::Grid;
use zero_core::{CommPlan, CompressionConfig, StepShape, WireFmt, ZeroConfig, ZeroStage};
use zero_model::{Layout, ModelConfig};

use crate::schedule::{check_overlap_pair, check_symmetry, ScheduleReport};

/// One (stage, N, G) inter-node volume measurement with every lever the
/// stage owns on.
#[derive(Clone, Debug)]
pub struct RatioRow {
    /// Stage name.
    pub stage: &'static str,
    /// World size N.
    pub n: usize,
    /// Ranks per node G.
    pub g: usize,
    /// Inter-node bytes of one full training step, uncompressed.
    pub raw_bytes: u64,
    /// Inter-node bytes of the same step with the stage's levers on.
    pub compressed_bytes: u64,
    /// raw / compressed.
    pub ratio: f64,
}

/// Counters and measurements from the compression sweep.
#[derive(Clone, Debug, Default)]
pub struct CompressionReport {
    /// (stage, grid, lever-combination) configurations proven.
    pub configs: usize,
    /// Ops whose wire bytes were independently recomputed and matched.
    pub ops_checked: usize,
    /// Inter-node ratio table (every owned lever on, multi-node worlds
    /// only).
    pub rows: Vec<RatioRow>,
}

fn test_model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

/// Two micro-batches: the regime where hpZ's node-local refetches repay
/// the secondary copy (micro 2's forward re-gathers resolve intra-node).
fn shape(skipped: bool) -> StepShape {
    let m = test_model();
    StepShape { micro_batches: 2, act_elems: 2 * m.seq * m.hidden, skipped }
}

fn cfg(stage: ZeroStage, comp: CompressionConfig, node_size: usize) -> ZeroConfig {
    ZeroConfig {
        stage,
        node_size,
        fp16: true,
        checkpoint_activations: false,
        initial_loss_scale: 1.0,
        bucket_elems: 512,
        clip_grad_norm: None,
        compression: comp,
        ..ZeroConfig::default()
    }
}

/// Independent int8-block wire cost of one c-element chunk: the codes
/// plus one (f32 scale, f32 zero) pair per block — written from the wire
/// definition, not `zero_comm::quant_wire_bytes`.
fn int8_chunk_bytes(c: usize, block: usize) -> u64 {
    (c + 8 * c.div_ceil(block)) as u64
}

/// Recomputes one compressed op's sent bytes for one member from the
/// wire definition alone. Returns `None` for raw ops (their volume is
/// already covered by the schedule pass's telescoping identities).
fn independent_wire_bytes(op: &zero_core::ResolvedOp, rank: usize) -> Option<u64> {
    let n = op.members.len();
    let i = op.members.iter().position(|&m| m == rank)?;
    match op.wire {
        WireFmt::Raw => None,
        WireFmt::Int8Block { block } => {
            // Ring all-gather of encoded streams: rank i originates or
            // forwards every chunk except its successor's own.
            if n == 1 {
                return Some(0);
            }
            let succ = (i + 1) % n;
            Some(
                op.counts
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != succ)
                    .map(|(_, &c)| int8_chunk_bytes(c, block))
                    .sum(),
            )
        }
        WireFmt::QgzInt8 { node_size, block } => {
            if n == 1 {
                return Some(0);
            }
            let (slot, node) = (i % node_size, i / node_size);
            let nodes = n / node_size;
            // Phase 1: full-precision all-to-all within the node — this
            // rank ships every other slot's column.
            let phase1: u64 = (0..node_size)
                .filter(|&s| s != slot)
                .map(|s| {
                    (0..nodes).map(|m| op.counts[m * node_size + s]).sum::<usize>() as u64
                        * op.prec.bytes()
                })
                .sum();
            // Phase 2: int8 streams to every other node's same-slot rank.
            let phase2: u64 = (0..nodes)
                .filter(|&m| m != node)
                .map(|m| int8_chunk_bytes(op.counts[m * node_size + slot], block))
                .sum();
            Some(phase1 + phase2)
        }
    }
}

/// Every lever `stage` owns: qgZ, plus qwZ and hpZ at stage 3.
fn owned_on(stage: ZeroStage) -> CompressionConfig {
    let params = stage.partitions_params();
    CompressionConfig { qwz: params, hpz: params, qgz: true }
}

/// Checks one compressed configuration: symmetry, overlap invariance,
/// and independent wire-byte recomputation for every compressed op.
fn check_compressed_config(
    zcfg: &ZeroConfig,
    grid: Grid,
    report: &mut CompressionReport,
) -> Result<(), String> {
    let layout = Layout::build_mp(&test_model(), 1);
    let c = zcfg.compression;
    let what = format!(
        "compression {} dp={} qwz={} hpz={} qgz={} G={}",
        zcfg.stage.name(),
        grid.dp_degree(),
        c.qwz,
        c.hpz,
        c.qgz,
        zcfg.node_size,
    );
    for skipped in [false, true] {
        let plan = CommPlan::train_step(&layout, zcfg, grid, &shape(skipped));
        check_symmetry(&plan, &what)?;
        for rank in 0..grid.world_size() {
            let ops = plan.resolve_for(rank);
            crate::schedule::check_balance(&layout, zcfg, grid, &ops, plan.tier_ops(), &what)?;
            for (idx, op) in ops.iter().enumerate() {
                if let Some(want) = independent_wire_bytes(op, rank) {
                    let got = op.sent_bytes(rank);
                    if got != want {
                        return Err(format!(
                            "{what} skipped={skipped}: op {idx} '{}' rank {rank}: plan \
                             says {got} wire bytes, independent recomputation says {want}",
                            op.label
                        ));
                    }
                    report.ops_checked += 1;
                }
            }
        }
    }
    // The prefetch double-buffer proof must hold for mixed-wire fetches.
    let mut sched = ScheduleReport::default();
    check_overlap_pair(zcfg, grid, &mut sched)?;
    report.configs += 1;
    Ok(())
}

const STAGES: [ZeroStage; 2] = [ZeroStage::Two, ZeroStage::Three];
/// (N, G) worlds of the sweep.
const WORLDS: [(usize, usize); 5] = [(2, 2), (4, 2), (4, 4), (8, 2), (8, 4)];

/// The swept configurations: `WORLDS` × every lever combination its
/// stage owns — qgZ at stage 2, the seven non-empty ones at stage 3 —
/// that `check` admits, each once: qwZ alone reads no node size, so it
/// runs flat once per N, and hpZ is refused at G = N — 30 in all.
pub fn sweep_configs() -> Vec<(ZeroConfig, Grid)> {
    let mut out = Vec::new();
    for stage in STAGES {
        for (n, g) in WORLDS {
            // Bits 1 and 2 (qwZ, hpZ) act on stage 3's parameter fetches.
            for levers in (1..8u32).filter(|l| stage.partitions_params() || l & 3 == 0) {
                let comp = CompressionConfig {
                    qwz: levers & 1 != 0,
                    hpz: levers & 2 != 0,
                    qgz: levers & 4 != 0,
                };
                let zcfg = cfg(stage, comp, if comp.hpz || comp.qgz { g } else { 1 });
                let grid = Grid::new(n, 1);
                if zcfg.check(grid).is_ok() && !out.contains(&(zcfg, grid)) {
                    out.push((zcfg, grid));
                }
            }
        }
    }
    out
}

/// Runs the full compression sweep and gathers the inter-node ratio
/// table. Fails if any proof above fails, or if the all-levers stage-3
/// reduction misses 3.5× on any multi-node world with N ≥ 4.
pub fn check_compression() -> Result<CompressionReport, String> {
    let mut report = CompressionReport::default();
    let layout = Layout::build_mp(&test_model(), 1);

    for (zcfg, grid) in sweep_configs() {
        check_compressed_config(&zcfg, grid, &mut report)?;
    }

    // Inter-node volume: all levers vs raw, for worlds with ≥ 2 nodes.
    for stage in STAGES {
        for (n, g) in WORLDS {
            if n / g < 2 {
                continue;
            }
            let grid = Grid::new(n, 1);
            let raw = CommPlan::train_step(&layout, &cfg(stage, CompressionConfig::off(), 1), grid, &shape(false));
            let sq = CommPlan::train_step(&layout, &cfg(stage, owned_on(stage), g), grid, &shape(false));
            let raw_bytes = raw.total_inter_node_bytes(g);
            let compressed_bytes = sq.total_inter_node_bytes(g);
            if compressed_bytes == 0 || compressed_bytes >= raw_bytes {
                return Err(format!(
                    "compression {} N={n} G={g}: inter-node bytes did not shrink \
                     ({raw_bytes} -> {compressed_bytes})",
                    stage.name()
                ));
            }
            let ratio = raw_bytes as f64 / compressed_bytes as f64;
            if stage == ZeroStage::Three && n >= 4 && g >= 2 && ratio < 3.5 {
                return Err(format!(
                    "compression stage3 N={n} G={g}: inter-node reduction {ratio:.2}× \
                     misses the 3.5× gate ({raw_bytes} -> {compressed_bytes})"
                ));
            }
            report.rows.push(RatioRow {
                stage: stage.name(),
                n,
                g,
                raw_bytes,
                compressed_bytes,
                ratio,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_passes_and_hits_the_gate() {
        let r = check_compression().expect("compression proof");
        // 5 stage-2 qgZ worlds; at stage 3, 6 grouped combos on the 3
        // multi-node worlds, 2 (no hpZ) on the 2 single-node ones, and
        // qwZ alone at 3 flat N.
        assert_eq!(r.configs, 30, "sweep covered {} configs", r.configs);
        assert!(r.ops_checked > 100, "recomputed {} compressed ops", r.ops_checked);
        let gate: Vec<_> = r
            .rows
            .iter()
            .filter(|row| row.stage == ZeroStage::Three.name() && row.n >= 4 && row.g >= 2)
            .collect();
        assert!(!gate.is_empty(), "gate rows present");
        for row in gate {
            assert!(
                row.ratio >= 3.5,
                "stage3 N={} G={}: {:.2}× < 3.5×",
                row.n,
                row.g,
                row.ratio
            );
        }
    }

    #[test]
    fn independent_bytes_rejects_a_tampered_plan() {
        // Guard against the recomputation degenerating into reading the
        // same formula twice: a hand-built op with off-by-one counts must
        // disagree with the plan's own accounting.
        let grid = Grid::new(4, 1);
        let layout = Layout::build_mp(&test_model(), 1);
        let zcfg = cfg(ZeroStage::Three, owned_on(ZeroStage::Three), 2);
        let plan = CommPlan::train_step(&layout, &zcfg, grid, &shape(false));
        let ops = plan.resolve_for(0);
        let quant = ops
            .iter()
            .find(|op| matches!(op.wire, WireFmt::Int8Block { .. }))
            .expect("qwZ plan carries int8 fetches");
        let mut tampered = quant.clone();
        tampered.counts[0] += 1;
        assert_ne!(
            independent_wire_bytes(&tampered, 0),
            Some(quant.sent_bytes(0)),
            "tampered counts must change the independent recomputation"
        );
    }
}
