//! Training-step ablations: `results/BENCH_step.json`.
//!
//! A table of cases in three families, every case run by the same runner
//! into the same [`Row`], every family listed as adjacent (lever off,
//! lever on) pairs that [`pair`] turns into a speedup:
//!
//! * `overlap` — stages 2 and 3 × DP degree, synchronous vs overlapped,
//!   over `FLAT_LINK` (`zero_bench`'s `train.comm` link), slept on each
//!   sender's progress thread, so asynchronous collectives can hide it
//!   (§7): under overlap, wait time collapses while execution time stays.
//!   DDP and stage 1 reduce once at the end of the step, with nothing to
//!   issue ahead of, so `ZeroConfig::check` refuses them overlapped.
//! * `offload` — stage 3 unconstrained vs on a modeled host tier
//!   (ZeRO-Offload) with room on the device: the optimizer state and
//!   gradient shards cross, the parameter shard stays on the device and
//!   its updated piece climbs once a step. `full-offload` is the same at
//!   N = 2 under the largest budget the step fits only with the parameter
//!   shard offloaded too, fetched before every gather. Offload moves
//!   residency, never values: each pair's losses must be bitwise equal, in
//!   every mode.
//! * `compression` — stage 3 over a modeled two-tier link, raw vs all
//!   ZeRO++ levers (qwZ + hpZ + qgZ) grouped by the link's nodes. The
//!   tiered fabric charges serialization by logical bytes and the
//!   compressed schedule moves ~4× fewer across the slow tier. Full runs
//!   only.
//! * `recompute` — stage 3 checkpointing every block over the same
//!   two-tier link, synchronous vs overlapped. Interval 1 re-fetches each
//!   unit where it is recomputed; under overlap the prefetch chain still
//!   runs one unit ahead through every segment's recompute and backward.
//!   Full runs only.
//!
//! `--smoke` runs ZeRO-3 at N = 2 only and leaves the results file alone.
//! `--check-against <path>` replays at a full run's step count and
//! compares each row with its committed counterpart: traffic and tier byte
//! counts and the plan's busiest-member bytes exactly, seconds per step
//! loosely (see the crate docs).

use std::time::Duration;

use serde::Serialize;
use zero::comm::{Grid, TieredLink, WorldConfig, ALL_KINDS};
use zero::core::{
    run_training_world, CommPlan, CompressionConfig, RankReport, StepShape, TierConfig, TrainSetup,
    ZeroConfig, ZeroStage,
};
use zero::model::{Layout, ModelConfig};
use zero_bench::{best_of, nproc, print_row, Harness, FLAT_LINK};

/// What identifies a row, and what a rerun must reproduce exactly.
const KEY: &[&str] = &["family", "stage", "nd", "overlap", "offload", "compressed"];
const EXACT: &[&str] =
    &["steps", "rank0_comm_bytes", "busiest_member_bytes", "tier_fetch_bytes", "tier_spill_bytes"];

/// Overlap is only measurable when per-rank compute is comparable to the
/// link cost it must hide: a model this size gives each backward block
/// enough FLOPs to cover an in-flight reduce-scatter on the modeled link.
fn step_setup(stage: ZeroStage, dp: usize, overlap: bool) -> TrainSetup {
    TrainSetup {
        model: ModelConfig { vocab: 64, seq: 32, hidden: 128, layers: 4, heads: 4 },
        zero: ZeroConfig {
            stage,
            fp16: true,
            initial_loss_scale: 1.0,
            // No recompute, except in the `recompute` family, and buckets
            // small enough that a backward pass produces several in-flight
            // reduce-scatters.
            checkpoint_activations: false,
            bucket_elems: 32 * 1024,
            overlap,
            ..ZeroConfig::default()
        },
        grid: Grid::new(dp, 1),
        global_batch: 8,
        seed: 1,
    }
}

/// NVLink-ish inside a node, a congested shared link between nodes — slow
/// enough that stage-3 inter-node volume is a large share of the step, the
/// low-bandwidth-cluster regime ZeRO++ targets.
const TIERED_LINK: TieredLink = TieredLink {
    node_size: 2,
    intra_latency: Duration::from_micros(5),
    intra_bytes_per_sec: 4e9,
    inter_latency: Duration::from_micros(150),
    inter_bytes_per_sec: 5e6,
};

/// PCIe-gen3-ish bandwidth and a small per-transfer latency, no device cap:
/// the budget *proof* belongs to the tests and the CLI, the bench prices
/// the link (`full-offload` sets a budget to choose the placement).
const HOST_TIER: TierConfig = TierConfig {
    host_bw: 8 << 30,
    host_lat: Duration::from_micros(10),
    ..TierConfig::budgeted(u64::MAX)
};

const ZERO_PP: CompressionConfig = CompressionConfig { qwz: true, hpz: true, qgz: true };

/// A case: its family, what to train, and the fabric to train it over.
type Case = (&'static str, TrainSetup, WorldConfig);

/// The table: which lever each family turns, over which configurations.
fn cases(smoke: bool) -> Vec<Case> {
    use ZeroStage::{Three, Two};
    let (stages, dps, wide): (&[ZeroStage], &[usize], usize) =
        if smoke { (&[Three], &[2], 2) } else { (&[Two, Three], &[2, 4], 4) };
    let flat = WorldConfig::with_tiered_link(FLAT_LINK);
    let tiered = WorldConfig::with_tiered_link(TIERED_LINK);
    let mut cases = Vec::new();
    // One configuration with the lever off, then on: adjacent, in that order.
    let mut lever = |family, world: &WorldConfig, stage, nd, overlap, turn: fn(&mut ZeroConfig)| {
        for on in [false, true] {
            let mut setup = step_setup(stage, nd, overlap);
            if on {
                turn(&mut setup.zero);
            }
            cases.push((family, setup, world.clone()));
        }
    };
    for &stage in stages {
        for &nd in dps {
            lever("overlap", &flat, stage, nd, false, |z| z.overlap = true);
        }
    }
    for overlap in [false, true] {
        lever("offload", &flat, Three, wide, overlap, |z| z.tier = HOST_TIER);
        if !smoke {
            lever("compression", &tiered, Three, 4, overlap, |z| {
                z.compression = ZERO_PP;
                z.node_size = TIERED_LINK.node_size;
            });
        }
    }
    if !smoke {
        lever("recompute", &tiered, Three, 4, false, |z| z.overlap = true);
        // Both sides of the pair recompute; only overlap differs.
        for (_, setup, _) in cases.iter_mut().rev().take(2) {
            setup.zero.checkpoint_activations = true;
        }
    }
    // The overlapped offload pair at N = 2, under the largest budget that
    // fits the step only with the parameter shard offloaded.
    let base = step_setup(Three, 2, true);
    let mut full = base;
    full.zero.tier = HOST_TIER;
    let (m, grid) = (&full.model, full.grid);
    let act_elems = full.global_batch / grid.dp_degree() * m.seq * m.hidden;
    full.zero.tier.device_budget = CommPlan::full_offload_budget(&Layout::build(m), &full.zero, grid, 1, act_elems);
    cases.extend([("full-offload", base, flat.clone()), ("full-offload", full, flat)]);
    cases
}

/// One measured case. The three lever flags say which side of its pair it
/// is; `nd` is its rank count.
#[derive(Serialize)]
struct Row {
    family: &'static str,
    stage: &'static str,
    nd: usize,
    overlap: bool,
    offload: bool,
    compressed: bool,
    oversubscribed: bool,
    steps: usize,
    secs_per_step: f64,
    tokens_per_sec: f64,
    /// Rank 0: bytes sent over the whole run.
    rank0_comm_bytes: u64,
    /// One unskipped step's plan: Σ over ops of the most bytes any member
    /// sends — the critical-path volume a balanced partition halves at N = 2.
    busiest_member_bytes: u64,
    /// Max over ranks: total blocking wait on collectives, ms per step.
    comm_wait_ms_per_step: f64,
    /// Max over ranks: total progress-thread execution, ms per step.
    comm_exec_ms_per_step: f64,
    /// Rank 0 per-kind wait ms/step, in `ALL_KINDS` order.
    rank0_wait_ms_by_kind: Vec<f64>,
    /// Rank 0 per-kind in-flight execution ms/step, in `ALL_KINDS` order.
    rank0_exec_ms_by_kind: Vec<f64>,
    /// Max over ranks: trace-measured wall-clock where compute and a
    /// byte-moving collective were simultaneously in flight, ms per step.
    trace_overlap_ms_per_step: f64,
    /// Rank 0: distinct compute∩collective overlap windows recorded.
    rank0_overlap_windows: usize,
    /// Rank 0: host→device and device→host bytes over the whole run.
    tier_fetch_bytes: u64,
    tier_spill_bytes: u64,
    /// Rank 0: modeled time on the host link, ms per step.
    tier_time_ms_per_step: f64,
}

/// Runs one case; returns its row and the bit patterns of its losses.
fn measure(case: &Case, steps: usize, trials: usize) -> (Row, Vec<u32>) {
    let (family, setup, world) = case;
    let (secs, report) = best_of(trials, || run_training_world(setup, steps, 0, world.clone()));
    let per_step_ms = |nanos: u64| nanos as f64 / 1e6 / steps as f64;
    type Nanos = fn(&RankReport) -> u64;
    let max_ms = |of: Nanos| per_step_ms(report.ranks.iter().map(of).max().unwrap_or(0));
    let r0 = &report.ranks[0];
    let nd = setup.grid.dp_degree();
    let m = &setup.model;
    let act_elems = setup.global_batch / nd * m.seq * m.hidden;
    let shape = StepShape { micro_batches: 1, act_elems, skipped: false };
    let plan = CommPlan::train_step(&Layout::build_mp(m, setup.grid.mp_degree()), &setup.zero, setup.grid, &shape);
    let row = Row {
        family,
        stage: setup.zero.stage.name(),
        nd,
        overlap: setup.zero.overlap,
        offload: setup.zero.tier.enabled,
        compressed: setup.zero.compression.any(),
        oversubscribed: nd > nproc(),
        steps,
        secs_per_step: secs / steps as f64,
        tokens_per_sec: (setup.global_batch * setup.model.seq * steps) as f64 / secs,
        rank0_comm_bytes: r0.traffic.total_bytes(),
        busiest_member_bytes: plan.busiest_member_bytes(),
        comm_wait_ms_per_step: max_ms(|r| r.timing.total_wait_nanos()),
        comm_exec_ms_per_step: max_ms(|r| r.timing.total_exec_nanos()),
        rank0_wait_ms_by_kind: ALL_KINDS.iter().map(|k| per_step_ms(r0.timing.wait_nanos(*k))).collect(),
        rank0_exec_ms_by_kind: ALL_KINDS.iter().map(|k| per_step_ms(r0.timing.exec_nanos(*k))).collect(),
        trace_overlap_ms_per_step: max_ms(|r| r.timeline.compute_collective_overlap_ns()),
        rank0_overlap_windows: r0.timeline.compute_collective_overlap().len(),
        tier_fetch_bytes: r0.tier.fetch_bytes,
        tier_spill_bytes: r0.tier.spill_bytes,
        tier_time_ms_per_step: r0.tier_time.as_secs_f64() * 1e3 / steps as f64,
    };
    print_row(&row);
    (row, report.losses.iter().map(|l| l.to_bits()).collect())
}

/// `other` against `base`, the same configuration with the family's lever
/// off; the remaining fields are `other`'s. `speedup > 1`: the lever wins.
#[derive(Serialize)]
struct Pair {
    family: &'static str,
    stage: &'static str,
    nd: usize,
    overlap: bool,
    base_secs_per_step: f64,
    other_secs_per_step: f64,
    speedup: f64,
}

fn pair(base: &Row, other: &Row) -> Pair {
    Pair {
        family: other.family,
        stage: other.stage,
        nd: other.nd,
        overlap: other.overlap,
        base_secs_per_step: base.secs_per_step,
        other_secs_per_step: other.secs_per_step,
        speedup: base.secs_per_step / other.secs_per_step,
    }
}

#[derive(Serialize)]
struct BenchStep {
    nproc: usize,
    steps: usize,
    global_batch: usize,
    /// The link of the `overlap` and `offload` families, as its `Debug` text.
    flat_link: String,
    /// The two-tier link of the `compression` and `recompute` families.
    tiered_link: String,
    rows: Vec<Row>,
    pairs: Vec<Pair>,
}

fn main() {
    let harness = Harness::from_env("step", &[], &[]);
    // A committed file is a full run: `--check-against` replays its
    // conditions even over the `--smoke` cases.
    let full = !harness.smoke || harness.baseline.is_some();
    let steps = if full { 10 } else { 2 };
    let trials = if harness.smoke { 1 } else { 2 };

    let mut rows = Vec::new();
    let mut pairs = Vec::new();
    let cases = cases(harness.smoke);
    for lever in cases.chunks(2) {
        let (base, base_losses) = measure(&lever[0], steps, trials);
        let (other, other_losses) = measure(&lever[1], steps, trials);
        if other.offload {
            assert_eq!(base_losses, other_losses, "offload moved values, not only residency");
        }
        pairs.push(pair(&base, &other));
        if !other.oversubscribed {
            print_row(&pairs[pairs.len() - 1]);
        }
        rows.extend([base, other]);
    }

    // `--smoke` runs the offload pair at N = 2, which a committed full run
    // (N = 4) does not carry.
    let committed = rows.iter().filter(|r| !harness.smoke || r.family != "offload");
    harness.check("rows", committed, KEY, EXACT, Some("secs_per_step"));
    harness.finish(&BenchStep {
        nproc: nproc(),
        steps,
        global_batch: cases[0].1.global_batch,
        flat_link: format!("{FLAT_LINK:?}"),
        tiered_link: format!("{TIERED_LINK:?}"),
        rows,
        pairs,
    });
}
