//! Trace conformance: recorded timelines vs. the analytic plan.
//!
//! The span recorder is only worth trusting if it reconciles with the
//! ground truth the rest of the repo already proves. Three statements:
//!
//! 1. **Byte-exact reconciliation** — for every stage × N, each rank's
//!    timeline holds exactly one collective span per `CommPlan` op, and
//!    the spans' byte tags sum per kind to the plan's per-rank volume
//!    AND to the communicator's independently metered traffic counters.
//! 2. **Memory reconciliation** — the `peak-device-bytes` counter track
//!    equals the `MemoryTracker` peak the report carries.
//! 3. **Overlap is visible** — the trace distinguishes the two schedules
//!    structurally: an overlap run issues collectives, computes, and only
//!    then waits them; a synchronous run waits each as it is issued and,
//!    over a modeled link, shows no compute∩collective interval.
//!
//! The Chrome export test closes the loop: the emitted JSON re-parses
//! and carries the schema (`ph`/`ts`/`dur`/`pid`/`cat`) with per-rank
//! monotonic timestamps.

use std::time::Duration;

use zero::comm::{Grid, TieredLink, WorldConfig};
use zero::core::{
    run_training, run_training_world, CommPlan, StepShape, TierConfig, TrainReport, TrainSetup,
    ZeroConfig, ZeroStage,
};
use zero::model::ModelConfig;
use zero::trace::{Span, SpanCategory, StepTimeline, TRACK_MAIN, TRACK_PROGRESS};
use zero_verify::TraceExpectation;

const STAGES: [ZeroStage; 4] =
    [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three];

fn model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

fn zcfg(stage: ZeroStage, overlap: bool) -> ZeroConfig {
    ZeroConfig {
        stage,
        fp16: true,
        initial_loss_scale: 1.0, // keep every step clean
        checkpoint_activations: false,
        bucket_elems: 1000, // several flushes per backward
        overlap,
        ..ZeroConfig::default()
    }
}

fn setup(stage: ZeroStage, n: usize, overlap: bool) -> TrainSetup {
    TrainSetup {
        model: model(),
        zero: zcfg(stage, overlap),
        grid: Grid::new(n, 1),
        global_batch: n, // local batch 1 at every N
        seed: 5,
    }
}

/// One `train_step` plan per executed step of a run (skip pattern
/// included).
fn step_plans(report: &TrainReport, s: &TrainSetup) -> Vec<CommPlan> {
    let layout = zero::model::Layout::build_mp(&s.model, s.grid.mp_degree());
    let act_elems = s.global_batch / s.grid.dp_degree() * s.model.seq * s.model.hidden;
    let shape = |skipped| StepShape { micro_batches: 1, act_elems, skipped };
    report.skipped.iter().map(|&skipped| CommPlan::train_step(&layout, &s.zero, s.grid, &shape(skipped))).collect()
}

/// Builds the analytic expectation for `rank` over a whole run.
fn expectation(report: &TrainReport, s: &TrainSetup, rank: usize) -> TraceExpectation {
    let mut want = TraceExpectation::default();
    for plan in step_plans(report, s) {
        want.add_plan(&plan, rank, 1);
    }
    want
}

#[test]
fn timeline_reconciles_byte_exactly_with_plan_and_traffic() {
    let steps = 2;
    for stage in STAGES {
        for n in [2, 4] {
            for overlap in [false, true].into_iter().filter(|&o| !o || stage.partitions_grads()) {
                let s = setup(stage, n, overlap);
                let report = run_training(&s, steps, 0);
                assert_eq!(report.losses.len(), steps);
                for r in &report.ranks {
                    let want = expectation(&report, &s, r.rank);
                    zero_verify::check_timeline(&r.timeline, &want, Some(&r.traffic))
                        .unwrap_or_else(|e| {
                            panic!("{stage:?} n={n} overlap={overlap} rank {}: {e}", r.rank)
                        });
                }
            }
        }
    }
}

#[test]
fn offloaded_timeline_reconciles_tier_stream_byte_exactly() {
    // Offload adds a second span stream (SpanCategory::Tier). Every
    // movement must appear exactly once, byte-tagged with the plan's
    // per-rank volume, and the engine's TierStats meters must agree with
    // the same analytic volumes — three independent records, one number.
    // The model-state classes run at stages 1–3 on two ranks; P_a+cpu
    // checkpoints on a 2 × 2 grid, where the tier is off and each rank
    // moves its own 1/N_m slice.
    let steps = 2;
    let mut cases = Vec::new();
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        for overlap in [false, true].into_iter().filter(|&o| !o || stage.partitions_grads()) {
            let mut s = setup(stage, 2, overlap);
            s.zero.tier = zero::core::TierConfig::budgeted(64 << 20);
            cases.push(s);
        }
    }
    let mut pa_cpu = setup(ZeroStage::Two, 4, false);
    pa_cpu.grid = Grid::new(2, 2);
    pa_cpu.zero.checkpoint_activations = true;
    pa_cpu.zero.checkpoint_place = zero::core::CkptPlace::Host;
    cases.push(pa_cpu);
    for s in cases {
        let (z, g) = (&s.zero, s.grid);
        let what = format!("{:?} {}x{} overlap={}", z.stage, g.dp_degree(), g.mp_degree(), z.overlap);
        let report = run_training(&s, steps, 0);
        for r in &report.ranks {
            let want = expectation(&report, &s, r.rank);
            assert!(want.tier_ops.iter().sum::<u64>() > 0, "{what}: offloaded plan must move tier bytes");
            zero_verify::check_timeline(&r.timeline, &want, Some(&r.traffic))
                .unwrap_or_else(|e| panic!("{what} rank {}: {e}", r.rank));
            let by_dir = |dir: &str| -> u64 {
                let labels = zero_verify::TIER_LABELS.iter().zip(want.tier_bytes);
                labels.filter(|(label, _)| label.ends_with(dir)).map(|(_, bytes)| bytes).sum()
            };
            assert_eq!(r.tier.fetch_bytes, by_dir("-fetch"), "{what} rank {}: metered fetch bytes", r.rank);
            assert_eq!(r.tier.spill_bytes, by_dir("-spill"), "{what} rank {}: metered spill bytes", r.rank);
            assert_eq!(
                r.tier.fetch_ops + r.tier.spill_ops,
                want.tier_ops.iter().sum::<u64>(),
                "{what} rank {}: tier op count",
                r.rank
            );
            // …and both equal the plan's own per-rank tier volume.
            let planned = step_plans(&report, &s)
                .iter()
                .map(|p| p.rank_tier_bytes(r.rank))
                .fold((0, 0), |(f, sp), (a, b)| (f + a, sp + b));
            let metered = (r.tier.fetch_bytes, r.tier.spill_bytes);
            assert_eq!(metered, planned, "{what} rank {}: plan tier bytes", r.rank);
        }
    }
}

#[test]
fn each_spill_waits_for_its_reduce_scatter_and_each_seeded_gather_for_its_fetch() {
    // Overlapped stage 3 with the gradients offloaded, every tier move
    // priced at 500 µs and every message at 1 ms, so a collective outlasts
    // a move. The rank's host-link lane runs the moves in issue order
    // beside its collectives, which meet them only at the plan's anchors:
    // each bucket's `tier-grad-spill` starts once the reduce-scatter that
    // produces its piece has ended, and each all-gather a fetch seeds
    // starts once that fetch has ended. Spills left for the end-of-micro
    // drain would all follow the micro-batch's last reduce-scatter instead.
    let mut s = setup(ZeroStage::Three, 2, true);
    s.zero.tier = TierConfig { host_lat: Duration::from_micros(500), ..TierConfig::budgeted(64 << 20) };
    let link = TieredLink {
        node_size: 1,
        intra_latency: Duration::ZERO,
        intra_bytes_per_sec: f64::INFINITY,
        inter_latency: Duration::from_millis(1),
        inter_bytes_per_sec: f64::INFINITY,
    };
    let report = run_training_world(&s, 2, 0, WorldConfig::with_tiered_link(link));
    let plans = step_plans(&report, &s);
    let planned = |rank, label| -> Vec<u64> {
        plans.iter().flat_map(|p| p.resolve_tier_for(rank)).filter(|t| t.label == label).map(|t| t.bytes).collect()
    };
    for r in &report.ranks {
        let sorted = |name| {
            let ran = |sp: &&Span| sp.name == name && sp.cat != SpanCategory::Wait;
            let mut spans: Vec<&Span> = r.timeline.spans.iter().filter(ran).collect();
            spans.sort_by_key(|sp| sp.start_ns);
            spans
        };
        let (spills, reduces) = (sorted("tier-grad-spill"), sorted("reduce-scatter"));
        assert!(!sorted("tier-param-fetch").is_empty(), "rank {}: the parameter shard climbs", r.rank);
        // Spills run in plan order, each with its planned bytes, on the
        // progress track; the k-th drains the k-th reduce-scatter.
        let bytes: Vec<u64> = spills.iter().map(|sp| sp.bytes).collect();
        assert_eq!(bytes, planned(r.rank, "tier-grad-spill"), "rank {}: spill bytes in plan order", r.rank);
        assert!(spills.iter().all(|sp| sp.track == TRACK_PROGRESS), "rank {}: tier spans stay on the progress track", r.rank);
        assert!(spills.iter().all(|sp| sp.duration_ns() >= 500_000), "rank {}: every move takes its 500 µs", r.rank);
        assert_eq!(reduces.len(), spills.len(), "rank {}", r.rank);
        for (k, (rs, spill)) in reduces.iter().zip(&spills).enumerate() {
            assert!(spill.start_ns >= rs.end_ns, "rank {}: spill {k} starts before its reduce-scatter ends", r.rank);
        }
        // The spill stream runs under the backward: each step's first spill
        // starts before that step's last reduce-scatter has ended.
        let mut first = 0;
        for (step, plan) in plans.iter().enumerate() {
            let n = plan.resolve_tier_for(r.rank).iter().filter(|t| t.label == "tier-grad-spill").count();
            assert!(n > 1, "rank {}: step {step} spills several buckets, got {n}", r.rank);
            let last_rs = reduces[first + n - 1];
            assert!(spills[first].start_ns < last_rs.end_ns, "rank {}: step {step}'s spills wait for its drain", r.rank);
            first += n;
        }
        // The same, and every seeded gather against its fetch, by anchor.
        zero_verify::check_tier_order(&r.timeline, &plans, r.rank).unwrap_or_else(|e| panic!("rank {}: {e}", r.rank));
    }
}

#[test]
fn peak_memory_counter_matches_report() {
    for stage in STAGES {
        let s = setup(stage, 2, false);
        let report = run_training(&s, 2, 0);
        for r in &report.ranks {
            assert_eq!(
                r.timeline.counter_max("peak-device-bytes"),
                Some(r.peak_device_bytes),
                "{stage:?} rank {}: counter track must mirror MemoryTracker peak",
                r.rank
            );
        }
    }
}

#[test]
fn peak_memory_counter_matches_report_under_offload() {
    // The budget proof's observable face: the counter track the trace
    // carries equals the MemoryTracker peak, and both sit inside the
    // enforced device budget.
    let budget = 64u64 << 20;
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        let mut s = setup(stage, 2, false);
        s.zero.tier = zero::core::TierConfig::budgeted(budget);
        let report = run_training(&s, 2, 0);
        for r in &report.ranks {
            assert_eq!(
                r.timeline.counter_max("peak-device-bytes"),
                Some(r.peak_device_bytes),
                "{stage:?} rank {}: counter track must mirror MemoryTracker peak",
                r.rank
            );
            assert!(
                r.peak_device_bytes <= budget,
                "{stage:?} rank {}: peak {} exceeds enforced budget {budget}",
                r.rank,
                r.peak_device_bytes
            );
        }
    }
}

/// A short run over a flat modeled link that charges every message 200 µs
/// on its sender's progress thread, so in-flight collectives occupy
/// measurable wall-clock there.
fn run_latent(stage: ZeroStage, overlap: bool) -> TrainReport {
    let s = TrainSetup {
        model: model(),
        zero: ZeroConfig {
            bucket_elems: 512, // flush mid-backward, not once at the end
            ..zcfg(stage, overlap)
        },
        grid: Grid::new(2, 1),
        global_batch: 2,
        seed: 5,
    };
    let link = TieredLink {
        node_size: 1,
        intra_latency: Duration::ZERO,
        intra_bytes_per_sec: f64::INFINITY,
        inter_latency: Duration::from_micros(200),
        inter_bytes_per_sec: f64::INFINITY,
    };
    run_training_world(&s, 3, 0, WorldConfig::with_tiered_link(link))
}

/// Collectives the rank thread left in flight across model compute,
/// read off the rank's own track in program order: an issue instant
/// (`bucket-flush`, `prefetch-issue`) followed by a whole compute span
/// before the next wait span opens. All three events are stamped by the
/// one thread that performs them, so this is the schedule's shape, not a
/// measurement of how two threads happened to be scheduled.
fn issued_across_compute(t: &StepTimeline) -> usize {
    let on_main = |s: &&Span| s.track == TRACK_MAIN;
    let issues = t
        .instants
        .iter()
        .filter(|i| i.track == TRACK_MAIN && ["bucket-flush", "prefetch-issue"].contains(&i.name));
    issues
        .filter(|issue| {
            let next_wait = t
                .spans_in(SpanCategory::Wait)
                .filter(on_main)
                .map(|w| w.start_ns)
                .filter(|&w| w >= issue.ts_ns)
                .min()
                .expect("every issued collective is waited");
            t.spans_in(SpanCategory::Compute)
                .filter(on_main)
                .any(|c| c.start_ns >= issue.ts_ns && c.end_ns <= next_wait)
        })
        .count()
}

#[test]
fn synchronous_schedule_shows_no_compute_collective_overlap() {
    for stage in STAGES {
        let report = run_latent(stage, false);
        for r in &report.ranks {
            let windows = r.timeline.compute_collective_overlap();
            assert!(
                windows.is_empty(),
                "{stage:?} rank {}: sync run must not overlap compute with \
                 byte-moving collectives, found {} windows",
                r.rank,
                windows.len()
            );
            assert_eq!(
                issued_across_compute(&r.timeline),
                0,
                "{stage:?} rank {}: sync run waits each collective as it is issued",
                r.rank
            );
        }
    }
}

#[test]
fn overlap_schedule_shows_compute_collective_overlap() {
    // Stages 2 and 3 move gradient/parameter traffic while backward (and,
    // for stage 3 prefetch, forward) compute proceeds. Whether the
    // progress thread gets a core inside a given microsecond compute span
    // is the host's business, so the witness is the span structure: on
    // every rank, collectives are issued, compute runs, and only then are
    // they waited — and any window the progress thread did open inside
    // compute is well-formed.
    for stage in [ZeroStage::Two, ZeroStage::Three] {
        let report = run_latent(stage, true);
        for r in &report.ranks {
            for &(start, end) in &r.timeline.compute_collective_overlap() {
                assert!(start < end, "degenerate overlap window {start}..{end}");
            }
            assert!(
                issued_across_compute(&r.timeline) > 0,
                "{stage:?} rank {}: overlap run never left a collective in flight \
                 across compute",
                r.rank
            );
        }
    }
}

#[test]
fn chrome_export_roundtrips_with_schema() {
    let s = setup(ZeroStage::Three, 2, true);
    let report = run_training(&s, 2, 0);
    let timelines: Vec<_> = report.ranks.iter().map(|r| r.timeline.clone()).collect();
    let json = zero::trace::chrome_trace(&timelines);

    // Emit to a scratch file and re-parse from disk — the same path a
    // user's `zero-train --trace` output takes into chrome://tracing.
    let dir = std::env::temp_dir().join(format!("zero-trace-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tempdir");
    let path = dir.join("trace.json");
    std::fs::write(&path, &json).expect("write trace");
    let raw = std::fs::read_to_string(&path).expect("read trace back");
    let doc = serde_json::from_str(&raw).expect("emitted trace must parse");
    std::fs::remove_dir_all(&dir).ok();

    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let total: usize =
        timelines.iter().map(|t| t.spans.len() + t.instants.len() + t.counters.len()).sum();
    assert_eq!(events.len(), total, "one event per span/instant/counter");

    let cats: Vec<&str> =
        zero::trace::ALL_CATEGORIES.iter().map(|c| c.name()).collect();
    let mut last_ts = vec![f64::NEG_INFINITY; timelines.len()];
    let mut seen_cats = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph field");
        assert!(["X", "i", "C"].contains(&ph), "unknown phase {ph}");
        let cat = ev.get("cat").and_then(|v| v.as_str()).expect("cat field");
        assert!(
            cats.contains(&cat) || cat == "counter",
            "unknown category {cat}"
        );
        seen_cats.insert(cat.to_string());
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some(), "name field");
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts field");
        let pid = ev.get("pid").and_then(|v| v.as_u64()).expect("pid field") as usize;
        assert!(pid < timelines.len(), "pid must be a rank index, got {pid}");
        assert!(ev.get("tid").and_then(|v| v.as_u64()).is_some(), "tid field");
        assert!(
            ts >= last_ts[pid],
            "rank {pid}: timestamps must be non-decreasing ({ts} after {})",
            last_ts[pid]
        );
        last_ts[pid] = ts;
        if ph == "X" {
            assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some(), "X events carry dur");
            assert!(
                ev.get("args").and_then(|a| a.get("bytes")).and_then(|b| b.as_u64()).is_some(),
                "span events carry a bytes tag"
            );
        }
    }
    // The full taxonomy shows up in a stage-3 overlap run: compute,
    // collective, wait, optimizer spans plus the counter track.
    for want in ["compute", "collective", "wait", "optimizer", "counter"] {
        assert!(seen_cats.contains(want), "export must contain {want} events, got {seen_cats:?}");
    }
}
