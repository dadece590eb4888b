//! Serving throughput and memory: `results/BENCH_serve.json`.
//!
//! **Closed-loop section.** For each serving world size N, runs the same
//! request batch twice through the shard-hosted engine — continuous
//! batching (several KV slots) and one-at-a-time (a single slot, the
//! serial baseline) — and records throughput, p50/p99 request latency,
//! and the per-rank parameter footprint against the §5.3 bound
//! 4Ψ·(2/N + ε).
//!
//! **Open-loop section.** Replays seeded arrival schedules
//! (`zero_serve::load`) through the engine under several KV and SLO
//! configurations and records goodput at saturation, step-indexed
//! latency percentiles, shed counts, and the prefix-reuse hit rate. The
//! step-indexed fields are deterministic — byte-identical run to run —
//! which is what `--check-against` exploits: it re-runs one schedule and
//! compares every deterministic field exactly against the committed
//! results file, turning the bench into a scheduler-regression gate
//! (wall-clock fields are not compared: see the crate docs).
//!
//! In every mode, every completed request's greedy tokens are asserted
//! bitwise identical to `zero::serve::reference_greedy`:
//! batching, sharding, paging, prefix reuse, and load shedding are
//! performance knobs, never accuracy knobs.
//!
//! `--smoke` runs one tiny closed-loop configuration (CI writes it to a
//! temp file with `--out`).
//! `--arrivals DESC [--seed S] [--kv-block B] [--prefix-reuse]
//! [--slo-steps N] [--check-against PATH]` runs one open-loop schedule.

use serde::Serialize;
use zero::cli::usage_exit;
use zero::core::{CommPlan, Partitioner};
use zero::model::ModelConfig;
use zero::serve::{
    generate, reference_greedy, serve, Arrivals, KvBackend, LoadConfig, ServeConfig, ServeError,
    ServeOutcome, ServeReport, ServeRequest, ServeResponse,
};
use zero_bench::{best_of, nproc, percentile, print_row, Harness};

/// Deep enough (8 blocks) that the largest gather unit is a small
/// fraction of Ψ — the transient double-buffer window has to fit inside
/// the ε of the memory bound even at N = 4.
const MODEL: ModelConfig = ModelConfig { vocab: 64, seq: 32, hidden: 64, layers: 8, heads: 4 };

fn requests(n_req: usize, max_new: usize, vocab: usize) -> Vec<ServeRequest> {
    let prompt = |i: usize| (0..3 + i % 4).map(|j| ((i * 11 + j * 5 + 1) % vocab) as u32).collect();
    (0..n_req).map(|i| ServeRequest::new(i as u64, prompt(i), max_new)).collect()
}

fn shards(params: &[f32], ranks: usize) -> Vec<Vec<f32>> {
    let part = Partitioner::new(params.len(), ranks);
    (0..ranks).map(|r| params[part.shard_range(r)].to_vec()).collect()
}

#[derive(Serialize)]
struct ServeRow {
    ranks: usize,
    slots: usize,
    oversubscribed: bool,
    requests: usize,
    tokens: u64,
    wall_secs: f64,
    tokens_per_sec: f64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    batch_steps: u64,
    /// Max over ranks: persistent shard + transient gather window, bytes.
    param_bytes_peak: u64,
    /// The §5.3 acceptance bound: 4Ψ·(2/N + ε) bytes.
    param_bound_bytes: u64,
    kv_arena_bytes: u64,
    /// Rank 0 all-gather traffic — byte-exact against the static plan.
    gather_bytes: u64,
}

#[derive(Serialize)]
struct ServeSpeedup {
    ranks: usize,
    serial_tokens_per_sec: f64,
    batched_tokens_per_sec: f64,
    /// batched / serial throughput; > 1 means batching wins.
    speedup: f64,
}

/// The configuration of an open-loop row, and the nine counts that are a
/// deterministic function of it — `--check-against` compares them exactly.
const OPEN_KEY: &[&str] =
    &["arrivals", "seed", "ranks", "slots", "kv_block", "prefix_reuse", "slo_steps", "requests"];
const OPEN_EXACT: &[&str] = &[
    "admitted", "shed", "completed_tokens", "batch_steps", "p50_latency_steps", "p99_latency_steps",
    "prefix_hit_rows", "prefill_rows", "kv_bytes_allocated",
];

/// One open-loop schedule replayed through the engine: [`run_open`] takes a
/// row with the `OPEN_KEY` fields set and fills in the rest.
#[derive(Serialize, Clone, Default)]
struct OpenLoopRow {
    /// Arrival-process descriptor (`poisson:0.5`, `burst:8@16`, …).
    arrivals: String,
    seed: u64,
    ranks: usize,
    slots: usize,
    /// KV block positions; 0 means one `seq`-long block per slot.
    kv_block: usize,
    prefix_reuse: bool,
    /// Admission SLO in batch steps; 0 means never shed.
    slo_steps: u64,
    requests: usize,
    oversubscribed: bool,
    admitted: u64,
    shed: u64,
    completed_tokens: u64,
    batch_steps: u64,
    p50_latency_steps: u64,
    p99_latency_steps: u64,
    /// Prompt positions served from shared prefix blocks.
    prefix_hit_rows: u64,
    /// Prompt positions across all admitted requests (`Σ prompt_len`):
    /// each is computed or served from a shared prefix block.
    prompt_rows: u64,
    /// Prompt rows actually computed, each in its request's admission
    /// step (`Σ prompt_len − prefix_reused_rows`).
    prefill_rows: u64,
    /// `prefix_hit_rows / prompt_rows`.
    prefix_hit_rate: f64,
    /// KV bytes allocated over the run (blocks allocated × block bytes).
    kv_bytes_allocated: u64,
    wall_secs: f64,
    /// Completed (not merely attempted) tokens per second — the number
    /// saturation protects.
    wall_goodput_tokens_per_sec: f64,
}

#[derive(Serialize)]
struct BenchServe {
    nproc: usize,
    model_params: usize,
    full_replica_bytes: u64,
    epsilon: f64,
    max_new_tokens: usize,
    rows: Vec<ServeRow>,
    speedups: Vec<ServeSpeedup>,
    open_loop: Vec<OpenLoopRow>,
}

/// The bitwise gate of every mode (see the module docs); returns the
/// completed requests with their responses.
fn completed<'a>(
    params: &[f32],
    reqs: &'a [ServeRequest],
    report: &'a ServeReport,
) -> Vec<(&'a ServeRequest, &'a ServeResponse)> {
    report.check_ranks_agree().expect("serving ranks agree");
    let mut done = Vec::new();
    for (req, out) in reqs.iter().zip(report.outcomes()) {
        match out {
            ServeOutcome::Completed(resp) => {
                let want = reference_greedy(&MODEL, params, req);
                assert_eq!(resp.tokens, want, "request {} diverges from the reference", req.id);
                done.push((req, resp));
            }
            ServeOutcome::Rejected { error, .. } => assert!(
                matches!(error, ServeError::Overloaded { .. }),
                "bench requests are well-formed; only the SLO may reject them"
            ),
        }
    }
    done
}

fn sorted(samples: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = samples.collect();
    v.sort_unstable();
    v
}

fn run_open(params: &[f32], spec: OpenLoopRow) -> OpenLoopRow {
    let arrivals = Arrivals::parse(&spec.arrivals).unwrap_or_else(|e| usage_exit(&e));
    // The one schedule shape every open-loop run uses, so rows are keyed
    // by `(arrivals, seed, config)` alone.
    let reqs = generate(&LoadConfig {
        n_requests: spec.requests,
        arrivals,
        prompt_len: (4, 12),
        max_new: (4, 8),
        vocab: MODEL.vocab,
        seed: spec.seed,
        shared_prefixes: 3,
        prefix_len: 8,
    });
    let kv = match spec.kv_block {
        0 => KvBackend::Slab,
        block => KvBackend::Paged { block, prefix_reuse: spec.prefix_reuse },
    };
    let slo_steps = (spec.slo_steps > 0).then_some(spec.slo_steps);
    let cfg = ServeConfig { slots: spec.slots, overlap: true, kv, slo_steps };
    let shards = shards(params, spec.ranks);
    let (secs, report) = best_of(1, || serve(&MODEL, &shards, &reqs, &cfg));
    let done = completed(params, &reqs, &report);
    assert!(!done.is_empty(), "schedule must complete at least one request");
    type Count = fn(&ServeRequest, &ServeResponse) -> u64;
    let sum = |of: Count| done.iter().map(|(q, r)| of(q, r)).sum::<u64>();
    let (tokens, prompt_rows) = (sum(|_, r| r.decode_steps), sum(|q, _| q.prompt.len() as u64));
    let prefill_rows = sum(|_, r| r.prefill_rows);
    let reused_rows = sum(|_, r| r.prefix_reused_rows);
    assert_eq!(prompt_rows, prefill_rows + reused_rows, "a prompt row is prefilled or reused");
    let lat_steps = sorted(done.iter().map(|(_, r)| r.latency_steps));
    let meters = report.ranks[0].kv_meters;
    let row = OpenLoopRow {
        arrivals: arrivals.describe(),
        oversubscribed: spec.ranks > nproc(),
        admitted: done.len() as u64,
        shed: (reqs.len() - done.len()) as u64,
        completed_tokens: tokens,
        batch_steps: report.ranks[0].batch_steps,
        p50_latency_steps: percentile(&lat_steps, 0.50),
        p99_latency_steps: percentile(&lat_steps, 0.99),
        prefix_hit_rows: meters.prefix_hit_rows,
        prompt_rows,
        prefill_rows,
        prefix_hit_rate: meters.prefix_hit_rows as f64 / prompt_rows.max(1) as f64,
        kv_bytes_allocated: meters.bytes_allocated,
        wall_secs: secs,
        wall_goodput_tokens_per_sec: tokens as f64 / secs,
        ..spec
    };
    print_row(&row);
    row
}

fn main() {
    let harness = Harness::from_env(
        "serve",
        &["--arrivals", "--seed", "--ranks", "--slots", "--kv-block", "--slo-steps", "--requests"],
        &["--prefix-reuse"],
    );
    let params = zero::model::init_full_params(&MODEL, 7);
    let full_bytes = 4 * params.len() as u64;

    // Open-loop one-shot mode: replay one schedule, print the row,
    // optionally gate it against the committed results.
    if let Some(arrivals) = harness.args.maybe("--arrivals") {
        let spec = OpenLoopRow {
            arrivals,
            seed: harness.args.get("--seed", 42),
            ranks: harness.args.get("--ranks", 2),
            slots: harness.args.get("--slots", 4),
            kv_block: harness.args.get("--kv-block", 0),
            prefix_reuse: harness.args.flag("--prefix-reuse"),
            slo_steps: harness.args.get("--slo-steps", 0),
            requests: harness.args.get("--requests", 32),
            ..OpenLoopRow::default()
        };
        harness.check("open_loop", &[run_open(&params, spec)], OPEN_KEY, OPEN_EXACT, None);
        return;
    }

    let (worlds, slots, n_req, max_new, trials): (&[usize], usize, usize, usize, usize) =
        if harness.smoke { (&[2], 4, 6, 4, 1) } else { (&[2, 4], 4, 16, 8, 2) };
    let reqs = requests(n_req, max_new, MODEL.vocab);

    let mut rows: Vec<ServeRow> = Vec::new();
    let mut speedups = Vec::new();
    for &n in worlds {
        let shards = shards(&params, n);
        let bound = CommPlan::serve_param_bound(params.len(), n);
        // One-at-a-time (a single slot), then continuous batching.
        for slot_count in [1, slots] {
            let cfg = ServeConfig { slots: slot_count, ..ServeConfig::default() };
            let (secs, report) = best_of(trials, || serve(&MODEL, &shards, &reqs, &cfg));
            let done = completed(&params, &reqs, &report);
            assert_eq!(done.len(), reqs.len(), "without an SLO every request completes");
            let tokens: u64 = done.iter().map(|(_, r)| r.decode_steps).sum();
            let lat = sorted(done.iter().map(|(_, r)| r.latency_ns));
            let peak = report.ranks.iter().map(|r| r.param_bytes_peak).max().expect("n > 0 ranks");
            assert!(peak <= bound, "N={n}, slots={slot_count}: {peak} B exceeds 4Ψ(2/N+ε) = {bound}");
            let row = ServeRow {
                ranks: n,
                slots: slot_count,
                oversubscribed: n > nproc(),
                requests: reqs.len(),
                tokens,
                wall_secs: secs,
                tokens_per_sec: tokens as f64 / secs,
                p50_latency_ms: percentile(&lat, 0.50) as f64 / 1e6,
                p99_latency_ms: percentile(&lat, 0.99) as f64 / 1e6,
                batch_steps: report.ranks[0].batch_steps,
                param_bytes_peak: peak,
                param_bound_bytes: bound,
                kv_arena_bytes: report.ranks[0].kv_arena_bytes,
                gather_bytes: report.ranks[0].gather_bytes,
            };
            print_row(&row);
            rows.push(row);
        }
        let [.., serial, batched] = &rows[..] else { unreachable!("two rows per world") };
        let speedup = ServeSpeedup {
            ranks: n,
            serial_tokens_per_sec: serial.tokens_per_sec,
            batched_tokens_per_sec: batched.tokens_per_sec,
            speedup: batched.tokens_per_sec / serial.tokens_per_sec,
        };
        if !batched.oversubscribed {
            print_row(&speedup);
        }
        speedups.push(speedup);
    }

    // Open-loop section: the committed rows the CI smoke checks against.
    // Same Poisson schedule at the one-block-per-slot geometry and at
    // block 8 with reuse (whose deterministic admission metrics must
    // agree — the geometries differ only in memory), plus a saturating
    // burst schedule with an SLO.
    let mut open_loop = Vec::new();
    if !harness.smoke {
        assert!(
            speedups.iter().all(|s| s.speedup > 1.0),
            "continuous batching must beat one-at-a-time serving"
        );
        let poisson = OpenLoopRow {
            arrivals: "poisson:0.5".to_string(),
            seed: 42,
            ranks: 2,
            slots: 4,
            requests: 32,
            ..OpenLoopRow::default()
        };
        // Eight ~6-step requests per 8 steps against 4 slots: offered load
        // 1.5× capacity, so the queue outgrows a 16-step SLO.
        let burst = OpenLoopRow { arrivals: "burst:8@8".to_string(), slo_steps: 16, ..poisson.clone() };
        let reuse = OpenLoopRow { kv_block: 8, prefix_reuse: true, ..poisson.clone() };
        open_loop.extend([poisson, reuse, burst].map(|spec| run_open(&params, spec)));
        // The reuse run must actually reuse prefixes — fewer prompt rows
        // computed — while its schedule matches the first row exactly.
        assert!(open_loop[1].prefix_hit_rows > 0, "shared prefixes must hit the cache");
        assert!(open_loop[1].prefill_rows < open_loop[0].prefill_rows);
        let schedule = |r: &OpenLoopRow| {
            (r.admitted, r.completed_tokens, r.batch_steps, r.p50_latency_steps, r.p99_latency_steps)
        };
        assert_eq!(schedule(&open_loop[0]), schedule(&open_loop[1]));
        assert!(open_loop[2].shed > 0, "the burst schedule must saturate the SLO");
    }

    let counts = ["tokens", "batch_steps", "kv_arena_bytes", "gather_bytes"];
    harness.check("rows", &rows, &["ranks", "slots", "requests"], &counts, Some("wall_secs"));
    harness.check("open_loop", &open_loop, OPEN_KEY, OPEN_EXACT, None);
    harness.finish(&BenchServe {
        nproc: nproc(),
        model_params: params.len(),
        full_replica_bytes: full_bytes,
        epsilon: CommPlan::SERVE_EPSILON,
        max_new_tokens: max_new,
        rows,
        speedups,
        open_loop,
    });
}
