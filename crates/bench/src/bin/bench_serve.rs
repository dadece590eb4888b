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
//! compares every deterministic field against the committed results
//! file, turning the bench into a scheduler-regression gate.
//!
//! In every mode, every completed request's greedy tokens are asserted
//! bitwise identical to the single-process `IncrementalDecoder`:
//! batching, sharding, paging, prefix reuse, and load shedding are
//! performance knobs, never accuracy knobs.
//!
//! `--smoke` runs one tiny closed-loop configuration; with `--out PATH`
//! the smoke still writes its JSON there (CI uses a temp file),
//! otherwise the committed results file is left untouched.
//! `--arrivals DESC [--seed S] [--kv-block B] [--prefix-reuse]
//! [--slo-steps N] [--check-against PATH]` runs one open-loop schedule.

use std::time::Instant;

use serde::Serialize;
use zero_model::{argmax, Gpt, IncrementalDecoder, ModelConfig};
use zero_serve::{
    generate, serve, Arrivals, KvBackend, LoadConfig, ServeConfig, ServeError, ServeRequest,
    ServeResponse,
};

/// Deep enough (8 blocks) that the largest gather unit is a small
/// fraction of Ψ — the transient double-buffer window has to fit inside
/// the ε of the memory bound even at N = 4.
fn serve_model() -> ModelConfig {
    ModelConfig { vocab: 64, seq: 32, hidden: 64, layers: 8, heads: 4 }
}

fn requests(n_req: usize, max_new: usize, vocab: usize) -> Vec<ServeRequest> {
    (0..n_req)
        .map(|i| {
            ServeRequest::new(
                i as u64,
                (0..3 + i % 4).map(|j| ((i * 11 + j * 5 + 1) % vocab) as u32).collect(),
                max_new,
            )
        })
        .collect()
}

fn reference_greedy(model: &ModelConfig, params: &[f32], req: &ServeRequest) -> Vec<u32> {
    let gpt = Gpt::new(*model);
    let mut dec = IncrementalDecoder::new(&gpt, params);
    let mut last = Vec::new();
    for &t in &req.prompt {
        last = dec.feed(t).expect("bench prompt is well-formed");
    }
    let mut out = vec![argmax(&last) as u32];
    while out.len() < req.max_new_tokens {
        last = dec.feed(*out.last().unwrap()).expect("bench decode");
        out.push(argmax(&last) as u32);
    }
    out
}

/// Nearest-rank percentile (inclusive): the smallest sample such that at
/// least `q` of the distribution is ≤ it — `sorted[⌈q·n⌉ − 1]`.
///
/// The old implementation indexed `round(q·(n−1))`, which is not any
/// standard percentile definition: at the half-points it jumps to the
/// *next* sample (p50 of 20 samples returned the 11th, not the 10th),
/// and two baselines computed with different sample counts weren't
/// comparing the same statistic. Nearest-rank is the textbook
/// definition: p100 is exactly the maximum, p50 the lower median, and
/// the reported value is always an observed sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    percentile(sorted_ns, q) as f64 / 1e6
}

#[derive(Serialize)]
struct ServeRow {
    ranks: usize,
    slots: usize,
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

/// One open-loop schedule replayed through the engine. Every field except
/// the `wall_*` pair is a deterministic function of (schedule, config) —
/// `--check-against` compares them exactly.
#[derive(Serialize)]
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
    admitted: u64,
    shed: u64,
    completed_tokens: u64,
    batch_steps: u64,
    p50_latency_steps: u64,
    p99_latency_steps: u64,
    /// Prompt positions served from shared prefix blocks.
    prefix_hit_rows: u64,
    /// Prompt positions across all admitted requests (`Σ prompt_len − 1`).
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
    model_params: usize,
    full_replica_bytes: u64,
    epsilon: f64,
    max_new_tokens: usize,
    rows: Vec<ServeRow>,
    speedups: Vec<ServeSpeedup>,
    open_loop: Vec<OpenLoopRow>,
}

fn run_one(
    model: &ModelConfig,
    shards: &[Vec<f32>],
    reqs: &[ServeRequest],
    slots: usize,
    trials: usize,
) -> (f64, Vec<ServeResponse>, u64, u64, u64, u64) {
    let cfg = ServeConfig { slots, ..ServeConfig::default() };
    let mut best: Option<(f64, _)> = None;
    for _ in 0..trials {
        let t0 = Instant::now();
        let report = serve(model, shards, reqs, &cfg);
        let dt = t0.elapsed().as_secs_f64();
        report.check_ranks_agree().expect("serving ranks agree");
        if best.as_ref().is_none_or(|(b, _)| dt < *b) {
            best = Some((dt, report));
        }
    }
    let (secs, report) = best.unwrap();
    let responses: Vec<ServeResponse> =
        report.outcomes().iter().map(|o| o.response().expect("bench request admitted").clone()).collect();
    let peak = report.ranks.iter().map(|r| r.param_bytes_peak).max().unwrap();
    (
        secs,
        responses,
        report.ranks[0].batch_steps,
        peak,
        report.ranks[0].kv_arena_bytes,
        report.ranks[0].gather_bytes,
    )
}

/// One open-loop configuration: which schedule, which engine knobs.
#[derive(Clone)]
struct OpenSpec {
    arrivals: Arrivals,
    seed: u64,
    ranks: usize,
    slots: usize,
    kv_block: usize,
    prefix_reuse: bool,
    slo_steps: Option<u64>,
    n_requests: usize,
}

/// The one schedule shape every open-loop run uses, so rows are keyed by
/// `(arrivals, seed, config)` alone.
fn open_load(spec: &OpenSpec, vocab: usize) -> LoadConfig {
    LoadConfig {
        n_requests: spec.n_requests,
        arrivals: spec.arrivals,
        prompt_len: (4, 12),
        max_new: (4, 8),
        vocab,
        seed: spec.seed,
        shared_prefixes: 3,
        prefix_len: 8,
    }
}

fn run_open(model: &ModelConfig, params: &[f32], spec: &OpenSpec) -> OpenLoopRow {
    let reqs = generate(&open_load(spec, model.vocab));
    let part = zero_core::Partitioner::new(params.len(), spec.ranks);
    let shards: Vec<Vec<f32>> =
        (0..spec.ranks).map(|r| params[part.shard_range(r)].to_vec()).collect();
    let cfg = ServeConfig {
        slots: spec.slots,
        overlap: true,
        kv: if spec.kv_block == 0 {
            KvBackend::Slab
        } else {
            KvBackend::Paged { block: spec.kv_block, prefix_reuse: spec.prefix_reuse }
        },
        slo_steps: spec.slo_steps,
    };
    let t0 = Instant::now();
    let report = serve(model, &shards, &reqs, &cfg);
    let secs = t0.elapsed().as_secs_f64();
    report.check_ranks_agree().expect("open-loop ranks agree");

    let mut admitted = 0u64;
    let mut shed = 0u64;
    let mut tokens = 0u64;
    let mut prompt_rows = 0u64;
    let mut prefill_rows = 0u64;
    let mut lat_steps: Vec<u64> = Vec::new();
    for (req, out) in reqs.iter().zip(report.outcomes()) {
        match out {
            zero_serve::ServeOutcome::Completed(resp) => {
                assert_eq!(
                    resp.tokens,
                    reference_greedy(model, params, req),
                    "open-loop tokens diverge from the incremental decoder \
                     ({} request {})",
                    spec.arrivals.describe(),
                    req.id
                );
                admitted += 1;
                tokens += resp.decode_steps;
                prompt_rows += (req.prompt.len() - 1) as u64;
                prefill_rows += resp.prefill_rows;
                lat_steps.push(resp.latency_steps);
            }
            zero_serve::ServeOutcome::Rejected { error, .. } => {
                assert!(
                    matches!(error, ServeError::Overloaded { .. }),
                    "generated requests are well-formed; only the SLO may reject them"
                );
                shed += 1;
            }
        }
    }
    assert!(admitted > 0, "schedule must complete at least one request");
    lat_steps.sort_unstable();
    let meters = report.ranks[0].kv_meters;
    OpenLoopRow {
        arrivals: spec.arrivals.describe(),
        seed: spec.seed,
        ranks: spec.ranks,
        slots: spec.slots,
        kv_block: spec.kv_block,
        prefix_reuse: spec.prefix_reuse,
        slo_steps: spec.slo_steps.unwrap_or(0),
        requests: reqs.len(),
        admitted,
        shed,
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
    }
}

/// Compares `row` against the matching row of a committed results file.
/// Every step-indexed field must match exactly; wall-clock fields are
/// informational and not compared. Panics (non-zero exit) on mismatch or
/// if the baseline has no matching configuration.
fn check_against(path: &str, row: &OpenLoopRow) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let v: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad JSON in {path}: {e}"));
    let rows = v
        .get("open_loop")
        .and_then(|r| r.as_array())
        .unwrap_or_else(|| panic!("{path} has no open_loop section"));
    let base = rows
        .iter()
        .find(|r| {
            r.get("arrivals").and_then(|x| x.as_str()) == Some(row.arrivals.as_str())
                && r.get("seed").and_then(|x| x.as_u64()) == Some(row.seed)
                && r.get("ranks").and_then(|x| x.as_u64()) == Some(row.ranks as u64)
                && r.get("slots").and_then(|x| x.as_u64()) == Some(row.slots as u64)
                && r.get("kv_block").and_then(|x| x.as_u64()) == Some(row.kv_block as u64)
                && r.get("prefix_reuse").and_then(|x| x.as_bool()) == Some(row.prefix_reuse)
                && r.get("slo_steps").and_then(|x| x.as_u64()) == Some(row.slo_steps)
                && r.get("requests").and_then(|x| x.as_u64()) == Some(row.requests as u64)
        })
        .unwrap_or_else(|| {
            panic!(
                "{path} has no open_loop row for arrivals={} seed={} ranks={} slots={} \
                 kv_block={} prefix_reuse={} slo_steps={} requests={}",
                row.arrivals, row.seed, row.ranks, row.slots, row.kv_block, row.prefix_reuse,
                row.slo_steps, row.requests
            )
        });
    let fields: [(&str, u64); 9] = [
        ("admitted", row.admitted),
        ("shed", row.shed),
        ("completed_tokens", row.completed_tokens),
        ("batch_steps", row.batch_steps),
        ("p50_latency_steps", row.p50_latency_steps),
        ("p99_latency_steps", row.p99_latency_steps),
        ("prefix_hit_rows", row.prefix_hit_rows),
        ("prefill_rows", row.prefill_rows),
        ("kv_bytes_allocated", row.kv_bytes_allocated),
    ];
    for (name, got) in fields {
        let want = base
            .get(name)
            .and_then(|x| x.as_u64())
            .unwrap_or_else(|| panic!("baseline row lacks {name}"));
        assert_eq!(
            got, want,
            "deterministic open-loop field {name} drifted from {path} \
             (schedule {} seed {})",
            row.arrivals, row.seed
        );
    }
    println!("open-loop row matches baseline {path} on all deterministic fields");
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = arg_value(&args, "--out");

    const EPSILON: f64 = 0.10;
    let model = serve_model();
    let params = zero_model::init_full_params(&model, 7);
    let full_bytes = 4 * params.len() as u64;

    // Open-loop one-shot mode: replay one schedule, print the row,
    // optionally gate it against the committed results.
    if let Some(desc) = arg_value(&args, "--arrivals") {
        let arrivals = Arrivals::parse(&desc).unwrap_or_else(|e| panic!("{e}"));
        let spec = OpenSpec {
            arrivals,
            seed: arg_value(&args, "--seed").map_or(42, |s| s.parse().expect("bad --seed")),
            ranks: arg_value(&args, "--ranks").map_or(2, |s| s.parse().expect("bad --ranks")),
            slots: arg_value(&args, "--slots").map_or(4, |s| s.parse().expect("bad --slots")),
            kv_block: arg_value(&args, "--kv-block")
                .map_or(0, |s| s.parse().expect("bad --kv-block")),
            prefix_reuse: args.iter().any(|a| a == "--prefix-reuse"),
            slo_steps: arg_value(&args, "--slo-steps")
                .map(|s| s.parse().expect("bad --slo-steps")),
            n_requests: arg_value(&args, "--requests")
                .map_or(32, |s| s.parse().expect("bad --requests")),
        };
        let row = run_open(&model, &params, &spec);
        println!(
            "{} seed={}: {}/{} admitted ({} shed), {} tokens in {} steps, \
             p50 {} / p99 {} steps, prefix hit rate {:.2}, goodput {:.1} tok/s",
            row.arrivals, row.seed, row.admitted, row.requests, row.shed, row.completed_tokens,
            row.batch_steps, row.p50_latency_steps, row.p99_latency_steps, row.prefix_hit_rate,
            row.wall_goodput_tokens_per_sec
        );
        if let Some(path) = arg_value(&args, "--check-against") {
            check_against(&path, &row);
        }
        return;
    }

    let (worlds, slots, n_req, max_new, trials): (&[usize], usize, usize, usize, usize) =
        if smoke { (&[2], 4, 6, 4, 1) } else { (&[2, 4], 4, 16, 8, 2) };

    let reqs = requests(n_req, max_new, model.vocab);
    let reference: Vec<Vec<u32>> =
        reqs.iter().map(|r| reference_greedy(&model, &params, r)).collect();

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for &n in worlds {
        let part = zero_core::Partitioner::new(params.len(), n);
        let shards: Vec<Vec<f32>> =
            (0..n).map(|r| params[part.shard_range(r)].to_vec()).collect();
        let bound = (full_bytes as f64 * (2.0 / n as f64 + EPSILON)) as u64;

        let mut tps = [0.0f64; 2];
        for (i, slot_count) in [1, slots].into_iter().enumerate() {
            let (secs, responses, steps, peak, kv, gather) =
                run_one(&model, &shards, &reqs, slot_count, trials);
            for (resp, want) in responses.iter().zip(&reference) {
                assert_eq!(
                    &resp.tokens, want,
                    "served tokens diverge from the incremental-decoder reference \
                     (N={n}, slots={slot_count}, request {})",
                    resp.id
                );
            }
            assert!(
                peak <= bound,
                "N={n}, slots={slot_count}: {peak} param bytes exceeds 4Ψ(2/N+ε) = {bound}"
            );
            let tokens: u64 = responses.iter().map(|r| r.decode_steps).sum();
            let mut lat: Vec<u64> = responses.iter().map(|r| r.latency_ns).collect();
            lat.sort_unstable();
            tps[i] = tokens as f64 / secs;
            println!(
                "N={n} slots={slot_count}: {:>7.1} tok/s  p50 {:>7.2} ms  p99 {:>7.2} ms  \
                 peak {peak} B (bound {bound} B)",
                tps[i],
                percentile_ms(&lat, 0.50),
                percentile_ms(&lat, 0.99),
            );
            rows.push(ServeRow {
                ranks: n,
                slots: slot_count,
                requests: reqs.len(),
                tokens,
                wall_secs: secs,
                tokens_per_sec: tps[i],
                p50_latency_ms: percentile_ms(&lat, 0.50),
                p99_latency_ms: percentile_ms(&lat, 0.99),
                batch_steps: steps,
                param_bytes_peak: peak,
                param_bound_bytes: bound,
                kv_arena_bytes: kv,
                gather_bytes: gather,
            });
        }
        println!("N={n}: batching speedup {:.2}×", tps[1] / tps[0]);
        speedups.push(ServeSpeedup {
            ranks: n,
            serial_tokens_per_sec: tps[0],
            batched_tokens_per_sec: tps[1],
            speedup: tps[1] / tps[0],
        });
    }

    if !smoke {
        assert!(
            speedups.iter().all(|s| s.speedup > 1.0),
            "continuous batching must beat one-at-a-time serving"
        );
    }

    // Open-loop section: the committed rows the CI smoke checks against.
    // Same Poisson schedule at the one-block-per-slot geometry and at
    // block 8 with reuse (whose deterministic admission metrics must
    // agree — the geometries differ only in memory), plus a saturating
    // burst schedule with an SLO.
    let mut open_loop = Vec::new();
    if !smoke {
        let base = OpenSpec {
            arrivals: Arrivals::Poisson { rate: 0.5 },
            seed: 42,
            ranks: 2,
            slots: 4,
            kv_block: 0,
            prefix_reuse: false,
            slo_steps: None,
            n_requests: 32,
        };
        let specs = [
            base.clone(),
            OpenSpec { kv_block: 8, prefix_reuse: true, ..base.clone() },
            // Eight ~6-step requests per 8 steps against 4 slots: offered
            // load 1.5× capacity, so the queue outgrows a 16-step SLO.
            OpenSpec {
                arrivals: Arrivals::Burst { size: 8, period: 8 },
                slo_steps: Some(16),
                ..base.clone()
            },
        ];
        for spec in &specs {
            let row = run_open(&model, &params, spec);
            println!(
                "open-loop {} kv_block={} reuse={} slo={}: {}/{} admitted, {} tokens, \
                 p99 {} steps, hit rate {:.2}, {:.1} tok/s goodput",
                row.arrivals, row.kv_block, row.prefix_reuse, row.slo_steps, row.admitted,
                row.requests, row.completed_tokens, row.p99_latency_steps, row.prefix_hit_rate,
                row.wall_goodput_tokens_per_sec
            );
            open_loop.push(row);
        }
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

    let out = BenchServe {
        model_params: params.len(),
        full_replica_bytes: full_bytes,
        epsilon: EPSILON,
        max_new_tokens: max_new,
        rows,
        speedups,
        open_loop,
    };
    let json = serde_json::to_string_pretty(&out).expect("serialize bench");
    let path = match (&out_path, smoke) {
        (Some(p), _) => std::path::PathBuf::from(p),
        (None, true) => {
            println!("smoke run complete (results file untouched)");
            return;
        }
        (None, false) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("manifest dir has a grandparent")
            .join("results/BENCH_serve.json"),
    };
    std::fs::write(&path, json + "\n").expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::percentile;

    /// Pins the nearest-rank definition on small known samples — the
    /// regression the old round()-based index computation failed.
    #[test]
    fn percentiles_use_nearest_rank_with_ceil() {
        // 20 samples 1..=20: p50 = 10th sample, p99 = ⌈19.8⌉ = 20th,
        // p100 = max. round() gave p99 = sorted[round(0.99·19)] = 19.
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.50), 10);
        assert_eq!(percentile(&v, 0.99), 20);
        assert_eq!(percentile(&v, 1.00), 20);
        assert_eq!(percentile(&v, 0.0), 1);

        // 34 samples: p50 = ⌈17⌉ = 17th, p90 = ⌈30.6⌉ = 31st.
        let v: Vec<u64> = (1..=34).collect();
        assert_eq!(percentile(&v, 0.50), 17);
        assert_eq!(percentile(&v, 0.90), 31);

        // 50 samples: p99 = ⌈49.5⌉ = 50th — the tail is the tail.
        let v: Vec<u64> = (1..=50).collect();
        assert_eq!(percentile(&v, 0.99), 50);
        // The old round(q·(n−1)) formula overshot the median on even
        // sample counts: round(0.5·19) = 10 → the 11th sample, not the
        // 10th that nearest-rank (and any median definition) picks.
        let v: Vec<u64> = (1..=20).collect();
        let old = (0.50 * (v.len() - 1) as f64).round() as usize;
        assert_eq!(v[old], 11, "documented: the bug this replaces reported 11");
        assert_eq!(percentile(&v, 0.50), 10);

        // Singleton: every percentile is the sample.
        assert_eq!(percentile(&[7], 0.01), 7);
        assert_eq!(percentile(&[7], 1.0), 7);
    }
}
