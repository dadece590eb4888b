//! `zero-serve` — shard-hosted batched inference serving from the CLI.
//!
//! ```text
//! cargo run --release --bin zero-train -- --stage 3 --dp 4 --save ckpt/
//! cargo run --release --bin zero-serve -- --snapshots ckpt/ --ranks 2
//! cargo run --release --bin zero-serve -- --arrivals poisson:0.5 --slo-steps 64 --kv-block 8 --prefix-reuse
//! ```
//!
//! Loads a training checkpoint (any world size), exports the fp32 master
//! parameters onto `--ranks` serving shards, and serves a request
//! schedule with continuous batching. `--arrivals` switches from the
//! legacy closed batch to a seeded open-loop schedule in batch-step time
//! (`poisson:RATE` or `burst:SIZE@PERIOD`); `--kv-block`/`--prefix-reuse`
//! set the KV pool's block geometry; `--slo-steps` arms admission control.
//! `--smoke` runs the gated self-checks (typed rejection of malformed
//! requests, byte-exact plan/trace/traffic reconciliation, bitwise
//! agreement with the single-process decoder and between KV geometries,
//! the 2Ψ/N + ε memory bound) and exits non-zero on any failure.

use zero::cli::{usage_exit, Args};
use zero::comm::CollectiveKind;
use zero::core::{export_inference_shards, CommPlan, Partitioner, RankSnapshot};
use zero::model::{Gpt, ModelConfig};
use zero::serve::{
    reference_greedy, serve, Arrivals, KvBackend, LoadConfig, ServeConfig, ServeRequest,
};
use zero::trace::SpanCategory;

/// Options that take a value, and bare switches (see `--help`).
const OPTIONS: &[&str] = &[
    "--snapshots", "--ranks", "--slots", "--requests", "--max-new", "--arrivals", "--slo-steps",
    "--kv-block", "--layers", "--hidden", "--heads", "--seq", "--vocab", "--seed",
];
const SWITCHES: &[&str] = &["--help", "--prefix-reuse", "--no-overlap", "--smoke"];

fn fail(msg: &str) -> ! {
    eprintln!("zero-serve: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = Args::from_env(OPTIONS, SWITCHES);
    if args.flag("--help") {
        println!(
            "zero-serve: batched inference from stage-3 parameter shards\n\
             \n\
             --snapshots DIR  checkpoint dir from `zero-train --save`\n\
                              (omitted: serve a freshly initialized model)\n\
             --ranks N        serving world size                 [2]\n\
             --slots N        concurrent-request batch capacity  [4]\n\
             --requests N     synthetic requests to serve        [8]\n\
             --max-new N      tokens generated per request       [8]\n\
             --arrivals DESC  open-loop schedule in batch-step time:\n\
                              closed | poisson:RATE | burst:SIZE@PERIOD  [closed]\n\
             --slo-steps N    shed requests whose predicted queue delay\n\
                              exceeds N batch steps (requires arrivals)\n\
             --kv-block N     KV blocks of N positions, paged in on demand\n\
                              (0 = one seq-long block per slot)   [0]\n\
             --prefix-reuse   share prompt-prefix blocks between requests\n\
                              (needs --kv-block N >= 1)\n\
             --layers/--hidden/--heads/--seq/--vocab\n\
                              model shape (no-snapshot mode)\n\
             --seed N         init/request/schedule seed         [42]\n\
             --no-overlap     synchronous (non-prefetched) gathers\n\
             --smoke          run the gated self-checks, exit non-zero on failure"
        );
        return;
    }

    let smoke = args.flag("--smoke");
    let n: usize = args.get("--ranks", 2usize);
    let slots: usize = args.get("--slots", 4usize);
    let kv_block: usize = args.get("--kv-block", 0usize);
    // Values the engine would only panic on are usage errors here.
    if n == 0 {
        usage_exit("--ranks: need at least one serving rank");
    }
    if slots == 0 {
        usage_exit("--slots: need at least one KV slot");
    }
    if kv_block == 0 && args.flag("--prefix-reuse") {
        usage_exit("--prefix-reuse: needs --kv-block N with N >= 1");
    }
    let seed: u64 = args.get("--seed", 42u64);
    let snap_dir: String = args.get("--snapshots", String::new());

    // Parameters: a checkpoint, or a fresh init in the named shape.
    let (model, params) = if snap_dir.is_empty() {
        let model = ModelConfig {
            vocab: args.get("--vocab", 64usize),
            seq: args.get("--seq", 32usize),
            hidden: args.get("--hidden", 64usize),
            layers: args.get("--layers", if smoke { 8 } else { 4 }),
            heads: args.get("--heads", 4usize),
        };
        (model, zero::model::init_full_params(&model, seed))
    } else {
        let dir = std::path::Path::new(&snap_dir);
        let world = (0..)
            .take_while(|&r| RankSnapshot::path_for(dir, r).exists())
            .count();
        if world == 0 {
            fail(&format!("no rank_*.zero snapshots in {snap_dir}"));
        }
        let snaps = RankSnapshot::load_all(dir, world)
            .unwrap_or_else(|e| fail(&format!("loading {snap_dir}: {e}")));
        let full = export_inference_shards(&snaps, 1)
            .unwrap_or_else(|e| fail(&format!("exporting {snap_dir}: {e}")))
            .remove(0);
        let model = ModelConfig {
            vocab: args.get("--vocab", 64usize),
            seq: args.get("--seq", 32usize),
            hidden: args.get("--hidden", 64usize),
            layers: args.get("--layers", 2usize),
            heads: args.get("--heads", 4usize),
        };
        if model.total_params() != full.len() {
            fail(&format!(
                "snapshot holds {} params but the model shape needs {} — \
                 pass the training run's shape flags",
                full.len(),
                model.total_params()
            ));
        }
        (model, full)
    };

    // Shard for serving.
    let part = Partitioner::new(params.len(), n);
    let shards: Vec<Vec<f32>> = (0..n).map(|r| params[part.shard_range(r)].to_vec()).collect();

    let arrivals = {
        let desc: String = args.get("--arrivals", "closed".to_string());
        Arrivals::parse(&desc).unwrap_or_else(|e| fail(&e))
    };

    // The request schedule. With `--arrivals closed` (the default) a
    // legacy synthetic batch all arriving at step 0; otherwise a seeded
    // open-loop schedule in batch-step time. Under --smoke the batch
    // additionally includes one out-of-vocab and one over-length request
    // that MUST be rejected with typed errors while every rank keeps
    // serving.
    let n_req: usize = args.get("--requests", 8usize).max(if smoke { 8 } else { 1 });
    let max_new: usize = args.get("--max-new", 8usize).min(model.seq.saturating_sub(4)).max(1);
    let mut requests: Vec<ServeRequest> = if arrivals == Arrivals::Closed {
        (0..n_req)
            .map(|i| {
                ServeRequest::new(
                    i as u64,
                    (0..3 + i % 3)
                        .map(|j| ((seed as usize + i * 7 + j * 3) % model.vocab) as u32)
                        .collect(),
                    max_new,
                )
            })
            .collect()
    } else {
        zero::serve::generate(&LoadConfig {
            n_requests: n_req,
            arrivals,
            prompt_len: (3, (model.seq / 2).max(3)),
            max_new: (1, max_new),
            vocab: model.vocab,
            seed,
            shared_prefixes: 3,
            prefix_len: (model.seq / 4).max(2),
        })
    };
    if smoke {
        requests.push(ServeRequest::new(900, vec![model.vocab as u32 + 5], 2));
        requests.push(ServeRequest::new(901, vec![1; model.seq], model.seq));
    }

    let cfg = ServeConfig {
        slots,
        overlap: !args.flag("--no-overlap"),
        kv: if kv_block == 0 {
            KvBackend::Slab
        } else {
            KvBackend::Paged { block: kv_block, prefix_reuse: args.flag("--prefix-reuse") }
        },
        slo_steps: args.maybe("--slo-steps"),
    };
    println!(
        "serving {} params over {n} ranks | {} requests ({}) | {} slots | kv {} | overlap {}",
        params.len(),
        requests.len(),
        arrivals.describe(),
        cfg.slots,
        match cfg.kv {
            KvBackend::Slab => "slab".to_string(),
            KvBackend::Paged { block, prefix_reuse } =>
                format!("paged:{block}{}", if prefix_reuse { "+reuse" } else { "" }),
        },
        cfg.overlap
    );
    let t0 = std::time::Instant::now();
    let report = serve(&model, &shards, &requests, &cfg);
    let dt = t0.elapsed();

    let completed: Vec<_> = report.outcomes().iter().filter_map(|o| o.response()).collect();
    let rejected = report.outcomes().len() - completed.len();
    let tokens: u64 = completed.iter().map(|r| r.decode_steps).sum();
    println!(
        "completed {} requests ({rejected} rejected/shed), {} tokens in {:.2?} \
         ({:.1} tok/s goodput) over {} batch steps",
        completed.len(),
        tokens,
        dt,
        tokens as f64 / dt.as_secs_f64(),
        report.ranks[0].batch_steps
    );
    for r in &report.ranks {
        println!(
            "  rank {}: shard {} B + transient peak {} B = {} B params, \
             {} B KV arena ({} B allocated, {} prefix rows reused), {} B gathered",
            r.rank,
            r.persistent_param_bytes,
            r.transient_param_bytes_peak,
            r.param_bytes_peak,
            r.kv_arena_bytes,
            r.kv_meters.bytes_allocated,
            r.kv_meters.prefix_hit_rows + r.kv_meters.prefix_cow_rows,
            r.gather_bytes
        );
    }

    if !smoke {
        return;
    }

    // ---- gated self-checks ----

    // 1. SPMD lockstep: identical outcomes on every rank.
    if let Err(e) = report.check_ranks_agree() {
        fail(&e);
    }

    // 2. Malformed requests got typed rejections; everything else ran.
    for out in report.outcomes() {
        match out.response() {
            Some(r) if r.id >= 900 => fail(&format!("malformed request {} completed", r.id)),
            None if out.rejection().is_none() => fail("outcome neither completed nor rejected"),
            _ => {}
        }
    }
    let rejections: Vec<_> = report
        .outcomes()
        .iter()
        .filter_map(|o| o.rejection())
        .collect();
    use zero::serve::ServeError;
    let typed = rejections
        .iter()
        .filter(|e| !matches!(e, ServeError::Overloaded { .. }))
        .count();
    if typed != 2 {
        fail(&format!("expected 2 typed malformed-request rejections, got {typed}"));
    }
    if !rejections.iter().any(|e| matches!(e, ServeError::TokenOutOfVocab { .. })) {
        fail("out-of-vocab request did not get TokenOutOfVocab");
    }
    if !rejections.iter().any(|e| matches!(e, ServeError::PromptTooLong { .. })) {
        fail("over-length request did not get PromptTooLong");
    }

    // 3. Trace and traffic reconcile byte-exactly with the static plan.
    for r in &report.ranks {
        let want = report.expected_gather_bytes(r.rank);
        if r.gather_bytes != want {
            fail(&format!(
                "rank {}: traffic counters say {} all-gather bytes, plan says {want}",
                r.rank, r.gather_bytes
            ));
        }
        let traced = r
            .timeline
            .bytes_named(SpanCategory::Collective, CollectiveKind::AllGather.name());
        if traced != want {
            fail(&format!(
                "rank {}: trace byte tags say {traced} all-gather bytes, plan says {want}",
                r.rank
            ));
        }
    }

    // 4. Bitwise agreement with the single-process incremental decoder.
    for (req, out) in requests.iter().zip(report.outcomes()) {
        if let Some(resp) = out.response() {
            let want = reference_greedy(&model, &params, req);
            if resp.tokens != want {
                fail(&format!("request {}: served tokens diverge from reference", req.id));
            }
        }
    }

    // 5. The §5.3 memory claim: per-rank parameter bytes ≤ 4Ψ·(2/N + ε).
    let bound = CommPlan::serve_param_bound(params.len(), n);
    for r in &report.ranks {
        if r.param_bytes_peak > bound {
            fail(&format!(
                "rank {}: {} param bytes exceeds the 2Ψ/N+ε bound {}",
                r.rank, r.param_bytes_peak, bound
            ));
        }
    }

    // 6. A plan sanity cross-check: one gather per unit, nothing else.
    let plan = CommPlan::serve_step(Gpt::new(model).layout(), n, cfg.overlap);
    if plan.ops().len() != model.layers + 2 {
        fail("serve plan does not gather each unit exactly once");
    }

    // 7. KV-geometry equivalence. The block size and prefix reuse are
    // pure memory-layout and compute-saving choices: a request is in
    // service for exactly `max_new_tokens` steps whatever rows reuse
    // skipped, so the whole schedule — tokens, completion steps, step
    // count, rejections — must reproduce bit for bit.
    for prefix_reuse in [false, true] {
        let other_cfg = ServeConfig {
            kv: KvBackend::Paged { block: kv_block.max(8), prefix_reuse },
            ..cfg
        };
        let other = serve(&model, &shards, &requests, &other_cfg);
        if let Err(e) = other.check_ranks_agree() {
            fail(&e);
        }
        if other.ranks[0].batch_steps != report.ranks[0].batch_steps {
            fail(&format!("the KV geometry (reuse {prefix_reuse}) changed the step count"));
        }
        for (a, b) in report.outcomes().iter().zip(other.outcomes()) {
            match (a.response(), b.response()) {
                (Some(ra), Some(rb)) => {
                    if ra.tokens != rb.tokens || ra.completion_step != rb.completion_step {
                        fail(&format!(
                            "request {}: the KV geometry (reuse {prefix_reuse}) changed the outcome",
                            ra.id
                        ));
                    }
                }
                (None, None) => {
                    if a.rejection() != b.rejection() {
                        fail("the KV geometry changed a rejection reason");
                    }
                }
                _ => fail("the KV geometry changed an outcome's terminal state"),
            }
        }
    }

    println!(
        "smoke OK: rejection typing, plan/trace/traffic reconciliation, bitwise outputs, \
         memory bound, KV-geometry equivalence"
    );
}
