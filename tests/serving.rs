//! End-to-end serving conformance: the shard-hosted batched engine must
//! be an *exact* implementation detail — bitwise identical to the
//! single-process decoder — while honoring the stage-3 memory bound,
//! rejecting malformed requests with typed errors on every rank, and
//! reconciling its gather traffic byte-exactly against the static plan.

use zero::comm::CollectiveKind;
use zero::core::{export_inference_shards, CommPlan, Partitioner, RankSnapshot};
use zero::model::{
    argmax, init_full_params, GenerateError, Generator, Gpt, IncrementalDecoder, ModelConfig,
};
use zero::serve::{reference_greedy, serve, ServeConfig, ServeError, ServeRequest};
use zero::trace::SpanCategory;

fn shard(params: &[f32], n: usize) -> Vec<Vec<f32>> {
    let part = Partitioner::new(params.len(), n);
    (0..n).map(|r| params[part.shard_range(r)].to_vec()).collect()
}

fn requests(n_req: usize, max_new: usize, vocab: usize) -> Vec<ServeRequest> {
    (0..n_req)
        .map(|i| {
            ServeRequest::new(
                i as u64,
                (0..2 + i % 3).map(|j| ((i * 13 + j * 7 + 2) % vocab) as u32).collect(),
                max_new,
            )
        })
        .collect()
}

/// The full-context `Generator` and the KV-cached `IncrementalDecoder`
/// must agree at every position, across several model shapes — the
/// incremental path is an optimization, not an approximation.
#[test]
fn prefill_and_incremental_paths_agree_across_configs() {
    let configs = [
        ModelConfig { vocab: 24, seq: 10, hidden: 16, layers: 1, heads: 2 },
        ModelConfig { vocab: 32, seq: 8, hidden: 24, layers: 2, heads: 3 },
        ModelConfig { vocab: 48, seq: 12, hidden: 32, layers: 3, heads: 4 },
    ];
    for (ci, cfg) in configs.into_iter().enumerate() {
        let gpt = Gpt::new(cfg);
        let params = init_full_params(&cfg, 100 + ci as u64);
        let generator = Generator::new(&gpt, &params);
        let mut dec = IncrementalDecoder::new(&gpt, &params);
        let tokens: Vec<u32> = (0..cfg.seq).map(|i| ((i * 5 + 3) % cfg.vocab) as u32).collect();
        for pos in 0..cfg.seq {
            let inc = dec.feed(tokens[pos]).expect("in-vocab feed");
            // Left-pad with repeats of the first token, exactly as the
            // full-context path defines a short prompt.
            let mut ctx = vec![tokens[0]; cfg.seq - (pos + 1)];
            ctx.extend_from_slice(&tokens[..=pos]);
            // The padded prefix differs, so compare through a fresh
            // decoder fed the same padded window instead.
            let mut ref_dec = IncrementalDecoder::new(&gpt, &params);
            let mut last = Vec::new();
            for &t in &ctx {
                last = ref_dec.feed(t).expect("in-vocab feed");
            }
            let full = generator.next_token_logits(&ctx).expect("in-vocab context");
            for (a, b) in full.iter().zip(&last) {
                assert!(
                    (a - b).abs() <= 1e-4,
                    "config {ci} pos {pos}: prefill and incremental logits diverge ({a} vs {b})"
                );
            }
            // Only at the final position do the padded and unpadded
            // contexts coincide, making the live decoder comparable.
            if pos + 1 == cfg.seq {
                assert_eq!(inc, last, "final-position decoder states must be bitwise equal");
                assert_eq!(argmax(&full), argmax(&inc));
            }
        }
    }
}

/// Serving from stage-3 training shards produces bitwise-identical
/// greedy tokens to a full-replica single-process decode — the export
/// path loses nothing.
#[test]
fn exported_shards_serve_bitwise_identical_tokens() {
    let model = ModelConfig { vocab: 24, seq: 12, hidden: 16, layers: 2, heads: 2 };
    let params = init_full_params(&model, 9);
    let reqs = requests(5, 4, model.vocab);
    let want: Vec<Vec<u32>> = reqs.iter().map(|r| reference_greedy(&model, &params, r)).collect();

    // A 3-rank "training checkpoint" — every unit split three ways, as
    // training holds it — re-exported onto a 2-rank world.
    let layout = zero::model::Layout::build(&model);
    let train_part = Partitioner::per_unit(&layout, 3);
    let units: Vec<u64> = layout.units().iter().map(|u| u.range.len() as u64).collect();
    let snaps: Vec<RankSnapshot> = (0..3)
        .map(|r| RankSnapshot {
            rank: r as u32,
            world: 3,
            step: 7,
            units: units.clone(),
            owners: 3,
            owner: r as u32,
            master: train_part.flat_ranges(r, 0..train_part.shard_range(r).len()).iter().flat_map(|x| params[x.clone()].to_vec()).collect(),
            opt_m: Vec::new(),
            opt_v: Vec::new(),
            opt_t: 7,
            scaler: None,
        })
        .collect();
    let shards = export_inference_shards(&snaps, 2).expect("export tiles the master");
    assert_eq!(shards, shard(&params, 2), "serving shards are contiguous flat ranges");
    let report = serve(&model, &shards, &reqs, &ServeConfig::default());
    report.check_ranks_agree().expect("SPMD lockstep");
    for (out, want) in report.outcomes().iter().zip(&want) {
        assert_eq!(&out.response().expect("admitted").tokens, want);
    }
}

/// Malformed requests come back as typed errors on every rank; the
/// well-formed requests in the same batch still complete. No panics.
#[test]
fn malformed_requests_get_typed_errors_end_to_end() {
    let model = ModelConfig { vocab: 24, seq: 12, hidden: 16, layers: 2, heads: 2 };
    let params = init_full_params(&model, 5);
    let mut reqs = requests(3, 3, model.vocab);
    reqs.push(ServeRequest::new(90, vec![99], 2));
    reqs.push(ServeRequest::new(91, vec![], 2));
    reqs.push(ServeRequest::new(92, vec![1; 12], 12)); // 12 + 12 − 1 > seq
    reqs.push(ServeRequest::new(93, vec![1], 0));

    for n in [1, 2, 3] {
        let report = serve(&model, &shard(&params, n), &reqs, &ServeConfig::default());
        report.check_ranks_agree().expect("SPMD lockstep");
        for rank in &report.ranks {
            let rej: Vec<_> = rank.outcomes.iter().filter_map(|o| o.rejection()).collect();
            assert_eq!(rej.len(), 4, "N={n}: all four malformed requests rejected");
            assert!(matches!(rej[0], ServeError::TokenOutOfVocab { token: 99, vocab: 24 }));
            assert!(matches!(rej[1], ServeError::EmptyPrompt));
            assert!(matches!(rej[2], ServeError::PromptTooLong { .. }));
            assert!(matches!(rej[3], ServeError::NoTokensRequested));
            let done = rank.outcomes.iter().filter(|o| o.response().is_some()).count();
            assert_eq!(done, 3, "N={n}: well-formed requests still complete");
        }
    }

    // And the decoder itself yields typed errors, not panics, for the
    // same failure classes.
    let gpt = Gpt::new(model);
    let mut dec = IncrementalDecoder::new(&gpt, &params);
    assert_eq!(
        dec.feed(99),
        Err(GenerateError::TokenOutOfVocab { token: 99, vocab: 24 })
    );
    for _ in 0..model.seq {
        dec.feed(1).expect("in-window feed");
    }
    assert_eq!(dec.feed(1), Err(GenerateError::ContextExhausted { seq: 12 }));
}

/// Gather traffic reconciles byte-exactly three ways: traffic counters,
/// trace byte tags, and the static `serve_step` plan.
#[test]
fn serving_traffic_matches_plan_and_trace_byte_exactly() {
    let model = ModelConfig { vocab: 24, seq: 12, hidden: 16, layers: 2, heads: 2 };
    let params = init_full_params(&model, 11);
    let reqs = requests(4, 3, model.vocab);
    for overlap in [false, true] {
        let cfg = ServeConfig { slots: 2, overlap, ..ServeConfig::default() };
        let report = serve(&model, &shard(&params, 3), &reqs, &cfg);
        for rank in &report.ranks {
            let want = report.expected_gather_bytes(rank.rank);
            assert_eq!(rank.gather_bytes, want, "overlap={overlap}: traffic vs plan");
            let traced = rank
                .timeline
                .bytes_named(SpanCategory::Collective, CollectiveKind::AllGather.name());
            assert_eq!(traced, want, "overlap={overlap}: trace vs plan");
        }
    }
}

/// Per-rank parameter memory stays within 4Ψ·(2/N + ε) for N ∈ {2, 4}:
/// the persistent shard is Ψ/N and the transient gather window is a
/// bounded double-buffer, not a full replica.
#[test]
fn per_rank_parameter_memory_is_bounded() {
    // Deep enough that one unit is a small fraction of Ψ.
    let model = ModelConfig { vocab: 32, seq: 16, hidden: 32, layers: 8, heads: 4 };
    let params = init_full_params(&model, 3);
    let reqs = requests(3, 2, model.vocab);
    for n in [2usize, 4] {
        let report = serve(&model, &shard(&params, n), &reqs, &ServeConfig::default());
        let bound = CommPlan::serve_param_bound(params.len(), n);
        for rank in &report.ranks {
            assert_eq!(rank.shard_elems, Partitioner::new(params.len(), n).shard_range(rank.rank).len());
            assert!(
                rank.param_bytes_peak <= bound,
                "N={n} rank {}: {} B exceeds 4Ψ(2/N+ε) = {bound} B",
                rank.rank,
                rank.param_bytes_peak
            );
        }
    }
}

/// The serve plan gathers each layout unit exactly once per batch step
/// and schedules nothing else.
#[test]
fn serve_plan_gathers_each_unit_once() {
    let model = ModelConfig { vocab: 24, seq: 12, hidden: 16, layers: 2, heads: 2 };
    let layout_units = Gpt::new(model).layout().units().len();
    for n in [1usize, 2, 5] {
        let plan = CommPlan::serve_step(Gpt::new(model).layout(), n, true);
        assert_eq!(plan.ops().len(), layout_units);
        for rank in 0..n {
            let by_kind = plan.rank_bytes(rank);
            assert_eq!(
                by_kind[CollectiveKind::AllGather as usize],
                plan.total_rank_bytes(rank),
                "serving moves bytes only through all-gather"
            );
        }
    }
}
