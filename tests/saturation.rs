//! Serving under load: open-loop arrival schedules must drive the engine
//! into queueing and saturation while preserving every determinism
//! guarantee — FIFO fairness, identical shedding on every rank, bitwise
//! token equality across KV geometries, and honest latency accounting.

use std::collections::VecDeque;
use std::time::Instant;

use zero::core::Partitioner;
use zero::model::{init_full_params, ModelConfig};
use zero::serve::{
    generate, predicted_queue_delay, serve, Arrivals, KvBackend, LoadConfig, ServeConfig,
    ServeError, ServeRequest, ServeReport,
};

fn model() -> ModelConfig {
    ModelConfig { vocab: 24, seq: 16, hidden: 16, layers: 2, heads: 2 }
}

fn shard(params: &[f32], n: usize) -> Vec<Vec<f32>> {
    let part = Partitioner::new(params.len(), n);
    (0..n).map(|r| params[part.shard_range(r)].to_vec()).collect()
}

fn load(arrivals: Arrivals, seed: u64) -> LoadConfig {
    LoadConfig {
        n_requests: 24,
        arrivals,
        prompt_len: (3, 8),
        max_new: (2, 6),
        vocab: model().vocab,
        seed,
        shared_prefixes: 2,
        prefix_len: 5,
    }
}

fn run(arrivals: Arrivals, seed: u64, ranks: usize, cfg: &ServeConfig) -> ServeReport {
    let m = model();
    let params = init_full_params(&m, 31);
    let reqs = generate(&load(arrivals, seed));
    let report = serve(&m, &shard(&params, ranks), &reqs, cfg);
    report.check_ranks_agree().expect("SPMD lockstep under load");
    report
}

/// Admission is FIFO: across the whole run, requests enter service in
/// arrival order (ids are assigned in arrival order by the generator),
/// and a saturating Poisson schedule actually makes them queue.
#[test]
fn fifo_fairness_under_saturating_poisson() {
    let cfg = ServeConfig { slots: 2, ..ServeConfig::default() };
    let report = run(Arrivals::Poisson { rate: 1.0 }, 11, 2, &cfg);
    let responses: Vec<_> =
        report.outcomes().iter().filter_map(|o| o.response()).collect();
    assert_eq!(responses.len(), 24, "no SLO configured: nothing sheds");
    // Outcomes are in submission order == id order; admission steps must
    // be nondecreasing along it, or someone jumped the queue.
    for w in responses.windows(2) {
        assert!(
            w[0].admitted_step <= w[1].admitted_step,
            "request {} admitted at {} but earlier-arriving {} at {}",
            w[1].id,
            w[1].admitted_step,
            w[0].id,
            w[0].admitted_step
        );
        assert!(w[0].arrival_step <= w[1].arrival_step, "generator emits in arrival order");
    }
    // λ=1 against 2 slots of multi-step service is over capacity: the
    // queue must actually form.
    assert!(
        responses.iter().any(|r| r.queue_steps > 0),
        "saturating schedule never queued — the test lost its teeth"
    );
}

/// With an SLO armed, overload sheds deterministically: the same
/// requests are shed with the same predicted delays on every rank, on
/// every rerun, and at every world size (world size is not a scheduling
/// input).
#[test]
fn shedding_is_deterministic_across_ranks_runs_and_world_sizes() {
    let cfg = ServeConfig { slots: 2, slo_steps: Some(20), ..ServeConfig::default() };
    let arrivals = Arrivals::Burst { size: 8, period: 10 };
    let shed_ids = |report: &ServeReport| -> Vec<(u64, ServeError)> {
        report
            .outcomes()
            .iter()
            .filter_map(|o| match o {
                zero::serve::ServeOutcome::Rejected { id, error } => Some((*id, *error)),
                _ => None,
            })
            .collect()
    };
    let first = run(arrivals, 5, 2, &cfg);
    let shed = shed_ids(&first);
    assert!(!shed.is_empty(), "an 8-wide burst into 2 slots must overflow a 20-step SLO");
    for (_, e) in &shed {
        match e {
            ServeError::Overloaded { predicted_delay_steps, slo_steps } => {
                assert!(predicted_delay_steps > slo_steps, "shed only past the SLO");
                assert_eq!(*slo_steps, 20);
            }
            other => panic!("well-formed request rejected with {other:?}"),
        }
    }
    // Same schedule, fresh run: identical shed set, delays included.
    assert_eq!(shed_ids(&run(arrivals, 5, 2, &cfg)), shed, "rerun diverged");
    // Different world size: still identical (sharding is not scheduling).
    assert_eq!(shed_ids(&run(arrivals, 5, 3, &cfg)), shed, "world size changed shedding");
    // Different seed: a different schedule (the gate is live, not vacuous).
    assert_ne!(shed_ids(&run(arrivals, 6, 2, &cfg)), shed);
}

/// The KV geometry is a memory choice, not a model change and not a
/// schedule change: identical greedy tokens, step count and per-request
/// completion steps at every block size, prefix reuse on or off — reuse
/// saves rows of compute and KV bytes inside a step, never a step.
#[test]
fn every_kv_geometry_is_bitwise_identical_under_load() {
    let arrivals = Arrivals::Poisson { rate: 0.5 };
    let at = |kv: KvBackend| {
        run(arrivals, 3, 2, &ServeConfig { slots: 3, kv, ..ServeConfig::default() })
    };
    let slab = at(KvBackend::Slab);
    let slab0 = &slab.ranks[0];
    assert!(slab0.kv_meters.bytes_live_peak <= slab0.kv_arena_bytes);
    for (block, reuse) in [(4, false), (7, false), (16, false), (4, true), (16, true)] {
        let paged = at(KvBackend::Paged { block, prefix_reuse: reuse });
        assert_eq!(
            paged.ranks[0].batch_steps, slab0.batch_steps,
            "block={block} reuse={reuse}: the schedule must be identical"
        );
        if !reuse && block == model().seq {
            // `Slab` *is* this row: same arena, same meters.
            assert_eq!(paged.ranks[0].kv_arena_bytes, slab0.kv_arena_bytes);
            assert_eq!(paged.ranks[0].kv_meters, slab0.kv_meters);
        }
        let mut reused = 0;
        for (a, b) in slab.outcomes().iter().zip(paged.outcomes()) {
            let (ra, rb) = (a.response().unwrap(), b.response().unwrap());
            assert_eq!(ra.tokens, rb.tokens, "block={block} reuse={reuse}: tokens diverge");
            assert_eq!(
                (ra.admitted_step, ra.completion_step),
                (rb.admitted_step, rb.completion_step),
                "block={block} reuse={reuse}: schedule diverges"
            );
            assert_eq!(rb.prefill_rows + rb.prefix_reused_rows, ra.prefill_rows);
            reused += rb.prefix_reused_rows;
        }
        assert_eq!(reused > 0, reuse, "block={block}: reuse shows up as rows, not steps");
    }
}

/// The FIFO schedule replayed without a model: a request occupies a slot
/// for exactly `max_new_tokens` steps from admission, whatever its prompt
/// and whatever the KV geometry. Returns the executed step count and, per
/// request, its queue delay (`None` = shed by the SLO gate).
fn replay(reqs: &[ServeRequest], slots: usize, slo: Option<u64>) -> (u64, Vec<Option<u64>>) {
    let (mut clock, mut steps, mut next) = (0u64, 0u64, 0usize);
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut busy: Vec<u64> = Vec::new(); // completion step of each occupied slot
    let mut queue_steps = vec![None; reqs.len()];
    loop {
        // The generator emits requests in arrival order.
        while next < reqs.len() && reqs[next].arrival_step <= clock {
            let queued: Vec<u64> = queue.iter().map(|&q| reqs[q].max_new_tokens as u64).collect();
            let delay = predicted_queue_delay(clock, slots - busy.len(), &busy, &queued);
            if slo.is_none_or(|slo| delay <= slo) {
                queue.push_back(next);
            }
            next += 1;
        }
        while busy.len() < slots {
            let Some(ri) = queue.pop_front() else { break };
            queue_steps[ri] = Some(clock - reqs[ri].arrival_step);
            busy.push(clock + reqs[ri].max_new_tokens as u64);
        }
        if busy.is_empty() {
            match reqs.get(next) {
                Some(r) => clock = r.arrival_step,
                None => return (steps, queue_steps),
            }
            continue;
        }
        clock += 1;
        steps += 1;
        busy.retain(|&done| done > clock);
    }
}

/// The engine's schedule is that replay, exactly: step count, every
/// admitted request's queue delay and the shed set — below saturation,
/// saturated, and shedding, at the slab geometry and with prefix reuse
/// skipping prompt rows.
#[test]
fn the_engine_follows_the_max_new_tokens_schedule_exactly() {
    for (arrivals, slo_steps) in [
        (Arrivals::Poisson { rate: 0.5 }, None),
        (Arrivals::Poisson { rate: 1.0 }, None),
        (Arrivals::Burst { size: 8, period: 10 }, Some(6)),
    ] {
        let reqs = generate(&load(arrivals, 5));
        let (steps, queue_steps) = replay(&reqs, 2, slo_steps);
        assert_eq!(queue_steps.iter().any(|q| q.is_none()), slo_steps.is_some(), "{arrivals:?}");
        for kv in [KvBackend::Slab, KvBackend::Paged { block: 4, prefix_reuse: true }] {
            let cfg = ServeConfig { slots: 2, kv, slo_steps, ..ServeConfig::default() };
            let report = run(arrivals, 5, 2, &cfg);
            assert_eq!(report.ranks[0].batch_steps, steps, "{arrivals:?} {kv:?}");
            let got: Vec<Option<u64>> =
                report.outcomes().iter().map(|o| o.response().map(|r| r.queue_steps)).collect();
            assert_eq!(got, queue_steps, "{arrivals:?} {kv:?}");
        }
    }
}

/// Prefix reuse must *pay*: identical tokens with strictly fewer KV
/// bytes allocated than paged-without-reuse, and a nonzero hit count —
/// the workload has shared prefixes by construction.
#[test]
fn prefix_reuse_allocates_strictly_fewer_kv_bytes() {
    let arrivals = Arrivals::Poisson { rate: 0.5 };
    let paged = |reuse: bool| {
        run(
            arrivals,
            9,
            2,
            &ServeConfig {
                slots: 3,
                kv: KvBackend::Paged { block: 4, prefix_reuse: reuse },
                ..ServeConfig::default()
            },
        )
    };
    let without = paged(false);
    let with = paged(true);
    for (a, b) in without.outcomes().iter().zip(with.outcomes()) {
        assert_eq!(
            a.response().unwrap().tokens,
            b.response().unwrap().tokens,
            "reuse changed tokens"
        );
    }
    let (mw, mr) = (without.ranks[0].kv_meters, with.ranks[0].kv_meters);
    assert!(mr.prefix_hit_rows > 0, "shared-prefix workload must hit the cache");
    assert!(
        mr.bytes_allocated < mw.bytes_allocated,
        "reuse must allocate strictly fewer KV bytes ({} vs {})",
        mr.bytes_allocated,
        mw.bytes_allocated
    );
    // And the reused rows show up in the per-request accounting.
    let reused: u64 =
        with.outcomes().iter().filter_map(|o| o.response()).map(|r| r.prefix_reused_rows).sum();
    assert!(reused > 0);
}

/// Latency is measured from each request's *enqueue*, not from world
/// start: a late-arriving request's wall-clock latency covers its own
/// service, not the entire history before it. (Before the fix,
/// `latency_ns` was `t0.elapsed()` from world start, so a request
/// arriving after a long-running one reported nearly the whole run as
/// its own latency.)
#[test]
fn latency_epoch_is_the_request_arrival_not_world_start() {
    let m = model();
    let params = init_full_params(&m, 41);
    // Request 0 is long (12 service steps); request 1 arrives much later
    // in step time and is short (2 service steps). With the world-start
    // epoch, request 1's latency ≈ the whole wall time; with the arrival
    // epoch it is a small fraction.
    let requests = vec![
        ServeRequest::new(0, vec![1, 2, 3], 12),
        ServeRequest::new(1, vec![4, 5], 2).at_step(1000),
    ];
    let t0 = Instant::now();
    let report = serve(&m, &shard(&params, 2), &requests, &ServeConfig::default());
    let wall_ns = t0.elapsed().as_nanos() as u64;
    report.check_ranks_agree().unwrap();
    let r1 = report.outcomes()[1].response().unwrap();
    assert_eq!(report.ranks[0].batch_steps, 14, "12 + 2 executed steps, idle gap skipped");
    assert!(
        r1.latency_ns < wall_ns / 2,
        "short late request reports {} ns of {} ns total wall — \
         latency epoch is leaking world start",
        r1.latency_ns,
        wall_ns
    );
    // Step-indexed latency tells the same story deterministically.
    assert_eq!(r1.latency_steps, 2);
    assert_eq!(r1.queue_steps, 0);
}
