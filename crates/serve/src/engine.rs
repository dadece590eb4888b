//! The per-rank serving engine: layer-streaming gathers + continuous
//! batching over a pooled KV arena, driven by an open-loop arrival
//! schedule in batch-step time.
//!
//! Every rank runs [`run_rank`] over the *same* request list — the batch
//! is replicated, the parameters are sharded. The scheduler keeps a
//! virtual clock in **batch steps**: requests become visible when the
//! clock reaches their `arrival_step`, are SLO-checked and queued (or
//! shed) at delivery, admitted FIFO into free KV slots, and then each
//! executed batch step collects one **ragged row batch** — every prompt
//! position a newly admitted request has not yet cached, one row for each
//! decoding request — and walks the unit list once (gathering each unit
//! from the shards, one unit prefetched ahead), applying each gathered
//! unit to the whole batch. Every live request emits exactly one token
//! per step, its first in the step that admitted it, so a request costs
//! `max_new_tokens` full-model gathers whatever its prompt length. When
//! nothing is live the clock fast-forwards to the next arrival without
//! executing steps, so `batch_steps` counts only steps that actually
//! gathered parameters and the traffic reconciliation
//! (`batch_steps × plan.rank_bytes`) stays exact. Every scheduling
//! decision is a pure function of (request list, config), which is what
//! keeps N ranks in lockstep with zero coordination traffic beyond the
//! parameter gathers themselves.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::time::Instant;

use zero_comm::{launch, CollectiveKind, Communicator, Group, PendingOp};
use zero_core::{CommPlan, OpRole, Partitioner, ResolvedOp};
use zero_model::{argmax, block_rows_kv, embed_rows, head_rows, Gpt, ModelConfig, RowBatch};
use zero_trace::{SpanCategory, SpanId, StepTimeline};

use crate::paged::{KvBackend, KvMeters, KvPool, PoolActivity};
use crate::request::{admit, ServeError, ServeOutcome, ServeRequest, ServeResponse};

/// Per-request spans live on their slot's own track so concurrent
/// requests' prefill/decode spans stay well-nested per track. Tracks 0/1
/// are the rank and progress tracks.
const TRACK_REQ_BASE: u32 = 8;

/// Serving knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Concurrent-request slots — the maximum simultaneously decoding
    /// requests. `slots = 1` degenerates to serial one-request-at-a-time
    /// serving through the identical code path (the bench baseline).
    pub slots: usize,
    /// Double-buffered gather prefetch: issue unit `u+1`'s all-gather
    /// before waiting unit `u`'s (the training engine's stage-3 shape).
    /// Off means each gather is waited as soon as it is issued.
    pub overlap: bool,
    /// KV pool geometry: one `seq`-long block per slot, or smaller
    /// demand-paged blocks with optional prefix reuse. Greedy outputs are
    /// bitwise identical and the schedule step-identical at every geometry
    /// — the decode kernel only ever sees rows, and service time does not
    /// depend on how many of them prefix reuse saved.
    pub kv: KvBackend,
    /// Admission SLO in batch steps: a request whose predicted queue
    /// delay exceeds this is shed with [`ServeError::Overloaded`] at
    /// delivery instead of queueing without bound. `None` never sheds.
    pub slo_steps: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { slots: 4, overlap: true, kv: KvBackend::Slab, slo_steps: None }
    }
}

/// What one serving rank reports back.
#[derive(Clone, Debug)]
pub struct RankServeReport {
    /// The rank.
    pub rank: usize,
    /// Terminal state of every request, in submission order.
    pub outcomes: Vec<ServeOutcome>,
    /// Batch steps executed (each walks every unit once; idle
    /// fast-forwards between distant arrivals are not counted).
    pub batch_steps: u64,
    /// Elements of the persistent parameter shard this rank hosts.
    pub shard_elems: usize,
    /// Bytes of the persistent shard (`4 · shard_elems`).
    pub persistent_param_bytes: u64,
    /// Peak bytes of transiently materialized full units (current unit
    /// plus the in-flight prefetch destination).
    pub transient_param_bytes_peak: u64,
    /// Peak total parameter bytes: persistent + transient peak. The
    /// quantity the paper's 2Ψ/N claim bounds.
    pub param_bytes_peak: u64,
    /// Bytes of the KV backing arena (capacity, not residency).
    pub kv_arena_bytes: u64,
    /// Deterministic KV meters: bytes actually allocated / peak live,
    /// prefix-reuse hit and copy rows, cache evictions. Compared across
    /// ranks by [`ServeReport::check_ranks_agree`].
    pub kv_meters: KvMeters,
    /// All-gather bytes this rank actually sent (traffic counters).
    pub gather_bytes: u64,
    /// The rank's span timeline (request spans, gather waits, collective
    /// execution with byte tags).
    pub timeline: StepTimeline,
}

/// The whole serving world's result.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-rank reports, rank-indexed.
    pub ranks: Vec<RankServeReport>,
    /// The statically checkable one-step gather plan every batch step
    /// executed (`batch_steps × rank_bytes` reconciles against both the
    /// traffic counters and the trace byte tags).
    pub plan: CommPlan,
}

impl ServeReport {
    /// Rank 0's outcomes (all ranks' agree — see
    /// [`Self::check_ranks_agree`]).
    pub fn outcomes(&self) -> &[ServeOutcome] {
        &self.ranks[0].outcomes
    }

    /// Verifies the SPMD invariant: every rank produced identical
    /// outcomes, step counts, and KV meters. A divergence would mean
    /// ranks fell out of lockstep — returns which rank disagrees. Only
    /// `latency_ns` is wall-clock and legitimately rank-local, so it
    /// alone is excluded from the comparison; every step-indexed metric
    /// (arrival, admission, completion, queue delay, prefill rows, prefix
    /// reuse) must agree bit for bit.
    pub fn check_ranks_agree(&self) -> Result<(), String> {
        fn scrubbed(outcomes: &[ServeOutcome]) -> Vec<ServeOutcome> {
            outcomes
                .iter()
                .cloned()
                .map(|o| match o {
                    ServeOutcome::Completed(mut r) => {
                        r.latency_ns = 0;
                        ServeOutcome::Completed(r)
                    }
                    rejected => rejected,
                })
                .collect()
        }
        let first = &self.ranks[0];
        for r in &self.ranks[1..] {
            if scrubbed(&r.outcomes) != scrubbed(&first.outcomes) {
                return Err(format!("rank {} outcomes diverge from rank 0", r.rank));
            }
            if r.batch_steps != first.batch_steps {
                return Err(format!(
                    "rank {} ran {} steps, rank 0 ran {}",
                    r.rank, r.batch_steps, first.batch_steps
                ));
            }
            if r.kv_meters != first.kv_meters {
                return Err(format!(
                    "rank {} KV meters diverge from rank 0: {:?} vs {:?}",
                    r.rank, r.kv_meters, first.kv_meters
                ));
            }
        }
        Ok(())
    }

    /// The analytic all-gather bytes rank `rank` should have sent:
    /// `batch_steps × plan.rank_bytes(rank)[AllGather]`. The smoke and
    /// tests require the traffic counters and trace byte tags to match
    /// this exactly.
    pub fn expected_gather_bytes(&self, rank: usize) -> u64 {
        self.ranks[rank].batch_steps
            * self.plan.rank_bytes(rank)[CollectiveKind::AllGather as usize]
    }
}

/// Predicts how many batch steps a request delivered at step `now` will
/// wait before a KV slot frees up for it — the admission-control oracle.
///
/// The prediction is an exact simulation of the FIFO scheduler over
/// slot-release times: free slots release at `now`, busy slots at their
/// request's completion step, and each already-queued request occupies
/// the earliest-releasing slot for its full service time
/// (`max_new_tokens` steps, exactly, at every KV geometry). The returned
/// delay is therefore the wait the request would actually see, and a pure
/// function of scheduler state, so every rank sheds the same requests.
pub fn predicted_queue_delay(
    now: u64,
    free_slots: usize,
    active_completions: &[u64],
    queued_service_steps: &[u64],
) -> u64 {
    let mut heap: BinaryHeap<Reverse<u64>> =
        active_completions.iter().map(|&c| Reverse(c.max(now))).collect();
    for _ in 0..free_slots {
        heap.push(Reverse(now));
    }
    assert!(!heap.is_empty(), "scheduler has at least one slot");
    for &svc in queued_service_steps {
        let Reverse(release) = heap.pop().expect("non-empty");
        heap.push(Reverse(release + svc));
    }
    let Reverse(release) = heap.pop().expect("non-empty");
    release - now
}

/// Steps of service a request consumes once admitted: one per emitted
/// token. The whole prompt is fed in the step that emits the first, so
/// neither the prompt length nor prefix reuse enters.
fn service_steps(req: &ServeRequest) -> u64 {
    req.max_new_tokens as u64
}

/// A delivered, admitted-to-queue request waiting for a slot.
struct Pending {
    /// Index into the submitted request list.
    ri: usize,
    /// Wall-clock enqueue time — the latency epoch. Latency is measured
    /// from here, not from world start (which inflated every latency by
    /// the request's arrival offset under staggered arrivals).
    enqueued: Instant,
    /// The queue-wait span, closed at admission.
    qspan: SpanId,
}

/// One live (admitted, unfinished) request's decode state.
struct Active {
    /// Index into the submitted request list.
    ri: usize,
    /// KV slot.
    slot: usize,
    /// Positions cached so far (== next decoder position).
    fed: usize,
    /// Positions skipped at admission via prefix reuse (`fed` started
    /// here instead of 0).
    fed0: usize,
    /// Tokens emitted so far.
    produced: Vec<u32>,
    /// The current step's prefill/decode span.
    span: SpanId,
    /// Step at which the request was admitted.
    admitted_at: u64,
    /// Step at which the request will retire
    /// (`admitted_at + max_new_tokens`).
    completes_at: u64,
    /// Wall-clock enqueue time, inherited from [`Pending`].
    enqueued: Instant,
}

/// Runs the serving schedule on one rank. `shard` is this rank's slice of
/// the balanced [`Partitioner`] layout over the flat parameter space.
///
/// Requests may carry arbitrary `arrival_step`s; delivery order is
/// `(arrival_step, submission index)`, stable and identical on all ranks.
///
/// # Panics
/// Panics on communication failure (fault-free serving worlds don't
/// inject any) and on a `shard` that does not match the partition layout.
pub fn run_rank(
    comm: &mut Communicator,
    model: &ModelConfig,
    shard: &[f32],
    requests: &[ServeRequest],
    cfg: &ServeConfig,
) -> RankServeReport {
    assert!(cfg.slots > 0, "need at least one KV slot");
    let n = comm.world_size();
    let rank = comm.rank();
    let gpt = Gpt::new(*model);
    let part = Partitioner::new(gpt.num_params(), n);
    assert_eq!(shard.len(), part.shard_range(rank).len(), "shard does not match the partition layout");

    // The per-step schedule, resolved once: one all-gather per unit, each
    // seeded by this rank's slice of the unit it names.
    let plan = CommPlan::serve_step(gpt.layout(), n, cfg.overlap);
    let ops: Vec<ResolvedOp> = plan.resolve_for(rank);
    let groups: Vec<Group> = ops.iter().map(ResolvedOp::group).collect();
    let fetches: Vec<(usize, &[f32])> = ops
        .iter()
        .map(|op| match op.role {
            OpRole::Fetch { unit, .. } => (unit, &shard[part.local_slice_of(rank, &gpt.layout().units()[unit].range)]),
            ref other => panic!("serve-plan drift: a serving step only fetches, plan has {other:?}"),
        })
        .collect();

    let trace = comm.trace();
    let trace_pool = |act: PoolActivity| {
        for _ in 0..act.allocs {
            trace.instant(SpanCategory::Compute, "kv-block-alloc");
        }
        for _ in 0..act.evictions {
            trace.instant(SpanCategory::Compute, "kv-block-evict");
        }
    };

    // The open-loop delivery queue: request indices in
    // (arrival_step, submission index) order.
    let mut arrivals: VecDeque<usize> = {
        let mut idx: Vec<usize> = (0..requests.len()).collect();
        idx.sort_by_key(|&ri| requests[ri].arrival_step);
        idx.into_iter().collect()
    };

    let mut outcomes: Vec<Option<ServeOutcome>> = vec![None; requests.len()];
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut pool = KvPool::new(model, cfg.slots, cfg.kv);
    let mut active: Vec<Active> = Vec::new();
    // The step's row batch and, per live request, its last row's index.
    // `admit` bounds a request to `seq` positions, so this never fills.
    let mut batch = RowBatch::new(model, cfg.slots * model.seq);
    let mut last_rows: Vec<usize> = Vec::with_capacity(cfg.slots);
    let mut clock = 0u64; // batch-step time (includes idle fast-forwards)
    let mut steps = 0u64; // executed batch steps only
    let mut transient_peak = 0u64;
    let mut spare: Vec<Vec<f32>> = Vec::new();

    loop {
        // Deliver every request whose arrival step the clock has reached.
        // Malformed requests are rejected without consuming anything;
        // well-formed ones face the SLO gate: predicted queue delay above
        // the SLO sheds the request *now*, deterministically, instead of
        // letting the queue grow without bound.
        while let Some(&ri) = arrivals.front() {
            let req = &requests[ri];
            if req.arrival_step > clock {
                break;
            }
            arrivals.pop_front();
            match admit(req, model) {
                Err(error) => {
                    trace.instant(SpanCategory::Compute, "request-rejected");
                    outcomes[ri] = Some(ServeOutcome::Rejected { id: req.id, error });
                }
                Ok(()) => {
                    if let Some(slo) = cfg.slo_steps {
                        let completions: Vec<u64> =
                            active.iter().map(|a| a.completes_at).collect();
                        let queued: Vec<u64> = pending
                            .iter()
                            .map(|p| service_steps(&requests[p.ri]))
                            .collect();
                        let free = cfg.slots - active.len();
                        let delay = predicted_queue_delay(clock, free, &completions, &queued);
                        if delay > slo {
                            trace.instant(SpanCategory::Compute, "request-shed");
                            outcomes[ri] = Some(ServeOutcome::Rejected {
                                id: req.id,
                                error: ServeError::Overloaded {
                                    predicted_delay_steps: delay,
                                    slo_steps: slo,
                                },
                            });
                            continue;
                        }
                    }
                    let qspan = trace.begin(SpanCategory::Wait, "queue-wait");
                    pending.push_back(Pending { ri, enqueued: Instant::now(), qspan });
                }
            }
        }

        // Admit as many queued requests as there are free slots. This is
        // a pure function of (queue, pool) state, identical on all ranks.
        while !pending.is_empty() {
            let Some(slot) = pool.alloc_slot() else { break };
            let p = pending.pop_front().expect("checked non-empty");
            trace.end(p.qspan);
            let req = &requests[p.ri];
            let (att, act) = pool.attach_prompt(slot, &req.prompt);
            trace_pool(act);
            active.push(Active {
                ri: p.ri,
                slot,
                fed: att.matched,
                fed0: att.matched,
                produced: Vec::with_capacity(req.max_new_tokens),
                span: SpanId::NULL,
                admitted_at: clock,
                completes_at: clock + service_steps(req),
                enqueued: p.enqueued,
            });
        }

        // Nothing live: fast-forward the clock to the next arrival (no
        // steps execute, no parameters gather) or finish. `pending` can
        // only be non-empty when every slot is busy, so an empty `active`
        // here implies an empty queue.
        if active.is_empty() {
            debug_assert!(pending.is_empty());
            match arrivals.front() {
                Some(&ri) => {
                    clock = requests[ri].arrival_step;
                    continue;
                }
                None => break,
            }
        }

        // The step's rows: every prompt position a newly admitted request
        // still has to cache, or the one token a decoding request emitted
        // last step — demand-paging the KV block under each position
        // before the unit walk touches it.
        let step_span = trace.begin(SpanCategory::Compute, "serve-step");
        batch.clear();
        last_rows.clear();
        for a in active.iter_mut() {
            let prefilling = a.produced.is_empty();
            a.span = trace.begin_on(
                TRACK_REQ_BASE + a.slot as u32,
                SpanCategory::Compute,
                if prefilling { "prefill" } else { "decode-token" },
            );
            let pending = match a.produced.last() {
                None => &requests[a.ri].prompt[a.fed..],
                Some(last) => std::slice::from_ref(last),
            };
            for &token in pending {
                trace_pool(pool.ensure(a.slot, a.fed));
                batch.push(a.slot, a.fed, token);
                a.fed += 1;
            }
            last_rows.push(batch.rows().len() - 1);
        }

        // One batch step: walk the units, applying each to the whole row
        // batch. A gather has one issue site and one wait site; the
        // plan's `ahead` flag decides whether the next gather is issued
        // before this one is waited (the double buffer: at most two units
        // materialized at once) or each is waited as it is issued. The
        // gather buffers cycle across units and steps: each is seeded with
        // this rank's piece, gathered into in place, read, and handed back.
        // A unit takes a spare of exactly its length, so after the first
        // step the pool holds one per unit size in flight and no warm step
        // grows (zero-fills) a buffer.
        let n_units = gpt.layout().units().len();
        let mut issue = |k: usize, spare: &mut Vec<Vec<f32>>| -> (usize, PendingOp, u64) {
            let (op, (unit, piece)) = (&ops[k], fetches[k]);
            let fits = spare.iter().position(|b| b.len() == op.total_elems());
            let mut buf = fits.map_or_else(|| vec![0.0; op.total_elems()], |i| spare.swap_remove(i));
            buf[op.own_piece(rank)].copy_from_slice(piece);
            let pend = comm.start_all_gather(&groups[k], buf, &op.counts, op.prec, op.wire);
            (unit, pend, 4 * op.total_elems() as u64)
        };
        let mut ahead: Option<(usize, PendingOp, u64)> = None;
        for u in 0..n_units {
            let (unit, pend, cur_bytes) = match ahead.take() {
                Some(issued) => issued,
                None => issue(u, &mut spare),
            };
            assert_eq!(unit, u, "serve-plan drift: the plan fetched a unit the engine is not at");
            if matches!(ops.get(u + 1).map(|op| &op.role), Some(OpRole::Fetch { ahead: true, .. })) {
                ahead = Some(issue(u + 1, &mut spare));
            }
            let wspan = trace.begin(SpanCategory::Wait, "gather-wait");
            let cur = pend.wait().expect("serving gather failed");
            trace.end(wspan);
            let in_flight = ahead.as_ref().map_or(0, |(_, _, b)| *b);
            transient_peak = transient_peak.max(cur_bytes + in_flight);

            // Advance the batch through the unit; the head reads only each
            // request's last row, which yields its next token.
            if unit == 0 {
                embed_rows(&gpt, &cur, &mut batch).expect("validated at admission");
            } else if unit < n_units - 1 {
                block_rows_kv(&gpt, unit - 1, &cur, &mut pool, &mut batch);
            } else {
                let logits = head_rows(&gpt, &cur, &last_rows, &mut batch);
                for (a, row) in active.iter_mut().zip(logits.chunks_exact(model.vocab)) {
                    a.produced.push(argmax(row) as u32);
                    trace.end(a.span);
                }
            }
            spare.push(cur);
        }
        // Every row's K/V is final: record its token (which registers
        // completed blocks for prefix reuse).
        for r in batch.rows() {
            pool.note_token(r.slot, r.pos, r.token);
        }
        steps += 1;
        clock += 1;
        trace.end(step_span);

        // Retire finished requests, freeing their slots for the next
        // step's admissions.
        let mut i = 0;
        while i < active.len() {
            let done = active[i].produced.len() >= requests[active[i].ri].max_new_tokens;
            if done {
                let a = active.remove(i);
                let req = &requests[a.ri];
                debug_assert_eq!(clock, a.completes_at, "completion prediction is exact");
                pool.release_slot(a.slot);
                outcomes[a.ri] = Some(ServeOutcome::Completed(ServeResponse {
                    id: req.id,
                    tokens: a.produced,
                    arrival_step: req.arrival_step,
                    admitted_step: a.admitted_at,
                    completion_step: clock,
                    latency_steps: clock - req.arrival_step,
                    queue_steps: a.admitted_at - req.arrival_step,
                    prefill_steps: 0,
                    prefill_rows: (req.prompt.len() - a.fed0) as u64,
                    prefix_reused_rows: a.fed0 as u64,
                    decode_steps: req.max_new_tokens as u64,
                    latency_ns: a.enqueued.elapsed().as_nanos() as u64,
                }));
            } else {
                i += 1;
            }
        }
    }

    let persistent = 4 * shard.len() as u64;
    RankServeReport {
        rank,
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every request reaches a terminal state"))
            .collect(),
        batch_steps: steps,
        shard_elems: shard.len(),
        persistent_param_bytes: persistent,
        transient_param_bytes_peak: transient_peak,
        param_bytes_peak: persistent + transient_peak,
        kv_arena_bytes: pool.arena_bytes(),
        kv_meters: pool.meters(),
        gather_bytes: comm.stats().bytes(CollectiveKind::AllGather),
        timeline: trace.timeline(),
    }
}

/// What [`serve`] must return for an admitted `req`, token for token: greedy
/// decoding through the single-process [`zero_model::IncrementalDecoder`]
/// over the full `params` — what every bitwise serving gate compares with.
///
/// # Panics
/// Panics if the request is one [`admit`] would reject.
pub fn reference_greedy(model: &ModelConfig, params: &[f32], req: &ServeRequest) -> Vec<u32> {
    let gpt = Gpt::new(*model);
    let mut dec = zero_model::IncrementalDecoder::new(&gpt, params);
    let mut last = Vec::new();
    for &t in &req.prompt {
        last = dec.feed(t).expect("reference prompt is well-formed");
    }
    let mut out = vec![argmax(&last) as u32];
    while out.len() < req.max_new_tokens {
        last = dec.feed(out[out.len() - 1]).expect("reference decode stays in context");
        out.push(argmax(&last) as u32);
    }
    out
}

/// Serves `requests` on a world of `shards.len()` ranks (one thread per
/// rank, each hosting its shard) and returns every rank's report.
///
/// # Panics
/// Panics if `shards` is empty, a shard does not match the balanced
/// partition of the model's parameter space, or a rank fails.
pub fn serve(
    model: &ModelConfig,
    shards: &[Vec<f32>],
    requests: &[ServeRequest],
    cfg: &ServeConfig,
) -> ServeReport {
    let n = shards.len();
    assert!(n > 0, "need at least one serving rank");
    let gpt = Gpt::new(*model);
    let plan = CommPlan::serve_step(gpt.layout(), n, cfg.overlap);
    let ranks = launch(n, |mut comm| {
        let shard = &shards[comm.rank()];
        run_rank(&mut comm, model, shard, requests, cfg)
    });
    ServeReport { ranks, plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zero_core::export_inference_shards;
    use zero_core::RankSnapshot;
    use zero_model::init_full_params;

    fn model() -> ModelConfig {
        ModelConfig {
            vocab: 24,
            seq: 12,
            hidden: 16,
            layers: 2,
            heads: 2,
        }
    }

    fn shards_of(params: &[f32], n: usize) -> Vec<Vec<f32>> {
        let part = Partitioner::new(params.len(), n);
        (0..n).map(|r| params[part.shard_range(r)].to_vec()).collect()
    }

    #[test]
    fn batched_serving_matches_the_incremental_decoder_bitwise() {
        let m = model();
        let params = init_full_params(&m, 17);
        let requests: Vec<ServeRequest> = (0..5)
            .map(|i| {
                ServeRequest::new(
                    i as u64,
                    vec![(i * 3) as u32 % 24, (i + 1) as u32 % 24],
                    3 + i % 3,
                )
            })
            .collect();
        for n in [1usize, 2, 3] {
            let report = serve(&m, &shards_of(&params, n), &requests, &ServeConfig::default());
            report.check_ranks_agree().unwrap();
            for (req, out) in requests.iter().zip(report.outcomes()) {
                let resp = out.response().expect("all requests well-formed");
                assert_eq!(
                    resp.tokens,
                    reference_greedy(&m, &params, req),
                    "world {n}, request {}",
                    req.id
                );
            }
        }
    }

    #[test]
    fn malformed_requests_are_rejected_without_crashing_any_rank() {
        let m = model();
        let params = init_full_params(&m, 3);
        let requests = vec![
            ServeRequest::new(0, vec![1, 2], 2),
            ServeRequest::new(1, vec![99], 2),     // out-of-vocab
            ServeRequest::new(2, vec![1; 11], 5),  // over-length (11+5−1 > 12)
            ServeRequest::new(3, vec![3], 2),
        ];
        let report = serve(&m, &shards_of(&params, 2), &requests, &ServeConfig::default());
        report.check_ranks_agree().unwrap();
        let o = report.outcomes();
        assert!(o[0].response().is_some());
        assert!(matches!(
            o[1].rejection(),
            Some(crate::ServeError::TokenOutOfVocab { token: 99, .. })
        ));
        assert!(matches!(o[2].rejection(), Some(crate::ServeError::PromptTooLong { .. })));
        assert!(o[3].response().is_some());
    }

    #[test]
    fn traffic_and_trace_reconcile_byte_exactly_with_the_plan() {
        let m = model();
        let params = init_full_params(&m, 5);
        let requests: Vec<ServeRequest> = (0..4)
            .map(|i| ServeRequest::new(i, vec![2, 4, 6], 4))
            .collect();
        for overlap in [false, true] {
            let cfg = ServeConfig { slots: 2, overlap, ..ServeConfig::default() };
            let report = serve(&m, &shards_of(&params, 3), &requests, &cfg);
            for r in &report.ranks {
                let want = report.expected_gather_bytes(r.rank);
                assert_eq!(r.gather_bytes, want, "traffic counters (overlap={overlap})");
                assert_eq!(
                    r.timeline
                        .bytes_named(SpanCategory::Collective, "all-gather"),
                    want,
                    "trace byte tags (overlap={overlap})"
                );
            }
        }
    }

    #[test]
    fn continuous_batching_recycles_slots() {
        let m = model();
        let params = init_full_params(&m, 9);
        // 6 requests through 2 slots: queueing is mandatory.
        let requests: Vec<ServeRequest> =
            (0..6).map(|i| ServeRequest::new(i, vec![1, 2], 2)).collect();
        let cfg = ServeConfig { slots: 2, ..ServeConfig::default() };
        let report = serve(&m, &shards_of(&params, 2), &requests, &cfg);
        report.check_ranks_agree().unwrap();
        let responses: Vec<_> = report.outcomes().iter().filter_map(|o| o.response()).collect();
        assert_eq!(responses.len(), 6);
        // Every request takes max_new = 2 steps of service — both prompt
        // rows are fed by the step that emits the first token — so the
        // three waves of two are admitted at steps 0, 2 and 4.
        assert_eq!(report.ranks[0].batch_steps, 3 * 2);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.queue_steps, 2 * (i as u64 / 2));
            assert_eq!((r.prefill_steps, r.prefill_rows, r.decode_steps), (0, 2, 2));
            assert_eq!(r.completion_step - r.admitted_step, 2);
            assert_eq!(r.latency_steps, r.queue_steps + 2);
        }
    }

    #[test]
    fn open_loop_arrivals_fast_forward_idle_gaps() {
        let m = model();
        let params = init_full_params(&m, 11);
        // Two requests separated by a long idle gap: the clock jumps, the
        // step counter does not.
        let requests = vec![
            ServeRequest::new(0, vec![1, 2], 2).at_step(0),
            ServeRequest::new(1, vec![3, 4], 2).at_step(500),
        ];
        let report = serve(&m, &shards_of(&params, 2), &requests, &ServeConfig::default());
        report.check_ranks_agree().unwrap();
        let r0 = report.outcomes()[0].response().unwrap();
        let r1 = report.outcomes()[1].response().unwrap();
        // Each request runs max_new = 2 service steps; only 2 + 2 = 4
        // steps execute overall.
        assert_eq!(report.ranks[0].batch_steps, 4);
        assert_eq!(r0.completion_step, 2);
        assert_eq!(r1.admitted_step, 500);
        assert_eq!(r1.completion_step, 502);
        assert_eq!(r1.queue_steps, 0);
        // Traffic still reconciles exactly: only executed steps gather.
        for r in &report.ranks {
            assert_eq!(r.gather_bytes, report.expected_gather_bytes(r.rank));
        }
    }

    #[test]
    fn queue_delay_prediction_simulates_fifo_exactly() {
        // 2 slots, both busy until steps 5 and 9; two queued requests of
        // 4 service steps each. FIFO: first queued starts at 5, second at
        // 9 (slot from the other active), new request starts at
        // min(5+4, 9+4) = 9 — a 9-step wait from now=0.
        assert_eq!(predicted_queue_delay(0, 0, &[5, 9], &[4, 4]), 9);
        // A free slot admits immediately.
        assert_eq!(predicted_queue_delay(7, 1, &[12], &[]), 0);
        // Free slot but a queue ahead of us: we wait behind it.
        assert_eq!(predicted_queue_delay(7, 1, &[12], &[3]), 3);
        // Stale completion times clamp to now rather than the past.
        assert_eq!(predicted_queue_delay(10, 0, &[4], &[]), 0);
    }

    #[test]
    fn slo_sheds_deterministically_under_burst() {
        let m = model();
        let params = init_full_params(&m, 13);
        // 1 slot, service = max_new = 4 steps; 6 simultaneous arrivals
        // with a 10-step SLO: positions 0..=2 predict delays 0/4/8 and
        // queue; every later arrival predicts 12 (shed requests never
        // join the queue, so the prediction stops growing) and is shed.
        let requests: Vec<ServeRequest> =
            (0..6).map(|i| ServeRequest::new(i, vec![1, 2], 4)).collect();
        let cfg = ServeConfig { slots: 1, slo_steps: Some(10), ..ServeConfig::default() };
        let report = serve(&m, &shards_of(&params, 2), &requests, &cfg);
        report.check_ranks_agree().unwrap();
        let o = report.outcomes();
        for (i, out) in o.iter().enumerate().take(3) {
            let resp = out.response().unwrap_or_else(|| panic!("request {i} within SLO"));
            assert_eq!(resp.queue_steps, 4 * i as u64, "the predicted delay is the real one");
        }
        for (i, out) in o.iter().enumerate().skip(3) {
            assert_eq!(
                out.rejection(),
                Some(ServeError::Overloaded { predicted_delay_steps: 12, slo_steps: 10 }),
                "request {i} sheds with its exact predicted delay"
            );
        }
    }

    #[test]
    fn every_kv_geometry_serves_the_reference_tokens_bitwise() {
        let m = model();
        let params = init_full_params(&m, 29);
        let requests: Vec<ServeRequest> = (0..6)
            .map(|i| {
                ServeRequest::new(i as u64, vec![2, 4, 6, (i % 8) as u32], 3 + i % 4)
                    .at_step(2 * i as u64)
            })
            .collect();
        for kv in [
            KvBackend::Slab,
            KvBackend::Paged { block: 4, prefix_reuse: false },
            KvBackend::Paged { block: 4, prefix_reuse: true },
            KvBackend::Paged { block: 3, prefix_reuse: true },
        ] {
            let cfg = ServeConfig { slots: 2, kv, ..ServeConfig::default() };
            let report = serve(&m, &shards_of(&params, 2), &requests, &cfg);
            report.check_ranks_agree().unwrap();
            for (req, out) in requests.iter().zip(report.outcomes()) {
                let resp = out.response().unwrap();
                assert_eq!(resp.tokens, reference_greedy(&m, &params, req), "{kv:?}");
            }
        }
    }

    #[test]
    fn window_filling_prompts_in_every_slot_never_run_the_arena_dry() {
        let m = model();
        let params = init_full_params(&m, 23);
        let slots = 3;
        // Three waves of `slots` window-filling prompts (`seq` positions,
        // one new token): each wave is admitted, fed and retired by one
        // step of slots × seq rows — the row batch's whole capacity — with
        // every page table at its ⌈seq/block⌉ maximum. Wave 1 fills the
        // arena and leaves it cached; wave 2 shares 7 positions with a
        // wave-1 prompt and then diverges (whole-block hits plus a
        // copy-on-write whose donor is pinned while the copy evicts);
        // wave 3 repeats wave 1 against whatever survived.
        let prompt = |family: u32, tail: u32| -> Vec<u32> {
            (0..m.seq as u32)
                .map(|i| if i < 7 { family * 5 + i } else { tail + i } % m.vocab as u32)
                .collect()
        };
        let requests: Vec<ServeRequest> = (0..3u64)
            .flat_map(|wave| {
                let prompt = &prompt;
                (0..slots as u64).map(move |s| {
                    let tail = [0, 11, 0][wave as usize];
                    ServeRequest::new(wave * 3 + s, prompt(s as u32, tail), 1).at_step(wave)
                })
            })
            .collect();
        let want: Vec<Vec<u32>> =
            requests.iter().map(|r| reference_greedy(&m, &params, r)).collect();
        for block in [1, 3, 8, m.seq] {
            for prefix_reuse in [false, true] {
                let kv = KvBackend::Paged { block, prefix_reuse };
                let cfg = ServeConfig { slots, kv, ..ServeConfig::default() };
                let report = serve(&m, &shards_of(&params, 2), &requests, &cfg);
                // Block registration, copy-on-write and eviction meters
                // are part of what the ranks must agree on.
                report.check_ranks_agree().unwrap();
                let r0 = &report.ranks[0];
                assert_eq!(r0.batch_steps, 3, "{kv:?}: one step per wave");
                assert!(r0.kv_meters.bytes_live_peak <= r0.kv_arena_bytes, "{kv:?}");
                let per_slot = m.seq.div_ceil(block);
                let block_bytes = (2 * 4 * m.layers * block * m.hidden) as u64;
                assert_eq!(
                    r0.kv_arena_bytes,
                    (slots * per_slot + usize::from(prefix_reuse)) as u64 * block_bytes,
                    "{kv:?}: the sizing rule is unchanged"
                );
                let mut reused = 0;
                for ((req, out), want) in requests.iter().zip(report.outcomes()).zip(&want) {
                    let resp = out.response().unwrap();
                    assert_eq!(&resp.tokens, want, "{kv:?} request {}", req.id);
                    assert_eq!(resp.queue_steps, 0);
                    assert_eq!(resp.prefill_rows + resp.prefix_reused_rows, m.seq as u64);
                    reused += resp.prefix_reused_rows;
                }
                let meters = r0.kv_meters;
                assert_eq!(reused, meters.prefix_hit_rows + meters.prefix_cow_rows);
                assert_eq!(reused > 0, prefix_reuse, "{kv:?}");
                assert_eq!(meters.evictions > 0, prefix_reuse, "{kv:?}: the arena ran at its limit");
            }
        }
    }

    #[test]
    fn serving_from_exported_training_snapshots_is_bitwise_identical() {
        let m = model();
        let params = init_full_params(&m, 21);
        // Fake a 3-rank training checkpoint: every unit split three ways.
        let layout = zero_model::Layout::build(&m);
        let part = Partitioner::per_unit(&layout, 3);
        let snaps: Vec<RankSnapshot> = (0..3)
            .map(|r| RankSnapshot {
                rank: r as u32,
                world: 3,
                step: 40,
                units: layout.units().iter().map(|u| u.range.len() as u64).collect(),
                owners: 3,
                owner: r as u32,
                master: part.flat_ranges(r, 0..part.shard_range(r).len()).into_iter().flat_map(|x| params[x].to_vec()).collect(),
                opt_m: Vec::new(),
                opt_v: Vec::new(),
                opt_t: 40,
                scaler: None,
            })
            .collect();
        // Export onto a *different* world size than training used.
        let shards = export_inference_shards(&snaps, 2).unwrap();
        let requests = vec![ServeRequest::new(7, vec![5, 9, 13], 5)];
        let report = serve(&m, &shards, &requests, &ServeConfig::default());
        let resp = report.outcomes()[0].response().unwrap().clone();
        assert_eq!(resp.tokens, reference_greedy(&m, &params, &requests[0]));
    }
}
