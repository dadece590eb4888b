//! Per-layer probes: each calls one layer's public entry points directly,
//! at the shapes the workload gives that layer, inside a benchmark span.
//! A probe reports the median of its repeats.

use std::hint::black_box;

use zero_comm::{Precision, ReduceOp, World, WorldConfig};
use zero_core::{TierConfig, TierStore};
use zero_model::{Gpt, IncrementalDecoder, ModelConfig};
use zero_optim::{Adam, AdamConfig};
use zero_serve::{KvBackend, KvPool, ServeRequest};
use zero_tensor::ops::matmul::{sgemm, sgemm_nt, sgemm_tn};

use crate::spans::Recorder;
use crate::stats::median;

fn median_ms(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>())
}

fn ramp(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i % 251) as f32 - 125.0) / 251.0)
        .collect()
}

/// GEMM time and rate for one training step's linear layers.
pub struct GemmProbe {
    pub ms_per_step: f64,
    pub gflops: f64,
    /// Timed GEMM calls behind the numbers.
    pub n: usize,
}

/// Times `sgemm`/`_nt`/`_tn` at the shapes one transformer block's four
/// linear layers use (M = `rows` = local batch · seq; K, N ∈ {h, 3h, 4h})
/// and scales by calls per step: every block runs the forward set once
/// (twice when activations are recomputed) and the backward set once.
pub fn gemm(
    rec: &mut Recorder,
    rows: usize,
    model: &ModelConfig,
    recompute: bool,
    reps: usize,
) -> GemmProbe {
    type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
    let (t, h) = (rows, model.hidden);
    let forward: [(Gemm, usize, usize, usize); 4] = [
        (sgemm_nt, t, h, 3 * h),
        (sgemm_nt, t, h, h),
        (sgemm_nt, t, h, 4 * h),
        (sgemm_nt, t, 4 * h, h),
    ];
    // Per linear layer: dX = dY·W, then dW = dYᵀ·X.
    let backward: [(Gemm, usize, usize, usize); 8] = [
        (sgemm, t, h, 4 * h),
        (sgemm_tn, h, t, 4 * h),
        (sgemm, t, 4 * h, h),
        (sgemm_tn, 4 * h, t, h),
        (sgemm, t, h, h),
        (sgemm_tn, h, t, h),
        (sgemm, t, 3 * h, h),
        (sgemm_tn, 3 * h, t, h),
    ];
    let fwd_passes = if recompute { 2.0 } else { 1.0 };
    let (mut ms, mut flop, mut n) = (0.0, 0.0, 0);
    for (set, passes) in [(&forward[..], fwd_passes), (&backward[..], 1.0)] {
        for &(f, m, k, nn) in set {
            let (a, b) = (ramp(m * k), ramp(k * nn));
            let mut c = vec![0.0; m * nn];
            let times: Vec<u64> = (0..reps)
                .map(|_| {
                    rec.span("probe.tensor.gemm", || {
                        f(black_box(&a), black_box(&b), black_box(&mut c), m, k, nn)
                    })
                    .1
                })
                .collect();
            let calls = passes * model.layers as f64;
            ms += calls * median_ms(&times);
            flop += calls * 2.0 * (m * k * nn) as f64;
            n += reps;
        }
    }
    GemmProbe {
        ms_per_step: ms,
        gflops: flop / (ms * 1e6),
        n,
    }
}

/// Model-layer times for one rank's batch, each scaled to a whole step.
pub struct ModelProbe {
    /// Embed + every block forward.
    pub fwd_ms: f64,
    /// Head forward+backward + every block backward.
    pub bwd_ms: f64,
    /// Every block forward: what recomputing activations costs again.
    pub blocks_fwd_ms: f64,
    pub n: usize,
}

/// Times `Gpt::embed`, `block_fwd`, `block_bwd` and `head_fwd_bwd` on one
/// rank's batch.
pub fn model_step(
    rec: &mut Recorder,
    gpt: &Gpt,
    params: &[f32],
    ids: &[u32],
    targets: &[u32],
    batch: usize,
    reps: usize,
) -> ModelProbe {
    let units = gpt.layout().units();
    let layers = gpt.config().layers;
    let unit = |u: usize| &params[units[u].range.clone()];
    let mut ident = |_: &mut [f32]| {};
    let (mut embed, mut fwd, mut bwd, mut head) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (x, ns) = rec.span("probe.model.embed", || gpt.embed(unit(0), ids, batch));
        embed.push(ns);
        let ((y, saved), ns) = rec.span("probe.model.block_fwd", || {
            gpt.block_fwd(0, unit(1), &x, batch, &mut ident)
        });
        fwd.push(ns);
        let mut grads = vec![0.0; units[units.len() - 1].range.len()];
        let ((_, dy), ns) = rec.span("probe.model.head_fwd_bwd", || {
            gpt.head_fwd_bwd(unit(1 + layers), &y, targets, &mut grads, batch)
        });
        head.push(ns);
        let mut grads = vec![0.0; units[1].range.len()];
        let (dx, ns) = rec.span("probe.model.block_bwd", || {
            gpt.block_bwd(0, unit(1), &saved, &dy, &mut grads, batch, &mut ident)
        });
        bwd.push(ns);
        black_box(dx);
    }
    let blocks_fwd_ms = layers as f64 * median_ms(&fwd);
    ModelProbe {
        fwd_ms: median_ms(&embed) + blocks_fwd_ms,
        bwd_ms: median_ms(&head) + layers as f64 * median_ms(&bwd),
        blocks_fwd_ms,
        n: reps,
    }
}

/// `Adam::step` on one rank's `elems`-element shard, ms.
pub fn adam_step(rec: &mut Recorder, elems: usize, reps: usize) -> f64 {
    let mut adam = Adam::new(elems, AdamConfig::default());
    let (mut params, grads) = (ramp(elems), ramp(elems));
    let times: Vec<u64> = (0..reps)
        .map(|_| {
            rec.span("probe.optim.adam_step", || {
                adam.step(black_box(&mut params), &grads)
            })
            .1
        })
        .collect();
    median_ms(&times)
}

/// Blocking `all_gather` and `reduce_scatter` of `elems` elements over a
/// two-rank world on the workload's link, ms per call on rank 0.
pub fn collectives(
    rec: &mut Recorder,
    world: &WorldConfig,
    elems: usize,
    prec: Precision,
    reps: usize,
) -> (f64, f64) {
    let n = crate::RANKS;
    let mut fabric = World::with_config(n, world.clone());
    let comms: Vec<_> = (0..n).map(|r| fabric.take(r)).collect();
    let shard = elems / n;
    let mut times = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                // Rank 0 records on the caller's clock; the other ranks only
                // take part.
                let mut local = rec.on_track(crate::spans::main_track(comm.rank()));
                s.spawn(move || {
                    comm.trace().set_enabled(false);
                    let (mine, full) = (ramp(shard), ramp(shard * n));
                    let (mut gathered, mut reduced) = (vec![0.0; shard * n], vec![0.0; shard]);
                    let (mut ag, mut rs) = (Vec::new(), Vec::new());
                    for _ in 0..reps {
                        ag.push(
                            local
                                .span("probe.comm.all_gather", || {
                                    comm.all_gather(&mine, &mut gathered, prec)
                                        .expect("probe all-gather")
                                })
                                .1,
                        );
                        rs.push(
                            local
                                .span("probe.comm.reduce_scatter", || {
                                    comm.reduce_scatter(&full, &mut reduced, ReduceOp::Sum, prec)
                                        .expect("probe reduce-scatter")
                                })
                                .1,
                        );
                    }
                    (ag, rs, local.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a probe rank panicked"))
            .collect::<Vec<_>>()
    });
    let (ag, rs, spans) = times.swap_remove(0);
    rec.spans.extend(spans);
    (median_ms(&ag), median_ms(&rs))
}

/// Modeled cost of moving one `elems`-element page to the device tier and
/// back through `TierStore::fetch`/`spill`, µs.
pub fn tier_round_trip(rec: &mut Recorder, tier: TierConfig, elems: usize) -> f64 {
    let mut store = TierStore::new(TierConfig {
        device_budget: u64::MAX,
        ..tier
    });
    let page = store.alloc(vec![0.0; elems]);
    let (modeled, _) = rec.span("probe.core.tier_round_trip", || {
        store.fetch(page) + store.spill(page)
    });
    modeled.as_secs_f64() * 1e6
}

/// One request's KV bookkeeping — `alloc_slot`, `attach_prompt`, `ensure`
/// and `note_token` per position, `release_slot` — µs per request.
pub fn kv_ops(
    rec: &mut Recorder,
    model: &ModelConfig,
    backend: KvBackend,
    requests: &[ServeRequest],
) -> f64 {
    let mut pool = KvPool::new(model, 1, backend);
    let times: Vec<f64> = requests
        .iter()
        .map(|req| {
            let ((), ns) = rec.span("probe.serve.kv_ops", || {
                let slot = pool.alloc_slot().expect("the probe's one slot is free");
                let (attached, _) = pool.attach_prompt(slot, &req.prompt);
                for pos in attached.matched..req.prompt.len() {
                    black_box(pool.ensure(slot, pos));
                    pool.note_token(slot, pos, req.prompt[pos]);
                }
                pool.release_slot(slot);
            });
            ns as f64 / 1e3
        })
        .collect();
    median(&times)
}

/// `IncrementalDecoder::feed`, ms per token over one full window.
pub fn decode_token(rec: &mut Recorder, gpt: &Gpt, params: &[f32], tokens: usize) -> f64 {
    let mut dec = IncrementalDecoder::new(gpt, params);
    let times: Vec<u64> = (0..tokens)
        .map(|i| {
            rec.span("probe.model.decode_token", || {
                dec.feed((i % gpt.config().vocab) as u32)
                    .expect("in window")
            })
            .1
        })
        .collect();
    median_ms(&times)
}
