//! The `serve.*` workloads: seeded open-loop schedules replayed through
//! `zero_serve::run_rank` on a world the benchmark builds itself.
//!
//! The engine takes a whole schedule up front, so a run is a sequence of
//! *rounds*: each a fresh schedule drawn from the run's seed and the
//! round's number, served to completion. Rounds repeat until the phase's
//! time is up, as training steps do.

use std::time::Instant;

use zero_comm::{TimingSnapshot, TrafficSnapshot, World, WorldConfig};
use zero_core::{CommPlan, Partitioner};
use zero_model::{argmax, init_full_params, Gpt, IncrementalDecoder, ModelConfig};
use zero_serve::{
    engine::run_rank, generate, Arrivals, KvBackend, KvPool, LoadConfig, RankServeReport,
    ServeConfig, ServeReport, ServeRequest,
};

use crate::phase::{Gate, Phase};
use crate::report::Workload;
use crate::spans::{main_track, Recorder, Span};

/// Requests per round: long enough that the prefix cache warms and bursts
/// repeat, short enough that a phase ends within a round of its time.
pub const ROUND_REQUESTS: usize = 48;

/// The serving model: 8 layers, hidden 64, 4 heads, seq 32, vocab 64
/// (Ψ = 410 240) — deep enough that one gather unit is a small share of Ψ.
pub fn model() -> ModelConfig {
    ModelConfig {
        vocab: 64,
        seq: 32,
        hidden: 64,
        layers: 8,
        heads: 4,
    }
}

/// One serving configuration: engine knobs and the load's shape.
pub struct ServeCfg {
    pub serve: ServeConfig,
    /// The shape of every round's schedule; `load.seed` is the run's
    /// seed, from which each round's own is derived.
    pub load: LoadConfig,
}

impl ServeCfg {
    /// The schedule of round `round`: the same for a seed and a round
    /// number, on every rank and in every run.
    pub fn round_requests(&self, round: usize) -> Vec<ServeRequest> {
        let seed = self
            .load
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round as u64);
        generate(&LoadConfig {
            seed,
            ..self.load.clone()
        })
    }
}

/// The configuration of a `serve.*` workload, `n_requests` per round.
///
/// # Panics
/// Panics on a `train.*` workload.
pub fn config(workload: Workload, seed: u64, n_requests: usize) -> ServeCfg {
    let vocab = model().vocab;
    let base = ServeConfig {
        slots: 4,
        overlap: true,
        kv: KvBackend::Slab,
        slo_steps: None,
    };
    let (serve, load) = match workload {
        // Below saturation, prompts sharing one of three 8-token
        // prefixes: the KV page table and prefix cache do work.
        Workload::ServeShared => (
            ServeConfig {
                kv: KvBackend::Paged {
                    block: 8,
                    prefix_reuse: true,
                },
                ..base
            },
            LoadConfig {
                n_requests,
                arrivals: Arrivals::Poisson { rate: 0.2 },
                prompt_len: (10, 20),
                max_new: (4, 8),
                vocab,
                seed,
                shared_prefixes: 3,
                prefix_len: 8,
            },
        ),
        // Bursts of twice the slot count, short unshared prompts, long
        // decodes, the slab arena: admission, queueing and raw
        // decode+gather throughput do the work and prefix reuse is
        // bypassed. The SLO gate prices every arrival but never sheds:
        // a burst's worst case (8 requests × 21 steps on 4 slots = 42
        // steps) drains within the 44-step period, so the predicted
        // delay stays under 48 and no operation fails.
        Workload::ServeBurst => (
            ServeConfig {
                slo_steps: Some(48),
                ..base
            },
            LoadConfig {
                n_requests,
                arrivals: Arrivals::Burst {
                    size: 8,
                    period: 44,
                },
                prompt_len: (2, 6),
                max_new: (8, 16),
                vocab,
                seed,
                shared_prefixes: 0,
                prefix_len: 0,
            },
        ),
        _ => panic!("{} is not a serving workload", workload.name()),
    };
    ServeCfg { serve, load }
}

/// Splits the flat parameters into the balanced per-rank shards.
pub fn split_shards(params: &[f32], ranks: usize) -> Vec<Vec<f32>> {
    let part = Partitioner::new(params.len(), ranks);
    (0..ranks)
        .map(|r| params[part.shard_range(r)].to_vec())
        .collect()
}

/// Times one set-up: param init, shard split, world, and the KV pool
/// `run_rank` builds on entry.
pub fn setup_once(cfg: &ServeCfg) -> f64 {
    let t0 = Instant::now();
    let model = model();
    let params = init_full_params(&model, cfg.load.seed);
    let shards = split_shards(&params, crate::RANKS);
    let world = World::with_config(crate::RANKS, WorldConfig::default());
    let pool = KvPool::new(&model, cfg.serve.slots, cfg.serve.kv);
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box((shards, pool));
    drop(world);
    dt
}

/// One round as the world served it.
pub struct RoundOut {
    pub requests: Vec<ServeRequest>,
    /// Every rank's report of this round, without its timeline (traced
    /// rounds' spans go to the recorder).
    pub report: ServeReport,
    /// Wall time of rank 0's `run_rank` call.
    pub wall_s: f64,
}

/// One phase as the world served it.
pub struct ServePhase {
    pub rounds: Vec<RoundOut>,
    /// Rank 0's traffic and collective timing over the phase.
    pub traffic: TrafficSnapshot,
    pub timing: TimingSnapshot,
}

struct RankPhase {
    /// Each round's report and the wall time of its `run_rank` call.
    rounds: Vec<(RankServeReport, f64)>,
    traffic: TrafficSnapshot,
    timing: TimingSnapshot,
}

/// Serves rounds on a fresh world of `shards.len()` rank threads, phase
/// by phase. Round numbers restart with each
/// phase, so every phase serves the same schedules. The benchmark's spans
/// and, from traced phases, the program's go to `rec`.
///
/// # Panics
/// Panics if a rank panics.
pub fn run(
    shards: &[Vec<f32>],
    cfg: &ServeCfg,
    phases: &[Phase],
    rec: &mut Recorder,
) -> Vec<ServePhase> {
    let model = model();
    let n = shards.len();
    let mut world = World::with_config(n, WorldConfig::default());
    let comms: Vec<_> = (0..n).map(|r| world.take(r)).collect();
    let gate = Gate::new(n);
    let mut per_rank: Vec<(Vec<RankPhase>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                let (model, gate) = (&model, &gate);
                let mut rec = rec.on_track(main_track(comm.rank()));
                s.spawn(move || {
                    let rank = comm.rank();
                    let trace = comm.trace();
                    let mut out = Vec::new();
                    for (pi, phase) in phases.iter().enumerate() {
                        trace.set_enabled(phase.traced);
                        let name = if phase.traced {
                            "serve.traced"
                        } else {
                            "serve"
                        };
                        let mut rounds = Vec::new();
                        let (traffic0, timing0) = (comm.stats().snapshot(), comm.stats().timing());
                        gate.sync();
                        let began = Instant::now();
                        loop {
                            let requests = cfg.round_requests(rounds.len());
                            let marker_ns = rec.mark(&trace);
                            let (mut report, ns) = rec.span(name, || {
                                run_rank(&mut comm, model, &shards[rank], &requests, &cfg.serve)
                            });
                            let timeline = std::mem::take(&mut report.timeline);
                            if phase.traced {
                                rec.import(rank, &timeline, marker_ns);
                                trace.reset();
                            }
                            rounds.push((report, ns as f64 / 1e9));
                            if gate.unit_done(rank, pi, phase.stop, began, rounds.len()) {
                                break;
                            }
                        }
                        out.push(RankPhase {
                            rounds,
                            traffic: comm.stats().snapshot().delta_since(&traffic0),
                            timing: comm.stats().timing().delta_since(&timing0),
                        });
                    }
                    (out, rec.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a serving rank panicked"))
            .collect()
    });

    for (_, spans) in &mut per_rank {
        rec.spans.append(spans);
    }
    let plan = CommPlan::serve_step(Gpt::new(model).layout(), n, cfg.serve.overlap);
    let (first, _) = &per_rank[0];
    first
        .iter()
        .enumerate()
        .map(|(p, phase)| ServePhase {
            rounds: (0..phase.rounds.len())
                .map(|k| RoundOut {
                    requests: cfg.round_requests(k),
                    wall_s: phase.rounds[k].1,
                    report: ServeReport {
                        ranks: per_rank
                            .iter()
                            .map(|(phases, _)| phases[p].rounds[k].0.clone())
                            .collect(),
                        plan: plan.clone(),
                    },
                })
                .collect(),
            traffic: phase.traffic,
            timing: phase.timing,
        })
        .collect()
}

/// The single-process greedy continuation every served request must equal
/// bit for bit: batching, sharding, paging and prefix reuse are
/// performance knobs, never accuracy knobs.
pub fn reference_greedy(gpt: &Gpt, params: &[f32], req: &ServeRequest) -> Vec<u32> {
    let mut dec = IncrementalDecoder::new(gpt, params);
    let mut logits = Vec::new();
    for &t in &req.prompt {
        logits = dec.feed(t).expect("generated prompts are well-formed");
    }
    let mut out = vec![argmax(&logits) as u32];
    while out.len() < req.max_new_tokens {
        logits = dec
            .feed(out[out.len() - 1])
            .expect("generated requests fit the window");
        out.push(argmax(&logits) as u32);
    }
    out
}
