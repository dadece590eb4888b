//! The `train.*` workloads: a closed loop of one client per rank calling
//! `RankEngine::train_step`, driven only through the engine's public API.

use std::time::{Duration, Instant};

use zero_comm::{Grid, TieredLink, TimingSnapshot, TrafficSnapshot, World, WorldConfig};
use zero_core::{RankEngine, TierConfig, TierStats, ZeroConfig, ZeroStage};
use zero_model::{init_full_params, Gpt, ModelConfig, SyntheticCorpus};

use crate::phase::{Gate, Phase};
use crate::report::Workload;
use crate::spans::{main_track, Recorder, Span};

/// Name of the benchmark's span around a `train_step` of a traced phase;
/// the program's spans of that step nest under it.
pub const TRACED_STEP: &str = "train_step.traced";

/// Untimed steps before the timed phase: caches fill, the loss scaler and
/// allocator settle.
pub const WARMUP_STEPS: usize = 5;

/// Steps whose losses are compared bitwise against the DDP reference.
pub const CHECKED_STEPS: usize = 5;

/// The training model: 4 layers, hidden 128, 4 heads, seq 32, vocab 64.
pub fn model() -> ModelConfig {
    ModelConfig {
        vocab: 64,
        seq: 32,
        hidden: 128,
        layers: 4,
        heads: 4,
    }
}

/// One training configuration: engine, grid, batch, fabric.
#[derive(Clone)]
pub struct TrainCfg {
    pub zero: ZeroConfig,
    pub dp: usize,
    pub global_batch: usize,
    pub world: WorldConfig,
    pub seed: u64,
}

impl TrainCfg {
    pub fn local_batch(&self) -> usize {
        self.global_batch / self.dp
    }

    /// The same grid, batch, seed and fabric under plain DDP: the
    /// reference every stage's losses must equal bit for bit.
    pub fn ddp_reference(&self) -> TrainCfg {
        let zero = ZeroConfig {
            stage: ZeroStage::Ddp,
            overlap: false,
            tier: TierConfig::off(),
            ..self.zero
        };
        TrainCfg {
            zero,
            ..self.clone()
        }
    }

    /// One worker, same per-rank batch, no fabric cost: the plain
    /// single-worker baseline scaling efficiency is measured against.
    pub fn single_worker(&self) -> TrainCfg {
        TrainCfg {
            dp: 1,
            global_batch: self.local_batch(),
            world: WorldConfig::default(),
            ..self.ddp_reference()
        }
    }
}

/// Device budget for `train.offload`, between the offloaded peak
/// (3 764 224 B) and the unconstrained stage-3 peak (10 274 816 B) probed
/// at this model and batch: the tracker panics if offload stops fitting.
pub const OFFLOAD_DEVICE_BUDGET: u64 = 6 << 20;

/// The configuration of a `train.*` workload.
///
/// # Panics
/// Panics on a `serve.*` workload.
pub fn config(workload: Workload, seed: u64) -> TrainCfg {
    let base = ZeroConfig {
        fp16: true,
        initial_loss_scale: 1.0,
        ..ZeroConfig::default()
    };
    let stage3 = ZeroConfig {
        stage: ZeroStage::Three,
        overlap: true,
        ..base
    };
    let (zero, global_batch, world) = match workload {
        // Compute-bound: the largest batch, no modeled link.
        Workload::TrainCompute => (
            ZeroConfig {
                stage: ZeroStage::Two,
                ..base
            },
            16,
            WorldConfig::default(),
        ),
        // One rank per node, so every message pays the slow inter-node
        // price (the intra fields are never used); a small batch keeps
        // arithmetic intensity low, so overlap alone cannot hide it.
        Workload::TrainComm => (
            stage3,
            4,
            WorldConfig::with_tiered_link(TieredLink {
                node_size: 1,
                intra_latency: Duration::ZERO,
                intra_bytes_per_sec: 1e12,
                inter_latency: Duration::from_micros(150),
                inter_bytes_per_sec: 4e7,
            }),
        ),
        // The same engine with model state on a modeled host tier: the
        // tier stream rides the double buffer `train.comm`'s gathers use.
        Workload::TrainOffload => (
            ZeroConfig {
                tier: TierConfig {
                    enabled: true,
                    device_budget: OFFLOAD_DEVICE_BUDGET,
                    host_bw: 16 << 20,
                    host_lat: Duration::from_micros(10),
                    depth: 1,
                },
                ..stage3
            },
            4,
            WorldConfig::default(),
        ),
        Workload::ServeShared | Workload::ServeBurst => {
            panic!("{} is not a training workload", workload.name())
        }
    };
    TrainCfg {
        zero,
        dp: crate::RANKS,
        global_batch,
        world,
        seed,
    }
}

/// What rank 0 measured over one phase. Counters are deltas over the
/// phase, so per-step values divide by `step_ns.len()`.
pub struct PhaseOut {
    /// Wall time of each `train_step` call on rank 0.
    pub step_ns: Vec<u64>,
    /// Time from each step's start to the next step's start on rank 0:
    /// the step plus the wait for the slowest rank to finish it.
    pub period_ns: Vec<u64>,
    pub traffic: TrafficSnapshot,
    pub timing: TimingSnapshot,
    pub tier: TierStats,
    pub tier_time: Duration,
}

/// Everything one training world reports back.
pub struct TrainOut {
    /// Mean loss over DP replicas for every step run, warm-up included.
    pub losses: Vec<f32>,
    /// Steps the loss scaler skipped or whose loss was not finite.
    pub failed_steps: u64,
    pub phases: Vec<PhaseOut>,
    /// Maximum over ranks.
    pub peak_device_bytes: u64,
    pub peak_model_state_bytes: u64,
    /// Param init + world + engine construction, up to the first step.
    pub setup_s: f64,
}

struct RankOut {
    losses: Vec<f32>,
    failed_steps: u64,
    phases: Vec<PhaseOut>,
    peak_device_bytes: u64,
    peak_model_state_bytes: u64,
    ready_ns: u64,
    spans: Vec<Span>,
}

fn tier_delta(now: TierStats, then: TierStats) -> TierStats {
    TierStats {
        fetch_bytes: now.fetch_bytes - then.fetch_bytes,
        spill_bytes: now.spill_bytes - then.spill_bytes,
        fetch_ops: now.fetch_ops - then.fetch_ops,
        spill_ops: now.spill_ops - then.spill_ops,
    }
}

/// Runs `warmup` untimed steps and then each phase in turn on a fresh
/// world. The benchmark's spans and, from traced phases, the program's
/// go to `rec`.
///
/// # Panics
/// Panics if a rank panics (a failed collective, an exceeded device
/// budget).
pub fn run(cfg: &TrainCfg, warmup: usize, phases: &[Phase], rec: &mut Recorder) -> TrainOut {
    let setup_start = rec.now_ns();
    let model = model();
    let (full, _) = rec.span("setup.init-params", || init_full_params(&model, cfg.seed));
    // The corpus wraps, so its length does not bound the step count.
    let corpus = SyntheticCorpus::generate(model.vocab, 1 << 16, cfg.seed ^ 0x5EED);
    let grid = Grid::new(cfg.dp, 1);
    let (mut world, _) = rec.span("setup.world", || {
        World::with_config(cfg.dp, cfg.world.clone())
    });
    let comms: Vec<_> = (0..cfg.dp).map(|r| world.take(r)).collect();

    let gate = Gate::new(cfg.dp);
    let local_batch = cfg.local_batch();

    let mut outs: Vec<RankOut> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let (full, corpus, gate) = (&full, &corpus, &gate);
                let mut rec = rec.on_track(main_track(comm.rank()));
                s.spawn(move || {
                    let rank = comm.rank();
                    // End-to-end numbers are measured with the program's
                    // tracing off; traced phases switch it on.
                    comm.trace().set_enabled(false);
                    let (mut engine, _) = rec.span("setup.engine", || {
                        RankEngine::new(Gpt::new(model), full, cfg.zero, grid, comm)
                    });
                    gate.sync();
                    let ready_ns = rec.now_ns();

                    let mut losses = Vec::new();
                    let mut failed_steps = 0;
                    let mut step = |engine: &mut RankEngine, rec: &mut Recorder, name| {
                        let (ids, targets) = corpus.rank_batch(
                            losses.len(),
                            cfg.global_batch,
                            model.seq,
                            cfg.dp,
                            rank,
                        );
                        let (out, ns) =
                            rec.span(name, || engine.train_step(&ids, &targets, local_batch));
                        failed_steps += u64::from(out.skipped || !out.loss.is_finite());
                        losses.push(out.loss);
                        ns
                    };
                    for _ in 0..warmup {
                        step(&mut engine, &mut rec, "train_step.warmup");
                    }

                    let mut outs = Vec::new();
                    for (pi, phase) in phases.iter().enumerate() {
                        let trace = engine.trace();
                        trace.set_enabled(phase.traced);
                        let marker_ns = rec.mark(&trace);
                        let (traffic0, timing0) = (engine.traffic(), engine.timing());
                        let (tier0, tier_time0) = (engine.tier_stats(), engine.tier_time());
                        let (mut step_ns, mut period_ns) = (Vec::new(), Vec::new());
                        let t0 = Instant::now();
                        let mut step_start = t0;
                        let name = if phase.traced {
                            TRACED_STEP
                        } else {
                            "train_step"
                        };
                        loop {
                            step_ns.push(step(&mut engine, &mut rec, name));
                            let over = gate.unit_done(rank, pi, phase.stop, t0, step_ns.len());
                            let now = Instant::now();
                            period_ns.push((now - step_start).as_nanos() as u64);
                            step_start = now;
                            if over {
                                break;
                            }
                        }
                        trace.set_enabled(false);
                        if phase.traced {
                            rec.import(rank, &engine.timeline(), marker_ns);
                            trace.reset();
                        }
                        outs.push(PhaseOut {
                            step_ns,
                            period_ns,
                            traffic: engine.traffic().delta_since(&traffic0),
                            timing: engine.timing().delta_since(&timing0),
                            tier: tier_delta(engine.tier_stats(), tier0),
                            tier_time: engine.tier_time() - tier_time0,
                        });
                    }
                    RankOut {
                        losses,
                        failed_steps,
                        phases: outs,
                        peak_device_bytes: engine.memory().peak_device(),
                        peak_model_state_bytes: engine.memory().peak_model_states(),
                        ready_ns,
                        spans: rec.spans,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a training rank panicked"))
            .collect()
    });

    let peak = |of: fn(&RankOut) -> u64| outs.iter().map(of).max().expect("at least one rank");
    let (peak_device_bytes, peak_model_state_bytes) = (
        peak(|o| o.peak_device_bytes),
        peak(|o| o.peak_model_state_bytes),
    );
    let steps = outs[0].losses.len();
    let losses = (0..steps)
        .map(|i| outs.iter().map(|o| o.losses[i]).sum::<f32>() / cfg.dp as f32)
        .collect();
    for o in &mut outs {
        rec.spans.append(&mut o.spans);
    }
    let first = outs.swap_remove(0);
    TrainOut {
        losses,
        failed_steps: first.failed_steps,
        phases: first.phases,
        peak_device_bytes,
        peak_model_state_bytes,
        setup_s: (first.ready_ns - setup_start) as f64 / 1e9,
    }
}
