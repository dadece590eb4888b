//! One run of one workload: set-up, the correctness checks, the measured
//! phase, and the metrics — end-to-end with tracing off, or per-layer
//! from a traced run plus the layer probes.

use zero_comm::{CollectiveKind, Precision, TimingSnapshot, TrafficSnapshot, ALL_KINDS};
use zero_model::{init_full_params, Gpt, SyntheticCorpus};
use zero_serve::ServeResponse;

use crate::phase::{Phase, Stop};
use crate::report::{Metrics, RunResult, Workload, END_TO_END, PER_LAYER};
use crate::serving::{self, RoundOut, ServePhase, ROUND_REQUESTS};
use crate::spans::{link_parents, main_track, merge, self_times, uncovered_ns, Recorder, Span};
use crate::stats::{median, percentile_of};
use crate::train::{self, PhaseOut, TrainCfg, CHECKED_STEPS, TRACED_STEP, WARMUP_STEPS};
use crate::{probes, RANKS};

/// How one run is made.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// 3 steps / 8 requests, one repeat of everything: every code path
    /// and every correctness check, no meaningful timing.
    pub smoke: bool,
}

impl RunOpts {
    fn reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// The measured phases: one untraced phase of `seconds`, or, for a
    /// traced run, half the time untraced — the base the tracing overhead
    /// is measured against — and half traced. A smoke run's phases are
    /// `smoke_units` long instead.
    fn phases(&self, smoke_units: usize) -> Vec<Phase> {
        let stop = |seconds| {
            if self.smoke {
                Stop::Units(smoke_units)
            } else {
                Stop::Seconds(seconds)
            }
        };
        if self.trace {
            [false, true]
                .map(|traced| Phase {
                    stop: stop(self.seconds / 2.0),
                    traced,
                })
                .to_vec()
        } else {
            vec![Phase {
                stop: stop(self.seconds),
                traced: false,
            }]
        }
    }
}

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Slack ε in the serving memory bound 4Ψ(2/N + ε).
const PARAM_BOUND_EPSILON: f64 = 0.10;

/// Runs `workload` once. Spans go to `rec`.
///
/// # Panics
/// Panics if the workload needs more rank threads than the machine has
/// cores: its timings would measure the scheduler.
pub fn run(workload: Workload, opts: &RunOpts, rec: &mut Recorder) -> RunResult {
    let cores = crate::report::available_cores();
    assert!(
        RANKS <= cores,
        "{} runs {RANKS} rank threads; this machine has {cores} cores",
        workload.name()
    );
    match workload {
        Workload::ServeShared | Workload::ServeBurst => run_serve(workload, opts, rec),
        _ => run_train(workload, opts, rec),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn percentile_ms(samples: &[u64], q: f64) -> f64 {
    ms(percentile_of(&mut samples.to_vec(), q))
}

/// `comm.*` counters over `steps` steps of rank 0, and the number of
/// collective calls by kind counted from the progress track's spans.
fn comm_metrics(
    m: &mut Metrics,
    traffic: &TrafficSnapshot,
    timing: &TimingSnapshot,
    spans: &[Span],
    steps: usize,
) {
    let per_step = |v: u64| v as f64 / steps as f64;
    let calls = |kind: CollectiveKind| {
        spans
            .iter()
            .filter(|s| {
                s.track == main_track(0) + 1 && s.cat == "collective" && s.name == kind.name()
            })
            .count()
    };
    m.set(
        "comm.bytes_per_step",
        per_step(traffic.total_bytes()),
        steps,
    );
    m.set(
        "comm.calls_per_step",
        ALL_KINDS.iter().map(|k| calls(*k)).sum::<usize>() as f64 / steps as f64,
        steps,
    );
    for (kind, bytes_name, calls_name) in [
        (
            CollectiveKind::AllReduce,
            "comm.all-reduce.bytes_per_step",
            "comm.all-reduce.calls_per_step",
        ),
        (
            CollectiveKind::ReduceScatter,
            "comm.reduce-scatter.bytes_per_step",
            "comm.reduce-scatter.calls_per_step",
        ),
        (
            CollectiveKind::AllGather,
            "comm.all-gather.bytes_per_step",
            "comm.all-gather.calls_per_step",
        ),
    ] {
        m.set(bytes_name, per_step(traffic.bytes(kind)), steps);
        m.set(calls_name, calls(kind) as f64 / steps as f64, steps);
    }
    let (exec, wait) = (timing.total_exec_nanos(), timing.total_wait_nanos());
    m.set("comm.exec_ms_per_step", ms(exec) / steps as f64, steps);
    m.set("comm.wait_ms_per_step", ms(wait) / steps as f64, steps);
    let hidden = if exec == 0 {
        0.0
    } else {
        (1.0 - wait as f64 / exec as f64).max(0.0)
    };
    m.set("comm.hidden_share", hidden, steps);
}

// ----- train.* -----

/// Trained tokens per second at the median step period: the sustained
/// rate, all ranks' steps and the wait for the slowest included. The
/// median keeps a burst of outside interference out of the number.
fn tokens_per_s(cfg: &TrainCfg, phase: &PhaseOut) -> f64 {
    (cfg.global_batch * train::model().seq) as f64 / (percentile_ms(&phase.period_ns, 0.5) / 1e3)
}

fn run_train(workload: Workload, opts: &RunOpts, rec: &mut Recorder) -> RunResult {
    let cfg = train::config(workload, opts.seed);
    let mut errors = Vec::new();
    let mut m = Metrics::default();

    let (warmup, checked) = if opts.smoke {
        (0, 3)
    } else {
        (WARMUP_STEPS, CHECKED_STEPS)
    };
    if !opts.trace {
        let setups: Vec<f64> = (0..opts.reps(SETUP_REPEATS))
            .map(|_| train::run(&cfg, 0, &[], rec).setup_s)
            .collect();
        m.set("setup_s", median(&setups), setups.len());
    }
    let phases = opts.phases(if opts.trace { 2 } else { 3 });

    let reference = train::run(
        &cfg.ddp_reference(),
        0,
        &[Phase {
            stop: Stop::Units(checked),
            traced: false,
        }],
        rec,
    );
    let out = train::run(&cfg, warmup, &phases, rec);

    let same_bits = |a: &[f32], b: &[f32]| {
        a.iter()
            .map(|x| x.to_bits())
            .eq(b.iter().map(|x| x.to_bits()))
    };
    if !same_bits(&out.losses[..checked], &reference.losses) {
        errors.push(format!(
            "first {checked} losses differ from the DDP reference: {:?} vs {:?}",
            &out.losses[..checked],
            reference.losses
        ));
    }
    if !out.losses.iter().all(|l| l.is_finite()) {
        errors.push("a loss is not finite".to_string());
    }
    let (first, last) = (out.losses[0], out.losses[out.losses.len() - 1]);
    if last >= first {
        errors.push(format!("loss did not fall: first {first}, final {last}"));
    }

    let base = &out.phases[0];
    if opts.trace {
        train_layers(&mut m, &cfg, opts, &out, rec);
    } else {
        m.set("tokens_per_s", tokens_per_s(&cfg, base), base.step_ns.len());
        m.set(
            "latency_ms_p50",
            percentile_ms(&base.step_ns, 0.50),
            base.step_ns.len(),
        );
        m.set(
            "latency_ms_p90",
            percentile_ms(&base.step_ns, 0.90),
            base.step_ns.len(),
        );
        m.set("peak_device_bytes", out.peak_device_bytes as f64, RANKS);
    }
    RunResult {
        workload,
        correct: errors.is_empty(),
        errors,
        attempted: out.losses.len() as u64,
        failed: out.failed_steps,
        metrics: m.in_table(if opts.trace { &PER_LAYER } else { &END_TO_END }),
    }
}

/// Per-layer metrics of a traced training run: counters from the traced
/// phase, time shares from its spans, and the layer probes.
fn train_layers(
    m: &mut Metrics,
    cfg: &TrainCfg,
    opts: &RunOpts,
    out: &train::TrainOut,
    rec: &mut Recorder,
) {
    let (base, traced) = (&out.phases[0], &out.phases[1]);
    let steps = traced.step_ns.len();
    let model = train::model();
    let gpt = Gpt::new(model);
    let recompute = cfg.zero.checkpoint_activations;

    // The plain single-worker baseline, at the same per-rank batch.
    let single_cfg = cfg.single_worker();
    let single_steps = if opts.smoke { 3 } else { 10 };
    let single = train::run(
        &single_cfg,
        if opts.smoke { 0 } else { 2 },
        &[Phase {
            stop: Stop::Units(single_steps),
            traced: false,
        }],
        rec,
    );
    let efficiency =
        tokens_per_s(cfg, base) / (cfg.dp as f64 * tokens_per_s(&single_cfg, &single.phases[0]));
    m.set("core.scaling_efficiency", efficiency, single_steps);

    // Probes, at this workload's shapes and on its link.
    let reps = opts.reps(5);
    let g = probes::gemm(rec, cfg.local_batch() * model.seq, &model, recompute, reps);
    m.set("tensor.gemm_gflops", g.gflops, g.n);
    m.set("tensor.gemm_ms_per_step", g.ms_per_step, g.n);
    let params = init_full_params(&model, cfg.seed);
    let corpus = SyntheticCorpus::generate(model.vocab, 1 << 16, cfg.seed ^ 0x5EED);
    let (ids, targets) = corpus.rank_batch(0, cfg.global_batch, model.seq, cfg.dp, 0);
    let p = probes::model_step(rec, &gpt, &params, &ids, &targets, cfg.local_batch(), reps);
    m.set("model.fwd_ms", p.fwd_ms, p.n);
    m.set("model.bwd_ms", p.bwd_ms, p.n);
    m.set(
        "model.recompute_ms",
        if recompute { p.blocks_fwd_ms } else { 0.0 },
        p.n,
    );
    m.set(
        "optim.step_ms",
        probes::adam_step(rec, gpt.num_params() / cfg.dp, reps),
        reps,
    );
    let unit_elems = gpt.layout().units()[1].range.len();
    let prec = if cfg.zero.fp16 {
        Precision::Fp16
    } else {
        Precision::Fp32
    };
    let (gather_ms, scatter_ms) = probes::collectives(rec, &cfg.world, unit_elems, prec, reps);
    m.set("comm.all_gather_probe_ms", gather_ms, reps);
    m.set("comm.reduce_scatter_probe_ms", scatter_ms, reps);
    if cfg.zero.tier.enabled {
        m.set(
            "core.tier_probe_us",
            probes::tier_round_trip(rec, cfg.zero.tier, unit_elems),
            1,
        );
    }

    // Counters of the traced phase.
    link_parents(&mut rec.spans);
    comm_metrics(m, &traced.traffic, &traced.timing, &rec.spans, steps);
    m.set(
        "core.tier_bytes_per_step",
        traced.tier.total_bytes() as f64 / steps as f64,
        steps,
    );
    m.set(
        "core.tier_ms_per_step",
        traced.tier_time.as_secs_f64() * 1e3 / steps as f64,
        steps,
    );
    m.set(
        "core.peak_model_state_bytes",
        out.peak_model_state_bytes as f64,
        RANKS,
    );

    // Where rank 0's step time went. Every program span on the rank's own
    // track lies inside a traced step; its self time goes to its category.
    let spans = &rec.spans;
    let self_ns = self_times(spans);
    let step_total: u64 = spans
        .iter()
        .filter(|s| s.track == main_track(0) && s.name == TRACED_STEP)
        .map(Span::duration_ns)
        .sum();
    let share = |ns: u64| ns as f64 / step_total as f64;
    let by_cat = |cat: &str| -> u64 {
        spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.track == main_track(0) && s.cat == cat)
            .map(|(_, ns)| ns)
            .sum()
    };
    // Tier moves run on the progress track and the rank waits for them
    // without a span: the part of them no span on the rank's own track
    // covers is the part that was exposed.
    let intervals = |keep: &dyn Fn(&Span) -> bool| {
        merge(
            spans
                .iter()
                .filter(|s| keep(s))
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
        )
    };
    let tier = intervals(&|s| s.track == main_track(0) + 1 && s.cat == "tier");
    let busy = intervals(&|s| s.track == main_track(0) && s.cat != "bench");
    let tier_total: u64 = tier.iter().map(|(a, b)| b - a).sum();
    let tier_exposed = uncovered_ns(&tier, &busy);
    let (compute, wait, optimizer) = (by_cat("compute"), by_cat("wait"), by_cat("optimizer"));
    m.set("core.compute_share", share(compute), steps);
    m.set("core.exposed_wait_share", share(wait), steps);
    m.set("core.optimizer_share", share(optimizer), steps);
    m.set("core.tier_share", share(tier_total), steps);
    m.set("core.exposed_tier_share", share(tier_exposed), steps);
    m.set(
        "core.unattributed_share",
        1.0 - share(compute + wait + optimizer + tier_exposed),
        steps,
    );

    let overhead = percentile_ms(&traced.step_ns, 0.5) / percentile_ms(&base.step_ns, 0.5) - 1.0;
    m.set("trace.overhead_share", overhead, steps);
}

// ----- serve.* -----

fn completed(round: &RoundOut) -> impl Iterator<Item = &ServeResponse> {
    round.report.outcomes().iter().filter_map(|o| o.response())
}

fn steps(round: &RoundOut) -> u64 {
    round.report.ranks[0].batch_steps
}

fn run_serve(workload: Workload, opts: &RunOpts, rec: &mut Recorder) -> RunResult {
    let cfg = serving::config(
        workload,
        opts.seed,
        if opts.smoke { 8 } else { ROUND_REQUESTS },
    );
    let model = serving::model();
    let mut errors = Vec::new();
    let mut m = Metrics::default();

    if !opts.trace {
        let setups: Vec<f64> = (0..opts.reps(SETUP_REPEATS))
            .map(|_| rec.span("setup", || serving::setup_once(&cfg)).0)
            .collect();
        m.set("setup_s", median(&setups), setups.len());
    }
    // Both phases of a traced run serve the same rounds.
    let phases = opts.phases(1);
    let params = init_full_params(&model, opts.seed);
    let shards = serving::split_shards(&params, RANKS);
    let out = serving::run(&shards, &cfg, &phases, rec);

    // Round k is the same schedule in every phase: one reference each.
    let longest = out
        .iter()
        .map(|p| &p.rounds)
        .max_by_key(|rounds| rounds.len())
        .expect("a phase ran");
    let reference = reference_tokens(&params, longest);
    for (round, want) in out.iter().flat_map(|p| p.rounds.iter().zip(&reference)) {
        check_served(&mut errors, want, params.len(), round);
    }

    let base = &out[0].rounds;
    let sent: usize = base.iter().map(|r| r.requests.len()).sum();
    let latency: Vec<u64> = base
        .iter()
        .flat_map(completed)
        .map(|r| r.latency_ns)
        .collect();
    if opts.trace {
        serve_layers(&mut m, &cfg, opts, &out[0], &out[1], &params, rec);
    } else {
        // Goodput, round by round; the median keeps a burst of outside
        // interference out of the number.
        let rates: Vec<f64> = base
            .iter()
            .map(|r| completed(r).map(|c| c.decode_steps).sum::<u64>() as f64 / r.wall_s)
            .collect();
        m.set("tokens_per_s", median(&rates), rates.len());
        m.set(
            "latency_ms_p50",
            percentile_ms(&latency, 0.50),
            latency.len(),
        );
        m.set(
            "latency_ms_p90",
            percentile_ms(&latency, 0.90),
            latency.len(),
        );
        // What a serving rank reserves on its device: its shard plus the
        // transient gather window plus the whole KV arena.
        let ranks = base.iter().flat_map(|r| &r.report.ranks);
        let peak = ranks
            .map(|r| r.param_bytes_peak + r.kv_arena_bytes)
            .max()
            .expect("a round ran");
        m.set("peak_device_bytes", peak as f64, RANKS);
    }
    RunResult {
        workload,
        correct: errors.is_empty(),
        errors,
        attempted: sent as u64,
        failed: (sent - latency.len()) as u64,
        metrics: m.in_table(if opts.trace { &PER_LAYER } else { &END_TO_END }),
    }
}

/// The greedy reference continuation of every request of every round,
/// the rounds split over two threads.
fn reference_tokens(params: &[f32], rounds: &[RoundOut]) -> Vec<Vec<Vec<u32>>> {
    let gpt = Gpt::new(serving::model());
    let decode = |rounds: &[RoundOut]| -> Vec<Vec<Vec<u32>>> {
        rounds
            .iter()
            .map(|round| {
                round
                    .requests
                    .iter()
                    .map(|r| serving::reference_greedy(&gpt, params, r))
                    .collect()
            })
            .collect()
    };
    let (front, back) = rounds.split_at(rounds.len() / 2);
    let (mut a, b) = std::thread::scope(|s| {
        let back = s.spawn(|| decode(back));
        (
            decode(front),
            back.join().expect("the reference decoder panicked"),
        )
    });
    a.extend(b);
    a
}

/// Every completed request's tokens equal the single-process greedy
/// `reference`, the ranks agree, and parameter memory stays inside
/// 4Ψ(2/N + ε).
fn check_served(errors: &mut Vec<String>, reference: &[Vec<u32>], psi: usize, round: &RoundOut) {
    for (want, outcome) in reference.iter().zip(round.report.outcomes()) {
        if let Some(resp) = outcome.response() {
            if &resp.tokens != want {
                errors.push(format!(
                    "request {}: tokens differ from the incremental decoder",
                    resp.id
                ));
            }
        }
    }
    if let Err(e) = round.report.check_ranks_agree() {
        errors.push(format!("serving ranks disagree: {e}"));
    }
    let n = round.report.ranks.len();
    let bound = (4.0 * psi as f64 * (2.0 / n as f64 + PARAM_BOUND_EPSILON)) as u64;
    let peak = round
        .report
        .ranks
        .iter()
        .map(|r| r.param_bytes_peak)
        .max()
        .expect("ranks");
    if peak > bound {
        errors.push(format!(
            "param_bytes_peak {peak} exceeds 4Ψ(2/N + ε) = {bound}"
        ));
    }
}

/// Per-layer metrics of a traced serving run. Counts come from the first
/// traced round alone: it is the same schedule whatever the machine's
/// speed, so they repeat exactly for a seed.
fn serve_layers(
    m: &mut Metrics,
    cfg: &serving::ServeCfg,
    opts: &RunOpts,
    base: &ServePhase,
    traced: &ServePhase,
    params: &[f32],
    rec: &mut Recorder,
) {
    let model = serving::model();
    let gpt = Gpt::new(model);
    let first = &traced.rounds[0];
    let r0 = &first.report.ranks[0];
    let first_steps = r0.batch_steps as usize;
    let done: Vec<&ServeResponse> = completed(first).collect();

    m.set("serve.batch_steps", first_steps as f64, 1);
    let busy_slot_steps: u64 = done.iter().map(|r| r.prefill_steps + r.decode_steps).sum();
    m.set(
        "serve.batch_occupancy",
        busy_slot_steps as f64 / (first_steps * cfg.serve.slots) as f64,
        first_steps,
    );
    let mut queue: Vec<u64> = done.iter().map(|r| r.queue_steps).collect();
    let mut ttft: Vec<u64> = done
        .iter()
        .map(|r| r.queue_steps + r.prefill_steps + 1)
        .collect();
    m.set(
        "serve.queue_steps_p95",
        percentile_of(&mut queue, 0.95) as f64,
        done.len(),
    );
    m.set(
        "serve.ttft_steps_p95",
        percentile_of(&mut ttft, 0.95) as f64,
        done.len(),
    );
    let prompt_rows: usize = done
        .iter()
        .map(|r| first.requests[r.id as usize].prompt.len() - 1)
        .sum();
    m.set(
        "serve.prefix_hit_rate",
        r0.kv_meters.prefix_hit_rows as f64 / prompt_rows.max(1) as f64,
        prompt_rows,
    );
    m.set(
        "serve.kv_bytes_allocated",
        r0.kv_meters.bytes_allocated as f64,
        1,
    );
    m.set(
        "serve.kv_bytes_live_peak",
        r0.kv_meters.bytes_live_peak as f64,
        1,
    );
    // Load is open-loop in batch-step time — the engine's virtual clock,
    // which fast-forwards idle gaps — so the generator cannot run late.
    m.set("serve.generator_lag_steps", 0.0, first.requests.len());

    // Times: the untraced rounds for what a step costs, the traced
    // rounds' spans for where it went, their ratio for what tracing costs.
    let step_ms = |phase: &ServePhase| {
        median(
            &phase
                .rounds
                .iter()
                .map(|r| r.wall_s * 1e3 / steps(r) as f64)
                .collect::<Vec<_>>(),
        )
    };
    m.set("serve.step_ms", step_ms(base), base.rounds.len());
    m.set(
        "trace.overhead_share",
        step_ms(traced) / step_ms(base) - 1.0,
        traced.rounds.len(),
    );
    let traced_steps = traced.rounds.iter().map(steps).sum::<u64>() as usize;
    m.set(
        "serve.gather_bytes_per_step",
        traced.traffic.total_bytes() as f64 / traced_steps as f64,
        traced_steps,
    );
    let gather_wait: u64 = rec
        .spans
        .iter()
        .filter(|s| s.track == main_track(0) && s.name == "gather-wait")
        .map(Span::duration_ns)
        .sum();
    m.set(
        "serve.gather_wait_ms_per_step",
        ms(gather_wait) / traced_steps as f64,
        traced_steps,
    );
    comm_metrics(m, &traced.traffic, &traced.timing, &rec.spans, traced_steps);

    // Probes.
    m.set(
        "model.decode_ms_per_token",
        probes::decode_token(rec, &gpt, params, model.seq),
        model.seq,
    );
    m.set(
        "serve.kv_ops_us",
        probes::kv_ops(rec, &model, cfg.serve.kv, &first.requests),
        first.requests.len(),
    );
    let unit_elems = gpt.layout().units()[1].range.len();
    let reps = opts.reps(5);
    let (gather_ms, _) =
        probes::collectives(rec, &Default::default(), unit_elems, Precision::Fp32, reps);
    m.set("comm.all_gather_probe_ms", gather_ms, reps);
}
