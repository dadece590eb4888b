//! The case table: one generator per paper table, figure or extension,
//! each returning serializable rows.
//!
//! [`CASES`] names them. `zero-sim` (`src/bin/zero-sim.rs`) runs one case
//! or every case that writes an artifact, writes each one's rows to
//! `results/<name>.json` and prints them through [`render`], the one row
//! printer. EXPERIMENTS.md records paper-vs-measured for each.

use serde::Serialize;
use serde_json::Value;

use crate::cluster::ClusterSpec;
use crate::configs::{SEQ, TABLE10_FIG4, TABLE3_CONFIGS, TABLE5_FIG2, TABLE6_FIG3};
use crate::des::{overlap_fraction, simulate_overlapped, simulate_serial, DesConfig};
use crate::fragmentation::simulate_training_fragmentation;
use crate::memory::{MemoryModel, SimWorkload};
use crate::perf::{dp_volume_elems, PerfModel, RunConfig};
use crate::pipeline::{compare_zero_vs_pp, PpComparison};
use zero_comm::{CollectiveKind, Grid};
use zero_core::{run_training, CkptPlace, TrainSetup, ZeroConfig, ZeroStage};
use zero_model::{Layout, ModelConfig};

const GB: f64 = 1e9;
const STAGES: [ZeroStage; 4] = [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three];

/// One experiment: its name (also its results file's), a title, and the
/// function computing its rows as pretty JSON.
pub struct Case {
    pub name: &'static str,
    pub title: &'static str,
    /// Whether the case is a committed artifact: `zero-sim` with no
    /// `--case` runs it and writes `results/<name>.json`.
    pub writes: bool,
    pub run: fn(&AdvisorQuery) -> String,
}

const fn artifact(
    name: &'static str,
    title: &'static str,
    run: fn(&AdvisorQuery) -> String,
) -> Case {
    Case { name, title, writes: true, run }
}

fn json<T: Serialize>(rows: T) -> String {
    serde_json::to_string_pretty(&rows).expect("the vendored serializer cannot fail")
}

/// Every case, in report order; only the advisor reads its argument.
pub const CASES: &[Case] = &[
    artifact("table1", "Table 1 — model-state GB per device, K = 12", |_| json(table1())),
    artifact("table2", "Table 2 — max model size (B params), N_d = 64", |_| json(table2())),
    artifact("fig1", "Figure 1 — model-state GB, Ψ = 7.5B, N_d = 64, K = 12", |_| json(fig1())),
    artifact("fig2", "Figure 2 — ZeRO vs Megatron baseline, Tf/GPU (Table 5)", |_| json(fig2())),
    artifact("fig2_detail", "Figure 2 dissected — step-time split (s)", |_| json(fig2_detail())),
    artifact("fig3", "Figure 3 — 60B superlinear scaling (Table 6)", |_| json(fig3())),
    artifact("fig4", "Figure 4 — no MP on 128 GPUs (Table 10)", |_| json(fig4())),
    artifact("fig5", "Figure 5 (substituted) — validation ppl, large vs small", |_| json(fig5())),
    artifact("fig6", "Figure 6 — max model size per C1–C5, MP 16 on 400 GPUs", |_| json(fig6())),
    artifact("fig7", "Figure 7 — peak per-GPU memory (GB) per C1–C5", |_| json(fig7())),
    artifact("fig8", "Figure 8 — throughput per C1–C5 (Tf/GPU, 0 = OOM)", |_| json(fig8())),
    artifact("comm_volume", "§7 — measured DP volume vs paper, elements", |_| json(comm_volume())),
    artifact("engine_memory", "§3.1 — state bytes, engine vs formula", |_| json(engine_memory())),
    artifact("overlap_ablation", "§6.2 — overlap vs CB bucket size", |_| json(overlap_ablation())),
    artifact("scaling_sweep", "§10.3 — 60B scaling to 1024 GPUs", |_| json(scaling_sweep())),
    artifact("mp_scaling", "§1 — 40B Megatron model vs MP degree", |_| json(mp_scaling())),
    artifact("fragmentation", "§3.2/§6.3 — heap fragmentation vs MD", |_| json(fragmentation())),
    artifact("pp_compare", "§2.1 — ZeRO-3 vs pipeline parallelism, 100B", |_| json(pp_compare())),
    Case {
        writes: false,
        ..artifact("stage_advisor", "§4/§9 — stage advisor", |q| json(stage_advisor(q)))
    },
];

/// Renders a case's serialized rows: an array of flat objects as a table
/// (aligned text, or markdown when `md`); an object's scalar fields as
/// `name = value` lines and its array fields as tables of their own.
pub fn render(value: &Value, md: bool) -> String {
    let mut out = String::new();
    match value {
        Value::Array(rows) => table(rows, md, &mut out),
        Value::Object(fields) => {
            for (name, field) in fields {
                if let Value::Array(rows) = field {
                    if !out.is_empty() && !out.ends_with("\n\n") {
                        out.push('\n');
                    }
                    out.push_str(&format!("{name}:\n\n"));
                    table(rows, md, &mut out);
                    out.push('\n');
                } else {
                    let bullet = if md { "- " } else { "" };
                    out.push_str(&format!("{bullet}{name} = {}\n", cell(field)));
                }
            }
        }
        scalar => out.push_str(&cell(scalar)),
    }
    out
}

fn table(rows: &[Value], md: bool, out: &mut String) {
    let Some(Value::Object(first)) = rows.first() else { return };
    let head: Vec<String> = first.iter().map(|(name, _)| name.clone()).collect();
    let mut lines = vec![head.clone()];
    lines.extend(rows.iter().map(|row| {
        head.iter().map(|name| row.get(name).map_or_else(String::new, cell)).collect::<Vec<_>>()
    }));
    if md {
        for (i, line) in lines.iter().enumerate() {
            out.push_str(&format!("| {} |\n", line.join(" | ")));
            if i == 0 {
                out.push_str(&format!("|{}\n", "---|".repeat(head.len())));
            }
        }
        return;
    }
    let width = |c: usize| lines.iter().map(|l| l[c].chars().count()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..head.len()).map(width).collect();
    for line in &lines {
        let cells: Vec<String> =
            line.iter().zip(&widths).map(|(s, w)| format!("{s:>w$}")).collect();
        out.push_str(&cells.join("  "));
        out.push('\n');
    }
}

/// A number keeps up to four decimals (integers none); anything else as is.
fn cell(v: &Value) -> String {
    match v {
        Value::Number(x) if x.fract() == 0.0 => format!("{x:.0}"),
        Value::Number(x) => {
            format!("{x:.4}").trim_end_matches('0').trim_end_matches('.').to_string()
        }
        Value::String(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

// ---------------------------------------------------------------- Table 1

/// One Table 1 row: per-device model-state GB at a DP degree.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Table1Row {
    pub dp: usize,
    pub model_b: f64,
    pub pos_gb: f64,
    pub pos_g_gb: f64,
    pub pos_g_p_gb: f64,
}

/// Regenerates Table 1 (per-device model-state memory vs. DP degree for
/// 7.5B / 128B / 1T models, K = 12).
pub fn table1() -> Vec<Table1Row> {
    let m = MemoryModel::default();
    let mut rows = Vec::new();
    for &dp in &[1usize, 4, 16, 64, 256, 1024] {
        for &model_b in &[7.5_f64, 128.0, 1000.0] {
            let psi = model_b * 1e9;
            rows.push(Table1Row {
                dp,
                model_b,
                pos_gb: m.model_state_bytes(psi, ZeroStage::One, dp as f64) / GB,
                pos_g_gb: m.model_state_bytes(psi, ZeroStage::Two, dp as f64) / GB,
                pos_g_p_gb: m.model_state_bytes(psi, ZeroStage::Three, dp as f64) / GB,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Table 2

/// One Table 2 row: max model sizes at an MP degree.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Table2Row {
    pub mp: usize,
    pub gpus: usize,
    pub theory_baseline_b: f64,
    pub theory_pos_b: f64,
    pub theory_pos_g_b: f64,
    pub theory_pos_g_p_b: f64,
    pub measured_baseline_b: f64,
    pub measured_pos_b: f64,
}

/// Regenerates Table 2: theoretical max model size from the state
/// arithmetic, and "measured" max from the full memory model (states +
/// activations + buffers at the paper's batch sizes), N_d = 64.
pub fn table2() -> Vec<Table2Row> {
    let m = MemoryModel::default();
    let cluster = ClusterSpec::dgx2_v100();
    let nd = 64.0;
    let mut rows = Vec::new();
    for &mp in &[1usize, 2, 4, 8, 16] {
        let theory = |stage| m.max_theoretical_params(&cluster, stage, nd, mp as f64) / GB;
        // "Measured": largest model that actually runs with batch 8,
        // checkpointing on, seq 1024 — activations and buffers eat into
        // the theoretical bound exactly as the paper observes.
        let measured = |stage| {
            m.max_model_params(
                &cluster,
                if mp >= 4 { 8192 } else { 4096 },
                SEQ,
                8,
                stage,
                nd,
                mp as f64,
                Some(CkptPlace::Whole),
            ) / GB
        };
        rows.push(Table2Row {
            mp,
            gpus: 64 * mp,
            theory_baseline_b: theory(ZeroStage::Ddp),
            theory_pos_b: theory(ZeroStage::One),
            theory_pos_g_b: theory(ZeroStage::Two),
            theory_pos_g_p_b: theory(ZeroStage::Three),
            measured_baseline_b: measured(ZeroStage::Ddp),
            measured_pos_b: measured(ZeroStage::One),
        });
    }
    rows
}

// ---------------------------------------------------------------- Fig. 1

/// One Figure 1 bar: memory at a stage for the worked example.
#[derive(Clone, Debug, Serialize)]
pub struct Fig1Row {
    pub stage: String,
    pub formula: String,
    pub gb: f64,
}

/// Regenerates Figure 1's example: Ψ = 7.5B, N_d = 64, K = 12.
pub fn fig1() -> Vec<Fig1Row> {
    let m = MemoryModel::default();
    let psi = 7.5e9;
    let nd = 64.0;
    let mk = |stage: ZeroStage, formula: &str| Fig1Row {
        stage: stage.name().to_string(),
        formula: formula.to_string(),
        gb: m.model_state_bytes(psi, stage, nd) / GB,
    };
    vec![
        mk(ZeroStage::Ddp, "(2+2+K)·Ψ"),
        mk(ZeroStage::One, "2Ψ+2Ψ+KΨ/Nd"),
        mk(ZeroStage::Two, "2Ψ+(2+K)Ψ/Nd"),
        mk(ZeroStage::Three, "(2+2+K)Ψ/Nd"),
    ]
}

// ---------------------------------------------------------------- Fig. 2

/// One Figure 2 point: ZeRO vs. baseline throughput at a model size.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig2Row {
    pub size_b: f64,
    pub zero_tflops: f64,
    pub baseline_tflops: f64,
    pub speedup: f64,
    pub zero_aggregate_pflops: f64,
}

/// Regenerates Figure 2 from the Table 5 configurations.
pub fn fig2() -> Vec<Fig2Row> {
    let perf = PerfModel::default();
    let mut rows = Vec::new();
    for z in TABLE5_FIG2.iter().filter(|r| r.zero) {
        let Some(b) = TABLE5_FIG2.iter().find(|r| !r.zero && r.size_b == z.size_b) else { continue };
        let zt = perf.tflops_per_gpu(&z.run_config());
        let bt = perf.tflops_per_gpu(&b.run_config());
        rows.push(Fig2Row {
            size_b: z.size_b,
            zero_tflops: zt,
            baseline_tflops: bt,
            speedup: zt / bt,
            zero_aggregate_pflops: perf.aggregate_pflops(&z.run_config()),
        });
    }
    rows
}

// ---------------------------------------------------------------- Fig. 3

/// One Figure 3 point: 60B model at a GPU count.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig3Row {
    pub gpus: usize,
    pub batch_per_gpu: usize,
    pub tflops_per_gpu: f64,
    pub aggregate_pflops: f64,
    pub speedup_vs_64: f64,
    pub perfect_linear: f64,
}

/// Regenerates Figure 3: superlinear scalability of the 60B model.
pub fn fig3() -> Vec<Fig3Row> {
    let perf = PerfModel::default();
    let mut base = None;
    let mut rows = Vec::new();
    for row in TABLE6_FIG3 {
        let cfg = row.run_config();
        let agg = perf.aggregate_pflops(&cfg);
        let b = *base.get_or_insert(agg);
        rows.push(Fig3Row {
            gpus: row.gpus,
            batch_per_gpu: row.batch,
            tflops_per_gpu: perf.tflops_per_gpu(&cfg),
            aggregate_pflops: agg,
            speedup_vs_64: agg / b,
            perfect_linear: row.gpus as f64 / 64.0,
        });
    }
    rows
}

// ---------------------------------------------------------------- Fig. 4

/// One Figure 4 point: ZeRO without MP.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig4Row {
    pub size_b: f64,
    pub zero: bool,
    pub fits: bool,
    pub tflops_per_gpu: f64,
}

/// Regenerates Figure 4: max throughput without MP on 128 GPUs; the DDP
/// baseline dies at 1.4B while ZeRO reaches 13B.
pub fn fig4() -> Vec<Fig4Row> {
    TABLE10_FIG4
        .iter()
        .map(|row| {
            let (fits, tflops_per_gpu) = fit_and_tflops(&row.run_config());
            Fig4Row { size_b: row.size_b, zero: row.zero, fits, tflops_per_gpu }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 6

/// One Figure 6 bar: max model size under a Table 3 configuration.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig6Row {
    pub config: u8,
    pub stage: &'static str,
    pub pa: bool,
    pub pa_cpu: bool,
    pub max_params_b: f64,
}

/// Regenerates Figure 6: largest trainable model per C1–C5 at MP 16 on
/// 400 GPUs (N_d = 25), batch 16, h = 8192 (Table 7 shapes).
pub fn fig6() -> Vec<Fig6Row> {
    let mem = MemoryModel::default();
    let cluster = ClusterSpec::dgx2_v100();
    TABLE3_CONFIGS
        .iter()
        .map(|c| Fig6Row {
            config: c.id,
            stage: c.stage.name(),
            pa: c.ckpt.is_some_and(CkptPlace::partitioned),
            pa_cpu: c.ckpt == Some(CkptPlace::Host),
            max_params_b: mem.max_model_params(&cluster, 8192, SEQ, 16, c.stage, 25.0, 16.0, c.ckpt)
                / GB,
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 7

/// One Figure 7 bar: peak per-GPU memory for a model under C1–C5.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig7Row {
    pub config: u8,
    pub model_b: f64,
    pub cached_gb: f64,
}

/// Regenerates Figure 7: max cached memory for the 40B and 100B models
/// per configuration (Table 8 shapes: 40B = 50×8192 b16, 100B = 125×8192
/// b32, MP 16 on 400 GPUs).
pub fn fig7() -> Vec<Fig7Row> {
    let mem = MemoryModel::default();
    let mut rows = Vec::new();
    for (model_b, layers, batch) in [(40.0, 50usize, 16usize), (100.0, 125, 32)] {
        for c in &TABLE3_CONFIGS {
            let w = SimWorkload {
                layers,
                hidden: 8192,
                seq: SEQ,
                batch_per_gpu: batch,
            };
            rows.push(Fig7Row {
                config: c.id,
                model_b,
                cached_gb: mem.total_bytes(&w, c.stage, 25.0, 16.0, c.ckpt) / GB,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Fig. 8

/// One Figure 8 bar: best throughput per configuration.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig8Row {
    pub config: u8,
    pub model_b: f64,
    pub batch_per_gpu: usize,
    pub fits: bool,
    pub tflops_per_gpu: f64,
}

/// Regenerates Figure 8: best achievable throughput per C1–C5 for the
/// 60B model (Table 9's best batches per config on 128 GPUs) and the
/// 170B model (which §10.5 says only executes with P_a+cpu; 400 GPUs,
/// batch 12).
pub fn fig8() -> Vec<Fig8Row> {
    let runs = [(60.0, 75, 8, [2usize, 4, 8, 32, 32]), (170.0, 212, 25, [12; 5])];
    let mut rows = Vec::new();
    for (model_b, layers, nd, batches) in runs {
        for (c, &batch_per_gpu) in TABLE3_CONFIGS.iter().zip(&batches) {
            let (fits, tflops_per_gpu) = fit_and_tflops(&RunConfig {
                workload: SimWorkload { layers, hidden: 8192, seq: SEQ, batch_per_gpu },
                stage: c.stage,
                nd,
                mp: 16,
                ckpt: c.ckpt,
            });
            rows.push(Fig8Row { config: c.id, model_b, batch_per_gpu, fits, tflops_per_gpu });
        }
    }
    rows
}

/// Whether `cfg` fits a 32 GB V100, and its Tflops/GPU if it does (else 0).
fn fit_and_tflops(cfg: &RunConfig) -> (bool, f64) {
    let (perf, mem) = (PerfModel::default(), MemoryModel::default());
    let (nd, mp) = (cfg.nd as f64, cfg.mp as f64);
    let fits = mem.fits(&perf.cluster, &cfg.workload, cfg.stage, nd, mp, cfg.ckpt);
    (fits, if fits { perf.tflops_per_gpu(cfg) } else { 0.0 })
}

// ------------------------------------------------------- Fig. 2, dissected

/// One Table 5 row's step-time decomposition: *why* ZeRO wins where it wins.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct DetailRow {
    pub size_b: f64,
    pub system: &'static str,
    pub gpus: usize,
    pub mp: usize,
    pub batch: usize,
    pub compute_s: f64,
    pub mp_comm_s: f64,
    pub dp_comm_s: f64,
    pub total_s: f64,
    pub tflops_per_gpu: f64,
}

/// Figure 2 dissected into compute / MP comm / exposed DP comm per row.
pub fn fig2_detail() -> Vec<DetailRow> {
    let perf = PerfModel::default();
    TABLE5_FIG2
        .iter()
        .map(|row| {
            let cfg = row.run_config();
            let t = perf.step_time(&cfg);
            DetailRow {
                size_b: row.size_b,
                system: if row.zero { "ZeRO" } else { "baseline" },
                gpus: row.gpus,
                mp: row.mp,
                batch: row.batch,
                compute_s: t.compute,
                mp_comm_s: t.mp_comm,
                dp_comm_s: t.dp_comm,
                total_s: t.total,
                tflops_per_gpu: perf.tflops_per_gpu(&cfg),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 5

/// One Figure 5 evaluation point.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig5Point {
    pub step: usize,
    pub small_ppl: f32,
    pub large_ppl: f32,
}

/// Figure 5's curves plus the DDP-vs-ZeRO-2 convergence check.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Result {
    pub small_params: usize,
    pub large_params: usize,
    pub points: Vec<Fig5Point>,
    pub ddp_final_loss: f32,
    pub zero_final_loss: f32,
}

/// Figure 5's training schedule, in steps (the committed artifact's).
const FIG5_STEPS: usize = 120;

/// Figure 5 substitute (DESIGN.md §1): Turing-NLG 17B vs Megatron 8.3B
/// become a large / small transformer on a synthetic corpus, trained end
/// to end by the ZeRO-2 engine. Reproduces the *relative* claims: the
/// larger model reaches lower validation perplexity over the same
/// schedule, and ZeRO-2's losses equal plain DDP's.
pub fn fig5() -> Fig5Result {
    let setup = |model, stage| TrainSetup {
        model,
        zero: ZeroConfig {
            stage,
            fp16: true,
            initial_loss_scale: 128.0,
            checkpoint_activations: true,
            ..ZeroConfig::default()
        },
        grid: Grid::new(2, 1),
        global_batch: 8,
        seed: 11,
    };
    let small = ModelConfig { vocab: 64, seq: 32, hidden: 48, layers: 2, heads: 4 };
    let large = ModelConfig { vocab: 64, seq: 32, hidden: 96, layers: 4, heads: 8 };
    let eval_every = FIG5_STEPS / 12;
    let small_rep = run_training(&setup(small, ZeroStage::Two), FIG5_STEPS, eval_every);
    let large_rep = run_training(&setup(large, ZeroStage::Two), FIG5_STEPS, eval_every);
    // Convergence equivalence at the large size, over the first 30 steps.
    let final_loss = |stage| *run_training(&setup(large, stage), 30, 0).losses.last().unwrap();
    let val_losses = small_rep.val_losses.iter().zip(&large_rep.val_losses);
    Fig5Result {
        small_params: Layout::build(&small).total_params(),
        large_params: Layout::build(&large).total_params(),
        points: val_losses
            .enumerate()
            .map(|(i, (s, l))| Fig5Point {
                step: (i + 1) * eval_every,
                small_ppl: s.exp(),
                large_ppl: l.exp(),
            })
            .collect(),
        ddp_final_loss: final_loss(ZeroStage::Ddp),
        zero_final_loss: final_loss(ZeroStage::Two),
    }
}

// ------------------------------------------------------- engine-measured §7

/// The engine model the measured §7 / §3.1 cases train.
const ENGINE_MODEL: ModelConfig =
    ModelConfig { vocab: 48, seq: 8, hidden: 32, layers: 3, heads: 4 };

fn engine_setup(stage: ZeroStage, nd: usize, zero: ZeroConfig, seed: u64) -> TrainSetup {
    TrainSetup {
        model: ENGINE_MODEL,
        zero: ZeroConfig { stage, fp16: true, ..zero },
        grid: Grid::new(nd, 1),
        global_batch: 4,
        seed,
    }
}

/// One stage's measured DP volume next to the paper's §7 figure.
#[derive(Clone, Debug, Serialize)]
pub struct VolumeRow {
    pub stage: String,
    pub psi: usize,
    pub nd: usize,
    pub measured_elems_per_step: f64,
    pub paper_elems_per_step: f64,
    pub ratio_vs_baseline: f64,
}

/// §7 on the functional engine: per-rank fp16 collective elements per
/// step (the 1-element overflow-flag all-reduce included) vs the paper's
/// 2Ψ / 3Ψ in exact ring terms.
pub fn comm_volume() -> Vec<VolumeRow> {
    let (psi, nd, steps) = (ENGINE_MODEL.total_params(), 4, 3);
    let zero = ZeroConfig {
        initial_loss_scale: 1.0,
        checkpoint_activations: false,
        bucket_elems: 2048,
        ..ZeroConfig::default()
    };
    let mut baseline = 0.0;
    STAGES
        .iter()
        .map(|&stage| {
            let report = run_training(&engine_setup(stage, nd, zero, 9), steps, 0);
            let t = &report.ranks[0].traffic;
            let bytes = t.bytes(CollectiveKind::AllReduce)
                + t.bytes(CollectiveKind::ReduceScatter)
                + t.bytes(CollectiveKind::AllGather);
            let elems = bytes as f64 / 2.0 / steps as f64;
            if stage == ZeroStage::Ddp {
                baseline = elems;
            }
            VolumeRow {
                stage: stage.name().to_string(),
                psi,
                nd,
                measured_elems_per_step: elems,
                paper_elems_per_step: dp_volume_elems(stage, psi as f64, nd),
                ratio_vs_baseline: elems / baseline,
            }
        })
        .collect()
}

/// One stage × N_d's measured model-state bytes next to its closed form.
#[derive(Clone, Debug, Serialize)]
pub struct MemRow {
    pub stage: String,
    pub nd: usize,
    pub psi: usize,
    pub measured_bytes: u64,
    pub formula_bytes: u64,
    pub exact_match: bool,
}

/// Table 2's right half at engine scale: rank 0's tracked peak
/// model-state bytes equal 16Ψ / 4Ψ+12Ψ/N_d / 2Ψ+14Ψ/N_d / 16Ψ/N_d exactly.
pub fn engine_memory() -> Vec<MemRow> {
    let psi = ENGINE_MODEL.total_params() as u64;
    let mut rows = Vec::new();
    for nd in [1usize, 2, 4] {
        let shard = zero_comm::chunk_range(psi as usize, nd, 0).len() as u64;
        for stage in STAGES {
            let report = run_training(&engine_setup(stage, nd, ZeroConfig::default(), 2), 1, 0);
            let measured = report.ranks[0].peak_model_state_bytes;
            let formula = match stage {
                ZeroStage::Ddp => 16 * psi,
                ZeroStage::One => 4 * psi + 12 * shard,
                ZeroStage::Two => 2 * psi + 14 * shard,
                ZeroStage::Three => 16 * shard,
            };
            rows.push(MemRow {
                stage: stage.name().to_string(),
                nd,
                psi: psi as usize,
                measured_bytes: measured,
                formula_bytes: formula,
                exact_match: measured == formula,
            });
        }
    }
    assert!(rows.iter().all(|r| r.exact_match), "a formula mismatch slipped in");
    rows
}

// ---------------------------------------------------------------- ablations

/// One CB bucket size's overlap, from the discrete-event simulator.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct OverlapRow {
    pub bucket_mb: f64,
    pub collectives: usize,
    pub exposed_comm_s: f64,
    pub serial_comm_s: f64,
    pub overlap_fraction: f64,
    pub step_time_s: f64,
}

/// §5.2/§6.2: how much gradient traffic hides behind backward as the CB
/// bucket grows, at the 100B-on-400-GPUs point (per GPU at MP 16: 125
/// layers, 12.5 GB fp16 gradients, backward ≈ 13 s, 6.25 GB/s shared-NIC
/// DP bandwidth, 0.5 ms ring latency).
pub fn overlap_ablation() -> Vec<OverlapRow> {
    let layers = 125;
    let base = DesConfig {
        layers,
        layer_compute: 13.0 / layers as f64,
        layer_grad_bytes: 12.5e9 / layers as f64,
        bucket_bytes: 0.0,
        bandwidth: 6.25e9,
        latency: 5e-4,
    };
    [1.0_f64, 8.0, 64.0, 512.0, 4096.0, 16384.0]
        .iter()
        .map(|&bucket_mb| {
            let cfg = DesConfig { bucket_bytes: bucket_mb * 1e6, ..base };
            let (o, s) = (simulate_overlapped(&cfg), simulate_serial(&cfg));
            OverlapRow {
                bucket_mb,
                collectives: o.collectives,
                exposed_comm_s: o.exposed_comm,
                serial_comm_s: s.exposed_comm,
                overlap_fraction: overlap_fraction(&cfg),
                step_time_s: o.total,
            }
        })
        .collect()
}

/// One GPU count of the extended Figure 3 sweep.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SweepRow {
    pub gpus: usize,
    pub max_batch: usize,
    pub tflops_max_batch: f64,
    pub pflops_max_batch: f64,
    pub tflops_fixed_batch: f64,
    pub speedup_vs_64: f64,
    pub linear: f64,
}

/// §10.3's "we expect this trend to continue": the 60B model to 1024
/// GPUs, memory-driven max batch against a fixed batch of 16 — the
/// mechanism test for the superlinearity claim.
pub fn scaling_sweep() -> Vec<SweepRow> {
    let (perf, mem, mp) = (PerfModel::default(), MemoryModel::default(), 16);
    let mut base_pflops = None;
    [4usize, 8, 16, 25, 32, 48, 64]
        .iter()
        .map(|&nd| {
            let mut cfg = RunConfig {
                workload: SimWorkload { layers: 75, hidden: 8192, seq: SEQ, batch_per_gpu: 16 },
                stage: ZeroStage::Two,
                nd,
                mp,
                ckpt: Some(CkptPlace::Partitioned),
            };
            let max_batch = perf.max_batch_per_gpu(&mem, &cfg, 128).unwrap_or(0);
            let tflops_fixed_batch = perf.tflops_per_gpu(&cfg);
            cfg.workload.batch_per_gpu = max_batch.max(1);
            let pf = perf.aggregate_pflops(&cfg);
            let base = *base_pflops.get_or_insert(pf);
            SweepRow {
                gpus: nd * mp,
                max_batch,
                tflops_max_batch: perf.tflops_per_gpu(&cfg),
                pflops_max_batch: pf,
                tflops_fixed_batch,
                speedup_vs_64: pf / base,
                linear: (nd * mp) as f64 / (4 * mp) as f64,
            }
        })
        .collect()
}

/// One MP degree of the §1 sweep.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MpRow {
    pub mp: usize,
    pub crosses_node: bool,
    pub tflops_per_gpu: f64,
    pub peak_fraction: f64,
    pub mp_comm_share: f64,
}

/// §1's Megatron cliff: Table 5's 40B baseline shape over MP 1–64 —
/// throughput falls off the 16-GPU node boundary.
pub fn mp_scaling() -> Vec<MpRow> {
    let perf = PerfModel::default();
    [1usize, 2, 4, 8, 16, 32, 64]
        .iter()
        .map(|&mp| {
            let cfg = RunConfig {
                workload: SimWorkload { layers: 88, hidden: 6144, seq: SEQ, batch_per_gpu: 4 },
                stage: ZeroStage::Ddp,
                nd: 2, // a little DP on the side, like the baseline rows
                mp,
                ckpt: Some(CkptPlace::Whole),
            };
            let t = perf.step_time(&cfg);
            let tf = perf.tflops_per_gpu(&cfg);
            MpRow {
                mp,
                crosses_node: mp > perf.cluster.gpus_per_node,
                tflops_per_gpu: tf,
                peak_fraction: tf * 1e12 / perf.cluster.peak_flops,
                mp_comm_share: t.mp_comm / t.total,
            }
        })
        .collect()
}

/// One heap's state when the fused-buffer probe is attempted.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FragRow {
    pub md: bool,
    pub free_frac: f64,
    pub largest_extent_frac: f64,
    pub fragmentation: f64,
    pub probe_succeeded: bool,
}

/// §3.2/§6.3: the training allocation pattern fragments a first-fit heap
/// until a fused-buffer request OOMs with ~40% free; MD's pre-allocated
/// checkpoint region prevents it.
pub fn fragmentation() -> Vec<FragRow> {
    let cap = 6_000usize;
    [false, true]
        .iter()
        .map(|&md| {
            let r = simulate_training_fragmentation(cap, 60, 60, 90, 4, 2_000, md);
            FragRow {
                md,
                free_frac: r.free_total as f64 / cap as f64,
                largest_extent_frac: r.largest_extent as f64 / cap as f64,
                fragmentation: r.fragmentation,
                probe_succeeded: r.probe_succeeded,
            }
        })
        .collect()
}

/// §2.1: ZeRO-3 vs G-pipe and PipeDream state memory for 100B parameters,
/// devices = pipeline stages = DP degree = micro-batches.
pub fn pp_compare() -> Vec<PpComparison> {
    [4usize, 8, 16, 32, 64].iter().map(|&d| compare_zero_vs_pp(100e9, d, d)).collect()
}

// ---------------------------------------------------------------- advisor

/// What `zero-sim --case stage_advisor` is asked: a model size and a
/// cluster share (`--size-b`, `--gpus`, `--mp`, `--batch`).
#[derive(Clone, Copy, Debug)]
pub struct AdvisorQuery {
    pub size_b: f64,
    pub gpus: usize,
    pub mp: usize,
    pub batch: usize,
}

impl Default for AdvisorQuery {
    fn default() -> Self {
        AdvisorQuery { size_b: 100.0, gpus: 400, mp: 16, batch: 16 }
    }
}

/// One stage under one ZeRO-R lever set.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct AdviceRow {
    pub stage: &'static str,
    pub zero_r: &'static str,
    pub states_gb: f64,
    pub total_gb: f64,
    pub fits: bool,
    pub tflops_per_gpu: f64,
    /// DP volume relative to DDP at this N_d (§7).
    pub comm_factor: f64,
}

/// The largest model a stage fits here with every ZeRO-R lever on.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MaxModelRow {
    pub stage: &'static str,
    pub max_params_b: f64,
}

/// The advisor's answer.
#[derive(Clone, Debug, Serialize)]
pub struct Advice {
    pub size_b: f64,
    pub gpus: usize,
    pub mp: usize,
    pub nd: usize,
    pub batch: usize,
    pub configs: Vec<AdviceRow>,
    pub max_model: Vec<MaxModelRow>,
    pub recommendation: String,
}

/// The §4/§9 decision procedure: memory and throughput of every stage ×
/// ZeRO-R lever set, recommending the fastest that fits (the cheapest
/// levers at equal speed). `q.gpus` must be a positive multiple of `q.mp`.
pub fn stage_advisor(q: &AdvisorQuery) -> Advice {
    let (cluster, mem) = (ClusterSpec::dgx2_v100(), MemoryModel::default());
    let (psi, nd, nm) = (q.size_b * 1e9, q.gpus / q.mp, q.mp as f64);
    let workload = SimWorkload::with_params(8192, SEQ, q.batch, psi);
    let ddp_volume = dp_volume_elems(ZeroStage::Ddp, psi, nd);
    let levers = [
        ("ckpt", Some(CkptPlace::Whole)),
        ("ckpt+Pa", Some(CkptPlace::Partitioned)),
        ("ckpt+Pa+cpu", Some(CkptPlace::Host)),
    ];
    let mut configs = Vec::new();
    let mut best: Option<(ZeroStage, &str, f64)> = None;
    for stage in STAGES {
        for (zero_r, ckpt) in levers {
            let cfg = RunConfig { workload, stage, nd, mp: q.mp, ckpt };
            let (fits, tflops_per_gpu) = fit_and_tflops(&cfg);
            if fits && best.is_none_or(|(_, _, tf)| tflops_per_gpu > tf + 1e-9) {
                best = Some((stage, zero_r, tflops_per_gpu));
            }
            configs.push(AdviceRow {
                stage: stage.name(),
                zero_r,
                states_gb: mem.model_state_bytes(psi / nm, stage, nd as f64) / GB,
                total_gb: mem.total_bytes(&workload, stage, nd as f64, nm, ckpt) / GB,
                fits,
                tflops_per_gpu,
                comm_factor: if ddp_volume > 0.0 {
                    dp_volume_elems(stage, psi, nd) / ddp_volume
                } else {
                    0.0
                },
            });
        }
    }
    let (_, all_levers) = levers[2];
    let max_model = STAGES
        .iter()
        .map(|&stage| MaxModelRow {
            stage: stage.name(),
            max_params_b: mem
                .max_model_params(&cluster, 8192, SEQ, q.batch, stage, nd as f64, nm, all_levers)
                / GB,
        })
        .collect();
    let recommendation = match best {
        Some((stage, zero_r, tf)) => {
            let note = match stage {
                ZeroStage::Three => "; stage 3 pays 1.5x DP volume for N_d× less memory (§7.2.2)",
                _ => "",
            };
            format!("{} with {zero_r} (≈{tf:.1} Tflops/GPU){note}", stage.name())
        }
        None => format!(
            "nothing fits: stage-3 states alone need {:.1} GB/GPU; \
             add GPUs until 16Ψ/(N_m·N_d) fits (§5.4)",
            mem.model_state_bytes(psi / nm, ZeroStage::Three, nd as f64) / GB
        ),
    };
    let AdvisorQuery { size_b, gpus, mp, batch } = *q;
    Advice { size_b, gpus, mp, nd, batch, configs, max_model, recommendation }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_names_are_unique_and_only_the_advisor_writes_nothing() {
        for (i, case) in CASES.iter().enumerate() {
            assert!(CASES[..i].iter().all(|c| c.name != case.name), "{} listed twice", case.name);
        }
        let silent: Vec<&str> = CASES.iter().filter(|c| !c.writes).map(|c| c.name).collect();
        assert_eq!(silent, ["stage_advisor"]);
    }

    #[test]
    fn render_prints_a_row_table_nested_between_scalar_fields() {
        // fig5's shape: scalars, a row array, more scalars.
        let points = r#"[{"step":10,"ppl":48.36489},{"step":20,"ppl":8.5}]"#;
        let json = format!(r#"{{"small_params":64320,"points":{points},"loss":2.9794583}}"#);
        let value = serde_json::from_str(&json).unwrap();
        let text = render(&value, false);
        let table = "step      ppl\n  10  48.3649\n  20      8.5\n";
        assert_eq!(text, format!("small_params = 64320\n\npoints:\n\n{table}\nloss = 2.9795\n"));
        let md = render(&value, true);
        let table = "| step | ppl |\n|---|---|\n| 10 | 48.3649 |\n| 20 | 8.5 |\n";
        assert_eq!(md, format!("- small_params = 64320\n\npoints:\n\n{table}\n- loss = 2.9795\n"));
    }

    #[test]
    fn every_analytic_case_renders_one_line_per_row() {
        let engine = ["fig5", "comm_volume", "engine_memory"];
        for case in CASES.iter().filter(|c| !engine.contains(&c.name)) {
            let value = serde_json::from_str(&(case.run)(&AdvisorQuery::default())).unwrap();
            let text = render(&value, false);
            if let Value::Array(rows) = &value {
                assert_eq!(text.lines().count(), rows.len() + 1, "{}: header + rows", case.name);
            }
            let flat = !text.contains("Object") && !text.contains("Null");
            assert!(flat, "{}: a non-flat cell\n{text}", case.name);
        }
    }

    #[test]
    fn advisor_recommends_the_papers_170b_configuration() {
        // EXPERIMENTS.md: 170B on 400 GPUs at MP 16, batch 12 → P_os+g
        // with P_a+cpu, the configuration §10.5 names.
        let advice = stage_advisor(&AdvisorQuery { size_b: 170.0, gpus: 400, mp: 16, batch: 12 });
        assert_eq!(advice.nd, 25);
        let pick = &advice.recommendation;
        assert!(pick.starts_with("ZeRO-2 (Pos+g) with ckpt+Pa+cpu"), "{pick}");
        for row in &advice.configs {
            let want = if row.stage == ZeroStage::Three.name() { 1.5 } else { 1.0 };
            assert!((row.comm_factor - want).abs() < 1e-12, "{row:?}");
            assert!(row.total_gb > row.states_gb, "{row:?}");
        }
        assert_eq!(advice.max_model.len(), 4);
        assert!(advice.max_model[3].max_params_b > advice.max_model[2].max_params_b);
    }

    #[test]
    fn table1_reproduces_paper_cells() {
        let rows = table1();
        let cell = |dp: usize, b: f64| rows.iter().find(|r| r.dp == dp && r.model_b == b).unwrap();
        // Paper Table 1 spot values.
        let r = cell(64, 7.5);
        assert!((r.pos_gb - 31.4).abs() < 0.2, "{}", r.pos_gb);
        assert!((r.pos_g_gb - 16.6).abs() < 0.2);
        assert!((r.pos_g_p_gb - 1.88).abs() < 0.05);
        let r = cell(1024, 1000.0);
        assert!((r.pos_gb - 4011.0).abs() < 25.0);
        assert!((r.pos_g_gb - 2013.0).abs() < 15.0);
        assert!((r.pos_g_p_gb - 15.6).abs() < 0.5);
        let r = cell(16, 128.0);
        assert!((r.pos_gb - 608.0).abs() < 5.0);
        assert!((r.pos_g_p_gb - 128.0).abs() < 2.0);
    }

    #[test]
    fn table2_structure_and_trillion_claim() {
        let rows = table2();
        let r16 = rows.iter().find(|r| r.mp == 16).unwrap();
        // Paper: MP 16 @ 1024 GPUs → baseline 32B, Pos ~121.6B,
        // Pos+g ~230.4B, Pos+g+p ~2T.
        assert!((r16.theory_baseline_b - 34.4).abs() < 3.0, "{}", r16.theory_baseline_b);
        assert!((r16.theory_pos_b - 131.0).abs() < 12.0, "{}", r16.theory_pos_b);
        assert!((r16.theory_pos_g_b - 247.0).abs() < 20.0);
        assert!(r16.theory_pos_g_p_b > 1000.0, "trillion-parameter claim");
        // Measured < theoretical (residual states), but same order.
        assert!(r16.measured_pos_b < r16.theory_pos_b);
        assert!(r16.measured_pos_b > 0.4 * r16.theory_pos_b);
        // Measured baseline around the paper's ~1.3B·mp, i.e. far below 2B·mp.
        let r1 = rows.iter().find(|r| r.mp == 1).unwrap();
        assert!(r1.measured_baseline_b < r1.theory_baseline_b);
    }

    #[test]
    fn fig2_shape_zero_wins_big_and_baseline_collapses() {
        let rows = fig2();
        // ZeRO sustains high throughput across sizes…
        for r in &rows {
            assert!(r.zero_tflops > 25.0, "{}B: ZeRO {}", r.size_b, r.zero_tflops);
        }
        // …while the baseline collapses once MP crosses the node (>40B).
        for r in rows.iter().filter(|r| r.size_b >= 60.0) {
            assert!(r.baseline_tflops < 10.0, "{}B baseline {}", r.size_b, r.baseline_tflops);
            assert!(r.speedup > 5.0, "{}B speedup {}", r.size_b, r.speedup);
        }
        // Aggregate performance reaches the paper's ~15 Pflops ballpark.
        let best = rows.iter().map(|r| r.zero_aggregate_pflops).fold(0.0, f64::max);
        assert!(best > 10.0, "best aggregate {best} Pflops");
        // Small models: baseline is competitive (within ~2x).
        let small = rows.iter().find(|r| r.size_b == 1.5).unwrap();
        assert!(small.speedup < 3.0);
    }

    #[test]
    fn fig3_superlinear_scaling() {
        let rows = fig3();
        // Per-GPU throughput should RISE with GPU count (superlinearity).
        assert!(rows.last().unwrap().tflops_per_gpu > rows[0].tflops_per_gpu);
        // 64 → 128 GPUs: aggregate more than doubles.
        assert!(
            rows[1].speedup_vs_64 > 2.0 * rows[1].perfect_linear / 2.0 && rows[1].speedup_vs_64 > 2.0,
            "64→128 speedup {} not superlinear",
            rows[1].speedup_vs_64
        );
    }

    #[test]
    fn fig4_ddp_baseline_dies_zero_reaches_13b() {
        let rows = fig4();
        for r in &rows {
            if r.zero {
                assert!(r.fits, "{}B ZeRO row must fit", r.size_b);
            }
        }
        // DDP at 1.4B fits (barely); anything past it would not — verify
        // directly that DDP cannot hold 2B.
        let mem = MemoryModel::default();
        let cluster = ClusterSpec::dgx2_v100();
        let w = SimWorkload::with_params(2048, SEQ, 1, 2e9);
        assert!(!mem.fits(&cluster, &w, ZeroStage::Ddp, 128.0, 1.0, Some(CkptPlace::Whole)));
    }

    #[test]
    fn fig6_ordering_matches_paper() {
        let rows = fig6();
        // C1 < C2 ≤ … and C5 largest; C1 around 40B, C4 > 2× C2, C5 > C4.
        assert!(rows[0].max_params_b < rows[1].max_params_b);
        assert!(rows[3].max_params_b > 1.6 * rows[1].max_params_b);
        assert!(rows[4].max_params_b >= rows[3].max_params_b);
        assert!(
            (20.0..70.0).contains(&rows[0].max_params_b),
            "C1 = {}B should be ~40B",
            rows[0].max_params_b
        );
        assert!(
            rows[3].max_params_b > 100.0,
            "C4 = {}B should be >100B",
            rows[3].max_params_b
        );
    }

    #[test]
    fn fig7_memory_decreases_with_optimizations() {
        let rows = fig7();
        for model_b in [40.0, 100.0] {
            let cells: Vec<f64> = rows
                .iter()
                .filter(|r| r.model_b == model_b)
                .map(|r| r.cached_gb)
                .collect();
            assert!(cells[1] < cells[0], "{model_b}: C2 < C1");
            assert!(cells[3] < cells[2], "{model_b}: C4 < C3");
            assert!(cells[4] <= cells[3], "{model_b}: C5 ≤ C4");
        }
        // §10.5: the C4→C5 drop is noticeable for 100B, not for 40B
        // (relative terms).
        let get = |m: f64, c: usize| {
            rows.iter()
                .filter(|r| r.model_b == m)
                .map(|r| r.cached_gb)
                .nth(c)
                .unwrap()
        };
        let drop40 = (get(40.0, 3) - get(40.0, 4)) / get(40.0, 3);
        let drop100 = (get(100.0, 3) - get(100.0, 4)) / get(100.0, 3);
        assert!(drop100 > drop40, "100B offload saves relatively more");
    }

    #[test]
    fn fig8_shape() {
        let rows = fig8();
        let sixty: Vec<&Fig8Row> = rows.iter().filter(|r| r.model_b == 60.0).collect();
        // Throughput rises C1→C4 with the batch sizes, dips at C5.
        assert!(sixty[3].tflops_per_gpu > sixty[0].tflops_per_gpu);
        assert!(sixty[4].tflops_per_gpu < sixty[3].tflops_per_gpu, "C5 pays PCIe");
        // Every 60B config runs (the paper shows bars for all five).
        assert!(sixty.iter().all(|r| r.fits), "all 60B configs must fit");
        // 170B: §10.5 — "Pa+cpu is needed for the 170B model to execute
        // without running out of memory": only C5 fits.
        let seventy: Vec<&Fig8Row> = rows.iter().filter(|r| r.model_b == 170.0).collect();
        assert!(seventy[4].fits, "170B must fit under C5");
        for c in &seventy[..4] {
            assert!(!c.fits, "170B must OOM under C{}", c.config);
        }
    }
}
