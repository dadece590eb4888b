//! What the benchmark measures, by name: the metric tables
//! `BENCHMARK.json` repeats, the result of one run, and its JSON forms.

use std::fmt::Write as _;

/// The five workloads. Names are stable: issues and `BENCHMARK.json`
/// cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainCompute,
    TrainComm,
    TrainOffload,
    ServeShared,
    ServeBurst,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TrainCompute,
        Workload::TrainComm,
        Workload::TrainOffload,
        Workload::ServeShared,
        Workload::ServeBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainCompute => "train.compute",
            Workload::TrainComm => "train.comm",
            Workload::TrainOffload => "train.offload",
            Workload::ServeShared => "serve.shared",
            Workload::ServeBurst => "serve.burst",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A metric's fixed description. `bound` is the share of the parent's
/// median by which an end-to-end metric may worsen before a change counts
/// as a regression; per-layer metrics have none.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off. Every
/// workload reports every one. "Latency" is the time of one unit of
/// client-visible work: a `train_step` on `train.*` (a closed loop of one
/// client per rank), arrival → completion of a request on `serve.*`.
///
/// The time bounds are 0.25 because the two-core VM the workloads were
/// sized on drifts by ~8 % over minutes: across ten seeds the quartile
/// spread of a time metric is 3–10 % of its median (README, "Steadiness"),
/// and a bound has to clear three times that.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("tokens_per_s", "tokens/s", true, 0.25),
    e2e("latency_ms_p50", "ms", false, 0.25),
    e2e("latency_ms_p90", "ms", false, 0.25),
    e2e("peak_device_bytes", "bytes", false, 0.02),
    e2e("setup_s", "s", false, 0.25),
];

/// Single-layer metrics, named by crate; measured in the traced run. A
/// metric that does not apply to a workload reads 0 with `n` = 0.
pub const PER_LAYER: [MetricSpec; 44] = [
    higher("tensor.gemm_gflops", "GFLOP/s"),
    lower("tensor.gemm_ms_per_step", "ms"),
    lower("model.fwd_ms", "ms"),
    lower("model.bwd_ms", "ms"),
    lower("model.recompute_ms", "ms"),
    lower("model.decode_ms_per_token", "ms"),
    lower("optim.step_ms", "ms"),
    lower("comm.bytes_per_step", "bytes"),
    lower("comm.calls_per_step", "count"),
    lower("comm.all-reduce.bytes_per_step", "bytes"),
    lower("comm.all-reduce.calls_per_step", "count"),
    lower("comm.reduce-scatter.bytes_per_step", "bytes"),
    lower("comm.reduce-scatter.calls_per_step", "count"),
    lower("comm.all-gather.bytes_per_step", "bytes"),
    lower("comm.all-gather.calls_per_step", "count"),
    lower("comm.exec_ms_per_step", "ms"),
    lower("comm.wait_ms_per_step", "ms"),
    higher("comm.hidden_share", "ratio"),
    lower("comm.all_gather_probe_ms", "ms"),
    lower("comm.reduce_scatter_probe_ms", "ms"),
    lower("core.tier_bytes_per_step", "bytes"),
    lower("core.tier_ms_per_step", "ms"),
    lower("core.tier_probe_us", "us"),
    lower("core.peak_model_state_bytes", "bytes"),
    higher("core.compute_share", "ratio"),
    lower("core.exposed_wait_share", "ratio"),
    lower("core.optimizer_share", "ratio"),
    lower("core.tier_share", "ratio"),
    lower("core.exposed_tier_share", "ratio"),
    lower("core.unattributed_share", "ratio"),
    higher("core.scaling_efficiency", "ratio"),
    lower("serve.step_ms", "ms"),
    lower("serve.batch_steps", "count"),
    higher("serve.batch_occupancy", "ratio"),
    lower("serve.gather_bytes_per_step", "bytes"),
    lower("serve.gather_wait_ms_per_step", "ms"),
    lower("serve.queue_steps_p95", "steps"),
    lower("serve.ttft_steps_p95", "steps"),
    higher("serve.prefix_hit_rate", "ratio"),
    lower("serve.kv_bytes_allocated", "bytes"),
    lower("serve.kv_bytes_live_peak", "bytes"),
    lower("serve.kv_ops_us", "us"),
    lower("serve.generator_lag_steps", "steps"),
    lower("trace.overhead_share", "ratio"),
];

pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|s| s.name == name)
}

/// One measured value: `n` is the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub n: usize,
}

/// A list of metrics under construction; names are checked against the
/// tables so a typo cannot mint a metric `BENCHMARK.json` does not list.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// # Panics
    /// Panics on a name neither table lists, or one set twice.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(spec(name).is_some(), "metric {name} is not in the tables");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push(Metric { name, value, n });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// The metrics of `table` in table order; unset ones read 0, `n` = 0.
    pub fn in_table(&self, table: &'static [MetricSpec]) -> Vec<Metric> {
        table
            .iter()
            .map(|s| {
                self.get(s.name).cloned().unwrap_or(Metric {
                    name: s.name,
                    value: 0.0,
                    n: 0,
                })
            })
            .collect()
    }
}

/// The outcome of one run of one workload.
pub struct RunResult {
    pub workload: Workload,
    /// Every correctness check passed.
    pub correct: bool,
    /// Why not, one line per failed check.
    pub errors: Vec<String>,
    /// Operations attempted in the measured phase: train steps, requests.
    pub attempted: u64,
    /// Of those, skipped or non-finite steps, shed or rejected requests.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, values with all their digits.
    pub fn driver_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let unit = spec(m.name).expect("metric is in the tables").unit;
            let sep = if i > 0 { ", " } else { "" };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.name,
                json_num(m.value)
            )
            .expect("write to a String");
        }
        out.push_str("}}");
        out
    }
}

/// A finite number in JSON, shortest form that round-trips; NaN and
/// infinities (not JSON) read `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Where and how a result was measured; stamped on every `--out` document.
pub struct Stamp {
    pub nproc: usize,
    pub rank_threads: usize,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Stamp {
    pub fn collect(seed: u64, seconds: f64, smoke: bool) -> Stamp {
        Stamp {
            nproc: available_cores(),
            rank_threads: crate::RANKS,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            // A driver checkout is not a git repository: say so, don't fail.
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            seed,
            seconds,
            smoke,
        }
    }
}

pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One workload's entry in an `--out` document: counts from the first
/// repeat, each metric with its unit, `n`, every repeat's value, and their
/// median as `value`.
pub struct WorkloadDoc {
    pub workload: Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric, values over repeats)`; `metric.value` is ignored.
    pub metrics: Vec<(Metric, Vec<f64>)>,
}

/// The `--out` document: the stamp and every workload's metrics by name.
pub fn document(stamp: &Stamp, workloads: &[WorkloadDoc]) -> String {
    let mut out = String::from("{\n");
    writeln!(
        out,
        "  \"stamp\": {{\"nproc\": {}, \"rank_threads\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"smoke\": {}}},",
        stamp.nproc,
        stamp.rank_threads,
        stamp.rustc,
        stamp.git_commit,
        stamp.seed,
        json_num(stamp.seconds),
        stamp.smoke
    )
    .expect("write to a String");
    out.push_str("  \"workloads\": {\n");
    for (wi, w) in workloads.iter().enumerate() {
        writeln!(
            out,
            "    \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            w.workload.name(),
            w.correct,
            w.attempted,
            w.failed
        )
        .expect("write to a String");
        for (mi, (m, values)) in w.metrics.iter().enumerate() {
            let unit = spec(m.name).expect("metric is in the tables").unit;
            let list: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
            let sep = if mi + 1 < w.metrics.len() { "," } else { "" };
            writeln!(
                out,
                "      \"{}\": {{\"value\": {}, \"unit\": \"{unit}\", \"n\": {}, \"values\": [{}]}}{sep}",
                m.name,
                json_num(crate::stats::median(values)),
                m.n,
                list.join(", ")
            )
            .expect("write to a String");
        }
        let sep = if wi + 1 < workloads.len() { "," } else { "" };
        writeln!(out, "    }}}}{sep}").expect("write to a String");
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(s.name), "bad metric name {}", s.name);
            assert!(ok_unit(s.unit), "bad unit {} on {}", s.unit, s.name);
            assert!(seen.insert(s.name), "metric {} listed twice", s.name);
        }
        for w in Workload::ALL {
            assert!(ok_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(END_TO_END
            .iter()
            .all(|s| s.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn driver_line_is_one_json_object_with_exactly_the_four_keys() {
        let r = RunResult {
            workload: Workload::TrainComm,
            correct: true,
            errors: Vec::new(),
            attempted: 7,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.03125,
                n: 7,
            }],
        };
        let line = r.driver_line();
        assert!(!line.contains('\n'));
        let v = serde_json::from_str(&line).expect("valid JSON");
        let serde_json::Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(0.03125));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("s"));
    }
}
