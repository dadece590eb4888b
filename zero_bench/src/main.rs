//! `zero_bench`: the repo's benchmark. See `zero_bench/README.md`.

use std::process::ExitCode;
use std::time::Instant;

use zero_bench::report::{document, Stamp, Workload, WorkloadDoc};
use zero_bench::spans::{chrome_json, link_parents, main_track, Recorder, Span};
use zero_bench::workloads::{run, RunOpts};
use zero_bench::{compare, DEFAULT_SECONDS};

const USAGE: &str = "usage:
  zero_bench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
      one run of one workload; the last line of stdout is its result as JSON
      (--trace 0: end-to-end metrics, tracing off; --trace 1: per-layer metrics)
  zero_bench [--seed N] [--seconds S] [--repeats R] [--smoke] [--out PATH] [--trace-out PATH]
      every workload, untraced and traced; every metric by name as one JSON document
  zero_bench compare A.json B.json
      judge B against A by the benchmark's bounds; non-zero exit on `worse`
workloads: train.compute train.comm train.offload serve.shared serve.burst";

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("bad value {raw:?} for {name}"))
    }
}

fn write_trace(path: &str, mut spans: Vec<Span>) -> Result<(), String> {
    link_parents(&mut spans);
    std::fs::write(path, chrome_json(&spans)).map_err(|e| format!("cannot write {path}: {e}"))
}

fn report_errors(result: &zero_bench::report::RunResult) {
    for e in &result.errors {
        eprintln!("{}: FAIL — {e}", result.workload.name());
    }
}

fn run_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare needs exactly two files".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, any_worse) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main_inner() -> Result<ExitCode, String> {
    let mut args = Args(std::env::args().skip(1).collect());
    if args.0.first().is_some_and(|a| a == "compare") {
        return run_compare(&args.0[1..]);
    }
    if args.flag("--help") || args.flag("-h") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let workload: Option<String> = args.value("--workload")?;
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    let seconds: f64 = args.value("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let trace: Option<u8> = args.value("--trace")?;
    let repeats: usize = args.value("--repeats")?.unwrap_or(1);
    let out_path: Option<String> = args.value("--out")?;
    let trace_out: Option<String> = args.value("--trace-out")?;
    let smoke = args.flag("--smoke");
    if let Some(extra) = args.0.first() {
        return Err(format!("unknown argument {extra:?}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) || repeats == 0 {
        return Err("--seconds and --repeats must be positive".to_string());
    }
    let epoch = Instant::now();

    if let Some(name) = workload {
        let workload =
            Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let trace = match trace {
            Some(0) | None => false,
            Some(1) => true,
            Some(t) => return Err(format!("--trace takes 0 or 1, not {t}")),
        };
        let mut rec = Recorder::new(epoch, 0, main_track(0));
        let result = run(
            workload,
            &RunOpts {
                seed,
                seconds,
                trace,
                smoke,
            },
            &mut rec,
        );
        report_errors(&result);
        if let Some(path) = trace_out {
            write_trace(&path, rec.spans)?;
        }
        println!("{}", result.driver_line());
        return Ok(if result.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let stamp = Stamp::collect(seed, seconds, smoke);
    let mut spans = Vec::new();
    let mut docs = Vec::new();
    let mut all_correct = true;
    for (wi, workload) in Workload::ALL.into_iter().enumerate() {
        let mut doc: Option<WorkloadDoc> = None;
        for repeat in 0..repeats {
            for trace in [false, true] {
                let run_id = ((wi * repeats + repeat) * 2 + usize::from(trace)) as u32;
                let mut rec = Recorder::new(epoch, run_id, main_track(0));
                let result = run(
                    workload,
                    &RunOpts {
                        seed,
                        seconds,
                        trace,
                        smoke,
                    },
                    &mut rec,
                );
                report_errors(&result);
                spans.append(&mut rec.spans);
                all_correct &= result.correct;
                let doc = doc.get_or_insert_with(|| WorkloadDoc {
                    workload,
                    correct: true,
                    attempted: result.attempted,
                    failed: result.failed,
                    metrics: Vec::new(),
                });
                doc.correct &= result.correct;
                for m in result.metrics {
                    match doc.metrics.iter_mut().find(|(have, _)| have.name == m.name) {
                        Some((_, values)) => values.push(m.value),
                        None => {
                            let value = m.value;
                            doc.metrics.push((m, vec![value]));
                        }
                    }
                }
            }
        }
        let doc = doc.expect("at least one repeat ran");
        eprintln!(
            "{}: {} ({} attempted, {} failed)",
            workload.name(),
            if doc.correct { "correct" } else { "INCORRECT" },
            doc.attempted,
            doc.failed
        );
        docs.push(doc);
    }
    let text = document(&stamp, &docs);
    match out_path {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => print!("{text}"),
    }
    if let Some(path) = trace_out {
        write_trace(&path, spans)?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("zero_bench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
