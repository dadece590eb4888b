//! The harness end to end: `BENCHMARK.json` and the metric tables agree,
//! and a `--smoke` run of the real binary prints every workload and
//! metric they name.

use std::collections::BTreeSet;
use std::process::Command;

use serde_json::Value;
use zero_bench::report::{Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    let list = doc
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    list.iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn benchmark_json_repeats_the_metric_tables() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(zero_bench::DEFAULT_SECONDS)
    );
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = doc.get(key).and_then(Value::as_array).expect("metric list");
        assert_eq!(entries.len(), table.len(), "{key} length");
        for (entry, spec) in entries.iter().zip(table) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(spec.name));
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(spec.unit),
                "{}",
                spec.name
            );
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(better),
                "{}",
                spec.name
            );
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                spec.bound,
                "{}",
                spec.name
            );
        }
    }
}

#[test]
fn smoke_output_names_every_workload_and_metric() {
    let out = scratch("smoke.json");
    let trace = scratch("trace.json");
    let status = Command::new(env!("CARGO_BIN_EXE_zero_bench"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .arg("--trace-out")
        .arg(&trace)
        .status()
        .expect("zero_bench runs");
    assert!(status.success(), "smoke run failed a correctness check");
    let doc = serde_json::from_str(&std::fs::read_to_string(&out).expect("--out written"))
        .expect("--out parses");
    let spans =
        serde_json::from_str(&std::fs::read_to_string(&trace).expect("--trace-out written"))
            .expect("--trace-out parses");
    std::fs::remove_file(&out).ok();
    std::fs::remove_file(&trace).ok();

    let stamp = doc.get("stamp").expect("stamp");
    for key in [
        "nproc",
        "rank_threads",
        "rustc",
        "git_commit",
        "seed",
        "seconds",
        "smoke",
    ] {
        assert!(stamp.get(key).is_some(), "stamp lacks {key}");
    }
    let bench = benchmark_json();
    let mut metrics = names(&bench, "end_to_end");
    metrics.extend(names(&bench, "per_layer"));
    for workload in names(&bench, "workloads") {
        let entry = doc
            .get("workloads")
            .and_then(|w| w.get(&workload))
            .unwrap_or_else(|| panic!("no {workload}"));
        assert_eq!(
            entry.get("correct").and_then(Value::as_bool),
            Some(true),
            "{workload}"
        );
        assert!(
            entry
                .get("attempted")
                .and_then(Value::as_u64)
                .is_some_and(|n| n >= 1),
            "{workload}"
        );
        for name in &metrics {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {name}"
            );
            let m = entry
                .get("metrics")
                .and_then(|m| m.get(name))
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{workload} {name}: value"
            );
            assert!(
                m.get("unit")
                    .and_then(Value::as_str)
                    .is_some_and(|u| !u.is_empty()),
                "{workload} {name}: unit"
            );
            assert!(
                m.get("n").and_then(Value::as_u64).is_some(),
                "{workload} {name}: n"
            );
        }
    }

    // The traced run wrote its spans: the benchmark's own around set-up,
    // steps, serve calls and probes, and the program's beneath them.
    let events = spans
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("trace events");
    let seen: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for name in [
        "setup.engine",
        "train_step.traced",
        "serve",
        "probe.tensor.gemm",
        "block-fwd",
        "serve-step",
    ] {
        assert!(seen.contains(name), "no {name} span in the trace");
    }
    let nested = events.iter().filter(|e| {
        e.get("args")
            .and_then(|a| a.get("parent"))
            .is_some_and(|p| p.as_u64().is_some())
    });
    assert!(nested.count() > 0, "no span has a parent");
}

#[test]
fn compare_judges_two_documents() {
    let doc = |tokens: f64| {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|s| {
                let v = if s.name == "tokens_per_s" {
                    tokens
                } else {
                    10.0
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"n\": 1, \"values\": [{v}]}}",
                    s.name, s.unit
                )
            })
            .collect();
        let workloads: Vec<String> = Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "\"{}\": {{\"metrics\": {{{}}}}}",
                    w.name(),
                    metrics.join(", ")
                )
            })
            .collect();
        format!("{{\"workloads\": {{{}}}}}", workloads.join(", "))
    };
    let (a, b, c) = (scratch("a.json"), scratch("b.json"), scratch("c.json"));
    std::fs::write(&a, doc(100.0)).expect("write A");
    std::fs::write(&b, doc(97.0)).expect("write B");
    std::fs::write(&c, doc(50.0)).expect("write C");
    let compare = |x: &std::path::Path, y: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_zero_bench"))
            .arg("compare")
            .arg(x)
            .arg(y)
            .output()
            .expect("compare runs")
    };
    let same = compare(&a, &b);
    assert!(same.status.success(), "−3 % is inside the bound");
    assert!(String::from_utf8_lossy(&same.stdout).contains(" ok"));
    let worse = compare(&a, &c);
    assert!(!worse.status.success(), "−50 % tokens/s must fail");
    assert!(String::from_utf8_lossy(&worse.stdout).contains("worse"));
    for p in [a, b, c] {
        std::fs::remove_file(p).ok();
    }
}
