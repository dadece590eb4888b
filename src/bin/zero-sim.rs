//! `zero-sim` — regenerates the paper's tables and figures from the
//! simulator's case table (`zero::sim::experiments::CASES`).
//!
//! ```text
//! cargo run --release --bin zero-sim                  # every artifact + results/summary.md
//! cargo run --release --bin zero-sim -- --case fig3   # one case → results/fig3.json
//! cargo run --release --bin zero-sim -- --case stage_advisor \
//!     --size-b 170 --gpus 400 --mp 16 --batch 12
//! ```
//!
//! Results land under `results/` in the working directory; `ci.sh` runs
//! the whole table from a scratch directory and compares every file with
//! the committed copy.

use zero::cli::{usage_exit, Args};
use zero::sim::experiments::{render, AdvisorQuery, Case, CASES};

/// `--case`, then the advisor's inputs (usage errors with any other case).
const OPTIONS: &[&str] = &["--case", "--size-b", "--gpus", "--mp", "--batch"];

fn main() {
    let args = Args::from_env(OPTIONS, &["--help"]);
    if args.flag("--help") {
        let names: Vec<&str> = CASES.iter().map(|c| c.name).collect();
        println!(
            "zero-sim: regenerate the paper's tables and figures\n\
             \n\
             (no --case)    run every case that writes results/<case>.json,\n\
             \x20              then results/summary.md\n\
             --case NAME    run one case: {}\n\
             --size-b X     stage_advisor: model size, billions of parameters  [100]\n\
             --gpus N       stage_advisor: GPUs, a multiple of --mp            [400]\n\
             --mp N         stage_advisor: model-parallel degree               [16]\n\
             --batch N      stage_advisor: micro-batch per GPU                 [16]",
            names.join(", ")
        );
        return;
    }
    let case: Option<&Case> = args.maybe::<String>("--case").map(|name| {
        let known = CASES.iter().find(|c| c.name == name);
        known.unwrap_or_else(|| usage_exit(&format!("--case: no case named {name:?}")))
    });
    let advising = case.is_some_and(|c| c.name == "stage_advisor");
    if let Some(flag) = OPTIONS[1..].iter().find(|f| args.maybe::<String>(f).is_some()) {
        if !advising {
            usage_exit(&format!("{flag} applies only to --case stage_advisor"));
        }
    }
    let d = AdvisorQuery::default();
    let query = AdvisorQuery {
        size_b: args.get("--size-b", d.size_b),
        gpus: args.get("--gpus", d.gpus),
        mp: args.get("--mp", d.mp),
        batch: args.get("--batch", d.batch),
    };
    if !(query.size_b > 0.0 && query.size_b.is_finite()) {
        usage_exit("--size-b: need a positive model size");
    }
    if query.mp == 0 || query.gpus == 0 || !query.gpus.is_multiple_of(query.mp) {
        let (gpus, mp) = (query.gpus, query.mp);
        usage_exit(&format!("--gpus {gpus} is not a positive multiple of --mp {mp}"));
    }
    if query.batch == 0 {
        usage_exit("--batch: need at least one sample per GPU");
    }

    let Some(case) = case else {
        let mut summary = String::from("# ZeRO reproduction summary\n\n");
        summary.push_str("Generated by `cargo run --release --bin zero-sim`.\n");
        for case in CASES.iter().filter(|c| c.writes) {
            let rows = render(&run(case, &query), true);
            summary.push_str(&format!("\n## {}\n\n{}\n", case.title, rows.trim_end()));
        }
        write("results/summary.md", &summary);
        return;
    };
    run(case, &query);
}

/// Runs one case, prints its rows, and writes them if the case is an artifact.
fn run(case: &Case, query: &AdvisorQuery) -> serde_json::Value {
    let json = (case.run)(query);
    let rows = serde_json::from_str(&json).expect("a case's own JSON parses");
    println!("{}\n\n{}", case.title, render(&rows, false));
    if case.writes {
        write(&format!("results/{}.json", case.name), &json);
    }
    rows
}

/// Writes a results file (relative to the working directory), exiting 1
/// naming the path on failure.
fn write(path: &str, contents: &str) {
    let written = std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("zero-sim: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}
