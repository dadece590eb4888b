//! `zero-verify` — run the static verification passes from the command
//! line (CI runs this before the test suite).
//!
//! ```text
//! zero-verify [--pass <name>[,<name>...]] [--budget <states>] [--list-passes]
//! ```
//!
//! Passes: `schedule`, `tiling`, `lint`, `overlap`, `tracecheck`,
//! `modelcheck`, `compression`, `offload`, `memory` — run all of them when no
//! `--pass` is given. The legacy
//! positional forms (`zero-verify lint`, `zero-verify all`) keep
//! working. Exits non-zero if any selected pass fails; `--budget` caps
//! the model checker's per-scenario state count (exhausting it is a
//! failure, not a silent pass).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use zero_core::{
    run_training, CommPlan, CompressionConfig, StepShape, TierConfig, TrainSetup, ZeroConfig, ZeroStage,
};
use zero_model::ModelConfig;

/// Default per-scenario state budget for the modelcheck pass: over ten
/// times the largest scenario's measured state count
/// (`handshake.n3+crash`, ~31k; the desk's largest, `lane.drain`, ~24k),
/// so genuine blowups fail loudly while normal growth has headroom.
const DEFAULT_MODELCHECK_BUDGET: u64 = 500_000;

const PASSES: [&str; 9] = [
    "schedule",
    "tiling",
    "lint",
    "overlap",
    "tracecheck",
    "modelcheck",
    "compression",
    "offload",
    "memory",
];

fn repo_root() -> PathBuf {
    // crates/verify -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has a grandparent")
        .to_path_buf()
}

fn run_schedule() -> bool {
    match zero_verify::check_schedules() {
        Ok(r) => {
            println!(
                "schedule:   OK — {} configs, {} plans, {} resolved ops, \
                 {} rank-pair agreements",
                r.configs, r.plans, r.ops_checked, r.pair_checks
            );
            true
        }
        Err(e) => {
            eprintln!("schedule:   FAIL — {e}");
            false
        }
    }
}

fn run_tiling() -> bool {
    match zero_verify::prove_tiling() {
        Ok(r) => {
            println!(
                "tiling:     OK — {} partitions ({} elements), {} layout units tiled",
                r.partitions, r.elements, r.units
            );
            true
        }
        Err(e) => {
            eprintln!("tiling:     FAIL — {e}");
            false
        }
    }
}

fn run_lint() -> bool {
    let root = repo_root();
    let comm = root.join("crates/comm/src");
    let core = root.join("crates/core/src");
    let report = zero_verify::lint_paths(&[comm.as_path(), core.as_path()]);
    for warning in &report.warnings {
        println!("lint:       warning — {warning}");
    }
    if report.is_clean() {
        println!("lint:       OK — {} files scanned, 0 hits", report.files_scanned);
        true
    } else {
        eprintln!(
            "lint:       FAIL — {} hits in {} files:",
            report.hits.len(),
            report.files_scanned
        );
        for hit in &report.hits {
            eprintln!("  {hit}");
        }
        false
    }
}

fn run_overlap() -> bool {
    match zero_verify::schedule::check_overlap() {
        Ok(r) => {
            println!(
                "overlap:    OK — {} configs proven volume-preserving reorderings \
                 ({} plans compared)",
                r.configs, r.plans
            );
            true
        }
        Err(e) => {
            eprintln!("overlap:    FAIL — {e}");
            false
        }
    }
}

/// Runs tiny real training jobs (stage 3, raw N=2, all-levers
/// compressed N=4/G=2 and offloaded N=2, two steps, sync+overlap) and
/// reconciles every rank's recorded timeline byte-exactly against the
/// analytic plan and the metered traffic — the runtime face of the
/// schedule pass. With compression on, the plan's byte tags are
/// compressed wire bytes, so this also proves the runtime sends exactly
/// the quantized volume the plan promises. Offloaded, it also holds each
/// rank's host-link lane to the plan's anchors: every spill starts after
/// the reduce-scatter it drains, every seeded gather after its fetch.
fn run_tracecheck() -> bool {
    let model = ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 };
    let layout = zero_model::Layout::build(&model);
    let act_elems = model.seq * model.hidden;
    let raw = CompressionConfig::off();
    let squeezed = CompressionConfig { qwz: true, hpz: true, qgz: true };
    let mut checked_ranks = 0usize;
    // Every tier move costs 200 µs on the host link, so the order the lane
    // keeps shows in the spans' times.
    let offloaded = TierConfig { host_lat: Duration::from_micros(200), ..TierConfig::budgeted(64 << 20) };
    for (compression, node_size, dp, tier) in
        [(raw, 1, 2usize, TierConfig::off()), (squeezed, 2, 4, TierConfig::off()), (raw, 1, 2, offloaded)]
    {
        for overlap in [false, true] {
            let setup = TrainSetup {
                model,
                zero: ZeroConfig {
                    stage: ZeroStage::Three,
                    fp16: true,
                    initial_loss_scale: 1.0,
                    checkpoint_activations: false,
                    bucket_elems: 1000,
                    overlap,
                    node_size,
                    compression,
                    tier,
                    ..ZeroConfig::default()
                },
                grid: zero_comm::Grid::new(dp, 1),
                global_batch: dp,
                seed: 5,
            };
            let report = run_training(&setup, 2, 0);
            let plans: Vec<CommPlan> = report
                .skipped
                .iter()
                .map(|&skipped| {
                    let shape = StepShape { micro_batches: 1, act_elems, skipped };
                    CommPlan::train_step(&layout, &setup.zero, setup.grid, &shape)
                })
                .collect();
            for r in &report.ranks {
                let mut want = zero_verify::TraceExpectation::default();
                plans.iter().for_each(|plan| want.add_plan(plan, r.rank, 1));
                let checked = zero_verify::check_timeline(&r.timeline, &want, Some(&r.traffic))
                    .and_then(|()| zero_verify::check_tier_order(&r.timeline, &plans, r.rank));
                if let Err(e) = checked {
                    eprintln!(
                        "tracecheck: FAIL — compression={} offload={} overlap={overlap} rank {}: {e}",
                        compression.any(),
                        tier.enabled,
                        r.rank
                    );
                    return false;
                }
                checked_ranks += 1;
            }
        }
    }
    println!(
        "tracecheck: OK — {checked_ranks} rank timelines reconciled against plan and \
         metered traffic, each host-link lane against the plan's anchors \
         (stage 3, raw N=2 + qwZ/hpZ/qgZ N=4 G=2 + offloaded N=2, sync+overlap)"
    );
    true
}

fn run_modelcheck(budget: u64) -> bool {
    let report = zero_verify::run_modelcheck(budget);
    let mut ok = true;
    for sc in &report.scenarios {
        println!(
            "modelcheck:   {:<18} {:>8} states, {:>8} transitions, depth {}{}",
            sc.name,
            sc.states,
            sc.transitions,
            sc.max_depth,
            if sc.budget_exhausted { "  [BUDGET EXHAUSTED]" } else { "" }
        );
        if sc.budget_exhausted {
            eprintln!(
                "modelcheck: FAIL — {}: state budget ({budget}) exhausted; \
                 coverage incomplete",
                sc.name
            );
            ok = false;
        }
        if let Some(f) = &sc.failure {
            eprintln!("modelcheck: FAIL — {}: {f}", sc.name);
            ok = false;
        }
        for race in &sc.races {
            eprintln!("modelcheck: FAIL — {}: {race}", sc.name);
            ok = false;
        }
        if let Some(cycle) = &sc.lock_cycle {
            eprintln!(
                "modelcheck: FAIL — {}: cyclic lock order over mutexes {:?}",
                sc.name, cycle
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "modelcheck: OK — {} scenarios exhaustively explored, {} states total \
             (budget {budget}/scenario)",
            report.scenarios.len(),
            report.total_states(),
        );
    }
    ok
}

fn run_compression() -> bool {
    match zero_verify::check_compression() {
        Ok(r) => {
            println!(
                "compression: OK — {} lever configurations proven, {} compressed ops \
                 recomputed; inter-node step volume (all levers on vs raw):",
                r.configs, r.ops_checked
            );
            for row in &r.rows {
                println!(
                    "compression:   {:<8} N={:<2} G={:<2} {:>10} -> {:>9} bytes  ({:.2}x)",
                    row.stage, row.n, row.g, row.raw_bytes, row.compressed_bytes, row.ratio
                );
            }
            true
        }
        Err(e) => {
            eprintln!("compression: FAIL — {e}");
            false
        }
    }
}

fn run_offload() -> bool {
    match zero_verify::check_offload() {
        Ok(r) => {
            println!(
                "offload:    OK — {} configurations proven ({} tier ops checked, \
                 {} paired with their anchor collective, {} prefetch windows open); \
                 {} P_a+cpu configurations ({} checkpoint round trips paired)",
                r.configs,
                r.tier_ops_checked,
                r.paired_ops,
                r.windows_proven,
                r.checkpoint_configs,
                r.checkpoint_pairs
            );
            true
        }
        Err(e) => {
            eprintln!("offload:    FAIL — {e}");
            false
        }
    }
}

fn run_memory() -> bool {
    match zero_verify::check_memory() {
        Ok(r) => {
            println!(
                "memory:     OK — {} configurations ({} bucket reduce-scatter settle stamps at the first \
                 gather behind them or the drain, {} tier placements walked within budget)",
                r.configs, r.settles, r.placements
            );
            true
        }
        Err(e) => {
            eprintln!("memory:     FAIL — {e}");
            false
        }
    }
}

fn run_pass(name: &str, budget: u64) -> Option<bool> {
    Some(match name {
        "schedule" => run_schedule(),
        "tiling" => run_tiling(),
        "lint" => run_lint(),
        "overlap" => run_overlap(),
        "tracecheck" => run_tracecheck(),
        "modelcheck" => run_modelcheck(budget),
        "compression" => run_compression(),
        "offload" => run_offload(),
        "memory" => run_memory(),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected: Vec<String> = Vec::new();
    let mut budget = DEFAULT_MODELCHECK_BUDGET;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list-passes" => {
                for p in PASSES {
                    println!("{p}");
                }
                return ExitCode::SUCCESS;
            }
            "--pass" => {
                i += 1;
                let Some(names) = args.get(i) else {
                    eprintln!("--pass needs a value (one of: {})", PASSES.join(", "));
                    return ExitCode::FAILURE;
                };
                selected.extend(names.split(',').map(|s| s.trim().to_string()));
            }
            "--budget" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(b) if b > 0 => budget = b,
                    _ => {
                        eprintln!("--budget needs a positive integer state count");
                        return ExitCode::FAILURE;
                    }
                }
            }
            // Legacy positional form.
            "all" => selected.extend(PASSES.iter().map(|s| s.to_string())),
            other if PASSES.contains(&other) => selected.push(other.to_string()),
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: zero-verify \
                     [--pass <name>[,<name>...]] [--budget <states>] [--list-passes]"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    if selected.is_empty() {
        selected = PASSES.iter().map(|s| s.to_string()).collect();
    }

    // Run every selected pass even if an early one fails, so CI output
    // shows the full picture.
    let mut ok = true;
    for name in &selected {
        match run_pass(name, budget) {
            Some(passed) => ok &= passed,
            None => {
                eprintln!("unknown pass '{name}'; known passes: {}", PASSES.join(", "));
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
