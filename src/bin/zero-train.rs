//! `zero-train` — command-line trainer over the functional ZeRO engine.
//!
//! ```text
//! cargo run --release --bin zero-train -- \
//!     --stage 2 --dp 4 --mp 1 --layers 2 --hidden 64 --heads 4 \
//!     --seq 32 --vocab 64 --batch 16 --steps 100 --lr 1e-3
//! ```
//!
//! Prints per-step losses, then a memory/communication report per rank —
//! the full ZeRO experience (threads as GPUs) from one command.

use zero::cli::{usage_exit, Args};
use zero::comm::{CollectiveKind, Grid};
use zero::core::{run_training, CkptPlace, CommPlan, ConfigError, TrainSetup, ZeroConfig, ZeroStage};
use zero::model::ModelConfig;
use zero::optim::AdamConfig;

/// Options that take a value, and bare switches (see `--help`).
const OPTIONS: &[&str] = &[
    "--stage", "--dp", "--mp", "--layers", "--hidden", "--heads", "--seq", "--vocab", "--batch",
    "--steps", "--lr", "--seed", "--clip", "--node-size", "--device-budget",
    "--host-bw", "--host-lat-us", "--fabric", "--kill", "--snapshot-every", "--run-dir",
    "--text", "--trace", "--save",
];
const SWITCHES: &[&str] = &[
    "--help", "--fp32", "--overlap", "--no-checkpoint", "--pa", "--pa-cpu", "--qwz", "--hpz",
    "--qgz", "--offload", "--verify-offload", "--verify-recovery",
];

fn main() {
    // Worker dispatch must come first: when ZERO_WORKER_SPEC is set this
    // process *is* a rank of a process-fabric run and never returns here.
    zero::core::maybe_run_worker();
    let args = Args::from_env(OPTIONS, SWITCHES);
    if args.flag("--help") {
        println!(
            "zero-train: train a transformer with ZeRO (ranks are threads)\n\
             \n\
             --stage N      ZeRO stage: 0 (DDP), 1, 2, 3        [2]\n\
             --dp N         data-parallel degree                [4]\n\
             --mp N         model-parallel degree               [1]\n\
             --layers N     transformer blocks                  [2]\n\
             --hidden N     hidden dimension                    [64]\n\
             --heads N      attention heads                     [4]\n\
             --seq N        sequence length                     [32]\n\
             --vocab N      vocabulary size                     [64]\n\
             --batch N      global batch size                   [16]\n\
             --steps N      training steps                      [50]\n\
             --lr F         Adam learning rate                  [1e-3]\n\
             --seed N       init/data seed                      [42]\n\
             --fp32         disable mixed precision\n\
             --overlap      non-blocking collectives: overlap backward\n\
                            with reduce-scatter, prefetch stage-3 params\n\
                            (refused below --stage 2)\n\
             --no-checkpoint disable activation checkpointing\n\
             --pa           partition activation checkpoints across the\n\
                            MP group (at --mp 1 a slice is the whole\n\
                            activation)\n\
             --pa-cpu       offload checkpoint slices to the host tier\n\
                            (implies --pa)\n\
             --clip F       gradient-norm clip, finite and > 0  [off]\n\
             --qwz          quantized int8 weight all-gather (refused\n\
                            below --stage 3)\n\
             --hpz          node-local secondary param partition: stage-3\n\
                            re-gathers resolve within the node (refused\n\
                            below --stage 3; needs --dp above --node-size)\n\
             --qgz          quantized all-to-all gradient reduce-scatter:\n\
                            int8 across nodes, full precision within\n\
                            (refused below --stage 2)\n\
             --node-size N  ranks per node, grouped by --hpz, --qgz and\n\
                            --stage 0's two-level all-reduce; must divide\n\
                            --dp, refused when none of them is on\n\
                            [2 with --hpz/--qgz, else 1]\n\
             --offload      memory-tier offload: optimizer state\n\
                            (stage >= 1), gradient shards (stage >= 2),\n\
                            and parameter shards (stage 3) live on the\n\
                            host tier, fetched/spilled around their\n\
                            anchor collectives (needs --mp 1, stage >= 1;\n\
                            composes with --qwz/--hpz/--qgz)\n\
             --device-budget B  device-tier byte budget the MemoryTracker\n\
                            enforces: any allocation past B panics, so a\n\
                            completed run proves peak <= B (implies\n\
                            --offload)                          [none]\n\
             --host-bw B    modeled host-link bandwidth, bytes/sec\n\
                            (0 = unthrottled)                   [0]\n\
             --host-lat-us N  modeled per-transfer host-link latency,\n\
                            microseconds                        [0]\n\
             --verify-offload  rerun the same config without offload and\n\
                            require bitwise-identical losses; with a\n\
                            --device-budget, also require the baseline's\n\
                            peak device bytes to EXCEED the budget the\n\
                            offloaded run provably stayed under\n\
             --fabric NAME  rank fabric: threads | process      [threads]\n\
                            process spawns one OS process per rank over\n\
                            Unix sockets, supervised with rollback+reshard\n\
             --kill R@S     (process fabric) SIGKILL rank R once it has\n\
                            completed S steps — real fault injection\n\
             --verify-recovery  (process fabric) after a recovery, rerun\n\
                            from the rollback snapshot on the thread\n\
                            backend and require bitwise-identical losses\n\
             --snapshot-every N  (process fabric) snapshot cadence  [5]\n\
             --run-dir DIR  (process fabric) scratch dir for sockets,\n\
                            snapshots, and worker results      [tempdir]\n\
             --text PATH    train on a text file (byte tokens, sets vocab 256)\n\
             --trace PATH   write a Chrome trace-event JSON of every rank's\n\
                            spans (open in chrome://tracing or Perfetto)\n\
             --save DIR     write per-rank parameter snapshots after training\n\
                            (feed to zero-serve --snapshots; needs --mp 1)"
        );
        return;
    }

    let text_path: String = args.get("--text", String::new());
    let model = ModelConfig {
        vocab: if text_path.is_empty() {
            args.get("--vocab", 64usize)
        } else {
            256
        },
        seq: args.get("--seq", 32usize),
        hidden: args.get("--hidden", 64usize),
        layers: args.get("--layers", 2usize),
        heads: args.get("--heads", 4usize),
    };
    let stage = match args.get("--stage", 2usize) {
        0 => ZeroStage::Ddp,
        1 => ZeroStage::One,
        2 => ZeroStage::Two,
        3 => ZeroStage::Three,
        s => {
            eprintln!("unknown stage {s} (expected 0-3)");
            std::process::exit(2);
        }
    };
    let compression = zero::core::CompressionConfig {
        qwz: args.flag("--qwz"),
        hpz: args.flag("--hpz"),
        qgz: args.flag("--qgz"),
    };
    let node_size = args.get("--node-size", if compression.hpz || compression.qgz { 2 } else { 1 });
    // Shapes the engine would meet with an `assert!`: refuse them here.
    let (dp, mp, batch) = (args.get("--dp", 4usize), args.get("--mp", 1usize), args.get("--batch", 16usize));
    if model.heads == 0 || !model.hidden.is_multiple_of(model.heads) {
        usage_exit(&format!("--hidden {} must be divisible by --heads {}", model.hidden, model.heads));
    }
    if dp == 0 || !batch.is_multiple_of(dp) {
        usage_exit(&format!("--batch {batch} must divide evenly over --dp {dp} replicas"));
    }
    let device_budget: u64 = args.get("--device-budget", u64::MAX);
    let tier = if args.flag("--offload") || device_budget != u64::MAX {
        zero::core::TierConfig {
            enabled: true,
            device_budget,
            host_bw: args.get("--host-bw", 0u64),
            host_lat: std::time::Duration::from_micros(args.get("--host-lat-us", 0u64)),
            depth: 1,
        }
    } else {
        zero::core::TierConfig::off()
    };
    let setup = TrainSetup {
        model,
        zero: ZeroConfig {
            stage,
            fp16: !args.flag("--fp32"),
            overlap: args.flag("--overlap"),
            checkpoint_activations: !args.flag("--no-checkpoint"),
            checkpoint_place: if args.flag("--pa-cpu") {
                CkptPlace::Host
            } else if args.flag("--pa") {
                CkptPlace::Partitioned
            } else {
                CkptPlace::Whole
            },
            clip_grad_norm: args.maybe("--clip"),
            node_size,
            compression,
            tier,
            optimizer: zero::core::OptimizerKind::Adam(AdamConfig {
                lr: args.get("--lr", 1e-3f32),
                ..AdamConfig::default()
            }),
            ..ZeroConfig::default()
        },
        grid: Grid::new(dp, mp),
        global_batch: batch,
        seed: args.get("--seed", 42u64),
    };
    let steps = args.get("--steps", 50usize);

    // One author of lever × stage × grid legality; its refusals are usage errors.
    setup.zero.check(setup.grid).unwrap_or_else(|e| {
        usage_exit(&match e {
            ConfigError::Switches(why) => {
                format!("--clip must be finite and positive and --pa/--pa-cpu need checkpointing: {why}")
            }
            ConfigError::Overlap(why) => format!("--overlap needs --stage 2 or 3: {why}"),
            ConfigError::NodeSize(why) => format!(
                "--node-size {node_size} needs --stage 0, --hpz or --qgz, --mp 1 (got {mp}) and \
                 --dp {dp} divisible by it: {why}"
            ),
            ConfigError::Compression(why) => format!(
                "--qwz/--hpz need --stage 3, --qgz needs --stage 2 or 3, all need --mp 1 \
                 (got {mp}), and --hpz needs --dp {dp} above --node-size {node_size}: {why}"
            ),
            ConfigError::Offload(why) => format!("--offload needs --mp 1 and --stage 1/2/3: {why}"),
        })
    });
    if compression.any() {
        println!(
            "compression: qwZ={} hpZ={} qgZ={} (node size {node_size}, quant block {})",
            compression.qwz, compression.hpz, compression.qgz, zero::core::CompressionConfig::BLOCK
        );
    }

    if tier.enabled {
        // The plan places what crosses from the first step's memory walk.
        let layout = zero::model::Layout::build_mp(&model, mp);
        let off = CommPlan::placement(&layout, &setup.zero, setup.grid, 1, batch / dp * model.seq * model.hidden);
        let classes = [(off.opt_state, "optimizer-state"), (off.grads, "grad-shards"), (off.params, "param-shards")];
        let crossing: Vec<&str> = classes.iter().filter(|c| c.0).map(|c| c.1).collect();
        println!(
            "offload: placement crosses [{}]{} | device budget {} | host link {} B/s + {:?}",
            crossing.join(", "),
            if stage == ZeroStage::Three && !off.params {
                "; param shard on the device, its updated piece climbing once a step"
            } else {
                ""
            },
            if tier.device_budget == u64::MAX {
                "unlimited".to_string()
            } else {
                format!("{} bytes", tier.device_budget)
            },
            if tier.host_bw == 0 { "inf".to_string() } else { tier.host_bw.to_string() },
            tier.host_lat,
        );
    } else if args.flag("--verify-offload") {
        eprintln!("--verify-offload needs --offload (or a --device-budget)");
        std::process::exit(2);
    }

    let fabric: String = args.get("--fabric", "threads".to_string());
    match fabric.as_str() {
        "threads" => {}
        "process" => {
            if args.flag("--verify-offload") {
                eprintln!("--verify-offload runs the thread backend (drop --fabric process)");
                std::process::exit(2);
            }
            run_process_fabric(&args, setup, steps);
            return;
        }
        other => {
            eprintln!("unknown fabric {other:?} (expected threads | process)");
            std::process::exit(2);
        }
    }

    println!(
        "model: {} params | {} | grid {}x{} | batch {} | {} steps",
        model.total_params(),
        setup.zero.stage.name(),
        setup.grid.dp_degree(),
        setup.grid.mp_degree(),
        setup.global_batch,
        steps
    );
    let t0 = std::time::Instant::now();
    let report = if text_path.is_empty() {
        run_training(&setup, steps, (steps / 5).max(1))
    } else {
        let text = std::fs::read_to_string(&text_path).expect("read --text file");
        let corpus = zero::model::ByteCorpus::from_text(&text);
        println!("training on {} bytes of text from {text_path}", corpus.len());
        zero::core::run_training_on(&setup, steps, (steps / 5).max(1), corpus.tokens())
    };
    let dt = t0.elapsed();

    for (i, loss) in report.losses.iter().enumerate() {
        if i < 3 || i + 3 >= report.losses.len() || (i + 1) % 10 == 0 {
            println!(
                "step {:>4}  loss {:.4}{}",
                i + 1,
                loss,
                if report.skipped[i] { "  (skipped: overflow)" } else { "" }
            );
        }
    }
    if !report.val_losses.is_empty() {
        println!(
            "validation loss: {:.4} → {:.4}",
            report.val_losses.first().unwrap(),
            report.val_losses.last().unwrap()
        );
    }
    println!("\nwall time: {:.2?} ({:.1} steps/s)", dt, steps as f64 / dt.as_secs_f64());
    // Run summary over the steps the loss scaler kept: last and best loss,
    // their EMA (β = 0.9) and its perplexity; throughput and skip rate
    // count every step, since a skipped one still ran forward/backward.
    let kept: Vec<f32> =
        report.losses.iter().zip(&report.skipped).filter(|(_, &s)| !s).map(|(&l, _)| l).collect();
    let beta = 0.9;
    let ema = kept.iter().map(|&l| l as f64).reduce(|e, l| beta * e + (1.0 - beta) * l);
    let ema = ema.unwrap_or(f64::NAN);
    let run = report.losses.len();
    println!(
        "step {run:>5}  loss {:.4} (ema {ema:.4}, best {:.4})  ppl {:.2}  {:.0} tok/s  skip {:.1}%",
        kept.last().copied().unwrap_or(f32::NAN),
        kept.iter().copied().fold(f32::INFINITY, f32::min),
        ema.exp(),
        (run * setup.global_batch * model.seq) as f64 / dt.as_secs_f64(),
        100.0 * (run - kept.len()) as f64 / run.max(1) as f64,
    );
    println!("\nper-rank report (rank 0):");
    let r = &report.ranks[0];
    println!("  model states (peak): {} bytes", r.peak_model_state_bytes);
    println!("  device total (peak): {} bytes", r.peak_device_bytes);
    let t = &r.traffic;
    println!(
        "  traffic: all-reduce {} B, reduce-scatter {} B, all-gather {} B",
        t.bytes(CollectiveKind::AllReduce),
        t.bytes(CollectiveKind::ReduceScatter),
        t.bytes(CollectiveKind::AllGather),
    );
    let overlap_ns = r.timeline.compute_collective_overlap_ns();
    println!(
        "  compute/collective overlap: {:.3} ms total ({:.3} ms/step)",
        overlap_ns as f64 / 1e6,
        overlap_ns as f64 / 1e6 / steps as f64,
    );
    if r.tier.total_bytes() > 0 {
        println!(
            "  tier traffic: fetch {} B in {} ops, spill {} B in {} ops, modeled tier time {:.3} ms",
            r.tier.fetch_bytes,
            r.tier.fetch_ops,
            r.tier.spill_bytes,
            r.tier.spill_ops,
            r.tier_time.as_secs_f64() * 1e3,
        );
    }
    if tier.enabled && tier.device_budget != u64::MAX {
        // The tracker panics on any allocation past the budget, so a run
        // that got this far IS the proof.
        let peak = report.ranks.iter().map(|r| r.peak_device_bytes).max().unwrap_or(0);
        println!(
            "  device budget: PROVEN — peak {} B <= budget {} B (tracker armed all run)",
            peak, tier.device_budget
        );
    }

    if args.flag("--verify-offload") {
        verify_offload(&setup, steps, &report, &text_path);
    }

    let save_dir: String = args.get("--save", String::new());
    if !save_dir.is_empty() {
        if setup.grid.mp_degree() != 1 {
            eprintln!("--save needs --mp 1 (model-parallel export is not supported)");
            std::process::exit(2);
        }
        let dir = std::path::Path::new(&save_dir);
        // The masters are the per-unit shards of the training partition:
        // one owner under DDP, one per rank otherwise.
        let units = zero::model::Layout::build(&model).units().iter().map(|u| u.range.len() as u64).collect::<Vec<_>>();
        let owners = if setup.zero.stage == ZeroStage::Ddp { 1 } else { report.ranks.len() };
        for r in &report.ranks {
            let snap = zero::core::RankSnapshot {
                rank: r.rank as u32,
                world: report.ranks.len() as u32,
                step: steps as u64,
                units: units.clone(),
                owners: owners as u32,
                owner: (r.rank % owners) as u32,
                master: r.master.clone(),
                // Inference export: optimizer and scaler state stay behind.
                opt_m: Vec::new(),
                opt_v: Vec::new(),
                opt_t: steps as u64,
                scaler: None,
            };
            snap.save(dir).expect("write --save snapshot");
        }
        println!(
            "\nwrote {} parameter snapshots ({} params) to {save_dir}",
            report.ranks.len(),
            model.total_params()
        );
    }

    write_trace_if_requested(&args, &report);
}

/// Trains with every rank a spawned OS process on the Unix-socket fabric,
/// supervised for real process death: `--kill R@S` SIGKILLs a rank
/// mid-run and `--verify-recovery` proves the rollback+reshard resume is
/// bitwise identical to a clean thread-backend resume from the same
/// snapshot — the cross-backend recovery guarantee, from the CLI.
fn run_process_fabric(args: &Args, setup: TrainSetup, steps: usize) {
    if setup.grid.mp_degree() != 1 {
        eprintln!("--fabric process needs --mp 1");
        std::process::exit(2);
    }
    if !setup.zero.stage.partitions_optimizer() {
        eprintln!("--fabric process needs --stage 1, 2, or 3 (supervised resharding)");
        std::process::exit(2);
    }
    let run_root: String = args.get("--run-dir", String::new());
    let run_dir = if run_root.is_empty() {
        std::env::temp_dir().join(format!("zero-procworld-{}", std::process::id()))
    } else {
        std::path::PathBuf::from(run_root)
    };
    let snap_dir = run_dir.join("snapshots");
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");

    let mut cfg = zero::core::SupervisorConfig::new(setup, steps, snap_dir.clone());
    cfg.snapshot_every = args.get("--snapshot-every", 5usize);
    let worker = zero::core::WorkerCommand::current_exe(vec!["--zero-worker".into()])
        .expect("resolve current executable");
    let mut opts = zero::core::ProcessWorldOptions::new(worker, run_dir.join("fabric"));

    let kill_arg: String = args.get("--kill", String::new());
    if !kill_arg.is_empty() {
        let Some((r, s)) = kill_arg.split_once('@') else {
            eprintln!("--kill wants R@S (rank @ completed-step count)");
            std::process::exit(2);
        };
        let rank = r.parse().unwrap_or_else(|_| {
            eprintln!("--kill: bad rank {r:?}");
            std::process::exit(2);
        });
        let after_step = s.parse().unwrap_or_else(|_| {
            eprintln!("--kill: bad step {s:?}");
            std::process::exit(2);
        });
        opts.kill = Some(zero::core::KillSpec { rank, after_step });
    }

    println!(
        "model: {} params | {} | fabric process, {} rank processes | batch {} | {} steps",
        setup.model.total_params(),
        setup.zero.stage.name(),
        setup.grid.dp_degree(),
        setup.global_batch,
        steps
    );
    let t0 = std::time::Instant::now();
    let report = zero::core::run_supervised_process(&cfg, &opts).unwrap_or_else(|e| {
        eprintln!("zero-train: supervised run failed: {e}");
        std::process::exit(1);
    });
    let dt = t0.elapsed();

    for (i, loss) in report.losses.iter().enumerate() {
        if i < 3 || i + 3 >= report.losses.len() || (i + 1) % 10 == 0 {
            println!("step {:>4}  loss {:.4}", i + 1, loss);
        }
    }
    println!("eval loss: {:.4}", report.final_eval);
    for rec in &report.recoveries {
        println!(
            "recovery: ranks {:?} died, world {} -> {}, rolled back to step {} ({} steps lost, {} checkpoint bytes resharded)",
            rec.failed_ranks,
            rec.old_world,
            rec.new_world,
            rec.resumed_from_step,
            rec.steps_lost,
            rec.bytes_moved,
        );
        for (rank, msg) in &rec.failures {
            println!("  rank {rank}: {msg}");
        }
    }
    println!(
        "wall time: {:.2?} | final world {}",
        dt, report.final_world
    );

    let leaked = count_worker_procs();
    if leaked > 0 {
        eprintln!("leak check: {leaked} orphaned --zero-worker processes!");
        std::process::exit(1);
    }
    println!("leak check: no orphaned rank processes");

    if args.flag("--verify-recovery") {
        let Some(last) = report.recoveries.last() else {
            println!("verify-recovery: no recovery occurred; nothing to compare");
            return;
        };
        // Control arm on the *thread* backend, from the same snapshot the
        // process-world rollback used: the comparison is simultaneously a
        // recovery-correctness and a cross-backend-determinism check.
        let control_setup = TrainSetup {
            grid: Grid::new(last.new_world, 1),
            ..setup
        };
        let snap = zero::core::supervisor::snapshot_dir_for(&snap_dir, last.resumed_from_step);
        // The world that *wrote* the snapshot is recorded in its shards; a
        // later recovery's `old_world` can be smaller than that (the dir is
        // only rewritten when the snapshot step advances), so trust the disk.
        let written_world = zero::core::RankSnapshot::load(&snap, 0)
            .expect("read control snapshot shard 0")
            .world as usize;
        let (control, control_eval) =
            zero::core::resume_from_snapshot(&control_setup, steps, &snap, written_world);
        let tail = &report.losses[last.resumed_from_step as usize..];
        let losses_match = tail.len() == control.len()
            && tail
                .iter()
                .zip(&control)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if losses_match && report.final_eval.to_bits() == control_eval.to_bits() {
            println!(
                "verify-recovery: PASS — {} resumed steps + eval bitwise-identical to a clean thread-backend resume",
                control.len()
            );
        } else {
            eprintln!(
                "verify-recovery: FAIL — resumed losses diverge from the clean control arm\n  process tail: {tail:?}\n  control:      {control:?}\n  eval {} vs {}",
                report.final_eval, control_eval
            );
            std::process::exit(1);
        }
    }
}

/// `--verify-offload`: the headline demo as a self-checking command.
/// Reruns the exact configuration with the tier disabled and requires
/// (a) bitwise-identical per-step losses, skipped-step pattern, and
/// validation losses — offload moves residency, never values — and
/// (b) when a `--device-budget` is set, that the unconstrained baseline's
/// peak device bytes EXCEED the budget the offloaded run provably stayed
/// under (the tracker panics past it, so finishing is the proof): a model
/// whose state does not fit the device, trained anyway, loss untouched.
fn verify_offload(
    setup: &TrainSetup,
    steps: usize,
    offloaded: &zero::core::TrainReport,
    text_path: &str,
) {
    let base_setup = TrainSetup {
        zero: ZeroConfig { tier: zero::core::TierConfig::off(), ..setup.zero },
        ..*setup
    };
    let eval_every = (steps / 5).max(1);
    let baseline = if text_path.is_empty() {
        run_training(&base_setup, steps, eval_every)
    } else {
        let text = std::fs::read_to_string(text_path).expect("read --text file");
        let corpus = zero::model::ByteCorpus::from_text(&text);
        zero::core::run_training_on(&base_setup, steps, eval_every, corpus.tokens())
    };

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut ok = true;
    if bits(&offloaded.losses) != bits(&baseline.losses)
        || offloaded.skipped != baseline.skipped
        || bits(&offloaded.val_losses) != bits(&baseline.val_losses)
    {
        eprintln!(
            "verify-offload: FAIL — losses diverge from the unconstrained baseline\n  \
             offloaded: {:?}\n  baseline:  {:?}",
            offloaded.losses, baseline.losses
        );
        ok = false;
    }
    // The memory walk predicts every rank's measured peak from the plan.
    let (m, grid) = (setup.model, setup.grid);
    let act_elems = setup.global_batch / grid.dp_degree() * m.seq * m.hidden;
    let layout = zero::model::Layout::build_mp(&m, grid.mp_degree());
    for r in &offloaded.ranks {
        let walked = CommPlan::footprint(&layout, &setup.zero, grid, 1, act_elems, r.rank);
        if walked != r.peak_device_bytes {
            eprintln!(
                "verify-offload: FAIL — rank {}: the memory walk predicts a {walked} B peak, the run measured {} B",
                r.rank, r.peak_device_bytes
            );
            ok = false;
        }
    }
    let peak = |r: &zero::core::TrainReport| {
        r.ranks.iter().map(|k| k.peak_device_bytes).max().unwrap_or(0)
    };
    let (off_peak, base_peak) = (peak(offloaded), peak(&baseline));
    let budget = setup.zero.tier.device_budget;
    if budget != u64::MAX {
        if base_peak <= budget {
            eprintln!(
                "verify-offload: FAIL — budget {budget} B is not binding: the unconstrained \
                 baseline already peaks at {base_peak} B; set --device-budget below that"
            );
            ok = false;
        }
        if off_peak > budget {
            // Belt and braces: the armed tracker would have panicked first.
            eprintln!(
                "verify-offload: FAIL — offloaded peak {off_peak} B exceeds budget {budget} B"
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!(
        "verify-offload: PASS — {} losses + {} eval losses bitwise-identical to the \
         unconstrained run; peak device bytes {off_peak} (offloaded, as walked on every rank) \
         vs {base_peak} (baseline){}",
        offloaded.losses.len(),
        offloaded.val_losses.len(),
        if budget == u64::MAX {
            String::new()
        } else {
            format!("; budget {budget} B binding on the baseline, proven on the offloaded run")
        }
    );
}

/// Counts surviving rank processes by their `--zero-worker` marker arg —
/// the CLI-level orphan check backing the fabric's reaping guarantee.
fn count_worker_procs() -> usize {
    let own = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.chars().all(|c| c.is_ascii_digit()) && *name != *own
        })
        .filter(|e| {
            std::fs::read(e.path().join("cmdline"))
                .map(|c| {
                    c.split(|b| *b == 0)
                        .any(|arg| arg == b"--zero-worker")
                })
                .unwrap_or(false)
        })
        .count()
}

fn write_trace_if_requested(args: &Args, report: &zero::core::TrainReport) {
    let trace_path: String = args.get("--trace", String::new());
    if !trace_path.is_empty() {
        let timelines: Vec<_> = report.ranks.iter().map(|r| r.timeline.clone()).collect();
        let json = zero::trace::chrome_trace(&timelines);
        // The export must round-trip: a trace nobody can load is worse
        // than no trace.
        if let Err(e) = serde_json::from_str(&json) {
            eprintln!("internal error: emitted trace does not parse: {e}");
            std::process::exit(1);
        }
        std::fs::write(&trace_path, &json).expect("write --trace file");
        let events = timelines
            .iter()
            .map(|t| t.spans.len() + t.instants.len() + t.counters.len())
            .sum::<usize>();
        println!(
            "\nwrote {} trace events ({} ranks) to {trace_path}",
            events,
            timelines.len()
        );
    }
}
