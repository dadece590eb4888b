//! The binaries parse their arguments through `zero::cli::Args`: a value
//! that does not parse, a value the engine cannot run with and a flag that
//! does not exist are usage errors (exit 2, naming the culprit), never a
//! panic or a silently applied default.

use std::process::Command;

/// Runs `bin` with `args` from the temp dir (so a `zero-sim` that wrongly
/// ran would not rewrite `results/`) and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).current_dir(std::env::temp_dir()).output();
    let out = out.expect("spawn binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_values_and_unknown_flags_exit_2_naming_the_argument() {
    let train = env!("CARGO_BIN_EXE_zero-train");
    let serve = env!("CARGO_BIN_EXE_zero-serve");
    let sim = env!("CARGO_BIN_EXE_zero-sim");
    for (bin, args, names) in [
        // `--steps abc` used to train the default 50 steps.
        (train, &["--steps", "abc"][..], &["--steps", "abc"][..]),
        // `--ranks` was never a zero-train flag (it is `--dp`) and used to be dropped.
        (train, &["--stage", "2", "--ranks", "4"], &["--ranks"]),
        (train, &["--steps"], &["--steps"]),
        // These three used to reach an engine `assert!` (exit 101).
        (train, &["--stage", "3", "--hpz", "--node-size", "3", "--dp", "4"], &["--node-size", "--dp"]),
        (train, &["--hidden", "16", "--heads", "3"], &["--hidden", "--heads"]),
        (train, &["--dp", "3", "--batch", "4"], &["--dp", "--batch"]),
        // hpZ acts on stage 3's parameter fetches; at stage 2 it was dropped.
        (train, &["--stage", "2", "--hpz"], &["--stage", "--hpz"]),
        // A negative clip coefficient used to train uphill, exit 0.
        (train, &["--clip", "-1"], &["--clip"]),
        // These three used to train a schedule identical to the one
        // without the flag (stage 1 has nothing to issue ahead; no lever
        // groups by node), or, for hpZ at one node, a second copy of the
        // primary shard.
        (train, &["--stage", "1", "--overlap"], &["--overlap"]),
        (train, &["--stage", "2", "--node-size", "2"], &["--node-size"]),
        (train, &["--stage", "3", "--dp", "2", "--hpz"], &["--hpz"]),
        (serve, &["--slots", "many"], &["--slots", "many"]),
        (serve, &["--dp", "2"], &["--dp"]),
        // These parse, but used to reach a panic in the engine / partitioner…
        (serve, &["--slots", "0"], &["--slots"]),
        (serve, &["--ranks", "0"], &["--ranks"]),
        // …and this one used to be dropped (served without reuse).
        (serve, &["--prefix-reuse"], &["--prefix-reuse", "--kv-block"]),
        // The advisor used to read `17O` as its 100B default and round
        // 8 GPUs at MP 16 up to a 16-GPU world.
        (sim, &["--case", "stage_advisor", "--size-b", "17O"], &["--size-b", "17O"]),
        (sim, &["--case", "stage_advisor", "--gpus", "8"], &["--gpus", "--mp"]),
        (sim, &["--case", "fig3", "--mp", "4"], &["--mp", "stage_advisor"]),
        (sim, &["--batch", "8"], &["--batch", "stage_advisor"]),
        (sim, &["--case", "fig9"], &["--case", "fig9"]),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?} must be a usage error, stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked: {stderr}");
        for name in names {
            assert!(stderr.contains(name), "{bin} {args:?}: stderr must name {name}: {stderr}");
        }
    }
}

/// `--node-size` at `--stage 0` runs DDP's two-level all-reduce, whose
/// node reduce-scatter shows in the traffic report (it used to be ignored,
/// leaving the flat ring's all-reduce alone).
#[test]
fn node_size_at_stage_0_runs_the_two_level_all_reduce() {
    let train = env!("CARGO_BIN_EXE_zero-train");
    let small = ["--layers", "1", "--hidden", "16", "--heads", "2", "--seq", "8", "--vocab", "32"];
    let out = Command::new(train)
        .args(["--stage", "0", "--dp", "4", "--node-size", "2", "--batch", "4", "--steps", "1"])
        .args(small)
        .output()
        .expect("spawn zero-train");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let traffic = stdout.lines().find(|l| l.contains("traffic: all-reduce")).expect("a traffic line");
    assert!(!traffic.contains("reduce-scatter 0 B"), "no node reduce-scatter ran: {traffic}");
}

#[test]
fn every_zero_sim_case_writes_exactly_its_own_results_file() {
    let sim = env!("CARGO_BIN_EXE_zero-sim");
    // fig5 trains for ~15 s even in release; ci.sh's artifact gate runs it.
    for case in zero::sim::experiments::CASES.iter().filter(|c| c.name != "fig5") {
        let dir = std::env::temp_dir().join(format!("zero-sim-{}-{}", std::process::id(), case.name));
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(sim).args(["--case", case.name]).current_dir(&dir).output();
        let out = out.expect("spawn zero-sim");
        assert!(out.status.success(), "{}: {}", case.name, String::from_utf8_lossy(&out.stderr));
        let mut written: Vec<String> = std::fs::read_dir(dir.join("results"))
            .map(|d| d.map(|e| e.unwrap().file_name().to_string_lossy().into_owned()).collect())
            .unwrap_or_default();
        written.sort();
        let want = if case.writes { vec![format!("{}.json", case.name)] } else { vec![] };
        assert_eq!(written, want, "{}", case.name);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
