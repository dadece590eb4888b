//! Both binaries parse their arguments through `zero::cli::Args`: a value
//! that does not parse, a value the engine cannot run with and a flag that
//! does not exist are usage errors (exit 2, naming the culprit), never a
//! panic or a silently applied default.

use std::process::Command;

/// Runs `bin` with `args` and returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_values_and_unknown_flags_exit_2_naming_the_argument() {
    let train = env!("CARGO_BIN_EXE_zero-train");
    let serve = env!("CARGO_BIN_EXE_zero-serve");
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
        (serve, &["--slots", "many"], &["--slots", "many"]),
        (serve, &["--dp", "2"], &["--dp"]),
        // These parse, but used to reach a panic in the engine / partitioner…
        (serve, &["--slots", "0"], &["--slots"]),
        (serve, &["--ranks", "0"], &["--ranks"]),
        // …and this one used to be dropped (served without reuse).
        (serve, &["--prefix-reuse"], &["--prefix-reuse", "--kv-block"]),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?} must be a usage error, stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked: {stderr}");
        for name in names {
            assert!(stderr.contains(name), "{bin} {args:?}: stderr must name {name}: {stderr}");
        }
    }
}
