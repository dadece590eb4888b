//! GEMM micro-benchmark over the shapes the model runs:
//! `results/BENCH_matmul.json`.
//!
//! Times `sgemm`, `sgemm_nt` and `sgemm_tn` at one transformer block's
//! real shapes (`t = 256` rows, `h = 128`: the four `_nt` forward GEMMs,
//! the four `sgemm` input-gradient and four `_tn` weight-gradient GEMMs),
//! the per-head attention shapes, the `m = 1` decode shapes, and four
//! large `_tn` shapes that leave cache. Every row is first checked bit
//! for bit against `matmul::reference`, so a speed-up cannot come from a
//! changed summation order.
//!
//! `parent_gflops` is the same row measured once with the five separate
//! loop nests this kernel replaced; it is carried forward from the
//! existing results file on every rewrite.
//!
//! `--smoke` runs the bit-exactness checks and a short timing without
//! rewriting the results file. `--check-against <path>` exits non-zero if
//! any `block` row falls below half its committed GFLOP/s — loose enough
//! for a shared VM, tight enough to catch a fall back to a scalar chain.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;
use zero_tensor::ops::matmul::{reference, sgemm, sgemm_nt, sgemm_tn, Mat};

type Wrapper = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

#[derive(Serialize)]
struct MatmulRow {
    variant: &'static str,
    /// `block`, `attention`, `decode` or `large`.
    group: &'static str,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    secs: f64,
    gflops: f64,
    parent_gflops: Option<f64>,
}

/// `(variant, group, m, k, n)` for every timed row.
fn shapes() -> Vec<(&'static str, &'static str, usize, usize, usize)> {
    let (t, h, s, hd) = (256, 128, 32, 32);
    // (k, n) of qkv, attention projection, fc1, fc2: forward `x · W^T`,
    // then `dX = dY · W` and `dW = dY^T · X` with the roles swapped.
    let linear = [(h, 3 * h), (h, h), (h, 4 * h), (4 * h, h)];
    let mut rows = Vec::new();
    rows.extend(linear.map(|(k, n)| ("sgemm_nt", "block", t, k, n)));
    rows.extend(linear.map(|(k, n)| ("sgemm", "block", t, n, k)));
    rows.extend(linear.map(|(k, n)| ("sgemm_tn", "block", n, t, k)));
    rows.extend(linear.map(|(k, n)| ("sgemm_nt", "decode", 1, k, n)));
    rows.push(("sgemm_nt", "attention", s, hd, s));
    rows.push(("sgemm", "attention", s, s, hd));
    rows.push(("sgemm_tn", "attention", s, s, hd));
    for (m, k, n) in [(64, 128, 64), (64, 512, 256), (256, 1024, 256), (512, 2048, 512)] {
        rows.push(("sgemm_tn", "large", m, k, n));
    }
    rows
}

fn fill(len: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|i| ((i * 7 % 13) as f32 - 6.0) * scale).collect()
}

fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    // Best of 3 trials: min wall-clock is the scheduler-noise-free
    // estimate on a shared host.
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn row_key(variant: &str, m: usize, k: usize, n: usize) -> String {
    format!("{variant} {m}x{k}x{n}")
}

/// One numeric column of a results file, by [`row_key`]; empty if the
/// file is missing or predates the column.
fn load_column(path: &std::path::Path, column: &str) -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string(path) else { return BTreeMap::new() };
    let Ok(doc) = serde_json::from_str(&text) else { return BTreeMap::new() };
    let rows = doc.as_array().map(Vec::as_slice).unwrap_or(&[]);
    rows.iter()
        .filter_map(|r| {
            let dim = |name| Some(r.get(name)?.as_u64()? as usize);
            let key = row_key(r.get("variant")?.as_str()?, dim("m")?, dim("k")?, dim("n")?);
            Some((key, r.get(column)?.as_f64()?))
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let check_path = argv.iter().position(|a| a == "--check-against").map(|i| {
        argv.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--check-against needs a baseline file path");
            std::process::exit(2);
        })
    });
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has a grandparent");
    let results = root.join("results/BENCH_matmul.json");
    let parent = load_column(&results, "parent_gflops");

    let mut rows = Vec::new();
    for (variant, group, m, k, n) in shapes() {
        let (a, b) = (fill(m * k, 0.02), fill(k * n, 0.03));
        let (wrapper, av, bv): (Wrapper, _, _) = match variant {
            "sgemm" => (sgemm, Mat::n(&a, k), Mat::n(&b, n)),
            "sgemm_nt" => (sgemm_nt, Mat::n(&a, k), Mat::t(&b, k)),
            _ => (sgemm_tn, Mat::t(&a, m), Mat::n(&b, n)),
        };
        // Correctness gate before timing: bit-exact, not approximate.
        let mut c = vec![f32::NAN; m * n];
        wrapper(&a, &b, &mut c, m, k, n);
        let want = reference(m, k, n, av, bv);
        for (x, y) in c.iter().zip(&want) {
            assert_eq!(x.to_bits(), y.to_bits(), "{variant} diverged from the reference at ({m},{k},{n})");
        }
        let budget = if smoke { 1 << 24 } else { 1 << 27 };
        let reps = budget / (2 * m * k * n) + 3;
        let secs = time_reps(reps, || wrapper(&a, &b, std::hint::black_box(&mut c), m, k, n));
        let gflops = (2 * m * k * n * reps) as f64 / secs / 1e9;
        let parent_gflops = parent.get(&row_key(variant, m, k, n)).copied();
        println!(
            "{variant:<8} {group:<9} {m:>4}x{k:>4}x{n:>4}  {:>9.4} ms  {gflops:>6.2} GFLOP/s  (parent {})",
            secs * 1e3 / reps as f64,
            parent_gflops.map_or("-".to_string(), |g| format!("{g:.2}")),
        );
        rows.push(MatmulRow { variant, group, m, k, n, reps, secs, gflops, parent_gflops });
    }

    if let Some(path) = check_path {
        let committed = load_column(std::path::Path::new(&path), "gflops");
        let mut failed = false;
        for r in rows.iter().filter(|r| r.group == "block") {
            let Some(&base) = committed.get(&row_key(r.variant, r.m, r.k, r.n)) else {
                eprintln!("check: {path} has no row for {} {}x{}x{}", r.variant, r.m, r.k, r.n);
                std::process::exit(2);
            };
            if r.gflops < 0.5 * base {
                eprintln!(
                    "check: {} {}x{}x{} ran at {:.2} GFLOP/s, below half the committed {base:.2}",
                    r.variant, r.m, r.k, r.n, r.gflops
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("check: every block-shape row is within 0.5x of {path}");
        return;
    }
    if smoke {
        println!("smoke run complete (results file untouched)");
        return;
    }
    let json = serde_json::to_string_pretty(&rows).expect("serialize rows");
    std::fs::write(&results, json + "\n").expect("write BENCH_matmul.json");
    println!("wrote {}", results.display());
}
