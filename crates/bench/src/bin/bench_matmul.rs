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
//! `--smoke` runs the same checks and timing without rewriting the results
//! file. `--check-against <path>` exits non-zero if any `block` row takes
//! twice its committed time — the harness's loose factor: enough slack for
//! a shared VM, tight enough to catch a fall back to a scalar chain or to a
//! narrower tier. Each row's `kernel` (the tier that ran) is never compared.

use serde::Serialize;
use serde_json::Value;
use zero::tensor::ops::matmul::{kernel, reference, sgemm, sgemm_nt, sgemm_tn, Mat};
use zero_bench::{best_of, to_value, Baseline, Harness};

type Wrapper = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

const KEY: &[&str] = &["variant", "m", "k", "n"];

#[derive(Serialize)]
struct MatmulRow {
    variant: &'static str,
    /// `block`, `attention`, `decode` or `large`.
    group: &'static str,
    /// The tier that ran (`matmul::kernel`, e.g. `avx2 4x16`); informational.
    kernel: String,
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

fn main() {
    let harness = Harness::from_env("matmul", &[], &[]);
    let committed = Baseline::load(&harness.results_path().to_string_lossy()).ok();
    let kernel = kernel();

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
        // The same count in every mode, so `secs` compares across runs.
        let reps = (1 << 27) / (2 * m * k * n) + 3;
        let (secs, ()) = best_of(3, || {
            for _ in 0..reps {
                wrapper(&a, &b, std::hint::black_box(&mut c), m, k, n);
            }
        });
        let gflops = (2 * m * k * n * reps) as f64 / secs / 1e9;
        let mut row = MatmulRow { variant, group, kernel: kernel.clone(), m, k, n, reps, secs, gflops, parent_gflops: None };
        // Carried forward from the results file on every rewrite.
        let prior = committed.as_ref().and_then(|c| c.row("", &to_value(&row), KEY).ok());
        row.parent_gflops = prior.and_then(|r| r.get("parent_gflops")).and_then(Value::as_f64);
        println!(
            "{variant:<8} {group:<9} {m:>4}x{k:>4}x{n:>4}  {:>9.4} ms  {gflops:>6.2} GFLOP/s  (parent {})",
            secs * 1e3 / reps as f64,
            row.parent_gflops.map_or("-".to_string(), |g| format!("{g:.2}")),
        );
        rows.push(row);
    }

    harness.check("", rows.iter().filter(|r| r.group == "block"), KEY, &[], Some("secs"));
    harness.finish(&rows);
}
