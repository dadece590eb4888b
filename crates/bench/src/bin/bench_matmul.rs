//! GEMM, GELU, fp16 and CRC micro-benchmark over the shapes the model
//! runs: `results/BENCH_matmul.json`.
//!
//! Times `sgemm`, `sgemm_nt` and `sgemm_tn` at the calls the model makes on
//! its `[in, out]` weights: one block's real shapes (`t = 256`, `h = 128`:
//! four `sgemm` forward, four `_nt` input-gradient and four `_tn`
//! weight-gradient GEMMs), per-head attention, the forward at serving's
//! `m = 1` and full-slot `m = 4`, and four large `_tn` shapes that leave
//! cache. Every row is first checked bit for bit against
//! `matmul::reference`, so a speed-up cannot come from a changed summation
//! order. The `gelu` rows time `gelu_forward` and `gelu_backward` over one
//! block's MLP activation (`t × 4h`) and one decode row (`1 × 4h`), each
//! first checked bit for bit against `gelu_scalar` / `gelu_grad_scalar`. The
//! `f16` rows time the four fp16 slice passes (narrow, widen, accumulate,
//! round) over Ψ = 813 824 elements, the parameter count of `zero_bench`'s
//! training model, each first checked bit for bit against the scalar
//! conversions. The `crc` row times `crc32_f32s` over 98 304 floats, first
//! checked against the CRC fed one byte at a time. The `comm` rows time a
//! 2-rank fp32 all-gather (`start_all_gather(buf).wait()`, the buffer cycled
//! through every op) of `n` floats — 2 (8 B), one average serving unit of
//! `zero_bench`'s serving model (41 024, 164 KB) and 262 144 (1 MB) — each
//! first checked against the concatenated shards, then the 1 MB gather on
//! [`FLAT_LINK`] with every element owned by rank 0 (`owner`) and split
//! evenly (`balanced`); `m` is the rank count. Outside the GEMM
//! rows `k` is 0 and `gflops` counts G elements/s, except the `comm` rows',
//! which count GB gathered per second.
//!
//! `parent_gflops` is the same row measured once with the code this kernel
//! replaced (five loop nests; on `block` and `decode` rows, the model's call
//! at that logical shape on `[out, in]` weights), carried forward from the
//! existing results file on every rewrite.
//!
//! `--smoke` runs the same checks and timing without rewriting the results
//! file. `--check-against <path>` exits non-zero if any row but the
//! `attention` and `large` GEMM rows and the `comm` rows takes twice its
//! committed time — the harness's loose factor: enough slack for
//! a shared VM, tight enough to catch a fall back to a scalar chain or to a
//! narrower tier. Each row's `kernel` (the tier that ran) is never compared.

use serde::Serialize;
use serde_json::Value;

use zero::comm::{crc, crc32_f32s, launch_with_config, Crc32, Group, Precision, WireFmt, WorldConfig};
use zero::tensor::f16::{f16_add_slice, f16_round_slice, f16_to_f32_slice, f32_to_f16_slice};
use zero::tensor::isa;
use zero::tensor::ops::activation::{gelu_backward, gelu_forward, gelu_grad_scalar, gelu_scalar};
use zero::tensor::F16;
use zero::tensor::ops::matmul::{kernel, reference, sgemm, sgemm_nt, sgemm_tn, Mat};
use zero_bench::{best_of, to_value, Baseline, Harness, FLAT_LINK};

type Wrapper = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

const KEY: &[&str] = &["variant", "m", "k", "n"];

#[derive(Serialize)]
struct MatmulRow {
    variant: &'static str,
    /// `block`, `attention`, `decode`, `large`, `gelu`, `f16`, `crc` or
    /// `comm`.
    group: &'static str,
    /// The tier that ran (`matmul::kernel`, e.g. `avx2 4x16`, the
    /// `isa::selected` name for a `gelu` or `f16` row, `crc::kernel` —
    /// `clmul` or `table16` — for the `crc` row); informational.
    kernel: String,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    secs: f64,
    /// G elements/s outside the GEMM rows.
    gflops: f64,
    parent_gflops: Option<f64>,
}

/// `(variant, group, m, k, n)` for every timed row.
fn shapes() -> Vec<(&'static str, &'static str, usize, usize, usize)> {
    let (t, h, s, hd) = (256, 128, 32, 32);
    // (in, out) of qkv, attention projection, fc1, fc2: forward `X · W`,
    // then `dX = dY · W^T` and `dW = X^T · dY`.
    let linear = [(h, 3 * h), (h, h), (h, 4 * h), (4 * h, h)];
    let mut rows = Vec::new();
    rows.extend(linear.map(|(k, n)| ("sgemm", "block", t, k, n)));
    rows.extend(linear.map(|(k, n)| ("sgemm_nt", "block", t, n, k)));
    rows.extend(linear.map(|(k, n)| ("sgemm_tn", "block", k, t, n)));
    rows.extend([1, 4].into_iter().flat_map(|m| linear.map(|(k, n)| ("sgemm", "decode", m, k, n))));
    rows.push(("sgemm_nt", "attention", s, hd, s));
    rows.push(("sgemm", "attention", s, s, hd));
    rows.push(("sgemm_tn", "attention", s, s, hd));
    for (m, k, n) in [(64, 128, 64), (64, 512, 256), (256, 1024, 256), (512, 2048, 512)] {
        rows.push(("sgemm_tn", "large", m, k, n));
    }
    for m in [t, 1] {
        rows.extend(["gelu_forward", "gelu_backward"].map(|v| (v, "gelu", m, 0, 4 * h)));
    }
    rows.extend(["f16_narrow", "f16_widen", "f16_add", "f16_round"].map(|v| (v, "f16", 1, 0, 813_824)));
    rows.push(("crc32_f32s", "crc", 1, 0, 98_304));
    for n in [2, 41_024, 262_144] {
        rows.push(("all_gather", "comm", 2, 0, n));
    }
    rows.extend(["all_gather_flat_owner", "all_gather_flat_balanced"].map(|v| (v, "comm", 2, 0, 262_144)));
    rows
}

/// Checks one all-gather row of `n` floats over `ranks` ranks against the
/// concatenated shards, then times it on rank 0: `(reps, secs, bytes)`.
/// Rank 0 owns every element under `_owner`, the split is even otherwise.
fn comm_row(variant: &str, ranks: usize, n: usize) -> (usize, f64, usize) {
    let flat = variant.starts_with("all_gather_flat");
    let counts: Vec<usize> = match variant.ends_with("_owner") {
        true => (0..ranks).map(|r| if r == 0 { n } else { 0 }).collect(),
        false => (0..ranks).map(|r| n / ranks + usize::from(r < n % ranks)).collect(),
    };
    let want: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let reps = if flat { 3 } else { (1 << 22) / (n + 2048) + 3 };
    let config = if flat { WorldConfig::with_tiered_link(FLAT_LINK) } else { WorldConfig::default() };
    let (counts, want) = (&counts, &want);
    let timed = launch_with_config(ranks, config, move |mut c| {
        let g = Group::world(ranks);
        let own: usize = counts[..c.rank()].iter().sum();
        let own = own..own + counts[c.rank()];
        let mut buf = vec![f32::NAN; n];
        let mut gather = |mut buf: Vec<f32>| {
            buf[own.clone()].copy_from_slice(&want[own.clone()]);
            c.start_all_gather(&g, buf, counts, Precision::Fp32, WireFmt::Raw).wait().expect("all-gather")
        };
        buf = gather(buf);
        assert!(buf.iter().zip(want).all(|(x, y)| x.to_bits() == y.to_bits()), "{variant} gathered wrong bits");
        best_of(3, || {
            for _ in 0..reps {
                buf = gather(std::mem::take(&mut buf));
            }
        })
        .0
    });
    (reps, timed[0], reps * 4 * n)
}

fn fill(len: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|i| ((i * 7 % 13) as f32 - 6.0) * scale).collect()
}

/// Checks one GEMM row bit for bit against `matmul::reference`, then times
/// it: `(reps, secs, flops)`.
fn gemm_row(variant: &str, m: usize, k: usize, n: usize) -> (usize, f64, usize) {
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
    (reps, secs, 2 * m * k * n * reps)
}

/// Checks one GELU row of `len` elements bit for bit against the scalar
/// functions, then times it: `(reps, secs, elements)`.
fn gelu_row(variant: &str, len: usize) -> (usize, f64, usize) {
    // 1 201 distinct inputs over [-6, 6], on both sides of the tanh clamp.
    let x: Vec<f32> = (0..len).map(|i| (i * 37 % 1201) as f32 / 100.0 - 6.0).collect();
    let dy = fill(len, 0.1);
    let forward = variant == "gelu_forward";
    let pass = |out: &mut [f32]| if forward { gelu_forward(&x, out) } else { gelu_backward(&x, &dy, out) };
    let mut out = vec![f32::NAN; len];
    pass(&mut out);
    for ((got, &xi), &g) in out.iter().zip(&x).zip(&dy) {
        let want = if forward { gelu_scalar(xi) } else { g * gelu_grad_scalar(xi) };
        assert_eq!(got.to_bits(), want.to_bits(), "{variant} diverged from the scalar function at {xi}");
    }
    let reps = (1 << 24) / len + 3;
    let (secs, ()) = best_of(3, || (0..reps).for_each(|_| pass(std::hint::black_box(&mut out))));
    (reps, secs, reps * len)
}

/// Checks one fp16 row of `len` elements bit for bit against the scalar
/// conversions, then times it: `(reps, secs, elements)`.
fn f16_row(variant: &str, len: usize) -> (usize, f64, usize) {
    // Every 7th finite binary16 value, both signs, nudged off the grid.
    let x: Vec<f32> = (0..len)
        .map(|i| F16::from_bits((i * 7 % 0x7C00) as u16 | (i as u16 & 1) << 15).to_f32() * 1.000_2)
        .collect();
    let h: Vec<F16> = x.iter().map(|&v| F16::from_f32(0.5 * v)).collect();
    let pass = |hs: &mut [F16], fs: &mut [f32]| match variant {
        "f16_narrow" => f32_to_f16_slice(&x, hs),
        "f16_widen" => f16_to_f32_slice(&h, fs),
        "f16_add" => f16_add_slice(hs, &x),
        _ => f16_round_slice(fs),
    };
    let (mut hs, mut fs) = (h.clone(), x.clone());
    pass(&mut hs, &mut fs);
    for i in 0..len {
        let (got, want) = match variant {
            "f16_narrow" => (u32::from(hs[i].0), u32::from(F16::from_f32(x[i]).0)),
            "f16_widen" => (fs[i].to_bits(), h[i].to_f32().to_bits()),
            "f16_add" => (u32::from(hs[i].0), u32::from(F16::from_f32(h[i].to_f32() + x[i]).0)),
            _ => (fs[i].to_bits(), F16::from_f32(x[i]).to_f32().to_bits()),
        };
        assert_eq!(got, want, "{variant} diverged from the scalar conversion at {}", x[i]);
    }
    let reps = (1 << 24) / len + 3;
    let (secs, ()) = best_of(3, || {
        (0..reps).for_each(|_| pass(std::hint::black_box(&mut hs), std::hint::black_box(&mut fs)))
    });
    (reps, secs, reps * len)
}

/// Checks `crc32_f32s` over `len` floats against the CRC fed one byte per
/// `update` (shorter than a step, so all of it runs the bytewise loop),
/// then times it: `(reps, secs, floats)`.
fn crc_row(len: usize) -> (usize, f64, usize) {
    let x = fill(len, 0.37);
    let mut bytewise = Crc32::new();
    x.iter().flat_map(|v| v.to_le_bytes()).for_each(|b| bytewise.update(&[b]));
    assert_eq!(crc32_f32s(&x), bytewise.finish(), "crc32_f32s diverged from the bytewise CRC");
    let reps = (1 << 24) / len + 3;
    let (secs, _) = best_of(3, || (0..reps).fold(0, |acc, _| acc ^ crc32_f32s(std::hint::black_box(&x))));
    (reps, secs, reps * len)
}

fn main() {
    let harness = Harness::from_env("matmul", &[], &[]);
    let committed = Baseline::load(&harness.results_path().to_string_lossy()).ok();

    let mut rows = Vec::new();
    for (variant, group, m, k, n) in shapes() {
        let (reps, secs, work) = match group {
            "gelu" => gelu_row(variant, m * n),
            "f16" => f16_row(variant, n),
            "crc" => crc_row(n),
            "comm" => comm_row(variant, m, n),
            _ => gemm_row(variant, m, k, n),
        };
        let gemm = k > 0;
        let kernel = match group {
            "crc" | "comm" => crc::kernel().to_string(),
            _ if gemm => kernel(),
            _ => isa::selected().name().to_string(),
        };
        let gflops = work as f64 / secs / 1e9;
        let mut row = MatmulRow { variant, group, kernel, m, k, n, reps, secs, gflops, parent_gflops: None };
        // Carried forward from the results file on every rewrite.
        let prior = committed.as_ref().and_then(|c| c.row("", &to_value(&row), KEY).ok());
        row.parent_gflops = prior.and_then(|r| r.get("parent_gflops")).and_then(Value::as_f64);
        let unit = if gemm { "GFLOP/s" } else if group == "comm" { "GB/s" } else { "Gelem/s" };
        println!(
            "{variant:<13} {group:<9} {m:>4}x{k:>4}x{n:>4}  {:>9.4} ms  {gflops:>6.2} {unit}  (parent {})  {}",
            secs * 1e3 / reps as f64,
            row.parent_gflops.map_or("-".to_string(), |g| format!("{g:.2}")),
            row.kernel,
        );
        rows.push(row);
    }

    // A 2-rank gather's time swings 3x between runs of one build: the
    // comm rows check their bits as they run, their time is not gated.
    let gated = |r: &&MatmulRow| matches!(r.group, "block" | "decode" | "gelu" | "f16" | "crc");
    harness.check("", rows.iter().filter(gated), KEY, &[], Some("secs"));
    harness.finish(&rows);
}
