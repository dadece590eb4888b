//! Elementwise activation kernels with exact backward passes.
//!
//! **GELU numerics.** GELU has one definition, [`gelu_scalar`] and its
//! derivative [`gelu_grad_scalar`], over one branch-free `tanh`: the odd
//! rational `x·p(x²)/q(x²)` (degree 13 over 6) that Eigen and XLA use for
//! `f32`, clamped at ±7.905 31, past which it is exactly ±1. The clamp is
//! a select, not a branch, and the rest is multiplies, adds and one
//! divide, each correctly rounded and none fused. So the slice kernels
//! ([`gelu_forward`], [`gelu_backward`] and serving's [`add_bias_gelu`]),
//! which apply the scalar functions element by element on the ISA ladder
//! ([`crate::isa`]), return the scalar functions' bits on every tier,
//! wherever an element sits in its slice. The tests bound the distance to
//! an `f64` tanh-GELU and to the same formula over libm's `tanhf`. A NaN
//! input stays NaN and ±Inf gives a non-finite output, forward and
//! backward, which the fp16 loss scaler's overflow check relies on.

use crate::isa::{self, Kernel};

/// `√(2/π)`.
const C: f32 = 0.797_884_6;
/// The cubic coefficient of tanh-GELU.
const A: f32 = 0.044_715;
/// Past `±TANH_CLAMP` the rational `tanh` is ±1.
#[allow(clippy::excessive_precision)] // Eigen's value, rounded to the nearest f32.
const TANH_CLAMP: f32 = 7.90531110763549805;

/// `tanh(x)`, branch-free: Eigen's `f32` rational `x·p(x²)/q(x²)` inside
/// the clamp, exactly ±1 outside it, NaN for NaN.
#[inline(always)]
#[allow(clippy::excessive_precision)] // Eigen's coefficients, each rounded to the nearest f32.
fn tanh(x: f32) -> f32 {
    // Highest power first.
    const P: [f32; 7] = [
        -2.76076847742355e-16,
        2.00018790482477e-13,
        -8.60467152213735e-11,
        5.12229709037114e-08,
        1.48572235717979e-05,
        6.37261928875436e-04,
        4.89352455891786e-03,
    ];
    const Q: [f32; 4] = [1.19825839466702e-06, 1.18534705686654e-04, 2.26843463243900e-03, 4.89352518554385e-03];
    let x2 = x * x;
    let poly = |c: &[f32]| c[1..].iter().fold(c[0], |acc, &k| acc * x2 + k);
    let ratio = x * poly(&P) / poly(&Q);
    // Both sides are computed, so this is a select; a NaN fails the compare.
    if x.abs() >= TANH_CLAMP {
        1.0_f32.copysign(x)
    } else {
        ratio
    }
}

/// The argument tanh-GELU takes the `tanh` of: `√(2/π)·(x + 0.044715·x³)`.
#[inline(always)]
fn inner(x: f32) -> f32 {
    C * (x + A * x * x * x)
}

/// GELU, tanh approximation as used by GPT-2/Megatron:
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[inline(always)]
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(inner(x)))
}

/// Derivative of the tanh-approximate GELU.
#[inline(always)]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let t = tanh(inner(x));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * A * x * x)
}

/// A GELU pass over slices, compiled once per ISA tier by [`isa::run`].
enum Pass<'a> {
    /// `out[i] = gelu(input[i])`.
    Forward(&'a [f32], &'a mut [f32]),
    /// `dx[i] = dy[i] · gelu'(input[i])`.
    Backward(&'a [f32], &'a [f32], &'a mut [f32]),
    /// `x[r][j] = gelu(x[r][j] + bias[j])`.
    BiasForward(&'a mut [f32], &'a [f32]),
}

impl Kernel for Pass<'_> {
    #[inline(always)]
    fn run(self) {
        match self {
            Pass::Forward(input, out) => {
                for (o, &x) in out.iter_mut().zip(input) {
                    *o = gelu_scalar(x);
                }
            }
            Pass::Backward(input, dy, dx) => {
                for ((d, &g), &x) in dx.iter_mut().zip(dy).zip(input) {
                    *d = g * gelu_grad_scalar(x);
                }
            }
            Pass::BiasForward(x, bias) => {
                for row in x.chunks_exact_mut(bias.len()) {
                    for (v, b) in row.iter_mut().zip(bias) {
                        *v = gelu_scalar(*v + b);
                    }
                }
            }
        }
    }
}

/// Forward GELU over a slice: `out[i] = gelu(input[i])`.
pub fn gelu_forward(input: &[f32], out: &mut [f32]) {
    assert_eq!(input.len(), out.len(), "gelu_forward length mismatch");
    isa::run(isa::selected(), Pass::Forward(input, out));
}

/// Backward GELU: `dx[i] = dy[i] · gelu'(input[i])`, where `input` is the
/// value seen by the forward pass.
pub fn gelu_backward(input: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(input.len(), dy.len(), "gelu_backward dy length mismatch");
    assert_eq!(input.len(), dx.len(), "gelu_backward dx length mismatch");
    isa::run(isa::selected(), Pass::Backward(input, dy, dx));
}

/// Adds a bias vector to every row of a `rows×cols` matrix and applies
/// GELU, in place and in one pass: `x[r][j] = gelu(x[r][j] + bias[j])`.
pub fn add_bias_gelu(x: &mut [f32], bias: &[f32]) {
    assert_eq!(x.len() % bias.len(), 0, "add_bias_gelu: rows not divisible");
    isa::run(isa::selected(), Pass::BiasForward(x, bias));
}

/// Adds a bias vector to every row of a `rows×cols` matrix in place.
pub fn add_bias(x: &mut [f32], bias: &[f32]) {
    assert_eq!(x.len() % bias.len(), 0, "add_bias: rows not divisible");
    for row in x.chunks_mut(bias.len()) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Accumulates the bias gradient: `dbias[j] += Σ_rows dy[row][j]`.
pub fn bias_grad(dy: &[f32], dbias: &mut [f32]) {
    assert_eq!(dy.len() % dbias.len(), 0, "bias_grad: rows not divisible");
    for row in dy.chunks(dbias.len()) {
        for (d, &g) in dbias.iter_mut().zip(row) {
            *d += g;
        }
    }
}

/// `out[i] = a[i] + b[i]` (residual connection).
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    assert_eq!(a.len(), out.len(), "add: out length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `acc[i] += x[i]` — gradient accumulation.
pub fn acc(accum: &mut [f32], x: &[f32]) {
    assert_eq!(accum.len(), x.len(), "acc: length mismatch");
    for (a, &v) in accum.iter_mut().zip(x) {
        *a += v;
    }
}

/// `x[i] *= s`.
pub fn scale(x: &mut [f32], s: f32) {
    for v in x {
        *v *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::runnable;

    /// The smallest positive `x` whose `tanh` argument reaches the clamp
    /// (positive floats order like their bits).
    fn clamp_edge() -> f32 {
        let (mut lo, mut hi) = (0_u32, 10.0_f32.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if inner(f32::from_bits(mid)) >= TANH_CLAMP {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f32::from_bits(hi)
    }

    /// Inputs at every edge of the numerics, each with both signs: zero,
    /// the smallest and largest subnormals, the smallest normal, the clamp
    /// edge and its two neighbours, and 30; then a 1/64 grid over [−30, 30].
    fn sweep() -> Vec<f32> {
        let edge = clamp_edge().to_bits();
        let edges = [0, 1, 0x007f_ffff, f32::MIN_POSITIVE.to_bits(), edge - 1, edge, edge + 1, 30.0_f32.to_bits()];
        let grid = (-1920..=1920).map(|i| i as f32 / 64.0);
        edges.iter().flat_map(|&bits| [f32::from_bits(bits), -f32::from_bits(bits)]).chain(grid).collect()
    }

    #[test]
    fn every_tier_is_bitwise_the_scalar_gelu_on_every_edge() {
        // Every tier equals the scalar functions, and so the portable tier.
        // Starting at each offset up to one AVX-512 vector, every input
        // meets both the vector body and the scalar tail.
        let xs = sweep();
        let dy: Vec<f32> = (0..xs.len()).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.25).collect();
        let bias = [0.5, -1.25, 0.0, 3.0, -0.0];
        for tier in runnable() {
            for start in 0..17 {
                let (x, g) = (&xs[start..], &dy[start..]);
                let mut fwd = vec![f32::NAN; x.len()];
                isa::run(tier, Pass::Forward(x, &mut fwd));
                let mut bwd = vec![f32::NAN; x.len()];
                isa::run(tier, Pass::Backward(x, g, &mut bwd));
                let rows = x.len() / bias.len() * bias.len();
                let mut biased = x[..rows].to_vec();
                isa::run(tier, Pass::BiasForward(&mut biased, &bias));
                let name = tier.name();
                for (i, &xi) in x.iter().enumerate() {
                    assert_eq!(fwd[i].to_bits(), gelu_scalar(xi).to_bits(), "{name} forward at {xi:e}");
                    let want = g[i] * gelu_grad_scalar(xi);
                    assert_eq!(bwd[i].to_bits(), want.to_bits(), "{name} backward at {xi:e}");
                    if i < rows {
                        let want = gelu_scalar(xi + bias[i % bias.len()]);
                        assert_eq!(biased[i].to_bits(), want.to_bits(), "{name} bias+GELU at {xi:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn gelu_is_within_its_stated_bounds() {
        // Against an f64 tanh-GELU over the whole sweep, and against the
        // same f32 formula over libm's `tanhf` on [−10, 10].
        let c = (2.0 / std::f64::consts::PI).sqrt();
        let (mut fwd, mut bwd, mut libm) = (0.0_f64, 0.0_f64, 0.0_f32);
        for x in sweep() {
            let x64 = f64::from(x);
            let t = (c * (x64 + 0.044_715 * x64 * x64 * x64)).tanh();
            let grad = 0.5 * (1.0 + t) + 0.5 * x64 * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044_715 * x64 * x64);
            fwd = fwd.max((f64::from(gelu_scalar(x)) - 0.5 * x64 * (1.0 + t)).abs());
            bwd = bwd.max((f64::from(gelu_grad_scalar(x)) - grad).abs());
            if x.abs() <= 10.0 {
                libm = libm.max((gelu_scalar(x) - 0.5 * x * (1.0 + inner(x).tanh())).abs());
            }
        }
        println!("forward {fwd:e}, backward {bwd:e}, against libm {libm:e}");
        assert!(fwd <= 1e-6 && bwd <= 5e-6 && libm <= 1e-6, "forward {fwd:e}, backward {bwd:e}, against libm {libm:e}");
    }

    #[test]
    fn non_finite_inputs_give_non_finite_outputs_on_every_tier() {
        // The fp16 loss scaler detects overflow by a non-finite gradient:
        // GELU must not turn an Inf or a NaN into a finite value.
        let mut x = vec![0.5_f32; 40];
        let specials = [(3, f32::INFINITY), (17, f32::NEG_INFINITY), (20, f32::NAN), (38, -f32::NAN)];
        for &(i, v) in &specials {
            x[i] = v;
        }
        let dy = vec![1.0_f32; x.len()];
        for tier in runnable() {
            let (mut fwd, mut bwd, mut biased) = (vec![0.0; x.len()], vec![0.0; x.len()], x.clone());
            isa::run(tier, Pass::Forward(&x, &mut fwd));
            isa::run(tier, Pass::Backward(&x, &dy, &mut bwd));
            isa::run(tier, Pass::BiasForward(&mut biased, &[0.25, -0.25]));
            for (name, out) in [("forward", &fwd), ("backward", &bwd), ("bias+GELU", &biased)] {
                for (i, (&xi, &y)) in x.iter().zip(out.iter()).enumerate() {
                    let special = specials.iter().any(|&(at, _)| at == i);
                    assert_eq!(y.is_finite(), !special, "{} {name}: {xi} gave {y}", tier.name());
                }
            }
        }
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
        // Large positive ~ identity, large negative ~ 0.
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_scalar(-10.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let edge = clamp_edge();
        for &x in &[-6.0_f32, -edge, -3.0, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0, edge, 6.0] {
            let h = 1e-3;
            let fd = (gelu_scalar(x + h) - gelu_scalar(x - h)) / (2.0 * h);
            let an = gelu_grad_scalar(x);
            assert!((fd - an).abs() < 1e-3, "x={x}: fd={fd} analytic={an}");
        }
    }

    #[test]
    fn bias_round_trip() {
        let mut x = vec![1.0; 6];
        add_bias(&mut x, &[0.5, -0.5, 2.0]);
        assert_eq!(x, vec![1.5, 0.5, 3.0, 1.5, 0.5, 3.0]);
        let mut db = vec![0.0; 3];
        bias_grad(&x, &mut db);
        assert_eq!(db, vec![3.0, 1.0, 6.0]);
    }
}
