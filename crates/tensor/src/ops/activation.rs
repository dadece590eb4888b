//! Elementwise activation kernels with exact backward passes.

/// GELU, tanh approximation as used by GPT-2/Megatron:
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

/// Derivative of the tanh-approximate GELU.
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044_715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// Forward GELU over a slice: `out[i] = gelu(input[i])`.
pub fn gelu_forward(input: &[f32], out: &mut [f32]) {
    assert_eq!(input.len(), out.len(), "gelu_forward length mismatch");
    for (o, &x) in out.iter_mut().zip(input) {
        *o = gelu_scalar(x);
    }
}

/// Backward GELU: `dx[i] = dy[i] · gelu'(input[i])`, where `input` is the
/// value seen by the forward pass.
pub fn gelu_backward(input: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(input.len(), dy.len(), "gelu_backward dy length mismatch");
    assert_eq!(input.len(), dx.len(), "gelu_backward dx length mismatch");
    for ((d, &g), &x) in dx.iter_mut().zip(dy).zip(input) {
        *d = g * gelu_grad_scalar(x);
    }
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
        for &x in &[-3.0_f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
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
