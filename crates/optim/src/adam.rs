//! Adam optimizer (Kingma & Ba, 2015) over flat parameter buffers.
//!
//! Adam is the paper's canonical memory-hungry optimizer: per parameter it
//! keeps first-moment (momentum) and second-moment (variance) estimates in
//! fp32, which together with the fp32 master parameters give the K = 12
//! bytes/parameter multiplier of §3.1. The optimizer here operates on any
//! contiguous slice, so the ZeRO engines can run it over a 1/N_d shard —
//! the essence of P_os.

use std::sync::Arc;

use zero_trace::{SpanCategory, TraceRecorder};

/// Adam hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW style); 0 disables.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam state for a (possibly sharded) flat parameter buffer.
///
/// Memory: `8 · numel` bytes (two fp32 moments) — exactly the momentum and
/// variance terms of the paper's K = 12 decomposition (the remaining 4 are
/// the fp32 master parameters, owned by the mixed-precision engine).
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
    trace: Option<Arc<TraceRecorder>>,
}

impl Adam {
    /// Zero-initialized state for `numel` parameters.
    pub fn new(numel: usize, cfg: AdamConfig) -> Adam {
        Adam {
            cfg,
            m: vec![0.0; numel],
            v: vec![0.0; numel],
            t: 0,
            trace: None,
        }
    }

    /// Attaches a span recorder: every subsequent [`Self::step`] brackets
    /// its update in an `optimizer`-category `"adam-update"` span.
    pub fn attach_trace(&mut self, trace: Arc<TraceRecorder>) {
        self.trace = Some(trace);
    }

    /// Number of parameters this state covers.
    pub fn numel(&self) -> usize {
        self.m.len()
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Bytes of optimizer state held (momentum + variance).
    pub fn state_bytes(&self) -> usize {
        8 * self.m.len()
    }

    /// Applies one Adam update: `params -= lr · m̂ / (√v̂ + eps)`.
    ///
    /// # Panics
    /// Panics if `params` or `grads` length differs from the state size.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "adam: params length");
        assert_eq!(grads.len(), self.m.len(), "adam: grads length");
        let span = self
            .trace
            .as_ref()
            .map(|t| t.begin(SpanCategory::Optimizer, "adam-update"));
        self.t += 1;
        let AdamConfig {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
        } = self.cfg;
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            let m = beta1 * self.m[i] + (1.0 - beta1) * g;
            let v = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            self.m[i] = m;
            self.v[i] = v;
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            let mut update = m_hat / (v_hat.sqrt() + eps);
            if weight_decay != 0.0 {
                update += weight_decay * params[i];
            }
            params[i] -= lr * update;
        }
        if let (Some(t), Some(id)) = (&self.trace, span) {
            t.end(id);
        }
    }

    /// Direct access to the moment buffers (for the partitioning tests
    /// and checkpoint serialization).
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    /// Reconstructs Adam state from serialized moments and step count
    /// (checkpoint resume).
    ///
    /// # Panics
    /// Panics if the moment buffers differ in length.
    pub fn from_state(cfg: AdamConfig, m: Vec<f32>, v: Vec<f32>, t: u64) -> Adam {
        assert_eq!(m.len(), v.len(), "adam state length mismatch");
        Adam { cfg, m, v, t, trace: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference implementation, one parameter.
    fn reference(steps: usize, grad: f32, mut p: f32, cfg: AdamConfig) -> f32 {
        let (mut m, mut v) = (0.0_f32, 0.0_f32);
        for t in 1..=steps {
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad;
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad;
            let m_hat = m / (1.0 - cfg.beta1.powi(t as i32));
            let v_hat = v / (1.0 - cfg.beta2.powi(t as i32));
            p -= cfg.lr * (m_hat / (v_hat.sqrt() + cfg.eps) + cfg.weight_decay * p);
        }
        p
    }

    #[test]
    fn matches_scalar_reference() {
        let cfg = AdamConfig::default();
        let mut adam = Adam::new(3, cfg);
        let mut params = vec![1.0, -2.0, 0.5];
        let grads = vec![0.3, -0.1, 0.0];
        for _ in 0..10 {
            adam.step(&mut params, &grads);
        }
        for i in 0..3 {
            let want = reference(10, grads[i], [1.0, -2.0, 0.5][i], cfg);
            assert!(
                (params[i] - want).abs() < 1e-5,
                "param {i}: {} vs {want}",
                params[i]
            );
        }
    }

    #[test]
    fn first_step_moves_by_lr_against_gradient_sign() {
        // With bias correction, the very first Adam step is ≈ lr·sign(g).
        let cfg = AdamConfig::default();
        let mut adam = Adam::new(2, cfg);
        let mut params = vec![0.0, 0.0];
        adam.step(&mut params, &[0.5, -0.2]);
        assert!((params[0] + cfg.lr).abs() < 1e-5, "got {}", params[0]);
        assert!((params[1] - cfg.lr).abs() < 1e-5, "got {}", params[1]);
    }

    #[test]
    fn zero_gradient_leaves_params_unchanged_without_decay() {
        let mut adam = Adam::new(2, AdamConfig::default());
        let mut params = vec![1.5, -0.3];
        adam.step(&mut params, &[0.0, 0.0]);
        assert_eq!(params, vec![1.5, -0.3]);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let cfg = AdamConfig {
            weight_decay: 0.1,
            ..AdamConfig::default()
        };
        let mut adam = Adam::new(1, cfg);
        let mut params = vec![1.0];
        adam.step(&mut params, &[0.0]);
        assert!(params[0] < 1.0 && params[0] > 0.99);
    }

    #[test]
    fn sharded_updates_equal_full_update() {
        // Running Adam on two half-shards must equal running it on the
        // whole buffer — the invariant P_os relies on.
        let cfg = AdamConfig::default();
        let n = 10;
        let grads: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
        let init: Vec<f32> = (0..n).map(|i| (i as f32 * 1.3).cos()).collect();

        let mut full = Adam::new(n, cfg);
        let mut p_full = init.clone();
        for _ in 0..5 {
            full.step(&mut p_full, &grads);
        }

        let mut lo = Adam::new(n / 2, cfg);
        let mut hi = Adam::new(n / 2, cfg);
        let mut p_lo = init[..n / 2].to_vec();
        let mut p_hi = init[n / 2..].to_vec();
        for _ in 0..5 {
            lo.step(&mut p_lo, &grads[..n / 2]);
            hi.step(&mut p_hi, &grads[n / 2..]);
        }
        assert_eq!(&p_full[..n / 2], &p_lo[..]);
        assert_eq!(&p_full[n / 2..], &p_hi[..]);
    }

    #[test]
    fn state_bytes_is_8_per_param() {
        let adam = Adam::new(100, AdamConfig::default());
        assert_eq!(adam.state_bytes(), 800);
    }
}
