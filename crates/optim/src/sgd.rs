//! Plain SGD with optional momentum — the low-memory baseline the paper
//! contrasts with adaptive optimizers (§2.3): 0 or 4 bytes of state per
//! parameter instead of Adam's 8.

/// SGD hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient; 0 disables momentum (and its state).
    pub momentum: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.01,
            momentum: 0.0,
        }
    }
}

/// SGD state over a flat parameter buffer.
pub struct Sgd {
    cfg: SgdConfig,
    velocity: Option<Vec<f32>>,
}

impl Sgd {
    /// Creates the optimizer; allocates velocity only if momentum > 0.
    pub fn new(numel: usize, cfg: SgdConfig) -> Sgd {
        Sgd {
            cfg,
            velocity: (cfg.momentum != 0.0).then(|| vec![0.0; numel]),
        }
    }

    /// Bytes of optimizer state held.
    pub fn state_bytes(&self) -> usize {
        self.velocity.as_ref().map_or(0, |v| 4 * v.len())
    }

    /// The velocity buffer, if momentum is enabled (for serialization).
    pub fn velocity(&self) -> Option<&[f32]> {
        self.velocity.as_deref()
    }

    /// Reconstructs SGD state from a serialized velocity buffer.
    pub fn from_state(cfg: SgdConfig, velocity: Option<Vec<f32>>) -> Sgd {
        assert_eq!(
            velocity.is_some(),
            cfg.momentum != 0.0,
            "velocity presence must match momentum config"
        );
        Sgd { cfg, velocity }
    }

    /// Applies one update.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "sgd: length mismatch");
        match &mut self.velocity {
            Some(vel) => {
                assert_eq!(vel.len(), params.len(), "sgd: velocity length");
                for i in 0..params.len() {
                    vel[i] = self.cfg.momentum * vel[i] + grads[i];
                    params[i] -= self.cfg.lr * vel[i];
                }
            }
            None => {
                for (p, &g) in params.iter_mut().zip(grads) {
                    *p -= self.cfg.lr * g;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_sgd_update() {
        let mut sgd = Sgd::new(2, SgdConfig { lr: 0.1, momentum: 0.0 });
        let mut p = vec![1.0, 2.0];
        sgd.step(&mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, 2.1]);
        assert_eq!(sgd.state_bytes(), 0);
    }

    #[test]
    fn momentum_accumulates() {
        let mut sgd = Sgd::new(1, SgdConfig { lr: 0.1, momentum: 0.9 });
        let mut p = vec![0.0];
        sgd.step(&mut p, &[1.0]); // v=1.0, p=-0.1
        sgd.step(&mut p, &[1.0]); // v=1.9, p=-0.29
        assert!((p[0] + 0.29).abs() < 1e-6, "got {}", p[0]);
        assert_eq!(sgd.state_bytes(), 4);
    }
}
