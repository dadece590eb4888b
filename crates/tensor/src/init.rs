//! Deterministic, seeded parameter initialization.
//!
//! Every experiment in the reproduction is seeded so that baseline-DP and
//! ZeRO runs start from identical parameters — a precondition for the
//! convergence-equivalence tests.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fills `out` with samples from N(0, std²) using the given seed.
pub fn normal_init(out: &mut [f32], std: f32, seed: u64) {
    out.iter_mut().zip(normal_samples(std, seed)).for_each(|(v, z)| *v = z);
}

/// The endless sample stream [`normal_init`] writes in order, for a caller
/// that stores the draws in another order.
pub fn normal_samples(std: f32, seed: u64) -> impl Iterator<Item = f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = NormalBoxMuller::new(0.0, std);
    std::iter::repeat_with(move || dist.sample_one(&mut rng))
}

/// Box–Muller normal sampler. `rand` 0.8 ships `StandardNormal` only behind
/// `rand_distr`; this avoids the extra dependency while staying exact and
/// deterministic across platforms.
struct NormalBoxMuller {
    mean: f32,
    std: f32,
}

impl NormalBoxMuller {
    fn new(mean: f32, std: f32) -> Self {
        NormalBoxMuller { mean, std }
    }

    fn sample_one(&self, rng: &mut StdRng) -> f32 {
        use rand::Rng;
        // Draw in (0, 1] to keep ln() finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std * z as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values() {
        let mut a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        normal_init(&mut a, 0.02, 7);
        normal_init(&mut b, 0.02, 7);
        assert_eq!(a, b);
        let mut c = vec![0.0; 64];
        normal_init(&mut c, 0.02, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let n = 20_000;
        let mut v = vec![0.0; n];
        normal_init(&mut v, 1.0, 123);
        let mean: f64 = v.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "sample mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "sample variance {var}");
    }
}
