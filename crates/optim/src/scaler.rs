//! Dynamic loss scaling for mixed-precision training.
//!
//! fp16's narrow exponent range underflows small gradients; the standard
//! mitigation (Micikevicius et al., the paper's reference 23) multiplies the loss
//! by a scale factor before backward and divides gradients by it before
//! the optimizer step. The scale adapts: halve on overflow and skip the
//! step, double after a streak of clean steps.

/// Dynamic loss scaler state.
#[derive(Clone, Copy, Debug)]
pub struct DynamicLossScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u32,
    good_steps: u32,
    min_scale: f32,
    max_scale: f32,
    skipped: u64,
}

impl Default for DynamicLossScaler {
    fn default() -> Self {
        DynamicLossScaler::new(65_536.0)
    }
}

impl DynamicLossScaler {
    /// Creates a scaler with DeepSpeed-like defaults (×2 growth every 2000
    /// clean steps, ÷2 backoff on overflow).
    pub fn new(initial_scale: f32) -> DynamicLossScaler {
        assert!(initial_scale > 0.0, "scale must be positive");
        DynamicLossScaler {
            scale: initial_scale,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 2000,
            good_steps: 0,
            min_scale: 1.0,
            max_scale: 2.0_f32.powi(24),
            skipped: 0,
        }
    }

    /// Sets the growth interval (useful to shorten in tests).
    pub fn with_growth_interval(mut self, interval: u32) -> Self {
        self.growth_interval = interval.max(1);
        self
    }

    /// Current scale S: the loss is multiplied by S, gradients carry a
    /// factor of S until unscaled.
    #[inline]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Number of steps skipped due to overflow so far.
    pub fn skipped_steps(&self) -> u64 {
        self.skipped
    }

    /// Serializable state: (scale, good-step streak, skipped count).
    pub fn state(&self) -> (f32, u32, u64) {
        (self.scale, self.good_steps, self.skipped)
    }

    /// Restores from [`Self::state`] (checkpoint resume).
    ///
    /// A snapshot is untrusted input: a corrupt or hand-edited file could
    /// carry a scale outside `[min_scale, max_scale]` — an invariant
    /// [`Self::update`] maintains but downstream code (gradient unscale,
    /// overflow detection) silently depends on. The restored scale is
    /// clamped back into range.
    ///
    /// # Panics
    /// Panics if `scale` is non-finite or not positive.
    pub fn restore(&mut self, scale: f32, good_steps: u32, skipped: u64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "restored loss scale must be finite and positive, got {scale}"
        );
        self.scale = scale.clamp(self.min_scale, self.max_scale);
        self.good_steps = good_steps;
        self.skipped = skipped;
    }

    /// Reports the outcome of a step. Returns `true` if the optimizer
    /// step should be SKIPPED (an overflow was detected).
    pub fn update(&mut self, found_overflow: bool) -> bool {
        if found_overflow {
            self.scale = (self.scale * self.backoff_factor).max(self.min_scale);
            self.good_steps = 0;
            self.skipped += 1;
            true
        } else {
            self.good_steps += 1;
            if self.good_steps >= self.growth_interval {
                self.scale = (self.scale * self.growth_factor).min(self.max_scale);
                self.good_steps = 0;
            }
            false
        }
    }

    /// Like [`Self::update`], additionally dropping a loss-scale instant
    /// event on `trace` whenever the scale actually moves:
    /// `"loss-scale-backoff"` on an overflow halving, `"loss-scale-growth"`
    /// on an interval doubling.
    pub fn update_traced(
        &mut self,
        found_overflow: bool,
        trace: &zero_trace::TraceRecorder,
    ) -> bool {
        let before = self.scale;
        let skipped = self.update(found_overflow);
        if self.scale < before {
            trace.instant(zero_trace::SpanCategory::Optimizer, "loss-scale-backoff");
        } else if self.scale > before {
            trace.instant(zero_trace::SpanCategory::Optimizer, "loss-scale-growth");
        }
        skipped
    }
}

/// Scans a gradient buffer for NaN/Inf (the overflow signal collected,
/// in distributed runs, with a max-all-reduce across ranks).
pub fn has_overflow(grads: &[f32]) -> bool {
    grads.iter().any(|g| !g.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_halves_scale_and_skips() {
        let mut s = DynamicLossScaler::new(1024.0);
        assert!(s.update(true));
        assert_eq!(s.scale(), 512.0);
        assert_eq!(s.skipped_steps(), 1);
    }

    #[test]
    fn growth_after_interval() {
        let mut s = DynamicLossScaler::new(8.0).with_growth_interval(3);
        assert!(!s.update(false));
        assert!(!s.update(false));
        assert_eq!(s.scale(), 8.0, "not yet");
        assert!(!s.update(false));
        assert_eq!(s.scale(), 16.0, "after 3 clean steps");
    }

    #[test]
    fn overflow_resets_growth_streak() {
        let mut s = DynamicLossScaler::new(8.0).with_growth_interval(2);
        s.update(false);
        s.update(true); // resets streak, halves
        assert_eq!(s.scale(), 4.0);
        s.update(false);
        assert_eq!(s.scale(), 4.0, "streak restarted");
        s.update(false);
        assert_eq!(s.scale(), 8.0);
    }

    #[test]
    fn scale_clamped_to_bounds() {
        let mut s = DynamicLossScaler::new(1.0);
        s.update(true);
        assert_eq!(s.scale(), 1.0, "never below min");
        let mut s = DynamicLossScaler::new(2.0_f32.powi(24)).with_growth_interval(1);
        s.update(false);
        assert_eq!(s.scale(), 2.0_f32.powi(24), "never above max");
    }

    #[test]
    fn restore_clamps_out_of_range_scales() {
        // Regression: restore used to accept any positive scale, letting a
        // corrupt snapshot resume outside [min_scale, max_scale].
        let mut s = DynamicLossScaler::new(1024.0);
        s.restore(1e30, 5, 2);
        assert_eq!(s.scale(), 2.0_f32.powi(24), "clamped down to max_scale");
        assert_eq!(s.skipped_steps(), 2);
        s.restore(1e-20, 0, 2);
        assert_eq!(s.scale(), 1.0, "clamped up to min_scale");
        // In-range values pass through untouched.
        s.restore(4096.0, 7, 9);
        assert_eq!(s.state(), (4096.0, 7, 9));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn restore_rejects_nan_scale() {
        DynamicLossScaler::new(8.0).restore(f32::NAN, 0, 0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn restore_rejects_infinite_scale() {
        DynamicLossScaler::new(8.0).restore(f32::INFINITY, 0, 0);
    }

    #[test]
    fn overflow_detection() {
        assert!(!has_overflow(&[1.0, -2.0, 0.0]));
        assert!(has_overflow(&[1.0, f32::NAN]));
        assert!(has_overflow(&[f32::INFINITY]));
        assert!(has_overflow(&[f32::NEG_INFINITY, 0.0]));
    }
}
