//! The ISA ladder every vectorised kernel runs on: the tiers of vector
//! extensions a kernel body is compiled for, and which of them this CPU
//! executes, detected once per process.
//!
//! A kernel is written once, as a `Kernel` whose `run` is
//! `#[inline(always)]`, and `run` compiles it into one
//! `#[target_feature]` entry per tier: AVX-512F, AVX2, and the target's
//! portable baseline, which every CPU runs. A tier changes only the vector
//! width LLVM may use. Bodies are safe scalar Rust with no intrinsics, and
//! Rust never contracts a multiply and an add into an FMA (its float
//! operations carry no contraction flag, whatever the target features), so
//! a kernel returns the same bits on every tier. The GEMM
//! ([`crate::ops::matmul`]) and GELU ([`crate::ops::activation`]) both run
//! the tier [`selected`] picks; the two entries below are the crate's only
//! `unsafe`.

use std::sync::OnceLock;

/// One rung of the ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512F: 16 `f32` lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512f,
    /// AVX2: 8 `f32` lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The target's baseline features (SSE2 on x86-64); runs everywhere.
    Baseline,
}

/// Widest first; the baseline, last, runs on every target.
pub const LADDER: &[Isa] = &[
    #[cfg(target_arch = "x86_64")]
    Isa::Avx512f,
    #[cfg(target_arch = "x86_64")]
    Isa::Avx2,
    Isa::Baseline,
];

impl Isa {
    /// `"avx512f"`, `"avx2"` or `"baseline"`.
    pub fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => "avx512f",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            Isa::Baseline => "baseline",
        }
    }

    /// Whether this CPU executes code compiled for `self`.
    pub fn detected(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            Isa::Baseline => true,
        }
    }
}

/// The tiers this CPU executes, widest first.
pub fn runnable() -> impl Iterator<Item = Isa> {
    LADDER.iter().copied().filter(|isa| isa.detected())
}

/// The tier every kernel runs: the widest runnable one, chosen once.
pub fn selected() -> Isa {
    static SELECTED: OnceLock<Isa> = OnceLock::new();
    *SELECTED.get_or_init(|| runnable().next().expect("the baseline tier runs everywhere"))
}

/// A kernel body the ladder compiles once per tier.
pub(crate) trait Kernel {
    /// The body. An implementation must be `#[inline(always)]`, so that it
    /// is compiled with the features of the tier entry that calls it; a
    /// loop left in a separate function runs at the baseline width.
    fn run(self);
}

/// Runs `kernel` compiled for `isa`.
///
/// # Panics
/// Panics if this CPU does not execute `isa`.
pub(crate) fn run<K: Kernel>(isa: Isa, kernel: K) {
    assert!(isa.detected(), "{} does not run on this CPU", isa.name());
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f => {
            // SAFETY: `isa.detected()` held just above: the CPU supports AVX-512F.
            unsafe { avx512f(kernel) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            // SAFETY: `isa.detected()` held just above: the CPU supports AVX2.
            unsafe { avx2(kernel) }
        }
        Isa::Baseline => kernel.run(),
    }
}

/// `kernel` compiled for AVX-512F.
///
/// # Safety
/// The CPU must support AVX-512F (`is_x86_feature_detected!("avx512f")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512f<K: Kernel>(kernel: K) {
    kernel.run();
}

/// `kernel` compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2<K: Kernel>(kernel: K) {
    kernel.run();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_widest_runnable_tier_is_selected_and_the_baseline_always_runs() {
        assert_eq!(Some(selected()), runnable().next());
        assert_eq!(LADDER.last(), Some(&Isa::Baseline));
        assert!(runnable().any(|isa| isa == Isa::Baseline));
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert_ne!(selected(), Isa::Baseline, "an AVX2 host fell back to the baseline tier");
        }
    }
}
