//! Property tests for the tensor substrate: f16 conversion invariants and
//! kernel identities that must hold for arbitrary shapes and values.

use proptest::prelude::*;
use zero_tensor::ops::loss::{cross_entropy_fused, cross_entropy_loss};
use zero_tensor::ops::matmul::{gemm, reference, sgemm, sgemm_nt, sgemm_tn, transpose, Mat, Store};
use zero_tensor::ops::norm::layernorm_forward;
use zero_tensor::ops::softmax::softmax_forward;
use zero_tensor::F16;

/// Values whose products round, so a changed summation order shows.
fn values(len: usize, seed: u64) -> Vec<f32> {
    (0..len as u64).map(|i| ((i * 2_654_435_761 + seed * 977) % 2001) as f32 / 97.0 - 10.0).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f16_round_trip_error_is_within_half_ulp(v in -60000.0f32..60000.0) {
        let h = F16::from_f32(v).to_f32();
        // Relative error ≤ 2^-11 for normals; absolute ≤ 2^-25 near zero.
        let tol = (v.abs() * 2.0_f32.powi(-11)).max(2.0_f32.powi(-25));
        prop_assert!((v - h).abs() <= tol, "{v} -> {h}");
    }

    #[test]
    fn f16_conversion_is_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }

    #[test]
    fn f16_preserves_sign_and_zero(v in -60000.0f32..60000.0) {
        let h = F16::from_f32(v).to_f32();
        if v > 2.0_f32.powi(-24) {
            prop_assert!(h >= 0.0);
        } else if v < -2.0_f32.powi(-24) {
            prop_assert!(h <= 0.0);
        }
    }

    #[test]
    fn f16_idempotent(v in -60000.0f32..60000.0) {
        // Quantizing twice equals quantizing once.
        let once = F16::from_f32(v);
        let twice = F16::from_f32(once.to_f32());
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn matmul_identity(n in 1usize..12, seed in 0u64..100) {
        // A · I = A.
        let a: Vec<f32> = (0..n * n)
            .map(|i| (((i as u64 + seed) * 37 % 97) as f32 - 48.0) / 10.0)
            .collect();
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut c = vec![0.0; n * n];
        sgemm(&a, &eye, &mut c, n, n, n);
        for (x, y) in a.iter().zip(&c) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn wrappers_are_bitwise_the_reference(
        m in 1usize..24, k in 0usize..40, n in 1usize..40, seed in 0u64..1000,
    ) {
        // One logical product, three storage layouts; every wrapper must
        // reproduce the in-order sums bit for bit (m < MR, tile edges and
        // k = 0 included), not merely agree approximately.
        let a = values(m * k, seed);
        let b = values(k * n, seed + 1);
        let (mut a_t, mut b_t) = (vec![0.0; m * k], vec![0.0; k * n]);
        transpose(&a, &mut a_t, m, k);
        transpose(&b, &mut b_t, k, n);
        let want = reference(m, k, n, Mat::n(&a, k), Mat::n(&b, n));
        let mut got = vec![f32::NAN; m * n];
        sgemm(&a, &b, &mut got, m, k, n);
        prop_assert_eq!(bits(&got), bits(&want), "sgemm ({}, {}, {})", m, k, n);
        sgemm_nt(&a, &b_t, &mut got, m, k, n);
        prop_assert_eq!(bits(&got), bits(&want), "sgemm_nt ({}, {}, {})", m, k, n);
        sgemm_tn(&a_t, &b, &mut got, m, k, n);
        prop_assert_eq!(bits(&got), bits(&want), "sgemm_tn ({}, {}, {})", m, k, n);
    }

    #[test]
    fn strided_gemm_is_bitwise_the_reference_and_stays_in_its_window(
        m in 1usize..24, k in 1usize..40, n in 1usize..40,
        pads in 0usize..64, layout in 0usize..8, seed in 0u64..1000,
    ) {
        let (pad_a, pad_b, pad_c) = (pads % 4, pads / 4 % 4, pads / 16);
        let (a_trans, b_trans, add) = (layout & 1 != 0, layout & 2 != 0, layout & 4 != 0);
        // Operands stored with rows longer than the part that is used.
        let (a_rows, a_cols) = if a_trans { (k, m) } else { (m, k) };
        let (b_rows, b_cols) = if b_trans { (n, k) } else { (k, n) };
        let (lda, ldb, ldc) = (a_cols + pad_a, b_cols + pad_b, n + pad_c);
        let a = values(a_rows * lda, seed);
        let b = values(b_rows * ldb, seed + 1);
        let view = |data, ld, trans| if trans { Mat::t(data, ld) } else { Mat::n(data, ld) };
        let store = if add { Store::Add } else { Store::Set };
        // C starts non-zero everywhere, so `Add` has something to add to
        // and a write outside the m×n window is visible.
        let before = values(m * ldc, seed + 2);
        let mut got = before.clone();
        gemm(m, k, n, view(&a, lda, a_trans), view(&b, ldb, b_trans), &mut got, ldc, store);
        let sums = reference(m, k, n, view(&a, lda, a_trans), view(&b, ldb, b_trans));
        for (i, (g, b)) in got.iter().zip(&before).enumerate() {
            let (row, col) = (i / ldc, i % ldc);
            let want = match (col < n, add) {
                (false, _) => *b,
                (true, false) => sums[row * n + col],
                (true, true) => b + sums[row * n + col],
            };
            prop_assert_eq!(g.to_bits(), want.to_bits(), "({}, {}, {}) layout {} pads {} element {}", m, k, n, layout, pads, i);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..6, cols in 1usize..12, seed in 0u64..100,
    ) {
        let x: Vec<f32> = (0..rows * cols)
            .map(|i| (((i as u64 + seed) * 31 % 41) as f32 - 20.0) / 4.0)
            .collect();
        let mut y = vec![0.0; rows * cols];
        softmax_forward(&x, &mut y, rows, cols);
        for r in 0..rows {
            let row = &y[r * cols..(r + 1) * cols];
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn layernorm_output_is_normalized(
        rows in 1usize..5, dim in 2usize..16, seed in 0u64..100,
    ) {
        let x: Vec<f32> = (0..rows * dim)
            .map(|i| (((i as u64 * 29 + seed) % 53) as f32 - 26.0) / 5.0)
            .collect();
        let gamma = vec![1.0; dim];
        let beta = vec![0.0; dim];
        let mut y = vec![0.0; rows * dim];
        let mut mean = vec![0.0; rows];
        let mut rstd = vec![0.0; rows];
        layernorm_forward(&x, &gamma, &beta, &mut y, &mut mean, &mut rstd, rows, dim, 1e-5);
        for r in 0..rows {
            let row = &y[r * dim..(r + 1) * dim];
            let m: f32 = row.iter().sum::<f32>() / dim as f32;
            prop_assert!(m.abs() < 1e-4, "row mean {m}");
        }
    }

    #[test]
    fn cross_entropy_fused_matches_forward_only(
        tokens in 1usize..6, vocab in 2usize..12, seed in 0u64..100,
    ) {
        let logits: Vec<f32> = (0..tokens * vocab)
            .map(|i| (((i as u64 + seed) * 17 % 31) as f32 - 15.0) / 4.0)
            .collect();
        let targets: Vec<u32> = (0..tokens).map(|i| ((i as u64 + seed) % vocab as u64) as u32).collect();
        let mut d = vec![0.0; tokens * vocab];
        let a = cross_entropy_fused(&logits, &targets, &mut d, tokens, vocab);
        let b = cross_entropy_loss(&logits, &targets, tokens, vocab);
        prop_assert!((a - b).abs() < 1e-5);
        // Gradient rows sum to ~0 and loss is non-negative.
        prop_assert!(a >= 0.0);
        for t in 0..tokens {
            let s: f32 = d[t * vocab..(t + 1) * vocab].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }
}
