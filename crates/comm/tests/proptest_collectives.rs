//! Property tests: every collective must agree with a straight-line
//! reference for arbitrary buffer lengths, rank counts, chunk splits, and
//! payload values — including the degenerate shapes ZeRO's flat-space
//! partitioning produces (empty chunks, single-element buffers).

use proptest::prelude::*;
use zero_comm::{chunk_range, launch, Group, Precision, ReduceOp, WireFmt};

/// Per-rank input data for a world of `n` ranks and buffers of `len`.
fn inputs(n: usize, len: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|r| {
            (0..len)
                .map(|i| {
                    let x = (r as u64 + 1).wrapping_mul(i as u64 + salt + 1);
                    ((x % 251) as f32 - 125.0) / 16.0
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_reduce_matches_reference(
        n in 1usize..6,
        len in 1usize..80,
        salt in 0u64..1000,
    ) {
        let data = inputs(n, len, salt);
        let want: Vec<f32> = (0..len)
            .map(|i| data.iter().map(|d| d[i]).sum())
            .collect();
        let data_ref = &data;
        let results = launch(n, move |mut c| {
            let mut buf = data_ref[c.rank()].clone();
            c.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32).unwrap();
            buf
        });
        for got in &results {
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-3, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce(
        n in 1usize..6,
        len in 1usize..60,
        salt in 0u64..1000,
    ) {
        let data = inputs(n, len, salt);
        let data_ref = &data;
        let results = launch(n, move |mut c| {
            let input = data_ref[c.rank()].clone();
            // Path A: fused all-reduce.
            let mut fused = input.clone();
            c.all_reduce(&mut fused, ReduceOp::Sum, Precision::Fp32).unwrap();
            // Path B: reduce-scatter + all-gather (§7.1's decomposition).
            let shard_len = chunk_range(len, c.world_size(), c.rank()).len();
            let mut shard = vec![0.0; shard_len];
            c.reduce_scatter(&input, &mut shard, ReduceOp::Sum, Precision::Fp32).unwrap();
            let mut rebuilt = vec![0.0; len];
            c.all_gather(&shard, &mut rebuilt, Precision::Fp32).unwrap();
            (fused, rebuilt)
        });
        for (fused, rebuilt) in &results {
            for (a, b) in fused.iter().zip(rebuilt) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn var_all_gather_reassembles_arbitrary_splits(
        n in 1usize..6,
        seed_counts in prop::collection::vec(0usize..30, 1..6),
    ) {
        let n = n.min(seed_counts.len());
        let counts: Vec<usize> = seed_counts[..n].to_vec();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return Ok(());
        }
        let counts_ref = &counts;
        let results = launch(n, move |mut c| {
            // In place: this rank's chunk holds its shard, the rest is stale.
            let offset: usize = counts_ref[..c.rank()].iter().sum();
            let own = offset..offset + counts_ref[c.rank()];
            let buf: Vec<f32> =
                (0..total).map(|i| if own.contains(&i) { i as f32 } else { f32::NAN }).collect();
            let g = Group::world(n);
            let raw = WireFmt::Raw;
            c.start_all_gather(&g, buf, counts_ref, Precision::Fp32, raw).wait().unwrap()
        });
        let want: Vec<f32> = (0..total).map(|i| i as f32).collect();
        for got in &results {
            prop_assert_eq!(got, &want);
        }
    }

    #[test]
    fn var_reduce_scatter_sums_per_owner(
        n in 2usize..6,
        seed_counts in prop::collection::vec(0usize..20, 2..6),
        salt in 0u64..100,
    ) {
        let n = n.min(seed_counts.len());
        let counts: Vec<usize> = seed_counts[..n].to_vec();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return Ok(());
        }
        let data = inputs(n, total, salt);
        let data_ref = &data;
        let counts_ref = &counts;
        let results = launch(n, move |mut c| {
            let input = data_ref[c.rank()].clone();
            let (g, op, raw) = (Group::world(n), ReduceOp::Sum, WireFmt::Raw);
            c.start_reduce_scatter(&g, input, op, counts_ref, Precision::Fp32, raw).wait().unwrap()
        });
        let mut offset = 0;
        for (rank, cnt) in counts.iter().enumerate() {
            for (j, &got) in results[rank].iter().enumerate() {
                let i = offset + j;
                let want: f32 = data.iter().map(|d| d[i]).sum();
                prop_assert!((got - want).abs() < 1e-3);
            }
            offset += cnt;
        }
    }

    #[test]
    fn mean_is_sum_divided_by_n(
        n in 1usize..6,
        len in 1usize..40,
        salt in 0u64..100,
    ) {
        let data = inputs(n, len, salt);
        let data_ref = &data;
        let results = launch(n, move |mut c| {
            let mut a = data_ref[c.rank()].clone();
            let mut b = data_ref[c.rank()].clone();
            c.all_reduce(&mut a, ReduceOp::Sum, Precision::Fp32).unwrap();
            c.all_reduce(&mut b, ReduceOp::Mean, Precision::Fp32).unwrap();
            (a, b)
        });
        for (sum, mean) in &results {
            for (s, m) in sum.iter().zip(mean) {
                prop_assert!((s / n as f32 - m).abs() < 1e-3);
            }
        }
    }
}
