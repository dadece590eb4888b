//! Property tests for zero-core's partitioning, bucketing, storage, and
//! arena invariants — the pieces whose correctness the ZeRO schedule
//! silently relies on for every step.

use proptest::prelude::*;
use zero_core::{reshard, ContiguousArena, FlatStore, GradBucket, Partitioner, RankSnapshot};

/// Deterministic f32 fill so round-trips can be compared bitwise.
fn fill(seed: u64, len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let mut z = seed ^ salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z >> 40) as f32 / 16_777_216.0) * 2.0 - 1.0
        })
        .collect()
}

/// An N-way sharded Adam checkpoint over `psi` elements, partitioned the
/// same way the engine partitions its flat space.
fn sharded(psi: usize, world: usize, seed: u64, scaler: Option<(f32, u32, u64)>) -> Vec<RankSnapshot> {
    let part = Partitioner::new(psi, world);
    let master = fill(seed, psi, 1);
    let opt_m = fill(seed, psi, 2);
    let opt_v = fill(seed, psi, 3);
    (0..world)
        .map(|r| {
            let range = part.shard_range(r);
            RankSnapshot {
                rank: r as u32,
                world: world as u32,
                step: 13,
                shard_start: range.start as u64,
                shard_end: range.end as u64,
                master: master[range.clone()].to_vec(),
                opt_m: opt_m[range.clone()].to_vec(),
                opt_v: opt_v[range.clone()].to_vec(),
                opt_t: 13,
                scaler,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn partitioner_covers_without_overlap(total in 0usize..10_000, n in 1usize..64) {
        let p = Partitioner::new(total, n);
        let mut cursor = 0;
        for i in 0..n {
            let r = p.shard_range(i);
            prop_assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, total);
    }

    #[test]
    fn partitioner_shards_are_balanced(total in 0usize..10_000, n in 1usize..64) {
        let p = Partitioner::new(total, n);
        let counts = p.counts();
        let (min, max) = (
            counts.iter().min().copied().unwrap_or(0),
            counts.iter().max().copied().unwrap_or(0),
        );
        prop_assert!(max - min <= 1, "shards {counts:?} not balanced");
    }

    #[test]
    fn owner_of_is_consistent_with_shard_range(
        total in 1usize..5_000, n in 1usize..32, idx_seed in 0usize..5_000,
    ) {
        let p = Partitioner::new(total, n);
        let idx = idx_seed % total;
        let owner = p.owner_of(idx);
        prop_assert!(p.shard_range(owner).contains(&idx));
    }

    #[test]
    fn intersect_counts_match_local_slices(
        total in 1usize..5_000, n in 1usize..16,
        a in 0usize..5_000, b in 0usize..5_000,
    ) {
        let p = Partitioner::new(total, n);
        let (lo, hi) = (a.min(b) % total, (a.max(b) % total).max(a.min(b) % total));
        let range = lo..hi;
        let counts = p.intersect_counts(&range);
        prop_assert_eq!(counts.iter().sum::<usize>(), range.len());
        for (i, cnt) in counts.iter().enumerate() {
            let local = p.local_slice_of(i, &range);
            prop_assert_eq!(local.len(), *cnt, "owner {}", i);
            prop_assert!(local.end <= p.shard_range(i).len());
        }
    }

    #[test]
    fn bucket_flushes_cover_all_pushed_data(
        unit_lens in prop::collection::vec(1usize..50, 1..10),
        capacity in 1usize..100,
    ) {
        // Build descending contiguous unit ranges (backward order).
        let total: usize = unit_lens.iter().sum();
        let mut ranges = Vec::new();
        let mut hi = total;
        for len in &unit_lens {
            ranges.push(hi - len..hi);
            hi -= len;
        }
        let mut bucket = GradBucket::new();
        let mut seen = vec![false; total];
        let mut flush = |r: std::ops::Range<usize>, d: &mut [f32]| {
            assert_eq!(r.len(), d.len());
            for (i, &v) in r.clone().zip(d.iter()) {
                assert!(!seen[i], "element {i} flushed twice");
                seen[i] = true;
                assert_eq!(v, i as f32, "value at {i} scrambled");
            }
        };
        // The bucket fuses wherever its owner cuts it; cut at `capacity`.
        for r in &ranges {
            let data: Vec<f32> = r.clone().map(|i| i as f32).collect();
            bucket.push(r.clone(), data);
            if bucket.pending_elems() >= capacity {
                bucket.flush_all(&mut flush);
            }
        }
        bucket.flush_all(&mut flush);
        prop_assert!(seen.iter().all(|&s| s), "not all elements flushed");
        prop_assert_eq!(bucket.pending_elems(), 0);
    }

    #[test]
    fn flat_store_write_read_round_trip_f32(
        values in prop::collection::vec(-1e6f32..1e6, 1..100),
    ) {
        let s = FlatStore::from_f32(0..values.len(), &values, false);
        prop_assert_eq!(s.read(0..values.len()), values);
    }

    #[test]
    fn flat_store_f16_error_bounded(
        values in prop::collection::vec(-60000.0f32..60000.0, 1..100),
    ) {
        let s = FlatStore::from_f32(0..values.len(), &values, true);
        let back = s.read(0..values.len());
        for (v, b) in values.iter().zip(&back) {
            let tol = (v.abs() * 2.0_f32.powi(-11)).max(2.0_f32.powi(-25));
            prop_assert!((v - b).abs() <= tol);
        }
        prop_assert_eq!(s.bytes(), 2 * values.len() as u64);
    }

    #[test]
    fn reshard_round_trip_is_bitwise_lossless(
        psi in 1usize..400, n in 1usize..9, m in 1usize..9, seed in 0u64..1_000_000,
    ) {
        // Elastic recovery reshards N→M; growing back M→N must return the
        // exact original shards — master params and both Adam moments
        // bitwise, plus every piece of metadata the optimizer resumes from.
        let scaler = if seed % 2 == 0 { Some((64.0, 3, seed)) } else { None };
        let orig = sharded(psi, n, seed, scaler);
        let mid = reshard(&orig, m).unwrap();
        prop_assert_eq!(mid.len(), m);
        let back = reshard(&mid, n).unwrap();
        prop_assert_eq!(back.len(), n);
        for (a, b) in orig.iter().zip(&back) {
            prop_assert_eq!(a.rank, b.rank);
            prop_assert_eq!(a.world, b.world);
            prop_assert_eq!((a.step, a.opt_t), (b.step, b.opt_t));
            prop_assert_eq!((a.shard_start, a.shard_end), (b.shard_start, b.shard_end));
            prop_assert_eq!(a.scaler.map(|(s, g, k)| (s.to_bits(), g, k)),
                            b.scaler.map(|(s, g, k)| (s.to_bits(), g, k)));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&a.master), bits(&b.master), "master shard {}", a.rank);
            prop_assert_eq!(bits(&a.opt_m), bits(&b.opt_m), "opt_m shard {}", a.rank);
            prop_assert_eq!(bits(&a.opt_v), bits(&b.opt_v), "opt_v shard {}", a.rank);
        }
    }

    #[test]
    fn arena_slots_never_alias(
        lens in prop::collection::vec(1usize..40, 1..12),
    ) {
        let total: usize = lens.iter().sum();
        let mut arena = ContiguousArena::new(total);
        let mut slots = Vec::new();
        for (i, len) in lens.iter().enumerate() {
            let data: Vec<f32> = std::iter::repeat_n(i as f32, *len).collect();
            slots.push((arena.store(&data), i));
        }
        for (slot, i) in &slots {
            let got = arena.slot(slot);
            prop_assert!(got.iter().all(|&v| v == *i as f32), "slot {i} corrupted");
        }
        prop_assert_eq!(arena.used(), total);
    }
}
