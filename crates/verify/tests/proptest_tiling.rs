//! Property tests extending the shard-tiling prover to arbitrary sizes:
//! for any model layout and owner count, the per-unit partition tiles the
//! flat space exactly once, balances every unit, agrees with `owner_of`,
//! and for any subrange the per-owner intersections tile it exactly; the
//! one-unit partition keeps its contiguous shards.

use proptest::prelude::*;
use zero_core::Partitioner;
use zero_model::{Layout, ModelConfig};

fn layout(vocab: usize, seq: usize, heads: usize, head_dim: usize, layers: usize) -> Layout {
    Layout::build(&ModelConfig { vocab, seq, hidden: heads * head_dim, layers, heads })
}

proptest! {
    #[test]
    fn tiling_invariants_hold(
        vocab in 1usize..200, seq in 1usize..20, heads in 1usize..5, head_dim in 1usize..9,
        layers in 0usize..5, n in 1usize..128,
    ) {
        let p = Partitioner::per_unit(&layout(vocab, seq, heads, head_dim, layers), n);
        prop_assert!(p.verify_tiling().is_ok(), "{:?}", p.verify_tiling());
    }

    #[test]
    fn one_unit_tiling_invariants_hold(total in 0usize..200_000, n in 1usize..128) {
        let p = Partitioner::new(total, n);
        prop_assert!(p.verify_tiling().is_ok(), "{:?}", p.verify_tiling());
    }

    #[test]
    fn intersections_tile_any_subrange(
        vocab in 1usize..200, seq in 1usize..20, heads in 1usize..5, head_dim in 1usize..9,
        layers in 0usize..5, n in 1usize..64, a in 0usize..100_000, b in 0usize..100_000,
    ) {
        let l = layout(vocab, seq, heads, head_dim, layers);
        let total = l.total_params();
        let lo = a.min(b) % total;
        let hi = lo + (a.max(b) % (total - lo).max(1));
        let range = lo..hi.min(total);
        let p = Partitioner::per_unit(&l, n);
        let counts = p.intersect_counts(&range);
        // Counts sum to the range length…
        prop_assert_eq!(counts.iter().sum::<usize>(), range.len());
        // …and the owners' pieces of it, laid out in flat order, run
        // through it without a gap or an overlap.
        let mut pieces = Vec::new();
        for (i, &cnt) in counts.iter().enumerate() {
            let local = p.local_slice_of(i, &range);
            prop_assert_eq!(local.len(), cnt);
            pieces.extend(p.flat_ranges(i, local));
        }
        pieces.sort_by_key(|r| r.start);
        let mut covered = range.start;
        for r in pieces {
            prop_assert_eq!(r.start, covered);
            covered = r.end;
        }
        prop_assert_eq!(covered, range.end);
    }

    #[test]
    fn every_element_owned_exactly_once(
        vocab in 1usize..40, seq in 1usize..10, heads in 1usize..4, head_dim in 1usize..6,
        layers in 0usize..4, n in 1usize..32,
    ) {
        let l = layout(vocab, seq, heads, head_dim, layers);
        let p = Partitioner::per_unit(&l, n);
        let mut seen = vec![0u8; l.total_params()];
        for i in 0..n {
            for idx in p.flat_ranges(i, 0..p.shard_range(i).len()).into_iter().flatten() {
                seen[idx] += 1;
                prop_assert_eq!(p.owner_of(idx), i);
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }
}
