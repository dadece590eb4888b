//! Property tests for zero-core's partitioning, bucketing, storage, and
//! arena invariants — the pieces whose correctness the ZeRO schedule
//! silently relies on for every step.

use std::ops::Range;

use proptest::prelude::*;
use zero_comm::{chunk_range, launch, CollectiveKind, Precision, ReduceOp, WireFmt};
use zero_core::{reshard, ContiguousArena, FlatStore, GradBucket, OpRole, Partitioner, RankSnapshot, Reduction, ResolvedOp};
use zero_model::{Layout, ModelConfig};

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

/// A small model's layout: its units have every parity and size mix.
fn layout(vocab: usize, seq: usize, heads: usize, head_dim: usize, layers: usize) -> Layout {
    Layout::build(&ModelConfig { vocab, seq, hidden: heads * head_dim, layers, heads })
}

/// An N-way sharded Adam checkpoint of `layout`'s parameters, partitioned
/// the way the engine partitions them: every unit split N ways.
fn sharded(layout: &Layout, world: usize, seed: u64, scaler: Option<(f32, u32, u64)>) -> Vec<RankSnapshot> {
    let (part, psi) = (Partitioner::per_unit(layout, world), layout.total_params());
    let units: Vec<u64> = layout.units().iter().map(|u| u.range.len() as u64).collect();
    let fields = [fill(seed, psi, 1), fill(seed, psi, 2), fill(seed, psi, 3)];
    (0..world)
        .map(|r| {
            let ranges = part.flat_ranges(r, 0..part.shard_range(r).len());
            let [master, opt_m, opt_v] = fields.clone().map(|v| ranges.iter().flat_map(|x| v[x.clone()].to_vec()).collect());
            RankSnapshot {
                rank: r as u32,
                world: world as u32,
                step: 13,
                units: units.clone(),
                owners: world as u32,
                owner: r as u32,
                master,
                opt_m,
                opt_v,
                opt_t: 13,
                scaler,
            }
        })
        .collect()
}

/// Owner `i`'s flat ranges: its whole shard.
fn owned(p: &Partitioner, i: usize) -> Vec<Range<usize>> {
    p.flat_ranges(i, 0..p.shard_range(i).len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_unit_partitioner_is_contiguous(total in 0usize..10_000, n in 1usize..64) {
        // `Partitioner::new` keeps its contiguous meaning: serving shards.
        let p = Partitioner::new(total, n);
        let mut cursor = 0;
        for i in 0..n {
            let r = p.shard_range(i);
            prop_assert_eq!(r.start, cursor);
            if !r.is_empty() {
                prop_assert_eq!(owned(&p, i), vec![r.clone()]);
            }
            cursor = r.end;
        }
        prop_assert_eq!(cursor, total);
    }

    #[test]
    fn per_unit_partitioner_covers_without_overlap(
        vocab in 1usize..40, seq in 1usize..10, heads in 1usize..4, head_dim in 1usize..6,
        layers in 0usize..4, n in 1usize..17,
    ) {
        let l = layout(vocab, seq, heads, head_dim, layers);
        let p = Partitioner::per_unit(&l, n);
        prop_assert_eq!(p.verify_tiling(), Ok(()));
        let mut ranges: Vec<Range<usize>> = (0..n).flat_map(|i| owned(&p, i)).collect();
        ranges.sort_by_key(|r| r.start);
        let mut cursor = 0;
        for r in ranges {
            prop_assert_eq!(r.start, cursor, "a gap or an overlap");
            cursor = r.end;
        }
        prop_assert_eq!(cursor, l.total_params());
    }

    #[test]
    fn every_unit_is_balanced(
        vocab in 1usize..40, seq in 1usize..10, heads in 1usize..4, head_dim in 1usize..6,
        layers in 0usize..4, n in 1usize..17,
    ) {
        let l = layout(vocab, seq, heads, head_dim, layers);
        let p = Partitioner::per_unit(&l, n);
        for unit in l.units() {
            let counts = p.intersect_counts(&unit.range);
            let (min, max) = (counts.iter().min().copied().unwrap_or(0), counts.iter().max().copied().unwrap_or(0));
            prop_assert!(max - min <= 1, "unit {} pieces {counts:?} not balanced", unit.name);
        }
        let counts = p.counts();
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        prop_assert!(spread <= l.units().len(), "shards {counts:?}");
    }

    #[test]
    fn owner_of_agrees_with_the_owned_ranges(
        vocab in 1usize..40, seq in 1usize..10, heads in 1usize..4, head_dim in 1usize..6,
        layers in 0usize..4, n in 1usize..17, idx_seed in 0usize..100_000,
    ) {
        let l = layout(vocab, seq, heads, head_dim, layers);
        let p = Partitioner::per_unit(&l, n);
        let idx = idx_seed % l.total_params();
        let owner = p.owner_of(idx);
        prop_assert!(owned(&p, owner).iter().any(|r| r.contains(&idx)));
    }

    #[test]
    fn intersect_counts_match_local_slices(
        vocab in 1usize..40, seq in 1usize..10, heads in 1usize..4, head_dim in 1usize..6,
        layers in 0usize..4, n in 1usize..9, a in 0usize..100_000, b in 0usize..100_000,
    ) {
        let l = layout(vocab, seq, heads, head_dim, layers);
        let (p, total) = (Partitioner::per_unit(&l, n), l.total_params());
        let (lo, hi) = (a.min(b) % total, (a.max(b) % total).max(a.min(b) % total));
        let range = lo..hi;
        let counts = p.intersect_counts(&range);
        prop_assert_eq!(counts.iter().sum::<usize>(), range.len());
        for (i, cnt) in counts.iter().enumerate() {
            // The slice holds exactly the owner's elements of the range.
            let local = p.local_slice_of(i, &range);
            prop_assert_eq!(local.len(), *cnt, "owner {}", i);
            let flat = p.flat_ranges(i, local);
            prop_assert!(flat.iter().all(|r| range.start <= r.start && r.end <= range.end));
            prop_assert_eq!(flat.iter().map(|r| r.len()).sum::<usize>(), *cnt);
        }
    }

    #[test]
    fn chunk_slices_are_balanced_per_unit(
        vocab in 1usize..40, seq in 1usize..10, heads in 1usize..4, head_dim in 1usize..6,
        layers in 0usize..4, n in 1usize..9, step in 1usize..200,
    ) {
        // CB chunks cut owner 0's rows; every owner's slices of successive
        // chunks tile its shard, and one chunk's slices differ by at most
        // one element per unit the chunk touches.
        let l = layout(vocab, seq, heads, head_dim, layers);
        let p = Partitioner::per_unit(&l, n);
        let rows = p.shard_range(0).len();
        let mut ends = vec![0; n];
        for start in (0..rows).step_by(step) {
            let chunk = start..(start + step).min(rows);
            let slices: Vec<Range<usize>> = (0..n).map(|i| p.chunk_slice(i, chunk.clone())).collect();
            for (i, s) in slices.iter().enumerate() {
                prop_assert_eq!(s.start, ends[i]);
                ends[i] = s.end;
            }
            let touched = l.units().iter().filter(|u| {
                p.flat_ranges(0, chunk.clone()).iter().any(|r| r.start < u.range.end && u.range.start < r.end)
            }).count();
            let lens: Vec<usize> = slices.iter().map(|s| s.len()).collect();
            prop_assert!(lens[0] - lens.iter().min().unwrap() <= touched, "chunk {chunk:?}: {lens:?}");
        }
        prop_assert_eq!(ends, p.counts());
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
        // One owner fuses in flat order.
        let one = Partitioner::new(total, 1);
        let mut flush = |r: std::ops::Range<usize>, d: Vec<f32>| {
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
                bucket.flush_all(&one, &mut flush);
            }
        }
        bucket.flush_all(&one, &mut flush);
        prop_assert!(seen.iter().all(|&s| s), "not all elements flushed");
        prop_assert_eq!(bucket.pending_elems(), 0);
    }

    #[test]
    fn flat_store_write_read_round_trip_f32(
        values in prop::collection::vec(-1e6f32..1e6, 1..100),
    ) {
        let s = FlatStore::from_f32(&Partitioner::new(values.len(), 1), 0, &values, false);
        prop_assert_eq!(s.read(0..values.len()), values);
    }

    #[test]
    fn flat_store_f16_error_bounded(
        values in prop::collection::vec(-60000.0f32..60000.0, 1..100),
    ) {
        let s = FlatStore::from_f32(&Partitioner::new(values.len(), 1), 0, &values, true);
        let back = s.read(0..values.len());
        for (v, b) in values.iter().zip(&back) {
            let tol = (v.abs() * 2.0_f32.powi(-11)).max(2.0_f32.powi(-25));
            prop_assert!((v - b).abs() <= tol);
        }
        prop_assert_eq!(s.bytes(), 2 * values.len() as u64);
    }

    #[test]
    fn reshard_round_trip_is_bitwise_lossless(
        vocab in 1usize..20, layers in 0usize..3, n in 1usize..9, m in 1usize..9, seed in 0u64..1_000_000,
    ) {
        // Elastic recovery reshards N→M; growing back M→N must return the
        // exact original shards — master params and both Adam moments
        // bitwise, plus every piece of metadata the optimizer resumes from.
        let scaler = if seed % 2 == 0 { Some((64.0, 3, seed)) } else { None };
        let orig = sharded(&layout(vocab, 3, 1, 3, layers), n, seed, scaler);
        let mid = reshard(&orig, m).unwrap();
        prop_assert_eq!(mid.len(), m);
        let back = reshard(&mid, n).unwrap();
        prop_assert_eq!(back.len(), n);
        for (a, b) in orig.iter().zip(&back) {
            prop_assert_eq!(a.rank, b.rank);
            prop_assert_eq!(a.world, b.world);
            prop_assert_eq!((a.step, a.opt_t), (b.step, b.opt_t));
            prop_assert_eq!((&a.units, a.owners, a.owner), (&b.units, b.owners, b.owner));
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

/// One op of every kind and wire a plan issues over `n` ranks: raw and
/// qwZ all-gathers and a raw reduce-scatter of `counts`, an all-reduce of
/// `total` elements (the ring's own balanced chunks), and at n = 4 a qgZ
/// reduce-scatter of `counts` over two nodes of two.
fn one_of_each(n: usize, counts: &[usize], total: usize, prec: Precision, block: usize) -> Vec<ResolvedOp> {
    use CollectiveKind::{AllGather, AllReduce, ReduceScatter};
    let members: Vec<usize> = (0..n).collect();
    let op = |kind, counts: Vec<usize>, wire, reduce| {
        let members = members.clone();
        ResolvedOp { kind, members, counts, prec, label: "probe", wire, reduce, role: OpRole::Plain }
    };
    let sum = Reduction::Reduce(ReduceOp::Sum);
    let balanced = (0..n).map(|i| chunk_range(total, n, i).len()).collect();
    let mut ops = vec![
        op(AllGather, counts.to_vec(), WireFmt::Raw, Reduction::Copy),
        op(AllGather, counts.to_vec(), WireFmt::Int8Block { block }, Reduction::Copy),
        op(ReduceScatter, counts.to_vec(), WireFmt::Raw, sum),
        op(AllReduce, balanced, WireFmt::Raw, sum),
    ];
    if n == 4 {
        ops.push(op(ReduceScatter, counts.to_vec(), WireFmt::QgzInt8 { node_size: 2, block }, sum));
    }
    ops
}

/// Runs each of `ops` once on a launched world of `n` ranks and returns,
/// per rank and op, the messages and bytes the fabric metered for it.
fn metered(n: usize, ops: &[ResolvedOp]) -> Vec<Vec<(u64, u64)>> {
    launch(n, |mut c| {
        let mut out = Vec::new();
        for op in ops {
            let (group, mut buf) = (op.group(), fill(c.rank() as u64, op.total_elems(), 7));
            let before = c.stats().snapshot();
            match op.kind {
                CollectiveKind::AllGather => drop(c.start_all_gather(&group, buf, &op.counts, op.prec, op.wire).wait().unwrap()),
                CollectiveKind::ReduceScatter => {
                    drop(c.start_reduce_scatter(&group, buf, ReduceOp::Sum, &op.counts, op.prec, op.wire).wait().unwrap())
                }
                CollectiveKind::AllReduce => c.all_reduce_in(&group, &mut buf, &op.counts, ReduceOp::Sum, op.prec).unwrap(),
            }
            let d = c.stats().snapshot().delta_since(&before);
            out.push((d.messages(op.kind), d.bytes(op.kind)));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `ResolvedOp::sends` is what the fabric meters: for every rank of
    /// every group size 1..=5, as many messages and as many bytes as the
    /// collective really sent, zero-length chunks included.
    #[test]
    fn sends_are_the_metered_messages(
        counts in prop::collection::vec(0usize..6, 5..6),
        total in 0usize..12,
        block in 1usize..5,
        fp16 in 0u8..2,
    ) {
        let prec = if fp16 == 1 { Precision::Fp16 } else { Precision::Fp32 };
        for n in 1..=5 {
            let ops = one_of_each(n, &counts[..n], total, prec, block);
            for (rank, got) in metered(n, &ops).into_iter().enumerate() {
                for (op, (messages, bytes)) in ops.iter().zip(got) {
                    let sends = op.sends(rank);
                    let what = format!("{:?} {:?} counts {:?} rank {rank}", op.kind, op.wire, op.counts);
                    prop_assert_eq!(sends.len() as u64, messages, "{} messages", what);
                    prop_assert_eq!(sends.iter().map(|&(_, b)| b).sum::<u64>(), bytes, "{} bytes", what);
                }
            }
        }
    }
}
