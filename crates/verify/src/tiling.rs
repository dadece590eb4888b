//! The shard-tiling prover.
//!
//! ZeRO partitions every unit of the flat parameter space N_d ways, and
//! an owner's shard is its pieces of the units, in unit order. The
//! correctness of every variable-count collective in the engine rests on
//! three tiling facts:
//!
//! * the shards are **exhaustive and disjoint** — every flat element is
//!   owned by exactly one rank, and `owner_of` names it;
//! * every unit is **balanced** — its pieces differ by at most one element
//!   (the balanced-uneven padding), so an op over a run of whole units has
//!   member counts within one element per unit;
//! * layer-range intersections **tile each unit exactly** — for any unit
//!   the per-owner counts sum to the unit length, and the owners' local
//!   slices hold contiguous pieces of it in owner order.
//!
//! [`prove_all`] checks them for a sweep of sizes far wider than any
//! training run uses, the one-unit (contiguous, serving) partitions among
//! them, plus every real model layout; the property tests in
//! `tests/proptest_tiling.rs` extend the sweep to arbitrary sizes.

use zero_core::Partitioner;
use zero_model::{Layout, ModelConfig};

/// Counters describing how much the prover covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct TilingReport {
    /// Distinct partitions proven.
    pub partitions: usize,
    /// Flat elements covered across all proven partitions.
    pub elements: u64,
    /// Layout units whose intersections were shown to tile exactly.
    pub units: usize,
}

/// Exhaustive per-element ownership check: every index belongs to exactly
/// one shard and `owner_of` names it.
fn prove_ownership_exhaustive(p: &Partitioner) -> Result<(), String> {
    let (total, n) = (p.total(), p.owners());
    let mut holders = vec![0u8; total];
    for i in 0..n {
        for idx in p.flat_ranges(i, 0..p.shard_range(i).len()).into_iter().flatten() {
            holders[idx] += 1;
            let o = p.owner_of(idx);
            if o != i {
                return Err(format!("element {idx} lies in shard {i} but owner_of says {o} (total={total}, n={n})"));
            }
        }
    }
    match holders.iter().position(|&h| h != 1) {
        Some(idx) => Err(format!("element {idx} held by {} shards (total={total}, n={n})", holders[idx])),
        None => Ok(()),
    }
}

/// Proves `p` tiles `layout`'s unit ranges exactly: every unit's per-owner
/// intersections sum to its length, differ by at most one element, and
/// are the owners' contiguous pieces of it, in owner order.
fn prove_units(layout: &Layout, p: &Partitioner, report: &mut TilingReport) -> Result<(), String> {
    let (psi, n) = (layout.total_params(), p.owners());
    p.verify_tiling()?;
    report.partitions += 1;
    report.elements += psi as u64;
    for (ui, unit) in layout.units().iter().enumerate() {
        let counts = p.intersect_counts(&unit.range);
        let (lo, hi) = (counts.iter().min().copied().unwrap_or(0), counts.iter().max().copied().unwrap_or(0));
        if hi - lo > 1 {
            return Err(format!("unit {ui} ({:?}): pieces {counts:?} are not balanced (Ψ={psi}, n={n})", unit.range));
        }
        let mut covered = unit.range.start;
        for (i, &cnt) in counts.iter().enumerate() {
            let pieces = p.flat_ranges(i, p.local_slice_of(i, &unit.range));
            let want: Vec<_> = (cnt > 0).then(|| covered..covered + cnt).into_iter().collect();
            if pieces != want {
                return Err(format!(
                    "unit {ui}, owner {i}: holds {pieces:?} but coverage reached {covered} and \
                     intersect_counts says {cnt} (Ψ={psi}, n={n})"
                ));
            }
            covered += cnt;
        }
        if covered != unit.range.end {
            return Err(format!(
                "unit {ui}: pieces cover ..{covered}, unit ends at {} (Ψ={psi}, n={n})",
                unit.range.end
            ));
        }
        report.units += 1;
    }
    Ok(())
}

/// Runs the full tiling sweep: synthetic sizes, exhaustive small cases,
/// and every real model layout (including MP-sliced ones).
pub fn prove_all() -> Result<TilingReport, String> {
    let mut report = TilingReport::default();

    // Synthetic sweep: invariants for sizes spanning six orders of
    // magnitude, n up to 64 ranks.
    for total in [0usize, 1, 2, 3, 5, 16, 97, 1000, 12345, 1 << 20] {
        for n in 1..=64 {
            let p = Partitioner::new(total, n);
            p.verify_tiling()?;
            report.partitions += 1;
            report.elements += total as u64;
        }
    }

    // Exhaustive per-element ownership for every small case.
    for total in 0..=128 {
        for n in 1..=12 {
            prove_ownership_exhaustive(&Partitioner::new(total, n))?;
            report.partitions += 1;
            report.elements += total as u64;
        }
    }

    // Real layouts, every unit split per owner: the test model, a wider
    // one and one with odd-length units, flat and MP-sliced, exhaustively.
    let models = [
        ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 },
        ModelConfig { vocab: 64, seq: 16, hidden: 32, layers: 3, heads: 4 },
        ModelConfig { vocab: 7, seq: 3, hidden: 3, layers: 2, heads: 1 },
    ];
    for layout in models.iter().flat_map(|m| [Layout::build(m), Layout::build_mp(m, m.heads.min(2))]) {
        for n in 1..=8 {
            let p = Partitioner::per_unit(&layout, n);
            prove_units(&layout, &p, &mut report)?;
            prove_ownership_exhaustive(&p)?;
        }
    }

    // hpZ secondary partitions: for every (N, G) node shape the engine
    // accepts, the node-local partition over G slots must tile the flat
    // space just like the primary over N — every unit's node-scope
    // refetch counts rest on it. Primary and secondary are independent
    // tilings of the same space; prove both plus the per-unit secondary
    // intersections.
    for m in &models {
        let layout = Layout::build(m);
        for (n, g) in [(2usize, 2usize), (4, 2), (4, 4), (8, 2), (8, 4)] {
            debug_assert!(n.is_multiple_of(g));
            prove_secondary(&layout, n, g, &mut report)?;
        }
    }

    Ok(report)
}

/// Proves the hpZ secondary partition for one (N, G) world: the primary
/// N-way and the node-local G-way per-unit partitions each tile every
/// unit exactly and in balance — every unit's secondary counts sum to the
/// unit length (the node-scope all-gather contract).
fn prove_secondary(
    layout: &Layout,
    n: usize,
    g: usize,
    report: &mut TilingReport,
) -> Result<(), String> {
    prove_units(layout, &Partitioner::per_unit(layout, n), report)?;
    prove_units(layout, &Partitioner::per_unit(layout, g), report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_passes() {
        let r = prove_all().expect("tiling proof");
        assert!(r.partitions > 2000, "covered {} partitions", r.partitions);
        assert!(r.units > 0);
    }
}
