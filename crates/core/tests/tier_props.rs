//! Property tests for the host link behind offload (`zero_core::TierStore`):
//! over arbitrary fetch/spill sequences the byte meters are an exact ledger
//! of every crossing, and the modeled clock follows the configured affine
//! price. Device residency and the budget are `MemoryTracker`'s, checked
//! by its own tests and by `tests/offload_equivalence.rs`.

use proptest::prelude::*;
use zero_core::{TierConfig, TierStore};

/// Plays `raw` as fetches (even draws) and spills (odd draws) over pages of
/// `sizes` elements; returns each page's side of the link at the end
/// (true = device) and the bytes of the host → device crossings, as this
/// test tracks them.
fn play(ts: &mut TierStore, sizes: &[usize], raw: &[u64]) -> (Vec<bool>, u64) {
    let ids: Vec<_> = sizes.iter().map(|&n| ts.alloc(vec![0.0; n])).collect();
    let mut on_device = vec![false; sizes.len()];
    let mut fetched = 0;
    for &r in raw {
        let p = (r >> 1) as usize % sizes.len();
        if r % 2 == 0 {
            ts.fetch(ids[p]);
            if !on_device[p] {
                fetched += 4 * sizes[p] as u64;
            }
            on_device[p] = true;
        } else {
            ts.spill(ids[p]);
            on_device[p] = false;
        }
    }
    (on_device, fetched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The meters are an exact ledger: only a real crossing is metered
    /// (whole pages), so bytes fetched minus bytes spilled is exactly the
    /// bytes of the pages on the device now.
    #[test]
    fn meters_reconcile_with_residency(
        sizes in prop::collection::vec(1usize..32, 2..8),
        raw in prop::collection::vec(0u64..u64::MAX, 1..120),
    ) {
        let mut ts = TierStore::new(TierConfig::budgeted(u64::MAX));
        let (on_device, fetched) = play(&mut ts, &sizes, &raw);
        let resident: u64 =
            (0..sizes.len()).filter(|&p| on_device[p]).map(|p| 4 * sizes[p] as u64).sum();
        let s = ts.stats();
        prop_assert_eq!(s.fetch_bytes, fetched);
        prop_assert_eq!(
            s.fetch_bytes - s.spill_bytes, resident,
            "bytes fetched minus bytes spilled must equal current residency"
        );
        prop_assert_eq!(s.fetch_ops - s.spill_ops, on_device.iter().filter(|&&d| d).count() as u64);
        prop_assert_eq!(s.total_bytes(), s.fetch_bytes + s.spill_bytes);
    }

    /// Pricing follows the configured affine law per crossing: with an
    /// unthrottled link, exactly `crossings × host_lat`; with bandwidth,
    /// bounded by the closed form within float rounding.
    #[test]
    fn modeled_time_matches_affine_law(
        sizes in prop::collection::vec(1usize..32, 2..8),
        raw in prop::collection::vec(0u64..u64::MAX, 1..120),
        lat_us in 0u64..50,
        bw_kb in 0u64..1_000_000,
    ) {
        let bw = bw_kb * 1000; // 0 = unthrottled
        let cfg = TierConfig {
            host_bw: bw,
            host_lat: std::time::Duration::from_micros(lat_us),
            ..TierConfig::budgeted(u64::MAX)
        };
        let mut ts = TierStore::new(cfg);
        play(&mut ts, &sizes, &raw);
        let s = ts.stats();
        let crossings = (s.fetch_ops + s.spill_ops) as u32;
        let latency_floor = cfg.host_lat * crossings;
        if bw == 0 {
            prop_assert_eq!(ts.modeled_time(), latency_floor);
        } else {
            // Per-transfer float division makes an exact sum brittle;
            // bound it between the latency floor and the closed form
            // plus a per-crossing rounding allowance.
            let total = ts.modeled_time().as_secs_f64();
            let floor = latency_floor.as_secs_f64();
            let ceil =
                floor + s.total_bytes() as f64 / bw as f64 + 1e-6 * crossings as f64;
            prop_assert!(
                total >= floor && total <= ceil + 1e-9,
                "modeled {total}s outside [{floor}, {ceil}]"
            );
        }
    }
}
