//! The host link behind ZeRO-Offload-style training.
//!
//! ZeRO §3 bounds per-device model state at 16Ψ/N, but the follow-on work
//! (ZeRO-Offload, ZeRO-Infinity) trains past even that bound by spilling
//! optimizer states, gradients, and stage-3 parameter shards to a slower
//! host/NVMe tier, as the paper's P_a+cpu (§6.1) does with checkpoint
//! slices. Which of them cross is the plan's placement
//! (`CommPlan::placement`): the optimizer state and gradients always, the
//! stage-3 parameter shard only when the device budget cannot hold it
//! beside the step — otherwise just its updated piece climbs, once a step.
//! [`TierStore`] is one rank's end of that link: a byte meter and a
//! modeled clock. Every crossing is counted in [`TierStats`] (fetches and
//! spills both: `total_bytes` is their sum) and priced at
//! `host_lat + bytes / host_bw` ([`TierConfig::transfer_time`]).
//!
//! It is not a residency ledger: a page of the `alloc`/`fetch`/`spill`
//! path keeps only its byte count and its side of the link, and nothing
//! here checks a budget. The engine keeps its flat training buffers and
//! its MD checkpoint arena where they are; `MemoryTracker` alone says what
//! lives on the device (host residency is priced under the
//! `MemCategory::Host*` categories, one per tier class) and enforces
//! `device_budget`. Every planned tier crossing is metered here, checked
//! against the `CommPlan` tier stream, and slept on the communicator's
//! progress thread so the modeled latency genuinely overlaps (or fails to
//! overlap) with compute.

use crate::config::TierConfig;
use std::time::Duration;

/// Byte/op meters for one rank's tier traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Bytes moved host → device.
    pub fetch_bytes: u64,
    /// Bytes moved device → host.
    pub spill_bytes: u64,
    /// Number of host → device transfers.
    pub fetch_ops: u64,
    /// Number of device → host transfers.
    pub spill_ops: u64,
}

impl TierStats {
    /// Total bytes crossing the tier boundary in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.fetch_bytes + self.spill_bytes
    }
}

/// Handle to a page allocated in a [`TierStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageId(usize);

/// One rank's host link: meters and prices every crossing. See the module
/// docs.
pub struct TierStore {
    cfg: TierConfig,
    /// Each allocated page's bytes and whether it is on the device.
    pages: Vec<(u64, bool)>,
    stats: TierStats,
    modeled: Duration,
}

impl TierStore {
    /// An idle link priced by `cfg`.
    pub fn new(cfg: TierConfig) -> TierStore {
        TierStore { cfg, pages: Vec::new(), stats: TierStats::default(), modeled: Duration::ZERO }
    }

    /// Byte meters so far.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Modeled seconds spent on tier transfers so far.
    pub fn modeled_time(&self) -> Duration {
        self.modeled
    }

    /// Meters one host → device transfer of `bytes` and returns its
    /// modeled duration.
    pub fn record_fetch(&mut self, bytes: u64) -> Duration {
        self.stats.fetch_bytes += bytes;
        self.stats.fetch_ops += 1;
        let t = self.cfg.transfer_time(bytes);
        self.modeled += t;
        t
    }

    /// Meters one device → host transfer of `bytes` and returns its
    /// modeled duration.
    pub fn record_spill(&mut self, bytes: u64) -> Duration {
        self.stats.spill_bytes += bytes;
        self.stats.spill_ops += 1;
        let t = self.cfg.transfer_time(bytes);
        self.modeled += t;
        t
    }

    /// Registers a host-resident page the size of `data`; only its byte
    /// count is kept.
    pub fn alloc(&mut self, data: Vec<f32>) -> PageId {
        self.pages.push((4 * data.len() as u64, false));
        PageId(self.pages.len() - 1)
    }

    /// Moves the page to the device, metered as a fetch (free if already
    /// there). Returns the modeled transfer time.
    pub fn fetch(&mut self, id: PageId) -> Duration {
        self.cross(id, true).map_or(Duration::ZERO, |bytes| self.record_fetch(bytes))
    }

    /// Moves the page back to the host, metered as a spill (free if already
    /// there). Returns the modeled transfer time.
    pub fn spill(&mut self, id: PageId) -> Duration {
        self.cross(id, false).map_or(Duration::ZERO, |bytes| self.record_spill(bytes))
    }

    /// Sets the page's side of the link; its bytes if that moved it.
    fn cross(&mut self, id: PageId, on_device: bool) -> Option<u64> {
        let (bytes, resident) = &mut self.pages[id.0];
        (std::mem::replace(resident, on_device) != on_device).then_some(*bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throttled() -> TierConfig {
        TierConfig {
            enabled: true,
            device_budget: 1 << 20,
            host_bw: 4_000, // 1000 elems/sec
            host_lat: Duration::from_millis(1),
            depth: 1,
        }
    }

    #[test]
    fn transfers_are_priced() {
        let mut ts = TierStore::new(throttled());
        let p = ts.alloc(vec![0.0; 1000]);
        let t = ts.fetch(p);
        assert_eq!(t, Duration::from_millis(1) + Duration::from_secs(1));
        assert_eq!(ts.modeled_time(), t);
    }

    /// The round trip `zero_bench`'s tier probe times: one fetch and one
    /// spill of the whole page, each priced once; repeats are free.
    #[test]
    fn a_round_trip_costs_two_transfers_and_repeats_are_free() {
        let cfg = throttled();
        let mut ts = TierStore::new(cfg);
        let p = ts.alloc(vec![0.0; 300]);
        assert_eq!(ts.spill(p), Duration::ZERO, "a fresh page is on the host");
        let there = ts.fetch(p);
        assert_eq!(ts.fetch(p), Duration::ZERO, "already on the device");
        let back = ts.spill(p);
        assert_eq!(ts.spill(p), Duration::ZERO, "already on the host");
        assert_eq!(there, cfg.transfer_time(1200));
        assert_eq!(there + back, 2 * cfg.transfer_time(1200));
        assert_eq!(ts.modeled_time(), there + back);
        let s = ts.stats();
        assert_eq!((s.fetch_bytes, s.fetch_ops, s.spill_bytes, s.spill_ops), (1200, 1, 1200, 1));
    }

    #[test]
    fn meter_face_accumulates() {
        let mut ts = TierStore::new(TierConfig::budgeted(u64::MAX));
        ts.record_fetch(100);
        ts.record_spill(40);
        ts.record_fetch(1);
        let s = ts.stats();
        assert_eq!((s.fetch_bytes, s.fetch_ops), (101, 2));
        assert_eq!((s.spill_bytes, s.spill_ops), (40, 1));
        assert_eq!(s.total_bytes(), 141);
    }
}
