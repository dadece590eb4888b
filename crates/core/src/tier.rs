//! The two-tier memory store behind ZeRO-Offload-style training.
//!
//! ZeRO §3 bounds per-device model state at 16Ψ/N, but the follow-on work
//! (ZeRO-Offload, ZeRO-Infinity) trains past even that bound by spilling
//! optimizer states, gradients, and stage-3 parameter shards to a slower
//! host/NVMe tier, as the paper's P_a+cpu (§6.1) does with checkpoint
//! slices. [`TierStore`] models that tier for one rank:
//!
//! - a **paged container**: pages hold real `f32` payloads, each resident
//!   in exactly one tier at a time; fetching past the device budget evicts
//!   least-recently-used pages automatically, so resident device bytes
//!   can never exceed the budget (the tier proptests drive arbitrary
//!   spill/fetch/evict interleavings against this invariant);
//! - a **byte meter and clock**: every crossing is counted in
//!   [`TierStats`] and priced at `host_lat + bytes / host_bw` of modeled
//!   time, the quantity `zero-sim`'s cadence model consumes.
//!
//! The engine keeps its flat training buffers and its MD checkpoint arena
//! where they are and uses the store as the residency ledger and meter for
//! them: host residency is priced under the `MemCategory::Host*`
//! categories, one per tier class, and every planned tier crossing is
//! metered here, checked against the `CommPlan` tier stream, and slept on
//! the communicator's progress thread so the modeled latency genuinely
//! overlaps (or fails to overlap) with compute.

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

struct Page {
    data: Vec<f32>,
    on_device: bool,
    /// Logical clock of the last fetch/read/write touch (LRU eviction).
    last_use: u64,
}

impl Page {
    fn bytes(&self) -> u64 {
        4 * self.data.len() as u64
    }
}

/// A device tier with a hard byte budget over a bandwidth/latency-priced
/// host tier. See the module docs for the two roles it plays.
pub struct TierStore {
    cfg: TierConfig,
    pages: Vec<Page>,
    device_bytes: u64,
    clock: u64,
    stats: TierStats,
    modeled: Duration,
}

impl TierStore {
    /// An empty store enforcing `cfg.device_budget`.
    pub fn new(cfg: TierConfig) -> TierStore {
        TierStore {
            cfg,
            pages: Vec::new(),
            device_bytes: 0,
            clock: 0,
            stats: TierStats::default(),
            modeled: Duration::ZERO,
        }
    }

    /// The configuration this store prices transfers with.
    pub fn config(&self) -> &TierConfig {
        &self.cfg
    }

    /// Byte meters so far.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Modeled seconds spent on tier transfers so far.
    pub fn modeled_time(&self) -> Duration {
        self.modeled
    }

    /// Bytes currently resident in the device tier.
    pub fn device_bytes(&self) -> u64 {
        self.device_bytes
    }

    // ----- the meter/clock face (engine call sites) -----

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

    // ----- the paged-container face -----

    /// Allocates a page holding `data`, host-resident (spilled) initially.
    pub fn alloc(&mut self, data: Vec<f32>) -> PageId {
        self.pages.push(Page { data, on_device: false, last_use: self.clock });
        self.clock += 1;
        PageId(self.pages.len() - 1)
    }

    /// True if the page currently lives in the device tier.
    pub fn on_device(&self, id: PageId) -> bool {
        self.pages[id.0].on_device
    }

    /// Reads the page's contents (either tier) and marks it touched.
    pub fn read(&mut self, id: PageId) -> &[f32] {
        self.clock += 1;
        let p = &mut self.pages[id.0];
        p.last_use = self.clock;
        &p.data
    }

    /// Overwrites `vals` into the page starting at element `offset`.
    ///
    /// # Panics
    /// Panics if the write runs past the end of the page.
    pub fn write(&mut self, id: PageId, offset: usize, vals: &[f32]) {
        self.clock += 1;
        let p = &mut self.pages[id.0];
        p.last_use = self.clock;
        p.data[offset..offset + vals.len()].copy_from_slice(vals);
    }

    /// Brings the page into the device tier, evicting least-recently-used
    /// resident pages as needed to stay inside the budget. Metered as a
    /// fetch (no-op if already resident). Returns the modeled transfer
    /// time.
    ///
    /// # Panics
    /// Panics if the page alone exceeds the device budget.
    pub fn fetch(&mut self, id: PageId) -> Duration {
        self.clock += 1;
        self.pages[id.0].last_use = self.clock;
        if self.pages[id.0].on_device {
            return Duration::ZERO;
        }
        let need = self.pages[id.0].bytes();
        assert!(
            need <= self.cfg.device_budget,
            "page of {need} bytes cannot fit device budget {}",
            self.cfg.device_budget
        );
        while self.device_bytes + need > self.cfg.device_budget {
            let victim = self
                .pages
                .iter()
                .enumerate()
                .filter(|(i, p)| p.on_device && *i != id.0)
                .min_by_key(|(_, p)| p.last_use)
                .map(|(i, _)| PageId(i))
                .expect("budget exceeded with no evictable page");
            self.evict(victim);
        }
        self.pages[id.0].on_device = true;
        self.device_bytes += need;
        self.record_fetch(need)
    }

    /// Moves the page back to the host tier, metered as a spill (no-op if
    /// already there). Returns the modeled transfer time.
    pub fn spill(&mut self, id: PageId) -> Duration {
        self.clock += 1;
        if !self.pages[id.0].on_device {
            return Duration::ZERO;
        }
        self.pages[id.0].on_device = false;
        self.device_bytes -= self.pages[id.0].bytes();
        self.record_spill(self.pages[id.0].bytes())
    }

    /// Evicts the page to the host tier without touching its LRU stamp —
    /// what [`TierStore::fetch`] does under budget pressure. Contents are
    /// preserved exactly; the write-back is metered as a spill.
    pub fn evict(&mut self, id: PageId) -> Duration {
        if !self.pages[id.0].on_device {
            return Duration::ZERO;
        }
        self.pages[id.0].on_device = false;
        self.device_bytes -= self.pages[id.0].bytes();
        self.record_spill(self.pages[id.0].bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(budget: u64) -> TierConfig {
        TierConfig { enabled: true, device_budget: budget, ..TierConfig::off() }
    }

    #[test]
    fn fetch_evicts_lru_to_respect_budget() {
        let mut ts = TierStore::new(cfg(10 * 4));
        let a = ts.alloc(vec![1.0; 6]);
        let b = ts.alloc(vec![2.0; 4]);
        let c = ts.alloc(vec![3.0; 8]);
        ts.fetch(a);
        ts.fetch(b); // a (24B) + b (16B) = 40B = budget
        assert_eq!(ts.device_bytes(), 40);
        ts.fetch(c); // needs 32B: evicts a (LRU), then b
        assert!(ts.on_device(c));
        assert!(!ts.on_device(a) && !ts.on_device(b));
        assert_eq!(ts.device_bytes(), 32);
        assert_eq!(ts.stats().fetch_bytes, 24 + 16 + 32);
        assert_eq!(ts.stats().spill_bytes, 24 + 16);
        assert_eq!(ts.read(a), &[1.0; 6], "eviction preserves contents");
    }

    #[test]
    fn transfers_are_priced() {
        let throttled = TierConfig {
            enabled: true,
            device_budget: 1 << 20,
            host_bw: 4_000, // 1000 elems/sec
            host_lat: Duration::from_millis(1),
            depth: 1,
        };
        let mut ts = TierStore::new(throttled);
        let p = ts.alloc(vec![0.0; 1000]);
        let t = ts.fetch(p);
        assert_eq!(t, Duration::from_millis(1) + Duration::from_secs(1));
        assert_eq!(ts.modeled_time(), t);
    }

    #[test]
    #[should_panic(expected = "cannot fit device budget")]
    fn oversized_page_rejected() {
        let mut ts = TierStore::new(cfg(8));
        let p = ts.alloc(vec![0.0; 100]);
        ts.fetch(p);
    }

    #[test]
    fn meter_face_accumulates() {
        let mut ts = TierStore::new(cfg(u64::MAX));
        ts.record_fetch(100);
        ts.record_spill(40);
        ts.record_fetch(1);
        let s = ts.stats();
        assert_eq!((s.fetch_bytes, s.fetch_ops), (101, 2));
        assert_eq!((s.spill_bytes, s.spill_ops), (40, 1));
        assert_eq!(s.total_bytes(), 141);
    }
}
