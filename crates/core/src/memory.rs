//! Explicit per-rank memory accounting.
//!
//! §3 of the paper decomposes training memory into model states (fp16
//! parameters 2Ψ, fp16 gradients 2Ψ, fp32 master + Adam moments KΨ = 12Ψ)
//! and residual states (activations, temporary buffers, fragmentation).
//! The engine registers every allocation it makes against one of those
//! categories, so tests can assert the *measured* peak equals the paper's
//! closed-form expressions — the same validation Table 2 performs at
//! cluster scale ("the measured model size with P_os matches the
//! theoretical maximum").

/// Memory categories, mirroring the paper's taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MemCategory {
    /// fp16 working parameters (2 bytes/param) — the "parameters" term.
    ParamsFp16 = 0,
    /// fp16 gradients (2 bytes/param) — the "gradients" term.
    Gradients = 1,
    /// fp32 master parameters (4 bytes/param) — part of K.
    MasterParams = 2,
    /// Adam first moment, fp32 — part of K.
    Momentum = 3,
    /// Adam second moment, fp32 — part of K.
    Variance = 4,
    /// Saved activations for backward (non-checkpointed).
    Activations = 5,
    /// Activation checkpoints (§6.1).
    Checkpoints = 6,
    /// Temporary fused buffers (§6.2 CB) and per-unit working copies.
    Buffers = 7,
    /// P_a+cpu: activation checkpoint slices resident in the host tier.
    /// NOT device memory; excluded from [`MemoryTracker::device_live`].
    HostCheckpoints = 8,
    /// hpZ secondary parameter partition: the node-local fp16 replica
    /// (≈ 2Ψ/G per rank) that lets backward all-gathers stay intra-node.
    /// Device memory, but NOT a model state in the paper's §3 sense —
    /// it is a derived cache rebuilt from the primary partition.
    SecondaryParams = 9,
    /// Tier offload: fp32 master + optimizer moments resident in the host
    /// tier (stage ≥ 1). NOT device memory.
    HostOptimizerStates = 10,
    /// Tier offload: the reduced gradient shard resident in the host tier
    /// (stage ≥ 2). NOT device memory.
    HostGradShard = 11,
    /// Tier offload: the stage-3 working parameter shard resident in the
    /// host tier. NOT device memory.
    HostParamShard = 12,
}

/// Number of categories.
pub const CATEGORY_COUNT: usize = 13;

/// All categories in discriminant order.
pub const ALL_CATEGORIES: [MemCategory; CATEGORY_COUNT] = [
    MemCategory::ParamsFp16,
    MemCategory::Gradients,
    MemCategory::MasterParams,
    MemCategory::Momentum,
    MemCategory::Variance,
    MemCategory::Activations,
    MemCategory::Checkpoints,
    MemCategory::Buffers,
    MemCategory::HostCheckpoints,
    MemCategory::SecondaryParams,
    MemCategory::HostOptimizerStates,
    MemCategory::HostGradShard,
    MemCategory::HostParamShard,
];

impl MemCategory {
    /// True for categories that occupy device memory (everything except
    /// the host-tier residency categories).
    pub fn is_device(self) -> bool {
        !matches!(
            self,
            MemCategory::HostCheckpoints
                | MemCategory::HostOptimizerStates
                | MemCategory::HostGradShard
                | MemCategory::HostParamShard
        )
    }
}

/// Categories that constitute "model states" in the paper's sense.
pub const MODEL_STATE_CATEGORIES: [MemCategory; 5] = [
    MemCategory::ParamsFp16,
    MemCategory::Gradients,
    MemCategory::MasterParams,
    MemCategory::Momentum,
    MemCategory::Variance,
];

/// Live/peak byte counters per category for one rank.
///
/// Single-threaded by design (each rank owns its tracker), which keeps the
/// accounting exact and free of ordering questions.
#[derive(Clone, Debug, Default)]
pub struct MemoryTracker {
    live: [u64; CATEGORY_COUNT],
    peak: [u64; CATEGORY_COUNT],
    peak_device_total: u64,
    peak_model_states: u64,
    device_budget: Option<u64>,
}

impl MemoryTracker {
    /// A fresh tracker with all counters zero.
    pub fn new() -> MemoryTracker {
        MemoryTracker::default()
    }

    /// Installs a hard device-byte budget: any allocation that would push
    /// live device bytes past it panics, so a run that completes has
    /// *proved* `peak_device() <= budget` rather than asserted it after
    /// the fact.
    pub fn set_device_budget(&mut self, budget: Option<u64>) {
        self.device_budget = budget;
    }

    /// The enforced device budget, if any.
    pub fn device_budget(&self) -> Option<u64> {
        self.device_budget
    }

    /// Registers an allocation of `bytes` under `cat`.
    ///
    /// # Panics
    /// Panics when a device budget is installed and this allocation would
    /// exceed it.
    pub fn alloc(&mut self, cat: MemCategory, bytes: u64) {
        let i = cat as usize;
        self.live[i] += bytes;
        if self.live[i] > self.peak[i] {
            self.peak[i] = self.live[i];
        }
        let dev = self.device_live();
        if let Some(budget) = self.device_budget {
            assert!(
                dev <= budget,
                "device budget exceeded: {dev} live device bytes > budget {budget} \
                 (allocating {bytes} under {cat:?})"
            );
        }
        if dev > self.peak_device_total {
            self.peak_device_total = dev;
        }
        let ms = self.model_state_live();
        if ms > self.peak_model_states {
            self.peak_model_states = ms;
        }
    }

    /// Registers a release of `bytes` under `cat`.
    ///
    /// # Panics
    /// Panics on a release exceeding the live amount (a double free in the
    /// engine's accounting).
    pub fn free(&mut self, cat: MemCategory, bytes: u64) {
        let i = cat as usize;
        assert!(
            self.live[i] >= bytes,
            "memory accounting underflow in {:?}: freeing {} of {}",
            cat,
            bytes,
            self.live[i]
        );
        self.live[i] -= bytes;
    }

    /// Live bytes in one category.
    pub fn live(&self, cat: MemCategory) -> u64 {
        self.live[cat as usize]
    }

    /// Peak bytes in one category.
    pub fn peak(&self, cat: MemCategory) -> u64 {
        self.peak[cat as usize]
    }

    /// Live device bytes (everything except the host-tier residency
    /// categories).
    pub fn device_live(&self) -> u64 {
        ALL_CATEGORIES
            .iter()
            .filter(|&&c| c.is_device())
            .map(|&c| self.live[c as usize])
            .sum()
    }

    /// Peak simultaneous device bytes (the paper's "max cached memory",
    /// Figure 7 analogue).
    pub fn peak_device(&self) -> u64 {
        self.peak_device_total
    }

    /// Live model-state bytes (params + grads + optimizer states).
    pub fn model_state_live(&self) -> u64 {
        MODEL_STATE_CATEGORIES.iter().map(|&c| self.live[c as usize]).sum()
    }

    /// Peak simultaneous model-state bytes — the quantity Figure 1 and
    /// Table 1 tabulate.
    pub fn peak_model_states(&self) -> u64 {
        self.peak_model_states
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_and_peaks() {
        let mut m = MemoryTracker::new();
        m.alloc(MemCategory::ParamsFp16, 100);
        m.alloc(MemCategory::Gradients, 50);
        assert_eq!(m.device_live(), 150);
        m.free(MemCategory::Gradients, 50);
        assert_eq!(m.device_live(), 100);
        assert_eq!(m.peak_device(), 150, "peak remembers the high-water mark");
        m.alloc(MemCategory::Gradients, 20);
        assert_eq!(m.peak(MemCategory::Gradients), 50);
    }

    #[test]
    fn model_states_exclude_activations_and_buffers() {
        let mut m = MemoryTracker::new();
        m.alloc(MemCategory::MasterParams, 400);
        m.alloc(MemCategory::Momentum, 400);
        m.alloc(MemCategory::Variance, 400);
        m.alloc(MemCategory::Activations, 999);
        m.alloc(MemCategory::Buffers, 123);
        assert_eq!(m.model_state_live(), 1200);
        assert_eq!(m.peak_model_states(), 1200);
    }

    #[test]
    fn cpu_offload_not_counted_as_device() {
        let mut m = MemoryTracker::new();
        m.alloc(MemCategory::HostCheckpoints, 1_000_000);
        assert_eq!(m.device_live(), 0);
        assert_eq!(m.live(MemCategory::HostCheckpoints), 1_000_000);
    }

    #[test]
    fn secondary_params_are_device_but_not_model_state() {
        let mut m = MemoryTracker::new();
        m.alloc(MemCategory::SecondaryParams, 500);
        assert_eq!(m.device_live(), 500);
        assert_eq!(m.model_state_live(), 0);
    }

    #[test]
    fn host_tier_categories_are_not_device() {
        let mut m = MemoryTracker::new();
        m.alloc(MemCategory::HostOptimizerStates, 1200);
        m.alloc(MemCategory::HostGradShard, 200);
        m.alloc(MemCategory::HostParamShard, 200);
        assert_eq!(m.device_live(), 0);
        assert_eq!(m.model_state_live(), 0);
        m.alloc(MemCategory::Buffers, 10);
        assert_eq!(m.device_live(), 10);
    }

    #[test]
    fn device_budget_admits_runs_under_it() {
        let mut m = MemoryTracker::new();
        m.set_device_budget(Some(100));
        m.alloc(MemCategory::HostOptimizerStates, 1 << 40); // host: free
        m.alloc(MemCategory::Buffers, 60);
        m.free(MemCategory::Buffers, 60);
        m.alloc(MemCategory::Buffers, 100);
        assert_eq!(m.peak_device(), 100);
    }

    #[test]
    #[should_panic(expected = "device budget exceeded")]
    fn device_budget_rejects_overallocation() {
        let mut m = MemoryTracker::new();
        m.set_device_budget(Some(100));
        m.alloc(MemCategory::Buffers, 60);
        m.alloc(MemCategory::Activations, 41);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn double_free_detected() {
        let mut m = MemoryTracker::new();
        m.alloc(MemCategory::Buffers, 10);
        m.free(MemCategory::Buffers, 11);
    }
}
