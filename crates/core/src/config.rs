//! ZeRO engine configuration: the stage and ZeRO-R switches (Table 3's
//! C1–C5 configurations are combinations of these flags).

use zero_comm::Grid;
use zero_optim::{AdamConfig, SgdConfig};

use crate::plan::EffectiveOffload;

/// Which optimizer the engine runs over the (possibly sharded) fp32
/// master parameters.
///
/// The choice sets the paper's K multiplier: mixed-precision Adam keeps
/// momentum + variance + master copy (K = 12); SGD with momentum keeps
/// velocity + master (K = 8); plain SGD only the master (K = 4). §2.3
/// argues ZeRO "makes it possible to develop and use even more complex
/// and memory hungry optimizers" — the K-dependence is measurable here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerKind {
    /// Adam with fp32 moments (K = 12).
    Adam(AdamConfig),
    /// SGD, optionally with momentum (K = 8 or 4).
    Sgd(SgdConfig),
}

/// The ZeRO-DP optimization stage (§5, Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZeroStage {
    /// Baseline data parallelism: full replication, gradient all-reduce —
    /// what PyTorch DDP does. Memory: (4 + K)·Ψ with fp16 params/grads.
    Ddp,
    /// P_os — optimizer state partitioning: 4Ψ + KΨ/N_d.
    One,
    /// P_os+g — plus gradient partitioning: 2Ψ + (2+K)Ψ/N_d.
    Two,
    /// P_os+g+p — plus parameter partitioning: (4+K)Ψ/N_d.
    Three,
}

impl ZeroStage {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ZeroStage::Ddp => "DDP",
            ZeroStage::One => "ZeRO-1 (Pos)",
            ZeroStage::Two => "ZeRO-2 (Pos+g)",
            ZeroStage::Three => "ZeRO-3 (Pos+g+p)",
        }
    }

    /// True if gradients are partitioned (stages 2 and 3).
    pub fn partitions_grads(&self) -> bool {
        matches!(self, ZeroStage::Two | ZeroStage::Three)
    }

    /// True if parameters are partitioned (stage 3).
    pub fn partitions_params(&self) -> bool {
        matches!(self, ZeroStage::Three)
    }

    /// True if optimizer states are partitioned (stages 1–3).
    pub fn partitions_optimizer(&self) -> bool {
        !matches!(self, ZeroStage::Ddp)
    }
}

/// ZeRO++-style communication compression switches.
///
/// Three independent levers shrink the bytes each collective puts on the
/// wire, trading a bounded quantization error for bandwidth:
///
/// - **qwZ** — quantized weight all-gather: stage-3 forward/eval parameter
///   fetches circulate block-quantized int8 streams instead of raw fp16.
/// - **hpZ** — hierarchical (secondary) parameter partition: each rank
///   additionally keeps a node-local fp16 copy of every unit, so the
///   *backward* all-gathers resolve inside the node and never cross the
///   slow inter-node links (extra Ψ/G memory per rank, priced under
///   `MemCategory::SecondaryParams`).
/// - **qgZ** — quantized gradient reduce-scatter: the bucket flush runs a
///   two-phase all-to-all (raw intra-node, int8 inter-node) instead of
///   the raw ring.
///
/// hpZ and qgZ group ranks into nodes of [`ZeroConfig::node_size`].
/// Each lever is refused on a stage without the collective it acts on
/// (qwZ and hpZ need stage 3, qgZ stage 2 or 3), and all three require
/// mp = 1. With everything off (the default) plans and runs are bitwise
/// identical to the uncompressed engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressionConfig {
    /// Quantized weight all-gather on stage-3 forward/eval fetches.
    pub qwz: bool,
    /// Secondary node-local parameter partition serving backward fetches.
    pub hpz: bool,
    /// Quantized all-to-all gradient reduce-scatter on bucket flushes.
    pub qgz: bool,
}

impl CompressionConfig {
    /// Quantization block length of every int8 wire (elements per
    /// scale/zero pair).
    pub const BLOCK: usize = 64;

    /// Everything off; the engine behaves exactly as without ZeRO++.
    pub const fn off() -> CompressionConfig {
        CompressionConfig { qwz: false, hpz: false, qgz: false }
    }

    /// True if any lever is enabled.
    pub fn any(&self) -> bool {
        self.qwz || self.hpz || self.qgz
    }
}

impl Default for CompressionConfig {
    fn default() -> Self {
        CompressionConfig::off()
    }
}

/// Memory-tier offload switches (ZeRO-Offload / ZeRO-Infinity direction).
///
/// When enabled, the engine spills the big per-rank states to a modeled
/// slower host tier — optimizer states + fp32 master (stage ≥ 1), the
/// reduced gradient shard (stage ≥ 2), and the stage-3 parameter shard
/// when `device_budget` cannot hold it beside the step (the plan's
/// placement) — and every byte crossing the tier boundary is metered, priced at
/// `host_lat + bytes / host_bw`, and checked against the `CommPlan`'s
/// tier-movement stream. The [`crate::MemoryTracker`] then *proves* the
/// configured `device_budget`: any allocation that would push live device
/// bytes past it panics.
///
/// Offload moves exact copies (no re-quantization), so losses are bitwise
/// identical to the unconstrained run, ZeRO++ levers or not; only
/// residency and modeled time change. Requires mp = 1 and a
/// partitioned-optimizer stage. Under hpZ only a unit's first fetch of the
/// step climbs from the host: its node-local refetches read the
/// device-resident secondary copy; P_a+cpu checkpoints cross it too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierConfig {
    /// Master switch; everything below is inert when false.
    pub enabled: bool,
    /// Device-tier byte budget the tracker enforces (`u64::MAX` = no cap).
    pub device_budget: u64,
    /// Host-tier bandwidth in bytes/second (0 = unthrottled: transfers
    /// cost only `host_lat` of modeled time).
    pub host_bw: u64,
    /// Per-transfer latency added to every tier crossing.
    pub host_lat: std::time::Duration,
    /// Prefetch depth in units. The engine's double-buffered slot is
    /// depth 1 — the only depth currently implemented.
    pub depth: usize,
}

impl TierConfig {
    /// Offload off; the engine behaves exactly as without a tier.
    pub const fn off() -> TierConfig {
        TierConfig {
            enabled: false,
            device_budget: u64::MAX,
            host_bw: 0,
            host_lat: std::time::Duration::ZERO,
            depth: 1,
        }
    }

    /// Offload on with an explicit device budget and free transfers.
    pub const fn budgeted(device_budget: u64) -> TierConfig {
        TierConfig { enabled: true, device_budget, ..TierConfig::off() }
    }

    /// Modeled seconds one `bytes`-sized transfer spends on the tier link.
    pub fn transfer_time(&self, bytes: u64) -> std::time::Duration {
        let bw = if self.host_bw == 0 {
            std::time::Duration::ZERO
        } else {
            std::time::Duration::from_secs_f64(bytes as f64 / self.host_bw as f64)
        };
        self.host_lat + bw
    }
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig::off()
    }
}

/// Where activation checkpoints live while they wait for backward (§6.1).
/// Read only under `checkpoint_activations`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CkptPlace {
    /// Every MP rank keeps the whole checkpoint on device.
    #[default]
    Whole,
    /// P_a: each MP rank keeps its 1/N_m slice, all-gathered across the
    /// MP group before the segment is recomputed.
    Partitioned,
    /// P_a+cpu: the partitioned slices wait in the host tier, a planned
    /// round trip priced by its link when `tier.enabled`, free otherwise.
    Host,
}

impl CkptPlace {
    /// True if checkpoints are sliced across the MP group (P_a, P_a+cpu).
    pub fn partitioned(self) -> bool {
        self != CkptPlace::Whole
    }

    /// The elements of an `elems`-long activation that MP rank `mp_idx` of
    /// `mp` keeps as its checkpoint: all of them whole, its 1/N_m slice
    /// under P_a and P_a+cpu.
    pub(crate) fn slice(self, elems: usize, mp: usize, mp_idx: usize) -> std::ops::Range<usize> {
        if self.partitioned() { zero_comm::chunk_range(elems, mp, mp_idx) } else { 0..elems }
    }
}

/// Full engine configuration. Every setting either changes the schedule
/// or is refused by [`ZeroConfig::check`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZeroConfig {
    /// ZeRO-DP stage.
    pub stage: ZeroStage,
    /// Mixed precision: fp16 working params/grads + fp32 master states
    /// (K = 12). When false, everything is fp32 (the bit-exactness test
    /// mode; K = 8).
    pub fp16: bool,
    /// Activation checkpointing: store only each block's input, recompute
    /// the rest in backward (§6.1 prerequisite).
    pub checkpoint_activations: bool,
    /// Checkpoint every k-th block input (1 = every block). Larger
    /// intervals store ~L/k checkpoints and recompute whole segments —
    /// the √L memory/recompute dial of §3.2.
    pub checkpoint_interval: usize,
    /// Where checkpoints live; anything but `Whole` requires
    /// `checkpoint_activations`.
    pub checkpoint_place: CkptPlace,
    /// CB: fused-buffer capacity in elements (§6.2). Collectives over the
    /// flat space are staged through buffers of at most this size.
    pub bucket_elems: usize,
    /// Initial dynamic loss scale (fp16 only).
    pub initial_loss_scale: f32,
    /// Global gradient-norm clip, finite and positive; `None` disables.
    pub clip_grad_norm: Option<f64>,
    /// Optimizer over the (possibly sharded) fp32 master parameters.
    pub optimizer: OptimizerKind,
    /// Ranks per node G (1 = flat). DDP runs the two-level all-reduce
    /// when it is > 1, and hpZ and qgZ group by it; nothing else reads
    /// it. Requires mp = 1 and a DP degree divisible by it when > 1.
    pub node_size: usize,
    /// Overlap-centric execution: stage-2/3 gradient bucket flushes launch
    /// their reduce-scatter asynchronously (waited at end-of-backward) and
    /// stage 3 prefetches the next unit's parameter all-gather one layer
    /// ahead through a double-buffered slot. Losses are bitwise identical
    /// to synchronous execution: the same ops run in the same issue order,
    /// only the waits move. Refused at DDP and stage 1, whose one
    /// end-of-step reduction has nothing to issue ahead of.
    pub overlap: bool,
    /// ZeRO++-style communication compression (qwZ / hpZ / qgZ).
    pub compression: CompressionConfig,
    /// Memory-tier offload (ZeRO-Offload / ZeRO-Infinity direction).
    pub tier: TierConfig,
}

impl Default for ZeroConfig {
    fn default() -> Self {
        ZeroConfig {
            stage: ZeroStage::Two,
            fp16: true,
            checkpoint_activations: true,
            checkpoint_interval: 1,
            checkpoint_place: CkptPlace::Whole,
            bucket_elems: 1 << 16,
            initial_loss_scale: 4096.0,
            clip_grad_norm: None,
            optimizer: OptimizerKind::Adam(AdamConfig::default()),
            node_size: 1,
            overlap: false,
            compression: CompressionConfig::off(),
            tier: TierConfig::off(),
        }
    }
}

/// Why a [`ZeroConfig`] cannot run (on a grid), grouped by the setting
/// the caller would have to change; the text is the rule that was broken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A scalar is out of range (bucket, interval, clip), or a checkpoint
    /// placement is set with checkpointing off.
    Switches(String),
    /// `overlap` on a stage with nothing to issue ahead.
    Overlap(String),
    /// A `node_size` nothing reads, or whose nodes do not fit the grid.
    NodeSize(String),
    /// A ZeRO++ lever is requested on a stage or grid it is not defined
    /// over.
    Compression(String),
    /// The memory tier is on with a stage, grid or lever it cannot serve.
    Offload(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ConfigError::{Compression, NodeSize, Offload, Overlap, Switches};
        let (Switches(why) | Overlap(why) | NodeSize(why) | Compression(why) | Offload(why)) = self;
        f.write_str(why)
    }
}

impl std::error::Error for ConfigError {}

/// `Ok` when the rule holds, else its text as a `kind` error.
fn rule(holds: bool, kind: fn(String) -> ConfigError, text: &str) -> Result<(), ConfigError> {
    if holds {
        Ok(())
    } else {
        Err(kind(text.to_string()))
    }
}

impl ZeroConfig {
    /// The one author of lever × stage × grid legality: every rule a
    /// configuration must satisfy to run on `grid`, and — when it does —
    /// which tier classes are in effect (the tier switch gated by the stage
    /// that owns each class; P_a+cpu checkpoints by their own). A setting
    /// that nothing on this stage reads — a ZeRO++ lever, `overlap`, a
    /// `node_size` > 1 — is refused, so every setting a passing
    /// configuration requests changes its schedule.
    pub fn check(&self, grid: Grid) -> Result<EffectiveOffload, ConfigError> {
        use ConfigError::{Compression, NodeSize, Offload};
        self.check_switches()?;
        let (stage, comp, dp, g) = (self.stage, self.compression, grid.dp_degree(), self.node_size);
        if g > 1 {
            rule(
                dp.is_multiple_of(g) && grid.mp_degree() == 1,
                NodeSize,
                &format!("node_size {g} must divide the DP degree {dp}, on mp = 1 (nodes group DP ranks)"),
            )?;
        }
        if comp.any() {
            rule(
                grid.mp_degree() == 1,
                Compression,
                "compression requires mp = 1 (node grouping is over DP ranks)",
            )?;
            rule(
                !comp.hpz || g < dp,
                Compression,
                &format!(
                    "hpZ needs more than one node: node_size {g} must be below the DP degree {dp}, \
                     or its node-local copy is the primary shard again"
                ),
            )?;
        }
        let on = self.tier.enabled;
        rule(
            !on || grid.mp_degree() == 1,
            Offload,
            "tier offload requires mp = 1 (tier volumes are over DP shards)",
        )?;
        Ok(EffectiveOffload {
            opt_state: on && stage.partitions_optimizer(),
            grads: on && stage.partitions_grads(),
            params: on && stage.partitions_params(),
            checkpoints: self.checkpoint_place == CkptPlace::Host,
        })
    }

    fn check_switches(&self) -> Result<(), ConfigError> {
        use ConfigError::{Compression, NodeSize, Offload, Overlap, Switches};
        let (comp, tier) = (self.compression, self.tier);
        rule(self.bucket_elems > 0, Switches, "bucket_elems must be positive")?;
        rule(self.checkpoint_interval >= 1, Switches, "checkpoint_interval must be at least 1")?;
        rule(
            !self.checkpoint_place.partitioned() || self.checkpoint_activations,
            Switches,
            "P_a and P_a+cpu place activation checkpoints: they require checkpointing",
        )?;
        rule(
            self.clip_grad_norm.is_none_or(|c| c.is_finite() && c > 0.0),
            Switches,
            "clip_grad_norm must be finite and positive",
        )?;
        rule(
            !self.overlap || self.stage.partitions_grads(),
            Overlap,
            "overlap issues stage 2-3's bucket reduce-scatters and stage 3's fetches ahead; \
             DDP and stage 1 reduce once at the end of the step, with nothing to issue ahead of",
        )?;
        rule(self.node_size >= 1, NodeSize, "node_size must be at least 1")?;
        if self.node_size > 1 {
            rule(
                self.stage == ZeroStage::Ddp || comp.hpz || comp.qgz,
                NodeSize,
                &format!(
                    "node_size {} groups ranks for DDP's two-level all-reduce, hpZ and qgZ; \
                     none is on",
                    self.node_size
                ),
            )?;
        }
        if comp.any() {
            rule(
                !(comp.qwz || comp.hpz) || self.stage.partitions_params(),
                Compression,
                "qwZ and hpZ act on stage 3's parameter all-gathers: they need stage 3",
            )?;
            rule(
                !comp.qgz || self.stage.partitions_grads(),
                Compression,
                "qgZ acts on the gradient reduce-scatter: it needs stage 2 or 3",
            )?;
        }
        if tier.enabled {
            rule(
                self.stage.partitions_optimizer(),
                Offload,
                "tier offload requires a partitioned-optimizer stage (ZeRO >= 1)",
            )?;
            rule(tier.device_budget > 0, Offload, "tier device_budget must be positive")?;
            rule(
                tier.depth == 1,
                Offload,
                &format!(
                    "tier prefetch depth {} unsupported: only the double-buffered \
                     depth 1 is implemented",
                    tier.depth
                ),
            )?;
        }
        Ok(())
    }

    /// The pure-fp32 exactness-test configuration at a given stage.
    pub fn fp32_exact(stage: ZeroStage) -> ZeroConfig {
        ZeroConfig {
            stage,
            fp16: false,
            checkpoint_activations: false,
            initial_loss_scale: 1.0,
            ..ZeroConfig::default()
        }
    }

    /// The same configuration with overlap-centric execution switched on.
    pub fn overlapped(self) -> ZeroConfig {
        ZeroConfig { overlap: true, ..self }
    }

    /// How many DP owners the model states are partitioned over on `grid`:
    /// the DP degree, or one under DDP, which replicates them.
    pub(crate) fn dp_owners(&self, grid: Grid) -> usize {
        if self.stage.partitions_optimizer() { grid.dp_degree() } else { 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule text `check` refuses `zcfg` with on a 2×1 grid.
    fn refusal(zcfg: ZeroConfig) -> String {
        zcfg.check(Grid::new(2, 1)).expect_err("the configuration must be refused").to_string()
    }

    #[test]
    fn stage_predicates() {
        assert!(!ZeroStage::Ddp.partitions_optimizer());
        assert!(ZeroStage::One.partitions_optimizer());
        assert!(!ZeroStage::One.partitions_grads());
        assert!(ZeroStage::Two.partitions_grads());
        assert!(!ZeroStage::Two.partitions_params());
        assert!(ZeroStage::Three.partitions_params());
    }

    #[test]
    fn placed_checkpoints_without_checkpointing_rejected() {
        for checkpoint_place in [CkptPlace::Partitioned, CkptPlace::Host] {
            let why = refusal(ZeroConfig {
                checkpoint_activations: false,
                checkpoint_place,
                ..ZeroConfig::default()
            });
            assert!(why.contains("require checkpointing"), "{checkpoint_place:?}: {why}");
        }
    }

    #[test]
    fn presets_are_valid() {
        for zcfg in [ZeroConfig::default(), ZeroConfig::fp32_exact(ZeroStage::Three)] {
            zcfg.check(Grid::new(2, 1)).expect("a preset runs");
        }
    }

    #[test]
    fn compression_defaults_off() {
        let c = CompressionConfig::off();
        assert!(!c.any());
        assert_eq!(ZeroConfig::default().compression, c);
        let on = CompressionConfig { qwz: true, ..c };
        assert!(on.any());
    }

    #[test]
    fn node_size_legality_is_typed() {
        // Node size 0, a node size that does not divide dp, and mp > 1:
        // three different panics in the plan and engine before `check`
        // owned them.
        for (node, dp, mp) in [(0, 4, 1), (3, 4, 1), (2, 2, 2)] {
            let ddp = ZeroConfig::fp32_exact(ZeroStage::Ddp);
            let got = ZeroConfig { node_size: node, ..ddp }.check(Grid::new(dp, mp));
            assert!(matches!(got, Err(ConfigError::NodeSize(_))), "{node} on {dp}x{mp}: {got:?}");
        }
        let zcfg = ZeroConfig { node_size: 2, ..ZeroConfig::fp32_exact(ZeroStage::Ddp) };
        assert!(zcfg.check(Grid::new(4, 1)).is_ok());
    }

    #[test]
    fn a_node_size_nothing_reads_is_refused() {
        // Stages 1-3 with no lever, and qwZ alone: no collective groups by
        // node, so the plan would equal the node_size = 1 one.
        let qwz = CompressionConfig { qwz: true, ..CompressionConfig::off() };
        for (stage, compression) in [
            (ZeroStage::One, CompressionConfig::off()),
            (ZeroStage::Two, CompressionConfig::off()),
            (ZeroStage::Three, CompressionConfig::off()),
            (ZeroStage::Three, qwz),
        ] {
            let zcfg = ZeroConfig { stage, node_size: 2, compression, ..ZeroConfig::default() };
            let got = zcfg.check(Grid::new(4, 1));
            assert!(matches!(got, Err(ConfigError::NodeSize(_))), "{stage:?} {compression:?}: {got:?}");
            assert!(ZeroConfig { node_size: 1, ..zcfg }.check(Grid::new(4, 1)).is_ok());
        }
    }

    #[test]
    fn hpz_needs_more_than_one_node() {
        let hpz = |node_size| ZeroConfig {
            stage: ZeroStage::Three,
            node_size,
            compression: CompressionConfig { hpz: true, ..CompressionConfig::off() },
            ..ZeroConfig::default()
        };
        for (node, dp) in [(2, 2), (4, 4)] {
            let got = hpz(node).check(Grid::new(dp, 1));
            assert!(matches!(got, Err(ConfigError::Compression(ref why)) if why.contains("hpZ")), "{got:?}");
        }
        assert!(hpz(2).check(Grid::new(4, 1)).is_ok());
    }

    #[test]
    fn overlap_is_refused_where_nothing_is_issued_ahead() {
        for stage in [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            let got = ZeroConfig { stage, ..ZeroConfig::default() }.overlapped().check(Grid::new(2, 1));
            match got {
                Ok(_) if stage.partitions_grads() => {}
                Err(ConfigError::Overlap(_)) if !stage.partitions_grads() => {}
                got => panic!("overlap at {stage:?}: {got:?}"),
            }
        }
    }

    #[test]
    fn tier_defaults_off() {
        let t = TierConfig::off();
        assert!(!t.enabled);
        assert_eq!(ZeroConfig::default().tier, t);
        assert_eq!(t.transfer_time(1 << 30), std::time::Duration::ZERO);
        let throttled = TierConfig {
            host_bw: 1 << 30,
            host_lat: std::time::Duration::from_micros(10),
            ..t
        };
        assert_eq!(
            throttled.transfer_time(1 << 30),
            std::time::Duration::from_micros(10) + std::time::Duration::from_secs(1)
        );
    }

    #[test]
    fn tier_offload_requires_zero_stage() {
        let why = refusal(ZeroConfig {
            stage: ZeroStage::Ddp,
            tier: TierConfig::budgeted(1 << 20),
            ..ZeroConfig::default()
        });
        assert!(why.contains("partitioned-optimizer"), "{why}");
    }

    #[test]
    fn tier_offload_composes_with_compression() {
        let zcfg = ZeroConfig {
            stage: ZeroStage::Three,
            tier: TierConfig::budgeted(1 << 20),
            node_size: 2,
            compression: CompressionConfig { qwz: true, hpz: true, qgz: true },
            ..ZeroConfig::default()
        };
        let tiers = zcfg.check(Grid::new(4, 1)).expect("offload and ZeRO++ stack");
        assert!(tiers.params);
    }

    #[test]
    fn each_lever_runs_exactly_at_the_stages_that_own_its_collective() {
        use ZeroStage::{Ddp, One, Three, Two};
        let lever = |qwz, hpz, qgz| ZeroConfig {
            node_size: if hpz || qgz { 2 } else { 1 },
            compression: CompressionConfig { qwz, hpz, qgz },
            ..ZeroConfig::default()
        };
        // (lever, a configuration with it on, the stages that own it)
        let levers = [
            ("qwZ", lever(true, false, false), &[Three][..]),
            ("hpZ", lever(false, true, false), &[Three]),
            ("qgZ", lever(false, false, true), &[Two, Three]),
            ("node_size", ZeroConfig { node_size: 2, ..ZeroConfig::default() }, &[Ddp]),
        ];
        for (name, zcfg, owners) in levers {
            for stage in [Ddp, One, Two, Three] {
                match (owners.contains(&stage), ZeroConfig { stage, ..zcfg }.check(Grid::new(4, 1))) {
                    (true, Ok(_)) => {}
                    (false, Err(ConfigError::NodeSize(_))) if name == "node_size" => {}
                    (false, Err(ConfigError::Compression(_))) if name != "node_size" => {}
                    (owned, got) => panic!("{name} at {stage:?} (owned: {owned}): {got:?}"),
                }
            }
        }
    }

    #[test]
    fn clip_must_be_finite_and_positive() {
        for c in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let got = ZeroConfig { clip_grad_norm: Some(c), ..ZeroConfig::default() }.check(Grid::new(2, 1));
            assert!(matches!(got, Err(ConfigError::Switches(_))), "clip {c}: {got:?}");
        }
        let zcfg = ZeroConfig { clip_grad_norm: Some(1.0), ..ZeroConfig::default() };
        assert!(zcfg.check(Grid::new(2, 1)).is_ok());
    }
}
