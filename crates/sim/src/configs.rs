//! The paper's experiment configurations, transcribed from the artifact
//! appendix (Tables 5–10). Each figure's driver replays these exact
//! (GPUs, MP, layers, hidden, batch) tuples through the simulator.

use crate::memory::SimWorkload;
use crate::perf::RunConfig;
use zero_core::{CkptPlace, ZeroStage};

/// One appendix-table row.
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    /// Nominal model size label, in billions of parameters.
    pub size_b: f64,
    /// True for ZeRO rows, false for Megatron-baseline rows.
    pub zero: bool,
    /// Total GPUs.
    pub gpus: usize,
    /// Model-parallel degree.
    pub mp: usize,
    /// Transformer layers.
    pub layers: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Micro-batch size per DP replica.
    pub batch: usize,
}

/// Sequence length used throughout the paper's evaluation.
pub const SEQ: usize = 1024;

impl PaperRow {
    /// Data-parallel degree implied by the row.
    pub fn nd(&self) -> usize {
        (self.gpus / self.mp).max(1)
    }

    /// Builds the simulator configuration for this row.
    ///
    /// ZeRO rows run the paper's ZeRO-100B profile (P_os+g + ZeRO-R with
    /// P_a); baseline rows run Megatron MP + plain DP with checkpointing.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            workload: SimWorkload {
                layers: self.layers,
                hidden: self.hidden,
                seq: SEQ,
                batch_per_gpu: self.batch,
            },
            stage: if self.zero { ZeroStage::Two } else { ZeroStage::Ddp },
            nd: self.nd(),
            mp: self.mp,
            ckpt: Some(if self.zero { CkptPlace::Partitioned } else { CkptPlace::Whole }),
        }
    }
}

/// Table 5 — Figure 2 configurations: ZeRO vs. Megatron baseline,
/// 1.5B–170B parameters.
pub const TABLE5_FIG2: &[PaperRow] = &[
    PaperRow { size_b: 1.5, zero: true, gpus: 400, mp: 1, layers: 48, hidden: 1600, batch: 24 },
    PaperRow { size_b: 1.5, zero: false, gpus: 400, mp: 2, layers: 48, hidden: 1600, batch: 16 },
    PaperRow { size_b: 8.0, zero: true, gpus: 400, mp: 4, layers: 72, hidden: 3072, batch: 64 },
    PaperRow { size_b: 8.0, zero: false, gpus: 400, mp: 8, layers: 72, hidden: 3072, batch: 8 },
    PaperRow { size_b: 40.0, zero: true, gpus: 400, mp: 4, layers: 88, hidden: 6144, batch: 12 },
    PaperRow { size_b: 40.0, zero: false, gpus: 384, mp: 32, layers: 88, hidden: 6144, batch: 4 },
    PaperRow { size_b: 60.0, zero: true, gpus: 400, mp: 16, layers: 132, hidden: 6144, batch: 64 },
    PaperRow { size_b: 60.0, zero: false, gpus: 384, mp: 64, layers: 132, hidden: 6144, batch: 4 },
    PaperRow { size_b: 80.0, zero: true, gpus: 400, mp: 16, layers: 100, hidden: 8192, batch: 32 },
    PaperRow { size_b: 80.0, zero: false, gpus: 384, mp: 128, layers: 100, hidden: 8192, batch: 4 },
    PaperRow { size_b: 100.0, zero: true, gpus: 400, mp: 16, layers: 125, hidden: 8192, batch: 32 },
    PaperRow { size_b: 100.0, zero: false, gpus: 384, mp: 128, layers: 125, hidden: 8192, batch: 2 },
    PaperRow { size_b: 120.0, zero: true, gpus: 400, mp: 16, layers: 150, hidden: 8192, batch: 24 },
    PaperRow { size_b: 120.0, zero: false, gpus: 384, mp: 128, layers: 150, hidden: 8192, batch: 2 },
    PaperRow { size_b: 140.0, zero: true, gpus: 400, mp: 16, layers: 175, hidden: 8192, batch: 16 },
    PaperRow { size_b: 140.0, zero: false, gpus: 384, mp: 128, layers: 175, hidden: 8192, batch: 2 },
    PaperRow { size_b: 170.0, zero: true, gpus: 400, mp: 16, layers: 212, hidden: 8192, batch: 12 },
    PaperRow { size_b: 170.0, zero: false, gpus: 256, mp: 256, layers: 212, hidden: 8192, batch: 2 },
];

/// Table 6 — Figure 3 configurations: 60B model, 64→400 GPUs
/// (superlinear scalability).
pub const TABLE6_FIG3: &[PaperRow] = &[
    PaperRow { size_b: 60.0, zero: true, gpus: 64, mp: 16, layers: 75, hidden: 8192, batch: 16 },
    PaperRow { size_b: 60.0, zero: true, gpus: 128, mp: 16, layers: 75, hidden: 8192, batch: 48 },
    PaperRow { size_b: 60.0, zero: true, gpus: 256, mp: 16, layers: 75, hidden: 8192, batch: 48 },
    PaperRow { size_b: 60.0, zero: true, gpus: 400, mp: 16, layers: 75, hidden: 8192, batch: 64 },
];

/// Table 10 — Figure 4 configurations: ZeRO without MP on 128 GPUs,
/// 1.16B–13B parameters (plus the PyTorch-DDP baseline limits).
pub const TABLE10_FIG4: &[PaperRow] = &[
    PaperRow { size_b: 1.5, zero: true, gpus: 128, mp: 1, layers: 34, hidden: 1920, batch: 24 },
    PaperRow { size_b: 2.5, zero: true, gpus: 128, mp: 1, layers: 54, hidden: 1920, batch: 24 },
    PaperRow { size_b: 4.0, zero: true, gpus: 128, mp: 1, layers: 64, hidden: 2304, batch: 16 },
    PaperRow { size_b: 6.0, zero: true, gpus: 128, mp: 1, layers: 52, hidden: 3072, batch: 12 },
    PaperRow { size_b: 8.0, zero: true, gpus: 128, mp: 1, layers: 72, hidden: 3072, batch: 8 },
    PaperRow { size_b: 10.0, zero: true, gpus: 128, mp: 1, layers: 50, hidden: 4096, batch: 6 },
    PaperRow { size_b: 11.0, zero: true, gpus: 128, mp: 1, layers: 54, hidden: 4096, batch: 4 },
    PaperRow { size_b: 12.0, zero: true, gpus: 128, mp: 1, layers: 58, hidden: 4096, batch: 4 },
    PaperRow { size_b: 13.0, zero: true, gpus: 128, mp: 1, layers: 62, hidden: 4096, batch: 2 },
    PaperRow { size_b: 1.16, zero: false, gpus: 128, mp: 1, layers: 24, hidden: 1920, batch: 8 },
    PaperRow { size_b: 1.38, zero: false, gpus: 128, mp: 1, layers: 40, hidden: 1536, batch: 1 },
];

/// Table 3 — the ZeRO-R configurations C1–C5 ablated in Figures 6–8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZeroRConfig {
    /// Config label (1–5).
    pub id: u8,
    /// ZeRO-DP stage: P_os for C1–C2, P_os+g for C3–C5.
    pub stage: ZeroStage,
    /// Checkpoint placement (all include CB+MD; C2/C4 add P_a; C5 adds
    /// P_a+cpu).
    pub ckpt: Option<CkptPlace>,
}

/// The five Table 3 configurations.
pub const TABLE3_CONFIGS: [ZeroRConfig; 5] = [
    ZeroRConfig { id: 1, stage: ZeroStage::One, ckpt: Some(CkptPlace::Whole) },
    ZeroRConfig { id: 2, stage: ZeroStage::One, ckpt: Some(CkptPlace::Partitioned) },
    ZeroRConfig { id: 3, stage: ZeroStage::Two, ckpt: Some(CkptPlace::Whole) },
    ZeroRConfig { id: 4, stage: ZeroStage::Two, ckpt: Some(CkptPlace::Partitioned) },
    ZeroRConfig { id: 5, stage: ZeroStage::Two, ckpt: Some(CkptPlace::Host) },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_sizes_match_layer_hidden_arithmetic() {
        for row in TABLE5_FIG2 {
            let approx = 12.0 * row.layers as f64 * (row.hidden as f64).powi(2) / 1e9;
            // Appendix sizes are nominal; 12·L·h² lands within ~20%.
            assert!(
                (approx - row.size_b).abs() / row.size_b < 0.35,
                "{}B row computes to {approx}B",
                row.size_b
            );
        }
    }

    #[test]
    fn zero_rows_keep_mp_within_a_node() {
        // §1: "For ZeRO the MP always fit in a node, while for baseline,
        // models larger than 40B require MP across nodes."
        for row in TABLE5_FIG2 {
            if row.zero {
                assert!(row.mp <= 16, "{}B ZeRO row has MP {}", row.size_b, row.mp);
            } else if row.size_b >= 40.0 {
                assert!(row.mp > 16, "{}B baseline should cross nodes", row.size_b);
            }
        }
    }

    #[test]
    fn run_configs_are_consistent() {
        for row in TABLE5_FIG2.iter().chain(TABLE6_FIG3).chain(TABLE10_FIG4) {
            let cfg = row.run_config();
            assert_eq!(cfg.gpus(), row.nd() * row.mp);
            assert!(cfg.workload.params() > 0.5e9);
        }
    }

    #[test]
    fn table3_cumulative_structure() {
        // C1→C5 never removes an optimization.
        assert_eq!(TABLE3_CONFIGS[0].stage, ZeroStage::One);
        assert_eq!(TABLE3_CONFIGS[4].stage, ZeroStage::Two);
        assert_eq!(TABLE3_CONFIGS[4].ckpt, Some(CkptPlace::Host));
        assert_eq!(TABLE3_CONFIGS[3].ckpt, Some(CkptPlace::Partitioned));
        assert_eq!(TABLE3_CONFIGS[2].ckpt, Some(CkptPlace::Whole));
    }
}
