//! End-to-end ZeRO++ compression tests: multi-rank training with
//! qwZ / hpZ / qgZ enabled must stay deterministic, close in loss to the
//! uncompressed run, bitwise identical when every lever is off, and
//! bitwise *exact* for hpZ alone (the secondary replica stores genuine
//! fp16 values, so node-scope refetches reproduce the global gather).

use zero_comm::{chunk_range, Grid, World, WorldConfig};
use zero_core::{CompressionConfig, MemCategory, RankEngine, ZeroConfig, ZeroStage};
use zero_model::{init_full_params, Gpt, ModelConfig, SyntheticCorpus};

const MICROS: usize = 2;
const LOCAL_BATCH: usize = 2;
const STEPS: usize = 6;

fn model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

/// Stage 3 with `comp`, in nodes of 2 ranks when a lever groups by node.
fn zcfg(comp: CompressionConfig) -> ZeroConfig {
    ZeroConfig {
        stage: ZeroStage::Three,
        node_size: if comp.hpz || comp.qgz { 2 } else { 1 },
        bucket_elems: 512,
        initial_loss_scale: 1.0,
        compression: comp,
        ..ZeroConfig::default()
    }
}

fn all_on() -> CompressionConfig {
    CompressionConfig { qwz: true, hpz: true, qgz: true }
}

/// Per-rank results: train losses (with a final eval loss appended),
/// master shard, and live hpZ secondary bytes.
struct RankOut {
    losses: Vec<f32>,
    master: Vec<f32>,
    secondary_bytes: u64,
}

/// Trains a dp-way world for [`STEPS`] steps of [`MICROS`] micro-batches
/// each, then runs one eval pass — exercising every compressed plan.
fn run(zcfg: ZeroConfig, dp: usize) -> Vec<RankOut> {
    let model = model();
    let grid = Grid::new(dp, 1);
    let full = init_full_params(&model, 11);
    let corpus = SyntheticCorpus::generate(model.vocab, 20_000, 0xC0FFEE);
    let tokens = corpus.tokens();
    let span = model.seq + 1;
    let mut world = World::with_config(dp, WorldConfig::default());
    let comms: Vec<_> = (0..dp).map(|r| world.take(r)).collect();
    let mut outs: Vec<Option<RankOut>> = (0..dp).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let full = &full;
                s.spawn(move || {
                    let rank = comm.rank();
                    let gpt = Gpt::new_mp(model, 1);
                    let mut engine = RankEngine::new(gpt, full, zcfg, grid, comm);
                    let batch = |step: usize, m: usize| {
                        let mut ids = Vec::new();
                        let mut targets = Vec::new();
                        for b in 0..LOCAL_BATCH {
                            let seq_idx =
                                (step * MICROS + m) * dp * LOCAL_BATCH + rank * LOCAL_BATCH + b;
                            let at = seq_idx * span % (tokens.len() - span);
                            let w = &tokens[at..at + span];
                            ids.extend_from_slice(&w[..model.seq]);
                            targets.extend_from_slice(&w[1..]);
                        }
                        (ids, targets)
                    };
                    let mut losses = Vec::new();
                    for step in 0..STEPS {
                        let micros: Vec<_> = (0..MICROS).map(|m| batch(step, m)).collect();
                        let refs: Vec<(&[u32], &[u32])> =
                            micros.iter().map(|(i, t)| (i.as_slice(), t.as_slice())).collect();
                        losses.push(engine.try_train_step(&refs, LOCAL_BATCH).unwrap().loss);
                    }
                    let (ids, targets) = batch(STEPS, 0);
                    losses.push(engine.try_eval_loss(&ids, &targets, LOCAL_BATCH).unwrap());
                    RankOut {
                        losses,
                        master: engine.master_params().to_vec(),
                        secondary_bytes: engine.memory().live(MemCategory::SecondaryParams),
                    }
                })
            })
            .collect();
        for (slot, h) in outs.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("rank panicked"));
        }
    });
    outs.into_iter().map(|o| o.unwrap()).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn all_levers_train_close_to_uncompressed() {
    let base = run(zcfg(CompressionConfig::off()), 4);
    let comp = run(zcfg(all_on()), 4);
    for (b, c) in base[0].losses.iter().zip(&comp[0].losses) {
        assert!(b.is_finite() && c.is_finite(), "losses finite: {b} vs {c}");
    }
    let b = *base[0].losses.last().unwrap();
    let c = *comp[0].losses.last().unwrap();
    assert!(
        (b - c).abs() <= 1e-2,
        "compressed training must stay within 1e-2 of uncompressed: {b} vs {c}"
    );
}

#[test]
fn compressed_training_is_deterministic() {
    let a = run(zcfg(all_on()), 4);
    let b = run(zcfg(all_on()), 4);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(bits(&x.losses), bits(&y.losses), "losses must be bitwise stable");
        assert_eq!(bits(&x.master), bits(&y.master), "masters must be bitwise stable");
    }
}

#[test]
fn overlap_and_sync_agree_under_compression() {
    let sync = run(zcfg(all_on()), 4);
    let ovl = run(ZeroConfig { overlap: true, ..zcfg(all_on()) }, 4);
    for (x, y) in sync.iter().zip(&ovl) {
        assert_eq!(bits(&x.losses), bits(&y.losses), "overlap must not change losses");
        assert_eq!(bits(&x.master), bits(&y.master), "overlap must not change masters");
    }
}

#[test]
fn hpz_alone_is_bitwise_exact_and_priced() {
    let base = run(zcfg(CompressionConfig::off()), 4);
    let hpz = run(
        zcfg(CompressionConfig { hpz: true, ..CompressionConfig::off() }),
        4,
    );
    for (x, y) in base.iter().zip(&hpz) {
        assert_eq!(bits(&x.losses), bits(&y.losses), "hpZ refetches must be exact");
        assert_eq!(bits(&x.master), bits(&y.master), "hpZ must not perturb the update");
        assert_eq!(x.secondary_bytes, 0, "no replica without hpZ");
    }
    // The replica is priced at 2 bytes per element of this rank's
    // node-slot shard (fp16) — its slot's chunk of every unit split over
    // the node's 2 slots — and only while hpZ is on.
    let gpt = Gpt::new_mp(model(), 1);
    for (rank, out) in hpz.iter().enumerate() {
        let slot: usize = gpt.layout().units().iter().map(|u| chunk_range(u.range.len(), 2, rank % 2).len()).sum();
        let expect = 2 * slot as u64;
        assert_eq!(out.secondary_bytes, expect, "rank {rank} secondary bytes");
    }
}
