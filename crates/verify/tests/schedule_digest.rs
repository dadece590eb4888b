//! The schedule pin: every plan the engine can install, for every
//! configuration the static sweeps cover, reduced to one digest per rank
//! and compared against a committed table.
//!
//! The provers in `zero-verify` check *properties* of a plan (symmetry,
//! volumes, windows); a refactor of the plan builder can keep every
//! property and still move an op. This test pins the stream itself: per
//! rank, every field of every resolved collective the engine executes —
//! kind, members, counts, precision, wire, [`Reduction`] and the whole
//! [`OpRole`] (a fetch's unit, stores, `ahead` and `hold`; a bucket's
//! range and settle point; a chunk's rows) — everything but its label,
//! and the direction, bytes and issue position its
//! [`TierAt`](zero_core::TierAt) anchor gives every tier movement, for
//! `train_step` (skipped and not), `eval_pass` and `publish_refresh`. A
//! second table pins `serve_step` the same way, one line per serving
//! world size and overlap setting. A change that means to alter a
//! schedule replaces `schedule_digests.txt` or `serve_digests.txt` with
//! the table this test writes next to the test binaries on a mismatch; a
//! change that does not must leave every line untouched.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use zero_comm::{Grid, ReduceOp};
use zero_core::{CommPlan, OpRole, ParamStore, Reduction, Settle, StepShape, WireFmt, ZeroConfig, ZeroStage};
use zero_model::{Layout, ModelConfig};
use zero_verify::{compression, memory, offload, schedule};

const PINNED: &str = include_str!("schedule_digests.txt");
const SERVE_PINNED: &str = include_str!("serve_digests.txt");

fn model() -> ModelConfig {
    ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 }
}

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[usize]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w as u64);
        }
    }
}

/// A reduction operator's digest word.
fn reduce_op(r: ReduceOp) -> usize {
    match r {
        ReduceOp::Sum => 0,
        ReduceOp::Mean => 1,
        ReduceOp::Max => 2,
    }
}

/// One rank's digest of one plan: the resolved collective stream, then
/// the resolved tier stream.
fn rank_digest(plan: &CommPlan, rank: usize) -> u64 {
    let mut h = Fnv::new();
    for op in plan.resolve_for(rank) {
        h.word(op.kind as u64);
        h.words(&op.members);
        h.words(&op.counts);
        h.word(op.prec.bytes());
        match op.wire {
            WireFmt::Raw => h.word(0),
            WireFmt::Int8Block { block } => h.words(&[1, block]),
            WireFmt::QgzInt8 { node_size, block } => h.words(&[2, node_size, block]),
        }
        h.words(&match op.reduce {
            Reduction::Copy => vec![0],
            Reduction::Reduce(r) => vec![1, reduce_op(r)],
            Reduction::Average { over } => vec![2, over],
        });
        let store = |s: ParamStore| match s {
            ParamStore::Primary => 1,
            ParamStore::Secondary => 2,
        };
        h.words(&match op.role {
            OpRole::Plain => vec![0],
            // Where its buffer is settled: at its flush, when gather op
            // `g` is consumed, or at the end-of-micro drain.
            OpRole::Span(range, settle) => {
                let (at, g) = match settle {
                    Settle::Flush => (0, 0),
                    Settle::Gather(g) => (1, g),
                    Settle::Drain => (2, 0),
                };
                vec![1, range.start, range.end, at, g]
            }
            OpRole::Chunk(rows) => vec![2, rows.start, rows.end],
            OpRole::Fetch { unit, from, into, ahead, hold } => vec![
                3,
                unit,
                store(from),
                into.map_or(0, store),
                usize::from(ahead),
                hold.map_or(0, |p| p.bytes() as usize),
            ],
        });
    }
    h.word(u64::MAX);
    for t in plan.resolve_tier_for(rank) {
        h.word(u64::from(t.at.is_fetch()));
        h.word(t.bytes);
        h.words(&[t.at.issue_pos()]);
    }
    h.0
}

/// The four installable plans of one configuration, each folded over its
/// per-rank digests in rank order.
fn config_line(zcfg: &ZeroConfig, grid: Grid, local_batch: usize) -> String {
    let m = model();
    let layout = Layout::build_mp(&m, grid.mp_degree());
    let act_elems = local_batch * m.seq * m.hidden;
    // Two micro-batches: the second is where hpZ refetches go node-local
    // and the bucket restarts its descending run.
    let shape = |skipped| StepShape { micro_batches: 2, act_elems, skipped };
    let plans = [
        CommPlan::train_step(&layout, zcfg, grid, &shape(false)),
        CommPlan::train_step(&layout, zcfg, grid, &shape(true)),
        CommPlan::eval_pass(&layout, zcfg, grid, act_elems),
        CommPlan::publish_refresh(&layout, zcfg, grid),
    ];
    let mut line = String::new();
    for plan in &plans {
        let mut fold = Fnv::new();
        for rank in 0..grid.world_size() {
            fold.word(rank_digest(plan, rank));
        }
        write!(line, " {:016x}", fold.0).unwrap();
    }
    line
}

/// One serving step's line per (N, overlap): every rank's digest of the
/// resolved stream.
fn serve_table() -> String {
    let layout = Layout::build(&model());
    let mut out = String::from("# serve step\n");
    for n in 1..=8 {
        for overlap in [false, true] {
            let plan = CommPlan::serve_step(&layout, n, overlap);
            let mut fold = Fnv::new();
            for rank in 0..n {
                fold.word(rank_digest(&plan, rank));
            }
            writeln!(out, "serve/n{n}/ov{} {:016x}", u8::from(overlap), fold.0).unwrap();
        }
    }
    out
}

/// Every field a sweep varies, so distinct configurations get distinct
/// names and a duplicate across sweeps collapses to one line.
fn name(zcfg: &ZeroConfig, grid: Grid, local_batch: usize) -> String {
    let c = zcfg.compression;
    // The node size keys DDP's lines as `node` (0 = the flat ring) and
    // the other stages' as the levers' `g`, which keeps every pinned name.
    let (node, g) = match (zcfg.stage, zcfg.node_size) {
        (ZeroStage::Ddp, 1) => (0, 1),
        (ZeroStage::Ddp, g) => (g, 1),
        (_, g) => (0, g),
    };
    format!(
        "{}/dp{}mp{}/b{}/{}/ov{}/ck{}pa{}/clip{}/node{}/cb{}/z{}{}{}g{}/tier{}",
        zcfg.stage.name(),
        grid.dp_degree(),
        grid.mp_degree(),
        local_batch,
        if zcfg.fp16 { "fp16" } else { "fp32" },
        u8::from(zcfg.overlap),
        // The checkpoint interval, 0 without checkpointing.
        if zcfg.checkpoint_activations { zcfg.checkpoint_interval } else { 0 },
        // Whole: 0, P_a: 1, P_a+cpu: 2.
        zcfg.checkpoint_place as u8,
        u8::from(zcfg.clip_grad_norm.is_some()),
        node,
        zcfg.bucket_elems,
        u8::from(c.qwz),
        u8::from(c.hpz),
        u8::from(c.qgz),
        g,
        u8::from(zcfg.tier.enabled),
    )
}

fn table() -> String {
    let configs = memory::digest_configs();
    let mut lines: BTreeMap<String, String> = BTreeMap::new();
    for (zcfg, grid, local_batch) in configs {
        lines
            .entry(name(&zcfg, grid, local_batch))
            .or_insert_with(|| config_line(&zcfg, grid, local_batch));
    }
    let mut out = String::from("# config train train-skipped eval publish-refresh\n");
    for (name, digests) in lines {
        writeln!(out, "{name}{digests}").unwrap();
    }
    out
}

#[test]
fn sweeps_have_their_documented_sizes() {
    assert_eq!(schedule::sweep_configs().len(), 38);
    assert_eq!(schedule::overlap_pair_configs().len(), 18);
    assert_eq!(compression::sweep_configs().len(), 30);
    assert_eq!(offload::sweep_configs().len(), 38);
}

/// Two lines with the same four digests are two names for one schedule:
/// one of them pins a setting that changes nothing, which `check` should
/// have refused.
#[test]
fn no_two_lines_share_all_four_digests() {
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    let mut twins = Vec::new();
    for (name, digests) in PINNED.lines().skip(1).filter_map(entry) {
        if let Some(first) = seen.insert(digests, name) {
            twins.push(format!("{first} = {name}"));
        }
    }
    assert!(twins.is_empty(), "{} line(s) repeat another's schedule: {twins:#?}", twins.len());
}

#[test]
fn every_schedule_digest_is_unchanged() {
    assert_pinned(&table(), PINNED, "schedule_digests.txt", entry);
}

/// The overlapped serving step differs from the synchronous one only in
/// its fetches' `ahead`: the rank digest alone must tell them apart.
#[test]
fn a_rank_digest_sees_the_serving_window() {
    let layout = Layout::build(&model());
    for n in 2..=8 {
        let (sync, over) = (CommPlan::serve_step(&layout, n, false), CommPlan::serve_step(&layout, n, true));
        for rank in 0..n {
            assert_ne!(rank_digest(&sync, rank), rank_digest(&over, rank), "n={n} rank {rank}");
        }
    }
}

#[test]
fn every_serve_digest_is_unchanged() {
    assert_pinned(&serve_table(), SERVE_PINNED, "serve_digests.txt", |line| line.rsplit_once(' '));
}

/// Fails naming every line of `got` that differs from the committed
/// `file`, after writing `got` next to the test binaries; `entry` splits a
/// line into its name and its digests.
fn assert_pinned(got: &str, pinned: &str, file: &str, entry: fn(&str) -> Option<(&str, &str)>) {
    if got == pinned {
        return;
    }
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file.replace(".txt", ".actual.txt"));
    std::fs::write(&actual, got).expect("write the actual digest table");
    let want: BTreeMap<&str, &str> = pinned.lines().filter_map(entry).collect();
    let have: BTreeMap<&str, &str> = got.lines().filter_map(entry).collect();
    let moved: Vec<&str> = want
        .keys()
        .chain(have.keys().filter(|name| !want.contains_key(*name)))
        .filter(|name| want.get(*name) != have.get(*name))
        .copied()
        .collect();
    panic!(
        "{} digest line(s) differ from crates/verify/tests/{file} ({moved:?}); \
         the table this build produces is at {}",
        moved.len().max(1),
        actual.display()
    );
}

/// A table line as (config name, digests): the name is everything before
/// the four digest fields, since a stage's name has a space in it
/// (`ZeRO-3 (Pos+g+p)/…`).
fn entry(line: &str) -> Option<(&str, &str)> {
    let mut cut = line.len();
    for _ in 0..4 {
        cut = line[..cut].rfind(' ')?;
    }
    Some(line.split_at(cut))
}

#[test]
fn table_lines_are_keyed_by_their_whole_config_name() {
    let line = "ZeRO-3 (Pos+g+p)/dp2mp1/b2 0a 0b 0c 0d";
    assert_eq!(entry(line), Some(("ZeRO-3 (Pos+g+p)/dp2mp1/b2", " 0a 0b 0c 0d")));
    assert_eq!(entry("too few fields"), None);
}
