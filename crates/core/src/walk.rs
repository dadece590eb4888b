//! The micro-batch walk: the one place the order of a pass over the layers
//! is written — §5.3's fetch-before-use and §6.1's checkpoint every k blocks.
//!
//! A training micro-batch runs the embedding; every block, storing a
//! checkpoint at the start of each segment of k blocks; the head; then per
//! segment from the last: restore, recompute holding the segment's units,
//! backward — or, without checkpointing, a plain backward over the kept
//! activations; then the embedding backward. Evaluation is the forward and
//! the head. Every fetch names the unit the walk fetches next, from the
//! head into the backward and across segment boundaries, so the one-ahead
//! prefetch chain runs through the whole pass and only its first fetch
//! waits on demand. The plan builder records what each step communicates
//! and what it charges the device, and the engine executes it, both as a
//! [`Walker`] (the only two), so the plan the engine installs is the walk
//! it runs; [`segments`] alone knows where a segment starts.

use std::ops::Range;

use crate::config::ZeroConfig;

/// The walk's steps, as the plan builder records them (units, activations
/// and checkpoints are `()`) or the engine executes them.
pub(crate) trait Walker {
    /// A fetched unit's parameters, held from fetch to release.
    type Unit;
    /// What a block's forward leaves for its backward.
    type Saved;
    /// A stored activation checkpoint.
    type Ckpt;
    type Error;
    /// Materializes unit `u`; `next` is the unit the walk fetches after it,
    /// `None` only for the pass's last fetch.
    fn fetch(&mut self, u: usize, next: Option<usize>) -> Result<Self::Unit, Self::Error>;
    /// Discards fetched unit `u`.
    fn release(&mut self, u: usize, p: Self::Unit);
    /// Embedding forward, the first activation; releases the unit.
    fn embed(&mut self, p: Self::Unit) -> Result<(), Self::Error>;
    /// Block `l` forward, advancing the activation; `recompute` in backward.
    fn block_fwd(&mut self, l: usize, p: &Self::Unit, recompute: bool) -> Result<Self::Saved, Self::Error>;
    /// Holds a block's saved activations until its backward.
    fn keep(&mut self, saved: Self::Saved) -> Self::Saved;
    /// Stores the current activation.
    fn store_checkpoint(&mut self) -> Self::Ckpt;
    /// Makes a stored checkpoint the current activation.
    fn restore(&mut self, c: Self::Ckpt) -> Result<(), Self::Error>;
    /// The loss and, with `train`, its gradient, dispatched; releases the unit.
    fn head(&mut self, p: Self::Unit, train: bool) -> Result<(), Self::Error>;
    /// Block `l` backward, advancing the gradient; releases the unit.
    fn block_bwd(&mut self, l: usize, p: Self::Unit, saved: Self::Saved) -> Result<(), Self::Error>;
    /// Embedding backward, closing the micro-batch.
    fn embed_bwd(&mut self) -> Result<(), Self::Error>;
}

/// The checkpoint interval k of a training micro-batch; `None` without
/// activation checkpointing.
pub(crate) fn interval(zcfg: &ZeroConfig) -> Option<usize> {
    zcfg.checkpoint_activations.then_some(zcfg.checkpoint_interval.max(1))
}

/// The segments of `k` blocks (the last one short) checkpointing cuts
/// `layers` blocks into, in forward order: one checkpoint each.
pub(crate) fn segments(layers: usize, k: usize) -> impl Iterator<Item = Range<usize>> {
    (0..layers).step_by(k).map(move |start| start..(start + k).min(layers))
}

/// One micro-batch over `layers` blocks: the forward and the head's loss,
/// then with `train` the backward, checkpointing every `k` blocks (`None`
/// keeps every block's activations instead).
pub(crate) fn micro<W: Walker>(w: &mut W, layers: usize, k: Option<usize>, train: bool) -> Result<(), W::Error> {
    let k = k.filter(|_| train);
    let keep = train && k.is_none();
    let p = w.fetch(0, Some(1))?;
    w.embed(p)?;
    let mut starts = k.into_iter().flat_map(|k| segments(layers, k)).peekable();
    let (mut ckpts, mut saveds) = (Vec::new(), Vec::new());
    for l in 0..layers {
        // `2 + l` is the next block — or the head after the last one.
        let p = w.fetch(1 + l, Some(2 + l))?;
        if let Some(seg) = starts.next_if(|seg| seg.start == l) {
            ckpts.push((seg, w.store_checkpoint()));
        }
        let saved = w.block_fwd(l, &p, false)?;
        w.release(1 + l, p);
        if keep {
            saveds.push(w.keep(saved));
        }
    }
    // The head's fetch opens the backward refetch chain: at the last
    // segment's first block with checkpointing, else at the last block.
    // The chain runs on through every segment: a segment's last block
    // names the first block of the segment recomputed next.
    let bwd_first = ckpts.last().map(|(seg, _)| 1 + seg.start).or((keep && layers > 0).then_some(layers));
    let head = w.fetch(1 + layers, bwd_first)?;
    w.head(head, train)?;
    if !train {
        return Ok(());
    }
    let mut segs = ckpts.into_iter().rev().peekable();
    while let Some((seg, c)) = segs.next() {
        let after = segs.peek().map(|(prev, _)| 1 + prev.start);
        w.restore(c)?;
        let mut held = Vec::with_capacity(seg.len());
        for l in seg.clone() {
            let p = w.fetch(1 + l, if l + 1 < seg.end { Some(2 + l) } else { after })?;
            let saved = w.block_fwd(l, &p, true)?;
            held.push((l, p, w.keep(saved)));
        }
        for (l, p, saved) in held.into_iter().rev() {
            w.block_bwd(l, p, saved)?;
        }
    }
    for (l, saved) in saveds.into_iter().enumerate().rev() {
        // Unit `l` is block `l - 1`, this block's predecessor.
        let p = w.fetch(1 + l, (l > 0).then_some(l))?;
        w.block_bwd(l, p, saved)?;
    }
    w.embed_bwd()
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use super::*;

    /// A unit's parameters: only `fetch` makes one.
    struct Params(usize);

    /// Records the walk, checking every step against what it was handed.
    #[derive(Default)]
    struct Recorder {
        layers: usize,
        /// Blocks the activation flowing forward has passed through.
        fwd_at: usize,
        /// Blocks the gradient flowing backward has yet to pass through.
        bwd_at: usize,
        /// Units fetched and not yet released.
        live: Vec<usize>,
        /// The unit the previous fetch named as next.
        hint: Option<usize>,
        /// Fetches no previous fetch named: each one waits on demand.
        unhinted: usize,
        /// Blocks in the order their forward, recompute and backward ran.
        fwd: Vec<usize>,
        refwd: Vec<usize>,
        bwd: Vec<usize>,
        stores: usize,
        restores: usize,
        /// The block whose forward just ran, until its activations are kept.
        unkept: Option<usize>,
    }

    impl Recorder {
        fn free(&mut self, p: Params) -> usize {
            let at = self.live.iter().position(|&u| u == p.0).expect("unit released twice");
            self.live.swap_remove(at);
            p.0
        }
    }

    impl Walker for Recorder {
        type Unit = Params;
        /// The block whose activations these are, once kept.
        type Saved = Option<usize>;
        type Ckpt = usize;
        type Error = Infallible;

        fn fetch(&mut self, u: usize, next: Option<usize>) -> Result<Params, Infallible> {
            match self.hint.take() {
                Some(hinted) => assert_eq!(hinted, u, "the prefetch hint named a unit the walk did not fetch next"),
                None => self.unhinted += 1,
            }
            self.hint = next;
            self.live.push(u);
            Ok(Params(u))
        }

        fn release(&mut self, u: usize, p: Params) {
            assert_eq!(self.free(p), u, "released under another unit's index");
        }

        fn embed(&mut self, p: Params) -> Result<(), Infallible> {
            assert_eq!(self.free(p), 0);
            Ok(())
        }

        fn block_fwd(&mut self, l: usize, p: &Params, recompute: bool) -> Result<Option<usize>, Infallible> {
            assert_eq!(p.0, 1 + l, "block {l} computed on another unit");
            assert!(self.live.contains(&p.0), "block {l} computed on a released unit");
            assert_eq!(self.fwd_at, l, "block {l} ran on the wrong activation");
            self.fwd_at = l + 1;
            let ran = if recompute { &mut self.refwd } else { &mut self.fwd };
            ran.push(l);
            self.unkept = Some(l);
            Ok(None)
        }

        fn keep(&mut self, saved: Option<usize>) -> Option<usize> {
            assert_eq!(saved, None, "activations kept twice");
            self.unkept.take()
        }

        fn store_checkpoint(&mut self) -> usize {
            self.stores += 1;
            self.fwd_at
        }

        fn restore(&mut self, c: usize) -> Result<(), Infallible> {
            self.restores += 1;
            self.fwd_at = c;
            Ok(())
        }

        fn head(&mut self, p: Params, _train: bool) -> Result<(), Infallible> {
            assert_eq!(self.free(p), 1 + self.layers);
            assert_eq!(self.fwd_at, self.layers, "the head ran before the last block");
            self.bwd_at = self.layers;
            Ok(())
        }

        fn block_bwd(&mut self, l: usize, p: Params, saved: Option<usize>) -> Result<(), Infallible> {
            assert_eq!(self.free(p), 1 + l, "block {l} backward on another unit");
            assert_eq!(saved, Some(l), "block {l} backward on other activations: {saved:?}");
            assert_eq!(self.bwd_at, l + 1, "block {l} backward out of order");
            self.bwd_at = l;
            self.bwd.push(l);
            Ok(())
        }

        fn embed_bwd(&mut self) -> Result<(), Infallible> {
            assert_eq!(self.bwd_at, 0, "embedding backward before the first block's");
            Ok(())
        }
    }

    #[test]
    fn every_walk_uses_each_unit_between_its_fetch_and_release_and_pairs_each_checkpoint() {
        for layers in 1..=4 {
            let blocks: Vec<usize> = (0..layers).collect();
            let reversed: Vec<usize> = blocks.iter().rev().copied().collect();
            for k in std::iter::once(None).chain((1..=layers).map(Some)) {
                let mut r = Recorder { layers, ..Recorder::default() };
                let Ok(()) = micro(&mut r, layers, k, true);
                assert!(r.live.is_empty(), "layers {layers} k {k:?}: units never released");
                assert_eq!((&r.fwd, &r.bwd), (&blocks, &reversed), "layers {layers} k {k:?}");
                r.refwd.sort_unstable();
                let recomputed = if k.is_some() { blocks.clone() } else { Vec::new() };
                assert_eq!(r.refwd, recomputed, "layers {layers} k {k:?}: recompute");
                let segs = k.map_or(0, |k| segments(layers, k).count());
                assert_eq!((r.stores, r.restores), (segs, segs), "layers {layers} k {k:?}");
                // The prefetch chain runs through the whole pass, across
                // every segment boundary: only the first fetch is unnamed.
                assert_eq!(r.unhinted, 1, "layers {layers} k {k:?}: the chain broke");
            }
            let mut r = Recorder { layers, ..Recorder::default() };
            let Ok(()) = micro(&mut r, layers, Some(1), false);
            assert!(r.live.is_empty() && r.bwd.is_empty() && r.stores == 0 && r.unhinted == 1);
            assert_eq!(r.fwd, blocks);
        }
    }

    #[test]
    fn the_engine_arena_holds_exactly_the_checkpoints_a_micro_batch_stores() {
        use zero_comm::{Grid, World};
        use zero_model::{init_full_params, Gpt, ModelConfig, SyntheticCorpus};

        use crate::{CkptPlace, RankEngine, ZeroStage};

        // The pre-allocated MD buffer is one slot per segment, every slot
        // filled: not one per block with the tail never touched. P_a+cpu
        // checkpoints live there too, on their way to and from the host.
        for (layers, pa_cpu) in (1..=4).flat_map(|l| [(l, false), (l, true)]) {
            for k in 1..=layers {
                let cfg = ModelConfig { vocab: 32, seq: 8, hidden: 16, layers, heads: 2 };
                let zcfg = ZeroConfig {
                    stage: ZeroStage::Two,
                    checkpoint_interval: k,
                    checkpoint_place: if pa_cpu { CkptPlace::Host } else { CkptPlace::Whole },
                    ..ZeroConfig::default()
                };
                let params = init_full_params(&cfg, 4);
                let comm = World::new(1).take(0);
                let mut engine = RankEngine::new(Gpt::new(cfg), &params, zcfg, Grid::new(1, 1), comm);
                let corpus = SyntheticCorpus::generate(cfg.vocab, 1000, 1);
                let (ids, targets) = corpus.rank_batch(0, 2, cfg.seq, 1, 0);
                assert!(engine.train_step(&ids, &targets, 2).loss.is_finite());
                let arena = engine.arena().expect("checkpointing allocates the arena");
                let slot = 2 * cfg.seq * cfg.hidden;
                let what = format!("{layers}/{k} P_a+cpu {pa_cpu}");
                assert_eq!(arena.capacity(), slot * segments(layers, k).count(), "{what}");
                assert_eq!(arena.high_water(), arena.capacity(), "{what}");
                assert_eq!(engine.tier_stats().spill_ops > 0, pa_cpu, "{what}");
            }
        }
    }

    #[test]
    fn segments_tile_the_blocks_from_every_kth() {
        let cut: Vec<Range<usize>> = segments(5, 2).collect();
        assert_eq!(cut, [0..2, 2..4, 4..5]);
        assert_eq!(segments(4, 1).count(), 4);
        assert!(segments(3, 3).eq(std::iter::once(0..3)));
        assert_eq!(segments(0, 2).count(), 0);
    }
}
