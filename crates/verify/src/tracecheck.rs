//! Trace reconciliation: recorded timelines vs. the analytic plan model.
//!
//! A [`StepTimeline`] records one `collective`-category span per executed
//! collective, byte-tagged with the traffic-counter delta observed across
//! the op's execution. A [`CommPlan`] predicts, per rank, exactly how many
//! collectives of each kind a step issues and how many bytes each rank
//! sends. This module closes the triangle: for every
//! [`CollectiveKind`](zero_comm::CollectiveKind), the span count must equal the plan's op count, and
//! the span byte sum must equal both the plan's per-rank volume and the
//! communicator's [`TrafficSnapshot`] — exact equality, no tolerances.

use zero_comm::{TrafficSnapshot, ALL_KINDS, KIND_COUNT};
use zero_core::CommPlan;
use zero_trace::{SpanCategory, StepTimeline};

/// The schedule-position labels the engine stamps on tier movements —
/// the closed name set [`SpanCategory::Tier`] spans may carry.
pub const TIER_LABELS: [&str; 5] =
    ["tier-param-fetch", "tier-publish-fetch", "tier-grad-spill", "tier-ckpt-spill", "tier-ckpt-fetch"];

/// Expected per-kind collective span counts and byte volumes for one rank,
/// accumulated over the plans a run executed.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceExpectation {
    /// Collective spans expected, indexed by kind discriminant.
    pub ops: [u64; KIND_COUNT],
    /// Span byte-tag sums expected, indexed by kind discriminant.
    pub bytes: [u64; KIND_COUNT],
    /// Tier-movement spans expected, indexed by [`TIER_LABELS`] position.
    pub tier_ops: [u64; TIER_LABELS.len()],
    /// Tier span byte-tag sums expected, same indexing.
    pub tier_bytes: [u64; TIER_LABELS.len()],
}

impl TraceExpectation {
    /// Accumulates `reps` executions of `plan` as experienced by `rank`.
    ///
    /// A rank records one span per planned op whose resolved group has
    /// more than one member. An op over a group of one is not
    /// communication: it completes on the caller's thread with no span,
    /// and it moves no bytes. An offloaded plan's tier stream is folded in
    /// the same way: one [`SpanCategory::Tier`] span per movement,
    /// byte-tagged with the rank's planned transfer volume.
    pub fn add_plan(&mut self, plan: &CommPlan, rank: usize, reps: u64) {
        for op in plan.resolve_for(rank).iter().filter(|op| op.members.len() > 1) {
            self.ops[op.kind as usize] += reps;
        }
        for (acc, b) in self.bytes.iter_mut().zip(plan.rank_bytes(rank)) {
            *acc += reps * b;
        }
        if !plan.tier_ops().is_empty() {
            for t in plan.resolve_tier_for(rank) {
                let i = TIER_LABELS
                    .iter()
                    .position(|l| *l == t.label)
                    .unwrap_or_else(|| panic!("unknown tier label {:?}", t.label));
                self.tier_ops[i] += reps;
                self.tier_bytes[i] += reps * t.bytes;
            }
        }
    }

    /// Total collective spans expected across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Total bytes expected across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Reconciles a recorded timeline against an expectation and (optionally)
/// the rank's live traffic counters.
///
/// Checks, per collective kind: span count == planned op count; span byte
/// sum == planned per-rank bytes; and, when `traffic` is given, span byte
/// sum == metered bytes. Also rejects stray collective spans whose name is
/// not a collective kind.
pub fn check_timeline(
    tl: &StepTimeline,
    want: &TraceExpectation,
    traffic: Option<&TrafficSnapshot>,
) -> Result<(), String> {
    for kind in ALL_KINDS {
        let k = kind as usize;
        let spans = tl.count_named(SpanCategory::Collective, kind.name()) as u64;
        if spans != want.ops[k] {
            return Err(format!(
                "{}: {spans} collective spans recorded, plan has {}",
                kind.name(),
                want.ops[k]
            ));
        }
        let tagged = tl.bytes_named(SpanCategory::Collective, kind.name());
        if tagged != want.bytes[k] {
            return Err(format!(
                "{}: span byte tags sum to {tagged}, plan volume is {}",
                kind.name(),
                want.bytes[k]
            ));
        }
        if let Some(t) = traffic {
            let metered = t.bytes(kind);
            if metered != tagged {
                return Err(format!(
                    "{}: traffic counter says {metered} bytes, span tags sum to {tagged}",
                    kind.name()
                ));
            }
        }
    }
    let total = tl.count(SpanCategory::Collective) as u64;
    if total != want.total_ops() {
        return Err(format!(
            "{total} collective spans recorded in all, plan has {} — \
             some spans carry names outside the kind taxonomy",
            want.total_ops()
        ));
    }
    for (i, label) in TIER_LABELS.iter().enumerate() {
        let spans = tl.count_named(SpanCategory::Tier, label) as u64;
        if spans != want.tier_ops[i] {
            return Err(format!(
                "{label}: {spans} tier spans recorded, plan has {}",
                want.tier_ops[i]
            ));
        }
        let tagged = tl.bytes_named(SpanCategory::Tier, label);
        if tagged != want.tier_bytes[i] {
            return Err(format!(
                "{label}: tier span byte tags sum to {tagged}, plan volume is {}",
                want.tier_bytes[i]
            ));
        }
    }
    let tier_total = tl.count(SpanCategory::Tier) as u64;
    let tier_want: u64 = want.tier_ops.iter().sum();
    if tier_total != tier_want {
        return Err(format!(
            "{tier_total} tier spans recorded in all, plan has {tier_want} — \
             some spans carry labels outside the tier taxonomy"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zero_comm::{CollectiveKind, Grid};
    use zero_core::{CommPlan, StepShape, ZeroConfig, ZeroStage};
    use zero_model::{Layout, ModelConfig};
    use zero_trace::Span;

    fn tiny_plan(stage: ZeroStage, n: usize) -> (CommPlan, ZeroConfig) {
        let model = ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 };
        let layout = Layout::build_mp(&model, 1);
        let zcfg = ZeroConfig { stage, bucket_elems: 512, ..ZeroConfig::default() };
        let shape = StepShape { micro_batches: 1, act_elems: 8 * 16, skipped: false };
        (CommPlan::train_step(&layout, &zcfg, Grid::new(n, 1), &shape), zcfg)
    }

    /// A synthetic timeline holding exactly the spans the plan predicts.
    fn timeline_for(want: &TraceExpectation) -> StepTimeline {
        let mut spans = Vec::new();
        let mut t = 0;
        for kind in ALL_KINDS {
            let k = kind as usize;
            for i in 0..want.ops[k] {
                // Put the whole kind's byte volume on the first span.
                let bytes = if i == 0 { want.bytes[k] } else { 0 };
                spans.push(Span {
                    name: kind.name(),
                    cat: SpanCategory::Collective,
                    start_ns: t,
                    end_ns: t + 10,
                    track: 1,
                    bytes,
                });
                t += 10;
            }
        }
        for (i, label) in TIER_LABELS.iter().enumerate() {
            for j in 0..want.tier_ops[i] {
                let bytes = if j == 0 { want.tier_bytes[i] } else { 0 };
                spans.push(Span {
                    name: label,
                    cat: SpanCategory::Tier,
                    start_ns: t,
                    end_ns: t + 10,
                    track: 1,
                    bytes,
                });
                t += 10;
            }
        }
        StepTimeline { spans, instants: Vec::new(), counters: Vec::new() }
    }

    #[test]
    fn matching_timeline_reconciles() {
        for stage in [ZeroStage::Ddp, ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            let (plan, _) = tiny_plan(stage, 2);
            let mut want = TraceExpectation::default();
            want.add_plan(&plan, 0, 3);
            let tl = timeline_for(&want);
            check_timeline(&tl, &want, None)
                .unwrap_or_else(|e| panic!("{stage:?}: {e}"));
        }
    }

    #[test]
    fn missing_span_or_wrong_bytes_is_rejected() {
        let (plan, _) = tiny_plan(ZeroStage::Two, 2);
        let mut want = TraceExpectation::default();
        want.add_plan(&plan, 1, 1);
        let mut tl = timeline_for(&want);
        let dropped = tl.spans.pop().unwrap();
        let err = check_timeline(&tl, &want, None).unwrap_err();
        assert!(err.contains("spans recorded"), "{err}");
        tl.spans.push(Span { bytes: dropped.bytes + 1, ..dropped });
        let err = check_timeline(&tl, &want, None).unwrap_err();
        assert!(err.contains("byte tags"), "{err}");
    }

    #[test]
    fn stray_span_names_are_rejected() {
        let (plan, _) = tiny_plan(ZeroStage::One, 2);
        let mut want = TraceExpectation::default();
        want.add_plan(&plan, 0, 1);
        let mut tl = timeline_for(&want);
        tl.spans.push(Span {
            name: "not-a-kind",
            cat: SpanCategory::Collective,
            start_ns: 0,
            end_ns: 1,
            track: 1,
            bytes: 0,
        });
        assert!(check_timeline(&tl, &want, None).is_err());
    }

    #[test]
    fn offloaded_tier_stream_reconciles_and_tampering_is_rejected() {
        use zero_core::TierConfig;
        let model = ModelConfig { vocab: 32, seq: 8, hidden: 16, layers: 2, heads: 2 };
        let layout = Layout::build_mp(&model, 1);
        let zcfg = ZeroConfig {
            stage: ZeroStage::Three,
            bucket_elems: 512,
            tier: TierConfig::budgeted(1 << 30),
            ..ZeroConfig::default()
        };
        let shape = StepShape { micro_batches: 1, act_elems: 8 * 16, skipped: false };
        let plan = CommPlan::train_step(&layout, &zcfg, Grid::new(2, 1), &shape);
        assert!(!plan.tier_ops().is_empty(), "offloaded plan carries tier ops");
        let mut want = TraceExpectation::default();
        want.add_plan(&plan, 0, 2);
        assert!(want.tier_ops.iter().sum::<u64>() > 0);
        let mut tl = timeline_for(&want);
        check_timeline(&tl, &want, None).expect("matching tier stream reconciles");

        // A lost tier span, a wrong byte tag, and a stray label must all
        // be rejected.
        let idx = tl
            .spans
            .iter()
            .position(|s| s.cat == SpanCategory::Tier)
            .expect("tier span present");
        let dropped = tl.spans.remove(idx);
        let err = check_timeline(&tl, &want, None).unwrap_err();
        assert!(err.contains("tier spans recorded"), "{err}");
        tl.spans.push(Span { bytes: dropped.bytes + 8, ..dropped });
        let err = check_timeline(&tl, &want, None).unwrap_err();
        assert!(err.contains("tier span byte tags"), "{err}");
    }

    #[test]
    fn expectation_counts_every_planned_op_with_peers() {
        // At mp = 1 every Megatron hook runs over a group of one and
        // records no span: the step's only all-reduce span is the
        // world-wide overflow flag.
        let (plan, _) = tiny_plan(ZeroStage::Three, 4);
        let mut want = TraceExpectation::default();
        want.add_plan(&plan, 2, 1);
        let hooks = plan.ops().iter().filter(|op| op.label == "mp-block-allreduce").count() as u64;
        assert!(hooks > 0, "the walk plans its Megatron hooks");
        assert_eq!(want.total_ops(), plan.ops().len() as u64 - hooks);
        assert_eq!(want.ops[CollectiveKind::AllReduce as usize], 1);
        let rs = want.ops[CollectiveKind::ReduceScatter as usize];
        let ag = want.ops[CollectiveKind::AllGather as usize];
        assert!(rs > 0 && ag > 0, "stage 3 plans both RS and AG");
    }
}
