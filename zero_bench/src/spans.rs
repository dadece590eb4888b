//! The benchmark's own spans, and the arithmetic that turns spans into
//! per-layer time.
//!
//! A [`Recorder`] keeps spans in memory (name, start, end, run id, track);
//! nothing is written until the benchmark ends. The program's existing
//! spans are imported next to them ([`Recorder::import`]) on the same
//! clock, [`link_parents`] nests every span under the span that encloses
//! it on its track, and a span's self time ([`self_times`]) is its duration minus the
//! part of it its children cover.

use std::time::Instant;

/// One timed interval `[start_ns, end_ns)` on the benchmark's clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran: a benchmark phase, a call into a layer, or a program span.
    pub name: &'static str,
    /// Layer label: `bench` for the benchmark's own spans, the program's
    /// span category (`compute`, `wait`, …) for imported ones.
    pub cat: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The run this span belongs to (one workload run = one id).
    pub run: u32,
    /// Thread-like lane, sixteen per rank: `16·rank` is the rank's own
    /// thread, `+1` its comm progress thread, `+8…` the serving engine's
    /// per-request lanes (the program's own track numbers).
    pub track: u32,
    /// Index of the enclosing span, filled by [`link_parents`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

const CLOCK_MARKER: &str = "bench-clock-marker";

/// Lane of rank `rank`'s own thread.
pub fn main_track(rank: usize) -> u32 {
    16 * rank as u32
}

/// In-memory span sink; one per thread that records, merged at the end.
pub struct Recorder {
    epoch: Instant,
    run: u32,
    track: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for lane `track` of run `run`; every recorder of a
    /// process shares `epoch` so their spans are on one clock.
    pub fn new(epoch: Instant, run: u32, track: u32) -> Recorder {
        Recorder {
            epoch,
            run,
            track,
            spans: Vec::new(),
        }
    }

    /// An empty recorder on the same clock and run, for another lane.
    pub fn on_track(&self, track: u32) -> Recorder {
        Recorder::new(self.epoch, self.run, track)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and how
    /// long it took.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cat: "bench",
            start_ns,
            end_ns,
            run: self.run,
            track: self.track,
            parent: None,
        });
        (out, end_ns - start_ns)
    }

    /// Records a marker span in the program's recorder `trace` and returns
    /// the benchmark's time for it. The program stamps spans on its own
    /// epoch; the marker, on both clocks, is what lets [`Recorder::import`]
    /// move them onto this one. Records nothing while `trace` is disabled.
    pub fn mark(&self, trace: &zero_trace::TraceRecorder) -> u64 {
        let now = self.now_ns();
        let id = trace.begin(zero_trace::SpanCategory::Checkpoint, CLOCK_MARKER);
        trace.end(id);
        now
    }

    /// Imports one rank's program spans, shifted onto this recorder's clock
    /// by the marker [`Recorder::mark`] recorded at `marker_ns`.
    ///
    /// # Panics
    /// Panics if `timeline` holds no marker.
    pub fn import(&mut self, rank: usize, timeline: &zero_trace::StepTimeline, marker_ns: u64) {
        let marker = timeline
            .spans
            .iter()
            .find(|s| s.name == CLOCK_MARKER)
            .expect("the marker was recorded while tracing was on");
        let offset_ns = marker_ns as i64 - marker.start_ns as i64;
        let shift = |t: u64| (t as i64 + offset_ns).max(0) as u64;
        // `queue-wait` spans run from a request's arrival to its admission,
        // across batch steps, so they do not nest on the rank's track;
        // queue time is reported exactly from `queue_steps` instead.
        let nested = timeline
            .spans
            .iter()
            .filter(|s| s.name != "queue-wait" && s.name != CLOCK_MARKER);
        self.spans.extend(nested.map(|s| Span {
            name: s.name,
            cat: s.cat.name(),
            start_ns: shift(s.start_ns),
            end_ns: shift(s.end_ns),
            run: self.run,
            track: main_track(rank) + s.track,
            parent: None,
        }));
    }
}

/// Sets each span's `parent` to the innermost span that encloses it on the
/// same run and track. Spans on one thread nest, so enclosure is cause.
pub fn link_parents(spans: &mut [Span]) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outer spans first: earlier start, then later end.
    order.sort_by_key(|&i| {
        (
            spans[i].run,
            spans[i].track,
            spans[i].start_ns,
            std::cmp::Reverse(spans[i].end_ns),
        )
    });
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = stack.last() {
            let (t, s) = (&spans[top], &spans[i]);
            if t.run == s.run && t.track == s.track && s.end_ns <= t.end_ns {
                break;
            }
            stack.pop();
        }
        spans[i].parent = stack.last().copied();
        stack.push(i);
    }
}

/// Merges half-open intervals: empty ones dropped, touching or overlapping
/// ones coalesced; output sorted and disjoint.
pub fn merge(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.retain(|(a, b)| b > a);
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (a, b) in v {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Total length of `a` not covered by `b`; both merged (sorted, disjoint).
pub fn uncovered_ns(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let mut j = 0;
    let mut total = 0;
    for &(start, end) in a {
        let mut at = start;
        while j < b.len() && b[j].1 <= at {
            j += 1;
        }
        let mut k = j;
        while k < b.len() && b[k].0 < end {
            total += b[k].0.saturating_sub(at);
            at = at.max(b[k].1);
            k += 1;
        }
        total += end.saturating_sub(at);
    }
    total
}

/// Self time of every span: its duration minus what its direct children
/// cover (children that overlap each other are counted once). Needs
/// [`link_parents`] to have run.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for c in spans {
        if let Some(p) = c.parent {
            children[p].push((
                c.start_ns.max(spans[p].start_ns),
                c.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| uncovered_ns(&[(s.start_ns, s.end_ns)], &merge(kids)))
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, `pid` = run id, `tid` = track, parent index in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            s.name,
            s.cat,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.run,
            s.track,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, track: u32) -> Span {
        Span {
            name,
            cat: "bench",
            start_ns,
            end_ns,
            run: 0,
            track,
            parent: None,
        }
    }

    #[test]
    fn parents_are_the_innermost_enclosing_span_on_the_track() {
        let mut s = vec![
            span("step", 0, 100, 0),
            span("fwd", 10, 40, 0),
            span("gemm", 15, 20, 0),
            span("bwd", 40, 90, 0),
            span("other-track", 12, 18, 1),
            span("next-step", 100, 150, 0),
        ];
        link_parents(&mut s);
        let parents: Vec<_> = s.iter().map(|x| x.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0), None, None]);
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut s = vec![
            span("step", 0, 100, 0),
            span("fwd", 10, 40, 0),
            span("bwd", 50, 90, 0),
        ];
        link_parents(&mut s);
        assert_eq!(self_times(&s), [100 - 30 - 40, 30, 40]);
        // A grandchild is its parent's cost, not the grandparent's.
        s.push(span("gemm", 12, 20, 0));
        link_parents(&mut s);
        assert_eq!(self_times(&s), [30, 22, 40, 8]);
    }

    #[test]
    fn overlapping_children_are_merged_before_subtracting() {
        // Two children that overlap on [30, 40) — e.g. per-request lanes
        // folded onto one track — cover 50 ns, not 60.
        let mut s = vec![
            span("step", 0, 100, 0),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),
        ];
        s[1].parent = Some(0);
        s[2].parent = Some(0);
        assert_eq!(self_times(&s)[0], 50);
    }

    #[test]
    fn interval_merge_and_difference() {
        assert_eq!(
            merge(vec![(5, 9), (1, 3), (3, 4), (8, 12), (20, 20)]),
            [(1, 4), (5, 12)]
        );
        let a = [(0, 10), (20, 30)];
        assert_eq!(uncovered_ns(&a, &[]), 20);
        assert_eq!(uncovered_ns(&a, &[(0, 100)]), 0);
        assert_eq!(uncovered_ns(&a, &[(2, 4), (8, 22), (29, 40)]), 2 + 4 + 7);
    }

    #[test]
    fn chrome_json_parses_and_keeps_parent_links() {
        let mut s = vec![span("step", 0, 2_000, 0), span("fwd", 500, 1_500, 0)];
        link_parents(&mut s);
        let doc = serde_json::from_str(&chrome_json(&s)).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("event array");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_u64()),
            Some(0)
        );
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
    }
}
