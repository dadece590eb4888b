//! `zero-trace` — lock-cheap per-rank span recording and step timelines.
//!
//! Every rank owns one [`TraceRecorder`]. Code brackets interesting work in
//! *spans* ([`TraceRecorder::begin`] / [`TraceRecorder::end`]) classified by
//! [`SpanCategory`], drops point-in-time *instant events* (bucket flushes,
//! prefetch issues, fault injections, snapshot writes), and samples
//! *counters* (peak device bytes). The recorder is a single short-critical-
//! section mutex per rank: timestamps are taken **inside** the lock, so the
//! per-recorder event order is the timestamp order by construction — the
//! monotonicity the Chrome export and the overlap queries rely on.
//!
//! Two consumers read a recorder:
//!
//! * [`StepTimeline`] — a compact queryable snapshot (span counts, byte
//!   sums, merged busy intervals, and compute∩collective overlap windows)
//!   that the conformance tests and `zero-verify` reconcile against the
//!   communicator's byte counters and the `CommPlan` volume model;
//! * [`chrome_trace`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` / Perfetto, with `pid` = rank and `tid` = track
//!   (0 = the rank's compute thread, 1 = its comm progress thread).
//!
//! Collective spans carry a `bytes` tag equal to the traffic-counter delta
//! observed across the op's execution, which is what makes byte-exact
//! reconciliation with `Stats` possible: the tag *is* the counter movement,
//! not an independent estimate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Track id for work on the rank's own (compute) thread.
pub const TRACK_MAIN: u32 = 0;
/// Track id for work on the rank's communication progress thread.
pub const TRACK_PROGRESS: u32 = 1;

/// The span taxonomy. Categories are deliberately few: queries and
/// reconciliation invariants are stated per category, names refine within.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanCategory {
    /// Model math on the rank thread (embed / block / head passes).
    Compute,
    /// A collective executing on the progress thread.
    Collective,
    /// The rank thread blocked on an in-flight op's completion.
    Wait,
    /// Optimizer state update (Adam / SGD step on the owned shard).
    Optimizer,
    /// Snapshot, restore, and supervisor-recovery machinery.
    Checkpoint,
    /// A host↔device memory-tier transfer executing on the progress
    /// thread (ZeRO-Offload spill/fetch traffic).
    Tier,
}

/// Every category, in display order.
pub const ALL_CATEGORIES: [SpanCategory; 6] = [
    SpanCategory::Compute,
    SpanCategory::Collective,
    SpanCategory::Wait,
    SpanCategory::Optimizer,
    SpanCategory::Checkpoint,
    SpanCategory::Tier,
];

impl SpanCategory {
    /// The `cat` string used in the Chrome trace export.
    pub fn name(self) -> &'static str {
        match self {
            SpanCategory::Compute => "compute",
            SpanCategory::Collective => "collective",
            SpanCategory::Wait => "wait",
            SpanCategory::Optimizer => "optimizer",
            SpanCategory::Checkpoint => "checkpoint",
            SpanCategory::Tier => "tier",
        }
    }
}

/// A completed span: `[start_ns, end_ns)` relative to the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Refinement within the category (e.g. `"reduce-scatter"`).
    pub name: &'static str,
    /// Taxonomy bucket.
    pub cat: SpanCategory,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder epoch (`>= start_ns`).
    pub end_ns: u64,
    /// 0 = rank thread, 1 = progress thread (see [`TRACK_MAIN`]).
    pub track: u32,
    /// Byte tag; for collective spans, the traffic-counter delta across
    /// the op's execution. 0 where bytes are meaningless.
    pub bytes: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A point-in-time event (bucket flush, prefetch issue, fault, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstantEvent {
    /// Event name (e.g. `"bucket-flush"`).
    pub name: &'static str,
    /// Category the event is attributed to.
    pub cat: SpanCategory,
    /// Timestamp, nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Track the event fired on.
    pub track: u32,
}

/// A sampled counter value (e.g. peak device bytes at end of step).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Counter name.
    pub name: &'static str,
    /// Timestamp, nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Sampled value.
    pub value: u64,
}

/// Handle for an open span, returned by [`TraceRecorder::begin`]. Ending a
/// span consumes the id; ending an id twice (or a null id from a disabled
/// recorder) is a no-op, so instrumentation never has to branch on state.
/// The generation tag makes stale ids inert even after their slot is
/// recycled for a newer span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize, u64);

impl SpanId {
    /// The id handed out when recording is disabled; ending it is a no-op.
    pub const NULL: SpanId = SpanId(usize::MAX, u64::MAX);

    /// True for the null (disabled-recorder) id.
    pub fn is_null(self) -> bool {
        self == SpanId::NULL
    }
}

struct OpenSpan {
    name: &'static str,
    cat: SpanCategory,
    start_ns: u64,
    track: u32,
}

/// One slab entry: the generation counter advances every time the slot's
/// span ends, so a [`SpanId`] minted for an earlier occupant can never
/// close a later one.
struct Slot {
    gen: u64,
    open: Option<OpenSpan>,
}

#[derive(Default)]
struct Inner {
    /// Slab of open spans; `SpanId` indexes into it.
    open: Vec<Slot>,
    free: Vec<usize>,
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    counters: Vec<CounterSample>,
}

/// Per-rank span/instant/counter recorder. Cheap enough to leave on
/// unconditionally: one uncontended mutex acquisition per event (the only
/// contenders are the rank thread and its progress thread).
pub struct TraceRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder whose epoch is "now".
    pub fn new() -> TraceRecorder {
        TraceRecorder::with_epoch(Instant::now())
    }

    /// A recorder with an explicit epoch — a world passes one shared epoch
    /// to every rank's recorder so cross-rank timestamps are comparable in
    /// a merged Chrome trace.
    pub fn with_epoch(epoch: Instant) -> TraceRecorder {
        TraceRecorder {
            enabled: AtomicBool::new(true),
            epoch,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables recording. Disabled recorders hand out
    /// [`SpanId::NULL`] and drop instants/counters on the floor.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span on the rank (compute) track.
    pub fn begin(&self, cat: SpanCategory, name: &'static str) -> SpanId {
        self.begin_on(TRACK_MAIN, cat, name)
    }

    /// Opens a span on an explicit track.
    pub fn begin_on(&self, track: u32, cat: SpanCategory, name: &'static str) -> SpanId {
        if !self.is_enabled() {
            return SpanId::NULL;
        }
        let mut g = self.inner.lock().unwrap();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let open = OpenSpan { name, cat, start_ns, track };
        let idx = match g.free.pop() {
            Some(i) => {
                g.open[i].open = Some(open);
                i
            }
            None => {
                g.open.push(Slot { gen: 0, open: Some(open) });
                g.open.len() - 1
            }
        };
        SpanId(idx, g.open[idx].gen)
    }

    /// Closes a span with a zero byte tag. Returns `false` (recording
    /// nothing) if the id is null, unknown, or already ended.
    pub fn end(&self, id: SpanId) -> bool {
        self.end_with_bytes(id, 0)
    }

    /// Closes a span, attaching a byte tag. Returns `false` (recording
    /// nothing) if the id is null, unknown, or already ended — an
    /// end-without-begin can never mint a span.
    pub fn end_with_bytes(&self, id: SpanId, bytes: u64) -> bool {
        if id.is_null() {
            return false;
        }
        let mut g = self.inner.lock().unwrap();
        let open = match g.open.get_mut(id.0) {
            Some(slot) if slot.gen == id.1 => match slot.open.take() {
                Some(open) => {
                    slot.gen += 1;
                    open
                }
                None => return false,
            },
            _ => return false,
        };
        g.free.push(id.0);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        g.spans.push(Span {
            name: open.name,
            cat: open.cat,
            start_ns: open.start_ns,
            end_ns,
            track: open.track,
            bytes,
        });
        true
    }

    /// Records an instant event on the rank track.
    pub fn instant(&self, cat: SpanCategory, name: &'static str) {
        self.instant_on(TRACK_MAIN, cat, name);
    }

    /// Records an instant event on an explicit track.
    pub fn instant_on(&self, track: u32, cat: SpanCategory, name: &'static str) {
        if !self.is_enabled() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        let ts_ns = self.epoch.elapsed().as_nanos() as u64;
        g.instants.push(InstantEvent { name, cat, ts_ns, track });
    }

    /// Samples a counter value.
    pub fn counter(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        let ts_ns = self.epoch.elapsed().as_nanos() as u64;
        g.counters.push(CounterSample { name, ts_ns, value });
    }

    /// Number of spans begun but not yet ended.
    pub fn open_spans(&self) -> usize {
        let g = self.inner.lock().unwrap();
        g.open.iter().filter(|s| s.open.is_some()).count()
    }

    /// Snapshot of everything recorded so far, spans sorted by start time.
    /// Open spans are not included — a timeline is always well-formed.
    pub fn timeline(&self) -> StepTimeline {
        let g = self.inner.lock().unwrap();
        let mut spans = g.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        let mut instants = g.instants.clone();
        instants.sort_by_key(|i| i.ts_ns);
        let mut counters = g.counters.clone();
        counters.sort_by_key(|c| c.ts_ns);
        StepTimeline { spans, instants, counters }
    }

    /// Discards all completed and open events (the epoch is kept).
    pub fn reset(&self) {
        let mut g = self.inner.lock().unwrap();
        *g = Inner::default();
    }
}

/// Merges a set of half-open `[start, end)` intervals: empty intervals are
/// dropped, touching/overlapping ones coalesce, output is sorted and
/// pairwise disjoint.
pub fn merge_intervals(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.retain(|&(s, e)| e > s);
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Intersection of two interval sets (each merged first). Symmetric in its
/// arguments; every output interval is non-empty and contained in both
/// inputs' coverage.
pub fn intersect_intervals(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let a = merge_intervals(a.to_vec());
    let b = merge_intervals(b.to_vec());
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if s < e {
            out.push((s, e));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// A queryable snapshot of one rank's recorded events.
#[derive(Clone, Debug, Default)]
pub struct StepTimeline {
    /// Completed spans, sorted by start time.
    pub spans: Vec<Span>,
    /// Instant events, sorted by timestamp.
    pub instants: Vec<InstantEvent>,
    /// Counter samples, sorted by timestamp.
    pub counters: Vec<CounterSample>,
}

impl StepTimeline {
    /// Spans of one category.
    pub fn spans_in(&self, cat: SpanCategory) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.cat == cat)
    }

    /// Number of spans in a category.
    pub fn count(&self, cat: SpanCategory) -> usize {
        self.spans_in(cat).count()
    }

    /// Number of spans with this exact (category, name).
    pub fn count_named(&self, cat: SpanCategory, name: &str) -> usize {
        self.spans_in(cat).filter(|s| s.name == name).count()
    }

    /// Sum of byte tags over a category.
    pub fn bytes(&self, cat: SpanCategory) -> u64 {
        self.spans_in(cat).map(|s| s.bytes).sum()
    }

    /// Sum of byte tags over spans with this exact (category, name).
    pub fn bytes_named(&self, cat: SpanCategory, name: &str) -> u64 {
        self.spans_in(cat).filter(|s| s.name == name).map(|s| s.bytes).sum()
    }

    /// Total span-duration nanoseconds in a category (spans may overlap;
    /// this is a sum of lengths, not wall-clock coverage).
    pub fn duration_ns(&self, cat: SpanCategory) -> u64 {
        self.spans_in(cat).map(|s| s.duration_ns()).sum()
    }

    /// Largest sampled value of a counter, if it was ever sampled.
    pub fn counter_max(&self, name: &str) -> Option<u64> {
        self.counters.iter().filter(|c| c.name == name).map(|c| c.value).max()
    }

    /// Merged busy intervals of spans matching `keep`.
    pub fn intervals_where(&self, keep: impl Fn(&Span) -> bool) -> Vec<(u64, u64)> {
        merge_intervals(
            self.spans.iter().filter(|s| keep(s)).map(|s| (s.start_ns, s.end_ns)).collect(),
        )
    }

    /// Merged busy intervals of one category.
    pub fn intervals(&self, cat: SpanCategory) -> Vec<(u64, u64)> {
        self.intervals_where(|s| s.cat == cat)
    }

    /// Windows where categories `a` and `b` were simultaneously busy.
    /// Symmetric: `overlap_intervals(a, b) == overlap_intervals(b, a)`.
    pub fn overlap_intervals(&self, a: SpanCategory, b: SpanCategory) -> Vec<(u64, u64)> {
        intersect_intervals(&self.intervals(a), &self.intervals(b))
    }

    /// Windows where model compute and a *byte-moving* collective were
    /// simultaneously in flight — the structural witness of overlap mode.
    ///
    /// Zero-byte collective spans (e.g. the degenerate size-1 MP hook
    /// all-reduces, which execute while the rank computes even in
    /// synchronous mode) are excluded: they move nothing, so they hide
    /// nothing.
    pub fn compute_collective_overlap(&self) -> Vec<(u64, u64)> {
        intersect_intervals(
            &self.intervals(SpanCategory::Compute),
            &self.intervals_where(|s| s.cat == SpanCategory::Collective && s.bytes > 0),
        )
    }

    /// Total nanoseconds of [`StepTimeline::compute_collective_overlap`].
    pub fn compute_collective_overlap_ns(&self) -> u64 {
        self.compute_collective_overlap().iter().map(|&(s, e)| e - s).sum()
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats nanoseconds as the trace format's microsecond `ts`/`dur` value.
/// Three decimals represent integer nanoseconds exactly, so sorting by ns
/// and formatting preserves per-rank timestamp monotonicity.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

#[allow(clippy::too_many_arguments)] // one flat JSON record, one flat call
fn push_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    cat: &str,
    ph: char,
    ts_ns: u64,
    dur_ns: u64,
    pid: usize,
    tid: u32,
    extra: &str,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":\"");
    escape_into(out, name);
    out.push_str("\",\"cat\":\"");
    escape_into(out, cat);
    out.push_str("\",\"ph\":\"");
    out.push(ph);
    out.push_str("\",\"ts\":");
    out.push_str(&us(ts_ns));
    out.push_str(",\"dur\":");
    out.push_str(&us(dur_ns));
    out.push_str(",\"pid\":");
    out.push_str(&pid.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&tid.to_string());
    out.push_str(extra);
    out.push('}');
}

/// Renders per-rank timelines (`pid` = slice index = rank) as a Chrome
/// trace-event JSON document, loadable in `chrome://tracing` or Perfetto.
///
/// Every event carries `name`, `cat`, `ph`, `ts`, `dur`, `pid`, `tid`
/// (instants and counters with `dur` 0), and events are emitted in
/// non-decreasing `ts` order within each rank.
pub fn chrome_trace(timelines: &[StepTimeline]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, tl) in timelines.iter().enumerate() {
        // One sorted stream per rank: (ts, which-event).
        enum Ev<'a> {
            Span(&'a Span),
            Instant(&'a InstantEvent),
            Counter(&'a CounterSample),
        }
        let mut evs: Vec<(u64, Ev)> = tl.spans.iter().map(|s| (s.start_ns, Ev::Span(s))).collect();
        evs.extend(tl.instants.iter().map(|i| (i.ts_ns, Ev::Instant(i))));
        evs.extend(tl.counters.iter().map(|c| (c.ts_ns, Ev::Counter(c))));
        evs.sort_by_key(|&(ts, _)| ts);
        for (_, ev) in evs {
            match ev {
                Ev::Span(s) => push_event(
                    &mut out,
                    &mut first,
                    s.name,
                    s.cat.name(),
                    'X',
                    s.start_ns,
                    s.duration_ns(),
                    pid,
                    s.track,
                    &format!(",\"args\":{{\"bytes\":{}}}", s.bytes),
                ),
                Ev::Instant(i) => push_event(
                    &mut out,
                    &mut first,
                    i.name,
                    i.cat.name(),
                    'i',
                    i.ts_ns,
                    0,
                    pid,
                    i.track,
                    ",\"s\":\"t\"",
                ),
                Ev::Counter(c) => push_event(
                    &mut out,
                    &mut first,
                    c.name,
                    "counter",
                    'C',
                    c.ts_ns,
                    0,
                    pid,
                    TRACK_MAIN,
                    &format!(",\"args\":{{\"value\":{}}}", c.value),
                ),
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_bytes() {
        let t = TraceRecorder::new();
        let outer = t.begin(SpanCategory::Compute, "outer");
        let inner = t.begin_on(TRACK_PROGRESS, SpanCategory::Collective, "reduce-scatter");
        assert_eq!(t.open_spans(), 2);
        assert!(t.end_with_bytes(inner, 128));
        assert!(t.end(outer));
        assert_eq!(t.open_spans(), 0);
        let tl = t.timeline();
        assert_eq!(tl.spans.len(), 2);
        assert_eq!(tl.count(SpanCategory::Collective), 1);
        assert_eq!(tl.bytes(SpanCategory::Collective), 128);
        assert_eq!(tl.bytes_named(SpanCategory::Collective, "reduce-scatter"), 128);
        let outer = tl.spans_in(SpanCategory::Compute).next().unwrap();
        let inner = tl.spans_in(SpanCategory::Collective).next().unwrap();
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(inner.track, TRACK_PROGRESS);
    }

    #[test]
    fn ending_twice_or_never_begun_records_nothing() {
        let t = TraceRecorder::new();
        let id = t.begin(SpanCategory::Wait, "w");
        assert!(t.end(id));
        assert!(!t.end(id), "double end must be a no-op");
        assert!(!t.end(SpanId::NULL));
        assert!(!t.end_with_bytes(SpanId(999, 0), 1), "unknown id must be a no-op");
        assert_eq!(t.timeline().spans.len(), 1);
    }

    #[test]
    fn slab_reuses_slots_without_crossing_spans() {
        let t = TraceRecorder::new();
        let a = t.begin(SpanCategory::Compute, "a");
        t.end(a);
        let b = t.begin(SpanCategory::Compute, "b");
        // Slot reused: the stale id now names the *new* open span, ending
        // it is indistinguishable from ending `b` — so instrumentation
        // must not hold ids across an end; here we just confirm no panic
        // and conservation of span count.
        t.end(b);
        assert!(!t.end(b));
        assert_eq!(t.timeline().spans.len(), 2);
    }

    #[test]
    fn disabled_recorder_is_silent() {
        let t = TraceRecorder::new();
        t.set_enabled(false);
        let id = t.begin(SpanCategory::Compute, "x");
        assert!(id.is_null());
        assert!(!t.end(id));
        t.instant(SpanCategory::Collective, "flush");
        t.counter("peak", 7);
        let tl = t.timeline();
        assert!(tl.spans.is_empty() && tl.instants.is_empty() && tl.counters.is_empty());
    }

    #[test]
    fn merge_drops_empty_and_coalesces_touching() {
        assert_eq!(
            merge_intervals(vec![(5, 5), (0, 2), (2, 4), (10, 12), (11, 15)]),
            vec![(0, 4), (10, 15)]
        );
    }

    #[test]
    fn intersect_is_symmetric_and_clamped() {
        let a = [(0u64, 10u64), (20, 30)];
        let b = [(5u64, 25u64)];
        let ab = intersect_intervals(&a, &b);
        assert_eq!(ab, vec![(5, 10), (20, 25)]);
        assert_eq!(ab, intersect_intervals(&b, &a));
        assert!(intersect_intervals(&a, &[]).is_empty());
    }

    #[test]
    fn overlap_query_ignores_zero_byte_collectives() {
        let tl = StepTimeline {
            spans: vec![
                Span {
                    name: "block-fwd",
                    cat: SpanCategory::Compute,
                    start_ns: 0,
                    end_ns: 100,
                    track: 0,
                    bytes: 0,
                },
                Span {
                    name: "all-reduce",
                    cat: SpanCategory::Collective,
                    start_ns: 10,
                    end_ns: 20,
                    track: 1,
                    bytes: 0,
                },
                Span {
                    name: "reduce-scatter",
                    cat: SpanCategory::Collective,
                    start_ns: 40,
                    end_ns: 60,
                    track: 1,
                    bytes: 256,
                },
            ],
            instants: vec![],
            counters: vec![],
        };
        assert_eq!(tl.compute_collective_overlap(), vec![(40, 60)]);
        assert_eq!(tl.compute_collective_overlap_ns(), 20);
        // The unfiltered category query sees both.
        assert_eq!(
            tl.overlap_intervals(SpanCategory::Compute, SpanCategory::Collective),
            vec![(10, 20), (40, 60)]
        );
    }

    #[test]
    fn chrome_export_has_required_fields_and_sorted_timestamps() {
        let t = TraceRecorder::new();
        let s = t.begin(SpanCategory::Compute, "fwd \"quoted\"");
        t.instant(SpanCategory::Checkpoint, "snapshot-write");
        t.end(s);
        t.counter("peak-device-bytes", 42);
        let json = chrome_trace(&[t.timeline()]);
        for needle in [
            "\"traceEvents\":[",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"pid\":0",
            "\"cat\":\"compute\"",
            "\"cat\":\"checkpoint\"",
            "\"args\":{\"value\":42}",
            "fwd \\\"quoted\\\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
