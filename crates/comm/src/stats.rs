//! Per-rank communication traffic accounting.
//!
//! §7 of the paper argues entirely in terms of *bytes sent per rank per
//! training step* (all-reduce = 2Ψ, ZeRO stage 2 = 2Ψ, stage 3 = 3Ψ).
//! Every collective in this crate records its send volume here so tests and
//! the `comm_volume` experiment can verify those claims empirically rather
//! than by assertion.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The collective operation categories tracked separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CollectiveKind {
    /// Ring all-reduce (reduce-scatter + all-gather fused).
    AllReduce = 0,
    /// Ring reduce-scatter.
    ReduceScatter = 1,
    /// Ring all-gather.
    AllGather = 2,
}

impl CollectiveKind {
    /// Stable lowercase name, used as the span name of every collective
    /// recorded in a rank's trace (and in human-readable reports).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "all-reduce",
            CollectiveKind::ReduceScatter => "reduce-scatter",
            CollectiveKind::AllGather => "all-gather",
        }
    }
}

/// Number of tracked categories.
pub const KIND_COUNT: usize = 3;

/// All tracked categories, in discriminant order.
pub const ALL_KINDS: [CollectiveKind; KIND_COUNT] = [
    CollectiveKind::AllReduce,
    CollectiveKind::ReduceScatter,
    CollectiveKind::AllGather,
];

/// Thread-safe per-rank traffic counters.
///
/// Shared between the rank's `Communicator` handle (caller-side writer),
/// whichever thread holds its fabric (fabric-side writer), and the launching code
/// (reader, usable while the ranks run and after they join). All counters
/// are relaxed atomics: each is an independent monotonic sum, so no
/// ordering between counters is ever relied on.
#[derive(Debug, Default)]
pub struct TrafficStats {
    bytes_sent: [AtomicU64; KIND_COUNT],
    messages_sent: [AtomicU64; KIND_COUNT],
    /// Nanoseconds the *caller* spent blocked in `PendingOp::wait` per
    /// kind. Under full overlap this approaches zero while `exec_nanos`
    /// stays constant — the gap is exactly the hidden communication.
    wait_nanos: [AtomicU64; KIND_COUNT],
    /// Nanoseconds spent *executing* ops per kind (in-flight time), on the
    /// progress thread or a helping caller, whether or not anyone was
    /// blocked on them.
    exec_nanos: [AtomicU64; KIND_COUNT],
}

impl TrafficStats {
    /// Creates zeroed counters behind an `Arc`.
    pub fn new() -> Arc<TrafficStats> {
        Arc::new(TrafficStats::default())
    }

    /// Records one message of `bytes` payload under `kind`.
    pub fn record_send(&self, kind: CollectiveKind, bytes: u64) {
        self.bytes_sent[kind as usize].fetch_add(bytes, Ordering::Relaxed);
        self.messages_sent[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records caller-side blocked time in `PendingOp::wait` under `kind`.
    pub fn record_wait(&self, kind: CollectiveKind, waited: Duration) {
        self.wait_nanos[kind as usize]
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records progress-thread execution (in-flight) time under `kind`.
    pub fn record_exec(&self, kind: CollectiveKind, ran: Duration) {
        self.exec_nanos[kind as usize]
            .fetch_add(ran.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Bytes sent under one category.
    pub fn bytes(&self, kind: CollectiveKind) -> u64 {
        self.bytes_sent[kind as usize].load(Ordering::Relaxed)
    }

    /// Messages sent under one category.
    pub fn messages(&self, kind: CollectiveKind) -> u64 {
        self.messages_sent[kind as usize].load(Ordering::Relaxed)
    }

    /// Total bytes sent across all categories.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for i in 0..KIND_COUNT {
            self.bytes_sent[i].store(0, Ordering::Relaxed);
            self.messages_sent[i].store(0, Ordering::Relaxed);
            self.wait_nanos[i].store(0, Ordering::Relaxed);
            self.exec_nanos[i].store(0, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the timing counters. Kept separate from
    /// [`TrafficStats::snapshot`] so volume snapshots stay exactly
    /// comparable across runs (timing is nondeterministic; bytes are not).
    pub fn timing(&self) -> TimingSnapshot {
        let mut wait_nanos = [0u64; KIND_COUNT];
        let mut exec_nanos = [0u64; KIND_COUNT];
        for i in 0..KIND_COUNT {
            wait_nanos[i] = self.wait_nanos[i].load(Ordering::Relaxed);
            exec_nanos[i] = self.exec_nanos[i].load(Ordering::Relaxed);
        }
        TimingSnapshot { wait_nanos, exec_nanos }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let mut bytes = [0u64; KIND_COUNT];
        let mut messages = [0u64; KIND_COUNT];
        for i in 0..KIND_COUNT {
            bytes[i] = self.bytes_sent[i].load(Ordering::Relaxed);
            messages[i] = self.messages_sent[i].load(Ordering::Relaxed);
        }
        TrafficSnapshot { bytes, messages }
    }
}

/// An immutable copy of a rank's traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    bytes: [u64; KIND_COUNT],
    messages: [u64; KIND_COUNT],
}

impl TrafficSnapshot {
    /// Bytes sent under one category.
    pub fn bytes(&self, kind: CollectiveKind) -> u64 {
        self.bytes[kind as usize]
    }

    /// Messages sent under one category.
    pub fn messages(&self, kind: CollectiveKind) -> u64 {
        self.messages[kind as usize]
    }

    /// Total bytes across all categories.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Per-kind `(kind, bytes, messages)` rows in discriminant order — the
    /// shape trace-conformance checks and benchmark emitters consume when
    /// comparing a whole snapshot against an analytic plan.
    pub fn per_kind(&self) -> [(CollectiveKind, u64, u64); KIND_COUNT] {
        let mut out = [(CollectiveKind::AllReduce, 0, 0); KIND_COUNT];
        for (i, k) in ALL_KINDS.iter().enumerate() {
            out[i] = (*k, self.bytes[i], self.messages[i]);
        }
        out
    }

    /// Difference `self − earlier`, counter-wise (for per-step deltas).
    pub fn delta_since(&self, earlier: &TrafficSnapshot) -> TrafficSnapshot {
        let mut bytes = [0u64; KIND_COUNT];
        let mut messages = [0u64; KIND_COUNT];
        for i in 0..KIND_COUNT {
            bytes[i] = self.bytes[i] - earlier.bytes[i];
            messages[i] = self.messages[i] - earlier.messages[i];
        }
        TrafficSnapshot { bytes, messages }
    }
}

/// An immutable copy of a rank's per-kind timing counters: how long the
/// caller was *blocked* on each collective kind (`wait`) vs. how long the
/// fabric spent *executing* it (`exec`). `exec − wait` per kind is the
/// communication time hidden behind computation by overlap.
///
/// Deliberately not part of [`TrafficSnapshot`]: timing is wall-clock and
/// nondeterministic, while byte/message counts are exact and compared with
/// `==` against analytic plans.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimingSnapshot {
    wait_nanos: [u64; KIND_COUNT],
    exec_nanos: [u64; KIND_COUNT],
}

impl TimingSnapshot {
    /// Nanoseconds blocked in `wait()` under one kind.
    pub fn wait_nanos(&self, kind: CollectiveKind) -> u64 {
        self.wait_nanos[kind as usize]
    }

    /// Nanoseconds of progress-thread execution under one kind.
    pub fn exec_nanos(&self, kind: CollectiveKind) -> u64 {
        self.exec_nanos[kind as usize]
    }

    /// Total blocked nanoseconds across all kinds.
    pub fn total_wait_nanos(&self) -> u64 {
        self.wait_nanos.iter().sum()
    }

    /// Total execution nanoseconds across all kinds.
    pub fn total_exec_nanos(&self) -> u64 {
        self.exec_nanos.iter().sum()
    }

    /// Difference `self − earlier`, counter-wise (for per-step deltas).
    pub fn delta_since(&self, earlier: &TimingSnapshot) -> TimingSnapshot {
        let mut wait_nanos = [0u64; KIND_COUNT];
        let mut exec_nanos = [0u64; KIND_COUNT];
        for i in 0..KIND_COUNT {
            wait_nanos[i] = self.wait_nanos[i] - earlier.wait_nanos[i];
            exec_nanos[i] = self.exec_nanos[i] - earlier.exec_nanos[i];
        }
        TimingSnapshot { wait_nanos, exec_nanos }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sums() {
        let s = TrafficStats::new();
        s.record_send(CollectiveKind::AllReduce, 100);
        s.record_send(CollectiveKind::AllReduce, 50);
        s.record_send(CollectiveKind::ReduceScatter, 8);
        assert_eq!(s.bytes(CollectiveKind::AllReduce), 150);
        assert_eq!(s.messages(CollectiveKind::AllReduce), 2);
        assert_eq!(s.total_bytes(), 158);
    }

    #[test]
    fn snapshot_delta() {
        let s = TrafficStats::new();
        s.record_send(CollectiveKind::AllGather, 10);
        let a = s.snapshot();
        s.record_send(CollectiveKind::AllGather, 32);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.bytes(CollectiveKind::AllGather), 32);
        assert_eq!(d.messages(CollectiveKind::AllGather), 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = TrafficStats::new();
        s.record_send(CollectiveKind::AllGather, 77);
        s.record_wait(CollectiveKind::AllGather, Duration::from_nanos(5));
        s.record_exec(CollectiveKind::AllGather, Duration::from_nanos(9));
        s.reset();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.messages(CollectiveKind::AllGather), 0);
        assert_eq!(s.timing().total_wait_nanos(), 0);
        assert_eq!(s.timing().total_exec_nanos(), 0);
    }

    #[test]
    fn timing_accumulates_per_kind() {
        let s = TrafficStats::new();
        s.record_wait(CollectiveKind::ReduceScatter, Duration::from_nanos(100));
        s.record_wait(CollectiveKind::ReduceScatter, Duration::from_nanos(50));
        s.record_exec(CollectiveKind::ReduceScatter, Duration::from_nanos(400));
        let t = s.timing();
        assert_eq!(t.wait_nanos(CollectiveKind::ReduceScatter), 150);
        assert_eq!(t.exec_nanos(CollectiveKind::ReduceScatter), 400);
        assert_eq!(t.wait_nanos(CollectiveKind::AllGather), 0);
        assert_eq!(t.total_exec_nanos(), 400);
        let later = {
            s.record_exec(CollectiveKind::ReduceScatter, Duration::from_nanos(60));
            s.timing()
        };
        assert_eq!(later.delta_since(&t).exec_nanos(CollectiveKind::ReduceScatter), 60);
    }

    #[test]
    fn concurrent_updates_from_two_threads_sum_exactly() {
        // The progress thread and the caller update the same counters
        // concurrently; atomics must lose nothing.
        let s = TrafficStats::new();
        let s2 = s.clone();
        let writer = std::thread::spawn(move || {
            for _ in 0..10_000 {
                s2.record_send(CollectiveKind::AllGather, 3);
                s2.record_exec(CollectiveKind::AllGather, Duration::from_nanos(2));
            }
        });
        for _ in 0..10_000 {
            s.record_send(CollectiveKind::AllGather, 5);
            s.record_wait(CollectiveKind::AllGather, Duration::from_nanos(7));
        }
        writer.join().unwrap();
        assert_eq!(s.bytes(CollectiveKind::AllGather), 10_000 * 3 + 10_000 * 5);
        assert_eq!(s.messages(CollectiveKind::AllGather), 20_000);
        assert_eq!(s.timing().exec_nanos(CollectiveKind::AllGather), 20_000);
        assert_eq!(s.timing().wait_nanos(CollectiveKind::AllGather), 70_000);
    }
}
