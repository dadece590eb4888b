//! Discrete-event simulation of one training step's backward pass with
//! bucketed gradient reduction.
//!
//! §5.2: "we bucketize all the gradients … and perform reduction on the
//! entire bucket at once … to … overlap computation and communication."
//! This module simulates that pipeline explicitly: backward compute
//! produces per-layer gradients on a timeline; a single network resource
//! serves reduction jobs FIFO; the step ends when both the compute chain
//! and the reduction queue drain. Comparing the overlapped schedule with
//! a serial one (all communication after all compute — the unbucketed
//! strawman) quantifies how much of the §7 volume is actually *exposed*,
//! which is what the `PerfModel` overlap constants assert.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::Serialize;

/// Input to the step simulation.
#[derive(Clone, Copy, Debug)]
pub struct DesConfig {
    /// Number of transformer layers (gradient producers), backward order.
    pub layers: usize,
    /// Backward compute time per layer, seconds.
    pub layer_compute: f64,
    /// Gradient bytes produced per layer.
    pub layer_grad_bytes: f64,
    /// Bucket capacity in bytes (CB): reductions fire when this much
    /// gradient data has accumulated.
    pub bucket_bytes: f64,
    /// Network bandwidth available to this rank, bytes/s.
    pub bandwidth: f64,
    /// Fixed per-collective latency, seconds (ring setup cost).
    pub latency: f64,
}

/// Result of a simulated step.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct DesResult {
    /// Time at which backward compute finished.
    pub compute_done: f64,
    /// Time at which the last reduction finished (= step end).
    pub total: f64,
    /// Communication time not hidden behind compute.
    pub exposed_comm: f64,
    /// Number of reduction collectives fired.
    pub collectives: usize,
    /// Largest queue depth observed at the network resource.
    pub max_queue: usize,
}

#[derive(Debug, PartialEq)]
struct Event {
    time: f64,
    kind: EventKind,
}

#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    /// Layer `i` (in backward order) finished computing its gradients.
    LayerDone(usize),
    /// The network finished the job at the queue head.
    NetDone,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on time (BinaryHeap is a max-heap, so reverse).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| match (&self.kind, &other.kind) {
                // Deterministic tie-break: network completions first.
                (EventKind::NetDone, EventKind::LayerDone(_)) => Ordering::Greater,
                (EventKind::LayerDone(_), EventKind::NetDone) => Ordering::Less,
                _ => Ordering::Equal,
            })
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates one backward pass with bucketed, overlapped reduction.
///
/// # Panics
/// Panics on non-positive bandwidth or zero layers.
pub fn simulate_overlapped(cfg: &DesConfig) -> DesResult {
    assert!(cfg.bandwidth > 0.0, "bandwidth must be positive");
    assert!(cfg.layers > 0, "need at least one layer");
    let mut events = BinaryHeap::new();
    // Backward compute is a serial chain: layer i completes at (i+1)·t.
    for i in 0..cfg.layers {
        events.push(Event {
            time: (i + 1) as f64 * cfg.layer_compute,
            kind: EventKind::LayerDone(i),
        });
    }
    let compute_done = cfg.layers as f64 * cfg.layer_compute;

    let mut pending_bytes = 0.0; // accumulating bucket
    let mut queue: Vec<f64> = Vec::new(); // queued reduction job sizes
    let mut net_busy_until: Option<f64> = None;
    let mut collectives = 0usize;
    let mut max_queue = 0usize;
    let mut last_net_done = 0.0_f64;
    let mut busy_time = 0.0_f64;

    let start_net = |queue: &mut Vec<f64>,
                         events: &mut BinaryHeap<Event>,
                         net_busy_until: &mut Option<f64>,
                         busy_time: &mut f64,
                         now: f64,
                         cfg: &DesConfig| {
        if net_busy_until.is_none() {
            if let Some(bytes) = queue.first().copied() {
                queue.remove(0);
                let dur = cfg.latency + bytes / cfg.bandwidth;
                *busy_time += dur;
                *net_busy_until = Some(now + dur);
                events.push(Event {
                    time: now + dur,
                    kind: EventKind::NetDone,
                });
            }
        }
    };

    let mut produced_layers = 0usize;
    while let Some(Event { time, kind }) = events.pop() {
        match kind {
            EventKind::LayerDone(_) => {
                produced_layers += 1;
                pending_bytes += cfg.layer_grad_bytes;
                let last = produced_layers == cfg.layers;
                if pending_bytes >= cfg.bucket_bytes || last {
                    queue.push(pending_bytes);
                    collectives += 1;
                    pending_bytes = 0.0;
                    max_queue = max_queue.max(queue.len() + usize::from(net_busy_until.is_some()));
                }
                start_net(&mut queue, &mut events, &mut net_busy_until, &mut busy_time, time, cfg);
            }
            EventKind::NetDone => {
                last_net_done = time;
                net_busy_until = None;
                start_net(&mut queue, &mut events, &mut net_busy_until, &mut busy_time, time, cfg);
            }
        }
    }
    let total = compute_done.max(last_net_done);
    DesResult {
        compute_done,
        total,
        exposed_comm: total - compute_done,
        collectives,
        max_queue,
    }
}

/// The serial strawman: all gradients reduced in one collective after the
/// whole backward pass (no overlap).
pub fn simulate_serial(cfg: &DesConfig) -> DesResult {
    let compute_done = cfg.layers as f64 * cfg.layer_compute;
    let bytes = cfg.layers as f64 * cfg.layer_grad_bytes;
    let comm = cfg.latency + bytes / cfg.bandwidth;
    DesResult {
        compute_done,
        total: compute_done + comm,
        exposed_comm: comm,
        collectives: 1,
        max_queue: 1,
    }
}

/// The fraction of raw communication time hidden by overlap:
/// `1 − exposed_overlapped / exposed_serial`.
pub fn overlap_fraction(cfg: &DesConfig) -> f64 {
    let o = simulate_overlapped(cfg);
    let s = simulate_serial(cfg);
    if s.exposed_comm <= 0.0 {
        return 0.0;
    }
    (1.0 - o.exposed_comm / s.exposed_comm).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DesConfig {
        DesConfig {
            layers: 10,
            layer_compute: 1.0,
            layer_grad_bytes: 100.0,
            bucket_bytes: 100.0,
            bandwidth: 200.0, // each layer's reduction takes 0.5 s
            latency: 0.0,
        }
    }

    #[test]
    fn fully_hidden_when_network_is_fast() {
        // Comm per layer (0.5 s) < compute per layer (1 s): everything but
        // the last bucket hides behind compute.
        let r = simulate_overlapped(&base());
        assert_eq!(r.compute_done, 10.0);
        assert!((r.total - 10.5).abs() < 1e-9, "only the tail exposed: {r:?}");
        assert_eq!(r.collectives, 10);
    }

    #[test]
    fn serial_exposes_everything() {
        let r = simulate_serial(&base());
        assert_eq!(r.compute_done, 10.0);
        assert!((r.exposed_comm - 5.0).abs() < 1e-9);
        assert!((r.total - 15.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_never_loses_to_serial() {
        for bw in [10.0, 50.0, 200.0, 1e4] {
            for bucket in [50.0, 100.0, 500.0, 1e4] {
                let cfg = DesConfig {
                    bandwidth: bw,
                    bucket_bytes: bucket,
                    ..base()
                };
                let o = simulate_overlapped(&cfg);
                let s = simulate_serial(&cfg);
                assert!(
                    o.total <= s.total + 1e-9,
                    "bw={bw} bucket={bucket}: {o:?} vs {s:?}"
                );
            }
        }
    }

    #[test]
    fn slow_network_becomes_the_bottleneck() {
        let cfg = DesConfig {
            bandwidth: 50.0, // 2 s per layer reduction vs 1 s compute
            ..base()
        };
        let r = simulate_overlapped(&cfg);
        // Network total work = 10·2 s; it can start at t=1 at the earliest.
        assert!((r.total - 21.0).abs() < 1e-9, "{r:?}");
        assert!(r.exposed_comm > 10.0);
    }

    #[test]
    fn latency_penalizes_small_buckets() {
        // In the latency-dominated regime (§6.2: "a large all-reduce
        // operation achieves much higher bandwidth than a smaller one"),
        // bigger buckets win by amortizing the per-collective cost.
        let small = DesConfig {
            latency: 2.0,
            bandwidth: 1e6,
            bucket_bytes: 100.0,
            ..base()
        };
        let big = DesConfig {
            bucket_bytes: 500.0,
            ..small
        };
        let rs = simulate_overlapped(&small);
        let rb = simulate_overlapped(&big);
        assert!(rs.collectives > rb.collectives);
        assert!(
            rb.total < rs.total,
            "bigger buckets amortize latency: {rb:?} vs {rs:?}"
        );
        // When bandwidth (not latency) dominates and hides behind compute,
        // smaller buckets can start earlier and win instead — the tension
        // CB balances.
        let small_fast = DesConfig { latency: 0.5, ..base() };
        let big_fast = DesConfig { latency: 0.5, bucket_bytes: 500.0, ..base() };
        assert!(simulate_overlapped(&small_fast).total <= simulate_overlapped(&big_fast).total);
    }

    #[test]
    fn overlap_fraction_in_unit_range_and_high_for_fast_nets() {
        let f = overlap_fraction(&base());
        assert!((0.0..=1.0).contains(&f));
        assert!(f > 0.8, "fast network should hide most traffic, got {f}");
    }
}
