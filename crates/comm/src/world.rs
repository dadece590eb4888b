//! The communicator "world": N ranks connected all-to-all.
//!
//! A rank in the paper is one GPU process talking NCCL over NVLink/IB.
//! Here a rank is one OS thread by default. Every rank receives from one
//! inbound pipe per peer — one FIFO per ordered rank pair, owned by the
//! receiving `Fabric` — and sends through a pluggable [`Transport`]:
//! the in-process backend fills the peer's pipe directly, while the
//! process backend (`crate::process`) runs each rank as a separate OS
//! process and writes frames on Unix domain sockets that the peer's
//! reader threads decode into its pipes. Because every rank issues the
//! same sequence of collectives (SPMD), per-pair FIFO ordering plus a
//! sequence-number check is sufficient to match sends to receives on
//! either backend.
//!
//! Failure semantics: every receive is bounded by a configurable timeout and
//! every payload carries a CRC, so a dead peer, a hung peer, or a damaged
//! message surfaces as a typed [`CommError`] on the observing rank instead
//! of a deadlock or an abort. The CRC is computed in the pass that moves
//! the bytes — the sender's as it copies the payload out, the receiver's
//! as it copies it into the destination — and the fabric compares the two
//! (`Fabric::send_raw`/`Fabric::recv_raw`). Faults can be injected
//! deterministically via [`FaultPlan`] to exercise those paths; an
//! injected bit flip lands after the sender's checksum. A closed inbound
//! pipe is the one shutdown signal on both backends: it reads as
//! `PeerLost`, and a rank hung by the fault plan is released once every
//! pipe into it has closed.
//!
//! Execution model (overlap-centric): the pipes, transport, sequence
//! numbers and fault state live in a private `Fabric` that one thread
//! at a time holds. The public [`Communicator`] is a thin handle that queues
//! closures over the fabric in issue order (`Communicator::submit`) and
//! returns [`PendingOp`]s; a per-rank *progress thread* runs queued ops
//! while the caller computes, and a caller that waits on an op nobody has
//! started runs it itself (see `crate::nonblocking`). Whoever holds the
//! fabric runs the queue front to back, so the fabric executes ops in
//! exactly the order the rank issued them — the same order the
//! synchronous engine used — and the SPMD deadlock-freedom and
//! fault-trigger (`the Nth op on rank R`) coordinates are unchanged.
//! Tier moves never touch the fabric: a per-rank *lane thread* runs them
//! in issue order on the rank's modeled host link, ordered against the
//! collectives only where a move seeds or drains one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::nonblocking::{Desk, Lane, OpResult, PendingOp, Queued, Slot};
use crate::stats::{CollectiveKind, TrafficStats};
use crate::transport::{channel_mesh, Pipe, Transport};
use zero_trace::{SpanCategory, TraceRecorder, TRACK_PROGRESS};

/// Modeled two-tier interconnect: fast links within a node (NVLink), a
/// slow shared link between nodes (IB/Ethernet). Nodes are contiguous
/// blocks of `node_size` global ranks, matching
/// [`NodeTopology`](crate::hierarchical::NodeTopology). Costs are charged per message on
/// the sending thread — latency plus logical bytes over bandwidth — so
/// compressed payloads (fewer logical bytes) genuinely serialize faster
/// and ops run by the progress thread can hide the cost. The fabric's one link
/// model; a flat network is `node_size: 1` (only `inter_*` is read).
#[derive(Clone, Copy, Debug)]
pub struct TieredLink {
    /// Ranks per node (node = contiguous block of global ranks).
    pub node_size: usize,
    /// Per-message latency within a node.
    pub intra_latency: Duration,
    /// Intra-node bandwidth, bytes per second.
    pub intra_bytes_per_sec: f64,
    /// Per-message latency across nodes.
    pub inter_latency: Duration,
    /// Inter-node bandwidth, bytes per second.
    pub inter_bytes_per_sec: f64,
}

impl TieredLink {
    /// The modeled cost of sending `logical_bytes` from `src` to `dst`.
    pub fn send_cost(&self, src: usize, dst: usize, logical_bytes: u64) -> Duration {
        let cross = src / self.node_size != dst / self.node_size;
        let (lat, bw) = if cross {
            (self.inter_latency, self.inter_bytes_per_sec)
        } else {
            (self.intra_latency, self.intra_bytes_per_sec)
        };
        lat + Duration::from_secs_f64(logical_bytes as f64 / bw)
    }

    /// Panics, naming the field, on a link that cannot price a message:
    /// no ranks per node, or a bandwidth that is 0 or NaN (∞ is free).
    fn check(&self) {
        assert!(self.node_size >= 1, "TieredLink::node_size must be at least 1");
        let (intra, inter) = (self.intra_bytes_per_sec, self.inter_bytes_per_sec);
        assert!(intra > 0.0, "TieredLink::intra_bytes_per_sec must be positive, got {intra}");
        assert!(inter > 0.0, "TieredLink::inter_bytes_per_sec must be positive, got {inter}");
    }
}

/// Fabric-wide configuration: receive timeout, fault script, and the
/// modeled link.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Upper bound on any single blocking receive.
    /// Normal in-process latency is microseconds; this only fires when a
    /// peer is dead, hung, or schedule-divergent.
    pub recv_timeout: Duration,
    /// Deterministic fault script (empty by default).
    pub faults: FaultPlan,
    /// The modeled interconnect, charged per message on the thread that
    /// runs the op, which for an op issued ahead is the progress thread,
    /// where compute hides it (§7). `None`
    /// (the default, and every test's) makes messages free.
    pub tiered_link: Option<TieredLink>,
}

impl Default for WorldConfig {
    fn default() -> WorldConfig {
        WorldConfig {
            recv_timeout: Duration::from_secs(30),
            faults: FaultPlan::new(),
            tiered_link: None,
        }
    }
}

impl WorldConfig {
    /// Default timeouts with the given fault script.
    pub fn with_faults(faults: FaultPlan) -> WorldConfig {
        WorldConfig { faults, ..WorldConfig::default() }
    }

    /// Default config with a modeled interconnect.
    pub fn with_tiered_link(link: TieredLink) -> WorldConfig {
        WorldConfig { tiered_link: Some(link), ..WorldConfig::default() }
    }
}

/// Builds the channel fabric and hands out one [`Communicator`] per rank.
pub struct World {
    comms: Vec<Option<Communicator>>,
}

impl World {
    /// Creates a world of `n` fully connected ranks with default config.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> World {
        World::with_config(n, WorldConfig::default())
    }

    /// Creates a world of `n` fully connected ranks.
    ///
    /// # Panics
    /// Panics if `n == 0` or `config.tiered_link` cannot price a message.
    pub fn with_config(n: usize, config: WorldConfig) -> World {
        assert!(n > 0, "world size must be positive");
        // One span recorder per rank, all sharing one epoch so per-rank
        // timestamps are comparable in a merged Chrome trace.
        let epoch = Instant::now();
        let comms = channel_mesh(n).into_iter().enumerate().map(|(rank, (link, inbox))| {
            let trace = Arc::new(TraceRecorder::with_epoch(epoch));
            Some(Communicator::spawn(rank, n, Box::new(link), inbox, TrafficStats::new(), trace, &config))
        });
        World { comms: comms.collect() }
    }

    /// Takes rank `r`'s communicator.
    ///
    /// # Panics
    /// Panics if rank `r`'s communicator was already taken. Use
    /// [`World::try_take`] for a non-panicking variant.
    pub fn take(&mut self, rank: usize) -> Communicator {
        self.try_take(rank)
            .unwrap_or_else(|| panic!("communicator for rank {rank} already taken"))
    }

    /// Takes rank `r`'s communicator, or `None` if it was already taken.
    pub fn try_take(&mut self, rank: usize) -> Option<Communicator> {
        self.comms[rank].take()
    }
}

/// One rank's logical endpoint: its inbound pipes, per-pair sequence
/// numbers, CRC checks, fault state, and traffic accounting, sending
/// through a pluggable [`Transport`]. Ring collectives are built on top in
/// `collectives.rs`. Held by one thread at a time — the rank's progress
/// thread, or a caller running its own op — through the rank's `Desk`.
pub(crate) struct Fabric {
    pub(crate) rank: usize,
    pub(crate) world: usize,
    link: Box<dyn Transport>,
    /// `inbox[src]` carries `src`'s messages to this rank; closed when the
    /// fabric is dropped.
    inbox: Vec<Arc<Pipe>>,
    send_seq: Box<[u64]>,
    recv_seq: Box<[u64]>,
    pub(crate) stats: Arc<TrafficStats>,
    pub(crate) trace: Arc<TraceRecorder>,
    recv_timeout: Duration,
    tiered_link: Option<TieredLink>,
    fault: FaultState,
    dead: bool,
    /// Receive buffer of the reduce phase, grown on first use and kept.
    pub(crate) scratch: Vec<f32>,
    /// How long a receive polls before parking, set by whoever takes the
    /// fabric (see `Desk::poll`).
    pub(crate) poll: Duration,
}

/// How long a blocked caller polls (yielding its core) before parking. A
/// peer in the same collective usually sends within microseconds, and
/// parking costs a futex wake plus, on a VM, a vCPU wake on the far side:
/// polling first roughly halves a small gather's latency (`bench_matmul`'s
/// `comm` rows). Over a modeled link no message arrives sooner than the
/// link's own latency, so there a caller parks at once: polling then only
/// takes a core from compute (−6 % on `train.comm`).
const POLL: Duration = Duration::from_micros(100);

impl Fabric {
    /// Registers the start of one communication op of `kind`, applying any
    /// fault the plan scripts at this point in the schedule. Called once
    /// per collective that has peers.
    pub(crate) fn begin_op(&mut self, kind: CollectiveKind) -> Result<(), CommError> {
        if self.dead {
            // An injected fault already killed this rank; every later op
            // fails fast instead of half-participating in collectives.
            return Err(CommError::InjectedCrash { rank: self.rank, op: 0 });
        }
        let (op, fault) = self.fault.begin_op(kind);
        match fault {
            None => Ok(()),
            Some(FaultKind::Crash) => {
                self.dead = true;
                self.trace.instant_on(TRACK_PROGRESS, SpanCategory::Collective, "fault-crash");
                Err(CommError::InjectedCrash { rank: self.rank, op })
            }
            Some(FaultKind::Hang) => {
                self.trace.instant_on(TRACK_PROGRESS, SpanCategory::Collective, "fault-hang");
                // Stall past every peer's receive timeout so they observe
                // `Timeout`, then report this rank dead. The wait is a
                // cancellable deadline, not a sleep: peers time out first
                // (their recv_timeout < 2×ours), and once every pipe into
                // this rank has closed — each peer's fabric or process is
                // gone — nobody can still be waiting on us, so the thread
                // is released instead of held for the rest of the deadline.
                let deadline = Instant::now() + self.recv_timeout * 2;
                let mut peers = self.inbox.iter().enumerate().filter(|&(src, _)| src != self.rank);
                peers.all(|(_, pipe)| pipe.wait_closed(deadline));
                self.dead = true;
                Err(CommError::InjectedHang { rank: self.rank, op })
            }
            Some(FaultKind::CorruptNextSend) => {
                self.trace.instant_on(TRACK_PROGRESS, SpanCategory::Collective, "fault-corrupt");
                self.fault.arm_corruption();
                Ok(())
            }
            Some(FaultKind::Delay(d)) => {
                self.trace.instant_on(TRACK_PROGRESS, SpanCategory::Collective, "fault-delay");
                std::thread::sleep(d);
                Ok(())
            }
        }
    }

    /// Sends `data` to `dst`, attributing `logical_bytes` to `kind`.
    ///
    /// `logical_bytes` is passed explicitly because fp16 payloads travel as
    /// widened f32 in-process but must be *accounted* at 2 bytes/element to
    /// match the paper's arithmetic.
    pub(crate) fn send_raw(
        &mut self,
        dst: usize,
        data: &[f32],
        kind: CollectiveKind,
        logical_bytes: u64,
    ) -> Result<(), CommError> {
        debug_assert!(dst < self.world && dst != self.rank, "bad dst {dst}");
        if let Some(link) = self.tiered_link {
            // The one modeled link cost, paid by the thread running the op
            // so overlap can hide it. Charged on logical bytes: a
            // compressed payload really does clear the slow link sooner.
            std::thread::sleep(link.send_cost(self.rank, dst, logical_bytes));
        }
        let seq = self.send_seq[dst];
        self.send_seq[dst] += 1;
        self.stats.record_send(kind, logical_bytes);
        // The transport checksums, then applies any armed corruption: the
        // damage must be invisible to the sender, like a real network flip.
        let flip = self.fault.take_corruption(data.len());
        self.link.send_msg(dst, seq, data, flip)
    }

    /// Receives the next message from `src` into `out`, verifying schedule
    /// agreement, fit and payload integrity, bounded by the receive timeout.
    pub(crate) fn recv_raw(&mut self, src: usize, out: &mut [f32]) -> Result<(), CommError> {
        debug_assert!(src < self.world && src != self.rank, "bad src {src}");
        let got = self.inbox[src].recv_into(self.rank, src, out, self.recv_timeout, self.poll)?;
        let expect = self.recv_seq[src];
        if got.seq != expect {
            return Err(CommError::OutOfOrder { rank: self.rank, peer: src, got: got.seq, expected: expect });
        }
        if got.len != out.len() {
            return Err(CommError::LengthMismatch { rank: self.rank, peer: src, got: got.len, expected: out.len() });
        }
        if got.actual_crc != got.declared_crc {
            return Err(CommError::Corrupt {
                rank: self.rank,
                peer: src,
                declared_crc: got.declared_crc,
                actual_crc: got.actual_crc,
            });
        }
        self.recv_seq[src] += 1;
        Ok(())
    }
}

impl Drop for Fabric {
    /// Closes every pipe into this rank: peers sending to it observe
    /// `PeerLost`, and a peer hung by the fault plan stops waiting on it.
    fn drop(&mut self) {
        self.inbox.iter().for_each(|pipe| pipe.close());
    }
}

/// How a tier move is ordered against the rank's collectives. Among
/// themselves, tier moves run in issue order: the rank has one host link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierOrder {
    /// A fetch that seeds the next collective the rank starts: that
    /// collective's ring starts once the fetch has finished.
    Seeds,
    /// A spill that drains the collective the rank started last: it starts
    /// once that collective has finished.
    Drains,
    /// A spill that rides no collective: it goes out when it is issued.
    Free,
}

/// One rank's handle: queues collectives on the rank's desk, tier moves on
/// its lane, and runs blocking collectives on the caller's thread. The
/// collectives are its methods in `collectives.rs`; the tier move is here.
///
/// A `Communicator` is owned by exactly one thread (it is `Send` but not
/// `Sync`), matching NCCL's one-communicator-per-device rule. Dropping it
/// closes the desk and the lane: the progress thread finishes the queued
/// ops and drops the fabric endpoints — peers observe the rank's death as
/// `PeerLost` — and the lane thread finishes the queued moves and exits.
pub struct Communicator {
    rank: usize,
    world: usize,
    stats: Arc<TrafficStats>,
    trace: Arc<TraceRecorder>,
    recv_timeout: Duration,
    desk: Arc<Desk>,
    lane: Arc<Lane>,
    /// A fetch the next collective started waits for (`TierOrder::Seeds`).
    seed: Option<u64>,
}

impl Drop for Communicator {
    fn drop(&mut self) {
        self.desk.close();
        self.lane.close();
    }
}

impl Communicator {
    /// Checks the modeled link, builds the rank's [`Fabric`] over `link`
    /// and its inbound pipes, starts its progress and lane threads, and returns the public handle — the one
    /// construction path shared by every backend (`World` for
    /// threads-over-pipes, `crate::process` for processes-over-sockets).
    pub(crate) fn spawn(
        rank: usize,
        world: usize,
        link: Box<dyn Transport>,
        inbox: Vec<Arc<Pipe>>,
        stats: Arc<TrafficStats>,
        trace: Arc<TraceRecorder>,
        config: &WorldConfig,
    ) -> Communicator {
        if let Some(link) = &config.tiered_link {
            link.check();
        }
        let fabric = Fabric {
            rank,
            world,
            link,
            inbox,
            send_seq: vec![0; world].into(),
            recv_seq: vec![0; world].into(),
            stats: stats.clone(),
            trace: trace.clone(),
            recv_timeout: config.recv_timeout,
            tiered_link: config.tiered_link,
            fault: config.faults.for_rank(rank),
            dead: false,
            scratch: Vec::new(),
            poll: Duration::ZERO,
        };
        let poll = if config.tiered_link.is_some() { Duration::ZERO } else { POLL };
        let lane = Lane::new(rank);
        let desk = Desk::new(rank, fabric, poll, lane.clone());
        // Detached on purpose: each thread owns only 'static state and
        // exits once its queue closes and drains; the progress thread drops
        // the fabric.
        let progress = desk.clone();
        std::thread::spawn(move || progress.progress_loop());
        let (moves, watched, spans) = (lane.clone(), desk.clone(), trace.clone());
        std::thread::spawn(move || moves.run(&watched, &spans));
        Communicator { rank, world, stats, trace, recv_timeout: config.recv_timeout, desk, lane, seed: None }
    }

    /// This rank's id in `0..world_size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// This rank's traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// This rank's span recorder. Collective execution and wait spans land
    /// here automatically; engine code adds compute/optimizer/checkpoint
    /// spans on the same recorder so one timeline covers the whole rank.
    pub fn trace(&self) -> Arc<TraceRecorder> {
        self.trace.clone()
    }

    /// The wait budget of an op with `ahead` ops before it: the fabric
    /// bounds every op by its own receive timeouts — at most 2(n−1) ring
    /// receives plus a 2× hang-fault stall — so a result slower than
    /// (2n+6)·recv_timeout per op means the progress engine itself is
    /// broken, not a peer.
    fn budget(&self, ahead: usize) -> Duration {
        let per_op = 2 * self.world + 6;
        self.recv_timeout * (per_op * (ahead + 1).min(64)) as u32
    }

    /// Queues `run` on the rank's desk, attributing its execution to
    /// `kind`, behind the fetch that seeds it if one was issued, and
    /// returns its completion handle. Never blocks.
    pub(crate) fn submit(
        &mut self,
        kind: CollectiveKind,
        run: impl FnOnce(&mut Fabric) -> OpResult + Send + 'static,
    ) -> PendingOp {
        let (slot, seed) = (Slot::default(), self.seed.take().map(|f| (f, self.budget(64))));
        let (id, ahead) = self.desk.submit(kind, Box::new(run), slot.clone(), seed);
        let (queued, budget) = (Queued::Desk { desk: self.desk.clone(), id, kind, slot }, self.budget(ahead));
        self.handle(queued, budget)
    }

    fn handle(&self, queued: Queued, budget: Duration) -> PendingOp {
        PendingOp { queued, budget, stats: self.stats.clone(), trace: self.trace.clone() }
    }

    /// Runs `body` on the caller's thread, after every op already queued
    /// (running those nobody has started), recording its execution and the
    /// caller's blocked time to `kind`: the blocking collectives.
    pub(crate) fn run_now<R>(
        &mut self,
        kind: CollectiveKind,
        body: impl FnOnce(&mut Fabric) -> Result<R, CommError>,
    ) -> Result<R, CommError> {
        let span = self.trace.begin(SpanCategory::Wait, kind.name());
        let t0 = Instant::now();
        let res = self.desk.run_now(kind, self.budget(64), body);
        self.stats.record_wait(kind, t0.elapsed());
        self.trace.end(span);
        res
    }

    /// A handle that already holds `res`, computed on the caller's thread:
    /// no job is queued and its wait records nothing. It is the collective
    /// started next, so a fetch issued to seed it seeds nothing now.
    pub(crate) fn ready(&mut self, res: OpResult) -> PendingOp {
        self.seed = None;
        self.handle(Queued::Ready(res), self.recv_timeout)
    }

    /// Starts a modeled host↔device memory-tier transfer of `bytes`
    /// (ZeRO-Offload traffic) on the rank's host-link lane. No fabric
    /// message moves: the lane thread spends `delay` on it (the caller
    /// prices it from its `TierConfig`) and records a byte-tagged `Tier`
    /// span on the progress track. Moves run in issue order, beside the
    /// collectives, which meet them only as `order` says: a seeding fetch
    /// holds back the next collective's ring, a draining spill waits for
    /// the last collective to finish. Waiting the handle returns an empty
    /// payload.
    pub fn start_tier_move(&mut self, label: &'static str, bytes: u64, delay: Duration, order: TierOrder) -> PendingOp {
        let (last, ahead) = self.desk.backlog();
        let drains = last.filter(|_| order == TierOrder::Drains);
        let id = self.lane.submit(label, bytes, delay, drains, self.budget(ahead));
        if order == TierOrder::Seeds {
            self.seed = Some(id);
        }
        self.handle(Queued::Lane { lane: self.lane.clone(), id }, self.budget(64))
    }
}

/// A rank's terminal failure, as reported by [`try_launch`]: the rank index
/// plus the panic payload or communication error that killed it.
#[derive(Clone, Debug, PartialEq)]
pub struct RankFailure {
    /// Which rank failed.
    pub rank: usize,
    /// The typed communication error, when the rank died of one.
    pub comm: Option<CommError>,
    /// Human-readable failure description (panic payload or error text).
    pub message: String,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} failed: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankFailure {}

fn describe_panic(rank: usize, payload: Box<dyn std::any::Any + Send>) -> RankFailure {
    // Panic payloads are almost always &str or String; a rank that dies of
    // a comm error may also `panic_any(CommError)` — preserve the type.
    let payload = match payload.downcast::<CommError>() {
        Ok(e) => {
            return RankFailure { rank, comm: Some(*e.clone()), message: e.to_string() }
        }
        Err(p) => p,
    };
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    RankFailure { rank, comm: None, message }
}

/// Runs `f` on `n` ranks (one thread each) and returns their per-rank
/// outcomes in rank order: `Ok(result)` for ranks that returned, `Err` with
/// the rank index and panic payload for ranks that panicked. Never panics
/// on rank failure itself.
pub fn try_launch<F, R>(n: usize, f: F) -> Vec<Result<R, RankFailure>>
where
    F: Fn(Communicator) -> R + Send + Sync,
    R: Send,
{
    try_launch_with_config(n, WorldConfig::default(), f)
}

/// [`try_launch`] with an explicit [`WorldConfig`] (timeouts, fault plan).
pub fn try_launch_with_config<F, R>(
    n: usize,
    config: WorldConfig,
    f: F,
) -> Vec<Result<R, RankFailure>>
where
    F: Fn(Communicator) -> R + Send + Sync,
    R: Send,
{
    let mut world = World::with_config(n, config);
    let comms: Vec<Communicator> = (0..n).map(|r| world.take(r)).collect();
    let mut results: Vec<Option<Result<R, RankFailure>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = &f;
                s.spawn(move || f(c))
            })
            .collect();
        for (rank, (slot, h)) in results.iter_mut().zip(handles).enumerate() {
            *slot = Some(h.join().map_err(|payload| describe_panic(rank, payload)));
        }
    });
    results.into_iter().map(|r| r.unwrap()).collect()
}

/// Runs `f` on `n` ranks (one thread each) and returns their results in
/// rank order.
///
/// # Panics
/// Panics if any rank panics, naming the rank and its panic payload.
pub fn launch<F, R>(n: usize, f: F) -> Vec<R>
where
    F: Fn(Communicator) -> R + Send + Sync,
    R: Send,
{
    launch_with_config(n, WorldConfig::default(), f)
}

/// [`launch`] with an explicit [`WorldConfig`] (timeouts, fault plan).
///
/// # Panics
/// Panics if any rank panics, naming the rank and its panic payload.
pub fn launch_with_config<F, R>(n: usize, config: WorldConfig, f: F) -> Vec<R>
where
    F: Fn(Communicator) -> R + Send + Sync,
    R: Send,
{
    try_launch_with_config(n, config, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("rank panicked: {e}")))
        .collect()
}

/// Like [`launch`] but also returns each rank's traffic snapshot, taken
/// once the rank's closure — and with it the rank's communicator — is done.
pub fn launch_with_stats<F, R>(n: usize, f: F) -> (Vec<R>, Vec<crate::stats::TrafficSnapshot>)
where
    F: Fn(Communicator) -> R + Send + Sync,
    R: Send,
{
    launch(n, |c| {
        let stats = c.stats.clone();
        let result = f(c);
        (result, stats.snapshot())
    })
    .into_iter()
    .unzip()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Precision;

    /// A world all-gather between two ranks, each contributing `mine`.
    fn gather_pair(c: &mut Communicator, mine: &[f32]) -> Result<Vec<f32>, CommError> {
        let mut out = vec![0.0; 2 * mine.len()];
        c.all_gather(mine, &mut out, Precision::Fp32).map(|()| out)
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_world_rejected() {
        let _ = World::new(0);
    }

    /// A flat link with one field changed, in a config built from the
    /// struct literal (not `with_tiered_link`): the check must sit on
    /// every path to a fabric.
    fn linked(change: impl FnOnce(&mut TieredLink)) -> WorldConfig {
        let mut link = TieredLink {
            node_size: 1,
            intra_latency: Duration::ZERO,
            intra_bytes_per_sec: 1e9,
            inter_latency: Duration::ZERO,
            inter_bytes_per_sec: 1e9,
        };
        change(&mut link);
        WorldConfig { tiered_link: Some(link), ..WorldConfig::default() }
    }

    #[test]
    #[should_panic(expected = "TieredLink::node_size must be at least 1")]
    fn a_link_with_empty_nodes_is_refused() {
        World::with_config(2, linked(|l| l.node_size = 0));
    }

    #[test]
    #[should_panic(expected = "TieredLink::intra_bytes_per_sec must be positive, got 0")]
    fn a_link_with_no_intra_bandwidth_is_refused() {
        World::with_config(2, linked(|l| l.intra_bytes_per_sec = 0.0));
    }

    #[test]
    #[should_panic(expected = "TieredLink::inter_bytes_per_sec must be positive, got NaN")]
    fn a_link_with_nan_inter_bandwidth_is_refused() {
        World::with_config(2, linked(|l| l.inter_bytes_per_sec = f64::NAN));
    }

    #[test]
    fn take_twice_names_the_rank() {
        let mut world = World::new(2);
        let _c = world.take(1);
        assert!(world.try_take(1).is_none(), "second take must not succeed");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = world.take(1);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("rank 1"), "panic must name the rank: {msg}");
        // Rank 0 is still available.
        assert!(world.try_take(0).is_some());
    }

    #[test]
    fn dead_peer_surfaces_as_peer_lost() {
        let config = WorldConfig {
            recv_timeout: Duration::from_secs(5),
            ..WorldConfig::default()
        };
        let out = try_launch_with_config(2, config, |mut c| {
            if c.rank() == 0 {
                // Exit immediately, dropping all endpoints.
                Ok(())
            } else {
                gather_pair(&mut c, &[0.0; 4]).map(drop)
            }
        });
        assert_eq!(out[0], Ok(Ok(())));
        assert_eq!(
            out[1].as_ref().unwrap(),
            &Err(CommError::PeerLost { rank: 1, peer: 0 })
        );
    }

    #[test]
    fn silent_peer_surfaces_as_timeout() {
        let timeout = Duration::from_millis(100);
        let config = WorldConfig { recv_timeout: timeout, ..WorldConfig::default() };
        let out = try_launch_with_config(2, config, move |mut c| {
            if c.rank() == 0 {
                // Stay alive (endpoint open) but never send, longer than
                // the peer's timeout.
                std::thread::sleep(timeout * 3);
                Ok(())
            } else {
                gather_pair(&mut c, &[0.0; 4]).map(drop)
            }
        });
        assert_eq!(
            out[1].as_ref().unwrap(),
            &Err(CommError::Timeout { rank: 1, peer: 0, waited: timeout })
        );
    }

    #[test]
    fn corrupted_payload_surfaces_as_corrupt() {
        // 8 floats take the CRC's table fold; 1 024 (a shard's bulk) take
        // its widest fold, so a flip there must be caught just the same.
        for len in [8, 1024] {
            let config = WorldConfig::with_faults(FaultPlan::seeded(3).with_corruption(0, 0));
            // Rank 0's one send is corrupted; its own receive is clean, so
            // the sender is oblivious and its all-gather succeeds.
            let shard: Vec<f32> = (0..len).map(|i| i as f32 * 0.25).collect();
            let out = try_launch_with_config(2, config, move |mut c| gather_pair(&mut c, &shard));
            assert!(out[0].as_ref().unwrap().is_ok(), "sender must not notice ({len} floats)");
            match out[1].as_ref().unwrap() {
                Err(CommError::Corrupt { rank: 1, peer: 0, .. }) => {}
                other => panic!("expected Corrupt over {len} floats, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_crash_kills_only_the_victim() {
        let config = WorldConfig {
            recv_timeout: Duration::from_secs(5),
            faults: FaultPlan::new().with_crash(0, 0),
            ..WorldConfig::default()
        };
        let out =
            try_launch_with_config(2, config, |mut c| gather_pair(&mut c, &[1.0; 4]).map(drop));
        assert_eq!(
            out[0].as_ref().unwrap(),
            &Err(CommError::InjectedCrash { rank: 0, op: 0 })
        );
        // Rank 1 observes the loss as a typed error, not a deadlock.
        assert_eq!(
            out[1].as_ref().unwrap(),
            &Err(CommError::PeerLost { rank: 1, peer: 0 })
        );
    }

    /// What each rank of a 3-rank hang test runs: rank 0 hangs in its
    /// first op and reports the error and how long it took, rank 1 leaves
    /// at once and rank 2 after `linger`. Shared by both backends' tests.
    pub(crate) fn hang_body(mut c: Communicator, linger: Duration) -> Option<(CommError, Duration)> {
        let t0 = Instant::now();
        match c.rank() {
            0 => Some((c.all_gather(&[0.0; 2], &mut [0.0; 6], Precision::Fp32).unwrap_err(), t0.elapsed())),
            1 => None,
            _ => {
                std::thread::sleep(linger);
                None
            }
        }
    }

    fn hang_in_world(recv_timeout: Duration, linger: Duration) -> (CommError, Duration) {
        let config = WorldConfig { recv_timeout, faults: FaultPlan::new().with_hang(0, 0), ..WorldConfig::default() };
        launch_with_config(3, config, |c| hang_body(c, linger)).swap_remove(0).expect("rank 0 reports")
    }

    #[test]
    fn a_hung_rank_is_released_once_every_peer_has_left() {
        let (err, took) = hang_in_world(Duration::from_secs(5), Duration::ZERO);
        assert_eq!(err, CommError::InjectedHang { rank: 0, op: 0 });
        assert!(took < Duration::from_secs(2), "released after {took:?}; the deadline is 10 s");
    }

    #[test]
    fn a_hung_rank_waits_out_its_deadline_while_a_peer_lives() {
        let (err, took) = hang_in_world(Duration::from_millis(100), Duration::from_secs(2));
        assert_eq!(err, CommError::InjectedHang { rank: 0, op: 0 });
        let deadline = Duration::from_millis(200);
        assert!(took >= deadline && took < Duration::from_millis(1500), "took {took:?}; the deadline is 200 ms");
    }

    #[test]
    fn try_launch_reports_rank_and_payload() {
        let out = try_launch(2, |c| {
            if c.rank() == 1 {
                panic!("rank 1 exploding on purpose");
            }
            c.rank()
        });
        assert_eq!(out[0], Ok(0));
        let failure = out[1].as_ref().unwrap_err();
        assert_eq!(failure.rank, 1);
        assert!(failure.message.contains("exploding on purpose"));
    }

    #[test]
    fn launch_panic_names_the_rank() {
        let err = std::panic::catch_unwind(|| {
            launch(3, |c| {
                if c.rank() == 2 {
                    panic!("boom at rank two");
                }
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("rank 2"), "panic must name the rank: {msg}");
        assert!(msg.contains("boom at rank two"), "panic must carry payload: {msg}");
    }

    #[test]
    fn delay_fault_is_transparent() {
        let config = WorldConfig::with_faults(
            FaultPlan::new().with_delay(0, 0, Duration::from_millis(20)),
        );
        let out = launch_with_config(2, config, |mut c| {
            let mine = [c.rank() as f32 + 7.0; 2];
            gather_pair(&mut c, &mine).unwrap()
        });
        assert_eq!(out, vec![vec![7.0, 7.0, 8.0, 8.0]; 2]);
    }
}
