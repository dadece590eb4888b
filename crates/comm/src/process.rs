//! Processes-over-sockets transport: the "real cluster" backend.
//!
//! Where [`crate::world::World`] hosts every rank as a thread inside one
//! process, this backend gives each rank its own OS process and moves
//! payloads over Unix domain sockets using the length-prefixed, CRC-framed
//! protocol of [`crate::wire`]. A rank here can genuinely die — `kill -9`
//! severs its sockets mid-frame — so supervisor recovery is exercised
//! against real process death rather than a cooperative simulation.
//!
//! Hardening, in the shape a production fabric needs:
//!
//! - **Mesh handshake with capped exponential backoff.** Rank `r` binds
//!   `rank-r.sock` in the shared fabric directory, dials every lower rank
//!   (retrying while those peers are still being spawned), then accepts
//!   from every higher rank. Both directions exchange `Hello` frames
//!   carrying a per-run token, so a stale process left over from a
//!   previous incarnation of the job can never splice into the mesh.
//! - **Deadline-bounded reads** mapped onto the same typed [`CommError`]s
//!   the in-process backend returns: a missing message is
//!   [`CommError::Timeout`], a severed peer is [`CommError::PeerLost`].
//! - **Heartbeat liveness.** Every link is beaten at `heartbeat_interval`
//!   by a thread independent of the progress thread; a peer silent for
//!   `liveness_timeout` is declared lost without waiting out the full
//!   `recv_timeout`. A *hung* peer keeps heartbeating, so hangs still
//!   surface as `Timeout` — fault semantics stay backend-identical.
//! - **One receive path, one shutdown signal.** Each peer's reader thread
//!   decodes its frames straight into an inbound `Pipe` that the rank's
//!   fabric owns, as on the in-process backend, and closes it when the
//!   peer is gone or silent. A receive is the in-process one, and a rank
//!   hung by the fault plan is released once every peer's pipe has
//!   closed, as in-process.
//! - **No allocation per message.** The sender encodes each frame into
//!   one reused buffer, and the reader decodes a payload straight into
//!   the pipe's recycled message buffer.
//! - **Orphan reaping.** [`RankProcs`] owns the spawned children and
//!   kills + reaps every survivor on drop, so no run leaks processes.
//!
//! Traffic accounting note: heartbeat frames are transport chatter, not
//! collective payload, and are deliberately *not* recorded in
//! [`TrafficStats`] — measured per-kind volumes therefore match the
//! channel backend (and the paper's §7 analysis) byte for byte.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use zero_trace::TraceRecorder;

use crate::error::CommError;
use crate::fault::FaultPlan;
use crate::stats::TrafficStats;
use crate::transport::{lock_unpoisoned, Flip, Pipe, Transport};
use crate::wire::{self, Frame};
use crate::world::{Communicator, WorldConfig};

/// Read-timeout granularity of the per-peer reader threads; bounds how
/// long transport shutdown can take.
const READ_TICK: Duration = Duration::from_millis(25);

/// Initial retry delay when dialing a peer that has not bound its socket
/// yet; doubles per attempt up to [`CONNECT_BACKOFF_CAP`].
const CONNECT_BACKOFF_START: Duration = Duration::from_millis(1);

/// Ceiling on the dial retry delay.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Everything a rank process needs to join (or host) a process world.
///
/// The same value — minus `dir`-relative concerns — must be given to every
/// rank: `world`, `token`, and the timing parameters are part of the mesh
/// contract, and the handshake rejects peers that disagree on them.
#[derive(Clone, Debug)]
pub struct ProcessWorldConfig {
    /// Directory holding the per-rank socket files (`rank-{r}.sock`).
    pub dir: PathBuf,
    /// Number of ranks in the mesh.
    pub world: usize,
    /// Per-run nonce; `Hello` frames carrying a different token are
    /// rejected, fencing off stale processes from earlier incarnations.
    pub token: u64,
    /// Upper bound on any single blocking receive (mirrors
    /// [`WorldConfig::recv_timeout`]).
    pub recv_timeout: Duration,
    /// Deterministic fault script, identical in meaning to the channel
    /// backend's: each rank consults only its own entries.
    pub faults: FaultPlan,
    /// Interval between heartbeat frames on every link.
    pub heartbeat_interval: Duration,
    /// A peer from which *nothing* (data or heartbeat) has been heard for
    /// this long is declared [`CommError::PeerLost`].
    pub liveness_timeout: Duration,
    /// Wall-clock budget for the whole mesh handshake (bind + dial all
    /// lower ranks + accept all higher ranks).
    pub handshake_timeout: Duration,
}

impl ProcessWorldConfig {
    /// Defaults tuned like [`WorldConfig::default`]: generous receive
    /// timeout, sub-second liveness, and a handshake budget long enough
    /// to ride out slow process spawns on a loaded CI machine.
    pub fn new(dir: impl Into<PathBuf>, world: usize) -> ProcessWorldConfig {
        ProcessWorldConfig {
            dir: dir.into(),
            world,
            token: 0,
            recv_timeout: Duration::from_secs(30),
            faults: FaultPlan::new(),
            heartbeat_interval: Duration::from_millis(25),
            liveness_timeout: Duration::from_secs(1),
            handshake_timeout: Duration::from_secs(20),
        }
    }

    fn sock_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("rank-{rank}.sock"))
    }
}

/// Returns a token suitable for [`ProcessWorldConfig::token`]: unique per
/// (process, call) with high probability, so two runs sharing a fabric
/// directory cannot cross-connect.
pub fn fresh_token() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ ((std::process::id() as u64) << 32) ^ COUNTER.fetch_add(0x9E37_79B9, Ordering::Relaxed)
}

/// Joins the process mesh as `rank` and returns a fully wired
/// [`Communicator`] whose progress thread speaks the socket transport.
///
/// Blocks until the handshake with all `cfg.world - 1` peers completes or
/// `cfg.handshake_timeout` expires. The returned handle is
/// indistinguishable from a channel-backend one: same collectives, same
/// typed errors, same stats and trace surfaces.
pub fn connect_process_rank(
    rank: usize,
    cfg: &ProcessWorldConfig,
) -> Result<Communicator, CommError> {
    let mut link = SocketTransport::connect(rank, cfg)?;
    let inbox = std::mem::take(&mut link.inbox);
    let wcfg = WorldConfig {
        recv_timeout: cfg.recv_timeout,
        faults: cfg.faults.clone(),
        ..WorldConfig::default()
    };
    let trace = Arc::new(TraceRecorder::new());
    Ok(Communicator::spawn(rank, cfg.world, Box::new(link), inbox, TrafficStats::new(), trace, &wcfg))
}

/// [`Transport`] implementation where every peer is another OS process on
/// the far side of a Unix domain socket.
pub struct SocketTransport {
    rank: usize,
    /// Each peer's write half, shared with the heartbeat thread; `None`
    /// at `self.rank`.
    writers: Vec<Option<Arc<Mutex<UnixStream>>>>,
    /// The pipes the reader threads decode each peer's frames into, until
    /// the rank's fabric takes them.
    pub(crate) inbox: Vec<Arc<Pipe>>,
    /// The frame every send encodes into, reused.
    frame: Vec<u8>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Raw socket handles kept so drop can `shutdown(2)` them and unblock
    /// reader threads immediately.
    sockets: Vec<UnixStream>,
    own_sock: PathBuf,
}

impl SocketTransport {
    /// Binds this rank's socket, dials lower ranks with capped exponential
    /// backoff, accepts higher ranks, and validates `Hello` tokens in both
    /// directions. See the module docs for the full protocol.
    pub fn connect(rank: usize, cfg: &ProcessWorldConfig) -> Result<SocketTransport, CommError> {
        assert!(
            rank < cfg.world && cfg.world >= 1,
            "rank {rank} outside world of {}",
            cfg.world
        );
        let deadline = Instant::now() + cfg.handshake_timeout;
        let own_sock = cfg.sock_path(rank);
        // A stale file from a previous incarnation would make bind fail;
        // the per-run token protects against the matching stale process.
        let _ = std::fs::remove_file(&own_sock);
        let listener = UnixListener::bind(&own_sock)
            .map_err(|_| CommError::PeerLost { rank, peer: rank })?;

        // Per-peer (stream, residue): bytes a handshake read past its
        // Hello frame — possibly a partial heartbeat or even a first data
        // frame from a peer whose mesh completed early — which must seed
        // the reader's accumulator or the stream desynchronizes.
        let mut streams: Vec<Option<(UnixStream, Vec<u8>)>> =
            (0..cfg.world).map(|_| None).collect();
        // Dial every lower rank; they bound their listeners before (or
        // while) we spawned, and a socket backlog absorbs our connect even
        // if they are still dialing their own lower peers.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let stream = dial_with_backoff(&cfg.sock_path(peer), cfg, rank, peer, deadline)?;
            let residue = handshake(&stream, cfg, rank, peer, deadline)?;
            *slot = Some((stream, residue));
        }
        // Accept every higher rank; identity comes from its Hello frame.
        let mut expected = cfg.world - 1 - rank;
        listener
            .set_nonblocking(true)
            .map_err(|_| CommError::PeerLost { rank, peer: rank })?;
        while expected > 0 {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let _ = stream.set_nonblocking(false);
                    if let Some((peer, residue)) = accept_handshake(&stream, cfg, rank, deadline) {
                        if peer > rank && peer < cfg.world && streams[peer].is_none() {
                            streams[peer] = Some((stream, residue));
                            expected -= 1;
                        }
                        // A duplicate or out-of-range claim is dropped on
                        // the floor; the real peer can still arrive.
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let peer = (rank + 1..cfg.world)
                            .find(|p| streams[*p].is_none())
                            .unwrap_or(rank);
                        return Err(CommError::Timeout {
                            rank,
                            peer,
                            waited: cfg.handshake_timeout,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return Err(CommError::PeerLost { rank, peer: rank }),
            }
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let inbox: Vec<Arc<Pipe>> = (0..cfg.world).map(|_| Arc::default()).collect();
        let mut writers = Vec::with_capacity(cfg.world);
        let mut threads = Vec::new();
        let mut sockets = Vec::new();
        let mut beat_targets: Vec<(Arc<Mutex<UnixStream>>, Arc<Pipe>)> = Vec::new();
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some((stream, residue)) = slot else {
                writers.push(None);
                continue;
            };
            let reader = stream
                .try_clone()
                .map_err(|_| CommError::PeerLost { rank, peer })?;
            let _ = reader.set_read_timeout(Some(READ_TICK));
            let _ = stream.set_write_timeout(Some(cfg.liveness_timeout));
            sockets.push(
                stream
                    .try_clone()
                    .map_err(|_| CommError::PeerLost { rank, peer })?,
            );
            let writer = Arc::new(Mutex::new(stream));
            beat_targets.push((writer.clone(), inbox[peer].clone()));
            let (reader_inbox, reader_stop, liveness) = (inbox[peer].clone(), shutdown.clone(), cfg.liveness_timeout);
            threads.push(std::thread::spawn(move || reader_loop(reader, residue, &reader_inbox, &reader_stop, liveness)));
            writers.push(Some(writer));
        }
        debug_assert_eq!(writers.len(), cfg.world);

        let beat_stop = shutdown.clone();
        let beat_interval = cfg.heartbeat_interval;
        threads.push(std::thread::spawn(move || {
            heartbeat_loop(beat_targets, beat_interval, beat_stop);
        }));

        Ok(SocketTransport { rank, writers, inbox, frame: Vec::new(), shutdown, threads, sockets, own_sock })
    }

    /// Writes one pre-encoded frame to `peer`, holding the writer lock for
    /// the duration so heartbeat and data frames never interleave bytes.
    fn write_frame(&self, peer: usize, frame: &[u8]) -> Result<(), CommError> {
        let lost = || CommError::PeerLost { rank: self.rank, peer };
        let writer = self.writers.get(peer).and_then(Option::as_ref).ok_or_else(lost)?;
        let mut stream = lock_unpoisoned(writer);
        stream.write_all(frame).and_then(|()| stream.flush()).map_err(|_| lost())
    }
}

impl Transport for SocketTransport {
    fn send_msg(&mut self, dst: usize, seq: u64, data: &[f32], flip: Option<Flip>) -> Result<(), CommError> {
        wire::encode_data_into(&mut self.frame, seq, None, data, flip);
        self.write_frame(dst, &self.frame)
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Severing the sockets unblocks reader threads immediately and
        // tells every peer — via EOF — that this rank is gone, the same
        // signal a killed process would have produced.
        for sock in &self.sockets {
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.own_sock);
    }
}

/// Dials `path` until it connects, the deadline passes, or the world ends;
/// sleeps with exponential backoff capped at [`CONNECT_BACKOFF_CAP`].
fn dial_with_backoff(
    path: &Path,
    cfg: &ProcessWorldConfig,
    rank: usize,
    peer: usize,
    deadline: Instant,
) -> Result<UnixStream, CommError> {
    let mut backoff = CONNECT_BACKOFF_START;
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(backoff.min(deadline.saturating_duration_since(Instant::now())));
                backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
            }
            Err(_) => {
                return Err(CommError::Timeout {
                    rank,
                    peer,
                    waited: cfg.handshake_timeout,
                });
            }
        }
    }
}

/// Connector-side handshake: send our `Hello`, then require the peer's
/// matching `Hello` back before the link counts as established.
fn handshake(
    stream: &UnixStream,
    cfg: &ProcessWorldConfig,
    rank: usize,
    peer: usize,
    deadline: Instant,
) -> Result<Vec<u8>, CommError> {
    let hello = wire::encode_hello(cfg.world as u32, rank as u32, cfg.token);
    let mut w = stream;
    if w.write_all(&hello).is_err() {
        return Err(CommError::PeerLost { rank, peer });
    }
    match read_hello(stream, deadline) {
        Some(((world, claimed, token), residue))
            if world as usize == cfg.world && token == cfg.token && claimed as usize == peer =>
        {
            Ok(residue)
        }
        _ => Err(CommError::PeerLost { rank, peer }),
    }
}

/// Acceptor-side handshake: read the connector's `Hello`, validate it, and
/// answer with our own. Returns the claimed peer rank, or `None` to reject.
fn accept_handshake(
    stream: &UnixStream,
    cfg: &ProcessWorldConfig,
    rank: usize,
    deadline: Instant,
) -> Option<(usize, Vec<u8>)> {
    let ((world, claimed, token), residue) = read_hello(stream, deadline)?;
    if world as usize != cfg.world || token != cfg.token {
        return None;
    }
    let reply = wire::encode_hello(cfg.world as u32, rank as u32, cfg.token);
    let mut w = stream;
    w.write_all(&reply).ok()?;
    Some((claimed as usize, residue))
}

/// Reads exactly one `Hello` frame off `stream` before `deadline`.
///
/// Returns the decoded fields **and any bytes read past the frame's end**:
/// a peer whose mesh completed early may already be heartbeating — or even
/// sending data — on this link, and a `read` can return its Hello plus the
/// head of the next frame in one chunk. Discarding that residue would
/// desynchronize the stream for the reader thread (observed in the kill -9
/// smoke as every surviving rank reporting a spurious `PeerLost`).
fn read_hello(stream: &UnixStream, deadline: Instant) -> Option<((u32, u32, u64), Vec<u8>)> {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut acc: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 256];
    let mut r = stream;
    loop {
        match wire::decode_frame(&acc) {
            Ok(Some((Frame::Hello { world, rank, token }, used))) => {
                acc.drain(..used);
                return Some(((world, rank, token), acc));
            }
            Ok(Some(_)) | Err(_) => return None,
            Ok(None) => {}
        }
        if Instant::now() >= deadline {
            return None;
        }
        match r.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => acc.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

/// Per-peer reader: drains the socket into the frame decoder and decodes
/// each data frame's payload straight into a recycled buffer of `inbox`.
/// Closes it — which the fabric observes as `PeerLost` — on EOF, protocol
/// error, `liveness` of silence (not even a heartbeat), or transport
/// shutdown.
fn reader_loop(mut stream: UnixStream, residue: Vec<u8>, inbox: &Pipe, stop: &AtomicBool, liveness: Duration) {
    // Seed the decoder with bytes the handshake read past its Hello frame.
    let mut acc: Vec<u8> = residue;
    let mut chunk = [0u8; 64 * 1024];
    let mut seen = Instant::now();
    'outer: while !stop.load(Ordering::Relaxed) && seen.elapsed() <= liveness {
        loop {
            match wire::split_frame(&acc) {
                Ok(Some((frame, used))) => {
                    seen = Instant::now();
                    let delivered = match frame {
                        Frame::Data { seq, payload_crc, payload } => inbox.send(seq, payload.len() / 4, |buf| {
                            buf.extend(wire::f32s(payload));
                            payload_crc
                        }),
                        Frame::Heartbeat => true,
                        // A Hello after the handshake is a protocol
                        // violation; treat the link as gone.
                        Frame::Hello { .. } => break 'outer,
                    };
                    if !delivered {
                        // The fabric closed its inbox: shutdown.
                        break 'outer;
                    }
                    acc.drain(..used);
                }
                Ok(None) => break,
                // Framing damage is unrecoverable on a byte stream — a
                // bad length prefix desynchronizes everything after it.
                Err(_) => break 'outer,
            }
        }
        // Read no further than the pending frame's end unless the decoder
        // has room already: it grows to the widest frame while warming up,
        // not whenever a late read straddles two frames.
        let pending = acc.first_chunk::<4>().map_or(4, |len| 8 + u32::from_le_bytes(*len) as usize);
        let room = (acc.capacity() - acc.len()).max(pending.saturating_sub(acc.len())).min(chunk.len());
        match stream.read(&mut chunk[..room]) {
            Ok(0) => break,
            Ok(n) => acc.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    inbox.close();
}

/// Beats every link at `interval` until shutdown. Runs on its own thread
/// so a hung progress thread keeps proving the process is alive — hangs
/// must surface as `Timeout`, not `PeerLost`, on both backends.
fn heartbeat_loop(
    targets: Vec<(Arc<Mutex<UnixStream>>, Arc<Pipe>)>,
    interval: Duration,
    stop: Arc<AtomicBool>,
) {
    let beat = wire::encode_heartbeat();
    while !stop.load(Ordering::Relaxed) {
        for (writer, inbox) in &targets {
            if !inbox.is_closed() && lock_unpoisoned(writer).write_all(&beat).is_err() {
                inbox.close();
            }
        }
        // Sleep in short slices so transport drop never waits a full
        // (possibly test-inflated) interval to join this thread.
        let wake = Instant::now() + interval;
        while Instant::now() < wake && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(READ_TICK.min(interval));
        }
    }
}

/// Child-process guard for a spawned rank fleet: owns every [`Child`],
/// offers targeted `SIGKILL` for fault injection, and — the part that
/// keeps CI honest — kills and reaps every survivor on drop, so no code
/// path (including panics) can leak orphan rank processes.
pub struct RankProcs {
    slots: Vec<Slot>,
}

enum Slot {
    Running(Child),
    Done(ExitStatus),
}

impl RankProcs {
    /// Spawns one child per command, rank r taking `cmds[r]`. If any spawn
    /// fails, the already-started children are killed and reaped before
    /// the error is returned.
    pub fn spawn(cmds: Vec<Command>) -> std::io::Result<RankProcs> {
        let mut slots = Vec::with_capacity(cmds.len());
        for mut cmd in cmds {
            match cmd.spawn() {
                Ok(child) => slots.push(Slot::Running(child)),
                Err(e) => {
                    for slot in &mut slots {
                        if let Slot::Running(child) = slot {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(RankProcs { slots })
    }

    /// Number of ranks (running or exited) under guard.
    pub fn world(&self) -> usize {
        self.slots.len()
    }

    /// OS pid of `rank`, or `None` once it has been reaped.
    pub fn pid(&self, rank: usize) -> Option<u32> {
        match self.slots.get(rank) {
            Some(Slot::Running(child)) => Some(child.id()),
            _ => None,
        }
    }

    /// Sends `SIGKILL` to `rank` (best effort; false if already reaped).
    /// The corpse is reaped by the next [`Self::poll`] / [`Self::wait_all`].
    pub fn kill(&mut self, rank: usize) -> bool {
        match self.slots.get_mut(rank) {
            Some(Slot::Running(child)) => child.kill().is_ok(),
            _ => false,
        }
    }

    /// Reaps every exited child without blocking; returns how many are
    /// still running.
    pub fn poll(&mut self) -> usize {
        let mut running = 0;
        for slot in &mut self.slots {
            if let Slot::Running(child) = slot {
                match child.try_wait() {
                    Ok(Some(status)) => *slot = Slot::Done(status),
                    Ok(None) => running += 1,
                    // An errored wait means the child is unreapable by us;
                    // count it running so wait_all keeps trying.
                    Err(_) => running += 1,
                }
            }
        }
        running
    }

    /// Exit status of `rank`, once reaped.
    pub fn status(&self, rank: usize) -> Option<ExitStatus> {
        match self.slots.get(rank) {
            Some(Slot::Done(status)) => Some(*status),
            _ => None,
        }
    }

    /// Waits (polling) for every child to exit on its own. Children still
    /// running at `deadline` are killed and reaped; returns true iff none
    /// needed killing.
    pub fn wait_all(&mut self, deadline: Instant) -> bool {
        loop {
            if self.poll() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for slot in &mut self.slots {
            if let Slot::Running(child) = slot {
                let _ = child.kill();
                if let Ok(status) = child.wait() {
                    *slot = Slot::Done(status);
                }
            }
        }
        false
    }

    /// True if `rank` was reaped after dying to a signal (e.g. `SIGKILL`).
    pub fn died_of_signal(&self, rank: usize) -> bool {
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            matches!(
                self.slots.get(rank),
                Some(Slot::Done(status)) if status.signal().is_some()
            )
        }
        #[cfg(not(unix))]
        {
            let _ = rank;
            false
        }
    }
}

impl Drop for RankProcs {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Slot::Running(child) = slot {
                let _ = child.kill();
                if let Ok(status) = child.wait() {
                    *slot = Slot::Done(status);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Precision, ReduceOp};
    use std::sync::atomic::AtomicUsize;

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "zero-fabric-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create fabric scratch dir");
        dir
    }

    fn quick_cfg(dir: &Path, world: usize) -> ProcessWorldConfig {
        let mut cfg = ProcessWorldConfig::new(dir, world);
        cfg.token = fresh_token();
        cfg.recv_timeout = Duration::from_secs(5);
        cfg.handshake_timeout = Duration::from_secs(5);
        cfg
    }

    /// Hosts each rank of a socket mesh on a thread of this process —
    /// the transport neither knows nor cares that the "processes" share
    /// an address space, and tests get cheap full-mesh coverage.
    fn run_mesh<T, F>(world: usize, cfg: &ProcessWorldConfig, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Communicator) -> T + Clone + Send + 'static,
    {
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let cfg = cfg.clone();
                let f = f.clone();
                std::thread::spawn(move || {
                    let comm = connect_process_rank(rank, &cfg).expect("handshake");
                    f(comm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mesh rank panicked"))
            .collect()
    }

    /// A world all-gather between two ranks, each contributing `mine`.
    fn gather_pair(comm: &mut Communicator, mine: &[f32]) -> Result<(), CommError> {
        let mut out = vec![0.0; 2 * mine.len()];
        comm.all_gather(mine, &mut out, Precision::Fp32)
    }

    #[test]
    fn socket_mesh_all_reduce_matches_expected_sum() {
        let dir = scratch_dir("allreduce");
        let cfg = quick_cfg(&dir, 3);
        let outs = run_mesh(3, &cfg, |mut comm| {
            let mut buf = vec![comm.rank() as f32 + 1.0; 8];
            comm.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32)
                .expect("all_reduce over sockets");
            buf[0]
        });
        assert_eq!(outs, vec![6.0; 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handshake_times_out_when_peer_never_arrives() {
        let dir = scratch_dir("lonely");
        let mut cfg = quick_cfg(&dir, 2);
        cfg.handshake_timeout = Duration::from_millis(200);
        let err = match connect_process_rank(0, &cfg) {
            Err(e) => e,
            Ok(_) => panic!("handshake should not complete without rank 1"),
        };
        assert!(
            matches!(err, CommError::Timeout { rank: 0, peer: 1, .. }),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handshake_rejects_wrong_token() {
        let dir = scratch_dir("token");
        let mut cfg = quick_cfg(&dir, 2);
        cfg.handshake_timeout = Duration::from_millis(400);
        let acceptor_cfg = cfg.clone();
        let acceptor =
            std::thread::spawn(move || connect_process_rank(0, &acceptor_cfg).map(|_| ()));
        // Dial rank 0 claiming to be rank 1, but with the wrong token: the
        // acceptor must hold out for a legitimate peer and time out.
        let path = cfg.sock_path(0);
        let deadline = Instant::now() + cfg.handshake_timeout;
        let stream = dial_with_backoff(&path, &cfg, 1, 0, deadline).expect("dial acceptor");
        let mut w = &stream;
        w.write_all(&wire::encode_hello(2, 1, cfg.token ^ 0xBAD))
            .expect("send forged hello");
        let joined = acceptor.join().expect("acceptor thread");
        assert!(
            matches!(joined, Err(CommError::Timeout { .. })),
            "forged hello must not complete the mesh: {joined:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn severed_peer_surfaces_as_peer_lost_long_before_recv_timeout() {
        let dir = scratch_dir("severed");
        let mut cfg = quick_cfg(&dir, 2);
        cfg.recv_timeout = Duration::from_secs(30);
        let outs = run_mesh(2, &cfg, |mut comm| {
            if comm.rank() == 1 {
                // Rank 1 exits immediately; its transport drop severs the
                // socket exactly as a killed process would.
                return Ok(());
            }
            let started = Instant::now();
            let res = gather_pair(&mut comm, &[0.0; 4]);
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "severed peer took the full recv_timeout to surface"
            );
            res
        });
        assert!(
            matches!(outs[0], Err(CommError::PeerLost { rank: 0, peer: 1 })),
            "got {:?}",
            outs[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mute_but_connected_peer_trips_heartbeat_liveness() {
        let dir = scratch_dir("mute");
        let mut cfg = quick_cfg(&dir, 2);
        cfg.recv_timeout = Duration::from_secs(30);
        cfg.liveness_timeout = Duration::from_millis(250);
        // Rank 1 beats so rarely it is indistinguishable from a stopped
        // process; rank 0's liveness window must declare it lost without
        // waiting out the 30s receive timeout.
        let mute = {
            let mut c = cfg.clone();
            c.heartbeat_interval = Duration::from_secs(3600);
            c
        };
        let cfg0 = cfg.clone();
        let r0 = std::thread::spawn(move || {
            let mut comm = connect_process_rank(0, &cfg0).expect("rank 0 handshake");
            let started = Instant::now();
            let res = gather_pair(&mut comm, &[0.0; 4]);
            (res, started.elapsed())
        });
        let r1 = std::thread::spawn(move || {
            let comm = connect_process_rank(1, &mute).expect("rank 1 handshake");
            // Hold the transport open, silently, past rank 0's verdict.
            std::thread::sleep(Duration::from_secs(2));
            drop(comm);
        });
        let (res, elapsed) = r0.join().expect("rank 0 thread");
        r1.join().expect("rank 1 thread");
        assert!(
            matches!(res, Err(CommError::PeerLost { rank: 0, peer: 1 })),
            "got {res:?}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "liveness took {elapsed:?}, should beat recv_timeout by a wide margin"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn hang_in_mesh(recv_timeout: Duration, linger: Duration) -> (CommError, Duration) {
        let dir = scratch_dir("hang");
        let mut cfg = quick_cfg(&dir, 3);
        (cfg.recv_timeout, cfg.faults) = (recv_timeout, FaultPlan::new().with_hang(0, 0));
        let mut outs = run_mesh(3, &cfg, move |c| crate::world::tests::hang_body(c, linger));
        let _ = std::fs::remove_dir_all(&dir);
        outs.swap_remove(0).expect("rank 0 reports")
    }

    #[test]
    fn a_hung_rank_is_released_once_every_peer_process_has_left() {
        let (err, took) = hang_in_mesh(Duration::from_secs(5), Duration::ZERO);
        assert_eq!(err, CommError::InjectedHang { rank: 0, op: 0 });
        assert!(took < Duration::from_secs(2), "released after {took:?}; the deadline is 10 s");
    }

    #[test]
    fn a_hung_rank_waits_out_its_deadline_while_a_peer_process_lives() {
        let (err, took) = hang_in_mesh(Duration::from_millis(100), Duration::from_secs(2));
        assert_eq!(err, CommError::InjectedHang { rank: 0, op: 0 });
        let deadline = Duration::from_millis(200);
        assert!(took >= deadline && took < Duration::from_millis(1500), "took {took:?}; the deadline is 200 ms");
    }

    #[test]
    fn rank_procs_reaps_on_drop() {
        let mut cmds = Vec::new();
        for _ in 0..2 {
            let mut cmd = Command::new("sleep");
            cmd.arg("600");
            cmds.push(cmd);
        }
        let procs = RankProcs::spawn(cmds).expect("spawn sleepers");
        let pids: Vec<u32> = (0..2).map(|r| procs.pid(r).expect("pid")).collect();
        drop(procs);
        for pid in pids {
            // After kill + wait the pid must be gone (or at worst a zombie
            // owned by init, which /proc no longer shows as ours).
            let alive = std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .map(|s| !s.contains(" Z "))
                .unwrap_or(false);
            assert!(!alive, "child {pid} outlived its RankProcs guard");
        }
    }

    #[test]
    fn rank_procs_kill_reports_signal_death() {
        let mut cmd = Command::new("sleep");
        cmd.arg("600");
        let mut procs = RankProcs::spawn(vec![cmd]).expect("spawn sleeper");
        assert!(procs.kill(0));
        procs.wait_all(Instant::now() + Duration::from_secs(5));
        assert_eq!(procs.poll(), 0, "killed child must be reaped");
        assert!(procs.died_of_signal(0), "SIGKILL death must be visible");
    }
}
