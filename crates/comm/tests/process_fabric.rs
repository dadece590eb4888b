//! Cross-backend contract tests for the socket transport.
//!
//! The process fabric's promise is that a rank cannot tell which transport
//! it runs on: the same collective schedule must produce bitwise-identical
//! results *and* meter bitwise-identical traffic on the Unix-socket mesh
//! and the in-process channel backend. These tests hold the public API
//! (`connect_process_rank` vs `launch_with_stats`) to that promise over
//! every collective in every wire format, and pin the robustness behaviors
//! the supervisor depends on: handshakes ride out slow-starting peers, and
//! a severed peer fails the next collective with a fast typed error rather
//! than a full `recv_timeout` stall.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use zero_comm::process::fresh_token;
use zero_comm::stats::TrafficSnapshot;
use zero_comm::{
    connect_process_rank, launch_with_stats, chunk_range, CommError, Communicator, Group,
    Precision, ProcessWorldConfig, ReduceOp, WireFmt,
};

/// Fresh scratch directory for one test's socket files.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "zero-fabric-it-{}-{}",
        std::process::id(),
        name
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A schedule touching every collective in every wire format; returns
/// everything rank-visible so backends can be compared. The qgZ
/// reduce-scatter groups the world into nodes of two, so `n` must be even.
fn schedule(comm: &mut Communicator) -> Result<Vec<f32>, CommError> {
    let rank = comm.rank();
    let n = comm.world_size();
    let mut out = Vec::new();

    let mut buf: Vec<f32> = (0..8).map(|i| (rank * 8 + i) as f32 * 0.25).collect();
    comm.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32)?;
    out.extend_from_slice(&buf);

    let input: Vec<f32> = (0..3 * n).map(|i| (i + rank) as f32).collect();
    let mut chunk = vec![0.0; chunk_range(input.len(), n, rank).len()];
    comm.reduce_scatter(&input, &mut chunk, ReduceOp::Mean, Precision::Fp32)?;
    out.extend_from_slice(&chunk);

    let mut gathered = vec![0.0; input.len()];
    comm.all_gather(&chunk, &mut gathered, Precision::Fp32)?;
    out.extend_from_slice(&gathered);

    // The compressed wires of the same two collectives: qwZ's ring of
    // int8 streams, qgZ's raw intra-node then int8 inter-node all-to-all.
    let (g, counts) = (Group::world(n), (0..n).map(|i| chunk_range(input.len(), n, i).len()));
    let counts: Vec<usize> = counts.collect();
    let qwz = WireFmt::Int8Block { block: 4 };
    // In place: `gathered` holds this rank's chunk where the gather puts it.
    out.extend(comm.start_all_gather(&g, gathered.clone(), &counts, Precision::Fp16, qwz).wait()?);
    let qgz = WireFmt::QgzInt8 { node_size: 2, block: 4 };
    let (op, prec) = (ReduceOp::Sum, Precision::Fp16);
    out.extend(comm.start_reduce_scatter(&g, gathered, op, &counts, prec, qgz).wait()?);
    Ok(out)
}

/// Runs `schedule` on an `n`-rank socket mesh (ranks as threads) and
/// returns each rank's outputs and traffic snapshot.
fn run_on_sockets(n: usize, dir: PathBuf) -> Vec<(Vec<f32>, TrafficSnapshot)> {
    let mut cfg = ProcessWorldConfig::new(dir, n);
    cfg.token = fresh_token();
    let handles: Vec<_> = (0..n)
        .map(|rank| {
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut comm = connect_process_rank(rank, &cfg).expect("mesh connects");
                let out = schedule(&mut comm).expect("schedule runs clean");
                let stats = comm.stats().snapshot();
                (out, stats)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect()
}

#[test]
fn collectives_match_channel_backend_bitwise_with_identical_traffic() {
    let n = 4;
    let socket = run_on_sockets(n, scratch("parity"));
    let (channel, channel_stats) =
        launch_with_stats(n, |mut comm| schedule(&mut comm).expect("schedule runs clean"));

    for rank in 0..n {
        let (ref sock_out, ref sock_stats) = socket[rank];
        assert_eq!(
            sock_out.len(),
            channel[rank].len(),
            "rank {rank}: output shape differs across backends"
        );
        for (i, (a, b)) in sock_out.iter().zip(&channel[rank]).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "rank {rank} output[{i}]: socket {a} vs channel {b}"
            );
        }
        // The §7 volume identities must be *measured* identically: same
        // bytes and same message count for every collective kind. The
        // socket backend's heartbeats are transport internals and
        // deliberately unmetered.
        assert_eq!(
            sock_stats.per_kind(),
            channel_stats[rank].per_kind(),
            "rank {rank}: per-kind traffic differs across backends"
        );
    }
}

#[test]
fn handshake_rides_out_a_slow_starting_peer() {
    let dir = scratch("late-peer");
    let mut cfg = ProcessWorldConfig::new(dir, 2);
    cfg.token = fresh_token();

    // Rank 1 dials rank 0's socket, which does not exist yet: the capped
    // exponential backoff must keep retrying until rank 0 binds, well
    // within the handshake budget.
    let eager = {
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let mut comm = connect_process_rank(1, &cfg).expect("late bind is survivable");
            let mut buf = vec![1.0, 2.0];
            comm.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32)
                .expect("post-handshake collective");
            buf
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let mut comm = connect_process_rank(0, &cfg).expect("mesh connects");
    let mut buf = vec![10.0, 20.0];
    comm.all_reduce(&mut buf, ReduceOp::Sum, Precision::Fp32)
        .expect("post-handshake collective");

    assert_eq!(buf, vec![11.0, 22.0]);
    assert_eq!(eager.join().expect("rank 1"), vec![11.0, 22.0]);
}

#[test]
fn severed_peer_fails_collectives_fast_not_at_recv_timeout() {
    let dir = scratch("severed");
    let mut cfg = ProcessWorldConfig::new(dir, 2);
    cfg.token = fresh_token();
    cfg.recv_timeout = Duration::from_secs(60);

    let (ready_tx, ready_rx) = mpsc::channel();
    let quitter = {
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            // Connect, prove the mesh works, then vanish without a word —
            // the socket-level analogue of SIGKILL mid-run.
            let comm = connect_process_rank(1, &cfg).expect("mesh connects");
            ready_tx.send(()).expect("signal readiness");
            drop(comm);
        })
    };

    let mut comm = connect_process_rank(0, &cfg).expect("mesh connects");
    ready_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("peer reached steady state");
    quitter.join().expect("peer thread");

    let start = Instant::now();
    let mut buf = [0.0f32; 4];
    let err = comm.all_gather(&[0.0; 2], &mut buf, Precision::Fp32).expect_err("peer is gone");
    let elapsed = start.elapsed();

    // Liveness detection, not the 60 s receive deadline, must be what
    // reports the death.
    assert!(
        elapsed < Duration::from_secs(10),
        "death took {elapsed:?} to surface — liveness tracking is not working"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("peer") || msg.contains("lost") || msg.contains("disconnected"),
        "unexpected error for a severed peer: {msg}"
    );
}
