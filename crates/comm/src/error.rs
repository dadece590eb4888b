//! Typed communication failures.
//!
//! The original fabric panicked on any irregularity — acceptable when every
//! failure is a bug, fatal for elastic training where rank loss is an
//! *expected* event the survivors must recover from. Every failure mode a
//! peer can observe (or a fault plan can inject) maps to one variant here,
//! so recovery code can classify without string-matching panic payloads.

use std::time::Duration;

/// A communication failure observed by one rank.
///
/// `Clone + PartialEq` so supervisors can collect, compare, and re-report
/// failures from several ranks; `Send + Sync + 'static` so it can cross
/// thread boundaries as an error value or a panic payload.
#[derive(Clone, Debug, PartialEq)]
pub enum CommError {
    /// The channel to/from `peer` disconnected: the peer dropped its
    /// communicator (crashed or exited) while this rank still needed it.
    PeerLost {
        /// The observing rank.
        rank: usize,
        /// The rank whose endpoint went away.
        peer: usize,
    },
    /// No message arrived from `peer` within the configured receive
    /// timeout. The peer is alive enough to hold its endpoint open but is
    /// not making progress (hung, or wedged on a different collective).
    Timeout {
        /// The observing rank.
        rank: usize,
        /// The rank that failed to send in time.
        peer: usize,
        /// How long the receiver waited.
        waited: Duration,
    },
    /// A message arrived whose payload checksum does not match: the bytes
    /// were damaged in flight (or a fault plan flipped a bit).
    Corrupt {
        /// The observing rank.
        rank: usize,
        /// The sender of the damaged message.
        peer: usize,
        /// Checksum carried by the message.
        declared_crc: u32,
        /// Checksum recomputed over the received payload.
        actual_crc: u32,
    },
    /// A message arrived with an unexpected sequence number: the two ranks
    /// disagree about the collective schedule (an SPMD bug, not a fault).
    OutOfOrder {
        /// The observing rank.
        rank: usize,
        /// The sender.
        peer: usize,
        /// Sequence number carried by the message.
        got: u64,
        /// Sequence number the receiver expected.
        expected: u64,
    },
    /// A message arrived in its schedule slot with another length than the
    /// slot: the sender ran a different op there (it abandoned an op
    /// mid-ring after a failure and went on to the next).
    LengthMismatch {
        /// The observing rank.
        rank: usize,
        /// The sender.
        peer: usize,
        /// Floats the message carried.
        got: usize,
        /// Floats the slot holds.
        expected: usize,
    },
    /// This rank's fault plan killed it at communication op `op`.
    InjectedCrash {
        /// The crashed rank.
        rank: usize,
        /// Index of the collective at which it died.
        op: u64,
    },
    /// This rank's fault plan hung it at op `op`; after stalling long
    /// enough for every peer to time out, the rank reports itself dead.
    InjectedHang {
        /// The hung rank.
        rank: usize,
        /// Index of the op at which it hung.
        op: u64,
    },
    /// A collective was invoked with a group that does not contain the
    /// calling rank. This is a schedule bug on the *calling* rank,
    /// surfaced as a typed error so a supervisor can fence the rank
    /// instead of unwinding its thread while peers block inside the ring.
    NotInGroup {
        /// The rank missing from the group.
        rank: usize,
        /// The offending group's members.
        group: Vec<usize>,
    },
    /// A qgZ reduce-scatter was invoked with a node size that does not
    /// evenly divide the group: the ranks of a partial node would be
    /// silently mis-grouped (some "node" groups would straddle physical
    /// nodes), so the topology is rejected up front.
    InvalidTopology {
        /// The calling rank.
        rank: usize,
        /// Size of the group being split into nodes.
        world: usize,
        /// The ranks-per-node value that does not divide `world`.
        node_size: usize,
    },
    /// This rank's fabric is gone: a thread panicked while running an op
    /// on it, before (or while) a pending op awaited its result. The
    /// fabric endpoints died with it, so peers observe `PeerLost`.
    ProgressLost {
        /// The rank whose progress thread died.
        rank: usize,
    },
    /// A pending op's result did not arrive within its wait budget while
    /// the progress thread held the fabric. The budget
    /// covers every fabric timeout the op could legally consume, so this
    /// means the progress engine itself is wedged.
    ProgressStalled {
        /// The rank whose progress thread stalled.
        rank: usize,
        /// How long the caller waited before giving up.
        waited: Duration,
    },
}

impl CommError {
    /// The rank that observed (or suffered) the failure.
    pub fn rank(&self) -> usize {
        match *self {
            CommError::PeerLost { rank, .. }
            | CommError::Timeout { rank, .. }
            | CommError::Corrupt { rank, .. }
            | CommError::OutOfOrder { rank, .. }
            | CommError::LengthMismatch { rank, .. }
            | CommError::InjectedCrash { rank, .. }
            | CommError::InjectedHang { rank, .. } => rank,
            CommError::NotInGroup { rank, .. } => rank,
            CommError::InvalidTopology { rank, .. } => rank,
            CommError::ProgressLost { rank } => rank,
            CommError::ProgressStalled { rank, .. } => rank,
        }
    }

    /// True if this error means the *observing* rank itself is dead
    /// (injected faults), as opposed to having witnessed a peer's failure.
    pub fn is_self_fault(&self) -> bool {
        matches!(
            self,
            CommError::InjectedCrash { .. } | CommError::InjectedHang { .. }
        )
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerLost { rank, peer } => {
                write!(f, "rank {rank}: peer {peer} disconnected mid-collective")
            }
            CommError::Timeout { rank, peer, waited } => {
                write!(f, "rank {rank}: timed out after {waited:?} waiting on peer {peer}")
            }
            CommError::Corrupt { rank, peer, declared_crc, actual_crc } => write!(
                f,
                "rank {rank}: corrupt payload from peer {peer} \
                 (declared crc {declared_crc:#010x}, actual {actual_crc:#010x})"
            ),
            CommError::OutOfOrder { rank, peer, got, expected } => write!(
                f,
                "rank {rank}: out-of-order message from peer {peer} \
                 (seq {got}, expected {expected})"
            ),
            CommError::LengthMismatch { rank, peer, got, expected } => write!(
                f,
                "rank {rank}: a {got}-float message from peer {peer} in a {expected}-float slot"
            ),
            CommError::InjectedCrash { rank, op } => {
                write!(f, "rank {rank}: fault plan crashed this rank at comm op {op}")
            }
            CommError::InjectedHang { rank, op } => {
                write!(f, "rank {rank}: fault plan hung this rank at comm op {op}")
            }
            CommError::NotInGroup { rank, group } => {
                write!(f, "rank {rank} is not a member of collective group {group:?}")
            }
            CommError::InvalidTopology { rank, world, node_size } => write!(
                f,
                "rank {rank}: node size {node_size} does not divide group size {world}"
            ),
            CommError::ProgressLost { rank } => {
                write!(f, "rank {rank}: communication progress thread is gone")
            }
            CommError::ProgressStalled { rank, waited } => {
                write!(
                    f,
                    "rank {rank}: pending op unanswered after {waited:?} \
                     (progress thread wedged)"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        let crash = CommError::InjectedCrash { rank: 2, op: 7 };
        assert!(crash.is_self_fault());
        assert_eq!(crash.rank(), 2);

        let lost = CommError::PeerLost { rank: 1, peer: 2 };
        assert!(!lost.is_self_fault());
        assert_eq!(lost.rank(), 1);
    }

    #[test]
    fn displays_are_informative() {
        let e = CommError::Corrupt { rank: 0, peer: 3, declared_crc: 1, actual_crc: 2 };
        let s = e.to_string();
        assert!(s.contains("rank 0") && s.contains("peer 3") && s.contains("corrupt"));
    }
}
