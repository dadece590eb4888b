//! The socket backend's wire protocol: length-prefixed, CRC-framed.
//!
//! Every frame on a rank-to-rank Unix socket is
//!
//! ```text
//! [len: u32 LE] [body: len bytes] [frame_crc: u32 LE]
//! ```
//!
//! where `frame_crc` is the CRC-32 of `body` and `body[0]` is a frame
//! type tag:
//!
//! | tag | frame     | body after the tag                                  |
//! |-----|-----------|-----------------------------------------------------|
//! | 0   | Hello     | `world: u32`, `rank: u32`, `token: u64`             |
//! | 1   | Data      | `seq: u64`, `payload_crc: u32`, `count: u32`, then `count` f32 LE |
//! | 2   | (retired) | never reused: decodes as `UnknownFrameType(2)`      |
//! | 3   | Heartbeat | (empty)                                             |
//!
//! Two CRCs travel on a `Data` frame on purpose: `frame_crc` protects the
//! *transport* hop (a damaged socket read must be detected here, at the
//! framing layer), while `payload_crc` is the fabric-level checksum the
//! sender computed before any injected corruption — it crosses the wire
//! untouched so the receiving fabric performs exactly the same
//! end-to-end CRC check the in-process backend does, and the fault
//! matrix's corruption semantics are identical on both backends.
//!
//! The decoder is a total function over byte strings: truncated input
//! asks for more bytes, everything else is a typed [`WireError`]. It
//! never panics and never allocates more than the declared (bounded)
//! frame length — the fuzz test feeds it truncations and bit flips to
//! hold it to that. The socket backend's own encoder and splitter
//! (`encode_data_into`, `split_frame`) reuse buffers instead.

use crate::crc::{crc32, crc32_f32s_through};
use crate::transport::Flip;

/// Hard ceiling on one frame's body length. Far above anything the
/// engine sends (payloads are bucket-sized), far below anything that
/// could let a corrupted length field drive an allocation bomb.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Frame type tags (`body[0]`).
const TAG_HELLO: u8 = 0;
const TAG_DATA: u8 = 1;
const TAG_HEARTBEAT: u8 = 3;

/// One decoded frame. A Data frame's payload is `P`: its floats, as
/// [`decode_frame`] returns them, or its little-endian bytes left in the
/// input, as the socket reader splits them off.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame<P = Vec<f32>> {
    /// Connection handshake: who is calling, into which world, for which
    /// run (the token is a per-world nonce so a stale process from an
    /// earlier run cannot splice into a new mesh on a reused socket dir).
    Hello {
        /// World size the sender was launched with.
        world: u32,
        /// Sender's rank.
        rank: u32,
        /// Per-run nonce; both sides must agree.
        token: u64,
    },
    /// One fabric message, as [`crate::Transport::send_msg`] delivers it.
    Data {
        /// Per-pair FIFO sequence number.
        seq: u64,
        /// Fabric-level payload checksum, computed by the sender before
        /// any injected corruption — carried verbatim.
        payload_crc: u32,
        /// The f32 payload.
        payload: P,
    },
    /// Peer-liveness beacon; carries no payload.
    Heartbeat,
}

/// Why a byte string is not a frame. Every variant is a protocol error
/// on that connection — the peer is gone, damaged, or not speaking this
/// protocol — and maps to a typed [`crate::CommError`] at the fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared body length.
        declared: u64,
    },
    /// The frame CRC does not match the received body.
    BadFrameCrc {
        /// CRC the sender declared.
        declared: u32,
        /// CRC of what actually arrived.
        actual: u32,
    },
    /// The body's leading tag names no known frame type.
    UnknownFrameType(u8),
    /// The body length is impossible for its frame type.
    BadBody(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { declared } => {
                write!(f, "frame body of {declared} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            WireError::BadFrameCrc { declared, actual } => write!(
                f,
                "frame crc mismatch: declared {declared:#010x}, got {actual:#010x}"
            ),
            WireError::UnknownFrameType(tag) => write!(f, "unknown frame type tag {tag}"),
            WireError::BadBody(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Byte offset of a Data frame's payload CRC; its payload starts 8 bytes
/// further on, after the element count.
const DATA_CRC_AT: usize = 4 + 1 + 8;

/// Fills in the length prefix of the frame `out` holds, behind which it
/// has the frame's body, and appends the CRC of the body.
fn close_frame(out: &mut Vec<u8>) {
    // A body past the cap is unrepresentable on the wire (peers reject it
    // as `FrameTooLarge`), so fail at the producer, where the bug is.
    let body = out.len() - 4;
    assert!(body <= MAX_FRAME_LEN, "frame body exceeds MAX_FRAME_LEN");
    let len = u32::try_from(body).expect("length checked against MAX_FRAME_LEN");
    out[..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn frame_with_body(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(body);
    close_frame(&mut out);
    out
}

/// Encodes a handshake frame.
pub fn encode_hello(world: u32, rank: u32, token: u64) -> Vec<u8> {
    let mut body = Vec::with_capacity(17);
    body.push(TAG_HELLO);
    body.extend_from_slice(&world.to_le_bytes());
    body.extend_from_slice(&rank.to_le_bytes());
    body.extend_from_slice(&token.to_le_bytes());
    frame_with_body(&body)
}

/// Encodes one fabric message.
pub fn encode_data(seq: u64, payload_crc: u32, payload: &[f32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_data_into(&mut out, seq, Some(payload_crc), payload, None);
    out
}

/// Encodes one fabric message into `out`, replacing what it held and
/// reusing its capacity. The declared payload CRC is `declared`, or else
/// the CRC of `payload`, computed as its bytes are written. `flip` then
/// damages the written payload and the frame CRC covers the damaged
/// bytes, so the framing passes the flip on for the fabric's checksum to
/// catch.
pub(crate) fn encode_data_into(out: &mut Vec<u8>, seq: u64, declared: Option<u32>, payload: &[f32], flip: Option<Flip>) {
    let count = u32::try_from(payload.len()).expect("payload count fits the wire field");
    out.clear();
    // The length and the payload CRC are filled in once the payload is in.
    out.extend_from_slice(&[0, 0, 0, 0, TAG_DATA]);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&count.to_le_bytes());
    let crc = crc32_f32s_through(payload, |block| block.iter().for_each(|v| out.extend_from_slice(&v.to_le_bytes())));
    out[DATA_CRC_AT..DATA_CRC_AT + 4].copy_from_slice(&declared.unwrap_or(crc).to_le_bytes());
    if let Some((elem, bit)) = flip {
        out[DATA_CRC_AT + 8 + 4 * elem + bit as usize / 8] ^= 1 << (bit % 8);
    }
    close_frame(out);
}

/// Encodes a liveness beacon.
pub fn encode_heartbeat() -> Vec<u8> {
    frame_with_body(&[TAG_HEARTBEAT])
}

/// The floats of a little-endian payload.
pub(crate) fn f32s(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

fn take_u32(b: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = b.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), rest))
}

fn take_u64(b: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = b.split_first_chunk::<8>()?;
    Some((u64::from_le_bytes(*head), rest))
}

/// Decodes the body of one length/CRC-verified frame, leaving a Data
/// payload in place.
fn decode_body(body: &[u8]) -> Result<Frame<&[u8]>, WireError> {
    let (&tag, rest) = body.split_first().ok_or(WireError::BadBody("empty body"))?;
    match tag {
        TAG_HELLO => {
            let (world, rest) = take_u32(rest).ok_or(WireError::BadBody("hello too short"))?;
            let (rank, rest) = take_u32(rest).ok_or(WireError::BadBody("hello too short"))?;
            let (token, rest) = take_u64(rest).ok_or(WireError::BadBody("hello too short"))?;
            if !rest.is_empty() {
                return Err(WireError::BadBody("hello has trailing garbage"));
            }
            Ok(Frame::Hello { world, rank, token })
        }
        TAG_DATA => {
            let (seq, rest) = take_u64(rest).ok_or(WireError::BadBody("data too short"))?;
            let (payload_crc, rest) =
                take_u32(rest).ok_or(WireError::BadBody("data too short"))?;
            let (count, rest) = take_u32(rest).ok_or(WireError::BadBody("data too short"))?;
            if rest.len() != 4 * count as usize {
                return Err(WireError::BadBody("data payload length mismatch"));
            }
            Ok(Frame::Data { seq, payload_crc, payload: rest })
        }
        TAG_HEARTBEAT => {
            if !rest.is_empty() {
                return Err(WireError::BadBody("heartbeat has trailing garbage"));
            }
            Ok(Frame::Heartbeat)
        }
        other => Err(WireError::UnknownFrameType(other)),
    }
}

/// Tries to decode one frame from the front of `buf`.
///
/// * `Ok(Some((frame, consumed)))` — a complete, CRC-clean frame;
///   `consumed` is how many bytes it occupied.
/// * `Ok(None)` — `buf` is a (possibly empty) prefix of a frame; read
///   more bytes and retry.
/// * `Err(_)` — the connection is not carrying this protocol (or the
///   bytes were damaged in a way the frame CRC caught); the stream
///   cannot be resynchronized and must be treated as lost.
///
/// Total over arbitrary input: never panics, and allocation is bounded
/// by the [`MAX_FRAME_LEN`]-checked declared length.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    let decoded = |frame| match frame {
        Frame::Hello { world, rank, token } => Frame::Hello { world, rank, token },
        Frame::Data { seq, payload_crc, payload } => Frame::Data { seq, payload_crc, payload: f32s(payload).collect() },
        Frame::Heartbeat => Frame::Heartbeat,
    };
    Ok(split_frame(buf)?.map(|(frame, used)| (decoded(frame), used)))
}

/// A frame whose Data payload is left in the input, and the bytes it took.
type Split<'a> = (Frame<&'a [u8]>, usize);

/// [`decode_frame`] without the copy: a Data payload is left in `buf`.
pub(crate) fn split_frame(buf: &[u8]) -> Result<Option<Split<'_>>, WireError> {
    let Some((len_field, after_len)) = take_u32(buf) else {
        return Ok(None);
    };
    let declared = len_field as usize;
    if declared > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { declared: len_field as u64 });
    }
    if after_len.len() < declared + 4 {
        return Ok(None);
    }
    let body = &after_len[..declared];
    let (declared_crc, _) =
        take_u32(&after_len[declared..]).ok_or(WireError::BadBody("missing frame crc"))?;
    let actual = crc32(body);
    if actual != declared_crc {
        return Err(WireError::BadFrameCrc { declared: declared_crc, actual });
    }
    decode_body(body).map(|f| Some((f, 8 + declared)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<(Vec<u8>, Frame)> {
        vec![
            (
                encode_hello(4, 2, 0xDEAD_BEEF_CAFE_F00D),
                Frame::Hello { world: 4, rank: 2, token: 0xDEAD_BEEF_CAFE_F00D },
            ),
            (
                encode_data(7, 0x1234_5678, &[1.0, -2.5, f32::NAN, 0.0]),
                Frame::Data {
                    seq: 7,
                    payload_crc: 0x1234_5678,
                    payload: vec![1.0, -2.5, f32::NAN, 0.0],
                },
            ),
            (encode_data(0, 0, &[]), Frame::Data { seq: 0, payload_crc: 0, payload: vec![] }),
            (encode_heartbeat(), Frame::Heartbeat),
        ]
    }

    fn frames_equal(a: &Frame, b: &Frame) -> bool {
        // NaN payloads must round-trip bit-exactly; PartialEq would call
        // NaN != NaN, so compare Data payloads through their bits.
        match (a, b) {
            (
                Frame::Data { seq: s1, payload_crc: c1, payload: p1 },
                Frame::Data { seq: s2, payload_crc: c2, payload: p2 },
            ) => {
                s1 == s2
                    && c1 == c2
                    && p1.len() == p2.len()
                    && p1.iter().zip(p2).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => a == b,
        }
    }

    #[test]
    fn every_frame_type_round_trips() {
        for (encoded, frame) in all_frames() {
            let (decoded, consumed) = decode_frame(&encoded)
                .expect("valid frame must decode")
                .expect("complete frame must not ask for more");
            assert_eq!(consumed, encoded.len());
            assert!(frames_equal(&decoded, &frame), "{frame:?} mangled to {decoded:?}");
        }
    }

    #[test]
    fn consumed_length_delimits_back_to_back_frames() {
        let mut stream = encode_heartbeat();
        stream.extend_from_slice(&encode_data(9, 0, &[]));
        let (f1, used) = decode_frame(&stream).unwrap().unwrap();
        assert_eq!(f1, Frame::Heartbeat);
        let (f2, _) = decode_frame(&stream[used..]).unwrap().unwrap();
        assert_eq!(f2, Frame::Data { seq: 9, payload_crc: 0, payload: vec![] });
    }

    #[test]
    fn every_truncation_asks_for_more_or_errors_cleanly() {
        for (encoded, _) in all_frames() {
            for cut in 0..encoded.len() {
                match decode_frame(&encoded[..cut]) {
                    Ok(None) => {}
                    other => panic!("prefix of {cut} bytes gave {other:?}, want Ok(None)"),
                }
            }
        }
    }

    #[test]
    fn flipped_body_bit_is_caught_by_frame_crc() {
        let mut enc = encode_data(1, 42, &[3.0; 8]);
        let mid = enc.len() / 2;
        enc[mid] ^= 0x10;
        match decode_frame(&enc) {
            Err(WireError::BadFrameCrc { .. }) => {}
            other => panic!("expected BadFrameCrc, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut enc = Vec::new();
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        enc.extend_from_slice(&[0u8; 64]);
        match decode_frame(&enc) {
            Err(WireError::FrameTooLarge { declared }) => {
                assert_eq!(declared, u64::from(u32::MAX));
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_is_typed() {
        // Tag 2 belonged to a retired frame type and is never reused.
        for tag in [2u8, 200] {
            let enc = frame_with_body(&[tag, 1, 2, 3]);
            assert_eq!(decode_frame(&enc), Err(WireError::UnknownFrameType(tag)));
        }
    }

    #[test]
    fn wrong_body_length_for_type_is_typed() {
        // A Data frame whose declared element count disagrees with the
        // body length, but whose frame CRC is honest about those bytes.
        let mut body = vec![1u8]; // TAG_DATA
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&100u32.to_le_bytes()); // claims 100 floats
        body.extend_from_slice(&[0u8; 8]); // delivers 2
        let enc = frame_with_body(&body);
        assert_eq!(decode_frame(&enc), Err(WireError::BadBody("data payload length mismatch")));
    }
}
