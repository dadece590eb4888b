//! Fuzzes the socket backend's frame decoder.
//!
//! The decoder is the trust boundary of the process fabric: every byte a
//! peer process writes crosses it. These properties pin down the contract
//! the reader thread relies on:
//!
//! * `decode_frame` is **total** — arbitrary bytes produce `Ok` or a typed
//!   [`WireError`], never a panic and never an allocation driven by a
//!   corrupt length field.
//! * A **truncated** frame is indistinguishable from an in-flight one:
//!   every proper prefix of a valid encoding yields `Ok(None)` (read more).
//! * A **bit flip** anywhere in a frame never decodes to the frame that
//!   was sent: either the framing layer rejects it outright, or (for
//!   flips inside the length prefix) it stalls/decodes differently —
//!   it can never silently deliver the original message as clean.

use proptest::prelude::*;
use proptest::TestRng;
use zero_comm::wire::{decode_frame, encode_data, encode_hello, encode_heartbeat, Frame};

/// Draws one frame of a random type with fully random field bits, paired
/// with its wire encoding.
struct ArbEncoded;

impl Strategy for ArbEncoded {
    type Value = (Frame, Vec<u8>);
    fn generate(&self, rng: &mut TestRng) -> (Frame, Vec<u8>) {
        match rng.next_u64() % 3 {
            0 => {
                let (world, rank) = (rng.next_u64() as u32, rng.next_u64() as u32);
                let token = rng.next_u64();
                (
                    Frame::Hello { world, rank, token },
                    encode_hello(world, rank, token),
                )
            }
            1 => {
                let seq = rng.next_u64();
                let payload_crc = rng.next_u64() as u32;
                let payload: Vec<f32> = (0..rng.next_u64() % 64)
                    .map(|_| f32::from_bits(rng.next_u64() as u32))
                    .collect();
                let encoded = encode_data(seq, payload_crc, &payload);
                (
                    Frame::Data {
                        seq,
                        payload_crc,
                        payload,
                    },
                    encoded,
                )
            }
            _ => (Frame::Heartbeat, encode_heartbeat()),
        }
    }
}

fn arb_encoded() -> ArbEncoded {
    ArbEncoded
}

/// A uniformly random byte (the stub's range strategies are half-open, so
/// `0u8..255` would never produce 0xFF — a byte every length prefix and
/// CRC can legitimately contain).
struct AnyByte;

impl Strategy for AnyByte {
    type Value = u8;
    fn generate(&self, rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

/// Frames compared by their wire identity: every field bit-exact, with
/// f32 payloads compared as bits so NaN payloads still count as equal.
fn same_frame(a: &Frame, b: &Frame) -> bool {
    match (a, b) {
        (
            Frame::Data {
                seq: s1,
                payload_crc: c1,
                payload: p1,
            },
            Frame::Data {
                seq: s2,
                payload_crc: c2,
                payload: p2,
            },
        ) => {
            s1 == s2
                && c1 == c2
                && p1.len() == p2.len()
                && p1
                    .iter()
                    .zip(p2)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => a == b,
    }
}

proptest! {
    /// Total over arbitrary garbage: no panic, no runaway allocation.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(AnyByte, 0..512)) {
        let _ = decode_frame(&bytes);
    }

    /// Garbage prepended to a valid frame must not make the decoder skip
    /// ahead and "find" the valid frame — resync is the fabric's job
    /// (it tears the link down), not the decoder's.
    #[test]
    fn decoder_does_not_resync_past_garbage(
        sample in arb_encoded(),
        junk in prop::collection::vec(AnyByte, 1..16),
    ) {
        let (frame, encoded) = sample;
        let mut stream = junk;
        stream.extend_from_slice(&encoded);
        if let Ok(Some((decoded, _))) = decode_frame(&stream) {
            // If something decoded out of the damaged stream it must not
            // masquerade as the frame that was actually sent.
            prop_assert!(!same_frame(&decoded, &frame));
        }
    }

    /// Every proper prefix of a valid encoding reads as "incomplete".
    #[test]
    fn truncation_always_asks_for_more(sample in arb_encoded(), cut in 0usize..1000) {
        let (_frame, encoded) = sample;
        let cut = cut % encoded.len(); // proper prefix: 0..len-1 bytes
        prop_assert_eq!(decode_frame(&encoded[..cut]), Ok(None));
    }

    /// A round trip is exact and consumes exactly the encoding.
    #[test]
    fn roundtrip_is_exact(sample in arb_encoded()) {
        let (frame, encoded) = sample;
        let (decoded, used) = decode_frame(&encoded)
            .expect("valid encoding decodes")
            .expect("complete encoding is not a prefix");
        prop_assert_eq!(used, encoded.len());
        prop_assert!(same_frame(&decoded, &frame));
    }

    /// A single flipped bit anywhere in the frame never yields the
    /// original frame back as a clean decode. Flips in the body or CRC
    /// are caught by the frame CRC; flips in the length prefix change
    /// what window the CRC covers (or stall the decoder), so nothing
    /// that still decodes can equal what was sent.
    #[test]
    fn bit_flip_never_decodes_clean(sample in arb_encoded(), pos in 0usize..4096, bit in 0u8..8) {
        let (frame, encoded) = sample;
        let pos = pos % encoded.len();
        let mut damaged = encoded.clone();
        damaged[pos] ^= 1 << bit;
        // Rejection outright or a stall waiting for bytes that will never
        // come are both safe outcomes for the fabric; only a clean decode
        // of the original frame would be silent corruption.
        if let Ok(Some((decoded, _))) = decode_frame(&damaged) {
            prop_assert!(!same_frame(&decoded, &frame));
        }
    }
}
