//! CRC-32 (IEEE 802.3 polynomial) over message and checkpoint payloads.
//!
//! Both the channel fabric (per-message integrity) and `zero-core`'s
//! snapshot format (per-file integrity) use this one implementation, so a
//! bit flipped anywhere in a payload — in flight or at rest — is detected
//! by the same checksum.
//!
//! It is computed 16 bytes per step (slicing-by-16: 16 tables, one lookup
//! per byte, all independent) and byte by byte only for a tail shorter than
//! a step. The values are those of the classic byte-at-a-time loop; the
//! tests keep that loop as their reference and pin known answers.

/// Reflected polynomial for CRC-32/ISO-HDLC (the zlib/ethernet CRC).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `TABLES[0]` is the classic byte table, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes (eight
/// more shifts of `TABLES[k - 1][b]`), so one step folds 16 bytes with 16
/// independent lookups.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut at = 0;
    while at < 16 * 256 {
        let (k, i) = (at / 256, at % 256);
        let mut crc = if k == 0 { i as u32 } else { tables[k - 1][i] };
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[k][i] = crc;
        at += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Folds 16 bytes, given as four little-endian words, into `crc`: byte `j`
/// of the step is looked up in `TABLES[15 - j]`.
#[inline(always)]
fn fold16(crc: u32, words: [u32; 4]) -> u32 {
    let bytes = [words[0] ^ crc, words[1], words[2], words[3]].map(u32::to_le_bytes);
    let lookups = bytes.as_flattened().iter().enumerate().map(|(j, &b)| TABLES[15 - j][b as usize]);
    lookups.fold(0, |acc, t| acc ^ t)
}

/// Folds `bytes` into `crc` one byte at a time: the tail of a step.
fn bytewise(crc: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(crc, |c, &b| (c >> 8) ^ TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize])
}

/// Streaming CRC-32 state, for checksumming data as it is written/read.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum, 16 at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let steps = bytes.chunks_exact(16);
        let tail = steps.remainder();
        let word = |b: &[u8], i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let crc = steps.fold(self.state, |c, b| fold16(c, [word(b, 0), word(b, 4), word(b, 8), word(b, 12)]));
        self.state = bytewise(crc, tail);
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// CRC-32 of an f32 slice, over its little-endian byte image (matching how
/// snapshots serialize floats, so in-flight and at-rest checksums agree).
/// Four floats are one 16-byte step, fed as words without a byte copy.
pub fn crc32_f32s(data: &[f32]) -> u32 {
    let steps = data.chunks_exact(4);
    let tail = steps.remainder();
    let crc = steps.fold(!0, |c, v| fold16(c, [v[0], v[1], v[2], v[3]].map(f32::to_bits)));
    !tail.iter().fold(crc, |c, v| bytewise(c, &v.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer() {
        // CRC-32/ISO-HDLC of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop this module ran before slicing-by-16, kept
    /// as the reference the 16-byte steps are compared against.
    fn reference(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFF_u32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        !state
    }

    #[test]
    fn slicing_by_16_matches_the_bytewise_reference() {
        // Every length up to five steps, from every alignment within one.
        let buf: Vec<u8> = words(96).into_iter().map(|w| w as u8).collect();
        for at in 0..16 {
            for len in 0..=80 {
                let bytes = &buf[at..at + len];
                assert_eq!(crc32(bytes), reference(bytes), "{len} bytes at offset {at}");
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = words(80).into_iter().map(|w| (w >> 8) as u8).collect();
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn f32_crc_matches_byte_crc() {
        let mut floats: Vec<f32> = words(33).into_iter().map(f32::from_bits).collect();
        floats[..4].copy_from_slice(&[1.0, -2.5, 3.25e7, f32::MIN_POSITIVE]);
        for len in 0..=floats.len() {
            let bytes: Vec<u8> = floats[..len].iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(crc32_f32s(&floats[..len]), crc32(&bytes), "{len} floats");
            assert_eq!(crc32_f32s(&floats[..len]), reference(&bytes), "{len} floats");
        }
    }

    /// FNV-1a over the little-endian bytes of `words`: a digest of a table
    /// of known answers that shares no arithmetic with the CRC under test.
    fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
        let bytes = words.into_iter().flat_map(u32::to_le_bytes);
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// `len` deterministic words (xorshift32).
    fn words(len: usize) -> Vec<u32> {
        let mut s = 0x9E37_79B9_u32;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            s
        };
        (0..len).map(|_| next()).collect()
    }

    #[test]
    fn pinned_known_answers() {
        // Computed by the byte-at-a-time implementation: every length up to
        // five 16-byte steps at every start offset within one step, and 1 MiB.
        let buf: Vec<u8> = words(1 << 20).into_iter().map(|w| w as u8).collect();
        let buf = &buf;
        let table = (0..16).flat_map(|at| (0..=80).map(move |len| crc32(&buf[at..at + len])));
        assert_eq!(fnv1a(table), 0xd996_f065_9ca9_2d89);
        assert_eq!(crc32(buf), 0x586e_db66);
        let xs: Vec<f32> = words(98_304).into_iter().map(f32::from_bits).collect();
        assert_eq!(fnv1a((0..=33).map(|len| crc32_f32s(&xs[..len]))), 0x5390_0411_f6d7_43d1);
        assert_eq!(crc32_f32s(&xs), 0x694f_57e5);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0.5f32; 64];
        let clean = crc32_f32s(&data);
        data[17] = f32::from_bits(data[17].to_bits() ^ (1 << 3));
        assert_ne!(clean, crc32_f32s(&data));
    }
}
