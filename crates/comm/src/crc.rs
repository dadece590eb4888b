//! CRC-32 (IEEE 802.3 polynomial) over message and checkpoint payloads.
//!
//! Both the channel fabric (per-message integrity) and `zero-core`'s
//! snapshot format (per-file integrity) use this one implementation, so a
//! bit flipped anywhere in a payload — in flight or at rest — is detected
//! by the same checksum.
//!
//! Input is taken 16 bytes per step, read as four little-endian words
//! (`crc32_f32s` feeds four floats per step the same way, without a byte
//! copy); a tail shorter than a step goes byte by byte. Whole steps are
//! folded by carry-less multiplication (PCLMULQDQ) on an x86-64 CPU that
//! has it and four steps or more to fold: four 128-bit lanes fold 64 bytes
//! per round, then one lane, then a Barrett reduction to 32 bits — ≈ 0.05
//! ns a byte on a 2-core AVX-512F VM (`bench_matmul`'s `crc` row). Every
//! other case takes the one portable fallback, slicing-by-16 (16 tables,
//! one independent lookup per byte, ≈ 0.65 ns a byte). The fold is picked
//! once per process, the way `zero-tensor::isa` picks a tier, and the
//! module's only `unsafe` is the one call into the `#[target_feature]`
//! kernel, made after detection. Every fold returns the values of the
//! classic byte-at-a-time loop; the tests keep that loop as their
//! reference, compare every fold this CPU executes against it, and pin
//! known answers.

use std::sync::OnceLock;

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

/// One 16-byte step of input: 16 bytes, or four floats' little-endian
/// images, read as four little-endian words without a byte copy.
trait Step {
    fn words(&self) -> [u32; 4];
}

impl Step for [u8; 16] {
    #[inline(always)]
    fn words(&self) -> [u32; 4] {
        let x = u128::from_le_bytes(*self);
        [x as u32, (x >> 32) as u32, (x >> 64) as u32, (x >> 96) as u32]
    }
}

impl Step for [f32; 4] {
    #[inline(always)]
    fn words(&self) -> [u32; 4] {
        self.map(f32::to_bits)
    }
}

/// How whole 16-byte steps are folded. Every fold returns the same CRC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fold {
    /// Carry-less multiply (PCLMULQDQ): four steps at a time, from four
    /// steps on.
    #[cfg(target_arch = "x86_64")]
    Clmul,
    /// The slicing-by-16 tables; runs on every target.
    Table16,
}

/// Fastest first; the table fold, last, runs everywhere.
const FOLDS: &[Fold] = &[
    #[cfg(target_arch = "x86_64")]
    Fold::Clmul,
    Fold::Table16,
];

impl Fold {
    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Fold::Clmul => "clmul",
            Fold::Table16 => "table16",
        }
    }

    /// Whether this CPU executes the fold.
    fn detected(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Fold::Clmul => is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"),
            Fold::Table16 => true,
        }
    }

    /// The fold every checksum runs: the first this CPU executes, chosen once.
    fn selected() -> Fold {
        static SELECTED: OnceLock<Fold> = OnceLock::new();
        *SELECTED.get_or_init(|| FOLDS.iter().copied().find(|f| f.detected()).unwrap_or(Fold::Table16))
    }

    /// `crc` advanced over whole `steps`. Fewer than four steps, too few
    /// for the four carry-less lanes, take the table fold.
    ///
    /// # Panics
    /// Panics if this CPU does not execute `self`.
    fn steps<S: Step>(self, crc: u32, steps: &[S]) -> u32 {
        assert!(self.detected(), "the {} CRC fold does not run on this CPU", self.name());
        match self {
            #[cfg(target_arch = "x86_64")]
            Fold::Clmul if steps.len() >= 4 => {
                // SAFETY: `self.detected()` held just above: the CPU has
                // PCLMULQDQ and SSE4.1, and SSE2 is x86-64's baseline.
                unsafe { clmul(crc, steps) }
            }
            _ => steps.iter().fold(crc, |c, s| fold16(c, s.words())),
        }
    }

    /// `crc` advanced over `bytes`: whole steps, then the tail byte by byte.
    fn bytes(self, crc: u32, bytes: &[u8]) -> u32 {
        let (steps, tail) = bytes.as_chunks::<16>();
        bytewise(self.steps(crc, steps), tail)
    }

    /// `crc` advanced over the little-endian image of `data`.
    fn f32s(self, crc: u32, data: &[f32]) -> u32 {
        let (steps, tail) = data.as_chunks::<4>();
        tail.iter().fold(self.steps(crc, steps), |c, v| bytewise(c, &v.to_le_bytes()))
    }
}

/// Folds four or more `steps` into `crc` by carry-less multiplication
/// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ", Intel 2009, with its bit-reflected constants for this
/// polynomial): four lanes fold 64 bytes per round (by x^(512±32) mod P),
/// then fold into one lane, which takes any remaining steps one at a time
/// (by x^(128±32) mod P); the 128-bit remainder falls to 64 bits, and a
/// Barrett reduction to the 32-bit CRC. Callable only on a CPU where
/// `Fold::Clmul.detected()` holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
fn clmul<S: Step>(crc: u32, steps: &[S]) -> u32 {
    use std::arch::x86_64::*;
    let load = |s: &S| {
        let [w0, w1, w2, w3] = s.words().map(|w| w as i32);
        _mm_set_epi32(w3, w2, w1, w0)
    };
    // `x`'s low half times `k`'s low, its high half times `k`'s high, plus `next`.
    let fold = |x, k, next| {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128::<0x11>(x, k), lo), next)
    };
    let (quads, rest) = steps.as_chunks::<4>();
    let (first, quads) = quads.split_first().expect("the carry-less fold takes four steps or more");
    let mut lanes = first.each_ref().map(load);
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
    let by4 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
    for quad in quads {
        lanes = std::array::from_fn(|i| fold(lanes[i], by4, load(&quad[i])));
    }
    let by1 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
    let x = lanes[1..].iter().fold(lanes[0], |x, &lane| fold(x, by1, lane));
    let x = rest.iter().fold(x, |x, s| fold(x, by1, load(s)));
    // 128 → 64 bits, then 64 → 32 + 32 with x^64 mod P.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    let x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, by1));
    let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
    let x = _mm_xor_si128(_mm_srli_si128::<4>(x), _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5));
    // Barrett: P' = 0x1_db71_0641 (the polynomial), mu = 0x1_f701_1641.
    let barrett = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
    let t = _mm_and_si128(_mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett), low32);
    let x = _mm_xor_si128(x, _mm_clmulepi64_si128::<0x00>(t, barrett));
    _mm_extract_epi32::<1>(x) as u32
}

/// The fold the checksum runs on this CPU: `"clmul"` or `"table16"`.
pub fn kernel() -> &'static str {
    Fold::selected().name()
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
        self.state = Fold::selected().bytes(self.state, bytes);
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
    !Fold::selected().f32s(!0, data)
}

/// Hands `data` to `sink` 4 096 floats at a time and returns
/// `crc32_f32s(data)`. Each block is folded right after `sink` has read
/// it, while it is still in L1, so a copy and its checksum are one trip
/// through memory: the fabric's sender copies into the message this way
/// and its receiver copies out of it.
pub fn crc32_f32s_through(data: &[f32], mut sink: impl FnMut(&[f32])) -> u32 {
    let fold = Fold::selected();
    !data.chunks(4096).fold(!0, |crc, block| {
        sink(block);
        fold.f32s(crc, block)
    })
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
    /// as the reference every fold is compared against.
    fn reference(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFF_u32;
        for &b in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        !state
    }

    /// Every fold this CPU executes, each compared against `reference`
    /// below; a fold it does not execute is skipped, and said so.
    fn runnable_folds() -> Vec<Fold> {
        let (run, skip): (Vec<Fold>, Vec<Fold>) = FOLDS.iter().partition(|f| f.detected());
        for fold in skip {
            eprintln!("skipping the {} CRC fold: this CPU does not execute it", fold.name());
        }
        run
    }

    #[test]
    fn every_fold_matches_the_bytewise_reference() {
        // Every length up to 20 steps from every alignment within one: the
        // carry-less fold's 4-step entry and every fold-by-4 remainder.
        let buf: Vec<u8> = words(336).into_iter().map(|w| w as u8).collect();
        for fold in runnable_folds() {
            for at in 0..16 {
                for len in 0..=320 {
                    let bytes = &buf[at..at + len];
                    let got = !fold.bytes(!0, bytes);
                    assert_eq!(got, reference(bytes), "{} over {len} bytes at offset {at}", fold.name());
                }
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = words(200).into_iter().map(|w| (w >> 8) as u8).collect();
        let want = reference(&data);
        for fold in runnable_folds() {
            for split in 0..=data.len() {
                let got = !fold.bytes(fold.bytes(!0, &data[..split]), &data[split..]);
                assert_eq!(got, want, "{} split at {split}", fold.name());
            }
        }
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn f32_crc_matches_byte_crc() {
        let mut floats: Vec<f32> = words(96).into_iter().map(f32::from_bits).collect();
        floats[..4].copy_from_slice(&[1.0, -2.5, 3.25e7, f32::MIN_POSITIVE]);
        for len in 0..=floats.len() {
            let bytes: Vec<u8> = floats[..len].iter().flat_map(|v| v.to_le_bytes()).collect();
            let want = reference(&bytes);
            assert_eq!(crc32_f32s(&floats[..len]), want, "{len} floats");
            assert_eq!(crc32(&bytes), want, "{len} floats as bytes");
            for fold in runnable_folds() {
                assert_eq!(!fold.f32s(!0, &floats[..len]), want, "{} over {len} floats", fold.name());
            }
        }
    }

    #[test]
    fn the_copying_crc_matches_one_shot_and_sees_every_float_once() {
        // Around the 4 096-float block edge, and one float past two blocks.
        for len in [0, 1, 7, 4095, 4096, 4097, 8193] {
            let data: Vec<f32> = words(len).into_iter().map(f32::from_bits).collect();
            let mut copy = Vec::new();
            let crc = crc32_f32s_through(&data, |b| copy.extend_from_slice(b));
            assert_eq!(crc, crc32_f32s(&data), "{len} floats");
            assert_eq!(copy.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), words(len), "{len} floats");
        }
    }

    #[test]
    fn the_selected_fold_is_the_first_this_cpu_executes() {
        let first = FOLDS.iter().find(|f| f.detected()).expect("the table fold runs everywhere");
        assert_eq!(kernel(), first.name());
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
