//! Sharded training-state checkpoints.
//!
//! ZeRO makes checkpointing naturally *sharded*: under stages 1–3 each
//! rank owns a disjoint 1/N_d partition of the fp32 master parameters and
//! optimizer states, so each rank persists only its own shard — N_d files
//! that together hold exactly one copy of the training state, instead of
//! N_d redundant full copies. This mirrors how DeepSpeed stores ZeRO
//! checkpoints. A shard records the partition it belongs to — the unit
//! table and owner count of the per-unit [`Partitioner`] — so any set can
//! be reassembled and re-split without the model at hand.
//!
//! The format is a small self-describing binary layout (no external
//! serialization dependency): a magic/version header followed by
//! length-prefixed little-endian sections, closed by a CRC32 over
//! everything after the version field. The trailing checksum makes three
//! failure modes distinguishable on load:
//!
//! * **not a snapshot** — wrong magic or version ([`SnapshotError::BadMagic`],
//!   [`SnapshotError::UnsupportedVersion`]);
//! * **torn write** — the file ends mid-section, e.g. a rank died while
//!   checkpointing ([`SnapshotError::Torn`]);
//! * **bit rot** — the file is complete but its payload was altered after
//!   the fact ([`SnapshotError::ChecksumMismatch`]).

use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use zero_comm::Crc32;

use crate::partition::Partitioner;

const MAGIC: &[u8; 8] = b"ZEROSNAP";
/// 4: linear weights `[in, out]`; 3 held them `[out, in]`; 2 had one flat range.
const VERSION: u32 = 4;

/// Why a snapshot failed to load (or a set failed validation).
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The file is a snapshot, but from an incompatible format version.
    UnsupportedVersion(u32),
    /// The file ends mid-section: a torn or truncated write (the writer
    /// died part-way through). Distinct from [`SnapshotError::BadMagic`]
    /// so recovery code can tell "garbage file" from "interrupted save".
    Torn,
    /// The payload is complete but its CRC32 does not match the recorded
    /// one: silent corruption after the write.
    ChecksumMismatch {
        /// CRC recorded in the file.
        declared: u32,
        /// CRC recomputed over the payload as read.
        actual: u32,
    },
    /// A section header requests an absurd allocation (corrupt length), or
    /// a record carries a variant tag no writer produces.
    ImplausibleLength(u64),
    /// Snapshots in a set disagree with each other (step or world size) —
    /// they cannot all come from the same consistent checkpoint.
    Inconsistent(String),
    /// Any other I/O failure (permissions, missing file, …).
    Io(io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad magic: not a snapshot file"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Torn => {
                write!(f, "torn snapshot: file ends mid-section (interrupted write)")
            }
            SnapshotError::ChecksumMismatch { declared, actual } => write!(
                f,
                "snapshot checksum mismatch: file declares {declared:#010x}, payload hashes to {actual:#010x}"
            ),
            SnapshotError::ImplausibleLength(len) => {
                write!(f, "implausible section length or tag {len}")
            }
            SnapshotError::Inconsistent(why) => write!(f, "inconsistent snapshot set: {why}"),
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        // `read_exact` hitting EOF mid-field is how truncation manifests.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Torn
        } else {
            SnapshotError::Io(e)
        }
    }
}

impl From<SnapshotError> for io::Error {
    fn from(e: SnapshotError) -> io::Error {
        match e {
            SnapshotError::Io(e) => e,
            SnapshotError::Torn => io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()),
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The one on-disk codec of this crate (snapshot shards, worker specs,
/// rank results): little-endian fixed-width words, byte strings and f32
/// slices length-prefixed, every byte folded into a CRC32 that
/// [`SectionWriter::finish`] appends as the file's trailer.
pub(crate) struct SectionWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> SectionWriter<W> {
    pub(crate) fn new(inner: W) -> SectionWriter<W> {
        SectionWriter { inner, crc: Crc32::new() }
    }

    /// Fixed-width bytes, no length prefix.
    pub(crate) fn raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.inner.write_all(bytes)
    }

    pub(crate) fn u64(&mut self, v: u64) -> io::Result<()> {
        self.raw(&v.to_le_bytes())
    }

    pub(crate) fn bytes(&mut self, data: &[u8]) -> io::Result<()> {
        self.u64(data.len() as u64)?;
        self.raw(data)
    }

    pub(crate) fn f32s(&mut self, data: &[f32]) -> io::Result<()> {
        self.u64(data.len() as u64)?;
        // Chunked copy through a fixed buffer: no giant intermediate Vec<u8>.
        let mut buf = [0u8; 4096];
        for chunk in data.chunks(1024) {
            let bytes = &mut buf[..chunk.len() * 4];
            for (i, v) in chunk.iter().enumerate() {
                bytes[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
            self.raw(bytes)?;
        }
        Ok(())
    }

    /// Closes the payload with its CRC32.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.inner.write_all(&self.crc.finish().to_le_bytes())
    }
}

/// Reads what a [`SectionWriter`] wrote. A file that ends mid-field is
/// [`SnapshotError::Torn`], a length (or, in `procworld`'s records, a tag)
/// no writer produces is [`SnapshotError::ImplausibleLength`], and
/// [`SectionReader::finish`] turns any other damage into
/// [`SnapshotError::ChecksumMismatch`].
pub(crate) struct SectionReader<R: Read> {
    inner: R,
    crc: Crc32,
}

impl<'a> SectionReader<&'a [u8]> {
    /// A reader over the payload of an in-memory record whose trailer has
    /// already been checked, so nothing is decoded from damaged bytes.
    pub(crate) fn verified(record: &'a [u8]) -> Result<Self, SnapshotError> {
        let split = record.len().checked_sub(4).ok_or(SnapshotError::Torn)?;
        let (payload, trailer) = record.split_at(split);
        let mut whole = SectionReader::new(trailer);
        whole.crc.update(payload);
        whole.finish()?;
        Ok(SectionReader::new(payload))
    }
}

impl<R: Read> SectionReader<R> {
    fn new(inner: R) -> SectionReader<R> {
        SectionReader { inner, crc: Crc32::new() }
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), SnapshotError> {
        self.inner.read_exact(buf)?;
        self.crc.update(buf);
        Ok(())
    }

    /// Fixed-width bytes, no length prefix.
    pub(crate) fn raw<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut a = [0u8; N];
        self.fill(&mut a)?;
        Ok(a)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.raw()?))
    }

    /// A length no larger than `max`, about to be allocated for (a corrupt
    /// header must not request an absurd allocation).
    fn bounded(&mut self, max: u64) -> Result<usize, SnapshotError> {
        match self.u64()? {
            v if v <= max => Ok(v as usize),
            v => Err(SnapshotError::ImplausibleLength(v)),
        }
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let mut out = vec![0u8; self.bounded(1 << 20)?];
        self.fill(&mut out)?;
        Ok(out)
    }

    pub(crate) fn f32s(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let len = self.bounded(1 << 34)?;
        // Grows with the data actually present, not the declared length.
        let mut out = Vec::with_capacity(len.min(1 << 20));
        let mut buf = [0u8; 4096];
        while out.len() < len {
            let bytes = &mut buf[..(len - out.len()).min(1024) * 4];
            self.fill(bytes)?;
            out.extend(bytes.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])));
        }
        Ok(out)
    }

    /// Verifies the CRC32 trailer against everything read.
    pub(crate) fn finish(&mut self) -> Result<(), SnapshotError> {
        let actual = self.crc.finish();
        let declared = u32::from_le_bytes(self.raw()?);
        if declared != actual {
            return Err(SnapshotError::ChecksumMismatch { declared, actual });
        }
        Ok(())
    }
}

/// Everything one rank needs to resume training.
#[derive(Clone, Debug, PartialEq)]
pub struct RankSnapshot {
    /// Global rank that wrote the shard.
    pub rank: u32,
    /// World size at save time (resume requires the same grid).
    pub world: u32,
    /// Optimizer steps taken.
    pub step: u64,
    /// The partition the master shard belongs to: the element count of
    /// every layout unit, in flat order, each split over `owners` (1: a
    /// full DDP replica); this shard is owner `owner`'s.
    pub units: Vec<u64>,
    pub owners: u32,
    pub owner: u32,
    /// fp32 master parameters (full buffer under DDP, shard otherwise).
    pub master: Vec<f32>,
    /// Adam moments, or SGD velocity in `opt_m` with `opt_v` empty, or
    /// both empty for stateless SGD.
    pub opt_m: Vec<f32>,
    pub opt_v: Vec<f32>,
    /// Optimizer step counter (Adam's bias-correction t).
    pub opt_t: u64,
    /// Loss-scaler state, if mixed precision: (scale, good_steps, skipped).
    pub scaler: Option<(f32, u32, u64)>,
}

impl RankSnapshot {
    /// The conventional shard filename inside a checkpoint directory.
    pub fn path_for(dir: &Path, rank: usize) -> PathBuf {
        dir.join(format!("rank_{rank:05}.zero"))
    }

    /// Serializes to a writer. Everything after the version field is
    /// covered by a trailing CRC32.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        let mut w = SectionWriter::new(w);
        w.raw(&self.rank.to_le_bytes())?;
        w.raw(&self.world.to_le_bytes())?;
        w.u64(self.step)?;
        w.u64(self.units.len() as u64)?;
        for &len in &self.units {
            w.u64(len)?;
        }
        w.raw(&self.owners.to_le_bytes())?;
        w.raw(&self.owner.to_le_bytes())?;
        w.f32s(&self.master)?;
        w.f32s(&self.opt_m)?;
        w.f32s(&self.opt_v)?;
        w.u64(self.opt_t)?;
        match self.scaler {
            Some((scale, good, skipped)) => {
                w.raw(&[1u8])?;
                w.raw(&scale.to_le_bytes())?;
                w.raw(&good.to_le_bytes())?;
                w.u64(skipped)?;
            }
            None => w.raw(&[0u8])?,
        }
        w.finish()
    }

    /// Deserializes from a reader, verifying the payload checksum.
    pub fn read_from<R: Read>(r: &mut R) -> Result<RankSnapshot, SnapshotError> {
        let mut magic = [0u8; 8];
        match r.read_exact(&mut magic) {
            Ok(()) => {}
            // An empty or sub-8-byte file cannot even be identified.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(SnapshotError::BadMagic)
            }
            Err(e) => return Err(SnapshotError::Io(e)),
        }
        if &magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut version = [0u8; 4];
        r.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let mut r = SectionReader::new(r);
        let snapshot = RankSnapshot {
            rank: u32::from_le_bytes(r.raw()?),
            world: u32::from_le_bytes(r.raw()?),
            step: r.u64()?,
            units: (0..r.bounded(1 << 20)?).map(|_| r.u64()).collect::<Result<_, _>>()?,
            owners: u32::from_le_bytes(r.raw()?),
            owner: u32::from_le_bytes(r.raw()?),
            master: r.f32s()?,
            opt_m: r.f32s()?,
            opt_v: r.f32s()?,
            opt_t: r.u64()?,
            scaler: if r.raw::<1>()? == [1] {
                Some((f32::from_le_bytes(r.raw()?), u32::from_le_bytes(r.raw()?), r.u64()?))
            } else {
                None
            },
        };
        r.finish()?;
        Ok(snapshot)
    }

    /// Writes this shard into `dir` (created if missing).
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_for(dir, self.rank as usize);
        let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
        self.write_to(&mut f)?;
        f.flush()?;
        Ok(path)
    }

    /// The flat ranges `master` covers, in order.
    ///
    /// # Errors
    /// [`SnapshotError::Inconsistent`] if the recorded partition has no
    /// such owner or does not match the shard's length.
    pub fn flat_ranges(&self) -> Result<Vec<Range<usize>>, SnapshotError> {
        let (owners, owner) = (self.owners as usize, self.owner as usize);
        // A table no training run writes is refused before it is built.
        let total = self.units.iter().try_fold(0u64, |sum, &len| sum.checked_add(len));
        if owner >= owners || owners > 1 << 16 || total.is_none_or(|t| t > 1 << 40) {
            return Err(SnapshotError::Inconsistent(format!(
                "shard of owner {owner} among {owners} owners of {} units",
                self.units.len()
            )));
        }
        let part = Partitioner::from_lens(&self.unit_lens(), owners);
        let ranges = part.flat_ranges(owner, 0..part.counts()[owner]);
        let held: usize = ranges.iter().map(|r| r.len()).sum();
        if held != self.master.len() {
            return Err(SnapshotError::Inconsistent(format!(
                "owner {owner}'s shard has {held} elements but the snapshot holds {}",
                self.master.len()
            )));
        }
        Ok(ranges)
    }

    fn unit_lens(&self) -> Vec<usize> {
        self.units.iter().map(|&len| len as usize).collect()
    }

    /// Loads rank `rank`'s shard from `dir`.
    pub fn load(dir: &Path, rank: usize) -> Result<RankSnapshot, SnapshotError> {
        let mut f = io::BufReader::new(std::fs::File::open(Self::path_for(dir, rank))?);
        RankSnapshot::read_from(&mut f)
    }

    /// Loads all `world` shards of a checkpoint directory and verifies
    /// they form one consistent cut (see [`validate_consistent`]).
    pub fn load_all(dir: &Path, world: usize) -> Result<Vec<RankSnapshot>, SnapshotError> {
        let snaps: Vec<RankSnapshot> = (0..world)
            .map(|r| RankSnapshot::load(dir, r))
            .collect::<Result<_, _>>()?;
        validate_consistent(&snaps)?;
        Ok(snaps)
    }
}

/// Cross-rank consistency check: every shard of a checkpoint must record
/// the same step, world size, optimizer clock and unit table. A set that
/// fails this mixes cuts from different moments or models — resuming from
/// it would silently diverge, so it is rejected up front.
pub fn validate_consistent(snaps: &[RankSnapshot]) -> Result<(), SnapshotError> {
    let first = match snaps.first() {
        Some(s) => s,
        None => return Err(SnapshotError::Inconsistent("empty snapshot set".into())),
    };
    for s in snaps {
        if s.step != first.step {
            return Err(SnapshotError::Inconsistent(format!(
                "rank {} is at step {} but rank {} is at step {}",
                first.rank, first.step, s.rank, s.step
            )));
        }
        if s.world != first.world {
            return Err(SnapshotError::Inconsistent(format!(
                "rank {} believes world={} but rank {} believes world={}",
                first.rank, first.world, s.rank, s.world
            )));
        }
        if s.units != first.units {
            return Err(SnapshotError::Inconsistent(format!(
                "ranks {} and {} record different unit tables",
                first.rank, s.rank
            )));
        }
        if s.opt_t != first.opt_t {
            return Err(SnapshotError::Inconsistent(format!(
                "optimizer clock differs: rank {} at t={} vs rank {} at t={}",
                first.rank, first.opt_t, s.rank, s.opt_t
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RankSnapshot {
        RankSnapshot {
            rank: 3,
            world: 8,
            step: 1234,
            units: vec![400, 400],
            owners: 8,
            owner: 3,
            master: (0..100).map(|i| i as f32 * 0.5 - 3.0).collect(),
            opt_m: (0..100).map(|i| (i as f32).sin()).collect(),
            opt_v: (0..100).map(|i| (i as f32).cos().abs()).collect(),
            opt_t: 1234,
            scaler: Some((2048.0, 17, 5)),
        }
    }

    #[test]
    fn round_trip_through_memory() {
        let snap = sample();
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        let back = RankSnapshot::read_from(&mut &buf[..]).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn round_trip_without_scaler() {
        let snap = RankSnapshot {
            scaler: None,
            opt_v: Vec::new(),
            ..sample()
        };
        let mut buf = Vec::new();
        snap.write_to(&mut buf).unwrap();
        let back = RankSnapshot::read_from(&mut &buf[..]).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("zero-snap-test-{}", std::process::id()));
        let snap = sample();
        let path = snap.save(&dir).unwrap();
        assert!(path.exists());
        let back = RankSnapshot::load(&dir, 3).unwrap();
        assert_eq!(snap, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf[0] = b'X';
        let err = RankSnapshot::read_from(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic), "got {err}");
    }

    #[test]
    fn unsupported_version_named_in_error() {
        // Version 2 recorded one flat shard range and version 3 held the
        // linear weights `[out, in]`: refused by number, never transposed.
        for old in [1u32, 2, 3] {
            let mut buf = Vec::new();
            sample().write_to(&mut buf).unwrap();
            buf[8..12].copy_from_slice(&old.to_le_bytes());
            let err = RankSnapshot::read_from(&mut &buf[..]).unwrap_err();
            assert!(matches!(err, SnapshotError::UnsupportedVersion(v) if v == old), "got {err}");
        }
    }

    #[test]
    fn torn_file_is_distinct_from_bad_magic() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = RankSnapshot::read_from(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Torn), "got {err}");
    }

    #[test]
    fn every_flipped_payload_byte_is_caught() {
        // Flip one byte at a time across a sample of payload offsets: the
        // checksum must catch each one (CRC32 detects all 1-byte errors).
        let mut clean = Vec::new();
        sample().write_to(&mut clean).unwrap();
        let payload = 12..clean.len() - 4; // after magic+version, before crc
        for pos in payload.step_by(97).chain([12, clean.len() - 5]) {
            let mut buf = clean.clone();
            buf[pos] ^= 0x10;
            let err = RankSnapshot::read_from(&mut &buf[..])
                .expect_err("corrupted snapshot must not load");
            assert!(
                matches!(
                    err,
                    SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::ImplausibleLength(_)
                        | SnapshotError::Torn
                ),
                "byte {pos}: got {err}"
            );
        }
    }

    #[test]
    fn flipped_crc_trailer_is_caught_too() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = RankSnapshot::read_from(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }), "got {err}");
    }

    #[test]
    fn inconsistent_sets_rejected() {
        let a = sample();
        let mut b = sample();
        b.rank = 4;
        b.step += 1;
        let err = validate_consistent(&[a.clone(), b]).unwrap_err();
        assert!(matches!(err, SnapshotError::Inconsistent(_)), "got {err}");
        assert!(validate_consistent(&[a.clone(), a]).is_ok());
    }
}

/// Reassembles flat parameter space from shard pieces `(ranges, values)`:
/// the pieces either all cover the same ranges (DDP replicas; the first is
/// used) or tile `0..Σ len` without gap or overlap, in any order. The one
/// assembler behind [`reshard`], [`export_inference_shards`] and
/// [`crate::TrainReport::gather_master_mp1`].
pub(crate) fn assemble_flat(pieces: Vec<(Vec<Range<usize>>, &[f32])>) -> Result<Vec<f32>, SnapshotError> {
    let replicas = pieces.windows(2).all(|w| w[0].0 == w[1].0);
    let mut runs: Vec<(Range<usize>, &[f32])> = Vec::new();
    for (ranges, values) in pieces.iter().take(if replicas { 1 } else { pieces.len() }) {
        let mut at = 0;
        for r in ranges {
            runs.push((r.clone(), values.get(at..at + r.len()).unwrap_or_default()));
            at += r.len();
        }
    }
    runs.sort_by_key(|(range, _)| range.start);
    let mut flat = Vec::new();
    for (range, values) in runs {
        if range.start != flat.len() || values.len() != range.len() {
            return Err(SnapshotError::Inconsistent(format!(
                "a shard holds {} values for [{}, {}) but the space is covered to {}",
                values.len(),
                range.start,
                range.end,
                flat.len()
            )));
        }
        flat.extend_from_slice(values);
    }
    Ok(flat)
}

/// `field` of a consistent snapshot set over the whole flat space — empty
/// when no shard keeps it (plain SGD keeps no moment, SGD-momentum one).
fn assemble_field(snapshots: &[RankSnapshot], field: fn(&RankSnapshot) -> &[f32]) -> Result<Vec<f32>, SnapshotError> {
    if snapshots.iter().all(|s| field(s).is_empty()) {
        return Ok(Vec::new());
    }
    let pieces = snapshots.iter().map(|s| Ok((s.flat_ranges()?, field(s)))).collect::<Result<_, SnapshotError>>()?;
    let flat = assemble_flat(pieces)?;
    let total: u64 = snapshots[0].units.iter().sum();
    if flat.len() as u64 != total {
        return Err(SnapshotError::Inconsistent(format!(
            "the unit table covers {total} elements but the shards hold {}",
            flat.len()
        )));
    }
    Ok(flat)
}

/// Reshards a complete set of rank snapshots onto a different DP degree —
/// elastic resume: train on N ranks, continue on M.
///
/// Input snapshots must be one consistent cut ([`validate_consistent`])
/// that tiles the flat parameter space (stages 1–3) or replicates it
/// (DDP). Output shards re-split every unit of the recorded table over
/// `new_world` owners — the per-unit [`Partitioner`] layout — moments
/// travelling with their parameters. The loss-scaler state is taken from
/// owner 0's shard.
///
/// # Errors
/// [`SnapshotError::Inconsistent`] if `new_world` is zero, the set is not
/// one cut, or its shards leave a gap, overlap, or mix optimizer kinds.
pub fn reshard(
    snapshots: &[RankSnapshot],
    new_world: usize,
) -> Result<Vec<RankSnapshot>, SnapshotError> {
    if new_world == 0 {
        return Err(SnapshotError::Inconsistent("world size must be positive".into()));
    }
    validate_consistent(snapshots)?;
    let first = snapshots.iter().min_by_key(|s| s.owner).expect("validated non-empty");
    let master = assemble_field(snapshots, |s| &s.master)?;
    let (opt_m, opt_v) = (assemble_field(snapshots, |s| &s.opt_m)?, assemble_field(snapshots, |s| &s.opt_v)?);
    let part = Partitioner::from_lens(&first.unit_lens(), new_world);
    Ok((0..new_world)
        .map(|r| {
            let ranges = part.flat_ranges(r, 0..part.counts()[r]);
            // An absent moment stays empty on every shard.
            let pick = |v: &[f32]| ranges.iter().flat_map(|x| v.get(x.clone()).unwrap_or_default()).copied().collect();
            RankSnapshot {
                rank: r as u32,
                world: new_world as u32,
                step: first.step,
                units: first.units.clone(),
                owners: new_world as u32,
                owner: r as u32,
                master: pick(&master),
                opt_m: pick(&opt_m),
                opt_v: pick(&opt_v),
                opt_t: first.opt_t,
                scaler: first.scaler,
            }
        })
        .collect())
}

/// Exports a training checkpoint's fp32 master parameters as *inference*
/// shards for a serving world of `serve_world` ranks — the stage-3 idea
/// (§5.3) applied to serving: each serving rank persists only `Ψ/N`
/// parameters and all-gathers layers on demand.
///
/// Serving shards are contiguous flat ranges ([`Partitioner::new`]), not
/// training's per-unit ones; optimizer and scaler state stay behind
/// (inference needs none of it). A serving frontend loads checkpoints that
/// may be foreign or damaged, and gets the same typed errors as
/// [`reshard`]. Shard `r` of the result is exactly what serving rank `r`
/// hosts.
pub fn export_inference_shards(
    snapshots: &[RankSnapshot],
    serve_world: usize,
) -> Result<Vec<Vec<f32>>, SnapshotError> {
    if serve_world == 0 {
        return Err(SnapshotError::Inconsistent("world size must be positive".into()));
    }
    validate_consistent(snapshots)?;
    let master = assemble_field(snapshots, |s| &s.master)?;
    let part = Partitioner::new(master.len(), serve_world);
    Ok((0..serve_world).map(|r| master[part.shard_range(r)].to_vec()).collect())
}

/// Owner `owner`'s shard of units `units` split `owners` ways, every value
/// its flat index (moments 10× and 100× it), at step `step`.
#[cfg(test)]
pub(crate) fn test_shard(owner: u32, owners: u32, units: &[u64], step: u64) -> RankSnapshot {
    let part = Partitioner::from_lens(&units.iter().map(|&u| u as usize).collect::<Vec<_>>(), owners as usize);
    let flat: Vec<f32> = part.flat_ranges(owner as usize, 0..part.counts()[owner as usize]).into_iter().flatten().map(|i| i as f32).collect();
    RankSnapshot {
        rank: owner,
        world: owners,
        step,
        units: units.to_vec(),
        owners,
        owner,
        opt_m: flat.iter().map(|v| v * 10.0).collect(),
        opt_v: flat.iter().map(|v| v * 100.0).collect(),
        master: flat,
        opt_t: step,
        scaler: Some((64.0, 3, 1)),
    }
}

#[cfg(test)]
mod export_tests {
    use super::*;

    const UNITS: [u64; 3] = [40, 30, 30];

    #[test]
    fn serving_shards_are_contiguous_and_tile_the_master() {
        let snaps: Vec<_> = (0..3).map(|o| test_shard(o, 3, &UNITS, 11)).collect();
        let out = export_inference_shards(&snaps, 4).unwrap();
        assert_eq!(out.len(), 4);
        let want: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert_eq!(out.concat(), want, "export must reassemble bitwise");
        let part = Partitioner::new(100, 4);
        for (r, s) in out.iter().enumerate() {
            assert_eq!(s.len(), part.shard_range(r).len());
        }
    }

    #[test]
    fn ddp_replicas_export_from_one_copy() {
        let snaps = vec![test_shard(0, 1, &UNITS, 11), RankSnapshot { rank: 1, ..test_shard(0, 1, &UNITS, 11) }];
        let out = export_inference_shards(&snaps, 2).unwrap();
        assert_eq!(out.concat().len(), 100);
    }

    #[test]
    fn gaps_are_a_typed_error_not_a_panic() {
        let snaps = vec![test_shard(0, 3, &UNITS, 11), test_shard(2, 3, &UNITS, 11)];
        let err = export_inference_shards(&snaps, 2).unwrap_err();
        assert!(matches!(err, SnapshotError::Inconsistent(_)), "got {err}");
        let err = export_inference_shards(&snaps, 0).unwrap_err();
        assert!(matches!(err, SnapshotError::Inconsistent(_)), "got {err}");
        // An owner outside its partition, an absurd owner count or unit
        // table, or a shard of the wrong length.
        let stray = RankSnapshot { owner: 3, ..test_shard(0, 3, &UNITS, 11) };
        let crowd = RankSnapshot { owners: u32::MAX, ..test_shard(0, 3, &UNITS, 11) };
        let vast = RankSnapshot { units: vec![u64::MAX, 1], ..test_shard(0, 1, &UNITS, 11) };
        let short = RankSnapshot { master: vec![0.0; 3], ..test_shard(0, 1, &UNITS, 11) };
        for snaps in [vec![stray], vec![crowd], vec![vast], vec![short]] {
            let err = export_inference_shards(&snaps, 1).unwrap_err();
            assert!(matches!(err, SnapshotError::Inconsistent(_)), "got {err}");
        }
    }

    #[test]
    fn mixed_step_sets_rejected() {
        let err = export_inference_shards(&[test_shard(0, 2, &UNITS, 11), test_shard(1, 2, &UNITS, 12)], 2).unwrap_err();
        assert!(matches!(err, SnapshotError::Inconsistent(_)), "got {err}");
    }
}

#[cfg(test)]
mod reshard_tests {
    use super::*;

    const UNITS: [u64; 3] = [40, 30, 30];

    /// Every value of every shard sits at its flat index.
    fn placed(snaps: &[RankSnapshot]) -> Vec<f32> {
        let mut flat = vec![f32::NAN; 100];
        for s in snaps {
            let values = s.flat_ranges().unwrap().into_iter().flatten().zip(&s.master);
            values.for_each(|(i, v)| flat[i] = *v);
        }
        flat
    }

    #[test]
    fn two_to_three_resplits_every_unit() {
        let snaps = vec![test_shard(0, 2, &UNITS, 7), test_shard(1, 2, &UNITS, 7)];
        let out = reshard(&snaps, 3).unwrap();
        assert_eq!(out.len(), 3);
        for (r, s) in out.iter().enumerate() {
            assert_eq!((s.world, s.owners, s.owner, s.step), (3, 3, r as u32, 7));
            assert_eq!(s.scaler, Some((64.0, 3, 1)));
            // Moments travel with their parameters, and every shard is the
            // per-unit one a fresh three-rank run would hold.
            let fresh = test_shard(r as u32, 3, &UNITS, 7);
            assert_eq!((&s.master, &s.opt_m, &s.opt_v), (&fresh.master, &fresh.opt_m, &fresh.opt_v));
        }
        let want: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert_eq!(placed(&out), want);
    }

    #[test]
    fn ddp_replicas_reshard_from_one_copy() {
        let snaps = vec![test_shard(0, 1, &UNITS, 7), RankSnapshot { rank: 1, ..test_shard(0, 1, &UNITS, 7) }];
        let out = reshard(&snaps, 4).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out.iter().map(|s| s.master.len()).sum::<usize>(), 100);
        assert_eq!(placed(&out)[99], 99.0);
    }

    #[test]
    fn reshard_to_one_concatenates() {
        let snaps = vec![test_shard(0, 2, &UNITS, 7), test_shard(1, 2, &UNITS, 7)];
        let out = reshard(&snaps, 1).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].master, (0..100).map(|i| i as f32).collect::<Vec<_>>());
        assert_eq!(out[0].flat_ranges().unwrap(), vec![0..100]);
    }

    #[test]
    fn gaps_rejected() {
        let shard = |o| test_shard(o, 3, &UNITS, 7);
        let gap = vec![shard(0), shard(2)];
        let overlap = vec![shard(0), shard(1), shard(1), RankSnapshot { rank: 2, ..shard(1) }];
        let late = RankSnapshot { step: 8, ..shard(1) };
        let other_model = RankSnapshot { units: vec![50, 50], ..shard(1) };
        for snaps in [gap, overlap, vec![shard(0), late, shard(2)], vec![shard(0), other_model], Vec::new()] {
            let err = reshard(&snaps, 2).unwrap_err();
            assert!(matches!(err, SnapshotError::Inconsistent(_)), "got {err}");
        }
        let err = reshard(&[test_shard(0, 1, &UNITS, 7)], 0).unwrap_err();
        assert!(matches!(err, SnapshotError::Inconsistent(_)), "got {err}");
    }
}

#[cfg(test)]
mod corrupt_tests {
    use super::*;

    #[test]
    fn absurd_section_length_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // rank
        buf.extend_from_slice(&1u32.to_le_bytes()); // world
        buf.extend_from_slice(&0u64.to_le_bytes()); // step
        buf.extend_from_slice(&0u64.to_le_bytes()); // no units
        buf.extend_from_slice(&1u32.to_le_bytes()); // owners
        buf.extend_from_slice(&0u32.to_le_bytes()); // owner
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // master length: absurd
        let err = RankSnapshot::read_from(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::ImplausibleLength(_)), "got {err}");
    }
}
