//! Versioned binary checkpoint codec for architectural state.
//!
//! The warm-up engine (`experiments::runner`) snapshots the complete
//! architectural state of a warmed system — tag arrays, d-group contents,
//! LRU orders, forward/reverse pointers, RNG streams — so later runs that
//! share a warm-up configuration can restore it instead of re-warming.
//! Those snapshots live on disk across processes, which makes them a file
//! format: this module owns the container framing (magic, version,
//! payload length, checksum) and the primitive encoders/decoders, so a
//! truncated write, a corrupted byte, or a snapshot from an older codec
//! version is *detected* rather than silently deserialized into a subtly
//! wrong cache.
//!
//! The container layout, all little-endian:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"SIMCHK\x00\x01"
//!      8     4  version (u32, chosen by the payload's owner)
//!     12     8  payload length (u64)
//!     20     n  payload
//!   20+n    16  FNV-1a-128 checksum of bytes [0, 20+n)
//! ```
//!
//! The checksum reuses the workspace digest hash ([`crate::digest`]): not
//! cryptographic, but it catches every truncation and any realistic bit
//! corruption, and it is already pinned by the digest golden tests.
//!
//! Payload contents are the owner's business; [`Encoder`] / [`Decoder`]
//! provide the primitive layer (u8/u32/u64/bool, length-prefixed u8/u64
//! slices) with every read bounds-checked against [`SnapshotError`].

use crate::digest::Hasher128;
use std::fmt;
use std::io::{self, Write};

/// Container magic: "SIMCHK" plus a two-byte layout revision.
pub const MAGIC: [u8; 8] = *b"SIMCHK\x00\x01";

/// Bytes of framing around a payload (magic + version + length + checksum).
pub const OVERHEAD: usize = 8 + 4 + 8 + 16;

/// Why a snapshot failed to open or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the declared content did.
    Truncated,
    /// The container does not start with [`MAGIC`].
    BadMagic,
    /// The container's version differs from the expected one.
    VersionMismatch {
        /// Version found in the container.
        found: u32,
        /// Version the reader expected.
        expected: u32,
    },
    /// The stored checksum does not match the recomputed one.
    ChecksumMismatch,
    /// A decoded value violates an invariant (context in the message).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a SIMCHK snapshot"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found}, expected {expected}")
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Wraps `payload` in the versioned, checksummed container.
pub fn seal(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + OVERHEAD);
    seal_to(&mut out, version, payload).expect("writing to a Vec cannot fail");
    out
}

/// Streams the container [`seal`] builds into `w` — header, payload,
/// checksum — without a sealed copy of the payload in memory. The
/// checksum is byte-serial, so hashing each chunk just before writing it
/// gives exactly [`seal`]'s bytes.
///
/// # Errors
///
/// Propagates the first write error; `w` may then hold a partial
/// container.
pub fn seal_to(mut w: impl Write, version: u32, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; 20];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut h = Hasher128::new();
    h.write_bytes(&header);
    w.write_all(&header)?;
    for chunk in payload.chunks(1 << 16) {
        h.write_bytes(chunk);
        w.write_all(chunk)?;
    }
    w.write_all(&h.digest().raw().to_le_bytes())
}

/// Validates a sealed container and returns its payload slice.
///
/// Checks, in order: magic, version, declared length against the actual
/// byte count, and the trailing checksum. The checks are ordered so the
/// most informative error wins — a snapshot from an older codec reports
/// [`SnapshotError::VersionMismatch`], not a checksum failure.
pub fn open(bytes: &[u8], expected_version: u32) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 8 {
        return Err(if bytes == &MAGIC[..bytes.len()] {
            SnapshotError::Truncated
        } else {
            SnapshotError::BadMagic
        });
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < 20 {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != expected_version {
        return Err(SnapshotError::VersionMismatch { found: version, expected: expected_version });
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let Some(total) = len.checked_add(OVERHEAD) else {
        return Err(SnapshotError::Malformed("payload length overflows"));
    };
    if bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    if bytes.len() > total {
        return Err(SnapshotError::Malformed("trailing bytes after checksum"));
    }
    let mut h = Hasher128::new();
    h.write_bytes(&bytes[..20 + len]);
    let stored = u128::from_le_bytes(bytes[20 + len..].try_into().expect("16 bytes"));
    if h.digest().raw() != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(&bytes[20..20 + len])
}

/// [`open`] for an owned container: validates `bytes` exactly as
/// [`open`] does, then strips the header and checksum in place and
/// returns the payload in the same allocation.
///
/// # Errors
///
/// The same [`SnapshotError`] [`open`] reports for these bytes.
pub fn open_owned(mut bytes: Vec<u8>, expected_version: u32) -> Result<Vec<u8>, SnapshotError> {
    let len = open(&bytes, expected_version)?.len();
    bytes.copy_within(20..20 + len, 0);
    bytes.truncate(len);
    Ok(bytes)
}

/// Little-endian primitive writer for snapshot payloads.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `usize` as a `u64` (platform-independent framing).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_u8_slice(&mut self, vs: &[u8]) {
        self.put_len(vs.len());
        self.buf.extend_from_slice(vs);
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_len(vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_len(vs.len());
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed *section*: `fill` populates a nested
    /// encoder, and the nested byte count is framed ahead of its bytes.
    /// A reader that knows the section's layout sub-decodes it with
    /// [`Decoder::section`]; one that doesn't can still skip it, which
    /// is what lets a snapshot owner append optional trailing sections
    /// without breaking older readers. An empty `fill` writes a valid
    /// zero-length section (just the 8-byte length prefix).
    pub fn put_section(&mut self, fill: impl FnOnce(&mut Encoder)) {
        let mut inner = Encoder::new();
        fill(&mut inner);
        self.put_u8_slice(&inner.buf);
    }
}

/// Bounds-checked little-endian reader over a snapshot payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// A decoder over `bytes` (typically the slice [`open`] returned).
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Fails unless every byte was consumed — catches payload/decoder
    /// drift that would otherwise misalign every later field.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed("unconsumed payload bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool byte not 0 or 1")),
        }
    }

    /// Reads a length written by [`Encoder::put_len`], bounds-checked
    /// against the remaining bytes so a corrupt length cannot drive a
    /// huge allocation.
    pub fn len(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        if v > self.bytes.len() as u64 {
            return Err(SnapshotError::Malformed("length exceeds remaining bytes"));
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed byte slice.
    pub fn u8_slice(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.u64()?;
        if n > (self.bytes.len() / 8) as u64 {
            return Err(SnapshotError::Malformed("length exceeds remaining bytes"));
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.u64()?;
        if n > (self.bytes.len() / 4) as u64 {
            return Err(SnapshotError::Malformed("length exceeds remaining bytes"));
        }
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a section written by [`Encoder::put_section`], returning a
    /// sub-decoder over exactly the section's bytes. The outer decoder
    /// advances past the whole section, so calling this and ignoring
    /// the result *skips* it. A zero-length section yields an empty
    /// sub-decoder whose [`Decoder::finish`] succeeds immediately; the
    /// length prefix is bounds-checked like every other length, so a
    /// corrupt prefix fails here rather than overrunning the payload.
    pub fn section(&mut self) -> Result<Decoder<'a>, SnapshotError> {
        let n = self.len()?;
        Ok(Decoder::new(self.take(n)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let payload = b"architectural state".to_vec();
        let sealed = seal(3, &payload);
        assert_eq!(sealed.len(), payload.len() + OVERHEAD);
        assert_eq!(open(&sealed, 3).unwrap(), payload.as_slice());
    }

    #[test]
    fn seal_to_streams_the_sealed_bytes() {
        // Payloads around the chunk size exercise the chunked checksum.
        for len in [0usize, 1, 100, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 << 16] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            let mut streamed = Vec::new();
            seal_to(&mut streamed, 4, &payload).unwrap();
            assert_eq!(streamed, seal(4, &payload), "len {len}");
        }
    }

    #[test]
    fn open_owned_agrees_with_open() {
        let sealed = seal(3, b"architectural state");
        let mut truncated_payload = sealed.clone();
        truncated_payload.truncate(sealed.len() - 1);
        let mut corrupt = sealed.clone();
        corrupt[25] ^= 0x01;
        let mut bad_magic = sealed.clone();
        bad_magic[0] ^= 0xFF;
        let mut trailing = sealed.clone();
        trailing.push(0);
        let mut overflow = sealed.clone();
        overflow[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let cases: Vec<(&str, Vec<u8>, u32)> = vec![
            ("valid", sealed.clone(), 3),
            ("empty payload", seal(3, &[]), 3),
            ("version", sealed.clone(), 4),
            ("bad magic", bad_magic, 3),
            ("not a snapshot", b"not a snapshot at all".to_vec(), 3),
            ("short magic", MAGIC[..5].to_vec(), 3),
            ("cut header", sealed[..10].to_vec(), 3),
            ("cut payload", truncated_payload, 3),
            ("checksum", corrupt, 3),
            ("trailing", trailing, 3),
            ("length overflow", overflow, 3),
        ];
        let mut seen = Vec::new();
        for (what, bytes, version) in cases {
            let want = open(&bytes, version).map(<[u8]>::to_vec);
            let got = open_owned(bytes, version);
            assert_eq!(got, want, "{what}");
            seen.push(got.map(|_| "ok").unwrap_or_else(|e| match e {
                SnapshotError::Truncated => "truncated",
                SnapshotError::BadMagic => "magic",
                SnapshotError::VersionMismatch { .. } => "version",
                SnapshotError::ChecksumMismatch => "checksum",
                SnapshotError::Malformed(_) => "malformed",
            }));
        }
        // Every outcome `open` can report is among the cases.
        for outcome in ["ok", "truncated", "magic", "version", "checksum", "malformed"] {
            assert!(seen.contains(&outcome), "no case reports {outcome}");
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let sealed = seal(1, &[]);
        assert_eq!(open(&sealed, 1).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn version_mismatch_is_reported_with_both_versions() {
        let sealed = seal(2, b"x");
        assert_eq!(
            open(&sealed, 5),
            Err(SnapshotError::VersionMismatch { found: 2, expected: 5 })
        );
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut sealed = seal(1, b"x");
        sealed[0] ^= 0xFF;
        assert_eq!(open(&sealed, 1), Err(SnapshotError::BadMagic));
        assert_eq!(open(b"not a snapshot at all", 1), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn truncation_is_detected_at_every_layer() {
        let sealed = seal(1, b"payload");
        // Cut inside the magic, the header, the payload, the checksum.
        for cut in [4, 10, 22, sealed.len() - 1] {
            assert_eq!(open(&sealed[..cut], 1), Err(SnapshotError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut sealed = seal(1, b"payload bytes");
        sealed[25] ^= 0x01;
        assert_eq!(open(&sealed, 1), Err(SnapshotError::ChecksumMismatch));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut sealed = seal(1, b"x");
        sealed.push(0);
        assert!(matches!(open(&sealed, 1), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn encoder_decoder_primitives_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.put_bool(true);
        e.put_bool(false);
        e.put_u8_slice(&[1, 2, 3]);
        e.put_u64_slice(&[u64::MAX, 0, 42]);
        e.put_u32_slice(&[9, 8]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.u8_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.u64_slice().unwrap(), vec![u64::MAX, 0, 42]);
        assert_eq!(d.u32_slice().unwrap(), vec![9, 8]);
        d.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_short_reads_and_bad_bools() {
        let mut d = Decoder::new(&[1, 2]);
        assert_eq!(d.u64(), Err(SnapshotError::Truncated));
        let mut d = Decoder::new(&[9]);
        assert!(matches!(d.bool(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn corrupt_length_cannot_demand_more_than_remaining() {
        let mut e = Encoder::new();
        e.put_u64_slice(&[1, 2, 3]);
        let mut bytes = e.into_bytes();
        bytes[0] = 0xFF; // claim a huge element count
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.u64_slice(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn unconsumed_bytes_fail_finish() {
        let d = Decoder::new(&[1]);
        assert!(matches!(d.finish(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn sections_roundtrip_and_isolate() {
        let mut e = Encoder::new();
        e.put_section(|s| {
            s.put_u32(7);
            s.put_u8_slice(b"inner");
        });
        e.put_u64(99); // field after the section must stay aligned
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let mut s = d.section().unwrap();
        assert_eq!(s.u32().unwrap(), 7);
        assert_eq!(s.u8_slice().unwrap(), b"inner".to_vec());
        s.finish().unwrap();
        assert_eq!(d.u64().unwrap(), 99);
        d.finish().unwrap();
    }

    #[test]
    fn zero_length_section_is_valid_and_skippable() {
        let mut e = Encoder::new();
        e.put_section(|_| {});
        e.put_section(|s| s.put_u8(0xAB));
        e.put_u32(5);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let empty = d.section().unwrap();
        assert_eq!(empty.remaining(), 0);
        empty.finish().unwrap();
        // Skipping a section without reading it still advances past it.
        let _skipped = d.section().unwrap();
        assert_eq!(d.u32().unwrap(), 5);
        d.finish().unwrap();
    }

    #[test]
    fn section_underconsumption_fails_the_sub_decoder_only() {
        let mut e = Encoder::new();
        e.put_section(|s| s.put_u64(1));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let s = d.section().unwrap();
        // The sub-decoder catches the unread field; the outer decoder
        // already advanced past the whole section regardless.
        assert!(matches!(s.finish(), Err(SnapshotError::Malformed(_))));
        d.finish().unwrap();
    }

    #[test]
    fn corrupt_section_length_is_bounds_checked() {
        let mut e = Encoder::new();
        e.put_section(|s| s.put_u8(1));
        let mut bytes = e.into_bytes();
        bytes[0] = 0xFF; // claim a section far larger than the payload
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.section(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn truncated_section_length_prefix_is_detected() {
        let mut d = Decoder::new(&[0, 0, 0]);
        assert_eq!(d.section().err(), Some(SnapshotError::Truncated));
    }
}
