//! The framed-record codec behind every persisted or transmitted format
//! (DESIGN.md, "Framed records"): the one CRC-32, the body cursor
//! ([`BodyWriter`], [`BodyReader`]), the tags shared by several formats,
//! and two layouts (all integers little-endian):
//!
//! ```text
//! sealed record:          magic u32 | version u16 | body | crc32(all before) u32
//! length-prefixed frame:  magic u32 | len u32 | payload | crc32(payload) u32
//! ```
//!
//! Decoders check length, magic, length bound, CRC and version in that
//! order, report the first defect as a [`FrameError`], and never panic.

use crate::trace::WorkloadType;
use pdn_proc::PackageCState;
use std::fmt;
use std::io::{self, Read};

/// CRC-32 (IEEE 802.3, reflected) — the one checksum of every framed
/// format.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Why a sealed record or a length-prefixed frame was rejected: the
/// defects the two layouts share, in the order they are checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the layout or the declared length needs.
    Truncated,
    /// The leading four bytes are not the expected magic.
    BadMagic(u32),
    /// The declared payload length exceeds the format's bound.
    Oversized(usize),
    /// The CRC-32 trailer does not match the bytes it covers.
    ChecksumMismatch {
        /// CRC carried by the trailer.
        expected: u32,
        /// CRC computed over the covered bytes.
        found: u32,
    },
    /// A sealed record's version this build does not speak.
    Version(u16),
    /// An I/O error from the underlying stream.
    Io(io::ErrorKind),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("truncated"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            FrameError::Oversized(len) => {
                write!(f, "declared length of {len} bytes exceeds the format bound")
            }
            FrameError::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch: trailer {expected:#010x}, content {found:#010x}")
            }
            FrameError::Version(v) => write!(f, "unsupported version {v}"),
            FrameError::Io(kind) => write!(f, "transport error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e.kind())
    }
}

/// Why a body could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The body ended before the field being read.
    Truncated,
    /// An enum discriminant outside the format's range.
    BadTag {
        /// Which field carried the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix exceeding the format's per-field bound.
    BadLength {
        /// Which field carried the length.
        what: &'static str,
        /// The offending length.
        len: usize,
    },
    /// A string field holding invalid UTF-8.
    Utf8,
    /// A value outside its domain (e.g. an efficiency beyond (0, 1]).
    Invalid(&'static str),
    /// Bytes left over after the body was fully decoded.
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            DecodeError::BadLength { what, len } => write!(f, "{what} length {len} out of range"),
            DecodeError::Utf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::Invalid(what) => write!(f, "invalid {what}"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Longest string [`BodyReader::str`] accepts.
pub const MAX_STR: usize = 4096;

/// Append-only body writer. Infallible: bounds are enforced on decode.
#[derive(Debug, Default)]
pub struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    /// A fresh, empty body.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a sealed record: the body written next follows `magic`
    /// and `version`; [`BodyWriter::seal`] closes it.
    #[must_use]
    pub fn sealed(magic: u32, version: u16) -> Self {
        let mut w = Self::new();
        w.u32(magic);
        w.u16(version);
        w
    }

    /// Closes a record started with [`BodyWriter::sealed`] by appending
    /// the CRC-32 of everything written.
    #[must_use]
    pub fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }

    /// Reserves room for at least `additional` more bytes.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// The encoded bytes.
    #[inline]
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(u32::try_from(b.len()).unwrap_or(u32::MAX));
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked body reader. Every accessor fails with a typed
/// [`DecodeError`] instead of panicking.
#[derive(Debug)]
pub struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// Wraps a body slice.
    #[inline]
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads the next `n` bytes as a slice (a fixed-width column).
    #[inline]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.raw(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.raw(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.raw(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(le_u64(self.raw(8)?))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a one-byte tag and maps it through `decode`; a byte it
    /// maps to nothing is [`DecodeError::BadTag`] for field `what`.
    pub fn tag<T>(
        &mut self,
        what: &'static str,
        decode: impl FnOnce(u8) -> Option<T>,
    ) -> Result<T, DecodeError> {
        let tag = self.u8()?;
        decode(tag).ok_or(DecodeError::BadTag { what, tag })
    }

    /// Reads a length-prefixed UTF-8 string (bounded by [`MAX_STR`]).
    pub fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.list_len(what, MAX_STR)?;
        let bytes = self.raw(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Utf8)
    }

    /// Reads length-prefixed raw bytes with an explicit bound.
    pub fn bytes(&mut self, what: &'static str, max: usize) -> Result<Vec<u8>, DecodeError> {
        let len = self.list_len(what, max)?;
        Ok(self.raw(len)?.to_vec())
    }

    /// Reads a list length prefix, bounded by `max`.
    pub fn list_len(&mut self, what: &'static str, max: usize) -> Result<usize, DecodeError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(DecodeError::BadLength { what, len });
        }
        Ok(len)
    }

    /// Asserts the body was fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

/// The byte every format stores a workload type as.
#[must_use]
pub fn workload_tag(wl: WorkloadType) -> u8 {
    match wl {
        WorkloadType::SingleThread => 0,
        WorkloadType::MultiThread => 1,
        WorkloadType::Graphics => 2,
        WorkloadType::BatteryLife => 3,
    }
}

/// The workload type a [`workload_tag`] byte stands for.
#[must_use]
pub fn workload_from_tag(tag: u8) -> Option<WorkloadType> {
    let all = [
        WorkloadType::SingleThread,
        WorkloadType::MultiThread,
        WorkloadType::Graphics,
        WorkloadType::BatteryLife,
    ];
    all.into_iter().find(|&wl| workload_tag(wl) == tag)
}

/// The byte the firmware image and the wire protocol store a package
/// C-state as: its C-state number, 0 for C0MIN.
#[must_use]
pub fn cstate_tag(state: PackageCState) -> u8 {
    match state {
        PackageCState::C0Min => 0,
        PackageCState::C2 => 2,
        PackageCState::C3 => 3,
        PackageCState::C6 => 6,
        PackageCState::C7 => 7,
        PackageCState::C8 => 8,
    }
}

/// The package C-state a [`cstate_tag`] byte stands for.
#[must_use]
pub fn cstate_from_tag(tag: u8) -> Option<PackageCState> {
    PackageCState::ALL.into_iter().find(|&state| cstate_tag(state) == tag)
}

/// The little-endian `u64` words of a fixed-width column read with
/// [`BodyReader::raw`]; a trailing partial word is ignored.
#[inline]
pub fn u64_column(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(le_u64)
}

#[inline]
fn le_u64(b: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&b[..8]);
    u64::from_le_bytes(word)
}

fn le_u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// Checks the leading magic of a record or frame that holds at least
/// `min` bytes: [`FrameError::Truncated`] below `min`, then
/// [`FrameError::BadMagic`].
///
/// # Errors
///
/// The first of those defects found.
pub(crate) fn check_magic(buf: &[u8], min: usize, magic: u32) -> Result<(), FrameError> {
    if buf.len() < min.max(4) {
        return Err(FrameError::Truncated);
    }
    let found = le_u32_at(buf, 0);
    if found != magic {
        return Err(FrameError::BadMagic(found));
    }
    Ok(())
}

/// Bytes a sealed record adds around its body (magic, version, CRC).
const SEALED_OVERHEAD: usize = 10;

/// Checks a whole sealed record — length, magic, CRC, version — and
/// returns a reader over its body.
///
/// # Errors
///
/// The first [`FrameError`] found, in that order.
pub fn open_sealed(record: &[u8], magic: u32, version: u16) -> Result<BodyReader<'_>, FrameError> {
    check_magic(record, SEALED_OVERHEAD, magic)?;
    let (content, trailer) = record.split_at(record.len() - 4);
    check_crc(content, trailer)?;
    let found = u16::from_le_bytes([content[4], content[5]]);
    if found != version {
        return Err(FrameError::Version(found));
    }
    Ok(BodyReader::new(&content[6..]))
}

fn check_crc(covered: &[u8], trailer: &[u8]) -> Result<(), FrameError> {
    let expected = le_u32_at(trailer, 0);
    let found = crc32(covered);
    if expected != found {
        return Err(FrameError::ChecksumMismatch { expected, found });
    }
    Ok(())
}

/// Bytes of a frame head (magic + payload length).
pub const FRAME_HEAD: usize = 8;

/// Bytes a frame adds around its payload (head + CRC).
const FRAME_OVERHEAD: usize = FRAME_HEAD + 4;

/// Wraps `payload` in a complete length-prefixed frame.
#[must_use]
pub fn encode_frame(magic: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&u32::try_from(payload.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// A head that passed [`frame_head`]: which magic, and how long the
/// payload is (at most `u32::MAX`, so the frame length cannot overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHead {
    magic: u32,
    len: usize,
}

impl FrameHead {
    /// The frame's magic.
    #[inline]
    #[must_use]
    pub fn magic(self) -> u32 {
        self.magic
    }

    /// Bytes of the whole frame, head and CRC included.
    #[inline]
    #[must_use]
    pub fn frame_len(self) -> usize {
        FRAME_OVERHEAD + self.len
    }
}

/// Checks the head at the front of `buf` — length, magic, length bound.
/// `bound` maps each accepted magic to its payload bound and every
/// other magic to `None`.
///
/// # Errors
///
/// The first [`FrameError`] found, in that order.
#[inline]
pub fn frame_head(
    buf: &[u8],
    bound: impl Fn(u32) -> Option<usize>,
) -> Result<FrameHead, FrameError> {
    if buf.len() < FRAME_HEAD {
        return Err(FrameError::Truncated);
    }
    let magic = le_u32_at(buf, 0);
    let Some(max) = bound(magic) else {
        return Err(FrameError::BadMagic(magic));
    };
    let len = le_u32_at(buf, 4) as usize;
    if len > max {
        return Err(FrameError::Oversized(len));
    }
    Ok(FrameHead { magic, len })
}

/// Checks the rest of the frame at the front of `buf` whose head is
/// `head` — length, then CRC — and returns its payload.
///
/// # Errors
///
/// [`FrameError::Truncated`] or [`FrameError::ChecksumMismatch`].
#[inline]
pub fn frame_payload(buf: &[u8], head: FrameHead) -> Result<&[u8], FrameError> {
    let Some(frame) = buf.get(..head.frame_len()) else {
        return Err(FrameError::Truncated);
    };
    let (rest, trailer) = frame.split_at(FRAME_HEAD + head.len);
    let payload = &rest[FRAME_HEAD..];
    check_crc(payload, trailer)?;
    Ok(payload)
}

/// The offset of the first four bytes in `buf` that form a magic
/// `bound` accepts — where a reader resynchronises after damage.
#[must_use]
pub fn find_magic(buf: &[u8], bound: impl Fn(u32) -> Option<usize>) -> Option<usize> {
    buf.windows(4).position(|w| bound(le_u32_at(w, 0)).is_some())
}

/// Reads one frame from a stream and returns its payload; `Ok(None)` on
/// a clean end of stream at a frame boundary. The payload buffer is
/// allocated only after the head passed its checks.
///
/// # Errors
///
/// [`FrameError::Io`] on transport errors, otherwise the first defect
/// found, as [`frame_head`] and [`frame_payload`] report it.
pub fn read_frame(
    r: &mut impl Read,
    bound: impl Fn(u32) -> Option<usize>,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut head_bytes = [0u8; FRAME_HEAD];
    let mut filled = 0;
    while filled < FRAME_HEAD {
        match r.read(&mut head_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let head = frame_head(&head_bytes, bound)?;
    let mut frame = vec![0u8; head.frame_len()];
    frame[..FRAME_HEAD].copy_from_slice(&head_bytes);
    r.read_exact(&mut frame[FRAME_HEAD..]).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        kind => FrameError::Io(kind),
    })?;
    frame_payload(&frame, head)?;
    frame.truncate(FRAME_HEAD + head.len);
    frame.drain(..FRAME_HEAD);
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_wire_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sealed_record_round_trips_and_checks_in_order() {
        let mut w = BodyWriter::sealed(0xAABB_CCDD, 3);
        w.u64(7);
        let record = w.seal();
        let mut r = open_sealed(&record, 0xAABB_CCDD, 3).unwrap();
        assert_eq!(r.u64(), Ok(7));
        assert_eq!(r.finish(), Ok(()));

        assert_eq!(open_sealed(&record[..9], 0xAABB_CCDD, 3).unwrap_err(), FrameError::Truncated);
        assert_eq!(open_sealed(&record, 1, 3).unwrap_err(), FrameError::BadMagic(0xAABB_CCDD));
        assert!(matches!(
            open_sealed(&record[..record.len() - 1], 0xAABB_CCDD, 3),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        assert_eq!(open_sealed(&record, 0xAABB_CCDD, 4).unwrap_err(), FrameError::Version(3));
    }

    #[test]
    fn frames_stream_back_to_back() {
        let bound = |m| (m == 5).then_some(16);
        let mut stream = encode_frame(5, b"one");
        stream.extend_from_slice(&encode_frame(5, b"two"));
        let head = frame_head(&stream, bound).unwrap();
        let payload = frame_payload(&stream, head).unwrap();
        assert_eq!((head.magic(), head.frame_len(), payload), (5, 15, &b"one"[..]));
        let mut cursor = io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor, bound).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(read_frame(&mut cursor, bound).unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(read_frame(&mut cursor, bound).unwrap(), None);
    }
}
