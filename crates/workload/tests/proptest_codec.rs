//! One corruption suite for both framings of `pdn_workload::codec` —
//! the sealed record (firmware images, snapshots, checkpoints, `.pdnt`
//! headers) and the length-prefixed frame (wire frames, `.pdnt` chunks
//! and footers): arbitrary bytes never panic a decoder, every single-bit
//! flip and every truncation is rejected, a declared length over the
//! bound is rejected before the payload is read or allocated, and a
//! torn tail is rejected. The per-format suites keep only what their
//! bodies add on top.

use pdn_workload::codec::{self, BodyReader, BodyWriter, FrameError, FRAME_HEAD};
use proptest::collection::vec;
use proptest::prelude::*;

const MAGIC: u32 = u32::from_le_bytes(*b"TEST");
const VERSION: u16 = 3;
const BOUND: usize = 256;

fn bound(magic: u32) -> Option<usize> {
    (magic == MAGIC).then_some(BOUND)
}

fn sealed(body: &[u8]) -> Vec<u8> {
    let mut w = BodyWriter::sealed(MAGIC, VERSION);
    for &b in body {
        w.u8(b);
    }
    w.seal()
}

fn opens(record: &[u8]) -> bool {
    codec::open_sealed(record, MAGIC, VERSION).is_ok()
}

/// Every frame of a stream until its clean end, or the first error.
fn read_all(mut stream: &[u8]) -> Result<Vec<Vec<u8>>, FrameError> {
    let mut frames = Vec::new();
    while let Some(payload) = codec::read_frame(&mut stream, bound)? {
        frames.push(payload);
    }
    Ok(frames)
}

/// The frame at the front of a slice: head, then payload.
fn decode(buf: &[u8]) -> Result<(codec::FrameHead, &[u8]), FrameError> {
    let head = codec::frame_head(buf, bound)?;
    Ok((head, codec::frame_payload(buf, head)?))
}

/// Every frame of a buffer decoded back to back from slices.
fn decode_all(mut buf: &[u8]) -> Result<Vec<&[u8]>, FrameError> {
    let mut frames = Vec::new();
    while !buf.is_empty() {
        let (head, payload) = decode(buf)?;
        frames.push(payload);
        buf = &buf[head.frame_len()..];
    }
    Ok(frames)
}

/// Loses the last `torn` bytes of `bytes`: zeroes them when asked and
/// that changes them, otherwise cuts them off.
fn tear(bytes: &mut Vec<u8>, torn: usize, zeroed: bool) {
    let tail = bytes.len() - torn;
    if zeroed && bytes[tail..].iter().any(|&b| b != 0) {
        bytes[tail..].fill(0);
    } else {
        bytes.truncate(tail);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes never panic any decoder — also behind a forged
    /// magic, which reaches the length, CRC and version stages.
    #[test]
    fn arbitrary_bytes_never_panic(data in vec(any::<u8>(), 0..600)) {
        let mut forged = MAGIC.to_le_bytes().to_vec();
        forged.extend_from_slice(&data);
        for bytes in [&data[..], &forged[..]] {
            let _ = codec::open_sealed(bytes, MAGIC, VERSION);
            let _ = codec::frame_head(bytes, bound);
            let _ = decode_all(bytes);
            let _ = read_all(bytes);
            let _ = codec::find_magic(bytes, bound);
            let mut r = BodyReader::new(bytes);
            let _ = (r.u16(), r.u64(), r.str("s"), r.bytes("b", BOUND), r.list_len("l", 4));
            let _ = r.raw(3);
            let _ = r.finish();
        }
    }

    /// Flipping any single bit of a sealed record or a frame is
    /// rejected: the magic check, the length checks or the CRC catches
    /// it, so a flipped frame never reads back as the original stream.
    #[test]
    fn every_single_bit_flip_is_rejected(body in vec(any::<u8>(), 0..48)) {
        let record = sealed(&body);
        prop_assert!(opens(&record));
        for bit in 0..record.len() * 8 {
            let mut bad = record.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(!opens(&bad), "bit {bit} of the record flipped silently");
        }
        let frame = codec::encode_frame(MAGIC, &body);
        prop_assert_eq!(read_all(&frame), Ok(vec![body.clone()]));
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode_all(&bad).is_err(), "bit {bit} of the frame flipped silently");
            prop_assert!(read_all(&bad).is_err(), "bit {bit} of the stream flipped silently");
        }
    }

    /// Every proper prefix of a sealed record or a frame is rejected;
    /// a cut frame is always `Truncated`.
    #[test]
    fn every_truncation_is_rejected(body in vec(any::<u8>(), 0..48)) {
        let record = sealed(&body);
        for cut in 0..record.len() {
            prop_assert!(!opens(&record[..cut]), "record cut at {cut} opened");
        }
        let frame = codec::encode_frame(MAGIC, &body);
        for cut in 0..frame.len() {
            prop_assert_eq!(
                decode(&frame[..cut]).unwrap_err(),
                FrameError::Truncated
            );
            if cut > 0 {
                prop_assert_eq!(read_all(&frame[..cut]).unwrap_err(), FrameError::Truncated);
            }
        }
    }

    /// A declared length over the bound is `Oversized` from the head
    /// alone: a stream that carries nothing after the head still fails
    /// with `Oversized`, not `Truncated`, so the payload is never read
    /// (nor its buffer allocated).
    #[test]
    fn a_declared_length_over_the_bound_is_rejected_first(over in 1u32..u32::MAX - BOUND as u32) {
        let declared = BOUND as u32 + over;
        let mut head = MAGIC.to_le_bytes().to_vec();
        head.extend_from_slice(&declared.to_le_bytes());
        prop_assert_eq!(head.len(), FRAME_HEAD);
        let oversized = FrameError::Oversized(declared as usize);
        prop_assert_eq!(decode(&head).unwrap_err(), oversized.clone());
        prop_assert_eq!(read_all(&head).unwrap_err(), oversized);
    }

    /// A torn tail — the last bytes lost or zeroed, as a crash mid-write
    /// leaves them — is rejected: intact frames before it still decode,
    /// and reading on never reaches a clean end of stream. (A zeroed
    /// length and trailer can pass as one empty frame — CRC-32 of no
    /// bytes is zero — but the zeroed bytes after it cannot.)
    #[test]
    fn a_torn_tail_is_rejected(
        bodies in vec(vec(any::<u8>(), 0..32), 1..5),
        torn in 1usize..64,
        zeroed in any::<bool>(),
    ) {
        let mut stream: Vec<u8> =
            bodies.iter().flat_map(|b| codec::encode_frame(MAGIC, b)).collect();
        let last = codec::encode_frame(MAGIC, &bodies[bodies.len() - 1]).len();
        tear(&mut stream, 1 + torn % (last - 1), zeroed);
        let intact = bodies.len() - 1;
        let mut cursor = &stream[..];
        for body in &bodies[..intact] {
            prop_assert_eq!(codec::read_frame(&mut cursor, bound), Ok(Some(body.clone())));
        }
        prop_assert!(read_all(cursor).is_err(), "torn tail read to a clean end");
        prop_assert!(decode_all(&stream).is_err());

        let mut record = sealed(&bodies[0]);
        let len = record.len();
        tear(&mut record, 1 + torn % (len - 1), zeroed);
        prop_assert!(!opens(&record), "torn record opened");
    }
}
