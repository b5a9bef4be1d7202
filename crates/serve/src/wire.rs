//! The daemon's outer frame and the body primitives the protocol is
//! written with.
//!
//! Every message — request or response, TCP or stdio — travels inside
//! one length-prefixed frame of [`pdn_workload::codec`] (DESIGN.md,
//! "Framed records") with magic [`MAGIC`] and a body of at most
//! [`MAX_BODY`] bytes. Decoding arbitrary bytes never panics:
//! truncated, oversized, or bit-flipped input surfaces a typed
//! [`FrameError`] instead.

use pdn_workload::codec;
pub use pdn_workload::codec::{BodyReader, BodyWriter, DecodeError, FrameError};
use std::io::{Read, Write};

/// Frame magic: the ASCII bytes `PDNS` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"PDNS");

/// Hard upper bound on one frame's body, protecting the daemon from a
/// hostile or corrupted length prefix. The engine refuses a sweep
/// whose reply would not fit.
pub const MAX_BODY: usize = 4 << 20;

/// Longest list the protocol accepts (rails, surface values).
pub const MAX_LIST: usize = 8192;

fn body_bound(magic: u32) -> Option<usize> {
    (magic == MAGIC).then_some(MAX_BODY)
}

/// Wraps `body` in a complete frame.
#[must_use]
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    codec::encode_frame(MAGIC, body)
}

/// Decodes one frame from the front of `buf`, returning the body slice
/// and the total bytes consumed. Never panics on malformed input.
///
/// # Errors
///
/// Returns a [`FrameError`] describing the first defect found.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    let head = codec::frame_head(buf, body_bound)?;
    Ok((codec::frame_payload(buf, head)?, head.frame_len()))
}

/// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed between messages).
///
/// # Errors
///
/// Returns a [`FrameError`] on transport errors or malformed frames.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    codec::read_frame(r, body_bound)
}

/// Writes `body` as one complete frame and flushes.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), FrameError> {
    w.write_all(&encode_frame(body))?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let body = b"hello pdn".to_vec();
        let frame = encode_frame(&body);
        let (decoded, used) = decode_frame(&frame).expect("valid frame");
        assert_eq!(decoded, &body[..]);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn truncated_and_corrupted_frames_are_typed_errors() {
        let frame = encode_frame(b"payload");
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut]).unwrap_err(), FrameError::Truncated);
        }
        let mut bad_magic = frame.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bad_magic), Err(FrameError::BadMagic(_))));
        let mut flipped = frame.clone();
        flipped[9] ^= 0x01;
        assert!(matches!(decode_frame(&flipped), Err(FrameError::ChecksumMismatch { .. })));
        let mut oversized = frame;
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&oversized), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn stream_reader_handles_eof_and_sequential_frames() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b"one"));
        stream.extend_from_slice(&encode_frame(b"two"));
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn body_reader_bounds_every_access() {
        let mut w = BodyWriter::new();
        w.u8(7);
        w.f64(1.5);
        w.str("rail");
        let bytes = w.into_bytes();
        let mut r = BodyReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.f64().unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(r.str("name").unwrap(), "rail");
        r.finish().unwrap();

        let mut short = BodyReader::new(&bytes[..3]);
        short.u8().unwrap();
        assert_eq!(short.f64().unwrap_err(), DecodeError::Truncated);
    }
}
