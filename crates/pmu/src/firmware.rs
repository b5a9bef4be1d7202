//! Firmware images for the predictor's ETEE curve sets.
//!
//! A real PMU stores its curves as tables in firmware flash (footnote 11
//! of the paper). This module serialises an [`EteeCurveSet`] into a
//! compact, versioned, checksummed binary image — the artefact a
//! production FlexWatts would ship inside its power-management firmware —
//! and parses it back with full validation. The image size is the honest
//! answer to "how much flash does the predictor cost?" (a few kilobytes
//! for the paper's table resolution).
//!
//! The image is a sealed record ([`pdn_workload::codec`]; DESIGN.md,
//! "Framed records") with magic `PDNF` and version 1. Its body
//! (little-endian):
//!
//! ```text
//! section count u16
//! per section:
//!   tag u8        (0 = active workload type, 1 = idle state)
//!   key u8        (WorkloadType / PackageCState discriminant)
//!   rows u16, cols u16
//!   row axis  [f64; rows]
//!   col axis  [f64; cols]
//!   values    [f64; rows*cols]
//! ```

use crate::tables::EteeCurveSet;
use pdn_units::Grid2;
use pdn_workload::codec::{self, BodyWriter, DecodeError, FrameError};
use std::collections::BTreeMap;
use std::fmt;

const MAGIC: u32 = 0x5044_4E46; // "PDNF"
const VERSION: u16 = 1;

/// Error produced when parsing a firmware image.
#[derive(Debug, Clone, PartialEq)]
pub enum FirmwareError {
    /// The record framing is damaged: truncated, wrong magic, CRC
    /// mismatch, or an unsupported version.
    Frame(FrameError),
    /// A section runs past the end of the image.
    Decode(DecodeError),
    /// A section carried an unknown tag or key.
    BadSection {
        /// The offending tag byte.
        tag: u8,
        /// The offending key byte.
        key: u8,
    },
    /// A section's grid failed validation.
    BadGrid(pdn_units::UnitsError),
    /// The image carries payload bytes after the last declared section —
    /// an oversized image whose extra content no parser field accounts
    /// for (a build bug, or smuggled data under a recomputed CRC).
    TrailingBytes {
        /// Number of unaccounted payload bytes before the CRC trailer.
        extra: usize,
    },
}

impl fmt::Display for FirmwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FirmwareError::Frame(e) => write!(f, "firmware image: {e}"),
            FirmwareError::Decode(e) => write!(f, "firmware section: {e}"),
            FirmwareError::BadSection { tag, key } => {
                write!(f, "unknown firmware section tag {tag}/key {key}")
            }
            FirmwareError::BadGrid(e) => write!(f, "invalid firmware grid: {e}"),
            FirmwareError::TrailingBytes { extra } => {
                write!(f, "firmware image carries {extra} unaccounted trailing bytes")
            }
        }
    }
}

impl std::error::Error for FirmwareError {}

impl From<DecodeError> for FirmwareError {
    fn from(e: DecodeError) -> Self {
        FirmwareError::Decode(e)
    }
}

/// A serialised predictor curve set.
#[derive(Debug, Clone, PartialEq)]
pub struct FirmwareImage {
    bytes: Vec<u8>,
}

impl FirmwareImage {
    /// Serialises a curve set into a firmware image.
    pub fn build(set: &EteeCurveSet) -> Self {
        let mut w = BodyWriter::sealed(MAGIC, VERSION);
        let sections = set.active.len() + set.idle.len();
        w.u16(sections as u16);
        for (wl, grid) in &set.active {
            put_section(&mut w, 0, codec::workload_tag(*wl), grid);
        }
        for (state, grid) in &set.idle {
            put_section(&mut w, 1, codec::cstate_tag(*state), grid);
        }
        Self { bytes: w.seal() }
    }

    /// The raw image bytes (what would be flashed).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The image size in bytes — the predictor's flash footprint.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the image is empty (never true for a built image).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Parses and validates an image back into a curve set.
    ///
    /// # Errors
    ///
    /// Returns a [`FirmwareError`] for malformed, truncated, corrupted, or
    /// version-mismatched images.
    pub fn parse(data: &[u8]) -> Result<EteeCurveSet, FirmwareError> {
        let mut r = codec::open_sealed(data, MAGIC, VERSION).map_err(FirmwareError::Frame)?;
        let sections = r.u16()? as usize;
        let mut active = BTreeMap::new();
        let mut idle = BTreeMap::new();
        for _ in 0..sections {
            let tag = r.u8()?;
            let key = r.u8()?;
            let rows = r.u16()? as usize;
            let cols = r.u16()? as usize;
            // One bounds check for the whole section before any allocation.
            let floats = r.raw(8 * (rows + cols + rows * cols))?;
            let (row_axis, rest) = floats.split_at(8 * rows);
            let (col_axis, values) = rest.split_at(8 * cols);
            let f64s = |bytes| codec::u64_column(bytes).map(f64::from_bits).collect();
            let grid = Grid2::from_rows(f64s(row_axis), f64s(col_axis), f64s(values))
                .map_err(FirmwareError::BadGrid)?;
            match tag {
                0 => {
                    let wl = codec::workload_from_tag(key)
                        .ok_or(FirmwareError::BadSection { tag, key })?;
                    active.insert(wl, grid);
                }
                1 => {
                    let state = codec::cstate_from_tag(key)
                        .ok_or(FirmwareError::BadSection { tag, key })?;
                    idle.insert(state, grid);
                }
                _ => return Err(FirmwareError::BadSection { tag, key }),
            }
        }
        if r.remaining() > 0 {
            return Err(FirmwareError::TrailingBytes { extra: r.remaining() });
        }
        Ok(EteeCurveSet { active, idle })
    }
}

fn put_section(w: &mut BodyWriter, tag: u8, key: u8, grid: &Grid2) {
    w.u8(tag);
    w.u8(key);
    let (rows, cols) = grid.shape();
    w.u16(rows as u16);
    w.u16(cols as u16);
    for &r in grid.row_axis() {
        w.f64(r);
    }
    for &c in grid.col_axis() {
        w.f64(c);
    }
    for &row in grid.row_axis() {
        for &col in grid.col_axis() {
            w.f64(grid.eval(row, col));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_proc::{client_soc, PackageCState};
    use pdn_units::{ApplicationRatio, Efficiency, Watts};
    use pdn_workload::codec::crc32;
    use pdn_workload::WorkloadType;
    use pdnspot::{IvrPdn, ModelParams};

    fn curve_set() -> EteeCurveSet {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        EteeCurveSet::tabulate(&pdn, &[4.0, 18.0, 50.0], &[0.4, 0.6, 0.8], client_soc).unwrap()
    }

    #[test]
    fn round_trip_preserves_every_lookup() {
        let original = curve_set();
        let image = FirmwareImage::build(&original);
        let parsed = FirmwareImage::parse(image.as_bytes()).unwrap();
        for wl in WorkloadType::ACTIVE_TYPES {
            for tdp in [4.0, 11.0, 18.0, 31.0, 50.0] {
                for ar in [0.4, 0.55, 0.8] {
                    let a: Efficiency = original
                        .lookup_active(wl, Watts::new(tdp), ApplicationRatio::new(ar).unwrap())
                        .unwrap();
                    let b = parsed
                        .lookup_active(wl, Watts::new(tdp), ApplicationRatio::new(ar).unwrap())
                        .unwrap();
                    assert!((a.get() - b.get()).abs() < 1e-12);
                }
            }
        }
        for state in PackageCState::ALL {
            let a = original.lookup_idle(state, Watts::new(25.0)).unwrap();
            let b = parsed.lookup_idle(state, Watts::new(25.0)).unwrap();
            assert!((a.get() - b.get()).abs() < 1e-12);
        }
    }

    #[test]
    fn image_size_is_a_few_kilobytes() {
        let image = FirmwareImage::build(&curve_set());
        assert!(!image.is_empty());
        // 3 types × 3×3 grid + 6 states × 2×2 grid, f64 payload + axes.
        assert!(image.len() > 300 && image.len() < 4096, "flash footprint = {} bytes", image.len());
    }

    #[test]
    fn corruption_is_detected() {
        let image = FirmwareImage::build(&curve_set());
        let mut corrupted = image.as_bytes().to_vec();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x40;
        assert!(matches!(
            FirmwareImage::parse(&corrupted),
            Err(FirmwareError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn truncation_and_bad_magic_are_detected() {
        let image = FirmwareImage::build(&curve_set());
        assert_eq!(
            FirmwareImage::parse(&image.as_bytes()[..8]),
            Err(FirmwareError::Frame(FrameError::Truncated))
        );
        let mut bad = image.as_bytes().to_vec();
        bad[0] ^= 0xFF;
        // Flipping the magic also breaks the CRC; fix the CRC to isolate
        // the magic check.
        let len = bad.len();
        let crc = crc32(&bad[..len - 4]);
        bad[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            FirmwareImage::parse(&bad),
            Err(FirmwareError::Frame(FrameError::BadMagic(_)))
        ));
    }

    #[test]
    fn oversized_images_are_rejected_even_with_a_valid_crc() {
        // Padding after the last section is invisible to the section
        // walk, so a hostile (or buggy) flasher could hide data there and
        // recompute the CRC. The parser must account for every byte.
        let image = FirmwareImage::build(&curve_set());
        let mut oversized = image.as_bytes()[..image.len() - 4].to_vec();
        oversized.extend_from_slice(&[0xAB; 7]);
        let crc = crc32(&oversized);
        oversized.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            FirmwareImage::parse(&oversized),
            Err(FirmwareError::TrailingBytes { extra: 7 })
        );
    }
}
