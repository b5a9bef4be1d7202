//! Property-based tests of the firmware parser's robustness contract:
//! `FirmwareImage::parse` must *never* panic — for any byte string it
//! either returns a valid curve set or a descriptive [`FirmwareError`] —
//! and any corruption of a well-formed image is rejected.

use pdn_pmu::{EteeCurveSet, FirmwareError, FirmwareImage};
use pdn_proc::client_soc;
use pdn_workload::codec::crc32;
use pdnspot::{IvrPdn, ModelParams};
use proptest::collection::vec;
use proptest::prelude::*;

fn reference_image() -> &'static FirmwareImage {
    static IMAGE: std::sync::OnceLock<FirmwareImage> = std::sync::OnceLock::new();
    IMAGE.get_or_init(|| {
        let pdn = IvrPdn::new(ModelParams::paper_defaults());
        let set =
            EteeCurveSet::tabulate(&pdn, &[4.0, 18.0, 50.0], &[0.4, 0.6, 0.8], client_soc).unwrap();
        FirmwareImage::build(&set)
    })
}

/// Appends a valid CRC trailer, so the tests can reach the parser stages
/// behind the checksum gate.
fn with_fixed_crc(mut payload: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&payload);
    payload.extend_from_slice(&crc.to_le_bytes());
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic the parser.
    #[test]
    fn parse_never_panics_on_arbitrary_bytes(data in vec(any::<u8>(), 0..512)) {
        let _ = FirmwareImage::parse(&data);
    }

    /// Arbitrary payloads behind a *valid* CRC trailer still never panic:
    /// this drives the magic/version/section machinery directly instead
    /// of dying at the checksum gate.
    #[test]
    fn parse_never_panics_behind_a_forged_crc(payload in vec(any::<u8>(), 8..256)) {
        let _ = FirmwareImage::parse(&with_fixed_crc(payload));
    }

    /// Flipping any single bit of a well-formed image is detected — the
    /// CRC covers every payload byte, and the trailer is the CRC itself.
    #[test]
    fn any_single_bit_flip_is_rejected(offset in 0usize..4096, bit in 0u8..8) {
        let image = reference_image();
        let mut corrupt = image.as_bytes().to_vec();
        let at = offset % corrupt.len();
        corrupt[at] ^= 1 << bit;
        prop_assert!(
            FirmwareImage::parse(&corrupt).is_err(),
            "bit {bit} of byte {at} flipped silently"
        );
    }

    /// Every truncation of a well-formed image is rejected, and the
    /// original still parses (the strictness is not over-eager).
    #[test]
    fn truncation_is_always_rejected(cut in 1usize..4096) {
        let image = reference_image();
        let len = image.len();
        let keep = len - 1 - (cut % (len - 1));
        prop_assert!(FirmwareImage::parse(&image.as_bytes()[..keep]).is_err());
        prop_assert!(FirmwareImage::parse(image.as_bytes()).is_ok());
    }

    /// Padding a well-formed image with extra payload bytes — even under
    /// a freshly computed, valid CRC — is rejected as oversized.
    #[test]
    fn oversized_payloads_are_rejected(extra in vec(any::<u8>(), 1..64)) {
        let image = reference_image();
        let mut payload = image.as_bytes()[..image.len() - 4].to_vec();
        let n = extra.len();
        payload.extend_from_slice(&extra);
        prop_assert_eq!(
            FirmwareImage::parse(&with_fixed_crc(payload)),
            Err(FirmwareError::TrailingBytes { extra: n })
        );
    }
}
