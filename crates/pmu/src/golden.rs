//! Golden vector for the firmware image: a curve set built from
//! hand-written grids, pinned byte for byte. A change to these bytes is
//! a format change — images flashed by an earlier build would stop
//! parsing.

use crate::firmware::FirmwareImage;
use crate::tables::EteeCurveSet;
use pdn_proc::PackageCState;
use pdn_units::Grid2;
use pdn_workload::WorkloadType;
use std::collections::BTreeMap;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

const IMAGE: &str = concat!(
    "464e445001000200000202000200000000000000104000000000000032409a99",
    "99999999d93f9a9999999999e93f666666666666e63f000000000000e83f9a99",
    "99999999e93f333333333333eb3f010802000200000000000000104000000000",
    "000049400000000000000000000000000000f03f000000000000e03f00000000",
    "0000e03f333333333333e33f333333333333e33feee121f6",
);

#[test]
fn firmware_image_bytes_are_pinned() {
    let active = BTreeMap::from([(
        WorkloadType::Graphics,
        Grid2::from_rows(vec![4.0, 18.0], vec![0.4, 0.8], vec![0.70, 0.75, 0.80, 0.85]).unwrap(),
    )]);
    let idle = BTreeMap::from([(
        PackageCState::C8,
        Grid2::from_rows(vec![4.0, 50.0], vec![0.0, 1.0], vec![0.5, 0.5, 0.6, 0.6]).unwrap(),
    )]);
    let set = EteeCurveSet { active, idle };
    let image = FirmwareImage::build(&set);
    assert_eq!(hex(image.as_bytes()), IMAGE);
    assert_eq!(FirmwareImage::parse(&unhex(IMAGE)).unwrap(), set);
}
