//! Golden vectors: every persisted or transmitted encoding pinned byte
//! for byte on small hand-built inputs — a serve snapshot, one request
//! frame and one response frame, a replay checkpoint, and a `.pdnt`
//! file of three intervals in chunks of two (header, two chunks,
//! footer). The PMU firmware image is pinned in `pdn_pmu`'s own tests,
//! where its curve set can be built from hand-written grids.
//!
//! A change to any of these bytes is a format change: files and peers
//! written by an earlier build would stop decoding. Each test also
//! decodes the golden bytes back to the input.

use flexwatts::{PdnMode, ReplayCheckpoint, SwitchTransition};
use pdn_proc::PackageCState;
use pdn_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, PdnId, PointSpec, Request,
    RequestBody, Response, ResponseBody,
};
use pdn_serve::snapshot::{self, Snapshot};
use pdn_serve::wire::{decode_frame, encode_frame};
use pdn_units::{Amps, ApplicationRatio, Efficiency, Seconds, Volts, Watts};
use pdn_workload::tracefile::{decode_trace, encode_trace, DefectPolicy};
use pdn_workload::{Trace, TraceInterval, WorkloadType};
use pdnspot::memo::MemoEntry;
use pdnspot::{LossBreakdown, PdnEvaluation, RailReport};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn evaluation() -> PdnEvaluation {
    PdnEvaluation {
        nominal_power: Watts::new(10.0),
        input_power: Watts::new(12.5),
        etee: Efficiency::new(0.8).unwrap(),
        breakdown: LossBreakdown {
            vr_loss: Watts::new(1.5),
            conduction_compute: Watts::new(0.5),
            conduction_sa_io: Watts::new(0.25),
            other: Watts::new(0.25),
        },
        chip_input_current: Amps::new(7.0),
        rails: vec![
            RailReport {
                name: "V_IN".into(),
                voltage: Volts::new(1.8),
                current: Amps::new(6.0),
                input_power: Watts::new(11.0),
                efficiency: Some(Efficiency::new(0.9).unwrap()),
            },
            RailReport {
                name: "SA".into(),
                voltage: Volts::new(0.85),
                current: Amps::new(0.0),
                input_power: Watts::new(0.0),
                efficiency: None,
            },
        ],
    }
}

const SNAPSHOT: &str = concat!(
    "50444e5701000000030000000102030100000004020000000000000000000000",
    "070000000100000008070605040302011807f6e5d4c3b2a10000000000002440",
    "00000000000029409a9999999999e93f000000000000f83f000000000000e03f",
    "000000000000d03f000000000000d03f0000000000001c400200000004000000",
    "565f494ecdccccccccccfc3f0000000000001840000000000000264001cdcccc",
    "ccccccec3f020000005341333333333333eb3f00000000000000000000000000",
    "00000000dfa0002c",
);

#[test]
fn snapshot_bytes_are_pinned() {
    let snap = Snapshot {
        ivr_firmware: vec![1, 2, 3],
        ldo_firmware: vec![4],
        tenants: vec![
            (0, Vec::new()),
            (
                7,
                vec![MemoEntry {
                    pdn_token: 0x0102_0304_0506_0708,
                    scenario_fingerprint: 0xA1B2_C3D4_E5F6_0718,
                    value: evaluation(),
                }],
            ),
        ],
    };
    let bytes = snapshot::encode(&snap);
    assert_eq!(hex(&bytes), SNAPSHOT);
    assert_eq!(snapshot::decode(&unhex(SNAPSHOT)).unwrap(), snap);
}

const REQUEST_FRAME: &str = concat!(
    "50444e53260000000200030000002a00000000000000fa000000010400000000",
    "000000324002333333333333e33fbdb19181",
);

#[test]
fn request_frame_bytes_are_pinned() {
    let request = Request {
        tenant: 3,
        id: 42,
        deadline_ms: 250,
        body: RequestBody::Eval {
            pdn: PdnId::FlexWatts,
            point: PointSpec::Active { tdp: 18.0, workload: WorkloadType::Graphics, ar: 0.6 },
        },
    };
    let frame = encode_frame(&encode_request(&request));
    assert_eq!(hex(&frame), REQUEST_FRAME);
    let golden = unhex(REQUEST_FRAME);
    let (body, used) = decode_frame(&golden).unwrap();
    assert_eq!(used, golden.len());
    assert_eq!(decode_request(body).unwrap(), request);
}

const RESPONSE_FRAME: &str = concat!(
    "50444e539700000002002a000000000000000100000000000024400000000000",
    "0029409a9999999999e93f000000000000f83f000000000000e03f0000000000",
    "00d03f000000000000d03f0000000000001c400200000004000000565f494ecd",
    "ccccccccccfc3f0000000000001840000000000000264001cdccccccccccec3f",
    "020000005341333333333333eb3f0000000000000000000000000000000000ac",
    "d0937f",
);

#[test]
fn response_frame_bytes_are_pinned() {
    let response = Response { id: 42, body: ResponseBody::Eval(evaluation()) };
    let frame = encode_frame(&encode_response(&response));
    assert_eq!(hex(&frame), RESPONSE_FRAME);
    let golden = unhex(RESPONSE_FRAME);
    let (body, used) = decode_frame(&golden).unwrap();
    assert_eq!(used, golden.len());
    assert_eq!(decode_response(body).unwrap(), response);
}

const CHECKPOINT: &str = concat!(
    "50444e4301000000887766554433221100ffeeddccbbaa99d204000000000000",
    "3800000000000000010000000000000a400000000000000840000000000000f8",
    "3ffca9f1d24d62503f0900000000000000080000000000000001000000000000",
    "00000000000000e03f000000000000f03f04000000000000002d431cebe2362a",
    "3f010000000001691d554d1075ff3ef168e388b5f8043f54e41071732af93ed7",
    "b30f30",
);

#[test]
fn checkpoint_bytes_are_pinned() {
    let checkpoint = ReplayCheckpoint {
        trace_fingerprint: 0x1122_3344_5566_7788,
        config_fingerprint: 0x99AA_BBCC_DDEE_FF00,
        intervals_done: 1234,
        sensor_samples: 56,
        mode: PdnMode::LdoMode,
        energy: 3.25,
        oracle_energy: 3.0,
        total_time: Seconds::new(1.5),
        since_eval: Seconds::new(0.001),
        evaluations: 9,
        correct_predictions: 8,
        protection_overrides: 1,
        time_in_mode: [Seconds::new(0.5), Seconds::new(1.0)],
        driver_transitions: 4,
        driver_transition_time: Seconds::new(0.0002),
        switches: vec![SwitchTransition {
            from: PdnMode::IvrMode,
            to: PdnMode::LdoMode,
            c6_entry: Seconds::new(3e-5),
            vr_adjust: Seconds::new(4e-5),
            c6_exit: Seconds::new(2.4e-5),
        }],
    };
    let bytes = checkpoint.encode();
    assert_eq!(hex(&bytes), CHECKPOINT);
    assert_eq!(ReplayCheckpoint::decode(&unhex(CHECKPOINT)).unwrap(), checkpoint);
}

const TRACE_FILE: &str = concat!(
    "50444e54010000000200000004000000676f6c64620bc04443484e4b2e000000",
    "0000000000000000020000007b14ae47e17a843f7b14ae47e17a943f10030000",
    "00000000e03f000000000000f03f05d1677c43484e4b1d000000020000000000",
    "000001000000b81e85eb51b89e3f13000000000000e83f46ee37cd54454e4410",
    "0000000300000000000000b81e85eb51b8ae3fb6dde6d8",
);

#[test]
fn trace_file_bytes_are_pinned() {
    let ar = |v| ApplicationRatio::new(v).unwrap();
    let trace = Trace::new(
        "gold",
        vec![
            TraceInterval::active(Seconds::new(0.01), WorkloadType::SingleThread, ar(0.5)),
            TraceInterval::idle(Seconds::new(0.02), PackageCState::C6),
            TraceInterval::active(Seconds::new(0.03), WorkloadType::BatteryLife, ar(0.75)),
        ],
    );
    let bytes = encode_trace(&trace, 2).unwrap();
    assert_eq!(hex(&bytes), TRACE_FILE);
    let (decoded, summary) = decode_trace(&unhex(TRACE_FILE), DefectPolicy::Strict).unwrap();
    assert_eq!(decoded, trace);
    assert_eq!(summary.chunks_ok, 2);
    assert!(summary.footer_seen);
}
