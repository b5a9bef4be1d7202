//! Per-call costs of the leaf layers every evaluation path rests on —
//! `units` interpolation, `vr` efficiency models, and the `batch`
//! pool's fixed cost — timed at seeded in-domain points. Traced runs of
//! every workload report them.

use crate::common::{median, nproc, Rng, Tracer};
use pdn_units::{Amps, Curve1, Grid2, Volts};
use pdn_vr::{presets, EfficiencySurface, OperatingPoint, VoltageRegulator, VrPowerState};
use pdnspot::batch::{par_map, Workers};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Calls per timing and timings per kernel (the median is reported).
const CALLS: usize = 4096;
const ROUNDS: usize = 7;

/// Median ns per call of `f` over the prepared inputs.
fn per_call_ns<T>(inputs: &[T], mut f: impl FnMut(&T) -> f64) -> f64 {
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let mut acc = 0.0;
        for x in inputs {
            acc += f(black_box(x));
        }
        black_box(acc);
        rounds.push(start.elapsed().as_secs_f64() * 1e9 / inputs.len() as f64);
    }
    median(&rounds)
}

/// Times the leaf-layer kernels into `layers`, recording one span per
/// kernel. Fails if any seeded point falls outside a model's domain.
pub fn measure(
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut rng = Rng::new(seed, 0x1A7E_0001);

    // A V/f-shaped curve and a predictor-table-shaped grid (7 TDPs × 9
    // ARs), the shapes the model interpolates on its hot paths.
    let curve = Curve1::from_points((0..12).map(|k| {
        let f = 0.4 + 0.35 * f64::from(k);
        (f, 0.55 + 0.04 * f + 0.012 * f * f)
    }))
    .map_err(|e| format!("curve: {e}"))?;
    let tdps = [4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0];
    let ars = [0.40, 0.45, 0.50, 0.56, 0.60, 0.65, 0.70, 0.75, 0.80];
    let values: Vec<f64> =
        tdps.iter().flat_map(|t| ars.iter().map(move |a| 0.6 + 0.004 * t + 0.1 * a)).collect();
    let grid =
        Grid2::from_rows(tdps.to_vec(), ars.to_vec(), values).map_err(|e| format!("grid: {e}"))?;

    let xs: Vec<f64> = (0..CALLS).map(|_| rng.range(0.4, 4.25)).collect();
    let cells: Vec<(f64, f64)> =
        (0..CALLS).map(|_| (rng.range(4.0, 50.0), rng.range(0.40, 0.80))).collect();
    layers.insert(
        "units.curve1_eval_ns",
        tracer.span("units.curve1_eval", None, || per_call_ns(&xs, |&x| curve.eval(x))),
    );
    layers.insert(
        "units.grid2_eval_ns",
        tracer.span("units.grid2_eval", None, || per_call_ns(&cells, |&(t, a)| grid.eval(t, a))),
    );

    // In-domain operating points: the IVR steps 1.8 V down to core
    // voltages, the LDO drops a few hundred mV, the board VR converts the
    // battery rail.
    let buck = presets::ivr("ivr");
    let ldo = presets::ldo("ldo");
    let board = presets::vin_board_vr();
    let surface = EfficiencySurface::sample(
        &board,
        &[Volts::new(7.2)],
        &[Volts::new(1.0), Volts::new(1.8)],
        &[VrPowerState::Ps0],
        (0.1, 10.0),
        24,
    )
    .map_err(|e| format!("surface: {e}"))?
    .compile();
    let buck_ops: Vec<OperatingPoint> = (0..CALLS)
        .map(|_| {
            OperatingPoint::new(
                Volts::new(1.8),
                Volts::new(rng.range(0.6, 1.1)),
                Amps::new(rng.range(0.5, 10.0)),
            )
        })
        .collect();
    let ldo_ops: Vec<OperatingPoint> = (0..CALLS)
        .map(|_| {
            let vout = rng.range(0.6, 1.0);
            OperatingPoint::new(
                Volts::new(vout + rng.range(0.05, 0.3)),
                Volts::new(vout),
                Amps::new(rng.range(0.5, 10.0)),
            )
        })
        .collect();
    let board_ops: Vec<OperatingPoint> = (0..CALLS)
        .map(|_| {
            OperatingPoint::new(
                Volts::new(7.2),
                Volts::new(rng.range(1.0, 1.8)),
                Amps::new(rng.range(0.2, 9.0)),
            )
        })
        .collect();
    for (name, vr, ops) in [
        ("buck", &buck as &dyn VoltageRegulator, &buck_ops),
        ("ldo", &ldo, &ldo_ops),
        ("compiled surface", &surface, &board_ops),
    ] {
        if let Some(op) = ops.iter().find(|op| vr.efficiency(**op).is_err()) {
            return Err(format!("{name} operating point {op:?} is outside the model's domain"));
        }
    }
    let eta = |vr: &dyn VoltageRegulator, op: &OperatingPoint| {
        vr.efficiency(*op).map_or(0.0, |e| e.get())
    };
    layers.insert(
        "vr.buck_eta_ns",
        tracer.span("vr.buck_eta", None, || per_call_ns(&buck_ops, |op| eta(&buck, op))),
    );
    layers.insert(
        "vr.ldo_eta_ns",
        tracer.span("vr.ldo_eta", None, || per_call_ns(&ldo_ops, |op| eta(&ldo, op))),
    );
    layers.insert(
        "vr.compiled_surface_ns",
        tracer.span("vr.compiled_surface_eta", None, || {
            per_call_ns(&board_ops, |op| eta(&surface, op))
        }),
    );

    // The pool's fixed cost: one `par_map` over `nproc` trivial items
    // spawns and joins the scoped workers.
    let items: Vec<u64> = (0..nproc() as u64).collect();
    let mut calls = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = Instant::now();
        black_box(par_map(&items, Workers::Auto, |_, x| x + 1));
        calls.push(start.elapsed().as_secs_f64() * 1e6);
    }
    tracer.record("batch.par_map", (calls.iter().sum::<f64>() * 1e3) as u64, calls.len() as u64);
    layers.insert("batch.par_map_call_us", median(&calls));
    Ok(())
}
