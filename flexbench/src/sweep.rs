//! `sweep`: cold design-space sweeps over freshly seeded lattices.
//!
//! Each op is one [`pdnspot::batch::evaluate`] of all five topologies
//! (IVR, MBVR, LDO, I+MBVR, FlexWatts-auto) over a new lattice: TDPs
//! drawn in 4–50 W, ARs in 0.40–0.80, every active workload type and
//! every package C-state, memo off. Fresh axes per op keep any cache
//! that spans ops from producing a gain. The reference re-evaluates
//! seeded sample points with scalar `Pdn::evaluate` on scenarios built
//! point by point, bit for bit.

use crate::common::{self, digest_f64, median, quantile, secs, Rng, Tracer};
use crate::{layers, EndToEnd, LayerRow, Outcome, Reconciliation, RunConfig};
use flexwatts::FlexWattsAuto;
use pdn_proc::{client_soc, PackageCState};
use pdn_units::{ApplicationRatio, Watts};
use pdnspot::batch::{build_scenarios, evaluate, BatchOutcome, ClientSoc, LatticePoint, SweepGrid};
use pdnspot::prelude::*;
use pdnspot::RowStage;
use std::collections::BTreeMap;
use std::time::Instant;

const OP_TDPS: usize = 6;
const OP_ARS: usize = 8;
/// Warm-up ops per set-up (allocator pools, interpolation cursors).
const WARMUP_OPS: u64 = 8;
/// Cold set-ups per run, this process's own included; `setup_s` is
/// their median.
const SETUPS: usize = 5;
/// Sample points per op re-evaluated by the scalar reference.
const CHECKS_PER_OP: usize = 8;
/// Ops whose results form the digest (always run, whatever the speed).
const DIGEST_OPS: u64 = 8;
/// Stream ids of warm-up lattices (timed ops use `0..`).
const WARMUP_STREAM: u64 = 1 << 40;
const CHECK_STREAM: u64 = 1 << 41;

const ROW_SPANS: [&str; 5] = [
    "topology.ivr.evaluate_row",
    "topology.mbvr.evaluate_row",
    "topology.ldo.evaluate_row",
    "topology.iplus_mbvr.evaluate_row",
    "topology.flexwatts.evaluate_row",
];
const ROW_METRICS: [&str; 5] = [
    "topology.ivr.row_ns_per_point",
    "topology.mbvr.row_ns_per_point",
    "topology.ldo.row_ns_per_point",
    "topology.iplus_mbvr.row_ns_per_point",
    "topology.flexwatts.row_ns_per_point",
];

struct Topologies {
    ivr: IvrPdn,
    mbvr: MbvrPdn,
    ldo: LdoPdn,
    iplus: IPlusMbvrPdn,
    flexwatts: FlexWattsAuto,
}

impl Topologies {
    fn new() -> Self {
        let params = ModelParams::paper_defaults();
        Self {
            ivr: IvrPdn::new(params.clone()),
            mbvr: MbvrPdn::new(params.clone()),
            ldo: LdoPdn::new(params.clone()),
            iplus: IPlusMbvrPdn::new(params.clone()),
            flexwatts: FlexWattsAuto::new(params),
        }
    }

    fn refs(&self) -> [&dyn Pdn; 5] {
        [&self.ivr, &self.mbvr, &self.ldo, &self.iplus, &self.flexwatts]
    }
}

/// The op's lattice, a pure function of `(seed, stream)`. Full-precision
/// axes: no two ops share a TDP (hence a SoC), so no cache that spans
/// ops can hit.
fn lattice(seed: u64, stream: u64) -> Result<SweepGrid, String> {
    let mut rng = Rng::new(seed, stream);
    let tdps = rng.sorted_axis(OP_TDPS, 4.0, 50.0);
    let ars = rng.sorted_axis(OP_ARS, 0.40, 0.80);
    SweepGrid::builder()
        .tdps(&tdps)
        .workload_types(&WorkloadType::ACTIVE_TYPES)
        .ars(&ars)
        .idle_states(&PackageCState::ALL)
        .build()
        .map_err(|e| format!("lattice: {e}"))
}

/// The scalar reference's scenario: built point by point with the
/// library's scenario constructors, not the batch row builder.
fn reference_scenario(grid: &SweepGrid, point: LatticePoint) -> Result<Scenario, PdnError> {
    let soc = client_soc(Watts::new(grid.tdps()[point.tdp_idx()]));
    match point {
        LatticePoint::Active { wl_idx, ar_idx, .. } => {
            let ar = ApplicationRatio::new(grid.ars()[ar_idx]).map_err(PdnError::Units)?;
            Scenario::active_fixed_tdp_frequency(&soc, grid.workload_types()[wl_idx], ar)
        }
        LatticePoint::Idle { state_idx, .. } => {
            Ok(Scenario::idle(&soc, grid.idle_states()[state_idx]))
        }
    }
}

fn bitwise_equal(a: &PdnEvaluation, b: &PdnEvaluation) -> bool {
    a == b
        && a.etee.get().to_bits() == b.etee.get().to_bits()
        && a.input_power.get().to_bits() == b.input_power.get().to_bits()
        && a.nominal_power.get().to_bits() == b.nominal_power.get().to_bits()
}

/// Re-evaluates seeded sample points of an op with scalar
/// `Pdn::evaluate`; returns whether the op failed a point or differs
/// from the reference by a bit. Traced runs time the scalar calls.
fn op_failed(
    pdns: &[&dyn Pdn; 5],
    grid: &SweepGrid,
    outcome: &BatchOutcome,
    seed: u64,
    op: u64,
    mut tracer: Option<&mut Tracer>,
) -> bool {
    let mut rng = Rng::new(seed, CHECK_STREAM ^ op);
    let mut failed = outcome.stats.failed > 0;
    for _ in 0..CHECKS_PER_OP {
        let idx = rng.index(grid.n_points());
        let p = rng.index(pdns.len());
        let Ok(scenario) = reference_scenario(grid, grid.point_at(idx)) else {
            failed = true;
            continue;
        };
        let reference = match tracer.as_deref_mut() {
            Some(t) => t.span("topology.evaluate", None, || pdns[p].evaluate(&scenario)),
            None => pdns[p].evaluate(&scenario),
        };
        failed |= match (&reference, &outcome.for_pdn(p)[idx].result) {
            (Ok(reference), Ok(fast)) => !bitwise_equal(reference, fast),
            _ => true,
        };
    }
    failed
}

/// One set-up: topologies plus warm-up ops. Returns them and its time.
fn setup(seed: u64) -> Result<(Topologies, f64), String> {
    let start = Instant::now();
    let topologies = Topologies::new();
    let config = EngineConfig::default();
    for k in 0..WARMUP_OPS {
        let grid = lattice(seed, WARMUP_STREAM + k)?;
        let outcome = evaluate(&topologies.refs(), &grid, &ClientSoc, &config, None);
        if outcome.stats.failed > 0 {
            return Err(format!("warm-up lattice failed: {:?}", outcome.first_error()));
        }
    }
    Ok((topologies, secs(start)))
}

/// The time of one set-up, for a `--setup-only` child process.
pub fn setup_time(seed: u64) -> Result<f64, String> {
    setup(seed).map(|(_, seconds)| seconds)
}

/// Per-op timing record.
struct OpTiming {
    wall_s: f64,
    evaluations: usize,
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let run_start = Instant::now();
    let mut setup_times = common::cold_setups("sweep", cfg.seed, SETUPS - 1)?;
    let (topologies, setup_s) = setup(cfg.seed)?;
    setup_times.push(setup_s);
    let pdns = topologies.refs();
    let config = EngineConfig::default();

    // Untraced runs time ops for the whole window; traced runs time
    // untraced ops for the first 40 % (the overhead baseline), then
    // traced ops with their layer re-executions.
    let measure_start = Instant::now();
    let untraced_until = if cfg.trace { cfg.seconds * 0.4 } else { cfg.seconds };
    let traced_until = cfg.seconds * 0.85;

    let mut untraced: Vec<OpTiming> = Vec::new();
    let mut traced: Vec<OpTiming> = Vec::new();
    let mut failed = 0u64;
    let mut digest = (0usize, 0.0f64, 0.0f64);
    let mut tracer = Tracer::new();
    let mut layer = LayerTotals::default();
    let allocs_before = common::allocations();
    let mut allocs_untraced = 0;

    let mut op = 0u64;
    loop {
        let elapsed = secs(measure_start);
        let tracing = cfg.trace && elapsed >= untraced_until;
        if op >= DIGEST_OPS && elapsed >= if cfg.trace { traced_until } else { cfg.seconds } {
            break;
        }
        if tracing && allocs_untraced == 0 {
            allocs_untraced = common::allocations() - allocs_before;
        }
        let grid = lattice(cfg.seed, op)?;
        tracer.next_op();
        let cpu_before = if cfg.trace { common::process_cpu_s() } else { 0.0 };
        let open = tracing.then(|| tracer.enter("sweep.op", None));
        let start = Instant::now();
        let outcome = evaluate(&pdns, &grid, &ClientSoc, &config, None);
        let wall_s = secs(start);
        let cpu_s = if cfg.trace { common::process_cpu_s() - cpu_before } else { 0.0 };
        let op_span = open.map(|o| {
            let id = o.id();
            tracer.exit(o);
            id
        });
        let timing = OpTiming { wall_s, evaluations: outcome.evaluations.len() };
        if tracing {
            trace_op(&pdns, &grid, &outcome, &mut tracer, op_span.flatten(), &mut layer)?;
            traced.push(timing);
        } else {
            layer.untraced_cpu_s += cpu_s;
            untraced.push(timing);
        }
        failed += u64::from(op_failed(
            &pdns,
            &grid,
            &outcome,
            cfg.seed,
            op,
            tracing.then_some(&mut tracer),
        ));
        if op < DIGEST_OPS {
            for e in &outcome.evaluations {
                if let Ok(eval) = &e.result {
                    digest.0 += 1;
                    digest.1 += eval.etee.get();
                    digest.2 += eval.input_power.get();
                }
            }
        }
        op += 1;
    }
    if allocs_untraced == 0 {
        allocs_untraced = common::allocations() - allocs_before;
    }

    let rates: Vec<f64> = untraced.iter().map(|t| t.evaluations as f64 / t.wall_s).collect();
    let lat_us: Vec<f64> = untraced.iter().map(|t| t.wall_s * 1e6).collect();
    let evals_per_op = untraced.first().map_or(0, |t| t.evaluations);
    let items_per_s = median(&rates);
    let mut outcome = Outcome {
        attempted: op,
        failed,
        correct: failed == 0,
        e2e: EndToEnd {
            setup_s: median(&setup_times),
            items_per_s,
            latency_p50_us: median(&lat_us),
            latency_p99_us: quantile(&lat_us, 0.99),
            samples: untraced.len(),
        },
        digest: format!(
            "sweep ops=0..{DIGEST_OPS} evals={} etee_sum={} input_sum={}",
            digest.0,
            digest_f64(digest.1),
            digest_f64(digest.2)
        ),
        aliases: vec![
            format!(
                "points_per_s     {items_per_s:>16.1} pts/s  (pdn x lattice-point evaluations)"
            ),
            format!("evals_per_op     {evals_per_op:>16} count  ({} topologies)", ROW_SPANS.len()),
        ],
        ..Outcome::default()
    };
    eprintln!("sweep: {} ops in {:.2}s", op, secs(run_start));

    if cfg.trace {
        let n = traced.len().max(1) as f64;
        let points = layer.points.max(1) as f64;
        let mut values = BTreeMap::new();
        layers::measure(cfg.seed, &mut tracer, &mut values)?;
        let build = tracer.total("scenario.build_scenarios");
        let rows_ns: u64 = ROW_SPANS.iter().map(|s| tracer.total(s).ns).sum();
        values.insert("scenario.row_build_us", build.ns as f64 / 1e3 / n);
        values.insert("batch.scenario_builds", tracer.counted("batch.scenario_builds") / n);
        for (span, metric) in ROW_SPANS.iter().zip(ROW_METRICS) {
            values.insert(metric, tracer.total(span).ns as f64 / (points / ROW_SPANS.len() as f64));
        }
        let untraced_points = untraced.iter().map(|t| t.evaluations).sum::<usize>().max(1);
        values.insert(
            "batch.residual_ns_per_point",
            layer.untraced_cpu_s * 1e9 / untraced_points as f64
                - (build.ns + rows_ns) as f64 / points,
        );
        values.insert("batch.worker_busy_frac", layer.busy_frac_sum / n);
        values.insert("topology.scalar_ns_per_point", tracer.mean_ns("topology.evaluate"));
        values.insert("alloc.per_op", allocs_untraced as f64 / untraced.len().max(1) as f64);

        let mut rows = vec![LayerRow {
            layer: "scenario.build_scenarios (serial)",
            calls_per_op: 1.0,
            us_per_call: build.ns as f64 / 1e3 / n,
        }];
        for span in ROW_SPANS {
            let t = tracer.total(span);
            rows.push(LayerRow {
                layer: span,
                calls_per_op: t.calls as f64 / n,
                us_per_call: tracer.mean_ns(span) / 1e3,
            });
        }
        outcome.reconciliation = Some(Reconciliation {
            rows,
            e2e_label: "untraced e2e CPU per op (all workers)",
            e2e_us: layer.untraced_cpu_s * 1e6 / untraced.len().max(1) as f64,
            untraced_us: median(&lat_us),
            traced_us: median(&traced.iter().map(|t| t.wall_s * 1e6).collect::<Vec<_>>()),
        });
        outcome.layers = values;
        tracer
            .write_spans(&crate::spans_path("sweep", cfg.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(outcome)
}

#[derive(Default)]
struct LayerTotals {
    /// CPU time of the untraced ops, all workers.
    untraced_cpu_s: f64,
    points: usize,
    busy_frac_sum: f64,
}

/// Re-executes one op layer by layer: the serial scenario build, then
/// every topology's row kernel over the pre-built rows with a fresh
/// `RowStage` per row.
fn trace_op(
    pdns: &[&dyn Pdn; 5],
    grid: &SweepGrid,
    outcome: &BatchOutcome,
    tracer: &mut Tracer,
    parent: Option<usize>,
    totals: &mut LayerTotals,
) -> Result<(), String> {
    let stats = &outcome.stats;
    let busy: f64 = stats.worker_wall.iter().map(|w| w.as_secs_f64()).sum();
    totals.busy_frac_sum += busy / (stats.workers.max(1) as f64 * stats.wall.as_secs_f64());

    let (scenarios, build_stats) = tracer.span("scenario.build_scenarios", parent, || {
        build_scenarios(grid, &ClientSoc, Workers::Serial)
    });
    tracer.count("batch.scenario_builds", build_stats.scenario_builds as f64);
    let scenarios: Vec<Scenario> = scenarios
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("scenario build: {e}"))?;
    for (p, pdn) in pdns.iter().enumerate() {
        for r in 0..grid.n_rows() {
            let span = grid.row_span(grid.row_at(r));
            let stage = RowStage::new();
            let results = tracer
                .span(ROW_SPANS[p], parent, || pdn.evaluate_row(&scenarios[span.clone()], &stage));
            std::hint::black_box(results);
        }
        totals.points += scenarios.len();
    }
    Ok(())
}
