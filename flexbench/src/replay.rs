//! `replay`: streaming trace replay through the Algorithm 1 runtime.
//!
//! Set-up trains the predictor, generates one seeded `zoo_mix` trace and
//! encodes it to `.pdnt`. Each op is one
//! `FlexWattsRuntime::run_streaming` of that file with periodic
//! checkpointing on — the per-interval scalar path: one scenario build
//! and two FlexWatts-mode evaluations per interval, the serial predictor
//! step, chunk decode with CRC, and crash-safe checkpoint writes. The
//! reference is an in-memory `run_with(Workers::Serial)` on a fresh
//! runtime; every streamed report must equal it bit for bit, with no
//! defects and every encoded interval replayed.

use crate::common::{self, digest_f64, median, quantile, secs, Rng, ScratchDir, Tracer};
use crate::{layers, EndToEnd, LayerRow, Outcome, Reconciliation, RunConfig};
use flexwatts::{
    CheckpointPlan, FileReplayReport, FlexWattsPdn, FlexWattsRuntime, ModePredictor, PdnMode,
    ReplayFileOptions, RuntimeConfig, RuntimeReport, TraceReplayer,
};
use pdn_proc::{client_soc, SocSpec};
use pdn_units::Watts;
use pdn_workload::tracefile::{write_trace_chunked, DefectPolicy, TraceReader};
use pdn_workload::{zoo, Phase, Trace, TraceInterval};
use pdnspot::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Intervals per zoo scenario (four scenarios per trace), intervals per
/// chunk, and the checkpoint cadence: those of the repository's quick
/// trace benchmark (`pdn-bench trace`), so an op is a 10 000-interval
/// trace. Feed batches are the library's default size.
const PER_SCENARIO: usize = 2_500;
const CHUNK_CAPACITY: usize = 1_024;
const CHECKPOINT_EVERY: u64 = 1_000;
/// Cold set-ups per run, this process's own included; `setup_s` is
/// their median.
const SETUPS: usize = 5;
/// The runtime's SoC; fixed so every seed costs the same per interval.
const TDP_W: f64 = 18.0;
const TRAIN_TDPS: [f64; 5] = [4.0, 10.0, 18.0, 25.0, 50.0];
const TRAIN_ARS: [f64; 3] = [0.4, 0.6, 0.8];

struct Setup {
    scratch: ScratchDir,
    trace_path: PathBuf,
    trace: Trace,
    predictor: ModePredictor,
    runtime: FlexWattsRuntime,
    train_ms: f64,
    encode_ms: f64,
}

fn soc() -> SocSpec {
    client_soc(Watts::new(TDP_W))
}

fn options(checkpoint: &Path) -> ReplayFileOptions {
    ReplayFileOptions {
        workers: Workers::Auto,
        policy: DefectPolicy::Quarantine,
        checkpoint: Some(CheckpointPlan {
            path: checkpoint.to_path_buf(),
            every_intervals: CHECKPOINT_EVERY,
            resume: false,
        }),
        ..ReplayFileOptions::default()
    }
}

/// Checkpoints a replay of `encoded` intervals writes: one after each
/// feed batch that ends a full cadence period past the last checkpoint.
fn expected_checkpoints(encoded: u64, batch: u64) -> u64 {
    let (mut done, mut last, mut written) = (0, 0, 0);
    while done < encoded {
        done = (done + batch).min(encoded);
        if done - last >= CHECKPOINT_EVERY {
            last = done;
            written += 1;
        }
    }
    written
}

fn setup(seed: u64) -> Result<(Setup, f64), String> {
    let start = Instant::now();
    let params = ModelParams::paper_defaults();
    let t = Instant::now();
    let predictor = ModePredictor::train(&params, &TRAIN_TDPS, &TRAIN_ARS)
        .map_err(|e| format!("predictor training: {e}"))?;
    let train_ms = secs(t) * 1e3;

    let scratch = ScratchDir::new("replay").map_err(|e| format!("scratch dir: {e}"))?;
    let trace_path = scratch.path().join("zoo.pdnt");
    let t = Instant::now();
    let trace = zoo::zoo_mix(Rng::new(seed, 0x2E91).next_u64(), PER_SCENARIO);
    write_trace_chunked(&trace_path, &trace, CHUNK_CAPACITY)
        .map_err(|e| format!("encoding the trace: {e}"))?;
    let encode_ms = secs(t) * 1e3;

    let runtime = FlexWattsRuntime::new(soc(), params, predictor.clone(), RuntimeConfig::default());
    // The warm-up replay skips checkpointing: its disk syncs would make
    // set-up time track the disk's latency rather than the set-up work.
    let warm_options = ReplayFileOptions { checkpoint: None, ..options(Path::new("")) };
    let warm = runtime
        .run_streaming(&trace_path, &warm_options)
        .map_err(|e| format!("warm-up replay: {e}"))?;
    std::hint::black_box(warm);
    let s = Setup { scratch, trace_path, trace, predictor, runtime, train_ms, encode_ms };
    Ok((s, secs(start)))
}

/// The time of one set-up, for a `--setup-only` child process.
pub fn setup_time(seed: u64) -> Result<f64, String> {
    setup(seed).map(|(_, seconds)| seconds)
}

fn reports_bitwise_equal(a: &RuntimeReport, b: &RuntimeReport) -> bool {
    a.energy_joules.to_bits() == b.energy_joules.to_bits()
        && a.oracle_energy_joules.to_bits() == b.oracle_energy_joules.to_bits()
        && a.total_time.get().to_bits() == b.total_time.get().to_bits()
        && a.prediction_accuracy.to_bits() == b.prediction_accuracy.to_bits()
        && a.switches == b.switches
        && a.time_in_mode == b.time_in_mode
        && a.predictor_evaluations == b.predictor_evaluations
        && a.protection_overrides == b.protection_overrides
        && a.switch_failures == b.switch_failures
        && a.switch_retries == b.switch_retries
}

/// A clean streamed replay: nothing lost, nothing quarantined, every
/// encoded interval replayed, the scheduled checkpoints written.
fn clean(report: &FileReplayReport, encoded: u64, batch: usize) -> bool {
    report.defects.total() == 0
        && report.intervals_lost == 0
        && report.chunks_quarantined == 0
        && report.intervals_replayed == encoded
        && report.checkpoints_written == expected_checkpoints(encoded, batch as u64)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setup_times = common::cold_setups("replay", cfg.seed, SETUPS - 1)?;
    let (s, setup_s) = setup(cfg.seed)?;
    setup_times.push(setup_s);
    let encoded = s.trace.intervals().len() as u64;
    let checkpoint = s.scratch.path().join("replay.pdnc");
    let opts = options(&checkpoint);

    let measure_start = Instant::now();
    let untraced_until = if cfg.trace { cfg.seconds * 0.4 } else { cfg.seconds };
    let stop_at = if cfg.trace { cfg.seconds * 0.85 } else { cfg.seconds };
    let mut untraced_s: Vec<f64> = Vec::new();
    let mut traced_s: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    let mut first: Option<FileReplayReport> = None;
    let mut tracer = Tracer::new();
    let mut totals = FeedTotals::default();
    let allocs_before = common::allocations();
    let mut allocs_untraced = None;
    let mut op = 0u64;
    while op == 0 || secs(measure_start) < stop_at {
        let tracing = cfg.trace && secs(measure_start) >= untraced_until;
        if tracing && allocs_untraced.is_none() {
            allocs_untraced = Some(common::allocations() - allocs_before);
        }
        tracer.next_op();
        let cpu_before = if cfg.trace { common::process_cpu_s() } else { 0.0 };
        let open = tracing.then(|| tracer.enter("replay.op", None));
        let start = Instant::now();
        let result = s.runtime.run_streaming(&s.trace_path, &opts);
        let wall = secs(start);
        let cpu_s = if cfg.trace { common::process_cpu_s() - cpu_before } else { 0.0 };
        let parent = open.map(|o| {
            let id = o.id();
            tracer.exit(o);
            id
        });
        op += 1;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                eprintln!("replay: op {op} failed: {e}");
                failed += 1;
                continue;
            }
        };
        let ok = clean(&report, encoded, opts.batch_intervals)
            && first.as_ref().is_none_or(|f| reports_bitwise_equal(&f.report, &report.report));
        failed += u64::from(!ok);
        if tracing {
            trace_op(&s, &mut tracer, parent.flatten(), &mut totals)?;
            traced_s.push(wall);
        } else {
            totals.untraced_cpu_s += cpu_s;
            untraced_s.push(wall);
        }
        first.get_or_insert(report);
    }
    let allocs_untraced = allocs_untraced.unwrap_or_else(|| common::allocations() - allocs_before);

    // The independent reference: the in-memory trace on a fresh runtime
    // (its own sensor stream from sample 0), serial.
    let reference_rt = FlexWattsRuntime::new(
        soc(),
        ModelParams::paper_defaults(),
        s.predictor.clone(),
        RuntimeConfig::default(),
    );
    let reference = reference_rt
        .run_with(&s.trace, Workers::Serial)
        .map_err(|e| format!("reference replay: {e}"))?;
    // Every op was compared with the first, so a first op that differs
    // from the reference fails them all.
    let correct = first.as_ref().is_some_and(|f| reports_bitwise_equal(&f.report, &reference));
    if !correct {
        eprintln!("replay: streamed report differs from the in-memory reference");
        failed = op;
    }

    let rates: Vec<f64> = untraced_s.iter().map(|w| encoded as f64 / w).collect();
    let lat_us: Vec<f64> = untraced_s.iter().map(|w| w * 1e6).collect();
    let items_per_s = median(&rates);
    let energy_vs_oracle = reference.energy_efficiency_vs_oracle();
    let accuracy = reference.prediction_accuracy;
    let mut outcome = Outcome {
        attempted: op,
        failed,
        correct,
        e2e: EndToEnd {
            setup_s: median(&setup_times),
            items_per_s,
            latency_p50_us: median(&lat_us),
            latency_p99_us: quantile(&lat_us, 0.99),
            samples: untraced_s.len(),
        },
        digest: format!(
            "replay intervals={encoded} energy_j={} oracle_j={} switches={} accuracy={} \
             energy_vs_oracle={}",
            digest_f64(reference.energy_joules),
            digest_f64(reference.oracle_energy_joules),
            reference.switches.len(),
            digest_f64(accuracy),
            digest_f64(energy_vs_oracle),
        ),
        aliases: vec![
            format!("intervals_per_s  {items_per_s:>16.1} 1/s  ({encoded} intervals per op)"),
            format!("energy_vs_oracle {energy_vs_oracle:>16.6} ratio  (simulated)"),
            format!("mode_accuracy    {accuracy:>16.6} fraction  (simulated)"),
        ],
        ..Outcome::default()
    };

    if cfg.trace {
        let n = traced_s.len().max(1) as f64;
        let intervals = (n * encoded as f64).max(1.0);
        let mut values = BTreeMap::new();
        layers::measure(cfg.seed, &mut tracer, &mut values)?;
        let decode = tracer.total("tracefile.next_interval");
        let feed = tracer.total("runtime.feed");
        let save = tracer.total("replay.checkpoint_save");
        let scenario_ns = tracer.total("scenario.active_fixed_tdp_frequency").ns
            + tracer.total("scenario.idle").ns;
        let eval_ns = tracer.total("topology.flexwatts_ivr.evaluate").ns
            + tracer.total("topology.flexwatts_ldo.evaluate").ns;
        values.insert("tracefile.decode_ns_per_interval", decode.ns as f64 / intervals);
        values.insert("tracefile.chunks", tracer.counted("tracefile.chunks") / n);
        values.insert("runtime.feed_ns_per_interval", feed.ns as f64 / intervals);
        values.insert(
            "runtime.feed_residual_ns_per_interval",
            (totals.feed_cpu_s * 1e9 - scenario_ns as f64 - eval_ns as f64) / intervals,
        );
        values.insert(
            "scenario.point_build_us",
            tracer.mean_ns("scenario.active_fixed_tdp_frequency") / 1e3,
        );
        let ivr = tracer.mean_ns("topology.flexwatts_ivr.evaluate");
        let ldo = tracer.mean_ns("topology.flexwatts_ldo.evaluate");
        values.insert("topology.flexwatts_ivr.scalar_ns", ivr);
        values.insert("topology.flexwatts_ldo.scalar_ns", ldo);
        values.insert("topology.scalar_ns_per_point", (ivr + ldo) / 2.0);
        values.insert(
            "replay.checkpoint_encode_us",
            tracer.mean_ns("replay.checkpoint_encode") / 1e3,
        );
        values.insert("replay.checkpoint_save_ms", tracer.mean_ns("replay.checkpoint_save") / 1e6);
        values
            .insert("replay.checkpoints", tracer.total("replay.checkpoint_save").calls as f64 / n);
        values.insert("runtime.switches", reference.switches.len() as f64);
        values.insert("runtime.energy_vs_oracle", energy_vs_oracle);
        values.insert("runtime.mode_accuracy", accuracy);
        values.insert("alloc.per_op", allocs_untraced as f64 / untraced_s.len().max(1) as f64);
        values.insert("setup.predictor_train_ms", s.train_ms);
        values.insert("setup.trace_encode_ms", s.encode_ms);

        let row = |layer: &'static str, name: &str| {
            let t = tracer.total(name);
            LayerRow {
                layer,
                calls_per_op: t.calls as f64 / n,
                us_per_call: tracer.mean_ns(name) / 1e3,
            }
        };
        let rows = vec![
            row("tracefile.next_interval (whole file)", "tracefile.next_interval"),
            LayerRow {
                layer: "runtime.feed (CPU, all workers)",
                calls_per_op: feed.calls as f64 / n,
                us_per_call: totals.feed_cpu_s * 1e6 / feed.calls.max(1) as f64,
            },
            row("replay.checkpoint_encode", "replay.checkpoint_encode"),
            LayerRow {
                layer: "replay.checkpoint_save (CPU)",
                calls_per_op: save.calls as f64 / n,
                us_per_call: totals.save_cpu_s * 1e6 / save.calls.max(1) as f64,
            },
        ];
        outcome.aliases.push(format!(
            "feed breakdown per interval: scenario {:.1} ns + evaluate {:.1} ns + residual {:.1} ns (CPU)",
            scenario_ns as f64 / intervals,
            eval_ns as f64 / intervals,
            (totals.feed_cpu_s * 1e9 - scenario_ns as f64 - eval_ns as f64) / intervals,
        ));
        outcome.reconciliation = Some(Reconciliation {
            rows,
            e2e_label: "untraced e2e CPU per op (all workers)",
            e2e_us: totals.untraced_cpu_s * 1e6 / untraced_s.len().max(1) as f64,
            untraced_us: median(&lat_us),
            traced_us: median(&traced_s.iter().map(|w| w * 1e6).collect::<Vec<_>>()),
        });
        outcome.layers = values;
        tracer
            .write_spans(&crate::spans_path("replay", cfg.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(outcome)
}

#[derive(Default)]
struct FeedTotals {
    /// CPU time of the untraced ops, all workers.
    untraced_cpu_s: f64,
    /// CPU time of the checkpoint saves (their disk waits are not CPU).
    save_cpu_s: f64,
    feed_cpu_s: f64,
}

/// Re-executes one op layer by layer: decode the whole file, feed it in
/// the op's batches (checkpointing on the op's cadence, by the rule of
/// [`expected_checkpoints`]), and time each interval's scenario build
/// and both FlexWatts-mode evaluations.
fn trace_op(
    s: &Setup,
    tracer: &mut Tracer,
    parent: Option<usize>,
    totals: &mut FeedTotals,
) -> Result<(), String> {
    let mut reader = TraceReader::open(&s.trace_path, DefectPolicy::Quarantine)
        .map_err(|e| format!("reopening the trace: {e}"))?;
    let fingerprint = reader.fingerprint();
    let intervals: Vec<TraceInterval> = tracer.span("tracefile.next_interval", parent, || {
        let mut out = Vec::new();
        while let Ok(Some(interval)) = reader.next_interval() {
            out.push(interval);
        }
        out
    });
    tracer.count("tracefile.chunks", reader.chunks_ok() as f64);

    let checkpoint = s.scratch.path().join("traced.pdnc");
    let mut replayer = TraceReplayer::new(&s.runtime, Workers::Auto);
    let mut last_checkpoint = 0;
    for batch in intervals.chunks(ReplayFileOptions::default().batch_intervals) {
        let cpu = common::process_cpu_s();
        tracer
            .span("runtime.feed", parent, || replayer.feed(batch))
            .map_err(|e| format!("feed: {e}"))?;
        totals.feed_cpu_s += common::process_cpu_s() - cpu;
        if replayer.intervals_done() - last_checkpoint < CHECKPOINT_EVERY {
            continue;
        }
        last_checkpoint = replayer.intervals_done();
        let cp = tracer.span("replay.checkpoint_encode", parent, || {
            let cp = replayer.checkpoint(fingerprint);
            std::hint::black_box(cp.encode());
            cp
        });
        let cpu = common::process_cpu_s();
        tracer
            .span("replay.checkpoint_save", parent, || cp.save(&checkpoint))
            .map_err(|e| format!("checkpoint save: {e}"))?;
        totals.save_cpu_s += common::process_cpu_s() - cpu;
    }

    let params = ModelParams::paper_defaults();
    let ivr = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
    let ldo = FlexWattsPdn::new(params, PdnMode::LdoMode);
    let soc = soc();
    for interval in &intervals {
        let scenario = match interval.phase {
            Phase::Active { workload_type, ar } => {
                tracer.span("scenario.active_fixed_tdp_frequency", parent, || {
                    Scenario::active_fixed_tdp_frequency(&soc, workload_type, ar)
                })
            }
            Phase::Idle(state) => {
                tracer.span("scenario.idle", parent, || Ok(Scenario::idle(&soc, state)))
            }
        }
        .map_err(|e| format!("scenario: {e}"))?;
        let a = tracer.span("topology.flexwatts_ivr.evaluate", parent, || ivr.evaluate(&scenario));
        let b = tracer.span("topology.flexwatts_ldo.evaluate", parent, || ldo.evaluate(&scenario));
        std::hint::black_box(a.and(b)).map_err(|e| format!("evaluate: {e}"))?;
    }
    Ok(())
}
