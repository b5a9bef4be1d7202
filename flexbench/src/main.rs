//! The repository's benchmark: one command, four seeded workloads over
//! the three end-to-end paths of the FlexWatts/PDNspot reproduction.
//!
//! ```text
//! cargo run --release --manifest-path flexbench/Cargo.toml -- \
//!     --workload <sweep|replay|serve_hot|serve_cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it measures the per-layer metrics: spans
//! around the benchmark's own calls into each layer's public functions,
//! kept in memory, reconciled against the end-to-end figure, and written
//! to `flexbench/out/` at the end. Each run checks its outputs against an
//! independent reference and prints a deterministic result digest. The
//! last line of standard output is the JSON result.
//!
//! See `README.md` beside this package for every metric's meaning.

mod common;
mod layers;
mod replay;
mod serve;
mod sweep;

use common::CountingAlloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// The p99 latency is printed beside them but reported with the
/// per-layer metrics (`latency.p99_us`): on a small shared host its
/// run-to-run spread is too wide for a regression bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("ok_rate", "fraction"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("latency.p99_us", "us"),
    ("host.ref_kernel_ns", "ns"),
    ("alloc.per_op", "count"),
    ("setup.predictor_train_ms", "ms"),
    ("setup.trace_encode_ms", "ms"),
    ("setup.engine_boot_ms", "ms"),
    ("units.curve1_eval_ns", "ns"),
    ("units.grid2_eval_ns", "ns"),
    ("vr.buck_eta_ns", "ns"),
    ("vr.ldo_eta_ns", "ns"),
    ("vr.compiled_surface_ns", "ns"),
    ("scenario.row_build_us", "us"),
    ("scenario.point_build_us", "us"),
    ("batch.scenario_builds", "count"),
    ("batch.residual_ns_per_point", "ns"),
    ("batch.par_map_call_us", "us"),
    ("batch.worker_busy_frac", "fraction"),
    ("topology.ivr.row_ns_per_point", "ns"),
    ("topology.mbvr.row_ns_per_point", "ns"),
    ("topology.ldo.row_ns_per_point", "ns"),
    ("topology.iplus_mbvr.row_ns_per_point", "ns"),
    ("topology.flexwatts.row_ns_per_point", "ns"),
    ("topology.flexwatts_ivr.scalar_ns", "ns"),
    ("topology.flexwatts_ldo.scalar_ns", "ns"),
    ("topology.scalar_ns_per_point", "ns"),
    ("tracefile.decode_ns_per_interval", "ns"),
    ("tracefile.chunks", "count"),
    ("runtime.feed_ns_per_interval", "ns"),
    ("runtime.feed_residual_ns_per_interval", "ns"),
    ("runtime.switches", "count"),
    ("runtime.energy_vs_oracle", "ratio"),
    ("runtime.mode_accuracy", "fraction"),
    ("replay.checkpoint_encode_us", "us"),
    ("replay.checkpoint_save_ms", "ms"),
    ("replay.checkpoints", "count"),
    ("protocol.encode_request_ns", "ns"),
    ("protocol.decode_request_ns", "ns"),
    ("protocol.encode_response_ns", "ns"),
    ("protocol.decode_response_ns", "ns"),
    ("wire.frame_encode_ns", "ns"),
    ("wire.frame_decode_ns", "ns"),
    ("admission.submit_ns", "ns"),
    ("admission.drain_ns_per_job", "ns"),
    ("admission.rejected", "count"),
    ("engine.handle_hit_ns", "ns"),
    ("engine.handle_miss_ns", "ns"),
    ("engine.sample_ns", "ns"),
    ("memo.hit_rate", "fraction"),
    ("memo.evictions", "count"),
    ("server.coalesced", "count"),
    ("server.shed", "count"),
    ("transport.residual_us", "us"),
    ("trace.overhead_frac", "fraction"),
    ("trace.residual_frac", "fraction"),
];

/// The end-to-end figures every workload measures.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median time of the run's cold set-ups (see `common::cold_setups`).
    pub setup_s: f64,
    /// Work completed per second (median over ops or windows).
    pub items_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    /// Samples behind the timing medians.
    pub samples: usize,
}

/// One line of a traced run's reconciliation table: a layer's cost per
/// call, its calls per op, and their product.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub layer: &'static str,
    pub calls_per_op: f64,
    pub us_per_call: f64,
}

/// A traced run's reconciliation of layer costs against the end-to-end
/// figure of the same kind (CPU or wall time per op).
#[derive(Debug, Clone)]
pub struct Reconciliation {
    pub rows: Vec<LayerRow>,
    /// What the layer sum is compared with, e.g. "e2e CPU per op".
    pub e2e_label: &'static str,
    pub e2e_us: f64,
    /// Median op time without and with tracing, for the overhead.
    pub untraced_us: f64,
    pub traced_us: f64,
}

impl Reconciliation {
    pub fn layer_sum_us(&self) -> f64 {
        self.rows.iter().map(|r| r.calls_per_op * r.us_per_call).sum()
    }

    pub fn residual_us(&self) -> f64 {
        self.e2e_us - self.layer_sum_us()
    }

    /// The residual as a share of the end-to-end figure.
    pub fn residual_share(&self) -> f64 {
        if self.e2e_us > 0.0 {
            self.residual_us() / self.e2e_us
        } else {
            0.0
        }
    }

    pub fn overhead_frac(&self) -> f64 {
        if self.untraced_us > 0.0 {
            self.traced_us / self.untraced_us - 1.0
        } else {
            0.0
        }
    }

    fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "reconciliation ({workload}, per op):");
        let _ =
            writeln!(out, "  {:<44} {:>12} {:>14} {:>14}", "layer", "calls/op", "us/call", "us/op");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<44} {:>12.2} {:>14.4} {:>14.2}",
                r.layer,
                r.calls_per_op,
                r.us_per_call,
                r.calls_per_op * r.us_per_call
            );
        }
        let _ = writeln!(out, "  {:<44} {:>42.2}", "layer sum", self.layer_sum_us());
        let _ = writeln!(out, "  {:<44} {:>42.2}", self.e2e_label, self.e2e_us);
        let _ = writeln!(
            out,
            "  {:<44} {:>42.2}  ({:+.1}% of e2e)",
            "residual (e2e - layer sum)",
            self.residual_us(),
            self.residual_share() * 100.0
        );
        let _ = write!(
            out,
            "  tracing overhead: median op {:.2} us traced vs {:.2} us untraced ({:+.2}%)",
            self.traced_us,
            self.untraced_us,
            self.overhead_frac() * 100.0
        );
        out
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every reference check passed.
    pub correct: bool,
    pub e2e: EndToEnd,
    /// Per-layer values of a traced run, by [`PER_LAYER`] name.
    pub layers: BTreeMap<&'static str, f64>,
    pub reconciliation: Option<Reconciliation>,
    /// Deterministic summary of the simulated results.
    pub digest: String,
    /// The workload's own names for its figures (e.g. points_per_s).
    pub aliases: Vec<String>,
}

struct Args {
    workload: String,
    config: RunConfig,
    /// Only time one set-up and print it (`setup_s <seconds>`): the
    /// mode [`common::cold_setups`] starts child processes in.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--setup-only" => {
                setup_only = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--setup-only must be 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        config: RunConfig {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
        setup_only,
    })
}

/// Times one cold set-up of `workload` (the `--setup-only` mode).
fn setup_only(workload: &str, seed: u64) -> ExitCode {
    let result = match workload {
        "sweep" => sweep::setup_time(seed),
        "replay" => replay::setup_time(seed),
        "serve_hot" => serve::setup_time(seed, serve::Traffic::Hot),
        "serve_cold" => serve::setup_time(seed, serve::Traffic::Cold),
        "serve_inproc" => serve::inproc::setup_time(seed),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(seconds) => {
            println!("setup_s {seconds}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flexbench: {workload} set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flexbench: {e}");
            eprintln!(
                "usage: flexbench --workload <sweep|replay|serve_hot|serve_cold|serve_inproc> \
                 --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = args.config;
    if args.setup_only {
        return setup_only(&args.workload, cfg.seed);
    }
    let ref_kernel_ns = common::reference_kernel_ns();
    println!(
        "host: cpu=\"{}\" nproc={} rustc=\"{}\" ref_kernel_ns={ref_kernel_ns:.4}",
        common::cpu_model(),
        common::nproc(),
        env!("FLEXBENCH_RUSTC"),
    );
    println!(
        "run: workload={} seed={} seconds={} trace={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );

    let result = match args.workload.as_str() {
        "sweep" => sweep::run(&cfg),
        "replay" => replay::run(&cfg),
        "serve_hot" => serve::run(&cfg, serve::Traffic::Hot),
        "serve_cold" => serve::run(&cfg, serve::Traffic::Cold),
        "serve_inproc" => serve::inproc::run(&cfg),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("flexbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let peak_rss = common::peak_rss_mib();
    let ok_rate = if outcome.attempted == 0 {
        0.0
    } else {
        outcome.attempted.saturating_sub(outcome.failed) as f64 / outcome.attempted as f64
    };
    let correct = outcome.correct && outcome.failed == 0 && outcome.attempted > 0;

    let e2e = &outcome.e2e;
    let e2e_values = [e2e.setup_s, e2e.items_per_s, e2e.latency_p50_us, peak_rss, ok_rate];
    println!("end-to-end ({} timing samples):", e2e.samples);
    for ((name, unit), value) in END_TO_END.iter().zip(e2e_values) {
        println!("  {name:<16} {value:>16.4} {unit}");
    }
    println!("  latency_p99_us   {:>16.4} us  (unbounded; see latency.p99_us)", e2e.latency_p99_us);
    println!(
        "  error_rate       {:>16.4} fraction  ({} failed of {} attempted)",
        1.0 - ok_rate,
        outcome.failed,
        outcome.attempted
    );
    for alias in &outcome.aliases {
        println!("  {alias}");
    }
    println!("digest: {}", outcome.digest);

    let metrics: Vec<(&str, &str, f64)> = if cfg.trace {
        outcome.layers.insert("host.ref_kernel_ns", ref_kernel_ns);
        outcome.layers.insert("latency.p99_us", outcome.e2e.latency_p99_us);
        if let Some(rec) = &outcome.reconciliation {
            println!("{}", rec.render(&args.workload));
            outcome.layers.insert("trace.overhead_frac", rec.overhead_frac());
            outcome.layers.insert("trace.residual_frac", rec.residual_share());
        }
        for name in outcome.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "workload reported an undeclared layer metric {name}"
            );
        }
        println!("per-layer:");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = outcome.layers.get(name).copied().unwrap_or(0.0);
                println!("  {name:<40} {value:>16.4} {unit}");
                (name, unit, value)
            })
            .collect()
    } else {
        END_TO_END.iter().zip(e2e_values).map(|(&(n, u), v)| (n, u, v)).collect()
    };

    // A non-finite figure (say, a p50 over a window whose requests all
    // failed) is no measurement: the run fails instead of reporting it.
    if let Some((name, _, value)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        eprintln!("flexbench: metric {name} is {value}, not a measurement");
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("flexbench: reference check failed");
        ExitCode::FAILURE
    }
}

/// Where traced runs write their spans.
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("{workload}-{seed}.spans.jsonl"))
}
