//! `serve_inproc`: the `serve_hot` request stream through pdn-serve's
//! serving layers in process, with no socket and no client or
//! connection threads.
//!
//! Each op takes a window of `WINDOW` requests from each of `nproc`
//! client streams, exactly the load the loopback daemon holds in flight
//! under `serve_hot`. Every request is encoded and framed (CRC-32),
//! decoded, and submitted to an `AdmissionQueue`. One drain and one
//! `admission::run_batch` answer the whole window as the daemon's
//! dispatcher does: coalescing, the `par_map` fan-out over the default
//! worker pool, and `ServeEngine::handle` with its memo reads. Every
//! reply is then encoded, framed, decoded and folded into its stream's
//! checksum, which the shared reference check verifies.
//!
//! The loopback workloads add what a closed loop over TCP costs: socket
//! syscalls and the hand-offs between client, connection and dispatcher
//! threads. On a small shared host those hand-offs make throughput swing
//! with the vCPU time the host's other tenants take (see `README.md`),
//! so this workload is the one a regression bound can hold.

use super::{
    boot, eval_hash, fold_term, reexecute, sample_hash, sum_stats, universe, verify, ConnResult,
    Counters, Generator, Query, Stream, Traffic, SETUPS, WARM_STREAM, WINDOW,
};
use crate::common::{self, median, quantile, secs, Tracer};
use crate::{EndToEnd, LayerRow, Outcome, Reconciliation, RunConfig};
use pdn_serve::admission::{run_batch, AdmissionQueue, Job, ReplyHandle};
use pdn_serve::engine::ServeEngine;
use pdn_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    ResponseBody,
};
use pdn_serve::wire::{decode_frame, encode_frame};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

const NAME: &str = "serve_inproc";
/// Untimed ops at the end of each set-up.
const WARM_OPS: usize = 200;
/// Leading requests per stream whose reference values form the digest
/// (always issued, whatever the speed); as in the loopback workloads.
const DIGEST_REQUESTS: u64 = 2000;
/// A lower bound on one op's time, which sizes the op-time record.
const MIN_OP_S: f64 = 20e-6;

/// The daemon's serving layers, driven from this thread.
struct Local {
    engine: Arc<ServeEngine>,
    queue: AdmissionQueue,
    tx: SyncSender<Response>,
    rx: Receiver<Response>,
    evicted: Arc<AtomicBool>,
}

impl Local {
    fn new(engine: Arc<ServeEngine>) -> Self {
        let depth = engine.config().admission_depth();
        let queue = AdmissionQueue::new(depth, engine.config().tenant_quota_for(depth));
        // Room for every reply of one op: a full channel evicts.
        let (tx, rx) = sync_channel(common::nproc() * WINDOW);
        Self { engine, queue, tx, rx, evicted: Arc::new(AtomicBool::new(false)) }
    }
}

/// One client stream and what it observed.
struct Conn {
    gen: Generator,
    result: ConnResult,
}

fn conns(stream: &Stream, base: u64) -> Vec<Conn> {
    (0..common::nproc() as u64)
        .map(|c| Conn {
            gen: stream.generator(base + c),
            result: ConnResult { stream: base + c, ..ConnResult::default() },
        })
        .collect()
}

/// Runs `f`, inside a span named `name` when tracing.
fn layer<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, None, f),
        None => f(),
    }
}

/// One op: a window of requests from every stream through encode,
/// framing, decode and admission; one drain and `run_batch`; every reply
/// back through encode, framing and decode into its stream's fold.
fn op(local: &Local, conns: &mut [Conn], mut tracer: Option<&mut Tracer>) {
    // (connection, sequence number, query) by request id.
    let mut in_flight: Vec<(usize, u64, Query)> = Vec::with_capacity(conns.len() * WINDOW);
    let mut answered = vec![false; conns.len() * WINDOW];
    for (c, conn) in conns.iter_mut().enumerate() {
        for _ in 0..WINDOW {
            let (tenant, query) = conn.gen.next();
            let seq = conn.result.issued;
            conn.result.issued += 1;
            let id = in_flight.len() as u64;
            in_flight.push((c, seq, query));
            let request = Request { tenant, id, deadline_ms: 0, body: query.body() };
            let body = layer(&mut tracer, "protocol.encode_request", || encode_request(&request));
            let frame = layer(&mut tracer, "wire.frame_encode", || encode_frame(&body));
            let decoded = layer(&mut tracer, "wire.frame_decode", || decode_frame(&frame))
                .ok()
                .and_then(|(body, _)| {
                    layer(&mut tracer, "protocol.decode_request", || decode_request(body)).ok()
                });
            let Some(decoded) = decoded else {
                conn.result.failed.push(seq);
                continue;
            };
            let job = Job::new(decoded, ReplyHandle::new(local.tx.clone(), local.evicted.clone()));
            let submitted = layer(&mut tracer, "admission.submit", || {
                local.queue.submit(job).map_err(|(_, rejection)| rejection)
            });
            if let Err(rejection) = submitted {
                conn.result.overloaded += 1;
                conn.result.failed.push(seq);
                eprintln!("{NAME}: admission refused request {id}: {rejection:?}");
            }
        }
    }
    if !local.queue.is_empty() {
        let jobs = layer(&mut tracer, "admission.drain", || local.queue.drain());
        if let Some(t) = tracer.as_deref_mut() {
            t.count("admission.drained", jobs.as_ref().map_or(0, Vec::len) as f64);
        }
        if let Some(jobs) = jobs {
            layer(&mut tracer, "admission.run_batch", || run_batch(&local.engine, jobs));
        }
    }
    while let Ok(response) = local.rx.try_recv() {
        let body = layer(&mut tracer, "protocol.encode_response", || encode_response(&response));
        let frame = layer(&mut tracer, "wire.frame_encode", || encode_frame(&body));
        let decoded = layer(&mut tracer, "wire.frame_decode", || decode_frame(&frame))
            .ok()
            .and_then(|(body, _)| {
                layer(&mut tracer, "protocol.decode_response", || decode_response(body)).ok()
            });
        let Some(response) = decoded else { continue };
        let Some(&(c, seq, query)) = in_flight.get(response.id as usize) else { continue };
        let answer = match (&response.body, query) {
            (ResponseBody::Eval(eval), Query::Eval { .. }) => Some(eval_hash(eval)),
            (ResponseBody::Sample(s), Query::Sample { .. }) => Some(sample_hash(*s)),
            _ => None,
        };
        let result = &mut conns[c].result;
        match answer {
            Some(answer) if !answered[response.id as usize] => {
                answered[response.id as usize] = true;
                result.fold = result.fold.wrapping_add(fold_term(seq, answer));
            }
            _ => result.failed.push(seq),
        }
    }
    // A request that was admitted but never answered also failed.
    for (id, &(c, seq, _)) in in_flight.iter().enumerate() {
        if !answered[id] && !conns[c].result.failed.contains(&seq) {
            conns[c].result.failed.push(seq);
        }
    }
}

/// One set-up: boot, memo fill, warm ops. Returns the serving layers,
/// the boot time (ms), and the whole set-up time (s).
fn setup(stream: &Stream) -> Result<(Local, f64, f64), String> {
    let start = Instant::now();
    let (engine, boot_ms) = boot(stream)?;
    let local = Local::new(engine);
    let mut warm = conns(stream, WARM_STREAM);
    for _ in 0..WARM_OPS {
        op(&local, &mut warm, None);
    }
    if let Some(bad) = warm.iter().find(|c| !c.result.failed.is_empty()) {
        return Err(format!("warm-up requests failed: {} errors", bad.result.failed.len()));
    }
    Ok((local, boot_ms, secs(start)))
}

fn hot_stream(seed: u64) -> Stream {
    let (universe, cdf) = universe(seed);
    Stream { traffic: Traffic::Hot, seed, universe, cdf }
}

/// The time of one set-up, for a `--setup-only` child process.
pub fn setup_time(seed: u64) -> Result<f64, String> {
    setup(&hot_stream(seed)).map(|(_, _, seconds)| seconds)
}

fn local_stats(engine: &ServeEngine) -> Result<Counters, String> {
    sum_stats(|request| Ok(engine.handle(request.tenant, &request.body)))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let stream = hot_stream(cfg.seed);
    let mut setup_times = common::cold_setups(NAME, cfg.seed, SETUPS - 1)?;
    let (local, boot_ms, setup_s) = setup(&stream)?;
    setup_times.push(setup_s);

    let mut conns = conns(&stream, 0);
    let per_op = (conns.len() * WINDOW) as f64;
    let before = local_stats(&local.engine)?;
    let measure_start = Instant::now();
    let untraced_until = if cfg.trace { cfg.seconds * 0.4 } else { cfg.seconds };
    let stop_at = if cfg.trace { cfg.seconds * 0.85 } else { cfg.seconds };
    // Room for every op the run can hold, reserved up front: its pages
    // are touched only as ops complete, so no reallocation copy adds to
    // `peak_rss_mib` once the op count passes a power of two.
    let capacity = (cfg.seconds / MIN_OP_S) as usize;
    let mut untraced_s: Vec<f64> = Vec::with_capacity(capacity);
    let mut traced_s: Vec<f64> = Vec::with_capacity(if cfg.trace { capacity } else { 0 });
    let mut untraced_cpu_s = 0.0;
    let mut tracer = Tracer::new();
    let allocs_before = common::allocations();
    let mut allocs_untraced = None;
    while conns.iter().any(|c| c.result.issued < DIGEST_REQUESTS) || secs(measure_start) < stop_at {
        let tracing = cfg.trace && secs(measure_start) >= untraced_until;
        if tracing && allocs_untraced.is_none() {
            allocs_untraced = Some(common::allocations() - allocs_before);
        }
        tracer.next_op();
        let cpu_before = if cfg.trace { common::process_cpu_s() } else { 0.0 };
        let start = Instant::now();
        op(&local, &mut conns, tracing.then_some(&mut tracer));
        let wall = secs(start);
        if tracing {
            traced_s.push(wall);
        } else {
            untraced_cpu_s += if cfg.trace { common::process_cpu_s() - cpu_before } else { 0.0 };
            untraced_s.push(wall);
        }
    }
    let allocs_untraced = allocs_untraced.unwrap_or_else(|| common::allocations() - allocs_before);
    let counters = local_stats(&local.engine)?.since(before);

    let results: Vec<&ConnResult> = conns.iter().map(|c| &c.result).collect();
    let attempted: u64 = results.iter().map(|r| r.issued).sum();
    let errors: u64 = results.iter().map(|r| r.failed.len() as u64).sum();
    let untraced_requests = untraced_s.len() as f64 * per_op;
    let rates: Vec<f64> = untraced_s.iter().map(|w| per_op / w).collect();
    let lat_us: Vec<f64> = untraced_s.iter().map(|w| w * 1e6).collect();
    let rate = median(&rates);
    let hit_rate = counters.hit_rate();

    let mut values = BTreeMap::new();
    let mut reconciliation = None;
    if cfg.trace {
        // The engine split (hit, miss, sample) and the scalar layers come
        // from the shared re-execution; the codec, framing and admission
        // figures from this workload's own traced ops.
        let mut reexec = Tracer::new();
        crate::layers::measure(cfg.seed, &mut reexec, &mut values)?;
        reexecute(&local.engine, &stream, &mut reexec, &mut values)?;
        let requests = traced_s.len() as f64 * per_op;
        let per_request = |name: &str| tracer.total(name).calls as f64 / requests.max(1.0);
        for (metric, span) in [
            ("protocol.encode_request_ns", "protocol.encode_request"),
            ("protocol.decode_request_ns", "protocol.decode_request"),
            ("protocol.encode_response_ns", "protocol.encode_response"),
            ("protocol.decode_response_ns", "protocol.decode_response"),
            ("wire.frame_encode_ns", "wire.frame_encode"),
            ("wire.frame_decode_ns", "wire.frame_decode"),
            ("admission.submit_ns", "admission.submit"),
        ] {
            values.insert(metric, tracer.mean_ns(span));
        }
        let drained = tracer.counted("admission.drained").max(1.0);
        values.insert(
            "admission.drain_ns_per_job",
            tracer.total("admission.drain").ns as f64 / drained,
        );
        let mut rows: Vec<LayerRow> = [
            "protocol.encode_request",
            "wire.frame_encode",
            "wire.frame_decode",
            "protocol.decode_request",
            "admission.submit",
            "protocol.encode_response",
            "protocol.decode_response",
        ]
        .into_iter()
        .map(|name| LayerRow {
            layer: name,
            calls_per_op: per_request(name),
            us_per_call: tracer.mean_ns(name) / 1e3,
        })
        .collect();
        for (label, name) in [
            ("admission.drain (per request)", "admission.drain"),
            ("admission.run_batch (per request)", "admission.run_batch"),
        ] {
            rows.push(LayerRow {
                layer: label,
                calls_per_op: 1.0,
                us_per_call: tracer.total(name).ns as f64 / 1e3 / requests.max(1.0),
            });
        }
        reconciliation = Some(Reconciliation {
            rows,
            e2e_label: "untraced e2e CPU per request (all workers)",
            e2e_us: untraced_cpu_s * 1e6 / untraced_requests.max(1.0),
            untraced_us: median(&lat_us),
            traced_us: median(&traced_s.iter().map(|w| w * 1e6).collect::<Vec<_>>()),
        });
        values.insert("memo.hit_rate", hit_rate);
        values.insert("memo.evictions", counters.evictions as f64);
        values.insert("server.coalesced", counters.coalesced as f64);
        values.insert("server.shed", counters.shed as f64);
        values
            .insert("admission.rejected", results.iter().map(|r| r.overloaded).sum::<u64>() as f64);
        values.insert("alloc.per_op", allocs_untraced as f64 / untraced_requests.max(1.0));
        values.insert("setup.engine_boot_ms", boot_ms);
        tracer
            .write_spans(&crate::spans_path(NAME, cfg.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
    }

    let (mismatches, digest) = verify(&stream, &results)?;
    eprintln!("{NAME}: {} ops, {attempted} requests", untraced_s.len() + traced_s.len());
    Ok(Outcome {
        attempted,
        failed: errors + mismatches,
        correct: mismatches == 0,
        e2e: EndToEnd {
            setup_s: median(&setup_times),
            items_per_s: rate,
            latency_p50_us: median(&lat_us),
            latency_p99_us: quantile(&lat_us, 0.99),
            samples: untraced_s.len(),
        },
        layers: values,
        reconciliation,
        digest: format!("{NAME} {digest}"),
        aliases: vec![
            format!(
                "requests_per_s   {rate:>16.1} req/s  ({} streams x window {WINDOW} per op, in process)",
                common::nproc()
            ),
            format!("memo_hit_rate    {hit_rate:>16.4} fraction  (timed ops)"),
        ],
    })
}
