//! `serve_hot` and `serve_cold`: an in-process `pdn-serve` daemon on
//! loopback TCP with the default `EngineConfig`, driven as a closed loop
//! by one connection per core, each keeping a fixed in-flight window.
//! The daemon's callers are design tools that wait for replies, which
//! is why the loop is closed.
//!
//! * `serve_hot` draws Eval and Sample requests zipf (s = 1) over the
//!   resident `SERVE_TDPS × SERVE_ARS` universe; a warm pass in set-up
//!   fills every tenant's memo, so nearly every Eval is a memo read.
//! * `serve_cold` asks every Eval for a distinct seeded off-lattice
//!   (TDP, AR) point across 8 tenants: a memo miss plus an insert, and
//!   an eviction once a tenant is past its budget.
//!
//! Every Eval reply must equal a direct `Pdn::evaluate` of
//! `ServeEngine::scenario_for` on topologies built here, and every
//! Sample reply must equal `EteeSurface::sample` on surfaces tabulated
//! here without the daemon.

pub mod inproc;

use crate::common::{self, digest_f64, fnv1a, median, secs, Rng, Tracer};
use crate::{layers, EndToEnd, LayerRow, Outcome, Reconciliation, RunConfig};
use flexwatts::FlexWattsAuto;
use pdn_proc::client_soc;
use pdn_serve::admission::{AdmissionQueue, Job, ReplyHandle};
use pdn_serve::engine::{ServeEngine, SERVE_ARS, SERVE_TDPS};
use pdn_serve::protocol::{
    decode_request, decode_response, encode_evaluation, encode_request, encode_response, PdnId,
    PointSpec, Request, RequestBody, Response, ResponseBody,
};
use pdn_serve::server::{spawn_tcp, Client, ServerHandle};
use pdn_serve::wire::{decode_frame, encode_frame, BodyWriter};
use pdn_units::{ApplicationRatio, Watts};
use pdnspot::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

/// Which request stream drives the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Hot,
    Cold,
}

const TENANTS: u32 = 8;
/// Requests each connection keeps in flight.
const WINDOW: usize = 8;
/// Cold set-ups per run, this process's own included; `setup_s` is
/// their median.
const SETUPS: usize = 3;
/// Untimed requests per connection at the end of each set-up.
const WARM_REQUESTS: usize = 500;
/// Leading requests per connection whose reference values form the
/// digest (always issued, whatever the speed).
const DIGEST_REQUESTS: usize = 2000;
/// Width of the windows the timing medians are taken over.
const WINDOW_S: f64 = 1.0;
/// Requests the traced run re-executes in process, layer by layer.
const REEXEC_REQUESTS: usize = 4000;
/// Cold queries a traced `serve_hot` run adds to time memo misses.
const REEXEC_COLD_REQUESTS: usize = 1000;
/// One in this many requests is a Sample, the rest Evals.
const SAMPLE_ONE_IN: usize = 5;

const UNIVERSE_STREAM: u64 = 0x5E_0001;
const WARM_STREAM: u64 = 0x5E_1000;
const REEXEC_STREAM: u64 = 0x5E_2000;
const FILL_STREAM: u64 = 0x5E_3000;

/// One query of the stream, tenant aside.
#[derive(Debug, Clone, Copy)]
enum Query {
    Eval { pdn: PdnId, point: PointSpec },
    Sample { pdn: PdnId, workload: WorkloadType, tdp: f64, ar: f64 },
}

impl Query {
    fn body(self) -> RequestBody {
        match self {
            Query::Eval { pdn, point } => RequestBody::Eval { pdn, point },
            Query::Sample { pdn, workload, tdp, ar } => {
                RequestBody::Sample { pdn, workload, tdp, ar }
            }
        }
    }

    /// Identity of the answer (replies do not depend on the tenant).
    fn key(self) -> u64 {
        let (kind, pdn, tdp, wl, ar) = match self {
            Query::Eval { pdn, point: PointSpec::Active { tdp, workload, ar } } => {
                (0u8, pdn, tdp, workload, ar)
            }
            Query::Sample { pdn, workload, tdp, ar } => (1u8, pdn, tdp, workload, ar),
            Query::Eval { pdn, point: PointSpec::Idle { tdp, .. } } => {
                (2u8, pdn, tdp, WorkloadType::BatteryLife, 0.0)
            }
        };
        let mut bytes = [0u8; 19];
        bytes[0] = kind;
        bytes[1] = pdn.to_wire();
        bytes[2] = wl as u8;
        bytes[3..11].copy_from_slice(&tdp.to_bits().to_le_bytes());
        bytes[11..19].copy_from_slice(&ar.to_bits().to_le_bytes());
        fnv1a(&bytes)
    }
}

/// Fingerprint of an answer: every wire field of an evaluation, or the
/// sample's bits.
fn eval_hash(eval: &PdnEvaluation) -> u64 {
    let mut w = BodyWriter::new();
    encode_evaluation(&mut w, eval);
    fnv1a(&w.into_bytes())
}

fn sample_hash(sample: Option<f64>) -> u64 {
    sample.map_or(u64::MAX, f64::to_bits)
}

/// The resident design points a hot stream draws from, in seeded order.
type Universe = Arc<Vec<(PdnId, WorkloadType, f64, f64)>>;

/// A seeded request stream.
struct Generator {
    traffic: Traffic,
    rng: Rng,
    universe: Universe,
    cdf: Arc<Vec<f64>>,
}

/// The resident universe in a seeded order, plus its zipf (s = 1) CDF.
fn universe(seed: u64) -> (Universe, Arc<Vec<f64>>) {
    let mut points = Vec::new();
    for pdn in PdnId::ALL {
        for wl in WorkloadType::ACTIVE_TYPES {
            for tdp in SERVE_TDPS {
                for ar in SERVE_ARS {
                    points.push((pdn, wl, tdp, ar));
                }
            }
        }
    }
    let mut rng = Rng::new(seed, UNIVERSE_STREAM);
    for i in (1..points.len()).rev() {
        points.swap(i, rng.index(i + 1));
    }
    let mut cdf = Vec::with_capacity(points.len());
    let mut total = 0.0;
    for rank in 0..points.len() {
        total += 1.0 / (rank + 1) as f64;
        cdf.push(total);
    }
    cdf.iter_mut().for_each(|c| *c /= total);
    (Arc::new(points), Arc::new(cdf))
}

impl Generator {
    fn next(&mut self) -> (u32, Query) {
        let tenant = self.rng.index(TENANTS as usize) as u32;
        let sample = self.rng.index(SAMPLE_ONE_IN) == 0;
        let (pdn, workload, tdp, ar) = match self.traffic {
            Traffic::Hot => {
                let u = self.rng.unit();
                let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
                self.universe[rank]
            }
            Traffic::Cold => (
                PdnId::ALL[self.rng.index(PdnId::ALL.len())],
                WorkloadType::ACTIVE_TYPES[self.rng.index(WorkloadType::ACTIVE_TYPES.len())],
                self.rng.range(4.0, 50.0),
                self.rng.range(0.40, 0.80),
            ),
        };
        let query = if sample {
            Query::Sample { pdn, workload, tdp, ar }
        } else {
            Query::Eval { pdn, point: PointSpec::Active { tdp, workload, ar } }
        };
        (tenant, query)
    }
}

#[derive(Clone)]
struct Stream {
    traffic: Traffic,
    seed: u64,
    universe: Universe,
    cdf: Arc<Vec<f64>>,
}

impl Stream {
    fn generator(&self, stream: u64) -> Generator {
        Generator {
            traffic: self.traffic,
            rng: Rng::new(self.seed, stream),
            universe: Arc::clone(&self.universe),
            cdf: Arc::clone(&self.cdf),
        }
    }
}

/// What one connection observed. Its storage does not grow with the
/// answers: they are folded into one checksum, and the verification
/// regenerates the queries from the seed and folds the reference
/// answers the same way.
#[derive(Default)]
struct ConnResult {
    /// The generator stream the connection drew its queries from.
    stream: u64,
    /// Latencies of the requests completed in each window, in µs.
    windows: Vec<Vec<f32>>,
    issued: u64,
    /// Order-independent fold of `(seq, answer fingerprint)` over the
    /// answered requests.
    fold: u64,
    /// Sequence numbers of requests that failed or were refused.
    failed: Vec<u64>,
    overloaded: u64,
    /// Traced phases: (start, end) ns of every request since the phase
    /// started.
    spans: Vec<(u64, u64)>,
}

/// One request's term of [`ConnResult::fold`].
fn fold_term(seq: u64, answer: u64) -> u64 {
    let mut z = answer ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives one connection as a closed loop until `until`, issuing at
/// least `min_requests`.
fn drive(
    addr: SocketAddr,
    stream: &Stream,
    conn: u64,
    until: Instant,
    min_requests: usize,
    traced: bool,
) -> Result<ConnResult, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut gen = stream.generator(conn);
    let phase_start = Instant::now();
    let mut out = ConnResult { stream: conn, ..ConnResult::default() };
    let mut in_flight: Vec<(u64, Instant, Query)> = Vec::with_capacity(WINDOW);
    loop {
        while in_flight.len() < WINDOW
            && (Instant::now() < until || (out.issued as usize) < min_requests)
        {
            let (tenant, query) = gen.next();
            let id = out.issued;
            out.issued += 1;
            in_flight.push((id, Instant::now(), query));
            client
                .send(&Request { tenant, id, deadline_ms: 0, body: query.body() })
                .map_err(|e| format!("send: {e}"))?;
        }
        if in_flight.is_empty() {
            break;
        }
        let response = client.recv().map_err(|e| format!("recv: {e}"))?;
        let Some(pos) = in_flight.iter().position(|(id, _, _)| *id == response.id) else {
            return Err(format!("reply to unknown request id {}", response.id));
        };
        let (id, sent, query) = in_flight.swap_remove(pos);
        let done = Instant::now();
        let answer = match (&response.body, query) {
            (ResponseBody::Eval(eval), Query::Eval { .. }) => Some(eval_hash(eval)),
            (ResponseBody::Sample(s), Query::Sample { .. }) => Some(sample_hash(*s)),
            (ResponseBody::Error(e), _) => {
                out.overloaded += u64::from(e.code == ErrorCode::Overloaded);
                None
            }
            _ => None,
        };
        let latency_us = match answer {
            Some(answer) => {
                out.fold = out.fold.wrapping_add(fold_term(id, answer));
                (done - sent).as_secs_f32() * 1e6
            }
            None => {
                // A refused or failed request misses any latency limit.
                out.failed.push(id);
                f32::INFINITY
            }
        };
        let w = ((done - phase_start).as_secs_f64() / WINDOW_S) as usize;
        if out.windows.len() <= w {
            out.windows.resize_with(w + 1, Vec::new);
        }
        out.windows[w].push(latency_us);
        if traced {
            let ns = |t: Instant| u64::try_from((t - phase_start).as_nanos()).unwrap_or(u64::MAX);
            out.spans.push((ns(sent), ns(done)));
        }
    }
    Ok(out)
}

/// Runs every connection for `seconds`; results per connection.
fn phase(
    addr: SocketAddr,
    stream: &Stream,
    stream_base: u64,
    seconds: f64,
    min_requests: usize,
    traced: bool,
) -> Result<Vec<ConnResult>, String> {
    let until = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..common::nproc() as u64)
            .map(|conn| {
                scope.spawn(move || {
                    drive(addr, stream, stream_base + conn, until, min_requests, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

/// Requests per second, p50 and p99 latency of a phase, each the
/// median over its full one-second windows: a window holds thousands of
/// requests, and the median over windows keeps one scheduler stall from
/// moving the run's figure.
fn windowed(results: &[ConnResult], seconds: f64) -> (f64, f64, f64) {
    let full = ((seconds / WINDOW_S).floor() as usize).max(1);
    let windows: Vec<Vec<f64>> = (0..full)
        .map(|w| {
            results
                .iter()
                .filter_map(|r| r.windows.get(w))
                .flat_map(|lat| lat.iter().map(|&l| f64::from(l)))
                .collect()
        })
        .collect();
    let rates: Vec<f64> = windows.iter().map(|w| w.len() as f64 / WINDOW_S).collect();
    (
        median(&rates),
        common::windowed_quantile(&windows, 0.5),
        common::windowed_quantile(&windows, 0.99),
    )
}

struct Daemon {
    engine: Arc<ServeEngine>,
    handle: ServerHandle,
}

/// One set-up: boot, listen, warm. Returns the daemon, the boot time
/// (ms), and the whole set-up time (s).
fn setup(stream: &Stream) -> Result<(Daemon, f64, f64), String> {
    let start = Instant::now();
    let (engine, boot_ms) = boot(stream)?;
    let handle = spawn_tcp(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let warm = phase(handle.addr, stream, WARM_STREAM, 0.0, WARM_REQUESTS, false)?;
    if let Some(bad) = warm.iter().find(|r| !r.failed.is_empty()) {
        return Err(format!("warm-up requests failed: {} errors", bad.failed.len()));
    }
    Ok((Daemon { engine, handle }, boot_ms, secs(start)))
}

/// Boots an engine with the default `EngineConfig` and fills every
/// tenant's memo. Returns the engine and its boot time (ms).
fn boot(stream: &Stream) -> Result<(Arc<ServeEngine>, f64), String> {
    let start = Instant::now();
    let engine = Arc::new(
        ServeEngine::new(EngineConfig::default()).map_err(|e| format!("engine boot: {e}"))?,
    );
    let boot_ms = secs(start) * 1e3;
    // The fill uses the hot universe (so the timed phase reads), or
    // distinct cold points past the eviction budget (so every timed miss
    // also evicts, from the start).
    let fill: Vec<(u32, Query)> = match stream.traffic {
        Traffic::Hot => (0..TENANTS)
            .flat_map(|tenant| {
                stream.universe.iter().map(move |&(pdn, workload, tdp, ar)| {
                    (tenant, Query::Eval { pdn, point: PointSpec::Active { tdp, workload, ar } })
                })
            })
            .collect(),
        Traffic::Cold => {
            let per_tenant = engine.config().memo_capacity() * 5 / 4;
            let mut gen = stream.generator(FILL_STREAM);
            (0..TENANTS)
                .flat_map(|tenant| (0..per_tenant).map(move |_| tenant))
                .map(|tenant| loop {
                    if let (_, q @ Query::Eval { .. }) = gen.next() {
                        break (tenant, q);
                    }
                })
                .collect()
        }
    };
    let failed = par_map(&fill, Workers::Auto, |_, &(tenant, query)| {
        matches!(engine.handle(tenant, &query.body()), ResponseBody::Error(_))
    });
    if failed.contains(&true) {
        return Err("warm pass: a memo fill request failed".to_string());
    }
    Ok((engine, boot_ms))
}

fn stop(daemon: Daemon) {
    daemon.handle.shutdown();
    daemon.handle.join();
}

/// The time of one set-up, for a `--setup-only` child process.
pub fn setup_time(seed: u64, traffic: Traffic) -> Result<f64, String> {
    let (universe, cdf) = universe(seed);
    let stream = Stream { traffic, seed, universe, cdf };
    let (daemon, _, seconds) = setup(&stream)?;
    stop(daemon);
    Ok(seconds)
}

/// Every tenant's memo counters summed, plus the server counters.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    coalesced: u64,
    shed: u64,
}

impl Counters {
    /// What happened between `before` and `self`.
    fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            coalesced: self.coalesced - before.coalesced,
            shed: self.shed - before.shed,
        }
    }

    fn hit_rate(self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Reads the counters through the daemon's Stats request.
fn stats(addr: SocketAddr) -> Result<Counters, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    sum_stats(|request| client.call(&request).map(|r| r.body).map_err(|e| format!("stats: {e}")))
}

/// Sums the replies to one Stats request per tenant, sent by `call`.
fn sum_stats(
    mut call: impl FnMut(Request) -> Result<ResponseBody, String>,
) -> Result<Counters, String> {
    let mut totals = Counters::default();
    for tenant in 0..TENANTS {
        let request = Request {
            tenant,
            id: u64::MAX - u64::from(tenant),
            deadline_ms: 0,
            body: RequestBody::Stats,
        };
        match call(request)? {
            ResponseBody::Stats { tenant, server } => {
                totals.hits += tenant.hits;
                totals.misses += tenant.misses;
                totals.evictions += tenant.evictions;
                totals.coalesced = server.coalesced;
                totals.shed = server.shed;
            }
            other => return Err(format!("stats reply: {other:?}")),
        }
    }
    Ok(totals)
}

/// The independent reference: topologies built here, and surfaces
/// tabulated cell by cell with scalar `Pdn::evaluate` (not the batch
/// row kernels the daemon tabulates its surfaces with).
struct Reference {
    pdns: Vec<Box<dyn Pdn>>,
    surfaces: Vec<EteeSurface>,
}

impl Reference {
    fn new() -> Result<Self, String> {
        let params = ModelParams::paper_defaults();
        let pdns: Vec<Box<dyn Pdn>> = vec![
            Box::new(IvrPdn::new(params.clone())),
            Box::new(MbvrPdn::new(params.clone())),
            Box::new(LdoPdn::new(params.clone())),
            Box::new(IPlusMbvrPdn::new(params.clone())),
            Box::new(FlexWattsAuto::new(params)),
        ];
        let mut surfaces = Vec::new();
        for pdn in &pdns {
            for workload_type in WorkloadType::ACTIVE_TYPES {
                let mut values = Vec::with_capacity(SERVE_TDPS.len() * SERVE_ARS.len());
                for tdp in SERVE_TDPS {
                    let soc = client_soc(Watts::new(tdp));
                    for ar in SERVE_ARS {
                        let ar = ApplicationRatio::new(ar).map_err(|e| format!("AR: {e}"))?;
                        let eval = Scenario::active_fixed_tdp_frequency(&soc, workload_type, ar)
                            .and_then(|scenario| pdn.evaluate(&scenario))
                            .map_err(|e| format!("reference surface: {e}"))?;
                        values.push(eval.etee.get());
                    }
                }
                surfaces.push(EteeSurface {
                    pdn: pdn.kind().to_string(),
                    workload_type,
                    tdps: SERVE_TDPS.to_vec(),
                    ars: SERVE_ARS.to_vec(),
                    values,
                });
            }
        }
        Ok(Self { pdns, surfaces })
    }

    /// The answer's fingerprint and its headline value (ETEE or sample).
    fn answer(&self, query: Query) -> Option<(u64, f64)> {
        match query {
            Query::Eval { pdn, point } => {
                let scenario = ServeEngine::scenario_for(&point).ok()?;
                let eval = self.pdns[pdn.index()].evaluate(&scenario).ok()?;
                Some((eval_hash(&eval), eval.etee.get()))
            }
            Query::Sample { pdn, workload, tdp, ar } => {
                let name = self.pdns[pdn.index()].kind().to_string();
                let surface =
                    self.surfaces.iter().find(|s| s.pdn == name && s.workload_type == workload)?;
                let sample = surface.sample(tdp, ar);
                Some((sample_hash(sample), sample.unwrap_or(0.0)))
            }
        }
    }
}

/// Queries verified per parallel batch (bounds the verifier's memory).
const VERIFY_BATCH: usize = 8192;

/// Checks every answer against the reference: regenerates each
/// connection's queries from its stream, folds the reference answers
/// exactly as the connection folded the replies, and compares. Returns
/// the requests of connections whose answers differ (which of them is
/// wrong is unknown, so all count) and the digest over the leading
/// requests of the first phase.
fn verify(stream: &Stream, results: &[&ConnResult]) -> Result<(u64, String), String> {
    let reference = Reference::new()?;
    // Repeated queries (the hot stream) are answered once.
    let mut known: HashMap<u64, (u64, f64)> = HashMap::new();
    let mut mismatches = 0u64;
    let mut digest = (0usize, 0.0f64);
    for r in results {
        let mut gen = stream.generator(r.stream);
        let mut fold = 0u64;
        let mut seq = 0u64;
        while seq < r.issued {
            let n = (r.issued - seq).min(VERIFY_BATCH as u64);
            let queries: Vec<(u64, Query)> =
                (0..n).map(|_| gen.next().1).map(|q| (q.key(), q)).collect();
            let fresh: Vec<(u64, Query)> =
                queries.iter().filter(|(key, _)| !known.contains_key(key)).copied().collect();
            let computed =
                par_map(&fresh, Workers::Auto, |_, &(key, q)| (key, reference.answer(q)));
            for (key, answer) in computed {
                // An unanswerable reference matches no reply.
                known.insert(key, answer.unwrap_or((1, f64::NAN)));
            }
            for (key, _) in &queries {
                let (answer, value) = known[key];
                if !r.failed.contains(&seq) {
                    fold = fold.wrapping_add(fold_term(seq, answer));
                }
                if r.stream < 0x100 && (seq as usize) < DIGEST_REQUESTS {
                    digest.0 += 1;
                    digest.1 += value;
                }
                seq += 1;
            }
            if stream.traffic == Traffic::Cold {
                known.clear();
            }
        }
        if fold != r.fold {
            // Failed requests are already counted as failed.
            mismatches += r.issued - r.failed.len() as u64;
        }
    }
    Ok((mismatches, format!("requests={} value_sum={}", digest.0, digest_f64(digest.1))))
}

pub fn run(cfg: &RunConfig, traffic: Traffic) -> Result<Outcome, String> {
    let (universe, cdf) = universe(cfg.seed);
    let stream = Stream { traffic, seed: cfg.seed, universe, cdf };
    let mut setup_times = common::cold_setups(name(traffic), cfg.seed, SETUPS - 1)?;
    let (daemon, boot_ms, setup_s) = setup(&stream)?;
    setup_times.push(setup_s);
    let addr = daemon.handle.addr;

    let before = stats(addr)?;
    let untraced_s = if cfg.trace { cfg.seconds * 0.35 } else { cfg.seconds };
    let allocs_before = common::allocations();
    let cpu_before = common::process_cpu_s();
    let untraced = phase(addr, &stream, 0, untraced_s, DIGEST_REQUESTS, false)?;
    let cpu_s = common::process_cpu_s() - cpu_before;
    let allocs = common::allocations() - allocs_before;
    let traced = if cfg.trace {
        Some(phase(addr, &stream, 0x100, cfg.seconds * 0.35, 0, true)?)
    } else {
        None
    };
    let counters = stats(addr)?.since(before);

    let samples: usize = untraced.iter().flat_map(|r| r.windows.iter()).map(Vec::len).sum();
    let (rate, p50, p99) = windowed(&untraced, untraced_s);
    let all: Vec<&ConnResult> = untraced.iter().chain(traced.iter().flatten()).collect();
    let attempted: u64 = all.iter().map(|r| r.issued).sum();
    let errors: u64 = all.iter().map(|r| r.failed.len() as u64).sum();
    let overloaded: u64 = all.iter().map(|r| r.overloaded).sum();
    let untraced_requests: u64 = untraced.iter().map(|r| r.issued).sum();

    let mut values = BTreeMap::new();
    let mut reconciliation = None;
    if cfg.trace {
        let mut tracer = Tracer::new();
        layers::measure(cfg.seed, &mut tracer, &mut values)?;
        let traced_results = traced.as_ref().expect("traced phase ran");
        let mut requests = 0u64;
        for r in traced_results {
            for &(start, end) in &r.spans {
                tracer.record("client.request", end - start, 1);
                requests += 1;
            }
        }
        let (_, traced_p50, _) = windowed(traced_results, cfg.seconds * 0.35);
        reexecute(&daemon.engine, &stream, &mut tracer, &mut values)?;
        let layer_ns = |name: &str| tracer.mean_ns(name);
        let rows = vec![
            ("protocol.encode_request", 1.0, layer_ns("protocol.encode_request")),
            ("wire.frame_encode", 2.0, layer_ns("wire.frame_encode")),
            ("wire.frame_decode", 2.0, layer_ns("wire.frame_decode")),
            ("protocol.decode_request", 1.0, layer_ns("protocol.decode_request")),
            ("admission.submit", 1.0, layer_ns("admission.submit")),
            ("admission.drain (per job)", 1.0, values["admission.drain_ns_per_job"]),
            ("engine.handle (stream mix)", 1.0, layer_ns("engine.handle")),
            ("protocol.encode_response", 1.0, layer_ns("protocol.encode_response")),
            ("protocol.decode_response", 1.0, layer_ns("protocol.decode_response")),
        ];
        let rows: Vec<LayerRow> = rows
            .into_iter()
            .map(|(layer, calls_per_op, ns)| LayerRow {
                layer,
                calls_per_op,
                us_per_call: ns / 1e3,
            })
            .collect();
        let rec = Reconciliation {
            rows,
            e2e_label: "e2e CPU per request (all threads)",
            e2e_us: cpu_s * 1e6 / untraced_requests.max(1) as f64,
            untraced_us: p50,
            traced_us: traced_p50,
        };
        values.insert("transport.residual_us", p50 - rec.layer_sum_us());
        reconciliation = Some(rec);
        values.insert("memo.hit_rate", counters.hit_rate());
        values.insert("memo.evictions", counters.evictions as f64);
        values.insert("server.coalesced", counters.coalesced as f64);
        values.insert("server.shed", counters.shed as f64);
        values.insert("admission.rejected", overloaded as f64);
        values.insert("alloc.per_op", allocs as f64 / untraced_requests.max(1) as f64);
        values.insert("setup.engine_boot_ms", boot_ms);
        eprintln!("serve: {requests} traced requests");
        tracer
            .write_spans(&crate::spans_path(name(traffic), cfg.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    stop(daemon);

    let (mismatches, digest) = verify(&stream, &all)?;
    let hit_rate = counters.hit_rate();
    Ok(Outcome {
        attempted,
        failed: errors + mismatches,
        correct: mismatches == 0,
        e2e: EndToEnd {
            setup_s: median(&setup_times),
            items_per_s: rate,
            latency_p50_us: p50,
            latency_p99_us: p99,
            samples,
        },
        layers: values,
        reconciliation,
        digest: format!("{} {digest}", name(traffic)),
        aliases: vec![
            format!(
                "requests_per_s   {rate:>16.1} req/s  ({} connections x window {WINDOW}, closed loop)",
                common::nproc()
            ),
            format!("memo_hit_rate    {hit_rate:>16.4} fraction  (timed phase)"),
        ],
    })
}

/// Answers one query in process, timed under its kind: memo hit, memo
/// miss (by the tenant's memo counters), or sample. Returns the reply
/// and its time in ns.
fn handle(
    engine: &ServeEngine,
    tenant: u32,
    query: Query,
    tracer: &mut Tracer,
) -> Result<(ResponseBody, u64), String> {
    let before = engine.tenant(tenant).cache.stats();
    let start = Instant::now();
    let reply = engine.handle(tenant, &query.body());
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let after = engine.tenant(tenant).cache.stats();
    let kind = match query {
        Query::Sample { .. } => "engine.sample",
        Query::Eval { .. } if after.hits > before.hits => "engine.handle_hit",
        Query::Eval { .. } if after.misses > before.misses => "engine.handle_miss",
        Query::Eval { .. } => "engine.handle_other",
    };
    tracer.record(kind, ns, 1);
    match reply {
        ResponseBody::Error(e) => Err(format!("in-process request failed: {e:?}")),
        reply => Ok((reply, ns)),
    }
}

fn name(traffic: Traffic) -> &'static str {
    match traffic {
        Traffic::Hot => "serve_hot",
        Traffic::Cold => "serve_cold",
    }
}

/// Re-executes a continuation of the workload's request stream in
/// process, layer by layer: codec and framing both ways, admission, and
/// `ServeEngine::handle` split into memo hit, miss, and sample by the
/// tenant's memo counters.
fn reexecute(
    engine: &ServeEngine,
    stream: &Stream,
    tracer: &mut Tracer,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let depth = engine.config().admission_depth();
    let queue = AdmissionQueue::new(depth, engine.config().tenant_quota_for(depth));
    // Replies are never delivered: the jobs are drained and dropped.
    let (tx, _rx) = sync_channel::<Response>(1);
    let evicted = Arc::new(AtomicBool::new(false));
    let mut gen = stream.generator(REEXEC_STREAM);
    let mut drained_jobs = 0u64;
    let mut drain_ns = 0u64;
    for i in 0..REEXEC_REQUESTS {
        let (tenant, query) = gen.next();
        let request = Request { tenant, id: i as u64, deadline_ms: 0, body: query.body() };
        let body = tracer.span("protocol.encode_request", None, || encode_request(&request));
        let frame = tracer.span("wire.frame_encode", None, || encode_frame(&body));
        let (decoded_body, _) = tracer
            .span("wire.frame_decode", None, || decode_frame(&frame))
            .map_err(|e| format!("frame decode: {e}"))?;
        let decoded = tracer
            .span("protocol.decode_request", None, || decode_request(decoded_body))
            .map_err(|e| format!("request decode: {e:?}"))?;
        let job = Job::new(decoded, ReplyHandle::new(tx.clone(), Arc::clone(&evicted)));
        if !tracer.span("admission.submit", None, || queue.submit(job).is_ok()) {
            return Err("in-process admission refused a job".to_string());
        }
        if queue.len() >= 32 || i + 1 == REEXEC_REQUESTS {
            let open = tracer.enter("admission.drain", None);
            let jobs = queue.drain().unwrap_or_default();
            drain_ns += tracer.exit(open);
            drained_jobs += jobs.len() as u64;
        }

        let (reply, ns) = handle(engine, tenant, query, tracer)?;
        tracer.record("engine.handle", ns, 1);

        if let Query::Eval { pdn, point } = query {
            let scenario = tracer
                .span("scenario.active_fixed_tdp_frequency", None, || {
                    ServeEngine::scenario_for(&point)
                })
                .map_err(|e| format!("scenario: {e}"))?;
            let eval =
                tracer.span("topology.evaluate", None, || engine.pdn(pdn).evaluate(&scenario));
            std::hint::black_box(eval).map_err(|e| format!("evaluate: {e}"))?;
        }

        let response = Response { id: request.id, body: reply };
        let body = tracer.span("protocol.encode_response", None, || encode_response(&response));
        let frame = tracer.span("wire.frame_encode", None, || encode_frame(&body));
        let (decoded_body, _) = tracer
            .span("wire.frame_decode", None, || decode_frame(&frame))
            .map_err(|e| format!("frame decode: {e}"))?;
        tracer
            .span("protocol.decode_response", None, || decode_response(decoded_body))
            .map_err(|e| format!("response decode: {e:?}"))?;
    }
    if stream.traffic == Traffic::Hot {
        // The hot stream never misses; a short cold continuation times
        // the miss-and-insert path on the same warm engine.
        let cold = Stream { traffic: Traffic::Cold, ..stream.clone() };
        let mut gen = cold.generator(REEXEC_STREAM);
        for _ in 0..REEXEC_COLD_REQUESTS {
            let (tenant, query) = gen.next();
            handle(engine, tenant, query, tracer)?;
        }
    }
    let mean = |name: &str| tracer.mean_ns(name);
    values.insert("protocol.encode_request_ns", mean("protocol.encode_request"));
    values.insert("protocol.decode_request_ns", mean("protocol.decode_request"));
    values.insert("protocol.encode_response_ns", mean("protocol.encode_response"));
    values.insert("protocol.decode_response_ns", mean("protocol.decode_response"));
    values.insert("wire.frame_encode_ns", mean("wire.frame_encode"));
    values.insert("wire.frame_decode_ns", mean("wire.frame_decode"));
    values.insert("admission.submit_ns", mean("admission.submit"));
    values.insert("admission.drain_ns_per_job", drain_ns as f64 / drained_jobs.max(1) as f64);
    values.insert("engine.handle_hit_ns", mean("engine.handle_hit"));
    values.insert("engine.handle_miss_ns", mean("engine.handle_miss"));
    values.insert("engine.sample_ns", mean("engine.sample"));
    values.insert("scenario.point_build_us", mean("scenario.active_fixed_tdp_frequency") / 1e3);
    values.insert("topology.scalar_ns_per_point", mean("topology.evaluate"));
    Ok(())
}
