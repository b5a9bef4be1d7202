//! The synthetic load generator behind `pdn-serve bench`.
//!
//! Boots an in-process daemon on a loopback socket, then replays
//! thousands of logical querents — each a deterministic stream of
//! zipf-skewed design-point queries — multiplexed over a bounded pool
//! of pipelined connections. Per-request latency is measured from
//! frame send to matched response (correlation id), and the run closes
//! with a snapshot/restore pass that proves a restarted daemon answers
//! from the persisted memo shards. Results land in `BENCH_serve.json`.
//!
//! Everything is seeded: the querent→point assignment, the zipf draws,
//! and the warm-restart replay derive from [`BenchConfig::seed`], so
//! two runs issue the same request stream.

use crate::engine::{ServeEngine, SERVE_ARS, SERVE_TDPS};
use crate::protocol::{PdnId, PointSpec, Request, RequestBody, Response, ResponseBody};
use crate::server::{self, Client};
use crate::snapshot;
use flexwatts::scratch::unique_scratch_dir;
use pdn_workload::WorkloadType;
use pdnspot::EngineConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Logical concurrent querents (each an independent request
    /// stream).
    pub clients: usize,
    /// Total requests across all querents.
    pub requests: usize,
    /// TCP connections multiplexing the querents.
    pub connections: usize,
    /// Pipelining window per connection (requests in flight).
    pub window: usize,
    /// Distinct tenants the querents map onto.
    pub tenants: u32,
    /// Design-point universe size the zipf law ranks.
    pub universe: usize,
    /// Zipf exponent (1.0 = classic).
    pub zipf_exponent: f64,
    /// Seed for every random choice in the run.
    pub seed: u64,
    /// Where to write the JSON report (`None` = don't write).
    pub out: Option<PathBuf>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            clients: 2000,
            requests: 20_000,
            connections: 24,
            window: 32,
            tenants: 8,
            universe: 512,
            zipf_exponent: 1.0,
            seed: 0x7D4A_11CE,
            out: Some(PathBuf::from("BENCH_serve.json")),
        }
    }
}

impl BenchConfig {
    /// A seconds-scale configuration for CI smoke jobs and tests.
    #[must_use]
    pub fn quick() -> Self {
        Self { clients: 200, requests: 2000, connections: 8, ..Self::default() }
    }
}

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyUs {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst observed.
    pub max: u64,
}

/// What the warm-restart pass observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmRestart {
    /// Memo hit rate of the replay against the restored daemon.
    pub hit_rate: f64,
    /// Snapshot file size in bytes.
    pub snapshot_bytes: u64,
    /// Memo entries persisted across all tenants.
    pub snapshot_entries: u64,
    /// Requests replayed against the restored engine.
    pub replayed: usize,
}

/// One complete bench run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The configuration that produced it.
    pub config: BenchConfig,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests answered with a protocol error body.
    pub errors: usize,
    /// End-to-end wall time in seconds.
    pub wall_seconds: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Latency percentiles.
    pub latency: LatencyUs,
    /// The snapshot/restore observation.
    pub warm_restart: WarmRestart,
}

impl BenchReport {
    /// Renders the report as the `BENCH_serve.json` document
    /// (hand-rolled: the vendored serde is a no-op stand-in).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"pdn-serve-bench/v1\",\n  \"config\": {{\n    \"clients\": {},\n    \"connections\": {},\n    \"requests\": {},\n    \"window\": {},\n    \"tenants\": {},\n    \"universe\": {},\n    \"zipf_exponent\": {},\n    \"seed\": {}\n  }},\n  \"completed\": {},\n  \"errors\": {},\n  \"wall_seconds\": {:.6},\n  \"throughput_rps\": {:.3},\n  \"latency_us\": {{\n    \"p50\": {},\n    \"p95\": {},\n    \"p99\": {},\n    \"max\": {}\n  }},\n  \"warm_restart\": {{\n    \"hit_rate\": {:.6},\n    \"snapshot_bytes\": {},\n    \"snapshot_entries\": {},\n    \"replayed\": {}\n  }}\n}}\n",
            self.config.clients,
            self.config.connections,
            self.config.requests,
            self.config.window,
            self.config.tenants,
            self.config.universe,
            self.config.zipf_exponent,
            self.config.seed,
            self.completed,
            self.errors,
            self.wall_seconds,
            self.throughput_rps,
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.max,
            self.warm_restart.hit_rate,
            self.warm_restart.snapshot_bytes,
            self.warm_restart.snapshot_entries,
            self.warm_restart.replayed,
        )
    }
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} querents over {} connections: {} requests in {:.2}s ({:.0} req/s, {} errors)",
            self.config.clients,
            self.config.connections,
            self.completed,
            self.wall_seconds,
            self.throughput_rps,
            self.errors,
        )?;
        writeln!(
            f,
            "latency p50/p95/p99/max = {}/{}/{}/{} us",
            self.latency.p50, self.latency.p95, self.latency.p99, self.latency.max
        )?;
        write!(
            f,
            "warm restart: hit rate {:.1}% over {} replayed ({} entries, {} bytes on disk)",
            self.warm_restart.hit_rate * 100.0,
            self.warm_restart.replayed,
            self.warm_restart.snapshot_entries,
            self.warm_restart.snapshot_bytes,
        )
    }
}

/// The deterministic design-point universe the zipf law ranks. Point
/// `rank` is a pure function of `(rank, universe)` — every querent and
/// the warm-restart replay see the same points.
fn universe_point(rank: usize) -> (PdnId, PointSpec) {
    let pdn = PdnId::ALL[rank % PdnId::ALL.len()];
    let wl = WorkloadType::ACTIVE_TYPES[(rank / 5) % WorkloadType::ACTIVE_TYPES.len()];
    let tdp = SERVE_TDPS[(rank / 15) % SERVE_TDPS.len()];
    let ar = SERVE_ARS[(rank / 105) % SERVE_ARS.len()];
    (pdn, PointSpec::Active { tdp, workload: wl, ar })
}

/// Cumulative zipf weights over `universe` ranks.
fn zipf_cdf(universe: usize, exponent: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(universe);
    let mut total = 0.0;
    for rank in 0..universe {
        total += 1.0 / ((rank + 1) as f64).powf(exponent);
        cdf.push(total);
    }
    for value in &mut cdf {
        *value /= total;
    }
    cdf
}

fn zipf_draw(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.random_range(0.0..1.0);
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Builds the request body a querent issues for a universe rank:
/// mostly point evaluations, with every fifth rank queried as a
/// resident-surface sample instead.
fn request_for(rank: usize, tenant: u32, id: u64) -> Request {
    let (pdn, point) = universe_point(rank);
    let body = if rank % 5 == 4 {
        match point {
            PointSpec::Active { tdp, workload, ar } => {
                RequestBody::Sample { pdn, workload, tdp, ar }
            }
            PointSpec::Idle { .. } => RequestBody::Eval { pdn, point },
        }
    } else {
        RequestBody::Eval { pdn, point }
    };
    Request { tenant, id, deadline_ms: 0, body }
}

struct ConnOutcome {
    latencies_us: Vec<u64>,
    errors: usize,
}

fn run_connection(
    addr: std::net::SocketAddr,
    cfg: &BenchConfig,
    conn_idx: usize,
    quota: usize,
    cdf: &[f64],
) -> Result<ConnOutcome, server::ClientError> {
    let mut client = Client::connect(addr)
        .map_err(|e| server::ClientError::Frame(crate::wire::FrameError::Io(e.kind())))?;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (conn_idx as u64).wrapping_mul(0x9E37_79B9));
    let querents_per_conn = (cfg.clients / cfg.connections.max(1)).max(1);
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut latencies_us = Vec::with_capacity(quota);
    let mut errors = 0usize;

    let mut settle = |resp: Response, in_flight: &mut HashMap<u64, Instant>| {
        if let Some(sent) = in_flight.remove(&resp.id) {
            latencies_us.push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        if matches!(resp.body, ResponseBody::Error(_)) {
            errors += 1;
        }
    };

    for seq in 0..quota {
        // Each request is attributed to one of this connection's logical
        // querents; the querent fixes the tenant.
        let querent = conn_idx * querents_per_conn + rng.random_range(0..querents_per_conn);
        let tenant = (querent as u32) % cfg.tenants.max(1);
        let rank = zipf_draw(cdf, &mut rng);
        let id = ((conn_idx as u64) << 32) | seq as u64;
        let request = request_for(rank, tenant, id);
        while in_flight.len() >= cfg.window.max(1) {
            let resp = client.recv()?;
            settle(resp, &mut in_flight);
        }
        in_flight.insert(id, Instant::now());
        client.send(&request)?;
    }
    while !in_flight.is_empty() {
        let resp = client.recv()?;
        settle(resp, &mut in_flight);
    }
    Ok(ConnOutcome { latencies_us, errors })
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the full load test: boot, fan out querents, snapshot, restore,
/// replay, and (optionally) write the JSON report.
///
/// # Errors
///
/// Returns a rendered description of the first boot, transport, or
/// snapshot failure.
pub fn run(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let scratch = unique_scratch_dir("pdn-serve-bench").map_err(|e| format!("scratch dir: {e}"))?;
    let snapshot_path = scratch.join("bench.snapshot");
    let engine_config = EngineConfig::default();
    let engine = ServeEngine::new(engine_config.clone())
        .map_err(|e| format!("engine boot: {e}"))?
        .with_snapshot_path(&snapshot_path);
    let handle =
        server::spawn_tcp(Arc::new(engine), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr;

    let cdf = zipf_cdf(cfg.universe.max(1), cfg.zipf_exponent);
    let connections = cfg.connections.clamp(1, cfg.requests.max(1));
    let base_quota = cfg.requests / connections;
    let remainder = cfg.requests % connections;

    let started = Instant::now();
    let outcomes: Vec<Result<ConnOutcome, server::ClientError>> = thread::scope(|scope| {
        let mut workers = Vec::with_capacity(connections);
        for conn_idx in 0..connections {
            let quota = base_quota + usize::from(conn_idx < remainder);
            let cdf = &cdf;
            workers.push(scope.spawn(move || run_connection(addr, cfg, conn_idx, quota, cdf)));
        }
        workers.into_iter().map(|w| w.join().expect("bench connection thread")).collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.requests);
    let mut errors = 0usize;
    for outcome in outcomes {
        let outcome = outcome.map_err(|e| format!("bench connection: {e}"))?;
        latencies.extend_from_slice(&outcome.latencies_us);
        errors += outcome.errors;
    }
    latencies.sort_unstable();
    let completed = latencies.len();

    // Persist the warm state, then shut the daemon down.
    let mut control = Client::connect(addr).map_err(|e| format!("control connect: {e}"))?;
    let snap_resp = control
        .call(&Request { tenant: 0, id: u64::MAX - 1, deadline_ms: 0, body: RequestBody::Snapshot })
        .map_err(|e| format!("snapshot request: {e}"))?;
    let (snapshot_bytes, snapshot_entries) = match snap_resp.body {
        ResponseBody::SnapshotDone { bytes, entries } => (bytes, entries),
        other => return Err(format!("snapshot request failed: {other:?}")),
    };
    let _ = control.call(&Request {
        tenant: 0,
        id: u64::MAX,
        deadline_ms: 0,
        body: RequestBody::Shutdown,
    });
    handle.join();

    // Restore into a fresh engine and replay a zipf-matched sample of
    // Eval queries: the head of the distribution must hit the imported
    // memo shards.
    let snap = snapshot::read_file(&snapshot_path).map_err(|e| format!("snapshot read: {e}"))?;
    let warm =
        ServeEngine::from_snapshot(engine_config, &snap).map_err(|e| format!("warm boot: {e}"))?;
    let mut replay_rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEAD_BEEF);
    let replayed = 512.min(cfg.requests.max(1));
    for seq in 0..replayed {
        let rank = zipf_draw(&cdf, &mut replay_rng);
        let tenant = (seq as u32) % cfg.tenants.max(1);
        let (pdn, point) = universe_point(rank);
        let _ = warm.handle(tenant, &RequestBody::Eval { pdn, point });
    }
    let (mut hits, mut misses) = (0u64, 0u64);
    for tenant in 0..cfg.tenants.max(1) {
        let stats = warm.tenant(tenant).cache.stats();
        hits += stats.hits;
        misses += stats.misses;
    }
    let hit_rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };

    let report = BenchReport {
        config: cfg.clone(),
        completed,
        errors,
        wall_seconds,
        throughput_rps: if wall_seconds > 0.0 { completed as f64 / wall_seconds } else { 0.0 },
        latency: LatencyUs {
            p50: percentile(&latencies, 0.50),
            p95: percentile(&latencies, 0.95),
            p99: percentile(&latencies, 0.99),
            max: latencies.last().copied().unwrap_or(0),
        },
        warm_restart: WarmRestart { hit_rate, snapshot_bytes, snapshot_entries, replayed },
    };

    if let Some(out) = &cfg.out {
        std::fs::write(out, report.to_json()).map_err(|e| format!("write {out:?}: {e}"))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_normalised() {
        let cdf = zipf_cdf(64, 1.0);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((cdf.last().copied().unwrap() - 1.0).abs() < 1e-12);
        // The head rank dominates: P(rank 0) > P(rank 63) by a wide margin.
        let head = cdf[0];
        let tail = cdf[63] - cdf[62];
        assert!(head > 10.0 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn universe_points_are_deterministic() {
        assert_eq!(universe_point(17), universe_point(17));
        let (pdn, _) = universe_point(3);
        assert_eq!(pdn, PdnId::IPlusMbvr);
    }

    #[test]
    fn percentiles_pick_sorted_positions() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 51);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
