//! The daemon's typed request/response protocol.
//!
//! Each message is a [`Request`] or [`Response`] encoded into a frame
//! body (see [`crate::wire`]). Floating-point fields travel as IEEE-754
//! bit patterns, so a served value round-trips **bit-identically** —
//! the property the served-vs-library tests enforce.
//!
//! Errors cross the wire as [`ServeError`]: a stable
//! [`ErrorCode`] plus the rendered message plus enough structure
//! ([`ServeDetail`]) to rebuild the library's [`PdnError`] losslessly
//! on the client side.

use crate::wire::{BodyReader, BodyWriter, DecodeError, MAX_LIST};
use pdn_proc::PackageCState;
use pdn_units::{Amps, Efficiency, Volts, Watts};
use pdn_workload::codec::{cstate_from_tag, cstate_tag, workload_from_tag, workload_tag};
use pdn_workload::WorkloadType;
use pdnspot::sweep::{Crossover, EteeSurface};
use pdnspot::{ErrorCode, LossBreakdown, PdnError, PdnEvaluation, RailReport};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Protocol revision carried by every request.
///
/// Version history:
/// - `1` — initial protocol (PR 5).
/// - `2` — adds [`Request::deadline_ms`], [`ServeError::retry_after_ms`],
///   and the resilience counters on [`ServerStats`]. Decoders accept
///   both versions; version-1 bodies read back with the new fields at
///   their defaults (no deadline, no retry hint, zero counters).
pub const PROTOCOL_VERSION: u16 = 2;

/// The oldest protocol revision decoders still accept.
pub const MIN_PROTOCOL_VERSION: u16 = 1;

fn check_version(version: u16) -> Result<u16, DecodeError> {
    if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        Ok(version)
    } else {
        Err(DecodeError::Invalid("protocol version"))
    }
}

/// Longest axis a sweep request may carry (per axis).
pub const MAX_AXIS: usize = 64;

/// Deepest [`ServeError`] cause chain accepted on decode.
pub const MAX_ERROR_DEPTH: usize = 8;

/// The five PDN topologies the daemon serves, by stable wire id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PdnId {
    /// Integrated voltage regulators (Fig. 1a).
    Ivr,
    /// Motherboard voltage regulators (Fig. 1b).
    Mbvr,
    /// Low-dropout regulators (Fig. 1c).
    Ldo,
    /// Skylake-X hybrid: IVR compute + board SA/IO.
    IPlusMbvr,
    /// FlexWatts with automatic per-scenario mode selection.
    FlexWatts,
}

impl PdnId {
    /// Every topology, in wire-id (and engine-index) order.
    pub const ALL: [PdnId; 5] =
        [PdnId::Ivr, PdnId::Mbvr, PdnId::Ldo, PdnId::IPlusMbvr, PdnId::FlexWatts];

    /// The stable wire id.
    #[must_use]
    pub fn to_wire(self) -> u8 {
        match self {
            PdnId::Ivr => 0,
            PdnId::Mbvr => 1,
            PdnId::Ldo => 2,
            PdnId::IPlusMbvr => 3,
            PdnId::FlexWatts => 4,
        }
    }

    /// Decodes a wire id.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BadTag`] for unknown ids.
    pub fn from_wire(tag: u8) -> Result<Self, DecodeError> {
        Self::ALL.get(tag as usize).copied().ok_or(DecodeError::BadTag { what: "pdn id", tag })
    }

    /// The engine's topology-table index (identical to the wire id).
    #[must_use]
    pub fn index(self) -> usize {
        self.to_wire() as usize
    }
}

impl fmt::Display for PdnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PdnId::Ivr => "IVR",
            PdnId::Mbvr => "MBVR",
            PdnId::Ldo => "LDO",
            PdnId::IPlusMbvr => "I+MBVR",
            PdnId::FlexWatts => "FlexWatts",
        };
        f.write_str(name)
    }
}

/// One operating point of an [`RequestBody::Eval`] query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PointSpec {
    /// An active fixed-TDP-frequency point (the Fig. 4 design point).
    Active {
        /// Design TDP in watts.
        tdp: f64,
        /// Workload classification.
        workload: WorkloadType,
        /// Application ratio in (0, 1].
        ar: f64,
    },
    /// An idle package power state.
    Idle {
        /// Design TDP in watts (sizes the SoC).
        tdp: f64,
        /// The package C-state.
        state: PackageCState,
    },
}

impl PointSpec {
    /// A collision-free coalescing key: two specs with equal keys are
    /// the same operating point bit-for-bit.
    #[must_use]
    pub fn key(&self) -> (u8, u64, u8, u64) {
        match *self {
            PointSpec::Active { tdp, workload, ar } => {
                (0, tdp.to_bits(), workload_tag(workload), ar.to_bits())
            }
            PointSpec::Idle { tdp, state } => (1, tdp.to_bits(), cstate_tag(state), 0),
        }
    }

    fn encode(&self, w: &mut BodyWriter) {
        match *self {
            PointSpec::Active { tdp, workload, ar } => {
                w.u8(0);
                w.f64(tdp);
                w.u8(workload_tag(workload));
                w.f64(ar);
            }
            PointSpec::Idle { tdp, state } => {
                w.u8(1);
                w.f64(tdp);
                w.u8(cstate_tag(state));
            }
        }
    }

    fn decode(r: &mut BodyReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(PointSpec::Active {
                tdp: r.f64()?,
                workload: r.tag("workload type", workload_from_tag)?,
                ar: r.f64()?,
            }),
            1 => Ok(PointSpec::Idle {
                tdp: r.f64()?,
                state: r.tag("package C-state", cstate_from_tag)?,
            }),
            tag => Err(DecodeError::BadTag { what: "point spec", tag }),
        }
    }
}

/// A framed client request: tenant routing, correlation id, and the
/// typed query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// The tenant whose memo shard and stats this request charges.
    pub tenant: u32,
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Deadline budget in milliseconds, measured from admission; `0`
    /// means no deadline. A request whose budget lapses before (or
    /// while) it is dispatched is answered with
    /// [`ErrorCode::DeadlineExceeded`] instead of its result — but a
    /// lapsed deadline never cancels coalesced work that other
    /// requests still wait on.
    pub deadline_ms: u32,
    /// The query itself.
    pub body: RequestBody,
}

/// The typed queries the daemon answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Liveness probe.
    Ping,
    /// Evaluate one PDN at one operating point.
    Eval {
        /// Topology to evaluate.
        pdn: PdnId,
        /// Operating point.
        point: PointSpec,
    },
    /// Bilinear [`EteeSurface::sample`] against the daemon's resident
    /// surfaces.
    Sample {
        /// Topology whose surface to query.
        pdn: PdnId,
        /// Active workload type of the surface.
        workload: WorkloadType,
        /// Query TDP in watts.
        tdp: f64,
        /// Query application ratio.
        ar: f64,
    },
    /// Full grid sweep returning ETEE surfaces.
    Sweep {
        /// Topologies to sweep.
        pdns: Vec<PdnId>,
        /// TDP axis in watts.
        tdps: Vec<f64>,
        /// Workload types (active only).
        workloads: Vec<WorkloadType>,
        /// AR axis.
        ars: Vec<f64>,
    },
    /// ETEE crossover TDP between two topologies.
    Crossover {
        /// First topology.
        a: PdnId,
        /// Second topology.
        b: PdnId,
        /// Workload type.
        workload: WorkloadType,
        /// Application ratio.
        ar: f64,
        /// TDP search range (lo, hi) in watts.
        range: (f64, f64),
    },
    /// Per-tenant cache statistics and server totals.
    Stats,
    /// Persist warm memo shards and trained predictors to disk.
    Snapshot,
    /// Graceful daemon shutdown.
    Shutdown,
}

impl RequestBody {
    fn kind(&self) -> u8 {
        match self {
            RequestBody::Ping => 0,
            RequestBody::Eval { .. } => 1,
            RequestBody::Sample { .. } => 2,
            RequestBody::Sweep { .. } => 3,
            RequestBody::Crossover { .. } => 4,
            RequestBody::Stats => 5,
            RequestBody::Snapshot => 6,
            RequestBody::Shutdown => 7,
        }
    }
}

fn encode_f64_axis(w: &mut BodyWriter, axis: &[f64]) {
    w.u32(u32::try_from(axis.len()).unwrap_or(u32::MAX));
    for &v in axis {
        w.f64(v);
    }
}

fn decode_f64_axis(
    r: &mut BodyReader<'_>,
    what: &'static str,
    max: usize,
) -> Result<Vec<f64>, DecodeError> {
    let len = r.list_len(what, max)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.f64()?);
    }
    Ok(out)
}

/// Encodes a request into a frame body.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = BodyWriter::new();
    w.u16(PROTOCOL_VERSION);
    w.u32(req.tenant);
    w.u64(req.id);
    w.u32(req.deadline_ms);
    w.u8(req.body.kind());
    match &req.body {
        RequestBody::Ping | RequestBody::Stats | RequestBody::Snapshot | RequestBody::Shutdown => {}
        RequestBody::Eval { pdn, point } => {
            w.u8(pdn.to_wire());
            point.encode(&mut w);
        }
        RequestBody::Sample { pdn, workload, tdp, ar } => {
            w.u8(pdn.to_wire());
            w.u8(workload_tag(*workload));
            w.f64(*tdp);
            w.f64(*ar);
        }
        RequestBody::Sweep { pdns, tdps, workloads, ars } => {
            w.u32(u32::try_from(pdns.len()).unwrap_or(u32::MAX));
            for p in pdns {
                w.u8(p.to_wire());
            }
            encode_f64_axis(&mut w, tdps);
            w.u32(u32::try_from(workloads.len()).unwrap_or(u32::MAX));
            for wl in workloads {
                w.u8(workload_tag(*wl));
            }
            encode_f64_axis(&mut w, ars);
        }
        RequestBody::Crossover { a, b, workload, ar, range } => {
            w.u8(a.to_wire());
            w.u8(b.to_wire());
            w.u8(workload_tag(*workload));
            w.f64(*ar);
            w.f64(range.0);
            w.f64(range.1);
        }
    }
    w.into_bytes()
}

/// Decodes a request from a frame body. Never panics.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, unknown tags, out-of-range
/// lengths, a protocol-version mismatch, or trailing bytes.
pub fn decode_request(body: &[u8]) -> Result<Request, DecodeError> {
    let mut r = BodyReader::new(body);
    let version = check_version(r.u16()?)?;
    let tenant = r.u32()?;
    let id = r.u64()?;
    let deadline_ms = if version >= 2 { r.u32()? } else { 0 };
    let kind = r.u8()?;
    let body = match kind {
        0 => RequestBody::Ping,
        1 => {
            RequestBody::Eval { pdn: PdnId::from_wire(r.u8()?)?, point: PointSpec::decode(&mut r)? }
        }
        2 => RequestBody::Sample {
            pdn: PdnId::from_wire(r.u8()?)?,
            workload: r.tag("workload type", workload_from_tag)?,
            tdp: r.f64()?,
            ar: r.f64()?,
        },
        3 => {
            let n_pdns = r.list_len("sweep pdns", 16)?;
            let mut pdns = Vec::with_capacity(n_pdns);
            for _ in 0..n_pdns {
                pdns.push(PdnId::from_wire(r.u8()?)?);
            }
            let tdps = decode_f64_axis(&mut r, "sweep tdps", MAX_AXIS)?;
            let n_wls = r.list_len("sweep workloads", 8)?;
            let mut workloads = Vec::with_capacity(n_wls);
            for _ in 0..n_wls {
                workloads.push(r.tag("workload type", workload_from_tag)?);
            }
            let ars = decode_f64_axis(&mut r, "sweep ars", MAX_AXIS)?;
            RequestBody::Sweep { pdns, tdps, workloads, ars }
        }
        4 => RequestBody::Crossover {
            a: PdnId::from_wire(r.u8()?)?,
            b: PdnId::from_wire(r.u8()?)?,
            workload: r.tag("workload type", workload_from_tag)?,
            ar: r.f64()?,
            range: (r.f64()?, r.f64()?),
        },
        5 => RequestBody::Stats,
        6 => RequestBody::Snapshot,
        7 => RequestBody::Shutdown,
        tag => return Err(DecodeError::BadTag { what: "request kind", tag }),
    };
    r.finish()?;
    Ok(Request { tenant, id, deadline_ms, body })
}

/// Per-tenant cache statistics in a [`ResponseBody::Stats`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TenantStats {
    /// Memo lookups answered from the tenant's cache.
    pub hits: u64,
    /// Memo lookups that fell through to a real evaluation.
    pub misses: u64,
    /// Entries dropped by the tenant's eviction budget.
    pub evictions: u64,
    /// Evaluations that bypassed the cache (no memo token).
    pub bypasses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// The tenant's eviction budget (max resident entries).
    pub capacity: u64,
}

/// Daemon-wide counters in a [`ResponseBody::Stats`] reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests admitted since boot.
    pub requests: u64,
    /// Eval queries answered by piggybacking on an identical in-batch
    /// query (admission-control coalescing).
    pub coalesced: u64,
    /// Distinct tenants seen since boot.
    pub tenants: u64,
    /// Requests shed by queue-age or per-tenant budget (answered
    /// `Overloaded` with a `RetryAfter` hint).
    pub shed: u64,
    /// Requests answered `DeadlineExceeded` (expired in queue or while
    /// their coalesced batch ran).
    pub deadline_expired: u64,
    /// Evaluation panics caught and isolated by the dispatcher.
    pub panics: u64,
    /// Bit-exact request bodies quarantined after repeated panics
    /// (answered `Poisoned`).
    pub quarantined: u64,
    /// Connections evicted by the slow-client defense (full write
    /// buffer or lapsed write deadline).
    pub evictions: u64,
}

/// A framed daemon reply: correlation id plus the typed result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// The result.
    pub body: ResponseBody,
}

/// The typed results the daemon returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// Liveness acknowledgement.
    Pong,
    /// A full PDN evaluation, bit-identical to the library's.
    Eval(PdnEvaluation),
    /// A bilinear surface sample (`None` outside the surface hull).
    Sample(Option<f64>),
    /// Swept ETEE surfaces, one per (PDN, workload type).
    Sweep(Vec<EteeSurface>),
    /// The crossover verdict.
    Crossover(Crossover),
    /// Tenant and server statistics.
    Stats {
        /// The requesting tenant's cache counters.
        tenant: TenantStats,
        /// Daemon-wide totals.
        server: ServerStats,
    },
    /// Snapshot persisted.
    SnapshotDone {
        /// Snapshot file size in bytes.
        bytes: u64,
        /// Memo entries captured across all tenants.
        entries: u64,
    },
    /// Shutdown acknowledged; the daemon is draining.
    ShuttingDown,
    /// The request failed.
    Error(ServeError),
}

impl ResponseBody {
    fn kind(&self) -> u8 {
        match self {
            ResponseBody::Pong => 0,
            ResponseBody::Eval(_) => 1,
            ResponseBody::Sample(_) => 2,
            ResponseBody::Sweep(_) => 3,
            ResponseBody::Crossover(_) => 4,
            ResponseBody::Stats { .. } => 5,
            ResponseBody::SnapshotDone { .. } => 6,
            ResponseBody::ShuttingDown => 7,
            ResponseBody::Error(_) => 0xFF,
        }
    }
}

/// Encodes a [`PdnEvaluation`] field-by-field as IEEE-754 bit patterns.
/// Shared by the protocol and the snapshot format.
pub fn encode_evaluation(w: &mut BodyWriter, eval: &PdnEvaluation) {
    w.f64(eval.nominal_power.get());
    w.f64(eval.input_power.get());
    w.f64(eval.etee.get());
    w.f64(eval.breakdown.vr_loss.get());
    w.f64(eval.breakdown.conduction_compute.get());
    w.f64(eval.breakdown.conduction_sa_io.get());
    w.f64(eval.breakdown.other.get());
    w.f64(eval.chip_input_current.get());
    w.u32(u32::try_from(eval.rails.len()).unwrap_or(u32::MAX));
    for rail in &eval.rails {
        w.str(&rail.name);
        w.f64(rail.voltage.get());
        w.f64(rail.current.get());
        w.f64(rail.input_power.get());
        match rail.efficiency {
            Some(eff) => {
                w.u8(1);
                w.f64(eff.get());
            }
            None => w.u8(0),
        }
    }
}

/// Decodes a [`PdnEvaluation`]; the inverse of [`encode_evaluation`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation or out-of-domain
/// efficiencies.
pub fn decode_evaluation(r: &mut BodyReader<'_>) -> Result<PdnEvaluation, DecodeError> {
    let nominal_power = Watts::new(r.f64()?);
    let input_power = Watts::new(r.f64()?);
    let etee = Efficiency::new(r.f64()?).map_err(|_| DecodeError::Invalid("etee"))?;
    let breakdown = LossBreakdown {
        vr_loss: Watts::new(r.f64()?),
        conduction_compute: Watts::new(r.f64()?),
        conduction_sa_io: Watts::new(r.f64()?),
        other: Watts::new(r.f64()?),
    };
    let chip_input_current = Amps::new(r.f64()?);
    let n_rails = r.list_len("rails", MAX_LIST)?;
    let mut rails = Vec::with_capacity(n_rails);
    for _ in 0..n_rails {
        let name = r.str("rail name")?;
        let voltage = Volts::new(r.f64()?);
        let current = Amps::new(r.f64()?);
        let input_power = Watts::new(r.f64()?);
        let efficiency = match r.u8()? {
            0 => None,
            1 => Some(
                Efficiency::new(r.f64()?).map_err(|_| DecodeError::Invalid("rail efficiency"))?,
            ),
            tag => return Err(DecodeError::BadTag { what: "rail efficiency option", tag }),
        };
        rails.push(RailReport { name, voltage, current, input_power, efficiency });
    }
    Ok(PdnEvaluation { nominal_power, input_power, etee, breakdown, chip_input_current, rails })
}

fn encode_surface(w: &mut BodyWriter, s: &EteeSurface) {
    w.str(&s.pdn);
    w.u8(workload_tag(s.workload_type));
    encode_f64_axis(w, &s.tdps);
    encode_f64_axis(w, &s.ars);
    encode_f64_axis(w, &s.values);
}

fn decode_surface(r: &mut BodyReader<'_>) -> Result<EteeSurface, DecodeError> {
    Ok(EteeSurface {
        pdn: r.str("surface pdn")?,
        workload_type: r.tag("workload type", workload_from_tag)?,
        tdps: decode_f64_axis(r, "surface tdps", MAX_AXIS)?,
        ars: decode_f64_axis(r, "surface ars", MAX_AXIS)?,
        values: decode_f64_axis(r, "surface values", MAX_LIST)?,
    })
}

/// Encoded size of a [`ResponseBody::Sweep`] body holding one surface
/// per (PDN, workload type), where `pdn_names` yields each PDN's
/// surface-name length and every surface spans `tdps` × `ars` points.
/// Lets the engine refuse a sweep whose reply no frame could carry
/// before it evaluates anything.
#[must_use]
pub fn sweep_reply_len(
    pdn_names: impl IntoIterator<Item = usize>,
    workloads: usize,
    tdps: usize,
    ars: usize,
) -> usize {
    // version u16, id u64, kind u8, surface count u32.
    let head = 2 + 8 + 1 + 4;
    // Per surface after its name: workload u8 and three f64 lists, each
    // with a u32 length prefix.
    let lattice = 1 + 3 * 4 + 8 * (tdps + ars + tdps * ars);
    head + pdn_names.into_iter().map(|name| workloads * (4 + name + lattice)).sum::<usize>()
}

/// Encodes a response into a frame body.
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = BodyWriter::new();
    w.u16(PROTOCOL_VERSION);
    w.u64(resp.id);
    w.u8(resp.body.kind());
    match &resp.body {
        ResponseBody::Pong | ResponseBody::ShuttingDown => {}
        ResponseBody::Eval(eval) => encode_evaluation(&mut w, eval),
        ResponseBody::Sample(sample) => match sample {
            Some(v) => {
                w.u8(1);
                w.f64(*v);
            }
            None => w.u8(0),
        },
        ResponseBody::Sweep(surfaces) => {
            w.u32(u32::try_from(surfaces.len()).unwrap_or(u32::MAX));
            for s in surfaces {
                encode_surface(&mut w, s);
            }
        }
        ResponseBody::Crossover(c) => match c {
            Crossover::AlwaysFirst => w.u8(0),
            Crossover::AlwaysSecond => w.u8(1),
            Crossover::At(tdp) => {
                w.u8(2);
                w.f64(tdp.get());
            }
        },
        ResponseBody::Stats { tenant, server } => {
            w.u64(tenant.hits);
            w.u64(tenant.misses);
            w.u64(tenant.evictions);
            w.u64(tenant.bypasses);
            w.u64(tenant.entries);
            w.u64(tenant.capacity);
            w.u64(server.requests);
            w.u64(server.coalesced);
            w.u64(server.tenants);
            w.u64(server.shed);
            w.u64(server.deadline_expired);
            w.u64(server.panics);
            w.u64(server.quarantined);
            w.u64(server.evictions);
        }
        ResponseBody::SnapshotDone { bytes, entries } => {
            w.u64(*bytes);
            w.u64(*entries);
        }
        ResponseBody::Error(err) => err.encode(&mut w),
    }
    w.into_bytes()
}

/// Decodes a response from a frame body. Never panics.
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed input.
pub fn decode_response(body: &[u8]) -> Result<Response, DecodeError> {
    let mut r = BodyReader::new(body);
    let version = check_version(r.u16()?)?;
    let id = r.u64()?;
    let kind = r.u8()?;
    let body = match kind {
        0 => ResponseBody::Pong,
        1 => ResponseBody::Eval(decode_evaluation(&mut r)?),
        2 => ResponseBody::Sample(match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            tag => return Err(DecodeError::BadTag { what: "sample option", tag }),
        }),
        3 => {
            let n = r.list_len("surfaces", 256)?;
            let mut surfaces = Vec::with_capacity(n);
            for _ in 0..n {
                surfaces.push(decode_surface(&mut r)?);
            }
            ResponseBody::Sweep(surfaces)
        }
        4 => ResponseBody::Crossover(match r.u8()? {
            0 => Crossover::AlwaysFirst,
            1 => Crossover::AlwaysSecond,
            2 => Crossover::At(Watts::new(r.f64()?)),
            tag => return Err(DecodeError::BadTag { what: "crossover", tag }),
        }),
        5 => ResponseBody::Stats {
            tenant: TenantStats {
                hits: r.u64()?,
                misses: r.u64()?,
                evictions: r.u64()?,
                bypasses: r.u64()?,
                entries: r.u64()?,
                capacity: r.u64()?,
            },
            server: {
                let mut server = ServerStats {
                    requests: r.u64()?,
                    coalesced: r.u64()?,
                    tenants: r.u64()?,
                    ..ServerStats::default()
                };
                if version >= 2 {
                    server.shed = r.u64()?;
                    server.deadline_expired = r.u64()?;
                    server.panics = r.u64()?;
                    server.quarantined = r.u64()?;
                    server.evictions = r.u64()?;
                }
                server
            },
        },
        6 => ResponseBody::SnapshotDone { bytes: r.u64()?, entries: r.u64()? },
        7 => ResponseBody::ShuttingDown,
        0xFF => ResponseBody::Error(ServeError::decode(&mut r, version, 0)?),
        tag => return Err(DecodeError::BadTag { what: "response kind", tag }),
    };
    r.finish()?;
    Ok(Response { id, body })
}

/// The structured remainder of a [`ServeError`]: exactly enough to
/// rebuild the library error losslessly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeDetail {
    /// A leaf error carrying only its code and rendered message
    /// (regulator and unit errors, or errors decoded from a foreign
    /// peer). Rebuilds as [`PdnError::Wire`].
    Opaque,
    /// [`PdnError::Scenario`]'s raw message.
    Scenario(String),
    /// [`PdnError::Degraded`]'s component and reason.
    Degraded {
        /// The degraded component.
        component: String,
        /// Why it degraded.
        reason: String,
    },
    /// [`PdnError::Lattice`]'s coordinates plus the boxed cause.
    Lattice {
        /// The PDN being evaluated, if known.
        pdn: Option<String>,
        /// The lattice point description.
        point: String,
        /// The underlying failure.
        cause: Box<ServeError>,
    },
}

/// A wire-ready error: stable code, rendered message, and lossless
/// structure.
///
/// Conversions are lossless in both directions:
/// `ServeError → PdnError → ServeError` is the identity, and
/// `PdnError → ServeError → PdnError` preserves the [`ErrorCode`], the
/// rendered message, and the full cause chain at every level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeError {
    /// The stable error code.
    pub code: ErrorCode,
    /// The rendered, human-readable message.
    pub message: String,
    /// For retryable codes, the server's backoff hint: wait at least
    /// this many milliseconds before retrying. `None` means the client
    /// should apply its own exponential backoff (from ~10 ms). Terminal
    /// codes never carry a hint.
    pub retry_after_ms: Option<u32>,
    /// Structure for lossless reconstruction.
    pub detail: ServeDetail,
}

impl ServeError {
    /// A leaf error from a code and message.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self { code, message: message.into(), retry_after_ms: None, detail: ServeDetail::Opaque }
    }

    /// Attaches a `RetryAfter` hint (meaningful only on retryable
    /// codes).
    #[must_use]
    pub fn with_retry_after(mut self, ms: u32) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Captures a library error losslessly.
    #[must_use]
    pub fn from_pdn(err: &PdnError) -> Self {
        let message = err.to_string();
        match err {
            PdnError::Scenario(msg) => Self {
                code: ErrorCode::Scenario,
                message,
                retry_after_ms: None,
                detail: ServeDetail::Scenario(msg.clone()),
            },
            PdnError::Degraded { component, reason } => Self {
                code: ErrorCode::Degraded,
                message,
                retry_after_ms: None,
                detail: ServeDetail::Degraded {
                    component: component.clone(),
                    reason: reason.clone(),
                },
            },
            PdnError::Lattice { pdn, point, source } => Self {
                code: ErrorCode::Lattice,
                message,
                retry_after_ms: None,
                detail: ServeDetail::Lattice {
                    pdn: pdn.clone(),
                    point: point.clone(),
                    cause: Box::new(Self::from_pdn(source)),
                },
            },
            PdnError::Shared(inner) => Self::from_pdn(inner),
            PdnError::Wire { code, message: msg } => Self::new(*code, msg.clone()),
            other => Self::new(other.code(), message),
        }
    }

    /// Rebuilds the library error this frame captured. Structured
    /// variants are restored exactly; opaque leaves become
    /// [`PdnError::Wire`] with the same code and message.
    #[must_use]
    pub fn into_pdn(self) -> PdnError {
        match self.detail {
            ServeDetail::Opaque => PdnError::Wire { code: self.code, message: self.message },
            ServeDetail::Scenario(msg) => PdnError::Scenario(msg),
            ServeDetail::Degraded { component, reason } => PdnError::Degraded { component, reason },
            ServeDetail::Lattice { pdn, point, cause } => {
                PdnError::Lattice { pdn, point, source: Box::new(cause.into_pdn()) }
            }
        }
    }

    fn encode(&self, w: &mut BodyWriter) {
        w.u16(self.code.to_wire());
        w.str(&self.message);
        // v2: the retry hint travels as a bare u32, 0 = no hint.
        w.u32(self.retry_after_ms.unwrap_or(0));
        match &self.detail {
            ServeDetail::Opaque => w.u8(0),
            ServeDetail::Scenario(msg) => {
                w.u8(1);
                w.str(msg);
            }
            ServeDetail::Degraded { component, reason } => {
                w.u8(2);
                w.str(component);
                w.str(reason);
            }
            ServeDetail::Lattice { pdn, point, cause } => {
                w.u8(3);
                match pdn {
                    Some(name) => {
                        w.u8(1);
                        w.str(name);
                    }
                    None => w.u8(0),
                }
                w.str(point);
                cause.encode(w);
            }
        }
    }

    fn decode(r: &mut BodyReader<'_>, version: u16, depth: usize) -> Result<Self, DecodeError> {
        if depth > MAX_ERROR_DEPTH {
            return Err(DecodeError::BadLength { what: "error cause chain", len: depth });
        }
        let code = ErrorCode::from_wire(r.u16()?);
        let message = r.str("error message")?;
        let retry_after_ms = if version >= 2 {
            match r.u32()? {
                0 => None,
                ms => Some(ms),
            }
        } else {
            None
        };
        let detail = match r.u8()? {
            0 => ServeDetail::Opaque,
            1 => ServeDetail::Scenario(r.str("scenario message")?),
            2 => ServeDetail::Degraded {
                component: r.str("degraded component")?,
                reason: r.str("degraded reason")?,
            },
            3 => {
                let pdn = match r.u8()? {
                    0 => None,
                    1 => Some(r.str("lattice pdn")?),
                    tag => return Err(DecodeError::BadTag { what: "lattice pdn option", tag }),
                };
                let point = r.str("lattice point")?;
                let cause = Box::new(Self::decode(r, version, depth + 1)?);
                ServeDetail::Lattice { pdn, point, cause }
            }
            tag => return Err(DecodeError::BadTag { what: "error detail", tag }),
        };
        Ok(Self { code, message, retry_after_ms, detail })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<&PdnError> for ServeError {
    fn from(err: &PdnError) -> Self {
        Self::from_pdn(err)
    }
}

impl From<PdnError> for ServeError {
    fn from(err: PdnError) -> Self {
        Self::from_pdn(&err)
    }
}

impl From<ServeError> for PdnError {
    fn from(err: ServeError) -> Self {
        err.into_pdn()
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let body = encode_request(req);
        let decoded = decode_request(&body).expect("request decodes");
        assert_eq!(&decoded, req);
    }

    fn round_trip_response(resp: &Response) {
        let body = encode_response(resp);
        let decoded = decode_response(&body).expect("response decodes");
        assert_eq!(&decoded, resp);
    }

    #[test]
    fn request_variants_round_trip() {
        round_trip_request(&Request { tenant: 0, id: 1, deadline_ms: 0, body: RequestBody::Ping });
        round_trip_request(&Request {
            tenant: 3,
            id: 42,
            deadline_ms: 250,
            body: RequestBody::Eval {
                pdn: PdnId::FlexWatts,
                point: PointSpec::Active {
                    tdp: 15.0,
                    workload: WorkloadType::MultiThread,
                    ar: 0.56,
                },
            },
        });
        round_trip_request(&Request {
            tenant: 7,
            id: 9,
            deadline_ms: 0,
            body: RequestBody::Sweep {
                pdns: vec![PdnId::Ivr, PdnId::Ldo],
                tdps: vec![4.0, 15.0, 50.0],
                workloads: vec![WorkloadType::SingleThread],
                ars: vec![0.4, 0.8],
            },
        });
        round_trip_request(&Request {
            tenant: 1,
            id: 2,
            deadline_ms: u32::MAX,
            body: RequestBody::Crossover {
                a: PdnId::Ivr,
                b: PdnId::Ldo,
                workload: WorkloadType::Graphics,
                ar: 0.6,
                range: (4.0, 50.0),
            },
        });
    }

    #[test]
    fn error_response_round_trips_nested_lattice() {
        let lib = PdnError::Lattice {
            pdn: Some("IVR".into()),
            point: "TDP=15W MT AR=0.56".into(),
            source: Box::new(PdnError::Scenario("no powered domain".into())),
        };
        let serve = ServeError::from_pdn(&lib);
        round_trip_response(&Response { id: 5, body: ResponseBody::Error(serve.clone()) });

        // ServeError -> PdnError -> ServeError is the identity.
        let rebuilt = serve.clone().into_pdn();
        assert_eq!(ServeError::from_pdn(&rebuilt), serve);
        // The rebuilt library error is the original, exactly.
        assert_eq!(rebuilt.to_string(), lib.to_string());
        assert_eq!(rebuilt.code(), lib.code());
    }

    /// A version-1 body (no deadline, no retry hint, short stats block)
    /// must still decode, with the v2 fields at their defaults.
    #[test]
    fn version_1_bodies_still_decode() {
        let mut w = BodyWriter::new();
        w.u16(1); // version 1
        w.u32(9); // tenant
        w.u64(77); // id — no deadline field in v1
        w.u8(0); // Ping
        let req = decode_request(&w.into_bytes()).expect("v1 request decodes");
        assert_eq!(req, Request { tenant: 9, id: 77, deadline_ms: 0, body: RequestBody::Ping });

        let mut w = BodyWriter::new();
        w.u16(1); // version 1
        w.u64(77); // id
        w.u8(0xFF); // Error
        w.u16(ErrorCode::Overloaded.to_wire());
        w.str("queue full"); // no retry_after field in v1
        w.u8(0); // Opaque
        let resp = decode_response(&w.into_bytes()).expect("v1 response decodes");
        let ResponseBody::Error(err) = resp.body else { panic!("expected error body") };
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert_eq!(err.retry_after_ms, None);

        let mut w = BodyWriter::new();
        w.u16(1); // version 1
        w.u64(5); // id
        w.u8(5); // Stats
        for v in 0..6u64 {
            w.u64(v); // tenant stats
        }
        w.u64(10);
        w.u64(2);
        w.u64(3); // v1 server stats end here
        let resp = decode_response(&w.into_bytes()).expect("v1 stats decodes");
        let ResponseBody::Stats { server, .. } = resp.body else { panic!("expected stats") };
        assert_eq!(
            server,
            ServerStats { requests: 10, coalesced: 2, tenants: 3, ..ServerStats::default() }
        );
    }

    #[test]
    fn retry_after_hints_round_trip() {
        let err = ServeError::new(ErrorCode::Overloaded, "queue is 2s old").with_retry_after(350);
        round_trip_response(&Response { id: 8, body: ResponseBody::Error(err) });
    }

    #[test]
    fn malformed_bodies_never_panic() {
        let body =
            encode_request(&Request { tenant: 0, id: 0, deadline_ms: 0, body: RequestBody::Ping });
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err());
        }
        let mut trailing = body.clone();
        trailing.push(0);
        assert_eq!(decode_request(&trailing).unwrap_err(), DecodeError::Trailing(1));
        let mut bad_version = body;
        bad_version[0] = 0xFE;
        assert_eq!(
            decode_request(&bad_version).unwrap_err(),
            DecodeError::Invalid("protocol version")
        );
    }
}
