//! Measurement plumbing shared by every workload: the seeded input
//! generator, order statistics, the counting allocator, process clocks,
//! host facts, the per-run scratch directory, and the in-memory span
//! recorder of traced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// SplitMix64: the benchmark's own input generator, so generated inputs
/// depend only on `--seed` and never on the repository's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` distinct sorted values drawn uniformly in `[lo, hi)` at full
    /// precision, so no value recurs across draws by chance.
    pub fn sorted_axis(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut axis: Vec<f64> = Vec::with_capacity(n);
        while axis.len() < n {
            let v = self.range(lo, hi);
            if !axis.iter().any(|&a| a.to_bits() == v.to_bits()) {
                axis.push(v);
            }
        }
        axis.sort_by(f64::total_cmp);
        axis
    }
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median over windows of each window's `q`-quantile.
pub fn windowed_quantile(windows: &[Vec<f64>], q: f64) -> f64 {
    median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>())
}

/// Digest formatting: enough digits to pin every bit of a double.
pub fn digest_f64(x: f64) -> String {
    format!("{x:.17e}")
}

/// FNV-1a over a byte slice (reply fingerprints).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Allocation counting and process clocks
// ---------------------------------------------------------------------------

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a relaxed counter of allocations and
/// reallocations (the counter publishes no other data).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made by the whole process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in seconds — the
/// yardstick the traced run reconciles parallel work against.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` (two `long`s on
    // 64-bit Linux) that outlives the call; the clock id is a constant
    // the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

// ---------------------------------------------------------------------------
// Host facts and the fixed reference kernel
// ---------------------------------------------------------------------------

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Iterations of the reference kernel per timing.
const REF_ITERS: u64 = 1 << 22;

/// A fixed integer + floating-point kernel that uses no repository
/// code, timed in the same process as the workload: dividing a metric by
/// it gives a machine-normalised figure. Returns ns per iteration
/// (median of five timings).
pub fn reference_kernel_ns() -> f64 {
    let mut timings = Vec::with_capacity(5);
    for round in 0..5u64 {
        let start = Instant::now();
        let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1D ^ round);
        let mut acc = 0.0f64;
        for _ in 0..REF_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16);
        }
        std::hint::black_box(acc);
        timings.push(start.elapsed().as_secs_f64() * 1e9 / REF_ITERS as f64);
    }
    median(&timings)
}

// ---------------------------------------------------------------------------
// Scratch directory
// ---------------------------------------------------------------------------

static SCRATCH_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A directory private to one run — named from the process id plus a
/// process-wide counter, so concurrent runs and repeated set-ups never
/// share files — under the benchmark's own `scratch/` directory, and
/// removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scratch")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the parent in place while another run still uses it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

// ---------------------------------------------------------------------------
// Cold set-ups
// ---------------------------------------------------------------------------

/// Times `n` set-ups of `workload`, each in a fresh child process of
/// this binary (`--setup-only 1`), so every one is cold: no process-wide
/// cache, allocator pool or lazy table carries over from an earlier
/// set-up. The children run one after another; each is waited for.
pub fn cold_setups(workload: &str, seed: u64, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let seed = seed.to_string();
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed, "--setup-only", "1"])
                .output()
                .map_err(|e| format!("starting a set-up process: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let time = stdout
                .lines()
                .last()
                .and_then(|line| line.strip_prefix("setup_s "))
                .and_then(|v| v.parse::<f64>().ok());
            match time {
                Some(t) if out.status.success() => Ok(t),
                _ => Err(format!(
                    "set-up process failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded span: a layer call made by the benchmark, nested under
/// the op that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An open span, closed by [`Tracer::exit`].
#[derive(Debug)]
pub struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    kept: Option<usize>,
}

impl OpenSpan {
    /// The identifier children name as their parent (`None` once the
    /// kept-span budget is spent).
    pub fn id(&self) -> Option<usize> {
        self.kept
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub calls: u64,
    pub ns: u64,
}

/// In-memory recorder of the traced run: spans plus counts, written out
/// once at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, SpanTotal>,
    counts: BTreeMap<&'static str, f64>,
    op: u64,
}

/// Spans kept verbatim for the spans file; later spans only feed the
/// totals, which bounds memory on long runs.
const MAX_KEPT_SPANS: usize = 20_000;

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
            counts: BTreeMap::new(),
            op: 0,
        }
    }

    /// Starts the next op; spans recorded until the next call share its
    /// identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str, parent: Option<usize>) -> OpenSpan {
        let start_ns = self.now_ns();
        let kept = (self.spans.len() < MAX_KEPT_SPANS).then(|| {
            self.spans.push(Span { name, op: self.op, parent, start_ns, end_ns: start_ns });
            self.spans.len() - 1
        });
        OpenSpan { name, start_ns, kept }
    }

    /// Closes a span and returns its duration in ns.
    pub fn exit(&mut self, span: OpenSpan) -> u64 {
        let end_ns = self.now_ns();
        if let Some(idx) = span.kept {
            self.spans[idx].end_ns = end_ns;
        }
        let ns = end_ns - span.start_ns;
        self.record(span.name, ns, 1);
        ns
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.enter(name, parent);
        let out = f();
        self.exit(open);
        out
    }

    /// Adds calls timed elsewhere (e.g. on another thread) to a name.
    pub fn record(&mut self, name: &'static str, ns: u64, calls: u64) {
        let total = self.totals.entry(name).or_default();
        total.calls += calls;
        total.ns += ns;
    }

    /// Adds to a named count.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Mean ns per call of a span name (0 when never called).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.total(name);
        if t.calls == 0 {
            0.0
        } else {
            t.ns as f64 / t.calls as f64
        }
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
