//! The process-wide pool of parked helper threads behind every batch
//! fan-out.
//!
//! Spawning and joining scoped threads for each [`super::par_map`] call
//! cost ~50–150 µs per call, about half of a small served batch. The
//! pool pays that once: helpers are spawned on first demand, park on a
//! condition variable between jobs, and never exit.
//!
//! Contract:
//!
//! * **The caller participates.** [`run`] calls `job(0)` on the calling
//!   thread. A run with `workers` workers wakes `workers - 1` helpers;
//!   each may join as one of the worker indices `1..workers`. The helper
//!   count grows to the largest `workers - 1` ever asked for.
//! * **Worker 0 alone must be able to finish the job.** A helper joins
//!   only while the caller is still inside `job(0)`; once it returns, the
//!   job closes and the caller waits only for helpers already running.
//!   Small jobs therefore never wait for a helper to wake. The batch
//!   scheduler satisfies this: every worker sweeps every claim cursor.
//! * **One job at a time.** A second thread that calls [`run`] while a
//!   job is open waits for the slot. A call from inside a job (caller or
//!   helper) must run inline instead; [`in_job`] tells the scheduler so.
//!   An item must therefore never block on another thread that may
//!   itself start a fan-out.
//! * **Panics.** Every share runs under `catch_unwind`. The caller waits
//!   for every running helper even when its own share panicked, then
//!   re-raises the first payload. Helpers survive the panic.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// One worker's share of a job: called with the worker index.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

thread_local! {
    /// Set on every helper thread, and on a caller while it runs its own
    /// share, so a nested fan-out runs inline instead of waiting for the
    /// slot its own job holds.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is running a share of a pool job.
pub(super) fn in_job() -> bool {
    IN_JOB.with(Cell::get)
}

/// The hand-off state between the caller of the open job and the helpers.
struct State {
    /// The open job. Present only while its caller is inside its own
    /// share; see [`run`] for why the `'static` bound is sound.
    job: Option<&'static Job<'static>>,
    /// Bumped for every job, so a helper joins each job at most once.
    epoch: u64,
    /// Helpers the open job asked for.
    want: usize,
    /// Helpers that have joined the open job (their worker indices are
    /// `1..=joined`).
    joined: usize,
    /// Helpers still inside their share.
    running: usize,
    /// The first panic payload of the job, caller's or helper's.
    panic: Option<Box<dyn Any + Send>>,
    /// Helper threads spawned so far.
    helpers: usize,
}

struct Pool {
    /// Held by a caller for a whole job: one job at a time.
    slot: Mutex<()>,
    state: Mutex<State>,
    /// Helpers park here between jobs.
    wake: Condvar,
    /// The caller parks here until `running` drops to zero.
    idle: Condvar,
}

static POOL: Pool = Pool {
    slot: Mutex::new(()),
    state: Mutex::new(State {
        job: None,
        epoch: 0,
        want: 0,
        joined: 0,
        running: 0,
        panic: None,
        helpers: 0,
    }),
    wake: Condvar::new(),
    idle: Condvar::new(),
};

/// Locks the hand-off state. No code panics while holding this lock (a
/// failed helper spawn is the one exception, and it happens before
/// `helpers` is bumped), so every update leaves the state valid and a
/// poisoned guard is safe to recover.
fn state() -> MutexGuard<'static, State> {
    POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one job on the pool: `job(0)` on the calling thread plus up to
/// `workers - 1` helper shares, returning once every started share has
/// finished. Re-raises the first panic of any share.
///
/// Must not be called from inside a job ([`in_job`]); the scheduler runs
/// nested fan-outs inline.
pub(super) fn run(workers: usize, job: &Job<'_>) {
    debug_assert!(!in_job(), "nested pool jobs run inline");
    // The slot guards no data, so a poisoned slot is simply reusable.
    let slot = POOL.slot.lock().unwrap_or_else(PoisonError::into_inner);
    let want = workers.saturating_sub(1);
    {
        let mut st = state();
        while st.helpers < want {
            thread::Builder::new()
                .name(format!("pdnspot-batch-{}", st.helpers + 1))
                .spawn(helper)
                .expect("spawn a batch pool helper thread");
            // The helper is detached on purpose: it serves every later
            // job for the life of the process and catches every panic of
            // the shares it runs.
            st.helpers += 1;
        }
        // SAFETY: the borrow of `job` is extended to `'static` only while
        // it sits in `State::job`. It is removed below, under the state
        // lock, as soon as the caller's own share returns or unwinds
        // (`catch_unwind` holds the unwind here), and no helper can pick
        // it up after that. Helpers that did pick it up are counted in
        // `running`, and this function does not return, or unwind, until
        // `running` is zero again. So no use of the reference outlives
        // this call, and the closure it points to outlives every use.
        let job: &'static Job<'static> =
            unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        st.job = Some(job);
        st.epoch = st.epoch.wrapping_add(1);
        st.want = want;
        st.joined = 0;
    }
    POOL.wake.notify_all();

    IN_JOB.with(|flag| flag.set(true));
    let own = panic::catch_unwind(AssertUnwindSafe(|| job(0)));
    IN_JOB.with(|flag| flag.set(false));

    let mut st = state();
    st.job = None;
    if let Err(payload) = own {
        st.panic.get_or_insert(payload);
    }
    while st.running > 0 {
        st = POOL.idle.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    let panicked = st.panic.take();
    drop(st);
    drop(slot);
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
}

/// A helper thread's life: park until a job with a free worker index
/// opens, run that share, report, park again.
fn helper() {
    IN_JOB.with(|flag| flag.set(true));
    let mut seen = 0u64;
    let mut st = state();
    loop {
        let open = st.job.filter(|_| st.epoch != seen && st.joined < st.want);
        let Some(job) = open else {
            st = POOL.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        seen = st.epoch;
        st.joined += 1;
        st.running += 1;
        let worker = st.joined;
        drop(st);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(worker)));
        st = state();
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.running -= 1;
        if st.running == 0 {
            POOL.idle.notify_one();
        }
    }
}
