//! Property tests for the resilience layer.
//!
//! Two surfaces that must never misbehave no matter the input:
//!
//! * **snapshot restore** — arbitrary corruption (bit flips anywhere,
//!   truncation to any length) must produce a typed error, never a
//!   panic and never a silently-wrong snapshot; `restore_latest` must
//!   fall back across rotated generations and report a cold start when
//!   nothing intact remains;
//! * **admission** — under any randomized interleaving of submissions
//!   and drains, the queue never exceeds its depth, never lets one
//!   tenant exceed its per-generation budget, and every submission is
//!   either queued (drained exactly once) or rejected with a
//!   classified [`Rejection`].

use flexwatts::scratch::unique_scratch_dir;
use pdn_serve::admission::{AdmissionQueue, Job, Rejection, ReplyHandle};
use pdn_serve::protocol::{Request, RequestBody};
use pdn_serve::snapshot::{self, Snapshot};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Snapshot corruption
// ---------------------------------------------------------------------------

fn snapshot() -> impl Strategy<Value = Snapshot> {
    (vec(any::<u8>(), 1..48), vec(any::<u8>(), 1..48)).prop_map(|(ivr, ldo)| Snapshot {
        ivr_firmware: ivr,
        ldo_firmware: ldo,
        tenants: Vec::new(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A flipped bit anywhere in the file is always detected: decode
    /// returns a typed error (the trailer CRC covers every byte) and
    /// never panics.
    #[test]
    fn bit_flips_never_decode(
        snap in snapshot(),
        at in any::<u64>(),
        mask in 1u32..256,
    ) {
        let mut bytes = snapshot::encode(&snap);
        let at = (at as usize) % bytes.len();
        bytes[at] ^= mask as u8;
        prop_assert!(snapshot::decode(&bytes).is_err(), "corrupt byte {at} decoded");
    }

    /// A truncated file is always detected, down to the empty file.
    #[test]
    fn truncations_never_decode(snap in snapshot(), cut in any::<u64>()) {
        let bytes = snapshot::encode(&snap);
        let cut = (cut as usize) % bytes.len();
        prop_assert!(snapshot::decode(&bytes[..cut]).is_err(), "truncation to {cut} decoded");
    }

    /// `restore_latest` over rotated generations: whichever single
    /// generation is left intact is the one restored (with one defect
    /// recorded per corrupted newer generation); corrupting all of
    /// them is a clean cold start, never a panic.
    #[test]
    fn restore_walks_generations_and_cold_starts(
        snap in snapshot(),
        intact in 0u64..3,
    ) {
        let keep = 3;
        let intact = intact as usize;
        let dir = unique_scratch_dir("pdn-serve-proptest-walk").expect("scratch dir");
        let path = dir.join("state.snapshot");
        // Write three generations (oldest first semantics come from
        // rotation: after three writes, gen 0 is the newest).
        for _ in 0..keep {
            snapshot::write_file_rotated(&path, &snap, keep).expect("write rotated");
        }
        // Corrupt every generation except `intact`.
        for generation in 0..keep {
            if generation == intact {
                continue;
            }
            let gen_path = snapshot::generation_path(&path, generation);
            let mut bytes = std::fs::read(&gen_path).expect("read generation");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&gen_path, &bytes).expect("rewrite generation");
        }
        let (restored, defects) = snapshot::restore_latest(&path, keep);
        prop_assert!(restored.is_some(), "intact generation {intact} not restored");
        prop_assert_eq!(defects.len(), intact, "one defect per corrupted newer generation");
        prop_assert_eq!(restored.unwrap().ivr_firmware, snap.ivr_firmware.clone());

        // Now corrupt the intact one too: cold start.
        let gen_path = snapshot::generation_path(&path, intact);
        let mut bytes = std::fs::read(&gen_path).expect("read generation");
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&gen_path, &bytes).expect("rewrite generation");
        let (cold, cold_defects) = snapshot::restore_latest(&path, keep);
        prop_assert!(cold.is_none(), "total corruption must cold start");
        prop_assert_eq!(cold_defects.len(), keep, "every generation reported defective");
    }
}

// ---------------------------------------------------------------------------
// Admission interleavings
// ---------------------------------------------------------------------------

/// One step of a randomized schedule.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Submit a ping for the tenant.
    Submit(u32),
    /// Drain everything queued (resets tenant budgets).
    Drain,
    /// Close the queue (everything after is rejected `Closed`).
    Close,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    vec(
        prop_oneof![
            (0u32..5).prop_map(Step::Submit),
            Just(Step::Drain),
            // Rare: most schedules never close.
            (0u32..10).prop_map(|r| if r == 0 { Step::Close } else { Step::Drain }),
        ],
        1..120,
    )
}

fn ping_job(tenant: u32, id: u64) -> Job {
    // The receiver is dropped: these schedules never deliver, they
    // only exercise admission and draining.
    let (tx, _rx) = sync_channel(1);
    let reply = ReplyHandle::new(tx, Arc::new(AtomicBool::new(false)));
    Job::new(Request { tenant, id, deadline_ms: 0, body: RequestBody::Ping }, reply)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any interleaving of submissions, drains, and a close:
    /// depth and per-generation tenant budgets are enforced, every
    /// submission is queued or rejected with the right classification,
    /// and drained ids are exactly the queued ids, each exactly once.
    #[test]
    fn admission_schedule_invariants(schedule in steps(), depth in 1usize..12, quota in 0usize..8) {
        let queue = AdmissionQueue::new(depth, quota);
        let effective_quota = if quota == 0 { depth } else { quota.min(depth) };
        let mut queued: Vec<u64> = Vec::new(); // ids admitted, not yet drained
        let mut drained: Vec<u64> = Vec::new();
        let mut held: HashMap<u32, usize> = HashMap::new(); // model budgets
        let mut closed = false;
        let mut next_id = 0u64;

        for step in schedule {
            match step {
                Step::Submit(tenant) => {
                    let id = next_id;
                    next_id += 1;
                    match queue.submit(ping_job(tenant, id)) {
                        Ok(()) => {
                            prop_assert!(!closed, "closed queue admitted a job");
                            queued.push(id);
                            *held.entry(tenant).or_insert(0) += 1;
                            prop_assert!(queued.len() <= depth, "queue exceeded depth");
                            prop_assert!(
                                held[&tenant] <= effective_quota,
                                "tenant {tenant} exceeded budget {effective_quota}"
                            );
                        }
                        Err((job, why)) => {
                            prop_assert_eq!(job.request.id, id, "rejection returns the job");
                            match why {
                                Rejection::Closed => prop_assert!(closed, "spurious Closed"),
                                Rejection::Overloaded { depth: d } => {
                                    prop_assert_eq!(d, depth);
                                    prop_assert_eq!(queued.len(), depth, "early Overloaded");
                                }
                                Rejection::TenantBudget { quota: q } => {
                                    prop_assert_eq!(q, effective_quota);
                                    prop_assert_eq!(
                                        held.get(&tenant).copied().unwrap_or(0),
                                        effective_quota,
                                        "early TenantBudget"
                                    );
                                }
                            }
                        }
                    }
                }
                Step::Drain => {
                    if queued.is_empty() {
                        // drain() would block on an empty open queue.
                        continue;
                    }
                    let batch = queue.drain().expect("open queue with jobs drains");
                    let ids: Vec<u64> = batch.iter().map(|j| j.request.id).collect();
                    prop_assert_eq!(&ids, &queued, "drain returns queued jobs in order");
                    drained.extend(ids);
                    queued.clear();
                    held.clear(); // budgets reset each generation
                }
                Step::Close => {
                    queue.close();
                    closed = true;
                }
            }
        }

        // Whatever is still queued drains exactly once, even closed.
        if !queued.is_empty() {
            let batch = queue.drain().expect("jobs remain");
            let ids: Vec<u64> = batch.iter().map(|j| j.request.id).collect();
            prop_assert_eq!(&ids, &queued, "final drain returns the remainder");
            drained.extend(ids);
        }
        // Exactly-once: drained ids are unique and account for every
        // admitted id.
        let mut unique = drained.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), drained.len(), "a job drained twice");
        if closed {
            // A closed, drained queue reports exactly that.
            let rejected_closed =
                matches!(queue.submit(ping_job(0, u64::MAX)), Err((_, Rejection::Closed)));
            prop_assert!(rejected_closed, "closed queue did not reject with Closed");
        }
    }
}
