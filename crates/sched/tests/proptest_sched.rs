//! Property tests of the batch scheduler under **all five** queue
//! policies: liveness (every job eventually runs), safety (never
//! over-allocates), determinism, and the policy-specific contracts —
//! EASY never delays the head's shadow reservation, conservative never
//! delays any reservation, and `PriorityBackfill` aging makes starvation
//! impossible (with a contrast test showing EASY *does* starve the same
//! workload).

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::AllocationId;
use hpcqc_sched::scheduler::{BatchScheduler, PendingJob};
use hpcqc_sched::{Demand, PolicySpec};
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::job::JobId;
use proptest::prelude::*;

const NODES: u32 = 32;

fn all_policies() -> [PolicySpec; 5] {
    [
        PolicySpec::fcfs(),
        PolicySpec::easy(),
        PolicySpec::conservative(),
        PolicySpec::priority_backfill(24.0),
        PolicySpec::quantum_aware(1_000.0),
    ]
}

fn cluster() -> Cluster {
    ClusterBuilder::new()
        .partition("classical", NODES)
        .partition_with_gres("quantum", 0, GresKind::qpu(), 2)
        .build(SimTime::ZERO)
}

fn job(id: u64, nodes: u32, qpus: u32, walltime_s: u64, submit_s: u64) -> PendingJob {
    let mut request = AllocRequest::new().group(GroupRequest::nodes("classical", nodes));
    if qpus > 0 {
        request = request.group(GroupRequest::gres("quantum", GresKind::qpu(), qpus));
    }
    PendingJob {
        id: JobId::new(id),
        request,
        walltime: SimDuration::from_secs(walltime_s),
        submit: SimTime::from_secs(submit_s),
        user: format!("u{}", id % 3),
        qos_boost: 0.0,
    }
}

/// Drives the scheduler until the queue drains; jobs "run" for their
/// walltime. Returns (start-order, completion count).
fn drain(policy: PolicySpec, jobs: Vec<PendingJob>) -> (Vec<u64>, usize) {
    let mut cluster = cluster();
    let mut sched = BatchScheduler::new(policy);
    let total = jobs.len();
    for j in jobs {
        sched.submit(j, &cluster).expect("job fits machine");
    }
    let mut order = Vec::new();
    let mut running: Vec<(SimTime, hpcqc_cluster::ids::AllocationId)> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut completed = 0;
    // Bounded loop: liveness must hold well within 10×total cycles.
    for _ in 0..(10 * total + 10) {
        for st in sched.try_schedule(&mut cluster, now) {
            order.push(st.job.raw());
            // Look up the walltime via the running set end time: retire
            // after a fixed quantum to keep the driver simple.
            running.push((now + SimDuration::from_secs(300), st.alloc));
        }
        if completed == total {
            break;
        }
        // Advance to the earliest completion.
        running.sort_by_key(|(t, _)| *t);
        if let Some((t, alloc)) = running.first().copied() {
            now = now.max(t);
            cluster.release(alloc, now).expect("release running job");
            sched.finished(alloc, now);
            running.remove(0);
            completed += 1;
        } else if sched.pending_len() > 0 {
            // Nothing running but jobs pending: a scheduling cycle at a
            // later time must make progress.
            now += SimDuration::from_secs(60);
        } else {
            break;
        }
    }
    (order, completed)
}

/// The head's earliest feasible start against the running set only (no
/// reservations): EASY's "shadow time".
fn shadow_of(
    sched: &BatchScheduler,
    cluster: &Cluster,
    head: &PendingJob,
    now: SimTime,
) -> SimTime {
    let demand = Demand::resolve(&head.request, cluster).expect("head fits the machine");
    sched
        .availability_profile(cluster, now)
        .find_slot(&demand, head.walltime, now)
}

/// Conservative planning replay: in the given queue order, find each
/// job's earliest slot and carve a reservation there, returning
/// (job, planned start) pairs. Mirrors what the policy plans in a cycle.
fn conservative_plan(
    sched: &BatchScheduler,
    cluster: &Cluster,
    now: SimTime,
) -> Vec<(u64, SimTime)> {
    let mut queue: Vec<PendingJob> = sched.pending().to_vec();
    queue.sort_by(|a, b| {
        sched
            .priority_of(b, now)
            .total_cmp(&sched.priority_of(a, now))
            .then(a.submit.cmp(&b.submit))
            .then(a.id.cmp(&b.id))
    });
    let mut profile = sched.availability_profile(cluster, now);
    let mut plan = Vec::with_capacity(queue.len());
    for job in &queue {
        let demand = Demand::resolve(&job.request, cluster).expect("queued jobs resolve");
        let slot = profile.find_slot(&demand, job.walltime, now);
        if slot != SimTime::MAX {
            profile.reserve(&demand, slot, job.walltime);
        }
        plan.push((job.id.raw(), slot));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Liveness: every submitted job eventually starts and completes,
    /// under every policy.
    #[test]
    fn every_job_completes(
        specs in prop::collection::vec((1u32..=NODES, 0u32..=2, 60u64..7_200, 0u64..3_600), 1..25),
    ) {
        for policy in all_policies() {
            let jobs: Vec<PendingJob> = specs
                .iter()
                .enumerate()
                .map(|(i, (n, q, w, s))| job(i as u64, *n, *q, *w, *s))
                .collect();
            let (order, completed) = drain(policy, jobs);
            prop_assert_eq!(order.len(), specs.len(), "{} lost starts", policy);
            prop_assert_eq!(completed, specs.len(), "{} lost completions", policy);
        }
    }

    /// Safety: a scheduling cycle never starts jobs exceeding capacity
    /// (enforced by the cluster, but the scheduler must never observe an
    /// allocation failure for jobs it green-lit) — under every policy.
    #[test]
    fn never_overallocates(
        specs in prop::collection::vec((1u32..=NODES, 0u32..=2, 60u64..7_200), 1..40),
    ) {
        for policy in all_policies() {
            let mut cl = cluster();
            let mut sched = BatchScheduler::new(policy);
            for (i, (n, q, w)) in specs.iter().enumerate() {
                sched.submit(job(i as u64, *n, *q, *w, 0), &cl).unwrap();
            }
            let started = sched.try_schedule(&mut cl, SimTime::ZERO);
            let total_nodes: u32 = started
                .iter()
                .map(|st| cl.allocation(st.alloc).unwrap().node_count() as u32)
                .sum();
            prop_assert!(total_nodes <= NODES, "{policy} overallocated");
            cl.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    /// Determinism: identical submissions produce identical start orders,
    /// under every policy.
    #[test]
    fn start_order_deterministic(
        specs in prop::collection::vec((1u32..=16, 60u64..3_600, 0u64..600), 1..20),
        policy_idx in 0usize..5,
    ) {
        let policy = all_policies()[policy_idx];
        let mk = || specs
            .iter()
            .enumerate()
            .map(|(i, (n, w, s))| job(i as u64, *n, 0, *w, *s))
            .collect::<Vec<_>>();
        let (a, _) = drain(policy, mk());
        let (b, _) = drain(policy, mk());
        prop_assert_eq!(a, b);
    }

    /// Backfilling strictly dominates FCFS on start count in a single
    /// cycle (it can only start more, never fewer).
    #[test]
    fn backfill_starts_at_least_fcfs(
        specs in prop::collection::vec((1u32..=NODES, 60u64..7_200), 2..30),
    ) {
        let run = |policy: PolicySpec| {
            let mut cl = cluster();
            let mut sched = BatchScheduler::new(policy);
            for (i, (n, w)) in specs.iter().enumerate() {
                sched.submit(job(i as u64, *n, 0, *w, 0), &cl).unwrap();
            }
            sched.try_schedule(&mut cl, SimTime::ZERO).len()
        };
        let fcfs = run(PolicySpec::fcfs());
        let easy = run(PolicySpec::easy());
        prop_assert!(easy >= fcfs, "EASY started {easy} < FCFS {fcfs}");
    }

    /// EASY's contract: whatever backfills a cycle admits, the head's
    /// shadow (its earliest feasible start against the running set) never
    /// moves later within that cycle.
    #[test]
    fn easy_never_delays_the_heads_shadow(
        fillers in prop::collection::vec((1u32..=12, 300u64..3_600), 1..6),
        head_walltime in 600u64..7_200,
        candidates in prop::collection::vec((1u32..=NODES, 60u64..7_200), 1..20),
    ) {
        let mut cl = cluster();
        let mut sched = BatchScheduler::new(PolicySpec::easy());
        // Fillers occupy the machine from t=0.
        for (i, (n, w)) in fillers.iter().enumerate() {
            sched.submit(job(i as u64, *n, 0, *w, 0), &cl).unwrap();
        }
        sched.try_schedule(&mut cl, SimTime::ZERO);
        // The head wants more than what is left → it must wait. A huge
        // QoS boost pins it to the front whatever arrives later.
        let free = cl.free_nodes("classical").unwrap();
        let mut head = job(1_000, (free + 1).min(NODES), 0, head_walltime, 1);
        head.qos_boost = 1e9;
        let head_copy = head.clone();
        sched.submit(head, &cl).unwrap();
        for (i, (n, w)) in candidates.iter().enumerate() {
            sched.submit(job(2_000 + i as u64, *n, 0, *w, 2), &cl).unwrap();
        }

        let now = SimTime::from_secs(10);
        let shadow_before = shadow_of(&sched, &cl, &head_copy, now);
        let cycle = sched.try_schedule(&mut cl, now);
        if cycle.iter().any(|st| st.job == head_copy.id) {
            return Ok(()); // head started: nothing left to protect
        }
        let shadow_after = shadow_of(&sched, &cl, &head_copy, now);
        prop_assert!(
            shadow_after <= shadow_before,
            "backfills delayed the head's shadow: {shadow_before} -> {shadow_after}"
        );
    }

    /// Conservative's contract: a cycle's starts (plus any lower-priority
    /// arrivals) never delay the planned start of any job left in the
    /// queue.
    #[test]
    fn conservative_never_delays_any_reservation(
        initial in prop::collection::vec((1u32..=NODES, 300u64..7_200), 2..15),
        arrivals in prop::collection::vec((1u32..=NODES, 300u64..7_200), 0..10),
    ) {
        let mut cl = cluster();
        let mut sched = BatchScheduler::new(PolicySpec::conservative());
        for (i, (n, w)) in initial.iter().enumerate() {
            sched.submit(job(i as u64, *n, 0, *w, 0), &cl).unwrap();
        }
        let now = SimTime::from_secs(5);
        let before: std::collections::HashMap<u64, SimTime> =
            conservative_plan(&sched, &cl, now).into_iter().collect();
        // New arrivals rank strictly last (negative boost), as
        // conservative's no-delay guarantee requires.
        for (i, (n, w)) in arrivals.iter().enumerate() {
            let mut late = job(5_000 + i as u64, *n, 0, *w, 5);
            late.qos_boost = -1e9;
            sched.submit(late, &cl).unwrap();
        }
        sched.try_schedule(&mut cl, now);
        for (id, slot) in conservative_plan(&sched, &cl, now) {
            if let Some(planned) = before.get(&id) {
                prop_assert!(
                    slot <= *planned,
                    "job {id}'s reservation slipped {planned} -> {slot}"
                );
            }
        }
    }

    /// `PriorityBackfill` aging: a large, never-boosted job submitted into
    /// a continuous stream of maximally-boosted small jobs still starts —
    /// escalation carries it to the front, the head reservation does the
    /// rest. Starvation is impossible by construction.
    #[test]
    fn priority_backfill_never_starves(
        period in 60u64..600,
        small_nodes in 1u32..=16,
        small_wall in 300u64..1_800,
    ) {
        let start = run_adversarial_stream(
            PolicySpec::priority_backfill(1.0),
            period,
            small_nodes,
            small_wall,
            // Bound: escalation (1 h) + the longest running job + one
            // arrival period + cycle slack.
            3_600 + small_wall + period + 120,
        );
        prop_assert!(
            start.is_some(),
            "32-node job starved past the aging bound (period {period}s, \
             {small_nodes}-node/{small_wall}s stream)"
        );
    }
}

/// Feeds a continuous stream of max-QoS small jobs into the scheduler
/// with one unboosted 32-node job queued at t=0. Jobs run exactly their
/// walltime. Returns the big job's start time if it started within
/// `horizon_secs`.
fn run_adversarial_stream(
    policy: PolicySpec,
    period: u64,
    small_nodes: u32,
    small_wall: u64,
    horizon_secs: u64,
) -> Option<SimTime> {
    let mut cl = cluster();
    let mut sched = BatchScheduler::new(policy);
    let big = JobId::new(0);
    sched.submit(job(0, NODES, 0, 1_800, 0), &cl).unwrap();

    let mut next_id = 1u64;
    let mut next_arrival = 0u64;
    let mut running: Vec<(SimTime, AllocationId)> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut walltimes: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    walltimes.insert(0, 1_800);

    while now.as_secs_f64() as u64 <= horizon_secs {
        // Submit every arrival due by `now`.
        while next_arrival <= now.as_secs_f64() as u64 {
            let mut small = job(next_id, small_nodes, 0, small_wall, next_arrival);
            small.qos_boost = 1e6;
            walltimes.insert(next_id, small_wall);
            sched.submit(small, &cl).unwrap();
            next_id += 1;
            next_arrival += period;
        }
        for st in sched.try_schedule(&mut cl, now) {
            if st.job == big {
                return Some(now);
            }
            let wall = walltimes[&st.job.raw()];
            running.push((now + SimDuration::from_secs(wall), st.alloc));
        }
        // Advance to the next event: an arrival or a completion.
        running.sort_by_key(|(t, _)| *t);
        let next_completion = running.first().map(|(t, _)| *t);
        let next_event = match next_completion {
            Some(t) if t <= SimTime::from_secs(next_arrival) => t,
            _ => SimTime::from_secs(next_arrival),
        };
        now = next_event.max(now + SimDuration::from_secs(1));
        while let Some((t, alloc)) = running.first().copied() {
            if t > now {
                break;
            }
            cl.release(alloc, now).unwrap();
            sched.finished(alloc, now);
            running.remove(0);
        }
    }
    None
}

/// The contrast making `priority_backfill_never_starves` meaningful:
/// under plain EASY the very same adversarial stream starves the 32-node
/// job indefinitely (boosted newcomers always outrank it; it never
/// becomes the protected head), while `PriorityBackfill` starts it right
/// after its aging threshold.
#[test]
fn easy_starves_where_priority_backfill_does_not() {
    let horizon = 40_000; // ~11 hours of simulated stream
    let easy = run_adversarial_stream(PolicySpec::easy(), 100, 8, 1_000, horizon);
    assert_eq!(
        easy, None,
        "EASY unexpectedly started the big job — the stream is not adversarial enough"
    );
    let aged = run_adversarial_stream(PolicySpec::priority_backfill(1.0), 100, 8, 1_000, horizon);
    let started = aged.expect("PriorityBackfill must start the big job");
    assert!(
        started >= SimTime::from_secs(3_600),
        "cannot start before the aging threshold in a saturated machine: {started}"
    );
    assert!(
        started <= SimTime::from_secs(3_600 + 1_000 + 200),
        "escalation + head reservation bound the start: {started}"
    );
}
