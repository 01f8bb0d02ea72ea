//! Differential oracle for job ids in any order: the library's
//! [`BatchScheduler`], whose queued-job table is indexed by
//! `id − oldest queued id`, against the reference scheduler in
//! `reference/`, which keeps no per-id table at all. The ids are the
//! only thing this oracle varies beyond `oracle_cycle.rs`:
//!
//! * *counter*: `0, 1, 2, …`, as a simulation issues them;
//! * *strided*: increasing, with gaps of up to 5,000 ids between jobs;
//! * *shuffled*: random ids below 1,000,000, in no order at all.
//!
//! In every mode some submissions are cancelled before any cycle sees
//! them (the reference, which has no cancel, never receives those) and
//! resubmitted steps later, once the oldest queued id has usually moved
//! past them: the table then grows at its front. Every cycle must agree
//! on the start order, the allocation ids, `last_holds` and the queue
//! order, under all five policies.

mod reference;

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::AllocationId;
use hpcqc_sched::scheduler::{BatchScheduler, PendingJob};
use hpcqc_sched::PolicySpec;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::job::JobId;
use proptest::prelude::*;
use reference::RefScheduler;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Three partitions, one with a QPU pool.
fn machine() -> Cluster {
    ClusterBuilder::new()
        .partition("cpu", 16)
        .partition("bigmem", 4)
        .partition_with_gres("quantum", 1, GresKind::qpu(), 2)
        .build(SimTime::ZERO)
}

fn policies() -> [PolicySpec; 5] {
    [
        PolicySpec::fcfs(),
        PolicySpec::easy(),
        PolicySpec::conservative(),
        PolicySpec::priority_backfill(0.5),
        PolicySpec::quantum_aware(1_000.0),
    ]
}

/// `((cpu nodes, bigmem nodes, qpus), (walltime s, run % of walltime),
/// (qos, user), id draw, cancel roll)`. The id draw is the gap before a
/// strided id or the id itself in shuffled mode; a cancel roll of 0 (one
/// job in four) withdraws the job right after its submit.
type JobSpec = ((u32, u32, u32), (u64, u64), (u8, u8), u64, u8);

fn job_spec() -> impl Strategy<Value = JobSpec> {
    (
        (0u32..=16, 0u32..=4, 0u32..=2),
        (60u64..7_200, 10u64..=130),
        (0u8..3, 0u8..3),
        0u64..1_000_000,
        0u8..4,
    )
}

fn request(cpu: u32, bigmem: u32, qpus: u32) -> AllocRequest {
    let mut request = AllocRequest::new();
    if cpu > 0 {
        request = request.group(GroupRequest::nodes("cpu", cpu));
    }
    if bigmem > 0 {
        request = request.group(GroupRequest::nodes("bigmem", bigmem));
    }
    if qpus > 0 {
        request = request.group(GroupRequest::gres("quantum", GresKind::qpu(), qpus));
    }
    // The library rejects an empty request at submit, the reference
    // would not.
    if request.is_empty() {
        request = request.group(GroupRequest::nodes("cpu", 1));
    }
    request
}

/// One step: jobs submitted, then up to this many cancelled jobs
/// resubmitted (oldest cancel first), then a cycle, then the clock
/// advances by the given seconds.
type StepSpec = (Vec<JobSpec>, usize, u64);

fn step_spec() -> impl Strategy<Value = StepSpec> {
    (
        prop::collection::vec(job_spec(), 0..8),
        0usize..3,
        1u64..1_200,
    )
}

/// Issues job ids in one of the three modes.
struct Ids {
    mode: u8,
    next: u64,
    used: BTreeSet<u64>,
}

impl Ids {
    /// The next id for a job whose draw is `draw`, or `None` when a
    /// shuffled draw repeats an id already issued.
    fn issue(&mut self, draw: u64) -> Option<u64> {
        let id = match self.mode {
            0 => self.next,
            1 => self.next + draw % 5_000,
            _ => draw,
        };
        self.next = self.next.max(id + 1);
        self.used.insert(id).then_some(id)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cycle_matches_the_reference_for_any_id_order(
        steps in prop::collection::vec(step_spec(), 1..24),
        policy_idx in 0usize..5,
        mode in 0u8..3,
    ) {
        let policy = policies()[policy_idx];
        let mut lib_cluster = machine();
        let mut ref_cluster = machine();
        let mut lib = BatchScheduler::new(policy);
        let mut reference = RefScheduler::new(policy);
        let mut ids = Ids { mode, next: 0, used: BTreeSet::new() };
        let mut running: Vec<(SimTime, AllocationId)> = Vec::new();
        let mut runtimes = BTreeMap::new();
        let mut cancelled: VecDeque<PendingJob> = VecDeque::new();
        let mut now = SimTime::ZERO;

        for (jobs, resubmits, advance) in &steps {
            let mut submitted = Vec::new();
            for &((cpu, bigmem, qpus), (walltime, pct), (qos, user), draw, cancel) in jobs {
                let Some(id) = ids.issue(draw) else { continue };
                let job = PendingJob {
                    id: JobId::new(id),
                    request: request(cpu, bigmem, qpus),
                    walltime: SimDuration::from_secs(walltime),
                    submit: now,
                    user: format!("u{user}"),
                    qos_boost: f64::from(qos) * 5.0,
                };
                runtimes.insert(job.id, SimDuration::from_secs((walltime * pct / 100).max(1)));
                if cancel > 0 {
                    submitted.push(job);
                } else if lib.submit(job.clone(), &lib_cluster).is_ok() {
                    prop_assert!(lib.cancel(job.id));
                    cancelled.push_back(job);
                }
            }
            for _ in 0..*resubmits {
                let Some(job) = cancelled.pop_front() else { break };
                submitted.push(PendingJob { submit: now, ..job });
            }
            for job in submitted {
                let queued = lib.submit(job.clone(), &lib_cluster).is_ok();
                prop_assert_eq!(queued, reference.submit(job, &ref_cluster), "submit verdicts");
            }

            let started = lib.try_schedule(&mut lib_cluster, now);
            prop_assert_eq!(&started, &reference.try_schedule(&mut ref_cluster, now));
            prop_assert_eq!(lib.last_holds(), reference.last_holds());
            let order = |q: &[PendingJob]| q.iter().map(|j| j.id).collect::<Vec<_>>();
            prop_assert_eq!(order(lib.pending()), order(reference.pending()));

            for st in started {
                running.push((now + runtimes[&st.job], st.alloc));
            }
            now += SimDuration::from_secs(*advance);
            running.sort();
            while let Some((end, alloc)) = running.first().copied() {
                if end > now {
                    break;
                }
                running.remove(0);
                lib_cluster.release(alloc, end).expect("live allocation");
                ref_cluster.release(alloc, end).expect("live allocation");
                prop_assert_eq!(lib.finished(alloc, end), reference.finished(alloc, end));
            }
        }
    }
}
