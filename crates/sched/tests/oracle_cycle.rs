//! Differential oracle for the scheduling cycle: the library's
//! [`BatchScheduler`] (dense slot demands resolved once at submit, hold
//! diagnosis from the live free vector) against the reference scheduler
//! in `reference/` (map demands rebuilt every cycle, diagnosis through
//! `Cluster::can_allocate`), on random multi-cycle queues under all five
//! policies. Both drive their own copy of the same machine — six
//! partitions, four gres pools — through the same submissions, node
//! failures and repairs, and completions; every cycle must agree on the
//! start order, the allocation ids, `last_holds` and the queue order.

mod reference;

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::{AllocationId, NodeId};
use hpcqc_sched::scheduler::{BatchScheduler, PendingJob};
use hpcqc_sched::PolicySpec;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::job::JobId;
use proptest::prelude::*;
use reference::RefScheduler;

/// A partition: `(name, nodes, gres pools as (kind, units))`.
type PartitionSpec = (&'static str, u32, &'static [(&'static str, u32)]);

/// The machine.
const PARTITIONS: [PartitionSpec; 6] = [
    ("cpu", 24, &[]),
    ("bigmem", 6, &[]),
    ("gpu", 8, &[("gpu", 16)]),
    ("quantum", 0, &[("qpu", 2)]),
    ("atoms", 2, &[("qpu", 1), ("shots", 4)]),
    ("debug", 2, &[]),
];

fn machine() -> Cluster {
    let mut b = ClusterBuilder::new();
    for (name, nodes, pools) in PARTITIONS {
        b = b.partition(name, nodes);
        for (kind, count) in pools {
            b = b.gres(GresKind::new(*kind), *count);
        }
    }
    b.build(SimTime::ZERO)
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

/// One group: a partition index, then its share of the partition's nodes
/// and of each of its gres pools, in percent (extra shares are ignored).
type GroupSpec = (usize, u32, Vec<u32>);

fn group_spec() -> impl Strategy<Value = GroupSpec> {
    (
        0..PARTITIONS.len(),
        0u32..=100,
        prop::collection::vec(0u32..=100, 0..3),
    )
}

fn request(groups: &[GroupSpec]) -> AllocRequest {
    let mut request = AllocRequest::new();
    for (part, node_pct, gres_pcts) in groups {
        let (name, nodes, pools) = PARTITIONS[*part];
        let mut group = GroupRequest::nodes(name, nodes * node_pct / 100);
        for ((kind, count), pct) in pools.iter().zip(gres_pcts) {
            group = group.with_gres(GresKind::new(*kind), count * pct / 100);
        }
        request = request.group(group);
    }
    // Both schedulers must see a request that asks for something; the
    // library rejects an empty one at submit, the reference would not.
    if request.is_empty() {
        request = request.group(GroupRequest::nodes("cpu", 1));
    }
    request
}

/// `(groups, walltime s, run fraction of walltime in %, qos, user)`.
type JobSpec = (Vec<GroupSpec>, u64, u64, u8, u8);

fn job_spec() -> impl Strategy<Value = JobSpec> {
    (
        prop::collection::vec(group_spec(), 1..4),
        60u64..7_200,
        10u64..=130,
        0u8..3,
        0u8..3,
    )
}

/// One step: jobs submitted, then a node failed (0), repaired (1) or
/// left alone (2), then a cycle, then the clock advances by the given
/// seconds.
type StepSpec = (Vec<JobSpec>, (u8, u32), u64);

fn step_spec() -> impl Strategy<Value = StepSpec> {
    (
        prop::collection::vec(job_spec(), 0..8),
        (0u8..3, 0u32..42),
        1u64..1_200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cycle_matches_the_reference(
        steps in prop::collection::vec(step_spec(), 1..24),
        policy_idx in 0usize..5,
    ) {
        let policy = policies()[policy_idx];
        let mut lib_cluster = machine();
        let mut ref_cluster = machine();
        let mut lib = BatchScheduler::new(policy);
        let mut reference = RefScheduler::new(policy);
        let mut running: Vec<(SimTime, AllocationId)> = Vec::new();
        let mut run_pct = std::collections::BTreeMap::new();
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;

        for (jobs, fault, advance) in &steps {
            for (groups, walltime, pct, qos, user) in jobs {
                let job = PendingJob {
                    id: JobId::new(next_id),
                    request: request(groups),
                    walltime: SimDuration::from_secs(*walltime),
                    submit: now,
                    user: format!("u{user}"),
                    qos_boost: f64::from(*qos) * 5.0,
                };
                run_pct.insert(next_id, (*walltime, *pct));
                next_id += 1;
                let queued = lib.submit(job.clone(), &lib_cluster).is_ok();
                prop_assert_eq!(queued, reference.submit(job, &ref_cluster), "submit verdicts");
            }
            let node = NodeId::new(fault.1);
            match fault.0 {
                0 => prop_assert_eq!(lib_cluster.fail_node(node), ref_cluster.fail_node(node)),
                1 => prop_assert_eq!(lib_cluster.restore_node(node), ref_cluster.restore_node(node)),
                _ => {}
            }

            let started = lib.try_schedule(&mut lib_cluster, now);
            prop_assert_eq!(&started, &reference.try_schedule(&mut ref_cluster, now));
            prop_assert_eq!(lib.last_holds(), reference.last_holds());
            let ids = |q: &[PendingJob]| q.iter().map(|j| j.id).collect::<Vec<_>>();
            prop_assert_eq!(ids(lib.pending()), ids(reference.pending()));

            for st in started {
                let (walltime, pct) = run_pct[&st.job.raw()];
                let runtime = SimDuration::from_secs((walltime * pct / 100).max(1));
                running.push((now + runtime, st.alloc));
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
