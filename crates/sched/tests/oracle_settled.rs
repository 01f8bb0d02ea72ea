//! Differential oracle for skipping settled cycles: scheduler A runs a
//! full cycle after every step; scheduler B runs one only while
//! [`BatchScheduler::is_settled`] is false, as the simulation loop does.
//! Both drive their own copy of the same machine (the one
//! `oracle_cycle.rs` uses: six partitions, four gres pools) through the
//! same submissions, cancels, node failures and repairs, completions and
//! pure clock advances, under all five policies. After every step they must
//! agree on the starts, the allocation ids and the per-job hold reasons
//! (the map the simulation diffs to emit `JobHeld`).
//!
//! The queue is built to reorder with time alone: many users with
//! recorded fairshare usage that decays between steps, and ages that
//! cross priority backfill's escalation threshold.

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::{AllocationId, NodeId};
use hpcqc_sched::scheduler::{BatchScheduler, PendingJob, StartedJob};
use hpcqc_sched::{HoldReason, PolicySpec, PriorityWeights};
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::job::JobId;
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// The five built-ins. With `fairshare`, usage weighs heavily and decays
/// with a 15-minute half-life, so the queue order drifts between steps.
fn policies(fairshare: bool) -> [PolicySpec; 5] {
    [
        PolicySpec::fcfs(),
        PolicySpec::easy(),
        PolicySpec::conservative(),
        PolicySpec::priority_backfill(0.5),
        PolicySpec::quantum_aware(1_000.0),
    ]
    .map(|spec| {
        if fairshare {
            spec.with_weights(PriorityWeights {
                fairshare_per_node_hour: 200.0,
                ..PriorityWeights::DEFAULT
            })
            .with_fairshare_half_life_secs(900.0)
        } else {
            spec
        }
    })
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
        0u8..8,
    )
}

/// One step: jobs submitted, then a node failed (0), repaired (1) or
/// left alone (2), or a job cancelled (3), then the clock advances by the
/// given seconds (ending the jobs due by then). A step without jobs or
/// fault that ends no job is a pure clock advance.
type StepSpec = (Vec<JobSpec>, (u8, u32), u64);

fn busy_step() -> impl Strategy<Value = StepSpec> {
    (
        prop::collection::vec(job_spec(), 0..6),
        (0u8..4, 0u32..42),
        1u64..1_200,
    )
}

/// Half the steps are quiet: no job, no fault.
fn step_spec() -> impl Strategy<Value = StepSpec> {
    let quiet = || (Just(Vec::new()), Just((2u8, 0u32)), 1u64..600);
    prop_oneof![quiet(), quiet(), busy_step(), busy_step()]
}

/// The per-job hold reasons of the last full cycle.
fn holds(s: &BatchScheduler) -> BTreeMap<JobId, HoldReason> {
    s.last_holds().iter().copied().collect()
}

/// A scheduler and its machine.
struct Side {
    cluster: Cluster,
    sched: BatchScheduler,
}

impl Side {
    fn new(policy: PolicySpec) -> Self {
        Side {
            cluster: machine(),
            sched: BatchScheduler::new(policy),
        }
    }

    fn cycle(&mut self, now: SimTime) -> Vec<StartedJob> {
        self.sched.try_schedule(&mut self.cluster, now)
    }
}

/// Replays `steps` on both sides under `policy`, asserting after every
/// step that they agree. Returns how many cycles the skipping side
/// skipped.
fn replay(steps: &[StepSpec], policy: PolicySpec) -> usize {
    let mut always = Side::new(policy);
    let mut skipping = Side::new(policy);
    let mut running: Vec<(SimTime, AllocationId)> = Vec::new();
    let mut run_pct = BTreeMap::new();
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut skipped = 0;

    for (jobs, fault, advance) in steps {
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
            let queued = always.sched.submit(job.clone(), &always.cluster).is_ok();
            assert_eq!(
                queued,
                skipping.sched.submit(job, &skipping.cluster).is_ok()
            );
        }
        let node = NodeId::new(fault.1);
        match fault.0 {
            0 => assert_eq!(
                always.cluster.fail_node(node),
                skipping.cluster.fail_node(node)
            ),
            1 => assert_eq!(
                always.cluster.restore_node(node),
                skipping.cluster.restore_node(node)
            ),
            3 => {
                let job = JobId::new(u64::from(fault.1) % next_id.max(1));
                assert_eq!(always.sched.cancel(job), skipping.sched.cancel(job));
            }
            _ => {}
        }

        let started = always.cycle(now);
        if skipping.sched.is_settled(&skipping.cluster) {
            skipped += 1;
            assert_eq!(started, [], "a start at {now} behind a settled queue");
        } else {
            assert_eq!(started, skipping.cycle(now), "starts at {now}");
        }
        assert_eq!(
            holds(&always.sched),
            holds(&skipping.sched),
            "holds at {now}"
        );

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
            always.cluster.release(alloc, end).expect("live allocation");
            skipping
                .cluster
                .release(alloc, end)
                .expect("live allocation");
            assert_eq!(
                always.sched.finished(alloc, end),
                skipping.sched.finished(alloc, end)
            );
        }
    }
    skipped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn skipping_settled_cycles_changes_nothing(
        steps in prop::collection::vec(step_spec(), 1..32),
        policy_idx in 0usize..5,
        fairshare in prop_oneof![Just(true), Just(false)],
    ) {
        replay(&steps, policies(fairshare)[policy_idx]);
    }
}

/// The oracle must exercise the skip, not only the full-cycle path: a
/// machine-wide job blocks a second one, and quiet steps follow.
#[test]
fn every_policy_skips_behind_a_blocked_queue() {
    let whole_cpu: JobSpec = (vec![(0, 100, vec![])], 3_600, 100, 0, 0);
    let busy: StepSpec = (vec![whole_cpu.clone(), whole_cpu], (2, 0), 60);
    let quiet: StepSpec = (Vec::new(), (2, 0), 60);
    let steps = [busy, quiet.clone(), quiet.clone(), quiet];
    for fairshare in [false, true] {
        for policy in policies(fairshare) {
            assert_eq!(replay(&steps, policy), 2, "{policy}");
        }
    }
}
