//! Differential oracle for the cycles that re-plan little or nothing:
//! the library's [`BatchScheduler`], which answers a same-instant
//! follow-up to a starting cycle and a clock-only re-run of a
//! non-starting one without sorting, profiling or admitting, and a
//! cycle after submits onto a held queue by admitting only the new
//! jobs, against the reference scheduler in `reference/`, which runs
//! every cycle in full. Both drive their own copy of the same machine
//! (six partitions, four gres pools, as in `oracle_cycle.rs`) under all
//! five policies.
//!
//! The steps lean on the fast kinds' preconditions:
//!
//! * most steps call the cycle more than once at the same instant, after
//!   a submit, a withdrawn submission, a node failure or repair, an early
//!   job end, or nothing at all;
//! * clock advances land just before, on or just after the earliest
//!   expected end of a running job, and jobs often overrun their
//!   walltime, so an expected end passes with the job still running;
//! * with `fairshare`, usage weighs heavily and decays with a 15-minute
//!   half-life, and priority backfill escalates after half an hour, so
//!   the queue order drifts with time alone;
//! * a second, submit-weighted action mix trickles jobs in one at a
//!   time, each after a clock advance of up to two minutes and followed
//!   by a cycle, as a simulation loop does, so that queues grow deep and
//!   held and new jobs land both ahead of and behind the head (the QoS
//!   boost is worth up to an hour of age).
//!
//! After every cycle the two must agree on the starts, the allocation
//! ids, `last_holds` and the queue order, and the library's
//! `hold_changes` must be what a ledger of reported reasons, kept here
//! from the reference's holds, predicts. After every cycle and every
//! action, the library's `is_settled` must be what a second ledger
//! predicts: the last cycle started nothing, nothing was queued or
//! withdrawn since, the live free vector is that cycle's, and no queued
//! demand fits it. A withdrawn submission reaches only the library,
//! since the reference has no cancel: the library queues it and cancels
//! it before the next cycle.

mod reference;

use hpcqc_cluster::alloc::{AllocRequest, GroupRequest};
use hpcqc_cluster::cluster::{Cluster, ClusterBuilder};
use hpcqc_cluster::gres::GresKind;
use hpcqc_cluster::ids::{AllocationId, NodeId};
use hpcqc_sched::probe::{CyclePhase, CycleProbe};
use hpcqc_sched::scheduler::{BatchScheduler, PendingJob};
use hpcqc_sched::{Discipline, HoldReason, PolicySpec, PriorityWeights};
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::job::JobId;
use proptest::prelude::*;
use reference::RefScheduler;
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
/// with a 15-minute half-life, so the queue order drifts between cycles.
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

/// The request of `groups`, plus one QPU on `quantum` (`qpu` 2) or on
/// `atoms` (`qpu` 3).
fn request(groups: &[GroupSpec], qpu: u8) -> AllocRequest {
    let mut request = AllocRequest::new();
    match qpu {
        2 => request = request.group(GroupRequest::gres("quantum", GresKind::qpu(), 1)),
        3 => request = request.group(GroupRequest::gres("atoms", GresKind::qpu(), 1)),
        _ => {}
    }
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

/// `(groups, QPU ask, walltime s, run fraction of walltime in %, qos,
/// user)`. Half the jobs ask for a QPU (see [`request`]), so the three
/// QPUs fill and quantum-aware's boost comes and goes; a third of the
/// jobs overrun their walltime.
type JobSpec = (Vec<GroupSpec>, u8, u64, u64, u8, u8);

fn job_spec() -> impl Strategy<Value = JobSpec> {
    (
        prop::collection::vec(group_spec(), 1..3),
        0u8..4,
        60u64..3_600,
        40u64..=160,
        0u8..3,
        0u8..8,
    )
}

/// What happens before a step's cycles.
#[derive(Debug, Clone)]
enum Action {
    /// Nothing: the cycles repeat the instant.
    Nothing,
    /// These jobs are submitted.
    Submit(Vec<JobSpec>),
    /// This job is submitted to the library and cancelled at once.
    Withdraw(JobSpec),
    /// Node `n` fails (`false`) or is repaired (`true`).
    Fault(bool, u32),
    /// A running job, picked by this number, ends now, ahead of its run.
    Release(usize),
    /// The clock advances by these seconds.
    Advance(u64),
    /// The clock advances to the earliest expected end of a running job
    /// after `now`, shifted by this many seconds (−1, 0 or +1).
    ToExpectedEnd(i64),
    /// Each job is submitted after the clock advances by its seconds
    /// (possibly none), and a cycle follows it.
    Trickle(Vec<(u64, JobSpec)>),
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Nothing),
        prop::collection::vec(job_spec(), 1..4).prop_map(Action::Submit),
        prop::collection::vec(job_spec(), 1..4).prop_map(Action::Submit),
        job_spec().prop_map(Action::Withdraw),
        (any::<bool>(), 0u32..42).prop_map(|(repair, node)| Action::Fault(repair, node)),
        (0usize..8).prop_map(Action::Release),
        (1u64..900).prop_map(Action::Advance),
        (1u64..900).prop_map(Action::Advance),
        (-1i64..=1).prop_map(Action::ToExpectedEnd),
        (-1i64..=1).prop_map(Action::ToExpectedEnd),
    ]
}

/// The submit-weighted mix: mostly submits, one at a time or a few at
/// once, with releases rare enough that the queue grows deep.
fn submit_weighted_action() -> impl Strategy<Value = Action> {
    let trickle = || prop::collection::vec((0u64..120, job_spec()), 1..6).prop_map(Action::Trickle);
    let submit = || prop::collection::vec(job_spec(), 1..4).prop_map(Action::Submit);
    prop_oneof![
        trickle(),
        trickle(),
        trickle(),
        submit(),
        submit(),
        (1u64..900).prop_map(Action::Advance),
        (-1i64..=1).prop_map(Action::ToExpectedEnd),
        (0usize..8).prop_map(Action::Release),
        Just(Action::Nothing),
    ]
}

/// One step: an action, then this many cycles at the instant it leaves.
type Step = (Action, u8);

fn step() -> impl Strategy<Value = Step> {
    (action(), 1u8..4)
}

fn submit_weighted_step() -> impl Strategy<Value = Step> {
    (submit_weighted_action(), 1u8..3)
}

/// Counts cycles and the phases in them.
#[derive(Debug, Default)]
struct Counter {
    cycles: u64,
    orders: u64,
    admits: u64,
    depth: u64,
}

impl CycleProbe for Counter {
    fn cycle_start(&mut self, _now: SimTime, queue_depth: usize) {
        self.cycles += 1;
        self.depth += queue_depth as u64;
    }

    fn phase_start(&mut self, phase: CyclePhase) {
        match phase {
            CyclePhase::Order => self.orders += 1,
            CyclePhase::Admit => self.admits += 1,
            CyclePhase::Allocate => {}
        }
    }
}

/// How many cycles took each fast kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct FastPaths {
    follow_ups: u64,
    re_runs: u64,
    submit_onlys: u64,
}

/// The library and the reference, each with its machine, and what both
/// agree on.
struct Replay {
    lib_cluster: Cluster,
    ref_cluster: Cluster,
    lib: BatchScheduler,
    reference: RefScheduler,
    /// Each running job: `(actual end, expected end, allocation)`.
    running: Vec<(SimTime, SimTime, AllocationId)>,
    /// The walltime and run fraction of every job submitted.
    runs: BTreeMap<JobId, (u64, u64)>,
    /// The reason last reported per queued job, as the library must
    /// keep it: set by a non-starting cycle's changes, forgotten at a
    /// start.
    reported: BTreeMap<JobId, HoldReason>,
    now: SimTime,
    next_id: u64,
    probe: Counter,
    fast: FastPaths,
    /// Whether the last cycle started a job, and its instant.
    last_started: Option<SimTime>,
    /// Whether a job was queued since the last cycle.
    submitted: bool,
    /// The free vector the last cycle left, if it ran on a non-empty
    /// queue and started nothing, and no job was queued or withdrawn
    /// since.
    settled_free: Option<reference::Demand>,
}

impl Replay {
    fn new(policy: PolicySpec) -> Self {
        Replay {
            lib_cluster: machine(),
            ref_cluster: machine(),
            lib: BatchScheduler::new(policy),
            reference: RefScheduler::new(policy),
            running: Vec::new(),
            runs: BTreeMap::new(),
            reported: BTreeMap::new(),
            now: SimTime::ZERO,
            next_id: 0,
            probe: Counter::default(),
            fast: FastPaths::default(),
            last_started: None,
            submitted: false,
            settled_free: None,
        }
    }

    fn job(&mut self, (groups, qpu, walltime, pct, qos, user): &JobSpec) -> PendingJob {
        let id = JobId::new(self.next_id);
        self.next_id += 1;
        self.runs.insert(id, (*walltime, *pct));
        PendingJob {
            id,
            request: request(groups, *qpu),
            walltime: SimDuration::from_secs(*walltime),
            submit: self.now,
            user: format!("u{user}"),
            qos_boost: f64::from(*qos) * 5.0,
        }
    }

    /// Ends the running job at `index` at `end` on both sides.
    fn end(&mut self, index: usize, end: SimTime) {
        let (_, _, alloc) = self.running.remove(index);
        self.lib_cluster
            .release(alloc, end)
            .expect("live allocation");
        self.ref_cluster
            .release(alloc, end)
            .expect("live allocation");
        assert_eq!(
            self.lib.finished(alloc, end),
            self.reference.finished(alloc, end)
        );
    }

    /// Moves the clock to `to`, ending the jobs due by then in end order.
    fn advance(&mut self, to: SimTime) {
        self.now = self.now.max(to);
        self.running.sort();
        while let Some(&(end, _, _)) = self.running.first() {
            if end > self.now {
                break;
            }
            self.end(0, end);
        }
    }

    fn act(&mut self, action: &Action) {
        match action {
            Action::Nothing => {}
            Action::Submit(jobs) => {
                for spec in jobs {
                    self.submit(spec);
                }
            }
            Action::Trickle(jobs) => {
                for (secs, spec) in jobs {
                    self.advance(self.now + SimDuration::from_secs(*secs));
                    self.submit(spec);
                    self.cycle();
                }
            }
            Action::Withdraw(spec) => {
                let job = self.job(spec);
                if self.lib.submit(job.clone(), &self.lib_cluster).is_ok() {
                    assert!(self.lib.cancel(job.id));
                    self.settled_free = None;
                }
            }
            Action::Fault(repair, node) => {
                let node = NodeId::new(*node);
                if *repair {
                    assert_eq!(
                        self.lib_cluster.restore_node(node),
                        self.ref_cluster.restore_node(node)
                    );
                } else {
                    assert_eq!(
                        self.lib_cluster.fail_node(node),
                        self.ref_cluster.fail_node(node)
                    );
                }
            }
            Action::Release(pick) => {
                if !self.running.is_empty() {
                    let index = pick % self.running.len();
                    self.end(index, self.now);
                }
            }
            Action::Advance(secs) => self.advance(self.now + SimDuration::from_secs(*secs)),
            Action::ToExpectedEnd(shift) => {
                let next = self
                    .running
                    .iter()
                    .map(|r| r.1)
                    .filter(|&t| t > self.now)
                    .min();
                if let Some(next) = next {
                    let secs = SimDuration::from_secs(1);
                    let to = match shift {
                        -1 => next - secs,
                        0 => next,
                        _ => next + secs,
                    };
                    self.advance(to);
                }
            }
        }
    }

    /// Submits a job on both sides, which must agree whether it queues.
    fn submit(&mut self, spec: &JobSpec) {
        let job = self.job(spec);
        let queued = self.lib.submit(job.clone(), &self.lib_cluster).is_ok();
        assert_eq!(queued, self.reference.submit(job, &self.ref_cluster));
        self.submitted |= queued;
        if queued {
            self.settled_free = None;
        }
    }

    /// Asserts that the library may skip the next cycle exactly when the
    /// settled ledger says so.
    fn check_settled(&self) {
        let free = reference::free_of(&self.lib_cluster);
        let expected = self.settled_free.as_ref() == Some(&free)
            && self
                .lib
                .pending()
                .iter()
                .all(|job| !free.covers(&reference::demand_of_request(&job.request)));
        assert_eq!(
            self.lib.is_settled(&self.lib_cluster),
            expected,
            "is_settled at {}",
            self.now
        );
    }

    /// One cycle on both sides, asserting that they agree.
    fn cycle(&mut self) {
        let (orders, cycles) = (self.probe.orders, self.probe.cycles);
        let started =
            self.lib
                .try_schedule_probed(&mut self.lib_cluster, self.now, &mut self.probe);
        let at = self.now;
        assert_eq!(
            started,
            self.reference.try_schedule(&mut self.ref_cluster, at),
            "starts at {at}"
        );
        assert_eq!(
            self.lib.last_holds(),
            self.reference.last_holds(),
            "holds at {at}"
        );
        let ids = |q: &[PendingJob]| q.iter().map(|j| j.id).collect::<Vec<_>>();
        assert_eq!(
            ids(self.lib.pending()),
            ids(self.reference.pending()),
            "queue order at {at}"
        );
        let changes: Vec<(JobId, HoldReason)> = self
            .reference
            .last_holds()
            .iter()
            .copied()
            .filter(|(id, reason)| self.reported.get(id) != Some(reason))
            .collect();
        assert_eq!(self.lib.hold_changes(), changes, "hold changes at {at}");
        if started.is_empty() {
            self.reported.extend(changes);
        }

        // A cycle without an order phase took a fast kind.
        if self.probe.cycles > cycles && self.probe.orders == orders {
            if self.last_started == Some(at) {
                self.fast.follow_ups += 1;
            } else if self.submitted {
                self.fast.submit_onlys += 1;
            } else {
                self.fast.re_runs += 1;
            }
        }
        self.last_started = (!started.is_empty()).then_some(at);
        self.submitted = false;
        let ran = self.probe.cycles > cycles;
        self.settled_free =
            (ran && started.is_empty()).then(|| reference::free_of(&self.lib_cluster));
        for st in started {
            self.reported.remove(&st.job);
            let (walltime, pct) = self.runs[&st.job];
            let runtime = SimDuration::from_secs((walltime * pct / 100).max(1));
            let expected = at + SimDuration::from_secs(walltime);
            self.running.push((at + runtime, expected, st.alloc));
        }
        self.check_settled();
    }
}

/// Replays `steps` under `policy`, asserting after every cycle that the
/// library and the reference agree, and after every cycle and action that
/// `is_settled` is the ledger's; returns how often each fast kind ran.
fn replay(steps: &[Step], policy: PolicySpec) -> FastPaths {
    let mut r = Replay::new(policy);
    for (action, cycles) in steps {
        r.act(action);
        r.check_settled();
        for _ in 0..*cycles {
            r.cycle();
        }
    }
    assert_eq!(r.probe.admits, r.probe.depth, "one admit per queued job");
    r.fast
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fast_paths_match_the_reference(
        steps in prop::collection::vec(step(), 1..60),
        policy_idx in 0usize..5,
        fairshare in any::<bool>(),
    ) {
        replay(&steps, policies(fairshare)[policy_idx]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The same oracle at four times the cases and longer step sequences,
    /// for release builds:
    /// `cargo test --release -p hpcqc-sched --test oracle_replan -- --ignored`.
    #[test]
    #[ignore = "1,000 cases; run in release"]
    fn fast_paths_match_the_reference_at_depth(
        steps in prop::collection::vec(step(), 1..80),
        policy_idx in 0usize..5,
        fairshare in any::<bool>(),
    ) {
        replay(&steps, policies(fairshare)[policy_idx]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn submit_only_cycles_match_the_reference(
        steps in prop::collection::vec(submit_weighted_step(), 1..60),
        policy_idx in 0usize..5,
        fairshare in any::<bool>(),
    ) {
        replay(&steps, policies(fairshare)[policy_idx]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The submit-weighted oracle at four times the cases and longer
    /// step sequences, for release builds (see
    /// `fast_paths_match_the_reference_at_depth`).
    #[test]
    #[ignore = "1,000 cases; run in release"]
    fn submit_only_cycles_match_the_reference_at_depth(
        steps in prop::collection::vec(submit_weighted_step(), 1..80),
        policy_idx in 0usize..5,
        fairshare in any::<bool>(),
    ) {
        replay(&steps, policies(fairshare)[policy_idx]);
    }
}

/// The oracle must exercise every fast kind a policy supports, not only
/// full cycles: a machine-wide job starts and two more queue behind it;
/// the cycle repeats at that instant (a follow-up), then a minute later
/// (a re-run); then a fourth such job queues behind them (submit-only,
/// which conservative backfill plans in full).
#[test]
fn every_policy_takes_every_kind_it_supports() {
    let whole_cpu: JobSpec = (vec![(0, 100, vec![])], 0, 3_600, 100, 0, 0);
    let steps = [
        (Action::Submit(vec![whole_cpu.clone(); 3]), 2),
        (Action::Advance(60), 1),
        (Action::Submit(vec![whole_cpu.clone()]), 1),
    ];
    for fairshare in [false, true] {
        for policy in policies(fairshare) {
            let conservative = policy.discipline == Discipline::ConservativeBackfill;
            assert_eq!(
                replay(&steps, policy),
                FastPaths {
                    follow_ups: 1,
                    re_runs: 1,
                    submit_onlys: u64::from(!conservative),
                },
                "{policy}"
            );
        }
    }
}
