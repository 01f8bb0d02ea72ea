//! Golden event-stream digests for deep queues.
//!
//! Each case runs a burst of `day_small` jobs (the committed
//! `examples/gen/day_small.json` at 960 arrivals/h) on 64 nodes and one
//! superconducting device: nearly the whole burst queues at once, so
//! every scheduling cycle plans against a long queue. The cases are the
//! five queue policies × {`vqpu:8`, workflow}. The burst is 240 jobs
//! (the queue peaks about 220 deep), except under conservative backfill,
//! whose cycle reserves for every queued job and so costs the square of
//! the depth: its burst is 80 jobs, to keep the file's debug run near
//! two seconds. Each case records two
//! FNV-1a digests: one over every [`SimEvent`]'s time and `Debug` text,
//! in emission order, and one over the serialized [`Outcome`]. The
//! digests were recorded before the scheduler's queued-job table became
//! an id window, and every later scheduler change must reproduce them:
//! the event stream is the contract, not just the summary. (When
//! [`Outcome`] lost its `gantt` field, every outcome digest here was
//! re-derived from the same run's JSON with the `"gantt":null,` token
//! removed, and nothing else; no event digest moved.)
//!
//! A second table pins breadth rather than depth: 120-job bursts under
//! EASY of the strategies the deep cases leave out (co-schedule,
//! malleable, adaptive), of `vqpu:8` routed over the committed
//! heterogeneous fleet under each route, and of the committed fault
//! plans (`examples/faults/`). The fault cases arrive at 240 jobs/h, so
//! the run is long enough for the node plan to kill and restart a job
//! and for the degraded plan to fail devices and retry kernels. Its
//! event digests were recorded before Gantt recording became an
//! ordinary observer, and its outcome digests derived as above.
//!
//! A third table pins what the first two leave out: the four policies
//! other than EASY under each committed fault plan (workflow under the
//! node plan, `vqpu:8` under the degraded one, as in the breadth table;
//! quantum-aware takes co-schedule under the node plan, since workflow
//! steps ask for no QPU and would run it as EASY), and `vqpu:8` on the
//! heterogeneous fleet, on its own least-loaded
//! route, under each plan. The cases run like the breadth table's fault
//! cases, with conservative backfill's burst cut to 80 jobs as in the
//! first table. The table was recorded before scheduler cycles began to
//! carry verdicts over from the last cycle.
//!
//! A fourth table fills the gaps the other three leave:
//!
//! * adaptive and malleable under each policy other than EASY, as the
//!   breadth table runs them;
//! * `vqpu:8` on the heterogeneous fleet on its pin-first and
//!   tech-affinity routes, under each committed fault plan, as the
//!   third table runs least-loaded;
//! * a *trickle* per policy: a burst of `day_small` jobs builds a held
//!   queue about a hundred deep, then the rest arrive one at a time, a
//!   minute apart, under `vqpu:8`. Most arrivals then land on a held
//!   queue with no other change since the last cycle, the case a
//!   scheduler may plan by admitting only the new job.
//!
//! Malleable jobs hold no QPU gres, so quantum-aware never boosts one,
//! and its malleable case reproduces the breadth table's EASY digest.
//! The table was recorded before scheduler cycles began to plan a
//! submitted job alone.
//!
//! A fifth table pins the paths that replace a pending event, at 240
//! jobs/h under EASY:
//!
//! * workflow under walltime kills with one requeue, on tight walltime
//!   margins, with the exponential node plan of `node_fault_digests.rs`'s
//!   `exp-kill` profile: each step's release disarms its kill timer, and
//!   node failures abort steps with a phase and a timer pending;
//! * co-schedule and workflow under `examples/faults/checkpoint.json`:
//!   each checkpoint replaces the phase's `PhaseDone`;
//! * walltime kills with one requeue, on the same tight margins, under
//!   `checkpoint.json` (co-schedule, workflow) and under
//!   `examples/faults/degraded.json` (workflow, and adaptive on the
//!   heterogeneous fleet's pin-first route): a kill that lands after a
//!   checkpoint, or during a kernel's retries, must leave the requeued
//!   attempt none of that progress or retry state.
//!
//! The first three rows were recorded before the event calendar lost
//! cancellation, the kill rows when walltime kills and fault requeues
//! came to share one reset.
//!
//! If a change is *supposed* to move these results, run
//!
//! ```text
//! cargo test -p hpcqc-core --test event_digests
//! ```
//!
//! paste the table the failure prints over `GOLDEN`, `BREADTH`,
//! `FAULTS`, `GAPS` or `FENCES`, and
//! say in the change log which digests moved and why.

use hpcqc_core::observer::{SimEvent, SimObserver};
use hpcqc_core::outcome::Outcome;
use hpcqc_core::scenario::{Scenario, WalltimePolicy};
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_faults::{FaultPlan, NodeFaults, RecoverySpec};
use hpcqc_fleet::FleetSpec;
use hpcqc_gen::{GeneratorSpec, Horizon};
use hpcqc_qpu::technology::Technology;
use hpcqc_sched::PolicySpec;
use hpcqc_simcore::dist::Dist;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::campaign::Workload;

/// `(policy, strategy, jobs, events, event digest, outcome digest)` per
/// case.
type Case = (
    &'static str,
    &'static str,
    u64,
    u64,
    &'static str,
    &'static str,
);

#[rustfmt::skip]
const GOLDEN: [Case; 10] = [
    ("fcfs", "vqpu(x8)", 240, 12330, "0673d2b3517758ae", "6d2c084c35d38b0a"),
    ("fcfs", "workflow", 240, 20009, "ae24c51c71a6b406", "a56827d856928e50"),
    ("easy", "vqpu(x8)", 240, 5942, "5ef9bde906bee007", "2d9cad049d507129"),
    ("easy", "workflow", 240, 11208, "9a945408cfc70704", "eef2a27eef91420b"),
    ("conservative", "vqpu(x8)", 80, 2310, "1db084ce50ae6fa1", "43d18eab58cb2a6b"),
    ("conservative", "workflow", 80, 3948, "2f1d07bd174685a1", "2d75e0413feb3c37"),
    ("priority-backfill", "vqpu(x8)", 240, 5861, "255da7d6d030dd8d", "a9bc21a16c55070e"),
    ("priority-backfill", "workflow", 240, 11092, "60f999625d45615d", "211845dcec49d2da"),
    ("quantum-aware", "vqpu(x8)", 240, 5169, "a5cb3defa971a109", "c112f36360bec748"),
    ("quantum-aware", "workflow", 240, 11208, "9a945408cfc70704", "eef2a27eef91420b"),
];

/// `(case, jobs, arrivals per hour, events, event digest, outcome
/// digest)` per breadth case; [`breadth_scenario`] reads the case name.
type BreadthCase = (&'static str, u64, f64, u64, &'static str, &'static str);

#[rustfmt::skip]
const BREADTH: [BreadthCase; 9] = [
    ("co-schedule", 120, 960.0, 2798, "800d69fa8ca65862", "416497ffbce5cf82"),
    ("malleable", 120, 960.0, 4566, "d5ccbb63aaa83e70", "40b755181c9eff9a"),
    ("adaptive", 120, 960.0, 3973, "899778566e7a9179", "7be375bc28a6ef9e"),
    ("vqpu:8 hetero pin-first", 120, 960.0, 2905, "e09cd3fe88ded278", "4ecd9c86a4397f91"),
    ("vqpu:8 hetero least-loaded", 120, 960.0, 2778, "a0702063366e07e1", "6b93872ce1becbae"),
    ("vqpu:8 hetero tech-affinity", 120, 960.0, 3005, "9343b55996819f55", "bc78dfc971f69daf"),
    ("workflow nodes", 120, 240.0, 5195, "5177e6834689dc2d", "3daac9fa76fa123f"),
    ("vqpu:8 degraded", 120, 240.0, 2945, "a1e55a09ed7b956a", "6d5c54a1903318f1"),
    ("adaptive degraded", 120, 240.0, 3903, "4366aaa68dfe6863", "439e22e1d1f3500b"),
];

/// `(case, jobs, events, event digest, outcome digest)` per fault case:
/// a policy, then a breadth case name; the jobs arrive at 240/h.
type FaultCase = (&'static str, u64, u64, &'static str, &'static str);

#[rustfmt::skip]
const FAULTS: [FaultCase; 10] = [
    ("fcfs workflow nodes", 120, 7868, "8aa38ace7c50f3e1", "0fe8d33a4c6a2960"),
    ("fcfs vqpu:8 degraded", 120, 4012, "005bbad68c9b91ea", "e243e9391a3ffb5e"),
    ("conservative workflow nodes", 80, 3231, "2f20fc193b6e7d3b", "149c39c81939ce2f"),
    ("conservative vqpu:8 degraded", 80, 2046, "0f6ceb8498d3b9cd", "65de63d5686742c1"),
    ("priority-backfill workflow nodes", 120, 5074, "6bdf04e9aeeb795b", "3d3217f496dc42a7"),
    ("priority-backfill vqpu:8 degraded", 120, 2972, "d2c9fd8b98626618", "f09ccd1c017b9265"),
    ("quantum-aware co-schedule nodes", 120, 2561, "ded06cb1a0d6e40a", "9cde27e120a239b7"),
    ("quantum-aware vqpu:8 degraded", 120, 2910, "4033f57169f6fc70", "4a1bd211eea0356e"),
    ("easy vqpu:8 hetero least-loaded nodes", 120, 2931, "8b6cb0d181a7133b", "16e5051b0103ab31"),
    ("easy vqpu:8 hetero least-loaded degraded", 120, 3225, "6b5529a2c0265e32", "d1fd575ecdda9c7e"),
];

/// `(case, jobs, arrivals per hour, events, event digest, outcome
/// digest)` per gap case: a policy, then a breadth case name or
/// `vqpu:8 trickle` (see [`trickle`]).
type GapCase = (&'static str, u64, f64, u64, &'static str, &'static str);

#[rustfmt::skip]
const GAPS: [GapCase; 17] = [
    ("fcfs adaptive", 120, 960.0, 4747, "004ed59ddb179c28", "1161bee4c20dc3d8"),
    ("fcfs malleable", 120, 960.0, 8004, "6a61a8753d1e1194", "11791b9384dd865c"),
    ("conservative adaptive", 80, 960.0, 2741, "fa35ca48f427c440", "4d37e48e97cc7f0a"),
    ("conservative malleable", 80, 960.0, 3284, "87d86bf5001412ca", "9102c38b64126b21"),
    ("priority-backfill adaptive", 120, 960.0, 3704, "a2d5ecb5e5bdcb59", "c54d4cfa96395a33"),
    ("priority-backfill malleable", 120, 960.0, 4294, "1422be0154b083ce", "481c2f01c34e5bdc"),
    ("quantum-aware adaptive", 120, 960.0, 3283, "1d9e49e94886c122", "3117e8f961900ec8"),
    ("quantum-aware malleable", 120, 960.0, 4566, "d5ccbb63aaa83e70", "40b755181c9eff9a"),
    ("easy vqpu:8 hetero pin-first nodes", 120, 240.0, 3034, "ab35c272c1696b66", "621ddb9c4d916681"),
    ("easy vqpu:8 hetero pin-first degraded", 120, 240.0, 3137, "40d410ec6884664c", "1f2b610942bd46d8"),
    ("easy vqpu:8 hetero tech-affinity nodes", 120, 240.0, 2895, "da8c24b2e797a1ee", "eff69ca046c94574"),
    ("easy vqpu:8 hetero tech-affinity degraded", 120, 240.0, 2911, "21612951413929ca", "58d6eab6b7cc1b4f"),
    ("fcfs vqpu:8 trickle", 180, 60.0, 6170, "e91863c0408c6668", "0482ca501f834776"),
    ("easy vqpu:8 trickle", 180, 60.0, 3620, "af3e75287779ab0a", "52f931bb3c0cf59f"),
    ("conservative vqpu:8 trickle", 140, 60.0, 3446, "47dcfb68d97ac3ac", "51137d7b05b4d1d1"),
    ("priority-backfill vqpu:8 trickle", 180, 60.0, 3986, "8f55b569acb0cc56", "ec05186e0975fab4"),
    ("quantum-aware vqpu:8 trickle", 180, 60.0, 3913, "ed141d083a2dc110", "4cc49a7c668686df"),
];

/// `(case, jobs, events, event digest, outcome digest)` per fence case:
/// a breadth case name, run under EASY; the jobs arrive at 240/h, with
/// every walltime margin at 1.0 in the `kill` and `exp-kill` cases.
type FenceCase = (&'static str, u64, u64, &'static str, &'static str);

#[rustfmt::skip]
const FENCES: [FenceCase; 7] = [
    ("workflow exp-kill", 120, 5255, "e3f8d6ad072fbad9", "bf312aaa25371dd5"),
    ("co-schedule checkpoint", 120, 2619, "b57e283cf91e49eb", "b278b943ab023352"),
    ("workflow checkpoint", 120, 5576, "e63c6e2b6741ab39", "7b28012f4143ca2f"),
    ("co-schedule kill checkpoint", 120, 2723, "037cd4f5de0c3d30", "72f1a1734c307f6f"),
    ("workflow kill checkpoint", 120, 5602, "f10cabb140f2f83a", "2ff06f02dabc2a0d"),
    ("workflow kill degraded", 240, 11124, "333811608b83ed21", "0bc51615223c5c5b"),
    ("adaptive hetero pin-first kill degraded", 120, 4993, "a6e73100a3821c1c", "d75220c7863f5f21"),
];

/// The burst that opens a trickle: enough jobs to hold about a hundred
/// in the queue on 64 nodes.
const TRICKLE_BURST: usize = 110;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, continuing from `hash` (the same function
/// `node_fault_digests.rs` digests outcomes with).
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds every event's `"{now:?} {event:?}\n"` into one digest.
#[derive(Debug)]
struct EventDigest {
    hash: u64,
    events: u64,
}

impl SimObserver for EventDigest {
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
        let line = format!("{now:?} {event:?}\n");
        self.hash = fnv1a(self.hash, line.as_bytes());
        self.events += 1;
    }
}

fn outcome_digest(outcome: &Outcome) -> u64 {
    let json = serde_json::to_string(outcome).expect("outcomes serialize");
    fnv1a(FNV_OFFSET, json.as_bytes())
}

fn policy(name: &str) -> PolicySpec {
    match name {
        "fcfs" => PolicySpec::fcfs(),
        "easy" => PolicySpec::easy(),
        "conservative" => PolicySpec::conservative(),
        // Escalates within the burst, so the case differs from EASY.
        "priority-backfill" => PolicySpec::priority_backfill(0.25),
        "quantum-aware" => PolicySpec::quantum_aware(1_000.0),
        other => panic!("unknown policy `{other}`"),
    }
}

fn strategy(name: &str) -> Strategy {
    match name {
        "vqpu(x8)" => Strategy::Vqpu { vqpus: 8 },
        "workflow" => Strategy::Workflow,
        other => panic!("unknown strategy `{other}`"),
    }
}

/// Reads a committed example file from the repository root.
fn example<T: serde::Deserialize>(path: &str) -> T {
    let path = format!("{}/../../examples/{path}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The generator of a burst: `day_small`'s job mix, `jobs` jobs at
/// `per_hour` arrivals/h.
fn burst_spec(jobs: u64, per_hour: f64) -> GeneratorSpec {
    let mut spec: GeneratorSpec = example("gen/day_small.json");
    spec.horizon = Horizon::Jobs { count: jobs };
    spec.arrival.base_per_hour = per_hour;
    spec
}

/// The burst [`burst_spec`] generates from seed 7.
fn burst(jobs: u64, per_hour: f64) -> Workload {
    Workload::from_jobs(burst_spec(jobs, per_hour).stream(7).collect())
}

/// A trickle of `jobs` `day_small` jobs: the first [`TRICKLE_BURST`]
/// arrive as in [`burst`] at 960/h, the rest one at a time at
/// `per_hour`, starting one gap after the burst's last arrival.
fn trickle(jobs: u64, per_hour: f64) -> Workload {
    let mut spec: GeneratorSpec = example("gen/day_small.json");
    spec.horizon = Horizon::Jobs { count: jobs };
    spec.arrival.base_per_hour = 960.0;
    let mut jobs: Vec<_> = spec.stream(7).collect();
    let gap = SimDuration::from_secs_f64(3_600.0 / per_hour);
    let mut at = jobs[TRICKLE_BURST - 1].submit();
    let rest = jobs.split_off(TRICKLE_BURST);
    jobs.extend(rest.into_iter().map(|job| {
        at += gap;
        job.with_submit(at)
    }));
    Workload::from_jobs(jobs)
}

/// The scenario of one breadth case under `policy`: 64 nodes, seed 7,
/// one superconducting device unless the case names the `hetero` fleet
/// (with the route it names), and the fault plan the case names, if any.
/// `kill` adds walltime kills with one requeue; `exp-kill` names a plan
/// built here, and walltime kills with it.
fn breadth_scenario(policy: PolicySpec, case: &str) -> Scenario {
    let mut words = case.split(' ');
    let strategy = match words.next() {
        Some("co-schedule") => Strategy::CoSchedule,
        Some("malleable") => Strategy::Malleable { min_nodes: 1 },
        Some("adaptive") => Strategy::Adaptive { vqpus: 4 },
        Some("vqpu:8") => Strategy::Vqpu { vqpus: 8 },
        Some("workflow") => Strategy::Workflow,
        other => panic!("unknown strategy in `{other:?}`"),
    };
    let mut builder = Scenario::builder()
        .classical_nodes(64)
        .device(Technology::Superconducting)
        .policy(policy)
        .strategy(strategy)
        .seed(7);
    while let Some(word) = words.next() {
        builder = match word {
            "hetero" => {
                let route = words.next().expect("a route follows `hetero`");
                let fleet: FleetSpec = example("fleets/hetero.json");
                builder.fleet(fleet.route(route.parse().expect("known route")))
            }
            "kill" => builder.walltime_policy(WalltimePolicy::Kill { max_requeues: 1 }),
            "exp-kill" => builder
                .walltime_policy(WalltimePolicy::Kill { max_requeues: 1 })
                .faults(
                    FaultPlan::named(word)
                        .node(NodeFaults {
                            mtbf: Dist::exponential(900.0),
                            repair: Dist::log_normal_mean_cv(1_800.0, 0.5).clamped(300.0, 14_400.0),
                        })
                        .recovery(RecoverySpec::new().max_requeues(3)),
                ),
            "nodes" | "degraded" | "checkpoint" => {
                builder.faults(example::<FaultPlan>(&format!("faults/{word}.json")))
            }
            other => panic!("unknown case word `{other}`"),
        };
    }
    builder.build()
}

/// Runs one case and returns `(events, event digest, outcome digest)`,
/// the digests as 16 hex digits.
fn run_case(scenario: &Scenario, workload: &Workload) -> (u64, String, String) {
    let mut digest = EventDigest {
        hash: FNV_OFFSET,
        events: 0,
    };
    let outcome = FacilitySim::run_observed(scenario, workload, &mut [&mut digest]).unwrap();
    assert_eq!(outcome.stats.len(), workload.len());
    (
        digest.events,
        format!("{:016x}", digest.hash),
        format!("{:016x}", outcome_digest(&outcome)),
    )
}

#[test]
fn deep_queue_event_streams_reproduce_recorded_digests() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (policy_name, strategy_name, jobs, events, want_events, want_outcome) in GOLDEN {
        let scenario = Scenario::builder()
            .classical_nodes(64)
            .device(Technology::Superconducting)
            .policy(policy(policy_name))
            .strategy(strategy(strategy_name))
            .seed(7)
            .build();
        let got = run_case(&scenario, &burst(jobs, 960.0));
        table.push_str(&format!(
            "    (\"{policy_name}\", \"{strategy_name}\", {jobs}, {}, \"{}\", \"{}\"),\n",
            got.0, got.1, got.2
        ));
        if got != (events, want_events.to_string(), want_outcome.to_string()) {
            moved.push(format!("{policy_name} {strategy_name}"));
        }
    }
    assert!(
        moved.is_empty(),
        "event digests moved for {moved:?}; if intended, replace GOLDEN with:\n{table}"
    );
}

#[test]
fn breadth_event_streams_reproduce_recorded_digests() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (case, jobs, per_hour, events, want_events, want_outcome) in BREADTH {
        let got = run_case(
            &breadth_scenario(PolicySpec::easy(), case),
            &burst(jobs, per_hour),
        );
        table.push_str(&format!(
            "    (\"{case}\", {jobs}, {per_hour:.1}, {}, \"{}\", \"{}\"),\n",
            got.0, got.1, got.2
        ));
        if got != (events, want_events.to_string(), want_outcome.to_string()) {
            moved.push(case);
        }
    }
    assert!(
        moved.is_empty(),
        "event digests moved for {moved:?}; if intended, replace BREADTH with:\n{table}"
    );
}

#[test]
fn fault_plan_event_streams_reproduce_recorded_digests() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (case, jobs, events, want_events, want_outcome) in FAULTS {
        let (policy_name, breadth_case) = case.split_once(' ').expect("a policy, then a case");
        let got = run_case(
            &breadth_scenario(policy(policy_name), breadth_case),
            &burst(jobs, 240.0),
        );
        table.push_str(&format!(
            "    (\"{case}\", {jobs}, {}, \"{}\", \"{}\"),\n",
            got.0, got.1, got.2
        ));
        if got != (events, want_events.to_string(), want_outcome.to_string()) {
            moved.push(case);
        }
    }
    assert!(
        moved.is_empty(),
        "event digests moved for {moved:?}; if intended, replace FAULTS with:\n{table}"
    );
}

#[test]
fn gap_event_streams_reproduce_recorded_digests() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (case, jobs, per_hour, events, want_events, want_outcome) in GAPS {
        let (policy_name, rest) = case.split_once(' ').expect("a policy, then a case");
        let got = match rest.strip_suffix(" trickle") {
            Some(breadth_case) => run_case(
                &breadth_scenario(policy(policy_name), breadth_case),
                &trickle(jobs, per_hour),
            ),
            None => run_case(
                &breadth_scenario(policy(policy_name), rest),
                &burst(jobs, per_hour),
            ),
        };
        table.push_str(&format!(
            "    (\"{case}\", {jobs}, {per_hour:.1}, {}, \"{}\", \"{}\"),\n",
            got.0, got.1, got.2
        ));
        if got != (events, want_events.to_string(), want_outcome.to_string()) {
            moved.push(case);
        }
    }
    assert!(
        moved.is_empty(),
        "event digests moved for {moved:?}; if intended, replace GAPS with:\n{table}"
    );
}

#[test]
fn fence_event_streams_reproduce_recorded_digests() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (case, jobs, events, want_events, want_outcome) in FENCES {
        let mut spec = burst_spec(jobs, 240.0);
        if case.contains("kill") {
            // Tight margins, so walltime kills and node-fault requeues
            // interleave.
            for class in &mut spec.classes {
                class.walltime_margin = 1.0;
            }
        }
        let workload = Workload::from_jobs(spec.stream(7).collect());
        let got = run_case(&breadth_scenario(PolicySpec::easy(), case), &workload);
        table.push_str(&format!(
            "    (\"{case}\", {jobs}, {}, \"{}\", \"{}\"),\n",
            got.0, got.1, got.2
        ));
        if got != (events, want_events.to_string(), want_outcome.to_string()) {
            moved.push(case);
        }
    }
    assert!(
        moved.is_empty(),
        "event digests moved for {moved:?}; if intended, replace FENCES with:\n{table}"
    );
}
