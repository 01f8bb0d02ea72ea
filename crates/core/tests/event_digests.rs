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
//! If a change is *supposed* to move these results, run
//!
//! ```text
//! cargo test -p hpcqc-core --test event_digests
//! ```
//!
//! paste the table the failure prints over `GOLDEN` or `BREADTH`, and
//! say in the change log which digests moved and why.

use hpcqc_core::observer::{SimEvent, SimObserver};
use hpcqc_core::outcome::Outcome;
use hpcqc_core::scenario::Scenario;
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
use hpcqc_faults::FaultPlan;
use hpcqc_fleet::FleetSpec;
use hpcqc_gen::{GeneratorSpec, Horizon};
use hpcqc_qpu::technology::Technology;
use hpcqc_sched::PolicySpec;
use hpcqc_simcore::time::SimTime;
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

/// The burst: `day_small`'s job mix, `jobs` jobs at `per_hour`
/// arrivals/h.
fn burst(jobs: u64, per_hour: f64) -> Workload {
    let mut spec: GeneratorSpec = example("gen/day_small.json");
    spec.horizon = Horizon::Jobs { count: jobs };
    spec.arrival.base_per_hour = per_hour;
    Workload::from_jobs(spec.stream(7).collect())
}

/// The scenario of one breadth case: EASY on 64 nodes, seed 7, one
/// superconducting device unless the case names the `hetero` fleet (with
/// the route it names), and the fault plan the case names, if any.
fn breadth_scenario(case: &str) -> Scenario {
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
        .policy(PolicySpec::easy())
        .strategy(strategy)
        .seed(7);
    while let Some(word) = words.next() {
        builder = match word {
            "hetero" => {
                let route = words.next().expect("a route follows `hetero`");
                let fleet: FleetSpec = example("fleets/hetero.json");
                builder.fleet(fleet.route(route.parse().expect("known route")))
            }
            "nodes" | "degraded" => {
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
        let got = run_case(&breadth_scenario(case), &burst(jobs, per_hour));
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
