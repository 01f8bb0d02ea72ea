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
//! the event stream is the contract, not just the summary.
//!
//! If a change is *supposed* to move these results, run
//!
//! ```text
//! cargo test -p hpcqc-core --test event_digests
//! ```
//!
//! paste the table the failure prints over `GOLDEN`, and say in the
//! change log which digests moved and why.

use hpcqc_core::observer::{SimEvent, SimObserver};
use hpcqc_core::outcome::Outcome;
use hpcqc_core::scenario::Scenario;
use hpcqc_core::sim::FacilitySim;
use hpcqc_core::strategy::Strategy;
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
    ("fcfs", "vqpu(x8)", 240, 12330, "0673d2b3517758ae", "4c6e91ec0752787d"),
    ("fcfs", "workflow", 240, 20009, "ae24c51c71a6b406", "5ac690be1fb6eea7"),
    ("easy", "vqpu(x8)", 240, 5942, "5ef9bde906bee007", "b098ea0fc1f1bc8e"),
    ("easy", "workflow", 240, 11208, "9a945408cfc70704", "d683311e2f1bfc3e"),
    ("conservative", "vqpu(x8)", 80, 2310, "1db084ce50ae6fa1", "a91968223cba2b30"),
    ("conservative", "workflow", 80, 3948, "2f1d07bd174685a1", "034bb12c772130ac"),
    ("priority-backfill", "vqpu(x8)", 240, 5861, "255da7d6d030dd8d", "6e1d3b73b0b7b3d3"),
    ("priority-backfill", "workflow", 240, 11092, "60f999625d45615d", "96b3c790f904f125"),
    ("quantum-aware", "vqpu(x8)", 240, 5169, "a5cb3defa971a109", "d80c96e1adfacce7"),
    ("quantum-aware", "workflow", 240, 11208, "9a945408cfc70704", "d683311e2f1bfc3e"),
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

/// The burst: `day_small`'s job mix, `jobs` jobs at 960 arrivals/h.
fn burst(jobs: u64) -> Workload {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/gen/day_small.json"
    );
    let text = std::fs::read_to_string(path).expect("day_small.json exists");
    let mut spec: GeneratorSpec = serde_json::from_str(&text).expect("day_small.json parses");
    spec.horizon = Horizon::Jobs { count: jobs };
    spec.arrival.base_per_hour = 960.0;
    Workload::from_jobs(spec.stream(7).collect())
}

#[test]
fn deep_queue_event_streams_reproduce_recorded_digests() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (policy_name, strategy_name, jobs, events, want_events, want_outcome) in GOLDEN {
        let workload = burst(jobs);
        let scenario = Scenario::builder()
            .classical_nodes(64)
            .device(Technology::Superconducting)
            .policy(policy(policy_name))
            .strategy(strategy(strategy_name))
            .seed(7)
            .build();
        let mut digest = EventDigest {
            hash: FNV_OFFSET,
            events: 0,
        };
        let outcome = FacilitySim::run_observed(&scenario, &workload, &mut [&mut digest]).unwrap();
        assert_eq!(
            outcome.stats.len(),
            workload.len(),
            "{policy_name} {strategy_name}"
        );
        let got = (
            digest.events,
            format!("{:016x}", digest.hash),
            format!("{:016x}", outcome_digest(&outcome)),
        );
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
