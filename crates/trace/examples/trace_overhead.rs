//! Noise-robust probe of `TraceObserver` overhead on the event loop.
//!
//! Interleaves bare and traced runs round-robin and reports the minimum
//! per-variant wall time (min-of-N is far more drift-resistant than a
//! mean on a shared machine), then the traced run's overhead:
//!
//! ```text
//! cargo run --release -p hpcqc-trace --example trace_overhead
//! ```

use hpcqc_core::{FacilitySim, Scenario, Strategy};
use hpcqc_qpu::{Kernel, Technology};
use hpcqc_simcore::time::SimDuration;
use hpcqc_trace::TraceObserver;
use hpcqc_workload::job::{JobSpec, Phase};
use hpcqc_workload::Workload;
use std::time::Instant;

/// Eight identical VQE tenants arriving together: six iterations of 30 s
/// classical work, each followed by a 500-shot kernel.
fn tenants() -> Workload {
    let kernel = Kernel::builder("tenant-k")
        .qubits(12)
        .depth(64)
        .shots(500)
        .build()
        .expect("valid kernel");
    let jobs = (0..8)
        .map(|i| {
            let phases = (0..6)
                .flat_map(|_| {
                    [
                        Phase::Classical(SimDuration::from_secs(30)),
                        Phase::Quantum(kernel.clone()),
                    ]
                })
                .collect();
            JobSpec::builder(format!("tenant-{i}"))
                .nodes(2)
                .walltime(SimDuration::from_hours(12))
                .phases(phases)
                .build()
        })
        .collect();
    Workload::from_jobs(jobs)
}

// Wall-clock timing is the whole point of an overhead probe: readings
// stay on the host side, outside any simulation state.
#[allow(clippy::disallowed_methods)]
fn main() {
    let workload = tenants();
    let scenario = Scenario::builder()
        .classical_nodes(16)
        .device(Technology::Superconducting)
        .strategy(Strategy::Vqpu { vqpus: 4 })
        .seed(7)
        .build();

    let rounds = 300usize;
    let mut bare = f64::INFINITY;
    let mut traced = f64::INFINITY;
    let mut events = 0usize;
    for _ in 0..rounds {
        let t = Instant::now();
        FacilitySim::run(&scenario, &workload).expect("valid scenario");
        bare = bare.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut tracer = TraceObserver::for_scenario(&scenario);
        FacilitySim::run_observed(&scenario, &workload, &mut [&mut tracer]).expect("valid");
        traced = traced.min(t.elapsed().as_secs_f64());
        events = tracer.into_trace().len();
    }
    println!(
        "bare      {:>9.1} us\ntraced    {:>9.1} us ({} trace events)\noverhead  {:>8.2} %",
        bare * 1e6,
        traced * 1e6,
        events,
        (traced / bare - 1.0) * 100.0,
    );
}
