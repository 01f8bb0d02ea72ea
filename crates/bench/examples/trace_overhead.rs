//! Noise-robust probe of `TraceObserver` overhead on the event loop.
//!
//! Interleaves bare and traced runs round-robin and reports the minimum
//! per-variant wall time (min-of-N is far more drift-resistant than a
//! mean on a shared machine). The `<10%` budget is checked here:
//!
//! ```text
//! cargo run --release -p hpcqc-bench --example trace_overhead
//! ```

use hpcqc_core::{FacilitySim, Scenario, Strategy};
use hpcqc_qpu::Technology;
use hpcqc_sweep::spec::tenant_jobs;
use hpcqc_trace::TraceObserver;
use hpcqc_workload::Workload;
use std::time::Instant;

// Wall-clock timing is the whole point of an overhead probe: readings
// stay on the host side, outside any simulation state.
#[allow(clippy::disallowed_methods)]
fn main() {
    let workload = Workload::from_jobs(tenant_jobs(8, 2, 6, 30, 500));
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
