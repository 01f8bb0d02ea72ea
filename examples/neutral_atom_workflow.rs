//! Neutral-atom jobs as loosely-coupled workflows, with a Gantt view.
//!
//! Neutral-atom quantum jobs exceed 30 minutes once the register-geometry
//! calibration is included (paper Fig. 1), so holding classical nodes
//! through them (Listing 1) idles the nodes. This example runs the same
//! two hybrid jobs under co-scheduling and as workflows and renders
//! ASCII Gantt charts so the difference is visible: under workflows the
//! node lanes go quiet only while *nothing* needs them.
//!
//! ```text
//! cargo run --example neutral_atom_workflow
//! ```

use hpcqc::core::observer::GanttObserver;
use hpcqc::prelude::*;
use hpcqc_simcore::time::{SimDuration, SimTime};

fn workload() -> Workload {
    let kernel = Kernel::builder("rydberg-sim")
        .qubits(100)
        .depth(20)
        .shots(500)
        .build()
        .unwrap();
    let jobs = (0..2u64)
        .map(|i| {
            JobSpec::builder(format!("atoms-{i}"))
                .user("bob")
                .nodes(6)
                .submit(SimTime::from_secs(i * 120))
                .walltime(SimDuration::from_hours(8))
                .phases(vec![
                    Phase::Classical(SimDuration::from_mins(8)),
                    Phase::Quantum(kernel.clone()),
                    Phase::Classical(SimDuration::from_mins(8)),
                ])
                .build()
        })
        .collect();
    Workload::from_jobs(jobs)
}

fn show(strategy: Strategy) -> Result<Outcome, SimError> {
    let scenario = Scenario::builder()
        .classical_nodes(12)
        .device(Technology::NeutralAtom)
        .strategy(strategy)
        .seed(11)
        .build();
    let mut gantt = GanttObserver::new();
    let outcome = FacilitySim::run_observed(&scenario, &workload(), &mut [&mut gantt])?;
    println!("--- {strategy} ---");
    print!(
        "{}",
        gantt
            .gantt()
            .render_ascii(SimTime::ZERO, outcome.makespan, 72)
    );
    let hybrid = outcome.stats.hybrid_only();
    println!(
        "turnaround {} | node-h wasted {:.2} | nodes productive {}\n",
        fmt_secs(hybrid.mean_turnaround_secs()),
        hybrid.total_node_hours_wasted(),
        fmt_pct(outcome.node_waste.used_fraction),
    );
    Ok(outcome)
}

fn main() -> Result<(), SimError> {
    println!(
        "Two neutral-atom hybrid jobs: 8 min classical → ~30 min quantum\n\
         (register calibration included) → 8 min classical.\n"
    );
    let cosched = show(Strategy::CoSchedule)?;
    let workflow = show(Strategy::Workflow)?;
    let saved = cosched.stats.total_node_hours_wasted() - workflow.stats.total_node_hours_wasted();
    println!(
        "Workflows hand the nodes back during the ~30 min quantum steps,\n\
         recovering {saved:.2} node-hours on this tiny example alone — at the\n\
         price of re-queueing each step (Fig. 2 of the paper)."
    );
    Ok(())
}
