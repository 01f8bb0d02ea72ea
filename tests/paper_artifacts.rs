//! The paper's artifacts as committed grid data. Every
//! `examples/paper/*.json` runs through the sweep [`Executor`] — the path
//! `hpcqc-sim sweep --grid` takes — and each test asserts one claim of
//! the paper over the resulting cells:
//!
//! | grid | paper artifact | claim quantified |
//! |------|----------------|------------------|
//! | `e2` | Listing 1 + §3 | exclusive co-scheduling wastes one side |
//! | `e3` | Fig. 2 | workflow queue overhead vs step duration |
//! | `e4a`, `e4b` | Fig. 3 | VQPU multitenancy: bounded delay, higher utilization, and its caveat |
//! | `e5` | Fig. 4 | malleability: waste ↓ without per-step queueing |
//! | `e6` | §4 matrix | which strategy wins where |
//! | `e7` | §3 access model | REST/cloud overhead vs kernel time |
//! | `a1` | ablation | FCFS vs EASY vs conservative backfill, per strategy |
//! | `a2` | ablation | walltime-request accuracy under kill-and-requeue |
//! | `a3` | ablation | the malleable retention floor |
//!
//! Fig. 1 (E1) runs no simulation; its claims sit next to `fig1_rows` in
//! `hpcqc-qpu`.

use hpcqc_core::outcome::Outcome;
use hpcqc_core::strategy::Strategy;
use hpcqc_metrics::jobstats::JobRecord;
use hpcqc_qpu::technology::Technology;
use hpcqc_sched::PolicySpec;
use hpcqc_sweep::{AccessSpec, Cell, CellResult, Executor, Grid, SweepResult, WorkloadSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;

/// One committed grid and its sweep.
struct Artifact {
    grid: Grid,
    sweep: SweepResult,
}

impl Artifact {
    /// The first cell matching `predicate`.
    fn find(&self, predicate: impl FnMut(&Cell) -> bool) -> &CellResult {
        self.sweep
            .find(predicate)
            .expect("the grid has a matching cell")
    }

    /// The outcome of the cell running `strategy` (the grid's other axes
    /// having one value).
    fn by_strategy(&self, strategy: Strategy) -> &Outcome {
        &self.find(|c| c.strategy == strategy).outcome
    }
}

fn paper_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/paper")
}

fn load(path: &Path) -> Grid {
    let json = std::fs::read_to_string(path).expect("grid file reads");
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every paper grid, swept once per test binary on four workers and
/// shared by the tests.
fn artifacts() -> &'static BTreeMap<String, Artifact> {
    static ARTIFACTS: OnceLock<BTreeMap<String, Artifact>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let mut artifacts = BTreeMap::new();
        for entry in std::fs::read_dir(paper_dir()).expect("examples/paper exists") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                let id = path.file_stem().expect("file name").to_string_lossy();
                let grid = load(&path);
                let sweep = Executor::new(4)
                    .run_sim(&grid)
                    .unwrap_or_else(|e| panic!("{id}: {e}"));
                artifacts.insert(id.into_owned(), Artifact { grid, sweep });
            }
        }
        artifacts
    })
}

fn artifact(id: &str) -> &'static Artifact {
    &artifacts()[id]
}

/// QPU-seconds used over QPU-seconds held, over `records`.
fn qpu_efficiency<'a>(records: impl IntoIterator<Item = &'a JobRecord>) -> f64 {
    let (used, held) = records.into_iter().fold((0.0, 0.0), |(u, h), r| {
        (u + r.qpu_seconds_used, h + r.qpu_seconds_allocated)
    });
    if held > 0.0 {
        used / held
    } else {
        1.0
    }
}

fn node_efficiency(record: &JobRecord) -> f64 {
    record.node_seconds_used / record.node_seconds_allocated
}

#[test]
fn paper_directory_holds_every_artifact() {
    let ids: Vec<&str> = artifacts().keys().map(String::as_str).collect();
    assert_eq!(
        ids,
        ["a1", "a2", "a3", "e2", "e3", "e4a", "e4b", "e5", "e6", "e7"]
    );
    for (id, a) in artifacts() {
        assert_eq!(a.sweep.len(), a.grid.len(), "{id}: every cell ran");
        assert!(
            a.sweep
                .results()
                .iter()
                .all(|r| r.outcome.makespan.as_secs_f64() > 0.0),
            "{id}: every cell simulated something"
        );
    }
}

/// Re-sweeps the committed grid `id` on `threads` workers and checks the
/// CSV equals the shared four-worker sweep.
fn assert_resweep_matches(id: &str, threads: usize) {
    let a = artifact(id);
    let again = Executor::new(threads).run_sim(&a.grid).expect("sweep runs");
    assert_eq!(
        again.to_csv(),
        a.sweep.to_csv(),
        "{id} on {threads} worker(s)"
    );
}

#[test]
fn a1_thread_count_does_not_change_the_table() {
    assert_resweep_matches("a1", 1);
}

#[test]
fn e7_thread_count_does_not_change_the_table() {
    assert_resweep_matches("e7", 1);
}

#[test]
fn e7_deterministic() {
    // Same grid, same worker count, a second run.
    assert_resweep_matches("e7", 4);
}

// --- E2 — Listing 1 + §3: exclusive co-scheduling waste by technology ----

fn e2_record(technology: Technology) -> &'static JobRecord {
    let a = artifact("e2");
    &a.find(|c| c.technology == technology)
        .outcome
        .stats
        .records()[0]
}

#[test]
fn e2_superconducting_starves_the_qpu() {
    let sc = e2_record(Technology::Superconducting);
    // §3: "heavy under-utilisation of the QPU".
    let qpu = qpu_efficiency([sc]);
    assert!(qpu < 0.05, "QPU efficiency {qpu}");
    // The classical side is nearly fully busy.
    assert!(
        node_efficiency(sc) > 0.9,
        "node efficiency {}",
        node_efficiency(sc)
    );
}

#[test]
fn e2_neutral_atom_starves_the_nodes() {
    let na = e2_record(Technology::NeutralAtom);
    // §3: classical nodes "idle waiting for the quantum job completion".
    assert!(
        node_efficiency(na) < 0.5,
        "node efficiency {}",
        node_efficiency(na)
    );
    // And the QPU side dominates the job.
    assert!(
        qpu_efficiency([na]) > 0.5,
        "QPU efficiency {}",
        qpu_efficiency([na])
    );
}

#[test]
fn e2_imbalance_direction_flips_between_technologies() {
    let sc = e2_record(Technology::Superconducting);
    let na = e2_record(Technology::NeutralAtom);
    assert!(qpu_efficiency([sc]) < qpu_efficiency([na]));
    assert!(node_efficiency(sc) > node_efficiency(na));
}

#[test]
fn e2_waste_is_substantial_somewhere_for_every_technology() {
    // The paper's thesis: exclusive co-scheduling always wastes a side.
    assert_eq!(artifact("e2").sweep.len(), Technology::ALL.len());
    for technology in Technology::ALL {
        let r = e2_record(technology);
        let min_eff = qpu_efficiency([r]).min(node_efficiency(r));
        assert!(
            min_eff < 0.6,
            "{technology}: both sides ≥ 60% busy — co-scheduling would be fine, contradicting §3"
        );
    }
}

// --- E3 — Fig. 2: workflow decomposition vs step duration ----------------

/// One E3 step duration: both strategies' outcomes on it.
struct E3Row {
    step_secs: u64,
    coschedule: &'static Outcome,
    workflow: &'static Outcome,
}

impl E3Row {
    fn turnaround_ratio(&self) -> f64 {
        self.workflow.stats.hybrid_only().mean_turnaround_secs()
            / self.coschedule.stats.hybrid_only().mean_turnaround_secs()
    }

    /// Share of workflow turnaround spent waiting between steps.
    fn overhead_share(&self) -> f64 {
        let hybrid = self.workflow.stats.hybrid_only();
        hybrid.mean_phase_wait_secs() / hybrid.mean_turnaround_secs()
    }
}

/// E3 rows in step order.
fn e3_rows() -> Vec<E3Row> {
    let a = artifact("e3");
    let on = |strategy: Strategy, k: usize| {
        &a.find(|c| c.strategy == strategy && c.workload == Some(k))
            .outcome
    };
    let workloads = a.grid.workloads.as_ref().expect("e3 sweeps the workload");
    workloads
        .iter()
        .enumerate()
        .map(|(k, workload)| {
            let WorkloadSpec::LoadedFacility { classical_secs, .. } = *workload else {
                panic!("e3 sweeps loaded facilities");
            };
            E3Row {
                step_secs: classical_secs,
                coschedule: on(Strategy::CoSchedule, k),
                workflow: on(Strategy::Workflow, k),
            }
        })
        .collect()
}

#[test]
fn e3_overhead_share_falls_as_steps_lengthen() {
    let rows = e3_rows();
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    assert!(
        first.overhead_share() > last.overhead_share(),
        "overhead share must fall from {:.3} as steps lengthen (got {:.3})",
        first.overhead_share(),
        last.overhead_share()
    );
}

#[test]
fn e3_workflow_penalty_shrinks_with_step_length() {
    let rows = e3_rows();
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    assert!(
        first.turnaround_ratio() > last.turnaround_ratio(),
        "workflow turnaround penalty must shrink: {:.2} → {:.2}",
        first.turnaround_ratio(),
        last.turnaround_ratio()
    );
    assert!(
        last.turnaround_ratio() < 1.5,
        "long steps must amortize the queueing"
    );
}

#[test]
fn e3_workflow_always_recovers_qpu_waste() {
    // Fig. 2's upside: resources held only while used.
    for row in e3_rows() {
        let workflow = qpu_efficiency(row.workflow.stats.hybrid_only().records());
        let coschedule = qpu_efficiency(row.coschedule.stats.hybrid_only().records());
        assert!(
            workflow > 0.9,
            "workflow QPU efficiency at step {} is {workflow:.2}",
            row.step_secs
        );
        assert!(
            coschedule < workflow,
            "co-scheduling must waste more QPU than workflows"
        );
    }
}

#[test]
fn e3_workflows_hold_no_idle_nodes() {
    // Fig. 2: workflow steps hold nodes only while computing, and pay
    // for it with inter-step waits.
    for row in e3_rows() {
        for r in row.workflow.stats.hybrid_only().records() {
            assert!(
                (r.node_seconds_allocated - r.node_seconds_used).abs() < 1.0,
                "{} at step {}: workflow steps must not hold idle nodes",
                r.name,
                row.step_secs
            );
            assert!(r.phase_wait.as_secs_f64() > 0.0, "{}", r.name);
        }
    }
}

// --- E4 — Fig. 3: virtual QPUs --------------------------------------------

/// E4a cells in VQPU-count order: `(vqpus, outcome)`.
fn e4_count_rows() -> Vec<(u32, &'static Outcome)> {
    let a = artifact("e4a");
    a.sweep
        .results()
        .iter()
        .map(|r| match r.cell.strategy {
            Strategy::Vqpu { vqpus } => (vqpus, &r.outcome),
            other => panic!("e4a sweeps VQPU counts, found {other}"),
        })
        .collect()
}

/// Mean per-kernel interleaving delay: phase wait spread over each
/// tenant's kernels.
fn e4_kernel_delay(outcome: &Outcome) -> f64 {
    let WorkloadSpec::Tenants { iterations, .. } = artifact("e4a").grid.workload else {
        panic!("e4a replays the tenant drop");
    };
    outcome.stats.mean_phase_wait_secs() / f64::from(iterations)
}

#[test]
fn e4_more_vqpus_cut_job_waits_and_makespan() {
    let rows = e4_count_rows();
    let (first, last) = (rows[0].1, rows[rows.len() - 1].1);
    assert!(
        last.stats.mean_wait_secs() < first.stats.mean_wait_secs(),
        "job wait must fall with more VQPUs ({} vs {})",
        first.stats.mean_wait_secs(),
        last.stats.mean_wait_secs()
    );
    assert!(
        last.makespan < first.makespan,
        "makespan must fall with more VQPUs ({} vs {})",
        first.makespan,
        last.makespan
    );
}

#[test]
fn e4_kernel_delay_grows_but_stays_bounded() {
    let rows = e4_count_rows();
    let (first, (last_vqpus, last)) = (rows[0].1, rows[rows.len() - 1]);
    assert!(
        e4_kernel_delay(last) >= e4_kernel_delay(first),
        "co-tenancy must add interleaving delay"
    );
    // The paper's bound: delays limited by the co-tenant count. With n
    // tenants interleaving kernels of mean t_k, a kernel waits at most
    // (n−1)·t_k (plus jitter).
    let kernel_mean = 2.2; // ≈ setup 2 s + 1000 × 200 µs
    let bound = f64::from(last_vqpus - 1) * kernel_mean * 2.0;
    assert!(
        e4_kernel_delay(last) <= bound,
        "kernel delay {} exceeds the VQPU bound {bound}",
        e4_kernel_delay(last)
    );
}

#[test]
fn e4_device_utilization_rises_with_sharing() {
    let rows = e4_count_rows();
    let (first, last) = (rows[0].1, rows[rows.len() - 1].1);
    assert!(last.mean_device_utilization() >= first.mean_device_utilization() * 0.99);
}

/// E4b in prep order: `(co-schedule, vqpu)` outcomes per workload.
fn e4_caveat_rows() -> Vec<(&'static Outcome, &'static Outcome)> {
    let a = artifact("e4b");
    let on = |strategy: Strategy, k: usize| {
        &a.find(|c| c.strategy == strategy && c.workload == Some(k))
            .outcome
    };
    (0..a.grid.workloads.as_ref().map_or(1, Vec::len))
        .map(|k| {
            (
                on(Strategy::CoSchedule, k),
                on(Strategy::Vqpu { vqpus: 4 }, k),
            )
        })
        .collect()
}

#[test]
fn e4_interleaving_gains_collapse_when_quantum_dominates() {
    let speedup =
        |(co, vq): &(&Outcome, &Outcome)| co.makespan.as_secs_f64() / vq.makespan.as_secs_f64();
    let rows = e4_caveat_rows();
    let short_prep = speedup(&rows[0]); // prep ≪ kernel
    let long_prep = speedup(&rows[rows.len() - 1]); // prep ≫ kernel
    assert!(
        long_prep > short_prep,
        "speedup must grow with classical share ({short_prep:.2} vs {long_prep:.2})"
    );
    // When the QPU saturates, interleaving's speedup is capped at
    // (t_c + t_q)/t_q regardless of tenant count — with prep ≈ kernel
    // that is ≈ 2×, far under the tenant-count-bound 4× of the
    // classical-dominated regime.
    assert!(
        short_prep < 2.2,
        "with quantum-dominated phases the gain must be capped near (t_c+t_q)/t_q, got {short_prep:.2}×"
    );
    assert!(
        long_prep > 2.5,
        "with classical-dominated phases interleaving should approach the tenant bound, got {long_prep:.2}×"
    );
}

#[test]
fn e4_vqpus_raise_device_utilization() {
    // Interleaving beats serialized exclusive holds on makespan and keeps
    // the device at least as busy.
    for (cosched, vqpu) in e4_caveat_rows() {
        assert!(
            vqpu.makespan < cosched.makespan,
            "interleaving must beat serialized exclusive holds ({} vs {})",
            vqpu.makespan,
            cosched.makespan
        );
        assert!(vqpu.mean_device_utilization() >= cosched.mean_device_utilization() * 0.99);
    }
}

// --- E5 — Fig. 4: malleability on a neutral-atom facility ----------------

#[test]
fn e5_malleability_slashes_hybrid_node_waste() {
    let a = artifact("e5");
    let cosched = a.by_strategy(Strategy::CoSchedule);
    let malleable = a.by_strategy(Strategy::Malleable { min_nodes: 1 });
    let hybrid_waste = |o: &Outcome| o.stats.hybrid_only().total_node_hours_wasted();
    assert!(
        hybrid_waste(malleable) < 0.5 * hybrid_waste(cosched),
        "malleable hybrid waste {:.2} must be well under co-schedule's {:.2}",
        hybrid_waste(malleable),
        hybrid_waste(cosched)
    );
}

#[test]
fn e5_malleability_cuts_waste_without_requeueing() {
    let a = artifact("e5");
    let cosched = a.by_strategy(Strategy::CoSchedule);
    let malleable = a.by_strategy(Strategy::Malleable { min_nodes: 1 });
    let waste = |o: &Outcome| o.stats.total_node_hours_wasted();
    assert!(
        waste(malleable) < 0.25 * waste(cosched),
        "malleable waste {:.2} vs co-schedule {:.2}",
        waste(malleable),
        waste(cosched)
    );
    // Single-job semantics: hybrid turnaround does not balloon.
    let turnaround = |o: &Outcome| o.stats.hybrid_only().mean_turnaround_secs();
    assert!(
        turnaround(malleable) <= turnaround(cosched) * 1.05,
        "malleability must not slow the hybrid jobs ({:.0}s vs {:.0}s)",
        turnaround(malleable),
        turnaround(cosched)
    );
}

#[test]
fn e5_released_nodes_help_background_jobs() {
    let a = artifact("e5");
    let wait = |o: &Outcome| o.stats.classical_only().mean_wait_secs();
    let cosched = wait(a.by_strategy(Strategy::CoSchedule));
    let malleable = wait(a.by_strategy(Strategy::Malleable { min_nodes: 1 }));
    assert!(
        malleable <= cosched,
        "malleability must not worsen background waits ({cosched} vs {malleable})"
    );
}

#[test]
fn e5_malleable_avoids_workflow_requeueing() {
    // Fig. 4's pitch: "a single job rather than a sequence of tasks,
    // avoiding repeated queuing" — so hybrid turnaround under
    // malleability must not exceed the workflow's.
    let a = artifact("e5");
    let turnaround = |o: &Outcome| o.stats.hybrid_only().mean_turnaround_secs();
    let workflow = turnaround(a.by_strategy(Strategy::Workflow));
    let malleable = turnaround(a.by_strategy(Strategy::Malleable { min_nodes: 1 }));
    assert!(
        malleable <= workflow * 1.05,
        "malleable {malleable:.0}s vs workflow {workflow:.0}s"
    );
}

#[test]
fn e5_every_strategy_completes_the_campaign() {
    let a = artifact("e5");
    assert_eq!(a.sweep.len(), Strategy::representative_set().len());
    for r in a.sweep.results() {
        assert!(r.outcome.makespan.as_secs_f64() > 0.0);
        assert!(r.outcome.node_waste.used_fraction > 0.0);
        assert_eq!(r.outcome.stats.failed_count(), 0, "{}", r.cell.strategy);
    }
}

// --- E6 — §4: strategy crossover map --------------------------------------

/// One (technology × load) point of the crossover map.
struct E6Point {
    technology: Technology,
    load_per_hour: f64,
    /// `(strategy, combined utilization, hybrid turnaround)` in grid order.
    entries: Vec<(Strategy, f64, f64)>,
}

impl E6Point {
    fn utilization_winner(&self) -> Strategy {
        let best = self.entries.iter().max_by(|a, b| a.1.total_cmp(&b.1));
        best.expect("non-empty").0
    }

    fn turnaround_winner(&self) -> Strategy {
        let best = self.entries.iter().min_by(|a, b| a.2.total_cmp(&b.2));
        best.expect("non-empty").0
    }

    fn entry(&self, strategy: Strategy) -> &(Strategy, f64, f64) {
        let found = self.entries.iter().find(|(s, _, _)| *s == strategy);
        found.expect("every strategy ran")
    }
}

fn e6_points() -> Vec<E6Point> {
    let a = artifact("e6");
    let mut points = Vec::new();
    for &technology in &a.grid.technologies {
        for &load_per_hour in &a.grid.loads_per_hour {
            let entries = a
                .grid
                .strategies
                .iter()
                .map(|&strategy| {
                    let outcome = &a
                        .find(|c| {
                            c.technology == technology
                                && c.load_per_hour == load_per_hour
                                && c.strategy == strategy
                        })
                        .outcome;
                    (
                        strategy,
                        outcome.combined_utilization(),
                        outcome.stats.hybrid_only().mean_turnaround_secs(),
                    )
                })
                .collect();
            points.push(E6Point {
                technology,
                load_per_hour,
                entries,
            });
        }
    }
    points
}

#[test]
fn e6_coschedule_never_wins_utilization() {
    // The paper's thesis: "simple co-scheduling with exclusive QPU
    // access is inadequate for achieving optimal resource utilization".
    for point in e6_points() {
        assert_ne!(
            point.utilization_winner(),
            Strategy::CoSchedule,
            "co-scheduling won utilization at {} load {}",
            point.technology,
            point.load_per_hour
        );
    }
}

#[test]
fn e6_sharing_beats_coscheduling_for_superconducting_turnaround() {
    for point in e6_points()
        .iter()
        .filter(|p| p.technology == Technology::Superconducting)
    {
        let cosched = point.entry(Strategy::CoSchedule).2;
        let vqpu = point.entry(Strategy::Vqpu { vqpus: 4 }).2;
        assert!(
            vqpu <= cosched * 1.2,
            "vqpu turnaround {vqpu:.0}s should not trail co-scheduling's {cosched:.0}s"
        );
    }
}

#[test]
fn e6_winners_differ_across_the_grid() {
    // Complementarity: no strategy sweeps every point on both criteria.
    let points = e6_points();
    let util: BTreeSet<String> = points
        .iter()
        .map(|p| p.utilization_winner().to_string())
        .collect();
    let turnaround: BTreeSet<String> = points
        .iter()
        .map(|p| p.turnaround_winner().to_string())
        .collect();
    assert!(
        util.len() + turnaround.len() > 2,
        "a single strategy dominated everywhere — contradicts §4 ({util:?}, {turnaround:?})"
    );
}

#[test]
fn e6_grid_complete() {
    let a = artifact("e6");
    let points = e6_points();
    assert_eq!(
        points.len(),
        a.grid.technologies.len() * a.grid.loads_per_hour.len()
    );
    for point in &points {
        assert_eq!(point.entries.len(), 4);
    }
}

// --- E7 — §3: access-model overhead per kernel ----------------------------

/// Per-kernel `(kernel seconds, access overhead seconds)` of an E7 cell.
///
/// The lone job's runtime tiles into its classical steps, device queue
/// waits (recalibration included), kernel execution and access overhead,
/// so the overhead is what remains after the other three.
fn e7_per_kernel(technology: Technology, access: AccessSpec) -> (f64, f64) {
    let a = artifact("e7");
    let WorkloadSpec::Listing1 {
        iterations,
        classical_secs,
        ..
    } = a.grid.workload
    else {
        panic!("e7 replays one Listing-1 loop");
    };
    let cell = a.find(|c| c.technology == technology && c.access == access);
    let record = &cell.outcome.stats.records()[0];
    let kernels = f64::from(iterations);
    let classical = kernels * classical_secs as f64;
    let overhead = record.runtime().as_secs_f64()
        - classical
        - record.qpu_seconds_used
        - record.phase_wait.as_secs_f64();
    (record.qpu_seconds_used / kernels, overhead / kernels)
}

fn e7_cloud_share(technology: Technology) -> f64 {
    let (kernel, overhead) = e7_per_kernel(technology, AccessSpec::Cloud);
    overhead / (overhead + kernel)
}

#[test]
fn e7_on_prem_kernels_pay_no_access_overhead() {
    // The control row: the runtime decomposition leaves nothing over.
    for technology in Technology::ALL {
        let (kernel, overhead) = e7_per_kernel(technology, AccessSpec::OnPrem);
        assert!(kernel > 0.0, "{technology}");
        assert!(overhead.abs() < 1e-6, "{technology}: residual {overhead}");
    }
}

#[test]
fn e7_cloud_overhead_dominates_short_kernels() {
    let share = e7_cloud_share(Technology::Superconducting);
    assert!(
        share > 0.5,
        "cloud overhead must dominate short superconducting kernels, share {share:.2}"
    );
}

#[test]
fn e7_cloud_overhead_negligible_for_neutral_atoms() {
    let share = e7_cloud_share(Technology::NeutralAtom);
    assert!(
        share < 0.4,
        "half-hour neutral-atom jobs must dwarf the access path, share {share:.2}"
    );
}

#[test]
fn e7_integrated_path_is_orders_cheaper() {
    for technology in Technology::ALL {
        let (_, cloud) = e7_per_kernel(technology, AccessSpec::Cloud);
        let (_, integrated) = e7_per_kernel(technology, AccessSpec::Integrated);
        assert!(
            cloud / integrated.max(1e-9) > 100.0,
            "{technology}: cloud {cloud} vs integrated {integrated}"
        );
    }
}

// --- A1 — ablation: scheduler policy × strategy ---------------------------

fn a1_outcome(policy: PolicySpec, strategy: Strategy) -> &'static Outcome {
    let a = artifact("a1");
    &a.find(|c| c.policy == policy && c.strategy == strategy)
        .outcome
}

#[test]
fn a1_backfilling_cuts_waits() {
    for strategy in [Strategy::CoSchedule, Strategy::Workflow] {
        let fcfs = a1_outcome(PolicySpec::fcfs(), strategy)
            .stats
            .mean_wait_secs();
        let easy = a1_outcome(PolicySpec::easy(), strategy)
            .stats
            .mean_wait_secs();
        assert!(
            easy <= fcfs + 1.0,
            "{strategy}: EASY wait {easy:.0}s must not exceed FCFS {fcfs:.0}s"
        );
    }
}

#[test]
fn a1_backfilling_does_not_hurt_workflow_hybrids() {
    // The workflow strategy queues once per step, so the FCFS→EASY change
    // on hybrid turnaround must not be a material loss.
    let turnaround = |policy| {
        a1_outcome(policy, Strategy::Workflow)
            .stats
            .hybrid_only()
            .mean_turnaround_secs()
    };
    let gain = turnaround(PolicySpec::fcfs()) - turnaround(PolicySpec::easy());
    assert!(
        gain >= -60.0,
        "backfilling should not hurt workflow hybrids materially, gain {gain:.0}s"
    );
}

#[test]
fn a1_all_cells_complete() {
    let a = artifact("a1");
    assert_eq!(a.sweep.len(), 6);
    for r in a.sweep.results() {
        assert!(r.outcome.makespan.as_secs_f64() > 0.0);
        assert_eq!(r.outcome.stats.failed_count(), 0);
    }
}

// --- A2 — ablation: walltime-request accuracy -----------------------------

/// A2 cells in margin order: `(margin, failed jobs)`.
fn a2_rows() -> Vec<(f64, usize)> {
    let a = artifact("a2");
    a.sweep
        .results()
        .iter()
        .map(|r| match *a.grid.workload_of(&r.cell) {
            WorkloadSpec::LoadedFacility {
                bg_walltime_margin: Some(margin),
                ..
            } => (margin, r.outcome.stats.failed_count()),
            _ => panic!("a2 sweeps the background walltime margin"),
        })
        .collect()
}

#[test]
fn a2_under_requesting_kills_jobs() {
    let rows = a2_rows();
    let tight = rows.iter().find(|(m, _)| *m < 1.0).expect("a tight margin");
    let generous = rows
        .iter()
        .find(|(m, _)| *m >= 1.5)
        .expect("a generous margin");
    assert!(
        tight.1 > 0,
        "margin {:.2} must kill some jobs (runtime > walltime)",
        tight.0
    );
    assert_eq!(generous.1, 0, "generous walltimes must never kill");
}

#[test]
fn a2_failures_monotone_nonincreasing_in_margin() {
    let fails: Vec<usize> = a2_rows().iter().map(|&(_, failed)| failed).collect();
    assert!(
        fails.windows(2).all(|w| w[0] >= w[1]),
        "failures {fails:?} not monotone"
    );
}

// --- A3 — ablation: the malleable retention floor -------------------------

/// A3 outcomes in floor order.
fn a3_rows() -> Vec<&'static Outcome> {
    artifact("a3")
        .sweep
        .results()
        .iter()
        .map(|r| &r.outcome)
        .collect()
}

#[test]
fn a3_waste_grows_with_retention_floor() {
    let wastes: Vec<f64> = a3_rows()
        .iter()
        .map(|o| o.stats.hybrid_only().total_node_hours_wasted())
        .collect();
    assert!(
        wastes.windows(2).all(|w| w[0] <= w[1] + 1e-9),
        "waste {wastes:?} must grow with min_nodes"
    );
    // Full retention (min = job size) equals co-scheduling on the node
    // side, so the first/last gap must be substantial.
    assert!(wastes[wastes.len() - 1] > wastes[0] * 2.0);
}

#[test]
fn a3_floor_one_keeps_background_fastest() {
    let rows = a3_rows();
    let wait = |o: &Outcome| o.stats.classical_only().mean_wait_secs();
    let (first, last) = (wait(rows[0]), wait(rows[rows.len() - 1]));
    assert!(
        first <= last + 1.0,
        "min=1 must not slow background vs full retention ({first} vs {last})"
    );
}

#[test]
fn a3_all_floors_complete() {
    for outcome in a3_rows() {
        assert!(outcome.stats.hybrid_only().mean_turnaround_secs() > 0.0);
    }
}
