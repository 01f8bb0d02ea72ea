//! Declarative workload specifications and the shared job constructors.
//!
//! A [`WorkloadSpec`] describes the jobs every grid cell replays *as data*
//! (so a whole sweep serializes to JSON); [`WorkloadSpec::build`]
//! materializes it for a cell's `(load, seed)` pair. The constructors at
//! the bottom are the deterministic building blocks the paper experiments
//! share — constant classical phase durations so sweeps vary exactly one
//! thing at a time, stochastic elements (device timing, background
//! arrivals) seeded.

use hpcqc_gen::GeneratorSpec;
use hpcqc_qpu::kernel::Kernel;
use hpcqc_simcore::dist::Dist;
use hpcqc_simcore::rng::SimRng;
use hpcqc_simcore::time::{SimDuration, SimTime};
use hpcqc_workload::arrival::ArrivalProcess;
use hpcqc_workload::campaign::Workload;
use hpcqc_workload::job::{JobSpec, Phase};
use serde::{Deserialize, Serialize};

/// What every cell of a grid runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's Listing-1 shape: one heterogeneous VQE job. Ignores the
    /// cell's load axis (there is no background traffic).
    Listing1 {
        /// Classical nodes held by the job.
        nodes: u32,
        /// Hybrid-loop iterations (classical step → kernel).
        iterations: u32,
        /// Classical seconds per iteration.
        classical_secs: u64,
        /// Shots per kernel.
        shots: u32,
        /// Requested walltime, hours.
        walltime_hours: u64,
    },
    /// A loaded facility: Poisson background jobs at the cell's
    /// `load_per_hour` plus staggered hybrid VQE jobs.
    LoadedFacility {
        /// Background classical jobs.
        background: usize,
        /// Background node range, low end.
        bg_nodes_lo: u32,
        /// Background node range, high end.
        bg_nodes_hi: u32,
        /// Background mean runtime, seconds (log-normal).
        bg_mean_secs: f64,
        /// Hybrid jobs.
        hybrid_jobs: u32,
        /// Nodes per hybrid job.
        hybrid_nodes: u32,
        /// Iterations per hybrid job.
        iterations: u32,
        /// Classical seconds per iteration.
        classical_secs: u64,
        /// Shots per kernel.
        shots: u32,
        /// Submit time of the first hybrid job, seconds.
        first_submit_secs: u64,
        /// Gap between successive hybrid submits, seconds.
        stagger_secs: u64,
        /// Hybrid requested walltime, hours.
        hybrid_walltime_hours: u64,
        /// Background requested walltime as a multiple of each job's true
        /// runtime (at least 60 s). Absent: twice the runtime, at least
        /// 10 min.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        bg_walltime_margin: Option<f64>,
    },
    /// `count` identical hybrid tenants arriving together at t=0 (the
    /// Fig. 3 multitenancy drop; see [`tenant_jobs`]). Ignores the cell's
    /// load axis.
    Tenants {
        /// Tenant jobs.
        count: u32,
        /// Nodes per tenant.
        nodes: u32,
        /// Iterations per tenant loop.
        iterations: u32,
        /// Classical seconds per iteration.
        classical_secs: u64,
        /// Shots per kernel.
        shots: u32,
    },
    /// A synthetic facility from an `hpcqc-gen` [`GeneratorSpec`] — the
    /// generator axis of a grid. The cell's `load_per_hour` axis value,
    /// when positive, **overrides** the spec's base campaign-arrival rate,
    /// so one grid sweeps the same facility across load levels; the
    /// cell's replica seed drives generation (common random numbers
    /// across compared cells, as for every other workload kind).
    Generated {
        /// The facility description.
        spec: GeneratorSpec,
        /// Hard ceiling on materialized jobs per cell, protecting sweeps
        /// from month-scale horizons (0 = no extra cap beyond the spec's
        /// own horizon).
        max_jobs: u64,
    },
}

impl WorkloadSpec {
    /// The Listing-1 single-job default (the paper's worked example:
    /// 10 nodes, 6 iterations pacing out one hour on a superconducting
    /// device).
    pub fn listing1() -> Self {
        WorkloadSpec::Listing1 {
            nodes: 10,
            iterations: 6,
            classical_secs: 590,
            shots: 1_000,
            walltime_hours: 1,
        }
    }

    /// Checks a (possibly deserialized) workload for shapes that would
    /// panic or wrap inside a sweep worker at any of `loads_per_hour`: an
    /// empty or inverted background node range, a non-positive or
    /// non-finite background mean runtime or walltime margin, or a
    /// generator spec that [`GeneratorSpec::validate`] rejects once the
    /// cell's load overrides its arrival rate.
    ///
    /// # Errors
    ///
    /// A message naming the first offending field.
    pub fn validate(&self, loads_per_hour: &[f64]) -> Result<(), String> {
        match *self {
            WorkloadSpec::LoadedFacility {
                bg_nodes_lo,
                bg_nodes_hi,
                bg_mean_secs,
                bg_walltime_margin,
                ..
            } => {
                if bg_nodes_lo == 0 || bg_nodes_lo > bg_nodes_hi {
                    return Err(format!(
                        "background node range {bg_nodes_lo}..={bg_nodes_hi} must satisfy \
                         1 <= bg_nodes_lo <= bg_nodes_hi"
                    ));
                }
                let positive = |v: f64| v.is_finite() && v > 0.0;
                if !positive(bg_mean_secs) {
                    return Err(format!(
                        "bg_mean_secs {bg_mean_secs} must be finite and positive"
                    ));
                }
                match bg_walltime_margin {
                    Some(margin) if !positive(margin) => Err(format!(
                        "bg_walltime_margin {margin} must be finite and positive"
                    )),
                    _ => Ok(()),
                }
            }
            WorkloadSpec::Generated { ref spec, .. } => loads_per_hour
                .iter()
                .try_for_each(|&load| Self::generator_at(spec, load).validate()),
            WorkloadSpec::Listing1 { .. } | WorkloadSpec::Tenants { .. } => Ok(()),
        }
    }

    /// The generator spec a cell streams: `spec`, with the cell's load in
    /// place of its base arrival rate when the load is positive.
    fn generator_at(spec: &GeneratorSpec, load_per_hour: f64) -> GeneratorSpec {
        let mut spec = spec.clone();
        if load_per_hour > 0.0 {
            spec.arrival.base_per_hour = load_per_hour;
        }
        spec
    }

    /// Materializes the workload for one cell.
    ///
    /// `load_per_hour` is the cell's arrival-load axis value (unused by
    /// [`WorkloadSpec::Listing1`]); `seed` should be the cell's
    /// common-random-numbers replica seed so compared cells replay
    /// identical jobs.
    pub fn build(&self, load_per_hour: f64, seed: u64) -> Workload {
        match *self {
            WorkloadSpec::Generated { ref spec, max_jobs } => {
                let stream = Self::generator_at(spec, load_per_hour).stream(seed);
                let jobs: Vec<JobSpec> = if max_jobs > 0 {
                    stream.take(max_jobs as usize).collect()
                } else {
                    stream.collect()
                };
                Workload::from_jobs(jobs)
            }
            WorkloadSpec::Listing1 {
                nodes,
                iterations,
                classical_secs,
                shots,
                walltime_hours,
            } => Workload::from_jobs(vec![vqe_job(
                "listing1",
                nodes,
                iterations,
                classical_secs,
                shots,
                SimTime::ZERO,
                SimDuration::from_hours(walltime_hours),
            )]),
            WorkloadSpec::LoadedFacility {
                background,
                bg_nodes_lo,
                bg_nodes_hi,
                bg_mean_secs,
                hybrid_jobs,
                hybrid_nodes,
                iterations,
                classical_secs,
                shots,
                first_submit_secs,
                stagger_secs,
                hybrid_walltime_hours,
                bg_walltime_margin,
            } => {
                let mut jobs = background_jobs(
                    background,
                    bg_nodes_lo,
                    bg_nodes_hi,
                    bg_mean_secs,
                    load_per_hour,
                    seed,
                    bg_walltime_margin,
                );
                for i in 0..hybrid_jobs {
                    jobs.push(vqe_job(
                        &format!("hyb-{i}"),
                        hybrid_nodes,
                        iterations,
                        classical_secs,
                        shots,
                        SimTime::from_secs(first_submit_secs + u64::from(i) * stagger_secs),
                        SimDuration::from_hours(hybrid_walltime_hours),
                    ));
                }
                Workload::from_jobs(jobs)
            }
            WorkloadSpec::Tenants {
                count,
                nodes,
                iterations,
                classical_secs,
                shots,
            } => Workload::from_jobs(tenant_jobs(count, nodes, iterations, classical_secs, shots)),
        }
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::listing1()
    }
}

/// A deterministic VQE-style hybrid job:
/// `iters × (classical_secs of classical work → one kernel of `shots`)`.
pub fn vqe_job(
    name: &str,
    nodes: u32,
    iters: u32,
    classical_secs: u64,
    shots: u32,
    submit: SimTime,
    walltime: SimDuration,
) -> JobSpec {
    let kernel = Kernel::builder(format!("{name}-k"))
        .qubits(12)
        .depth(64)
        .shots(shots)
        .build()
        .expect("valid kernel");
    let mut phases = Vec::with_capacity(2 * iters as usize);
    for _ in 0..iters {
        phases.push(Phase::Classical(SimDuration::from_secs(classical_secs)));
        phases.push(Phase::Quantum(kernel.clone()));
    }
    JobSpec::builder(name)
        .nodes(nodes)
        .submit(submit)
        .walltime(walltime)
        .phases(phases)
        .build()
}

/// Poisson-arriving classical background jobs that keep a facility busy:
/// `count` jobs, log-normal runtimes around `mean_secs`, `nodes_lo..=nodes_hi`
/// nodes each, arriving at `per_hour`. Each requests `walltime_margin` ×
/// its true runtime (at least 60 s), or, without a margin, twice its
/// runtime (at least 10 min).
pub fn background_jobs(
    count: usize,
    nodes_lo: u32,
    nodes_hi: u32,
    mean_secs: f64,
    per_hour: f64,
    seed: u64,
    walltime_margin: Option<f64>,
) -> Vec<JobSpec> {
    let root = SimRng::seed_from(seed);
    let mut arrival_rng = root.fork("bg-arrivals");
    let arrivals =
        ArrivalProcess::poisson_per_hour(per_hour).generate(count, SimTime::ZERO, &mut arrival_rng);
    let runtime = Dist::log_normal_mean_cv(mean_secs, 0.8).clamped(60.0, mean_secs * 6.0);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, submit)| {
            let mut rng = root.fork_indexed("bg-job", i as u64);
            let nodes = nodes_lo + rng.below(u64::from(nodes_hi - nodes_lo + 1)) as u32;
            let secs = runtime.sample_duration(&mut rng);
            let walltime = match walltime_margin {
                Some(margin) => SimDuration::from_secs_f64((secs.as_secs_f64() * margin).max(60.0)),
                None => (secs * 2).max_of(SimDuration::from_mins(10)),
            };
            JobSpec::builder(format!("bg-{i}"))
                .user(format!("bg-user-{}", i % 4))
                .nodes(nodes)
                .submit(submit)
                .walltime(walltime)
                .phases(vec![Phase::Classical(secs)])
                .build()
        })
        .collect()
}

/// `count` identical hybrid tenants (VQE loops) arriving together at t=0 —
/// the Fig. 3 multitenancy drop.
pub fn tenant_jobs(
    count: u32,
    nodes: u32,
    iters: u32,
    classical_secs: u64,
    shots: u32,
) -> Vec<JobSpec> {
    (0..count)
        .map(|i| {
            vqe_job(
                &format!("tenant-{i}"),
                nodes,
                iters,
                classical_secs,
                shots,
                SimTime::ZERO,
                SimDuration::from_hours(12),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_builds_one_hybrid_job() {
        let w = WorkloadSpec::listing1().build(99.0, 7);
        assert_eq!(w.len(), 1);
        assert_eq!(w.hybrid_count(), 1);
    }

    #[test]
    fn loaded_facility_builds_background_plus_hybrids() {
        let spec = WorkloadSpec::LoadedFacility {
            background: 10,
            bg_nodes_lo: 2,
            bg_nodes_hi: 8,
            bg_mean_secs: 1_500.0,
            hybrid_jobs: 3,
            hybrid_nodes: 6,
            iterations: 4,
            classical_secs: 300,
            shots: 1_000,
            first_submit_secs: 600,
            stagger_secs: 300,
            hybrid_walltime_hours: 48,
            bg_walltime_margin: None,
        };
        let w = spec.build(6.0, 42);
        assert_eq!(w.len(), 13);
        assert_eq!(w.hybrid_count(), 3);
        // Deterministic in (load, seed).
        assert_eq!(w, spec.build(6.0, 42));
        assert_ne!(w, spec.build(9.0, 42));
    }

    #[test]
    fn vqe_job_shape() {
        let j = vqe_job(
            "v",
            4,
            5,
            60,
            1_000,
            SimTime::ZERO,
            SimDuration::from_hours(1),
        );
        assert_eq!(j.quantum_phase_count(), 5);
        assert_eq!(j.total_classical(), SimDuration::from_secs(300));
        assert_eq!(j.qpu_count(), 1);
    }

    #[test]
    fn background_jobs_deterministic_and_bounded() {
        let a = background_jobs(50, 2, 8, 1_800.0, 20.0, 9, None);
        let b = background_jobs(50, 2, 8, 1_800.0, 20.0, 9, None);
        assert_eq!(a, b);
        for j in &a {
            assert!((2..=8).contains(&j.nodes()));
            assert!(j.total_classical() >= SimDuration::from_secs(60));
            assert!(!j.is_hybrid());
        }
    }

    #[test]
    fn generated_spec_builds_deterministically() {
        let spec = WorkloadSpec::Generated {
            spec: GeneratorSpec::dev_facility(),
            max_jobs: 60,
        };
        let w = spec.build(0.0, 42);
        assert_eq!(w.len(), 60);
        assert_eq!(w, spec.build(0.0, 42), "same (load, seed) → same workload");
        assert_ne!(w, spec.build(0.0, 43), "seed must matter");
    }

    #[test]
    fn generated_spec_load_axis_overrides_rate() {
        let spec = WorkloadSpec::Generated {
            spec: GeneratorSpec::dev_facility(),
            max_jobs: 120,
        };
        // Higher load axis → same job count squeezed into less time.
        let relaxed = spec.build(5.0, 7).last_submit();
        let loaded = spec.build(500.0, 7).last_submit();
        assert!(
            loaded < relaxed,
            "500/h should compress arrivals vs 5/h ({loaded} vs {relaxed})"
        );
    }

    #[test]
    fn generated_spec_serde_roundtrip() {
        let spec = WorkloadSpec::Generated {
            spec: GeneratorSpec::dev_facility(),
            max_jobs: 10,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn tenants_spec_builds_the_tenant_drop() {
        let spec = WorkloadSpec::Tenants {
            count: 3,
            nodes: 2,
            iterations: 4,
            classical_secs: 30,
            shots: 500,
        };
        let w = spec.build(99.0, 7);
        assert_eq!(w, Workload::from_jobs(tenant_jobs(3, 2, 4, 30, 500)));
        assert_eq!(w, spec.build(0.0, 8), "load and seed are ignored");
    }

    #[test]
    fn walltime_margin_restamps_background_jobs() {
        let default = background_jobs(20, 2, 8, 900.0, 10.0, 3, None);
        let tight = background_jobs(20, 2, 8, 900.0, 10.0, 3, Some(0.5));
        for (d, t) in default.iter().zip(&tight) {
            let runtime = d.total_classical();
            assert_eq!(
                d.walltime(),
                (runtime * 2).max_of(SimDuration::from_mins(10))
            );
            let expected = (runtime.as_secs_f64() * 0.5).max(60.0);
            assert_eq!(t.walltime(), SimDuration::from_secs_f64(expected));
            // Only the request changes.
            assert_eq!(
                (t.submit(), t.nodes(), runtime),
                (d.submit(), d.nodes(), t.total_classical())
            );
        }
    }

    #[test]
    fn tenants_arrive_together() {
        let t = tenant_jobs(4, 2, 3, 30, 500);
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|j| j.submit() == SimTime::ZERO));
        assert!(t.iter().all(|j| j.is_hybrid()));
    }
}
