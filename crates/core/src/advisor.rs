//! The strategy advisor: the paper's §4 decision guidance as code.
//!
//! The paper argues no one-size-fits-all solution exists; the right
//! strategy depends on the *direction of workload imbalance*, which is set
//! by the quantum technology's time scales relative to the classical phases
//! and the facility's queue waits:
//!
//! * quantum phases **much shorter** than classical ones (and than queue
//!   waits) → **virtual QPUs**: interleaving is nearly free, co-scheduling
//!   would starve the QPU, workflows would drown in queue time;
//! * quantum phases **comparable to or longer** than queue waits
//!   (neutral-atom scale) → **workflows**: holding idle classical nodes for
//!   half an hour dwarfs one more queue pass;
//! * **both phases short** relative to queue waits → **malleability**:
//!   avoids both re-queueing and long exclusive holds;
//! * plain co-scheduling is only acceptable when the QPU is essentially
//!   never idle inside the job — which the paper argues is rare today.

use crate::strategy::Strategy;
use hpcqc_simcore::time::SimDuration;
use serde::{Deserialize, Serialize};

/// The workload/facility profile the advisor reasons over.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Typical duration of one quantum phase (kernel incl. device
    /// overheads), seconds.
    pub quantum_phase_secs: f64,
    /// Typical duration of one classical phase, seconds.
    pub classical_phase_secs: f64,
    /// Typical batch-queue wait at this facility, seconds.
    pub queue_wait_secs: f64,
    /// Hybrid jobs expected to share a QPU concurrently.
    pub concurrent_hybrid_jobs: u32,
}

impl WorkloadProfile {
    /// Convenience constructor.
    pub fn new(quantum_phase_secs: f64, classical_phase_secs: f64, queue_wait_secs: f64) -> Self {
        WorkloadProfile {
            quantum_phase_secs,
            classical_phase_secs,
            queue_wait_secs,
            concurrent_hybrid_jobs: 4,
        }
    }
}

/// A recommendation with its reasoning, for reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The advised strategy.
    pub strategy: Strategy,
    /// Why (one sentence, mirrors the paper's §4 prose).
    pub rationale: String,
}

/// Recommends an integration strategy for a workload profile.
///
/// # Examples
///
/// ```
/// use hpcqc_core::advisor::{recommend, WorkloadProfile};
/// use hpcqc_core::Strategy;
///
/// // Superconducting VQE: 10 s kernels inside 5 min classical steps.
/// let rec = recommend(&WorkloadProfile::new(10.0, 300.0, 600.0));
/// assert!(matches!(rec.strategy, Strategy::Vqpu { .. }));
///
/// // Neutral atoms: 30 min quantum jobs.
/// let rec = recommend(&WorkloadProfile::new(1_800.0, 300.0, 600.0));
/// assert_eq!(rec.strategy, Strategy::Workflow);
/// ```
pub fn recommend(profile: &WorkloadProfile) -> Recommendation {
    let q = profile.quantum_phase_secs.max(1e-9);
    let c = profile.classical_phase_secs.max(1e-9);
    let w = profile.queue_wait_secs.max(1e-9);

    // Fig. 3's caveat: interleaving only pays while quantum work is short
    // next to the classical work that prepares it.
    let interleaving_pays = q < 0.25 * c;
    // Fig. 2's caveat: a workflow step must outweigh its queue pass.
    let step_outweighs_queue = q > w;

    if interleaving_pays && q < w {
        Recommendation {
            strategy: Strategy::Vqpu {
                vqpus: profile.concurrent_hybrid_jobs.clamp(2, 16),
            },
            rationale: format!(
                "quantum phases (~{q:.0} s) are short next to classical phases (~{c:.0} s) \
                 and queue waits (~{w:.0} s): temporal interleaving on virtual QPUs keeps the \
                 physical QPU fed with minimal, bounded delays"
            ),
        }
    } else if step_outweighs_queue {
        Recommendation {
            strategy: Strategy::Workflow,
            rationale: format!(
                "quantum phases (~{q:.0} s) outweigh a queue pass (~{w:.0} s): scheduling each \
                 step independently frees classical nodes during long quantum work at an \
                 acceptable queueing overhead"
            ),
        }
    } else {
        Recommendation {
            strategy: Strategy::Malleable { min_nodes: 1 },
            rationale: format!(
                "both phases (~{c:.0} s classical, ~{q:.0} s quantum) are short against queue \
                 waits (~{w:.0} s): malleability avoids per-step re-queueing while releasing \
                 idle nodes during quantum work"
            ),
        }
    }
}

/// Estimates a facility's typical queue wait from its load factor using the
/// M/M/1 heuristic `wait ≈ ρ/(1−ρ) × service`, clamped to sane bounds.
///
/// A coarse tool for feeding [`recommend`] when no measured wait exists.
pub fn estimate_queue_wait(load_factor: f64, mean_job_secs: f64) -> SimDuration {
    let rho = load_factor.clamp(0.0, 0.99);
    SimDuration::from_secs_f64((rho / (1.0 - rho) * mean_job_secs).clamp(0.0, 7.0 * 86_400.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superconducting_loop_gets_vqpus() {
        // ~10 s kernels, minutes of classical work, 10 min queues.
        let rec = recommend(&WorkloadProfile::new(10.0, 300.0, 600.0));
        assert!(matches!(rec.strategy, Strategy::Vqpu { .. }));
        assert!(rec.rationale.contains("interleaving"));
    }

    #[test]
    fn neutral_atom_gets_workflow() {
        // 30 min quantum jobs vs 10 min queue waits.
        let rec = recommend(&WorkloadProfile::new(1_800.0, 300.0, 600.0));
        assert_eq!(rec.strategy, Strategy::Workflow);
    }

    #[test]
    fn short_phases_get_malleability() {
        // 60 s quantum, 60 s classical, 20 min queues: workflows would
        // drown in queueing, interleaving gains little (q ≈ c).
        let rec = recommend(&WorkloadProfile::new(60.0, 60.0, 1_200.0));
        assert!(matches!(rec.strategy, Strategy::Malleable { .. }));
    }

    #[test]
    fn paper_regimes_get_the_paper_guidance() {
        // §4 complementarity: the paper's three canonical regimes get
        // three different strategies.
        // Superconducting VQE: short kernels inside long classical steps.
        let vqe = recommend(&WorkloadProfile::new(10.0, 600.0, 900.0));
        assert!(matches!(vqe.strategy, Strategy::Vqpu { .. }), "{vqe:?}");
        // Neutral atoms: quantum outweighs a queue pass.
        let atoms = recommend(&WorkloadProfile::new(2_000.0, 600.0, 900.0));
        assert_eq!(atoms.strategy, Strategy::Workflow, "{atoms:?}");
        // Both phases short against queue waits.
        let short = recommend(&WorkloadProfile::new(50.0, 60.0, 1_200.0));
        assert!(
            matches!(short.strategy, Strategy::Malleable { .. }),
            "{short:?}"
        );
    }

    #[test]
    fn interleaving_needs_short_quantum_relative_to_classical() {
        // Quantum comparable to classical → Fig. 3 caveat bites, and with
        // q < w a workflow also loses → malleability.
        let rec = recommend(&WorkloadProfile::new(100.0, 120.0, 500.0));
        assert!(matches!(rec.strategy, Strategy::Malleable { .. }));
    }

    #[test]
    fn vqpu_count_tracks_tenancy() {
        let mut p = WorkloadProfile::new(5.0, 600.0, 900.0);
        p.concurrent_hybrid_jobs = 9;
        match recommend(&p).strategy {
            Strategy::Vqpu { vqpus } => assert_eq!(vqpus, 9),
            other => panic!("expected vqpu, got {other}"),
        }
    }

    #[test]
    fn queue_wait_estimate_grows_with_load() {
        let low = estimate_queue_wait(0.3, 3_600.0);
        let high = estimate_queue_wait(0.9, 3_600.0);
        assert!(high > low * 10);
        // Clamp keeps pathological loads finite.
        let extreme = estimate_queue_wait(1.5, 3_600.0);
        assert!(extreme <= SimDuration::from_hours(24 * 7));
    }
}
