//! Quantum hardware technologies and their characteristic time scales.
//!
//! This module encodes Fig. 1 of the paper — *"Time scales of relevant
//! quantum jobs/shots"* — as executable timing models. The paper's central
//! observation is that **quantum kernel durations are dictated by the QPU
//! technology, not by algorithmic complexity**: a superconducting task runs
//! in ~10 s while a neutral-atom job (which must calibrate an arbitrary
//! register geometry first) can exceed 30 min. That two-orders-of-magnitude
//! spread is what breaks naïve co-scheduling.
//!
//! Parameter provenance: the paper's Fig. 1 ranges plus the per-technology
//! physics it summarizes (gate/readout cadence for superconducting circuits,
//! ion shuttling for trapped ions, MOT reload and register-geometry
//! calibration for neutral atoms). Values are *ranges*, sampled per shot /
//! per task, because the experiments only depend on order-of-magnitude
//! contrasts, not vendor-exact constants.

use crate::timing::TimingModel;
use hpcqc_simcore::dist::Dist;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A quantum hardware technology, with Fig. 1-calibrated timing defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Technology {
    /// Transmon-style superconducting circuits: µs-scale shots, ~10 s tasks.
    Superconducting,
    /// Trapped ions: ms-scale shots, minutes-scale tasks.
    TrappedIon,
    /// Neutral atoms: seconds-scale shots and ≥ 30 min jobs once the
    /// register-geometry calibration the paper highlights is included.
    NeutralAtom,
    /// Photonic processors: very fast shots, seconds-scale tasks.
    Photonic,
    /// Semiconductor spin qubits: ms-scale shots, sub-minute tasks.
    SpinQubit,
}

impl Technology {
    /// All modelled technologies, in Fig. 1 display order.
    pub const ALL: [Technology; 5] = [
        Technology::Superconducting,
        Technology::TrappedIon,
        Technology::NeutralAtom,
        Technology::Photonic,
        Technology::SpinQubit,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Technology::Superconducting => "superconducting",
            Technology::TrappedIon => "trapped-ion",
            Technology::NeutralAtom => "neutral-atom",
            Technology::Photonic => "photonic",
            Technology::SpinQubit => "spin-qubit",
        }
    }

    /// The default timing model for this technology (Fig. 1 calibration).
    ///
    /// | technology      | shot        | task setup | register cal. | typical job |
    /// |-----------------|-------------|------------|---------------|-------------|
    /// | superconducting | 10 µs–1 ms  | ~2 s       | —             | ~10 s       |
    /// | trapped-ion     | 5–50 ms     | ~10 s      | —             | ~1–2 min    |
    /// | neutral-atom    | 0.5–5 s     | ~30 s      | 10–40 min     | > 30 min    |
    /// | photonic        | 1–100 µs    | ~1 s       | —             | ~a few s    |
    /// | spin-qubit      | 1–10 ms     | ~5 s       | —             | ~20 s       |
    pub fn timing(self) -> TimingModel {
        match self {
            Technology::Superconducting => TimingModel::new(
                // Per shot: gate sequence + µs-scale readout + reset.
                Dist::log_normal_mean_cv(200e-6, 0.8).clamped(10e-6, 1e-3),
                // Per task: compile, load, arm control electronics.
                Dist::log_normal_mean_cv(2.0, 0.3).clamped(0.5, 8.0),
            ),
            Technology::TrappedIon => TimingModel::new(
                Dist::log_normal_mean_cv(20e-3, 0.5).clamped(5e-3, 50e-3),
                Dist::log_normal_mean_cv(10.0, 0.3).clamped(2.0, 30.0),
            ),
            Technology::NeutralAtom => TimingModel::new(
                // Per shot: MOT reload, rearrangement, Rydberg pulse, imaging.
                Dist::log_normal_mean_cv(2.0, 0.4).clamped(0.5, 5.0),
                Dist::log_normal_mean_cv(30.0, 0.3).clamped(10.0, 90.0),
            )
            // The paper: "Jobs on neutral atoms machines include the
            // calibration time for an arbitrary register geometry."
            .with_register_calibration(
                Dist::log_normal_mean_cv(1_500.0, 0.3).clamped(600.0, 2_400.0),
            ),
            Technology::Photonic => TimingModel::new(
                Dist::log_normal_mean_cv(20e-6, 0.6).clamped(1e-6, 100e-6),
                Dist::log_normal_mean_cv(1.0, 0.3).clamped(0.2, 4.0),
            ),
            Technology::SpinQubit => TimingModel::new(
                Dist::log_normal_mean_cv(4e-3, 0.5).clamped(1e-3, 10e-3),
                Dist::log_normal_mean_cv(5.0, 0.3).clamped(1.0, 15.0),
            ),
        }
    }

    /// Typical qubit count of a current (NISQ-era) device of this kind.
    pub fn typical_qubits(self) -> u32 {
        match self {
            Technology::Superconducting => 127,
            Technology::TrappedIon => 32,
            Technology::NeutralAtom => 256,
            Technology::Photonic => 216,
            Technology::SpinQubit => 12,
        }
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of the Fig. 1 reproduction: per-technology time scales.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeScaleRow {
    /// The technology.
    pub technology: Technology,
    /// 5th percentile of a single-shot duration, seconds.
    pub shot_p05: f64,
    /// Median single-shot duration, seconds.
    pub shot_p50: f64,
    /// 95th percentile of a single-shot duration, seconds.
    pub shot_p95: f64,
    /// 5th percentile of a full job (setup + calibration + shots), seconds.
    pub job_p05: f64,
    /// Median full-job duration, seconds.
    pub job_p50: f64,
    /// 95th percentile of a full job, seconds.
    pub job_p95: f64,
}

/// Regenerates the data behind Fig. 1: samples shot and job durations for
/// every technology and reports their quantiles.
///
/// `shots_per_job` is the shot count of the reference kernel (the paper's
/// examples use ~10³) and `samples` the Monte-Carlo sample count per row.
///
/// # Examples
///
/// ```
/// use hpcqc_qpu::technology::{fig1_rows, Technology};
///
/// let rows = fig1_rows(1_000, 200, 7);
/// let sc = rows.iter().find(|r| r.technology == Technology::Superconducting).unwrap();
/// let na = rows.iter().find(|r| r.technology == Technology::NeutralAtom).unwrap();
/// // The paper's contrast: superconducting ~10 s vs neutral atom > 30 min.
/// assert!(sc.job_p50 < 60.0);
/// assert!(na.job_p50 > 30.0 * 60.0);
/// ```
pub fn fig1_rows(shots_per_job: u32, samples: u32, seed: u64) -> Vec<TimeScaleRow> {
    use hpcqc_simcore::rng::SimRng;
    use hpcqc_simcore::stats::Samples;

    let root = SimRng::seed_from(seed);
    Technology::ALL
        .iter()
        .map(|&tech| {
            let mut rng = root.fork(tech.name());
            let timing = tech.timing();
            let mut shot = Samples::new();
            let mut job = Samples::new();
            for _ in 0..samples {
                shot.record(timing.shot().sample(&mut rng));
                job.record(timing.sample_job_secs(shots_per_job, &mut rng));
            }
            // An empty sample set (samples == 0) degrades to zeroed rows
            // rather than panicking; callers always pass samples >= 1.
            let q = |s: &mut Samples, p: f64| s.quantile(p).unwrap_or_default();
            TimeScaleRow {
                technology: tech,
                shot_p05: q(&mut shot, 0.05),
                shot_p50: q(&mut shot, 0.50),
                shot_p95: q(&mut shot, 0.95),
                job_p05: q(&mut job, 0.05),
                job_p50: q(&mut job, 0.50),
                job_p95: q(&mut job, 0.95),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_simcore::rng::SimRng;

    #[test]
    fn names_and_display() {
        assert_eq!(Technology::Superconducting.to_string(), "superconducting");
        assert_eq!(Technology::ALL.len(), 5);
    }

    #[test]
    fn superconducting_task_near_ten_seconds() {
        // §3 of the paper: "for a superconducting QPU … each quantum task
        // will last ∼10 s".
        let timing = Technology::Superconducting.timing();
        let mut rng = SimRng::seed_from(1);
        let mean: f64 = (0..200)
            .map(|_| timing.sample_job_secs(1_000, &mut rng))
            .sum::<f64>()
            / 200.0;
        assert!(
            (1.0..30.0).contains(&mean),
            "superconducting job mean {mean} s not ~10 s"
        );
    }

    #[test]
    fn neutral_atom_job_exceeds_thirty_minutes() {
        // §3: "a quantum task could easily last more than 30 min".
        let timing = Technology::NeutralAtom.timing();
        let mut rng = SimRng::seed_from(2);
        let mean: f64 = (0..100)
            .map(|_| timing.sample_job_secs(1_000, &mut rng))
            .sum::<f64>()
            / 100.0;
        assert!(
            mean > 30.0 * 60.0,
            "neutral-atom job mean {mean} s is below 30 min"
        );
    }

    #[test]
    fn shot_scales_span_orders_of_magnitude() {
        let rows = fig1_rows(1_000, 200, 3);
        let sc = rows
            .iter()
            .find(|r| r.technology == Technology::Superconducting)
            .unwrap();
        let na = rows
            .iter()
            .find(|r| r.technology == Technology::NeutralAtom)
            .unwrap();
        assert!(
            na.shot_p50 / sc.shot_p50 > 1_000.0,
            "expected ≥3 orders of magnitude between neutral-atom and superconducting shots"
        );
    }

    #[test]
    fn fig1_anchors_match_paper() {
        // Fig. 1 at the published preset (1,000-shot jobs, 200 samples,
        // seed 42): superconducting tasks ≈ 10 s, neutral-atom jobs
        // > 30 min.
        let rows = fig1_rows(1_000, 200, 42);
        let find = |t: Technology| rows.iter().find(|r| r.technology == t).unwrap();
        let sc = find(Technology::Superconducting);
        assert!(
            (1.0..60.0).contains(&sc.job_p50),
            "superconducting job p50 {} not ~10 s",
            sc.job_p50
        );
        let na = find(Technology::NeutralAtom);
        assert!(
            na.job_p50 > 1_800.0,
            "neutral-atom job p50 {} not > 30 min",
            na.job_p50
        );
    }

    #[test]
    fn fig1_rows_cover_every_technology() {
        let rows = fig1_rows(1_000, 200, 42);
        let techs: Vec<Technology> = rows.iter().map(|r| r.technology).collect();
        assert_eq!(techs, Technology::ALL);
    }

    #[test]
    fn fig1_published_preset_is_deterministic() {
        assert_eq!(fig1_rows(1_000, 200, 42), fig1_rows(1_000, 200, 42));
    }

    #[test]
    fn fig1_rows_are_deterministic() {
        assert_eq!(fig1_rows(1_000, 50, 9), fig1_rows(1_000, 50, 9));
    }

    #[test]
    fn quantiles_ordered() {
        for row in fig1_rows(500, 100, 4) {
            assert!(
                row.shot_p05 <= row.shot_p50 && row.shot_p50 <= row.shot_p95,
                "{row:?}"
            );
            assert!(
                row.job_p05 <= row.job_p50 && row.job_p50 <= row.job_p95,
                "{row:?}"
            );
        }
    }

    #[test]
    fn typical_qubits_positive() {
        for t in Technology::ALL {
            assert!(t.typical_qubits() > 0);
        }
    }
}
