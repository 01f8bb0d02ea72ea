//! Simulation outcomes: the numbers every experiment reports.

use hpcqc_metrics::jobstats::JobStats;
use hpcqc_qpu::technology::Technology;
use hpcqc_simcore::time::SimTime;
use serde::{Deserialize, Serialize};

/// Allocated / used / wasted summary of one resource class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WasteSummary {
    /// Time-average fraction of capacity that was allocated.
    pub allocated_fraction: f64,
    /// Time-average fraction of capacity doing productive work.
    pub used_fraction: f64,
    /// used / allocated integrals (1.0 when never allocated).
    pub efficiency: f64,
    /// Allocated-but-idle unit-seconds.
    pub wasted_unit_seconds: f64,
}

/// Per-device execution summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSummary {
    /// Device name (`qpu0`, `qpu1`, …).
    pub name: String,
    /// Hardware technology.
    pub technology: Technology,
    /// Kernels executed.
    pub tasks: u64,
    /// Hardware-busy seconds.
    pub busy_seconds: f64,
    /// Busy fraction of the simulated span.
    pub utilization: f64,
    /// Seconds lost to recalibration windows.
    pub recalibration_seconds: f64,
}

/// Everything a facility simulation produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    /// Per-job records and aggregates.
    pub stats: JobStats,
    /// Last completion instant.
    pub makespan: SimTime,
    /// Classical-node allocated/used/wasted accounting.
    pub node_waste: WasteSummary,
    /// QPU allocated/used/wasted accounting (exclusive holds only; shared
    /// access shows up in per-device utilization instead).
    pub qpu_waste: WasteSummary,
    /// One summary per physical device.
    pub devices: Vec<DeviceSummary>,
    /// High-water mark of concurrently live (pulled-but-not-finalized)
    /// jobs in the simulator — the memory bound a streamed run actually
    /// paid, regardless of how many jobs the source produced in total.
    pub peak_in_flight_jobs: usize,
}

impl Outcome {
    /// Mean physical-QPU utilization across devices.
    pub fn mean_device_utilization(&self) -> f64 {
        if self.devices.is_empty() {
            0.0
        } else {
            self.devices.iter().map(|d| d.utilization).sum::<f64>() / self.devices.len() as f64
        }
    }

    /// Total kernels executed across devices.
    pub fn total_kernels(&self) -> u64 {
        self.devices.iter().map(|d| d.tasks).sum()
    }

    /// Combined-utilization score used by the crossover experiment (E6):
    /// the mean of classical used-fraction and physical QPU utilization —
    /// "are both halves of the machine doing work?".
    pub fn combined_utilization(&self) -> f64 {
        (self.node_waste.used_fraction + self.mean_device_utilization()) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            stats: JobStats::new(),
            makespan: SimTime::from_secs(100),
            node_waste: WasteSummary {
                allocated_fraction: 0.8,
                used_fraction: 0.4,
                efficiency: 0.5,
                wasted_unit_seconds: 100.0,
            },
            qpu_waste: WasteSummary {
                allocated_fraction: 1.0,
                used_fraction: 0.1,
                efficiency: 0.1,
                wasted_unit_seconds: 90.0,
            },
            devices: vec![
                DeviceSummary {
                    name: "qpu0".into(),
                    technology: Technology::Superconducting,
                    tasks: 10,
                    busy_seconds: 50.0,
                    utilization: 0.5,
                    recalibration_seconds: 0.0,
                },
                DeviceSummary {
                    name: "qpu1".into(),
                    technology: Technology::TrappedIon,
                    tasks: 4,
                    busy_seconds: 30.0,
                    utilization: 0.3,
                    recalibration_seconds: 0.0,
                },
            ],
            peak_in_flight_jobs: 2,
        }
    }

    #[test]
    fn device_aggregates() {
        let o = outcome();
        assert!((o.mean_device_utilization() - 0.4).abs() < 1e-12);
        assert_eq!(o.total_kernels(), 14);
    }

    #[test]
    fn combined_utilization_averages_both_sides() {
        let o = outcome();
        assert!((o.combined_utilization() - (0.4 + 0.4) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_devices_zero_utilization() {
        let mut o = outcome();
        o.devices.clear();
        assert_eq!(o.mean_device_utilization(), 0.0);
        assert_eq!(o.total_kernels(), 0);
    }
}
