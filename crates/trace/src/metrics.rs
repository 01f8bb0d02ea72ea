//! Time-series metrics: [`MetricsRegistry`] and the [`MetricsObserver`].
//!
//! A registry holds named counters, gauges and histograms and samples
//! them on a fixed *simulation-time* interval — sampling is driven by
//! event timestamps, never by a wall clock, so the series is a
//! deterministic function of the run. Each crossed interval boundary
//! appends one row; [`MetricsRegistry::table`] renders the series as a
//! [`Table`] with CSV/JSON/markdown emitters.
//!
//! [`MetricsObserver`] wires a standard metric set to the simulator's
//! [`SimEvent`] stream: queue depth, running jobs, free nodes, idle
//! QPUs, cumulative submit/start/finish/fail counts, kernels executed,
//! node failures, and a queue-wait histogram.

use crate::facility::FacilityState;
use hpcqc_core::observer::{SimEvent, SimObserver};
use hpcqc_core::scenario::Scenario;
use hpcqc_metrics::report::Table;
use hpcqc_simcore::time::{SimDuration, SimTime};

/// Handle to a monotonically increasing counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a gauge (a value that moves both ways).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a histogram (count / mean / max of observed values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone)]
enum MetricState {
    Counter { total: u64 },
    Gauge { value: f64 },
    Histogram { count: u64, sum: f64, max: f64 },
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    state: MetricState,
}

impl Metric {
    fn columns(&self, out: &mut Vec<String>) {
        match &self.state {
            MetricState::Counter { .. } | MetricState::Gauge { .. } => out.push(self.name.clone()),
            MetricState::Histogram { .. } => {
                out.push(format!("{}_count", self.name));
                out.push(format!("{}_mean", self.name));
                out.push(format!("{}_max", self.name));
            }
        }
    }

    fn sample(&self, out: &mut Vec<f64>) {
        match &self.state {
            MetricState::Counter { total } => out.push(*total as f64),
            MetricState::Gauge { value } => out.push(*value),
            MetricState::Histogram { count, sum, max } => {
                out.push(*count as f64);
                out.push(if *count == 0 {
                    0.0
                } else {
                    sum / *count as f64
                });
                out.push(*max);
            }
        }
    }
}

/// A registry of metrics with deterministic sim-time interval sampling.
///
/// Counters and histograms are cumulative over the run; gauges carry the
/// instantaneous value. Call [`advance`](MetricsRegistry::advance) with
/// every event timestamp (the [`MetricsObserver`] does this for you) and
/// [`finish`](MetricsRegistry::finish) once at the end to close the
/// series with a final row.
///
/// # Examples
///
/// ```
/// use hpcqc_trace::MetricsRegistry;
/// use hpcqc_simcore::time::{SimDuration, SimTime};
///
/// let mut reg = MetricsRegistry::new(SimDuration::from_secs(60));
/// let jobs = reg.counter("jobs_started");
/// let depth = reg.gauge("queue_depth");
/// reg.advance(SimTime::from_secs(30));
/// reg.inc(jobs, 1);
/// reg.set(depth, 4.0);
/// reg.finish(SimTime::from_secs(150));
/// let table = reg.table();
/// assert_eq!(table.headers()[0], "t_s");
/// // Rows at t = 0, 60, 120 plus the closing row at 150.
/// assert_eq!(table.rows().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    interval: SimDuration,
    metrics: Vec<Metric>,
    samples: Vec<(SimTime, Vec<f64>)>,
    next_sample: SimTime,
}

impl MetricsRegistry {
    /// Creates a registry sampling every `interval` of simulation time
    /// (zero intervals are clamped to one second).
    pub fn new(interval: SimDuration) -> Self {
        MetricsRegistry {
            interval: interval.max_of(SimDuration::from_nanos(1)),
            metrics: Vec::new(),
            samples: Vec::new(),
            next_sample: SimTime::ZERO,
        }
    }

    /// Registers a counter.
    pub fn counter(&mut self, name: impl Into<String>) -> CounterId {
        self.metrics.push(Metric {
            name: name.into(),
            state: MetricState::Counter { total: 0 },
        });
        CounterId(self.metrics.len() - 1)
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: impl Into<String>) -> GaugeId {
        self.metrics.push(Metric {
            name: name.into(),
            state: MetricState::Gauge { value: 0.0 },
        });
        GaugeId(self.metrics.len() - 1)
    }

    /// Registers a histogram.
    pub fn histogram(&mut self, name: impl Into<String>) -> HistogramId {
        self.metrics.push(Metric {
            name: name.into(),
            state: MetricState::Histogram {
                count: 0,
                sum: 0.0,
                max: 0.0,
            },
        });
        HistogramId(self.metrics.len() - 1)
    }

    /// Increments a counter by `by`.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        if let Some(Metric {
            state: MetricState::Counter { total },
            ..
        }) = self.metrics.get_mut(id.0)
        {
            *total += by;
        }
    }

    /// Sets a gauge to `value`.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        if let Some(Metric {
            state: MetricState::Gauge { value: v },
            ..
        }) = self.metrics.get_mut(id.0)
        {
            *v = value;
        }
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        if let Some(Metric {
            state: MetricState::Histogram { count, sum, max },
            ..
        }) = self.metrics.get_mut(id.0)
        {
            *count += 1;
            *sum += value;
            if value > *max {
                *max = value;
            }
        }
    }

    /// Advances simulation time to `now`, appending one sample row per
    /// crossed interval boundary (boundaries at `0, i, 2i, …`). Rows
    /// reflect metric state *before* any update at a later timestamp,
    /// so call this first when handling an event.
    pub fn advance(&mut self, now: SimTime) {
        while self.next_sample <= now {
            self.take_sample(self.next_sample);
            let Some(next) = self.next_sample.checked_add(self.interval) else {
                break;
            };
            self.next_sample = next;
        }
    }

    /// Closes the series at `end`: samples any remaining boundaries,
    /// then appends a final row at `end` itself if it is not already a
    /// boundary row.
    pub fn finish(&mut self, end: SimTime) {
        self.advance(end);
        if self.samples.last().map(|(t, _)| *t) != Some(end) {
            self.take_sample(end);
        }
    }

    fn take_sample(&mut self, at: SimTime) {
        let mut row = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            m.sample(&mut row);
        }
        self.samples.push((at, row));
    }

    /// Number of sample rows taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples have been taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Renders the series as a [`Table`]: first column `t_s`
    /// (simulation seconds), then one column per counter/gauge and
    /// three (`_count`/`_mean`/`_max`) per histogram.
    pub fn table(&self) -> Table {
        let mut headers = vec!["t_s".to_string()];
        for m in &self.metrics {
            m.columns(&mut headers);
        }
        let mut table = Table::new(headers);
        for (t, values) in &self.samples {
            let mut row = Vec::with_capacity(values.len() + 1);
            row.push(format!("{:.3}", t.as_secs_f64()));
            for v in values {
                // Shortest round-trip Display: "3" for integral values,
                // full precision otherwise; deterministic per bit pattern.
                row.push(format!("{v}"));
            }
            table.row(row);
        }
        table
    }

    /// The series as CSV (via [`Table::to_csv`]).
    pub fn to_csv(&self) -> String {
        self.table().to_csv()
    }

    /// The series as a JSON document (the serialized [`Table`]).
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (not expected for table data).
    pub fn to_json_string(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(&self.table())
    }
}

/// A [`SimObserver`] feeding a standard metric set from the event stream.
///
/// Gauges: `queue_depth`, `running_jobs`, `free_nodes`, `idle_qpus`,
/// plus one `util[<device>]` gauge per QPU — the device's cumulative
/// busy fraction (busy seconds over elapsed simulation time) as of its
/// most recent kernel completion.
/// Counters: `jobs_submitted`, `jobs_started`, `jobs_finished`,
/// `jobs_failed`, `kernels_executed`, `node_failures`.
/// Histogram: `wait_s` (queue wait of every started submission).
#[derive(Debug)]
pub struct MetricsObserver {
    reg: MetricsRegistry,
    // The state behind the four facility gauges.
    facility: FacilityState,
    queue_depth: GaugeId,
    running_jobs: GaugeId,
    free_nodes: GaugeId,
    idle_qpus: GaugeId,
    jobs_submitted: CounterId,
    jobs_started: CounterId,
    jobs_finished: CounterId,
    jobs_failed: CounterId,
    kernels_executed: CounterId,
    node_failures: CounterId,
    wait_s: HistogramId,
    // Per-device utilization: the gauge, accumulated busy seconds, and
    // the in-flight execution's start time.
    device_util: Vec<GaugeId>,
    device_busy_s: Vec<f64>,
    device_exec_start: Vec<Option<SimTime>>,
}

impl MetricsObserver {
    /// Creates the standard metric set for a machine with
    /// `classical_nodes` nodes and `devices` QPUs, sampled every
    /// `interval` of simulation time; device columns are labelled
    /// `qpu0`, `qpu1`, …
    pub fn new(interval: SimDuration, classical_nodes: u32, devices: usize) -> Self {
        MetricsObserver::with_device_labels(
            interval,
            classical_nodes,
            (0..devices).map(|d| format!("qpu{d}")).collect(),
        )
    }

    /// Creates the standard metric set with one `util[<label>]` column
    /// per given device label (fleet device names, for instance).
    pub fn with_device_labels(
        interval: SimDuration,
        classical_nodes: u32,
        labels: Vec<String>,
    ) -> Self {
        let devices = labels.len();
        let mut reg = MetricsRegistry::new(interval);
        let queue_depth = reg.gauge("queue_depth");
        let running_jobs = reg.gauge("running_jobs");
        let free_nodes = reg.gauge("free_nodes");
        let idle_qpus = reg.gauge("idle_qpus");
        let facility = FacilityState::new(classical_nodes, devices);
        reg.set(free_nodes, facility.free_nodes());
        reg.set(idle_qpus, facility.idle_qpus());
        let jobs_submitted = reg.counter("jobs_submitted");
        let jobs_started = reg.counter("jobs_started");
        let jobs_finished = reg.counter("jobs_finished");
        let jobs_failed = reg.counter("jobs_failed");
        let kernels_executed = reg.counter("kernels_executed");
        let node_failures = reg.counter("node_failures");
        let wait_s = reg.histogram("wait_s");
        let device_util = labels
            .iter()
            .map(|label| reg.gauge(format!("util[{label}]")))
            .collect();
        MetricsObserver {
            reg,
            facility,
            queue_depth,
            running_jobs,
            free_nodes,
            idle_qpus,
            jobs_submitted,
            jobs_started,
            jobs_finished,
            jobs_failed,
            kernels_executed,
            node_failures,
            wait_s,
            device_util,
            device_busy_s: vec![0.0; devices],
            device_exec_start: vec![None; devices],
        }
    }

    /// Creates the standard metric set sized for `scenario`'s machine,
    /// device columns labelled with the names of [`Scenario::machine`]'s
    /// devices.
    pub fn for_scenario(scenario: &Scenario, interval: SimDuration) -> Self {
        let labels = scenario
            .machine()
            .device_names()
            .map(String::from)
            .collect();
        MetricsObserver::with_device_labels(interval, scenario.classical_nodes, labels)
    }

    /// Closes the series at `end` and yields the registry.
    pub fn into_registry(mut self, end: SimTime) -> MetricsRegistry {
        self.reg.finish(end);
        self.reg
    }

    /// The registry as populated so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }
}

impl SimObserver for MetricsObserver {
    fn on_event(&mut self, now: SimTime, event: &SimEvent<'_>) {
        self.reg.advance(now);
        self.facility.apply(event);
        self.reg.set(self.queue_depth, self.facility.queue_depth());
        self.reg
            .set(self.running_jobs, self.facility.running_jobs());
        self.reg.set(self.free_nodes, self.facility.free_nodes());
        self.reg.set(self.idle_qpus, self.facility.idle_qpus());
        match event {
            SimEvent::JobSubmitted { .. } => self.reg.inc(self.jobs_submitted, 1),
            SimEvent::JobStarted { wait, .. } => {
                self.reg.inc(self.jobs_started, 1);
                self.reg.observe(self.wait_s, wait.as_secs_f64());
            }
            SimEvent::KernelExecStarted { device, .. } => {
                if let Some(slot) = self.device_exec_start.get_mut(*device) {
                    *slot = Some(now);
                }
            }
            SimEvent::KernelExecEnded { device, .. } => {
                self.reg.inc(self.kernels_executed, 1);
                if let Some(start) = self
                    .device_exec_start
                    .get_mut(*device)
                    .and_then(Option::take)
                {
                    if let (Some(busy), Some(&util)) = (
                        self.device_busy_s.get_mut(*device),
                        self.device_util.get(*device),
                    ) {
                        *busy += now.saturating_since(start).as_secs_f64();
                        let elapsed = now.as_secs_f64();
                        if elapsed > 0.0 {
                            self.reg.set(util, *busy / elapsed);
                        }
                    }
                }
            }
            SimEvent::JobFinalized { record } => {
                self.reg.inc(self.jobs_finished, 1);
                if !record.completed {
                    self.reg.inc(self.jobs_failed, 1);
                }
            }
            SimEvent::NodeFailed { .. } => {
                self.reg.inc(self.node_failures, 1);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_workload::job::JobId;

    #[test]
    fn sampling_lands_on_interval_boundaries() {
        let mut reg = MetricsRegistry::new(SimDuration::from_secs(10));
        let g = reg.gauge("g");
        reg.advance(SimTime::from_secs(5));
        reg.set(g, 1.0);
        reg.advance(SimTime::from_secs(25));
        reg.finish(SimTime::from_secs(25));
        // Boundaries 0, 10, 20 plus the closing row at 25.
        let times: Vec<String> = reg.table().rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(times, vec!["0.000", "10.000", "20.000", "25.000"]);
        // The t=0 row precedes the set(); later rows carry it.
        let rows = reg.table().rows().to_vec();
        assert_eq!(rows[0][1], "0");
        assert_eq!(rows[1][1], "1");
    }

    #[test]
    fn histogram_expands_to_three_columns() {
        let mut reg = MetricsRegistry::new(SimDuration::from_secs(10));
        let h = reg.histogram("wait");
        reg.observe(h, 2.0);
        reg.observe(h, 4.0);
        reg.finish(SimTime::from_secs(1));
        let table = reg.table();
        assert_eq!(
            table.headers(),
            &["t_s", "wait_count", "wait_mean", "wait_max"]
        );
        let last = table.rows().last().expect("rows").clone();
        assert_eq!(last, vec!["1.000", "2", "3", "4"]);
    }

    #[test]
    fn finish_does_not_duplicate_boundary_rows() {
        let mut reg = MetricsRegistry::new(SimDuration::from_secs(10));
        let _ = reg.counter("c");
        reg.finish(SimTime::from_secs(20));
        // 0, 10, 20 — the end coincides with a boundary, no extra row.
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn observer_tracks_job_lifecycle() {
        let mut obs = MetricsObserver::new(SimDuration::from_secs(60), 16, 1);
        let job = JobId::new(0);
        obs.on_event(
            SimTime::ZERO,
            &SimEvent::JobSubmitted {
                job,
                name: "a",
                step: false,
            },
        );
        obs.on_event(
            SimTime::from_secs(30),
            &SimEvent::JobStarted {
                job,
                name: "a",
                wait: SimDuration::from_secs(30),
            },
        );
        let reg = obs.into_registry(SimTime::from_secs(90));
        let table = reg.table();
        let headers = table.headers().to_vec();
        let col = |name: &str| {
            headers
                .iter()
                .position(|h| h == name)
                .expect("column present")
        };
        let last = table.rows().last().expect("rows").clone();
        assert_eq!(last[col("jobs_submitted")], "1");
        assert_eq!(last[col("jobs_started")], "1");
        assert_eq!(last[col("queue_depth")], "0");
        assert_eq!(last[col("running_jobs")], "1");
        assert_eq!(last[col("wait_s_mean")], "30");
    }

    #[test]
    fn per_device_util_columns_track_busy_fraction() {
        let mut obs = MetricsObserver::with_device_labels(
            SimDuration::from_secs(60),
            16,
            vec!["frankfurt-sc".to_string(), "juelich-ion".to_string()],
        );
        let job = JobId::new(0);
        obs.on_event(
            SimTime::from_secs(10),
            &SimEvent::KernelExecStarted { job, device: 1 },
        );
        obs.on_event(
            SimTime::from_secs(40),
            &SimEvent::KernelExecEnded { job, device: 1 },
        );
        let reg = obs.into_registry(SimTime::from_secs(40));
        let table = reg.table();
        let headers = table.headers().to_vec();
        let col = |name: &str| {
            headers
                .iter()
                .position(|h| h == name)
                .expect("column present")
        };
        let last = table.rows().last().expect("rows").clone();
        // 30 busy seconds over 40 elapsed.
        assert_eq!(last[col("util[juelich-ion]")], "0.75");
        assert_eq!(last[col("util[frankfurt-sc]")], "0");
    }

    #[test]
    fn json_emitter_is_parseable() {
        let mut reg = MetricsRegistry::new(SimDuration::from_secs(10));
        let _ = reg.counter("c");
        reg.finish(SimTime::from_secs(5));
        let json = reg.to_json_string().expect("serializes");
        crate::chrome::check_json(&json).expect("parses");
        assert!(json.contains("t_s"));
    }
}
