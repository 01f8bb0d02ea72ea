//! # hpcqc-trace
//!
//! The observability layer: everything the simulator knows, made
//! visible. The event stream ([`SimEvent`]) already carries every state
//! transition — this crate stops throwing it away:
//!
//! * [`attribution`] — [`AttributionObserver`], causal wait
//!   attribution: per-job ledgers of disjoint, causally-labeled wait
//!   intervals that exactly partition each queue wait, blame tables by
//!   cause/tenant/class/device, a per-job critical-path summary, and
//!   flow-arrowed Chrome traces of the causal chain;
//! * [`chrome`] — deterministic Chrome trace-event JSON
//!   ([`ChromeTrace`]), loadable in [Perfetto] and `chrome://tracing`,
//!   byte-identical across same-seed runs;
//! * [`observer`] — [`TraceObserver`], the event-stream → timeline
//!   bridge: per-job / per-QPU / per-node tracks, phase and kernel
//!   spans, fault instants, and sim-time counter tracks (queue depth,
//!   free nodes, idle QPUs);
//! * [`metrics`] — [`MetricsRegistry`], counters/gauges/histograms
//!   sampled on a deterministic sim-time interval, with CSV/JSON
//!   emitters, plus the standard [`MetricsObserver`] set;
//! * [`profile`] — [`SchedProfiler`], per-planning-cycle wall-clock
//!   timing over the clock-free `CycleProbe` hook; the crate's single
//!   audited D001 wall-clock suppression lives there.
//!
//! Everything is surfaced on the CLI as
//! `hpcqc-sim run --trace out.json --metrics out.csv --profile`.
//!
//! [`SimEvent`]: hpcqc_core::observer::SimEvent
//! [Perfetto]: https://ui.perfetto.dev

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attribution;
pub mod chrome;
mod facility;
pub mod metrics;
pub mod observer;
pub mod profile;

pub use attribution::{AttributionObserver, DeviceWait, JobLedger, KernelWindow, WaitInterval};
pub use chrome::{check_json, ArgValue, ChromeTrace, EventArgs, EventPhase, TraceEvent};
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsObserver, MetricsRegistry};
pub use observer::{TraceObserver, COUNTER_TRACKS};
pub use profile::SchedProfiler;
