//! # hpcqc-simcore
//!
//! Deterministic discrete-event simulation (DES) kernel for the `hpcqc`
//! hybrid HPC–quantum scheduling simulator.
//!
//! This crate is domain-free: it knows nothing about clusters, QPUs or
//! schedulers. It provides the building blocks, each in its own module:
//!
//! * [`time`] — integer-nanosecond [`SimTime`]/[`SimDuration`] newtypes, so
//!   event ordering is exact and platform-independent;
//! * [`events`] — the [`EventQueue`] future-event list with FIFO-stable tie
//!   breaking; it never cancels, so a caller that replaces an event
//!   fences the stale one by the [`EventKey`] it kept;
//! * [`idmap`] — [`IdMap`], an ordered map over a sorted `Vec` for ids
//!   issued in increasing order;
//! * [`idwindow`] — [`IdWindow`], an id-indexed table over the live id
//!   range, for ids issued in increasing order and retired oldest first;
//! * [`rng`] — the forkable [`SimRng`], enabling common-random-number
//!   comparisons between scheduling policies;
//! * [`dist`] — serializable service-time distributions ([`Dist`]);
//! * [`stats`] — exact time-weighted integrals and streaming statistics.
//!
//! ## Determinism invariant
//!
//! For a fixed root seed and identical schedule of `schedule()` calls, the
//! kernel replays byte-identical event sequences. Every experiment in the
//! repository leans on this: strategies are compared on *the same* sampled
//! workload, so differences in the outputs are attributable to the strategy
//! alone.
//!
//! ## Example: an M/M/1 queue in 30 lines
//!
//! ```
//! use hpcqc_simcore::prelude::*;
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! let mut rng = SimRng::seed_from(42);
//! let arrivals = Dist::exponential(2.0);
//! let service = Dist::exponential(1.0);
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + arrivals.sample_duration(&mut rng), Ev::Arrival);
//! let (mut in_system, mut served) = (0u32, 0u32);
//! let horizon = SimTime::from_secs(1_000);
//! while let Some(ev) = q.pop() {
//!     if ev.time > horizon { break; }
//!     match ev.payload {
//!         Ev::Arrival => {
//!             in_system += 1;
//!             if in_system == 1 {
//!                 q.schedule(ev.time + service.sample_duration(&mut rng), Ev::Departure);
//!             }
//!             q.schedule(ev.time + arrivals.sample_duration(&mut rng), Ev::Arrival);
//!         }
//!         Ev::Departure => {
//!             in_system -= 1;
//!             served += 1;
//!             if in_system > 0 {
//!                 q.schedule(ev.time + service.sample_duration(&mut rng), Ev::Departure);
//!             }
//!         }
//!     }
//! }
//! assert!(served > 300, "≈ 500 expected at λ=0.5/s over 1000 s");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod events;
pub mod idmap;
pub mod idwindow;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::Dist;
pub use events::{EventKey, EventQueue, Scheduled};
pub use idmap::IdMap;
pub use idwindow::IdWindow;
pub use rng::SimRng;
pub use stats::{Samples, TimeWeighted};
pub use time::{SimDuration, SimTime};

/// Glob-import convenience for downstream crates and examples.
pub mod prelude {
    pub use crate::dist::Dist;
    pub use crate::events::{EventKey, EventQueue, Scheduled};
    pub use crate::idmap::IdMap;
    pub use crate::idwindow::IdWindow;
    pub use crate::rng::SimRng;
    pub use crate::stats::{Samples, TimeWeighted};
    pub use crate::time::{SimDuration, SimTime};
}
