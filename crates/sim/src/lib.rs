//! Discrete-event simulation engine for the PRESS reproduction.
//!
//! The engine is deliberately small and deterministic: a model defines an
//! event type and a handler, the [`Simulator`] owns a time-ordered event
//! queue, and passive [`Resource`]s compute completion times for FIFO
//! single-server stations (CPU, disk, NIC, wire).
//!
//! # Example
//!
//! ```
//! use press_sim::{Simulator, SimTime, Model, Scheduler};
//!
//! struct Counter { fired: u32 }
//!
//! impl Model for Counter {
//!     type Event = u32;
//!     fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
//!         self.fired += ev;
//!         if self.fired < 3 {
//!             sched.schedule(now + SimTime::from_micros(10), 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(Counter { fired: 0 });
//! sim.scheduler_mut().schedule(SimTime::ZERO, 1);
//! sim.run();
//! assert_eq!(sim.model().fired, 3);
//! assert_eq!(sim.now(), SimTime::from_micros(20));
//! ```

mod engine;
mod fault;
mod idmap;
mod resource;
mod stats;
mod time;

pub use engine::{Model, Scheduler, Simulator};
pub use fault::{decorrelated_jitter_micros, CrashWindow, FaultInjector, FaultPlan};
pub use idmap::{IdHasher, IdMap};
// Scalar statistics moved to press-telem (the unified observability
// crate); re-exported so `press_sim::Histogram` etc. keep working.
pub use press_telem::{Counter, Histogram, MeanVar};
pub use resource::{Resource, ResourceStats};
pub use stats::TimeWeighted;
pub use time::SimTime;
