//! Discrete-event simulation engine underpinning the LSD-GNN hardware models.
//!
//! This crate is the timing substrate for the Access Engine (`lsdgnn-axe`),
//! Memory-over-Fabric and link models: a fast event-calendar kernel (a
//! hierarchical bucketed time wheel with an overflow heap, over a slab
//! event arena with inline closure storage and cancellable handles —
//! see [`calendar`] and [`arena`]) plus the small set of queueing
//! primitives hardware simulation needs — bounded FIFOs with
//! back-pressure accounting, bandwidth-serialized resources,
//! fixed-latency pipes and time-weighted statistics. The original
//! heap-based kernel survives only as the differential-testing model of
//! `tests/proptests.rs` (`tests/reference/`); it is not part of this API.
//!
//! Time is an opaque tick count. Hardware crates interpret one tick as one
//! picosecond so that clocks of different frequencies (250 MHz logic,
//! 322 MHz PHY, 100 MHz RISC-V) compose without rounding; helpers for that
//! convention live in [`time`].
//!
//! # Example
//!
//! ```
//! use lsdgnn_desim::{Simulation, Time};
//!
//! let mut sim = Simulation::new();
//! sim.schedule(Time::from_ticks(10), |sim: &mut Simulation| {
//!     let t = sim.now();
//!     sim.schedule(Time::from_ticks(5), move |sim: &mut Simulation| {
//!         assert_eq!(sim.now(), t + Time::from_ticks(5));
//!     });
//! });
//! sim.run();
//! assert_eq!(sim.now(), Time::from_ticks(15));
//! ```

pub mod arbiter;
pub mod arena;
pub mod calendar;
pub mod fifo;
pub mod resource;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;

pub use arbiter::RoundRobinArbiter;
pub use arena::EventHandle;
pub use fifo::{Fifo, FifoStats};
pub use resource::{BandwidthResource, BandwidthStats, LatencyPipe, Server, ServerStats};
pub use rng::DetRng;
pub use sim::Simulation;
pub use stats::{Counter, ThroughputMeter, TimeWeighted};
pub use time::{Clock, Time};
