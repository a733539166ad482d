//! Deterministic, seedable fault injection for the LSD-GNN serving
//! stack.
//!
//! The paper sells LSD-GNN sampling as a *service* (§2.4 heavy traffic,
//! §4.3 MoF reliability, §6 FaaS deployment); a serving stack has to
//! answer "what happens when a card dies, a link degrades, or a shard
//! straggles". This crate supplies the question in reproducible form:
//!
//! * [`ScenarioSpec`] describes faults across three layers —
//!   MoF/memfabric (frame loss, corruption, bandwidth degradation, link
//!   partition), AxE/cluster (card crash at time T, stragglers,
//!   memory-channel stalls) and the `SamplingService` (worker panic,
//!   queue stall, whole-dispatch loss).
//! * [`FaultPlan::build`] fixes a seed and materializes a validated,
//!   byte-for-byte replayable plan: the deterministic timeline is an
//!   explicit sorted schedule, and every stochastic decision is a pure
//!   function of `(seed, stream, entity, index)` ([`ChaosRng`]) — no
//!   hidden RNG state, so decisions are identical in any thread
//!   interleaving.
//! * [`FaultInjector`] is the handle components hold: same queries,
//!   plus lock-free [`FaultStats`] counters that register into the
//!   telemetry [`Registry`](lsdgnn_telemetry::Registry).
//! * [`desim_glue::install`] replays the timeline inside a desim
//!   [`Simulation`](lsdgnn_desim::Simulation) so hardware models see
//!   faults at exact simulated instants.
//!
//! Pay-for-what-you-use: a zero-fault plan ([`FaultPlan::zero`], or any
//! spec equal to [`ScenarioSpec::none`]) answers "no fault" everywhere,
//! and consumers are expected to keep their fault-free fast paths
//! bit-identical to running with no plan at all — the property the
//! serving-layer chaos tests assert.
//!
//! # Example
//!
//! ```
//! use lsdgnn_chaos::{FaultPlan, ScenarioSpec};
//!
//! let spec = ScenarioSpec::none()
//!     .with_frame_loss(0.05)
//!     .with_card_failure(1, 500);
//! let plan = FaultPlan::build(42, spec.clone()).unwrap();
//! // Byte-for-byte replayable:
//! assert_eq!(plan.encode(), FaultPlan::build(42, spec).unwrap().encode());
//! // Card 1 dies at tick 500 and stays dead:
//! assert!(!plan.card_down(1, 499));
//! assert!(plan.card_down(1, 777));
//! ```

pub mod desim_glue;
pub mod plan;
pub mod rng;
pub mod stats;

pub use plan::{
    CardFailure, FaultEvent, FaultKind, FaultPlan, LinkDegrade, LinkPartition, MemStall, PlanError,
    QueueStall, ScenarioSpec, Straggler, WorkerPanic,
};
pub use rng::ChaosRng;
pub use stats::{FaultInjector, FaultStats};
