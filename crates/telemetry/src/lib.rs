//! Unified telemetry for the LSD-GNN workspace.
//!
//! Two complementary facilities:
//!
//! - **Metrics**: a label-aware [`Registry`] of [`MetricSource`]s.
//!   Components expose counters, gauges and histogram summaries through
//!   [`Scope`] emitters; [`Registry::snapshot`] flattens everything into
//!   a [`Snapshot`] that serializes to (and parses back from) JSON.
//! - **Tracing**: a bounded, cloneable [`Tracer`] recording spans,
//!   instants and counter series in simulated time (desim ticks via
//!   [`ticks_to_us`]) or wall time, exported as Chrome trace-event JSON
//!   loadable in `chrome://tracing` or Perfetto.
//! - **Request ledger**: a per-request causal event log
//!   ([`RequestLedger`]) with queue-wait vs service-time split per
//!   stage, a tail-attribution [`BlameReport`] and a degradation
//!   [`FlightDump`] recorder.
//!
//! The crate is dependency-free by design: the workspace's `serde` is a
//! no-op shim, so [`json`] carries its own small encoder and
//! recursive-descent parser.

pub mod json;
pub mod ledger;
pub mod metrics;
pub mod trace;

pub use json::{Json, JsonError};
pub use ledger::{
    BlameReport, DumpReason, FlightDump, LedgerConfig, LedgerEvent, LedgerHandle, LedgerSnapshot,
    RequestLedger, Stage,
};
pub use metrics::{
    HistogramSnapshot, Log2Histogram, Metric, MetricSource, MetricValue, Registry, Scope, Snapshot,
};
pub use trace::{pids, ticks_to_us, TraceEvent, Tracer};
