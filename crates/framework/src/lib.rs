//! Mini-AliGraph: the industrial framework layer of the reproduction
//! (paper §2.4 and §5).
//!
//! The serving stack, bottom to top:
//!
//! * [`cluster`] — the distributed graph service in the AliGraph mold:
//!   partitions own disjoint node ranges of adjacency + attributes, and
//!   the worker that samples runs the server side of each remote leg
//!   itself, into pooled reply buffers. Local/remote request accounting
//!   feeds the Figure 2(b)/(c) characterization.
//! * [`backend`] — the hardware-abstraction layer: the
//!   [`SamplingBackend`] trait plus its implementations — `CpuBackend`
//!   (the cluster) and `AxeBackend` (the Access Engine, in [`offload`]).
//!   The framework's one cache is the two-tier
//!   [`hot_cache::HotSetCache`] the cluster mounts inline on its remote
//!   data plane (`CpuBackend::from_partitioned_cached`).
//! * [`service`] — the batched, backpressured [`SamplingService`]:
//!   worker shards taking `SampleRequest`s from one lane per priority
//!   class, highest first, and coalescing what is queued into
//!   size-bounded batches, with queue/batch/latency histograms.
//!   [`admission`]'s `ShapedService` is the same service behind
//!   per-tenant admission control.
//! * [`cpu_model`] — the calibrated CPU-baseline timing model: per-vCPU
//!   sampling rate and the sub-linear server-scaling curve of
//!   Figure 2(b).
//! * [`offload`] — the near-transparent user interface of §5: a
//!   `GraphLearnSession` whose sampling calls route through the service
//!   over either backend, unchanged for the caller.
//!
//! # Example
//!
//! ```
//! use lsdgnn_framework::{CpuBackend, SampleRequest, SamplingService, ServiceConfig};
//! use lsdgnn_graph::{generators, AttributeStore, NodeId};
//!
//! let g = generators::power_law(500, 8, 1);
//! let attrs = AttributeStore::synthetic(500, 16, 1);
//! // The one-line backend choice: swap CpuBackend for AxeBackend and
//! // the rest of this snippet is unchanged.
//! let backend = CpuBackend::new(&g, &attrs, 4);
//! let service = SamplingService::start(Box::new(backend), ServiceConfig::default());
//! let batch = service.sample(SampleRequest {
//!     roots: vec![NodeId(1), NodeId(2)],
//!     hops: 2,
//!     fanout: 5,
//!     seed: 7,
//! });
//! assert_eq!(batch.hops.len(), 2);
//! assert!(service.stats().backend.remote_requests > 0);
//! service.shutdown();
//! ```

pub mod admission;
pub mod backend;
pub mod breaker;
pub mod cluster;
pub mod cpu_model;
pub mod hot_cache;
pub mod inference;
pub mod obs;
pub mod offload;
pub mod pool;
pub mod service;
pub mod traffic;
pub mod trainer;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionStats, BrownoutConfig, BucketConfig,
    ClassCounters, Priority, RejectReason, ShapedRequest, ShapedService, SubmitVerdict,
    TenantConfig, TokenBucket, Verdict, CLASSES,
};
pub use backend::{CpuBackend, SampleOutcome, SampleRequest, SamplingBackend};
pub use breaker::{BreakerState, CircuitBreaker};
pub use cluster::{
    Cluster, RequestStats, Span, WireConfig, WireSnapshot, ATTR_PAGE_ROWS, FRONTIER_LINE_NODES,
    UNPACKED_REQUEST_BYTES,
};
pub use cpu_model::CpuClusterModel;
pub use hot_cache::{
    AttrTier, CacheConfig, CacheSnapshot, HotSetCache, NeighborTier, ShardedTier, TierSnapshot,
};
pub use inference::{
    run_sequential, InferenceConfig, InferenceReply, InferenceService, InferenceStats,
    InferenceTicket,
};
pub use lsdgnn_sampler::SampleBlock;
pub use obs::Observability;
pub use offload::{AxeBackend, GraphLearnSession, SamplerBackend};
pub use pool::{BufferPool, PoolStats};
pub use service::{
    BatchPolicy, SampleReply, SampleTicket, SamplingService, ServiceConfig, ServiceStats,
};
pub use traffic::{Arrival, TenantSpec, TrafficConfig, TrafficTrace};
pub use trainer::{EpochReport, TrainerConfig, TrainingJob};
