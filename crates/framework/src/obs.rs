//! Serving-stack observability wiring: one [`Observability`] handle
//! carries the per-request [`RequestLedger`] through the serving stack.
//!
//! The handle is opt-in and `Option`-shaped everywhere it is threaded
//! (mirroring the existing `Option<Tracer>` idiom): a service started
//! without one takes exactly the code path it always had, and deep
//! layers (cluster data plane, chaos decorator, retry ladder) only pay
//! a thread-local `scope_active()` read when disabled — which is what
//! keeps the instrumented-but-disabled digest identical.
//!
//! Lateness is not the ledger's business: each front door counts its
//! late replies in its own stats, so brownout sees the burn rate with
//! or without a ledger. Finish authority travels with each request: a
//! plain or shaped submit's reply finishes its trace; an
//! [`InferenceService`] ticket finishes its own once the embeddings
//! exist — otherwise every degraded sample would dump twice.
//!
//! [`InferenceService`]: crate::inference::InferenceService

use lsdgnn_telemetry::RequestLedger;

/// The cloneable observability bundle threaded through the serving
/// stack: clones share one ledger, default-sized by `default()`.
#[derive(Debug, Clone, Default)]
pub struct Observability {
    ledger: RequestLedger,
}

impl Observability {
    /// The shared request ledger.
    pub fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, SampleOutcome, SampleRequest, SamplingBackend};
    use crate::cluster::{RequestStats, WireConfig};
    use crate::hot_cache::CacheConfig;
    use crate::service::{SamplingService, ServiceConfig};
    use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionedGraph};
    use lsdgnn_sampler::SampleBlock;
    use lsdgnn_telemetry::ledger::Stage;
    use std::sync::Arc;

    /// A warm cache on an observed service must leave `cache_hit`
    /// events in the ledger — the blame table can tell cache-served
    /// time apart from the remote leg.
    #[test]
    fn cache_hits_reach_the_ledger() {
        let g = generators::power_law(300, 6, 9);
        let a = AttributeStore::synthetic(300, 4, 9);
        let pg = PartitionedGraph::new(g, 3).with_attributes(a);
        let backend = CpuBackend::from_partitioned_cached(pg, CacheConfig::with_capacity(2048));
        let obs = Observability::default();
        let svc = SamplingService::start_observed(
            Box::new(backend),
            ServiceConfig::default(),
            None,
            None,
            Some(obs.clone()),
        );
        // Two rounds over the same roots: round 0 warms, round 1 hits.
        for round in 0..2u64 {
            for s in 0..6u64 {
                let block = svc
                    .submit(SampleRequest {
                        roots: (0..4).map(|i| NodeId((s * 13 + i) % 40)).collect(),
                        hops: 2,
                        fanout: 4,
                        seed: s ^ (round << 8),
                    })
                    .wait_block();
                svc.backend().recycle(block);
            }
        }
        let snap = obs.ledger().snapshot();
        assert!(
            snap.events.iter().any(|e| e.stage == Stage::CacheHit),
            "warm rounds must record cache_hit ledger events"
        );
        svc.shutdown();
    }

    /// A backend the test keeps a handle on while a service serves it,
    /// to read the wire plane between requests.
    struct Shared(Arc<CpuBackend>);

    impl SamplingBackend for Shared {
        fn sample_block(&self, req: &SampleRequest) -> SampleBlock {
            self.0.sample_block(req)
        }
        fn gather_attributes(&self, nodes: &[NodeId]) -> Vec<f32> {
            self.0.gather_attributes(nodes)
        }
        fn stats(&self) -> RequestStats {
            self.0.stats()
        }
        fn sample_many(&self, reqs: &[&SampleRequest]) -> Vec<SampleOutcome> {
            self.0.sample_many(reqs)
        }
        fn fail_shard(&self, shard: u32) -> bool {
            self.0.fail_shard(shard)
        }
        fn num_nodes(&self) -> u64 {
            self.0.num_nodes()
        }
    }

    /// Each remote leg is counted once in every record: per request, the
    /// backend's `remote_requests`, the wire plane's `remote_legs` and
    /// the ledger's `RemoteLeg` + `GatherLeg` events of its trace agree,
    /// with every partition up and with one failed (its legs are never
    /// issued, so no record counts them).
    #[test]
    fn each_remote_leg_is_counted_once_in_every_record() {
        for failed in [None, Some(2)] {
            let g = generators::power_law(300, 6, 9);
            let a = AttributeStore::synthetic(300, 4, 9);
            let pg = PartitionedGraph::new(g, 3).with_attributes(a);
            let backend = Arc::new(CpuBackend::from_partitioned_wired_cached(
                pg,
                WireConfig::default(),
                CacheConfig::with_capacity(64),
            ));
            let obs = Observability::default();
            let svc = SamplingService::start_observed(
                Box::new(Shared(Arc::clone(&backend))),
                ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
                None,
                None,
                Some(obs.clone()),
            );
            if let Some(p) = failed {
                assert!(svc.backend().fail_shard(p));
            }
            let legs = || {
                let wire = backend.wire_snapshot().expect("wired").remote_legs;
                (svc.stats().backend.remote_requests, wire)
            };
            let (mut total, mut degraded) = (0, 0);
            for s in 0..12u64 {
                let before = legs();
                let ticket = svc.submit(SampleRequest {
                    roots: (0..4).map(|i| NodeId((s * 17 + i * 5) % 300)).collect(),
                    hops: 2,
                    fanout: 4,
                    seed: s,
                });
                let trace = ticket.trace();
                degraded += u64::from(ticket.wait_reply().degraded);
                let after = legs();
                let events = obs
                    .ledger()
                    .snapshot()
                    .events_for(trace)
                    .iter()
                    .filter(|e| matches!(e.stage, Stage::RemoteLeg | Stage::GatherLeg))
                    .count() as u64;
                let requests = after.0 - before.0;
                assert_eq!(requests, after.1 - before.1, "wire legs, request {s}");
                assert_eq!(requests, events, "ledger legs, request {s}");
                total += requests;
            }
            assert!(total > 0, "the requests issued remote legs");
            assert_eq!(
                degraded > 0,
                failed.is_some(),
                "failed partition {failed:?}"
            );
            svc.shutdown();
        }
    }
}
