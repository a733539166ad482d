//! Serving-stack observability wiring: one [`Observability`] handle
//! bundles the per-request [`RequestLedger`] with the SLO monitors the
//! serving layers evaluate inline.
//!
//! The handle is opt-in and `Option`-shaped everywhere it is threaded
//! (mirroring the existing `Option<Tracer>` idiom): a service started
//! without one takes exactly the code path it always had, and deep
//! layers (cluster data plane, chaos decorator, retry ladder) only pay
//! a thread-local `scope_active()` read when disabled — which is what
//! keeps the instrumented-but-disabled digest identical.
//!
//! Layering of completion triggers: [`SamplingService`] observes its
//! submit→reply latency against the *sampling* SLO and, when it is the
//! outermost layer, runs the ledger's finish triggers (flight dumps).
//! [`InferenceService::start`] calls [`Observability::defer_sample_finish`]
//! so a wrapped sampling stage only contributes events and the inference
//! ticket's end-to-end completion (its `wait`, or its drop) is the single
//! finish authority — otherwise every degraded sample would dump twice.
//!
//! [`SamplingService`]: crate::service::SamplingService
//! [`InferenceService::start`]: crate::inference::InferenceService::start

use lsdgnn_telemetry::ledger::LedgerConfig;
use lsdgnn_telemetry::{RequestLedger, SloMonitor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Sampling-stage SLO: target p99 of submit→sample-reply, µs.
const SAMPLING_TARGET_P99_US: f64 = 50_000.0;
/// End-to-end SLO: target p99 of submit→embedding, µs.
const E2E_TARGET_P99_US: f64 = 100_000.0;
/// Allowed violation fraction of both SLOs (0.01 = a p99 objective).
const SLO_BUDGET: f64 = 0.01;

/// The cloneable observability bundle threaded through the serving
/// stack: ledger + SLO monitors + the finish-authority switch.
#[derive(Debug, Clone)]
pub struct Observability {
    ledger: RequestLedger,
    sampling_slo: Arc<Mutex<SloMonitor>>,
    e2e_slo: Arc<Mutex<SloMonitor>>,
    /// Whether sampling-level completion runs the ledger's finish
    /// triggers; the inference pipeline clears this and takes over.
    sample_finish: Arc<AtomicBool>,
}

impl Default for Observability {
    /// A default-sized ledger, a 50 ms sampling and a 100 ms end-to-end
    /// p99 objective, each with a 1 % violation budget.
    fn default() -> Self {
        let slo = |target_us| Arc::new(Mutex::new(SloMonitor::new(target_us, SLO_BUDGET)));
        Observability {
            ledger: RequestLedger::new(LedgerConfig::default()),
            sampling_slo: slo(SAMPLING_TARGET_P99_US),
            e2e_slo: slo(E2E_TARGET_P99_US),
            sample_finish: Arc::new(AtomicBool::new(true)),
        }
    }
}

impl Observability {
    /// The shared request ledger.
    pub fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }

    /// Marks an outer pipeline layer as the finish authority: sampling
    /// completions keep feeding events and the sampling SLO, but stop
    /// running the ledger's flight-dump/deadline triggers.
    pub fn defer_sample_finish(&self) {
        self.sample_finish.store(false, Ordering::Relaxed);
    }

    /// Whether sampling-level completion still owns the finish triggers.
    pub fn sample_finish_enabled(&self) -> bool {
        self.sample_finish.load(Ordering::Relaxed)
    }

    /// Accounts one sampling completion against the sampling SLO.
    pub fn observe_sampling(&self, latency_us: f64, degraded: bool) {
        self.sampling_slo
            .lock()
            .expect("sampling slo lock")
            .observe(latency_us, degraded);
    }

    /// Accounts one end-to-end completion against the e2e SLO.
    pub fn observe_e2e(&self, latency_us: f64, degraded: bool) {
        self.e2e_slo
            .lock()
            .expect("e2e slo lock")
            .observe(latency_us, degraded);
    }

    /// The sampling SLO's current burn rate (violation rate / budget)
    /// without cloning the monitor — the admission controller's brownout
    /// feed, read on every shaped submission.
    pub fn sampling_burn_rate(&self) -> f64 {
        self.sampling_slo
            .lock()
            .expect("sampling slo lock")
            .burn_rate()
    }

    /// A snapshot of the sampling-stage SLO monitor.
    pub fn sampling_slo(&self) -> SloMonitor {
        self.sampling_slo.lock().expect("sampling slo lock").clone()
    }

    /// A snapshot of the end-to-end SLO monitor.
    pub fn e2e_slo(&self) -> SloMonitor {
        self.e2e_slo.lock().expect("e2e slo lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, SampleRequest};
    use crate::hot_cache::CacheConfig;
    use crate::service::{SamplingService, ServiceConfig};
    use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionedGraph};
    use lsdgnn_telemetry::ledger::Stage;

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

    #[test]
    fn defaults_and_finish_authority_toggle() {
        let obs = Observability::default();
        assert!(obs.sample_finish_enabled());
        obs.defer_sample_finish();
        assert!(!obs.sample_finish_enabled());
        // Clones share the switch and the monitors.
        let clone = obs.clone();
        assert!(!clone.sample_finish_enabled());
        clone.observe_sampling(10.0, false);
        clone.observe_e2e(200_000.0, true);
        assert_eq!(obs.sampling_slo().total(), 1);
        let e2e = obs.e2e_slo();
        assert_eq!(e2e.total(), 1);
        assert_eq!(e2e.violations(), 1, "200ms > 100ms target");
        assert!(e2e.budget_exhausted());
    }
}
