//! Liveness under arbitrary survivable fault plans: for any scenario
//! with per-attempt loss < 100%, card crashes at any tick, an optional
//! worker panic and queue stalls, the service answers *every* submitted
//! request — no lost reply channels, no deadlock — and every reply is
//! either exact (equal to the fault-free backend's answer) or flagged
//! `degraded` with its quality loss quantified.

use lsdgnn_chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_framework::{
    CpuBackend, SampleRequest, SamplingBackend, SamplingService, ServiceConfig,
};
use lsdgnn_graph::{generators, AttributeStore, NodeId};
use proptest::prelude::*;
use std::time::Duration;

const REQUESTS: u64 = 16;

fn request(seed: u64) -> SampleRequest {
    SampleRequest {
        roots: (0..6).map(|r| NodeId((seed * 7 + r) % 300)).collect(),
        hops: 2,
        fanout: 4,
        seed,
    }
}

fn backend() -> Box<dyn SamplingBackend> {
    let g = generators::power_law(300, 6, 17);
    let a = AttributeStore::synthetic(300, 6, 17);
    Box::new(CpuBackend::new(&g, &a, 4))
}

proptest! {
    #[test]
    fn every_request_is_answered_exact_or_degraded(
        seed in 0u64..10_000,
        loss in 0.0f64..0.95,
        cards in proptest::collection::vec((0u32..4, 0u64..REQUESTS + 8), 0..3),
        panic_shard0 in any::<bool>(),
        stall_on in any::<bool>(),
        stall_after in 1u64..4,
        stall_us in 50u64..500,
    ) {
        let mut spec = ScenarioSpec::none().with_request_loss(loss);
        for &(card, at) in &cards {
            spec = spec.with_card_failure(card, at);
        }
        if panic_shard0 {
            // Only shard 0 of 2 may die: the survivor keeps draining, so
            // liveness must hold.
            spec = spec.with_worker_panic(0, 2);
        }
        if stall_on {
            spec = spec.with_queue_stall(1, stall_after, stall_us);
        }
        let plan = FaultPlan::build(seed, spec).expect("generated specs are valid");
        let injector = FaultInjector::new(plan);
        let svc = SamplingService::start_observed(
            backend(),
            ServiceConfig {
                workers: 2,
                queue_capacity: 32,
                max_batch: 4,
                backoff_base: Duration::from_micros(5),
                ..ServiceConfig::default()
            },
            None,
            Some(injector),
            None,
        );
        let reference = backend();

        let tickets: Vec<_> = (0..REQUESTS).map(|s| svc.submit(request(s))).collect();
        let replies: Vec<_> = tickets.into_iter().map(|t| t.wait_reply()).collect();
        prop_assert_eq!(replies.len() as u64, REQUESTS, "every request answered");

        for (s, reply) in replies.iter().enumerate() {
            if reply.degraded {
                prop_assert!(
                    reply.unreachable > 0,
                    "degraded replies must quantify their loss (seed {})", s
                );
            } else {
                prop_assert_eq!(
                    &reply.block,
                    &reference.sample_block(&request(s as u64)),
                    "non-degraded replies are exact (seed {})", s
                );
            }
        }
        let stats = svc.stats();
        prop_assert_eq!(stats.requests, REQUESTS);
        svc.shutdown();
    }
}
