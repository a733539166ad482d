//! Admission-control conservation properties: for any seeded traffic
//! trace and any admission configuration,
//!
//! 1. every submitted request reaches exactly one terminal verdict —
//!    a reply (exact or degraded), an explicit rejection, or a shed —
//!    no lost tickets, no double counting;
//! 2. rate-limit rejections match an independent replay of the public
//!    [`TokenBucket`] arithmetic arrival-by-arrival (the controller's
//!    rate limiting is a pure function of the arrival sequence);
//! 3. per-class lane occupancy never exceeds the configured bounds,
//!    under arbitrary interleavings of admissions and dequeues.

use lsdgnn_framework::{
    AdmissionConfig, AdmissionController, BrownoutConfig, BucketConfig, CpuBackend, Priority,
    RejectReason, ServiceConfig, ShapedRequest, ShapedService, SubmitVerdict, TenantConfig,
    TenantSpec, TokenBucket, TrafficConfig, TrafficTrace, Verdict, CLASSES,
};
use lsdgnn_graph::{generators, AttributeStore};
use proptest::prelude::*;
use std::time::Duration;

const GRAPH_NODES: u64 = 200;

fn class_of(i: u8) -> Priority {
    Priority::ALL[i as usize % CLASSES]
}

fn trace(seed: u64, mean_rps: f64, burstiness: f64, classes: &[u8]) -> TrafficTrace {
    let tenants: Vec<TenantSpec> = classes
        .iter()
        .enumerate()
        .map(|(i, &c)| TenantSpec {
            name: format!("t{i}"),
            archetype: "base.tc".to_string(),
            class: class_of(c),
            weight: 1.0 + i as f64,
            deadline_us: 50_000 * (1 + i as u64),
            roots: 4,
            hops: 2,
            fanout: 4,
        })
        .collect();
    TrafficTrace::generate(&TrafficConfig {
        seed,
        duration_us: 200_000,
        mean_rps,
        diurnal_depth: 0.5,
        diurnal_cycles: 1.0,
        burstiness,
        cascade_depth: 5,
        tenants,
    })
}

proptest! {
    /// End-to-end through a real [`ShapedService`]: every arrival gets
    /// exactly one verdict, every admitted ticket is answered, and the
    /// rate-limit rejections replay the public token-bucket arithmetic
    /// exactly.
    #[test]
    fn every_submission_reaches_exactly_one_terminal_verdict(
        seed in 0u64..10_000,
        mean_rps in 400.0f64..2_000.0,
        burstiness in 0.5f64..0.95,
        classes in proptest::collection::vec(0u8..CLASSES as u8, 1..4),
        rates in proptest::collection::vec((20.0f64..4_000.0, 1.0f64..60.0), 4),
    ) {
        let t = trace(seed, mean_rps, burstiness, &classes);
        let buckets: Vec<BucketConfig> = classes
            .iter()
            .enumerate()
            .map(|(i, _)| BucketConfig { rate_per_sec: rates[i].0, burst: rates[i].1 })
            .collect();
        let admission = AdmissionConfig {
            tenants: buckets
                .iter()
                .enumerate()
                .map(|(i, b)| TenantConfig { name: format!("t{i}"), bucket: *b })
                .collect(),
            // Lane-bound rejections depend on drain timing; the bounds
            // property runs against the pure controller below. Here the
            // lanes stay unbounded so the bucket oracle is exact.
            queue_bounds: [usize::MAX; CLASSES],
            brownout: None,
        };

        let g = generators::power_law(GRAPH_NODES, 6, 17);
        let a = AttributeStore::synthetic(GRAPH_NODES, 6, 17);
        let svc = ShapedService::start(
            Box::new(CpuBackend::new(&g, &a, 2)),
            ServiceConfig {
                workers: 1,
                queue_capacity: 32,
                max_batch: 4,
                ..ServiceConfig::default()
            },
            admission,
            None,
        );

        // Independent oracle: replay the public bucket arithmetic.
        let rng = lsdgnn_chaos::ChaosRng::new(t.seed);
        let mut oracle: Vec<TokenBucket> = buckets.iter().map(TokenBucket::new).collect();
        let mut expect_limited = 0u64;
        let (mut admitted, mut rejected) = (0u64, 0u64);
        let mut tickets = Vec::new();
        for arr in &t.arrivals {
            let tenant = arr.tenant as usize;
            let oracle_limited = oracle[tenant].try_take(&buckets[tenant], arr.at_us).is_err();
            expect_limited += u64::from(oracle_limited);
            let verdict = svc.submit(
                ShapedRequest {
                    req: arr.request(&rng, GRAPH_NODES),
                    tenant,
                    class: arr.class,
                    deadline: Duration::from_micros(arr.deadline_us),
                },
                arr.at_us,
            );
            match verdict {
                SubmitVerdict::Admitted(ticket) => {
                    prop_assert!(!oracle_limited, "oracle says limited, service admitted");
                    admitted += 1;
                    tickets.push(ticket);
                }
                SubmitVerdict::Rejected { reason, retry_after_us } => {
                    prop_assert_eq!(reason, RejectReason::RateLimit);
                    prop_assert!(oracle_limited, "service limited, oracle admitted");
                    prop_assert!(retry_after_us > 0, "retry hints are non-zero");
                    rejected += 1;
                }
                SubmitVerdict::Shed => prop_assert!(false, "no brownout configured, nothing sheds"),
            }
        }

        // Terminal-verdict conservation: one verdict per arrival, and
        // every admitted ticket is answered (exact or degraded).
        prop_assert_eq!(admitted + rejected, t.arrivals.len() as u64);
        let replies: Vec<_> = tickets.into_iter().map(|tk| tk.wait_reply()).collect();
        prop_assert_eq!(replies.len() as u64, admitted);

        let stats = svc.admission_stats();
        prop_assert_eq!(stats.rate_limited, expect_limited, "bucket arithmetic drifted");
        prop_assert_eq!(stats.rate_limited, rejected);
        prop_assert_eq!(
            Priority::ALL.iter().map(|p| stats.accepted(*p)).sum::<u64>(),
            admitted
        );
        prop_assert!(stats.bounds_respected());
        svc.shutdown();
    }

    /// The pure controller under arbitrary configs, burn levels and
    /// admit/dequeue interleavings: exactly one counter bump per call,
    /// lanes never exceed their bounds.
    #[test]
    fn pure_controller_conserves_verdicts_and_respects_bounds(
        seed in 0u64..10_000,
        classes in proptest::collection::vec(0u8..CLASSES as u8, 1..4),
        rates in proptest::collection::vec((20.0f64..4_000.0, 1.0f64..60.0), 4),
        bounds in proptest::collection::vec(0usize..6, CLASSES..=CLASSES),
        with_brownout in any::<bool>(),
        burns in proptest::collection::vec(0.0f64..3.0, 8),
        dequeue_every in 1u64..5,
    ) {
        let t = trace(seed, 1_500.0, 0.8, &classes);
        let cfg = AdmissionConfig {
            tenants: classes
                .iter()
                .enumerate()
                .map(|(i, _)| TenantConfig {
                    name: format!("t{i}"),
                    bucket: BucketConfig { rate_per_sec: rates[i].0, burst: rates[i].1 },
                })
                .collect(),
            queue_bounds: [bounds[0], bounds[1], bounds[2]],
            brownout: with_brownout.then_some(BrownoutConfig),
        };
        let mut ctrl = AdmissionController::new(cfg);
        let mut verdicts = 0u64;
        for (i, arr) in t.arrivals.iter().enumerate() {
            ctrl.set_burn(burns[i % burns.len()]);
            let v = ctrl.decide(arr.tenant as usize, arr.class, arr.at_us);
            verdicts += 1;
            // Bound check at every step, not just at the end.
            for p in Priority::ALL {
                prop_assert!(
                    ctrl.queue_len(p) <= ctrl.config().queue_bounds[p.index()],
                    "lane {} over bound after arrival {i}", p.name()
                );
            }
            if let Verdict::Admit { .. } = v {
                // Drain occasionally so admits keep flowing.
                if (i as u64).is_multiple_of(dequeue_every) {
                    ctrl.dequeued(arr.class);
                }
            }
        }
        let stats = ctrl.stats();
        let counted: u64 = Priority::ALL
            .iter()
            .map(|p| stats.accepted(*p) + stats.rejected(*p) + stats.shed(*p))
            .sum();
        prop_assert_eq!(counted, verdicts, "exactly one counter bump per decide call");
        prop_assert!(stats.bounds_respected());
        prop_assert_eq!(stats.rate_limited + stats.queue_full,
            Priority::ALL.iter().map(|p| stats.rejected(*p)).sum::<u64>());
    }
}
