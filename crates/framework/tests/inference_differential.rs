//! Differential pinning of the inference service: for arbitrary graphs,
//! request shapes and in-flight windows, the [`InferenceService`] must
//! produce bitwise-identical replies to the one-at-a-time sample →
//! gather → compute reference ([`run_sequential`]) — solo, batched,
//! over the inline hot-set cache, and under chaos-injected card failures, where degraded
//! samples must still yield complete (degraded, recall-quantified)
//! replies on both arms.
//! Concurrency and batching may change latency, never answers.

use lsdgnn_chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_framework::{
    run_sequential, CacheConfig, CpuBackend, InferenceConfig, InferenceReply, InferenceService,
    InferenceTicket, SampleRequest, SamplingBackend, SamplingService, ServiceConfig,
};
use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionedGraph};
use lsdgnn_nn::SageModel;
use proptest::prelude::*;

const NODES: u64 = 300;
const ATTR_LEN: usize = 6;
const REQUESTS: u64 = 12;

fn backend(edges: u64, gseed: u64, parts: u32) -> Box<dyn SamplingBackend> {
    let g = generators::power_law(NODES, edges.max(2), gseed);
    let a = AttributeStore::synthetic(NODES, ATTR_LEN, gseed);
    Box::new(CpuBackend::new(&g, &a, parts))
}

/// [`backend`] with the inline hot-set cache mounted, both tiers sized
/// `capacity`.
fn cached_backend(edges: u64, gseed: u64, parts: u32, capacity: usize) -> Box<dyn SamplingBackend> {
    let g = generators::power_law(NODES, edges.max(2), gseed);
    let a = AttributeStore::synthetic(NODES, ATTR_LEN, gseed);
    let pg = PartitionedGraph::new(g, parts).with_attributes(a);
    Box::new(CpuBackend::from_partitioned_cached(
        pg,
        CacheConfig::with_capacity(capacity),
    ))
}

fn requests(seed: u64, roots: u64, fanout: usize) -> impl Iterator<Item = SampleRequest> + Clone {
    (0..REQUESTS).map(move |s| SampleRequest {
        roots: (0..roots)
            .map(|r| NodeId((seed.wrapping_mul(31) + s * 13 + r * 7) % NODES))
            .collect(),
        hops: 2,
        fanout,
        seed: s,
    })
}

fn model(seed: u64) -> SageModel {
    SageModel::new(&[ATTR_LEN, 5, 3], seed)
}

/// `workers: 1` on every arm: chaos breaker state is order-dependent
/// across requests, and the differential claim is about the pipeline,
/// not worker scheduling.
fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

fn assert_replies_match(piped: &[InferenceReply], seq: &[InferenceReply]) {
    assert_eq!(piped.len(), seq.len());
    for (i, (p, s)) in piped.iter().zip(seq).enumerate() {
        assert_eq!(p, s, "request {i} diverged");
        assert_eq!(p.digest(), s.digest(), "request {i} digest diverged");
    }
}

/// Serves `reqs` with at most `window` requests in flight, replies in
/// request order.
fn pipeline_replies(
    svc: SamplingService,
    model: SageModel,
    window: usize,
    reqs: impl Iterator<Item = SampleRequest>,
) -> Vec<InferenceReply> {
    let pipe = InferenceService::start(svc, model, InferenceConfig::default());
    let mut tickets = std::collections::VecDeque::<InferenceTicket>::new();
    let mut replies = Vec::new();
    for r in reqs {
        if tickets.len() == window {
            replies.push(tickets.pop_front().expect("window is non-zero").wait());
        }
        tickets.push_back(pipe.submit(r));
    }
    replies.extend(tickets.into_iter().map(InferenceTicket::wait));
    replies
}

proptest! {
    /// Healthy backends, arbitrary shapes and in-flight windows: the
    /// service's output is bitwise-identical to the sequential reference.
    #[test]
    fn pipelined_matches_sequential_on_healthy_backends(
        gseed in 1u64..500,
        edges in 2u64..12,
        parts in 1u32..4,
        roots in 1u64..12,
        fanout in 1usize..6,
        window in 1usize..16,
    ) {
        let reqs = requests(gseed, roots, fanout);

        let piped = pipeline_replies(
            SamplingService::start(backend(edges, gseed, parts), service_cfg()),
            model(gseed),
            window,
            reqs.clone(),
        );
        let seq_svc = SamplingService::start(backend(edges, gseed, parts), service_cfg());
        let seq = run_sequential(&seq_svc, &model(gseed), reqs);
        assert_replies_match(&piped, &seq);
        for r in &seq {
            prop_assert!(!r.degraded);
            prop_assert_eq!(r.recall, 1.0);
        }
    }

    /// A cached cluster serves the same embeddings, cold or warm.
    #[test]
    fn cached_backend_is_transparent(
        gseed in 1u64..500,
        roots in 1u64..8,
        capacity in 1usize..64,
    ) {
        let reqs = requests(gseed, roots, 4);
        let piped = pipeline_replies(
            SamplingService::start(cached_backend(6, gseed, 2, capacity), service_cfg()),
            model(gseed),
            REQUESTS as usize,
            reqs.clone(),
        );
        let seq_svc = SamplingService::start(backend(6, gseed, 2), service_cfg());
        let seq = run_sequential(&seq_svc, &model(gseed), reqs);
        assert_replies_match(&piped, &seq);
    }

    /// Chaos-faulted backends: both arms see the same deterministic
    /// faults; degraded samples yield degraded-but-complete replies that
    /// stay bitwise-identical across the two executions.
    #[test]
    fn chaos_faults_degrade_identically(
        gseed in 1u64..500,
        roots in 1u64..8,
        loss in 0.0f64..0.6,
        card in 0u32..2,
        at in 0u64..REQUESTS,
    ) {
        let spec = ScenarioSpec::none()
            .with_request_loss(loss)
            .with_card_failure(card, at);
        let plan = FaultPlan::build(gseed, spec).expect("valid spec");
        let faulted = || {
            SamplingService::start_observed(
                backend(6, gseed, 2),
                service_cfg(),
                None,
                Some(FaultInjector::new(plan.clone())),
                None,
            )
        };
        let reqs = requests(gseed, roots, 4);

        let piped = pipeline_replies(
            faulted(),
            model(gseed),
            REQUESTS as usize,
            reqs.clone(),
        );
        let seq = run_sequential(&faulted(), &model(gseed), reqs);
        assert_replies_match(&piped, &seq);
        let out_dim = model(gseed).out_dim();
        for r in &piped {
            // Degraded or not, the reply is complete and quantified.
            let (rows, cols) = r.embeddings.shape();
            prop_assert_eq!(cols, out_dim);
            prop_assert!(rows as u64 == roots);
            if r.degraded {
                prop_assert!(r.recall < 1.0);
            } else {
                prop_assert_eq!(r.recall, 1.0);
            }
        }
    }
}
