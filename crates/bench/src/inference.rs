//! `bench inference` — end-to-end inference serving: the exact checks
//! on [`InferenceService`].
//!
//! The service and the reference serve the shared skewed 2-partition
//! workload of `dataplane.rs` (hot head pinned to the worker-local
//! shard, 80% of roots on it) through the same backend and the same
//! [`SageModel`]:
//!
//! * **reference** — [`run_sequential`]: each request is sampled,
//!   gathered and embedded before the next is submitted.
//! * **one in flight** — [`InferenceService::infer`], one request at a
//!   time.
//! * **windowed** — a sliding window of [`WINDOW`] requests in flight.
//!
//! How many requests are in flight must never change answers: every arm
//! folds every reply digest and the run asserts `digests_match`. A chaos
//! sub-run (mid-stream card failure, single sampling worker so breaker
//! decisions stay in request order) checks the degradation contract end
//! to end: every reply is complete and digest-identical to the
//! reference, and degraded replies carry `recall < 1`.
//!
//! The workload is fixed, so `--seed` changes nothing here. Latency,
//! capacity and where a request's time goes (`inference.gather_us`,
//! `inference.compute_us`, the `budget.*` rows) are measured by the
//! `benchmark` package's `infer_uniform` workload.

use crate::dataplane::{fold, graph, placement, request, ATTR_LEN, FANOUT, HOPS, PARTITIONS};
use crate::util::outln;
use lsdgnn_core::chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_core::framework::{
    run_sequential, ChaosBackend, CpuBackend, InferenceConfig, InferenceReply, InferenceService,
    SamplingBackend, SamplingService, ServiceConfig,
};
use lsdgnn_core::graph::{AttributeStore, CsrGraph};
use lsdgnn_core::nn::SageModel;
use lsdgnn_core::telemetry::Json;

/// GraphSAGE widths served on top of the 64-float attribute rows. Small
/// on purpose: the paper's serving bottleneck is sampling + attribute
/// movement, not the model.
const WIDTHS: [usize; 3] = [ATTR_LEN, 16, 8];
const MODEL_SEED: u64 = 61;

/// Roots per inference request. Online inference requests name a handful
/// of entities, not a training mini-batch.
const ROOTS_PER_REQ: u64 = 16;

const REQUESTS: u64 = 1024;
const QUICK_REQUESTS: u64 = 128;
/// Requests in the chaos sub-run; the card dies halfway through.
const CHAOS_REQUESTS: u64 = 32;
/// In-flight window of the windowed arm: deep enough that neither the
/// sampling service nor a worker runs out of queued requests.
const WINDOW: u64 = 64;

/// Single sampling worker on every arm, so the chaos sub-run's breaker
/// decisions stay in request order.
fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 128,
        max_batch: 32,
        ..ServiceConfig::default()
    }
}

fn backend(g: &CsrGraph, a: &AttributeStore) -> Box<dyn SamplingBackend> {
    Box::new(CpuBackend::from_partitioned(placement(g, a)))
}

fn model() -> SageModel {
    SageModel::new(&WIDTHS, MODEL_SEED)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One request at a time through the service. Returns the folded reply
/// digest.
fn one_in_flight(pipe: &InferenceService, requests: u64, nodes: u64) -> u64 {
    let mut digest = FNV_OFFSET;
    for s in 0..requests {
        let r = pipe.infer(request(s, nodes, ROOTS_PER_REQ));
        digest = fold(digest, r.digest());
        pipe.recycle(r);
    }
    digest
}

/// The request stream through the service with a sliding window of
/// [`WINDOW`] in flight. Returns the folded reply digest.
fn windowed(pipe: &InferenceService, requests: u64, nodes: u64) -> u64 {
    let mut digest = FNV_OFFSET;
    let mut tickets = std::collections::VecDeque::new();
    let mut submitted = 0u64;
    while submitted < requests.min(WINDOW) {
        tickets.push_back(pipe.submit(request(submitted, nodes, ROOTS_PER_REQ)));
        submitted += 1;
    }
    while let Some(t) = tickets.pop_front() {
        let r = t.wait();
        digest = fold(digest, r.digest());
        pipe.recycle(r);
        if submitted < requests {
            tickets.push_back(pipe.submit(request(submitted, nodes, ROOTS_PER_REQ)));
            submitted += 1;
        }
    }
    digest
}

/// The degradation contract, end to end: a mid-stream card failure on
/// the reference and on the service with every request in flight (fresh
/// sampling services, identical plans, one worker each so breaker state
/// stays in request order). Returns (digests match,
/// degraded replies, min recall, every reply complete).
fn chaos_run(g: &CsrGraph, a: &AttributeStore, nodes: u64) -> (bool, u64, f64, bool) {
    let plan = FaultPlan::build(
        23,
        ScenarioSpec::none().with_card_failure(1, CHAOS_REQUESTS / 2),
    )
    .expect("chaos plan");
    let faulted = |plan: &FaultPlan| {
        let injector = FaultInjector::new(plan.clone());
        let chaos = ChaosBackend::new(backend(g, a), injector.clone());
        SamplingService::start_observed(Box::new(chaos), service_cfg(), None, Some(injector), None)
    };

    let seq = run_sequential(
        &faulted(&plan),
        &model(),
        (0..CHAOS_REQUESTS).map(|s| request(s, nodes, ROOTS_PER_REQ)),
    );

    let pipe = InferenceService::start(faulted(&plan), model(), InferenceConfig::default());
    let tickets: Vec<_> = (0..CHAOS_REQUESTS)
        .map(|s| pipe.submit(request(s, nodes, ROOTS_PER_REQ)))
        .collect();
    let piped: Vec<InferenceReply> = tickets.into_iter().map(|t| t.wait()).collect();

    let out_dim = model().out_dim();
    let mut digests_match = seq.len() == piped.len();
    let mut complete = true;
    let mut degraded = 0u64;
    let mut min_recall = 1.0f64;
    for (p, s) in piped.iter().zip(&seq) {
        digests_match &= p.digest() == s.digest();
        let (rows, cols) = p.embeddings.shape();
        complete &= rows > 0 && cols == out_dim;
        if p.degraded {
            degraded += 1;
            min_recall = min_recall.min(p.recall);
        }
    }
    (digests_match, degraded, min_recall, complete)
}

/// Runs the reference, both service arms and the chaos sub-run, asserts
/// the exact gates and writes the artifact to `out`.
pub fn inference(quick: bool, _seed: u64, out: &str) {
    let requests = if quick { QUICK_REQUESTS } else { REQUESTS };
    let (g, a) = graph(quick);
    let nodes = g.num_nodes();
    let widths: Vec<String> = WIDTHS.iter().map(|w| w.to_string()).collect();
    outln!(
        "inference bench: {nodes} nodes, {PARTITIONS} partitions, {requests} requests \
         ({HOPS} hops, fanout {FANOUT}), sage [{}]",
        widths.join("x")
    );
    let stream = || (0..requests).map(|s| request(s, nodes, ROOTS_PER_REQ));
    // Warm caches, pools and threads before the digested streams.
    let warmup = || (0..8).map(|s| request(1 << 32 | s, nodes, ROOTS_PER_REQ));

    let ref_svc = SamplingService::start(backend(&g, &a), service_cfg());
    run_sequential(&ref_svc, &model(), warmup());
    let ref_digest = run_sequential(&ref_svc, &model(), stream())
        .iter()
        .fold(FNV_OFFSET, |d, r| fold(d, r.digest()));
    ref_svc.shutdown();

    let pipe = InferenceService::start(
        SamplingService::start(backend(&g, &a), service_cfg()),
        model(),
        InferenceConfig::default(),
    );
    for r in warmup() {
        let reply = pipe.infer(r);
        pipe.recycle(reply);
    }
    let one_digest = one_in_flight(&pipe, requests, nodes);
    let windowed_digest = windowed(&pipe, requests, nodes);
    pipe.shutdown();

    let (chaos_match, chaos_degraded, chaos_min_recall, chaos_complete) = chaos_run(&g, &a, nodes);
    let digests_match = one_digest == ref_digest && windowed_digest == ref_digest && chaos_match;

    outln!("  reference, one and {WINDOW} in flight, chaos: digests_match {digests_match}");
    outln!(
        "  chaos: degraded {chaos_degraded}/{CHAOS_REQUESTS} replies, all complete \
         {chaos_complete}, min recall {chaos_min_recall:.3}"
    );
    assert!(
        digests_match,
        "InferenceService replies differ from the sequential reference"
    );
    assert!(chaos_complete, "a reply under card failure was incomplete");
    assert!(
        chaos_degraded > 0 && chaos_min_recall < 1.0,
        "the mid-stream card failure degraded no reply, or a degraded reply claimed full recall"
    );

    let num = |name: &str, v: f64| (name.to_string(), Json::Num(v));
    let doc = Json::Obj(vec![
        ("bench".to_string(), Json::Str("inference".to_string())),
        ("quick".to_string(), Json::Bool(quick)),
        num("nodes", nodes as f64),
        num("partitions", PARTITIONS as f64),
        num("requests", requests as f64),
        num("hops", HOPS as f64),
        num("fanout", FANOUT as f64),
        num("attr_len", ATTR_LEN as f64),
        ("model_widths".to_string(), Json::Str(widths.join("x"))),
        num("window", WINDOW as f64),
        (
            "reply_digest".to_string(),
            Json::Str(format!("{ref_digest:#018x}")),
        ),
        num("chaos_degraded_replies", chaos_degraded as f64),
        num("chaos_min_recall", chaos_min_recall),
        ("chaos_all_complete".to_string(), Json::Bool(chaos_complete)),
        ("digests_match".to_string(), Json::Bool(digests_match)),
    ]);
    std::fs::write(out, doc.render()).expect("write inference bench json");
    outln!("wrote {out}");
}
