//! `bench inference` — end-to-end inference serving: the exact checks
//! on [`InferenceService`], and where a request's time goes.
//!
//! The service and the reference serve the shared skewed 2-partition
//! workload of `dataplane.rs` (hot head pinned to the worker-local
//! shard, 80% of roots on it) through the same backend and the same
//! [`SageModel`]:
//!
//! * **reference** — [`run_sequential`]: each request is sampled,
//!   gathered and embedded before the next is submitted.
//! * **one in flight** — [`InferenceService::infer`], one request at a
//!   time: the per-request service latency (`one_in_flight_p50_us`,
//!   `one_in_flight_p99_us`), no queueing in it.
//! * **windowed** — a sliding window of [`WINDOW`] requests in flight:
//!   the closed-loop throughput (`windowed_requests_per_sec`). A latency
//!   taken here would be the window's queueing, so none is reported.
//!
//! How many requests are in flight must change latency, never answers:
//! every arm folds every reply digest and the run records
//! `digests_match`. A chaos sub-run (mid-stream card failure, single
//! sampling worker so breaker decisions stay in request order) checks
//! the degradation contract end to end: every reply is complete and
//! digest-identical to the reference, degraded replies carry
//! `recall < 1`.
//!
//! Only those exact fields are gated. The two timings above and the
//! stage breakdown (sampling / gather / compute fractions — the measured
//! counterpart of `nn::e2e::E2eModel`'s analytical split) are a
//! readout; capacity and latency are judged by the `benchmark` package's
//! `infer_uniform` workload, pinned and in alternating pairs.

use crate::dataplane::{fold, graph, placement, skewed_root, ATTR_LEN, FANOUT, HOPS, PARTITIONS};
use crate::util::outln;
use lsdgnn_core::chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_core::desim::{Histogram, Time};
use lsdgnn_core::framework::{
    run_sequential, ChaosBackend, CpuBackend, InferenceConfig, InferenceReply, InferenceService,
    SampleRequest, SamplingBackend, SamplingService, ServiceConfig,
};
use lsdgnn_core::graph::{AttributeStore, CsrGraph};
use lsdgnn_core::nn::{Matrix, SageModel, SageScratch};
use lsdgnn_core::telemetry::Json;
use std::time::Instant;

/// GraphSAGE widths served on top of the 64-float attribute rows. Small
/// on purpose: the paper's serving bottleneck is sampling + attribute
/// movement, and the breakdown measurement below confirms the bench
/// reproduces that regime.
const WIDTHS: [usize; 3] = [ATTR_LEN, 16, 8];
const MODEL_SEED: u64 = 61;

/// Roots per inference request. Online inference requests name a handful
/// of entities, not a training mini-batch.
const ROOTS_PER_REQ: u64 = 16;

const REQUESTS: u64 = 1024;
const QUICK_REQUESTS: u64 = 128;
/// Requests for the per-stage breakdown measurement.
const BREAKDOWN_REQUESTS: u64 = 32;
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

/// A small skewed inference request over the shared workload's hot-head
/// root distribution.
fn request(seed: u64, nodes: u64, roots: u64) -> SampleRequest {
    SampleRequest {
        roots: (0..roots).map(|i| skewed_root(seed, i, nodes)).collect(),
        hops: HOPS,
        fanout: FANOUT,
        seed,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One request at a time through the service. Returns the per-request
/// latency and the folded reply digest.
fn one_in_flight(pipe: &InferenceService, requests: u64, nodes: u64) -> (Histogram, u64) {
    let mut lat = Histogram::default();
    let mut digest = FNV_OFFSET;
    for s in 0..requests {
        let t0 = Instant::now();
        let r = pipe.infer(request(s, nodes, ROOTS_PER_REQ));
        lat.record(Time::from_micros(t0.elapsed().as_micros() as u64));
        digest = fold(digest, r.digest());
        pipe.recycle(r);
    }
    (lat, digest)
}

/// The request stream through the service with a sliding window of
/// [`WINDOW`] in flight. Returns (requests/sec, folded reply digest).
fn windowed(pipe: &InferenceService, requests: u64, nodes: u64) -> (f64, u64) {
    let mut digest = FNV_OFFSET;
    let mut tickets = std::collections::VecDeque::new();
    let mut submitted = 0u64;
    let start = Instant::now();
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
    (requests as f64 / start.elapsed().as_secs_f64(), digest)
}

/// Measures where sequential serving time goes: sampling vs gather vs
/// compute. This is the measured counterpart of `E2eModel`'s analytical
/// split; EXPERIMENTS.md records the calibration delta.
fn stage_breakdown(svc: &SamplingService, model: &SageModel, nodes: u64) -> (f64, f64, f64) {
    let mut scratch = SageScratch::new();
    let (mut t_sample, mut t_gather, mut t_compute) = (0.0f64, 0.0f64, 0.0f64);
    let mut rows = Vec::new();
    let mut slot_of = Vec::new();
    let mut out = Matrix::zeros(1, 1);
    for s in 0..BREAKDOWN_REQUESTS {
        let req = request(s, nodes, ROOTS_PER_REQ);
        let t0 = Instant::now();
        let sreply = svc.sample_reply(req);
        t_sample += t0.elapsed().as_secs_f64();

        let block = &sreply.block;
        let t0 = Instant::now();
        let mut fetch = Vec::with_capacity(block.roots.len() + block.nodes.len());
        fetch.extend_from_slice(&block.roots);
        fetch.extend_from_slice(&block.nodes);
        let attr_len = svc.gather_attr_rows(&fetch, &mut rows, &mut slot_of);
        t_gather += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let feats = Matrix::from_vec(rows.len() / attr_len, attr_len, std::mem::take(&mut rows));
        out.reset(block.roots.len(), model.out_dim());
        let hop_starts = &block.hop_offsets[..block.hop_offsets.len() - 1];
        model.forward_block_into(
            block.roots.len(),
            hop_starts,
            &block.adj_offsets,
            &feats,
            &slot_of,
            &mut scratch,
            &mut out,
        );
        t_compute += t0.elapsed().as_secs_f64();
        rows = feats.into_vec();
        svc.backend().recycle(sreply.block);
    }
    let total = t_sample + t_gather + t_compute;
    (t_sample / total, t_gather / total, t_compute / total)
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
        SamplingService::start_faulted(Box::new(chaos), service_cfg(), None, Some(injector))
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

/// Runs the reference, both service arms, the breakdown and the chaos
/// sub-run; writes `BENCH_inference.json`.
pub fn inference(quick: bool) {
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
    // Warm caches, pools and threads outside every measurement.
    let warmup = || (0..8).map(|s| request(1 << 32 | s, nodes, ROOTS_PER_REQ));

    let ref_svc = SamplingService::start(backend(&g, &a), service_cfg());
    run_sequential(&ref_svc, &model(), warmup());
    let ref_digest = run_sequential(&ref_svc, &model(), stream())
        .iter()
        .fold(FNV_OFFSET, |d, r| fold(d, r.digest()));
    let (f_sample, f_gather, f_compute) = stage_breakdown(&ref_svc, &model(), nodes);
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
    let (lat, one_digest) = one_in_flight(&pipe, requests, nodes);
    let (p50, p99) = (
        lat.percentile(0.50).as_micros_f64(),
        lat.percentile(0.99).as_micros_f64(),
    );
    let (windowed_rps, windowed_digest) = windowed(&pipe, requests, nodes);
    pipe.shutdown();

    let (chaos_match, chaos_degraded, chaos_min_recall, chaos_complete) = chaos_run(&g, &a, nodes);
    let digests_match = one_digest == ref_digest && windowed_digest == ref_digest && chaos_match;

    outln!("  one in flight       p50 {p50:>8.0}us  p99 {p99:>8.0}us");
    outln!("  {WINDOW} in flight  {windowed_rps:>8.1} req/s   digests_match {digests_match}");
    outln!(
        "  breakdown: sampling {:.1}%  gather {:.1}%  compute {:.1}%",
        f_sample * 100.0,
        f_gather * 100.0,
        f_compute * 100.0
    );
    outln!(
        "  chaos: degraded {chaos_degraded}/{CHAOS_REQUESTS} replies, all complete \
         {chaos_complete}, min recall {chaos_min_recall:.3}"
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
        num("one_in_flight_p50_us", p50),
        num("one_in_flight_p99_us", p99),
        num("window", WINDOW as f64),
        num("windowed_requests_per_sec", windowed_rps),
        num("sampling_fraction", f_sample),
        num("gather_fraction", f_gather),
        num("compute_fraction", f_compute),
        num("chaos_degraded_replies", chaos_degraded as f64),
        num("chaos_min_recall", chaos_min_recall),
        ("chaos_all_complete".to_string(), Json::Bool(chaos_complete)),
        ("digests_match".to_string(), Json::Bool(digests_match)),
    ]);
    std::fs::write("BENCH_inference.json", doc.render()).expect("write inference bench json");
    outln!("wrote BENCH_inference.json");
}
