//! `bench inference` — end-to-end inference serving: pipelined
//! [`InferenceService`] versus the sequential reference execution.
//!
//! Both arms serve the shared skewed 2-partition workload of
//! `dataplane.rs` (hot head pinned to the worker-local shard, 80% of
//! roots on it) through the same backend and the same
//! [`SageModel`] — only the execution discipline differs:
//!
//! * **sequential** — [`run_sequential`]: each request runs sample →
//!   gather → compute to completion before the next is submitted. The
//!   sampling service never sees two requests at once, so there is
//!   nothing to coalesce.
//! * **pipelined** — [`InferenceService`]: a sliding window of requests
//!   in flight keeps the sampling stage's batcher fed, so union-frontier
//!   and attribute-gather coalescing across concurrent requests do real
//!   work while older requests gather and compute downstream.
//!
//! Pipelining must change latency, never answers: an untimed pass folds
//! every reply digest on both arms and the run records `digests_match`.
//! A chaos sub-run (mid-stream card failure, single worker on both arms
//! so breaker decisions stay in request order) checks the degradation
//! contract end to end: every reply is complete and digest-identical to
//! the sequential reference, degraded replies carry `recall < 1`.
//!
//! Thread placement is fixed, because on a small host it decides the
//! number: the client runs on one CPU and the sampling service (shard
//! worker and partition servers) on another — a client is not
//! co-scheduled with the card it calls — so every sequential request
//! pays its hand-offs across CPUs, which is the latency the pipeline
//! overlaps; the pipeline's own stage threads run wherever there is
//! room. Left to the scheduler the same build reads 0.9x or 2.2x by
//! whether it packs the threads onto one CPU. The packed case is
//! measured too and reported ungated as `one_cpu_speedup`: with every
//! thread on one CPU there is no hand-off latency to hide and the
//! pipeline only costs its extra hops.
//!
//! The run also measures the sequential stage breakdown (sampling /
//! gather / compute fractions) — the measured counterpart of
//! `nn::e2e::E2eModel`'s analytical split — and writes everything to
//! `BENCH_inference.json` with end-to-end per-request p50/p99.

use crate::dataplane::{fold, graph, placement, skewed_root, ATTR_LEN, FANOUT, HOPS, PARTITIONS};
use crate::util::outln;
use lsdgnn_core::chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_core::desim::{Histogram, Time};
use lsdgnn_core::framework::{
    run_sequential, ChaosBackend, CpuBackend, InferenceConfig, InferenceReply, InferenceService,
    InferenceStats, SampleRequest, SamplingBackend, SamplingService, ServiceConfig,
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
/// of entities, not a training mini-batch — which is exactly why the
/// serving layer's cross-request coalescing matters: with small root
/// sets, the overlap lives *between* concurrent requests, and only the
/// pipelined arm ever has concurrent requests.
const ROOTS_PER_REQ: u64 = 16;

const REQUESTS: u64 = 1024;
const QUICK_REQUESTS: u64 = 128;
/// Requests whose reply digests are folded (untimed) on both arms.
const VERIFY_REQUESTS: u64 = 48;
/// Requests for the per-stage breakdown measurement.
const BREAKDOWN_REQUESTS: u64 = 32;
/// Requests in the chaos sub-run; the card dies halfway through.
const CHAOS_REQUESTS: u64 = 32;
/// In-flight window for the pipelined arm: deep enough that no stage
/// runs out of queued requests.
const WINDOW: u64 = 64;
/// Least time each arm's throughput passes are repeated for.
const MIN_TIMED: std::time::Duration = std::time::Duration::from_millis(500);

/// Single sampling worker on both arms: the speedup claim is about
/// pipelining + cross-request coalescing, not sampling thread count.
fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 128,
        max_batch: 32,
        ..ServiceConfig::default()
    }
}

extern "C" {
    /// `sched_{get,set}affinity(2)` from the C library std already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread, and every thread it spawns from then on,
/// may run on.
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

impl CpuSet {
    /// The set this process was started with (`taskset`, cgroup).
    fn allowed() -> CpuSet {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live, aligned buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(rc, 0, "the affinity mask is readable on Linux");
        CpuSet(mask)
    }

    fn cpus(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.0.len() * 64).filter(|c| self.0[c / 64] >> (c % 64) & 1 == 1)
    }

    fn one(cpu: usize) -> CpuSet {
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        CpuSet(mask)
    }

    /// Moves the calling thread into the set.
    fn enter(&self) {
        // SAFETY: as in `allowed`; the call only reads `self.0`.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        assert_eq!(rc, 0, "a subset of the allowed CPUs is always settable");
    }
}

/// Where one measurement's threads run.
#[derive(Clone, Copy)]
struct Placement {
    client: CpuSet,
    /// Shard worker and partition servers.
    sampling: CpuSet,
    /// The pipeline's gather and compute threads.
    stages: CpuSet,
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

/// Seconds of the fastest of at least three passes of `pass`, repeated
/// for at least [`MIN_TIMED`]: a quick run's 40 ms pass is shorter than
/// the host's slow spells, so it takes a dozen to see a calm one.
fn best_pass(mut pass: impl FnMut()) -> f64 {
    let timed = Instant::now();
    let mut best = f64::INFINITY;
    let mut passes = 0;
    while passes < 3 || timed.elapsed() < MIN_TIMED {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_secs_f64());
        passes += 1;
    }
    best
}

/// Serves the request stream one at a time through the reference
/// execution. Returns (requests/sec, folded digest, per-request
/// latency).
fn sequential_arm(
    svc: &SamplingService,
    model: &SageModel,
    requests: u64,
    nodes: u64,
) -> (f64, u64, Histogram) {
    // Warm caches, pools and threads outside every measured window.
    run_sequential(
        svc,
        model,
        (0..8).map(|s| request(1 << 32 | s, nodes, ROOTS_PER_REQ)),
    );
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for r in run_sequential(
        svc,
        model,
        (0..VERIFY_REQUESTS.min(requests)).map(|s| request(s, nodes, ROOTS_PER_REQ)),
    ) {
        digest = fold(digest, r.digest());
    }
    // Throughput: one run over the whole stream (shared pool/scratch).
    let best = best_pass(|| {
        let replies = run_sequential(
            svc,
            model,
            (0..requests).map(|s| request(s, nodes, ROOTS_PER_REQ)),
        );
        assert_eq!(replies.len(), requests as usize);
    });
    // Latency distribution: the same stream timed per request.
    let mut lat = Histogram::default();
    for s in 0..requests {
        let t0 = Instant::now();
        let _ = run_sequential(
            svc,
            model,
            std::iter::once(request(s, nodes, ROOTS_PER_REQ)),
        );
        lat.record(Time::from_micros(t0.elapsed().as_micros() as u64));
    }
    (requests as f64 / best, digest, lat)
}

/// Serves the request stream through the pipelined service with a
/// sliding in-flight window. Returns (requests/sec, folded digest); the
/// service keeps the end-to-end latency histogram.
fn pipelined_arm(pipe: &InferenceService, requests: u64, nodes: u64) -> (f64, u64) {
    for s in 0..8 {
        let r = pipe.infer(request(1 << 32 | s, nodes, ROOTS_PER_REQ));
        pipe.recycle(r);
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let tickets: Vec<_> = (0..VERIFY_REQUESTS.min(requests))
        .map(|s| pipe.submit(request(s, nodes, ROOTS_PER_REQ)))
        .collect();
    for t in tickets {
        let r = t.wait();
        digest = fold(digest, r.digest());
        pipe.recycle(r);
    }
    let best = best_pass(|| {
        let mut tickets = std::collections::VecDeque::new();
        let mut submitted = 0u64;
        while submitted < requests.min(WINDOW) {
            tickets.push_back(pipe.submit(request(submitted, nodes, ROOTS_PER_REQ)));
            submitted += 1;
        }
        while let Some(t) = tickets.pop_front() {
            pipe.recycle(t.wait());
            if submitted < requests {
                tickets.push_back(pipe.submit(request(submitted, nodes, ROOTS_PER_REQ)));
                submitted += 1;
            }
        }
    });
    (requests as f64 / best, digest)
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
/// both arms (fresh services, identical plans, one worker each so
/// breaker state stays in request order). Returns (digests match,
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

/// Both arms' numbers under one placement.
struct Arms {
    seq_rps: f64,
    seq_digest: u64,
    seq_lat: Histogram,
    /// Sequential sampling / gather / compute fractions.
    fractions: (f64, f64, f64),
    pipe_rps: f64,
    pipe_digest: u64,
    pipe_stats: InferenceStats,
}

impl Arms {
    fn speedup(&self) -> f64 {
        self.pipe_rps / self.seq_rps
    }
}

/// Runs the sequential arm (with its breakdown), then the pipelined
/// arm, each over fresh services whose threads are spawned inside the
/// placement's sets (a thread inherits its spawner's affinity).
fn measure(g: &CsrGraph, a: &AttributeStore, requests: u64, place: Placement) -> Arms {
    let nodes = g.num_nodes();
    let sampling_service = || {
        place.sampling.enter();
        SamplingService::start(backend(g, a), service_cfg())
    };

    let seq_svc = sampling_service();
    place.client.enter();
    let (seq_rps, seq_digest, seq_lat) = sequential_arm(&seq_svc, &model(), requests, nodes);
    let fractions = stage_breakdown(&seq_svc, &model(), nodes);
    seq_svc.shutdown();

    let gather_batch = std::env::var("LSDGNN_GATHER_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(InferenceConfig::default().gather_batch);
    let pipe_svc = sampling_service();
    place.stages.enter();
    let pipe = InferenceService::start(
        pipe_svc,
        model(),
        InferenceConfig {
            gather_batch,
            ..InferenceConfig::default()
        },
    );
    place.client.enter();
    let (pipe_rps, pipe_digest) = pipelined_arm(&pipe, requests, nodes);
    Arms {
        seq_rps,
        seq_digest,
        seq_lat,
        fractions,
        pipe_rps,
        pipe_digest,
        pipe_stats: pipe.stats(),
    }
}

/// Runs both arms, the breakdown, and the chaos sub-run; writes
/// `BENCH_inference.json`.
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

    // Client on the first allowed CPU, sampling service on the second;
    // a one-CPU host can only show the packed case.
    let allowed = CpuSet::allowed();
    let mut cpus = allowed.cpus();
    let first = CpuSet::one(cpus.next().expect("at least one CPU"));
    let second = cpus.next().map(CpuSet::one);
    let packed = Placement {
        client: first,
        sampling: first,
        stages: first,
    };
    let placed = second.map_or(packed, |sampling| Placement {
        sampling,
        stages: allowed,
        ..packed
    });
    let split = measure(&g, &a, requests, placed);
    let one_cpu_speedup = match second {
        Some(_) => measure(&g, &a, requests, packed).speedup(),
        None => split.speedup(),
    };
    allowed.enter();
    let speedup = split.speedup();
    let Arms {
        seq_rps,
        seq_lat,
        fractions: (f_sample, f_gather, f_compute),
        pipe_rps,
        pipe_stats: stats,
        ..
    } = split;
    let (seq_p50, seq_p99) = (
        seq_lat.percentile(0.50).as_micros_f64(),
        seq_lat.percentile(0.99).as_micros_f64(),
    );
    let (pipe_p50, pipe_p99) = (stats.latency_p50_us(), stats.latency_p99_us());

    let (chaos_match, chaos_degraded, chaos_min_recall, chaos_complete) = chaos_run(&g, &a, nodes);

    let digests_match = split.seq_digest == split.pipe_digest && chaos_match;
    // Quick runs smoke the machinery; the >=1.3x claim is made on the
    // full workload.
    let speedup_ok = speedup >= if quick { 1.0 } else { 1.3 };

    outln!("  sequential {seq_rps:>8.1} req/s   p50 {seq_p50:>8.0}us  p99 {seq_p99:>8.0}us");
    outln!("  pipelined  {pipe_rps:>8.1} req/s   p50 {pipe_p50:>8.0}us  p99 {pipe_p99:>8.0}us");
    outln!(
        "  speedup {speedup:.2}x ({one_cpu_speedup:.2}x with every thread on one CPU)   \
         digests_match {digests_match}"
    );
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

    let doc = Json::Obj(vec![
        ("bench".to_string(), Json::Str("inference".to_string())),
        ("quick".to_string(), Json::Bool(quick)),
        ("nodes".to_string(), Json::Num(nodes as f64)),
        ("partitions".to_string(), Json::Num(PARTITIONS as f64)),
        ("requests".to_string(), Json::Num(requests as f64)),
        ("hops".to_string(), Json::Num(HOPS as f64)),
        ("fanout".to_string(), Json::Num(FANOUT as f64)),
        ("attr_len".to_string(), Json::Num(ATTR_LEN as f64)),
        ("model_widths".to_string(), Json::Str(widths.join("x"))),
        (
            "sequential_requests_per_sec".to_string(),
            Json::Num(seq_rps),
        ),
        (
            "pipelined_requests_per_sec".to_string(),
            Json::Num(pipe_rps),
        ),
        ("pipeline_speedup".to_string(), Json::Num(speedup)),
        ("one_cpu_speedup".to_string(), Json::Num(one_cpu_speedup)),
        ("sequential_p50_us".to_string(), Json::Num(seq_p50)),
        ("sequential_p99_us".to_string(), Json::Num(seq_p99)),
        ("pipelined_p50_us".to_string(), Json::Num(pipe_p50)),
        ("pipelined_p99_us".to_string(), Json::Num(pipe_p99)),
        ("sampling_fraction".to_string(), Json::Num(f_sample)),
        ("gather_fraction".to_string(), Json::Num(f_gather)),
        ("compute_fraction".to_string(), Json::Num(f_compute)),
        (
            "chaos_degraded_replies".to_string(),
            Json::Num(chaos_degraded as f64),
        ),
        ("chaos_min_recall".to_string(), Json::Num(chaos_min_recall)),
        ("chaos_all_complete".to_string(), Json::Bool(chaos_complete)),
        ("digests_match".to_string(), Json::Bool(digests_match)),
        ("speedup_ok".to_string(), Json::Bool(speedup_ok)),
    ]);
    std::fs::write("BENCH_inference.json", doc.render()).expect("write inference bench json");
    outln!("wrote BENCH_inference.json");
}
