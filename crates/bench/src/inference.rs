//! `bench inference` — end-to-end inference serving and its request
//! ledger: the exact checks on [`InferenceService`].
//!
//! Every arm serves the skewed 2-partition workload of `workload.rs`
//! (hot head pinned to the worker-local shard, 80% of roots on it)
//! through the same backend and the same [`SageModel`]:
//!
//! * **reference** — [`run_sequential`]: each request is sampled,
//!   gathered and embedded before the next is submitted.
//! * **service arms** — [`InferenceService`] over three sampling
//!   services that differ only in how much of the request ledger is
//!   wired in: `plain` ([`SamplingService::start`]), `disabled`
//!   ([`SamplingService::start_observed`] with no [`Observability`]:
//!   every instrumentation site is reached and must decide, from one
//!   thread-local read, to do nothing) and `observed` (a live ledger:
//!   every request gets a trace id and its causal event chain). Each arm
//!   serves the stream one request at a time and again with a sliding
//!   window of [`WINDOW`] in flight.
//!
//! Neither the number of requests in flight nor recording may change an
//! answer: every stream folds every reply digest and `digests_match`
//! gates them all against the reference. The observed ledger's blame
//! report over every finished trace (quantile 0, so which stages appear
//! is a property of the workload, not of wall-clock ordering) must name
//! at least one stage.
//!
//! Three chaos arms — request loss, a card failure halfway through, a
//! queue stall — serve [`CHAOS_REQUESTS`] under a [`FaultPlan`] built
//! from `--seed` (one sampling worker, so breaker decisions stay in
//! request order). `run_sequential` over one faulted service is the
//! reference; an observed service with every request in flight must
//! answer digest-identically with complete replies, its blame report's
//! `top_fault` must name the injected fault, and every flight dump must
//! carry the plan's seed and digest. The card failure must degrade
//! replies (with `recall < 1`) and capture flight dumps.
//!
//! Latency, capacity and where a request's time goes are measured by the
//! `benchmark` package: `infer_uniform`, `inference.gather_us`,
//! `inference.compute_us`, the `budget.*` rows and `obs.overhead_frac`.

use crate::report::{hex, Report};
use crate::workload::{fold, graph, placement, request, ATTR_LEN, FANOUT, HOPS, PARTITIONS};
use lsdgnn_core::chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_core::framework::{
    run_sequential, CpuBackend, InferenceConfig, InferenceReply, InferenceService, Observability,
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
/// Requests per chaos arm; the card dies halfway through.
const CHAOS_REQUESTS: u64 = 32;
/// In-flight window of the windowed streams: deep enough that the
/// sampling service never runs out of queued requests.
const WINDOW: u64 = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Single sampling worker on every arm, so the chaos arms' breaker
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

/// One chaos arm's outcome; everything here is deterministic for a
/// fixed plan seed (fault decisions are pure functions of request
/// coordinates, never wall clocks).
struct ChaosArm {
    scenario: &'static str,
    plan_digest: u64,
    digests_match: bool,
    complete: bool,
    degraded: u64,
    min_recall: f64,
    top_fault: Option<&'static str>,
    dumps: u64,
    dumps_correlated: bool,
}

/// Serves the chaos stream under `spec`: the sequential reference over
/// one faulted service, then every request in flight through an
/// observed one (fresh services, identical plans), and reads the blame
/// report and flight dumps back from the ledger.
fn chaos_arm(
    g: &CsrGraph,
    a: &AttributeStore,
    nodes: u64,
    seed: u64,
    scenario: &'static str,
    spec: ScenarioSpec,
) -> ChaosArm {
    let plan = FaultPlan::build(seed, spec).expect("chaos plan");
    let faulted = |obs: Option<Observability>| {
        let injector = Some(FaultInjector::new(plan.clone()));
        SamplingService::start_observed(backend(g, a), service_cfg(), None, injector, obs)
    };
    let stream = || (0..CHAOS_REQUESTS).map(|s| request(s, nodes, ROOTS_PER_REQ));

    let seq = run_sequential(&faulted(None), &model(), stream());

    let ob = Observability::default();
    let pipe = InferenceService::start(
        faulted(Some(ob.clone())),
        model(),
        InferenceConfig::default(),
    );
    let tickets: Vec<_> = stream().map(|r| pipe.submit(r)).collect();
    let piped: Vec<InferenceReply> = tickets.into_iter().map(|t| t.wait()).collect();
    pipe.shutdown();

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

    let snap = ob.ledger().snapshot();
    // Quantile 0: the whole population is the "tail" — fault tallies
    // then depend only on the plan, not on wall-clock ordering.
    let blame = snap.blame(0.0);
    ChaosArm {
        scenario,
        plan_digest: plan.digest(),
        digests_match,
        complete,
        degraded,
        min_recall,
        top_fault: blame.top_fault(),
        dumps: snap.dumps.len() as u64,
        dumps_correlated: snap
            .dumps
            .iter()
            .all(|d| d.chaos_seed == Some(plan.seed()) && d.plan_digest == Some(plan.digest())),
    }
}

/// Runs the reference, the three service arms and the three chaos arms,
/// and writes the artifact to `out` through the shared gate writer.
pub fn inference(quick: bool, seed: u64, out: &str) {
    let requests = if quick { QUICK_REQUESTS } else { REQUESTS };
    let (g, a) = graph(quick);
    let nodes = g.num_nodes();
    let widths: Vec<String> = WIDTHS.iter().map(|w| w.to_string()).collect();
    println!(
        "inference bench: {nodes} nodes, {PARTITIONS} partitions, {requests} requests \
         ({HOPS} hops, fanout {FANOUT}), sage [{}], seed {seed}",
        widths.join("x")
    );
    // Warm caches, pools and threads before the digested streams.
    let warmup = || (0..8).map(|s| request(1 << 32 | s, nodes, ROOTS_PER_REQ));

    let ref_svc = SamplingService::start(backend(&g, &a), service_cfg());
    run_sequential(&ref_svc, &model(), warmup());
    let ref_digest = run_sequential(
        &ref_svc,
        &model(),
        (0..requests).map(|s| request(s, nodes, ROOTS_PER_REQ)),
    )
    .iter()
    .fold(FNV_OFFSET, |d, r| fold(d, r.digest()));
    ref_svc.shutdown();

    let ob = Observability::default();
    let arms = [
        (
            "plain",
            SamplingService::start(backend(&g, &a), service_cfg()),
        ),
        (
            "disabled",
            SamplingService::start_observed(backend(&g, &a), service_cfg(), None, None, None),
        ),
        (
            "observed",
            SamplingService::start_observed(
                backend(&g, &a),
                service_cfg(),
                None,
                None,
                Some(ob.clone()),
            ),
        ),
    ];
    let mut matching = 0u64;
    for (name, svc) in arms {
        let pipe = InferenceService::start(svc, model(), InferenceConfig::default());
        for r in warmup() {
            let reply = pipe.infer(r);
            pipe.recycle(reply);
        }
        let one = one_in_flight(&pipe, requests, nodes);
        let win = windowed(&pipe, requests, nodes);
        pipe.shutdown();
        println!(
            "  {name:<8} one in flight {}  {WINDOW} in flight {}",
            hex(one),
            hex(win)
        );
        matching += u64::from(one == ref_digest) + u64::from(win == ref_digest);
    }

    let snap = ob.ledger().snapshot();
    let mut blame = snap.blame(0.0);
    blame.stages.sort_by_key(|s| s.stage.rank());
    let stages: Vec<&str> = blame.stages.iter().map(|s| s.stage.name()).collect();
    println!(
        "  observed ledger: {} finished, blame (q=0) stages {}",
        snap.finished,
        stages.join(" ")
    );

    let half = CHAOS_REQUESTS / 2;
    let chaos = [
        chaos_arm(
            &g,
            &a,
            nodes,
            seed ^ 1,
            "request_loss",
            ScenarioSpec::none().with_request_loss(0.4),
        ),
        chaos_arm(
            &g,
            &a,
            nodes,
            seed ^ 2,
            "card_down",
            ScenarioSpec::none().with_card_failure(1, half),
        ),
        chaos_arm(
            &g,
            &a,
            nodes,
            seed ^ 3,
            "queue_stall",
            ScenarioSpec::none().with_queue_stall(0, 1, 2_000),
        ),
    ];
    for arm in &chaos {
        println!(
            "  chaos {:<13} top_fault {:<13} degraded {}/{CHAOS_REQUESTS}  min recall {:.3}  \
             dumps {}",
            arm.scenario,
            arm.top_fault.unwrap_or("-"),
            arm.degraded,
            arm.min_recall,
            arm.dumps
        );
    }

    let mut report = Report::new("inference", quick, seed);
    report.num("nodes", nodes as f64);
    report.num("partitions", PARTITIONS as f64);
    report.num("requests", requests as f64);
    report.num("hops", HOPS as f64);
    report.num("fanout", FANOUT as f64);
    report.num("attr_len", ATTR_LEN as f64);
    report.put("model_widths", Json::Str(widths.join("x")));
    report.num("window", WINDOW as f64);
    report.put("reply_digest", Json::Str(hex(ref_digest)));
    report.num("ledger_finished", snap.finished as f64);
    report.put(
        "blame_stages",
        Json::Arr(stages.iter().map(|s| Json::Str(s.to_string())).collect()),
    );
    report.put(
        "chaos_arms",
        Json::Arr(
            chaos
                .iter()
                .map(|arm| {
                    Json::Obj(vec![
                        ("scenario".to_string(), Json::Str(arm.scenario.to_string())),
                        ("plan_digest".to_string(), Json::Str(hex(arm.plan_digest))),
                        (
                            "top_fault".to_string(),
                            Json::Str(arm.top_fault.unwrap_or("-").to_string()),
                        ),
                        ("degraded".to_string(), Json::Num(arm.degraded as f64)),
                        ("min_recall".to_string(), Json::Num(arm.min_recall)),
                        ("flight_dumps".to_string(), Json::Num(arm.dumps as f64)),
                    ])
                })
                .collect(),
        ),
    );

    report.gate(
        "digests_match",
        matching == 6,
        Json::Num(matching as f64),
        "6 streams (3 arms x one and 64 in flight) == reply_digest",
    );
    report.gate(
        "blame_names_stages",
        !stages.is_empty(),
        Json::Num(stages.len() as f64),
        ">= 1 stage",
    );
    let count = |f: fn(&ChaosArm) -> bool| Json::Num(chaos.iter().filter(|a| f(a)).count() as f64);
    report.gate(
        "chaos_digests_match",
        chaos.iter().all(|a| a.digests_match),
        count(|a| a.digests_match),
        "3 arms == run_sequential",
    );
    report.gate(
        "chaos_all_complete",
        chaos.iter().all(|a| a.complete),
        count(|a| a.complete),
        "3 arms with every reply complete",
    );
    report.gate(
        "blame_names_fault",
        chaos.iter().all(|a| a.top_fault == Some(a.scenario)),
        count(|a| a.top_fault == Some(a.scenario)),
        "3 arms whose top_fault is the injected fault",
    );
    report.gate(
        "dumps_correlated",
        chaos.iter().all(|a| a.dumps_correlated),
        count(|a| a.dumps_correlated),
        "3 arms whose flight dumps carry the plan seed + digest",
    );
    let card = &chaos[1];
    report.gate(
        "card_down_degrades",
        card.degraded > 0 && card.min_recall < 1.0 && card.dumps > 0,
        Json::Obj(vec![
            ("degraded".to_string(), Json::Num(card.degraded as f64)),
            ("min_recall".to_string(), Json::Num(card.min_recall)),
            ("flight_dumps".to_string(), Json::Num(card.dumps as f64)),
        ]),
        "degraded > 0, min_recall < 1, flight_dumps > 0",
    );
    report.finish(out);
}
