//! `bench obs` — observability digest-identity + blame benchmark.
//!
//! Three healthy arms serve the same inference workload as
//! `bench inference` (skewed 2-partition dataplane graph, GraphSAGE on
//! top) and differ only in how much of the request ledger is wired in:
//!
//! * **baseline** — the plain constructors; the observability code is
//!   compiled in but no ledger exists and no scope is ever entered.
//! * **disabled** — the fully-instrumented entry point
//!   ([`SamplingService::start_observed`]) with no [`Observability`]
//!   installed: every instrumentation site is reached and must decide,
//!   from one thread-local read, to do nothing.
//! * **instrumented** — a live [`Observability`]: every request gets a
//!   trace id and the full causal event chain (enqueue → admission →
//!   per-hop sampling → remote legs → coalesced gather → per-layer
//!   compute → done) lands in the ledger.
//!
//! The run asserts the observability contract: all three arms fold the
//! same reply digest (recording may never touch results). The
//! instrumented ledger then yields a [`BlameReport`] over every finished
//! trace (quantile 0, so which stages appear depends on the workload, not
//! on wall-clock ordering). What recording costs in time is measured by
//! the `benchmark` package's `obs.overhead_frac` row.
//!
//! Three chaos arms (request loss, card failure, queue stall) re-run
//! the workload under a [`FaultPlan`] and check blame attribution end
//! to end: the tail report's `top_fault` must name the injected fault
//! layer, and degraded requests must produce flight dumps carrying the
//! plan's seed + digest for byte-exact replay.
//!
//! Stdout and artifact are byte-identical across runs and `--jobs`
//! counts; `tests/jobs_parity.rs` pins that. The ledger-merge check
//! (synthetic timestamps, 1 vs 4 recorder threads) shows canonical event
//! ordering makes the snapshot digest independent of recorder
//! interleaving.
//!
//! [`BlameReport`]: lsdgnn_core::telemetry::ledger::BlameReport
//! [`FaultPlan`]: lsdgnn_core::chaos::FaultPlan

use crate::dataplane::{fold, graph, placement, request, ATTR_LEN, PARTITIONS};
use crate::util::outln;
use lsdgnn_core::chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_core::framework::{
    ChaosBackend, CpuBackend, DegradeConfig, InferenceConfig, InferenceService, ObsConfig,
    Observability, SamplingBackend, SamplingService, ServiceConfig,
};
use lsdgnn_core::graph::{AttributeStore, CsrGraph};
use lsdgnn_core::nn::SageModel;
use lsdgnn_core::telemetry::ledger::{LedgerConfig, RequestLedger, Stage, NO_SHARD};
use lsdgnn_core::telemetry::Json;
use std::time::Duration;

/// Same GraphSAGE and request shape as `bench inference`.
const WIDTHS: [usize; 3] = [ATTR_LEN, 16, 8];
const MODEL_SEED: u64 = 61;
const ROOTS_PER_REQ: u64 = 16;

/// Requests whose reply digests are folded on every arm.
const VERIFY_REQUESTS: u64 = 48;

/// Requests per chaos arm; the card-failure arm kills a card halfway.
const CHAOS_REQUESTS: u64 = 32;

/// Synthetic traces in the deterministic merge-parity check.
const MERGE_TRACES: u64 = 64;

fn hex(d: u64) -> String {
    format!("{d:#018x}")
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 128,
        max_batch: 32,
        ..ServiceConfig::default()
    }
}

/// Chaos-arm cell: single worker (breaker decisions stay in request
/// order), small batches, fast backoff.
fn chaos_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 8,
        batch_deadline: Duration::from_micros(100),
        degrade: DegradeConfig {
            backoff_base: Duration::from_micros(10),
            ..DegradeConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn backend(g: &CsrGraph, a: &AttributeStore) -> Box<dyn SamplingBackend> {
    Box::new(CpuBackend::from_partitioned(placement(g, a)))
}

fn model() -> SageModel {
    SageModel::new(&WIDTHS, MODEL_SEED)
}

/// Warms the pipeline and folds the verification digest.
fn warm_and_digest(pipe: &InferenceService, nodes: u64) -> u64 {
    for s in 0..8 {
        let r = pipe.infer(request(1 << 32 | s, nodes, ROOTS_PER_REQ));
        pipe.recycle(r);
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let tickets: Vec<_> = (0..VERIFY_REQUESTS)
        .map(|s| pipe.submit(request(s, nodes, ROOTS_PER_REQ)))
        .collect();
    for t in tickets {
        let r = t.wait();
        digest = fold(digest, r.digest());
        pipe.recycle(r);
    }
    digest
}

/// One chaos arm's outcome; everything here is deterministic for a
/// fixed plan seed (fault decisions are pure functions of request
/// coordinates, never wall clocks).
struct ChaosArm {
    scenario: &'static str,
    plan_digest: u64,
    expect: &'static str,
    top_fault: Option<&'static str>,
    degraded: u64,
    dumps: u64,
    dumps_correlated: bool,
}

/// Serves the chaos workload under `spec` with a live ledger and reads
/// the blame report back. Requests go through one at a time so retry /
/// breaker state advances in request order on every run.
fn chaos_arm(
    g: &CsrGraph,
    a: &AttributeStore,
    nodes: u64,
    seed: u64,
    scenario: &'static str,
    spec: ScenarioSpec,
    expect: &'static str,
) -> ChaosArm {
    let plan = FaultPlan::build(seed, spec).expect("chaos plan");
    let injector = FaultInjector::new(plan.clone());
    let chaos = ChaosBackend::new(backend(g, a), injector.clone());
    let ob = Observability::new(ObsConfig::default());
    let svc = SamplingService::start_observed(
        Box::new(chaos),
        chaos_cfg(),
        None,
        Some(injector),
        Some(ob.clone()),
    );
    let pipe = InferenceService::start(svc, model(), InferenceConfig::default());

    let mut degraded = 0u64;
    for s in 0..CHAOS_REQUESTS {
        let r = pipe.infer(request(s, nodes, ROOTS_PER_REQ));
        degraded += u64::from(r.degraded);
        pipe.recycle(r);
    }

    let snap = ob.ledger().snapshot();
    // Quantile 0: the whole population is the "tail" — fault tallies
    // then depend only on the plan, not on wall-clock ordering.
    let blame = snap.blame(0.0);
    let dumps_correlated = snap
        .dumps
        .iter()
        .all(|d| d.chaos_seed == Some(plan.seed()) && d.plan_digest == Some(plan.digest()));
    ChaosArm {
        scenario,
        plan_digest: plan.digest(),
        expect,
        top_fault: blame.top_fault(),
        degraded,
        dumps: snap.dumps.len() as u64,
        dumps_correlated,
    }
}

/// Records `MERGE_TRACES` synthetic requests from `threads` recorder
/// threads (explicit timestamps, interleaving-free trace assignment)
/// and digests the merged snapshot. Canonical ordering must make the
/// digest independent of `threads`.
fn merge_digest(threads: u64) -> u64 {
    let ledger = RequestLedger::new(LedgerConfig::default());
    std::thread::scope(|sc| {
        for w in 0..threads {
            let ledger = &ledger;
            sc.spawn(move || {
                let mut h = ledger.handle();
                let mut t = w;
                while t < MERGE_TRACES {
                    let trace = t + 1;
                    let base = (t * 97) as f64;
                    h.record_at(base, trace, Stage::Enqueue, NO_SHARD, 0.0, 0.0, 0);
                    h.record_at(
                        base + 3.0,
                        trace,
                        Stage::Admission,
                        (t % 4) as u32,
                        3.0,
                        0.0,
                        1,
                    );
                    h.record_at(base + 10.0, trace, Stage::Sampling, NO_SHARD, 0.0, 7.0, t);
                    h.record_at(base + 20.0, trace, Stage::Done, NO_SHARD, 0.0, 20.0, 0);
                    t += threads;
                }
            });
        }
    });
    ledger.snapshot().digest()
}

/// Runs every arm and writes the artifact to `out`.
pub fn obs(quick: bool, seed: u64, out: &str) {
    let (g, a) = graph(quick);
    let nodes = g.num_nodes();
    let widths: Vec<String> = WIDTHS.iter().map(|w| w.to_string()).collect();
    outln!(
        "obs bench: {nodes} nodes, {PARTITIONS} partitions, {VERIFY_REQUESTS} requests, sage [{}]",
        widths.join("x")
    );

    // --- healthy arms -------------------------------------------------
    let baseline = InferenceService::start(
        SamplingService::start(backend(&g, &a), service_cfg()),
        model(),
        InferenceConfig::default(),
    );
    let disabled = InferenceService::start(
        SamplingService::start_observed(backend(&g, &a), service_cfg(), None, None, None),
        model(),
        InferenceConfig::default(),
    );
    let ob = Observability::new(ObsConfig::default());
    let instrumented = InferenceService::start(
        SamplingService::start_observed(
            backend(&g, &a),
            service_cfg(),
            None,
            None,
            Some(ob.clone()),
        ),
        model(),
        InferenceConfig::default(),
    );
    let base_digest = warm_and_digest(&baseline, nodes);
    let dis_digest = warm_and_digest(&disabled, nodes);
    let inst_digest = warm_and_digest(&instrumented, nodes);
    drop(baseline);
    drop(disabled);
    drop(instrumented);

    let digest_identical = base_digest == dis_digest && base_digest == inst_digest;
    assert!(
        digest_identical,
        "recording must never change answers: baseline {base_digest:#x} \
         disabled {dis_digest:#x} instrumented {inst_digest:#x}"
    );
    outln!(
        "  digest_identical {digest_identical} ({})",
        hex(base_digest)
    );

    // --- instrumented ledger: blame over every finished trace ----------
    let snap = ob.ledger().snapshot();
    let mut blame = snap.blame(0.0);
    blame.stages.sort_by_key(|s| s.stage.rank());
    let stage_names: Vec<&str> = blame.stages.iter().map(|s| s.stage.name()).collect();
    outln!(
        "  blame (q=0): {} traces of {}, stages {}",
        blame.tail_traces,
        blame.traces,
        stage_names.join(" ")
    );
    assert!(
        !blame.stages.is_empty(),
        "instrumented run must attribute time to at least one stage"
    );

    // --- chaos arms: blame must name the injected fault ---------------
    let half = CHAOS_REQUESTS / 2;
    let arms = [
        chaos_arm(
            &g,
            &a,
            nodes,
            seed ^ 1,
            "request_loss",
            ScenarioSpec::none().with_request_loss(0.4),
            "request_loss",
        ),
        chaos_arm(
            &g,
            &a,
            nodes,
            seed ^ 2,
            "card_down",
            ScenarioSpec::none().with_card_failure(1, half),
            "card_down",
        ),
        chaos_arm(
            &g,
            &a,
            nodes,
            seed ^ 3,
            "queue_stall",
            ScenarioSpec::none().with_queue_stall(0, 1, 2_000),
            "queue_stall",
        ),
    ];
    for arm in &arms {
        let named = arm.top_fault == Some(arm.expect);
        outln!(
            "  chaos {:<13} top_fault {:<13} named {named}  degraded {}/{CHAOS_REQUESTS}  \
             dumps {} correlated {}",
            arm.scenario,
            arm.top_fault.unwrap_or("-"),
            arm.degraded,
            arm.dumps,
            arm.dumps_correlated
        );
        assert!(
            named,
            "{}: tail blame must name the injected fault (got {:?})",
            arm.scenario, arm.top_fault
        );
        assert!(
            arm.dumps_correlated,
            "{}: flight dumps must carry the fault-plan seed + digest",
            arm.scenario
        );
    }
    let card = &arms[1];
    assert!(
        card.degraded > 0 && card.dumps > 0,
        "card failure must degrade requests and capture flight dumps"
    );

    // --- deterministic merge parity -----------------------------------
    let merge_serial = merge_digest(1);
    let merge_parallel = merge_digest(4);
    let merge_parity = merge_serial == merge_parallel;
    outln!(
        "  ledger merge digest {} (1 vs 4 recorder threads identical: {merge_parity})",
        hex(merge_serial)
    );
    assert!(
        merge_parity,
        "canonical event ordering must make the snapshot digest \
         independent of recorder interleaving"
    );

    let doc = Json::Obj(vec![
        ("bench".to_string(), Json::Str("obs".to_string())),
        ("quick".to_string(), Json::Bool(quick)),
        ("nodes".to_string(), Json::Num(nodes as f64)),
        ("partitions".to_string(), Json::Num(PARTITIONS as f64)),
        ("model_widths".to_string(), Json::Str(widths.join("x"))),
        ("digest_identical".to_string(), Json::Bool(digest_identical)),
        ("reply_digest".to_string(), Json::Str(hex(base_digest))),
        (
            "ledger_finished".to_string(),
            Json::Num(snap.finished as f64),
        ),
        (
            "blame_stages".to_string(),
            Json::Num(blame.stages.len() as f64),
        ),
        (
            "chaos_arms".to_string(),
            Json::Arr(
                arms.iter()
                    .map(|arm| {
                        Json::Obj(vec![
                            ("scenario".to_string(), Json::Str(arm.scenario.to_string())),
                            ("plan_digest".to_string(), Json::Str(hex(arm.plan_digest))),
                            ("expect".to_string(), Json::Str(arm.expect.to_string())),
                            (
                                "top_fault".to_string(),
                                match arm.top_fault {
                                    Some(f) => Json::Str(f.to_string()),
                                    None => Json::Bool(false),
                                },
                            ),
                            (
                                "blame_names_fault".to_string(),
                                Json::Bool(arm.top_fault == Some(arm.expect)),
                            ),
                            ("degraded".to_string(), Json::Num(arm.degraded as f64)),
                            ("flight_dumps".to_string(), Json::Num(arm.dumps as f64)),
                            (
                                "dumps_correlated".to_string(),
                                Json::Bool(arm.dumps_correlated),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "ledger_merge_digest".to_string(),
            Json::Str(hex(merge_serial)),
        ),
        ("merge_jobs_parity".to_string(), Json::Bool(merge_parity)),
    ]);
    std::fs::write(out, doc.render()).expect("write obs bench json");
    outln!("wrote {out}");
}
