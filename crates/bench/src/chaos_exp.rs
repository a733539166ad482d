//! `bench chaos` — the fault-injection sweep: loss rate × card-failure
//! scenarios through the degrading [`SamplingService`], with the MoF
//! go-back-N recovery leg driven by the same [`FaultPlan`].
//!
//! Each cell builds a deterministic plan from `--seed` and the cell's
//! scenario, serves a fixed request stream through a chaos-wrapped CPU
//! cluster (request seeds double as virtual ticks, so "card 1 dies at
//! tick N/2" is a mid-run crash), and reports:
//!
//! * **availability** — completed / submitted (degraded replies count:
//!   an approximate sample from the reachable partitions is a valid
//!   answer, the paper's streaming-sampling argument applied to faults);
//! * **quality** — mean/min [`quality::batch_recall`] of every reply
//!   against the fault-free exact batch, i.e. the measured sample-quality
//!   delta vs fault severity;
//! * **replayability** — the plan digest and an FNV digest over every
//!   reply's content + degraded flag. Both are pure functions of
//!   `(seed, scenario)`: byte-identical across runs and `--jobs` counts.
//! * **MoF recovery** — the same plan's frame-loss stream pushed through
//!   the real [`ReliableChannel`] retransmit path (transmissions,
//!   retransmissions, delivery).
//!
//! Nothing here reads a clock, so the artifact is byte-identical across
//! runs and `--jobs` counts (`tests/jobs_parity.rs`). Retry, hedge,
//! breaker and injector counters are not reported: how many attempts a
//! request gets is cut short by the ladder's wall-clock deadline, so
//! they depend on scheduling (the service's metrics export still carries
//! them).
//!
//! The zero-fault cell is the pay-for-what-you-use gate: its replies are
//! digest-compared against a service started with *no* injector at all,
//! and the run fails if they differ.

use crate::util::{outln, par_map, Table};
use lsdgnn_core::chaos::plan::fnv1a;
use lsdgnn_core::chaos::{FaultInjector, FaultPlan, ScenarioSpec};
use lsdgnn_core::framework::{
    ChaosBackend, CpuBackend, DegradeConfig, SampleReply, SampleRequest, SamplingBackend,
    SamplingService, ServiceConfig,
};
use lsdgnn_core::graph::{generators, AttributeStore, NodeId};
use lsdgnn_core::mof::ReliableChannel;
use lsdgnn_core::sampler::quality;
use lsdgnn_core::telemetry::Json;
use std::time::Duration;

/// Graph size for every cell — fixed (not `LSDGNN_SCALE`) so the
/// committed artifact replays identically in any environment.
const GRAPH_NODES: u64 = 600;
/// Cluster partitions = chaos "cards".
const PARTITIONS: u32 = 4;
/// Requests per cell.
const FULL_REQUESTS: u64 = 400;
const QUICK_REQUESTS: u64 = 120;
/// Frames pushed through the MoF recovery leg per cell.
const FULL_FRAMES: u32 = 200;
const QUICK_FRAMES: u32 = 80;

/// One scenario-grid cell: a frame/request loss rate crossed with a set
/// of card crashes (ticks are request sequence numbers).
struct Cell {
    name: String,
    loss: f64,
    /// `(card, at_fraction)` — crash tick = `at_fraction * requests`.
    card_failures: Vec<(u32, f64)>,
    /// `(card, slowdown, base_delay_us)` — a straggling card.
    straggler: Option<(u32, f64, u64)>,
}

fn grid(quick: bool) -> Vec<Cell> {
    let losses: &[f64] = if quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.01, 0.05, 0.10, 0.25]
    };
    let mut cells = Vec::new();
    for &loss in losses {
        let pct = (loss * 100.0).round() as u32;
        cells.push(Cell {
            name: format!("loss{pct}%"),
            loss,
            card_failures: vec![],
            straggler: None,
        });
        cells.push(Cell {
            name: format!("loss{pct}%+card1@mid"),
            loss,
            card_failures: vec![(1, 0.5)],
            straggler: None,
        });
        if !quick {
            cells.push(Cell {
                name: format!("loss{pct}%+2cards"),
                loss,
                card_failures: vec![(1, 1.0 / 3.0), (2, 2.0 / 3.0)],
                straggler: None,
            });
        }
    }
    if !quick {
        cells.push(Cell {
            name: "card1@mid+straggler3".to_string(),
            loss: 0.0,
            card_failures: vec![(1, 0.5)],
            straggler: Some((3, 3.0, 20)),
        });
    }
    cells
}

fn spec_of(cell: &Cell, requests: u64) -> ScenarioSpec {
    // Frame loss feeds the MoF leg; the same rate feeds the service leg
    // as per-attempt dispatch loss (a pessimistic "every dispatch rides
    // one unrecovered frame" coupling — the retry ladder absorbs it).
    let mut spec = ScenarioSpec::none()
        .with_frame_loss(cell.loss)
        .with_request_loss(cell.loss);
    for &(card, frac) in &cell.card_failures {
        spec = spec.with_card_failure(card, (requests as f64 * frac) as u64);
    }
    if let Some((card, slowdown, base_us)) = cell.straggler {
        spec = spec.with_straggler(card, slowdown, base_us);
    }
    spec
}

fn request(seed: u64) -> SampleRequest {
    SampleRequest {
        roots: (0..8)
            .map(|r| NodeId((seed * 13 + r) % GRAPH_NODES))
            .collect(),
        hops: 2,
        fanout: 4,
        seed,
    }
}

/// Single-worker degradation-tuned service config: one shard keeps the
/// breaker/retry trajectory a pure function of submission order.
fn cell_config() -> ServiceConfig {
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

fn backend() -> Box<dyn SamplingBackend> {
    let g = generators::power_law(GRAPH_NODES, 8, 31);
    let a = AttributeStore::synthetic(GRAPH_NODES, 8, 31);
    Box::new(CpuBackend::new(&g, &a, PARTITIONS))
}

/// FNV digest over reply content: flat block (roots, hop boundaries,
/// node ids) + the degraded flag. Timing-free — the replayability
/// fingerprint.
fn digest_replies(replies: &[SampleReply]) -> u64 {
    let mut bytes = Vec::new();
    for r in replies {
        bytes.push(u8::from(r.degraded));
        bytes.extend_from_slice(&(r.block.roots.len() as u64).to_le_bytes());
        for n in &r.block.roots {
            bytes.extend_from_slice(&n.0.to_le_bytes());
        }
        bytes.extend_from_slice(&(r.block.hop_offsets.len() as u64).to_le_bytes());
        for o in &r.block.hop_offsets {
            bytes.extend_from_slice(&o.to_le_bytes());
        }
        for n in &r.block.nodes {
            bytes.extend_from_slice(&n.0.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// Serves the fixed request stream through `svc`, waiting for every
/// reply in submission order.
fn serve_stream(svc: &SamplingService, requests: u64) -> Vec<SampleReply> {
    let tickets: Vec<_> = (0..requests).map(|s| svc.submit(request(s))).collect();
    tickets.into_iter().map(|t| t.wait_reply()).collect()
}

/// Everything one cell produced.
struct CellResult {
    name: String,
    loss: f64,
    card_failures: Vec<(u32, u64)>,
    plan_digest: u64,
    requests: u64,
    completed: u64,
    degraded: u64,
    mean_recall: f64,
    min_recall: f64,
    results_digest: u64,
    mof_transmissions: u64,
    mof_retransmissions: u64,
    mof_delivered: u64,
    mof_abandoned: bool,
}

impl CellResult {
    fn completion_rate(&self) -> f64 {
        self.completed as f64 / self.requests as f64
    }

    fn degraded_success(&self) -> bool {
        !self.card_failures.is_empty() && self.degraded > 0 && self.completed == self.requests
    }

    fn quality_delta(&self) -> f64 {
        1.0 - self.mean_recall
    }
}

/// Runs one cell: the service leg over a chaos-wrapped cluster plus the
/// MoF recovery leg over the same plan's frame-loss stream.
fn run_cell(cell: &Cell, seed: u64, requests: u64, frames: u32) -> CellResult {
    let spec = spec_of(cell, requests);
    let card_failures: Vec<(u32, u64)> =
        spec.card_failures.iter().map(|c| (c.card, c.at)).collect();
    let plan = FaultPlan::build(seed, spec).expect("grid specs are valid");
    let plan_digest = plan.digest();
    let injector = FaultInjector::new(plan.clone());
    let svc = SamplingService::start_observed(
        Box::new(ChaosBackend::new(backend(), injector.clone())),
        cell_config(),
        None,
        Some(injector),
        None,
    );

    let replies = serve_stream(&svc, requests);
    svc.shutdown();

    // Quality: recall of each reply against the fault-free exact batch.
    let reference = backend();
    let (mut recall_sum, mut min_recall) = (0.0f64, 1.0f64);
    let mut degraded = 0u64;
    for (s, reply) in replies.iter().enumerate() {
        let exact = reference.sample_neighbors(&request(s as u64));
        let recall = quality::batch_recall(&exact, &reply.block.to_batch());
        recall_sum += recall;
        min_recall = min_recall.min(recall);
        degraded += u64::from(reply.degraded);
    }

    // MoF leg: the plan's frame-loss stream through go-back-N recovery.
    let mut ch = ReliableChannel::new(8);
    for i in 0..frames {
        ch.push(i);
    }
    let mut attempt = 0u64;
    let mof_abandoned = ch
        .run_with_retries(
            |_| {
                attempt += 1;
                plan.drop_frame(0, attempt, attempt)
            },
            10_000,
        )
        .is_err();
    assert!(ch.accounting_balances(), "go-back-N accounting drifted");

    CellResult {
        name: cell.name.clone(),
        loss: cell.loss,
        card_failures,
        plan_digest,
        requests,
        completed: replies.len() as u64,
        degraded,
        mean_recall: recall_sum / requests as f64,
        min_recall,
        results_digest: digest_replies(&replies),
        mof_transmissions: ch.transmissions(),
        mof_retransmissions: ch.retransmissions(),
        mof_delivered: ch.received().len() as u64,
        mof_abandoned,
    }
}

/// The pay-for-what-you-use gate: a zero-fault plan must reproduce the
/// no-injector service byte-for-byte. Returns `(digest, identical)`.
fn zero_fault_gate(seed: u64, requests: u64) -> (u64, bool) {
    let plain = SamplingService::start(backend(), cell_config());
    let baseline = digest_replies(&serve_stream(&plain, requests));
    plain.shutdown();

    let injector = FaultInjector::new(FaultPlan::zero(seed));
    let chaotic = SamplingService::start_observed(
        Box::new(ChaosBackend::new(backend(), injector.clone())),
        cell_config(),
        None,
        Some(injector),
        None,
    );
    let zeroed = digest_replies(&serve_stream(&chaotic, requests));
    chaotic.shutdown();
    (baseline, baseline == zeroed)
}

fn hex(d: u64) -> String {
    format!("{d:#018x}")
}

/// Runs the sweep and writes the artifact to `out`.
pub fn chaos(quick: bool, seed: u64, out: &str) {
    let requests = if quick { QUICK_REQUESTS } else { FULL_REQUESTS };
    let frames = if quick { QUICK_FRAMES } else { FULL_FRAMES };
    outln!(
        "chaos sweep: seed {seed}, {requests} requests/cell over {PARTITIONS} cards, \
         loss x card-failure grid"
    );

    let (baseline_digest, zero_identical) = zero_fault_gate(seed, requests);
    assert!(
        zero_identical,
        "zero-fault plan diverged from the fault-free service: the chaos layer is not pay-for-what-you-use"
    );
    outln!(
        "  zero-fault gate: plan {} replays the injector-free service bit-identically ({})",
        hex(FaultPlan::zero(seed).digest()),
        hex(baseline_digest)
    );

    let cells = grid(quick);
    let results = par_map(cells, |cell| run_cell(&cell, seed, requests, frames));

    let table = Table::new(
        &[
            "cell",
            "avail",
            "degraded",
            "recall",
            "q-delta",
            "mof tx/re",
            "digest",
        ],
        &[22, 7, 9, 7, 8, 10, 19],
    );
    for r in &results {
        table.row(&[
            r.name.clone(),
            format!("{:.4}", r.completion_rate()),
            format!("{}", r.degraded),
            format!("{:.3}", r.mean_recall),
            format!("{:.3}", r.quality_delta()),
            format!("{}/{}", r.mof_transmissions, r.mof_retransmissions),
            hex(r.results_digest),
        ]);
    }
    table.note(
        "avail = completed/submitted (degraded replies count); recall vs fault-free exact batches",
    );

    let any_degraded_success = results.iter().any(CellResult::degraded_success);
    for r in &results {
        assert_eq!(
            r.completed, r.requests,
            "cell {} lost replies — the degradation ladder must answer everything",
            r.name
        );
    }
    assert!(
        any_degraded_success,
        "no card-failure cell produced a degraded-but-successful response"
    );

    let rows: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("cell".to_string(), Json::Str(r.name.clone())),
                ("frame_loss".to_string(), Json::Num(r.loss)),
                ("request_loss".to_string(), Json::Num(r.loss)),
                (
                    "card_failures".to_string(),
                    Json::Arr(
                        r.card_failures
                            .iter()
                            .map(|&(c, at)| {
                                Json::Arr(vec![Json::Num(c as f64), Json::Num(at as f64)])
                            })
                            .collect(),
                    ),
                ),
                ("plan_digest".to_string(), Json::Str(hex(r.plan_digest))),
                ("requests".to_string(), Json::Num(r.requests as f64)),
                ("completed".to_string(), Json::Num(r.completed as f64)),
                (
                    "completion_rate".to_string(),
                    Json::Num(r.completion_rate()),
                ),
                ("degraded".to_string(), Json::Num(r.degraded as f64)),
                (
                    "degraded_ratio".to_string(),
                    Json::Num(r.degraded as f64 / r.requests as f64),
                ),
                (
                    "degraded_success".to_string(),
                    Json::Bool(r.degraded_success()),
                ),
                ("mean_recall".to_string(), Json::Num(r.mean_recall)),
                ("min_recall".to_string(), Json::Num(r.min_recall)),
                ("quality_delta".to_string(), Json::Num(r.quality_delta())),
                (
                    "results_digest".to_string(),
                    Json::Str(hex(r.results_digest)),
                ),
                (
                    "mof".to_string(),
                    Json::Obj(vec![
                        ("frames".to_string(), Json::Num(frames as f64)),
                        (
                            "transmissions".to_string(),
                            Json::Num(r.mof_transmissions as f64),
                        ),
                        (
                            "retransmissions".to_string(),
                            Json::Num(r.mof_retransmissions as f64),
                        ),
                        ("delivered".to_string(), Json::Num(r.mof_delivered as f64)),
                        ("abandoned".to_string(), Json::Bool(r.mof_abandoned)),
                    ]),
                ),
            ])
        })
        .collect();

    let doc = Json::Obj(vec![
        ("bench".to_string(), Json::Str("chaos".to_string())),
        ("quick".to_string(), Json::Bool(quick)),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("graph_nodes".to_string(), Json::Num(GRAPH_NODES as f64)),
        ("partitions".to_string(), Json::Num(PARTITIONS as f64)),
        ("requests_per_cell".to_string(), Json::Num(requests as f64)),
        (
            "zero_fault".to_string(),
            Json::Obj(vec![
                (
                    "plan_digest".to_string(),
                    Json::Str(hex(FaultPlan::zero(seed).digest())),
                ),
                (
                    "baseline_digest".to_string(),
                    Json::Str(hex(baseline_digest)),
                ),
                ("identical".to_string(), Json::Bool(zero_identical)),
            ]),
        ),
        (
            "any_degraded_success".to_string(),
            Json::Bool(any_degraded_success),
        ),
        ("cells".to_string(), Json::Arr(rows)),
    ]);
    std::fs::write(out, doc.render()).expect("write chaos bench json");
    outln!("wrote {out}");
}
