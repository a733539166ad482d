//! The adapter: every call into the program under test lives in this
//! file. The rest of the benchmark sees only the types defined here, so
//! when the product's constructors change this is the one file to edit.
//!
//! Layers are measured from outside only: by timing calls into public
//! functions and reading public stats structs.

use crate::load::{Call, Door, Reply};
use crate::workloads::{self as wl, Request};
use lsdgnn_core::axe::{AccessEngine, AxeConfig, Measurement};
use lsdgnn_core::desim::{Simulation, Time};
use lsdgnn_core::framework::{
    run_sequential, AdmissionConfig, AdmissionController, BatchPolicy, BucketConfig, CacheConfig,
    CpuBackend, CpuClusterModel, InferenceConfig, InferenceService, InferenceTicket, Observability,
    Priority, SampleBlock, SampleRequest, SampleTicket, SamplingBackend, SamplingService,
    ServiceConfig, ServiceStats, ShapedRequest, ShapedService, SubmitVerdict, TenantConfig,
    Verdict, WireConfig,
};
use lsdgnn_core::graph::{generators, AttributeStore, CsrGraph, NodeId, PartitionedGraph};
use lsdgnn_core::mof::{bdi_block_bytes, pack_read_requests, BDI_LINE_WORDS};
use lsdgnn_core::nn::{Matrix, SageModel, SageScratch};
use lsdgnn_core::riscv::{assemble, Cpu, QrchHub};
use lsdgnn_core::sampler::StreamingSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- graph

/// The partitioned serving graph and what it cost to build.
pub struct Graph {
    pg: PartitionedGraph,
    pub build_s: f64,
    pub partition_s: f64,
    /// Structure plus attribute bytes.
    pub bytes: u64,
}

impl Graph {
    /// `power_law(nodes, 8, seed)` with 64-float synthetic attributes,
    /// hash-partitioned four ways (about three quarters remote).
    pub fn build(seed: u64, nodes: u64) -> Self {
        let t0 = Instant::now();
        let g = generators::power_law(nodes, wl::EDGES_PER_NODE, seed);
        let attrs = AttributeStore::synthetic(nodes, wl::ATTR_LEN, seed);
        let build_s = t0.elapsed().as_secs_f64();
        let bytes = g.structure_bytes() + attrs.total_bytes();
        let t1 = Instant::now();
        let pg = PartitionedGraph::new(g, wl::PARTITIONS).with_attributes(attrs);
        Graph {
            pg,
            build_s,
            partition_s: t1.elapsed().as_secs_f64(),
            bytes,
        }
    }
}

fn sample_request(req: &Request) -> SampleRequest {
    SampleRequest {
        roots: req.roots.iter().map(|&r| NodeId(r)).collect(),
        hops: req.hops,
        fanout: req.fanout,
        seed: req.seed,
    }
}

// -------------------------------------------------------------- backend

/// Which data-plane features a directly driven backend mounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `CpuBackend::from_partitioned`: the reference.
    Plain,
    /// Wire plane only.
    Wired,
    /// Wire plane and hot-set cache: the system under test.
    WiredCached,
}

fn cpu_backend(g: &Graph, arm: Arm) -> CpuBackend {
    let pg = g.pg.clone();
    match arm {
        Arm::Plain => CpuBackend::from_partitioned(pg),
        Arm::Wired => CpuBackend::from_partitioned_wired(pg, WireConfig::default()),
        Arm::WiredCached => CpuBackend::from_partitioned_wired_cached(
            pg,
            WireConfig::default(),
            CacheConfig::with_capacity(wl::CACHE_CAPACITY),
        ),
    }
}

/// One sampled mini-batch.
pub struct Block(SampleBlock);

impl Block {
    pub fn digest(&self) -> u64 {
        self.0.digest()
    }

    /// Sampled node ids, hop after hop.
    pub fn nodes(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.nodes.iter().map(|n| n.0)
    }

    /// Multiply-accumulates of the served model over this block, from
    /// its shape: layer 1 projects every parent (roots + all but the
    /// last hop), layer 2 the roots; each target is a `[self | max]`
    /// concatenation, hence the factor two.
    pub fn model_macs(&self) -> u64 {
        let [d0, d1, d2] = wl::MODEL_WIDTHS.map(|w| w as u64);
        let roots = self.0.roots.len() as u64;
        let parents = self.0.num_parents() as u64;
        parents * 2 * d0 * d1 + roots * 2 * d1 * d2
    }
}

/// Deduplicated attribute rows of a block plus the entry → row index.
#[derive(Default)]
pub struct Rows {
    fetch: Vec<NodeId>,
    rows: Vec<f32>,
    slot_of: Vec<u32>,
}

impl Rows {
    /// A digest cheap enough to take per mini-batch: shape plus a sparse
    /// sample of the floats.
    fn digest(&self) -> u64 {
        let mut h = (self.rows.len() as u64) << 32 | self.slot_of.len() as u64;
        for v in self.rows.iter().step_by(4099) {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// A backend driven directly, one call at a time.
pub struct Backend(CpuBackend);

impl Backend {
    pub fn new(g: &Graph, arm: Arm) -> Self {
        Backend(cpu_backend(g, arm))
    }

    pub fn sample(&self, req: &Request) -> Block {
        Block(self.0.sample_block(&sample_request(req)))
    }

    /// The inference gather: one row per distinct entry of roots + nodes.
    pub fn gather(&self, block: &Block, out: &mut Rows) {
        gather_rows(&self.0, &block.0, out);
    }

    pub fn recycle(&self, block: Block) {
        self.0.recycle(block.0);
    }

    /// Every public counter of the data plane, cumulative.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        let s = self.0.stats();
        c.set("local_requests", s.local_requests);
        c.set("remote_requests", s.remote_requests);
        c.set("nodes_expanded", s.nodes_expanded);
        c.set("coalesce_lookups", s.coalesce_lookups);
        c.set("coalesce_hits", s.coalesce_hits);
        c.set("attr_coalesce_lookups", s.attr_coalesce_lookups);
        c.set("attr_coalesce_hits", s.attr_coalesce_hits);
        c.set("frontier_line_lookups", s.frontier_line_lookups);
        c.set("frontier_line_hits", s.frontier_line_hits);
        let p = self.0.cluster().pool().stats();
        c.set("pool_allocs", p.allocs);
        c.set("pool_reuses", p.reuses);
        if let Some(cache) = self.0.cache_snapshot() {
            let (n, a) = (
                cache.neigh.unwrap_or_default(),
                cache.attr.unwrap_or_default(),
            );
            c.set("neigh_hits", n.hits);
            c.set("neigh_misses", n.misses);
            c.set("attr_hits", a.hits);
            c.set("attr_misses", a.misses);
            c.set("cache_admits", n.admits + a.admits);
            c.set("cache_evicts", n.evicts + a.evicts);
            c.set("cache_rejects", n.rejects + a.rejects);
        }
        if let Some(w) = self.0.wire_snapshot() {
            c.set("wire_bytes", w.wire_bytes());
            c.set("wire_legs", w.remote_legs);
            c.set("wire_raw_response_bytes", w.raw_response_bytes);
            c.set("wire_response_bytes", w.wire_response_bytes);
            c.set("wire_packages", w.request_packages);
            c.set("wire_packed_requests", w.packed_requests);
            c.set("wire_sim_ns", w.simulated_wire_ns);
        }
        c
    }
}

fn gather_rows(backend: &dyn SamplingBackend, block: &SampleBlock, out: &mut Rows) {
    out.fetch.clear();
    out.fetch.extend_from_slice(&block.roots);
    out.fetch.extend_from_slice(&block.nodes);
    backend.gather_attr_rows(&out.fetch, &mut out.rows, &mut out.slot_of);
}

/// Requests one MoF package can carry.
pub const PACKAGE_CAPACITY: u64 = lsdgnn_core::mof::MAX_REQUESTS_PER_PACKAGE as u64;

/// Named cumulative counters; subtract two readings for a window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    fn set(&mut self, name: &'static str, v: u64) {
        self.0.insert(name, v);
    }

    /// The counter's value (0 when the layer is not mounted).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// This reading minus an `earlier` one.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&k, &v)| (k, v - earlier.get(k)))
                .collect(),
        )
    }

    /// `num / (num + rest)`, 0 when nothing was counted.
    pub fn share(&self, num: &str, rest: &str) -> f64 {
        ratio(self.get(num), self.get(num) + self.get(rest))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().map(|(&k, &v)| (k, v))
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ---------------------------------------------------------------- model

/// The served GraphSAGE model with its scratch, driven directly.
pub struct Model {
    model: SageModel,
    scratch: SageScratch,
    feats: Matrix,
    out: Matrix,
}

impl Model {
    pub fn new() -> Self {
        Model {
            model: SageModel::new(&wl::MODEL_WIDTHS, wl::MODEL_SEED),
            scratch: SageScratch::new(),
            feats: Matrix::zeros(1, wl::ATTR_LEN),
            out: Matrix::zeros(1, wl::MODEL_WIDTHS[2]),
        }
    }

    /// Wraps the gathered rows as the feature matrix and sizes the
    /// output, as the pipeline's compute stage does before forwarding.
    pub fn load(&mut self, block: &Block, rows: &mut Rows) {
        let data = std::mem::take(&mut rows.rows);
        self.feats = Matrix::from_vec(data.len() / wl::ATTR_LEN, wl::ATTR_LEN, data);
        self.out.reset(block.0.roots.len(), self.model.out_dim());
    }

    /// `SageModel::forward_block_into` over the loaded features.
    pub fn forward(&mut self, block: &Block, rows: &Rows) {
        let b = &block.0;
        self.model.forward_block_into(
            b.roots.len(),
            &b.hop_offsets[..b.hop_offsets.len() - 1],
            &b.adj_offsets,
            &self.feats,
            &rows.slot_of,
            &mut self.scratch,
            &mut self.out,
        );
        black_box(&self.out);
    }

    /// Hands the row buffer back for the next gather.
    pub fn unload(&mut self, rows: &mut Rows) {
        let feats = std::mem::replace(&mut self.feats, Matrix::zeros(1, wl::ATTR_LEN));
        rows.rows = feats.into_vec();
    }
}

// ---------------------------------------------------------- front doors

/// Public service-level counters of a front door, cumulative.
#[derive(Debug, Clone, Default)]
pub struct ServiceCounters {
    pub requests: u64,
    pub dispatches: u64,
    batch_sum: f64,
    queue_buckets: Vec<u64>,
}

impl ServiceCounters {
    fn read(s: &ServiceStats) -> Self {
        ServiceCounters {
            requests: s.requests,
            dispatches: s.dispatches,
            batch_sum: s.batch_size.mean() * s.batch_size.count() as f64,
            queue_buckets: s.queue_depth.buckets().to_vec(),
        }
    }

    /// Mean coalesced batch size since `earlier`.
    pub fn batch_size_mean(&self, earlier: &Self) -> f64 {
        let dispatches = self.dispatches - earlier.dispatches;
        if dispatches == 0 {
            0.0
        } else {
            (self.batch_sum - earlier.batch_sum) / dispatches as f64
        }
    }

    /// Median queue depth at dispatch since `earlier`, as the lower edge
    /// of its log2 bucket (the histogram's resolution).
    pub fn queue_depth_p50(&self, earlier: &Self) -> f64 {
        let delta: Vec<u64> = self
            .queue_buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| b - earlier.queue_buckets.get(i).copied().unwrap_or(0))
            .collect();
        let half = delta.iter().sum::<u64>().div_ceil(2);
        let mut seen = 0;
        for (i, b) in delta.into_iter().enumerate() {
            seen += b;
            if b > 0 && seen >= half {
                return if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            }
        }
        0.0
    }
}

/// Admission contracts of the shaped door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shaping {
    /// Finite buckets and lanes, sized so nothing is refused at the
    /// benchmark's rates.
    Finite,
    /// `AdmissionConfig::unlimited`: the no-shaping contract.
    Unlimited,
}

const TENANTS: usize = 3;
const SHAPED_DEADLINE: Duration = Duration::from_millis(20);

fn admission_config(shaping: Shaping) -> AdmissionConfig {
    match shaping {
        Shaping::Unlimited => AdmissionConfig::unlimited(TENANTS),
        Shaping::Finite => AdmissionConfig {
            tenants: (0..TENANTS)
                .map(|t| TenantConfig {
                    name: format!("tenant{t}"),
                    bucket: BucketConfig {
                        rate_per_sec: 20_000.0,
                        burst: 2_000.0,
                    },
                })
                .collect(),
            queue_bounds: [1024; 3],
            brownout: None,
        },
    }
}

fn observability(observed: bool) -> Option<Observability> {
    observed.then(Observability::default)
}

/// sample_hot's front door: `ShapedService` over the wired+cached
/// backend, slack-driven batching, 20 ms deadlines; tenant = class.
pub struct HotDoor {
    svc: ShapedService,
    epoch: Instant,
}

impl HotDoor {
    pub fn start(g: &Graph, shaping: Shaping, observed: bool) -> Self {
        let config = ServiceConfig {
            batch: BatchPolicy::SlackDriven {
                est_service: Duration::from_micros(500),
            },
            ..ServiceConfig::default()
        };
        HotDoor {
            svc: ShapedService::start(
                Box::new(cpu_backend(g, Arm::WiredCached)),
                config,
                admission_config(shaping),
                observability(observed),
            ),
            epoch: Instant::now(),
        }
    }

    pub fn service_counters(&self) -> ServiceCounters {
        ServiceCounters::read(&self.svc.stats())
    }

    /// (accepted, rejected, shed) over all classes so far.
    pub fn admission_counts(&self) -> (u64, u64, u64) {
        let s = self.svc.admission_stats();
        let total = |f: &dyn Fn(Priority) -> u64| Priority::ALL.iter().map(|&p| f(p)).sum();
        (
            total(&|p| s.accepted(p)),
            total(&|p| s.rejected(p)),
            total(&|p| s.shed(p)),
        )
    }

    pub fn shutdown(self) {
        self.svc.shutdown();
    }
}

impl Door for HotDoor {
    type Ticket = SampleTicket;

    fn submit(&self, req: Request) -> Option<SampleTicket> {
        let shaped = ShapedRequest {
            req: sample_request(&req),
            tenant: req.class,
            class: Priority::ALL[req.class],
            deadline: SHAPED_DEADLINE,
        };
        match self
            .svc
            .submit(shaped, self.epoch.elapsed().as_micros() as u64)
        {
            SubmitVerdict::Admitted(ticket) => Some(ticket),
            SubmitVerdict::Rejected { .. } | SubmitVerdict::Shed => None,
        }
    }

    fn wait(&self, ticket: SampleTicket) -> Reply {
        let reply = ticket.wait_reply();
        Reply {
            exact: !reply.degraded,
            digest: reply.block.digest(),
        }
    }
}

/// A plain `SamplingService` with default tuning. As a [`Door`] it
/// answers sampling requests; as a [`Call`] it is train_batch's client
/// step: `sample_reply`, `gather_attr_rows` over the whole block,
/// `recycle`.
pub struct SampleDoor {
    svc: SamplingService,
    /// Gather buffers, one per concurrent caller, reused across calls.
    rows: Mutex<Vec<Rows>>,
}

impl SampleDoor {
    pub fn start(g: &Graph, arm: Arm, observed: bool) -> Self {
        SampleDoor {
            svc: SamplingService::start_observed(
                Box::new(cpu_backend(g, arm)),
                ServiceConfig::default(),
                None,
                None,
                observability(observed),
            ),
            rows: Mutex::new(Vec::new()),
        }
    }

    pub fn service_counters(&self) -> ServiceCounters {
        ServiceCounters::read(&self.svc.stats())
    }

    pub fn shutdown(self) {
        self.svc.shutdown();
    }
}

impl Door for SampleDoor {
    type Ticket = SampleTicket;

    fn submit(&self, req: Request) -> Option<SampleTicket> {
        Some(self.svc.submit(sample_request(&req)))
    }

    fn wait(&self, ticket: SampleTicket) -> Reply {
        let reply = ticket.wait_reply();
        let out = Reply {
            exact: !reply.degraded,
            digest: reply.block.digest(),
        };
        self.svc.backend().recycle(reply.block);
        out
    }
}

impl Call for SampleDoor {
    fn call(&self, req: &Request) -> Reply {
        let reply = self.svc.sample_reply(sample_request(req));
        let mut rows = self
            .rows
            .lock()
            .expect("no caller panics holding the buffers")
            .pop()
            .unwrap_or_default();
        gather_rows(self.svc.backend(), &reply.block, &mut rows);
        let out = Reply {
            exact: !reply.degraded,
            digest: reply.block.digest() ^ rows.digest(),
        };
        self.svc.backend().recycle(reply.block);
        self.rows
            .lock()
            .expect("no caller panics holding the buffers")
            .push(rows);
        out
    }
}

/// infer_uniform's front door: the pipelined `InferenceService` over a
/// plain `SamplingService` on the wired+cached backend.
pub struct InferDoor {
    svc: InferenceService,
}

impl InferDoor {
    pub fn start(g: &Graph, observed: bool) -> Self {
        let SampleDoor { svc, .. } = SampleDoor::start(g, Arm::WiredCached, observed);
        InferDoor {
            svc: InferenceService::start(
                svc,
                SageModel::new(&wl::MODEL_WIDTHS, wl::MODEL_SEED),
                InferenceConfig::default(),
            ),
        }
    }

    pub fn service_counters(&self) -> ServiceCounters {
        ServiceCounters::read(&self.svc.sampling().stats())
    }

    /// (sum of fused gather sizes, fused gathers) so far.
    pub fn gather_batches(&self) -> (f64, u64) {
        let h = self.svc.stats().gather_batch;
        (h.mean() * h.count() as f64, h.count())
    }

    pub fn shutdown(self) {
        self.svc.shutdown();
    }
}

impl Door for InferDoor {
    type Ticket = InferenceTicket;

    fn submit(&self, req: Request) -> Option<InferenceTicket> {
        Some(self.svc.submit(sample_request(&req)))
    }

    fn wait(&self, ticket: InferenceTicket) -> Reply {
        let reply = ticket.wait();
        let out = Reply {
            exact: !reply.degraded,
            digest: reply.digest(),
        };
        self.svc.recycle(reply);
        out
    }
}

// ------------------------------------------------------- reference runs

/// What the reference says each kept request should have answered: the
/// plain `CpuBackend::from_partitioned` (and, for inference,
/// `run_sequential` over it). Returns how many digests disagree.
pub fn reference_mismatches(g: &Graph, workload: &str, kept: &[(Request, u64)]) -> usize {
    let reference = SampleDoor::start(g, Arm::Plain, false);
    let expected: Vec<u64> = match workload {
        crate::spec::SAMPLE_HOT => kept
            .iter()
            .map(|(r, _)| {
                reference
                    .wait(reference.submit(r.clone()).expect("never refuses"))
                    .digest
            })
            .collect(),
        crate::spec::TRAIN_BATCH => kept.iter().map(|(r, _)| reference.call(r).digest).collect(),
        crate::spec::INFER_UNIFORM => run_sequential(
            &reference.svc,
            &SageModel::new(&wl::MODEL_WIDTHS, wl::MODEL_SEED),
            kept.iter().map(|(r, _)| sample_request(r)),
        )
        .iter()
        .map(|r| r.digest())
        .collect(),
        other => panic!("no serving reference for `{other}`"),
    };
    reference.shutdown();
    kept.iter()
        .zip(expected)
        .filter(|((_, got), want)| got != want)
        .count()
}

// ------------------------------------------------------------------ AxE

/// axe_poc's front door: one blocking `AccessEngine::run` per request
/// over `power_law(axe_nodes, 8, seed)` at the Table 10 configuration.
pub struct AxeCall {
    graph: CsrGraph,
    seed: u64,
    pub build_s: f64,
    pub bytes: u64,
}

impl AxeCall {
    pub fn build(seed: u64, nodes: u64) -> Self {
        let t0 = Instant::now();
        let graph = generators::power_law(nodes, wl::EDGES_PER_NODE, seed);
        AxeCall {
            build_s: t0.elapsed().as_secs_f64(),
            bytes: graph.structure_bytes(),
            graph,
            seed,
        }
    }

    /// One simulated run of `batches` mini-batches; `salt` varies the
    /// engine seed between requests.
    pub fn run(&self, salt: u64, batches: u32) -> AxeRun {
        let cfg = AxeConfig::poc().with_seed(self.seed ^ salt);
        let t0 = Instant::now();
        let m = AccessEngine::new(cfg).run(&self.graph, wl::AXE_ATTR_LEN, batches);
        AxeRun {
            host_s: t0.elapsed().as_secs_f64(),
            m,
        }
    }
}

impl Call for AxeCall {
    fn call(&self, req: &Request) -> Reply {
        let run = self.run(req.seed, wl::AXE_OP_BATCHES);
        Reply {
            exact: run.m.batches == u64::from(wl::AXE_OP_BATCHES),
            digest: run.digest(),
        }
    }
}

/// One AxE run: the simulated measurement and the host time it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxeRun {
    pub host_s: f64,
    m: Measurement,
}

impl AxeRun {
    /// Whether two runs simulated exactly the same thing.
    pub fn same_simulation(&self, other: &AxeRun) -> bool {
        self.m == other.m
    }

    pub fn digest(&self) -> u64 {
        self.m.samples ^ self.m.requests.rotate_left(21) ^ self.m.samples_per_sec.to_bits()
    }

    /// The simulated rows (exact for a seed) and the host-speed rows.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let m = &self.m;
        // The model is unvalidated against hardware; this is the paper's
        // shape (one card ~ hundreds of vCPUs), not an error figure.
        let vcpu_rate = CpuClusterModel::default().vcpu_rate(u64::from(wl::PARTITIONS));
        vec![
            ("axe.sim_samples_per_s", m.samples_per_sec),
            ("axe.cache_hit_rate", m.cache_hit_rate),
            ("axe.avg_outstanding", m.avg_outstanding),
            ("axe.avg_request_latency_ns", m.avg_request_latency_ns),
            ("axe.local_utilization", m.local_utilization),
            ("axe.remote_utilization", m.remote_utilization),
            ("axe.output_utilization", m.output_utilization),
            ("axe.requests", m.requests as f64),
            ("axe.vcpu_equiv", m.samples_per_sec / vcpu_rate),
            ("axe.host_samples_per_s", m.samples as f64 / self.host_s),
            (
                "axe.host_ns_per_request",
                self.host_s * 1e9 / m.requests as f64,
            ),
        ]
    }
}

// --------------------------------------------------------- micro-probes

/// Runs `step` (which does `per_step` operations) for about `budget` and
/// returns nanoseconds per operation.
fn ns_per_op(budget: Duration, per_step: u64, mut step: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut steps = 0u64;
    while start.elapsed() < budget {
        step();
        steps += 1;
    }
    start.elapsed().as_nanos() as f64 / (steps * per_step) as f64
}

const PROBE_BUDGET: Duration = Duration::from_millis(60);

/// `AdmissionController::decide` + `dequeued` on the finite contract.
pub fn admission_decide_ns() -> f64 {
    let mut ctrl = AdmissionController::new(admission_config(Shaping::Finite));
    let mut now_us = 0u64;
    ns_per_op(PROBE_BUDGET, 256, || {
        for i in 0..256usize {
            now_us += 500;
            let class = Priority::ALL[i % TENANTS];
            if let Verdict::Admit { .. } = black_box(ctrl.decide(i % TENANTS, class, now_us)) {
                ctrl.dequeued(class);
            }
        }
    })
}

/// Round trip between two threads over two `bounded(1)` channels, µs.
pub fn chan_pingpong_us() -> f64 {
    let (ping_tx, ping_rx) = crossbeam::channel::bounded::<u32>(1);
    let (pong_tx, pong_rx) = crossbeam::channel::bounded::<u32>(1);
    std::thread::scope(|s| {
        s.spawn(move || {
            for v in ping_rx.iter() {
                if pong_tx.send(v).is_err() {
                    return;
                }
            }
        });
        let ns = ns_per_op(PROBE_BUDGET, 64, || {
            for i in 0..64 {
                ping_tx.send(i).expect("echo thread alive");
                black_box(pong_rx.recv().expect("echo thread alive"));
            }
        });
        drop(ping_tx);
        ns / 1e3
    })
}

/// Send then receive on one thread over a `bounded(1)` channel, ns.
pub fn chan_send_recv_ns() -> f64 {
    let (tx, rx) = crossbeam::channel::bounded::<u32>(1);
    ns_per_op(PROBE_BUDGET, 256, || {
        for i in 0..256 {
            tx.send(i).expect("receiver alive");
            black_box(rx.recv().expect("sender alive"));
        }
    })
}

/// `pack_read_requests` over an 8-byte-row address stream, ns/address.
pub fn mof_pack_ns_per_addr(node_ids: &[u64]) -> f64 {
    let addrs: Vec<u64> = node_ids.iter().map(|&n| n * 8).collect();
    ns_per_op(PROBE_BUDGET, addrs.len() as u64, || {
        black_box(pack_read_requests(black_box(&addrs), 8, 0));
    })
}

/// `bdi_block_bytes` over the same ids as 64-byte lines, ns/line.
pub fn mof_bdi_ns_per_line(node_ids: &[u64]) -> f64 {
    let lines = (node_ids.len() / BDI_LINE_WORDS).max(1) as u64;
    ns_per_op(PROBE_BUDGET, lines, || {
        for line in node_ids.chunks_exact(BDI_LINE_WORDS) {
            black_box(bdi_block_bytes(black_box(line)));
        }
    })
}

/// `StreamingSampler::pick_into` at fanout 10 over 64 candidates.
pub fn sampler_pick_ns_per_draw() -> f64 {
    let sampler = StreamingSampler;
    let mut rng = SmallRng::seed_from_u64(1);
    let mut out = Vec::with_capacity(16);
    ns_per_op(PROBE_BUDGET, 10 * 64, || {
        for _ in 0..64 {
            out.clear();
            sampler.pick_into(&mut rng, 64, 10, &mut out);
            black_box(&out);
        }
    })
}

/// The fig14-shaped event mix on `Simulation`: four pipelines ticking at
/// 250 MHz, each tick issuing a local (100 ns) or remote (1.3 µs) event.
pub fn desim_events_per_s() -> f64 {
    fn pipeline(sim: &mut Simulation, state: u64) {
        let state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let latency = if state % 100 < 60 { 100_000 } else { 1_300_000 };
        sim.schedule(Time::from_ticks(latency), |_| {});
        sim.schedule(Time::from_ticks(4_000), move |sim: &mut Simulation| {
            pipeline(sim, state)
        });
    }
    let mut sim = Simulation::new();
    for core in 0..4 {
        pipeline(&mut sim, core * 77);
    }
    const EVENTS: u64 = 400_000;
    let t0 = Instant::now();
    let fired = sim.run_bounded(EVENTS);
    fired as f64 / t0.elapsed().as_secs_f64()
}

/// The QRCH command loop (push a command, pop the response, accumulate)
/// on the RV32 interpreter: retired instructions per host microsecond.
pub fn riscv_host_mips() -> f64 {
    let program = assemble(
        "      addi x10, x0, 2047
               addi x11, x0, 5
               addi x12, x0, 0
        loop:  qpush q0, x11
               qpop  x13, q1
               add  x12, x12, x13
               addi x10, x10, -1
               bne  x10, x0, loop
               halt",
    )
    .expect("the command loop assembles");
    let mut retired = 0u64;
    let start = Instant::now();
    while start.elapsed() < PROBE_BUDGET {
        let mut cpu = Cpu::with_device(64 * 1024, QrchHub::new());
        cpu.load_program(&program);
        cpu.run(10_000_000).expect("the command loop halts");
        retired += black_box(cpu.instret());
    }
    retired as f64 / start.elapsed().as_micros() as f64
}
