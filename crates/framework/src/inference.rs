//! The end-to-end inference pipeline: sample → gather → GraphSAGE-max,
//! as one request path with one latency number.
//!
//! The paper's FaaS architecture exists to serve *inference*: a request
//! names root nodes, the answer is their embeddings, and the SLO is
//! end-to-end per-request latency — not the throughput of any single
//! stage. [`InferenceService`] realizes that path as a three-stage
//! pipeline over the serving stack that already exists:
//!
//! 1. **Sample** — requests go through [`SamplingService`] (bounded
//!    queue, coalesced batches, the full retry/hedge/degrade ladder).
//! 2. **Gather** — the flat blocks' node planes are fed to the coalesced
//!    [`SamplingBackend::gather_attr_rows`] fetch: one attribute row per
//!    *distinct* node plus a slot index, so a hub sampled 40 times is
//!    fetched (and later embedded) once. Concurrent requests fuse into
//!    one fetch (up to [`InferenceConfig::gather_batch`]), deduping the
//!    shared hot head *across* requests and paying each partition
//!    dispatch once per batch.
//! 3. **Compute** — [`SageModel::forward_block_into`] consumes the
//!    block's hop/adjacency offsets and the deduplicated rows directly;
//!    all layer intermediates live in recycled scratch.
//!
//! Stages are connected by *bounded* crossbeam channels: a slow compute
//! stage backpressures the gather stage, which backpressures submission —
//! memory stays bounded under overload, exactly like the sampling
//! service's own queue. Pipelining changes latency, never results: the
//! per-request answer is bitwise-identical to [`run_sequential`]'s
//! one-at-a-time reference execution, which the `bench inference` digest
//! pins down.
//!
//! Degradation composes: a degraded [`SampleReply`] (card down, retries
//! exhausted) flows through gather and compute like any other block —
//! the pipeline *never* errors on a degraded sample — and surfaces as
//! [`InferenceReply::degraded`] with an estimated
//! [`InferenceReply::recall`] quantifying the loss.

use crate::backend::SampleRequest;
use crate::obs::Observability;
use crate::pool::BufferPool;
use crate::service::{SampleReply, SampleTicket, SamplingService};
use crossbeam::channel::{bounded, Receiver, Sender};
use lsdgnn_desim::{Histogram, Time};
use lsdgnn_nn::{Matrix, SageModel, SageScratch};
use lsdgnn_telemetry::ledger::{self, Stage, NO_SHARD};
use lsdgnn_telemetry::{Log2Histogram, MetricSource, Scope};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs of an [`InferenceService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceConfig {
    /// Bounded capacity of each inter-stage queue; a full queue blocks
    /// the upstream stage (backpressure, not unbounded buffering).
    pub stage_capacity: usize,
    /// Max requests fused into one attribute fetch by the gather stage.
    /// Concurrent requests share the hot head of a skewed workload, so a
    /// fused fetch dedups their row fetches *across* requests and pays
    /// the per-partition dispatch once per batch instead of once per
    /// request. Values per entry are unchanged — fusing never alters
    /// replies.
    pub gather_batch: usize,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            stage_capacity: 64,
            // Measured sweet spot on the bench workload: wide enough to
            // amortize partition dispatches, small enough that the fused
            // feature matrix stays cache-resident for the compute stage.
            gather_batch: 4,
        }
    }
}

/// One inference answer: root embeddings plus the degradation provenance
/// inherited from the sampling stage.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReply {
    /// `num_roots × out_dim` embeddings, root order preserved.
    pub embeddings: Matrix,
    /// True when the underlying sample was partial (an unreachable
    /// shard); the embeddings are an approximation, never an error.
    pub degraded: bool,
    /// Estimated sampling recall in `[0, 1]`: the fraction of the ideal
    /// neighbor sample that was actually aggregated. Exact replies are
    /// `1.0`; a degraded reply charges each unreachable node `fanout`
    /// missing samples, a conservative (lower-bound) estimate.
    pub recall: f64,
    /// Nodes whose owner was unreachable while sampling/gathering.
    pub unreachable: u64,
    /// Sampling attempts spent (see [`SampleReply::attempts`]).
    pub attempts: u32,
    /// A hedged sampling re-dispatch was fired for this request.
    pub hedged: bool,
}

impl InferenceReply {
    /// FNV-1a digest over the embedding bits and the degradation outcome
    /// — the pipelined-vs-sequential equivalence check. Timing-dependent
    /// provenance (attempts, hedges) is excluded; the *answer* is what
    /// must match.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(PRIME);
        };
        let (rows, cols) = self.embeddings.shape();
        mix(rows as u64);
        mix(cols as u64);
        for r in 0..rows {
            for &v in self.embeddings.row(r) {
                mix(u64::from(v.to_bits()));
            }
        }
        mix(u64::from(self.degraded));
        mix(self.unreachable);
        h
    }
}

/// End-to-end serving accounting: the per-request latency histogram is
/// submit-to-embedding (*not* per-stage), which is what an SLO is set
/// on. Registers into a telemetry `Registry` directly.
#[derive(Debug, Clone, Default)]
pub struct InferenceStats {
    /// Requests answered.
    pub requests: u64,
    /// Replies flagged degraded.
    pub degraded: u64,
    /// Submit-to-embedding latency per request, in wall-clock
    /// microseconds.
    pub latency: Histogram,
    /// Requests fused per gather-stage attribute fetch.
    pub gather_batch: Log2Histogram,
}

impl InferenceStats {
    /// Interpolated median end-to-end latency, microseconds.
    pub fn latency_p50_us(&self) -> f64 {
        self.latency.percentile(0.50).as_micros_f64()
    }

    /// Interpolated p99 end-to-end latency, microseconds.
    pub fn latency_p99_us(&self) -> f64 {
        self.latency.percentile(0.99).as_micros_f64()
    }

    /// Fraction of replies that were degraded.
    pub fn degraded_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.degraded as f64 / self.requests as f64
        }
    }
}

impl MetricSource for InferenceStats {
    fn collect(&self, out: &mut Scope<'_>) {
        out.counter("requests", self.requests);
        out.counter("degraded", self.degraded);
        out.histogram("latency_us", self.latency.snapshot_micros());
        out.histogram("gather_batch", self.gather_batch.snapshot());
        out.gauge("degraded_ratio", self.degraded_ratio());
    }
}

/// A pending inference request; [`InferenceTicket::wait`] blocks for the
/// embeddings.
#[derive(Debug)]
pub struct InferenceTicket {
    rx: Receiver<InferenceReply>,
}

impl InferenceTicket {
    /// Blocks until the pipeline replies.
    ///
    /// # Panics
    ///
    /// Panics if the service shut down before serving the request.
    pub fn wait(self) -> InferenceReply {
        self.rx.recv().expect("inference service replies")
    }
}

/// Sample stage → gather stage handoff.
struct GatherJob {
    ticket: SampleTicket,
    fanout: usize,
    submitted: Instant,
    reply: Sender<InferenceReply>,
}

/// One request resolved by the gather stage: its sample reply plus the
/// segment of the fused fetch it owns.
struct Resolved {
    sreply: SampleReply,
    trace: u64,
    slot_start: usize,
    slot_len: usize,
    fanout: usize,
    submitted: Instant,
    reply: Sender<InferenceReply>,
}

/// Gather stage → compute stage handoff. A fused gather batch shares
/// one feature matrix and one slot table across its requests; each job
/// owns a contiguous segment of the slot table (the `Arc`s drop back to
/// the pool when the batch's last job finishes computing).
struct ComputeJob {
    sreply: SampleReply,
    trace: u64,
    feats: Arc<Matrix>,
    slots: Arc<Vec<u32>>,
    slot_start: usize,
    slot_len: usize,
    fanout: usize,
    submitted: Instant,
    enqueued: Instant,
    reply: Sender<InferenceReply>,
}

/// The pipelined sample → gather → compute inference service.
pub struct InferenceService {
    svc: Arc<SamplingService>,
    model: Arc<SageModel>,
    pool: Arc<BufferPool>,
    stats: Arc<Mutex<InferenceStats>>,
    gather_tx: Option<Sender<GatherJob>>,
    gather_handle: Option<JoinHandle<()>>,
    compute_handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for InferenceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceService")
            .field("layers", &self.model.num_layers())
            .finish()
    }
}

impl InferenceService {
    /// Starts the pipeline over an already-running sampling service
    /// (plain, traced, or faulted — degradation composes transparently).
    ///
    /// The model's layer count fixes the hop count requests must carry;
    /// [`InferenceService::submit`] asserts it.
    pub fn start(svc: SamplingService, model: SageModel, config: InferenceConfig) -> Self {
        let svc = Arc::new(svc);
        let model = Arc::new(model);
        let pool = Arc::new(BufferPool::new());
        let stats = Arc::new(Mutex::new(InferenceStats::default()));
        let (gather_tx, gather_rx) = bounded::<GatherJob>(config.stage_capacity.max(1));
        let (compute_tx, compute_rx) = bounded::<ComputeJob>(config.stage_capacity.max(1));

        // When the sampling service carries an observability bundle, the
        // pipeline becomes the finish authority: a request is only "done"
        // (flight dumps, deadline checks) once its embeddings exist.
        let obs = svc.observability().cloned();
        if let Some(o) = &obs {
            o.defer_sample_finish();
        }
        // Likewise the gather authority: stage 2 fetches every block's
        // rows, so stage 1 expands only instead of fetching them first.
        svc.backend().defer_attr_fetch();

        let gather_handle = {
            let svc = Arc::clone(&svc);
            let pool = Arc::clone(&pool);
            let stats = Arc::clone(&stats);
            let batch = config.gather_batch.max(1);
            let obs = obs.clone();
            std::thread::spawn(move || {
                gather_loop(&svc, &pool, &stats, batch, &gather_rx, &compute_tx, obs)
            })
        };
        let compute_handle = {
            let svc = Arc::clone(&svc);
            let model = Arc::clone(&model);
            let pool = Arc::clone(&pool);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || compute_loop(&svc, &model, &pool, &stats, &compute_rx, obs))
        };

        InferenceService {
            svc,
            model,
            pool,
            stats,
            gather_tx: Some(gather_tx),
            gather_handle: Some(gather_handle),
            compute_handle: Some(compute_handle),
        }
    }

    /// Submits a request; blocks only when the pipeline is saturated
    /// (bounded stage queues). Keeping several tickets in flight is what
    /// lets the sampling stage coalesce batches while older requests
    /// gather and compute — the source of the pipelined speedup.
    ///
    /// # Panics
    ///
    /// Panics if `req.hops` disagrees with the model's layer count,
    /// `req.roots` is empty or `req.fanout` is zero.
    pub fn submit(&self, req: SampleRequest) -> InferenceTicket {
        req.assert_well_formed();
        assert_eq!(
            req.hops as usize,
            self.model.num_layers(),
            "request hops must match model layers"
        );
        assert!(!req.roots.is_empty(), "need at least one root");
        let fanout = req.fanout;
        let submitted = Instant::now();
        let ticket = self.svc.submit(req);
        let (reply, rx) = bounded(1);
        self.gather_tx
            .as_ref()
            .expect("service running")
            .send(GatherJob {
                ticket,
                fanout,
                submitted,
                reply,
            })
            .expect("pipeline stages alive");
        InferenceTicket { rx }
    }

    /// Submits and waits: the synchronous convenience path.
    pub fn infer(&self, req: SampleRequest) -> InferenceReply {
        self.submit(req).wait()
    }

    /// Returns a finished reply's embedding buffer to the pipeline's
    /// pool, so steady-state serving recycles instead of allocating.
    pub fn recycle(&self, reply: InferenceReply) {
        self.pool.put_floats(reply.embeddings.into_vec());
    }

    /// End-to-end serving stats (p50/p99 are submit-to-embedding).
    pub fn stats(&self) -> InferenceStats {
        self.stats.lock().expect("stats lock").clone()
    }

    /// The sampling service underneath (its stats cover stage 1 only).
    pub fn sampling(&self) -> &SamplingService {
        &self.svc
    }

    /// The model being served.
    pub fn model(&self) -> &SageModel {
        &self.model
    }

    /// Drains in-flight requests and stops the stage threads (the
    /// sampling service shuts down with its last owner).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Closing the gather queue cascades: gather drains and drops the
        // compute sender, compute drains and exits.
        drop(self.gather_tx.take());
        if let Some(h) = self.gather_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.compute_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Stage 2: await sample replies in submission order and run the
/// coalesced row gather. Whatever is already queued (up to
/// `gather_batch` requests) is fused into *one* attribute fetch: the
/// requests' fetch lists concatenate, dedup across each other, and pay
/// each partition dispatch once for the whole batch. Runs on its own
/// thread; a full compute queue blocks it (backpressure).
fn gather_loop(
    svc: &SamplingService,
    pool: &BufferPool,
    stats: &Mutex<InferenceStats>,
    gather_batch: usize,
    rx: &Receiver<GatherJob>,
    tx: &Sender<ComputeJob>,
    obs: Option<Observability>,
) {
    loop {
        // Block for one job, then drain peers already in the queue —
        // their samples are in flight (or done), so fusing them costs no
        // added wait.
        let first = match rx.recv() {
            Ok(j) => j,
            Err(_) => return, // submitters gone: shutting down
        };
        let mut jobs = vec![first];
        while jobs.len() < gather_batch {
            match rx.try_recv() {
                Ok(j) => jobs.push(j),
                Err(_) => break,
            }
        }
        stats
            .lock()
            .expect("stats lock")
            .gather_batch
            .record(jobs.len() as u64);

        // Resolve in submission order and build the fused fetch list;
        // remember each request's entry segment.
        let fused = jobs.len() as u64;
        let wait_t0 = obs.as_ref().map(|_| Instant::now());
        let mut fetch = pool.take_nodes();
        let mut resolved = Vec::with_capacity(jobs.len());
        for job in jobs {
            let trace = job.ticket.trace();
            let sreply = job.ticket.wait_reply();
            let slot_start = fetch.len();
            fetch.extend_from_slice(&sreply.block.roots);
            fetch.extend_from_slice(&sreply.block.nodes);
            let slot_len = fetch.len() - slot_start;
            resolved.push(Resolved {
                sreply,
                trace,
                slot_start,
                slot_len,
                fanout: job.fanout,
                submitted: job.submitted,
                reply: job.reply,
            });
        }
        let wait_us = wait_t0.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);
        // The fused fetch runs inside a ledger scope covering every fused
        // request, so the per-partition gather legs underneath attribute
        // to each of them.
        let _scope = obs
            .as_ref()
            .map(|o| ledger::enter_scope(o.ledger(), resolved.iter().map(|r| r.trace).collect()));
        let fetch_t0 = obs.as_ref().map(|_| Instant::now());
        let mut rows = pool.take_floats();
        let mut slot_of = pool.take_offsets();
        let attr_len = svc.gather_attr_rows(&fetch, &mut rows, &mut slot_of);
        if let Some(t0) = fetch_t0 {
            // queue = time spent waiting on the sample tickets; service =
            // the fused coalesced fetch; detail = requests fused.
            ledger::scope_record(
                Stage::Gather,
                NO_SHARD,
                wait_us,
                t0.elapsed().as_secs_f64() * 1e6,
                fused,
            );
        }
        drop(_scope);
        pool.put_nodes(fetch);

        let feats = Arc::new(Matrix::from_vec(
            rows.len() / attr_len.max(1),
            attr_len,
            rows,
        ));
        let slots = Arc::new(slot_of);
        let enqueued = Instant::now();
        for r in resolved {
            let sent = tx.send(ComputeJob {
                sreply: r.sreply,
                trace: r.trace,
                feats: Arc::clone(&feats),
                slots: Arc::clone(&slots),
                slot_start: r.slot_start,
                slot_len: r.slot_len,
                fanout: r.fanout,
                submitted: r.submitted,
                enqueued,
                reply: r.reply,
            });
            if sent.is_err() {
                return; // compute stage gone: shutting down
            }
        }
    }
}

/// Stage 3: layer-wise forward into pooled output, end-to-end latency
/// accounting, reply delivery.
fn compute_loop(
    svc: &SamplingService,
    model: &SageModel,
    pool: &Arc<BufferPool>,
    stats: &Mutex<InferenceStats>,
    rx: &Receiver<ComputeJob>,
    obs: Option<Observability>,
) {
    let mut scratch = SageScratch::new();
    let mut lh = obs.as_ref().map(|o| o.ledger().handle());
    let mut marks: Vec<f64> = Vec::new();
    for job in rx.iter() {
        let queue_us = if lh.is_some() {
            job.enqueued.elapsed().as_secs_f64() * 1e6
        } else {
            0.0
        };
        let compute_t0 = lh.is_some().then(Instant::now);
        marks.clear();
        let out_buf = pool.take_floats();
        let slots = &job.slots[job.slot_start..job.slot_start + job.slot_len];
        let reply = compute_stage(
            model,
            &mut scratch,
            out_buf,
            &job.sreply,
            &job.feats,
            slots,
            job.fanout,
            |_k| {
                if let Some(t0) = compute_t0 {
                    marks.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            },
        );
        // The batch's last job returns the shared buffers to the pool.
        if let Ok(m) = Arc::try_unwrap(job.feats) {
            pool.put_floats(m.into_vec());
        }
        if let Ok(s) = Arc::try_unwrap(job.slots) {
            pool.put_offsets(s);
        }
        svc.backend().recycle(job.sreply.block);
        let elapsed_us = job.submitted.elapsed().as_micros() as u64;
        {
            let mut s = stats.lock().expect("stats lock");
            s.requests += 1;
            if reply.degraded {
                s.degraded += 1;
            }
            s.latency.record(Time::from_micros(elapsed_us));
        }
        if let (Some(o), Some(h)) = (obs.as_ref(), lh.as_mut()) {
            // One ComputeLayer event per layer (service = that layer's
            // share of the forward pass); the compute-queue wait is
            // charged to layer 0.
            let mut prev = 0.0;
            for (k, &m) in marks.iter().enumerate() {
                let q = if k == 0 { queue_us } else { 0.0 };
                h.record(
                    job.trace,
                    Stage::ComputeLayer,
                    NO_SHARD,
                    q,
                    m - prev,
                    k as u64,
                );
                prev = m;
            }
            o.observe_e2e(elapsed_us as f64, reply.degraded);
            h.finish(job.trace, elapsed_us as f64, reply.degraded);
        }
        // A dropped ticket just discards the reply.
        let _ = job.reply.send(reply);
    }
}

/// The gather stage's body, shared verbatim with [`run_sequential`]:
/// fetch one attribute row per distinct entry (roots + node plane) plus
/// the entry → row slot index.
fn gather_stage(
    svc: &SamplingService,
    pool: &BufferPool,
    sreply: &SampleReply,
) -> (Vec<f32>, Vec<u32>, usize) {
    let mut fetch = pool.take_nodes();
    fetch.extend_from_slice(&sreply.block.roots);
    fetch.extend_from_slice(&sreply.block.nodes);
    let mut rows = pool.take_floats();
    let mut slot_of = pool.take_offsets();
    let attr_len = svc.gather_attr_rows(&fetch, &mut rows, &mut slot_of);
    pool.put_nodes(fetch);
    (rows, slot_of, attr_len)
}

/// The compute stage's body, shared verbatim with [`run_sequential`]:
/// forward the block through the model over its slice of the (possibly
/// batch-shared) feature matrix, and attach degradation provenance. The
/// answer depends only on each entry's feature *values*, so a fused
/// gather's global row order produces bitwise-identical embeddings.
/// `after_layer` fires once per finished layer (the observability
/// timing hook); the unobserved path passes a no-op closure that
/// monomorphizes away.
#[allow(clippy::too_many_arguments)]
fn compute_stage<F: FnMut(usize)>(
    model: &SageModel,
    scratch: &mut SageScratch,
    out_buf: Vec<f32>,
    sreply: &SampleReply,
    feats: &Matrix,
    slot_of: &[u32],
    fanout: usize,
    after_layer: F,
) -> InferenceReply {
    let block = &sreply.block;
    assert!(
        block.has_adjacency(),
        "inference requires a flat-data-plane backend (block carries no adjacency)"
    );
    let mut out = Matrix::from_pooled(block.roots.len(), model.out_dim(), out_buf);
    // The block's boundary table carries a trailing end sentinel
    // (`nodes.len()`); the model wants only the per-hop starts.
    let hop_starts = &block.hop_offsets[..block.hop_offsets.len() - 1];
    model.forward_block_observed(
        block.roots.len(),
        hop_starts,
        &block.adj_offsets,
        feats,
        slot_of,
        scratch,
        &mut out,
        after_layer,
    );
    InferenceReply {
        embeddings: out,
        degraded: sreply.degraded,
        recall: estimate_recall(block.nodes.len() as u64, sreply.unreachable, fanout),
        unreachable: sreply.unreachable,
        attempts: sreply.attempts,
        hedged: sreply.hedged,
    }
}

/// Conservative recall estimate: each unreachable node is charged a full
/// `fanout` of missing samples against the `sampled` that did arrive.
fn estimate_recall(sampled: u64, unreachable: u64, fanout: usize) -> f64 {
    if unreachable == 0 {
        return 1.0;
    }
    let missing = unreachable.saturating_mul(fanout.max(1) as u64);
    sampled as f64 / (sampled + missing) as f64
}

/// The unpipelined reference execution: each request runs sample →
/// gather → compute to completion before the next is submitted, through
/// the *same* stage bodies the pipeline uses. Replies are
/// bitwise-identical to the pipelined service's on a deterministic
/// backend — pipelining changes latency, never results.
///
/// Like [`InferenceService::start`], this makes itself the gather
/// authority of `svc`, which stays an inference sample stage afterwards:
/// its replies are unchanged, but its backend no longer fetches (or
/// warms a cache with) the rows of the blocks it samples.
pub fn run_sequential(
    svc: &SamplingService,
    model: &SageModel,
    reqs: impl IntoIterator<Item = SampleRequest>,
) -> Vec<InferenceReply> {
    svc.backend().defer_attr_fetch();
    let pool = BufferPool::new();
    let mut scratch = SageScratch::new();
    let mut replies = Vec::new();
    for req in reqs {
        let fanout = req.fanout;
        let sreply = svc.sample_reply(req);
        let (rows, slot_of, attr_len) = gather_stage(svc, &pool, &sreply);
        let feats = Matrix::from_vec(rows.len() / attr_len.max(1), attr_len, rows);
        let out_buf = pool.take_floats();
        let reply = compute_stage(
            model,
            &mut scratch,
            out_buf,
            &sreply,
            &feats,
            &slot_of,
            fanout,
            |_| {},
        );
        pool.put_floats(feats.into_vec());
        pool.put_offsets(slot_of);
        svc.backend().recycle(sreply.block);
        replies.push(reply);
    }
    replies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CachedBackend, CpuBackend, SamplingBackend};
    use crate::chaos_backend::ChaosBackend;
    use crate::service::ServiceConfig;
    use lsdgnn_chaos::{FaultInjector, FaultPlan, ScenarioSpec};
    use lsdgnn_graph::{generators, AttributeStore, NodeId};
    use lsdgnn_telemetry::Registry;

    const ATTR_LEN: usize = 8;

    fn backend(parts: u32) -> Box<dyn SamplingBackend> {
        let g = generators::power_law(500, 8, 31);
        let a = AttributeStore::synthetic(500, ATTR_LEN, 31);
        Box::new(CpuBackend::new(&g, &a, parts))
    }

    fn model() -> SageModel {
        SageModel::new(&[ATTR_LEN, 8, 4], 77)
    }

    fn req(seed: u64) -> SampleRequest {
        SampleRequest {
            roots: vec![NodeId(seed % 500), NodeId((seed * 7 + 3) % 500)],
            hops: 2,
            fanout: 4,
            seed,
        }
    }

    fn service_cfg(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn pipelined_matches_sequential_reference() {
        let pipe = InferenceService::start(
            SamplingService::start(backend(2), service_cfg(2)),
            model(),
            InferenceConfig::default(),
        );
        let tickets: Vec<InferenceTicket> = (0..24).map(|s| pipe.submit(req(s))).collect();
        let piped: Vec<InferenceReply> = tickets.into_iter().map(InferenceTicket::wait).collect();

        let seq_svc = SamplingService::start(backend(2), service_cfg(2));
        let seq = run_sequential(&seq_svc, &model(), (0..24).map(req));

        assert_eq!(piped.len(), seq.len());
        for (i, (p, s)) in piped.iter().zip(&seq).enumerate() {
            assert_eq!(p, s, "request {i}");
            assert_eq!(p.digest(), s.digest(), "request {i}");
            assert_eq!(p.embeddings.shape(), (2, 4));
            assert!(!p.degraded);
            assert_eq!(p.recall, 1.0);
        }
        let stats = pipe.stats();
        assert_eq!(stats.requests, 24);
        assert_eq!(stats.degraded, 0);
        assert!(stats.latency_p99_us() >= stats.latency_p50_us());
        assert!(stats.latency_p50_us() > 0.0);
    }

    #[test]
    fn degraded_samples_yield_degraded_replies_not_errors() {
        // Card 1 dies at tick 8: later requests lose its contribution.
        let plan = FaultPlan::build(7, ScenarioSpec::none().with_card_failure(1, 8)).unwrap();
        let make = || {
            let injector = FaultInjector::new(plan.clone());
            let chaos = ChaosBackend::new(backend(2), injector.clone());
            // workers: 1 keeps breaker state in request order, so the
            // sequential arm sees identical degradation decisions.
            SamplingService::start_faulted(Box::new(chaos), service_cfg(1), None, Some(injector))
        };
        let pipe = InferenceService::start(make(), model(), InferenceConfig::default());
        let tickets: Vec<InferenceTicket> = (0..16).map(|s| pipe.submit(req(s))).collect();
        let piped: Vec<InferenceReply> = tickets.into_iter().map(InferenceTicket::wait).collect();
        let seq = run_sequential(&make(), &model(), (0..16).map(req));

        let mut saw_degraded = false;
        for (i, (p, s)) in piped.iter().zip(&seq).enumerate() {
            assert_eq!(p.digest(), s.digest(), "request {i}");
            assert_eq!(p.embeddings.shape(), (2, 4), "degraded is still complete");
            if p.degraded {
                saw_degraded = true;
                assert!(p.recall < 1.0, "degradation must be quantified");
                assert!(p.unreachable > 0);
            } else {
                assert_eq!(p.recall, 1.0);
            }
        }
        assert!(saw_degraded, "the dead card must degrade some replies");
        let stats = pipe.stats();
        assert!(stats.degraded > 0);
        assert!(stats.degraded_ratio() > 0.0);
    }

    #[test]
    fn cached_backend_serves_identical_embeddings() {
        let cached = CachedBackend::new(backend(2), 128, ATTR_LEN);
        let pipe = InferenceService::start(
            SamplingService::start(Box::new(cached), service_cfg(2)),
            model(),
            InferenceConfig::default(),
        );
        let piped: Vec<InferenceReply> = (0..8)
            .map(|s| pipe.submit(req(s)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(InferenceTicket::wait)
            .collect();
        let seq_svc = SamplingService::start(backend(2), service_cfg(2));
        let seq = run_sequential(&seq_svc, &model(), (0..8).map(req));
        for (p, s) in piped.iter().zip(&seq) {
            assert_eq!(p.digest(), s.digest());
        }
        // The cache behind the pipeline is observable from the
        // inference layer: the sampling service surfaces its tiers.
        let cache = pipe
            .sampling()
            .stats()
            .cache
            .expect("cached backend surfaces tier counters");
        let attr = cache.attr.expect("attr tier on");
        assert!(
            attr.hits + attr.misses > 0,
            "gather stage consulted the tier"
        );
    }

    #[test]
    fn tiny_stage_queues_still_drain_under_load() {
        let pipe = InferenceService::start(
            SamplingService::start(backend(2), service_cfg(2)),
            model(),
            InferenceConfig {
                stage_capacity: 1,
                gather_batch: 2,
            },
        );
        // More in-flight requests than any queue can hold: submission
        // must backpressure, not deadlock or drop.
        let replies: Vec<InferenceReply> = (0..40)
            .map(|s| pipe.submit(req(s)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(InferenceTicket::wait)
            .collect();
        assert_eq!(replies.len(), 40);
        assert_eq!(pipe.stats().requests, 40);
    }

    #[test]
    fn stats_register_into_telemetry() {
        let pipe = InferenceService::start(
            SamplingService::start(backend(2), service_cfg(2)),
            model(),
            InferenceConfig::default(),
        );
        for s in 0..4 {
            let reply = pipe.infer(req(s));
            pipe.recycle(reply);
        }
        let mut reg = Registry::new();
        reg.register("inference", &[], Box::new(pipe.stats()));
        let snap = reg.snapshot();
        assert_eq!(snap.get("inference/requests").unwrap().as_f64(), 4.0);
        assert_eq!(snap.get("inference/degraded").unwrap().as_f64(), 0.0);
        let lat = snap
            .get("inference/latency_us")
            .and_then(|v| v.as_histogram().copied())
            .expect("latency histogram exported");
        assert_eq!(lat.count, 4);
        assert!(lat.p99 >= lat.p50);
    }

    #[test]
    fn observed_pipeline_records_causal_ledger_and_matches_plain() {
        let obs = Observability::default();
        let svc = SamplingService::start_observed(
            backend(2),
            service_cfg(1),
            None,
            None,
            Some(obs.clone()),
        );
        let pipe = InferenceService::start(svc, model(), InferenceConfig::default());
        assert!(
            !obs.sample_finish_enabled(),
            "pipeline owns the finish triggers"
        );
        let tickets: Vec<InferenceTicket> = (0..12).map(|s| pipe.submit(req(s))).collect();
        let observed: Vec<InferenceReply> =
            tickets.into_iter().map(InferenceTicket::wait).collect();

        // Observability must never change answers.
        let plain_svc = SamplingService::start(backend(2), service_cfg(1));
        let plain = run_sequential(&plain_svc, &model(), (0..12).map(req));
        for (i, (o, p)) in observed.iter().zip(&plain).enumerate() {
            assert_eq!(o.digest(), p.digest(), "request {i}");
        }

        let snap = obs.ledger().snapshot();
        assert_eq!(snap.finished, 12, "e2e finish per request");
        let stages: Vec<Stage> = snap.events_for(1).iter().map(|e| e.stage).collect();
        for want in [
            Stage::Enqueue,
            Stage::Admission,
            Stage::Sampling,
            Stage::SampleHop,
            Stage::RemoteLeg,
            Stage::SampleDone,
            Stage::Gather,
            Stage::GatherLeg,
            Stage::ComputeLayer,
            Stage::Done,
        ] {
            assert!(
                stages.contains(&want),
                "missing {} in {stages:?}",
                want.name()
            );
        }
        assert_eq!(
            stages.iter().filter(|&&s| s == Stage::ComputeLayer).count(),
            2,
            "one compute event per model layer"
        );
        let blame = snap.blame(0.5);
        assert!(blame.top_stage().is_some());
        assert_eq!(obs.sampling_slo().total(), 12);
        assert_eq!(obs.e2e_slo().total(), 12);
    }

    #[test]
    fn degraded_observed_pipeline_dumps_flights_with_chaos_correlation() {
        // Card 1 dead from tick 0: every reply is degraded, so every
        // finish trips the flight recorder, correlated with the plan.
        let plan = FaultPlan::build(42, ScenarioSpec::none().with_card_failure(1, 0)).unwrap();
        let injector = FaultInjector::new(plan.clone());
        let chaos = ChaosBackend::new(backend(2), injector.clone());
        let obs = Observability::default();
        let svc = SamplingService::start_observed(
            Box::new(chaos),
            service_cfg(1),
            None,
            Some(injector),
            Some(obs.clone()),
        );
        let pipe = InferenceService::start(svc, model(), InferenceConfig::default());
        for s in 0..6 {
            let reply = pipe.infer(req(s));
            assert!(reply.degraded);
        }
        let snap = obs.ledger().snapshot();
        assert_eq!(snap.degraded_finishes, 6);
        assert!(!snap.dumps.is_empty(), "degraded finishes must dump");
        for d in &snap.dumps {
            assert_eq!(d.chaos_seed, Some(plan.seed()), "replay correlation");
            assert_eq!(d.plan_digest, Some(plan.digest()));
            assert!(!d.events.is_empty(), "dump carries the causal tail");
        }
        // The injected fault layer is named by the tail blame.
        let blame = snap.blame(0.0);
        assert_eq!(blame.top_fault(), Some("card_down"));
    }

    #[test]
    fn recall_estimate_is_conservative_and_bounded() {
        assert_eq!(estimate_recall(100, 0, 4), 1.0);
        assert_eq!(estimate_recall(0, 5, 4), 0.0);
        let r = estimate_recall(80, 5, 4);
        assert!(r > 0.0 && r < 1.0);
        assert_eq!(r, 80.0 / 100.0);
    }
}
