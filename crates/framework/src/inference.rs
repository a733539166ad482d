//! The end-to-end inference front door: sample → gather → GraphSAGE-max,
//! as one request path with one latency number.
//!
//! The paper's FaaS architecture exists to serve *inference*: a request
//! names root nodes, the answer is their embeddings, and the SLO is
//! end-to-end per-request latency — not the throughput of any single
//! stage. [`InferenceService`] serves that path over the serving stack
//! that already exists, and runs every step after sampling on the thread
//! that asks for the answer:
//!
//! 1. **Sample** — [`InferenceService::submit`] hands the request to
//!    [`SamplingService`] (bounded queue, coalesced batches, the full
//!    retry/hedge/degrade ladder) and returns an [`InferenceTicket`]
//!    holding the sample ticket.
//! 2. **Gather** — [`InferenceTicket::wait`] waits for the flat block
//!    and feeds the node planes to the coalesced
//!    [`SamplingBackend::gather_attr_rows`] fetch: one attribute row per
//!    *distinct* node plus a slot index, so a hub sampled 40 times is
//!    fetched (and later embedded) once. The rows land in a reused
//!    buffer, still warm when compute reads them.
//! 3. **Compute** — the same call runs
//!    [`SageModel::forward_block_into`]'s loop over the block's
//!    hop/adjacency offsets and the deduplicated rows; all layer
//!    intermediates live in the same reused buffers.
//!
//! Concurrency comes from the sampling service's shards, which batch
//! what is queued while callers gather and compute older requests, and
//! from the callers' own threads — not from hand-offs to threads of this
//! service, which owns none. The sampling service's bounded queue is the
//! backpressure point: when it is full `submit` blocks. How many
//! requests are in flight changes latency, never results:
//! [`run_sequential`] runs the same per-request body one request at a
//! time, and every reply of the service is bitwise-identical to its
//! reply (pinned by `tests/inference_differential.rs` and `bench
//! inference`).
//!
//! Degradation composes: a degraded [`SampleReply`] (card down, retries
//! exhausted) is gathered and embedded like any other block — the
//! service *never* errors on a degraded sample — and surfaces as
//! [`InferenceReply::degraded`] with an estimated
//! [`InferenceReply::recall`] quantifying the loss.
//!
//! [`SamplingBackend::gather_attr_rows`]: crate::backend::SamplingBackend::gather_attr_rows

use crate::admission::Priority;
use crate::backend::SampleRequest;
use crate::pool::BufferPool;
use crate::service::{SampleReply, SampleTicket, SamplingService};
use lsdgnn_graph::NodeId;
use lsdgnn_nn::{Matrix, SageModel, SageScratch};
use lsdgnn_telemetry::ledger::{self, Stage, NO_SHARD};
use lsdgnn_telemetry::{Log2Histogram, MetricSource, Scope};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of an [`InferenceService`]. It has no knobs left: the
/// service owns no queue and no thread to size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferenceConfig {}

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
    /// — the service-vs-[`run_sequential`] equivalence check.
    /// Timing-dependent provenance (attempts, hedges) is excluded; the
    /// *answer* is what must match.
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
    pub latency: Log2Histogram,
    /// Replies later than the end-to-end SLO's 100 ms target.
    pub slo_violations: u64,
    /// Vestige of the deleted cross-request gather fusion: one sample of
    /// 1 per request. `benchmark/src/layers.rs` still reads it for its
    /// `inference.gather_batch_mean` row; the `benchmark` follow-up that
    /// drops that row deletes this field and its metric too.
    pub gather_batch: Log2Histogram,
}

impl InferenceStats {
    /// Interpolated median end-to-end latency, microseconds.
    pub fn latency_p50_us(&self) -> f64 {
        self.latency.percentile(0.50)
    }

    /// Interpolated p99 end-to-end latency, microseconds.
    pub fn latency_p99_us(&self) -> f64 {
        self.latency.percentile(0.99)
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
        out.histogram("latency_us", self.latency.snapshot());
        out.counter("slo_violations", self.slo_violations);
        out.histogram("gather_batch", self.gather_batch.snapshot());
        out.gauge("degraded_ratio", self.degraded_ratio());
    }
}

/// End-to-end SLO target, µs from submit to embeddings.
const SLO_TARGET_US: u64 = 100_000;

/// What the service and its outstanding tickets share.
struct Shared {
    svc: SamplingService,
    model: SageModel,
    pool: BufferPool,
    /// The end-to-end stats and the idle per-request buffers, under one
    /// lock: a request takes a buffer set when its body starts and hands
    /// it back with its stats.
    books: Mutex<(InferenceStats, Vec<RequestBuffers>)>,
}

impl Shared {
    fn books(&self) -> std::sync::MutexGuard<'_, (InferenceStats, Vec<RequestBuffers>)> {
        self.books
            .lock()
            .expect("no request panics holding the books")
    }
}

/// A pending inference request. [`InferenceTicket::wait`] gathers and
/// computes its embeddings on the calling thread; a ticket dropped
/// without `wait` does the same work in its drop and discards the reply,
/// so every accepted request is accounted and finished exactly once.
pub struct InferenceTicket {
    /// Taken by the one call that answers the request.
    sample: Option<SampleTicket>,
    fanout: usize,
    submitted: Instant,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for InferenceTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceTicket")
            .field("sample", &self.sample)
            .field("fanout", &self.fanout)
            .finish_non_exhaustive()
    }
}

impl InferenceTicket {
    /// Waits for the request's sample, then gathers and embeds it on the
    /// calling thread. Shutting the service down does not lose the
    /// request: the ticket keeps the sampling service alive.
    ///
    /// # Panics
    ///
    /// Panics if the sampling service failed to answer the sample.
    pub fn wait(mut self) -> InferenceReply {
        self.answer()
    }

    /// The per-request body around [`RequestBuffers::serve`]: wait for
    /// the sample, run it, account end-to-end latency and finish the
    /// request in the ledger.
    fn answer(&mut self) -> InferenceReply {
        let sample = self.sample.take().expect("a ticket is answered once");
        let sh = &*self.shared;
        let obs = sh.svc.observability();
        let trace = sample.trace();
        let wait_t0 = obs.is_some().then(Instant::now);
        let sreply = sample.wait_reply();
        let sample_wait_us = wait_t0.map_or(0.0, elapsed_us);
        let mut bufs = sh.books().1.pop().unwrap_or_default();
        // The body records its gather and compute events (and the
        // per-partition gather legs underneath) against this scope.
        let scope = obs.map(|o| ledger::enter_scope(o.ledger(), vec![trace]));
        let reply = bufs.serve(
            &sh.svc,
            &sh.model,
            sh.pool.take_floats(),
            sreply,
            self.fanout,
            sample_wait_us,
        );
        drop(scope);
        let total_us = self.submitted.elapsed().as_micros() as u64;
        {
            let mut books = sh.books();
            let (s, spare) = &mut *books;
            s.requests += 1;
            if reply.degraded {
                s.degraded += 1;
            }
            s.latency.record(total_us);
            if total_us > SLO_TARGET_US {
                s.slo_violations += 1;
            }
            s.gather_batch.record(1);
            spare.push(bufs);
        }
        if let Some(o) = obs {
            o.ledger()
                .handle()
                .finish(trace, total_us as f64, reply.degraded);
        }
        reply
    }
}

impl Drop for InferenceTicket {
    fn drop(&mut self) {
        // Unwinding skips the body, so a panic inside it cannot abort
        // the process and a caller's panic never blocks on a sample.
        // Otherwise a panic here propagates as it would from `wait`.
        if self.sample.is_some() && !std::thread::panicking() {
            let reply = self.answer();
            self.shared.pool.put_floats(reply.embeddings.into_vec());
        }
    }
}

/// The sample → gather → GraphSAGE-max inference service.
pub struct InferenceService {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for InferenceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceService")
            .field("layers", &self.shared.model.num_layers())
            .finish()
    }
}

impl InferenceService {
    /// Puts the inference front door over an already-running sampling
    /// service (plain, traced, or faulted — degradation composes
    /// transparently).
    ///
    /// The model's layer count fixes the hop count requests must carry;
    /// [`InferenceService::submit`] asserts it.
    pub fn start(svc: SamplingService, model: SageModel, _config: InferenceConfig) -> Self {
        // The gather authority: each ticket fetches its block's rows, so
        // the sampling service expands only instead of fetching them
        // first.
        svc.backend().defer_attr_fetch();
        InferenceService {
            shared: Arc::new(Shared {
                svc,
                model,
                pool: BufferPool::new(),
                books: Mutex::default(),
            }),
        }
    }

    /// Submits a request to the sampling service; blocks only when that
    /// service's bounded queue is full. The ticket is the request's finish
    /// authority: its sample reply does not finish the ledger trace, the
    /// ticket does once the embeddings exist. Keeping several tickets in
    /// flight lets the sampling service coalesce batches while the
    /// caller gathers and computes older requests.
    ///
    /// # Panics
    ///
    /// Panics if `req.hops` disagrees with the model's layer count,
    /// `req.roots` is empty, `req.fanout` is zero or a root is outside
    /// the backend's node range.
    pub fn submit(&self, req: SampleRequest) -> InferenceTicket {
        let sh = &self.shared;
        req.assert_well_formed(sh.svc.backend().num_nodes());
        assert_eq!(
            req.hops as usize,
            sh.model.num_layers(),
            "request hops must match model layers"
        );
        assert!(!req.roots.is_empty(), "need at least one root");
        let fanout = req.fanout;
        let submitted = Instant::now();
        InferenceTicket {
            sample: Some(
                sh.svc
                    .enqueue(req, Priority::Interactive, None, false, false),
            ),
            fanout,
            submitted,
            shared: Arc::clone(sh),
        }
    }

    /// Submits and waits: the synchronous convenience path.
    pub fn infer(&self, req: SampleRequest) -> InferenceReply {
        self.submit(req).wait()
    }

    /// Returns a finished reply's embedding buffer to the service's
    /// pool, so steady-state serving recycles instead of allocating.
    pub fn recycle(&self, reply: InferenceReply) {
        self.shared.pool.put_floats(reply.embeddings.into_vec());
    }

    /// End-to-end serving stats (p50/p99 are submit-to-embedding) of
    /// the requests answered so far.
    pub fn stats(&self) -> InferenceStats {
        self.shared.books().0.clone()
    }

    /// The sampling service underneath (its stats cover sampling only).
    pub fn sampling(&self) -> &SamplingService {
        &self.shared.svc
    }

    /// Stops accepting requests. Tickets already issued stay valid: each
    /// is answered by its `wait` (or its drop), and the sampling service
    /// shuts down with the last of them.
    pub fn shutdown(self) {}
}

fn elapsed_us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// What one request needs between its sample reply and its embeddings,
/// reused from request to request by whoever runs the body (a ticket, or
/// [`run_sequential`]).
#[derive(Default)]
struct RequestBuffers {
    /// Roots then node plane: the entries whose rows are fetched.
    fetch: Vec<NodeId>,
    /// One attribute row per distinct entry of `fetch`.
    rows: Vec<f32>,
    /// Entry → row of `rows`.
    slot_of: Vec<u32>,
    scratch: SageScratch,
}

impl RequestBuffers {
    /// The per-request body, the only one there is: fetch one attribute
    /// row per distinct entry of the block, forward the block through
    /// the model into `out_buf`, attach the degradation provenance and
    /// hand the block back to the backend.
    ///
    /// Under a ledger scope (a ticket of an observed service installs
    /// one per request) it records one `Gather` event — queue = the
    /// caller's wait on the sample ticket, service = the fetch, detail =
    /// distinct rows fetched — and one `ComputeLayer` event per layer.
    fn serve(
        &mut self,
        svc: &SamplingService,
        model: &SageModel,
        out_buf: Vec<f32>,
        sreply: SampleReply,
        fanout: usize,
        sample_wait_us: f64,
    ) -> InferenceReply {
        let block = &sreply.block;
        assert!(
            block.has_adjacency(),
            "inference requires a flat-data-plane backend (block carries no adjacency)"
        );
        let observed = ledger::scope_active();

        self.fetch.clear();
        self.fetch.extend_from_slice(&block.roots);
        self.fetch.extend_from_slice(&block.nodes);
        let fetch_t0 = observed.then(Instant::now);
        let attr_len = svc.gather_attr_rows(&self.fetch, &mut self.rows, &mut self.slot_of);
        let distinct = self.rows.len() / attr_len.max(1);
        if let Some(t0) = fetch_t0 {
            ledger::scope_record(
                Stage::Gather,
                NO_SHARD,
                sample_wait_us,
                elapsed_us(t0),
                distinct as u64,
            );
        }

        let feats = Matrix::from_vec(distinct, attr_len, std::mem::take(&mut self.rows));
        let mut out = Matrix::from_pooled(block.roots.len(), model.out_dim(), out_buf);
        // The block's boundary table carries a trailing end sentinel
        // (`nodes.len()`); the model wants only the per-hop starts.
        let hop_starts = &block.hop_offsets[..block.hop_offsets.len() - 1];
        let mut layer_t0 = observed.then(Instant::now);
        model.forward_block_observed(
            block.roots.len(),
            hop_starts,
            &block.adj_offsets,
            &feats,
            &self.slot_of,
            &mut self.scratch,
            &mut out,
            |k| {
                if let Some(t0) = layer_t0 {
                    ledger::scope_record(
                        Stage::ComputeLayer,
                        NO_SHARD,
                        0.0,
                        elapsed_us(t0),
                        k as u64,
                    );
                    layer_t0 = Some(Instant::now());
                }
            },
        );
        self.rows = feats.into_vec();

        let reply = InferenceReply {
            embeddings: out,
            degraded: sreply.degraded,
            recall: estimate_recall(block.nodes.len() as u64, sreply.unreachable, fanout),
            unreachable: sreply.unreachable,
            attempts: sreply.attempts,
            hedged: sreply.hedged,
        };
        svc.backend().recycle(sreply.block);
        reply
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

/// The one-at-a-time reference execution: each request is sampled,
/// gathered and embedded before the next is submitted, by the *same*
/// per-request body the service's tickets run. Replies are
/// bitwise-identical to the service's on a deterministic backend — how
/// many requests are in flight changes latency, never results.
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
    let mut bufs = RequestBuffers::default();
    reqs.into_iter()
        .map(|req| {
            let fanout = req.fanout;
            let sreply = svc.sample_reply(req);
            bufs.serve(svc, model, Vec::new(), sreply, fanout, 0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, SamplingBackend};
    use crate::hot_cache::CacheConfig;
    use crate::obs::Observability;
    use crate::service::tests::gated;
    use crate::service::ServiceConfig;
    use lsdgnn_chaos::{FaultInjector, FaultPlan, ScenarioSpec};
    use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionedGraph};
    use lsdgnn_telemetry::Registry;

    const ATTR_LEN: usize = 8;

    fn backend(parts: u32) -> Box<dyn SamplingBackend> {
        let g = generators::power_law(500, 8, 31);
        let a = AttributeStore::synthetic(500, ATTR_LEN, 31);
        Box::new(CpuBackend::new(&g, &a, parts))
    }

    /// The same cluster with the inline hot-set cache mounted.
    fn cached_backend(parts: u32, capacity: usize) -> Box<dyn SamplingBackend> {
        let g = generators::power_law(500, 8, 31);
        let a = AttributeStore::synthetic(500, ATTR_LEN, 31);
        let pg = PartitionedGraph::new(g, parts).with_attributes(a);
        Box::new(CpuBackend::from_partitioned_cached(
            pg,
            CacheConfig::with_capacity(capacity),
        ))
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
            // workers: 1 keeps breaker state in request order, so the
            // sequential arm sees identical degradation decisions.
            SamplingService::start_observed(
                backend(2),
                service_cfg(1),
                None,
                Some(FaultInjector::new(plan.clone())),
                None,
            )
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
        let pipe = InferenceService::start(
            SamplingService::start(cached_backend(2, 128), service_cfg(2)),
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

    /// Drop order (ROADMAP 5b): a request `submit` accepted is answered
    /// exactly once even when the service shuts down with its ticket
    /// still outstanding. The sampling backend is gated, so which
    /// samples are still held at shutdown is fixed by tokens, not by a
    /// clock.
    #[test]
    fn shutdown_answers_every_queued_request_exactly_once() {
        const TOTAL: u64 = 16;
        // The tail whose samples are still held when the service shuts
        // down.
        const HELD: u64 = 4;
        let small = |s: u64| SampleRequest {
            roots: vec![NodeId(s * 17 % 300), NodeId((s * 7 + 3) % 300)],
            hops: 2,
            fanout: 4,
            seed: s,
        };
        // One request per dispatch: one token releases one sample.
        let one_per_dispatch = ServiceConfig {
            max_batch: 1,
            ..ServiceConfig::default()
        };

        let (svc, _entered, release) = gated(one_per_dispatch, None);
        let pipe = InferenceService::start(svc, model(), InferenceConfig::default());
        (HELD..TOTAL).for_each(|_| release.send(()).unwrap());
        let tickets: Vec<InferenceTicket> = (0..TOTAL).map(|i| pipe.submit(small(i))).collect();
        // Shutdown with every ticket outstanding and the tail's samples
        // held: the tickets keep the sampling service alive.
        pipe.shutdown();
        (0..HELD).for_each(|_| release.send(()).unwrap());
        let mut digests: Vec<u64> = tickets
            .into_iter()
            .rev()
            .map(|t| t.wait().digest())
            .collect();
        digests.reverse();

        let (ref_svc, _entered, release) = gated(one_per_dispatch, None);
        (0..TOTAL).for_each(|_| release.send(()).unwrap());
        let seq = run_sequential(&ref_svc, &model(), (0..TOTAL).map(small));
        let want: Vec<u64> = seq.iter().map(InferenceReply::digest).collect();
        assert_eq!(digests, want);
    }

    /// A ticket dropped without `wait` still runs its request to the
    /// end: counted in the stats, finished once in the ledger.
    #[test]
    fn dropped_tickets_are_still_accounted_and_finished() {
        const TOTAL: u64 = 10;
        let obs = Observability::default();
        let svc = SamplingService::start_observed(
            backend(2),
            service_cfg(1),
            None,
            None,
            Some(obs.clone()),
        );
        let pipe = InferenceService::start(svc, model(), InferenceConfig::default());
        let tickets: Vec<InferenceTicket> = (0..TOTAL).map(|s| pipe.submit(req(s))).collect();
        let mut waited = 0;
        for (i, t) in tickets.into_iter().enumerate() {
            if i % 2 == 0 {
                drop(t);
            } else {
                pipe.recycle(t.wait());
                waited += 1;
            }
        }
        assert_eq!(waited, TOTAL / 2);
        let snap = obs.ledger().snapshot();
        assert_eq!(snap.finished, TOTAL, "every submission finishes once");
        for trace in 1..=TOTAL {
            let done = snap
                .events_for(trace)
                .iter()
                .filter(|e| e.stage == Stage::Done)
                .count();
            assert_eq!(done, 1, "trace {trace}");
        }
        let stats = pipe.stats();
        assert_eq!(stats.requests, TOTAL);
        assert_eq!(stats.latency.count(), TOTAL);
    }

    /// Finish authority belongs to each request, not to the bundle: an
    /// inference service started on one clone of an `Observability`
    /// leaves a plain service on another clone finishing its own traces.
    #[test]
    fn a_shared_bundle_leaves_plain_requests_their_finish() {
        const TOTAL: u64 = 5;
        let obs = Observability::default();
        let inner = SamplingService::start_observed(
            backend(2),
            service_cfg(1),
            None,
            None,
            Some(obs.clone()),
        );
        let _pipe = InferenceService::start(inner, model(), InferenceConfig::default());
        let plain = SamplingService::start_observed(
            backend(2),
            service_cfg(1),
            None,
            None,
            Some(obs.clone()),
        );
        for s in 0..TOTAL {
            plain.sample_reply(req(s));
        }
        assert_eq!(obs.ledger().snapshot().finished, TOTAL);
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
        assert_eq!(pipe.sampling().stats().requests, 12);
        assert_eq!(pipe.stats().requests, 12);
    }

    #[test]
    fn degraded_observed_pipeline_dumps_flights_with_chaos_correlation() {
        // Card 1 dead from tick 0: every reply is degraded, so every
        // finish trips the flight recorder, correlated with the plan.
        let plan = FaultPlan::build(42, ScenarioSpec::none().with_card_failure(1, 0)).unwrap();
        let obs = Observability::default();
        let svc = SamplingService::start_observed(
            backend(2),
            service_cfg(1),
            None,
            Some(FaultInjector::new(plan.clone())),
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
