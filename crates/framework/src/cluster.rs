//! The distributed graph service: partitions own disjoint node ranges,
//! and a worker traverses and samples across them. The server side of a
//! remote leg runs on the worker that issues it, copying lists and rows
//! into pooled reply buffers as a remote server would; the wire plane
//! charges the link for those bytes.
//!
//! # The flat-buffer data plane
//!
//! The hot serving path is two verbs, as in the paper's command
//! interface: *expand* ([`Cluster::expand_blocks_excluding`]: hops, picks,
//! adjacency) and the attribute fetch ([`Cluster::fetch_attr_rows_into`]).
//! The stand-alone sampling op ([`Cluster::sample_blocks_excluding`]) is
//! their composition; a caller with a gather stage of its own asks for
//! the expansion alone. Both are built around three ideas, mirroring how
//! the paper's AxE moves data:
//!
//! * **Flat buffers** — a remote leg answers neighbor requests with one
//!   `offsets` array plus one flat `nodes` array (CSR shape), and the
//!   sampled result is a [`SampleBlock`] in the same shape. No
//!   `Vec<Vec<_>>` per batch, no per-node allocations.
//! * **Request coalescing** — each hop's frontier is deduplicated before
//!   shard dispatch (the software analogue of the AxE's 8 KB coalescing
//!   cache): a hub node appearing 40 times in a frontier is fetched once.
//!   Sampling still runs per frontier *entry* with the per-request RNG,
//!   so results are byte-identical to uncoalesced sampling.
//! * **Zero-copy local reads** — frontier nodes owned by the worker's
//!   co-located partition never join a remote leg: their neighbor lists are
//!   [`Span::Csr`] ranges borrowed straight from the shared CSR target
//!   array.
//!
//! All transient buffers (frontier scratch, server replies, attribute
//! gathers, the result blocks) recycle through the cluster's shared
//! [`BufferPool`].
//!
//! This is the only sampling path of the CPU substrate. Its reference is
//! outside the cluster: `tests/dataplane_differential.rs` pins every
//! block, degradation verdict and gathered row to the single-machine
//! `MultiHopSampler` over the unpartitioned graph, plus a table of
//! frozen digests.

use crate::backend::{SampleOutcome, SampleRequest};
use crate::hot_cache::{CacheConfig, CacheSnapshot, HotSetCache, ShardedTier};
use crate::pool::BufferPool;
use lsdgnn_graph::mem::{prefetch_read, prefetch_row};
use lsdgnn_graph::{NodeId, PartitionId, PartitionedGraph};
use lsdgnn_memfabric::LinkModel;
use lsdgnn_mof::{
    bdi_stream_bytes, packed_request_size, BDI_LINE_WORDS, CRC_BYTES, HEADER_BYTES,
    MAX_REQUESTS_PER_PACKAGE,
};
use lsdgnn_sampler::{SampleBlock, StreamingSampler};
use lsdgnn_telemetry::ledger::{self, Stage};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Local/remote request accounting of one operation (feeds the
/// Figure 2(b)/(c) characterization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Batched requests answered by the worker's co-located server.
    pub local_requests: u64,
    /// Batched requests that crossed the (simulated) network.
    pub remote_requests: u64,
    /// Individual nodes whose neighbors were fetched.
    pub nodes_expanded: u64,
    /// Individual attribute vectors gathered.
    pub attrs_fetched: u64,
    /// Nodes whose owning partition was down or excluded: their neighbor
    /// lists came back empty (attributes zeroed). Non-zero marks the
    /// operation's result as *degraded* — structurally valid but missing
    /// the unreachable shard's contribution.
    pub unreachable_nodes: u64,
    /// Frontier neighbor-list lookups on the coalescing path.
    pub coalesce_lookups: u64,
    /// Lookups answered by the per-batch coalescing table instead of a
    /// fresh fetch (a hub appearing twice in a frontier is one fetch,
    /// one hit).
    pub coalesce_hits: u64,
    /// Attribute rows requested on the coalescing gather path.
    pub attr_coalesce_lookups: u64,
    /// Attribute rows answered by the per-gather coalescing table
    /// instead of a fresh fetch (a hub sampled 40 times in a mini-batch
    /// is one row fetch, 39 hits).
    pub attr_coalesce_hits: u64,
    /// Frontier lookups at 64-byte-line granularity
    /// ([`FRONTIER_LINE_NODES`] ids per line). The exact-id coalesce
    /// counters above depend only on topology and roots — they are
    /// *invariant* under node relabeling — whereas a line hit needs two
    /// frontier ids to be numerically close, so this pair is the counter
    /// that moves when locality-aware reordering works.
    pub frontier_line_lookups: u64,
    /// Frontier lookups whose 64-byte line was already touched this hop.
    pub frontier_line_hits: u64,
    /// Attribute-row lookups at page granularity ([`ATTR_PAGE_ROWS`]
    /// rows per page) — the layout-sensitive analogue of
    /// `attr_coalesce_lookups`.
    pub attr_page_lookups: u64,
    /// Attribute-row lookups whose page was already touched this gather.
    pub attr_page_hits: u64,
}

impl RequestStats {
    /// Fraction of batched requests that were remote.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local_requests + self.remote_requests;
        if total == 0 {
            0.0
        } else {
            self.remote_requests as f64 / total as f64
        }
    }

    /// Fraction of coalescing-path lookups served without a fetch.
    pub fn coalesce_hit_rate(&self) -> f64 {
        if self.coalesce_lookups == 0 {
            0.0
        } else {
            self.coalesce_hits as f64 / self.coalesce_lookups as f64
        }
    }

    /// Fraction of attribute-row lookups served without a fetch.
    pub fn attr_coalesce_hit_rate(&self) -> f64 {
        if self.attr_coalesce_lookups == 0 {
            0.0
        } else {
            self.attr_coalesce_hits as f64 / self.attr_coalesce_lookups as f64
        }
    }

    /// Fraction of frontier lookups landing on a 64-byte line already
    /// touched this hop — layout locality, not just id duplication (see
    /// [`RequestStats::frontier_line_lookups`]).
    pub fn frontier_line_hit_rate(&self) -> f64 {
        if self.frontier_line_lookups == 0 {
            0.0
        } else {
            self.frontier_line_hits as f64 / self.frontier_line_lookups as f64
        }
    }

    /// Fraction of attribute-row lookups landing on a page already
    /// touched this gather.
    pub fn attr_page_hit_rate(&self) -> f64 {
        if self.attr_page_lookups == 0 {
            0.0
        } else {
            self.attr_page_hits as f64 / self.attr_page_lookups as f64
        }
    }

    /// Folds another operation's accounting into this one (used by
    /// backends accumulating per-request stats into a running total).
    pub fn merge(&mut self, other: RequestStats) {
        self.local_requests += other.local_requests;
        self.remote_requests += other.remote_requests;
        self.nodes_expanded += other.nodes_expanded;
        self.attrs_fetched += other.attrs_fetched;
        self.unreachable_nodes += other.unreachable_nodes;
        self.coalesce_lookups += other.coalesce_lookups;
        self.coalesce_hits += other.coalesce_hits;
        self.attr_coalesce_lookups += other.attr_coalesce_lookups;
        self.attr_coalesce_hits += other.attr_coalesce_hits;
        self.frontier_line_lookups += other.frontier_line_lookups;
        self.frontier_line_hits += other.frontier_line_hits;
        self.attr_page_lookups += other.attr_page_lookups;
        self.attr_page_hits += other.attr_page_hits;
    }
}

impl lsdgnn_telemetry::MetricSource for RequestStats {
    fn collect(&self, out: &mut lsdgnn_telemetry::Scope<'_>) {
        out.counter("local_requests", self.local_requests);
        out.counter("remote_requests", self.remote_requests);
        out.counter("nodes_expanded", self.nodes_expanded);
        out.counter("attrs_fetched", self.attrs_fetched);
        out.counter("unreachable_nodes", self.unreachable_nodes);
        out.counter("coalesce_lookups", self.coalesce_lookups);
        out.counter("coalesce_hits", self.coalesce_hits);
        out.counter("attr_coalesce_lookups", self.attr_coalesce_lookups);
        out.counter("attr_coalesce_hits", self.attr_coalesce_hits);
        out.counter("frontier_line_lookups", self.frontier_line_lookups);
        out.counter("frontier_line_hits", self.frontier_line_hits);
        out.counter("attr_page_lookups", self.attr_page_lookups);
        out.counter("attr_page_hits", self.attr_page_hits);
        out.gauge("remote_fraction", self.remote_fraction());
        out.gauge("coalesce_hit_rate", self.coalesce_hit_rate());
        out.gauge("attr_coalesce_hit_rate", self.attr_coalesce_hit_rate());
        out.gauge("frontier_line_hit_rate", self.frontier_line_hit_rate());
        out.gauge("attr_page_hit_rate", self.attr_page_hit_rate());
    }
}

/// Node ids per 64-byte memory line (8 × 8-byte ids) — the granularity
/// of [`RequestStats::frontier_line_lookups`].
pub const FRONTIER_LINE_NODES: u64 = 8;

/// Attribute rows per locality page for
/// [`RequestStats::attr_page_lookups`]: 16 rows ≈ one 4 KB page at the
/// serving workload's 64-float rows.
pub const ATTR_PAGE_ROWS: u64 = 16;

/// A Gen-Z-style *unpacked* read request (header + full 8-byte address +
/// CRC, one package per request) — the baseline MoF Tech-1 packing is
/// measured against, per the paper's ~33 % small-read utilization figure.
pub const UNPACKED_REQUEST_BYTES: u64 = HEADER_BYTES + 8 + CRC_BYTES;

/// Configuration of the MoF wire accounting plane (see `WirePlane`).
/// Remote read addresses always go through MoF multi-request packing
/// (§4.3 Tech-1: up to 64 requests share one base address; spans beyond
/// the 4-byte offset range split into extra packages), and every leg is
/// charged to the paper's MoF link ([`LinkModel::mof`] at 3 hops).
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// BDI-compress response payloads per 64-byte line (§4.3 Tech-2)
    /// and charge the link with compressed bytes.
    pub compression: bool,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig { compression: true }
    }
}

/// Which remote verb a wire leg served — BDI behaves very differently
/// on the two payload kinds (node-id streams compress, float rows
/// mostly do not), so response bytes are also accounted per leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireLeg {
    /// A neighbor-list fetch: the payload is node ids.
    Sampling,
    /// An attribute-row gather: the payload is packed f32 rows.
    Attrs,
}

/// Shared counters of the wire plane (atomics: server legs run on the
/// worker thread but service workers share one cluster).
#[derive(Debug, Default)]
struct WireCounters {
    remote_legs: AtomicU64,
    request_packages: AtomicU64,
    packed_requests: AtomicU64,
    overflow_splits: AtomicU64,
    raw_request_bytes: AtomicU64,
    wire_request_bytes: AtomicU64,
    raw_response_bytes: AtomicU64,
    wire_response_bytes: AtomicU64,
    sampling_raw_response_bytes: AtomicU64,
    sampling_wire_response_bytes: AtomicU64,
    attr_raw_response_bytes: AtomicU64,
    attr_wire_response_bytes: AtomicU64,
    simulated_wire_ns: AtomicU64,
}

/// A point-in-time copy of the wire plane's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Remote legs accounted (one per per-partition dispatch).
    pub remote_legs: u64,
    /// Request packages emitted.
    pub request_packages: u64,
    /// Read requests carried by those packages.
    pub packed_requests: u64,
    /// Packages closed early because the next address exceeded the
    /// 4-byte offset range from the open package's base.
    pub overflow_splits: u64,
    /// Request bytes at the unpacked Gen-Z-style baseline.
    pub raw_request_bytes: u64,
    /// Request bytes actually charged to the link.
    pub wire_request_bytes: u64,
    /// Response bytes before compression (payload + package framing).
    pub raw_response_bytes: u64,
    /// Response bytes actually charged to the link.
    pub wire_response_bytes: u64,
    /// Raw response bytes on neighbor-fetch (sampling) legs only.
    pub sampling_raw_response_bytes: u64,
    /// Wire response bytes on neighbor-fetch (sampling) legs only.
    pub sampling_wire_response_bytes: u64,
    /// Raw response bytes on attribute-gather legs only.
    pub attr_raw_response_bytes: u64,
    /// Wire response bytes on attribute-gather legs only.
    pub attr_wire_response_bytes: u64,
    /// Link-model time for every leg's round trip at wire size,
    /// accumulated in nanoseconds — *simulated* latency, reported rather
    /// than asserted.
    pub simulated_wire_ns: u64,
}

impl WireSnapshot {
    /// Measured response-payload compression ratio (raw / wire); > 1
    /// means BDI shrank the responses.
    pub fn compression_ratio(&self) -> f64 {
        ratio(self.raw_response_bytes, self.wire_response_bytes)
    }

    /// Compression ratio on sampled remote traffic only (neighbor-id
    /// payloads — the Table 6 measurement): BDI earns its keep here,
    /// while float attribute rows mostly ride raw-fallback lines.
    pub fn sampling_compression_ratio(&self) -> f64 {
        ratio(
            self.sampling_raw_response_bytes,
            self.sampling_wire_response_bytes,
        )
    }

    /// Compression ratio on attribute-gather responses only.
    pub fn attr_compression_ratio(&self) -> f64 {
        ratio(self.attr_raw_response_bytes, self.attr_wire_response_bytes)
    }

    /// Request-side packing ratio (unpacked baseline / wire).
    pub fn request_packing_ratio(&self) -> f64 {
        if self.wire_request_bytes == 0 {
            1.0
        } else {
            self.raw_request_bytes as f64 / self.wire_request_bytes as f64
        }
    }

    /// Mean requests per package relative to the 64-request capacity —
    /// the Table 5 utilization figure, measured on serving traffic.
    pub fn packing_occupancy(&self) -> f64 {
        if self.request_packages == 0 {
            0.0
        } else {
            self.packed_requests as f64
                / (self.request_packages as f64 * MAX_REQUESTS_PER_PACKAGE as f64)
        }
    }

    /// Total bytes charged to the link (requests + responses).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_request_bytes + self.wire_response_bytes
    }

    /// Total bytes the same traffic would cost unpacked and uncompressed.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_request_bytes + self.raw_response_bytes
    }
}

/// Raw/wire byte ratio, 1.0 when no bytes moved.
fn ratio(raw: u64, wire: u64) -> f64 {
    if wire == 0 {
        1.0
    } else {
        raw as f64 / wire as f64
    }
}

impl lsdgnn_telemetry::MetricSource for WireSnapshot {
    fn collect(&self, out: &mut lsdgnn_telemetry::Scope<'_>) {
        out.counter("remote_legs", self.remote_legs);
        out.counter("request_packages", self.request_packages);
        out.counter("packed_requests", self.packed_requests);
        out.counter("overflow_splits", self.overflow_splits);
        out.counter("raw_request_bytes", self.raw_request_bytes);
        out.counter("wire_request_bytes", self.wire_request_bytes);
        out.counter("raw_response_bytes", self.raw_response_bytes);
        out.counter("wire_response_bytes", self.wire_response_bytes);
        out.counter(
            "sampling_raw_response_bytes",
            self.sampling_raw_response_bytes,
        );
        out.counter(
            "sampling_wire_response_bytes",
            self.sampling_wire_response_bytes,
        );
        out.counter("attr_raw_response_bytes", self.attr_raw_response_bytes);
        out.counter("attr_wire_response_bytes", self.attr_wire_response_bytes);
        out.counter("simulated_wire_ns", self.simulated_wire_ns);
        out.gauge("compression_ratio", self.compression_ratio());
        out.gauge(
            "sampling_compression_ratio",
            self.sampling_compression_ratio(),
        );
        out.gauge("attr_compression_ratio", self.attr_compression_ratio());
        out.gauge("request_packing_ratio", self.request_packing_ratio());
        out.gauge("packing_occupancy", self.packing_occupancy());
    }
}

/// The MoF wire accounting plane: when a cluster is spawned with a
/// [`WireConfig`], every remote leg's read addresses run
/// through the real MoF packer's split walk ([`packed_request_size`])
/// and every response payload through the real per-line BDI sizer
/// ([`bdi_stream_bytes`]) — *measured on the actual serving
/// traffic*, with the link model charged the wire (compressed) byte
/// count. Replies themselves are untouched, so sampled results are
/// byte-identical with the plane on or off; only the accounting and the
/// simulated latency differ.
struct WirePlane {
    config: WireConfig,
    /// The link charged with every leg's wire bytes.
    link: LinkModel,
    counters: WireCounters,
}

impl WirePlane {
    fn new(config: WireConfig) -> Self {
        WirePlane {
            config,
            link: LinkModel::mof(3),
            counters: WireCounters::default(),
        }
    }

    /// Sizes a stretch of response payload handed over as 64-byte lines
    /// of lazily built 64-bit words: `(raw, wire)` bytes, compressed per
    /// line when enabled. A leg's payload may be sized stretch by
    /// stretch, as long as each stretch starts on a line boundary.
    fn size_payload<L: ExactSizeIterator<Item = u64>>(
        &self,
        lines: impl Iterator<Item = L>,
    ) -> (u64, u64) {
        if self.config.compression {
            bdi_stream_bytes(lines)
        } else {
            let n = 8 * lines.map(|line| line.len() as u64).sum::<u64>();
            (n, n)
        }
    }

    /// Accounts one remote leg: `addrs` are its read addresses in
    /// dispatch order (only sized by the packer's split walk, never
    /// materialised), `payload` its response payload's `(raw, wire)`
    /// bytes, and `incompressible` extra response bytes BDI does not
    /// touch (the CSR boundary array of a neighbor reply).
    fn account_leg(
        &self,
        leg: WireLeg,
        addrs: impl Iterator<Item = u64>,
        (raw_payload, wire_payload): (u64, u64),
        incompressible: u64,
    ) {
        let request = packed_request_size(addrs);
        let c = &self.counters;
        let requests = request.requests;
        let raw_req = UNPACKED_REQUEST_BYTES * requests;
        let wire_req = request.wire_bytes;
        c.request_packages
            .fetch_add(request.packages, Ordering::Relaxed);
        c.packed_requests.fetch_add(requests, Ordering::Relaxed);
        c.overflow_splits
            .fetch_add(request.overflow_splits, Ordering::Relaxed);
        // Response: framing (header + CRC per 64-response package) plus
        // the payload.
        let framing =
            requests.div_ceil(MAX_REQUESTS_PER_PACKAGE as u64) * (HEADER_BYTES + CRC_BYTES);
        let raw_resp = framing + incompressible + raw_payload;
        let wire_resp = framing + incompressible + wire_payload;
        c.raw_request_bytes.fetch_add(raw_req, Ordering::Relaxed);
        c.wire_request_bytes.fetch_add(wire_req, Ordering::Relaxed);
        c.raw_response_bytes.fetch_add(raw_resp, Ordering::Relaxed);
        c.wire_response_bytes
            .fetch_add(wire_resp, Ordering::Relaxed);
        let (raw_by_leg, wire_by_leg) = match leg {
            WireLeg::Sampling => (
                &c.sampling_raw_response_bytes,
                &c.sampling_wire_response_bytes,
            ),
            WireLeg::Attrs => (&c.attr_raw_response_bytes, &c.attr_wire_response_bytes),
        };
        raw_by_leg.fetch_add(raw_resp, Ordering::Relaxed);
        wire_by_leg.fetch_add(wire_resp, Ordering::Relaxed);
        let ns = self.link.round_trip(wire_req + wire_resp).as_nanos_f64() as u64;
        c.simulated_wire_ns.fetch_add(ns, Ordering::Relaxed);
        c.remote_legs.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WireSnapshot {
        let c = &self.counters;
        WireSnapshot {
            remote_legs: c.remote_legs.load(Ordering::Relaxed),
            request_packages: c.request_packages.load(Ordering::Relaxed),
            packed_requests: c.packed_requests.load(Ordering::Relaxed),
            overflow_splits: c.overflow_splits.load(Ordering::Relaxed),
            raw_request_bytes: c.raw_request_bytes.load(Ordering::Relaxed),
            wire_request_bytes: c.wire_request_bytes.load(Ordering::Relaxed),
            raw_response_bytes: c.raw_response_bytes.load(Ordering::Relaxed),
            wire_response_bytes: c.wire_response_bytes.load(Ordering::Relaxed),
            sampling_raw_response_bytes: c.sampling_raw_response_bytes.load(Ordering::Relaxed),
            sampling_wire_response_bytes: c.sampling_wire_response_bytes.load(Ordering::Relaxed),
            attr_raw_response_bytes: c.attr_raw_response_bytes.load(Ordering::Relaxed),
            attr_wire_response_bytes: c.attr_wire_response_bytes.load(Ordering::Relaxed),
            simulated_wire_ns: c.simulated_wire_ns.load(Ordering::Relaxed),
        }
    }
}

/// Where one node's neighbor list lives in a `NeighborTable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// A range of the shared CSR target array — the zero-copy local path.
    Csr {
        /// Start index into `CsrGraph::targets()`.
        start: usize,
        /// Neighbor count.
        len: usize,
    },
    /// A range of one of the table's arena buffers (a remote server's
    /// flat reply, moved into the table without another copy).
    Flat {
        /// Arena index within the table.
        arena: usize,
        /// Start index into that arena.
        start: usize,
        /// Neighbor count.
        len: usize,
    },
    /// The owner was unreachable: there is no list and the lookup counts
    /// toward [`RequestStats::unreachable_nodes`].
    Down,
}

impl Span {
    /// The spanned list's length — available without touching the list
    /// data, which is what lets pick generation run ahead of the reads.
    /// `None` for an unreachable owner.
    fn known_len(&self) -> Option<usize> {
        match *self {
            Span::Csr { len, .. } | Span::Flat { len, .. } => Some(len),
            Span::Down => None,
        }
    }
}

/// One hop's coalesced neighbor lookup table: a span per *distinct*
/// frontier node, resolving either into the shared CSR (local shard,
/// zero-copy) or into an arena — a remote server's flat reply buffer,
/// moved into the table as-is rather than copied again.
struct NeighborTable {
    spans: Vec<Span>,
    arenas: Vec<Vec<NodeId>>,
}

impl NeighborTable {
    fn from_pool(pool: &BufferPool) -> Self {
        NeighborTable {
            spans: pool.take_spans(),
            arenas: Vec::new(),
        }
    }

    /// Clears the table and sizes it for `n` distinct nodes, all
    /// initially unreachable until a fetch fills them in. Spent arena
    /// buffers return to the pool.
    fn reset(&mut self, pool: &BufferPool, n: usize) {
        self.spans.clear();
        self.spans.resize(n, Span::Down);
        for arena in self.arenas.drain(..) {
            pool.put_nodes(arena);
        }
    }

    /// The neighbor list of distinct-node `i`, or `None` if its owner
    /// was unreachable. `csr` is the graph's shared target array.
    fn list<'a>(&'a self, csr: &'a [NodeId], i: usize) -> Option<&'a [NodeId]> {
        match self.spans[i] {
            Span::Csr { start, len } => Some(&csr[start..start + len]),
            Span::Flat { arena, start, len } => Some(&self.arenas[arena][start..start + len]),
            Span::Down => None,
        }
    }

    fn recycle(self, pool: &BufferPool) {
        pool.put_spans(self.spans);
        for arena in self.arenas {
            pool.put_nodes(arena);
        }
    }
}

/// How many frontier entries the resolution pass prefetches ahead of
/// the one it is consuming.
const PICK_LOOKAHEAD: usize = 8;

/// How many lookups a coalescing walk hints ahead in its stamp tables
/// (the dedup index and its line or page index). Each lookup is a
/// random load into a table sized to the whole graph; a walk's body is
/// a handful of instructions, so the hints run further ahead than the
/// row walks'.
const STAMP_LOOKAHEAD: usize = 16;

/// How many nodes a CSR walk hints ahead in the offsets array, and how
/// many (fewer) it hints ahead in the target array: a list's address is
/// only known once its offsets have arrived.
const OFFSETS_LOOKAHEAD: usize = 12;
const LIST_LOOKAHEAD: usize = 4;

/// How many rows a row-copy walk hints ahead (every line of the row,
/// source or destination).
const ROW_LOOKAHEAD: usize = 8;

/// Pass one of a hop: draw every frontier entry's pick positions from
/// the request RNG, using only each list's *length* (known from its
/// span without reading the list). RNG consumption is identical to
/// sampling in place — nothing for an unreachable or short list,
/// `fanout` draws otherwise — so the resolution pass reproduces the
/// one-pass samples byte-for-byte.
fn generate_picks(
    rng: &mut SmallRng,
    table: &NeighborTable,
    slots: &[u32],
    fanout: usize,
    picks: &mut Vec<u32>,
) {
    for &slot in slots {
        if let Some(n) = table.spans[slot as usize].known_len() {
            if n > fanout {
                StreamingSampler.pick_into(rng, n, fanout, picks);
            }
        }
    }
}

/// Pass two of a hop: read the picked neighbors into `out`. The hop's
/// reads are random gathers into arrays far larger than cache (the CSR
/// target array, remote reply arenas); with the picks already drawn,
/// every address is known early, so the loop issues the loads for
/// entries [`PICK_LOOKAHEAD`] positions ahead and the miss latency
/// overlaps with the current entry's work instead of serializing.
///
/// This is also the only place each frontier entry's sampled-child count
/// exists (full short lists, `fanout` picks from long ones, nothing from
/// an unreachable owner), so the pass records one end offset per entry
/// into `adj` — the per-parent adjacency table the GNN compute stage
/// aggregates over ([`SampleBlock::adj_offsets`]).
#[allow(clippy::too_many_arguments)]
fn resolve_picks(
    csr: &[NodeId],
    table: &NeighborTable,
    slots: &[u32],
    picks: &[u32],
    fanout: usize,
    out: &mut Vec<NodeId>,
    adj: &mut Vec<u32>,
    unreachable: &mut u64,
) {
    // `cur` walks the picks consumed by resolved entries; `ahead` walks
    // the picks of prefetched entries, `PICK_LOOKAHEAD` entries further
    // along the frontier.
    let mut cur = 0usize;
    let mut ahead = 0usize;
    let mut ahead_i = 0usize;
    for (i, &slot) in slots.iter().enumerate() {
        while ahead_i < slots.len() && ahead_i <= i + PICK_LOOKAHEAD {
            if let Some(list) = table.list(csr, slots[ahead_i] as usize) {
                if list.len() > fanout {
                    for j in 0..fanout {
                        prefetch_read(&list[picks[ahead + j] as usize]);
                    }
                    ahead += fanout;
                } else {
                    prefetch_read(list.as_ptr());
                }
            }
            ahead_i += 1;
        }
        match table.list(csr, slot as usize) {
            Some(list) if list.len() > fanout => {
                out.extend(picks[cur..cur + fanout].iter().map(|&p| list[p as usize]));
                cur += fanout;
            }
            Some(list) => out.extend_from_slice(list),
            None => *unreachable += 1,
        }
        adj.push(out.len() as u32);
    }
}

/// An attribute payload as BDI lines: 64-bit words of two packed f32
/// each, [`BDI_LINE_WORDS`] words per line (the tail line and word may
/// be short; a missing high half packs as zero).
fn float_lines(floats: &[f32]) -> impl Iterator<Item = impl ExactSizeIterator<Item = u64> + '_> {
    floats.chunks(2 * BDI_LINE_WORDS).map(|line| {
        line.chunks(2).map(|c| {
            let lo = c[0].to_bits() as u64;
            let hi = c.get(1).map_or(0, |v| v.to_bits()) as u64;
            lo | (hi << 32)
        })
    })
}

/// Greatest common divisor (Euclid).
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Hop `h`'s frontier of a block under expansion. The frontier lives
/// inside the block: hop h's samples land at the tail of `block.nodes`
/// and become hop h+1's frontier — no scratch buffers to fill, swap, or
/// copy into the block.
fn frontier(block: &SampleBlock, h: u32) -> &[NodeId] {
    match h {
        0 => &block.roots,
        _ => &block.nodes[block.hop_offsets[h as usize - 1] as usize..],
    }
}

/// The partition the calling worker is co-located with: its reads are
/// local, every other partition's are remote legs.
const WORKER_PARTITION: PartitionId = PartitionId(0);

/// A running cluster: the caller acts as the worker co-located with
/// partition 0 and serves each remote leg it issues on its own thread.
pub struct Cluster {
    graph: PartitionedGraph,
    pool: BufferPool,
    /// One flag per partition, set once it has crashed (or been failed
    /// by chaos injection). Requests routed to a down partition are
    /// answered with empty neighbor lists / zeroed attributes and
    /// counted as [`RequestStats::unreachable_nodes`].
    down: Vec<AtomicBool>,
    /// The MoF wire accounting plane, present when spawned with a
    /// [`WireConfig`]. `None` keeps the remote legs entirely
    /// free of wire bookkeeping.
    wire: Option<WirePlane>,
    /// The two-tier hot-set cache consulted inline on the remote data
    /// plane, present when spawned with a [`CacheConfig`]. A tier
    /// hit serves byte-identical data while skipping the remote leg *and*
    /// its wire accounting.
    cache: Option<HotSetCache>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("partitions", &self.down.len())
            .finish()
    }
}

impl Cluster {
    /// Starts a cluster over the partitions of `graph`, all alive.
    ///
    /// `wire` attaches the MoF wire accounting plane: remote sampling
    /// and gather legs are routed through real request packing and
    /// per-line BDI sizing, with the MoF link charged the wire bytes.
    /// Replies are untouched — sampled results stay byte-identical to an
    /// unwired cluster.
    ///
    /// `cache` mounts the two-tier hot-set cache inline, cold: remote
    /// neighbor-list and attribute fetches consult the tiers before
    /// dispatching, and replies warm them.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no attribute store attached.
    pub fn spawn(
        graph: PartitionedGraph,
        wire: Option<WireConfig>,
        cache: Option<CacheConfig>,
    ) -> Self {
        assert!(
            graph.attributes().is_some(),
            "cluster requires an attribute store"
        );
        let down = (0..graph.partitions())
            .map(|_| AtomicBool::new(false))
            .collect();
        Cluster {
            graph,
            pool: BufferPool::new(),
            down,
            wire: wire.map(WirePlane::new),
            cache: cache.map(HotSetCache::new),
        }
    }

    /// Per-tier cache counters, or `None` for an uncached cluster.
    pub fn cache_snapshot(&self) -> Option<CacheSnapshot> {
        self.cache.as_ref().map(|c| c.snapshot())
    }

    /// A copy of the wire plane's accounting, or `None` for an unwired
    /// cluster.
    pub fn wire_snapshot(&self) -> Option<WireSnapshot> {
        self.wire.as_ref().map(|w| w.snapshot())
    }

    /// Number of partitions, alive or down.
    pub fn partitions(&self) -> u32 {
        self.down.len() as u32
    }

    /// Attribute vector width of the cluster's store.
    ///
    /// # Panics
    ///
    /// Panics if the cluster carries no attributes.
    pub fn attr_len(&self) -> usize {
        self.graph
            .attributes()
            .expect("cluster requires attributes")
            .attr_len()
    }

    /// The shared buffer pool the data plane recycles through.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Crashes partition `p`: every leg routed to it from now on is
    /// answered degraded (empty/zeroed); a leg already past its
    /// reachability check completes. Returns `true` if the partition was
    /// alive. Failing is permanent for the cluster's lifetime — the
    /// graceful-degradation machinery above (service retries, partial
    /// replies) is what turns a crash into bounded quality loss rather
    /// than an outage.
    pub fn fail_partition(&self, p: PartitionId) -> bool {
        self.down
            .get(p.0 as usize)
            .is_some_and(|d| !d.swap(true, Ordering::AcqRel))
    }

    /// Partitions still serving.
    pub fn alive_partitions(&self) -> u32 {
        self.down
            .iter()
            .filter(|d| !d.load(Ordering::Acquire))
            .count() as u32
    }

    fn unreachable(&self, p: usize, excluded: &[u32]) -> bool {
        excluded.contains(&(p as u32)) || self.down[p].load(Ordering::Acquire)
    }

    /// The partitioned graph being served.
    pub fn graph(&self) -> &PartitionedGraph {
        &self.graph
    }

    /// The stand-alone sampling op (the paper's `GetSample` answered
    /// together with its `GetAttribute`): [`Cluster::expand_blocks_excluding`]'s
    /// expansion, then one combined attribute fetch for the whole batch
    /// in deduplicated row form — a hub any request resampled moves once.
    /// The op hands back no rows, so its fetch moves them for the
    /// accounting only (tier, legs, wire, unreachable counts) and writes
    /// none into a buffer. A caller that gathers the rows itself asks for
    /// the expansion alone.
    ///
    /// Each outcome carries its own request's verdict: the nodes *it*
    /// found unreachable while expanding, plus the rows of *its* stretch
    /// of the combined fetch that were — what the request sampled alone
    /// would report. `stats` is the whole batch's accounting.
    pub fn sample_blocks_excluding(
        &self,
        reqs: &[&SampleRequest],
        excluded: &[u32],
    ) -> (Vec<SampleOutcome>, RequestStats) {
        let (mut outcomes, mut stats) = self.expand(reqs, excluded);
        let mut fetch = self.pool.take_nodes();
        for o in &outcomes {
            o.block.attr_fetch_into(&mut fetch);
        }
        let mut row_of = self.pool.take_offsets();
        let mut down = self.pool.take_offsets();
        let fetched = self.fetch_attrs(&fetch, excluded, None, &mut row_of, &mut down);
        if fetched.unreachable_nodes > 0 {
            // Request i's stretch of the fetch list is its roots, then
            // its nodes (`SampleBlock::attr_fetch_into`).
            let mut rows = row_of.iter();
            for o in &mut outcomes {
                let n = o.block.roots.len() + o.block.nodes.len();
                let lost: u64 = rows
                    .by_ref()
                    .take(n)
                    .map(|&r| u64::from(down[r as usize]))
                    .sum();
                o.unreachable += lost;
                o.degraded = o.unreachable > 0;
            }
        }
        stats.merge(fetched);
        self.pool.put_offsets(down);
        self.pool.put_offsets(row_of);
        self.pool.put_nodes(fetch);
        (outcomes, stats)
    }

    /// The *expand* verb on its own — hops, picks, adjacency — for a
    /// caller that runs its own gather stage: no attribute row moves, no
    /// gather leg is dispatched, the attribute tier and the wire plane
    /// are not touched. Outcomes and [`RequestStats::unreachable_nodes`]
    /// equal [`Cluster::sample_blocks_excluding`]'s: the rows the fetch
    /// would have found unreachable are counted by an availability pass
    /// instead, which reads nothing at all while every partition is up
    /// and the mask is empty.
    pub fn expand_blocks_excluding(
        &self,
        reqs: &[&SampleRequest],
        excluded: &[u32],
    ) -> (Vec<SampleOutcome>, RequestStats) {
        let (mut outcomes, mut stats) = self.expand(reqs, excluded);
        if !excluded.is_empty() || self.alive_partitions() < self.partitions() {
            for o in &mut outcomes {
                let lost = self.unreachable_attr_rows(&o.block, excluded);
                o.unreachable += lost;
                o.degraded = o.unreachable > 0;
                stats.unreachable_nodes += lost;
            }
        }
        (outcomes, stats)
    }

    /// What [`Cluster::fetch_attr_rows_into`] over `block`'s roots and
    /// nodes would add to `unreachable_nodes`, per occurrence, without
    /// moving a row: entries whose attribute owner is down or excluded,
    /// less those the attribute tier holds for a dead *remote* owner
    /// (the fetch serves them from the tier — a partition save).
    fn unreachable_attr_rows(&self, block: &SampleBlock, excluded: &[u32]) -> u64 {
        let local = WORKER_PARTITION.0 as usize;
        let attr_tier = self.cache.as_ref().and_then(HotSetCache::attr);
        let entries = block.roots.iter().chain(&block.nodes);
        entries
            .filter(|&&v| {
                let p = self.graph.owner(v).0 as usize;
                let saved = || p != local && attr_tier.is_some_and(|t| t.contains(v));
                self.unreachable(p, excluded) && !saved()
            })
            .count() as u64
    }

    /// The batch-level expansion both sampling ops share: every request
    /// of a service batch goes through *one* coalesced neighbor fetch
    /// per hop per partition.
    ///
    /// Each hop dedupes the union of every active request's frontier — a
    /// hub two requests both reached is fetched once — and amortizes the
    /// per-hop remote legs across the whole batch. Each request
    /// still consumes its own seeded RNG per frontier entry in order, so
    /// every block is byte-identical to the same request sampled alone.
    fn expand(
        &self,
        reqs: &[&SampleRequest],
        excluded: &[u32],
    ) -> (Vec<SampleOutcome>, RequestStats) {
        let mut stats = RequestStats::default();
        let mut rngs: Vec<SmallRng> = reqs
            .iter()
            .map(|r| SmallRng::seed_from_u64(r.seed))
            .collect();
        let mut outcomes: Vec<SampleOutcome> = reqs
            .iter()
            .map(|r| {
                let mut b = self.pool.take_block();
                b.roots.extend_from_slice(&r.roots);
                SampleOutcome::exact(b)
            })
            .collect();
        let mut unique = self.pool.take_nodes();
        let mut slot_of = self.pool.take_offsets();
        let mut picks = self.pool.take_offsets();
        let mut index = self.pool.take_stamps();
        let mut line_index = self.pool.take_stamps();
        let mut table = NeighborTable::from_pool(&self.pool);
        let csr = self.graph.graph().targets();
        let num_nodes = self.graph.graph().num_nodes() as usize;
        let obs_on = ledger::scope_active();
        let max_hops = reqs.iter().map(|r| r.hops).max().unwrap_or(0);
        for h in 0..max_hops {
            let hop_t0 = obs_on.then(Instant::now);
            // Coalesce: fetch each distinct node of the union frontier
            // once, then sample per frontier *entry* so RNG consumption
            // (and thus the result) matches entry-by-entry sampling
            // exactly. `slot_of` remembers each entry's table slot so
            // the passes below never hash.
            unique.clear();
            slot_of.clear();
            index.begin(num_nodes);
            line_index.begin(num_nodes / FRONTIER_LINE_NODES as usize + 1);
            for (r, o) in reqs.iter().zip(&outcomes) {
                if r.hops <= h {
                    continue;
                }
                let f = frontier(&o.block, h);
                for (k, &v) in f.iter().enumerate() {
                    if let Some(&w) = f.get(k + STAMP_LOOKAHEAD) {
                        index.prefetch(w.index());
                        line_index.prefetch(w.index() / FRONTIER_LINE_NODES as usize);
                    }
                    let slot = match index.get(v.index()) {
                        Some(s) => s,
                        None => {
                            let s = unique.len() as u32;
                            index.set(v.index(), s);
                            unique.push(v);
                            s
                        }
                    };
                    slot_of.push(slot);
                    let line = v.index() / FRONTIER_LINE_NODES as usize;
                    if line_index.get(line).is_some() {
                        stats.frontier_line_hits += 1;
                    } else {
                        line_index.set(line, 0);
                    }
                }
            }
            let total = slot_of.len() as u64;
            stats.nodes_expanded += total;
            stats.coalesce_lookups += total;
            stats.coalesce_hits += total - unique.len() as u64;
            stats.frontier_line_lookups += total;
            self.fetch_neighbors_table(&unique, excluded, &mut stats, &mut table);
            // Sample per request, per frontier entry, in order — the
            // exact RNG consumption of the request sampled alone.
            let mut cursor = 0usize;
            for ((r, o), rng) in reqs.iter().zip(&mut outcomes).zip(&mut rngs) {
                if r.hops <= h {
                    continue;
                }
                let b = &mut o.block;
                let flen = frontier(b, h).len();
                let slots = &slot_of[cursor..cursor + flen];
                cursor += flen;
                picks.clear();
                generate_picks(rng, &table, slots, r.fanout, &mut picks);
                resolve_picks(
                    csr,
                    &table,
                    slots,
                    &picks,
                    r.fanout,
                    &mut b.nodes,
                    &mut b.adj_offsets,
                    &mut o.unreachable,
                );
                b.hop_offsets.push(b.nodes.len() as u32);
            }
            if let Some(t0) = hop_t0 {
                ledger::scope_record(
                    Stage::SampleHop,
                    WORKER_PARTITION.0,
                    0.0,
                    t0.elapsed().as_secs_f64() * 1e6,
                    u64::from(h),
                );
            }
        }
        table.recycle(&self.pool);
        self.pool.put_nodes(unique);
        self.pool.put_offsets(slot_of);
        self.pool.put_offsets(picks);
        self.pool.put_stamps(index);
        self.pool.put_stamps(line_index);
        for o in &mut outcomes {
            o.degraded = o.unreachable > 0;
            stats.unreachable_nodes += o.unreachable;
        }
        (outcomes, stats)
    }

    /// Routes a pass's remote positions (into `unique`), listed in
    /// `groups[parts]`, to the per-partition dispatch groups
    /// `groups[..parts]` in position order — after one batched probe of
    /// `tier`, when mounted, which serves its hits through `on_hit`
    /// instead (`groups[parts + 1]` is the probe's scratch). A hit whose
    /// owner is unreachable counts as a partition save: the cached bytes
    /// are the truth the dead server would have sent, so the reply
    /// legally avoids degrading. Returns the hits.
    fn route_remote<T: Copy>(
        &self,
        tier: Option<&ShardedTier<T>>,
        unique: &[NodeId],
        excluded: &[u32],
        groups: &mut [Vec<u32>],
        mut on_hit: impl FnMut(usize, &[T]),
    ) -> u64 {
        let (remote, tail) = groups.split_at_mut(self.down.len());
        let [cand, scratch] = tail else {
            unreachable!("a dispatch group per partition, then two")
        };
        let mut hits = 0;
        if let Some(tier) = tier.filter(|_| !cand.is_empty()) {
            let t0 = ledger::scope_active().then(Instant::now);
            let mut saves = 0;
            tier.probe(unique, cand, scratch, |i, data| {
                on_hit(i as usize, data);
                hits += 1;
                let p = self.graph.owner(unique[i as usize]).0 as usize;
                saves += u64::from(self.unreachable(p, excluded));
            });
            tier.note_partition_saves(saves);
            if let (Some(t0), true) = (t0, hits > 0) {
                ledger::scope_record(
                    Stage::CacheHit,
                    ledger::NO_SHARD,
                    0.0,
                    t0.elapsed().as_secs_f64() * 1e6,
                    hits,
                );
            }
        }
        for &i in cand.iter() {
            remote[self.graph.owner(unique[i as usize]).0 as usize].push(i);
        }
        hits
    }

    /// The server side of a remote neighbor leg, run on the worker that
    /// issues it: partition `p`'s lists for `nodes`, copied into a pooled
    /// CSR-shaped reply — `nodes.len() + 1` boundaries from 0, and every
    /// list concatenated in request order — the bytes a remote server
    /// would send.
    fn serve_neighbors(&self, p: PartitionId, nodes: &[NodeId]) -> (Vec<u32>, Vec<NodeId>) {
        let mut offsets = self.pool.take_offsets();
        let mut flat = self.pool.take_nodes();
        let g = self.graph.graph();
        offsets.push(0);
        for (i, &v) in nodes.iter().enumerate() {
            debug_assert!(self.graph.is_local(v, p), "misrouted request");
            // The per-node lists are random ranges of a CSR far larger
            // than cache, found through random offsets: hint the offsets
            // far ahead and the lists nearer, so neither the hint's
            // address nor the copies below wait on a miss.
            if let Some(&w) = nodes.get(i + OFFSETS_LOOKAHEAD) {
                g.prefetch_offsets(w);
            }
            if let Some(&w) = nodes.get(i + LIST_LOOKAHEAD) {
                prefetch_read(g.neighbors(w).as_ptr());
            }
            flat.extend_from_slice(g.neighbors(v));
            offsets.push(flat.len() as u32);
        }
        (offsets, flat)
    }

    /// The server side of a remote attribute leg, run on the worker that
    /// issues it: the rows of `nodes`, in order, copied into a pooled
    /// reply buffer.
    fn serve_attrs(&self, nodes: &[NodeId]) -> Vec<f32> {
        let mut attrs = self.pool.take_floats();
        self.graph
            .attributes()
            .expect("cluster requires attributes")
            .gather_into(nodes, &mut attrs);
        attrs
    }

    /// Fills `table` with one span per node of `unique`: local nodes
    /// resolve to zero-copy CSR ranges without a remote leg,
    /// remote nodes are fetched per partition as one flat reply, and
    /// unreachable owners leave [`Span::Down`].
    fn fetch_neighbors_table(
        &self,
        unique: &[NodeId],
        excluded: &[u32],
        stats: &mut RequestStats,
        table: &mut NeighborTable,
    ) {
        table.reset(&self.pool, unique.len());
        let parts = self.down.len();
        let local = WORKER_PARTITION.0 as usize;
        let local_up = !self.unreachable(local, excluded);
        let g = self.graph.graph();
        // One pass over the frontier: local nodes resolve to zero-copy
        // CSR spans on the spot (no leg, no copy); remote nodes are
        // routed to per-partition dispatch — unless the hot-set neighbor
        // tier already holds the span, in which case the cached bytes
        // land in a pooled arena and the node never joins a remote leg
        // (nor its wire accounting).
        let obs_on = ledger::scope_active();
        let neigh_tier = self.cache.as_ref().and_then(HotSetCache::neigh);
        let mut groups = self.pool.take_groups(parts + 2);
        let mut local_seen = false;
        for (i, &v) in unique.iter().enumerate() {
            // A local span reads the node's CSR offsets: a random load
            // per distinct node, hinted a few nodes ahead.
            if let (Some(&w), true) = (unique.get(i + OFFSETS_LOOKAHEAD), local_up) {
                if self.graph.owner(w).0 as usize == local {
                    g.prefetch_offsets(w);
                }
            }
            if self.graph.owner(v).0 as usize != local {
                groups[parts].push(i as u32);
                continue;
            }
            local_seen = true;
            if local_up {
                let r = g.neighbor_range(v);
                table.spans[i] = Span::Csr {
                    start: r.start,
                    len: r.end - r.start,
                };
            }
        }
        if local_seen && local_up {
            stats.local_requests += 1;
        }
        // Cached spans land in one pooled arena; `reset` just emptied the
        // table, so that arena's index is known before the first hit.
        let mut cache_flat = self.pool.take_nodes();
        let cache_arena = table.arenas.len();
        let cache_hits = self.route_remote(neigh_tier, unique, excluded, &mut groups, |i, span| {
            table.spans[i] = Span::Flat {
                arena: cache_arena,
                start: cache_flat.len(),
                len: span.len(),
            };
            cache_flat.extend_from_slice(span);
        });
        if cache_hits == 0 {
            self.pool.put_nodes(cache_flat);
        } else {
            table.arenas.push(cache_flat);
        }
        let (remote, tail) = groups.split_at_mut(parts);
        let scratch = &mut tail[1];
        for (p, pos) in remote.iter().enumerate() {
            if pos.is_empty() {
                continue;
            }
            if self.unreachable(p, excluded) {
                continue; // spans stay Down
            }
            let leg_t0 = obs_on.then(Instant::now);
            let mut request = self.pool.take_nodes();
            request.extend(pos.iter().map(|&i| unique[i as usize]));
            let (offsets, flat) = self.serve_neighbors(PartitionId(p as u32), &request);
            if let Some(t0) = leg_t0 {
                ledger::scope_record(
                    Stage::RemoteLeg,
                    p as u32,
                    0.0,
                    t0.elapsed().as_secs_f64() * 1e6,
                    pos.len() as u64,
                );
            }
            if let Some(wire) = &self.wire {
                // Request addresses are the byte offsets of each node's
                // neighbor list in the remote CSR; the payload is the
                // flat neighbor-id buffer plus the per-node offsets
                // header (incompressible here).
                wire.account_leg(
                    WireLeg::Sampling,
                    pos.iter()
                        .map(|&i| g.neighbor_range(unique[i as usize]).start as u64 * 8),
                    wire.size_payload(
                        flat.chunks(BDI_LINE_WORDS)
                            .map(|line| line.iter().map(|v| v.0)),
                    ),
                    4 * offsets.len() as u64,
                );
            }
            // The reply buffer becomes a table arena as-is: no second
            // copy of the adjacency data.
            let arena = table.arenas.len();
            for (w, &i) in offsets.windows(2).zip(pos.iter()) {
                table.spans[i as usize] = Span::Flat {
                    arena,
                    start: w[0] as usize,
                    len: (w[1] - w[0]) as usize,
                };
            }
            // Offer the fetched spans to the neighbor tier — the next
            // request for a hub skips the leg.
            if let Some(tier) = neigh_tier {
                tier.admit(unique, pos, scratch, |j| {
                    &flat[offsets[j] as usize..offsets[j + 1] as usize]
                });
            }
            table.arenas.push(flat);
            self.pool.put_offsets(offsets);
            self.pool.put_nodes(request);
            stats.remote_requests += 1;
        }
        self.pool.put_groups(groups);
    }

    /// Gathers attributes on the flat data plane, in the deduplicated
    /// row format the plane delivers: the row list is coalesced first (a
    /// hub sampled 40 times in a mini-batch is one fetch), each distinct
    /// row is gathered once — local rows straight out of the shared
    /// store, remote rows through pooled reply buffers. `rows` is resized
    /// to one `attr_len` row per *distinct* node and every row written
    /// once (unreachable rows zeroed), and `slot_of` maps each of `nodes`
    /// back to its row index — consumers keep the compact table and
    /// index into it, instead of receiving (and paying the memory
    /// traffic for) a buffer with every hub row duplicated per
    /// occurrence.
    pub fn fetch_attr_rows_into(
        &self,
        nodes: &[NodeId],
        excluded: &[u32],
        rows: &mut Vec<f32>,
        slot_of: &mut Vec<u32>,
    ) -> RequestStats {
        let mut down = self.pool.take_offsets();
        let stats = self.fetch_attrs(nodes, excluded, Some(rows), slot_of, &mut down);
        self.pool.put_offsets(down);
        stats
    }

    /// The one attribute fetch body. With `rows` it is the gather verb
    /// ([`Cluster::fetch_attr_rows_into`]); without, the stand-alone
    /// op's fetch, which moves every row for its accounting — coalescing,
    /// tier probes (hits counted, recency refreshed), every leg
    /// dispatched and wire-sized, replies admitted, unreachable rows
    /// counted — and writes none: no local, cached or fetched row is
    /// copied into a buffer nobody reads. `down` is left flagging each
    /// distinct row (by slot) whose owner was unreachable.
    fn fetch_attrs(
        &self,
        nodes: &[NodeId],
        excluded: &[u32],
        mut rows: Option<&mut Vec<f32>>,
        slot_of: &mut Vec<u32>,
        down: &mut Vec<u32>,
    ) -> RequestStats {
        let store = self
            .graph
            .attributes()
            .expect("cluster requires attributes");
        let attr_len = store.attr_len();
        let mut stats = RequestStats {
            attrs_fetched: nodes.len() as u64,
            ..Default::default()
        };
        let parts = self.down.len();
        let local = WORKER_PARTITION.0 as usize;
        let local_up = !self.unreachable(local, excluded);
        // Coalesce: one slot per distinct row, one array load per
        // lookup (no hashing — the stamp table resets in O(1) between
        // gathers and recycles through the pool).
        let num_nodes = self.graph.graph().num_nodes() as usize;
        let mut table = self.pool.take_stamps();
        table.begin(num_nodes);
        let mut page_index = self.pool.take_stamps();
        page_index.begin(num_nodes / ATTR_PAGE_ROWS as usize + 1);
        let mut unique = self.pool.take_nodes();
        slot_of.clear();
        slot_of.reserve(nodes.len());
        for (k, &v) in nodes.iter().enumerate() {
            if let Some(&w) = nodes.get(k + STAMP_LOOKAHEAD) {
                table.prefetch(w.index());
                page_index.prefetch(w.index() / ATTR_PAGE_ROWS as usize);
            }
            let slot = match table.get(v.index()) {
                Some(s) => s,
                None => {
                    let s = unique.len() as u32;
                    table.set(v.index(), s);
                    unique.push(v);
                    s
                }
            };
            slot_of.push(slot);
            let page = v.index() / ATTR_PAGE_ROWS as usize;
            if page_index.get(page).is_some() {
                stats.attr_page_hits += 1;
            } else {
                page_index.set(page, 0);
            }
        }
        stats.attr_coalesce_lookups += nodes.len() as u64;
        stats.attr_coalesce_hits += (nodes.len() - unique.len()) as u64;
        stats.attr_page_lookups += nodes.len() as u64;
        // Gather each distinct row once into `rows` (slot order): local
        // rows straight out of the shared store, remote positions
        // grouped for per-partition dispatch. `down` marks slots whose
        // owner was unreachable. The buffer keeps what it held: every
        // slot is either written below or, being down, zeroed at the end.
        if let Some(rows) = rows.as_deref_mut() {
            rows.resize(unique.len() * attr_len, 0.0);
        }
        down.clear();
        down.resize(unique.len(), 0);
        // Remote rows consult the hot-set attribute tier before joining
        // a dispatch group: a hit copies the row straight into place and
        // skips the gather leg, its wire accounting, and — when the owner
        // partition is down — the degraded marking.
        let obs_on = ledger::scope_active();
        let attr_tier = self.cache.as_ref().and_then(HotSetCache::attr);
        let mut groups = self.pool.take_groups(parts + 2);
        let mut local_seen = false;
        for (i, &v) in unique.iter().enumerate() {
            // Distinct rows are a random walk over a store larger than
            // cache; touch every line of a few rows ahead so the copies
            // overlap misses.
            if let (Some(&w), true) = (unique.get(i + ROW_LOOKAHEAD), rows.is_some()) {
                if self.graph.owner(w).0 as usize == local {
                    store.prefetch(w);
                }
            }
            if self.graph.owner(v).0 as usize != local {
                groups[parts].push(i as u32);
                continue;
            }
            local_seen = true;
            if !local_up {
                down[i] = 1; // row unreachable: zeroed, degraded
            } else if let Some(rows) = rows.as_deref_mut() {
                rows[i * attr_len..(i + 1) * attr_len].copy_from_slice(store.get(v));
            }
        }
        if local_seen && local_up {
            stats.local_requests += 1;
        }
        self.route_remote(attr_tier, &unique, excluded, &mut groups, |i, row| {
            if let Some(rows) = rows.as_deref_mut() {
                rows[i * attr_len..(i + 1) * attr_len].copy_from_slice(row);
            }
        });
        // The fewest rows whose floats fill whole BDI lines.
        let line_floats = 2 * BDI_LINE_WORDS;
        let group_rows = line_floats / gcd(attr_len, line_floats);
        let (remote, tail) = groups.split_at_mut(parts);
        let scratch = &mut tail[1];
        for (p, pos) in remote.iter().enumerate() {
            if pos.is_empty() {
                continue;
            }
            if self.unreachable(p, excluded) {
                for &i in pos.iter() {
                    down[i as usize] = 1;
                }
                continue; // rows zeroed below: a degraded partial gather
            }
            let leg_t0 = obs_on.then(Instant::now);
            let mut request = self.pool.take_nodes();
            request.extend(pos.iter().map(|&i| unique[i as usize]));
            let attrs = self.serve_attrs(&request);
            if let Some(t0) = leg_t0 {
                ledger::scope_record(
                    Stage::GatherLeg,
                    p as u32,
                    0.0,
                    t0.elapsed().as_secs_f64() * 1e6,
                    pos.len() as u64,
                );
            }
            let fetched = |j: usize| &attrs[j * attr_len..(j + 1) * attr_len];
            // One pass per fetched row: place it (the gather verb) and
            // size its BDI lines while it is in L1. Rows go in groups
            // that end on a line boundary, so each group's lines are
            // exactly the whole reply's.
            let mut payload = (0, 0);
            for (g, group) in pos.chunks(group_rows).enumerate() {
                let j0 = g * group_rows;
                if let Some(rows) = rows.as_deref_mut() {
                    for (j, &slot) in (j0..).zip(group) {
                        if let Some(&ahead) = pos.get(j + ROW_LOOKAHEAD) {
                            prefetch_row(rows, ahead as usize, attr_len);
                        }
                        let slot = slot as usize;
                        rows[slot * attr_len..(slot + 1) * attr_len].copy_from_slice(fetched(j));
                    }
                }
                if let Some(wire) = &self.wire {
                    let (raw, on_wire) = wire.size_payload(float_lines(
                        &attrs[j0 * attr_len..(j0 + group.len()) * attr_len],
                    ));
                    payload = (payload.0 + raw, payload.1 + on_wire);
                }
            }
            if let Some(wire) = &self.wire {
                // One request per distinct row.
                wire.account_leg(
                    WireLeg::Attrs,
                    pos.iter()
                        .map(|&i| unique[i as usize].index() as u64 * attr_len as u64 * 4),
                    payload,
                    0,
                );
            }
            // Offer the fetched rows to the attribute tier.
            if let Some(tier) = attr_tier {
                tier.admit(&unique, pos, scratch, fetched);
            }
            self.pool.put_floats(attrs);
            self.pool.put_nodes(request);
            stats.remote_requests += 1;
        }
        self.pool.put_groups(groups);
        // Unreachable rows count per *occurrence* (what an uncoalesced
        // gather would report) — a flag read per entry, not a row copy.
        for &slot in slot_of.iter() {
            stats.unreachable_nodes += u64::from(down[slot as usize]);
        }
        if let (Some(rows), true) = (rows, stats.unreachable_nodes > 0) {
            for (i, _) in down.iter().enumerate().filter(|(_, &d)| d != 0) {
                rows[i * attr_len..(i + 1) * attr_len].fill(0.0);
            }
        }
        self.pool.put_stamps(table);
        self.pool.put_stamps(page_index);
        self.pool.put_nodes(unique);
        stats
    }

    /// [`Cluster::fetch_attr_rows_into`] expanded to one row per
    /// occurrence: `out` is cleared and filled with `nodes.len()` rows in
    /// request order (unreachable rows zeroed) — the answer shape of
    /// [`crate::SamplingBackend::gather_attributes`]. The expansion is a
    /// sequential append from the dense unique-row buffer; the sampling
    /// data plane itself stays in row form.
    pub fn fetch_attrs_into(
        &self,
        nodes: &[NodeId],
        excluded: &[u32],
        out: &mut Vec<f32>,
    ) -> RequestStats {
        let attr_len = self
            .graph
            .attributes()
            .expect("cluster requires attributes")
            .attr_len();
        let mut rows = self.pool.take_floats();
        let mut slot_of = self.pool.take_offsets();
        let stats = self.fetch_attr_rows_into(nodes, excluded, &mut rows, &mut slot_of);
        out.clear();
        out.reserve(nodes.len() * attr_len);
        for &slot in slot_of.iter() {
            let s = slot as usize;
            out.extend_from_slice(&rows[s * attr_len..(s + 1) * attr_len]);
        }
        self.pool.put_floats(rows);
        self.pool.put_offsets(slot_of);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdgnn_graph::{generators, AttributeStore};
    use lsdgnn_sampler::MultiHopSampler;

    fn cluster(partitions: u32) -> Cluster {
        let g = generators::power_law(800, 8, 60);
        let attrs = AttributeStore::synthetic(800, 8, 60);
        Cluster::spawn(
            PartitionedGraph::new(g, partitions).with_attributes(attrs),
            None,
            None,
        )
    }

    /// One request through the batch op, as a batch of one.
    fn sample(
        c: &Cluster,
        roots: &[NodeId],
        hops: u32,
        fanout: usize,
        seed: u64,
        excluded: &[u32],
    ) -> (SampleBlock, RequestStats) {
        let req = SampleRequest {
            roots: roots.to_vec(),
            hops,
            fanout,
            seed,
        };
        let (mut outcomes, stats) = c.sample_blocks_excluding(&[&req], excluded);
        (
            outcomes.pop().expect("one outcome per request").block,
            stats,
        )
    }

    /// One hop at a fanout no list exceeds: every reachable list comes
    /// back whole, as `block.children(i)` of `nodes[i]`.
    fn whole_lists(c: &Cluster, nodes: &[NodeId]) -> (SampleBlock, RequestStats) {
        let fanout = c.graph().graph().max_degree() as usize;
        sample(c, nodes, 1, fanout, 0, &[])
    }

    #[test]
    fn neighbors_match_source_graph() {
        let c = cluster(4);
        let nodes: Vec<NodeId> = (0..50).map(NodeId).collect();
        let (block, stats) = whole_lists(&c, &nodes);
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(block.children(i), c.graph().graph().neighbors(v));
        }
        assert_eq!(stats.nodes_expanded, 50);
        assert!(stats.remote_requests > 0);
    }

    #[test]
    fn attrs_match_source_store_in_order() {
        let c = cluster(3);
        let nodes = vec![NodeId(700), NodeId(3), NodeId(250)];
        let mut attrs = Vec::new();
        let stats = c.fetch_attrs_into(&nodes, &[], &mut attrs);
        let expect = c.graph().attributes().unwrap().gather(&nodes);
        assert_eq!(attrs, expect);
        assert_eq!(stats.attrs_fetched, 3);
    }

    #[test]
    fn sample_batch_produces_real_edges() {
        let c = cluster(4);
        let roots: Vec<NodeId> = (0..8).map(NodeId).collect();
        let (block, stats) = sample(&c, &roots, 2, 5, 9, &[]);
        assert_eq!(block.num_hops(), 2);
        assert!(block.total_sampled() > 0);
        for v in block.hop(0) {
            assert!(roots.iter().any(|&r| c.graph().graph().has_edge(r, *v)));
        }
        assert!(stats.attrs_fetched > 0);
        // The accounting follows from the block: one expansion per
        // frontier entry, one row per root and sample, and per hop (and
        // for the gather) one request to each partition the list touches.
        assert_eq!(
            stats.nodes_expanded,
            (roots.len() + block.hop(0).len()) as u64
        );
        let fetch = block.attr_fetch_list();
        assert_eq!(stats.attrs_fetched, fetch.len() as u64);
        let (mut local, mut remote) = (0, 0);
        for list in [&roots[..], block.hop(0), &fetch[..]] {
            let mut owners: Vec<u32> = list.iter().map(|&v| c.graph().owner(v).0).collect();
            owners.sort_unstable();
            owners.dedup();
            local += owners.iter().filter(|&&p| p == 0).count() as u64;
            remote += owners.iter().filter(|&&p| p != 0).count() as u64;
        }
        assert_eq!(stats.local_requests, local);
        assert_eq!(stats.remote_requests, remote);
        assert_eq!(stats.unreachable_nodes, 0);
    }

    #[test]
    fn single_partition_cluster_is_all_local() {
        let c = cluster(1);
        let roots: Vec<NodeId> = (0..4).map(NodeId).collect();
        let (_, stats) = sample(&c, &roots, 2, 5, 10, &[]);
        assert_eq!(stats.remote_requests, 0);
        assert_eq!(stats.remote_fraction(), 0.0);
    }

    #[test]
    fn remote_fraction_grows_with_partitions() {
        let c2 = cluster(2);
        let c8 = cluster(8);
        let roots: Vec<NodeId> = (0..16).map(NodeId).collect();
        let (_, s2) = sample(&c2, &roots, 2, 5, 11, &[]);
        let (_, s8) = sample(&c8, &roots, 2, 5, 11, &[]);
        assert!(s8.remote_fraction() > s2.remote_fraction());
    }

    #[test]
    fn deduped_fetch_matches_plain_fetch_with_fewer_requests() {
        let c = cluster(4);
        // A fetch list with heavy repetition (hub re-sampling).
        let nodes: Vec<NodeId> = (0..200).map(|i| NodeId(i % 10)).collect();
        let plain = c.graph().attributes().unwrap().gather(&nodes);
        let mut per_occurrence = Vec::new();
        let stats = c.fetch_attrs_into(&nodes, &[], &mut per_occurrence);
        assert_eq!(per_occurrence, plain);
        let (mut rows, mut slot_of) = (Vec::new(), Vec::new());
        c.fetch_attr_rows_into(&nodes, &[], &mut rows, &mut slot_of);
        assert_eq!(rows.len(), 10 * c.attr_len(), "one row per distinct node");
        assert_eq!(stats.attr_coalesce_hits, 190, "each repeat is a table hit");
    }

    #[test]
    fn deterministic_given_seed() {
        let c = cluster(4);
        let roots: Vec<NodeId> = (0..8).map(NodeId).collect();
        let (b1, _) = sample(&c, &roots, 2, 5, 42, &[]);
        let (b2, _) = sample(&c, &roots, 2, 5, 42, &[]);
        assert_eq!(b1, b2);
        assert_eq!(b1.adj_offsets, b2.adj_offsets);
    }

    #[test]
    fn batched_blocks_match_solo_blocks_exactly() {
        // Batch-level coalescing (one fetch per hop per partition for
        // the whole batch) must not change any request's samples, even
        // with mixed hop counts, fanouts and seeds, or under exclusion.
        let c = cluster(4);
        let reqs: Vec<SampleRequest> = (0..5)
            .map(|s| SampleRequest {
                roots: (0..8).map(|r| NodeId((s * 31 + r) % 800)).collect(),
                hops: 1 + (s % 3) as u32,
                fanout: 3 + s as usize % 4,
                seed: s,
            })
            .collect();
        let refs: Vec<&SampleRequest> = reqs.iter().collect();
        for excluded in [&[][..], &[2u32][..]] {
            let (batched, stats) = c.sample_blocks_excluding(&refs, excluded);
            for (r, outcome) in reqs.iter().zip(&batched) {
                // Block and verdict alike: the request sampled alone.
                let (solo, _) = c.sample_blocks_excluding(&[r], excluded);
                assert_eq!(outcome, &solo[0], "seed {} excluded {excluded:?}", r.seed);
            }
            assert_eq!(
                stats.coalesce_lookups,
                reqs.iter()
                    .zip(&batched)
                    .map(|(r, o)| r.roots.len() as u64
                        + o.block
                            .hops()
                            .take(r.hops as usize - 1)
                            .map(|h| h.len() as u64)
                            .sum::<u64>())
                    .sum::<u64>(),
                "every frontier entry goes through the coalescing table"
            );
        }
    }

    #[test]
    fn coalescing_counts_duplicate_lookups_without_changing_samples() {
        let c = cluster(2);
        // Duplicate roots force coalescing hits on the very first hop.
        let roots = vec![NodeId(5), NodeId(5), NodeId(5), NodeId(9)];
        let want = MultiHopSampler::new(2, 4).sample(
            &mut SmallRng::seed_from_u64(3),
            c.graph().graph(),
            &StreamingSampler,
            &roots,
        );
        let (block, stats) = sample(&c, &roots, 2, 4, 3, &[]);
        assert_eq!(block, SampleBlock::from_batch(&want));
        assert!(stats.coalesce_hits >= 2, "dup roots must hit the table");
        assert!(stats.coalesce_lookups >= stats.coalesce_hits);
        assert!(stats.coalesce_hit_rate() > 0.0);
        // Each duplicate root still drew its own samples.
        assert_eq!(block.hop(0).len(), want.hops[0].len());
    }

    #[test]
    fn flat_blocks_carry_a_valid_adjacency_table() {
        // The flat plane records per-parent child spans; they must tile
        // each hop exactly, respect parent order, contain only genuine
        // neighbors of their parent, and stay valid (empty spans for
        // frontier entries on an excluded shard) under degradation.
        let c = cluster(4);
        let roots: Vec<NodeId> = (0..16).map(NodeId).collect();
        for excluded in [&[][..], &[2u32][..]] {
            let (block, _) = sample(&c, &roots, 2, 5, 17, excluded);
            assert!(block.has_adjacency());
            assert_eq!(block.num_parents(), roots.len() + block.hop(0).len());
            // Spans are monotone and end exactly at each hop boundary.
            let mut prev = 0u32;
            for &end in &block.adj_offsets {
                assert!(end >= prev);
                prev = end;
            }
            assert_eq!(
                block.adj_offsets[roots.len() - 1],
                block.hop_offsets[1],
                "root spans tile hop 0"
            );
            assert_eq!(*block.adj_offsets.last().unwrap(), block.hop_offsets[2]);
            // Every recorded child really neighbors its parent.
            let g = c.graph().graph();
            for (j, &parent) in roots.iter().chain(block.hop(0)).enumerate() {
                let parent_list = g.neighbors(parent);
                for &child in block.children(j) {
                    assert!(
                        parent_list.contains(&child),
                        "child {child:?} not a neighbor of parent {parent:?}"
                    );
                }
            }
        }
        // Batched sampling records the identical table.
        let req = SampleRequest {
            roots: roots.clone(),
            hops: 2,
            fanout: 5,
            seed: 17,
        };
        let (batched, _) = c.sample_blocks_excluding(&[&req], &[]);
        let (solo, _) = sample(&c, &roots, 2, 5, 17, &[]);
        assert_eq!(batched[0].block.adj_offsets, solo.adj_offsets);
    }

    #[test]
    fn pool_recycles_across_block_operations() {
        let c = cluster(2);
        let roots: Vec<NodeId> = (0..8).map(NodeId).collect();
        for seed in 0..6 {
            let (block, _) = sample(&c, &roots, 2, 5, seed, &[]);
            c.pool().put_block(block);
        }
        let s = c.pool().stats();
        assert!(s.reuses > 0, "steady state must reuse buffers: {s:?}");
        assert!(s.reuse_rate() > 0.3, "reuse rate {}", s.reuse_rate());
    }

    #[test]
    fn fetch_attrs_into_matches_masked_path() {
        let c = cluster(3);
        let nodes: Vec<NodeId> = (0..60).map(|i| NodeId(i * 13 % 800)).collect();
        // The store's rows with the masked owner's rows zeroed.
        let mut want = c.graph().attributes().unwrap().gather(&nodes);
        let mut masked = 0;
        for (i, &v) in nodes.iter().enumerate() {
            if c.graph().owner(v) == PartitionId(1) {
                want[i * c.attr_len()..(i + 1) * c.attr_len()].fill(0.0);
                masked += 1;
            }
        }
        let mut got = Vec::new();
        let stats = c.fetch_attrs_into(&nodes, &[1], &mut got);
        assert_eq!(got, want);
        assert_eq!(stats.attrs_fetched, 60);
        assert!(masked > 0);
        assert_eq!(stats.unreachable_nodes, masked);
    }

    #[test]
    fn row_gather_overwrites_a_used_buffer_byte_for_byte() {
        // The gather writes each row once into whatever the buffer held:
        // a longer buffer of stale bytes and an empty one come back
        // identical, masked owners' rows (the local one's included)
        // zeroed, under every mask.
        let c = cluster(4);
        let store = c.graph().attributes().unwrap();
        let n = c.attr_len();
        let nodes: Vec<NodeId> = (0..90).map(|i| NodeId(i * 29 % 800)).collect();
        for mask in [&[][..], &[2], &[0, 3]] {
            let (mut fresh, mut used) = (Vec::new(), vec![f32::NAN; 200 * n]);
            let (mut slot_of, mut used_slot_of) = (Vec::new(), vec![7; 5]);
            let a = c.fetch_attr_rows_into(&nodes, mask, &mut fresh, &mut slot_of);
            let b = c.fetch_attr_rows_into(&nodes, mask, &mut used, &mut used_slot_of);
            assert_eq!(a, b);
            assert_eq!(slot_of, used_slot_of);
            let bits = |rows: &[f32]| rows.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fresh), bits(&used), "mask {mask:?}");
            for (i, &slot) in slot_of.iter().enumerate() {
                let v = nodes[i];
                let row = &used[slot as usize * n..][..n];
                if mask.contains(&c.graph().owner(v).0) {
                    assert!(row.iter().all(|&x| x.to_bits() == 0), "{v:?} zeroed");
                } else {
                    assert_eq!(row, store.get(v));
                }
            }
        }
    }

    #[test]
    fn failed_partition_degrades_instead_of_hanging() {
        let c = cluster(4);
        assert!(c.fail_partition(PartitionId(1)));
        assert!(!c.fail_partition(PartitionId(1)), "second fail is a no-op");
        assert_eq!(c.alive_partitions(), 3);
        let nodes: Vec<NodeId> = (0..100).map(NodeId).collect();
        let (block, stats) = whole_lists(&c, &nodes);
        assert!(stats.unreachable_nodes > 0, "partition 1 owns some nodes");
        for (i, &v) in nodes.iter().enumerate() {
            if c.graph().owner(v) == PartitionId(1) {
                assert!(block.children(i).is_empty(), "down shard answers empty");
            } else {
                assert_eq!(block.children(i), c.graph().graph().neighbors(v));
            }
        }
    }

    #[test]
    fn excluded_shards_mask_only_the_one_operation() {
        let c = cluster(4);
        let roots: Vec<NodeId> = (0..16).map(NodeId).collect();
        let (full, s_full) = sample(&c, &roots, 2, 5, 7, &[]);
        let (partial, s_part) = sample(&c, &roots, 2, 5, 7, &[2]);
        assert_eq!(s_full.unreachable_nodes, 0);
        assert!(s_part.unreachable_nodes > 0);
        assert!(partial.total_sampled() <= full.total_sampled());
        // The mask is per-operation: the next unmasked call is exact again.
        let (again, s_again) = sample(&c, &roots, 2, 5, 7, &[]);
        assert_eq!(again, full);
        assert_eq!(s_again.unreachable_nodes, 0);
    }

    #[test]
    fn masked_sampling_is_deterministic() {
        let c = cluster(4);
        let roots: Vec<NodeId> = (0..8).map(NodeId).collect();
        let (b1, s1) = sample(&c, &roots, 2, 5, 42, &[1, 3]);
        let (b2, s2) = sample(&c, &roots, 2, 5, 42, &[1, 3]);
        assert_eq!(b1, b2);
        assert_eq!(s1.unreachable_nodes, s2.unreachable_nodes);
    }

    #[test]
    fn all_partitions_down_still_answers() {
        let c = cluster(2);
        c.fail_partition(PartitionId(0));
        c.fail_partition(PartitionId(1));
        assert_eq!(c.alive_partitions(), 0);
        let roots: Vec<NodeId> = (0..4).map(NodeId).collect();
        let (block, stats) = sample(&c, &roots, 2, 5, 1, &[]);
        assert_eq!(block.total_sampled(), 0, "nothing reachable");
        // Four roots nobody expands, four root rows nobody serves.
        assert_eq!(stats.unreachable_nodes, 8);
    }
}
