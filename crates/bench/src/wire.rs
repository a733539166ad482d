//! `bench wire` — earn the MoF wire: locality-aware reordering ×
//! measured BDI compression/packing on the remote serving leg.
//!
//! The sweep starts from the dataplane placement, *scrambles* the node
//! ids with a seeded random permutation (the pessimal layout a freshly
//! ingested graph arrives in), then measures every reorder policy —
//! identity (the scramble itself), degree sort, BFS, Gorder — with BDI
//! response compression off and on, all over MoF-packed request
//! streams. A plain (unwired) arm runs the same traffic through today's
//! path; every arm's samples are mapped back to the pre-scramble
//! labeling and digest-folded, so `digests_equivalent` pins that
//! neither relabeling nor wire accounting changed a single sample.
//!
//! Per arm the run reports layout-sensitive locality (frontier
//! line-hit and attribute page-hit rates — the exact-id coalesce rates
//! are permutation-invariant and stay flat by design), measured wire
//! bytes (packed/unpacked requests, raw/BDI-compressed responses),
//! packing occupancy and the link model's simulated wire time — all
//! deterministic at a fixed seed. The binary asserts its gates
//! (`digests_equivalent`, `compression_ratio_ok`, `coalesce_ok`); what
//! the wire plane costs in time is measured by the `benchmark` package
//! (`wire.delta_sample_us`, `mof.*`).

use crate::report::Report;
use crate::workload::{fold, graph, placement, request, ROOTS_PER_REQ};
use lsdgnn_core::framework::{
    CpuBackend, RequestStats, SampleRequest, SamplingBackend, WireConfig, WireSnapshot,
};
use lsdgnn_core::graph::{NodeId, PartitionedGraph, Permutation, ReorderPolicy};
use lsdgnn_core::sampler::SampleBlock;
use lsdgnn_core::telemetry::Json;

/// Requests per arm (digests, locality counters, wire bytes).
const VERIFY_REQUESTS: u64 = 48;
const QUICK_VERIFY_REQUESTS: u64 = 16;
/// Gorder sliding-window width (§ reorder module docs).
const GORDER_WINDOW: usize = 5;

/// One measured sweep point.
struct Arm {
    label: String,
    policy: String,
    wired: bool,
    compression: bool,
    digest: u64,
    stats: RequestStats,
    snap: Option<WireSnapshot>,
}

/// Maps a logical-space request into the arm's label space.
fn map_request(req: &SampleRequest, to_arm: &dyn Fn(NodeId) -> NodeId) -> SampleRequest {
    SampleRequest {
        roots: req.roots.iter().map(|&v| to_arm(v)).collect(),
        ..req.clone()
    }
}

/// Digest of a block with every id mapped back to logical space — the
/// cross-arm fingerprint relabeling must preserve.
fn logical_digest(block: &SampleBlock, to_logical: &dyn Fn(NodeId) -> NodeId) -> u64 {
    let back = SampleBlock {
        roots: block.roots.iter().map(|&v| to_logical(v)).collect(),
        hop_offsets: block.hop_offsets.clone(),
        nodes: block.nodes.iter().map(|&v| to_logical(v)).collect(),
        adj_offsets: Vec::new(),
    };
    back.digest()
}

/// Runs one arm: sample + attribute gather per request, digest-folded
/// in logical space, stats and wire counters snapshotted at the end.
fn run_arm(
    label: &str,
    policy: &str,
    pg: PartitionedGraph,
    wire: Option<WireConfig>,
    to_arm: &dyn Fn(NodeId) -> NodeId,
    to_logical: &dyn Fn(NodeId) -> NodeId,
    reqs: &[SampleRequest],
) -> Arm {
    let (wired, compression) = match &wire {
        Some(cfg) => (true, cfg.compression),
        None => (false, false),
    };
    let backend = match wire {
        Some(cfg) => CpuBackend::from_partitioned_wired(pg, cfg),
        None => CpuBackend::from_partitioned(pg),
    };
    // Fixed requests through the batch-coalesced plane, attributes
    // gathered per block exactly as the inference service would.
    let mapped: Vec<SampleRequest> = reqs.iter().map(|r| map_request(r, to_arm)).collect();
    let refs: Vec<&SampleRequest> = mapped.iter().collect();
    let outcomes = backend.sample_many(&refs);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fetch = Vec::new();
    let mut rows = Vec::new();
    let mut slots = Vec::new();
    for o in &outcomes {
        digest = fold(digest, logical_digest(&o.block, to_logical));
        o.block.attr_fetch_into(&mut fetch);
        backend.gather_attr_rows(&fetch, &mut rows, &mut slots);
    }
    for o in outcomes {
        backend.recycle(o.block);
    }
    let stats = backend.stats();
    let snap = backend.wire_snapshot();

    Arm {
        label: label.to_string(),
        policy: policy.to_string(),
        wired,
        compression,
        digest,
        stats,
        snap,
    }
}

fn arm_json(a: &Arm) -> Json {
    let snap = a.snap.unwrap_or_default();
    Json::Obj(vec![
        ("label".to_string(), Json::Str(a.label.clone())),
        ("policy".to_string(), Json::Str(a.policy.clone())),
        ("wired".to_string(), Json::Bool(a.wired)),
        ("compression".to_string(), Json::Bool(a.compression)),
        (
            "digest".to_string(),
            Json::Str(format!("{:016x}", a.digest)),
        ),
        (
            "coalesce_hit_rate".to_string(),
            Json::Num(a.stats.coalesce_hit_rate()),
        ),
        (
            "attr_coalesce_hit_rate".to_string(),
            Json::Num(a.stats.attr_coalesce_hit_rate()),
        ),
        (
            "frontier_line_hit_rate".to_string(),
            Json::Num(a.stats.frontier_line_hit_rate()),
        ),
        (
            "attr_page_hit_rate".to_string(),
            Json::Num(a.stats.attr_page_hit_rate()),
        ),
        (
            "remote_legs".to_string(),
            Json::Num(snap.remote_legs as f64),
        ),
        (
            "request_packages".to_string(),
            Json::Num(snap.request_packages as f64),
        ),
        (
            "overflow_splits".to_string(),
            Json::Num(snap.overflow_splits as f64),
        ),
        (
            "raw_request_bytes".to_string(),
            Json::Num(snap.raw_request_bytes as f64),
        ),
        (
            "wire_request_bytes".to_string(),
            Json::Num(snap.wire_request_bytes as f64),
        ),
        (
            "raw_response_bytes".to_string(),
            Json::Num(snap.raw_response_bytes as f64),
        ),
        (
            "wire_response_bytes".to_string(),
            Json::Num(snap.wire_response_bytes as f64),
        ),
        (
            "compression_ratio".to_string(),
            Json::Num(snap.compression_ratio()),
        ),
        (
            "sampling_compression_ratio".to_string(),
            Json::Num(snap.sampling_compression_ratio()),
        ),
        (
            "attr_compression_ratio".to_string(),
            Json::Num(snap.attr_compression_ratio()),
        ),
        (
            "request_packing_ratio".to_string(),
            Json::Num(snap.request_packing_ratio()),
        ),
        (
            "packing_occupancy".to_string(),
            Json::Num(snap.packing_occupancy()),
        ),
        (
            "simulated_wire_ms".to_string(),
            Json::Num(snap.simulated_wire_ns as f64 / 1e6),
        ),
    ])
}

/// Runs the reorder × compression sweep and writes the artifact.
pub fn wire(quick: bool, seed: u64, out_path: &str) {
    let verify = if quick {
        QUICK_VERIFY_REQUESTS
    } else {
        VERIFY_REQUESTS
    };
    let (g, a) = graph(quick);
    let nodes = g.num_nodes();
    let pg0 = placement(&g, &a);
    // The arrival layout every policy starts from: the dataplane
    // placement with its ids scrambled. Ownership rides through the
    // permutation, so the local/remote split is identical in every arm.
    let (pg_b, s_perm) = pg0.reorder(ReorderPolicy::Random { seed });
    println!(
        "wire bench: {nodes} nodes, seed {seed}, {verify} requests x {ROOTS_PER_REQ} roots, \
         scrambled baseline -> reorder x compression sweep"
    );

    // Logical-space traffic, shared by every arm.
    let reqs: Vec<SampleRequest> = (0..verify)
        .map(|s| request(s, nodes, ROOTS_PER_REQ))
        .collect();

    let mut arms: Vec<Arm> = Vec::new();

    // Today's path: the scrambled graph, unwired — the parity anchor.
    let s_for = s_perm.clone();
    let s_back = s_perm.clone();
    arms.push(run_arm(
        "plain",
        "identity",
        pg_b.clone(),
        None,
        &move |v| s_for.to_new(v),
        &move |v| s_back.to_old(v),
        &reqs,
    ));

    let policies = [
        ReorderPolicy::Identity,
        ReorderPolicy::DegreeSort,
        ReorderPolicy::Bfs,
        ReorderPolicy::Gorder {
            window: GORDER_WINDOW,
        },
    ];
    for policy in policies {
        let (pg_q, q_perm) = pg_b.reorder(policy);
        for compression in [false, true] {
            let label = format!("{policy}/{}", if compression { "bdi" } else { "rawresp" });
            let s: Permutation = s_perm.clone();
            let q: Permutation = q_perm.clone();
            let to_arm = move |v: NodeId| q.to_new(s.to_new(v));
            let s: Permutation = s_perm.clone();
            let q: Permutation = q_perm.clone();
            let to_logical = move |v: NodeId| s.to_old(q.to_old(v));
            arms.push(run_arm(
                &label,
                &format!("{policy}"),
                pg_q.clone(),
                Some(WireConfig { compression }),
                &to_arm,
                &to_logical,
                &reqs,
            ));
        }
    }

    // Gates. Digest parity: relabeling and wire accounting change no
    // sample. Compression: BDI on real sampled remote traffic. Layout:
    // at least one traversal policy must strictly beat both the
    // scrambled-identity arm and the historical exact-id floors.
    let equivalent = arms.iter().filter(|a| a.digest == arms[0].digest).count();
    let digests_equivalent = equivalent == arms.len();
    // The headline BDI claim is about sampled remote traffic (node-id
    // payloads); the all-legs ratio is reported per arm but float rows
    // drag it toward 1 by design.
    let compression_ratio = arms
        .iter()
        .filter(|a| a.compression)
        .map(|a| a.snap.unwrap_or_default().sampling_compression_ratio())
        .fold(0.0f64, f64::max);
    let ratio_floor = if quick { 1.0 } else { 1.3 };
    let compression_ratio_ok = compression_ratio > ratio_floor;
    let identity = arms
        .iter()
        .find(|a| a.wired && a.policy == "identity")
        .expect("identity arm present");
    let id_frontier = identity.stats.frontier_line_hit_rate();
    let id_attr = identity.stats.attr_page_hit_rate();
    let beating = arms
        .iter()
        .filter(|a| {
            a.wired
                && a.policy != "identity"
                && a.stats.frontier_line_hit_rate() > 0.30
                && a.stats.frontier_line_hit_rate() >= id_frontier
                && a.stats.attr_page_hit_rate() > 0.62
                && a.stats.attr_page_hit_rate() >= id_attr
        })
        .count();
    let coalesce_ok = beating > 0;

    for a in &arms {
        let snap = a.snap.unwrap_or_default();
        println!(
            "  {:<18} digest {:016x}  line {:.3}  page {:.3}  ratio {:.2}x  occ {:.2}  \
             wire {:>9} B",
            a.label,
            a.digest,
            a.stats.frontier_line_hit_rate(),
            a.stats.attr_page_hit_rate(),
            snap.sampling_compression_ratio(),
            snap.packing_occupancy(),
            snap.wire_bytes(),
        );
    }
    let mut report = Report::new("wire", quick, seed);
    report.num("nodes", nodes as f64);
    report.num("measured_requests", verify as f64);
    report.num("roots_per_request", ROOTS_PER_REQ as f64);
    report.put("arms", Json::Arr(arms.iter().map(arm_json).collect()));
    report.num("identity_frontier_line_hit_rate", id_frontier);
    report.num("identity_attr_page_hit_rate", id_attr);
    report.num("compression_ratio", compression_ratio);
    report.gate(
        "digests_equivalent",
        digests_equivalent,
        Json::Num(equivalent as f64),
        &format!("all {} arms == the plain arm", arms.len()),
    );
    report.gate(
        "compression_ratio_ok",
        compression_ratio_ok,
        Json::Num(compression_ratio),
        &format!("> {ratio_floor}"),
    );
    report.gate(
        "coalesce_ok",
        coalesce_ok,
        Json::Num(beating as f64),
        ">= 1 reorder arm: line > 0.30 and >= identity, page > 0.62 and >= identity",
    );
    report.finish(out_path);
}
