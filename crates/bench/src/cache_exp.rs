//! `bench cache` — the sharded two-tier hot-set cache earning its keep
//! on the remote data plane.
//!
//! The sweep is zipf-skew × capacity × {cache-off, attr-only,
//! attr+neigh}, plus one uniform-root cell (`hot_pct = 0`) at the
//! reference capacity, over a hash-spread 4-partition cluster whose hot
//! set lives mostly on *remote* partitions — the placement a freshly
//! ingested graph actually has, and the one where every hot lookup pays
//! a channel round trip unless a cache absorbs it. Each arm replays the
//! same seeded request stream: a warm phase (counters snapshotted and
//! subtracted, so the reported numbers describe steady state, not cold
//! start) and a measured phase whose sample digests and gathered
//! attribute rows are folded into one fingerprint per arm.
//!
//! Legs beyond the sweep, at the reference cell (highest skew, modest
//! capacity):
//!
//! * **wire** — the same traffic through [`WireConfig`]-metered arms:
//!   cache hits skip the remote leg *and* its byte accounting, so
//!   sampling-leg response bytes must drop with the neighbor-tier hit
//!   rate.
//! * **observed** — a warm cached backend behind an instrumented
//!   [`SamplingService`]; the tail-blame report must attribute time to
//!   the `cache_hit` stage (the ledger knows where the skipped legs
//!   went).
//!
//! In-binary gates (also in `BENCH_cache.json`): `digests_match`
//! (every cache arm byte-identical to cache-off), `remote_cut_ok`
//! (≥ 2× fewer remote requests at the reference cell), `wire_cut_ok`
//! (sampling-leg wire bytes drop with the hit rate), and
//! `cache_hit_blamed`. Every field is a count, a byte total or a digest:
//! what a hit saves and a miss costs in time is measured by the
//! `benchmark` package (`cache.delta_sample_us`, `cache.delta_gather_us`
//! and `infer_uniform` end to end).

use crate::report::{hex, Report};
use crate::util::Table;
use crate::workload::{fold, splitmix};
use lsdgnn_core::chaos::plan::fnv1a;
use lsdgnn_core::framework::{
    CacheConfig, CpuBackend, Observability, RequestStats, SampleRequest, SamplingBackend,
    SamplingService, ServiceConfig, TierSnapshot, WireConfig,
};
use lsdgnn_core::graph::{generators, AttributeStore, NodeId, PartitionedGraph};
use lsdgnn_core::telemetry::ledger::Stage;
use lsdgnn_core::telemetry::Json;

/// Graph size is fixed (not `LSDGNN_SCALE`) so the committed artifact
/// replays identically in any environment.
const GRAPH_NODES: u64 = 40_000;
const PARTITIONS: u32 = 4;
const ATTR_LEN: usize = 32;
/// The hot head starts away from the preferential-attachment hubs: hot
/// nodes have ordinary degrees, so the cacheable working set (hot nodes
/// plus their sampled children) stays small relative to the graph and a
/// *modest* capacity can hold it.
const HOT_BASE: u64 = 5_000;
const HOT_SET: u64 = 128;
const ROOTS_PER_REQ: u64 = 8;
/// One-hop requests: the serving unit is root lists + the final
/// frontier's adjacency + attribute rows — the loop a multi-hop
/// pipeline repeats. Its working set is `hot ∪ N(hot)`, which a modest
/// capacity can actually learn; deeper hops only append an `N²(hot)`
/// tail that no honest capacity holds, diluting every arm equally.
const HOPS: u32 = 1;
const FANOUT: usize = 8;

/// The warm phase must cover the cacheable working set — the hot head
/// plus its *sampled* children, which per-request fanout draws only
/// reveal a few dozen at a time.
const WARM_REQUESTS: u64 = 160;
const QUICK_WARM_REQUESTS: u64 = 64;
const MEASURE_REQUESTS: u64 = 128;
const QUICK_MEASURE_REQUESTS: u64 = 40;
/// Requests through the observed service (after a direct warm phase).
const OBS_REQUESTS: u64 = 48;

/// Reference cell for the gates: the most skewed traffic at a capacity
/// of ~10% of the graph.
const REF_CAPACITY: usize = 4_096;
/// The uniform cell: no root comes from the hot head, so nearly every
/// lookup misses and nearly every offer meets a full segment.
const UNIFORM: u64 = 0;

fn graph() -> (PartitionedGraph, u64) {
    // Uniform degrees: every hot node has a full, diverse neighbor list,
    // so the cacheable working set is `hot × degree` distinct lists —
    // big enough to be a real cache problem, small enough that a modest
    // capacity can learn it. (Preferential-attachment graphs collapse
    // mid-id neighborhoods onto a handful of hubs, which makes *any*
    // cache look perfect.)
    let g = generators::uniform_random(GRAPH_NODES, 12, 77);
    let a = AttributeStore::synthetic(GRAPH_NODES, ATTR_LEN, 77);
    // Hash-spread placement: the hot head lands ~1/PARTITIONS local,
    // the rest remote — nothing is co-located for free.
    let assignment: Vec<u32> = (0..g.num_nodes())
        .map(|v| {
            let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 32) as u32 % PARTITIONS
        })
        .collect();
    let nodes = g.num_nodes();
    (
        PartitionedGraph::with_assignment(g, assignment).with_attributes(a),
        nodes,
    )
}

/// `hot_pct` of roots land on the hot head, the rest uniform — the
/// zipf-skew axis of the sweep.
fn root(seed: u64, i: u64, hot_pct: u64) -> NodeId {
    let v = seed.wrapping_mul(0x9e37).wrapping_add(i).wrapping_add(1);
    let x = splitmix(v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    if x % 100 < hot_pct {
        NodeId(HOT_BASE + (x >> 32) % HOT_SET)
    } else {
        NodeId((x >> 7) % GRAPH_NODES)
    }
}

fn request(seed: u64, hot_pct: u64) -> SampleRequest {
    SampleRequest {
        roots: (0..ROOTS_PER_REQ).map(|i| root(seed, i, hot_pct)).collect(),
        hops: HOPS,
        fanout: FANOUT,
        seed,
    }
}

fn tier_delta(now: Option<TierSnapshot>, then: Option<TierSnapshot>) -> TierSnapshot {
    let (a, b) = (now.unwrap_or_default(), then.unwrap_or_default());
    TierSnapshot {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        admits: a.admits - b.admits,
        evicts: a.evicts - b.evicts,
        rejects: a.rejects - b.rejects,
        partition_saves: a.partition_saves - b.partition_saves,
        // Residency is a point-in-time reading, not a delta.
        bytes: a.bytes,
        entries: a.entries,
    }
}

/// One measured sweep point.
struct Arm {
    label: &'static str,
    digest: u64,
    /// Per-partition dispatches in the measured (post-warm) phase.
    remote: u64,
    stats: RequestStats,
    neigh: Option<TierSnapshot>,
    attr: Option<TierSnapshot>,
}

/// Replays the warm + measured request streams for `hot_pct` traffic
/// through `backend`, returning the measured-phase fingerprint and
/// steady-state counter deltas.
fn run_arm(label: &'static str, backend: &CpuBackend, hot_pct: u64, seed: u64, quick: bool) -> Arm {
    let warm = if quick {
        QUICK_WARM_REQUESTS
    } else {
        WARM_REQUESTS
    };
    let measure = if quick {
        QUICK_MEASURE_REQUESTS
    } else {
        MEASURE_REQUESTS
    };
    let mut fetch = Vec::new();
    let mut rows = Vec::new();
    let mut slots = Vec::new();
    let mut serve = |s: u64, digest: &mut u64| {
        let block = backend.sample_block(&request(seed ^ s, hot_pct));
        *digest = fold(*digest, block.digest());
        fetch.clear();
        block.attr_fetch_into(&mut fetch);
        backend.gather_attr_rows(&fetch, &mut rows, &mut slots);
        let mut bytes = Vec::with_capacity(rows.len() * 4);
        for v in &rows {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        *digest = fold(*digest, fnv1a(&bytes));
        backend.recycle(block);
    };
    let mut sink = 0u64;
    for s in 0..warm {
        serve(s, &mut sink);
    }
    let s0 = backend.stats();
    let c0 = backend.cache_snapshot();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for s in warm..warm + measure {
        serve(s, &mut digest);
    }
    let s1 = backend.stats();
    let c1 = backend.cache_snapshot();
    let (neigh, attr) = match (c0, c1) {
        (Some(a), Some(b)) => (
            a.neigh.map(|_| tier_delta(b.neigh, a.neigh)),
            a.attr.map(|_| tier_delta(b.attr, a.attr)),
        ),
        _ => (None, None),
    };
    Arm {
        label,
        digest,
        remote: s1.remote_requests - s0.remote_requests,
        stats: s1,
        neigh,
        attr,
    }
}

/// Serves `n` requests (sample + attribute gather) to fill both tiers
/// before a leg that grades steady state.
fn warm_backend(backend: &CpuBackend, hot_pct: u64, seed: u64, n: u64) {
    let mut fetch = Vec::new();
    let mut rows = Vec::new();
    let mut slots = Vec::new();
    for s in 0..n {
        let block = backend.sample_block(&request(seed ^ s, hot_pct));
        fetch.clear();
        block.attr_fetch_into(&mut fetch);
        backend.gather_attr_rows(&fetch, &mut rows, &mut slots);
        backend.recycle(block);
    }
}

struct Cell {
    hot_pct: u64,
    capacity: usize,
    arms: Vec<Arm>,
}

/// Runs one (skew, capacity) cell: cache-off, attr-only, attr+neigh.
fn run_cell(pg: &PartitionedGraph, hot_pct: u64, capacity: usize, seed: u64, quick: bool) -> Cell {
    let off = CpuBackend::from_partitioned(pg.clone());
    let attr_only = CpuBackend::from_partitioned_cached(
        pg.clone(),
        CacheConfig::with_capacity(capacity).attr_only(),
    );
    let both =
        CpuBackend::from_partitioned_cached(pg.clone(), CacheConfig::with_capacity(capacity));
    Cell {
        hot_pct,
        capacity,
        arms: vec![
            run_arm("off", &off, hot_pct, seed, quick),
            run_arm("attr", &attr_only, hot_pct, seed, quick),
            run_arm("attr+neigh", &both, hot_pct, seed, quick),
        ],
    }
}

/// Wire-metered pair at the reference cell: the cached arm's
/// sampling-leg bytes must drop with the neighbor-tier hit rate, and
/// its digest must still equal the unwired cache-off fingerprint.
struct WireLegResult {
    off_bytes: u64,
    cached_bytes: u64,
    reduction: f64,
    neigh_hit_rate: f64,
    digest: u64,
}

fn wire_leg(pg: &PartitionedGraph, hot_pct: u64, seed: u64, quick: bool) -> WireLegResult {
    let run = |backend: &CpuBackend| -> (u64, Arm) {
        let arm = run_arm("wired", backend, hot_pct, seed, quick);
        let snap = backend.wire_snapshot().unwrap_or_default();
        (snap.sampling_raw_response_bytes, arm)
    };
    let off = CpuBackend::from_partitioned_wired(pg.clone(), WireConfig::default());
    let (off_total, _off_arm) = run(&off);
    let cached = CpuBackend::from_partitioned_wired_cached(
        pg.clone(),
        WireConfig::default(),
        CacheConfig::with_capacity(REF_CAPACITY),
    );
    let (cached_total, arm) = run(&cached);
    // Totals cover warm + measured phases — both arms replay the same
    // stream, so the ratio is still the cache's doing.
    let neigh = arm.neigh.unwrap_or_default();
    WireLegResult {
        off_bytes: off_total,
        cached_bytes: cached_total,
        reduction: 1.0 - cached_total as f64 / off_total.max(1) as f64,
        neigh_hit_rate: neigh.hit_rate(),
        digest: arm.digest,
    }
}

/// Observed leg: a warm cached backend behind an instrumented service;
/// returns whether tail blame attributes time to `cache_hit`.
fn observed_leg(pg: &PartitionedGraph, hot_pct: u64, seed: u64, quick: bool) -> bool {
    let backend =
        CpuBackend::from_partitioned_cached(pg.clone(), CacheConfig::with_capacity(REF_CAPACITY));
    let warm = if quick {
        QUICK_WARM_REQUESTS
    } else {
        WARM_REQUESTS
    };
    warm_backend(&backend, hot_pct, seed, warm);
    let ob = Observability::default();
    let svc = SamplingService::start_observed(
        Box::new(backend),
        ServiceConfig {
            workers: 2,
            max_batch: 4,
            ..ServiceConfig::default()
        },
        None,
        None,
        Some(ob.clone()),
    );
    let tickets: Vec<_> = (0..OBS_REQUESTS)
        .map(|s| svc.submit(request(seed ^ s, hot_pct)))
        .collect();
    for t in tickets {
        t.wait_reply();
    }
    let snap = ob.ledger().snapshot();
    svc.shutdown();
    // Quantile 0: the whole population is the tail, so the attribution
    // depends only on which stages ran, not on wall-clock ordering.
    snap.blame(0.0)
        .stages
        .iter()
        .any(|s| s.stage == Stage::CacheHit)
}

fn tier_json(t: &Option<TierSnapshot>) -> Json {
    match t {
        None => Json::Null,
        Some(t) => Json::Obj(vec![
            ("hits".to_string(), Json::Num(t.hits as f64)),
            ("misses".to_string(), Json::Num(t.misses as f64)),
            ("hit_rate".to_string(), Json::Num(t.hit_rate())),
            ("admits".to_string(), Json::Num(t.admits as f64)),
            ("evicts".to_string(), Json::Num(t.evicts as f64)),
            ("rejects".to_string(), Json::Num(t.rejects as f64)),
            ("entries".to_string(), Json::Num(t.entries as f64)),
            ("bytes".to_string(), Json::Num(t.bytes as f64)),
        ]),
    }
}

fn arm_json(a: &Arm) -> Json {
    Json::Obj(vec![
        ("arm".to_string(), Json::Str(a.label.to_string())),
        ("digest".to_string(), Json::Str(hex(a.digest))),
        ("remote_requests".to_string(), Json::Num(a.remote as f64)),
        (
            "local_requests".to_string(),
            Json::Num(a.stats.local_requests as f64),
        ),
        ("neigh".to_string(), tier_json(&a.neigh)),
        ("attr".to_string(), tier_json(&a.attr)),
    ])
}

/// Runs the sweep and writes the artifact to `out`.
pub fn cache(quick: bool, seed: u64, out: &str) {
    let skews: &[u64] = if quick { &[60, 98] } else { &[60, 85, 98] };
    let caps: &[usize] = if quick {
        &[256, REF_CAPACITY]
    } else {
        &[256, 1_024, REF_CAPACITY]
    };
    let ref_skew = *skews.last().unwrap();
    println!(
        "cache sweep: seed {seed}, skew {skews:?} x capacity {caps:?} x \
         {{off, attr, attr+neigh}} on {GRAPH_NODES} nodes / {PARTITIONS} partitions \
         (hash-spread placement)"
    );
    let (pg, _) = graph();

    let mut inputs = vec![(UNIFORM, REF_CAPACITY)];
    for &s in skews {
        for &c in caps {
            inputs.push((s, c));
        }
    }
    let cells: Vec<_> = inputs
        .into_iter()
        .map(|(s, c)| run_cell(&pg, s, c, seed, quick))
        .collect();

    let table = Table::new(
        &[
            "cell", "arm", "remote", "n-hit", "a-hit", "admits", "evicts", "saves",
        ],
        &[16, 12, 8, 7, 7, 8, 8, 6],
    );
    for cell in &cells {
        for a in &cell.arms {
            let n = a.neigh.unwrap_or_default();
            let t = a.attr.unwrap_or_default();
            table.row(&[
                format!("hot{}%/cap{}", cell.hot_pct, cell.capacity),
                a.label.to_string(),
                format!("{}", a.remote),
                format!("{:.2}", n.hit_rate()),
                format!("{:.2}", t.hit_rate()),
                format!("{}", n.admits + t.admits),
                format!("{}", n.evicts + t.evicts),
                format!("{}", n.partition_saves + t.partition_saves),
            ]);
        }
    }
    table.note("remote = per-partition dispatches in the measured (post-warm) phase");

    let ref_cell = cells
        .iter()
        .find(|c| c.hot_pct == ref_skew && c.capacity == REF_CAPACITY)
        .expect("reference cell swept");
    let (ref_off, ref_both) = (ref_cell.arms[0].remote, ref_cell.arms[2].remote);
    let remote_cut = ref_off as f64 / ref_both.max(1) as f64;
    let wire = wire_leg(&pg, ref_skew, seed, quick);
    let cache_hit_blamed = observed_leg(&pg, ref_skew, seed, quick);

    println!(
        "  reference cell hot{ref_skew}%/cap{REF_CAPACITY}: remote cut {remote_cut:.2}x, \
         wire bytes -{:.1}% (neigh hit {:.2})",
        wire.reduction * 100.0,
        wire.neigh_hit_rate
    );

    let cell_rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("hot_pct".to_string(), Json::Num(c.hot_pct as f64)),
                ("capacity".to_string(), Json::Num(c.capacity as f64)),
                (
                    "arms".to_string(),
                    Json::Arr(c.arms.iter().map(arm_json).collect()),
                ),
            ])
        })
        .collect();
    let mut report = Report::new("cache", quick, seed);
    report.num("graph_nodes", GRAPH_NODES as f64);
    report.num("partitions", PARTITIONS as f64);
    report.num("attr_len", ATTR_LEN as f64);
    report.put("cells", Json::Arr(cell_rows));
    report.put(
        "reference",
        Json::Obj(vec![
            ("hot_pct".to_string(), Json::Num(ref_skew as f64)),
            ("capacity".to_string(), Json::Num(REF_CAPACITY as f64)),
            ("remote_cut".to_string(), Json::Num(remote_cut)),
        ]),
    );
    report.put(
        "wire",
        Json::Obj(vec![
            (
                "off_sampling_raw_bytes".to_string(),
                Json::Num(wire.off_bytes as f64),
            ),
            (
                "cached_sampling_raw_bytes".to_string(),
                Json::Num(wire.cached_bytes as f64),
            ),
            ("reduction".to_string(), Json::Num(wire.reduction)),
            ("neigh_hit_rate".to_string(), Json::Num(wire.neigh_hit_rate)),
        ]),
    );

    let matching = cells
        .iter()
        .filter(|c| c.arms.iter().all(|a| a.digest == c.arms[0].digest))
        .count();
    report.gate(
        "digests_match",
        matching == cells.len(),
        Json::Num(matching as f64),
        &format!("all {} cells: every cache arm == cache-off", cells.len()),
    );
    report.gate(
        "remote_cut_ok",
        remote_cut >= 2.0,
        Json::Num(remote_cut),
        ">= 2 (reference cell, off / attr+neigh)",
    );
    report.gate(
        "wire_cut_ok",
        wire.digest == ref_cell.arms[0].digest
            && wire.reduction > 0.0
            && wire.reduction >= 0.5 * wire.neigh_hit_rate,
        Json::Num(wire.reduction),
        &format!(
            "> 0 and >= 0.5 x neigh hit rate {:.4}, wired digest == cache-off",
            wire.neigh_hit_rate
        ),
    );
    report.gate(
        "cache_hit_blamed",
        cache_hit_blamed,
        Json::Bool(cache_hit_blamed),
        "blame (q=0) names cache_hit on a warm observed service",
    );
    report.finish(out);
}
