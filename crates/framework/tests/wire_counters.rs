//! The wire plane only *accounts* — so its counters are the whole of its
//! behaviour, and a cheaper way to size a leg must leave every one of
//! them where it was. A fixed request list through a wired backend at
//! two attribute widths — 7 (float pairs pack across row boundaries,
//! every leg ends in a partial line) and 64 (each row is exactly four
//! BDI lines) — with compression on and off.
//!
//! Two backends run it. The uncached one measures the sizer alone: its
//! snapshots are frozen at the values the eager word-by-word sizer
//! produced (width 7) and the separate whole-reply sizing pass produced
//! (width 64). The cached one adds the hot-set cache, whose hits skip
//! legs: its snapshots also move when the cache's admission policy
//! changes which keys it holds, so they are frozen at the current
//! policy's hit set.

use lsdgnn_framework::{
    CacheConfig, CpuBackend, SampleRequest, SamplingBackend, WireConfig, WireSnapshot,
};
use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionedGraph};

const NODES: u64 = 400;

fn wire_after_fixed_requests(attr_len: usize, wire: WireConfig, cached: bool) -> WireSnapshot {
    let g = generators::power_law(NODES, 8, 9);
    let a = AttributeStore::synthetic(NODES, attr_len, 9);
    let pg = PartitionedGraph::new(g, 4).with_attributes(a);
    let backend = if cached {
        CpuBackend::from_partitioned_wired_cached(pg, wire, CacheConfig::with_capacity(64))
    } else {
        CpuBackend::from_partitioned_wired(pg, wire)
    };
    let reqs: Vec<SampleRequest> = (0..24u64)
        .map(|s| SampleRequest {
            roots: (0..6).map(|r| NodeId((s * 13 + r * 7) % NODES)).collect(),
            hops: 1 + (s % 2) as u32,
            fanout: 4,
            seed: 9 ^ s,
        })
        .collect();
    let refs: Vec<&SampleRequest> = reqs.iter().collect();
    let (mut rows, mut slot_of) = (Vec::new(), Vec::new());
    for chunk in refs.chunks(4) {
        for o in backend.sample_many(chunk) {
            backend.gather_attr_rows(&o.block.nodes, &mut rows, &mut slot_of);
            backend.recycle(o.block);
        }
    }
    backend.wire_snapshot().expect("wired")
}

/// The wire counters of [`wire_after_fixed_requests`] at `attr_len`,
/// compression on; with it off, every response counter reads its raw
/// twin and the link charges `uncompressed_wire_ns`.
fn assert_frozen(
    attr_len: usize,
    cached: bool,
    compressed: WireSnapshot,
    uncompressed_wire_ns: u64,
) {
    assert_eq!(
        wire_after_fixed_requests(attr_len, WireConfig::default(), cached),
        compressed,
        "attr_len {attr_len}, cached {cached}, compression on"
    );
    let uncompressed = WireSnapshot {
        wire_response_bytes: compressed.raw_response_bytes,
        sampling_wire_response_bytes: compressed.sampling_raw_response_bytes,
        attr_wire_response_bytes: compressed.attr_raw_response_bytes,
        simulated_wire_ns: uncompressed_wire_ns,
        ..compressed
    };
    assert_eq!(
        wire_after_fixed_requests(attr_len, WireConfig { compression: false }, cached),
        uncompressed,
        "attr_len {attr_len}, cached {cached}, compression off"
    );
}

#[test]
fn uncached_wire_counters_of_a_fixed_request_list_are_frozen() {
    // Every remote row crosses the wire: these move only if the sizer
    // itself does.
    assert_frozen(
        7,
        false,
        WireSnapshot {
            remote_legs: 126,
            request_packages: 126,
            packed_requests: 2333,
            overflow_splits: 0,
            raw_request_bytes: 46660,
            wire_request_bytes: 11852,
            raw_response_bytes: 102156,
            wire_response_bytes: 74216,
            sampling_raw_response_bytes: 44292,
            sampling_wire_response_bytes: 15420,
            attr_raw_response_bytes: 57864,
            attr_wire_response_bytes: 58796,
            simulated_wire_ns: 96739,
        },
        97477,
    );
    assert_frozen(
        64,
        false,
        WireSnapshot {
            remote_legs: 126,
            request_packages: 126,
            packed_requests: 2333,
            overflow_splits: 0,
            raw_request_bytes: 46660,
            wire_request_bytes: 11852,
            raw_response_bytes: 563004,
            wire_response_bytes: 542220,
            sampling_raw_response_bytes: 44292,
            sampling_wire_response_bytes: 15420,
            attr_raw_response_bytes: 518712,
            attr_wire_response_bytes: 526800,
            simulated_wire_ns: 109213,
        },
        109770,
    );
}

#[test]
fn wire_counters_of_a_fixed_request_list_are_frozen() {
    // Width 7: float pairs pack across row boundaries and lines straddle
    // rows.
    assert_frozen(
        7,
        true,
        WireSnapshot {
            remote_legs: 122,
            request_packages: 122,
            packed_requests: 1727,
            overflow_splits: 0,
            raw_request_bytes: 34540,
            wire_request_bytes: 9348,
            raw_response_bytes: 77652,
            wire_response_bytes: 55373,
            sampling_raw_response_bytes: 35468,
            sampling_wire_response_bytes: 12510,
            attr_raw_response_bytes: 42184,
            attr_wire_response_bytes: 42863,
            simulated_wire_ns: 93168,
        },
        93766,
    );
    // Width 64 (the benchmark's): every row is exactly four lines.
    assert_frozen(
        64,
        true,
        WireSnapshot {
            remote_legs: 122,
            request_packages: 122,
            packed_requests: 1727,
            overflow_splits: 0,
            raw_request_bytes: 34540,
            wire_request_bytes: 9348,
            raw_response_bytes: 411284,
            wire_response_bytes: 394182,
            sampling_raw_response_bytes: 35468,
            sampling_wire_response_bytes: 12510,
            attr_raw_response_bytes: 375816,
            attr_wire_response_bytes: 381672,
            simulated_wire_ns: 102208,
        },
        102653,
    );
}
