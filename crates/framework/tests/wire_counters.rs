//! The wire plane only *accounts* — so its counters are the whole of its
//! behaviour, and a cheaper way to size a leg must leave every one of
//! them where it was. A fixed request list through a wired + cached
//! backend at two attribute widths — 7 (float pairs pack across row
//! boundaries, every leg ends in a partial line) and 64 (each row is
//! exactly four BDI lines) — with compression on and off: the snapshots
//! are frozen at the values the eager word-by-word sizer produced
//! (width 7) and the separate whole-reply sizing pass produced (width
//! 64).

use lsdgnn_framework::{
    CacheConfig, CpuBackend, SampleRequest, SamplingBackend, WireConfig, WireSnapshot,
};
use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionedGraph};

const NODES: u64 = 400;

fn wire_after_fixed_requests(attr_len: usize, wire: WireConfig) -> WireSnapshot {
    let g = generators::power_law(NODES, 8, 9);
    let a = AttributeStore::synthetic(NODES, attr_len, 9);
    let backend = CpuBackend::from_partitioned_wired_cached(
        PartitionedGraph::new(g, 4).with_attributes(a),
        wire,
        CacheConfig::with_capacity(64),
    );
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
fn assert_frozen(attr_len: usize, compressed: WireSnapshot, uncompressed_wire_ns: u64) {
    assert_eq!(
        wire_after_fixed_requests(attr_len, WireConfig::default()),
        compressed,
        "attr_len {attr_len}, compression on"
    );
    let uncompressed = WireSnapshot {
        wire_response_bytes: compressed.raw_response_bytes,
        sampling_wire_response_bytes: compressed.sampling_raw_response_bytes,
        attr_wire_response_bytes: compressed.attr_raw_response_bytes,
        simulated_wire_ns: uncompressed_wire_ns,
        ..compressed
    };
    assert_eq!(
        wire_after_fixed_requests(attr_len, WireConfig { compression: false }),
        uncompressed,
        "attr_len {attr_len}, compression off"
    );
}

#[test]
fn wire_counters_of_a_fixed_request_list_are_frozen() {
    // Width 7: float pairs pack across row boundaries and lines straddle
    // rows.
    assert_frozen(
        7,
        WireSnapshot {
            remote_legs: 125,
            request_packages: 125,
            packed_requests: 1750,
            overflow_splits: 0,
            raw_request_bytes: 35000,
            wire_request_bytes: 9500,
            raw_response_bytes: 79636,
            wire_response_bytes: 56392,
            sampling_raw_response_bytes: 36872,
            sampling_wire_response_bytes: 12934,
            attr_raw_response_bytes: 42764,
            attr_wire_response_bytes: 43458,
            simulated_wire_ns: 95444,
        },
        96068,
    );
    // Width 64 (the benchmark's): every row is exactly four lines.
    assert_frozen(
        64,
        WireSnapshot {
            remote_legs: 125,
            request_packages: 125,
            packed_requests: 1750,
            overflow_splits: 0,
            raw_request_bytes: 35000,
            wire_request_bytes: 9500,
            raw_response_bytes: 417332,
            wire_response_bytes: 399322,
            sampling_raw_response_bytes: 36872,
            sampling_wire_response_bytes: 12934,
            attr_raw_response_bytes: 380460,
            attr_wire_response_bytes: 386388,
            simulated_wire_ns: 104593,
        },
        105069,
    );
}
