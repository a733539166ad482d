//! The wire plane only *accounts* — so its counters are the whole of its
//! behaviour, and a cheaper way to size a leg must leave every one of
//! them where it was. A fixed request list through a wired + cached
//! backend, odd attribute width (float pairs pack across row
//! boundaries, every leg ends in a partial line), with compression on
//! and off: the snapshot is frozen at the values the eager
//! word-by-word sizer produced.

use lsdgnn_framework::{
    CacheConfig, CpuBackend, SampleRequest, SamplingBackend, WireConfig, WireSnapshot,
};
use lsdgnn_graph::{generators, AttributeStore, NodeId, PartitionedGraph};

const NODES: u64 = 400;

fn wire_after_fixed_requests(wire: WireConfig) -> WireSnapshot {
    let g = generators::power_law(NODES, 8, 9);
    let a = AttributeStore::synthetic(NODES, 7, 9);
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
        for block in backend.sample_many(chunk) {
            backend.gather_attr_rows(&block.nodes, &mut rows, &mut slot_of);
            backend.recycle(block);
        }
    }
    backend.wire_snapshot().expect("wired")
}

#[test]
fn wire_counters_of_a_fixed_request_list_are_frozen() {
    let compressed = WireSnapshot {
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
    };
    assert_eq!(wire_after_fixed_requests(WireConfig::default()), compressed);
    // Compression off charges the raw payload, sized from the same lines.
    let uncompressed = WireSnapshot {
        wire_response_bytes: compressed.raw_response_bytes,
        sampling_wire_response_bytes: compressed.sampling_raw_response_bytes,
        attr_wire_response_bytes: compressed.attr_raw_response_bytes,
        simulated_wire_ns: 96068,
        ..compressed
    };
    assert_eq!(
        wire_after_fixed_requests(WireConfig {
            compression: false,
            ..WireConfig::default()
        }),
        uncompressed
    );
}
