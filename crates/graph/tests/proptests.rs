//! Property-based tests for the graph substrate.

use lsdgnn_graph::dynamic::DynamicGraph;
use lsdgnn_graph::io::{read_attributes, read_edge_list, write_attributes, write_edge_list};
use lsdgnn_graph::{GraphBuilder, NodeId, PartitionedGraph};
use proptest::prelude::*;

fn arb_edges(nodes: u64, max_edges: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0..nodes, 0..nodes), 0..max_edges)
}

/// Edge-list-shaped text from raw draws: each line is two or three
/// tokens, `(kind, id)` picking a small id (mostly), `u64::MAX`, or a
/// weight, comment or junk token, so that a fair share of lists parses.
/// Ids stay small or are `u64::MAX`: an id in between is a valid request
/// for a node space of that size.
fn edge_text(lines: &[Vec<(u8, u64)>]) -> String {
    const OTHER: [&str; 10] = ["0.5", "1", "-2.25", "1e3", "NaN", "inf", "#", "x", "", "\t"];
    let token = |&(kind, id): &(u8, u64)| match kind {
        0..=61 => id.to_string(),
        62 => u64::MAX.to_string(),
        _ => OTHER[id as usize % OTHER.len()].to_string(),
    };
    let line = |tokens: &Vec<(u8, u64)>| tokens.iter().map(token).collect::<Vec<_>>().join(" ");
    lines.iter().map(line).collect::<Vec<_>>().join("\n")
}

/// The `read_edge_list` node-count argument from a raw draw.
fn space((given, n): (bool, u64)) -> Option<u64> {
    given.then_some(n)
}

/// Attribute-file-shaped bytes from raw draws: the magic (one time in
/// five a wrong one), a header that may claim anything — small counts,
/// `u64::MAX` or any `u64` — and a payload of any short length.
fn attr_file(magic_ok: bool, nodes: (u8, u64), attr_len: (u8, u64), payload: &[u8]) -> Vec<u8> {
    let count = |(kind, raw): (u8, u64)| match kind {
        0..=2 => raw % 5,
        3 => u64::MAX,
        _ => raw,
    };
    let mut bytes = if magic_ok { b"LSDATTR1" } else { b"LSDATTR2" }.to_vec();
    bytes.extend_from_slice(&count(nodes).to_le_bytes());
    bytes.extend_from_slice(&count(attr_len).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// An accepted edge list writes and reads back to the same graph.
fn edge_list_round_trips(bytes: &[u8], space: Option<u64>) -> Result<(), TestCaseError> {
    if let Ok(g) = read_edge_list(bytes, space) {
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).expect("write to a Vec");
        prop_assert_eq!(read_edge_list(&text[..], space).expect("re-read"), g);
    }
    Ok(())
}

/// An accepted attribute file re-encodes to exactly the bytes it was
/// read from (compared as bytes, so NaN payloads count as equal to
/// themselves), and reads back to the same store.
fn attributes_round_trip(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(store) = read_attributes(bytes) {
        let mut encoded = Vec::new();
        write_attributes(&store, &mut encoded).expect("write to a Vec");
        prop_assert_eq!(&encoded[..], &bytes[..encoded.len()]);
        let back = read_attributes(&encoded[..]).expect("re-read");
        let mut again = Vec::new();
        write_attributes(&back, &mut again).expect("write to a Vec");
        prop_assert_eq!(again, encoded);
    }
    Ok(())
}

proptest! {
    /// Arbitrary bytes never panic either reader; what they accept
    /// round-trips.
    #[test]
    fn readers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        given in (any::<bool>(), 0u64..32),
    ) {
        edge_list_round_trips(&bytes, space(given))?;
        attributes_round_trip(&bytes)?;
    }

    /// Edge-list-shaped text: never a panic, and every accepted list
    /// round-trips through `write_edge_list` and `read_edge_list`.
    #[test]
    fn accepted_edge_lists_round_trip(
        lines in proptest::collection::vec(
            proptest::collection::vec((0u8..64, 0u64..16), 2..4),
            0..12,
        ),
        given in (any::<bool>(), 0u64..32),
    ) {
        edge_list_round_trips(edge_text(&lines).as_bytes(), space(given))?;
    }

    /// Attribute files with any header claim: never a panic, and every
    /// accepted file round-trips through `write_attributes` and
    /// `read_attributes`.
    #[test]
    fn accepted_attribute_files_round_trip(
        magic in 0u8..5,
        nodes in (0u8..5, any::<u64>()),
        attr_len in (0u8..5, any::<u64>()),
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        attributes_round_trip(&attr_file(magic > 0, nodes, attr_len, &payload))?;
    }

    /// Any edge list builds a CSR satisfying all structural invariants.
    #[test]
    fn builder_always_produces_valid_csr(edges in arb_edges(50, 300)) {
        let mut b = GraphBuilder::new(50);
        for (u, v) in &edges {
            b.add_edge(NodeId(*u), NodeId(*v));
        }
        let g = b.build();
        prop_assert!(g.check_invariants().is_ok());
        // Dedup can only shrink.
        prop_assert!(g.num_edges() as usize <= edges.len());
        // Every input edge is present.
        for (u, v) in edges {
            prop_assert!(g.has_edge(NodeId(u), NodeId(v)));
        }
    }

    /// Degrees sum to the edge count.
    #[test]
    fn degrees_sum_to_edge_count(edges in arb_edges(40, 200)) {
        let mut b = GraphBuilder::new(40);
        for (u, v) in &edges {
            b.add_edge(NodeId(*u), NodeId(*v));
        }
        let g = b.build();
        let total: u64 = (0..40).map(|v| g.degree(NodeId(v))).sum();
        prop_assert_eq!(total, g.num_edges());
    }

    /// Partition ownership is a total, deterministic function covering
    /// all partitions reasonably.
    #[test]
    fn partition_owner_is_stable(parts in 1u32..16, nodes in 16u64..200) {
        let mut b = GraphBuilder::new(nodes);
        b.add_edge(NodeId(0), NodeId(1));
        let pg = PartitionedGraph::new(b.build(), parts);
        for v in 0..nodes {
            let o1 = pg.owner(NodeId(v));
            let o2 = pg.owner(NodeId(v));
            prop_assert_eq!(o1, o2);
            prop_assert!(o1.0 < parts);
        }
    }

    /// A window snapshot is always a subgraph of the full snapshot, and
    /// nested windows are monotone.
    #[test]
    fn dynamic_windows_are_monotone(
        events in proptest::collection::vec((0u64..30, 0u64..30, 0u64..100), 1..100),
        lo in 0u64..50,
        span in 0u64..50,
    ) {
        let mut g = DynamicGraph::new(30);
        for (u, v, t) in &events {
            g.insert_edge(NodeId(*u), NodeId(*v), *t);
        }
        let hi = lo + span;
        let window = g.window_snapshot(lo, hi);
        let full = g.snapshot();
        prop_assert!(window.num_edges() <= full.num_edges());
        for (u, v) in window.edges() {
            prop_assert!(full.has_edge(u, v));
        }
        // Widening the window never loses edges.
        let wider = g.window_snapshot(lo.saturating_sub(10), hi + 10);
        prop_assert!(wider.num_edges() >= window.num_edges());
    }

    /// Attribute gather returns exactly len*attr_len floats in order.
    #[test]
    fn gather_respects_order(nodes in proptest::collection::vec(0u64..20, 1..40)) {
        use lsdgnn_graph::AttributeStore;
        let store = AttributeStore::synthetic(20, 4, 9);
        let ids: Vec<NodeId> = nodes.iter().map(|&v| NodeId(v)).collect();
        let got = store.gather(&ids);
        prop_assert_eq!(got.len(), ids.len() * 4);
        for (i, v) in ids.iter().enumerate() {
            prop_assert_eq!(&got[i * 4..(i + 1) * 4], store.get(*v));
        }
    }
}
