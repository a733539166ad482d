//! Graph and attribute persistence.
//!
//! A downstream user brings their own graph; these routines load/store
//! the standard interchange formats: whitespace-separated edge lists
//! (one `src dst [weight]` per line, `#` comments) and a little-endian
//! binary format for attribute matrices.

use crate::attributes::AttributeStore;
use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::types::NodeId;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Errors raised by the I/O routines.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content with line context.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// The node space [`read_edge_list`] infers without `num_nodes` is at
/// most this many nodes, or [`INFERRED_NODES_PER_EDGE`] per edge read if
/// that is more: a few bytes of input never size gigabytes of offsets.
pub const INFERRED_NODES_FLOOR: u64 = 1 << 20;

/// Nodes per edge read an inferred node space may hold past
/// [`INFERRED_NODES_FLOOR`].
pub const INFERRED_NODES_PER_EDGE: u64 = 16;

/// Reads an edge list. Node ids are dense non-negative integers; the
/// graph size is `num_nodes` when given, else `max id + 1`.
///
/// # Errors
///
/// Returns [`IoError::Parse`] on malformed lines: a missing or
/// unparsable id, a weight that is not a finite number, trailing
/// tokens, or an id outside `0..num_nodes` (without `num_nodes`, the id
/// `u64::MAX`, which leaves no room to count the nodes). Without
/// `num_nodes` it also refuses, naming the line of the largest id, an
/// inferred node space past `max(INFERRED_NODES_FLOOR,
/// INFERRED_NODES_PER_EDGE × edges)`; a caller with a sparser id space
/// passes its size.
///
/// # Example
///
/// ```
/// use lsdgnn_graph::io::read_edge_list;
/// let text = "# a comment\n0 1\n1 2 0.5\n";
/// let g = read_edge_list(text.as_bytes(), None).unwrap();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// ```
pub fn read_edge_list<R: Read>(reader: R, num_nodes: Option<u64>) -> Result<CsrGraph, IoError> {
    let mut edges: Vec<(u64, u64, f32)> = Vec::new();
    let (mut max_id, mut max_line) = (0u64, 0usize);
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let text = line.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut parts = text.split_whitespace();
        let parse_id = |tok: Option<&str>, what: &str| -> Result<u64, IoError> {
            tok.ok_or_else(|| IoError::Parse {
                line: lineno,
                message: format!("missing {what}"),
            })?
            .parse()
            .map_err(|_| IoError::Parse {
                line: lineno,
                message: format!("bad {what}"),
            })
        };
        let src = parse_id(parts.next(), "source id")?;
        let dst = parse_id(parts.next(), "target id")?;
        let space = num_nodes.unwrap_or(u64::MAX);
        if let Some(id) = [src, dst].into_iter().find(|&id| id >= space) {
            return Err(IoError::Parse {
                line: lineno,
                message: format!("node id {id} outside the node space 0..{space}"),
            });
        }
        let weight = match parts.next() {
            Some(w) => w
                .parse::<f32>()
                .ok()
                .filter(|w| w.is_finite())
                .ok_or_else(|| IoError::Parse {
                    line: lineno,
                    message: "bad weight".into(),
                })?,
            None => 1.0,
        };
        if parts.next().is_some() {
            return Err(IoError::Parse {
                line: lineno,
                message: "trailing tokens".into(),
            });
        }
        if src.max(dst) >= max_id {
            (max_id, max_line) = (src.max(dst), lineno);
        }
        edges.push((src, dst, weight));
    }
    let n = num_nodes.unwrap_or(if edges.is_empty() { 0 } else { max_id + 1 });
    let cap = INFERRED_NODES_FLOOR.max(INFERRED_NODES_PER_EDGE * edges.len() as u64);
    if num_nodes.is_none() && n > cap {
        return Err(IoError::Parse {
            line: max_line,
            message: format!(
                "node id {max_id} infers {n} nodes from {} edges (at most {cap}); pass num_nodes",
                edges.len()
            ),
        });
    }
    let mut b = GraphBuilder::new(n);
    for (u, v, w) in edges {
        b.add_weighted_edge(NodeId(u), NodeId(v), w);
    }
    Ok(b.build())
}

/// Writes a graph as an edge list (weights included when present).
///
/// # Errors
///
/// Propagates write failures.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for u in 0..graph.num_nodes() {
        let node = NodeId(u);
        let ns = graph.neighbors(node);
        match graph.edge_weights(node) {
            Some(ws) => {
                for (v, wt) in ns.iter().zip(ws) {
                    writeln!(w, "{} {} {}", u, v.0, wt)?;
                }
            }
            None => {
                for v in ns {
                    writeln!(w, "{} {}", u, v.0)?;
                }
            }
        }
    }
    w.flush()?;
    Ok(())
}

const ATTR_MAGIC: &[u8; 8] = b"LSDATTR1";

/// Writes an attribute store in the binary format
/// (`magic, u64 nodes, u64 attr_len, then f32 LE data`).
///
/// # Errors
///
/// Propagates write failures.
pub fn write_attributes<W: Write>(store: &AttributeStore, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(ATTR_MAGIC)?;
    w.write_all(&store.num_nodes().to_le_bytes())?;
    w.write_all(&(store.attr_len() as u64).to_le_bytes())?;
    for v in 0..store.num_nodes() {
        for x in store.get(NodeId(v)) {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads an attribute store written by [`write_attributes`]. Bytes past
/// the payload the header sizes are not read.
///
/// # Errors
///
/// Returns [`IoError::Parse`] on a bad magic, a zero attribute length,
/// a header whose payload size overflows, or data shorter than the
/// header claims; [`IoError::Io`] on a truncated header.
pub fn read_attributes<R: Read>(reader: R) -> Result<AttributeStore, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != ATTR_MAGIC {
        return Err(IoError::Parse {
            line: 0,
            message: "bad attribute file magic".into(),
        });
    }
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let nodes = u64::from_le_bytes(u64buf);
    r.read_exact(&mut u64buf)?;
    let attr_len = u64::from_le_bytes(u64buf);
    let parse_err = |message: String| IoError::Parse { line: 0, message };
    if attr_len == 0 {
        return Err(parse_err("zero attribute length".into()));
    }
    // The header is only a claim: size the payload with checked
    // arithmetic and read it before allocating the store, so a short
    // file cannot ask for more memory than it holds.
    let row_bytes = attr_len
        .checked_mul(4)
        .filter(|&b| usize::try_from(b).is_ok())
        .ok_or_else(|| parse_err(format!("attribute length {attr_len} overflows")))?;
    let bytes = nodes
        .checked_mul(row_bytes)
        .filter(|&b| usize::try_from(b).is_ok())
        .ok_or_else(|| parse_err(format!("{nodes} nodes x {attr_len} floats overflows")))?;
    let mut payload = Vec::new();
    r.take(bytes).read_to_end(&mut payload)?;
    if payload.len() as u64 != bytes {
        return Err(parse_err(format!(
            "truncated attribute data: {} of {bytes} bytes",
            payload.len()
        )));
    }
    let floats: Vec<f32> = payload
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk")))
        .collect();
    let attr_len = attr_len as usize;
    let mut store = AttributeStore::zeros(nodes, attr_len);
    for (v, row) in floats.chunks_exact(attr_len).enumerate() {
        store.set(NodeId(v as u64), row);
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_round_trips() {
        let g = generators::power_law(200, 6, 77);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..], Some(200)).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn weighted_edge_list_round_trips() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(NodeId(0), NodeId(1), 2.5);
        b.add_weighted_edge(NodeId(1), NodeId(2), 0.25);
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..], None).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\n0 1 # inline comment\n 1 2 \n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = read_edge_list("0 1\nx 2\n".as_bytes(), None).unwrap_err();
        match e {
            IoError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("source"));
            }
            other => panic!("unexpected error {other}"),
        }
        let e = read_edge_list("0 1 1.0 extra\n".as_bytes(), None).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn ids_outside_the_node_space_are_parse_errors() {
        let e = read_edge_list("5 6\n".as_bytes(), Some(3)).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 1, .. }), "{e}");
        let e = read_edge_list("0 1\n0 18446744073709551615\n".as_bytes(), None).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 2, .. }), "{e}");
        let e = read_edge_list("0 1 NaN\n".as_bytes(), None).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 1, .. }), "{e}");
    }

    #[test]
    fn inferred_node_spaces_are_capped() {
        let e = read_edge_list("0 1\n0 4000000000\n".as_bytes(), None).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 2, .. }), "{e}");
        let e = read_edge_list("0 4000000000".as_bytes(), None).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 1, .. }), "{e}");
        let g = read_edge_list("0 1000000".as_bytes(), None).unwrap();
        assert_eq!(g.num_nodes(), 1_000_001);
        // A caller that knows its sparse space passes it.
        let g = read_edge_list("0 2000000".as_bytes(), Some(2_000_001)).unwrap();
        assert_eq!(g.num_nodes(), 2_000_001);
    }

    #[test]
    fn attributes_round_trip() {
        let a = AttributeStore::synthetic(50, 7, 3);
        let mut buf = Vec::new();
        write_attributes(&a, &mut buf).unwrap();
        let back = read_attributes(&buf[..]).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn bad_magic_rejected() {
        let e = read_attributes(&b"NOTMAGIC\0\0\0\0\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(e, IoError::Parse { .. }));
    }

    #[test]
    fn truncated_attributes_error() {
        let a = AttributeStore::synthetic(10, 4, 1);
        let mut buf = Vec::new();
        write_attributes(&a, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_attributes(&buf[..]).is_err());
    }

    #[test]
    fn oversized_attribute_headers_are_parse_errors() {
        for (nodes, attr_len) in [(u64::MAX, 2u64), (1, u64::MAX), (1 << 40, 1 << 20)] {
            let mut buf = ATTR_MAGIC.to_vec();
            buf.extend_from_slice(&nodes.to_le_bytes());
            buf.extend_from_slice(&attr_len.to_le_bytes());
            let e = read_attributes(&buf[..]).unwrap_err();
            assert!(
                matches!(e, IoError::Parse { .. }),
                "{nodes} x {attr_len}: {e}"
            );
        }
    }
}
