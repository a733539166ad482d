//! Memory-over-Fabric (MoF) protocol — the paper's customized lightweight
//! inter-FPGA interconnect (§4.3).
//!
//! Three pieces:
//!
//! * [`frame`] — the wire format: read-request packages carrying up to
//!   **64 requests per package** (Tech-1) as a shared 8-byte base address
//!   plus 4-byte per-request offsets, and read-response packages carrying
//!   the data back. Encode/decode round-trips through [`bytes`] buffers.
//! * [`packing`] — the byte-accounting model behind Table 5, comparing the
//!   MoF package format against a Gen-Z-style 4-requests-per-package
//!   format on header/address/data overhead and package count.
//! * [`bdi`] — Base-Delta-Immediate compression (Tech-2) applied to both
//!   response data and request addresses, reproducing the Table 6
//!   byte-count reductions.
//! * [`reliability`] — CRC-protected sequencing with go-back-N
//!   retransmission, the "data-link capability with high reliability
//!   without much software overhead".
//!
//! # Example
//!
//! ```
//! use lsdgnn_mof::frame::{ReadRequestPackage, MAX_REQUESTS_PER_PACKAGE};
//!
//! let base = 0x1000_0000;
//! let offsets: Vec<u32> = (0..64).map(|i| i * 16).collect();
//! let pkg = ReadRequestPackage::new(7, base, &offsets, 16).unwrap();
//! let bytes = pkg.encode();
//! let back = ReadRequestPackage::decode(&bytes).unwrap();
//! assert_eq!(back, pkg);
//! assert!(offsets.len() <= MAX_REQUESTS_PER_PACKAGE);
//! ```

pub mod bdi;
pub mod endpoint;
pub mod flow;
pub mod frame;
pub mod packing;
pub mod reliability;

pub use bdi::{
    bdi_block_bytes, bdi_compress, bdi_decompress, bdi_stream_bytes, CompressedBlock,
    BDI_LINE_WORDS,
};
pub use endpoint::{EndpointStats, MofEndpoint};
pub use flow::CreditFlow;
pub use frame::{
    pack_read_requests, packed_request_size, PackedRequests, PackedSize, ReadRequestPackage,
    ReadResponsePackage, WriteRequestPackage, CRC_BYTES, HEADER_BYTES, MAX_REQUESTS_PER_PACKAGE,
};
pub use packing::{ByteBreakdown, PackingScheme};
pub use reliability::{ChannelAbandoned, LinkOutcome, ReliableChannel};

/// Errors produced by MoF encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MofError {
    /// Package would exceed [`MAX_REQUESTS_PER_PACKAGE`] requests.
    TooManyRequests(usize),
    /// A package must carry at least one request.
    EmptyPackage,
    /// Byte buffer too short or malformed.
    Malformed(&'static str),
    /// CRC mismatch on decode.
    CrcMismatch,
}

impl std::fmt::Display for MofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MofError::TooManyRequests(n) => {
                write!(
                    f,
                    "package holds {n} requests, max {MAX_REQUESTS_PER_PACKAGE}"
                )
            }
            MofError::EmptyPackage => write!(f, "package must carry at least one request"),
            MofError::Malformed(what) => write!(f, "malformed package: {what}"),
            MofError::CrcMismatch => write!(f, "crc mismatch"),
        }
    }
}

impl std::error::Error for MofError {}
