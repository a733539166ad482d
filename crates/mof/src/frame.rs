//! MoF wire format: multi-request packages (§4.3 Tech-1).
//!
//! Layout (little-endian):
//!
//! ```text
//! ReadRequestPackage:
//!   u8  kind (=1)      u8 count-1        u16 request_bytes
//!   u32 seq            u64 base_address  [u32 offset; count]
//!   u32 crc
//! ReadResponsePackage:
//!   u8  kind (=2)      u8 count-1        u16 request_bytes
//!   u32 seq            [u8 data; count * request_bytes]
//!   u32 crc
//! ```
//!
//! The 16-byte header+base of a request package is amortized over up to 64
//! requests; each request costs only a 4-byte offset against the shared
//! base address — the packing that lifts small-read utilization from ~33 %
//! (Gen-Z style) to 78–94 % in Table 5.

use crate::MofError;
use bytes::{Buf, BufMut, BytesMut};

/// Requests a single MoF package can carry (Tech-1: "64 requests per
/// package").
pub const MAX_REQUESTS_PER_PACKAGE: usize = 64;

/// Fixed header bytes of either package kind (kind, count, request size,
/// sequence number).
pub const HEADER_BYTES: u64 = 8;
/// Trailing CRC bytes.
pub const CRC_BYTES: u64 = 4;

const KIND_READ_REQUEST: u8 = 1;
const KIND_READ_RESPONSE: u8 = 2;
const KIND_WRITE_REQUEST: u8 = 3;

/// CRC-32 (IEEE, bitwise implementation — this is a simulator, not a NIC).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encoded size of a read-request package carrying `count` reads.
fn read_request_bytes(count: usize) -> u64 {
    HEADER_BYTES + 8 + 4 * count as u64 + CRC_BYTES
}

/// A read-request package: up to 64 same-size reads sharing one base
/// address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRequestPackage {
    /// Link-level sequence number.
    pub seq: u32,
    /// Shared base address.
    pub base_address: u64,
    /// Per-request byte offsets from `base_address`.
    pub offsets: Vec<u32>,
    /// Bytes to read per request.
    pub request_bytes: u16,
}

impl ReadRequestPackage {
    /// Builds a package.
    ///
    /// # Errors
    ///
    /// Returns [`MofError::TooManyRequests`] beyond 64 requests and
    /// [`MofError::EmptyPackage`] for zero.
    pub fn new(
        seq: u32,
        base_address: u64,
        offsets: &[u32],
        request_bytes: u16,
    ) -> Result<Self, MofError> {
        if offsets.is_empty() {
            return Err(MofError::EmptyPackage);
        }
        if offsets.len() > MAX_REQUESTS_PER_PACKAGE {
            return Err(MofError::TooManyRequests(offsets.len()));
        }
        Ok(ReadRequestPackage {
            seq,
            base_address,
            offsets: offsets.to_vec(),
            request_bytes,
        })
    }

    /// Number of reads carried.
    pub fn request_count(&self) -> usize {
        self.offsets.len()
    }

    /// Encoded size in bytes: header + base + offsets + CRC.
    pub fn wire_bytes(&self) -> u64 {
        read_request_bytes(self.offsets.len())
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(self.wire_bytes() as usize);
        buf.put_u8(KIND_READ_REQUEST);
        buf.put_u8((self.offsets.len() - 1) as u8);
        buf.put_u16_le(self.request_bytes);
        buf.put_u32_le(self.seq);
        buf.put_u64_le(self.base_address);
        for &o in &self.offsets {
            buf.put_u32_le(o);
        }
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.to_vec()
    }

    /// Parses wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MofError::Malformed`] on truncated/invalid input and
    /// [`MofError::CrcMismatch`] on a bad checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, MofError> {
        if bytes.len() < (HEADER_BYTES + 8 + 4 + CRC_BYTES) as usize {
            return Err(MofError::Malformed("truncated request package"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != want {
            return Err(MofError::CrcMismatch);
        }
        let mut buf = body;
        let kind = buf.get_u8();
        if kind != KIND_READ_REQUEST {
            return Err(MofError::Malformed("wrong kind for request package"));
        }
        let count = buf.get_u8() as usize + 1;
        let request_bytes = buf.get_u16_le();
        let seq = buf.get_u32_le();
        let base_address = buf.get_u64_le();
        if buf.remaining() != count * 4 {
            return Err(MofError::Malformed("offset array length mismatch"));
        }
        let offsets = (0..count).map(|_| buf.get_u32_le()).collect();
        Ok(ReadRequestPackage {
            seq,
            base_address,
            offsets,
            request_bytes,
        })
    }

    /// Absolute address of request `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn address(&self, i: usize) -> u64 {
        self.base_address + self.offsets[i] as u64
    }
}

/// A read-response package: the data for every request of one request
/// package, in request order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResponsePackage {
    /// Echoes the request's sequence number.
    pub seq: u32,
    /// Bytes per request.
    pub request_bytes: u16,
    /// Concatenated response data, `count * request_bytes` long.
    pub data: Vec<u8>,
}

impl ReadResponsePackage {
    /// Builds a response for `count` requests of `request_bytes` each.
    ///
    /// # Errors
    ///
    /// Returns [`MofError::Malformed`] if `data` length is not a non-zero
    /// multiple of `request_bytes`, or carries more than 64 requests.
    pub fn new(seq: u32, request_bytes: u16, data: Vec<u8>) -> Result<Self, MofError> {
        if request_bytes == 0
            || data.is_empty()
            || !data.len().is_multiple_of(request_bytes as usize)
        {
            return Err(MofError::Malformed("data not a multiple of request size"));
        }
        let count = data.len() / request_bytes as usize;
        if count > MAX_REQUESTS_PER_PACKAGE {
            return Err(MofError::TooManyRequests(count));
        }
        Ok(ReadResponsePackage {
            seq,
            request_bytes,
            data,
        })
    }

    /// Number of responses carried.
    pub fn request_count(&self) -> usize {
        self.data.len() / self.request_bytes as usize
    }

    /// Encoded size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + self.data.len() as u64 + CRC_BYTES
    }

    /// Data slice of response `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn response(&self, i: usize) -> &[u8] {
        let sz = self.request_bytes as usize;
        &self.data[i * sz..(i + 1) * sz]
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(self.wire_bytes() as usize);
        buf.put_u8(KIND_READ_RESPONSE);
        buf.put_u8((self.request_count() - 1) as u8);
        buf.put_u16_le(self.request_bytes);
        buf.put_u32_le(self.seq);
        buf.put_slice(&self.data);
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.to_vec()
    }

    /// Parses wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MofError::Malformed`] on truncated/invalid input and
    /// [`MofError::CrcMismatch`] on a bad checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, MofError> {
        if bytes.len() < (HEADER_BYTES + 1 + CRC_BYTES) as usize {
            return Err(MofError::Malformed("truncated response package"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != want {
            return Err(MofError::CrcMismatch);
        }
        let mut buf = body;
        let kind = buf.get_u8();
        if kind != KIND_READ_RESPONSE {
            return Err(MofError::Malformed("wrong kind for response package"));
        }
        let count = buf.get_u8() as usize + 1;
        let request_bytes = buf.get_u16_le();
        let seq = buf.get_u32_le();
        if buf.remaining() != count * request_bytes as usize {
            return Err(MofError::Malformed("data length mismatch"));
        }
        let data = buf.chunk().to_vec();
        Ok(ReadResponsePackage {
            seq,
            request_bytes,
            data,
        })
    }
}

/// A write-request package: up to 64 same-size writes sharing one base
/// address, each carrying its payload inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRequestPackage {
    /// Link-level sequence number.
    pub seq: u32,
    /// Shared base address.
    pub base_address: u64,
    /// Per-request byte offsets from `base_address`.
    pub offsets: Vec<u32>,
    /// Bytes per write.
    pub request_bytes: u16,
    /// Concatenated write payloads, `offsets.len() * request_bytes` long.
    pub data: Vec<u8>,
}

impl WriteRequestPackage {
    /// Builds a write package.
    ///
    /// # Errors
    ///
    /// Returns [`MofError::TooManyRequests`] beyond 64 requests,
    /// [`MofError::EmptyPackage`] for zero, and [`MofError::Malformed`]
    /// if the payload length disagrees with the offsets.
    pub fn new(
        seq: u32,
        base_address: u64,
        offsets: &[u32],
        request_bytes: u16,
        data: Vec<u8>,
    ) -> Result<Self, MofError> {
        if offsets.is_empty() {
            return Err(MofError::EmptyPackage);
        }
        if offsets.len() > MAX_REQUESTS_PER_PACKAGE {
            return Err(MofError::TooManyRequests(offsets.len()));
        }
        if data.len() != offsets.len() * request_bytes as usize || request_bytes == 0 {
            return Err(MofError::Malformed("write payload length mismatch"));
        }
        Ok(WriteRequestPackage {
            seq,
            base_address,
            offsets: offsets.to_vec(),
            request_bytes,
            data,
        })
    }

    /// Number of writes carried.
    pub fn request_count(&self) -> usize {
        self.offsets.len()
    }

    /// Payload slice of write `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn payload(&self, i: usize) -> &[u8] {
        let sz = self.request_bytes as usize;
        &self.data[i * sz..(i + 1) * sz]
    }

    /// Absolute address of write `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn address(&self, i: usize) -> u64 {
        self.base_address + self.offsets[i] as u64
    }

    /// Encoded size in bytes.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + 8 + 4 * self.offsets.len() as u64 + self.data.len() as u64 + CRC_BYTES
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(self.wire_bytes() as usize);
        buf.put_u8(KIND_WRITE_REQUEST);
        buf.put_u8((self.offsets.len() - 1) as u8);
        buf.put_u16_le(self.request_bytes);
        buf.put_u32_le(self.seq);
        buf.put_u64_le(self.base_address);
        for &o in &self.offsets {
            buf.put_u32_le(o);
        }
        buf.put_slice(&self.data);
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.to_vec()
    }

    /// Parses wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MofError::Malformed`] on truncated/invalid input and
    /// [`MofError::CrcMismatch`] on a bad checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, MofError> {
        if bytes.len() < (HEADER_BYTES + 8 + 4 + 1 + CRC_BYTES) as usize {
            return Err(MofError::Malformed("truncated write package"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let want = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != want {
            return Err(MofError::CrcMismatch);
        }
        let mut buf = body;
        let kind = buf.get_u8();
        if kind != KIND_WRITE_REQUEST {
            return Err(MofError::Malformed("wrong kind for write package"));
        }
        let count = buf.get_u8() as usize + 1;
        let request_bytes = buf.get_u16_le();
        let seq = buf.get_u32_le();
        let base_address = buf.get_u64_le();
        if buf.remaining() != count * 4 + count * request_bytes as usize {
            return Err(MofError::Malformed("write body length mismatch"));
        }
        let offsets: Vec<u32> = (0..count).map(|_| buf.get_u32_le()).collect();
        let data = buf.chunk().to_vec();
        Ok(WriteRequestPackage {
            seq,
            base_address,
            offsets,
            request_bytes,
            data,
        })
    }
}

/// The outcome of packing an address stream into request packages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRequests {
    /// The packages, in stream order.
    pub packages: Vec<ReadRequestPackage>,
    /// Total requests packed (sum of per-package counts).
    pub requests: u64,
    /// Packages closed early because the next address could not be
    /// expressed as a 4-byte offset from the open package's base —
    /// base + offset overflow splits, as opposed to plain 64-request
    /// capacity splits.
    pub overflow_splits: u64,
}

impl PackedRequests {
    /// Total wire bytes of every package.
    pub fn wire_bytes(&self) -> u64 {
        self.packages.iter().map(|p| p.wire_bytes()).sum()
    }

    /// Mean requests per package relative to the 64-request capacity —
    /// the Table 5 utilization figure for this stream.
    pub fn occupancy(&self) -> f64 {
        if self.packages.is_empty() {
            return 0.0;
        }
        self.requests as f64 / (self.packages.len() * MAX_REQUESTS_PER_PACKAGE) as f64
    }
}

/// What packing an address stream costs on the wire — the totals of
/// [`PackedRequests`] without the packages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedSize {
    /// Packages the stream splits into.
    pub packages: u64,
    /// Total requests packed.
    pub requests: u64,
    /// Packages closed early by a base + offset overflow (see
    /// [`PackedRequests::overflow_splits`]).
    pub overflow_splits: u64,
    /// Total wire bytes of every package.
    pub wire_bytes: u64,
}

/// The packer's one split walk. Greedy over an arrival-ordered address
/// stream: each package keeps the *minimum* address seen so far as its
/// base, takes requests while its address span fits a 4-byte offset, and
/// splits — rather than erroring — when the span would overflow or the
/// 64-request capacity is reached. Calls `close(base, count)` once per
/// package in stream order and returns the overflow-split count; what a
/// package *is* (offsets to encode, or just bytes to charge) is the
/// caller's sink.
fn split_read_requests(
    addresses: impl IntoIterator<Item = u64>,
    mut close: impl FnMut(u64, usize),
) -> u64 {
    let mut overflow_splits = 0u64;
    // The open package: current minimum and maximum address, and size.
    let (mut base, mut max_addr, mut count) = (0u64, 0u64, 0usize);
    for addr in addresses {
        if count > 0 {
            let (new_base, new_max) = (base.min(addr), max_addr.max(addr));
            if new_max - new_base <= u32::MAX as u64 {
                (base, max_addr, count) = (new_base, new_max, count + 1);
                if count == MAX_REQUESTS_PER_PACKAGE {
                    close(base, count);
                    count = 0;
                }
                continue;
            }
            overflow_splits += 1;
            close(base, count);
        }
        (base, max_addr, count) = (addr, addr, 1);
    }
    if count > 0 {
        close(base, count);
    }
    overflow_splits
}

/// Packs an arrival-ordered address stream into [`ReadRequestPackage`]s
/// along the greedy split walk: a package's base is the smallest
/// address it carries, so arrival order need not be address order.
/// Never fails: any address stream packs into some sequence of valid
/// packages.
///
/// Sequence numbers count up from `first_seq`.
pub fn pack_read_requests(addresses: &[u64], request_bytes: u16, first_seq: u32) -> PackedRequests {
    let mut packages = Vec::new();
    let mut taken = 0usize;
    let overflow_splits = split_read_requests(addresses.iter().copied(), |base, count| {
        let members = &addresses[taken..taken + count];
        packages.push(ReadRequestPackage {
            seq: first_seq.wrapping_add(packages.len() as u32),
            base_address: base,
            // The walk closed the package with span <= u32::MAX.
            offsets: members.iter().map(|&a| (a - base) as u32).collect(),
            request_bytes,
        });
        taken += count;
    });
    PackedRequests {
        packages,
        requests: addresses.len() as u64,
        overflow_splits,
    }
}

/// Sizes the packages [`pack_read_requests`] would build for the same
/// stream, without building them — the accounting-only sink of the
/// split walk, fed straight from an iterator.
pub fn packed_request_size(addresses: impl IntoIterator<Item = u64>) -> PackedSize {
    let mut size = PackedSize::default();
    size.overflow_splits = split_read_requests(addresses, |_, count| {
        size.packages += 1;
        size.requests += count as u64;
        size.wire_bytes += read_request_bytes(count);
    });
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let offsets: Vec<u32> = (0..64u32).map(|i| i * 8).collect();
        let p = ReadRequestPackage::new(3, 0xDEAD_0000, &offsets, 8).unwrap();
        let bytes = p.encode();
        assert_eq!(bytes.len() as u64, p.wire_bytes());
        assert_eq!(ReadRequestPackage::decode(&bytes).unwrap(), p);
        assert_eq!(p.address(2), 0xDEAD_0000 + 16);
    }

    #[test]
    fn response_round_trips() {
        let data: Vec<u8> = (0..128).collect();
        let p = ReadResponsePackage::new(9, 16, data).unwrap();
        assert_eq!(p.request_count(), 8);
        assert_eq!(p.response(1), &(16..32).collect::<Vec<u8>>()[..]);
        let bytes = p.encode();
        assert_eq!(ReadResponsePackage::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn corruption_is_detected() {
        let p = ReadRequestPackage::new(1, 100, &[0, 8, 16], 8).unwrap();
        let mut bytes = p.encode();
        bytes[10] ^= 0xFF;
        assert_eq!(
            ReadRequestPackage::decode(&bytes),
            Err(MofError::CrcMismatch)
        );
    }

    #[test]
    fn limits_enforced() {
        let too_many: Vec<u32> = (0..65).collect();
        assert_eq!(
            ReadRequestPackage::new(0, 0, &too_many, 8),
            Err(MofError::TooManyRequests(65))
        );
        assert_eq!(
            ReadRequestPackage::new(0, 0, &[], 8),
            Err(MofError::EmptyPackage)
        );
        assert!(ReadResponsePackage::new(0, 8, vec![1, 2, 3]).is_err());
    }

    #[test]
    fn header_amortization_is_real() {
        // 64 packed 16-byte reads: request package overhead per request is
        // ~4.4 bytes, versus >= 20 bytes unpacked (header+addr per read).
        let offsets: Vec<u32> = (0..64u32).map(|i| i * 16).collect();
        let p = ReadRequestPackage::new(0, 0, &offsets, 16).unwrap();
        let per_request = p.wire_bytes() as f64 / 64.0;
        assert!(per_request < 6.0, "per-request overhead {per_request}");
    }

    #[test]
    fn truncated_buffers_rejected() {
        assert!(ReadRequestPackage::decode(&[1, 2, 3]).is_err());
        assert!(ReadResponsePackage::decode(&[2]).is_err());
    }

    #[test]
    fn write_round_trips_and_addresses() {
        let offsets = [0u32, 16, 32];
        let data: Vec<u8> = (0..48).collect();
        let w = WriteRequestPackage::new(5, 0x9000, &offsets, 16, data).unwrap();
        assert_eq!(w.request_count(), 3);
        assert_eq!(w.address(2), 0x9020);
        assert_eq!(w.payload(1), &(16..32).collect::<Vec<u8>>()[..]);
        let bytes = w.encode();
        assert_eq!(bytes.len() as u64, w.wire_bytes());
        assert_eq!(WriteRequestPackage::decode(&bytes).unwrap(), w);
        // Corruption detected.
        let mut bad = bytes.clone();
        bad[20] ^= 0x55;
        assert_eq!(
            WriteRequestPackage::decode(&bad),
            Err(MofError::CrcMismatch)
        );
    }

    #[test]
    fn write_payload_length_enforced() {
        assert_eq!(
            WriteRequestPackage::new(0, 0, &[0, 8], 8, vec![0; 15]),
            Err(MofError::Malformed("write payload length mismatch"))
        );
        assert_eq!(
            WriteRequestPackage::new(0, 0, &[], 8, vec![]),
            Err(MofError::EmptyPackage)
        );
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn pack_span_at_exactly_offset_range_stays_whole() {
        // max - min == u32::MAX is representable: one package.
        let packed = pack_read_requests(&[0, 500, u32::MAX as u64], 8, 0);
        assert_eq!(packed.packages.len(), 1);
        assert_eq!(packed.overflow_splits, 0);
        assert_eq!(packed.packages[0].base_address, 0);
        assert_eq!(packed.packages[0].offsets, vec![0, 500, u32::MAX]);
    }

    #[test]
    fn pack_span_one_past_offset_range_splits() {
        // One byte beyond the 4-byte offset range must split, not error.
        let packed = pack_read_requests(&[0, u32::MAX as u64 + 1], 8, 7);
        assert_eq!(packed.packages.len(), 2);
        assert_eq!(packed.overflow_splits, 1);
        assert_eq!(packed.packages[0].seq, 7);
        assert_eq!(packed.packages[1].seq, 8);
        assert_eq!(packed.packages[1].base_address, u32::MAX as u64 + 1);
        assert_eq!(packed.requests, 2);
        for (i, &addr) in [0u64, u32::MAX as u64 + 1].iter().enumerate() {
            assert_eq!(packed.packages[i].address(0), addr);
        }
    }

    #[test]
    fn pack_rebases_when_a_smaller_address_arrives() {
        // Arrival order is not address order: the base shifts down and
        // existing offsets shift up, as long as the span still fits.
        let packed = pack_read_requests(&[1000, 4000, 200], 8, 0);
        assert_eq!(packed.packages.len(), 1);
        let p = &packed.packages[0];
        assert_eq!(p.base_address, 200);
        assert_eq!(p.offsets, vec![800, 3800, 0]);
        for (i, &addr) in [1000u64, 4000, 200].iter().enumerate() {
            assert_eq!(p.address(i), addr);
        }
    }

    #[test]
    fn pack_capacity_split_is_not_an_overflow_split() {
        let addrs: Vec<u64> = (0..65).map(|i| i * 8).collect();
        let packed = pack_read_requests(&addrs, 8, 0);
        assert_eq!(packed.packages.len(), 2);
        assert_eq!(packed.overflow_splits, 0);
        assert_eq!(packed.packages[0].request_count(), 64);
        assert_eq!(packed.packages[1].request_count(), 1);
        assert!((packed.occupancy() - 65.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn pack_empty_stream_yields_no_packages() {
        let packed = pack_read_requests(&[], 8, 0);
        assert!(packed.packages.is_empty());
        assert_eq!(packed.wire_bytes(), 0);
        assert_eq!(packed.occupancy(), 0.0);
    }

    #[test]
    fn sizing_sink_agrees_with_the_package_sink() {
        // Streams that rebase, fill packages and overflow the offset
        // range: both sinks ride the same walk, so every total matches.
        let far = u32::MAX as u64 + 1;
        let streams: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            (0..200)
                .map(|i| 0xAA00_0000 + (i * 7919) % 4096 * 72)
                .collect(),
            (0..150).map(|i| (i % 3) * far + (150 - i) * 8).collect(),
            vec![1000, 4000, 200, far + 1000, far + 200, 0],
        ];
        for addrs in streams {
            let packed = pack_read_requests(&addrs, 8, 0);
            let size = packed_request_size(addrs.iter().copied());
            assert_eq!(size.packages, packed.packages.len() as u64);
            assert_eq!(size.requests, packed.requests);
            assert_eq!(size.overflow_splits, packed.overflow_splits);
            assert_eq!(size.wire_bytes, packed.wire_bytes());
        }
    }

    #[test]
    fn packed_packages_encode_and_decode() {
        let addrs: Vec<u64> = (0..100).map(|i| 0xAA00_0000 + i * 72).collect();
        let packed = pack_read_requests(&addrs, 64, 3);
        let mut recovered = Vec::new();
        for p in &packed.packages {
            let rt = ReadRequestPackage::decode(&p.encode()).unwrap();
            for i in 0..rt.request_count() {
                recovered.push(rt.address(i));
            }
        }
        assert_eq!(recovered, addrs);
    }
}
