//! Property-based and failure-injection tests for the MoF protocol:
//! codec fuzzing, reliability under arbitrary loss patterns, and packing
//! accounting invariants.

use lsdgnn_mof::frame::crc32;
use lsdgnn_mof::{
    bdi_compress, bdi_decompress, CompressedBlock, MofError, PackingScheme, ReadRequestPackage,
    ReadResponsePackage, ReliableChannel, WriteRequestPackage,
};
use proptest::prelude::*;

/// `frame` through each of the three decoders, every accepted package
/// encoded again: read request, read response, write request.
fn decode_all(frame: &[u8]) -> [Result<Vec<u8>, MofError>; 3] {
    [
        ReadRequestPackage::decode(frame).map(|p| p.encode()),
        ReadResponsePackage::decode(frame).map(|p| p.encode()),
        WriteRequestPackage::decode(frame).map(|p| p.encode()),
    ]
}

/// A block of any variant from raw picks: `shape` chooses the variant
/// (Raw, BaseDelta, SignedBaseDelta), where the base sits (anywhere,
/// near 0, near `u64::MAX`), the delta width (mostly one `bdi_compress`
/// emits, one time in four 3, 5, 8 or 255), whether each delta is masked
/// to that width (so most blocks get past the width check) and whether
/// the delta count is `count` or one more.
fn arbitrary_block(shape: u64, count: usize, raw: &[u64]) -> CompressedBlock {
    let base = match (shape >> 2) % 3 {
        0 => raw[0],
        1 => raw[0] % 300,
        _ => u64::MAX - raw[0] % 300,
    };
    let width = [0u8, 1, 2, 4, 0, 1, 2, 4, 0, 1, 2, 4, 3, 5, 8, 255][(shape >> 4) as usize % 16];
    let masked = !(shape >> 8).is_multiple_of(4);
    let len = if (shape >> 10).is_multiple_of(4) {
        count + 1
    } else {
        count
    }
    .min(raw.len());
    let bits = 8 * u32::from(width);
    let fit = |w: u64| -> u64 {
        if masked && bits < 64 {
            w & ((1u64 << bits) - 1)
        } else {
            w
        }
    };
    match shape % 3 {
        0 => CompressedBlock::Raw(raw[..count.min(raw.len())].to_vec()),
        1 => CompressedBlock::BaseDelta {
            base,
            delta_width: width,
            deltas: if width == 0 && masked {
                Vec::new()
            } else {
                raw[..len].iter().map(|&w| fit(w) as u32).collect()
            },
            count,
        },
        _ => CompressedBlock::SignedBaseDelta {
            base,
            delta_width: width,
            // Masked to the width, then sign-extended from its top bit.
            deltas: raw[..len]
                .iter()
                .map(|&w| {
                    let d = fit(w) as u32;
                    if masked && (1..32).contains(&bits) {
                        ((d << (32 - bits)) as i32) >> (32 - bits)
                    } else {
                        d as i32
                    }
                })
                .collect(),
            count,
        },
    }
}

proptest! {
    /// Any block, consistent or not, never panics `bdi_decompress`:
    /// it is refused as `Malformed` or decompresses to `count` words
    /// that survive a compress/decompress round trip unchanged.
    #[test]
    fn bdi_decompress_never_panics_on_any_block(
        shapes in proptest::collection::vec(any::<u64>(), 8),
        count in 0usize..257,
        raw in proptest::collection::vec(any::<u64>(), 257),
    ) {
        for shape in shapes {
            match bdi_decompress(&arbitrary_block(shape, count, &raw)) {
                Err(MofError::Malformed(_)) => {}
                Err(other) => prop_assert!(false, "unexpected error {:?}", other),
                Ok(words) => {
                    prop_assert_eq!(words.len(), count);
                    if !words.is_empty() {
                        prop_assert_eq!(bdi_decompress(&bdi_compress(&words)).unwrap(), words);
                    }
                }
            }
        }
    }

    /// Arbitrary byte soup never panics the decoders, and whatever one
    /// accepts re-encodes to exactly the bytes it was given.
    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        for reencoded in decode_all(&bytes).into_iter().flatten() {
            prop_assert_eq!(reencoded, bytes.clone());
        }
    }

    /// Past the CRC check: an arbitrary body under a valid CRC — the
    /// common 8-byte header (kind, count - 1, request size, sequence)
    /// followed either by exactly the tail that kind, count and size
    /// call for, or by an arbitrary one. Every decoder returns `Err` or
    /// a package that re-encodes to the same bytes, and a well-formed
    /// body of a known kind is accepted by its own decoder alone.
    #[test]
    fn decoders_round_trip_every_body_they_accept(
        kind_pick in 0u8..4,
        any_kind in any::<u8>(),
        count_m1 in any::<u8>(),
        request_bytes in 0u16..16,
        seq in any::<u32>(),
        exact in any::<bool>(),
        seed in any::<u8>(),
        tail in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        // Three picks in four are a known kind, the fourth any byte.
        let kind = if kind_pick < 3 { kind_pick + 1 } else { any_kind };
        let (count, size) = (usize::from(count_m1) + 1, usize::from(request_bytes));
        let mut frame = vec![kind, count_m1];
        frame.extend_from_slice(&request_bytes.to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        let well_formed = exact && (1..=3).contains(&kind);
        if well_formed {
            let len = match kind {
                1 => 8 + 4 * count,
                2 => count * size,
                _ => 8 + 4 * count + count * size,
            };
            frame.extend((0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed));
        } else {
            frame.extend_from_slice(&tail);
        }
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        let decoded = decode_all(&frame);
        for reencoded in decoded.iter().flatten() {
            prop_assert_eq!(reencoded, &frame);
        }
        // A zero request size carries no data, which a response (and a
        // single-write package) is too short to frame.
        if well_formed && (kind == 1 || size > 0) {
            let accepted: Vec<bool> = decoded.iter().map(Result::is_ok).collect();
            let want: Vec<bool> = (1..=3).map(|k| k == kind).collect();
            prop_assert_eq!(accepted, want);
        }
    }

    /// Request packages round-trip for arbitrary valid contents.
    #[test]
    fn request_round_trips(
        seq in any::<u32>(),
        base in any::<u64>(),
        offsets in proptest::collection::vec(any::<u32>(), 1..=64),
        req_bytes in 1u16..1024,
    ) {
        let pkg = ReadRequestPackage::new(seq, base, &offsets, req_bytes).unwrap();
        let decoded = ReadRequestPackage::decode(&pkg.encode()).unwrap();
        prop_assert_eq!(decoded, pkg);
    }

    /// Response packages round-trip for arbitrary payloads.
    #[test]
    fn response_round_trips(
        seq in any::<u32>(),
        count in 1usize..=64,
        req_bytes in 1u16..128,
        seed in any::<u8>(),
    ) {
        let data: Vec<u8> = (0..count * req_bytes as usize)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect();
        let pkg = ReadResponsePackage::new(seq, req_bytes, data).unwrap();
        let decoded = ReadResponsePackage::decode(&pkg.encode()).unwrap();
        prop_assert_eq!(decoded, pkg);
    }

    /// Single-bit corruption anywhere in a frame is always detected.
    #[test]
    fn single_bit_flips_detected(
        offsets in proptest::collection::vec(any::<u32>(), 1..=16),
        bit in 0usize..64,
    ) {
        let pkg = ReadRequestPackage::new(7, 0x1000, &offsets, 8).unwrap();
        let mut bytes = pkg.encode();
        let pos = bit % (bytes.len() * 8);
        bytes[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(ReadRequestPackage::decode(&bytes).is_err());
    }

    /// Go-back-N delivers everything exactly once, in order, under any
    /// loss pattern that is not total.
    #[test]
    fn reliability_under_arbitrary_loss(
        frames in 1usize..60,
        window in 1usize..12,
        loss_pattern in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let mut ch: ReliableChannel<usize> = ReliableChannel::new(window);
        for i in 0..frames {
            ch.push(i);
        }
        let mut tick = 0usize;
        ch.run(|_| {
            tick += 1;
            // A repeating, not-always-true pattern: drops at most
            // len-1 of every len transmissions.
            loss_pattern[tick % loss_pattern.len()] && !tick.is_multiple_of(loss_pattern.len())
        });
        prop_assert_eq!(ch.received(), &(0..frames).collect::<Vec<_>>()[..]);
        prop_assert!(ch.transmissions() >= frames as u64);
    }

    /// Packing accounting: fractions always partition the total, MoF
    /// never uses more packages than Gen-Z, and utilization grows with
    /// request size.
    #[test]
    fn packing_invariants(n in 1u64..1_000, bytes in 1u64..2_048) {
        for scheme in [PackingScheme::GenZ, PackingScheme::Mof] {
            let b = scheme.breakdown(n, bytes);
            let sum = b.header_fraction() + b.address_fraction() + b.data_fraction();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert_eq!(b.data_bytes, n * bytes);
        }
        let g = PackingScheme::GenZ.breakdown(n, bytes);
        let m = PackingScheme::Mof.breakdown(n, bytes);
        prop_assert!(m.request_packages <= g.request_packages);
        prop_assert!(m.data_fraction() >= g.data_fraction() - 1e-9);
    }
}
