//! Base-Delta-Immediate (BDI) compression (§4.3 Tech-2, Table 6).
//!
//! Fine-grained remote reads make the *request* side (64-bit addresses) as
//! expensive as the data itself, so MoF compresses both: a block of 64-bit
//! words is stored as one 8-byte base plus per-word deltas of 0, 1, 2 or 4
//! bytes — whichever is the narrowest that fits. Incompressible blocks fall
//! back to raw.

use crate::MofError;

/// A BDI-compressed block of 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressedBlock {
    /// Incompressible: stored verbatim.
    Raw(Vec<u64>),
    /// Base + fixed-width unsigned deltas.
    BaseDelta {
        /// The block's first word, used as the base.
        base: u64,
        /// Bytes per delta: 0 (all words equal), 1, 2 or 4.
        delta_width: u8,
        /// Deltas of each word from `base` (empty when `delta_width == 0`
        /// except for the implicit count).
        deltas: Vec<u32>,
        /// Number of words in the block.
        count: usize,
    },
    /// Base + fixed-width *signed* deltas — covers blocks whose first
    /// word is not the minimum (locality-relabeled neighbor lists keep
    /// their original relative order, so ids dip below the list head;
    /// standard BDI handles this with two's-complement deltas).
    SignedBaseDelta {
        /// The block's first word, used as the base.
        base: u64,
        /// Bytes per delta: 1, 2 or 4.
        delta_width: u8,
        /// Signed deltas of each word from `base`.
        deltas: Vec<i32>,
        /// Number of words in the block.
        count: usize,
    },
}

impl CompressedBlock {
    /// Encoded size in bytes: 1 metadata byte, then either raw words or
    /// base + deltas.
    pub fn compressed_bytes(&self) -> u64 {
        match self {
            CompressedBlock::Raw(words) => 1 + 8 * words.len() as u64,
            CompressedBlock::BaseDelta {
                delta_width, count, ..
            }
            | CompressedBlock::SignedBaseDelta {
                delta_width, count, ..
            } => 1 + 8 + *delta_width as u64 * *count as u64,
        }
    }

    /// Size of the uncompressed block in bytes.
    pub fn original_bytes(&self) -> u64 {
        match self {
            CompressedBlock::Raw(words) => 8 * words.len() as u64,
            CompressedBlock::BaseDelta { count, .. }
            | CompressedBlock::SignedBaseDelta { count, .. } => 8 * *count as u64,
        }
    }

    /// Compression ratio (compressed / original); > 1 means expansion.
    pub fn ratio(&self) -> f64 {
        self.compressed_bytes() as f64 / self.original_bytes() as f64
    }

    /// Savings ratio (original / compressed); ≥ 1 means the block
    /// genuinely shrank. Raw blocks report slightly below 1 (the honest
    /// metadata byte).
    pub fn savings_ratio(&self) -> f64 {
        self.original_bytes() as f64 / self.compressed_bytes() as f64
    }
}

/// Compresses a block of 64-bit words with BDI.
///
/// # Panics
///
/// Panics if `words` is empty.
pub fn bdi_compress(words: &[u64]) -> CompressedBlock {
    assert!(!words.is_empty(), "cannot compress an empty block");
    let base = words[0];
    let Some((delta_width, signed)) = delta_encoding(words.iter().copied()) else {
        return CompressedBlock::Raw(words.to_vec());
    };
    let compressed = 1 + 8 + delta_width as u64 * words.len() as u64;
    if compressed >= 8 * words.len() as u64 {
        return CompressedBlock::Raw(words.to_vec());
    }
    if signed {
        CompressedBlock::SignedBaseDelta {
            base,
            delta_width,
            deltas: words
                .iter()
                .map(|&w| (w as i128 - base as i128) as i32)
                .collect(),
            count: words.len(),
        }
    } else {
        CompressedBlock::BaseDelta {
            base,
            delta_width,
            deltas: if delta_width == 0 {
                Vec::new()
            } else {
                words.iter().map(|&w| (w - base) as u32).collect()
            },
            count: words.len(),
        }
    }
}

/// The narrowest delta encoding covering `words` against a first-word
/// base: `Some((width_bytes, signed))` with widths 0 (all equal), 1, 2
/// or 4, preferring unsigned at equal width (the cheaper datapath), or
/// `None` when some delta exceeds 32 bits either way.
///
/// Every width needs all deltas inside `[-2^31, 2^32)`, so the walk
/// stops at the first word outside it and pulls no further word from
/// the iterator — on float attribute lines (two `f32` per word, packed
/// on demand) that is almost always the second word — and the surviving
/// deltas fit `i64` exactly.
fn delta_encoding(mut words: impl Iterator<Item = u64>) -> Option<(u8, bool)> {
    let base = words.next().expect("cannot size an empty block");
    let mut min_d = 0i64;
    let mut max_d = 0i64;
    for w in words {
        let d = if w >= base {
            let up = w - base;
            if up >= 1 << 32 {
                return None;
            }
            up as i64
        } else {
            let down = base - w;
            if down > 1 << 31 {
                return None;
            }
            -(down as i64)
        };
        min_d = min_d.min(d);
        max_d = max_d.max(d);
    }
    if min_d == 0 && max_d == 0 {
        return Some((0, false));
    }
    for width in [1u8, 2, 4] {
        let bits = 8 * width as u32;
        if min_d >= 0 && max_d < (1i64 << bits) {
            return Some((width, false));
        }
        if min_d >= -(1i64 << (bits - 1)) && max_d < (1i64 << (bits - 1)) {
            return Some((width, true));
        }
    }
    None
}

/// Decompresses a block back to its words.
///
/// # Errors
///
/// Returns [`MofError::Malformed`] if the block is inconsistent: its
/// delta count differs from its word count, its delta width is not one
/// [`bdi_compress`] emits, a delta does not fit that width, or a delta
/// carries its word outside `u64`.
pub fn bdi_decompress(block: &CompressedBlock) -> Result<Vec<u64>, MofError> {
    match block {
        CompressedBlock::Raw(words) => Ok(words.clone()),
        CompressedBlock::BaseDelta {
            base,
            delta_width,
            deltas,
            count,
        } => {
            if !matches!(delta_width, 0 | 1 | 2 | 4) {
                return Err(MofError::Malformed("bad delta width"));
            }
            if *delta_width == 0 {
                return if deltas.is_empty() {
                    Ok(vec![*base; *count])
                } else {
                    Err(MofError::Malformed("delta count mismatch"))
                };
            }
            if deltas.len() != *count {
                return Err(MofError::Malformed("delta count mismatch"));
            }
            let bits = 8 * u32::from(*delta_width);
            deltas
                .iter()
                .map(|&d| {
                    if bits < 32 && d >> bits != 0 {
                        return Err(MofError::Malformed("delta wider than its width"));
                    }
                    base.checked_add(u64::from(d))
                        .ok_or(MofError::Malformed("delta overflows base"))
                })
                .collect()
        }
        CompressedBlock::SignedBaseDelta {
            base,
            delta_width,
            deltas,
            count,
        } => {
            if !matches!(delta_width, 1 | 2 | 4) {
                return Err(MofError::Malformed("bad delta width"));
            }
            if deltas.len() != *count {
                return Err(MofError::Malformed("delta count mismatch"));
            }
            let bits = 8 * u32::from(*delta_width);
            deltas
                .iter()
                .map(|&d| {
                    let half = 1i64 << (bits - 1);
                    if !(-half..half).contains(&i64::from(d)) {
                        return Err(MofError::Malformed("delta wider than its width"));
                    }
                    base.checked_add_signed(i64::from(d))
                        .ok_or(MofError::Malformed("delta overflows base"))
                })
                .collect()
        }
    }
}

/// Compresses a byte buffer interpreted as little-endian u64 words
/// (zero-padded tail), returning the compressed byte count — the
/// Table 6 accounting helper.
///
/// # Panics
///
/// Panics if `bytes` is empty.
pub fn bdi_compressed_bytes(bytes: &[u8]) -> u64 {
    assert!(!bytes.is_empty(), "cannot compress an empty buffer");
    let words: Vec<u64> = bytes
        .chunks(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        })
        .collect();
    bdi_compress(&words).compressed_bytes()
}

/// Words per BDI line: 8 × u64 = one 64-byte memory line, the
/// granularity hardware BDI compresses at.
pub const BDI_LINE_WORDS: usize = 8;

/// Encoded size in bytes of `words` as one BDI block, without
/// materializing the block: the better of base+delta (when an encoding
/// exists) and the 1-byte-tagged raw fallback. Matches
/// [`CompressedBlock::compressed_bytes`] for the same input.
pub fn bdi_block_bytes(words: &[u64]) -> u64 {
    line_bytes(words.iter().copied())
}

/// [`bdi_block_bytes`] of a line whose words are produced on demand: a
/// line no delta width covers is charged raw without its tail being built.
fn line_bytes(words: impl ExactSizeIterator<Item = u64>) -> u64 {
    let n = words.len() as u64;
    assert!(n > 0, "cannot size an empty block");
    let raw = 1 + 8 * n;
    match delta_encoding(words) {
        Some((width, _)) => raw.min(1 + 8 + width as u64 * n),
        None => raw,
    }
}

/// Allocation-free BDI accountant for a payload handed over as *lines*
/// of at most [`BDI_LINE_WORDS`] lazily produced words (the hardware
/// compresses per memory line, not per message): sizes each line
/// independently and returns `(raw_bytes, compressed_bytes)`. This is
/// what the serving path charges the wire with — measured on the actual
/// response payload, with the raw fallback's expansion honestly included.
pub fn bdi_stream_bytes<L>(lines: impl Iterator<Item = L>) -> (u64, u64)
where
    L: ExactSizeIterator<Item = u64>,
{
    lines.fold((0, 0), |(raw, wire), line| {
        (raw + 8 * line.len() as u64, wire + line_bytes(line))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The slice form the tests below were written against.
    fn delta_encoding(words: &[u64]) -> Option<(u8, bool)> {
        super::delta_encoding(words.iter().copied())
    }

    /// The eager accountant [`bdi_stream_bytes`] replaced, kept as its
    /// reference: buffers every word of a line before sizing it.
    #[derive(Debug, Clone, Default)]
    struct BdiStreamSizer {
        buf: [u64; BDI_LINE_WORDS],
        len: usize,
        raw_bytes: u64,
        wire_bytes: u64,
    }

    impl BdiStreamSizer {
        fn new() -> Self {
            Self::default()
        }

        fn push(&mut self, w: u64) {
            self.buf[self.len] = w;
            self.len += 1;
            self.raw_bytes += 8;
            if self.len == BDI_LINE_WORDS {
                self.wire_bytes += bdi_block_bytes(&self.buf);
                self.len = 0;
            }
        }

        fn finish(mut self) -> (u64, u64) {
            if self.len > 0 {
                self.wire_bytes += bdi_block_bytes(&self.buf[..self.len]);
            }
            (self.raw_bytes, self.wire_bytes)
        }
    }

    /// Two `f32` per word, a lone trailing float zero-extended — how
    /// attribute rows cross the wire.
    fn pack_floats(c: &[f32]) -> u64 {
        let lo = c[0].to_bits() as u64;
        let hi = c.get(1).map_or(0, |v| v.to_bits()) as u64;
        lo | (hi << 32)
    }

    /// `words` through the eager reference accountant.
    fn eager_stream_bytes(words: impl Iterator<Item = u64>) -> (u64, u64) {
        let mut sizer = BdiStreamSizer::new();
        words.for_each(|w| sizer.push(w));
        sizer.finish()
    }

    #[test]
    fn line_sizer_stops_building_words_once_no_width_fits() {
        // A float line is rejected at its second word: the lazy sizer
        // must not pull the other six from the iterator.
        let floats: Vec<f32> = (0..16).map(|i| 0.37 * i as f32 - 2.0).collect();
        let built = std::cell::Cell::new(0);
        let line = floats.chunks(2).map(|c| {
            built.set(built.get() + 1);
            pack_floats(c)
        });
        assert_eq!(bdi_stream_bytes(std::iter::once(line)), (64, 65));
        assert_eq!(built.get(), 2);
        assert_eq!(
            bdi_stream_bytes(std::iter::empty::<std::vec::IntoIter<u64>>()),
            (0, 0)
        );
    }

    /// [`delta_encoding`] as it was first written: every word's delta in
    /// `i128`, the range checked once at the end. The early-exit walk is
    /// held against it.
    fn delta_encoding_full_walk(words: &[u64]) -> Option<(u8, bool)> {
        let base = words[0] as i128;
        let mut min_d = 0i128;
        let mut max_d = 0i128;
        for &w in words {
            let d = w as i128 - base;
            min_d = min_d.min(d);
            max_d = max_d.max(d);
        }
        if min_d == 0 && max_d == 0 {
            return Some((0, false));
        }
        for width in [1u8, 2, 4] {
            let bits = 8 * width as u32;
            if min_d >= 0 && max_d < (1i128 << bits) {
                return Some((width, false));
            }
            if min_d >= -(1i128 << (bits - 1)) && max_d < (1i128 << (bits - 1)) {
                return Some((width, true));
            }
        }
        None
    }

    /// A delta on or next to a width boundary (1-, 2-, 4-byte, signed
    /// and unsigned) for `edge < 12`, anywhere at all otherwise.
    fn boundary_delta(edge: usize, off: u8, far: u64, neg: bool) -> i128 {
        const EDGES: [i128; 12] = [
            0,
            1 << 7,
            1 << 8,
            1 << 15,
            1 << 16,
            1 << 31,
            1 << 32,
            -(1 << 7),
            -(1 << 8),
            -(1 << 15),
            -(1 << 31),
            -(1 << 32),
        ];
        match EDGES.get(edge) {
            Some(&e) => e + i128::from(off) - 2,
            None if neg => -i128::from(far),
            None => i128::from(far),
        }
    }

    /// `base + delta`, clamped into `u64`.
    fn offset_word(base: u64, delta: i128) -> u64 {
        (i128::from(base) + delta).clamp(0, i128::from(u64::MAX)) as u64
    }

    #[test]
    fn early_exit_agrees_on_every_pair_of_boundary_deltas() {
        // Every two-delta line over {each width boundary} x {-2..=2},
        // from a base in the middle and one near each end of u64.
        let boundary: Vec<i128> = (0..12)
            .flat_map(|edge| (0..5).map(move |off| boundary_delta(edge, off, 0, false)))
            .collect();
        for base in [1u64 << 40, 3, u64::MAX - 3] {
            for &d1 in &boundary {
                for &d2 in &boundary {
                    let words = [base, offset_word(base, d1), offset_word(base, d2)];
                    assert_eq!(
                        delta_encoding(&words),
                        delta_encoding_full_walk(&words),
                        "words {words:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_block_compresses_to_base_only() {
        let block = bdi_compress(&[42; 64]);
        assert_eq!(block.compressed_bytes(), 9);
        assert_eq!(bdi_decompress(&block).unwrap(), vec![42; 64]);
    }

    #[test]
    fn delta_overflowing_base_is_malformed() {
        let block = CompressedBlock::BaseDelta {
            base: u64::MAX,
            delta_width: 1,
            deltas: vec![1],
            count: 1,
        };
        assert!(matches!(
            bdi_decompress(&block),
            Err(MofError::Malformed(_))
        ));
        let block = CompressedBlock::SignedBaseDelta {
            base: 0,
            delta_width: 1,
            deltas: vec![-1],
            count: 1,
        };
        assert!(matches!(
            bdi_decompress(&block),
            Err(MofError::Malformed(_))
        ));
    }

    #[test]
    fn width_bdi_compress_never_emits_is_malformed() {
        for delta_width in [3u8, 5, 8] {
            let block = CompressedBlock::BaseDelta {
                base: 7,
                delta_width,
                deltas: vec![1],
                count: 1,
            };
            assert!(matches!(
                bdi_decompress(&block),
                Err(MofError::Malformed(_))
            ));
        }
        for delta_width in [0u8, 3] {
            let block = CompressedBlock::SignedBaseDelta {
                base: 7,
                delta_width,
                deltas: vec![1],
                count: 1,
            };
            assert!(matches!(
                bdi_decompress(&block),
                Err(MofError::Malformed(_))
            ));
        }
    }

    #[test]
    fn delta_wider_than_its_width_is_malformed() {
        let block = CompressedBlock::BaseDelta {
            base: 7,
            delta_width: 1,
            deltas: vec![1, 256],
            count: 2,
        };
        assert!(matches!(
            bdi_decompress(&block),
            Err(MofError::Malformed(_))
        ));
        let block = CompressedBlock::SignedBaseDelta {
            base: 1 << 40,
            delta_width: 2,
            deltas: vec![-1, -32_769],
            count: 2,
        };
        assert!(matches!(
            bdi_decompress(&block),
            Err(MofError::Malformed(_))
        ));
        let block = CompressedBlock::BaseDelta {
            base: 7,
            delta_width: 0,
            deltas: vec![1],
            count: 1,
        };
        assert!(matches!(
            bdi_decompress(&block),
            Err(MofError::Malformed(_))
        ));
    }

    #[test]
    fn small_deltas_pick_one_byte() {
        let words: Vec<u64> = (0..64).map(|i| 1_000_000 + i).collect();
        let block = bdi_compress(&words);
        assert_eq!(block.compressed_bytes(), 1 + 8 + 64);
        assert!(block.ratio() < 0.15);
        assert_eq!(bdi_decompress(&block).unwrap(), words);
    }

    #[test]
    fn medium_deltas_pick_two_bytes() {
        let words: Vec<u64> = (0..64).map(|i| 5_000 + i * 300).collect();
        let block = bdi_compress(&words);
        assert_eq!(block.compressed_bytes(), 1 + 8 + 128);
        assert_eq!(bdi_decompress(&block).unwrap(), words);
    }

    #[test]
    fn random_data_falls_back_to_raw() {
        // Values spanning > 32-bit deltas cannot compress.
        let words = vec![0u64, u64::MAX / 2, 3, u64::MAX - 10];
        let block = bdi_compress(&words);
        assert!(matches!(block, CompressedBlock::Raw(_)));
        assert_eq!(block.compressed_bytes(), 1 + 32);
        assert_eq!(bdi_decompress(&block).unwrap(), words);
    }

    #[test]
    fn descending_first_word_compresses_signed() {
        // base = first word; earlier-smaller values need signed deltas
        // (order-preserved relabeled neighbor lists look exactly like
        // this). 3 words -> 1 + 8 + 3 = 12 bytes vs 24 raw.
        let words = vec![100u64, 5, 7];
        let block = bdi_compress(&words);
        assert!(matches!(
            block,
            CompressedBlock::SignedBaseDelta { delta_width: 1, .. }
        ));
        assert_eq!(block.compressed_bytes(), 12);
        assert_eq!(bdi_decompress(&block).unwrap(), words);
    }

    #[test]
    fn signed_prefers_unsigned_at_equal_width() {
        // Monotone-up small deltas still take the unsigned path.
        let words: Vec<u64> = (0..16).map(|i| 50 + i).collect();
        let block = bdi_compress(&words);
        assert!(matches!(
            block,
            CompressedBlock::BaseDelta { delta_width: 1, .. }
        ));
    }

    #[test]
    fn signed_width_boundaries() {
        // Delta of exactly i8::MIN fits width 1; one below needs 2.
        let w1 = vec![1000u64, 1000 - 128];
        assert!(matches!(
            bdi_compress(&w1),
            CompressedBlock::SignedBaseDelta { delta_width: 1, .. }
        ));
        let w2 = vec![1000u64, 1000 - 129, 5000];
        assert!(matches!(
            bdi_compress(&w2),
            CompressedBlock::SignedBaseDelta { delta_width: 2, .. }
        ));
        for w in [w1, w2] {
            assert_eq!(bdi_decompress(&bdi_compress(&w)).unwrap(), w);
        }
    }

    #[test]
    fn stream_sizer_matches_per_line_blocks() {
        // 20 words = two full 8-word lines + a 4-word tail.
        let words: Vec<u64> = (0..20).map(|i| 0x1000 + i * 3).collect();
        let mut sizer = BdiStreamSizer::new();
        for &w in &words {
            sizer.push(w);
        }
        let (raw, wire) = sizer.finish();
        assert_eq!(raw, 160);
        let expect: u64 = words.chunks(BDI_LINE_WORDS).map(bdi_block_bytes).sum();
        assert_eq!(wire, expect);
        assert!(wire < raw);
    }

    #[test]
    fn block_bytes_agrees_with_compressor() {
        for words in [
            vec![42u64; 8],
            (0..8).map(|i| 1_000_000 + i).collect(),
            vec![100u64, 5, 7],
            vec![0u64, u64::MAX / 2, 3, u64::MAX - 10],
        ] {
            assert_eq!(
                bdi_block_bytes(&words),
                bdi_compress(&words).compressed_bytes(),
                "words {words:?}"
            );
        }
    }

    #[test]
    fn table6_style_address_block() {
        // 128 sampling addresses in one region: 8-byte addrs with
        // cache-line-ish strides compress ~4x or better.
        let addrs: Vec<u64> = (0..128).map(|i| 0x7F00_0000_0000 + i * 72).collect();
        let block = bdi_compress(&addrs);
        assert!(
            block.compressed_bytes() <= 1 + 8 + 2 * 128,
            "address block {} bytes",
            block.compressed_bytes()
        );
        assert!(block.ratio() < 0.3);
    }

    #[test]
    fn byte_api_counts() {
        let bytes = vec![7u8; 64];
        // 8 constant words -> 9 bytes.
        assert_eq!(bdi_compressed_bytes(&bytes), 9);
    }

    proptest! {
        #[test]
        fn early_exit_picks_the_encoding_the_full_walk_picks(
            base in (0u8..3, any::<u64>()),
            deltas in proptest::collection::vec((0usize..14, 0u8..5, any::<u64>(), any::<bool>()), 0..12),
            random in proptest::collection::vec(any::<u64>(), 1..12),
        ) {
            // A base near either end of u64 or anywhere, a line of words
            // at boundary deltas from it (clamped into u64), and an
            // arbitrary line.
            let base = match base {
                (0, raw) => raw >> 31,
                (1, raw) => u64::MAX - (raw >> 31),
                (_, raw) => raw,
            };
            let mut line = vec![base];
            line.extend(deltas.iter().map(|&(edge, off, far, neg)| {
                offset_word(base, boundary_delta(edge, off, far, neg))
            }));
            for words in [&line, &random] {
                prop_assert_eq!(
                    delta_encoding(words),
                    delta_encoding_full_walk(words),
                    "words {:?}",
                    words
                );
            }
        }

        #[test]
        fn roundtrip_any_block(words in proptest::collection::vec(any::<u64>(), 1..128)) {
            let block = bdi_compress(&words);
            prop_assert_eq!(bdi_decompress(&block).unwrap(), words.clone());
            // Never catastrophically expand: 1 metadata byte at most.
            prop_assert!(block.compressed_bytes() <= 8 * words.len() as u64 + 1);
        }

        #[test]
        fn roundtrip_local_blocks(base in 0u64..u64::MAX/2, strides in proptest::collection::vec(0u64..512, 1..64)) {
            let mut words = Vec::new();
            let mut cur = base;
            for s in strides {
                words.push(cur);
                cur += s;
            }
            let block = bdi_compress(&words);
            prop_assert_eq!(bdi_decompress(&block).unwrap(), words);
        }

        // Adversarial payload classes from the serving path. Each pins
        // (a) lossless round-trip, (b) honest size accounting: a block
        // claiming savings (savings_ratio >= 1.0) must not be Raw, and
        // no block understates its encoded size.
        #[test]
        fn adversarial_all_equal(w in any::<u64>(), n in 1usize..256) {
            let words = vec![w; n];
            let block = bdi_compress(&words);
            prop_assert_eq!(bdi_decompress(&block).unwrap(), words);
            prop_assert_eq!(block.compressed_bytes(), 9);
            if n > 1 {
                prop_assert!(block.savings_ratio() >= 1.0);
            }
        }

        #[test]
        fn adversarial_random(words in proptest::collection::vec(any::<u64>(), 1..256)) {
            let block = bdi_compress(&words);
            prop_assert_eq!(bdi_decompress(&block).unwrap(), words.clone());
            // Accounting honesty: savings claims require a delta encoding.
            if block.savings_ratio() >= 1.0 {
                prop_assert!(!matches!(block, CompressedBlock::Raw(_)));
            }
            prop_assert!(block.compressed_bytes() >= 9u64.min(1 + 8 * words.len() as u64));
        }

        #[test]
        fn adversarial_monotone_id_runs(start in 0u64..1_000_000_000, step in 1u64..64, n in 2usize..256) {
            // Relabeled neighbor-id runs: monotone with small strides —
            // the case locality reordering manufactures. Must compress.
            let words: Vec<u64> = (0..n as u64).map(|i| start + i * step).collect();
            let block = bdi_compress(&words);
            prop_assert_eq!(bdi_decompress(&block).unwrap(), words);
            if n >= 3 {
                prop_assert!(block.savings_ratio() >= 1.0, "n={} step={} -> {:.3}", n, step, block.savings_ratio());
            }
        }

        #[test]
        fn adversarial_attr_floats_as_words(vals in proptest::collection::vec(-1.0f32..1.0, 2..128)) {
            // Attribute rows cross the wire as f32 pairs packed into u64
            // words; round-trip must reproduce the exact bit patterns.
            let words: Vec<u64> = vals.chunks(2).map(|c| {
                let lo = c[0].to_bits() as u64;
                let hi = c.get(1).map_or(0, |v| v.to_bits()) as u64;
                lo | (hi << 32)
            }).collect();
            let block = bdi_compress(&words);
            prop_assert_eq!(bdi_decompress(&block).unwrap(), words.clone());
            // Float payloads are usually incompressible: the accountant
            // must charge the expansion, never claim savings it lacks.
            prop_assert!(block.compressed_bytes() <= 1 + 8 * words.len() as u64);
        }

        #[test]
        fn line_sizer_equals_per_chunk_blocks_and_the_eager_sizer(
            words in proptest::collection::vec(any::<u64>(), 0..80),
            base in any::<u64>(),
            strides in proptest::collection::vec(0u64..70_000, 0..80),
        ) {
            // An arbitrary stream and a compressible one (small strides
            // from a base), any length incl. not a multiple of 8.
            let local: Vec<u64> = strides
                .iter()
                .scan(base >> 1, |cur, s| { *cur += s; Some(*cur) })
                .collect();
            for words in [&words, &local] {
                let lazy = bdi_stream_bytes(
                    words.chunks(BDI_LINE_WORDS).map(|line| line.iter().copied()),
                );
                let per_chunk: u64 = words.chunks(BDI_LINE_WORDS).map(bdi_block_bytes).sum();
                prop_assert_eq!(lazy, (8 * words.len() as u64, per_chunk));
                prop_assert_eq!(lazy, eager_stream_bytes(words.iter().copied()));
            }
        }

        #[test]
        fn line_sizer_packs_odd_width_float_rows_across_row_boundaries(
            width in 1usize..12,
            rows in 0usize..12,
            seed in any::<u32>(),
            constant in any::<bool>(),
        ) {
            // The attribute leg's payload: `rows` rows of `width` floats
            // in one flat buffer, packed two per word regardless of where
            // a row ends, 16 floats (8 words) per line.
            let attrs: Vec<f32> = (0..width * rows)
                .map(|i| if constant { 1.5 } else { f32::from_bits(seed.wrapping_mul(i as u32 + 1)) })
                .collect();
            let lazy = bdi_stream_bytes(
                attrs.chunks(2 * BDI_LINE_WORDS).map(|line| line.chunks(2).map(pack_floats)),
            );
            prop_assert_eq!(lazy, eager_stream_bytes(attrs.chunks(2).map(pack_floats)));
        }

        #[test]
        fn stream_sizer_never_exceeds_tagged_raw(words in proptest::collection::vec(any::<u64>(), 1..512)) {
            let mut sizer = BdiStreamSizer::new();
            for &w in &words { sizer.push(w); }
            let (raw, wire) = sizer.finish();
            prop_assert_eq!(raw, 8 * words.len() as u64);
            let lines = words.len().div_ceil(BDI_LINE_WORDS) as u64;
            prop_assert!(wire <= raw + lines);
            prop_assert!(wire >= lines * 9u64.min(8 * words.len() as u64 + 1));
        }
    }
}
