//! Counter-based deterministic randomness for fault decisions.
//!
//! Fault injection must be *replayable byte-for-byte*: the decision "does
//! transmission #17 on link 3 get dropped?" has to come out the same on
//! every run, in any thread interleaving. A
//! stateful RNG cannot give that — the answer would depend on how many
//! draws happened before. Instead every decision is a pure function of
//! `(plan seed, stream, index)`: a splitmix64-style finalizer hashes the
//! triple, so streams are decorrelated and indices within a stream are
//! independent, with no shared state at all.

/// The splitmix64 output finalizer: a fast, well-mixed 64-bit hash.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Well-known stream tags, one per fault family, so two fault kinds keyed
/// on the same entity id never share draws.
pub mod stream {
    /// Frame drops on a MoF link.
    pub const FRAME_LOSS: u64 = 1;
    /// Frame payload corruption on a MoF link.
    pub const FRAME_CORRUPT: u64 = 2;
    /// Whole-dispatch loss at the service layer.
    pub const REQUEST_LOSS: u64 = 3;
    /// Straggler delay magnitude per card.
    pub const STRAGGLER: u64 = 4;
    /// Retry backoff jitter per request.
    pub const BACKOFF_JITTER: u64 = 5;
}

/// A stateless draw source: all randomness is `hash(seed, stream, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosRng {
    seed: u64,
}

impl ChaosRng {
    /// Creates a draw source rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosRng { seed: mix(seed) }
    }

    /// The raw 64-bit draw for `(stream, entity, index)`.
    #[inline]
    pub fn draw(&self, stream: u64, entity: u64, index: u64) -> u64 {
        mix(self.seed ^ mix(stream ^ mix(entity) ^ mix(index).rotate_left(17)))
    }

    /// A uniform draw in `[0, 1)` for `(stream, entity, index)`.
    #[inline]
    pub fn uniform(&self, stream: u64, entity: u64, index: u64) -> f64 {
        // 53 mantissa bits of the draw.
        (self.draw(stream, entity, index) >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_functions_of_the_triple() {
        let a = ChaosRng::new(7);
        let b = ChaosRng::new(7);
        for i in 0..100 {
            assert_eq!(
                a.draw(stream::FRAME_LOSS, 3, i),
                b.draw(stream::FRAME_LOSS, 3, i)
            );
        }
    }

    #[test]
    fn streams_and_seeds_decorrelate() {
        let a = ChaosRng::new(1);
        let b = ChaosRng::new(2);
        let same: usize = (0..256)
            .filter(|&i| a.draw(1, 0, i) == b.draw(1, 0, i))
            .count();
        assert_eq!(same, 0, "different seeds should never collide");
        let cross: usize = (0..256)
            .filter(|&i| a.draw(stream::FRAME_LOSS, 0, i) == a.draw(stream::FRAME_CORRUPT, 0, i))
            .count();
        assert_eq!(cross, 0, "different streams should never collide");
    }

    #[test]
    fn uniform_hits_the_requested_rate() {
        let rng = ChaosRng::new(42);
        let hits = (0..10_000)
            .filter(|&i| rng.uniform(stream::FRAME_LOSS, 0, i) < 0.05)
            .count();
        // 5% +- generous sampling slack.
        assert!((300..=700).contains(&hits), "hits {hits} far from 500");
    }
}
