//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *subset* of the `rand 0.8` API it actually uses:
//! [`SmallRng`] (xoshiro256++ seeded with SplitMix64),
//! the [`Rng`] extension trait (`gen`, `gen_range`, `gen_bool`), and
//! [`SeedableRng::seed_from_u64`]. Semantics match `rand` (uniform
//! ranges, 53-bit float precision); the exact output streams do not,
//! which is fine because every consumer seeds explicitly and asserts
//! distributional or structural properties, not golden values.

pub mod rngs;

pub use rngs::SmallRng;

/// Core RNG interface: a source of uniform random words.
pub trait RngCore {
    /// Returns the next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Returns the next uniform 32-bit word.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly from the generator's full range
/// (the `Standard` distribution of real `rand`).
pub trait Standard: Sized {
    /// Draws one value.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 bits of mantissa, uniform in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 bits of mantissa, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges a value can be drawn uniformly from (`gen_range` argument).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as Standard>::standard(rng);
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// The user-facing extension trait: `gen`, `gen_range`, `gen_bool`.
pub trait Rng: RngCore {
    /// Draws a value of `T` from its full-range uniform distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        <f64 as Standard>::standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_deterministic_and_seed_sensitive() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let mut c = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let f: f64 = rng.gen_range(-0.5..0.5);
            assert!((-0.5..0.5).contains(&f));
            let i: usize = rng.gen_range(0..=4);
            assert!(i <= 4);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.8)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((0.79..0.81).contains(&rate), "rate {rate}");
    }

    #[test]
    fn unit_floats_are_uniform_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 100_000.0;
        assert!((0.49..0.51).contains(&mean), "mean {mean}");
    }
}
