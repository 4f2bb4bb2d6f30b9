//! Offline stand-in for the `rand` crate covering exactly the surface this
//! workspace uses: `StdRng` seeded via `SeedableRng::seed_from_u64`,
//! `Rng::gen_range` over half-open and inclusive ranges, `Rng::gen_bool`,
//! and `seq::SliceRandom::shuffle`.
//!
//! The generator is SplitMix64 — statistically solid for dataset
//! synthesis and fully deterministic per seed, which is all the callers
//! (synthetic dataset generators and shuffles) require. It makes no
//! attempt to match the stream of the real `StdRng`.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core entropy source: a 64-bit generator.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from seed material.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a range.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

fn next_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 53 high bits → uniform in [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Lemire-style unbiased bounded integer draw.
fn next_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let v = rng.next_u64();
        if v >= threshold {
            return v % bound;
        }
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        let v = self.start + next_f64(rng) * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty inclusive f64 range");
        lo + next_f64(rng) * (hi - lo)
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + next_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive integer range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + next_below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing sampling interface.
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        next_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic 64-bit generator (SplitMix64 under the hood).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Slice shuffling (the only `seq` feature the workspace uses).
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0.0..1.0), b.gen_range(0.0..1.0));
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen_range(0..u64::MAX), c.gen_range(0..u64::MAX));
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let f = rng.gen_range(-3.0..5.0);
            assert!((-3.0..5.0).contains(&f));
            let g = rng.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&g));
            let i = rng.gen_range(2..9usize);
            assert!((2..9).contains(&i));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}
