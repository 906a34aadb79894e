//! Offline stand-in for the `rand` crate (0.9-style API subset).
//!
//! Aliased to the upstream name via the workspace dependency table, this
//! crate covers exactly what the simulator and experiment harness use:
//!
//! * [`rngs::StdRng`] with [`SeedableRng::seed_from_u64`];
//! * [`Rng::random_range`] over half-open integer and float ranges;
//! * [`seq::SliceRandom::shuffle`] (Fisher–Yates).
//!
//! The generator is SplitMix64: deterministic given a seed, statistically
//! solid for simulation workloads, and tiny. It is **not** the upstream
//! StdRng stream, so experiments seeded identically produce different (but
//! equally deterministic and reproducible) topologies than they would with
//! the real crate.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Types that can be sampled uniformly by [`Rng::random_range`].
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform sample from the range.
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = self.end.abs_diff(self.start);
                self.start.wrapping_add((rng.next_u64() % u64::from(span)) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, i8, i16, i32);

macro_rules! wide_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = self.end.abs_diff(self.start) as u64;
                let offset = if span == 0 {
                    // Full-width range: every bit pattern is in range.
                    rng.next_u64()
                } else {
                    rng.next_u64() % span
                };
                self.start.wrapping_add(offset as $t)
            }
        }
    )*};
}

wide_sample_range!(u64, usize, i64, isize);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange for Range<f32> {
    type Output = f32;
    fn sample<G: Rng + ?Sized>(self, rng: &mut G) -> f32 {
        (self.start as f64..self.end as f64).sample(rng) as f32
    }
}

/// Stand-in for `rand::Rng`.
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample from `range`.
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// A uniform `f64` in `[0, 1)`.
    fn random_f64(&mut self) -> f64
    where
        Self: Sized,
    {
        (0.0..1.0).sample(self)
    }

    /// A random boolean with probability `p` of being true.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.random_f64() < p
    }
}

/// Stand-in for `rand::SeedableRng` (the `seed_from_u64` entry point only).
pub trait SeedableRng: Sized {
    /// Construct a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    /// Deterministic SplitMix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl super::Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

pub mod seq {
    //! Slice helpers.

    use super::Rng;

    /// Stand-in for `rand::seq::SliceRandom` (shuffle only).
    pub trait SliceRandom {
        /// Shuffle the slice in place (Fisher–Yates).
        fn shuffle<G: Rng + ?Sized>(&mut self, rng: &mut G);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<G: Rng + ?Sized>(&mut self, rng: &mut G) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
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
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.random_range(0..17usize);
            assert!(x < 17);
            let f = rng.random_range(1.0..100.0);
            assert!((1.0..100.0).contains(&f));
            let n = rng.random_range(-0.1..0.1);
            assert!((-0.1..0.1).contains(&n));
            let s = rng.random_range(3u32..9);
            assert!((3..9).contains(&s));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }
}
