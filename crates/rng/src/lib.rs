//! Self-contained deterministic pseudo-random number generation.
//!
//! Every synthetic workload in FlowGNN-RS (graph generators, feature
//! streams, weight initialisation) draws from this module instead of the
//! `rand` crate, for two reasons:
//!
//! - **Offline builds.** The repository builds with `cargo build --release`
//!   and zero third-party runtime dependencies; nothing needs to be
//!   downloaded from a registry.
//! - **Bit-stable streams.** `rand` documents that `SmallRng` output may
//!   change between minor versions. Golden tests (`tests/goldens.rs`)
//!   pin generator output bit-for-bit, which is only meaningful when the
//!   generator itself is frozen in-tree.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through
//! SplitMix64 exactly as the reference implementation recommends. Both
//! algorithms are public domain.
//!
//! # Example
//!
//! ```
//! use flowgnn_rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(7);
//! let mut b = Rng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x: f32 = a.gen_range(-1.0f32..=1.0);
//! assert!((-1.0..=1.0).contains(&x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// SplitMix64: a tiny, fast generator used to expand one `u64` seed into
/// the xoshiro state (and usable standalone for cheap seed mixing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The repository-wide deterministic PRNG: xoshiro256\*\*.
///
/// The API mirrors the subset of `rand` the generators used
/// ([`Rng::seed_from_u64`], [`Rng::gen_range`], [`Rng::gen_bool`]), so
/// call sites read identically; only the underlying stream differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single `u64` via SplitMix64 (the
    /// xoshiro reference seeding procedure).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next raw 64-bit value (xoshiro256\*\* scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of one output.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`: the top 24 bits of one output.
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform `u64` in `[0, bound)` by widening multiply with rejection
    /// (Lemire's method): unbiased and allocation-free.
    ///
    /// A draw is rejected while its low word is below the threshold
    /// `2^64 mod bound`, which is itself below `bound`. So the division
    /// that computes the threshold runs only for a low word below `bound`;
    /// the accepted draws are the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sampling range");
        let mut wide = u128::from(self.next_u64()) * u128::from(bound);
        if (wide as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (wide as u64) < threshold {
                wide = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (wide >> 64) as u64
    }

    /// Uniform draw from a range, mirroring `rand`'s `gen_range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// Ranges that [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty sampling range");
                self.start + rng.bounded_u64((self.end - self.start) as u64) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty sampling range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}
impl_int_range!(u32, u64, usize);

macro_rules! impl_float_range {
    ($($t:ty, $gen:ident);*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty sampling range");
                self.start + (self.end - self.start) * rng.$gen()
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty sampling range");
                lo + (hi - lo) * rng.$gen()
            }
        }
    )*};
}
impl_float_range!(f32, gen_f32; f64, gen_f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567, from the public-domain reference
        // implementation (Vigna, prng.di.unimi.it).
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(99);
        let mut b = Rng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(
            Rng::seed_from_u64(1).next_u64(),
            Rng::seed_from_u64(2).next_u64()
        );
    }

    #[test]
    fn floats_land_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.gen_f32();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn float_mean_is_centered() {
        let mut rng = Rng::seed_from_u64(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bounded_is_unbiased_across_small_bound() {
        let mut rng = Rng::seed_from_u64(3);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.bounded_u64(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn bounded_matches_the_eager_threshold_loop() {
        // Lemire's method with the threshold computed before every draw.
        fn eager(rng: &mut Rng, bound: u64) -> u64 {
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let wide = u128::from(rng.next_u64()) * u128::from(bound);
                if wide as u64 >= threshold {
                    return (wide >> 64) as u64;
                }
            }
        }
        // 2^63 + 1 rejects almost half its draws, so the threshold path
        // runs there.
        for bound in [1, 2, 3, 7, 49, (1 << 32) + 1, (1 << 63) + 1, u64::MAX] {
            let mut lazy = Rng::seed_from_u64(bound);
            let mut reference = lazy.clone();
            for k in 0..100_000 {
                assert_eq!(
                    lazy.bounded_u64(bound),
                    eager(&mut reference, bound),
                    "bound {bound}, draw {k}"
                );
            }
            assert_eq!(lazy, reference, "bound {bound}: streams fell out of step");
        }
    }

    #[test]
    fn int_ranges_respect_bounds() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..10);
            assert!((3..10).contains(&v));
            let w = rng.gen_range(5u32..=7);
            assert!((5..=7).contains(&w));
        }
    }

    #[test]
    fn float_ranges_respect_bounds() {
        let mut rng = Rng::seed_from_u64(13);
        for _ in 0..10_000 {
            let v: f32 = rng.gen_range(-1.0f32..=1.0);
            assert!((-1.0..=1.0).contains(&v));
            let w: f64 = rng.gen_range(0.25f64..0.5);
            assert!((0.25..0.5).contains(&w));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::seed_from_u64(23);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(29);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "{hits}");
    }

    #[test]
    #[should_panic(expected = "empty sampling range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).gen_range(5usize..5);
    }

    #[test]
    fn stream_golden_is_frozen() {
        // The first outputs for seed 42 are pinned: if these change, every
        // generated workload changes and all goldens must be regenerated.
        let mut rng = Rng::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                1546998764402558742,
                6990951692964543102,
                12544586762248559009,
                17057574109182124193,
            ]
        );
    }
}
