//! The [`Standard`] distribution, the Ziggurat [`StandardNormal`]
//! sampler, and uniform range sampling backing [`crate::Rng::gen`] and
//! [`crate::Rng::gen_range`].

use crate::Rng;

pub use normal::{fill_normals, NormalSampler, StandardNormal};

/// A distribution over values of `T`, mirroring
/// `rand::distributions::Distribution`.
pub trait Distribution<T> {
    /// Draws one value from the distribution.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// The "natural" distribution per type: uniform `[0, 1)` for floats,
/// uniform over the full domain for integers, fair coin for `bool`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standard;

impl Distribution<f64> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 uniform mantissa bits, as in upstream rand.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        // 24 uniform mantissa bits.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Distribution<bool> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Distribution<$t> for Standard {
            fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub mod normal {
    //! Ziggurat sampling of the standard normal distribution.
    //!
    //! The classic 256-layer Marsaglia–Tsang rejection scheme: the area
    //! under the Gaussian density is covered by 255 stacked rectangles
    //! plus a base strip that includes the tail. ~98.8 % of samples cost
    //! one `u64` draw, one table compare and one multiply — no
    //! transcendentals — which is what lets the sensor noise model
    //! replace its per-draw Box–Muller `ln`/`sqrt`/`cos` chain.
    //!
    //! Tables are built once at first use (a [`OnceLock`]; no heap) from
    //! the layer count and the tail cut `R`, with the per-layer area
    //! integrated numerically so the construction is self-consistent to
    //! double precision.

    use std::sync::OnceLock;

    use super::Distribution;
    use crate::RngCore;

    /// Number of ziggurat layers.
    const LAYERS: usize = 256;

    /// Tail cut for 256 layers (Marsaglia & Tsang).
    const R: f64 = 3.654_152_885_361_009;

    /// Unnormalised standard-normal density `exp(-x²/2)`.
    #[inline]
    fn pdf(x: f64) -> f64 {
        (-0.5 * x * x).exp()
    }

    /// `∫_R^∞ exp(-x²/2) dx` by Simpson's rule; the integrand decays to
    /// ~1e-40 within ten units, far below the truncation error.
    fn tail_area() -> f64 {
        let (a, b) = (R, R + 10.0);
        let n = 20_000usize;
        let h = (b - a) / n as f64;
        let mut acc = pdf(a) + pdf(b);
        for i in 1..n {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            acc += w * pdf(a + i as f64 * h);
        }
        acc * h / 3.0
    }

    /// Layer edges `x[i]` (descending, `x[LAYERS] = 0`) and densities
    /// `f[i] = pdf(x[i])`.
    struct Tables {
        x: [f64; LAYERS + 1],
        f: [f64; LAYERS + 1],
    }

    fn tables() -> &'static Tables {
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(|| {
            // Common layer area: the base rectangle [0, R] × pdf(R) plus
            // the tail mass beyond R.
            let v = R * pdf(R) + tail_area();
            let mut x = [0.0; LAYERS + 1];
            x[0] = v / pdf(R); // virtual base edge, > R
            x[1] = R;
            for i in 2..LAYERS {
                // Each layer has area v: x[i] solves
                // pdf(x[i]) = v / x[i-1] + pdf(x[i-1]).
                x[i] = (-2.0 * (v / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
            }
            x[LAYERS] = 0.0;
            let mut f = [0.0; LAYERS + 1];
            for (fi, xi) in f.iter_mut().zip(&x) {
                *fi = pdf(*xi);
            }
            Tables { x, f }
        })
    }

    /// 53-bit uniform in `[0, 1)` from one word.
    #[inline]
    fn unit(bits: u64) -> f64 {
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// 53-bit uniform in `(0, 1]` from one word (safe for `ln`).
    #[inline]
    fn unit_open(bits: u64) -> f64 {
        ((bits >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A standard-normal sampler holding the resolved table reference,
    /// so hot loops pay the [`OnceLock`] lookup once instead of per
    /// sample.
    #[derive(Debug, Clone, Copy)]
    pub struct NormalSampler {
        t: &'static Tables,
    }

    impl std::fmt::Debug for Tables {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Tables").finish_non_exhaustive()
        }
    }

    impl Default for NormalSampler {
        fn default() -> Self {
            Self::new()
        }
    }

    impl NormalSampler {
        /// Resolves (building on first use) the ziggurat tables.
        pub fn new() -> Self {
            Self { t: tables() }
        }

        /// Draws one standard-normal sample.
        ///
        /// The common case (~98.8 %) is branch-free past the layer test:
        /// the random sign bit is XORed into the IEEE sign instead of
        /// selecting between `x` and `-x` (the same bits, `-0.0`
        /// included), because a branch on a fair coin mispredicts half
        /// the time. Wedge and tail draws go through the cold `slow` loop.
        #[inline]
        pub fn sample<G: RngCore + ?Sized>(&self, rng: &mut G) -> f64 {
            let t = self.t;
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            let x = unit(bits) * t.x[i];
            // Inside the strictly-interior part of the layer: accept.
            if x < t.x[i + 1] {
                return f64::from_bits(x.to_bits() ^ ((bits & 0x100) << 55));
            }
            self.slow(rng, bits)
        }

        /// The rejection loop for a first word `bits` that missed its
        /// layer's interior: the wedge test, the tail, and any redraws.
        /// Consumes exactly the words the single-loop form would.
        #[cold]
        #[inline(never)]
        fn slow<G: RngCore + ?Sized>(&self, rng: &mut G, mut bits: u64) -> f64 {
            let t = self.t;
            loop {
                let i = (bits & 0xFF) as usize;
                let neg = bits & 0x100 != 0;
                let x = unit(bits) * t.x[i];
                if x < t.x[i + 1] {
                    return if neg { -x } else { x };
                }
                if i == 0 {
                    return Self::tail(rng, neg);
                }
                // Wedge: accept against the true density.
                let y = unit(rng.next_u64());
                if t.f[i + 1] + y * (t.f[i] - t.f[i + 1]) < pdf(x) {
                    return if neg { -x } else { x };
                }
                bits = rng.next_u64();
            }
        }

        /// Marsaglia's tail algorithm for `|x| > R`.
        #[cold]
        fn tail<G: RngCore + ?Sized>(rng: &mut G, neg: bool) -> f64 {
            loop {
                let x = -unit_open(rng.next_u64()).ln() / R;
                let y = -unit_open(rng.next_u64()).ln();
                if y + y >= x * x {
                    let v = R + x;
                    return if neg { -v } else { v };
                }
            }
        }
    }

    /// The standard normal distribution `N(0, 1)`, mirroring
    /// `rand_distr::StandardNormal`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct StandardNormal;

    impl Distribution<f64> for StandardNormal {
        fn sample<G: crate::Rng + ?Sized>(&self, rng: &mut G) -> f64 {
            NormalSampler::new().sample(rng)
        }
    }

    /// Fills `out` with independent standard-normal samples — the
    /// batched entry point for noise synthesis (one table resolution for
    /// the whole slice).
    pub fn fill_normals<G: RngCore + ?Sized>(rng: &mut G, out: &mut [f64]) {
        let sampler = NormalSampler::new();
        for slot in out {
            *slot = sampler.sample(rng);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn tables_are_consistent() {
            let t = tables();
            // Edges descend strictly from the virtual base to zero.
            assert!(t.x[0] > t.x[1]);
            assert_eq!(t.x[1], R);
            for i in 1..LAYERS {
                assert!(t.x[i] > t.x[i + 1], "edge {i} not descending");
            }
            assert_eq!(t.x[LAYERS], 0.0);
            // The top layer closes: its area matches the common area.
            let v = R * pdf(R) + tail_area();
            let top = t.x[LAYERS - 1] * (1.0 - pdf(t.x[LAYERS - 1]));
            assert!((top - v).abs() < 1e-6 * v, "top layer area {top} vs {v}");
        }

        #[test]
        fn moments_match_standard_normal() {
            use crate::rngs::KeyedRng;
            let sampler = NormalSampler::new();
            let key = KeyedRng::derive_key(0xDEAD, 0);
            let n = 200_000usize;
            let (mut sum, mut sum2, mut sum3, mut tail3) = (0.0f64, 0.0, 0.0, 0u32);
            for site in 0..n {
                let mut rng = KeyedRng::for_stream(key, site as u64);
                let x = sampler.sample(&mut rng);
                sum += x;
                sum2 += x * x;
                sum3 += x * x * x;
                if x.abs() > 3.0 {
                    tail3 += 1;
                }
            }
            let mean = sum / n as f64;
            let var = sum2 / n as f64 - mean * mean;
            let skew = sum3 / n as f64;
            let tail = tail3 as f64 / n as f64;
            assert!(mean.abs() < 0.01, "mean {mean}");
            assert!((var - 1.0).abs() < 0.02, "variance {var}");
            assert!(skew.abs() < 0.03, "third moment {skew}");
            // P(|X| > 3) = 0.002700 for a standard normal.
            assert!((tail - 0.0027).abs() < 0.0012, "3-sigma tail {tail}");
        }

        /// The single-loop sampler as it stood before the branch-free
        /// fast path — the frozen reference the fast path must match
        /// bit for bit.
        fn reference_sample<G: RngCore + ?Sized>(t: &Tables, rng: &mut G) -> f64 {
            loop {
                let bits = rng.next_u64();
                let i = (bits & 0xFF) as usize;
                let neg = bits & 0x100 != 0;
                let x = unit(bits) * t.x[i];
                if x < t.x[i + 1] {
                    return if neg { -x } else { x };
                }
                if i == 0 {
                    return NormalSampler::tail(rng, neg);
                }
                let y = unit(rng.next_u64());
                if t.f[i + 1] + y * (t.f[i] - t.f[i + 1]) < pdf(x) {
                    return if neg { -x } else { x };
                }
            }
        }

        /// Replays a fixed word sequence, counting the words consumed.
        struct Scripted<'a> {
            words: &'a [u64],
            used: usize,
        }

        impl RngCore for Scripted<'_> {
            fn next_u32(&mut self) -> u32 {
                (self.next_u64() >> 32) as u32
            }

            fn next_u64(&mut self) -> u64 {
                let w = self.words[self.used];
                self.used += 1;
                w
            }
        }

        #[test]
        fn fast_path_matches_the_frozen_reference_on_keyed_sites() {
            use crate::rngs::KeyedRng;
            let sampler = NormalSampler::new();
            let key = KeyedRng::derive_key(0x5EED, 3);
            let mut slow_paths = 0u32;
            for site in 0..1_000_000u64 {
                // Two draws per site, as the sensor's read + ADC noise.
                let mut fast = KeyedRng::for_stream(key, site);
                let mut frozen = fast.clone();
                for _ in 0..2 {
                    let a = sampler.sample(&mut fast);
                    let b = reference_sample(sampler.t, &mut frozen);
                    assert_eq!(a.to_bits(), b.to_bits(), "site {site}: {a} vs {b}");
                }
                // Equal generator states: the same words were consumed.
                assert_eq!(fast, frozen, "site {site} consumed a different word count");
                let mut two_words = KeyedRng::for_stream(key, site);
                two_words.next_u64();
                two_words.next_u64();
                slow_paths += u32::from(fast != two_words);
            }
            // ~1.2 % of draws (~2.4 % of two-draw sites) leave the fast
            // path; the sweep must reach it.
            assert!(slow_paths > 10_000, "only {slow_paths} sites took the slow path");
        }

        #[test]
        fn fast_path_matches_the_frozen_reference_on_scripted_words() {
            let sampler = NormalSampler::new();
            let t = sampler.t;
            const NEG: u64 = 0x100;
            let top = !0x1FFu64; // maximal mantissa, layer 0, positive
            let scripts: [(&str, &[u64]); 7] = [
                // Zero mantissa: ±0.0 from the fast path.
                ("+0.0", &[0]),
                ("-0.0", &[NEG]),
                // Layer 0 beyond R: the tail (two words per attempt).
                ("tail +", &[top, 1 << 63, 1 << 40]),
                ("tail -", &[top | NEG, 1 << 63, 1 << 40]),
                // Layer 255 never passes the interior test (x[256] = 0):
                // a wedge test always follows. y ≈ 1 accepts ...
                ("wedge accept", &[(1 << 62) | 0xFF | NEG, u64::MAX]),
                // ... y = 0 rejects, and the redraw takes the fast path.
                ("wedge reject", &[(1 << 62) | 0xFF, 0, (1 << 40) | 7 | NEG]),
                // A rejected wedge followed by a tail.
                ("wedge then tail", &[(1 << 62) | 0xFF, 0, top, 1 << 63, 1 << 40]),
            ];
            for (name, words) in scripts {
                let mut a = Scripted { words, used: 0 };
                let mut b = Scripted { words, used: 0 };
                let fast = sampler.sample(&mut a);
                let frozen = reference_sample(t, &mut b);
                assert_eq!(fast.to_bits(), frozen.to_bits(), "{name}: {fast} vs {frozen}");
                assert_eq!(a.used, words.len(), "{name}: script not fully consumed");
                assert_eq!(b.used, words.len(), "{name}: reference consumed differently");
            }
            // The scripts reach the branches they are named for.
            let draw = |words: &[u64]| sampler.sample(&mut Scripted { words, used: 0 });
            assert_eq!(draw(&[NEG]).to_bits(), (-0.0f64).to_bits());
            assert!(unit(top) * t.x[0] >= R);
            assert!(draw(&[top, 1 << 63, 1 << 40]) > R);
            assert!(draw(&[top | NEG, 1 << 63, 1 << 40]) < -R);
            assert!(draw(&[(1 << 62) | 0xFF | NEG, u64::MAX]) < 0.0);
        }

        #[test]
        fn fill_normals_is_deterministic_per_seed() {
            use crate::rngs::StdRng;
            use crate::SeedableRng;
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            let (mut xs, mut ys) = ([0.0; 64], [0.0; 64]);
            fill_normals(&mut a, &mut xs);
            fill_normals(&mut b, &mut ys);
            assert_eq!(xs, ys);
            assert!(xs.iter().any(|&x| x < 0.0) && xs.iter().any(|&x| x > 0.0));
        }
    }
}

pub mod uniform {
    //! Range sampling: the [`SampleRange`] glue trait consumed by
    //! [`crate::Rng::gen_range`] plus the [`SampleUniform`] per-type
    //! implementations.

    use core::ops::{Range, RangeInclusive};

    use super::Distribution;
    use crate::Rng;

    /// Types that can be drawn uniformly from a range.
    pub trait SampleUniform: Sized {
        /// Uniform draw from `[low, high)`; panics when `low >= high`.
        fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;

        /// Uniform draw from `[low, high]`; panics when `low > high`.
        fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    }

    /// Range-shaped arguments accepted by `gen_range`.
    pub trait SampleRange<T> {
        /// Draws one value from the range.
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
    }

    impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            assert!(self.start < self.end, "cannot sample empty range");
            T::sample_half_open(rng, self.start, self.end)
        }
    }

    impl<T: SampleUniform + PartialOrd> SampleRange<T> for RangeInclusive<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            let (low, high) = self.into_inner();
            assert!(low <= high, "cannot sample empty range");
            T::sample_inclusive(rng, low, high)
        }
    }

    macro_rules! uniform_int {
        ($($t:ty => $unsigned:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                    let span = (high as $unsigned).wrapping_sub(low as $unsigned);
                    low.wrapping_add(bounded(rng, span as u64) as $t)
                }

                fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                    let span = (high as $unsigned).wrapping_sub(low as $unsigned);
                    if span as u64 == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    low.wrapping_add(bounded(rng, span as u64 + 1) as $t)
                }
            }
        )*};
    }

    uniform_int!(
        u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
        i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
    );

    /// Uniform draw from `[0, bound)` via 128-bit widening multiply
    /// (Lemire's method without the rejection step; the bias is
    /// `O(bound / 2^64)` — immaterial for the small ranges used here).
    fn bounded<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((rng.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    macro_rules! uniform_float {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_half_open<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                    let unit: $t = crate::distributions::Standard.sample(rng);
                    let v = low + unit * (high - low);
                    // Guard against rounding up to the open bound.
                    if v >= high { low } else { v }
                }

                fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                    let unit: $t = crate::distributions::Standard.sample(rng);
                    low + unit * (high - low)
                }
            }
        )*};
    }

    uniform_float!(f32, f64);
}
