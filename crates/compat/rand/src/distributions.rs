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
    //!
    //! [`NormalSampler::fill_keyed`] and [`NormalSampler::fill_keyed_pairs`]
    //! are the keyed row kernel: the normals of a run of consecutive
    //! [`KeyedRng`] streams under one key, one stream per site. Where the
    //! CPU has AVX-512F and AVX-512DQ, eight streams run per vector: the
    //! stream key, the block function and the fast path are computed in
    //! lanes, and a lane that leaves the fast path (~1.2 % per draw) is
    //! drawn again from its own stream by [`NormalSampler::sample`]. Each
    //! site still consumes exactly the words it would alone, so every
    //! output bit equals the per-site loop, which is the fallback on other
    //! CPUs and the oracle in the tests.

    use std::sync::OnceLock;

    use super::Distribution;
    use crate::rngs::KeyedRng;
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

        /// Fills `out[i]` with the first normal of the keyed stream
        /// `first_stream + i` under `key`: bit for bit
        /// `self.sample(&mut KeyedRng::for_stream(key, first_stream + i))`,
        /// in 8-lane vectors where the CPU has them.
        pub fn fill_keyed(&self, key: u64, first_stream: u64, out: &mut [f64]) {
            if !wide::fill_keyed(*self, key, first_stream, out) {
                self.fill_keyed_scalar(key, first_stream, out);
            }
        }

        /// Fills `first[i]` and `second[i]` with the first two normals of
        /// the keyed stream `first_stream + i` under `key`, drawn in that
        /// order from one generator, as a site that takes two draws does.
        ///
        /// # Panics
        ///
        /// Panics if the two slices differ in length.
        pub fn fill_keyed_pairs(
            &self,
            key: u64,
            first_stream: u64,
            first: &mut [f64],
            second: &mut [f64],
        ) {
            assert_eq!(first.len(), second.len(), "one second draw per first draw");
            if !wide::fill_keyed_pairs(*self, key, first_stream, first, second) {
                self.fill_keyed_pairs_scalar(key, first_stream, first, second);
            }
        }

        /// The per-site form of [`NormalSampler::fill_keyed`].
        fn fill_keyed_scalar(&self, key: u64, first_stream: u64, out: &mut [f64]) {
            for (i, slot) in out.iter_mut().enumerate() {
                let stream = first_stream.wrapping_add(i as u64);
                *slot = self.sample(&mut KeyedRng::for_stream(key, stream));
            }
        }

        /// The per-site form of [`NormalSampler::fill_keyed_pairs`].
        fn fill_keyed_pairs_scalar(
            &self,
            key: u64,
            first_stream: u64,
            first: &mut [f64],
            second: &mut [f64],
        ) {
            for (i, (a, b)) in first.iter_mut().zip(second.iter_mut()).enumerate() {
                let mut rng = KeyedRng::for_stream(key, first_stream.wrapping_add(i as u64));
                *a = self.sample(&mut rng);
                *b = self.sample(&mut rng);
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

    /// The 8-lane form of the keyed row kernel (x86-64 with AVX-512F and
    /// AVX-512DQ). Every `unsafe` of the kernel is here.
    #[cfg(target_arch = "x86_64")]
    mod wide {
        use std::arch::x86_64::*;

        use super::{NormalSampler, Tables};
        use crate::rngs::{KeyedRng, GOLDEN, MIX_MUL, STREAM_MUL};

        /// Whether this CPU runs the 8-lane kernel: AVX-512F for the
        /// lanes, gathers and masks, AVX-512DQ for the 64-bit multiplies
        /// and the `u64 → f64` conversion.
        pub(super) fn available() -> bool {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
        }

        /// [`NormalSampler::fill_keyed`] in lanes; `false` (and `out`
        /// untouched) when the CPU lacks the features.
        pub(super) fn fill_keyed(
            s: NormalSampler,
            key: u64,
            first_stream: u64,
            out: &mut [f64],
        ) -> bool {
            if !available() {
                return false;
            }
            // SAFETY: `available` just confirmed AVX-512F and AVX-512DQ,
            // the features `one_per_stream` is compiled for.
            unsafe { one_per_stream(s, key, first_stream, out) };
            true
        }

        /// [`NormalSampler::fill_keyed_pairs`] in lanes; `false` (and the
        /// slices untouched) when the CPU lacks the features.
        pub(super) fn fill_keyed_pairs(
            s: NormalSampler,
            key: u64,
            first_stream: u64,
            first: &mut [f64],
            second: &mut [f64],
        ) -> bool {
            if !available() {
                return false;
            }
            // SAFETY: `available` just confirmed AVX-512F and AVX-512DQ,
            // the features `two_per_stream` is compiled for.
            unsafe { two_per_stream(s, key, first_stream, first, second) };
            true
        }

        /// `[base, base + 1, …, base + 7]`, wrapping.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn lanes_from(base: u64) -> __m512i {
            _mm512_add_epi64(
                _mm512_set1_epi64(base as i64),
                _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
            )
        }

        /// The mask of the first `n` lanes (all eight when `n >= 8`).
        #[inline]
        fn live_lanes(n: usize) -> __mmask8 {
            if n >= 8 {
                0xFF
            } else {
                (1u8 << n) - 1
            }
        }

        /// `mix64` in each lane.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn mix64(z: __m512i) -> __m512i {
            let m0 = _mm512_set1_epi64(MIX_MUL[0] as i64);
            let m1 = _mm512_set1_epi64(MIX_MUL[1] as i64);
            let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), m0);
            let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m1);
            _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
        }

        /// The [`KeyedRng::for_stream`] key of each lane's stream.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn stream_keys(key: u64, streams: __m512i) -> __m512i {
            let spread = _mm512_mullo_epi64(streams, _mm512_set1_epi64(STREAM_MUL as i64));
            let folded = mix64(_mm512_xor_si512(spread, _mm512_set1_epi64(GOLDEN as i64)));
            _mm512_xor_si512(_mm512_set1_epi64(key as i64), folded)
        }

        /// [`KeyedRng::block`] of each lane's key at one `counter`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn block(keys: __m512i, counter: u64) -> __m512i {
            let step = counter.wrapping_add(1).wrapping_mul(GOLDEN);
            mix64(_mm512_add_epi64(keys, _mm512_set1_epi64(step as i64)))
        }

        /// The fast path of [`NormalSampler::sample`] on one word per
        /// lane: each lane's value, and the mask of lanes whose word
        /// falls inside its layer's interior (the others' values are
        /// meaningless and must be drawn on the scalar path).
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn fast_path(t: &Tables, bits: __m512i) -> (__m512d, __mmask8) {
            let layer = _mm512_and_si512(bits, _mm512_set1_epi64(0xFF));
            // SAFETY: every lane of `layer` is in 0..=255, so both gathers
            // read `t.x[layer]` and `t.x[layer + 1]` inside the 257-entry
            // table, 8-byte scaled from its start and from entry 1.
            let (edge, inner) = unsafe {
                (
                    _mm512_i64gather_pd::<8>(layer, t.x.as_ptr()),
                    _mm512_i64gather_pd::<8>(layer, t.x.as_ptr().add(1)),
                )
            };
            // `unit(bits)`: 53 bits convert exactly, and the scale is a
            // power of two, so the one rounding is in the product below,
            // as in the scalar path.
            let unit = _mm512_mul_pd(
                _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(bits)),
                _mm512_set1_pd(1.0 / (1u64 << 53) as f64),
            );
            let x = _mm512_mul_pd(unit, edge);
            let hit = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, inner);
            let sign = _mm512_slli_epi64::<55>(_mm512_and_si512(bits, _mm512_set1_epi64(0x100)));
            (_mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(x), sign)), hit)
        }

        /// The lanes of `mask`, lowest first.
        fn lanes_of(mut mask: __mmask8) -> impl Iterator<Item = usize> {
            std::iter::from_fn(move || {
                (mask != 0).then(|| {
                    let lane = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    lane
                })
            })
        }

        /// Streams per block: the kernel vectorizes a block, then draws
        /// the block's missed lanes on the scalar path, so the cold calls
        /// do not interrupt the vector loop. The miss masks live on the
        /// stack.
        const BLOCK: usize = 256;

        /// One draw per stream, eight streams per step; a lane that
        /// misses the fast path is drawn again from its own stream.
        // lint: zero-alloc
        #[target_feature(enable = "avx512f,avx512dq")]
        fn one_per_stream(s: NormalSampler, key: u64, first_stream: u64, out: &mut [f64]) {
            for (n, span) in out.chunks_mut(BLOCK).enumerate() {
                let span_first = first_stream.wrapping_add((n * BLOCK) as u64);
                let mut missed = [0u8; BLOCK / 8];
                for ((step, chunk), miss) in span.chunks_mut(8).enumerate().zip(&mut missed) {
                    let base = span_first.wrapping_add(8 * step as u64);
                    let (x, hit) = fast_path(s.t, block(stream_keys(key, lanes_from(base)), 0));
                    let live = live_lanes(chunk.len());
                    // SAFETY: `live` selects exactly the first `chunk.len()`
                    // lanes, so the masked store writes only inside `chunk`.
                    unsafe { _mm512_mask_storeu_pd(chunk.as_mut_ptr(), live, x) };
                    *miss = live & !hit;
                }
                for (step, &miss) in missed.iter().enumerate() {
                    for i in lanes_of(miss).map(|lane| 8 * step + lane) {
                        let stream = span_first.wrapping_add(i as u64);
                        span[i] = s.sample(&mut KeyedRng::for_stream(key, stream));
                    }
                }
            }
        }

        /// The fast path of a site's two draws in lanes: word 0 for the
        /// first, word 1 for the second. A lane keeps both only when both
        /// words hit: a first draw that misses consumes more than word 0,
        /// so its second draw does not start at word 1.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn pair_fast_path(t: &Tables, w0: __m512i, w1: __m512i) -> (__m512d, __m512d, __mmask8) {
            let (x0, hit0) = fast_path(t, w0);
            let (x1, hit1) = fast_path(t, w1);
            (x0, x1, hit0 & hit1)
        }

        /// Two draws per stream, eight streams per step; a lane that
        /// misses the fast path on either word takes both draws again
        /// from its own stream.
        // lint: zero-alloc
        #[target_feature(enable = "avx512f,avx512dq")]
        fn two_per_stream(
            s: NormalSampler,
            key: u64,
            first_stream: u64,
            first: &mut [f64],
            second: &mut [f64],
        ) {
            let spans = first.chunks_mut(BLOCK).zip(second.chunks_mut(BLOCK));
            for (n, (first, second)) in spans.enumerate() {
                let span_first = first_stream.wrapping_add((n * BLOCK) as u64);
                let mut missed = [0u8; BLOCK / 8];
                let steps = first.chunks_mut(8).zip(second.chunks_mut(8)).enumerate();
                for ((step, (a, b)), miss) in steps.zip(&mut missed) {
                    let base = span_first.wrapping_add(8 * step as u64);
                    let keys = stream_keys(key, lanes_from(base));
                    let (x0, x1, hit) = pair_fast_path(s.t, block(keys, 0), block(keys, 1));
                    let live = live_lanes(a.len().min(b.len()));
                    // SAFETY: `live` selects only lanes below both chunks'
                    // lengths, so the masked stores write inside `a` and `b`.
                    unsafe {
                        _mm512_mask_storeu_pd(a.as_mut_ptr(), live, x0);
                        _mm512_mask_storeu_pd(b.as_mut_ptr(), live, x1);
                    }
                    *miss = live & !hit;
                }
                for (step, &miss) in missed.iter().enumerate() {
                    for i in lanes_of(miss).map(|lane| 8 * step + lane) {
                        let mut rng = KeyedRng::for_stream(key, span_first.wrapping_add(i as u64));
                        first[i] = s.sample(&mut rng);
                        second[i] = s.sample(&mut rng);
                    }
                }
            }
        }

        /// [`pair_fast_path`] on scripted words, for the tests: `None`
        /// when the CPU lacks the features.
        #[cfg(test)]
        pub(super) fn pair_fast_path_on(
            w0: [u64; 8],
            w1: [u64; 8],
        ) -> Option<([f64; 8], [f64; 8], u8)> {
            if !available() {
                return None;
            }
            let (mut a, mut b) = ([0.0; 8], [0.0; 8]);
            // SAFETY: `available` confirmed the features; the loads read
            // and the stores write exactly eight lanes of 8-element arrays.
            let hit = unsafe {
                let (x0, x1, hit) = pair_fast_path(
                    super::tables(),
                    _mm512_loadu_si512(w0.as_ptr().cast()),
                    _mm512_loadu_si512(w1.as_ptr().cast()),
                );
                _mm512_storeu_pd(a.as_mut_ptr(), x0);
                _mm512_storeu_pd(b.as_mut_ptr(), x1);
                hit
            };
            Some((a, b, hit))
        }
    }

    /// The 8-lane kernel's stand-in where the target has no AVX-512:
    /// every call takes the per-site path.
    #[cfg(not(target_arch = "x86_64"))]
    mod wide {
        use super::NormalSampler;

        #[cfg(test)]
        pub(super) fn available() -> bool {
            false
        }

        pub(super) fn fill_keyed(_: NormalSampler, _: u64, _: u64, _: &mut [f64]) -> bool {
            false
        }

        pub(super) fn fill_keyed_pairs(
            _: NormalSampler,
            _: u64,
            _: u64,
            _: &mut [f64],
            _: &mut [f64],
        ) -> bool {
            false
        }

        #[cfg(test)]
        pub(super) fn pair_fast_path_on(
            _: [u64; 8],
            _: [u64; 8],
        ) -> Option<([f64; 8], [f64; 8], u8)> {
            None
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

        /// Says on stdout which path the row-kernel tests exercised, so a
        /// CI log shows whether the 8-lane kernel ran.
        fn report_lanes(test: &str) {
            if wide::available() {
                println!("{test}: 8-lane AVX-512 kernel ran against the per-site oracle");
            } else {
                println!(
                    "{test}: skipped the 8-lane kernel (no AVX-512F/DQ on this CPU); \
                     the per-site path ran"
                );
            }
        }

        /// Streams the 10^7-stream sweeps cover, in rows of an odd length
        /// so every row ends on a partial vector.
        const SWEEP_STREAMS: u64 = 10_000_000;
        const SWEEP_ROW: usize = 4_099;

        #[test]
        fn keyed_row_kernel_matches_per_site_draws() {
            report_lanes("keyed_row_kernel_matches_per_site_draws");
            let sampler = NormalSampler::new();
            let key = KeyedRng::derive_key(0x5EED, 11);
            let mut row = [0.0; SWEEP_ROW];
            let mut slow_sites = 0u32;
            let mut first = 0u64;
            while first < SWEEP_STREAMS {
                sampler.fill_keyed(key, first, &mut row);
                for (i, &x) in row.iter().enumerate() {
                    let stream = first + i as u64;
                    let mut rng = KeyedRng::for_stream(key, stream);
                    let want = sampler.sample(&mut rng);
                    assert_eq!(x.to_bits(), want.to_bits(), "stream {stream}: {x} vs {want}");
                    if first < 1_000_000 {
                        let mut one_word = KeyedRng::for_stream(key, stream);
                        one_word.next_u64();
                        slow_sites += u32::from(rng != one_word);
                    }
                }
                first += SWEEP_ROW as u64;
            }
            // ~1.2 % of draws leave the fast path: the sweep reaches the
            // scalar fix-up thousands of times.
            assert!(slow_sites > 5_000, "only {slow_sites} streams took the slow path");
        }

        #[test]
        fn keyed_row_kernel_matches_per_site_draw_pairs() {
            report_lanes("keyed_row_kernel_matches_per_site_draw_pairs");
            let sampler = NormalSampler::new();
            let key = KeyedRng::derive_key(0x5EED, 12);
            let (mut a, mut b) = ([0.0; SWEEP_ROW], [0.0; SWEEP_ROW]);
            let mut first = 0u64;
            while first < SWEEP_STREAMS {
                sampler.fill_keyed_pairs(key, first, &mut a, &mut b);
                for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
                    let stream = first + i as u64;
                    let mut rng = KeyedRng::for_stream(key, stream);
                    let (u, v) = (sampler.sample(&mut rng), sampler.sample(&mut rng));
                    assert_eq!(x.to_bits(), u.to_bits(), "stream {stream} first: {x} vs {u}");
                    assert_eq!(y.to_bits(), v.to_bits(), "stream {stream} second: {y} vs {v}");
                }
                first += SWEEP_ROW as u64;
            }
        }

        #[test]
        fn keyed_row_kernel_handles_ragged_rows() {
            // Every row length from empty to eight full vectors plus a
            // partial one, at starts that are not multiples of 8 and
            // across the wrap of the stream space.
            let sampler = NormalSampler::new();
            let key = KeyedRng::derive_key(3, 4);
            for start in [0, 5, 1 << 40, u64::MAX - 30] {
                for len in 0..=67usize {
                    let (mut a, mut b, mut one) = ([9.0; 67], [9.0; 67], [9.0; 67]);
                    sampler.fill_keyed(key, start, &mut one[..len]);
                    sampler.fill_keyed_pairs(key, start, &mut a[..len], &mut b[..len]);
                    for i in 0..len {
                        let mut rng = KeyedRng::for_stream(key, start.wrapping_add(i as u64));
                        let u = sampler.sample(&mut rng);
                        let v = sampler.sample(&mut rng);
                        assert_eq!(
                            one[i].to_bits(),
                            u.to_bits(),
                            "start {start} len {len} lane {i}"
                        );
                        assert_eq!(a[i].to_bits(), u.to_bits(), "start {start} len {len} lane {i}");
                        assert_eq!(b[i].to_bits(), v.to_bits(), "start {start} len {len} lane {i}");
                    }
                    // Nothing past the row is written.
                    assert!(one[len..].iter().chain(&a[len..]).chain(&b[len..]).all(|&x| x == 9.0));
                }
            }
        }

        /// Replays scripted words, then continues from a keyed stream;
        /// counts the words consumed.
        struct ScriptThen<'a> {
            words: &'a [u64],
            rest: KeyedRng,
            used: usize,
        }

        impl RngCore for ScriptThen<'_> {
            fn next_u32(&mut self) -> u32 {
                (self.next_u64() >> 32) as u32
            }

            fn next_u64(&mut self) -> u64 {
                let w = self.words.get(self.used).copied().unwrap_or_else(|| self.rest.next_u64());
                self.used += 1;
                w
            }
        }

        #[test]
        fn pair_lanes_flag_scripted_wedge_tail_and_signed_zero() {
            report_lanes("pair_lanes_flag_scripted_wedge_tail_and_signed_zero");
            let sampler = NormalSampler::new();
            const NEG: u64 = 0x100;
            let top = !0x1FFu64; // layer 0 beyond R: the tail
            let wedge = (1u64 << 62) | 0xFF; // layer 255: always the wedge
            let fast = (1u64 << 40) | 7 | NEG;
            // (first word, second word, the lane the scalar path must take)
            let lanes: [(u64, u64, bool); 8] = [
                (0, NEG, true),        // +0.0 then -0.0, both fast
                (NEG, fast, true),     // -0.0 then an ordinary fast draw
                (top, fast, false),    // first word in the tail
                (top | NEG, 0, false), // negative tail
                (wedge, fast, false),  // first word in a wedge
                (fast, wedge, false),  // second word in a wedge
                (fast, top, false),    // second word in the tail
                (fast, fast, true),
            ];
            let w0 = lanes.map(|(w, _, _)| w);
            let w1 = lanes.map(|(_, w, _)| w);
            let Some((x0, x1, hit)) = wide::pair_fast_path_on(w0, w1) else {
                return;
            };
            for (lane, &(a, b, fast_lane)) in lanes.iter().enumerate() {
                // The oracle: the scalar sampler on the scripted words,
                // continued by a keyed stream when it needs more.
                let mut rng =
                    ScriptThen { words: &[a, b], rest: KeyedRng::new(lane as u64), used: 0 };
                let u = sampler.sample(&mut rng);
                let first_used = rng.used;
                let v = sampler.sample(&mut rng);
                let scalar_fast = first_used == 1 && rng.used == 2;
                assert_eq!(scalar_fast, fast_lane, "lane {lane}: script mislabelled");
                assert_eq!(hit >> lane & 1 == 1, fast_lane, "lane {lane}: wrong miss mask");
                if fast_lane {
                    assert_eq!(x0[lane].to_bits(), u.to_bits(), "lane {lane} first");
                    assert_eq!(x1[lane].to_bits(), v.to_bits(), "lane {lane} second");
                }
            }
            assert_eq!(x0[0].to_bits(), 0.0f64.to_bits());
            assert_eq!(x1[0].to_bits(), (-0.0f64).to_bits());
            assert_eq!(x0[1].to_bits(), (-0.0f64).to_bits());
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
