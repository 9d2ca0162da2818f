//! Offline stand-in for the crates.io [`rand`] crate (0.8 API surface).
//!
//! The build environment has no network access, so this workspace ships
//! its own implementation of the slice of `rand 0.8` the HiRISE
//! reproduction uses: the [`Rng`] extension trait, [`SeedableRng`],
//! [`rngs::StdRng`] and [`rngs::mock::StepRng`], and the [`Standard`]
//! distribution. See `crates/compat/README.md` for the behavioural
//! differences from upstream (most notably: `StdRng` here is
//! xoshiro256++, not ChaCha12, so seeded streams are deterministic but
//! not bit-identical to crates.io builds).
//!
//! Beyond the `rand 0.8` surface, two pieces of the `rand` ecosystem
//! this workspace needs are folded in rather than stubbed separately:
//! the counter-based [`rngs::KeyedRng`] (order-independent,
//! position-keyable draws — the engine behind the sensor's noise) and
//! the Ziggurat [`StandardNormal`] sampler with the
//! batched [`distributions::fill_normals`] entry point (the
//! `rand_distr::StandardNormal` analogue) and the keyed row kernel
//! [`distributions::NormalSampler::fill_keyed`].
//!
//! [`rand`]: https://docs.rs/rand/0.8
//! [`Standard`]: distributions::Standard
//! [`StandardNormal`]: distributions::StandardNormal

pub mod distributions;
pub mod rngs;

pub use distributions::{Distribution, Standard};

/// The core of a random number generator: a source of random `u32`/`u64`
/// words plus byte-filling, mirroring `rand_core::RngCore`.
pub trait RngCore {
    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32;

    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&word[..rest.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing random value generation, blanket-implemented for every
/// [`RngCore`] exactly as in `rand 0.8`.
pub trait Rng: RngCore {
    /// Samples a value whose type supports the [`Standard`] distribution
    /// (uniform floats in `[0, 1)`, uniform integers, fair booleans).
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// Samples uniformly from a half-open `low..high` or inclusive
    /// `low..=high` range. Panics when the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Fills an integer/float slice with independently sampled values.
    fn fill<T>(&mut self, dest: &mut [T])
    where
        Standard: Distribution<T>,
    {
        for slot in dest {
            *slot = self.gen();
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator constructible from a seed, mirroring
/// `rand_core::SeedableRng` for the `seed_from_u64` entry point this
/// repository uses.
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

#[cfg(test)]
mod tests {
    use super::rngs::mock::StepRng;
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn std_rng_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn float_mean_is_roughly_half() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let i = rng.gen_range(5u32..17);
            assert!((5..17).contains(&i));
            let j = rng.gen_range(2usize..=4);
            assert!((2..=4).contains(&j));
            let f = rng.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
            let g = rng.gen_range(0.25f32..0.75);
            assert!((0.25..0.75).contains(&g));
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn step_rng_counts_by_increment() {
        let mut rng = StepRng::new(10, 3);
        assert_eq!(rng.next_u64(), 10);
        assert_eq!(rng.next_u64(), 13);
        assert_eq!(rng.next_u64(), 16);
    }

    #[test]
    fn works_through_unsized_references() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen_range(0.0..1.0)
        }
        let mut rng = StdRng::seed_from_u64(5);
        let v = draw(&mut rng);
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut buf = [0u8; 11];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
