//! Concrete generators: the deterministic [`StdRng`], the counter-based
//! [`KeyedRng`], and the test-oriented [`mock::StepRng`].

use crate::{RngCore, SeedableRng};

/// The two multipliers of [`mix64`].
pub(crate) const MIX_MUL: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

/// SplitMix64 finalizer: a full-avalanche 64-bit mixing function.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(MIX_MUL[0]);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_MUL[1]);
    z ^ (z >> 31)
}

/// Weyl increment (the SplitMix64 golden-ratio constant).
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Odd multiplier spreading a stream id before [`KeyedRng::for_stream`]
/// mixes it into the key.
pub(crate) const STREAM_MUL: u64 = 0xA24B_AED4_963E_E407;

/// The workspace's standard generator: **xoshiro256++** state seeded
/// through SplitMix64.
///
/// The real `rand 0.8` `StdRng` is ChaCha12; this repository only relies
/// on seeded determinism and distribution quality, both of which
/// xoshiro256++ provides at a fraction of the code. Streams from equal
/// seeds are identical; streams from different seeds are decorrelated by
/// the SplitMix64 expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    fn splitmix_next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = Self::splitmix_next(&mut sm);
        }
        // An all-zero state would be a fixed point of xoshiro.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A **counter-based** (Philox/SplitMix-style) generator: every output
/// word is a pure block function of `(key, counter)` with no carried
/// state beyond the counter itself.
///
/// Unlike a sequential generator, the `n`-th draw of a `KeyedRng` does
/// not depend on how many draws other generators made — two parties that
/// agree on a key and a stream id produce identical values in any order,
/// which is what makes noise synthesis order-independent and therefore
/// shardable. The block function is SplitMix64 evaluated at
/// `key + (counter + 1) · golden`, i.e. the SplitMix64 sequence seeded at
/// `key` and indexed randomly-accessibly by `counter`.
///
/// Stream separation ([`KeyedRng::for_stream`] /
/// [`KeyedRng::derive_key`]) folds the stream id through the same
/// full-avalanche finalizer, so adjacent ids (neighbouring pixels,
/// consecutive frames) land on decorrelated keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedRng {
    key: u64,
    counter: u64,
}

impl KeyedRng {
    /// Creates a generator over the raw `key` with the counter at zero.
    pub fn new(key: u64) -> Self {
        Self { key, counter: 0 }
    }

    /// Creates the generator for one logical stream (a pixel site, a
    /// pooling site, …) under a shared key. Equal `(key, stream)` pairs
    /// reproduce the same draws; distinct streams are decorrelated.
    #[inline]
    pub fn for_stream(key: u64, stream: u64) -> Self {
        Self { key: key ^ mix64(stream.wrapping_mul(STREAM_MUL) ^ GOLDEN), counter: 0 }
    }

    /// Derives a top-level key from a seed and a coarse stream index
    /// (e.g. a frame or readout counter). Use the result as the `key` of
    /// [`KeyedRng::for_stream`].
    #[inline]
    pub fn derive_key(seed: u64, stream: u64) -> u64 {
        mix64(mix64(seed ^ 0x6A09_E667_F3BC_C909) ^ stream.wrapping_mul(GOLDEN))
    }

    /// The raw block function: the `counter`-th output word under `key`.
    #[inline]
    pub fn block(key: u64, counter: u64) -> u64 {
        mix64(key.wrapping_add(counter.wrapping_add(1).wrapping_mul(GOLDEN)))
    }
}

impl SeedableRng for KeyedRng {
    fn seed_from_u64(seed: u64) -> Self {
        Self::new(mix64(seed ^ GOLDEN))
    }
}

impl RngCore for KeyedRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let c = self.counter;
        self.counter = c.wrapping_add(1);
        Self::block(self.key, c)
    }
}

pub mod mock {
    //! Mock generators with fully predictable output, for tests that
    //! need to steer stochastic code down a known path.

    use crate::RngCore;

    /// Yields `initial`, `initial + increment`, `initial + 2·increment`,
    /// … (wrapping), exactly like `rand::rngs::mock::StepRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StepRng {
        value: u64,
        increment: u64,
    }

    impl StepRng {
        /// Creates a generator starting at `initial` and advancing by
        /// `increment` per draw.
        pub fn new(initial: u64, increment: u64) -> Self {
            Self { value: initial, increment }
        }
    }

    impl RngCore for StepRng {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            let out = self.value;
            self.value = self.value.wrapping_add(self.increment);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::KeyedRng;
    use crate::{Rng, RngCore, SeedableRng};

    #[test]
    fn keyed_rng_is_a_pure_function_of_key_and_counter() {
        let key = KeyedRng::derive_key(42, 7);
        let mut a = KeyedRng::for_stream(key, 1234);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        // Random access through the block function matches the stream,
        // regardless of how many draws anyone else made in between.
        let mut b = KeyedRng::for_stream(key, 1234);
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let direct = KeyedRng::block(key, 3);
        let mut c = KeyedRng::new(key);
        for _ in 0..3 {
            c.next_u64();
        }
        assert_eq!(c.next_u64(), direct);
    }

    #[test]
    fn keyed_streams_are_distinct() {
        let key = KeyedRng::derive_key(1, 0);
        let mut a = KeyedRng::for_stream(key, 10);
        let mut b = KeyedRng::for_stream(key, 11);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
        // Different seeds move every stream.
        let other = KeyedRng::derive_key(2, 0);
        assert_ne!(KeyedRng::for_stream(other, 10).next_u64(), xs[0]);
    }

    #[test]
    fn keyed_rng_unit_floats_stay_in_range_and_center() {
        let mut rng = KeyedRng::seed_from_u64(5);
        let n = 20_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }
}
