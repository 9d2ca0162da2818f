//! Position-keyed noise draws.
//!
//! The sensor models three stochastic ingredients — fixed-pattern
//! mismatch, temporal read noise, and ADC conversion noise — and realises
//! all of them the same way: every draw is a pure function of *where*
//! and *when* it happens — `(seed, readout op, domain, site)` — through
//! the counter-based [`rand::rngs::KeyedRng`] and the Ziggurat
//! [`NormalSampler`]. Values do not depend on traversal order, so row
//! ranges of a frame can be computed on different threads (or in any
//! order) with bit-identical results. Overlapping ROI readouts of one
//! request see the same pixel values, so the ROI kernel converts the
//! union of the boxes once (later crops copy the runs earlier ones hold)
//! and row-shards each crop like a capture.
//!
//! Every path draws its noise `ROW_CHUNK` (256) sites at a time into stack
//! buffers through the keyed row kernel
//! ([`NormalSampler::fill_keyed`] and
//! [`NormalSampler::fill_keyed_pairs`]). Consecutive sites are
//! consecutive streams, so on a CPU with AVX-512F and AVX-512DQ the
//! kernel hashes eight sites' words and runs the Ziggurat fast path
//! (one block, one multiply, the sign applied branch-free) per vector;
//! the ~1.2 % of draws that miss are drawn again per site from their own
//! streams, and every bit equals the per-site loop, which is the
//! fallback elsewhere. That matters most where the fixed pattern is too
//! large to cache (`FpnCache::MAX_SITES`, 1 Mi sites): a 2560×1920
//! capture redraws it from 29.5 M keyed draws per frame. On one thread
//! of a 2-vCPU Sapphire Rapids VM those take 100–113 ms through the
//! kernel against 203–240 ms per site (1.8–2.4×, five interleaved
//! reps); a two-draw row (ROI, full read, pool) gains 1.8–1.9×.
//!
//! The key layout: a per-readout key is derived from
//! `(noise seed, op counter)` with `frame_key`; each individual draw
//! stream is `(domain << 56) | site` (`stream`), where the domain
//! separates pooling noise, ADC noise, full-read noise, ROI noise and
//! the two fixed-pattern kinds, and `site` is the flat position index.

use rand::distributions::NormalSampler;
use rand::rngs::KeyedRng;

/// XOR mask decorrelating the temporal-noise keys from the
/// fixed-pattern seed.
pub(crate) const TEMPORAL_SEED_MASK: u64 = 0x0123_4567_89AB_CDEF;

/// Draw-stream domains: the top byte of a stream id. Keeps the noise of
/// different readout paths (and the two fixed-pattern kinds) on disjoint
/// streams even when their site indices coincide.
// lint:allow(rng-domain-registry): readout noise lives in a per-op key
// space (`frame_key(noise_seed, op)`) that never shares a key with the
// scenario seed, so these tags cannot correlate with the central
// registry's; their values are pinned by the sensor golden CSVs.
pub(crate) mod domain {
    /// Fixed-pattern PRNU mismatch (keyed off the raw sensor seed).
    pub const FPN_PRNU: u64 = 1;
    /// Fixed-pattern DSNU mismatch (keyed off the raw sensor seed).
    pub const FPN_DSNU: u64 = 2;
    /// Pooled capture: per-site pooling + stage-1 ADC noise, one domain
    /// per channel (`POOL + channel`; gray pooling uses `POOL`).
    pub const POOL: u64 = 3;
    /// Conventional full readout (read noise + ADC noise per sub-pixel).
    pub const FULL: u64 = 6;
    /// Selective ROI readout (read noise + ADC noise per sub-pixel, at
    /// absolute array coordinates).
    pub const ROI: u64 = 7;
}

/// Composes a draw-stream id from a domain and a flat site index.
#[inline]
pub(crate) fn stream(domain: u64, site: u64) -> u64 {
    (domain << 56) | site
}

/// The per-readout key: mixes the sensor's temporal-noise seed with the
/// readout-op counter, so successive captures of one sensor are
/// independent realisations while equal `(seed, op)` pairs reproduce.
#[inline]
pub(crate) fn frame_key(noise_seed: u64, op: u64) -> u64 {
    KeyedRng::derive_key(noise_seed, op)
}

/// The fixed-pattern key: a pure function of the sensor seed (no op
/// counter — the pattern must be identical across captures).
#[inline]
pub(crate) fn fpn_key(seed: u64) -> u64 {
    KeyedRng::derive_key(seed, 0)
}

/// One standard-normal draw for a `(key, stream)` position, one site at
/// a time: the per-site oracle the row-kernel readouts are tested
/// against.
#[cfg(test)]
pub(crate) fn site_normal(sampler: &NormalSampler, key: u64, stream_id: u64) -> f64 {
    sampler.sample(&mut KeyedRng::for_stream(key, stream_id))
}

/// Sites per call of the keyed row kernel: readout paths draw a row's
/// noise this many sites at a time into fixed stack buffers, so the
/// frame path allocates nothing.
pub(crate) const ROW_CHUNK: usize = 256;

/// Stack buffers for one row chunk whose sites take up to two draws
/// each — read noise (or pooling noise) and then ADC noise — and for the
/// samples the chunk hands to [`crate::Adc::convert_row`].
pub(crate) struct RowNoise {
    first: [f64; ROW_CHUNK],
    second: [f64; ROW_CHUNK],
    samples: [f64; ROW_CHUNK],
}

impl RowNoise {
    pub(crate) fn new() -> Self {
        Self { first: [0.0; ROW_CHUNK], second: [0.0; ROW_CHUNK], samples: [0.0; ROW_CHUNK] }
    }

    /// Draws the noise of `n ≤ ROW_CHUNK` sites on the consecutive
    /// streams from `first_stream`, exactly as a per-site loop would:
    /// each site's generator gives term `a` its first normal when
    /// `with_a`, then term `b` its next normal when `with_b`. Returns the
    /// `n` values of each term, and `n` sample slots for the caller to
    /// fill with the noisy inputs of the ADC; a term that is off holds
    /// stale values and must not be read.
    pub(crate) fn draw(
        &mut self,
        sampler: &NormalSampler,
        key: u64,
        first_stream: u64,
        n: usize,
        with_a: bool,
        with_b: bool,
    ) -> (&[f64], &[f64], &mut [f64]) {
        let (a, b) = (&mut self.first[..n], &mut self.second[..n]);
        match (with_a, with_b) {
            (true, true) => sampler.fill_keyed_pairs(key, first_stream, a, b),
            (true, false) => sampler.fill_keyed(key, first_stream, a),
            (false, true) => sampler.fill_keyed(key, first_stream, b),
            (false, false) => {}
        }
        (a, b, &mut self.samples[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_draws_are_position_pure() {
        let sampler = NormalSampler::new();
        let key = frame_key(7, 0);
        let a = site_normal(&sampler, key, stream(domain::POOL, 42));
        let b = site_normal(&sampler, key, stream(domain::POOL, 42));
        assert_eq!(a, b);
        assert_ne!(a, site_normal(&sampler, key, stream(domain::POOL, 43)));
        assert_ne!(a, site_normal(&sampler, key, stream(domain::FULL, 42)));
        assert_ne!(a, site_normal(&sampler, frame_key(7, 1), stream(domain::POOL, 42)));
    }
}
