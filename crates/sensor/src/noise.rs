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
//! and row-shards each crop like a capture. The Ziggurat common case is
//! one `u64` block and one multiply per draw, with the sign applied
//! branch-free. That matters most where the fixed pattern is too large
//! to cache (`FpnCache::MAX_SITES`, 1 Mi sites): a 2560×1920 capture
//! redraws it from 29.5 M keyed draws per frame.
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

/// One standard-normal draw for a `(key, stream)` position — the unit
/// of noise.
#[inline]
pub(crate) fn site_normal(sampler: &NormalSampler, key: u64, stream_id: u64) -> f64 {
    sampler.sample(&mut KeyedRng::for_stream(key, stream_id))
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
