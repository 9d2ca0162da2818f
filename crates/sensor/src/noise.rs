//! Noise-synthesis modes and the position-keyed draw plumbing.
//!
//! The sensor models three stochastic ingredients — fixed-pattern
//! mismatch, temporal read noise, and ADC conversion noise — and offers
//! two ways to realise them ([`NoiseRngMode`]):
//!
//! * **`Sequential`** (legacy): every draw comes from one sequential
//!   generator in traversal order. Bit-identical to the historical
//!   implementation (Box–Muller over the xoshiro `StdRng`), which is why
//!   it is retained: committed goldens and any externally recorded
//!   streams keep reproducing exactly. The cost is a total order on
//!   draws — no two sites can be computed concurrently, and skipping a
//!   site shifts every later value.
//!
//! * **`Keyed`** (default): every draw is a pure function of *where* and
//!   *when* it happens — `(seed, readout op, domain, site)` — through the
//!   counter-based [`rand::rngs::KeyedRng`] and the Ziggurat
//!   [`NormalSampler`]. Values no longer depend on traversal order, so
//!   row ranges of a frame can be computed on different threads (or in
//!   any order) with bit-identical results. Overlapping ROI readouts of
//!   one request see the same pixel values, so the ROI kernel converts
//!   the union of the boxes once (later crops copy the runs earlier ones
//!   hold) and row-shards each crop like a capture. It is also markedly
//!   faster: the Ziggurat common case is one `u64` block and one
//!   multiply versus Box–Muller's `ln`/`sqrt`/`cos` per draw, with the
//!   sign applied branch-free. That matters most where the fixed
//!   pattern is too large to cache (`FpnCache::MAX_SITES`, 1 Mi sites):
//!   a 2560×1920 capture redraws it from 29.5 M keyed draws per frame.
//!
//! The key layout: a per-readout key is derived from
//! `(noise seed, op counter)` with `frame_key`; each individual draw
//! stream is `(domain << 56) | site` (`stream`), where the domain
//! separates pooling noise, ADC noise, full-read noise, ROI noise and
//! the two fixed-pattern kinds, and `site` is the flat position index.

use rand::distributions::NormalSampler;
use rand::rngs::KeyedRng;

/// How the sensor realises its stochastic noise terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NoiseRngMode {
    /// One sequential generator, draws in traversal order. Preserves the
    /// historical bit streams (legacy goldens) at the cost of a total
    /// order on draws.
    Sequential,
    /// Counter-based position-keyed draws: each value is a pure function
    /// of its coordinates. Order-independent, row-shardable, and the
    /// fast path.
    #[default]
    Keyed,
}

impl std::fmt::Display for NoiseRngMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoiseRngMode::Sequential => write!(f, "sequential"),
            NoiseRngMode::Keyed => write!(f, "keyed"),
        }
    }
}

impl std::str::FromStr for NoiseRngMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sequential" | "seq" => Ok(NoiseRngMode::Sequential),
            "keyed" | "key" => Ok(NoiseRngMode::Keyed),
            other => Err(format!("unknown noise mode {other:?} (expected sequential|keyed)")),
        }
    }
}

/// XOR mask decorrelating the temporal-noise stream from the
/// fixed-pattern seed (shared by both modes).
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

/// One standard-normal draw for a `(key, stream)` position — the
/// keyed-mode unit of noise.
#[inline]
pub(crate) fn site_normal(sampler: &NormalSampler, key: u64, stream_id: u64) -> f64 {
    sampler.sample(&mut KeyedRng::for_stream(key, stream_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!("keyed".parse::<NoiseRngMode>().unwrap(), NoiseRngMode::Keyed);
        assert_eq!("Sequential".parse::<NoiseRngMode>().unwrap(), NoiseRngMode::Sequential);
        assert!("boxmuller".parse::<NoiseRngMode>().is_err());
        assert_eq!(NoiseRngMode::Keyed.to_string(), "keyed");
        assert_eq!(NoiseRngMode::Sequential.to_string(), "sequential");
        assert_eq!(NoiseRngMode::default(), NoiseRngMode::Keyed);
    }

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
