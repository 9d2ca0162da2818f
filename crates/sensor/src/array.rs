//! The analog pixel array: scene irradiance captured as per-sub-pixel
//! voltages with fixed-pattern noise baked in.

use hirise_imaging::{Plane, Rect, RgbImage};
use rand::distributions::NormalSampler;

use crate::noise::{self, domain, ROW_CHUNK};
use crate::pixel::PixelParams;
use crate::shard::{shard_rows, ShardPool};

/// Cached scaled fixed-pattern mismatch values for one
/// `(seed, width, height)` realisation.
///
/// The fixed pattern is a pure function of the seed and the pixel
/// position, so recomputing it on every
/// [`PixelArray::refill_from_scene`] repeats the per-sub-pixel keyed
/// Ziggurat work per frame for values that never change. The cache
/// stores the already-scaled `σ · mismatch(…)` terms — 8 bytes per
/// sub-pixel per *active* mismatch kind (a kind whose sigma is zero gets
/// no table at all) — turning the steady-state refill into a pure
/// multiply–add pass. The tables are filled by the keyed row kernel.
/// It is bounded ([`FpnCache::MAX_SITES`]) so paper-scale arrays
/// (2560×1920) do not pin hundreds of megabytes; above the bound the
/// mismatch terms are recomputed per refill by the same kernel
/// ([`PixelArray::fill_band_keyed`]).
///
/// The cache still pays where it applies, even against the batched
/// draws. A steady-state refill on one thread of a 2-vCPU Sapphire
/// Rapids VM (medians of 150, three reps): 640×480 takes 1.9–2.1 ms
/// cached against 8.9–9.0 ms redrawn by the kernel, and 256×192 takes
/// 0.15–0.20 ms against 1.37–1.56 ms. Building the VGA tables (the first
/// capture) fell from 19.7–21.9 ms with per-site draws to 13.5–14.5 ms.
#[derive(Debug, Clone, Default)]
struct FpnCache {
    key: Option<(u64, u32, u32)>,
    /// Channel-major `3 · w · h` scaled PRNU terms (empty when
    /// `prnu_sigma == 0`).
    prnu: Vec<f64>,
    /// Channel-major `3 · w · h` scaled DSNU terms (empty when
    /// `dsnu_sigma == 0`).
    dsnu: Vec<f64>,
}

impl FpnCache {
    /// Largest `width · height` the cache covers (1 Mi sites ≈ 48 MB of
    /// `f64` tables across both kinds and all three channels).
    const MAX_SITES: usize = 1 << 20;

    /// Makes the cache hold the realisation for `(seed, w, h)` under
    /// `params` (fixed per array), reusing buffer capacity; no-op when it
    /// already does.
    fn ensure(&mut self, seed: u64, w: u32, h: u32, params: &PixelParams) {
        if self.key == Some((seed, w, h)) {
            return;
        }
        let sites = 3 * w as usize * h as usize;
        let sampler = NormalSampler::new();
        let key = noise::fpn_key(seed);
        for (table, sigma, kind) in [
            (&mut self.prnu, params.prnu_sigma, domain::FPN_PRNU),
            (&mut self.dsnu, params.dsnu_sigma, domain::FPN_DSNU),
        ] {
            table.clear();
            if sigma != 0.0 {
                table.resize(sites, 0.0);
                sampler.fill_keyed(key, noise::stream(kind, 0), table);
                for g in table.iter_mut() {
                    *g *= sigma;
                }
            }
        }
        self.key = Some((seed, w, h));
    }
}

/// A captured analog pixel array: three voltage planes (R, G, B), one value
/// per sub-pixel, with PRNU/DSNU fixed-pattern mismatch applied.
///
/// The array is the *analog domain* — nothing here has been converted or
/// transferred. All HiRISE readout paths start from this object.
#[derive(Debug, Clone)]
pub struct PixelArray {
    planes: [Plane; 3],
    params: PixelParams,
    fpn: FpnCache,
}

impl PixelArray {
    /// Captures `scene` (normalised irradiance per channel) onto the array
    /// on one thread — the same planes [`crate::Sensor::capture`] builds.
    ///
    /// `seed` selects the fixed-pattern noise realisation; the same seed
    /// reproduces the same mismatch map.
    pub fn from_scene(scene: &RgbImage, params: PixelParams, seed: u64) -> Self {
        Self::from_scene_with(scene, params, seed, 1, None)
    }

    /// Captures `scene`, optionally row-sharding the fill like
    /// [`PixelArray::refill_from_scene_with`].
    pub(crate) fn from_scene_with(
        scene: &RgbImage,
        params: PixelParams,
        seed: u64,
        shards: usize,
        pool: Option<&ShardPool>,
    ) -> Self {
        let (w, h) = scene.dimensions();
        let planes = [Plane::new(w, h), Plane::new(w, h), Plane::new(w, h)];
        let mut array = Self { planes, params, fpn: FpnCache::default() };
        array.refill_from_scene_with(scene, seed, shards, pool);
        array
    }

    /// Recaptures a (possibly differently-sized) scene onto this array in
    /// place, reusing the voltage-plane buffers. The pixel parameters are
    /// kept; `seed` selects the fixed-pattern realisation exactly as in
    /// [`PixelArray::from_scene`] — refilling with the same scene and seed
    /// reproduces the same voltages bit-for-bit.
    pub fn refill_from_scene(&mut self, scene: &RgbImage, seed: u64) {
        self.refill_from_scene_with(scene, seed, 1, None);
    }

    /// Shard-aware recapture. The fixed pattern is a pure function of
    /// `(seed, position)`, so the row-sharded fill is bit-identical at
    /// every shard count; `shards`/`pool` only govern how the work is
    /// spread.
    pub(crate) fn refill_from_scene_with(
        &mut self,
        scene: &RgbImage,
        seed: u64,
        shards: usize,
        pool: Option<&ShardPool>,
    ) {
        let (w, h) = scene.dimensions();
        for plane in &mut self.planes {
            // `fill` overwrites every sample, so skip the zeroing pass.
            plane.reshape_for_overwrite(w, h);
        }
        let params = self.params;
        Self::fill(&mut self.planes, &mut self.fpn, scene, &params, seed, shards, pool);
    }

    fn fill(
        planes: &mut [Plane; 3],
        fpn: &mut FpnCache,
        scene: &RgbImage,
        params: &PixelParams,
        seed: u64,
        shards: usize,
        pool: Option<&ShardPool>,
    ) {
        // The noiseless/noisy split is hoisted out of the pixel loops, and
        // every path runs over paired row slices — sharded into row bands
        // when a pool is supplied. Values are bit-identical to the
        // per-pixel formulation in every path and at every shard count:
        // the cache stores the exact `σ · mismatch(…)` products the
        // direct path would recompute, every mismatch term is a pure
        // function of the absolute position, and a zero sigma contributes
        // exactly zero either way (a `±0.0` mismatch term cannot change
        // `voltage_with_mismatch`'s output, whose partial sums are
        // non-negative).
        let (w, h) = scene.dimensions();
        let sites = w as usize * h as usize;
        let wz = w as usize;
        let need_prnu = params.prnu_sigma != 0.0;
        let need_dsnu = params.dsnu_sigma != 0.0;
        let noiseless = !need_prnu && !need_dsnu;
        let cached = !noiseless && sites <= FpnCache::MAX_SITES;
        if cached {
            fpn.ensure(seed, w, h, params);
        }
        for (ch, src) in scene.planes().into_iter().enumerate() {
            let dst = &mut planes[ch];
            let src = src.as_slice();
            shard_rows(pool, dst.as_mut_slice(), h as usize, wz, shards, |_, y0, dst_band| {
                let src_band = &src[y0 * wz..y0 * wz + dst_band.len()];
                if noiseless {
                    for (&irr, out) in src_band.iter().zip(dst_band.iter_mut()) {
                        *out = params.voltage(irr) as f32;
                    }
                } else if cached {
                    let span = ch * sites + y0 * wz..ch * sites + y0 * wz + dst_band.len();
                    if need_prnu && need_dsnu {
                        let prnu_band = &fpn.prnu[span.clone()];
                        let dsnu_band = &fpn.dsnu[span];
                        for ((&irr, out), (&p, &d)) in src_band
                            .iter()
                            .zip(dst_band.iter_mut())
                            .zip(prnu_band.iter().zip(dsnu_band))
                        {
                            *out = params.voltage_with_mismatch(irr, p, d) as f32;
                        }
                    } else if need_prnu {
                        for ((&irr, out), &p) in
                            src_band.iter().zip(dst_band.iter_mut()).zip(&fpn.prnu[span])
                        {
                            *out = params.voltage_with_mismatch(irr, p, 0.0) as f32;
                        }
                    } else {
                        for ((&irr, out), &d) in
                            src_band.iter().zip(dst_band.iter_mut()).zip(&fpn.dsnu[span])
                        {
                            *out = params.voltage_with_mismatch(irr, 0.0, d) as f32;
                        }
                    }
                } else {
                    Self::fill_band_keyed(
                        src_band,
                        dst_band,
                        params,
                        seed,
                        ch * sites + y0 * wz,
                        need_prnu,
                        need_dsnu,
                    );
                }
            });
        }
    }

    /// Uncached fixed pattern: a position-keyed Ziggurat Gaussian per
    /// sub-pixel and mismatch kind, drawn by the keyed row kernel
    /// [`ROW_CHUNK`] sites at a time — what [`FpnCache::ensure`] would
    /// tabulate.
    // lint: zero-alloc
    fn fill_band_keyed(
        src_band: &[f32],
        dst_band: &mut [f32],
        params: &PixelParams,
        seed: u64,
        first_site: usize,
        need_prnu: bool,
        need_dsnu: bool,
    ) {
        let sampler = NormalSampler::new();
        let key = noise::fpn_key(seed);
        let (mut prnu, mut dsnu) = ([0.0; ROW_CHUNK], [0.0; ROW_CHUNK]);
        let chunks = src_band.chunks(ROW_CHUNK).zip(dst_band.chunks_mut(ROW_CHUNK));
        for (c, (src, dst)) in chunks.enumerate() {
            let (site, n) = ((first_site + c * ROW_CHUNK) as u64, src.len());
            if need_prnu {
                sampler.fill_keyed(key, noise::stream(domain::FPN_PRNU, site), &mut prnu[..n]);
            }
            if need_dsnu {
                sampler.fill_keyed(key, noise::stream(domain::FPN_DSNU, site), &mut dsnu[..n]);
            }
            for (((&irr, out), &p), &d) in src.iter().zip(dst.iter_mut()).zip(&prnu).zip(&dsnu) {
                let prnu = if need_prnu { params.prnu_sigma * p } else { 0.0 };
                let dsnu = if need_dsnu { params.dsnu_sigma * d } else { 0.0 };
                *out = params.voltage_with_mismatch(irr, prnu, dsnu) as f32;
            }
        }
    }

    /// Array width in pixel sites.
    pub fn width(&self) -> u32 {
        self.planes[0].width()
    }

    /// Array height in pixel sites.
    pub fn height(&self) -> u32 {
        self.planes[0].height()
    }

    /// Total number of sub-pixels (`width · height · 3`).
    pub fn subpixel_count(&self) -> u64 {
        self.width() as u64 * self.height() as u64 * 3
    }

    /// Pixel parameters the array was captured with.
    pub fn params(&self) -> &PixelParams {
        &self.params
    }

    /// Analog voltage of one sub-pixel (`channel` 0..3 = R, G, B).
    ///
    /// # Panics
    ///
    /// Panics if `channel >= 3` or the coordinate is out of bounds.
    pub fn voltage(&self, channel: usize, x: u32, y: u32) -> f64 {
        self.planes[channel].get(x, y) as f64
    }

    /// Voltage plane of one channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= 3`.
    pub fn plane(&self, channel: usize) -> &Plane {
        &self.planes[channel]
    }

    /// Mean voltage over a window of one channel — what the averaging
    /// circuit ties together for a single-channel pooling site.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds windows (callers validate rectangles first).
    pub fn mean_window(&self, channel: usize, rect: Rect) -> f64 {
        let p = &self.planes[channel];
        let (x0, w) = (rect.x as usize, rect.w as usize);
        let mut acc = 0.0f64;
        for y in rect.y..rect.bottom() {
            for &v in &p.row(y)[x0..x0 + w] {
                acc += v as f64;
            }
        }
        acc / rect.area() as f64
    }

    /// Mean voltage over a window across all three channels — the
    /// gray-pooling configuration (`k·k·3` sub-pixels tied together).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds windows.
    pub fn mean_window_rgb(&self, rect: Rect) -> f64 {
        (self.mean_window(0, rect) + self.mean_window(1, rect) + self.mean_window(2, rect)) / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sensor, SensorConfig};

    fn flat_scene(level: f32) -> RgbImage {
        RgbImage::from_fn(8, 8, |_, _| (level, level, level))
    }

    #[test]
    fn noiseless_capture_is_exact() {
        let arr = PixelArray::from_scene(&flat_scene(0.5), PixelParams::noiseless(), 1);
        for ch in 0..3 {
            assert!((arr.voltage(ch, 3, 3) - 0.6).abs() < 1e-6);
        }
        assert_eq!(arr.subpixel_count(), 8 * 8 * 3);
    }

    #[test]
    fn fpn_is_deterministic_per_seed() {
        let p = PixelParams::default();
        let a = PixelArray::from_scene(&flat_scene(0.5), p, 7);
        let b = PixelArray::from_scene(&flat_scene(0.5), p, 7);
        let c = PixelArray::from_scene(&flat_scene(0.5), p, 8);
        for ch in 0..3 {
            assert_eq!(a.plane(ch), b.plane(ch), "channel {ch} not reproducible");
        }
        assert_ne!(a.voltage(0, 2, 2), c.voltage(0, 2, 2), "seed ignored");
    }

    #[test]
    fn keyed_fpn_is_deterministic_and_distinct_from_hash() {
        // With the legacy hash pattern gone, "distinct" checks that the
        // keyed draws differ per seed, per channel and per pixel rather
        // than repeating one shared value.
        let p = PixelParams::default();
        let pool = crate::shard::ShardPool::new(3);
        let scene = flat_scene(0.5);
        let a = PixelArray::from_scene_with(&scene, p, 7, 3, Some(&pool));
        let b = PixelArray::from_scene_with(&scene, p, 7, 3, Some(&pool));
        let c = PixelArray::from_scene_with(&scene, p, 8, 3, Some(&pool));
        for ch in 0..3 {
            assert_eq!(a.plane(ch), b.plane(ch), "channel {ch} not reproducible");
        }
        assert_ne!(a.voltage(0, 2, 2), c.voltage(0, 2, 2), "seed ignored");
        assert_ne!(a.voltage(0, 2, 2), a.voltage(1, 2, 2), "channels share a pattern");
        assert_ne!(a.voltage(0, 2, 2), a.voltage(0, 3, 2), "pixels share a pattern");
    }

    #[test]
    fn from_scene_matches_sensor_capture() {
        // The public constructor and the sensor realise one fixed
        // pattern: same planes at every shard count.
        let scene = RgbImage::from_fn(9, 13, |x, y| (x as f32 / 9.0, y as f32 / 13.0, 0.4));
        for (params, seed) in [(PixelParams::default(), 5), (PixelParams::noiseless(), 6)] {
            let array = PixelArray::from_scene(&scene, params, seed);
            for shards in [1, 3] {
                let config = SensorConfig { pixel: params, seed, shards, ..Default::default() };
                let sensor = Sensor::capture(&scene, config);
                for ch in 0..3 {
                    assert_eq!(array.plane(ch), sensor.array().plane(ch), "shards {shards}");
                }
            }
        }
    }

    #[test]
    fn fpn_magnitude_is_bounded() {
        let p = PixelParams::default();
        let arr = PixelArray::from_scene(&flat_scene(0.5), p, 3);
        for ch in 0..3 {
            for y in 0..8 {
                for x in 0..8 {
                    let dv = (arr.voltage(ch, x, y) - 0.6).abs();
                    // 5 sigma of combined prnu (0.5% of 0.3 V) + dsnu (0.5 mV)
                    assert!(dv < 0.012, "fpn {dv} too large at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn refill_matches_fresh_capture() {
        let p = PixelParams::default();
        let small = flat_scene(0.3);
        let big = RgbImage::from_fn(12, 10, |x, y| (x as f32 / 12.0, y as f32 / 10.0, 0.5));
        let mut arr = PixelArray::from_scene(&small, p, 7);
        // Grow, then shrink back, through the same array.
        arr.refill_from_scene(&big, 9);
        let fresh_big = PixelArray::from_scene(&big, p, 9);
        assert_eq!((arr.width(), arr.height()), (12, 10));
        for ch in 0..3 {
            assert_eq!(arr.plane(ch), fresh_big.plane(ch), "channel {ch}");
        }
        arr.refill_from_scene(&small, 7);
        let fresh_small = PixelArray::from_scene(&small, p, 7);
        for ch in 0..3 {
            assert_eq!(arr.plane(ch), fresh_small.plane(ch), "channel {ch}");
        }
    }

    #[test]
    fn single_sigma_configs_match_fresh_capture() {
        // One mismatch kind disabled: the cache builds only the active
        // table, and refill stays bit-identical to a fresh capture.
        for params in [
            PixelParams { dsnu_sigma: 0.0, ..PixelParams::default() },
            PixelParams { prnu_sigma: 0.0, ..PixelParams::default() },
        ] {
            let scene = RgbImage::from_fn(9, 7, |x, y| (x as f32 / 9.0, y as f32 / 7.0, 0.4));
            let mut arr = PixelArray::from_scene(&scene, params, 11);
            arr.refill_from_scene(&scene, 11);
            let fresh = PixelArray::from_scene(&scene, params, 11);
            for ch in 0..3 {
                assert_eq!(arr.plane(ch), fresh.plane(ch), "channel {ch}");
            }
        }
    }

    #[test]
    fn keyed_refill_matches_fresh_capture() {
        // Same dimensions, new seed: the fixed-pattern cache is keyed on
        // the seed too, so every refill must equal a fresh capture.
        let p = PixelParams::default();
        let scene = RgbImage::from_fn(12, 10, |x, y| (x as f32 / 12.0, y as f32 / 10.0, 0.5));
        let mut arr = PixelArray::from_scene(&scene, p, 7);
        for seed in [9, 7, 9] {
            arr.refill_from_scene(&scene, seed);
            let fresh = PixelArray::from_scene(&scene, p, seed);
            for ch in 0..3 {
                assert_eq!(arr.plane(ch), fresh.plane(ch), "seed {seed} channel {ch}");
            }
        }
    }

    #[test]
    fn sharded_refill_is_bit_identical_in_both_modes() {
        // Both fill modes — the noiseless transfer and the fixed-pattern
        // mismatch — give the same planes at every shard count.
        let scene = RgbImage::from_fn(9, 13, |x, y| (x as f32 / 9.0, y as f32 / 13.0, 0.4));
        let pool = crate::shard::ShardPool::new(3);
        for p in [PixelParams::noiseless(), PixelParams::default()] {
            let reference = PixelArray::from_scene(&scene, p, 11);
            for shards in [2usize, 4, 13] {
                let mut sharded = PixelArray::from_scene(&scene, p, 11);
                sharded.refill_from_scene_with(&scene, 11, shards, Some(&pool));
                for ch in 0..3 {
                    assert_eq!(
                        sharded.plane(ch),
                        reference.plane(ch),
                        "{p:?} shards={shards} channel {ch}"
                    );
                }
            }
        }
    }

    #[test]
    fn keyed_direct_band_matches_cached_tables() {
        // The uncached per-position path and the cache tables must agree:
        // recompute two interior rows of channel 1 directly and compare
        // against a cache-built capture.
        let p = PixelParams::default();
        let scene = RgbImage::from_fn(6, 4, |x, y| (x as f32 / 6.0, y as f32 / 4.0, 0.5));
        let arr = PixelArray::from_scene(&scene, p, 21);
        let (wz, sites) = (6usize, 24usize);
        let src = scene.planes()[1].as_slice();
        let band = &src[wz..3 * wz];
        let mut direct = vec![0.0f32; 2 * wz];
        PixelArray::fill_band_keyed(band, &mut direct, &p, 21, sites + wz, true, true);
        for (i, &v) in direct.iter().enumerate() {
            let (x, y) = ((i % wz) as u32, (1 + i / wz) as u32);
            assert_eq!(v as f64, arr.voltage(1, x, y), "({x},{y})");
        }
    }

    #[test]
    fn keyed_fixed_pattern_matches_per_site_draws() {
        // The uncached band and the cache tables, both drawn by the row
        // kernel, against one generator per sub-pixel, with each mismatch
        // kind off in turn. A 301-site band spans two kernel chunks and
        // ends on a partial vector.
        let (w, h, seed) = (43u32, 7u32, 21u64);
        let scene = RgbImage::from_fn(w, h, |x, y| (x as f32 / 43.0, y as f32 / 7.0, 0.5));
        let sampler = NormalSampler::new();
        let key = noise::fpn_key(seed);
        let sites = (w * h) as usize;
        let src = scene.planes()[2].as_slice();
        for (prnu_sigma, dsnu_sigma) in [(0.005, 0.5e-3), (0.0, 0.5e-3), (0.005, 0.0)] {
            let p = PixelParams { prnu_sigma, dsnu_sigma, ..PixelParams::default() };
            let mismatch = |kind: u64, sigma: f64, site: usize| {
                let stream = noise::stream(kind, site as u64);
                if sigma != 0.0 {
                    sigma * noise::site_normal(&sampler, key, stream)
                } else {
                    0.0
                }
            };
            let mut band = vec![0.0f32; sites];
            let (need_prnu, need_dsnu) = (prnu_sigma != 0.0, dsnu_sigma != 0.0);
            PixelArray::fill_band_keyed(src, &mut band, &p, seed, 2 * sites, need_prnu, need_dsnu);
            let mut cache = FpnCache::default();
            cache.ensure(seed, w, h, &p);
            assert_eq!(cache.prnu.len(), if need_prnu { 3 * sites } else { 0 });
            assert_eq!(cache.dsnu.len(), if need_dsnu { 3 * sites } else { 0 });
            for (i, (&irr, &got)) in src.iter().zip(&band).enumerate() {
                let site = 2 * sites + i;
                let prnu = mismatch(domain::FPN_PRNU, prnu_sigma, site);
                let dsnu = mismatch(domain::FPN_DSNU, dsnu_sigma, site);
                let want = p.voltage_with_mismatch(irr, prnu, dsnu) as f32;
                assert_eq!(got.to_bits(), want.to_bits(), "{p:?} site {site}");
                if need_prnu {
                    assert_eq!(cache.prnu[site].to_bits(), prnu.to_bits(), "prnu site {site}");
                }
                if need_dsnu {
                    assert_eq!(cache.dsnu[site].to_bits(), dsnu.to_bits(), "dsnu site {site}");
                }
            }
        }
    }

    #[test]
    fn mean_window_averages() {
        let scene = RgbImage::from_fn(4, 4, |x, _| (x as f32 / 4.0, 0.0, 1.0));
        let arr = PixelArray::from_scene(&scene, PixelParams::noiseless(), 0);
        let m = arr.mean_window(0, Rect::new(0, 0, 4, 4));
        // irradiances 0, .25, .5, .75 -> mean 0.375 -> v = 0.3 + 0.6*0.375
        assert!((m - 0.525).abs() < 1e-6);
        let b = arr.mean_window(2, Rect::new(1, 1, 2, 2));
        assert!((b - 0.9).abs() < 1e-6);
    }

    #[test]
    fn mean_window_rgb_combines_channels() {
        let scene = RgbImage::from_fn(2, 2, |_, _| (0.0, 0.5, 1.0));
        let arr = PixelArray::from_scene(&scene, PixelParams::noiseless(), 0);
        let m = arr.mean_window_rgb(Rect::new(0, 0, 2, 2));
        // channel means: 0.3, 0.6, 0.9 -> 0.6
        assert!((m - 0.6).abs() < 1e-6);
    }
}
