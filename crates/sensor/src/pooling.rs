//! In-sensor analog pooling, behaviourally.
//!
//! Each pooled output site corresponds to one instance of the Fig.-4
//! averaging circuit: `k·k` sub-pixels of one channel (RGB mode) or
//! `k·k·3` sub-pixels (gray mode) tied together through `N·R` legs. The
//! transfer applied here is the line fitted from the transistor-level
//! simulation (`hirise_analog::behavior`), plus
//!
//! * a bow-shaped residual bounded by the fit's `max_residual` — the
//!   circuit's systematic nonlinearity,
//! * thermal noise at the shared node,
//! * the source followers' read noise, attenuated by `1/√N` through the
//!   averaging.

use hirise_imaging::Plane;
use rand::distributions::NormalSampler;

use crate::adc::Adc;
use crate::array::PixelArray;
use crate::noise::{self, domain, RowNoise, ROW_CHUNK};
use crate::shard::{shard_rows, SendPtr, ShardPool};
use crate::{Result, SensorError};

/// Behavioural parameters of the analog pooling circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolingConfig {
    /// Linear gain from mean pixel voltage to the `avg` node.
    pub gain: f64,
    /// Output offset, volts.
    pub offset: f64,
    /// Thermal noise at the shared node, volts RMS.
    pub noise_sigma: f64,
    /// Peak systematic nonlinearity (bow over the input range), volts.
    pub nonlinearity: f64,
}

impl Default for PoolingConfig {
    /// Constants extracted from the 12-input transistor-level fit; an
    /// integration test re-derives them from `hirise-analog` to prevent
    /// drift.
    fn default() -> Self {
        Self {
            gain: hirise_analog::behavior::calibrated::GAIN_12,
            offset: hirise_analog::behavior::calibrated::OFFSET_12,
            noise_sigma: 0.3e-3,
            nonlinearity: hirise_analog::behavior::calibrated::MAX_RESIDUAL_12,
        }
    }
}

impl PoolingConfig {
    /// Ideal circuit: exact averaging, no noise, no nonlinearity. The
    /// output still passes through the linear gain/offset so the readout
    /// calibration path is exercised.
    pub fn ideal() -> Self {
        Self { noise_sigma: 0.0, nonlinearity: 0.0, ..Self::default() }
    }

    /// Re-fits the behavioural constants from the transistor-level circuit
    /// with `n` inputs (slower; used by ablation benches).
    ///
    /// # Errors
    ///
    /// Propagates analog-solver failures as [`SensorError::InvalidConfig`].
    pub fn fit_from_analog(n: usize, range: (f64, f64)) -> Result<Self> {
        let circuit = hirise_analog::pooling::PoolingCircuit::builder(n).build().map_err(|_| {
            SensorError::InvalidConfig { parameter: "pooling inputs", value: n as f64 }
        })?;
        let fit =
            hirise_analog::behavior::PoolingBehavior::fit(&circuit, range, 9).map_err(|_| {
                SensorError::InvalidConfig { parameter: "pooling fit", value: n as f64 }
            })?;
        Ok(Self {
            gain: fit.gain,
            offset: fit.offset,
            noise_sigma: 0.3e-3,
            nonlinearity: fit.max_residual,
        })
    }

    /// Forward transfer for a mean pixel voltage, including the systematic
    /// bow (deterministic part only).
    pub fn transfer(&self, mean_v: f64, v_dark: f64, v_sat: f64) -> f64 {
        let t = ((mean_v - v_dark) / (v_sat - v_dark)).clamp(0.0, 1.0);
        self.gain * mean_v + self.offset + self.nonlinearity * (std::f64::consts::PI * t).sin()
    }

    /// Output voltage the circuit produces for the darkest/brightest mean
    /// input — the range the pooled-readout ADC is spanned over.
    pub fn output_range(&self, v_dark: f64, v_sat: f64) -> (f64, f64) {
        (self.gain * v_dark + self.offset, self.gain * v_sat + self.offset)
    }
}

/// Checks that `k` tiles the array.
pub(crate) fn validate_pooling(array: &PixelArray, k: u32) -> Result<()> {
    if k == 0 || !array.width().is_multiple_of(k) || !array.height().is_multiple_of(k) {
        return Err(SensorError::InvalidPooling {
            k,
            width: array.width(),
            height: array.height(),
        });
    }
    Ok(())
}

/// Position-keyed, fused pool + stage-1 digitise of one channel (`k×k`
/// sub-pixels per site). Writes the analog site voltages to `analog`
/// and the converted unit-range image to `out` in one pass.
///
/// Every site's noise comes from its own counter-based stream
/// (`(key, POOL-domain + channel, site index)`: one pooling draw, then
/// one ADC draw), so the result is a pure function of position — the row
/// bands can be computed on any shard layout with bit-identical output.
/// Each site sums its sub-pixels over row slices in
/// [`PixelArray::mean_window`]'s order, so the noiseless analog output is
/// exactly `cfg.transfer(mean_window(..))`.
///
/// # Errors
///
/// [`SensorError::InvalidPooling`] when `k` does not tile the array.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pool_channel(
    array: &PixelArray,
    channel: usize,
    k: u32,
    cfg: &PoolingConfig,
    adc: &Adc,
    key: u64,
    shards: usize,
    pool: Option<&ShardPool>,
    analog: &mut Plane,
    out: &mut Plane,
) -> Result<()> {
    validate_pooling(array, k)?;
    let sigma = combined_sigma(cfg, array.params().read_noise, (k * k) as f64);
    let area = (k as u64 * k as u64) as f64;
    let plane = array.plane(channel);
    let ku = k as usize;
    pool_fused(
        array,
        k,
        sigma,
        cfg,
        adc,
        key,
        domain::POOL + channel as u64,
        shards,
        pool,
        analog,
        out,
        |y0, x0| {
            let mut acc = 0.0f64;
            for dy in 0..ku {
                for &v in &plane.row((y0 + dy) as u32)[x0..x0 + ku] {
                    acc += v as f64;
                }
            }
            acc / area
        },
    );
    Ok(())
}

/// Position-keyed, fused gray pool + digitise (`k·k·3` inputs per site,
/// the combined grayscale + pooling configuration). See
/// [`pool_channel`] for the determinism contract.
///
/// # Errors
///
/// [`SensorError::InvalidPooling`] when `k` does not tile the array.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pool_gray(
    array: &PixelArray,
    k: u32,
    cfg: &PoolingConfig,
    adc: &Adc,
    key: u64,
    shards: usize,
    pool: Option<&ShardPool>,
    analog: &mut Plane,
    out: &mut Plane,
) -> Result<()> {
    validate_pooling(array, k)?;
    let sigma = combined_sigma(cfg, array.params().read_noise, (k * k * 3) as f64);
    let area = (k as u64 * k as u64) as f64;
    let planes = [array.plane(0), array.plane(1), array.plane(2)];
    let ku = k as usize;
    // Per-channel means first, then the three-way average — exactly like
    // `PixelArray::mean_window_rgb`.
    pool_fused(array, k, sigma, cfg, adc, key, domain::POOL, shards, pool, analog, out, {
        |y0, x0| {
            let mut channel_means = [0.0f64; 3];
            for (plane, mean) in planes.iter().zip(channel_means.iter_mut()) {
                let mut acc = 0.0f64;
                for dy in 0..ku {
                    for &v in &plane.row((y0 + dy) as u32)[x0..x0 + ku] {
                        acc += v as f64;
                    }
                }
                *mean = acc / area;
            }
            (channel_means[0] + channel_means[1] + channel_means[2]) / 3.0
        }
    });
    Ok(())
}

/// Total per-site noise sigma: circuit thermal noise plus the source
/// followers' read noise attenuated by the `n`-input averaging.
fn combined_sigma(cfg: &PoolingConfig, read_noise: f64, n_inputs: f64) -> f64 {
    let read_sigma = read_noise / n_inputs.sqrt();
    (cfg.noise_sigma * cfg.noise_sigma + read_sigma * read_sigma).sqrt()
}

/// The shared fused keyed kernel behind [`pool_channel`] and
/// [`pool_gray`]: row-sharded sweep over the pooled grid, calling
/// `site_mean(y0, x0)` for each site's mean input voltage (the only part
/// that differs between the channel and gray configurations), then
/// transfer + keyed noise, and one [`Adc::convert_row`] call per row
/// chunk for the ADC conversion.
// lint: zero-alloc
#[allow(clippy::too_many_arguments)]
fn pool_fused<M: Fn(usize, usize) -> f64 + Sync>(
    array: &PixelArray,
    k: u32,
    sigma: f64,
    cfg: &PoolingConfig,
    adc: &Adc,
    key: u64,
    dom: u64,
    shards: usize,
    pool: Option<&ShardPool>,
    analog: &mut Plane,
    out: &mut Plane,
    site_mean: M,
) {
    let params = *array.params();
    let (ow, oh) = (array.width() / k, array.height() / k);
    let ku = k as usize;
    let oww = ow as usize;
    analog.reshape_for_overwrite(ow, oh);
    out.reshape_for_overwrite(ow, oh);
    let sampler = NormalSampler::new();
    let adc_sigma = adc.noise_sigma();
    let out_base = SendPtr::new(out.as_mut_slice().as_mut_ptr());
    shard_rows(pool, analog.as_mut_slice(), oh as usize, oww, shards, |_, oy0, aband| {
        // SAFETY: `out` bands mirror the `analog` bands exactly — same
        // row range, same length, reshaped to identical dimensions
        // above — so they are disjoint across shards too, and `out`
        // outlives the sharded run.
        let oband =
            unsafe { std::slice::from_raw_parts_mut(out_base.get().add(oy0 * oww), aband.len()) };
        let mut noise = RowNoise::new();
        for (dy, (arow, orow)) in
            aband.chunks_exact_mut(oww).zip(oband.chunks_exact_mut(oww)).enumerate()
        {
            let oy = oy0 + dy;
            let y0 = oy * ku;
            let row_site = (oy * oww) as u64;
            let chunks = arow.chunks_mut(ROW_CHUNK).zip(orow.chunks_mut(ROW_CHUNK));
            for (c, (arow, orow)) in chunks.enumerate() {
                let ox0 = c * ROW_CHUNK;
                let first = noise::stream(dom, row_site + ox0 as u64);
                let (pool_g, adc_g, xs) =
                    noise.draw(&sampler, key, first, arow.len(), sigma > 0.0, adc_sigma > 0.0);
                let draws = pool_g.iter().zip(adc_g);
                for (i, ((site, x), (&p, &g))) in
                    arow.iter_mut().zip(xs.iter_mut()).zip(draws).enumerate()
                {
                    let mean = site_mean(y0, (ox0 + i) * ku);
                    let mut v = cfg.transfer(mean, params.v_dark, params.v_sat);
                    if sigma > 0.0 {
                        v += sigma * p;
                    }
                    let av = v as f32;
                    *site = av;
                    let g = if adc_sigma > 0.0 { g } else { 0.0 };
                    *x = av as f64 + adc_sigma * g;
                }
                adc.convert_row(xs, orow);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::PixelParams;
    use crate::SensorError;
    use hirise_imaging::{Rect, RgbImage};

    fn array(level: f32, w: u32, h: u32) -> PixelArray {
        let scene = RgbImage::from_fn(w, h, |_, _| (level, level, level));
        PixelArray::from_scene(&scene, PixelParams::noiseless(), 0)
    }

    /// Keyed channel pool on one thread: `(analog, digital)` planes.
    fn pooled_channel(
        arr: &PixelArray,
        channel: usize,
        k: u32,
        cfg: &PoolingConfig,
        key: u64,
    ) -> Result<(Plane, Plane)> {
        let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
        let adc = Adc::paper_default();
        pool_channel(arr, channel, k, cfg, &adc, key, 1, None, &mut analog, &mut out)?;
        Ok((analog, out))
    }

    /// Keyed gray pool on one thread: `(analog, digital)` planes.
    fn pooled_gray(arr: &PixelArray, k: u32, cfg: &PoolingConfig, key: u64) -> (Plane, Plane) {
        let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
        let adc = Adc::paper_default();
        pool_gray(arr, k, cfg, &adc, key, 1, None, &mut analog, &mut out).unwrap();
        (analog, out)
    }

    #[test]
    fn keyed_row_pool_matches_per_site_draws() {
        // The row kernel against one generator per pooled site, channel
        // and gray, with the pooling sigma and the ADC sigma each at zero
        // in turn. Pooled rows of 301 sites span two kernel chunks and
        // end on a partial vector.
        use rand::rngs::KeyedRng;
        let (w, h, k) = (602u32, 4u32, 2u32);
        let scene = RgbImage::from_fn(w, h, |x, y| ((x % 97) as f32 / 97.0, y as f32 / 4.0, 0.4));
        let sampler = NormalSampler::new();
        let key = 0xC0FFEE;
        for read_noise in [0.0, 0.5e-3] {
            let params = PixelParams { read_noise, ..PixelParams::default() };
            let arr = PixelArray::from_scene(&scene, params, 3);
            for noise_sigma in [0.0, 0.4e-3] {
                let cfg = PoolingConfig { noise_sigma, ..PoolingConfig::default() };
                for adc in [Adc::paper_default(), Adc::paper_default().with_noise(0.2e-3)] {
                    for channel in [None, Some(1usize)] {
                        let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
                        let (dom, inputs) = match channel {
                            Some(ch) => {
                                pool_channel(
                                    &arr,
                                    ch,
                                    k,
                                    &cfg,
                                    &adc,
                                    key,
                                    1,
                                    None,
                                    &mut analog,
                                    &mut out,
                                )
                                .unwrap();
                                (domain::POOL + ch as u64, k * k)
                            }
                            None => {
                                pool_gray(&arr, k, &cfg, &adc, key, 1, None, &mut analog, &mut out)
                                    .unwrap();
                                (domain::POOL, 3 * k * k)
                            }
                        };
                        let sigma = combined_sigma(&cfg, read_noise, inputs as f64);
                        assert_eq!(sigma > 0.0, read_noise > 0.0 || noise_sigma > 0.0);
                        for (oy, ox) in (0..h / k).flat_map(|oy| (0..w / k).map(move |ox| (oy, ox)))
                        {
                            let rect = Rect::new(ox * k, oy * k, k, k);
                            let mean = match channel {
                                Some(ch) => arr.mean_window(ch, rect),
                                None => arr.mean_window_rgb(rect),
                            };
                            let site = (oy * (w / k) + ox) as u64;
                            let mut rng = KeyedRng::for_stream(key, noise::stream(dom, site));
                            let mut v = cfg.transfer(mean, params.v_dark, params.v_sat);
                            if sigma > 0.0 {
                                v += sigma * sampler.sample(&mut rng);
                            }
                            let av = v as f32;
                            let g = if adc.noise_sigma() > 0.0 {
                                sampler.sample(&mut rng)
                            } else {
                                0.0
                            };
                            let code = adc.code_to_unit(adc.convert_with_noise(av as f64, g));
                            let at = format!(
                                "{channel:?} sigma {sigma} adc {} ({ox},{oy})",
                                adc.noise_sigma()
                            );
                            assert_eq!(analog.get(ox, oy).to_bits(), av.to_bits(), "{at}");
                            assert_eq!(out.get(ox, oy).to_bits(), code.to_bits(), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn default_config_uses_calibrated_constants() {
        let cfg = PoolingConfig::default();
        assert_eq!(cfg.gain, hirise_analog::behavior::calibrated::GAIN_12);
        assert_eq!(cfg.offset, hirise_analog::behavior::calibrated::OFFSET_12);
    }

    #[test]
    fn ideal_pooling_of_flat_field() {
        let arr = array(0.5, 8, 8);
        let cfg = PoolingConfig::ideal();
        let (p, _) = pooled_channel(&arr, 0, 4, &cfg, 1).unwrap();
        assert_eq!(p.dimensions(), (2, 2));
        let expected = cfg.gain * 0.6 + cfg.offset;
        for &v in p.as_slice() {
            assert!((v as f64 - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn gray_pooling_merges_channels() {
        let scene = RgbImage::from_fn(4, 4, |_, _| (0.0, 0.5, 1.0));
        let arr = PixelArray::from_scene(&scene, PixelParams::noiseless(), 0);
        let cfg = PoolingConfig::ideal();
        let (p, _) = pooled_gray(&arr, 2, &cfg, 1);
        // mean irradiance 0.5 -> mean voltage 0.6
        let expected = cfg.gain * 0.6 + cfg.offset;
        for &v in p.as_slice() {
            assert!((v as f64 - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn invalid_factor_rejected() {
        let arr = array(0.5, 6, 6);
        let cfg = PoolingConfig::ideal();
        for k in [4, 0] {
            let err = pooled_channel(&arr, 0, k, &cfg, 1).unwrap_err();
            assert!(matches!(err, SensorError::InvalidPooling { k: got, .. } if got == k), "{err}");
        }
    }

    #[test]
    fn noise_scales_down_with_pool_size() {
        // Larger pools average more followers: the read-noise contribution
        // shrinks as 1/sqrt(N). Compare sample standard deviations.
        let params = PixelParams { read_noise: 5e-3, ..PixelParams::noiseless() };
        let scene = RgbImage::from_fn(32, 32, |_, _| (0.5, 0.5, 0.5));
        let arr = PixelArray::from_scene(&scene, params, 0);
        let cfg = PoolingConfig { noise_sigma: 0.0, nonlinearity: 0.0, ..PoolingConfig::default() };
        let (p2, _) = pooled_channel(&arr, 0, 2, &cfg, crate::noise::frame_key(42, 0)).unwrap();
        let (p8, _) = pooled_channel(&arr, 0, 8, &cfg, crate::noise::frame_key(42, 1)).unwrap();
        let sd = |p: &Plane| {
            let m = p.mean() as f64;
            (p.as_slice().iter().map(|&v| (v as f64 - m).powi(2)).sum::<f64>() / p.len() as f64)
                .sqrt()
        };
        let (s2, s8) = (sd(&p2), sd(&p8));
        assert!(s8 < s2, "noise did not shrink: sd2={s2} sd8={s8}");
    }

    #[test]
    fn keyed_pool_is_shard_count_invariant() {
        // The tentpole property: with position-keyed noise, the row-
        // sharded pool is bit-identical to the single-threaded pool.
        let params = PixelParams::default();
        let scene = RgbImage::from_fn(24, 16, |x, y| (x as f32 / 24.0, y as f32 / 16.0, 0.5));
        let arr = PixelArray::from_scene(&scene, params, 3);
        let cfg = PoolingConfig::default();
        let adc = Adc::paper_default().with_inl(0.25).with_noise(0.2e-3);
        let key = crate::noise::frame_key(3, 0);
        let pool = ShardPool::new(4);
        let reference = {
            let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
            pool_channel(&arr, 1, 2, &cfg, &adc, key, 1, None, &mut analog, &mut out).unwrap();
            (analog, out)
        };
        for shards in [2usize, 4, 8] {
            let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
            pool_channel(&arr, 1, 2, &cfg, &adc, key, shards, Some(&pool), &mut analog, &mut out)
                .unwrap();
            assert_eq!(analog, reference.0, "analog differs at {shards} shards");
            assert_eq!(out, reference.1, "digital differs at {shards} shards");
        }
        // Gray path too.
        let gray_ref = {
            let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
            pool_gray(&arr, 4, &cfg, &adc, key, 1, None, &mut analog, &mut out).unwrap();
            (analog, out)
        };
        let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
        pool_gray(&arr, 4, &cfg, &adc, key, 3, Some(&pool), &mut analog, &mut out).unwrap();
        assert_eq!((analog, out), gray_ref);
    }

    #[test]
    fn keyed_pool_noiseless_matches_sequential_kernel() {
        // With every sigma at zero the fused keyed pool reduces to the
        // scalar per-window reference — `transfer` of
        // `PixelArray::mean_window` (gray: `mean_window_rgb`), bit for
        // bit — and its conversion to the ideal quantiser.
        let scene = RgbImage::from_fn(12, 8, |x, y| (x as f32 / 12.0, y as f32 / 8.0, 0.3));
        let arr = PixelArray::from_scene(&scene, PixelParams::noiseless(), 0);
        let params = *arr.params();
        let cfg = PoolingConfig { noise_sigma: 0.0, ..PoolingConfig::default() };
        let adc = Adc::paper_default().with_inl(0.25);
        let key = crate::noise::frame_key(0, 0);
        let k = 2;
        let check = |analog: &Plane, out: &Plane, mean: &dyn Fn(Rect) -> f64| {
            assert_eq!(analog.dimensions(), (6, 4));
            for oy in 0..analog.height() {
                for ox in 0..analog.width() {
                    let window = Rect::new(ox * k, oy * k, k, k);
                    let want = cfg.transfer(mean(window), params.v_dark, params.v_sat) as f32;
                    let got = analog.get(ox, oy);
                    assert_eq!(got.to_bits(), want.to_bits(), "site ({ox},{oy})");
                    assert_eq!(out.get(ox, oy), adc.code_to_unit(adc.convert_ideal(got as f64)));
                }
            }
        };
        let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
        for ch in 0..3 {
            pool_channel(&arr, ch, k, &cfg, &adc, key, 1, None, &mut analog, &mut out).unwrap();
            check(&analog, &out, &|r| arr.mean_window(ch, r));
        }
        pool_gray(&arr, k, &cfg, &adc, key, 1, None, &mut analog, &mut out).unwrap();
        check(&analog, &out, &|r| arr.mean_window_rgb(r));
    }

    #[test]
    fn keyed_pool_rejects_bad_factor() {
        let arr = array(0.5, 6, 6);
        let cfg = PoolingConfig::ideal();
        let adc = Adc::paper_default();
        let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
        assert!(pool_channel(&arr, 0, 4, &cfg, &adc, 1, 1, None, &mut analog, &mut out).is_err());
        assert!(pool_gray(&arr, 0, &cfg, &adc, 1, 1, None, &mut analog, &mut out).is_err());
    }

    #[test]
    fn transfer_is_monotone() {
        let cfg = PoolingConfig::default();
        let mut last = f64::NEG_INFINITY;
        for i in 0..=10 {
            let v = 0.3 + 0.6 * i as f64 / 10.0;
            let out = cfg.transfer(v, 0.3, 0.9);
            assert!(out > last);
            last = out;
        }
    }

    #[test]
    fn output_range_brackets_transfers() {
        let cfg = PoolingConfig::default();
        let (lo, hi) = cfg.output_range(0.3, 0.9);
        assert!(lo < hi);
        let mid = cfg.transfer(0.6, 0.3, 0.9);
        assert!(mid > lo && mid < hi + cfg.nonlinearity);
    }

    #[test]
    fn fit_from_analog_close_to_calibrated() {
        let fitted = PoolingConfig::fit_from_analog(12, (0.3, 0.9)).unwrap();
        let cal = PoolingConfig::default();
        assert!((fitted.gain - cal.gain).abs() < 1e-3, "gain drifted: {}", fitted.gain);
        assert!((fitted.offset - cal.offset).abs() < 1e-3, "offset drifted: {}", fitted.offset);
    }
}
