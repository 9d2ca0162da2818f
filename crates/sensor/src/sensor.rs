//! The top-level [`Sensor`] façade tying the pixel array, pooling circuit
//! and ADC together, with full conversion/transfer accounting.

use std::sync::Arc;

use hirise_imaging::rect::UnionScratch;
use hirise_imaging::{FramePool, GrayImage, Image, Plane, Rect, RgbImage};
use rand::distributions::NormalSampler;

use crate::adc::Adc;
use crate::array::PixelArray;
use crate::noise::{self, domain, RowNoise, TEMPORAL_SEED_MASK};
use crate::pixel::PixelParams;
use crate::pooling::{self, PoolingConfig};
use crate::roi;
use crate::shard::ShardPool;
use crate::{Result, SensorError};

/// Colour mode of the stage-1 compressed capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColorMode {
    /// Three pooled channels (one averaging circuit per channel per site).
    Rgb,
    /// One pooled channel combining `k·k·3` sub-pixels — the additional
    /// 3× compression of the paper's grayscale circuit.
    Gray,
}

impl ColorMode {
    /// Channels produced by this mode.
    pub fn channels(&self) -> u32 {
        match self {
            ColorMode::Rgb => 3,
            ColorMode::Gray => 1,
        }
    }
}

impl std::fmt::Display for ColorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColorMode::Rgb => write!(f, "RGB"),
            ColorMode::Gray => write!(f, "Gray"),
        }
    }
}

/// Conversion/transfer counters produced by every readout operation.
///
/// These counters are the raw inputs of all paper metrics: `C` (ADC
/// conversions), `D` (data transfer) and, via `hirise-energy`, the energy
/// figures of Fig. 8 / Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadoutStats {
    /// ADC conversions performed.
    pub conversions: u64,
    /// Bits shipped sensor → processor.
    pub transferred_bits: u64,
    /// Bits shipped processor → sensor for box coordinates (`D1_P→S`).
    pub box_words_bits: u64,
}

impl ReadoutStats {
    /// Element-wise sum of two stats.
    pub fn merged(self, other: ReadoutStats) -> ReadoutStats {
        ReadoutStats {
            conversions: self.conversions + other.conversions,
            transferred_bits: self.transferred_bits + other.transferred_bits,
            box_words_bits: self.box_words_bits + other.box_words_bits,
        }
    }

    /// Sensor→processor transfer in bytes (rounded up).
    pub fn transferred_bytes(&self) -> u64 {
        self.transferred_bits.div_ceil(8)
    }

    /// Total transfer in both directions, bits.
    pub fn total_transfer_bits(&self) -> u64 {
        self.transferred_bits + self.box_words_bits
    }
}

/// Sensor configuration: pixel physics, pooling behaviour, ADC settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorConfig {
    /// Pixel transfer and noise parameters.
    pub pixel: PixelParams,
    /// Behavioural pooling-circuit parameters.
    pub pooling: PoolingConfig,
    /// ADC resolution in bits (the paper's `P_ADC`, 8).
    pub adc_bits: u32,
    /// ADC bow nonlinearity in LSBs.
    pub adc_inl_lsb: f64,
    /// ADC input-referred noise, volts RMS.
    pub adc_noise: f64,
    /// Seed for fixed-pattern and temporal noise.
    pub seed: u64,
    /// Row shards for the capture, pool and ROI paths: `1` = single
    /// threaded (default), `0` = one shard per available core, `n` =
    /// exactly `n`. Every noise draw is keyed by its position, so results
    /// are bit-identical at every setting.
    pub shards: u32,
}

impl Default for SensorConfig {
    fn default() -> Self {
        Self {
            pixel: PixelParams::default(),
            pooling: PoolingConfig::default(),
            adc_bits: 8,
            adc_inl_lsb: 0.25,
            adc_noise: 0.2e-3,
            seed: 0x5EED,
            shards: 1,
        }
    }
}

impl SensorConfig {
    /// Fully deterministic, distortion-free configuration (exactness tests).
    pub fn noiseless() -> Self {
        Self {
            pixel: PixelParams::noiseless(),
            pooling: PoolingConfig::ideal(),
            adc_inl_lsb: 0.0,
            adc_noise: 0.0,
            ..Self::default()
        }
    }

    /// Checks that the sensor can build both of its ADCs: the pixel ADC
    /// (`adc_bits` over `pixel.v_dark..pixel.v_sat`) and the pooled ADC
    /// (`adc_bits` over the pooling circuit's output range), with a
    /// finite INL bow, and that every noise sigma is finite and
    /// non-negative and the pooling bow finite.
    /// [`Sensor::capture`] expects a configuration that passes.
    ///
    /// # Errors
    ///
    /// [`SensorError::InvalidConfig`] when [`Adc::new`] rejects either
    /// ADC (a bit width outside `1..=16`, a non-finite voltage, `v_sat <=
    /// v_dark`, or an empty pooling output range, e.g. a non-positive
    /// pooling gain), when `adc_inl_lsb` or `pooling.nonlinearity` is not
    /// finite, or when `adc_noise`, `pixel.read_noise`,
    /// `pixel.prnu_sigma`, `pixel.dsnu_sigma` or `pooling.noise_sigma` is
    /// negative or not finite.
    pub fn validate(&self) -> Result<()> {
        Adc::check(self.adc_bits, self.pixel.v_dark, self.pixel.v_sat)?;
        // The bit width passed above, so only the pooled range can fail.
        let (lo, hi) = self.pooled_range();
        Adc::check(self.adc_bits, lo, hi).map_err(|_| SensorError::InvalidConfig {
            parameter: "pooling output range",
            value: hi - lo,
        })?;
        for (parameter, value) in
            [("adc_inl_lsb", self.adc_inl_lsb), ("pooling.nonlinearity", self.pooling.nonlinearity)]
        {
            if !value.is_finite() {
                return Err(SensorError::InvalidConfig { parameter, value });
            }
        }
        // A NaN sigma would fill the array or the pooled sites with NaN
        // (or switch their noise off), and a negative one is squared into
        // the pooling sigma but skipped by the full-resolution reads.
        for (parameter, value) in [
            ("adc_noise", self.adc_noise),
            ("read_noise", self.pixel.read_noise),
            ("prnu_sigma", self.pixel.prnu_sigma),
            ("dsnu_sigma", self.pixel.dsnu_sigma),
            ("pooling.noise_sigma", self.pooling.noise_sigma),
        ] {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(SensorError::InvalidConfig { parameter, value });
            }
        }
        Ok(())
    }

    /// The pooling circuit's output range over the pixel voltage swing.
    fn pooled_range(&self) -> (f64, f64) {
        self.pooling.output_range(self.pixel.v_dark, self.pixel.v_sat)
    }

    /// Builds the pixel and pooled ADCs, comparator ladders included.
    fn adcs(&self) -> Result<(Adc, Adc)> {
        self.validate()?;
        let adc = |lo, hi| Adc::build(self.adc_bits, lo, hi, self.adc_inl_lsb, self.adc_noise);
        let (lo, hi) = self.pooled_range();
        Ok((adc(self.pixel.v_dark, self.pixel.v_sat), adc(lo, hi)))
    }
}

/// A high-resolution sensor holding one captured scene.
///
/// All readout methods take `&mut self` because temporal noise advances
/// per readout: each readout keys its draws with the next value of a
/// readout-op counter, so captures of the same sensor are independent
/// noise realisations over the same fixed pattern.
///
/// The sensor builds its two ADCs (and their comparator ladders) once,
/// at [`Sensor::capture`], from a configuration that must pass
/// [`SensorConfig::validate`]; capture panics otherwise. The
/// configuration never changes afterwards, so neither do the ADCs.
#[derive(Debug, Clone)]
pub struct Sensor {
    array: PixelArray,
    config: SensorConfig,
    /// Converts full-resolution sub-pixels (ROI and full readout).
    pixel_adc: Adc,
    /// Converts pooled outputs, spanned over the pooling output range.
    pooled_adc: Adc,
    /// Base seed of the temporal-noise keys (reset on recapture,
    /// replaced by [`Sensor::reseed_temporal_noise`]).
    noise_seed: u64,
    /// Readout operations performed since (re)capture; each top-level
    /// readout derives its key from `(noise_seed, ops)`.
    ops: u64,
    /// Lazily spawned row-shard workers (`shards > 1`); shared across
    /// clones, dispatches without heap allocation.
    shard_pool: Option<Arc<ShardPool>>,
}

/// Resolved shard count for a configuration.
fn config_shards(config: &SensorConfig) -> usize {
    match config.shards {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n as usize,
    }
}

impl Sensor {
    /// Captures `scene` onto a new sensor.
    ///
    /// # Panics
    ///
    /// When `config` fails [`SensorConfig::validate`].
    pub fn new(scene: RgbImage, config: SensorConfig) -> Self {
        Self::capture(&scene, config)
    }

    /// Captures `scene` onto a new sensor without taking ownership of it
    /// (the array copies the pixel data anyway). Identical to
    /// [`Sensor::new`] minus one full-frame clone.
    ///
    /// # Panics
    ///
    /// When `config` fails [`SensorConfig::validate`].
    pub fn capture(scene: &RgbImage, config: SensorConfig) -> Self {
        let (pixel_adc, pooled_adc) =
            config.adcs().expect("sensor configuration must pass SensorConfig::validate");
        // Build the shard workers before the first fill, so the initial
        // capture row-shards exactly like every recapture.
        let shards = config_shards(&config);
        let shard_pool = (shards > 1).then(|| Arc::new(ShardPool::new(shards)));
        let array = PixelArray::from_scene_with(
            scene,
            config.pixel,
            config.seed,
            shards,
            shard_pool.as_deref(),
        );
        Self {
            array,
            config,
            pixel_adc,
            pooled_adc,
            noise_seed: config.seed ^ TEMPORAL_SEED_MASK,
            ops: 0,
            shard_pool,
        }
    }

    /// Recaptures a (possibly differently-sized) scene onto this sensor in
    /// place: the voltage planes are refilled reusing their buffers and the
    /// temporal-noise state is rewound, so the sensor is bit-identical to
    /// a fresh [`Sensor::capture`] of the same scene and configuration —
    /// without any steady-state heap allocation.
    pub fn recapture(&mut self, scene: &RgbImage) {
        self.ensure_shard_pool();
        let shards = self.capture_shards();
        self.array.refill_from_scene_with(
            scene,
            self.config.seed,
            shards,
            self.shard_pool.as_deref(),
        );
        self.noise_seed = self.config.seed ^ TEMPORAL_SEED_MASK;
        self.ops = 0;
    }

    /// Shard count for the row-parallel paths.
    fn capture_shards(&self) -> usize {
        config_shards(&self.config)
    }

    /// Spawns the persistent shard workers on first need
    /// (`shards > 1`); a no-op afterwards, so the steady state allocates
    /// nothing.
    fn ensure_shard_pool(&mut self) {
        if self.shard_pool.is_none() {
            let shards = self.capture_shards();
            if shards > 1 {
                self.shard_pool = Some(Arc::new(ShardPool::new(shards)));
            }
        }
    }

    /// The key of the next readout operation, advancing the op counter.
    fn next_op_key(&mut self) -> u64 {
        let op = self.ops;
        self.ops += 1;
        noise::frame_key(self.noise_seed, op)
    }

    /// Readies the next readout: spawns the shard workers on first
    /// need and returns the op key (advancing the op counter) with the
    /// shard count.
    fn next_keyed_op(&mut self) -> (u64, usize) {
        self.ensure_shard_pool();
        (self.next_op_key(), self.capture_shards())
    }

    /// Array width in pixel sites.
    pub fn width(&self) -> u32 {
        self.array.width()
    }

    /// Array height in pixel sites.
    pub fn height(&self) -> u32 {
        self.array.height()
    }

    /// The underlying analog array.
    pub fn array(&self) -> &PixelArray {
        &self.array
    }

    /// The active configuration.
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// The ADC of the full-resolution readouts (ROI and full frame).
    pub fn pixel_adc(&self) -> &Adc {
        &self.pixel_adc
    }

    /// The ADC of the stage-1 pooled capture.
    pub fn pooled_adc(&self) -> &Adc {
        &self.pooled_adc
    }

    /// Stage-1 capture: in-sensor pooling (+ optional grayscale fold),
    /// then conversion of only the pooled outputs.
    ///
    /// Spanning the pooled ADC over the pooling circuit's output range
    /// performs the digital re-calibration: the returned image is in
    /// normalised irradiance units, directly comparable to a digitally
    /// pooled reference.
    ///
    /// # Errors
    ///
    /// [`crate::SensorError::InvalidPooling`] when `k` does not tile the
    /// array.
    pub fn capture_pooled(&mut self, k: u32, mode: ColorMode) -> Result<(Image, ReadoutStats)> {
        let mut analog = Plane::new(1, 1);
        let mut out = Image::Gray(GrayImage::new(1, 1));
        let stats = self.capture_pooled_into(k, mode, &mut analog, &mut out)?;
        Ok((out, stats))
    }

    /// In-place variant of [`Sensor::capture_pooled`]: the analog pooling
    /// result lands in `analog` and the digitised image in `out`, both
    /// reshaped reusing their buffers. `out` is switched to the requested
    /// colour mode if it holds the other variant (the only case that
    /// allocates in steady state is that mode change). Images and stats
    /// are bit-identical to the allocating path.
    ///
    /// # Errors
    ///
    /// [`crate::SensorError::InvalidPooling`] when `k` does not tile the
    /// array (`analog` and `out` are left untouched).
    pub fn capture_pooled_into(
        &mut self,
        k: u32,
        mode: ColorMode,
        analog: &mut Plane,
        out: &mut Image,
    ) -> Result<ReadoutStats> {
        pooling::validate_pooling(&self.array, k)?;
        let (key, shards) = self.next_keyed_op();
        let adc = &self.pooled_adc;
        let bits = adc.bits() as u64;
        let pool = self.shard_pool.as_deref();
        let count = match mode {
            ColorMode::Gray => {
                let target = match out {
                    Image::Gray(g) => g,
                    other => {
                        *other = Image::Gray(GrayImage::new(1, 1));
                        other.as_gray_mut().expect("just assigned the gray variant")
                    }
                };
                pooling::pool_gray(
                    &self.array,
                    k,
                    &self.config.pooling,
                    adc,
                    key,
                    shards,
                    pool,
                    analog,
                    target.plane_mut(),
                )?;
                target.plane().len() as u64
            }
            ColorMode::Rgb => {
                let target = match out {
                    Image::Rgb(c) => c,
                    other => {
                        *other = Image::Rgb(RgbImage::new(1, 1));
                        other.as_rgb_mut().expect("just assigned the rgb variant")
                    }
                };
                for (ch, plane) in target.planes_mut().into_iter().enumerate() {
                    pooling::pool_channel(
                        &self.array,
                        ch,
                        k,
                        &self.config.pooling,
                        adc,
                        key,
                        shards,
                        pool,
                        analog,
                        plane,
                    )?;
                }
                target.width() as u64 * target.height() as u64 * 3
            }
        };
        Ok(ReadoutStats { conversions: count, transferred_bits: count * bits, box_words_bits: 0 })
    }

    /// Conventional full-array readout: every sub-pixel converted and
    /// transferred (the paper's baseline, `C_old = n·m·3`).
    pub fn read_full(&mut self) -> (RgbImage, ReadoutStats) {
        let key = self.next_op_key();
        let adc = &self.pixel_adc;
        let (w, h) = (self.array.width(), self.array.height());
        let read_noise = self.config.pixel.read_noise;
        let sampler = NormalSampler::new();
        let sites = w as u64 * h as u64;
        let mut noise = RowNoise::new();
        let [r, g, b] = std::array::from_fn(|ch| {
            let mut out = Plane::new(w, h);
            roi::convert_run(
                self.array.plane(ch).as_slice(),
                out.as_mut_slice(),
                domain::FULL,
                ch as u64 * sites,
                key,
                adc,
                read_noise,
                &sampler,
                &mut noise,
            );
            out
        });
        let img = RgbImage::from_planes(r, g, b).expect("planes share dimensions");
        let count = w as u64 * h as u64 * 3;
        let stats = ReadoutStats {
            conversions: count,
            transferred_bits: count * adc.bits() as u64,
            box_words_bits: 0,
        };
        (img, stats)
    }

    /// Stage-2 readout of a single full-resolution ROI.
    ///
    /// # Errors
    ///
    /// [`crate::SensorError::RoiOutOfBounds`] when the box leaves the array.
    pub fn read_roi(&mut self, rect: Rect) -> Result<(RgbImage, ReadoutStats)> {
        let (key, shards) = self.next_keyed_op();
        roi::read_roi(&self.array, rect, &self.pixel_adc, key, shards, self.shard_pool.as_deref())
    }

    /// Stage-2 readout of a batch of ROIs: conversions are charged on the
    /// union of the boxes, transfer per box, and the boxes' coordinates
    /// cost `j · 4` words in the opposite direction
    /// ([`ReadoutStats::box_words_bits`]).
    ///
    /// # Errors
    ///
    /// [`crate::SensorError::RoiOutOfBounds`] when any box leaves the array.
    pub fn read_rois(&mut self, rects: &[Rect]) -> Result<(Vec<RgbImage>, ReadoutStats)> {
        let (key, shards) = self.next_keyed_op();
        roi::read_rois(&self.array, rects, &self.pixel_adc, key, shards, self.shard_pool.as_deref())
    }

    /// In-place variant of [`Sensor::read_rois`]: crops land in `images`
    /// (recycled through `pool`) and the union sweep uses `union`, so
    /// after a warm-up frame or two the call performs no heap allocation.
    /// `images` is left unchanged when a box leaves the array.
    ///
    /// # Errors
    ///
    /// [`crate::SensorError::RoiOutOfBounds`] when any box leaves the
    /// array.
    pub fn read_rois_into(
        &mut self,
        rects: &[Rect],
        images: &mut Vec<RgbImage>,
        pool: &mut FramePool,
        union: &mut UnionScratch,
    ) -> Result<ReadoutStats> {
        let (key, shards) = self.next_keyed_op();
        let shard_pool = self.shard_pool.as_deref();
        roi::read_rois_into(
            &self.array,
            rects,
            &self.pixel_adc,
            key,
            shards,
            shard_pool,
            images,
            pool,
            union,
        )
    }

    /// Derives a fresh noise stream (e.g. to decorrelate captures) while
    /// keeping the fixed pattern: the readout-op keys restart from `seed`.
    pub fn reseed_temporal_noise(&mut self, seed: u64) {
        self.noise_seed = seed;
        self.ops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_imaging::{color, metrics, ops};

    fn test_scene(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            (
                0.2 + 0.6 * ((x * 13 + y * 7) % 32) as f32 / 32.0,
                0.2 + 0.6 * ((x * 5 + y * 11) % 32) as f32 / 32.0,
                0.2 + 0.6 * ((x * 3 + y * 17) % 32) as f32 / 32.0,
            )
        })
    }

    #[test]
    fn keyed_row_readouts_match_per_site_draws() {
        // The full and ROI readouts' row kernel against one generator per
        // sub-pixel, with the read noise and the ADC noise each at zero in
        // turn. Rows of 300 sites (ROI runs of 281) span two kernel
        // chunks and end on a partial vector.
        use rand::rngs::KeyedRng;
        let (w, h) = (300u32, 6u32);
        let scene = test_scene(w, h);
        let sampler = NormalSampler::new();
        let sites = (w * h) as usize;
        for read_noise in [0.0, 0.5e-3] {
            for adc_noise in [0.0, 0.2e-3] {
                let pixel = PixelParams { read_noise, ..PixelParams::default() };
                let mut sensor = Sensor::capture(
                    &scene,
                    SensorConfig { pixel, adc_noise, ..Default::default() },
                );
                let adc = sensor.pixel_adc().clone();
                let per_site = |key: u64, stream: u64, src: f32| {
                    let mut rng = KeyedRng::for_stream(key, stream);
                    let mut v = src as f64;
                    if read_noise > 0.0 {
                        v += read_noise * sampler.sample(&mut rng);
                    }
                    let g = if adc.noise_sigma() > 0.0 { sampler.sample(&mut rng) } else { 0.0 };
                    adc.code_to_unit(adc.convert_with_noise(v, g)).to_bits()
                };
                let key = noise::frame_key(sensor.noise_seed, sensor.ops);
                let (full, _) = sensor.read_full();
                for ch in 0..3 {
                    let src = sensor.array().plane(ch).as_slice();
                    for (i, &got) in full.planes()[ch].as_slice().iter().enumerate() {
                        let stream = noise::stream(domain::FULL, (ch * sites + i) as u64);
                        let at = format!("full rn {read_noise} adc {adc_noise} ch {ch} site {i}");
                        assert_eq!(got.to_bits(), per_site(key, stream, src[i]), "{at}");
                    }
                }
                let rect = Rect::new(7, 1, 281, 4);
                let key = noise::frame_key(sensor.noise_seed, sensor.ops);
                let (crop, _) = sensor.read_roi(rect).unwrap();
                for ch in 0..3 {
                    let src = sensor.array().plane(ch);
                    for (y, x) in (0..rect.h).flat_map(|y| (0..rect.w).map(move |x| (y, x))) {
                        let (ax, ay) = (rect.x + x, rect.y + y);
                        let site = ch * sites + (ay * w + ax) as usize;
                        let stream = noise::stream(domain::ROI, site as u64);
                        let got = crop.planes()[ch].get(x, y).to_bits();
                        let at = format!("roi rn {read_noise} adc {adc_noise} ch {ch} ({ax},{ay})");
                        assert_eq!(got, per_site(key, stream, src.get(ax, ay)), "{at}");
                    }
                }
            }
        }
    }

    /// The `(y, x)` positions of a `w×h` grid, row by row.
    fn grid(w: u32, h: u32) -> impl Iterator<Item = (u32, u32)> {
        (0..h).flat_map(move |y| (0..w).map(move |x| (y, x)))
    }

    #[test]
    fn geometry_sweep_matches_per_site_draws() {
        // Degenerate shapes against one generator per site: 1×1, 1×N and
        // N×1 arrays and a square, pooled at k = 1 and at each side (a k
        // that does not tile is rejected), gray and RGB, read as ROIs (a
        // 1×1 box at each corner, then the whole array) and in full, at
        // 1 and 2 shards, with every noise source on. Their rows reach the
        // ADC's row converter one to a few lanes at a time.
        use rand::rngs::KeyedRng;
        let sampler = NormalSampler::new();
        for (w, h) in [(1u32, 1u32), (1, 19), (19, 1), (6, 6)] {
            let scene = test_scene(w, h);
            let sites = w as u64 * h as u64;
            for shards in [1u32, 2] {
                let config = SensorConfig { shards, ..SensorConfig::default() };
                let mut sensor = Sensor::capture(&scene, config);
                let (params, pooling) = (config.pixel, config.pooling);
                let (pooled_adc, pixel_adc) =
                    (sensor.pooled_adc().clone(), sensor.pixel_adc().clone());
                // A pooled site: the transfer plus the pooling noise,
                // rounded to the analog plane's `f32`, then converted.
                let pooled_site = |key, stream, v: f64, sigma: f64| {
                    let mut rng = KeyedRng::for_stream(key, stream);
                    let mut v = v;
                    if sigma > 0.0 {
                        v += sigma * sampler.sample(&mut rng);
                    }
                    let av = v as f32;
                    let adc = &pooled_adc;
                    let g = if adc.noise_sigma() > 0.0 { sampler.sample(&mut rng) } else { 0.0 };
                    (av, adc.code_to_unit(adc.convert_with_noise(av as f64, g)).to_bits())
                };
                // A sub-pixel: its voltage plus the read noise, converted.
                let pixel_site = |key, stream, src: f32| {
                    let mut rng = KeyedRng::for_stream(key, stream);
                    let mut v = src as f64;
                    if params.read_noise > 0.0 {
                        v += params.read_noise * sampler.sample(&mut rng);
                    }
                    let adc = &pixel_adc;
                    let g = if adc.noise_sigma() > 0.0 { sampler.sample(&mut rng) } else { 0.0 };
                    adc.code_to_unit(adc.convert_with_noise(v, g)).to_bits()
                };
                for k in [1, w, h, 4] {
                    for mode in [ColorMode::Gray, ColorMode::Rgb] {
                        let at = format!("{w}x{h} shards {shards} k {k} {mode}");
                        let mut analog = Plane::new(1, 1);
                        let mut out = Image::Gray(GrayImage::new(1, 1));
                        let key = noise::frame_key(sensor.noise_seed, sensor.ops);
                        let pooled = sensor.capture_pooled_into(k, mode, &mut analog, &mut out);
                        if w % k != 0 || h % k != 0 {
                            let err = pooled.unwrap_err();
                            assert!(
                                matches!(err, SensorError::InvalidPooling { .. }),
                                "{at}: {err}"
                            );
                            continue;
                        }
                        pooled.unwrap();
                        let planes = match &out {
                            Image::Gray(g) => vec![g.plane()],
                            Image::Rgb(c) => c.planes().to_vec(),
                        };
                        let inputs = (k * k * if mode == ColorMode::Gray { 3 } else { 1 }) as f64;
                        let read_sigma = params.read_noise / inputs.sqrt();
                        let ns = pooling.noise_sigma;
                        let sigma = (ns * ns + read_sigma * read_sigma).sqrt();
                        let (ow, oh) = (w / k, h / k);
                        for (ch, plane) in planes.into_iter().enumerate() {
                            assert_eq!(plane.dimensions(), (ow, oh), "{at}");
                            for (oy, ox) in grid(ow, oh) {
                                let rect = Rect::new(ox * k, oy * k, k, k);
                                let (mean, dom) = match mode {
                                    ColorMode::Gray => {
                                        (sensor.array().mean_window_rgb(rect), domain::POOL)
                                    }
                                    ColorMode::Rgb => (
                                        sensor.array().mean_window(ch, rect),
                                        domain::POOL + ch as u64,
                                    ),
                                };
                                let v = pooling.transfer(mean, params.v_dark, params.v_sat);
                                let stream = noise::stream(dom, (oy * ow + ox) as u64);
                                let (av, want) = pooled_site(key, stream, v, sigma);
                                let at = format!("{at} ch {ch} ({ox},{oy})");
                                assert_eq!(plane.get(ox, oy).to_bits(), want, "{at}");
                                // The analog plane holds the last channel pooled.
                                if ch as u32 + 1 == mode.channels() {
                                    assert_eq!(analog.get(ox, oy).to_bits(), av.to_bits(), "{at}");
                                }
                            }
                        }
                    }
                }
                let corners = [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)];
                let rects: Vec<Rect> = corners
                    .into_iter()
                    .map(|(x, y)| Rect::new(x, y, 1, 1))
                    .chain([Rect::new(0, 0, w, h)])
                    .collect();
                let (mut crops, mut pool, mut union) =
                    (Vec::new(), FramePool::new(), UnionScratch::new());
                let key = noise::frame_key(sensor.noise_seed, sensor.ops);
                sensor.read_rois_into(&rects, &mut crops, &mut pool, &mut union).unwrap();
                for (rect, crop) in rects.iter().zip(&crops) {
                    for (ch, plane) in crop.planes().into_iter().enumerate() {
                        for (y, x) in grid(rect.w, rect.h) {
                            let (ax, ay) = (rect.x + x, rect.y + y);
                            let site = ch as u64 * sites + (ay * w + ax) as u64;
                            let src = sensor.array().plane(ch).get(ax, ay);
                            let want = pixel_site(key, noise::stream(domain::ROI, site), src);
                            let at =
                                format!("{w}x{h} shards {shards} roi {rect:?} ch {ch} ({ax},{ay})");
                            assert_eq!(plane.get(x, y).to_bits(), want, "{at}");
                        }
                    }
                }
                let key = noise::frame_key(sensor.noise_seed, sensor.ops);
                let (full, _) = sensor.read_full();
                for (ch, plane) in full.planes().into_iter().enumerate() {
                    for (y, x) in grid(w, h) {
                        let site = ch as u64 * sites + (y * w + x) as u64;
                        let src = sensor.array().plane(ch).get(x, y);
                        let want = pixel_site(key, noise::stream(domain::FULL, site), src);
                        let at = format!("{w}x{h} shards {shards} full ch {ch} ({x},{y})");
                        assert_eq!(plane.get(x, y).to_bits(), want, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_capture_dimensions_and_counts() {
        let mut s = Sensor::new(test_scene(32, 16), SensorConfig::noiseless());
        let (img, stats) = s.capture_pooled(4, ColorMode::Rgb).unwrap();
        assert_eq!((img.width(), img.height()), (8, 4));
        assert_eq!(stats.conversions, 8 * 4 * 3);
        assert_eq!(stats.transferred_bits, 8 * 4 * 3 * 8);
        let (img_g, stats_g) = s.capture_pooled(4, ColorMode::Gray).unwrap();
        assert_eq!(img_g.channels(), 1);
        assert_eq!(stats_g.conversions, 8 * 4);
    }

    #[test]
    fn in_sensor_matches_in_processor_scaling_noiselessly() {
        // The core Table-2 premise: analog pooling + calibration produces
        // (nearly) the same digital image as full readout + digital pooling.
        let scene = test_scene(32, 32);
        let cfg = SensorConfig::noiseless();
        let mut s = Sensor::new(scene.clone(), cfg);

        let (in_sensor, _) = s.capture_pooled(4, ColorMode::Rgb).unwrap();
        let (full, _) = s.read_full();
        let in_proc = ops::avg_pool_rgb(&full, 4).unwrap();

        let in_sensor_rgb = in_sensor.as_rgb().unwrap();
        for ch in 0..3 {
            let err =
                metrics::max_abs_diff(in_sensor_rgb.planes()[ch], in_proc.planes()[ch]).unwrap();
            // Both paths quantise at 8 bits; they may disagree by one code.
            assert!(err <= 1.5 / 255.0, "channel {ch} differs by {err}");
        }
    }

    #[test]
    fn gray_capture_matches_digital_gray_pool() {
        let scene = test_scene(16, 16);
        let mut s = Sensor::new(scene.clone(), SensorConfig::noiseless());
        let (in_sensor, _) = s.capture_pooled(2, ColorMode::Gray).unwrap();
        let (full, _) = s.read_full();
        let gray = color::rgb_to_gray_mean(&full);
        let pooled = ops::avg_pool_gray(&gray, 2).unwrap();
        let err =
            metrics::max_abs_diff(in_sensor.as_gray().unwrap().plane(), pooled.plane()).unwrap();
        assert!(err <= 1.5 / 255.0, "gray paths differ by {err}");
    }

    #[test]
    fn full_readout_counts_match_paper_formula() {
        let mut s = Sensor::new(test_scene(32, 16), SensorConfig::noiseless());
        let (img, stats) = s.read_full();
        assert_eq!(img.dimensions(), (32, 16));
        assert_eq!(stats.conversions, 32 * 16 * 3); // C_old = n*m*3
        assert_eq!(stats.transferred_bits, 32 * 16 * 3 * 8); // D_old
    }

    #[test]
    fn roi_readout_through_sensor() {
        let mut s = Sensor::new(test_scene(32, 32), SensorConfig::noiseless());
        let (img, stats) = s.read_roi(Rect::new(8, 8, 8, 8)).unwrap();
        assert_eq!(img.dimensions(), (8, 8));
        assert_eq!(stats.conversions, 3 * 64);
        // Content check against the scene.
        let scene = test_scene(32, 32);
        let expected = scene.pixel(10, 12);
        let got = img.pixel(2, 4);
        assert!((got.0 - expected.0).abs() < 0.01);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = ReadoutStats { conversions: 1, transferred_bits: 8, box_words_bits: 64 };
        let b = ReadoutStats { conversions: 2, transferred_bits: 16, box_words_bits: 0 };
        let m = a.merged(b);
        assert_eq!(m.conversions, 3);
        assert_eq!(m.transferred_bits, 24);
        assert_eq!(m.box_words_bits, 64);
        assert_eq!(m.transferred_bytes(), 3);
        assert_eq!(m.total_transfer_bits(), 88);
    }

    #[test]
    fn noisy_capture_stays_close_to_noiseless() {
        let scene = test_scene(32, 32);
        let mut noisy = Sensor::new(scene.clone(), SensorConfig::default());
        let mut clean = Sensor::new(scene, SensorConfig::noiseless());
        let (a, _) = noisy.capture_pooled(4, ColorMode::Gray).unwrap();
        let (b, _) = clean.capture_pooled(4, ColorMode::Gray).unwrap();
        let err = metrics::mae(a.as_gray().unwrap().plane(), b.as_gray().unwrap().plane()).unwrap();
        // Noise contributions are millivolts on a 600 mV swing.
        assert!(err < 0.01, "noisy capture deviates by {err}");
    }

    #[test]
    fn recapture_is_bit_identical_to_fresh_sensor() {
        let cfg = SensorConfig::default();
        let a = test_scene(32, 16);
        let b = test_scene(16, 24);
        let mut reused = Sensor::capture(&a, cfg);
        // Cycle through differently-sized scenes on one sensor.
        for scene in [&b, &a, &b] {
            reused.recapture(scene);
            let mut fresh = Sensor::capture(scene, cfg);
            let (img_r, stats_r) = reused.capture_pooled(4, ColorMode::Rgb).unwrap();
            let (img_f, stats_f) = fresh.capture_pooled(4, ColorMode::Rgb).unwrap();
            assert_eq!(img_r, img_f);
            assert_eq!(stats_r, stats_f);
        }
    }

    #[test]
    fn capture_pooled_into_matches_allocating_capture() {
        let cfg = SensorConfig::default();
        let scene = test_scene(32, 32);
        let mut analog = Plane::new(1, 1);
        let mut out = Image::Rgb(RgbImage::new(1, 1)); // wrong variant on purpose
        let mut reused = Sensor::capture(&scene, cfg);
        // Alternate modes and pooling factors through the same buffers.
        for (k, mode) in [(4, ColorMode::Gray), (2, ColorMode::Rgb), (8, ColorMode::Gray)] {
            reused.recapture(&scene);
            let stats = reused.capture_pooled_into(k, mode, &mut analog, &mut out).unwrap();
            let mut fresh = Sensor::capture(&scene, cfg);
            let (expected, expected_stats) = fresh.capture_pooled(k, mode).unwrap();
            assert_eq!(out, expected, "k={k} mode={mode}");
            assert_eq!(stats, expected_stats);
        }
        // Invalid pooling leaves the buffers untouched.
        let before = out.clone();
        assert!(reused.capture_pooled_into(5, ColorMode::Gray, &mut analog, &mut out).is_err());
        assert_eq!(out, before);
    }

    #[test]
    fn deterministic_given_seed() {
        let scene = test_scene(16, 16);
        let cfg = SensorConfig::default();
        let mut s1 = Sensor::new(scene.clone(), cfg);
        let mut s2 = Sensor::new(scene, cfg);
        let (a, _) = s1.capture_pooled(2, ColorMode::Rgb).unwrap();
        let (b, _) = s2.capture_pooled(2, ColorMode::Rgb).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validate_accepts_exactly_the_configs_both_adcs_accept() {
        assert!(SensorConfig::default().validate().is_ok());
        assert!(SensorConfig::noiseless().validate().is_ok());
        assert!(SensorConfig { adc_bits: 16, ..SensorConfig::default() }.validate().is_ok());
        let pooling = |gain| PoolingConfig { gain, ..PoolingConfig::default() };
        let pixel = |v_dark, v_sat| PixelParams { v_dark, v_sat, ..PixelParams::default() };
        for (name, bad) in [
            ("adc_bits 0", SensorConfig { adc_bits: 0, ..SensorConfig::default() }),
            ("adc_bits 17", SensorConfig { adc_bits: 17, ..SensorConfig::default() }),
            ("v_sat == v_dark", SensorConfig { pixel: pixel(0.6, 0.6), ..SensorConfig::default() }),
            ("v_sat < v_dark", SensorConfig { pixel: pixel(0.9, 0.3), ..SensorConfig::default() }),
            ("gain 0", SensorConfig { pooling: pooling(0.0), ..SensorConfig::default() }),
            ("gain < 0", SensorConfig { pooling: pooling(-0.5), ..SensorConfig::default() }),
            ("gain NaN", SensorConfig { pooling: pooling(f64::NAN), ..SensorConfig::default() }),
            ("v_sat inf", SensorConfig { pixel: pixel(0.3, f64::INFINITY), ..Default::default() }),
            (
                "v_dark -inf",
                SensorConfig { pixel: pixel(f64::NEG_INFINITY, 0.9), ..Default::default() },
            ),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(matches!(err, SensorError::InvalidConfig { .. }), "{name}: {err}");
            let pixel_ok = Adc::new(bad.adc_bits, bad.pixel.v_dark, bad.pixel.v_sat).is_ok();
            let (lo, hi) = bad.pooling.output_range(bad.pixel.v_dark, bad.pixel.v_sat);
            assert!(!(pixel_ok && Adc::new(bad.adc_bits, lo, hi).is_ok()), "{name}");
        }
    }

    #[test]
    fn validate_rejects_non_finite_bow_and_bad_noise() {
        let base = SensorConfig::default();
        let inl = |adc_inl_lsb| SensorConfig { adc_inl_lsb, ..base };
        let noise = |adc_noise| SensorConfig { adc_noise, ..base };
        let pixel = |pixel| SensorConfig { pixel, ..base };
        let read = |read_noise| pixel(PixelParams { read_noise, ..base.pixel });
        let prnu = |prnu_sigma| pixel(PixelParams { prnu_sigma, ..base.pixel });
        let dsnu = |dsnu_sigma| pixel(PixelParams { dsnu_sigma, ..base.pixel });
        let pooling = |pooling| SensorConfig { pooling, ..base };
        let pool_noise = |noise_sigma| pooling(PoolingConfig { noise_sigma, ..base.pooling });
        let bow = |nonlinearity| pooling(PoolingConfig { nonlinearity, ..base.pooling });
        let mut bad = Vec::new();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            bad.extend([("adc_inl_lsb", inl(v)), ("pooling.nonlinearity", bow(v))]);
        }
        for v in [-1e-3, -f64::MIN_POSITIVE, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            bad.extend([
                ("adc_noise", noise(v)),
                ("read_noise", read(v)),
                ("prnu_sigma", prnu(v)),
                ("dsnu_sigma", dsnu(v)),
                ("pooling.noise_sigma", pool_noise(v)),
            ]);
        }
        for (parameter, bad) in bad {
            let err = bad.validate().unwrap_err();
            assert!(
                matches!(err, SensorError::InvalidConfig { parameter: p, .. } if p == parameter),
                "{parameter}: {err}"
            );
        }
        // A bow past the ladder's bound is still a valid (exact-path) ADC,
        // zero noise is valid, and so is a bow of either sign.
        assert!(inl(-100.0).validate().is_ok());
        for ok in [noise(0.0), read(0.0), prnu(0.0), dsnu(0.0), pool_noise(0.0), bow(-1e-3)] {
            assert!(ok.validate().is_ok(), "{ok:?}");
        }
    }

    #[test]
    fn the_sensor_builds_its_adcs_from_its_config() {
        let sensor = Sensor::new(test_scene(8, 8), SensorConfig::default());
        let cfg = SensorConfig::default();
        let (lo, hi) = cfg.pooling.output_range(cfg.pixel.v_dark, cfg.pixel.v_sat);
        let pixel = Adc::new(8, cfg.pixel.v_dark, cfg.pixel.v_sat).unwrap();
        let pooled = Adc::new(8, lo, hi).unwrap();
        assert_eq!(sensor.pixel_adc(), &pixel.with_inl(0.25).with_noise(0.2e-3));
        assert_eq!(sensor.pooled_adc(), &pooled.with_inl(0.25).with_noise(0.2e-3));
    }

    #[test]
    fn keyed_capture_is_shard_count_invariant() {
        // The whole frame path — capture, pooled capture, ROI readout —
        // is bit-identical at every shard count, with overlapping, nested
        // and identical boxes in the ROI batch.
        let scene = test_scene(32, 24);
        let boxes = [
            Rect::new(2, 2, 8, 8),
            Rect::new(6, 4, 8, 8),
            Rect::new(3, 3, 4, 5),
            Rect::new(2, 2, 8, 8),
        ];
        let reference = {
            let mut s =
                Sensor::capture(&scene, SensorConfig { shards: 1, ..SensorConfig::default() });
            s.recapture(&scene);
            let pooled = s.capture_pooled(4, ColorMode::Rgb).unwrap();
            let rois = s.read_rois(&boxes).unwrap();
            (pooled, rois)
        };
        for shards in [2u32, 4] {
            let mut s = Sensor::capture(&scene, SensorConfig { shards, ..SensorConfig::default() });
            s.recapture(&scene);
            let pooled = s.capture_pooled(4, ColorMode::Rgb).unwrap();
            let rois = s.read_rois(&boxes).unwrap();
            assert_eq!(pooled, reference.0, "pooled capture differs at {shards} shards");
            assert_eq!(rois, reference.1, "roi readout differs at {shards} shards");
        }
    }

    #[test]
    fn keyed_readouts_advance_with_the_op_counter() {
        let scene = test_scene(16, 16);
        let mut s = Sensor::capture(&scene, SensorConfig::default());
        let (a, _) = s.capture_pooled(2, ColorMode::Gray).unwrap();
        let (b, _) = s.capture_pooled(2, ColorMode::Gray).unwrap();
        assert_ne!(a, b, "successive captures must be independent realisations");
        // Recapture rewinds the op counter: the next readout reproduces
        // the first.
        s.recapture(&scene);
        let (c, _) = s.capture_pooled(2, ColorMode::Gray).unwrap();
        assert_eq!(a, c);
        // Reseeding moves every subsequent readout.
        s.reseed_temporal_noise(0xFEED);
        let (d, _) = s.capture_pooled(2, ColorMode::Gray).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn color_mode_display() {
        assert_eq!(ColorMode::Rgb.to_string(), "RGB");
        assert_eq!(ColorMode::Gray.to_string(), "Gray");
        assert_eq!(ColorMode::Rgb.channels(), 3);
        assert_eq!(ColorMode::Gray.channels(), 1);
    }
}
