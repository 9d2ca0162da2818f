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
//!
//! # The pool leaf
//!
//! The pool and its stage-1 conversion run as one fused, keyed,
//! row-sharded leaf (`pool_fused`). Each chunk of `ROW_CHUNK` sites of
//! a pooled row runs in three passes over stack buffers: (1) the site
//! means, (2) the transfer, the keyed pooling noise, the analog `f32`
//! store and the assembly of the ADC's noisy samples, (3) one
//! [`Adc::convert_row`] call. Where the CPU has AVX-512F/DQ (checked at
//! run time) passes 1 and 2 take eight sites per vector:
//!
//! * pass 1 gathers each window's sub-pixels with stride-`k` `i32`
//!   offsets and adds them as `f64` in exactly the scalar order (`0.0`,
//!   then row by row, `dx` by `dx`, then `/ area`; gray adds its three
//!   channel means, then `/ 3.0`), for every `k` whose offsets fit `i32`;
//! * pass 2 computes the same `f64` operations as
//!   [`PoolingConfig::transfer`], with no FMA, except `sin(π·t)`, which
//!   is an odd Taylor polynomial after reflecting `π·t` into `[0, π/2]`.
//!   Each lane brackets the bow term by a guard derived in
//!   `Transfer::new` (the polynomial's error, glibc's ≤ 1 ulp for `sin`
//!   and the products' roundings), runs the adds on both ends, and keeps
//!   its value only where both ends round to the same `f32`. A lane whose
//!   ends differ, or whose mean is not finite, takes the scalar per-site
//!   transfer after the vector pass.
//!
//! The row tail and CPUs without the features run the scalar forms,
//! which are the lanes' test oracle, so every analog and digital value
//! is bit-identical on either path (NaN signs aside, which IEEE leaves
//! open).

use std::f64::consts::FRAC_PI_2;
use std::sync::atomic::{AtomicUsize, Ordering};

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
    let sites = Sites::Channel(channel);
    pool_on(true, array, sites, k, cfg, adc, key, shards, pool, analog, out).map(drop)
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
    pool_on(true, array, Sites::Gray, k, cfg, adc, key, shards, pool, analog, out).map(drop)
}

/// What one pooled site averages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Sites {
    /// `k·k` sub-pixels of one channel ([`pool_channel`]).
    Channel(usize),
    /// `k·k` sub-pixels of each of the three channels ([`pool_gray`]).
    Gray,
}

/// [`pool_channel`] or [`pool_gray`] on a chosen path, for the oracle
/// suite: the 8-lane passes when `lanes` (where the CPU has AVX-512F/DQ;
/// elsewhere the scalar path runs), else the scalar path. Returns how
/// many sites the lanes sent to the scalar transfer (a non-finite mean
/// or a guard miss; see [`Transfer::new`]), so 0 on the scalar path.
///
/// # Errors
///
/// [`SensorError::InvalidPooling`] when `k` does not tile the array.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pool_on(
    lanes: bool,
    array: &PixelArray,
    sites: Sites,
    k: u32,
    cfg: &PoolingConfig,
    adc: &Adc,
    key: u64,
    shards: usize,
    pool: Option<&ShardPool>,
    analog: &mut Plane,
    out: &mut Plane,
) -> Result<usize> {
    validate_pooling(array, k)?;
    let params = array.params();
    let (channels, dom) = match sites {
        Sites::Channel(ch) => (1, domain::POOL + ch as u64),
        Sites::Gray => (3, domain::POOL),
    };
    let sigma = combined_sigma(cfg, params.read_noise, input_count(k, channels));
    let transfer = Transfer::new(cfg, params.v_dark, params.v_sat, sigma, adc.noise_sigma());
    let fallbacks =
        pool_fused(array, sites, k, &transfer, lanes, adc, key, dom, shards, pool, analog, out);
    Ok(fallbacks)
}

/// Sub-pixels one pooled site averages, `channels·k·k`, as `f64`: exact
/// in `u128` (`3·k·k` passes `u64` for the largest `k`), then rounded
/// once.
fn input_count(k: u32, channels: u32) -> f64 {
    (u128::from(k) * u128::from(k) * u128::from(channels)) as f64
}

/// Whether the lanes' `i32` gather offsets, up to `7·k + k − 1` from a
/// vector's first sub-pixel, fit for pooling factor `k`; wider factors
/// take the scalar window sums.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn gather_fits(k: usize) -> bool {
    (k as u64).checked_mul(8).is_some_and(|span| span <= i32::MAX as u64 + 1)
}

/// Total per-site noise sigma: circuit thermal noise plus the source
/// followers' read noise attenuated by the `n`-input averaging.
fn combined_sigma(cfg: &PoolingConfig, read_noise: f64, n_inputs: f64) -> f64 {
    let read_sigma = read_noise / n_inputs.sqrt();
    (cfg.noise_sigma * cfg.noise_sigma + read_sigma * read_sigma).sqrt()
}

/// The mean input of the `k×k` window of `plane` at `(x0, y0)`: the sum
/// in row order from `0.0`, then `/ area`, as
/// [`PixelArray::mean_window`] computes it.
fn window_mean(plane: &Plane, k: usize, y0: usize, x0: usize, area: f64) -> f64 {
    let mut acc = 0.0f64;
    for dy in 0..k {
        for &v in &plane.row((y0 + dy) as u32)[x0..x0 + k] {
            acc += v as f64;
        }
    }
    acc / area
}

/// Pass 1 of a chunk: `means[i]` is the mean input of the site whose
/// windows start at row `y0`, column `x0 + i·k` — the `k×k` window mean
/// of one plane, or of three planes averaged after their window means,
/// exactly like [`PixelArray::mean_window`] and
/// [`PixelArray::mean_window_rgb`]. The leading full vectors take the
/// lanes when `lanes` (and the CPU has them); the rest run here.
fn site_means(
    lanes: bool,
    planes: &[&Plane],
    k: usize,
    y0: usize,
    x0: usize,
    area: f64,
    means: &mut [f64],
) {
    let done = if lanes { wide::site_means(planes, k, y0, x0, area, means) } else { 0 };
    for (i, mean) in means.iter_mut().enumerate().skip(done) {
        let x = x0 + i * k;
        *mean = match *planes {
            [r, g, b] => {
                let (r, g) = (window_mean(r, k, y0, x, area), window_mean(g, k, y0, x, area));
                (r + g + window_mean(b, k, y0, x, area)) / 3.0
            }
            _ => window_mean(planes[0], k, y0, x, area),
        };
    }
}

/// Taylor coefficients of `sin(r) / r` in `r²`: `(−1)^j / (2j + 1)!` for
/// `j` in `0..10` (each factorial is exact in `f64`, so each coefficient
/// is correctly rounded).
const SIN_TAYLOR: [f64; 10] = [
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5040.0,
    1.0 / 362880.0,
    -1.0 / 39916800.0,
    1.0 / 6227020800.0,
    -1.0 / 1307674368000.0,
    1.0 / 355687428096000.0,
    -1.0 / 121645100408832000.0,
];

/// A bound on how far the lanes' `sin(π·t)` lies from the real sine of
/// `y = fl(π·t)`, for every `t` in `[0, 1]` (and `−0.0`).
///
/// The lanes reflect `y > π/2` to `r = PI − y`, which is exact (Sterbenz)
/// and lies in `[0, π/2]`, and evaluate `r·q(r²)` by Horner with the
/// [`SIN_TAYLOR`] coefficients. With `u = 2⁻⁵³` and `n = 10` terms, the
/// error is at most the sum of
///
/// * the reflection: `|π − PI| < 1.2247e-16`, as `sin(π − y) = sin(y)`;
/// * the truncation: the series alternates with falling terms on
///   `[0, π/2]`, so it is below the first omitted term,
///   `(π/2)^21 / 21! < 2.6e-16` (`r ≤ FRAC_PI_2`, which is below π/2);
/// * the coefficients' roundings: `u·Σ|c_j|·r^(2j+1) ≤ u·sinh(π/2)`;
/// * the evaluation: `2(n − 1)` Horner roundings, `n − 1` from the
///   rounded `r²` through its powers, and the final product, so
///   `γ(3n − 2)·sinh(π/2)` with `γ(m) = m·u / (1 − m·u)`;
///
/// in total ~7.8e-15, padded by one part in 10⁶.
fn sin_poly_error() -> f64 {
    let u = f64::EPSILON / 2.0;
    let n = SIN_TAYLOR.len();
    let sinh_half_pi = 2.3014;
    let reflection = 1.2247e-16;
    let truncation = (1..=2 * n + 1).fold(1.0, |term, i| term * FRAC_PI_2 / i as f64);
    let gamma = |m: usize| m as f64 * u / (1.0 - m as f64 * u);
    let rounding = (u + gamma(3 * n - 2)) * sinh_half_pi;
    (reflection + truncation + rounding) * (1.0 + 1e-6)
}

/// The per-site transfer of one pooled readout: the fitted circuit over
/// the array's voltage range, the pooling and ADC noise sigmas, and the
/// guard that lets the lanes take `sin` from a polynomial.
#[derive(Debug)]
struct Transfer {
    cfg: PoolingConfig,
    v_dark: f64,
    v_sat: f64,
    /// Pooling noise sigma (thermal plus attenuated read noise).
    sigma: f64,
    adc_sigma: f64,
    /// Half-width of the bracket the lanes put around the bow term.
    guard: f64,
}

impl Transfer {
    /// The transfer of `cfg` over `v_dark..v_sat`, and its guard.
    ///
    /// # The guard
    ///
    /// The scalar transfer computes `v = fl(A + B)` with
    /// `A = fl(fl(gain·mean) + offset)` and `B = fl(nl·s)`, `s` glibc's
    /// `sin` of `y = fl(PI·t)`, then `fl(v + fl(σ·p))` when the pooling
    /// noise is on, and stores `v as f32`. The lanes compute the same `A`,
    /// `y` and `σ·p` (no FMA) but `B' = fl(nl·s')` with the polynomial
    /// `s'`. With `u = 2⁻⁵³`, glibc's documented ≤ 1 ulp for `sin` is at
    /// most `2u` here (`|s| ≤ 1`), so `|s − s'| ≤ P + 2u` with
    /// `P = sin_poly_error()`, and the two products' roundings add at most
    /// `u·|nl|` each: `|B − B'| ≤ |nl|·(P + 4u + u·P)`. The guard is
    /// `G = |nl|·(P + 8u)·(1 + 2⁻³⁰) + 4·2⁻¹⁰⁷⁴`: large enough that
    /// `fl(B' − G) ≤ B ≤ fl(B' + G)` after those two roundings too (the
    /// `2⁻¹⁰⁷⁴` terms cover subnormal results, the factor the rounding of
    /// `G` itself).
    ///
    /// The roundings of the adds that follow need no term of their own:
    /// every IEEE rounding is monotone, so the lanes run the two adds on
    /// both ends of the bracket `[B' − G, B' + G]`, and wherever the two
    /// ends convert to the same `f32` bits (and neither is NaN) the
    /// scalar `v` converts to them too. `G` is strictly larger than
    /// `|B − B'|`, so a `v` of `±0.0` cannot hide between ends of one
    /// sign. A lane whose ends differ, or whose mean is not finite, takes
    /// the scalar transfer instead. For the shipped configuration
    /// (`nl` = 1.1 mV) `G` is ~9e-18 V against an `f32` step of 3e-8 V
    /// or more over the pooled range, so a site misses with probability
    /// ~1e-9.
    fn new(cfg: &PoolingConfig, v_dark: f64, v_sat: f64, sigma: f64, adc_sigma: f64) -> Self {
        let u = f64::EPSILON / 2.0;
        let guard = cfg.nonlinearity.abs() * (sin_poly_error() + 8.0 * u) * (1.0 + 2f64.powi(-30))
            + 4.0 * f64::from_bits(1);
        Self { cfg: *cfg, v_dark, v_sat, sigma, adc_sigma, guard }
    }

    /// Pass 2 for one site, the scalar form and the lanes' oracle:
    /// the transfer of `mean`, plus the pooling noise `σ·p` when it is
    /// on; the analog `f32` voltage, and the ADC's sample, that voltage
    /// plus its conversion noise `σ_adc·g` (`g` is ignored when that
    /// noise is off).
    #[inline]
    fn site(&self, mean: f64, p: f64, g: f64) -> (f32, f64) {
        let mut v = self.cfg.transfer(mean, self.v_dark, self.v_sat);
        if self.sigma > 0.0 {
            v += self.sigma * p;
        }
        let av = v as f32;
        let g = if self.adc_sigma > 0.0 { g } else { 0.0 };
        (av, av as f64 + self.adc_sigma * g)
    }

    /// Pass 2 for one chunk: the leading full vectors take the lanes
    /// when `lanes` (and the CPU has them), the rest [`Transfer::site`].
    /// Returns how many sites the lanes sent to the scalar transfer.
    fn chunk(
        &self,
        lanes: bool,
        means: &[f64],
        pool_g: &[f64],
        adc_g: &[f64],
        analog: &mut [f32],
        xs: &mut [f64],
    ) -> usize {
        let n = means.len();
        let lane_run =
            if lanes { wide::transfer(self, means, pool_g, adc_g, analog, xs) } else { None };
        let (done, fallbacks) = lane_run.map_or((0, 0), |fallbacks| (n - n % 8, fallbacks));
        for i in done..n {
            (analog[i], xs[i]) = self.site(means[i], pool_g[i], adc_g[i]);
        }
        fallbacks
    }
}

/// The shared fused keyed kernel behind [`pool_channel`] and
/// [`pool_gray`]: a row-sharded sweep over the pooled grid, in chunks of
/// [`ROW_CHUNK`] sites, each in three passes:
///
/// 1. [`site_means`] writes the chunk's site means into a stack buffer
///    (the only part that differs between the channel and gray
///    configurations);
/// 2. [`Transfer::chunk`] applies the transfer and the keyed pooling
///    noise, stores the analog `f32` voltages and assembles the ADC's
///    noisy samples;
/// 3. one [`Adc::convert_row`] call converts them.
///
/// With `lanes`, passes 1 and 2 take eight sites per AVX-512 vector
/// where the CPU has AVX-512F/DQ. Returns how many sites the lanes sent
/// to the scalar transfer.
// lint: zero-alloc
#[allow(clippy::too_many_arguments)]
fn pool_fused(
    array: &PixelArray,
    sites: Sites,
    k: u32,
    transfer: &Transfer,
    lanes: bool,
    adc: &Adc,
    key: u64,
    dom: u64,
    shards: usize,
    pool: Option<&ShardPool>,
    analog: &mut Plane,
    out: &mut Plane,
) -> usize {
    let (ow, oh) = (array.width() / k, array.height() / k);
    let ku = k as usize;
    let area = (k as u64 * k as u64) as f64;
    let all = [array.plane(0), array.plane(1), array.plane(2)];
    let planes = match sites {
        Sites::Channel(ch) => &all[ch..=ch],
        Sites::Gray => &all[..],
    };
    let oww = ow as usize;
    analog.reshape_for_overwrite(ow, oh);
    out.reshape_for_overwrite(ow, oh);
    let sampler = NormalSampler::new();
    let fallbacks = AtomicUsize::new(0);
    let out_base = SendPtr::new(out.as_mut_slice().as_mut_ptr());
    shard_rows(pool, analog.as_mut_slice(), oh as usize, oww, shards, |_, oy0, aband| {
        // SAFETY: `out` bands mirror the `analog` bands exactly — same
        // row range, same length, reshaped to identical dimensions
        // above — so they are disjoint across shards too, and `out`
        // outlives the sharded run.
        let oband =
            unsafe { std::slice::from_raw_parts_mut(out_base.get().add(oy0 * oww), aband.len()) };
        let mut noise = RowNoise::new();
        let mut means = [0.0f64; ROW_CHUNK];
        let mut band_fallbacks = 0;
        for (dy, (arow, orow)) in
            aband.chunks_exact_mut(oww).zip(oband.chunks_exact_mut(oww)).enumerate()
        {
            let oy = oy0 + dy;
            let row_site = (oy * oww) as u64;
            let chunks = arow.chunks_mut(ROW_CHUNK).zip(orow.chunks_mut(ROW_CHUNK));
            for (c, (arow, orow)) in chunks.enumerate() {
                let ox0 = c * ROW_CHUNK;
                let means = &mut means[..arow.len()];
                site_means(lanes, planes, ku, oy * ku, ox0 * ku, area, means);
                let first = noise::stream(dom, row_site + ox0 as u64);
                let (pool_g, adc_g, xs) = noise.draw(
                    &sampler,
                    key,
                    first,
                    arow.len(),
                    transfer.sigma > 0.0,
                    transfer.adc_sigma > 0.0,
                );
                band_fallbacks += transfer.chunk(lanes, means, pool_g, adc_g, arow, xs);
                adc.convert_row(xs, orow);
            }
        }
        fallbacks.fetch_add(band_fallbacks, Ordering::Relaxed);
    });
    fallbacks.into_inner()
}

/// The 8-lane forms of the pool leaf's first two passes (x86-64 with
/// AVX-512F and AVX-512DQ), like `adc::wide`. Every `unsafe` of the pool
/// leaf's passes is here.
#[cfg(target_arch = "x86_64")]
mod wide {
    use std::arch::x86_64::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    use hirise_imaging::Plane;

    use super::{gather_fits, Transfer, SIN_TAYLOR};
    use crate::noise::ROW_CHUNK;

    /// Whether this CPU runs the lanes: AVX-512F for the lanes, masks and
    /// conversions (DQ for parity with the other row kernels).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    /// Pass 1 over the chunk's leading full vectors: how many sites it
    /// filled (a multiple of 8, or 0 when the CPU lacks the features or
    /// `k` is too wide for the gathers).
    pub(super) fn site_means(
        planes: &[&Plane],
        k: usize,
        y0: usize,
        x0: usize,
        area: f64,
        means: &mut [f64],
    ) -> usize {
        if !available() || !gather_fits(k) {
            return 0;
        }
        // SAFETY: `available` just confirmed AVX-512F and AVX-512DQ, the
        // features `means8` is compiled for.
        unsafe { means8(planes, k, y0, x0, area, means) }
    }

    /// Eight window means per step: one plane's sum `/ area`, or three
    /// planes' means added in channel order, then `/ 3.0`.
    // lint: zero-alloc
    #[target_feature(enable = "avx512f,avx512dq")]
    fn means8(
        planes: &[&Plane],
        k: usize,
        y0: usize,
        x0: usize,
        area: f64,
        means: &mut [f64],
    ) -> usize {
        assert!(gather_fits(k), "gather offsets fit i32");
        let n = means.len() - means.len() % 8;
        // Lane `i` starts at sub-pixel `i·k` of the vector's span.
        let ki = k as i32;
        let starts = _mm256_setr_epi32(0, ki, 2 * ki, 3 * ki, 4 * ki, 5 * ki, 6 * ki, 7 * ki);
        let area = _mm512_set1_pd(area);
        for (step, out) in means[..n].chunks_exact_mut(8).enumerate() {
            let xs = x0 + 8 * step * k;
            // SAFETY: `starts` holds `i·k` for lane `i`, and `gather_fits`
            // was asserted above.
            let mean = unsafe {
                match *planes {
                    [r, g, b] => {
                        let rg = _mm512_add_pd(
                            window_mean8(r, k, y0, xs, starts, area),
                            window_mean8(g, k, y0, xs, starts, area),
                        );
                        let sum = _mm512_add_pd(rg, window_mean8(b, k, y0, xs, starts, area));
                        _mm512_div_pd(sum, _mm512_set1_pd(3.0))
                    }
                    _ => window_mean8(planes[0], k, y0, xs, starts, area),
                }
            };
            // SAFETY: `out` holds exactly eight `f64`s.
            unsafe { _mm512_storeu_pd(out.as_mut_ptr(), mean) };
        }
        n
    }

    /// The means of the eight `k×k` windows whose spans start `i·k`
    /// sub-pixels after column `xs` of row `y0`: each sum from `0.0`,
    /// row by row and `dx` by `dx` as the scalar [`super::window_mean`]
    /// adds, then `/ area`.
    ///
    /// # Safety
    ///
    /// Lane `i` of `starts` must hold `i·k`, with `gather_fits(k)`, so
    /// that every gather offset lies in the span `8·k` wide that the
    /// function slices (bounds-checked) from each row.
    // SAFETY(contract): `starts` holds `i·k` with `gather_fits(k)` —
    // upheld by `means8`, the only caller, which builds it so after
    // asserting `gather_fits(k)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn window_mean8(
        plane: &Plane,
        k: usize,
        y0: usize,
        xs: usize,
        starts: __m256i,
        area: __m512d,
    ) -> __m512d {
        let mut acc = _mm512_setzero_pd();
        for dy in 0..k {
            let span = &plane.row((y0 + dy) as u32)[xs..xs + 8 * k];
            for dx in 0..k {
                // SAFETY: by the contract on `starts`, lane `i` reads
                // `span[i·k + dx]` with `i < 8` and `dx < k`, so every
                // index is below `8·k = span.len()`, 4-byte scaled.
                let v = unsafe { _mm256_i32gather_ps::<4>(span.as_ptr().add(dx), starts) };
                acc = _mm512_add_pd(acc, _mm512_cvtps_pd(v));
            }
        }
        _mm512_div_pd(acc, area)
    }

    /// `t = clamp((mean − v_dark) / (v_sat − v_dark), 0, 1)` as
    /// [`super::PoolingConfig::transfer`] computes it. `f64::clamp` is a
    /// compare and blend: a NaN lane stays NaN and `−0.0` stays `−0.0`,
    /// which `min`/`max` would not keep.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn clamped_t(tr: &Transfer, mean: __m512d) -> __m512d {
        let span = _mm512_set1_pd(tr.v_sat - tr.v_dark);
        let t = _mm512_div_pd(_mm512_sub_pd(mean, _mm512_set1_pd(tr.v_dark)), span);
        let (zero, one) = (_mm512_setzero_pd(), _mm512_set1_pd(1.0));
        let t = _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(t, zero), t, zero);
        _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_GT_OQ>(t, one), t, one)
    }

    /// `sin(PI·t)` by the [`SIN_TAYLOR`] polynomial after reflecting
    /// `y > π/2` into `[0, π/2]`; within `sin_poly_error()` of the real
    /// sine of `y` for `t` in `[0, 1]`. Odd, so `−0.0` maps to `−0.0`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn sin_pi(t: __m512d) -> __m512d {
        let pi = _mm512_set1_pd(PI);
        let y = _mm512_mul_pd(pi, t);
        let upper = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(y, _mm512_set1_pd(FRAC_PI_2));
        let r = _mm512_mask_sub_pd(y, upper, pi, y);
        let z = _mm512_mul_pd(r, r);
        let last = SIN_TAYLOR.len() - 1;
        let mut h = _mm512_set1_pd(SIN_TAYLOR[last]);
        for &c in SIN_TAYLOR[..last].iter().rev() {
            h = _mm512_add_pd(_mm512_set1_pd(c), _mm512_mul_pd(z, h));
        }
        _mm512_mul_pd(r, h)
    }

    /// Pass 2 over the chunk's leading full vectors: the sites sent to
    /// the scalar transfer, or `None` (outputs untouched) when the CPU
    /// lacks the features. The caller runs the tail.
    pub(super) fn transfer(
        tr: &Transfer,
        means: &[f64],
        pool_g: &[f64],
        adc_g: &[f64],
        analog: &mut [f32],
        xs: &mut [f64],
    ) -> Option<usize> {
        if !available() {
            return None;
        }
        // The miss masks live on the stack: one byte per vector.
        let n = means.len();
        assert!(n <= ROW_CHUNK, "one chunk at a time");
        assert!([pool_g.len(), adc_g.len(), analog.len(), xs.len()] == [n; 4], "one slot per site");
        // SAFETY: `available` just confirmed AVX-512F and AVX-512DQ, the
        // features `transfer8` is compiled for.
        Some(unsafe { transfer8(tr, means, pool_g, adc_g, analog, xs) })
    }

    /// Eight sites per step; a lane whose mean is not finite, or whose
    /// bracket ends round to different `f32`s (see [`Transfer::new`]),
    /// takes [`Transfer::site`] after the vector pass. Returns those
    /// lanes.
    // lint: zero-alloc
    #[target_feature(enable = "avx512f,avx512dq")]
    fn transfer8(
        tr: &Transfer,
        means: &[f64],
        pool_g: &[f64],
        adc_g: &[f64],
        analog: &mut [f32],
        xs: &mut [f64],
    ) -> usize {
        let n = means.len() - means.len() % 8;
        let gain = _mm512_set1_pd(tr.cfg.gain);
        let offset = _mm512_set1_pd(tr.cfg.offset);
        let nl = _mm512_set1_pd(tr.cfg.nonlinearity);
        let guard = _mm512_set1_pd(tr.guard);
        let sigma = _mm512_set1_pd(tr.sigma);
        let adc_sigma = _mm512_set1_pd(tr.adc_sigma);
        // The scalar sample adds `σ_adc·0.0` when the ADC noise is off.
        let adc_quiet = _mm512_set1_pd(tr.adc_sigma * 0.0);
        let inf = _mm512_set1_pd(f64::INFINITY);
        let mut missed = [0u8; ROW_CHUNK / 8];
        let inputs =
            means[..n].chunks_exact(8).zip(pool_g.chunks_exact(8)).zip(adc_g.chunks_exact(8));
        let outputs = analog.chunks_exact_mut(8).zip(xs.chunks_exact_mut(8));
        for ((((m8, p8), g8), (a8, x8)), miss) in inputs.zip(outputs).zip(&mut missed) {
            // SAFETY: every chunk holds exactly eight elements.
            let (mean, p, g) = unsafe {
                (
                    _mm512_loadu_pd(m8.as_ptr()),
                    _mm512_loadu_pd(p8.as_ptr()),
                    _mm512_loadu_pd(g8.as_ptr()),
                )
            };
            let a = _mm512_add_pd(_mm512_mul_pd(gain, mean), offset);
            let b = _mm512_mul_pd(nl, sin_pi(clamped_t(tr, mean)));
            let mut lo = _mm512_add_pd(a, _mm512_sub_pd(b, guard));
            let mut hi = _mm512_add_pd(a, _mm512_add_pd(b, guard));
            if tr.sigma > 0.0 {
                let noise = _mm512_mul_pd(sigma, p);
                lo = _mm512_add_pd(lo, noise);
                hi = _mm512_add_pd(hi, noise);
            }
            let av = _mm512_cvtpd_ps(lo);
            let (lo, hi) = (_mm512_cvtps_pd(av), _mm512_cvtps_pd(_mm512_cvtpd_ps(hi)));
            let same = _mm512_cmpeq_epi64_mask(_mm512_castpd_si512(lo), _mm512_castpd_si512(hi));
            let ordered = _mm512_cmp_pd_mask::<_CMP_ORD_Q>(lo, hi);
            let finite = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(mean), inf);
            *miss = !(same & ordered & finite);
            let x = if tr.adc_sigma > 0.0 {
                _mm512_add_pd(lo, _mm512_mul_pd(adc_sigma, g))
            } else {
                _mm512_add_pd(lo, adc_quiet)
            };
            // SAFETY: every chunk holds exactly eight elements.
            unsafe {
                _mm256_storeu_ps(a8.as_mut_ptr(), av);
                _mm512_storeu_pd(x8.as_mut_ptr(), x);
            }
        }
        let mut fallbacks = 0;
        for (step, &miss) in missed[..n / 8].iter().enumerate() {
            let mut lanes = miss;
            while lanes != 0 {
                let i = 8 * step + lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                (analog[i], xs[i]) = tr.site(means[i], pool_g[i], adc_g[i]);
                fallbacks += 1;
            }
        }
        fallbacks
    }

    /// The lanes' `sin(PI·t)` of eight `t`s, for the oracle suite.
    #[cfg(test)]
    pub(super) fn sin_pi_lanes(ts: &[f64; 8]) -> Option<[f64; 8]> {
        if !available() {
            return None;
        }
        let mut out = [0.0f64; 8];
        // SAFETY: `available` just confirmed the features; `ts` and
        // `out` hold eight `f64`s each.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), sin_pi(_mm512_loadu_pd(ts.as_ptr()))) };
        Some(out)
    }
}

/// The lanes' stand-in where the target has no AVX-512: every chunk
/// takes the scalar passes.
#[cfg(not(target_arch = "x86_64"))]
mod wide {
    use hirise_imaging::Plane;

    use super::Transfer;

    #[cfg(test)]
    pub(super) fn available() -> bool {
        false
    }

    pub(super) fn site_means(
        _: &[&Plane],
        _: usize,
        _: usize,
        _: usize,
        _: f64,
        _: &mut [f64],
    ) -> usize {
        0
    }

    pub(super) fn transfer(
        _: &Transfer,
        _: &[f64],
        _: &[f64],
        _: &[f64],
        _: &mut [f32],
        _: &mut [f64],
    ) -> Option<usize> {
        None
    }

    #[cfg(test)]
    pub(super) fn sin_pi_lanes(_: &[f64; 8]) -> Option<[f64; 8]> {
        None
    }
}

#[cfg(test)]
mod lane_oracle;

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
