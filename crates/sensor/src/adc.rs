//! 8-bit ADC model.
//!
//! Models the 45 nm folding ADC the paper cites ([Choi'15]): uniform
//! quantisation over a configurable input range, an optional bow-shaped
//! integral nonlinearity, and additive conversion noise. The *energy* per
//! conversion is deliberately not modelled here — `hirise-energy` owns all
//! cost accounting; this type only produces codes.
//!
//! Conversions run through a comparator ladder (see [`Ladder`]): the
//! code's thresholds are tabulated once per ADC, so a sample costs an
//! index guess and a few independent compares instead of the
//! quantiser's division, `sin` and `round`, with every code
//! bit-identical to the quantiser. The readout paths convert a row chunk
//! at a time through [`Adc::convert_row`], which runs that window eight
//! samples per AVX-512 vector where the CPU has AVX-512F/DQ and reads
//! each unit value from a per-ladder `code → unit` table instead of
//! dividing; [`Adc::convert_with_noise`] is the per-sample form.

use std::f64::consts::PI;

use crate::{Result, SensorError};

/// Widest ADC that gets a comparator ladder: a 10-bit ladder holds
/// 1025 thresholds (8 KiB, plus its pads) and 1024 unit values (4 KiB).
/// Wider converters take the exact quantiser.
pub const LADDER_MAX_BITS: u32 = 10;

/// A uniform-quantising ADC with optional INL bow and input-referred noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Adc {
    bits: u32,
    v_lo: f64,
    v_hi: f64,
    inl_lsb: f64,
    noise_sigma: f64,
    /// Built from `bits`, the range and `inl_lsb` whenever one of them
    /// is set, so it always matches the quantiser.
    ladder: Option<Ladder>,
}

impl Adc {
    /// Creates an ideal ADC with `bits` resolution over `v_lo..v_hi`.
    ///
    /// # Errors
    ///
    /// Rejects zero/oversized bit widths, non-finite range ends and
    /// empty or overflowing ranges.
    pub fn new(bits: u32, v_lo: f64, v_hi: f64) -> Result<Self> {
        Self::check(bits, v_lo, v_hi)?;
        Ok(Self::build(bits, v_lo, v_hi, 0.0, 0.0))
    }

    /// The checks of [`Adc::new`], without building the ladder.
    pub(crate) fn check(bits: u32, v_lo: f64, v_hi: f64) -> Result<()> {
        if bits == 0 || bits > 16 {
            return Err(SensorError::InvalidConfig { parameter: "adc bits", value: bits as f64 });
        }
        if !v_lo.is_finite() {
            return Err(SensorError::InvalidConfig { parameter: "adc v_lo", value: v_lo });
        }
        if !v_hi.is_finite() {
            return Err(SensorError::InvalidConfig { parameter: "adc v_hi", value: v_hi });
        }
        if !(v_hi > v_lo) || !(v_hi - v_lo).is_finite() {
            return Err(SensorError::InvalidConfig { parameter: "adc range", value: v_hi - v_lo });
        }
        Ok(())
    }

    /// A checked configuration with its ladder.
    pub(crate) fn build(bits: u32, v_lo: f64, v_hi: f64, inl_lsb: f64, noise_sigma: f64) -> Self {
        let mut adc = Self { bits, v_lo, v_hi, inl_lsb, noise_sigma, ladder: None };
        adc.ladder = Ladder::build(&adc);
        adc
    }

    /// The paper's configuration: 8-bit conversion of the pixel voltage
    /// swing (defaults of [`crate::PixelParams`]).
    pub fn paper_default() -> Self {
        Self::new(8, 0.3, 0.9).expect("static configuration is valid")
    }

    /// Adds a bow-shaped integral nonlinearity with peak `inl_lsb` LSBs
    /// (rebuilds the ladder).
    pub fn with_inl(self, inl_lsb: f64) -> Self {
        Self::build(self.bits, self.v_lo, self.v_hi, inl_lsb, self.noise_sigma)
    }

    /// Adds Gaussian input-referred noise with standard deviation
    /// `sigma` volts.
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma;
        self
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of quantisation levels (`2^bits`).
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// Input range `(v_lo, v_hi)`.
    pub fn range(&self) -> (f64, f64) {
        (self.v_lo, self.v_hi)
    }

    /// Peak of the INL bow, LSBs.
    pub fn inl_lsb(&self) -> f64 {
        self.inl_lsb
    }

    /// One LSB in volts.
    pub fn lsb(&self) -> f64 {
        (self.v_hi - self.v_lo) / (self.levels() - 1) as f64
    }

    /// Input-referred noise standard deviation, volts.
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// The comparator ladder, or `None` for a configuration that takes
    /// the exact quantiser (see [`Ladder`]).
    pub fn ladder(&self) -> Option<&Ladder> {
        self.ladder.as_ref()
    }

    /// Converts an analog voltage to a code with the standard-normal
    /// noise sample `g` (scaled by the configured sigma). The caller owns
    /// the position-keyed draw, so conversion stays a pure function of
    /// `(v, g)`. Inputs outside the range clip to the end codes.
    ///
    /// The code comes from the ladder when the input clears its guard
    /// band, else from the exact quantiser; either way it equals
    /// [`Adc::convert_ideal`] of `v + sigma·g`.
    #[inline]
    pub fn convert_with_noise(&self, v: f64, g: f64) -> u16 {
        let x = v + self.noise_sigma * g;
        self.ladder
            .as_ref()
            .and_then(|ladder| ladder.convert(x))
            .unwrap_or_else(|| self.quantise(x))
    }

    /// The exact quantiser: the definition of every code, and the
    /// oracle the ladder is built against.
    #[inline]
    fn quantise(&self, x: f64) -> u16 {
        let t = ((x - self.v_lo) / (self.v_hi - self.v_lo)).clamp(0.0, 1.0);
        let mut code = t * (self.levels() - 1) as f64;
        if self.inl_lsb != 0.0 {
            // Bow INL: zero at the range ends, peak mid-scale.
            code += self.inl_lsb * (PI * t).sin();
        }
        code.round().clamp(0.0, (self.levels() - 1) as f64) as u16
    }

    /// Converts without noise through the exact quantiser (the
    /// reference path for tests and calibration).
    pub fn convert_ideal(&self, v: f64) -> u16 {
        self.quantise(v)
    }

    /// Converts a row of samples that already carry their conversion
    /// noise: `out[i]` is `code_to_unit(convert_ideal(xs[i]))`, bit for
    /// bit. With a ladder, the samples run eight per AVX-512 vector where
    /// the CPU has AVX-512F/DQ (else one at a time through the same
    /// window), each unit value comes from the ladder's table, and the
    /// samples that miss the ladder (non-finite, or inside the guard
    /// band) take the exact quantiser after the vector pass. Without a
    /// ladder, every sample takes the quantiser.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn convert_row(&self, xs: &[f64], out: &mut [f32]) {
        assert_eq!(xs.len(), out.len(), "one output per sample");
        if self.convert_row_lanes(xs, out).is_none() {
            self.convert_row_scalar(xs, out);
        }
    }

    /// [`Adc::convert_row`] on a chosen path, for the oracle suite: the
    /// 8-lane path when `lanes` (`None`, with `out` untouched, where the
    /// CPU lacks AVX-512F/DQ or the ADC has no ladder), else the scalar
    /// path. Returns how many samples took the exact quantiser.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    #[doc(hidden)]
    pub fn convert_row_on(&self, lanes: bool, xs: &[f64], out: &mut [f32]) -> Option<usize> {
        assert_eq!(xs.len(), out.len(), "one output per sample");
        if lanes {
            self.convert_row_lanes(xs, out)
        } else {
            Some(self.convert_row_scalar(xs, out))
        }
    }

    /// The 8-lane row path: the samples that took the quantiser, or
    /// `None` (and `out` untouched) without a ladder or without the CPU
    /// features.
    fn convert_row_lanes(&self, xs: &[f64], out: &mut [f32]) -> Option<usize> {
        wide::convert_row(self, self.ladder.as_ref()?, xs, out)
    }

    /// The one-sample-at-a-time row path, the fallback of the lanes:
    /// the samples that took the quantiser.
    fn convert_row_scalar(&self, xs: &[f64], out: &mut [f32]) -> usize {
        let mut misses = 0;
        for (&x, o) in xs.iter().zip(out) {
            let hit = self.ladder.as_ref().and_then(|ladder| ladder.unit(x));
            *o = hit.unwrap_or_else(|| {
                misses += 1;
                self.exact_unit(x)
            });
        }
        misses
    }

    /// The unit value of `x` through the exact quantiser.
    fn exact_unit(&self, x: f64) -> f32 {
        self.code_to_unit(self.quantise(x))
    }

    /// Maps a code back to the unit interval `0.0..=1.0`.
    pub fn code_to_unit(&self, code: u16) -> f32 {
        code as f32 / (self.levels() - 1) as f32
    }

    /// Maps a code back to volts within the conversion range.
    pub fn code_to_volts(&self, code: u16) -> f64 {
        self.v_lo + (self.v_hi - self.v_lo) * code as f64 / (self.levels() - 1) as f64
    }
}

/// The comparator ladder of an [`Adc`]: the quantiser's thresholds,
/// tabulated once, the guard band that makes reading them exact, and the
/// `code → unit` table the row converter reads.
///
/// With `L = levels - 1`, the quantiser computes, in `f64`,
/// `t = clamp((x - v_lo) / r, 0, 1)` with `r = v_hi - v_lo`, then
/// `code = clamp(round(L·t + inl·sin(PI·t)), 0, L)`. In real arithmetic
/// that is a non-decreasing step function of `x` whenever the bow's
/// slope `L + PI·inl·cos(PI·t)` stays positive, i.e. `|inl|·π < L`.
/// `th[c]` (`c` in `1..=L`) is the `f64` at which the quantiser steps
/// from below `c` to at least `c`; `th[c] = -inf` for `c ≤ 0` and
/// `+inf` for `c > L` pad the table.
///
/// # The window
///
/// A conversion guesses `g = clamp(⌊(x - v_lo)·L/r⌋, 0, L)` from the
/// linear part and counts the `2·steps` thresholds
/// `th[g - steps + 1..=g + steps]` at or below `x`, with
/// `steps = ⌈|inl|⌉ + 1`: `c = g - steps + count`. The thresholds rise
/// with `c`, so that count is the true code clamped to
/// `[g - steps, g + steps]` (the result of walking `steps` compares down
/// from `g` and then `steps` up), but its loads are independent of each
/// other instead of a dependent chain. `c` is returned only when `x`
/// lies at least `guard` inside `[th[c], th[c+1])`; everything else
/// (NaN, ±inf, the guard band, and a guess more than `steps` off) takes
/// the quantiser. Since the guard proves the code on its own (below),
/// the window only has to find it.
///
/// # Lanes
///
/// [`Adc::convert_row`] runs the window eight samples per vector where
/// the CPU has AVX-512F and AVX-512DQ: the guess by a truncating
/// conversion of the clamped linear part, the `2·steps` thresholds and
/// `th[c]`, `th[c+1]` by gathers from the padded table, and the unit
/// value `c / L` (as `f32`, exactly [`Adc::code_to_unit`]) by a gather
/// from a table of `levels` `f32`s built with the ladder, instead of a
/// division per sample. Lanes that are not finite or miss the guard take
/// the quantiser after the vector pass; elsewhere the same window runs
/// one sample at a time.
///
/// # The guard
///
/// Let `u = 2^-53` and `f(x) = L·t(x) + inl·sin(PI·t(x))`, in real
/// arithmetic over the rounded constants `r` and `PI`. The computed
/// code value differs from `f(x)` by at most `E = 8u·(L + 3|inl|)`:
/// `t` carries ≤ 3u (a subtraction and a division), worth
/// `3u·(L + π|inl|)` through `f`'s slope; `L·t` adds `u·L`; `PI·t`,
/// `sin` (≤ 2 ulps) and `inl·sin` add `(3 + π)u·|inl|`; the final sum
/// `1.01u·(L + |inl|)`; in total `u·(5.01L + 16.6|inl|) ≤ E`. Since
/// `round` gives `≥ c` exactly when its argument is `≥ c - ½`, the
/// computed code is `≥ c` wherever `f(x) ≥ c - ½ + E` and `< c`
/// wherever `f(x) < c - ½ - E`. `f` rises with slope at least
/// `s = (L - π|inl|)/r` inside the range and is flat at the end codes
/// outside it, so both hold at distance `δ = E/s` from the real
/// crossing `x*` of `c - ½`: every step of the computed quantiser from
/// below `c` to at least `c` lies within `δ` of `x*`. `th[c]` is such a
/// step (its predecessor float reads below `c`), so
/// `|th[c] - x*| ≤ δ + ulp`, where `ulp = 2u·max(|v_lo|, |v_hi|)`
/// bounds the spacing of floats in the range. Hence every `x` at least
/// `2δ + ulp` above `th[c]` reads `≥ c`, and every `x` at least that far
/// below `th[c+1]` reads `≤ c`. The stored guard is twice that,
/// `2·(2δ + ulp)`, so the two guard compares, themselves rounded with
/// relative error `u`, still prove the distance.
///
/// For the paper's 8-bit pixel ADC (`0.3..0.9` V, `inl = 0.25`) the
/// guard is ~2.5e-15 V, about 23 ulps at 0.6 V: a sample lands in the
/// band with probability ~1e-12.
///
/// # Fallback
///
/// No ladder is built for more than [`LADDER_MAX_BITS`] bits, or when
/// the bow's minimum slope `L - PI·|inl|`, less its own rounding error,
/// is not positive (which includes `|inl|·π ≥ L` and a NaN or infinite
/// `inl`).
///
/// # Construction
///
/// Each threshold is seeded by a Newton solve of
/// `L·t + inl·sin(π·t) = c - ½`, mapped to volts, then settled by an
/// exponential-then-binary search over ordered `f64` bit patterns with
/// the quantiser itself as the oracle, ending on adjacent floats that
/// read `< c` and `≥ c`. [`Ladder::build_evals`] counts the oracle calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    /// `th[c]` at `th[steps + c]`, for `c` in `-steps..=L + steps + 1`:
    /// `-inf` through `c = 0`, the thresholds, `+inf` from `c = L + 1`.
    /// Every index the window reads from a clamped guess is inside it.
    th: Box<[f64]>,
    /// `units[c] = c as f32 / L as f32`, for `c` in `0..=L`.
    units: Box<[f32]>,
    v_lo: f64,
    /// `L / (v_hi - v_lo)`: the linear part of the index guess.
    scale: f64,
    /// Thresholds counted each side of the guess, `⌈|inl|⌉ + 1`.
    steps: u32,
    guard: f64,
    build_evals: u64,
}

impl Ladder {
    /// The ladder of `adc`, or `None` when `adc` takes the exact path.
    fn build(adc: &Adc) -> Option<Self> {
        let u = f64::EPSILON / 2.0;
        let top = adc.levels() - 1;
        let l = top as f64;
        let inl = adc.inl_lsb.abs();
        let r = adc.v_hi - adc.v_lo;
        // `L - PI·|inl|` rounds to within 2u·L of its real value, so
        // taking off twice that keeps `slope_lsb` below the real minimum.
        let slope_lsb = l - PI * inl - 4.0 * u * l;
        if adc.bits > LADDER_MAX_BITS || !(slope_lsb > 0.0) {
            return None;
        }
        let err = 8.0 * u * (l + 3.0 * inl);
        let delta = err / (slope_lsb / r);
        let ulp = 2.0 * u * adc.v_lo.abs().max(adc.v_hi.abs());
        let guard = 2.0 * (2.0 * delta + ulp);

        let steps = inl.ceil() as u32 + 1;
        let pad = steps as usize + 1;
        let mut evals = 0u64;
        let mut th = Vec::with_capacity(top as usize + 2 * pad);
        th.resize(pad, f64::NEG_INFINITY);
        for c in 1..=top as u16 {
            let t = newton_seed(l, adc.inl_lsb, c as f64 - 0.5);
            th.push(settle(adc, c, adc.v_lo + t * r, &mut evals));
        }
        th.resize(top as usize + 2 * pad, f64::INFINITY);
        Some(Self {
            th: th.into_boxed_slice(),
            units: (0..=top as u16).map(|c| adc.code_to_unit(c)).collect(),
            v_lo: adc.v_lo,
            scale: l / r,
            steps,
            guard,
            build_evals: evals,
        })
    }

    /// The ladder code of `x`, or `None` when `x` is not finite or lies
    /// within the guard band of its step (or the window missed it).
    #[inline]
    fn convert(&self, x: f64) -> Option<u16> {
        let steps = self.steps as usize;
        let top = self.units.len() - 1;
        // Saturating cast, then clamp: the guess is a valid code, and
        // `th[guess + j]` is threshold `guess - steps + j`.
        let guess = (((x - self.v_lo) * self.scale) as i64).clamp(0, top as i64) as usize;
        let window = &self.th[guess + 1..=guess + 2 * steps];
        let c = guess + window.iter().map(|&t| usize::from(x >= t)).sum::<usize>();
        // A code that clears the guard is in `0..=top`, and no
        // non-finite `x` clears it: `th[c + 1] - inf` is `-inf` or NaN, as
        // is `-inf - th[c]`, and every compare with NaN is false.
        (x - self.th[c] >= self.guard && self.th[c + 1] - x >= self.guard)
            .then(|| (c - steps) as u16)
    }

    /// The unit value of [`Ladder::convert`]'s code for `x`.
    #[inline]
    fn unit(&self, x: f64) -> Option<f32> {
        self.convert(x).map(|code| self.units[usize::from(code)])
    }

    /// The padded threshold table: `levels + 1` entries, `-inf` first,
    /// `+inf` last, and between them, for each code `1..levels`, the
    /// input at which the quantiser steps up to it (its smallest input
    /// wherever the quantiser is monotone around that step).
    pub fn thresholds(&self) -> &[f64] {
        let steps = self.steps as usize;
        &self.th[steps..steps + self.units.len() + 1]
    }

    /// Half-width of the band around each threshold whose inputs take
    /// the exact quantiser, volts.
    pub fn guard(&self) -> f64 {
        self.guard
    }

    /// Quantiser evaluations spent building the table.
    pub fn build_evals(&self) -> u64 {
        self.build_evals
    }
}

/// The 8-lane form of the row converter (x86-64 with AVX-512F and
/// AVX-512DQ), mirroring `rand`'s keyed row kernel. Every `unsafe` of the
/// converter is here.
#[cfg(target_arch = "x86_64")]
mod wide {
    use std::arch::x86_64::*;

    use super::{Adc, Ladder};

    /// Whether this CPU runs the 8-lane converter: AVX-512F for the
    /// lanes, gathers and masks, AVX-512DQ for the `f64 → i64`
    /// conversion of the guess.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    /// [`Adc::convert_row`] in lanes: the samples that took the
    /// quantiser, or `None` (and `out` untouched) when the CPU lacks the
    /// features.
    pub(super) fn convert_row(
        adc: &Adc,
        ladder: &Ladder,
        xs: &[f64],
        out: &mut [f32],
    ) -> Option<usize> {
        if !available() {
            return None;
        }
        // The gathers' bounds: `L + 2·steps + 2` thresholds, `L + 1` units.
        let steps = ladder.steps as usize;
        assert_eq!(ladder.th.len(), ladder.units.len() + 2 * steps + 1, "padded table");
        // SAFETY: `available` just confirmed AVX-512F and AVX-512DQ, the
        // features `rows` is compiled for.
        Some(unsafe { rows(adc, ladder, xs, out) })
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

    /// The window of [`Ladder::convert`] on eight samples: each lane's
    /// unit value, and the mask of the lanes that clear the guard (the
    /// others' values are meaningless and must take the quantiser). As
    /// in the scalar form, no NaN or infinite lane clears the guard.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn convert8(ladder: &Ladder, x: __m512d) -> (__m256, __mmask8) {
        let steps = ladder.steps as usize;
        let top = (ladder.units.len() - 1) as i64;
        // The clamp before the truncation gives the scalar guess: `max`
        // returns its second operand for a NaN lane, so every lane's
        // guess is a code in `0..=top`.
        let linear = _mm512_mul_pd(
            _mm512_sub_pd(x, _mm512_set1_pd(ladder.v_lo)),
            _mm512_set1_pd(ladder.scale),
        );
        let clamped =
            _mm512_min_pd(_mm512_max_pd(linear, _mm512_setzero_pd()), _mm512_set1_pd(top as f64));
        let guess = _mm512_cvttpd_epi64(clamped);
        let th = ladder.th.as_ptr();
        let one = _mm512_set1_epi64(1);
        let mut c = guess;
        for j in 1..=2 * steps {
            // SAFETY: every lane of `guess` is in `0..=top` and `j` in
            // `1..=2·steps`, so the gather reads `th[guess + j]` with
            // `guess + j ≤ top + 2·steps < th.len()`, 8-byte scaled.
            let t = unsafe { _mm512_i64gather_pd::<8>(guess, th.add(j)) };
            c = _mm512_mask_add_epi64(c, _mm512_cmp_pd_mask::<_CMP_GE_OQ>(x, t), c, one);
        }
        // SAFETY: every lane of `c` is in `guess..=guess + 2·steps`, so
        // the gathers read `th[c]` and `th[c + 1]` with
        // `c + 1 ≤ top + 2·steps + 1 = th.len() - 1`.
        let (lo, hi) =
            unsafe { (_mm512_i64gather_pd::<8>(c, th), _mm512_i64gather_pd::<8>(c, th.add(1))) };
        let guard = _mm512_set1_pd(ladder.guard);
        let above = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(_mm512_sub_pd(x, lo), guard);
        let ok = _mm512_mask_cmp_pd_mask::<_CMP_GE_OQ>(above, _mm512_sub_pd(hi, x), guard);
        let code = _mm512_min_epi64(
            _mm512_max_epi64(
                _mm512_sub_epi64(c, _mm512_set1_epi64(steps as i64)),
                _mm512_setzero_si512(),
            ),
            _mm512_set1_epi64(top),
        );
        // SAFETY: every lane of `code` is clamped into `0..=top`, and
        // `units` holds `top + 1` entries, 4-byte scaled.
        let units = unsafe { _mm512_i64gather_ps::<4>(code, ladder.units.as_ptr()) };
        (units, ok)
    }

    /// Samples per block: the converter vectorizes a block, then sends
    /// the block's missed lanes through the quantiser, so the cold calls
    /// do not interrupt the vector loop. The miss masks live on the
    /// stack.
    const BLOCK: usize = 256;

    /// Eight samples per step; a lane that misses the ladder is
    /// converted again through the quantiser. Returns the misses.
    // lint: zero-alloc
    #[target_feature(enable = "avx512f,avx512dq")]
    fn rows(adc: &Adc, ladder: &Ladder, xs: &[f64], out: &mut [f32]) -> usize {
        let mut misses = 0;
        for (xs, out) in xs.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            let mut missed = [0u8; BLOCK / 8];
            let steps = xs.chunks(8).zip(out.chunks_mut(8));
            for ((x8, o8), miss) in steps.zip(&mut missed) {
                let live = live_lanes(x8.len());
                // SAFETY: `live` selects exactly the first `x8.len()`
                // lanes, so the masked load reads only inside `x8`.
                let x = unsafe { _mm512_maskz_loadu_pd(live, x8.as_ptr()) };
                let (units, ok) = convert8(ladder, x);
                // SAFETY: `live` selects exactly the first `o8.len()`
                // lanes (`o8` is as long as `x8`), so the masked store
                // writes only inside `o8`.
                unsafe {
                    _mm512_mask_storeu_ps(
                        o8.as_mut_ptr(),
                        __mmask16::from(live),
                        _mm512_castps256_ps512(units),
                    );
                }
                *miss = live & !ok;
            }
            for (step, &miss) in missed.iter().enumerate() {
                for i in lanes_of(miss).map(|lane| 8 * step + lane) {
                    out[i] = adc.exact_unit(xs[i]);
                    misses += 1;
                }
            }
        }
        misses
    }
}

/// The 8-lane converter's stand-in where the target has no AVX-512:
/// every row takes the one-sample path.
#[cfg(not(target_arch = "x86_64"))]
mod wide {
    use super::{Adc, Ladder};

    pub(super) fn convert_row(_: &Adc, _: &Ladder, _: &[f64], _: &mut [f32]) -> Option<usize> {
        None
    }
}

/// Newton's method on `l·t + inl·sin(π·t) = target` over `t ∈ [0, 1]`,
/// from the linear solution, until the step stops moving `t` (at most
/// 16 steps: the result is only a seed).
fn newton_seed(l: f64, inl: f64, target: f64) -> f64 {
    let mut t = target / l;
    for _ in 0..16 {
        let f = l * t + inl * (PI * t).sin() - target;
        let df = l + PI * inl * (PI * t).cos();
        let next = (t - f / df).clamp(0.0, 1.0);
        if next == t {
            break;
        }
        t = next;
    }
    t
}

/// A total order on non-NaN `f64`s as `i64` keys: adjacent keys are
/// adjacent floats (`-0.0` just below `+0.0`).
fn ordered_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    if b < 0 {
        b ^ i64::MAX
    } else {
        b
    }
}

/// Inverse of [`ordered_key`].
fn from_key(k: i64) -> f64 {
    f64::from_bits((if k < 0 { k ^ i64::MAX } else { k }) as u64)
}

/// The float at which `adc`'s quantiser steps to at least `c`, searched
/// from `seed`: doubling strides until a float below and one at or
/// above the step bracket it, then bisection down to adjacent floats.
/// Ends because `-f64::MAX` reads code 0 and `f64::MAX` code `L ≥ c`.
fn settle(adc: &Adc, c: u16, seed: f64, evals: &mut u64) -> f64 {
    let (min, max) = (ordered_key(-f64::MAX), ordered_key(f64::MAX));
    let mut reaches = |k: i64| {
        *evals += 1;
        adc.quantise(from_key(k)) >= c
    };
    let k0 = ordered_key(seed).clamp(min, max);
    let (mut lo, mut hi) = (k0, k0);
    let mut stride = 1i64;
    if reaches(k0) {
        loop {
            lo = hi.saturating_sub(stride).max(min);
            if !reaches(lo) {
                break;
            }
            hi = lo;
            stride = stride.saturating_mul(2);
        }
    } else {
        loop {
            hi = lo.saturating_add(stride).min(max);
            if reaches(hi) {
                break;
            }
            lo = hi;
            stride = stride.saturating_mul(2);
        }
    }
    while (hi as i128 - lo as i128) > 1 {
        let mid = ((lo as i128 + hi as i128) / 2) as i64;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    from_key(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::NormalSampler;
    use rand::rngs::KeyedRng;

    #[test]
    fn rejects_bad_config() {
        assert!(Adc::new(0, 0.0, 1.0).is_err());
        assert!(Adc::new(20, 0.0, 1.0).is_err());
        assert!(Adc::new(8, 1.0, 1.0).is_err());
        assert!(Adc::new(8, 1.0, 0.5).is_err());
        for (lo, hi) in [
            (0.3, f64::INFINITY),
            (f64::NEG_INFINITY, 0.9),
            (f64::NAN, 0.9),
            (0.3, f64::NAN),
            (-f64::MAX, f64::MAX),
        ] {
            let err = Adc::new(8, lo, hi).unwrap_err();
            assert!(matches!(err, SensorError::InvalidConfig { .. }), "{lo}..{hi}: {err}");
        }
    }

    #[test]
    fn ladder_guard_is_a_few_ulps_for_the_paper_adc() {
        let adc = Adc::paper_default().with_inl(0.25);
        let guard = adc.ladder().expect("8-bit ADCs have a ladder").guard();
        let ulp = 0.6f64.next_up() - 0.6;
        assert!(guard > ulp && guard < 64.0 * ulp, "guard {guard:e}");
    }

    #[test]
    fn paper_default_is_8bit() {
        let adc = Adc::paper_default();
        assert_eq!(adc.bits(), 8);
        assert_eq!(adc.levels(), 256);
        assert_eq!(adc.range(), (0.3, 0.9));
    }

    #[test]
    fn endpoints_map_to_end_codes() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap();
        assert_eq!(adc.convert_ideal(0.0), 0);
        assert_eq!(adc.convert_ideal(1.0), 255);
        assert_eq!(adc.convert_ideal(-5.0), 0); // clips
        assert_eq!(adc.convert_ideal(5.0), 255); // clips
    }

    #[test]
    fn midscale_code() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap();
        let c = adc.convert_ideal(0.5);
        assert!((c as i32 - 128).abs() <= 1);
    }

    #[test]
    fn quantisation_error_bounded_by_half_lsb() {
        let adc = Adc::new(8, 0.3, 0.9).unwrap();
        for i in 0..100 {
            let v = 0.3 + 0.6 * i as f64 / 99.0;
            let code = adc.convert_ideal(v);
            let back = adc.code_to_volts(code);
            assert!((back - v).abs() <= adc.lsb() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn code_roundtrips_exactly() {
        let adc = Adc::new(8, 0.3, 0.9).unwrap();
        for code in [0u16, 1, 100, 254, 255] {
            let v = adc.code_to_volts(code);
            assert_eq!(adc.convert_ideal(v), code);
        }
    }

    #[test]
    fn unit_mapping_endpoints() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap();
        assert_eq!(adc.code_to_unit(0), 0.0);
        assert_eq!(adc.code_to_unit(255), 1.0);
    }

    #[test]
    fn inl_bows_midscale_only() {
        let ideal = Adc::new(8, 0.0, 1.0).unwrap();
        let bowed = Adc::new(8, 0.0, 1.0).unwrap().with_inl(2.0);
        assert_eq!(bowed.convert_ideal(0.0), ideal.convert_ideal(0.0));
        assert_eq!(bowed.convert_ideal(1.0), ideal.convert_ideal(1.0));
        let mid_ideal = ideal.convert_ideal(0.5) as i32;
        let mid_bowed = bowed.convert_ideal(0.5) as i32;
        assert_eq!(mid_bowed - mid_ideal, 2);
    }

    #[test]
    fn convert_with_noise_matches_quantiser() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap().with_inl(0.5).with_noise(0.02);
        // A zero sample reduces to the deterministic conversion.
        for v in [0.0, 0.25, 0.5, 0.99] {
            assert_eq!(adc.convert_with_noise(v, 0.0), adc.convert_ideal(v));
        }
        // A supplied sample is scaled by sigma exactly like internal noise.
        assert_eq!(adc.convert_with_noise(0.5, 2.0), adc.convert_ideal(0.5 + 0.02 * 2.0));
        assert_eq!(adc.convert_with_noise(0.5, -2.0), adc.convert_ideal(0.5 - 0.02 * 2.0));
        assert_eq!(adc.noise_sigma(), 0.02);
    }

    #[test]
    fn noise_perturbs_codes() {
        let adc = Adc::new(8, 0.0, 1.0).unwrap().with_noise(0.02);
        let sampler = NormalSampler::new();
        let key = KeyedRng::derive_key(1, 0);
        let codes: Vec<u16> = (0..50)
            .map(|site| {
                let g = sampler.sample(&mut KeyedRng::for_stream(key, site));
                adc.convert_with_noise(0.5, g)
            })
            .collect();
        let distinct: std::collections::HashSet<_> = codes.iter().collect();
        assert!(distinct.len() > 1, "noise produced identical codes");
        // All stay near mid-scale.
        for c in codes {
            assert!((c as i32 - 128).abs() < 30);
        }
    }
}
