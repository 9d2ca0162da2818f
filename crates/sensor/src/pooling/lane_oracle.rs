//! The pool leaf's lanes against a frozen copy of the per-site fused loop.
//!
//! `pool_fused` computes a chunk's site means, then the transfer, the
//! analog store and the ADC samples, eight sites per AVX-512 vector where
//! the CPU has AVX-512F/DQ, with `sin` from a polynomial behind a guard.
//! Both of its paths must equal `frozen_pool` — the fused loop as it
//! stood before the lanes, one closure call per site — bit for bit in the
//! analog and the digital plane: every `k` in {1, 2, 3, 4, 8}, channel and
//! gray, rows of 1..=67 and 997 sites, each sigma at zero in turn, scenes
//! with NaN, ±inf, `−0.0` and out-of-range irradiance, voltages of ±inf,
//! keyed random configurations, and scripted sites whose voltage lies a
//! few `f64` ulps from an `f32` rounding midpoint where the polynomial
//! and libm differ. The scalar path must report no fallbacks and the
//! lanes exactly the sites whose mean is not finite or whose bracket
//! misses, so a routing that only costs speed fails here too.
//!
//! A NaN output is compared as NaN, not by its bits: which NaN an
//! operation with two NaN inputs returns is left open by IEEE 754 and by
//! Rust, and follows the operand order the compiler picks, so even two
//! scalar copies of one sum can disagree on its sign. Every other value,
//! `±0.0` and `±inf` included, is compared by its bits.

use hirise_imaging::RgbImage;
use rand::rngs::KeyedRng;

use super::*;
use crate::pixel::PixelParams;

/// Whether this CPU runs the pool leaf's lanes.
fn cpu_has_lanes() -> bool {
    wide::available()
}

/// What [`frozen_pool`] computed: the two planes, and each site's mean
/// and pooling draw, row-major, for the expected fallbacks.
struct Frozen {
    analog: Plane,
    out: Plane,
    means: Vec<f64>,
    pool_g: Vec<f64>,
}

/// The fused loop exactly as it stood before the lanes (one thread): a
/// per-site mean closure, the transfer and the keyed pooling noise per
/// site, and one `convert_row` per chunk.
fn frozen_pool(
    array: &PixelArray,
    sites: Sites,
    k: u32,
    cfg: &PoolingConfig,
    adc: &Adc,
    key: u64,
) -> Frozen {
    let params = *array.params();
    let ku = k as usize;
    let area = (k as u64 * k as u64) as f64;
    let (inputs, dom) = match sites {
        Sites::Channel(ch) => ((k * k) as f64, domain::POOL + ch as u64),
        Sites::Gray => ((k * k * 3) as f64, domain::POOL),
    };
    let sigma = combined_sigma(cfg, params.read_noise, inputs);
    let plane_mean = |plane: &Plane, y0: usize, x0: usize| {
        let mut acc = 0.0f64;
        for dy in 0..ku {
            for &v in &plane.row((y0 + dy) as u32)[x0..x0 + ku] {
                acc += v as f64;
            }
        }
        acc / area
    };
    let site_mean = |y0: usize, x0: usize| match sites {
        Sites::Channel(ch) => plane_mean(array.plane(ch), y0, x0),
        Sites::Gray => {
            let mut channel_means = [0.0f64; 3];
            for (ch, mean) in channel_means.iter_mut().enumerate() {
                *mean = plane_mean(array.plane(ch), y0, x0);
            }
            (channel_means[0] + channel_means[1] + channel_means[2]) / 3.0
        }
    };
    let (ow, oh) = (array.width() / k, array.height() / k);
    let oww = ow as usize;
    let (mut analog, mut out) = (Plane::new(ow, oh), Plane::new(ow, oh));
    let (mut means, mut pool_gs) = (Vec::new(), Vec::new());
    let sampler = NormalSampler::new();
    let adc_sigma = adc.noise_sigma();
    let mut noise = RowNoise::new();
    for oy in 0..oh as usize {
        let y0 = oy * ku;
        let row_site = (oy * oww) as u64;
        let arow = &mut analog.as_mut_slice()[oy * oww..(oy + 1) * oww];
        let orow = &mut out.as_mut_slice()[oy * oww..(oy + 1) * oww];
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
                means.push(mean);
                pool_gs.push(p);
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
    Frozen { analog, out, means, pool_g: pool_gs }
}

/// Whether the lanes send a site to the scalar transfer: a mean that is
/// not finite, or bracket ends that convert to different `f32` bits (or
/// NaN). The lanes' arithmetic written out one site at a time, with the
/// lanes' own polynomial.
fn lane_misses(tr: &Transfer, mean: f64, p: f64) -> bool {
    if !mean.is_finite() {
        return true;
    }
    let t = ((mean - tr.v_dark) / (tr.v_sat - tr.v_dark)).clamp(0.0, 1.0);
    let s = wide::sin_pi_lanes(&[t; 8]).expect("the lanes ran")[0];
    let a = tr.cfg.gain * mean + tr.cfg.offset;
    let b = tr.cfg.nonlinearity * s;
    let (mut lo, mut hi) = (a + (b - tr.guard), a + (b + tr.guard));
    if tr.sigma > 0.0 {
        let n = tr.sigma * p;
        lo += n;
        hi += n;
    }
    lo.is_nan() || hi.is_nan() || (lo as f32).to_bits() != (hi as f32).to_bits()
}

/// The sites the lanes must send to the scalar transfer: in each pooled
/// row, those of the full vectors (chunks are a multiple of eight wide,
/// so the leading `ow − ow % 8`) that [`lane_misses`].
fn expected_fallbacks(frozen: &Frozen, tr: &Transfer) -> usize {
    let ow = frozen.analog.width() as usize;
    let lane_sites = ow - ow % 8;
    let rows = frozen.means.chunks(ow).zip(frozen.pool_g.chunks(ow));
    rows.map(|(means, pool_g)| {
        means[..lane_sites]
            .iter()
            .zip(pool_g)
            .filter(|&(&mean, &p)| lane_misses(tr, mean, p))
            .count()
    })
    .sum()
}

/// The bits of each value of `plane`, with every NaN as `f32::NAN`.
fn bits(plane: &Plane) -> Vec<u32> {
    let canonical = |v: f32| if v.is_nan() { f32::NAN } else { v };
    plane.as_slice().iter().map(|&v| canonical(v).to_bits()).collect()
}

/// Asserts that both paths of the pool equal [`frozen_pool`] bit for
/// bit, that the scalar path reports no fallbacks and the lanes exactly
/// [`expected_fallbacks`]. Returns `(whether the lanes ran, the lanes'
/// fallbacks)`.
fn check_pool(
    array: &PixelArray,
    sites: Sites,
    k: u32,
    cfg: &PoolingConfig,
    adc: &Adc,
    key: u64,
    what: &str,
) -> (bool, usize) {
    let frozen = frozen_pool(array, sites, k, cfg, adc, key);
    let (want_analog, want_out) = (bits(&frozen.analog), bits(&frozen.out));
    let (mut analog, mut out) = (Plane::new(1, 1), Plane::new(1, 1));
    let mut run = |lanes: bool| {
        analog.as_mut_slice().fill(f32::NAN);
        let fallbacks =
            pool_on(lanes, array, sites, k, cfg, adc, key, 1, None, &mut analog, &mut out)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
        let path = if lanes { "lanes" } else { "scalar" };
        assert_eq!(bits(&analog), want_analog, "{what}: {path} analog");
        assert_eq!(bits(&out), want_out, "{what}: {path} digital");
        fallbacks
    };
    assert_eq!(run(false), 0, "{what}: scalar fallbacks");
    let fallbacks = run(true);
    let expected = if cpu_has_lanes() {
        let params = array.params();
        let channels = if sites == Sites::Gray { 3 } else { 1 };
        let sigma = combined_sigma(cfg, params.read_noise, input_count(k, channels));
        let tr = Transfer::new(cfg, params.v_dark, params.v_sat, sigma, adc.noise_sigma());
        expected_fallbacks(&frozen, &tr)
    } else {
        0
    };
    assert_eq!(fallbacks, expected, "{what}: lanes fallbacks");
    (cpu_has_lanes(), fallbacks)
}

/// The bits of `x`, with every NaN as `f64::NAN`.
fn f64_bits(x: f64) -> u64 {
    if x.is_nan() { f64::NAN } else { x }.to_bits()
}

/// Irradiance values a scene sprinkles in: NaN, ±inf, `−0.0`, and
/// values outside `[0, 1]`.
const SPECIAL_IRRADIANCE: [f32; 8] =
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1.5, -0.5, 1e30, -f32::MIN_POSITIVE];

/// A keyed scene whose channel values are one in `rarity` special.
fn scene(w: u32, h: u32, key: u64, rarity: u64) -> RgbImage {
    RgbImage::from_fn(w, h, |x, y| {
        let word = KeyedRng::block(key, (u64::from(y) << 32) | u64::from(x));
        let irradiance = |shift: u32| {
            let b = (word >> shift) & 0xFFFF;
            if b.is_multiple_of(rarity) {
                SPECIAL_IRRADIANCE[(word >> 48) as usize % SPECIAL_IRRADIANCE.len()]
            } else {
                b as f32 / 65535.0
            }
        };
        (irradiance(0), irradiance(16), irradiance(32))
    })
}

/// An 8-bit ADC with a bow, spanned over `cfg`'s output range, with
/// conversion noise `noise`.
fn pooled_adc(cfg: &PoolingConfig, params: &PixelParams, noise: f64) -> Adc {
    let (a, b) = cfg.output_range(params.v_dark, params.v_sat);
    Adc::new(8, a.min(b), a.max(b)).unwrap().with_inl(0.25).with_noise(noise)
}

/// Prints whether the lanes ran, once per test.
fn report(test: &str, lanes_ran: bool, fallbacks: usize) {
    if lanes_ran {
        println!("{test}: the 8-lane pool leaf ran and matched ({fallbacks} scalar fallbacks)");
    } else {
        println!("{test}: lanes skipped (no AVX-512F/DQ); the scalar path ran alone");
    }
}

#[test]
fn lane_pool_matches_the_frozen_fused_loop() {
    // Every k, channel and gray, rows of 1..=67 and 997 sites over two
    // pooled rows, with the pooling sigma and the ADC sigma each at zero
    // in turn, on scenes with special irradiance.
    let (mut lanes_ran, mut fallbacks) = (false, 0);
    for k in [1u32, 2, 3, 4, 8] {
        for sites in [Sites::Channel(1), Sites::Gray] {
            // A special value in about one channel window in 23, one in
            // eight of them NaN, whatever k.
            let rarity = 23 * u64::from(k * k);
            let widths = (1..=67u32).chain([997]);
            for (n, ow) in widths.enumerate() {
                let key = KeyedRng::derive_key(u64::from(k), n as u64);
                let s = scene(ow * k, 2 * k, key, rarity);
                for (pool_noise, adc_noise) in [(true, true), (false, true), (true, false)] {
                    let params = if pool_noise {
                        PixelParams::default()
                    } else {
                        PixelParams { read_noise: 0.0, ..PixelParams::default() }
                    };
                    let cfg = PoolingConfig {
                        noise_sigma: if pool_noise { 0.3e-3 } else { 0.0 },
                        ..PoolingConfig::default()
                    };
                    let adc = pooled_adc(&cfg, &params, if adc_noise { 0.5e-3 } else { 0.0 });
                    let array = PixelArray::from_scene(&s, params, 7);
                    let what =
                        format!("k {k} {sites:?} {ow} sites, noise {pool_noise}/{adc_noise}");
                    let (ran, f) = check_pool(&array, sites, k, &cfg, &adc, key, &what);
                    lanes_ran |= ran;
                    fallbacks += f;
                }
            }
        }
    }
    assert_eq!(lanes_ran, cpu_has_lanes());
    report("frozen fused loop", lanes_ran, fallbacks);
}

#[test]
fn lane_pool_chunks_handle_ragged_lengths() {
    // Chunks of 0..=67 sites straight through both passes, against the
    // scalar forms, from several starting columns of a row wide enough
    // for every k.
    let cfg = PoolingConfig::default();
    let params = PixelParams::default();
    let (mut lanes_ran, mut fallbacks) = (false, 0);
    for k in [1usize, 2, 3, 4, 8] {
        let w = (80 * k) as u32;
        let array = PixelArray::from_scene(&scene(w, k as u32, 0x5EED, 31), params, 1);
        let planes = [array.plane(0), array.plane(1), array.plane(2)];
        let area = (k * k) as f64;
        let tr = Transfer::new(&cfg, params.v_dark, params.v_sat, 0.4e-3, 0.2e-3);
        for start in [0usize, 1, 7, 12] {
            for n in 0..=67usize {
                let x0 = start * k;
                let (mut lane, mut scalar) = ([0.0f64; 67], [0.0f64; 67]);
                let (lane, scalar) = (&mut lane[..n], &mut scalar[..n]);
                let bits = |means: &[f64]| means.iter().map(|&m| f64_bits(m)).collect::<Vec<_>>();
                site_means(true, &planes[2..], k, 0, x0, area, lane);
                site_means(false, &planes[2..], k, 0, x0, area, scalar);
                assert_eq!(bits(lane), bits(scalar), "k {k} channel: {n} sites from {start}");
                site_means(true, &planes, k, 0, x0, area, lane);
                site_means(false, &planes, k, 0, x0, area, scalar);
                assert_eq!(bits(lane), bits(scalar), "k {k} gray: {n} sites from {start}");
                let draws: [f64; 67] = std::array::from_fn(|i| (i as f64 - 33.0) / 11.0);
                let draws = &draws[..n];
                let (mut la, mut lx) = ([0.0f32; 67], [0.0f64; 67]);
                let got = tr.chunk(true, lane, draws, draws, &mut la[..n], &mut lx[..n]);
                let expected = if cpu_has_lanes() {
                    let lane_sites = lane[..n - n % 8].iter().zip(draws);
                    lane_sites.filter(|&(&mean, &p)| lane_misses(&tr, mean, p)).count()
                } else {
                    0
                };
                assert_eq!(got, expected, "k {k}: {n} sites from {start}");
                fallbacks += got;
                for i in 0..n {
                    let (a, x) = tr.site(lane[i], draws[i], draws[i]);
                    let got = (f64_bits(la[i].into()), f64_bits(lx[i]));
                    assert_eq!(got, (f64_bits(a.into()), f64_bits(x)), "k {k}: site {i} of {n}");
                }
                lanes_ran |= n >= 8 && cpu_has_lanes();
            }
        }
    }
    assert_eq!(lanes_ran, cpu_has_lanes());
    report("ragged chunks", lanes_ran, fallbacks);
}

/// A uniform `f64` in `[lo, hi)` from word `i` of a keyed stream.
fn uniform(key: u64, i: u64, lo: f64, hi: f64) -> f64 {
    let unit = (KeyedRng::block(key, i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    lo + unit * (hi - lo)
}

/// Keyed random case `case` of seed `seed`: a valid pixel, pooling and
/// ADC configuration, a factor, a site kind and a pooled geometry.
fn random_case(seed: u64, case: u64) -> (PixelParams, PoolingConfig, Adc, u32, Sites, u32, u32) {
    let key = KeyedRng::derive_key(seed, case);
    let word = |i: u64| KeyedRng::block(key, 100 + i);
    let on = |i: u64, p: u64| word(i) % 100 < p;
    let v_dark = uniform(key, 0, 0.0, 0.6);
    // One case in eight spans past `f32::MAX`, so voltages reach ±inf.
    let (v_dark, v_sat) =
        if on(0, 12) { (-1e39, 1e39) } else { (v_dark, v_dark + uniform(key, 1, 0.05, 1.2)) };
    let params = PixelParams {
        v_dark,
        v_sat,
        read_noise: if on(1, 50) { uniform(key, 2, 0.0, 2e-3) } else { 0.0 },
        prnu_sigma: if on(2, 50) { uniform(key, 3, 0.0, 0.02) } else { 0.0 },
        dsnu_sigma: if on(3, 50) { uniform(key, 4, 0.0, 2e-3) } else { 0.0 },
    };
    // A bow up to 2 V in one case in four makes the polynomial's error
    // visible next to `f32` steps.
    let bow = if on(4, 25) { 2.0 } else { 0.05 };
    let cfg = PoolingConfig {
        gain: uniform(key, 5, -1.5, 1.5),
        offset: uniform(key, 6, -1.0, 1.0),
        noise_sigma: if on(5, 50) { uniform(key, 7, 0.0, 1e-3) } else { 0.0 },
        nonlinearity: uniform(key, 8, -bow, bow),
    };
    let adc_noise = if on(6, 50) { uniform(key, 9, 0.0, 1e-3) } else { 0.0 };
    let (lo, hi) = if v_sat > 1e30 {
        (-1.0, 1.0)
    } else {
        let (a, b) = cfg.output_range(v_dark, v_sat);
        (a.min(b) - 0.01, a.max(b) + 0.01)
    };
    let bits = [6, 8, 10, 12][word(7) as usize % 4];
    let adc =
        Adc::new(bits, lo, hi).unwrap().with_inl(uniform(key, 10, -0.5, 0.5)).with_noise(adc_noise);
    let k = [1u32, 2, 3, 4, 8][word(8) as usize % 5];
    let sites = match word(9) % 4 {
        3 => Sites::Gray,
        ch => Sites::Channel(ch as usize),
    };
    let ow = 1 + (word(10) % 300) as u32;
    let oh = 1 + (word(11) % 3) as u32;
    (params, cfg, adc, k, sites, ow, oh)
}

#[test]
fn lane_pool_matches_on_keyed_random_configs() {
    // Replay one case with `random_case(SEED, case)`.
    const SEED: u64 = 0x9001;
    let (mut lanes_ran, mut fallbacks) = (false, 0);
    for case in 0..96u64 {
        let (params, cfg, adc, k, sites, ow, oh) = random_case(SEED, case);
        let key = KeyedRng::derive_key(SEED ^ 1, case);
        let s = scene(ow * k, oh * k, key, 7 * u64::from(k * k));
        let array = PixelArray::from_scene(&s, params, case);
        let what = format!("seed {SEED:#x} case {case}: k {k} {sites:?} {ow}x{oh}");
        let (ran, f) = check_pool(&array, sites, k, &cfg, &adc, key, &what);
        lanes_ran |= ran;
        fallbacks += f;
    }
    assert_eq!(lanes_ran, cpu_has_lanes());
    report("keyed random configs", lanes_ran, fallbacks);
}

/// A noiseless `ow × 1` array at `k = 1` whose every site reads the same
/// voltage: irradiance `irradiance` over `params`.
fn flat_array(params: PixelParams, irradiance: f32, ow: u32) -> PixelArray {
    let s = RgbImage::from_fn(ow, 1, |_, _| (irradiance, irradiance, irradiance));
    PixelArray::from_scene(&s, params, 0)
}

#[test]
fn lane_pool_scripted_midpoints_take_the_scalar_transfer() {
    // Sites whose voltage lies within a few `f64` ulps of an `f32`
    // rounding midpoint, at means where the polynomial and libm differ:
    // the offset is solved so that the scalar `v` lands at each distance
    // from the midpoint in turn. A 1 V bow puts the `sin` difference at
    // ulp scale. The lanes must fall back exactly where their bracket
    // straddles the midpoint, and at least one case must round to a
    // different `f32` if the lanes took the polynomial's value.
    let params = PixelParams::noiseless();
    let ow = 19;
    let mut lanes_ran = false;
    let (mut fallbacks, mut poly_differs) = (0, 0);
    if !cpu_has_lanes() {
        report("scripted midpoints", false, 0);
        return;
    }
    let mut means_seen = 0;
    for i in 1..400u32 {
        let irradiance = i as f32 / 401.0;
        let mean = params.voltage(irradiance) as f32 as f64;
        let t = ((mean - params.v_dark) / params.swing()).clamp(0.0, 1.0);
        let libm = (std::f64::consts::PI * t).sin();
        let poly = wide::sin_pi_lanes(&[t; 8]).expect("the lanes ran")[0];
        if poly == libm {
            continue;
        }
        means_seen += 1;
        if means_seen > 6 {
            break;
        }
        // The midpoint between 0.3f32 and the next `f32` up.
        let f = 0.3f32;
        let midpoint = (f as f64 + f32::from_bits(f.to_bits() + 1) as f64) / 2.0;
        let base = PoolingConfig { gain: 0.5, offset: 0.0, noise_sigma: 0.0, nonlinearity: 1.0 };
        let offset0 = midpoint - base.gain * mean - libm;
        let mut offset = offset0;
        for _ in 0..48 {
            offset = offset.next_down();
        }
        for _ in 0..96 {
            offset = offset.next_up();
            let cfg = PoolingConfig { offset, ..base };
            let v = cfg.transfer(mean, params.v_dark, params.v_sat);
            if (v - midpoint).abs() > 6.0 * f64::EPSILON * midpoint {
                continue;
            }
            let v_poly = cfg.gain * mean + cfg.offset + cfg.nonlinearity * poly;
            poly_differs += usize::from((v as f32).to_bits() != (v_poly as f32).to_bits());
            let array = flat_array(params, irradiance, ow);
            let adc = pooled_adc(&cfg, &params, 0.0);
            let what = format!("mean {mean:e}, offset {offset:e}, v − midpoint {:e}", v - midpoint);
            let (ran, f) = check_pool(&array, Sites::Channel(0), 1, &cfg, &adc, 5, &what);
            lanes_ran |= ran;
            fallbacks += f;
        }
    }
    assert!(means_seen > 0, "no mean where the polynomial and libm differ");
    assert!(fallbacks > 0, "no scripted site reached the guard");
    assert!(poly_differs > 0, "no scripted site rounds differently through the polynomial");
    report("scripted midpoints", lanes_ran, fallbacks);
}

#[test]
fn lane_pool_scripted_special_sites_match() {
    // Sites the lanes must hand over or get exactly right: a zero span
    // (`t = 0/0`, NaN through `clamp`), `t = −0.0` with an all-negative-
    // zero transfer, and voltages of ±inf whose means are ±inf or NaN.
    let mut lanes_ran = false;
    let mut fallbacks = 0;
    let quiet = PixelParams::noiseless();
    let scenes: [(&str, PixelParams, PoolingConfig, RgbImage); 3] = [
        (
            "zero span",
            PixelParams { v_dark: 0.5, v_sat: 0.5, ..quiet },
            PoolingConfig::default(),
            RgbImage::from_fn(16, 2, |x, _| (x as f32 / 15.0, 0.5, f32::NAN)),
        ),
        (
            "negative zero",
            PixelParams { v_dark: 0.0, v_sat: -1.0, ..quiet },
            PoolingConfig { gain: -1.0, offset: -0.0, noise_sigma: 0.0, nonlinearity: 0.0 },
            RgbImage::from_fn(16, 2, |x, _| (0.0, -0.0, x as f32 / 15.0)),
        ),
        (
            "infinite voltages",
            PixelParams { v_dark: -1e39, v_sat: 1e39, ..quiet },
            PoolingConfig::default(),
            RgbImage::from_fn(32, 4, |x, y| {
                let pick = [0.0, 1.0, 0.5, 0.25][((x + y) % 4) as usize];
                (pick, [1.0, 0.0][(x % 2) as usize], 0.5)
            }),
        ),
    ];
    for (name, params, cfg, s) in scenes {
        let array = PixelArray::from_scene(&s, params, 0);
        let adc = Adc::new(8, -1.0, 1.0).unwrap();
        for (k, sites) in [(1, Sites::Channel(0)), (1, Sites::Channel(1)), (1, Sites::Gray)]
            .into_iter()
            .chain([(2, Sites::Channel(2)), (2, Sites::Gray)])
        {
            let what = format!("{name}: k {k} {sites:?}");
            let (ran, f) = check_pool(&array, sites, k, &cfg, &adc, 9, &what);
            lanes_ran |= ran;
            fallbacks += f;
        }
    }
    assert_eq!(lanes_ran, cpu_has_lanes());
    assert!(!lanes_ran || fallbacks > 0);
    report("scripted special sites", lanes_ran, fallbacks);
}

#[test]
fn lane_pool_sin_stays_within_its_assumed_error() {
    // The lanes' polynomial against libm `sin(π·t)` over 10⁶ + 1 evenly
    // spaced `t`, the endpoints and −0.0, and 2·10⁴ floats each side of
    // `t = ½` (where the reflection switches): within the polynomial's
    // bound plus glibc's ≤ 1 ulp.
    let bound = sin_poly_error() + f64::EPSILON;
    let mut ts: Vec<f64> = (0..=1_000_000).map(|i| i as f64 / 1e6).collect();
    ts.extend([0.0, -0.0, 1.0, f64::MIN_POSITIVE, 1.0f64.next_down()]);
    let (mut below, mut above) = (0.5f64, 0.5f64);
    for _ in 0..20_000 {
        below = below.next_down();
        above = above.next_up();
        ts.extend([below, above]);
    }
    ts.resize(ts.len().next_multiple_of(8), 0.5);
    let mut worst = (0.0f64, 0.0f64);
    for t8 in ts.chunks_exact(8) {
        let t8: [f64; 8] = t8.try_into().expect("eight values");
        let Some(poly) = wide::sin_pi_lanes(&t8) else {
            println!("sin bound: lanes skipped (no AVX-512F/DQ); the polynomial is not used here");
            return;
        };
        for (&t, &s) in t8.iter().zip(&poly) {
            let err = (s - (std::f64::consts::PI * t).sin()).abs();
            assert!(err <= bound, "t {t:e}: error {err:e} above {bound:e}");
            if err > worst.0 {
                worst = (err, t);
            }
        }
    }
    // The sign of zero survives, as `sin(−0.0) = −0.0`.
    let zeros = wide::sin_pi_lanes(&[-0.0; 8]).expect("the lanes ran");
    assert!(zeros.iter().all(|z| z.to_bits() == (-0.0f64).to_bits()));
    println!(
        "sin bound: largest error {:e} at t = {}, bound {bound:e} ({} inputs)",
        worst.0,
        worst.1,
        ts.len()
    );
}

#[test]
fn pool_input_count_and_gather_offsets_do_not_overflow() {
    // `k·k` overflowed `u32` from k = 65536 (channel), `3·k·k` from
    // k = 37838 (gray); `3·k·k` passes even `u64` at `k = u32::MAX`.
    let max = u128::from(u32::MAX);
    assert_eq!(input_count(65536, 1), 4294967296.0);
    assert_eq!(input_count(37838, 3), (3 * 37838u64 * 37838) as f64);
    assert!(3 * 37838u64 * 37838 > u64::from(u32::MAX));
    assert_eq!(input_count(u32::MAX, 1), (max * max) as f64);
    assert_eq!(input_count(u32::MAX, 3), (3 * max * max) as f64);
    assert_eq!(input_count(2, 3), 12.0);
    let sigma = combined_sigma(&PoolingConfig::default(), 1e-3, input_count(u32::MAX, 3));
    assert!((sigma - PoolingConfig::default().noise_sigma).abs() < 1e-15, "{sigma}");
    // Lane gather offsets reach 7·k + k − 1, which must fit `i32`.
    assert!(gather_fits(1));
    assert!(gather_fits(1 << 28));
    assert!(!gather_fits((1 << 28) + 1));
    assert!(!gather_fits(u32::MAX as usize));
    assert!(!gather_fits(usize::MAX));
    // A factor that wide takes the scalar sums: the lanes fill nothing
    // (and so read nothing) even where the CPU has them.
    let plane = Plane::new(1, 1);
    let mut means = [0.0f64; 8];
    let k = u32::MAX as usize;
    assert_eq!(wide::site_means(&[&plane], k, 0, 0, 1.0, &mut means), 0);
    assert_eq!(wide::site_means(&[&plane, &plane, &plane], k, 0, 0, 1.0, &mut means), 0);
}
