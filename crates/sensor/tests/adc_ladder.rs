//! The ADC's comparator ladder against a frozen copy of the quantiser.
//!
//! `Adc::convert_with_noise` reads codes off a table of thresholds with a
//! derived guard band; `Adc::convert_ideal` runs the quantiser. Both must
//! equal `frozen_quantise` — the quantiser as it stood before the ladder
//! existed — code for code: at every threshold ± 8 ulps, on 10⁶ keyed
//! random inputs per configuration, and on the special values. Each
//! threshold must also be a step of the quantiser (it reads at least its
//! code, the float below it reads less), so a table shifted by one ulp
//! fails here even where the guard band would hide it.
//!
//! `Adc::convert_row`, the row converter the readouts call, must give the
//! frozen quantiser's unit values on the same inputs, on its 8-lane path
//! (where the CPU has AVX-512F/DQ) and on its scalar path alike, in rows
//! of every length that ends on a partial vector; and each path must send
//! to the quantiser exactly the inputs that lie inside a guard band (or
//! are not finite), so a window too narrow to find the code, which would
//! only cost speed, fails here too.

use hirise_imaging::{GrayImage, Image, Plane, Rect, RgbImage};
use hirise_sensor::adc::LADDER_MAX_BITS;
use hirise_sensor::{Adc, ColorMode, PixelParams, PoolingConfig, Sensor, SensorConfig};
use rand::distributions::NormalSampler;
use rand::rngs::KeyedRng;

/// The quantiser exactly as `Adc::quantise` computed every code before
/// the ladder: the oracle of this file.
fn frozen_quantise(bits: u32, v_lo: f64, v_hi: f64, inl_lsb: f64, x: f64) -> u16 {
    let levels = 1u32 << bits;
    let t = ((x - v_lo) / (v_hi - v_lo)).clamp(0.0, 1.0);
    let mut code = t * (levels - 1) as f64;
    if inl_lsb != 0.0 {
        code += inl_lsb * (std::f64::consts::PI * t).sin();
    }
    code.round().clamp(0.0, (levels - 1) as f64) as u16
}

fn frozen(adc: &Adc, x: f64) -> u16 {
    let (v_lo, v_hi) = adc.range();
    frozen_quantise(adc.bits(), v_lo, v_hi, adc.inl_lsb(), x)
}

/// `x` moved by `n` floats (`n < 0`: down), through the ordered bit
/// patterns; stays finite for the thresholds of these ranges.
fn ulps(x: f64, n: i64) -> f64 {
    let mut y = x;
    for _ in 0..n.unsigned_abs() {
        y = if n > 0 { y.next_up() } else { y.next_down() };
    }
    y
}

/// The special inputs: signed zeros, subnormals, NaNs, infinities and
/// huge finite values.
const SPECIALS: [f64; 15] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 2.0,
    -f64::MIN_POSITIVE / 2.0,
    f64::from_bits(1),
    -f64::from_bits(1),
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    -1e300,
    f64::MAX,
    -f64::MAX,
];

/// Asserts that both conversion paths read `x` as the frozen quantiser.
fn check(adc: &Adc, x: f64, name: &str) {
    let want = frozen(adc, x);
    assert_eq!(adc.convert_with_noise(x, 0.0), want, "{name}: ladder at {x:e}");
    assert_eq!(adc.convert_ideal(x), want, "{name}: quantiser at {x:e}");
}

/// The bound `|inl|·π < levels - 1` less one part in 10⁶.
fn just_under_bound(bits: u32) -> f64 {
    ((1u32 << bits) - 1) as f64 / std::f64::consts::PI * (1.0 - 1e-6)
}

/// The two ADCs a sensor built from `config` converts with.
fn sensor_adcs(config: SensorConfig) -> [Adc; 2] {
    let scene = RgbImage::from_fn(4, 4, |_, _| (0.5, 0.5, 0.5));
    let sensor = Sensor::capture(&scene, config);
    [sensor.pixel_adc().clone(), sensor.pooled_adc().clone()]
}

/// Every configuration the suite covers, by name.
fn configs() -> Vec<(String, Adc)> {
    let mut out = Vec::new();
    for bits in [1u32, 8, 10] {
        for inl in [0.0, 0.25, -0.25, 2.0, just_under_bound(bits)] {
            for (range, lo, hi) in [("pixel", 0.3, 0.9), ("pooled", -0.57, -0.28)] {
                let adc = Adc::new(bits, lo, hi).unwrap().with_inl(inl);
                out.push((format!("{bits}-bit inl {inl} {range}"), adc));
            }
        }
    }
    for (name, config) in
        [("default", SensorConfig::default()), ("noiseless", SensorConfig::noiseless())]
    {
        let [pixel, pooled] = sensor_adcs(config);
        out.push((format!("{name} pixel ADC"), pixel));
        out.push((format!("{name} pooled ADC"), pooled));
    }
    out
}

#[test]
fn ladders_exist_exactly_where_the_bound_allows() {
    for bits in 1..=16u32 {
        let adc = Adc::new(bits, 0.3, 0.9).unwrap().with_inl(0.25);
        let bow_fits = 0.25 * std::f64::consts::PI < ((1u32 << bits) - 1) as f64;
        assert_eq!(adc.ladder().is_some(), bits <= LADDER_MAX_BITS && bow_fits, "{bits} bits");
    }
    let bound = 255.0 / std::f64::consts::PI;
    for inl in [bound, -bound, 1.5 * bound, f64::NAN, f64::INFINITY] {
        assert!(Adc::paper_default().with_inl(inl).ladder().is_none(), "inl {inl}");
    }
    assert!(Adc::paper_default().with_inl(just_under_bound(8)).ladder().is_some());
    // The shipped configurations are 8-bit and convert through ladders.
    for config in [SensorConfig::default(), SensorConfig::noiseless()] {
        for adc in sensor_adcs(config) {
            assert!(adc.ladder().is_some(), "{adc:?}");
        }
    }
}

#[test]
fn every_threshold_is_a_step_and_reads_exactly_within_8_ulps() {
    for (name, adc) in configs() {
        let Some(ladder) = adc.ladder() else { continue };
        let th = ladder.thresholds();
        let top = adc.levels() as usize - 1;
        assert_eq!(th.len(), top + 2, "{name}");
        assert_eq!((th[0], th[top + 1]), (f64::NEG_INFINITY, f64::INFINITY), "{name}");
        for (c, &x) in th.iter().enumerate().take(top + 1).skip(1) {
            let c = c as u16;
            assert!(frozen(&adc, x) >= c, "{name}: code {c} threshold {x:e} reads below");
            assert!(frozen(&adc, x.next_down()) < c, "{name}: code {c} steps before {x:e}");
            for n in -8..=8 {
                check(&adc, ulps(x, n), &name);
            }
        }
    }
}

#[test]
fn a_million_keyed_inputs_per_config_read_exactly() {
    let sampler = NormalSampler::new();
    for (i, (name, adc)) in configs().into_iter().enumerate() {
        let (v_lo, v_hi) = adc.range();
        let (lo, hi) = (v_lo - 2.0 * adc.lsb(), v_hi + 2.0 * adc.lsb());
        let key = KeyedRng::derive_key(0xADC, i as u64);
        for site in 0..1_000_000u64 {
            let unit = (KeyedRng::block(key, site) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            check(&adc, lo + unit * (hi - lo), &name);
        }
        // With conversion noise the ladder reads `v + sigma·g`.
        let noisy = adc.clone().with_noise(0.2e-3);
        for site in 0..10_000u64 {
            let mut rng = KeyedRng::for_stream(key, site);
            let v = v_lo + (v_hi - v_lo) * (site as f64 / 10_000.0);
            let g = sampler.sample(&mut rng);
            assert_eq!(noisy.convert_with_noise(v, g), frozen(&adc, v + 0.2e-3 * g), "{name}");
        }
    }
}

#[test]
fn special_values_read_exactly() {
    for (name, adc) in configs() {
        for x in SPECIALS {
            check(&adc, x, &name);
        }
    }
}

#[test]
fn ladders_cost_at_most_16_quantiser_evaluations_per_threshold() {
    let (mut evals, mut thresholds) = (0u64, 0u64);
    for (name, adc) in configs() {
        let Some(ladder) = adc.ladder() else { continue };
        let top = adc.levels() as u64 - 1;
        assert!(ladder.build_evals() <= 16 * top, "{name}: {} evaluations", ladder.build_evals());
        evals += ladder.build_evals();
        thresholds += top;
    }
    assert!(evals <= 16 * thresholds, "{evals} evaluations for {thresholds} thresholds");
}

/// A noiseless sensor with the given ADC settings.
fn exact_config(adc_bits: u32, adc_inl_lsb: f64) -> SensorConfig {
    SensorConfig {
        pixel: PixelParams::noiseless(),
        pooling: PoolingConfig { noise_sigma: 0.0, ..PoolingConfig::default() },
        adc_bits,
        adc_inl_lsb,
        adc_noise: 0.0,
        ..SensorConfig::default()
    }
}

/// Asserts `got` holds the unit-range codes `adc` gives `inputs`.
fn assert_codes(adc: &Adc, inputs: &[f32], got: &[f32], what: &str) {
    assert_eq!(inputs.len(), got.len(), "{what}");
    for (&v, &o) in inputs.iter().zip(got) {
        assert_eq!(o, adc.code_to_unit(adc.convert_ideal(v as f64)), "{what} at {v}");
    }
}

#[test]
fn exact_path_sensors_read_the_quantiser_on_every_path() {
    let scene = RgbImage::from_fn(24, 16, |x, y| {
        (x as f32 / 23.0, y as f32 / 15.0, ((x * 7 + y * 5) % 13) as f32 / 12.0)
    });
    let rect = Rect::new(3, 2, 13, 9);
    for (bits, inl) in [(12, 0.25), (16, 0.25), (8, 100.0), (8, 0.25)] {
        let config = exact_config(bits, inl);
        let mut sensor = Sensor::capture(&scene, config);
        let ladder = bits <= LADDER_MAX_BITS && inl * std::f64::consts::PI < 255.0;
        assert_eq!(sensor.pixel_adc().ladder().is_some(), ladder, "{bits} bits inl {inl}");
        let what = format!("{bits} bits inl {inl}");
        let pooled = sensor.pooled_adc().clone();
        let pixel = sensor.pixel_adc().clone();
        let mut analog = Plane::new(1, 1);
        for mode in [ColorMode::Gray, ColorMode::Rgb] {
            let mut out = Image::Gray(GrayImage::new(1, 1));
            sensor.capture_pooled_into(2, mode, &mut analog, &mut out).unwrap();
            // The analog plane holds the last channel pooled.
            let last = match &out {
                Image::Gray(g) => g.plane(),
                Image::Rgb(c) => c.b(),
            };
            assert_codes(&pooled, analog.as_slice(), last.as_slice(), &format!("{what} {mode}"));
        }
        let (crops, _) = sensor.read_rois(&[rect]).unwrap();
        let (full, _) = sensor.read_full();
        for ch in 0..3 {
            let src = sensor.array().plane(ch);
            let crop = crops[0].planes()[ch];
            for y in 0..rect.h {
                let row = &src.row(rect.y + y)[rect.x as usize..rect.right() as usize];
                assert_codes(&pixel, row, crop.row(y), &format!("{what} roi ch {ch}"));
            }
            let plane = full.planes()[ch];
            assert_codes(&pixel, src.as_slice(), plane.as_slice(), &format!("{what} full ch {ch}"));
        }
    }
}

/// Whether this CPU runs the row converter's 8 lanes.
fn cpu_has_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The inputs a correct row converter hands to the quantiser: without a
/// ladder every one; with one, those that are not finite or lie within
/// the guard of the frozen code's step edges.
fn quantiser_share(adc: &Adc, xs: &[f64]) -> usize {
    let Some(ladder) = adc.ladder() else { return xs.len() };
    let (th, guard) = (ladder.thresholds(), ladder.guard());
    let clear = |x: f64| {
        let c = frozen(adc, x) as usize;
        x.is_finite() && x - th[c] >= guard && th[c + 1] - x >= guard
    };
    xs.iter().filter(|&&x| !clear(x)).count()
}

/// Asserts that `Adc::convert_row` and each of its paths give every
/// input of `xs` the frozen quantiser's unit value, bit for bit, and
/// that each path sends exactly [`quantiser_share`] of them to the
/// quantiser. Returns whether the 8-lane path ran.
fn check_row(adc: &Adc, xs: &[f64], name: &str) -> bool {
    let top = (adc.levels() - 1) as f32;
    let want: Vec<u32> = xs.iter().map(|&x| (frozen(adc, x) as f32 / top).to_bits()).collect();
    let share = quantiser_share(adc, xs);
    let mut out = vec![f32::NAN; xs.len()];
    let bits = |out: &[f32]| out.iter().map(|o| o.to_bits()).collect::<Vec<_>>();
    let len = xs.len();
    assert_eq!(adc.convert_row_on(false, xs, &mut out), Some(share), "{name}: scalar, {len}");
    assert_eq!(bits(&out), want, "{name}: scalar row of {len}");
    out.fill(f32::NAN);
    let lanes = adc.convert_row_on(true, xs, &mut out);
    assert_eq!(lanes.is_some(), cpu_has_lanes() && adc.ladder().is_some(), "{name}");
    if lanes.is_some() {
        assert_eq!(lanes, Some(share), "{name}: lanes, {len}");
        assert_eq!(bits(&out), want, "{name}: lane row of {len}");
    }
    out.fill(f32::NAN);
    adc.convert_row(xs, &mut out);
    assert_eq!(bits(&out), want, "{name}: row of {len}");
    lanes.is_some()
}

/// The suite's configurations plus three that have no ladder (12 and 16
/// bits, and a bow past the bound).
fn row_configs() -> Vec<(String, Adc)> {
    let mut out = configs();
    for (bits, inl) in [(12, 0.25), (16, 0.25), (8, 100.0)] {
        let adc = Adc::new(bits, 0.3, 0.9).unwrap().with_inl(inl);
        assert!(adc.ladder().is_none(), "{bits} bits inl {inl}");
        out.push((format!("{bits}-bit inl {inl} (no ladder)"), adc));
    }
    out
}

/// Every threshold of `adc` ± 8 ulps, with the special values spread
/// among them.
fn edge_inputs(adc: &Adc) -> Vec<f64> {
    let mut xs = Vec::new();
    if let Some(ladder) = adc.ladder() {
        let th = ladder.thresholds();
        for &x in &th[1..th.len() - 1] {
            xs.extend((-8..=8).map(|n| ulps(x, n)));
        }
    }
    for (i, &special) in SPECIALS.iter().enumerate() {
        xs.insert((i * 37) % (xs.len() + 1), special);
    }
    xs
}

#[test]
fn row_converter_matches_the_frozen_quantiser_on_both_paths() {
    let mut lanes_ran = false;
    for (i, (name, adc)) in row_configs().into_iter().enumerate() {
        // Rows of 997 cross the lanes' 256-sample blocks and end on a
        // partial vector.
        for row in edge_inputs(&adc).chunks(997) {
            lanes_ran |= check_row(&adc, row, &name);
        }
        let (v_lo, v_hi) = adc.range();
        let (lo, hi) = (v_lo - 2.0 * adc.lsb(), v_hi + 2.0 * adc.lsb());
        let key = KeyedRng::derive_key(0xADC0, i as u64);
        let keyed: Vec<f64> = (0..1_000_000u64)
            .map(|site| {
                let unit = (KeyedRng::block(key, site) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                lo + unit * (hi - lo)
            })
            .collect();
        for row in keyed.chunks(997) {
            lanes_ran |= check_row(&adc, row, &name);
        }
    }
    assert_eq!(lanes_ran, cpu_has_lanes());
    if lanes_ran {
        println!("row converter: the 8-lane path ran and matched, with the scalar path");
    } else {
        println!("row converter: lanes skipped (no AVX-512F/DQ); the scalar path ran alone");
    }
}

#[test]
fn row_converter_handles_ragged_rows() {
    // Rows of 0..=67 inputs from several starting points: every partial
    // vector, with threshold edges and special values in every lane.
    let mut lanes_ran = false;
    for (name, adc) in row_configs() {
        let mut xs = edge_inputs(&adc);
        let (v_lo, v_hi) = adc.range();
        xs.extend((0..256).map(|i| v_lo + (v_hi - v_lo) * (i as f64 / 255.0)));
        for start in [0, 1, 7, xs.len() / 2, xs.len() - 67] {
            for len in 0..=67 {
                lanes_ran |= check_row(&adc, &xs[start..start + len], &name);
            }
        }
    }
    assert_eq!(lanes_ran, cpu_has_lanes());
    println!("ragged rows: 8-lane path {}", if lanes_ran { "ran" } else { "skipped" });
}
