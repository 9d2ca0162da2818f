//! Criterion micro-benchmarks of the hottest frame-path kernels, so
//! per-kernel regressions are visible independently of the end-to-end
//! pipeline numbers: average pooling, luma conversion, gradient
//! magnitude, integral-image recompute, NMS, and the keyed Ziggurat
//! normal-noise sampler.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hirise_detect::{features, nms, Detection, IntegralImage};
use hirise_imaging::{color, ops, Plane, Rect, RgbImage};
use rand::distributions::NormalSampler;
use rand::rngs::KeyedRng;

const W: u32 = 640;
const H: u32 = 480;

fn test_plane(w: u32, h: u32) -> Plane {
    Plane::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 251) as f32 / 251.0)
}

fn test_rgb(w: u32, h: u32) -> RgbImage {
    RgbImage::from_fn(w, h, |x, y| {
        (
            ((x * 13 + y * 7) % 64) as f32 / 64.0,
            ((x * 5 + y * 11) % 64) as f32 / 64.0,
            ((x * 3 + y * 17) % 64) as f32 / 64.0,
        )
    })
}

fn bench_avg_pool(c: &mut Criterion) {
    let plane = test_plane(W, H);
    let mut group = c.benchmark_group("avg_pool_into_640x480");
    for k in [2u32, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut out = Plane::new(W / k, H / k);
            b.iter(|| ops::avg_pool_into(black_box(&plane), k, &mut out).expect("k divides dims"));
        });
    }
    group.finish();
}

fn bench_luma(c: &mut Criterion) {
    let rgb = test_rgb(W, H);
    let mut out = Plane::new(W, H);
    c.bench_function("rgb_to_gray_mean_into_640x480", |b| {
        b.iter(|| color::weighted_gray_into(black_box(&rgb), color::MEAN_WEIGHTS, &mut out));
    });
}

fn bench_gradient(c: &mut Criterion) {
    let luma = test_plane(W, H);
    let mut out = Plane::new(W, H);
    c.bench_function("gradient_magnitude_into_640x480", |b| {
        b.iter(|| features::gradient_magnitude_into(black_box(&luma), &mut out));
    });
}

fn bench_integral(c: &mut Criterion) {
    let plane = test_plane(W, H);
    let mut ii = IntegralImage::new(&plane);
    c.bench_function("integral_recompute_640x480", |b| {
        b.iter(|| ii.recompute(black_box(&plane)));
    });
    c.bench_function("integral_recompute_squared_640x480", |b| {
        b.iter(|| ii.recompute_squared(black_box(&plane)));
    });
}

fn bench_nms(c: &mut Criterion) {
    // A dense overlapping grid, the detector's worst case: ~1000 boxes
    // with mixed scores and heavy mutual overlap.
    let mut dets = Vec::new();
    for i in 0..40u32 {
        for j in 0..25u32 {
            dets.push(Detection {
                class: 0,
                bbox: Rect::new(i * 6, j * 8, 24, 32),
                score: ((i * 7 + j * 13) % 101) as f32 / 101.0,
            });
        }
    }
    let mut scratch = nms::NmsScratch::new();
    let mut work = dets.clone();
    c.bench_function("nms_in_place_1000_boxes", |b| {
        b.iter(|| {
            work.clear();
            work.extend_from_slice(&dets);
            nms::nms_in_place(&mut work, 0.35, &mut scratch);
            black_box(work.len())
        });
    });
}

fn bench_noise_samplers(c: &mut Criterion) {
    // One frame's worth of pool-stage noise draws at 640×480 / k=2 RGB
    // (one pooling + one ADC draw per pooled site per channel).
    const DRAWS: usize = (W as usize / 2) * (H as usize / 2) * 3 * 2;
    c.bench_function("noise_ziggurat_keyed_frame", |b| {
        let sampler = NormalSampler::new();
        let key = KeyedRng::derive_key(1, 0);
        b.iter(|| {
            let mut acc = 0.0f64;
            for site in 0..DRAWS as u64 / 2 {
                // Per-site stream, two draws per site — the keyed pool
                // stage's exact access pattern.
                let mut rng = KeyedRng::for_stream(key, site);
                acc += sampler.sample(&mut rng);
                acc += sampler.sample(&mut rng);
            }
            black_box(acc)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_avg_pool, bench_luma, bench_gradient, bench_integral, bench_nms,
        bench_noise_samplers
}
criterion_main!(benches);
