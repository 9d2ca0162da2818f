//! Criterion micro-benchmarks of the scaling paths: digital average
//! pooling (in-processor) vs behavioural analog pooling plus stage-1
//! conversion (in-sensor), plus the ablation between ideal and noisy
//! pooling configurations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hirise_imaging::{ops, GrayImage, Image, Plane, RgbImage};
use hirise_sensor::{ColorMode, PoolingConfig, Sensor, SensorConfig};

fn scene(w: u32, h: u32) -> RgbImage {
    RgbImage::from_fn(w, h, |x, y| {
        (
            ((x * 7 + y) % 32) as f32 / 32.0,
            ((x + y * 11) % 32) as f32 / 32.0,
            ((x * 3 + y * 5) % 32) as f32 / 32.0,
        )
    })
}

fn bench_digital_pooling(c: &mut Criterion) {
    let mut group = c.benchmark_group("digital_avg_pool");
    for k in [2u32, 4, 8] {
        let img = scene(640, 480);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| ops::avg_pool_rgb(&img, k).expect("k tiles the image"));
        });
    }
    group.finish();
}

/// One gray pooled capture of `sensor` into reused buffers.
fn pool_gray(sensor: &mut Sensor, k: u32, analog: &mut Plane, out: &mut Image) {
    sensor.capture_pooled_into(k, ColorMode::Gray, analog, out).expect("k tiles the array");
}

fn bench_analog_pooling(c: &mut Criterion) {
    let mut group = c.benchmark_group("analog_pool_gray");
    let img = scene(640, 480);
    let mut sensor = Sensor::capture(&img, SensorConfig { seed: 1, ..SensorConfig::default() });
    let (mut analog, mut out) = (Plane::new(1, 1), Image::Gray(GrayImage::new(1, 1)));
    for k in [2u32, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| pool_gray(&mut sensor, k, &mut analog, &mut out));
        });
    }
    group.finish();
}

fn bench_pooling_fidelity_ablation(c: &mut Criterion) {
    // Ablation: ideal vs calibrated-noisy pooling (run-time cost of the
    // noise model; the accuracy effect is covered by integration tests).
    let mut group = c.benchmark_group("pooling_fidelity");
    let img = scene(320, 240);
    let (mut analog, mut out) = (Plane::new(1, 1), Image::Gray(GrayImage::new(1, 1)));
    for (name, pooling) in
        [("ideal", PoolingConfig::ideal()), ("calibrated", PoolingConfig::default())]
    {
        let config = SensorConfig { pooling, seed: 1, ..SensorConfig::default() };
        let mut sensor = Sensor::capture(&img, config);
        group.bench_function(name, |b| {
            b.iter(|| pool_gray(&mut sensor, 4, &mut analog, &mut out));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_digital_pooling, bench_analog_pooling, bench_pooling_fidelity_ablation
}
criterion_main!(benches);
