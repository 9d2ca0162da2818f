//! Integration tests of the sensor's counter-based position-keyed noise
//! (verification layers 2–3): statistical quality of the Ziggurat
//! sampler against a Box–Muller reference, key independence across
//! adjacent sites, and the order-independence guarantees — row-sharded
//! keyed capture/pool is bit-identical to the single-threaded path, and
//! a noisy keyed stream served as sessions folds to the same bits at
//! every worker and shard count.

use hirise::{ColorMode, HiriseConfig, HirisePipeline, Rect, RgbImage, Sensor, SensorConfig};
use hirise_imaging::draw;
use hirise_serve::{FrameSource, ServeConfig, ServeEngine, SessionSpec};
use rand::distributions::{fill_normals, NormalSampler};
use rand::rngs::{KeyedRng, StdRng};
use rand::{Rng, SeedableRng};

/// Reference standard-normal sample via Box–Muller over a sequential
/// generator — an independent check on the Ziggurat sampler.
fn box_muller<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Mean, variance and 3-sigma tail mass of a sample set.
fn moments(samples: &[f64]) -> (f64, f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let tail = samples.iter().filter(|x| x.abs() > 3.0).count() as f64 / n;
    (mean, var, tail)
}

#[test]
fn ziggurat_moments_match_the_box_muller_reference() {
    const N: usize = 200_000;
    // Ziggurat over the keyed generator (the sensor's draw), batched
    // through the public fill API.
    let mut zig = vec![0.0f64; N];
    let mut rng = KeyedRng::seed_from_u64(0xA11CE);
    fill_normals(&mut rng, &mut zig);
    // The Box–Muller reference over the sequential generator.
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let bm: Vec<f64> = (0..N).map(|_| box_muller(&mut rng)).collect();

    let (zm, zv, zt) = moments(&zig);
    let (bm_m, bm_v, bm_t) = moments(&bm);
    // Both samplers target N(0, 1); their sample moments must agree with
    // the distribution (and therefore each other) within sampling error.
    for (label, mean, var, tail) in [("ziggurat", zm, zv, zt), ("box-muller", bm_m, bm_v, bm_t)] {
        assert!(mean.abs() < 0.01, "{label} mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "{label} variance {var}");
        assert!((tail - 0.0027).abs() < 0.0012, "{label} 3-sigma tail {tail}");
    }
    assert!((zm - bm_m).abs() < 0.02, "means diverge: {zm} vs {bm_m}");
    assert!((zv - bm_v).abs() < 0.04, "variances diverge: {zv} vs {bm_v}");
}

#[test]
fn adjacent_site_streams_are_decorrelated() {
    const N: usize = 100_000;
    let sampler = NormalSampler::new();
    let key = KeyedRng::derive_key(0x5EED, 0);
    let draw = |site: u64| sampler.sample(&mut KeyedRng::for_stream(key, site));
    // Pearson correlation between each site's draw and its neighbour's.
    let xs: Vec<f64> = (0..N as u64).map(draw).collect();
    let mut num = 0.0;
    let mut den_a = 0.0;
    let mut den_b = 0.0;
    for pair in xs.windows(2) {
        num += pair[0] * pair[1];
        den_a += pair[0] * pair[0];
        den_b += pair[1] * pair[1];
    }
    let r = num / (den_a.sqrt() * den_b.sqrt());
    assert!(r.abs() < 0.02, "adjacent sites correlate: r = {r}");
}

fn scene_with_objects(w: u32, h: u32) -> RgbImage {
    let mut img = RgbImage::from_fn(w, h, |_, _| (0.35, 0.35, 0.35));
    for (i, (ox, oy)) in [(w / 6, h / 5), (w / 2, h / 3)].into_iter().enumerate() {
        let obj = Rect::new(ox, oy, w / 6 + 2 * i as u32, h / 4);
        draw::fill_rect_rgb(&mut img, obj, (0.9, 0.4, 0.2));
        let [pr, _, _] = img.planes_mut();
        draw::fill_stripes(pr, obj, 2, 0.95, 0.55);
    }
    img
}

fn config(shards: u32) -> HiriseConfig {
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    HiriseConfig::builder(96, 64)
        .pooling(2)
        .detector(detector)
        .max_rois(4)
        .sensor_shards(shards)
        .build()
        .unwrap()
}

fn pipeline(shards: u32) -> HirisePipeline {
    HirisePipeline::new(config(shards))
}

#[test]
fn row_sharded_keyed_pipeline_is_bit_identical_for_1_2_4_shards() {
    // The order-independence acceptance test: the full noisy frame path
    // (capture, fused pool + digitise, detection, ROI readout) produces
    // the same bits whether the keyed rows are computed on one thread or
    // sharded across 2 or 4 workers.
    let scene = scene_with_objects(96, 64);
    let reference = pipeline(1);
    let expected = reference.run(&scene).unwrap();
    assert!(!expected.rois.is_empty(), "scene produced no ROIs — the test would be vacuous");
    for shards in [2u32, 4] {
        let run = pipeline(shards).run(&scene).unwrap();
        assert_eq!(run.pooled_image, expected.pooled_image, "pooled image at {shards} shards");
        assert_eq!(run.detections, expected.detections, "detections at {shards} shards");
        assert_eq!(run.rois, expected.rois, "rois at {shards} shards");
        assert_eq!(run.roi_images, expected.roi_images, "roi crops at {shards} shards");
        assert_eq!(run.report, expected.report, "report at {shards} shards");
    }
}

#[test]
fn keyed_noise_deviation_is_small_and_nonzero() {
    // The pooled capture must deviate from the noiseless reference, but
    // only slightly: noise sigmas are millivolts on a 600 mV swing.
    let scene = scene_with_objects(64, 64);
    let capture = |cfg: SensorConfig| {
        let mut s = Sensor::capture(&scene, cfg);
        s.capture_pooled(2, ColorMode::Gray).unwrap().0
    };
    let (noisy, clean) = (capture(SensorConfig::default()), capture(SensorConfig::noiseless()));
    let a = noisy.as_gray().unwrap().plane();
    let b = clean.as_gray().unwrap().plane();
    let deviation = hirise_imaging::metrics::mae(a, b).unwrap();
    assert!(deviation < 0.01, "keyed deviation {deviation}");
    assert!(deviation > 0.0, "keyed noise drew no noise at all");
}

#[test]
fn keyed_stream_summary_is_worker_and_shard_invariant() {
    // The Deterministic guarantee: a noisy keyed stream, served as
    // sessions on an unshed engine, folds to the same bits for every
    // (worker count, shard count) combination.
    let frames: Vec<RgbImage> = (0..6)
        .map(|i| {
            let mut img = scene_with_objects(96, 64);
            let obj = Rect::new(4 + 10 * i, 40, 12, 12);
            draw::fill_rect_rgb(&mut img, obj, (0.2, 0.8, 0.6));
            img
        })
        .collect();
    let run = |workers: usize, shards: u32| {
        let serve = ServeConfig::new(config(shards)).rated_sessions(4);
        let mut engine = ServeEngine::new(serve).unwrap();
        for (i, chunk) in frames.chunks(2).enumerate() {
            let spec = SessionSpec::default().name(format!("s{i}")).frames(2).frames_per_tick(1);
            engine.admit(spec, FrameSource::Frames(chunk.to_vec())).unwrap();
        }
        loop {
            engine.tick();
            if engine.active_sessions() == 0 {
                return engine.summary();
            }
            engine.serve_parallel(workers).unwrap();
        }
    };
    let reference = run(1, 1);
    assert_eq!(reference.max_shed_level, 0, "the fleet must run unshed");
    assert_eq!(reference.frames, 6);
    assert!(reference.sessions.iter().any(|s| s.summary.aggregate.rois > 0));
    for (workers, shards) in [(2, 1), (4, 1), (1, 2), (2, 2), (4, 4)] {
        let summary = run(workers, shards);
        assert_eq!(summary.frames, reference.frames, "workers={workers} shards={shards}");
        assert_eq!(summary.energy_mj, reference.energy_mj, "workers={workers} shards={shards}");
        assert_eq!(summary.sessions.len(), reference.sessions.len());
        for (s, r) in summary.sessions.iter().zip(&reference.sessions) {
            assert_eq!(
                s.summary, r.summary,
                "workers={workers} shards={shards} session {}",
                r.name
            );
        }
    }
}
