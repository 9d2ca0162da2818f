//! Cross-crate integration tests: the full two-stage pipeline against the
//! analytical model, the baselines, and the scene ground truth.

use hirise::analytical::AnalyticalModel;
use hirise::baseline::{ConventionalPipeline, InProcessorPipeline};
use hirise::{ColorMode, Detector, HiriseConfig, HirisePipeline, SensorConfig};
use hirise_imaging::metrics;
use hirise_scene::{DatasetSpec, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn crowd_scene(w: u32, h: u32, seed: u64) -> hirise_scene::Scene {
    let generator = SceneGenerator::new(DatasetSpec::crowdhuman_like());
    let mut rng = StdRng::seed_from_u64(seed);
    generator.generate(w, h, &mut rng)
}

#[test]
fn pipeline_counts_match_analytical_model() {
    let scene = crowd_scene(256, 192, 3);
    let config = HiriseConfig::builder(256, 192)
        .pooling(4)
        .sensor(SensorConfig::noiseless())
        .max_rois(6)
        .build()
        .unwrap();
    let pipeline = HirisePipeline::new(config.clone());
    let run = pipeline.run(&scene.image).unwrap();

    let model = AnalyticalModel::new(&config, &run.rois);
    // Stage-1 conversions follow the closed form exactly.
    assert_eq!(run.report.stage1.conversions, model.stage1().conversions);
    // Stage-2 transfer follows the sum-of-areas form; conversions follow
    // the union form.
    assert_eq!(run.report.stage2.transferred_bits, model.stage2().transfer_bits_s2p);
    assert_eq!(run.report.stage2.conversions, model.stage2().conversions);
    // Box-coordinate backchannel: j * 4 words * 16 bits.
    assert_eq!(run.report.stage2.box_words_bits, run.rois.len() as u64 * 64);
}

#[test]
fn hirise_beats_conventional_on_every_cost() {
    let scene = crowd_scene(256, 192, 4);
    let config = HiriseConfig::builder(256, 192).pooling(8).max_rois(8).build().unwrap();
    let pipeline = HirisePipeline::new(config);
    let run = pipeline.run(&scene.image).unwrap();

    let baseline = ConventionalPipeline::new(SensorConfig::default()).unwrap();
    let (_, base) = baseline.run(&scene.image);

    assert!(run.report.conversions() < base.conversions());
    assert!(run.report.total_transfer_bits() < base.total_transfer_bits());
    assert!(run.report.peak_image_bytes() < base.peak_image_bytes());
    assert!(run.report.sensor_energy_mj_default() < base.sensor_energy_mj_default());
}

#[test]
fn in_sensor_and_in_processor_images_agree_with_real_noise() {
    // Table-2 premise at the image level, with the full (non-ideal) noise
    // model: the two stage-1 images agree to a few millivolt-equivalents.
    let scene = crowd_scene(256, 192, 5);
    let config = HiriseConfig::builder(256, 192).pooling(4).build().unwrap();
    let pipeline = HirisePipeline::new(config);
    let (in_sensor, _, _) = pipeline.run_stage1(&scene.image).unwrap();

    let in_proc_pipeline =
        InProcessorPipeline::new(SensorConfig::default(), 4, ColorMode::Rgb, Detector::default())
            .unwrap();
    let (in_proc, _) = in_proc_pipeline.scaled_capture(&scene.image).unwrap();

    let a = in_sensor.as_rgb().unwrap();
    let b = in_proc.as_rgb().unwrap();
    for ch in 0..3 {
        let mae = metrics::mae(a.planes()[ch], b.planes()[ch]).unwrap();
        assert!(mae < 0.01, "channel {ch} MAE {mae} too large for detection parity");
    }
}

#[test]
fn gray_mode_reduces_stage1_costs_threefold() {
    let scene = crowd_scene(256, 192, 6);
    let mut configs = Vec::new();
    for mode in [ColorMode::Rgb, ColorMode::Gray] {
        let config = HiriseConfig::builder(256, 192).pooling(4).stage1_color(mode).build().unwrap();
        let pipeline = HirisePipeline::new(config);
        let (_, _, stats) = pipeline.run_stage1(&scene.image).unwrap();
        configs.push(stats);
    }
    assert_eq!(configs[0].conversions, 3 * configs[1].conversions);
    assert_eq!(configs[0].transferred_bits, 3 * configs[1].transferred_bits);
}

#[test]
fn rois_land_on_annotated_objects() {
    // The stage-1 detector must route ROIs to real scene objects.
    let scene = crowd_scene(512, 384, 7);
    let config = HiriseConfig::builder(512, 384).pooling(2).max_rois(20).build().unwrap();
    let pipeline = HirisePipeline::new(config);
    let run = pipeline.run(&scene.image).unwrap();
    assert!(!run.rois.is_empty(), "no ROIs were requested");
    let hits = run
        .rois
        .iter()
        .filter(|roi| {
            scene
                .objects
                .iter()
                .any(|o| roi.intersection_area(&o.bbox) as f64 >= 0.3 * o.bbox.area() as f64)
        })
        .count();
    assert!(
        hits * 2 >= run.rois.len(),
        "only {hits}/{} ROIs overlap annotated objects",
        run.rois.len()
    );
}

#[test]
fn scratch_reports_bit_identical_to_allocating_runs() {
    // Acceptance criterion of the zero-allocation frame path: for the
    // same (config, scene), `run_with_scratch` must produce a RunReport
    // bit-identical to `run`, across colour modes, noise models and
    // scenes — with one scratch reused for all of it.
    use hirise::PipelineScratch;

    let mut scratch = PipelineScratch::new();
    for (mode, sensor_cfg) in [
        (ColorMode::Rgb, SensorConfig::default()),
        (ColorMode::Gray, SensorConfig::default()),
        (ColorMode::Rgb, SensorConfig::noiseless()),
    ] {
        let config = HiriseConfig::builder(256, 192)
            .pooling(4)
            .stage1_color(mode)
            .sensor(sensor_cfg)
            .max_rois(6)
            .build()
            .unwrap();
        let pipeline = HirisePipeline::new(config);
        for seed in [21, 22, 23] {
            let scene = crowd_scene(256, 192, seed);
            let scratch_report = pipeline.run_with_scratch(&scene.image, &mut scratch).unwrap();
            let run = pipeline.run(&scene.image).unwrap();
            assert_eq!(scratch_report, run.report, "mode {mode} seed {seed}");
            // The retained frame artefacts agree too (stronger than the
            // report check: every pixel of every intermediate).
            assert_eq!(*scratch.pooled_image(), run.pooled_image);
            assert_eq!(scratch.detections(), run.detections.as_slice());
            assert_eq!(scratch.rois(), run.rois.as_slice());
            assert_eq!(scratch.roi_images(), run.roi_images.as_slice());
        }
    }
}

#[test]
fn deeper_pooling_cuts_stage1_energy_quadratically() {
    let scene = crowd_scene(256, 192, 8);
    let mut last = u64::MAX;
    for k in [2u32, 4, 8] {
        let config = HiriseConfig::builder(256, 192).pooling(k).build().unwrap();
        let pipeline = HirisePipeline::new(config);
        let (_, _, stats) = pipeline.run_stage1(&scene.image).unwrap();
        assert_eq!(stats.conversions, (256 / k * 192 / k * 3) as u64);
        assert!(stats.conversions < last);
        last = stats.conversions;
    }
}
