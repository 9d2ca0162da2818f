//! The Table-2 experiment: in-processor vs in-sensor scaling mAP across
//! datasets, resolutions and colour modes.
//!
//! For every scene the harness produces two stage-1 images:
//!
//! * **in-processor** — conventional full readout, then digital average
//!   pooling (and digital grayscale in gray mode),
//! * **in-sensor** — the analog pooling circuit (behavioural model fitted
//!   from `hirise-analog`), then conversion of only the pooled outputs.
//!
//! The same calibrated detector runs on both; the paper's claim is that
//! the two columns match. The detector threshold is calibrated per
//! (dataset, resolution, colour) on held-out calibration scenes — the
//! analogue of the paper's per-configuration YOLO training — using the
//! *in-processor* images, so the in-sensor column is evaluated with a
//! model "trained" on digital data, exactly like the paper.

use hirise::baseline::InProcessorPipeline;
use hirise::{ColorMode, HiriseConfig, HirisePipeline, SensorConfig};
use hirise_detect::eval::{evaluate, Detection, GroundTruth};
use hirise_detect::{Detector, DetectorConfig};
use hirise_imaging::Image;
use hirise_scene::{DatasetSpec, ObjectClass, Scene, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::classifier::CropClassifier;

/// Configuration of a Table-2 run.
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Full-resolution array size (the paper: 2560×1920).
    pub array: (u32, u32),
    /// Pooling factors to evaluate (paper: 8, 4, 2).
    pub ks: Vec<u32>,
    /// Evaluation scenes per dataset.
    pub eval_images: usize,
    /// Calibration scenes per dataset (detector-threshold "training").
    pub cal_images: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Table2Config {
    /// Paper-shaped defaults scaled for a workstation run.
    pub fn standard() -> Self {
        Self { array: (2560, 1920), ks: vec![8, 4, 2], eval_images: 8, cal_images: 4, seed: 42 }
    }

    /// Small, fast setting for smoke runs.
    pub fn quick() -> Self {
        Self { array: (1280, 960), ks: vec![4, 2], eval_images: 3, cal_images: 2, seed: 42 }
    }
}

/// One cell of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Cell {
    /// Pooling factor.
    pub k: u32,
    /// Colour mode.
    pub color: ColorMode,
    /// mAP@0.5 of the in-processor path.
    pub map_in_processor: f64,
    /// mAP@0.5 of the in-sensor path.
    pub map_in_sensor: f64,
}

/// All cells for one dataset.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Dataset preset name.
    pub dataset: &'static str,
    /// Cells in `(k, colour)` order.
    pub cells: Vec<Table2Cell>,
}

/// Builds the dataset-calibrated detector configuration (anchor-style
/// scale/aspect priors from the dataset spec).
pub fn detector_for(spec: &DatasetSpec) -> DetectorConfig {
    DetectorConfig {
        class_aspects: spec
            .classes
            .iter()
            .filter(|c| **c != ObjectClass::Head)
            .map(|c| (c.id(), c.aspect()))
            .collect(),
        min_object_frac: spec.scale_range.0 * 0.7,
        max_object_frac: (spec.scale_range.1 * 1.4).min(0.9),
        score_threshold: 0.025,
        ..DetectorConfig::default()
    }
}

/// Ground truth of one scene in detector-space coordinates (downscaled by
/// `k`), excluding head annotations (bodies only, as in our Table-2 eval).
pub fn scene_ground_truth(scene: &Scene, k: u32) -> Vec<GroundTruth> {
    scene
        .objects
        .iter()
        .filter(|o| o.class != ObjectClass::Head)
        .map(|o| GroundTruth { class: o.class.id(), bbox: o.bbox.scaled(1, k) })
        .collect()
}

fn detect_and_classify(
    detector: &Detector,
    classifier: &CropClassifier,
    image: &Image,
) -> Vec<Detection> {
    let mut dets = detector.detect(image);
    classifier.relabel(image, &mut dets);
    dets
}

fn filter_by_threshold(dets: &[Vec<Detection>], thr: f64) -> Vec<Vec<Detection>> {
    dets.iter().map(|d| d.iter().filter(|x| x.score as f64 >= thr).copied().collect()).collect()
}

/// Runs the full experiment for one dataset, returning one row per
/// (k, colour) combination. `progress` receives human-readable status
/// lines.
pub fn run_dataset(
    spec: &DatasetSpec,
    config: &Table2Config,
    mut progress: impl FnMut(String),
) -> Table2Row {
    let generator = SceneGenerator::new(spec.clone());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (aw, ah) = config.array;

    progress(format!(
        "[{}] generating {} cal + {} eval scenes",
        spec.name, config.cal_images, config.eval_images
    ));
    let cal_scenes: Vec<Scene> =
        (0..config.cal_images).map(|_| generator.generate(aw, ah, &mut rng)).collect();
    let eval_scenes: Vec<Scene> =
        (0..config.eval_images).map(|_| generator.generate(aw, ah, &mut rng)).collect();

    let classes: Vec<ObjectClass> =
        spec.classes.iter().filter(|c| **c != ObjectClass::Head).copied().collect();
    let classifier = CropClassifier::train(&classes, 60, config.seed ^ 0xC1A5);

    let mut cells = Vec::new();
    for &k in &config.ks {
        for color in [ColorMode::Rgb, ColorMode::Gray] {
            let det_cfg = detector_for(spec);
            let in_proc = InProcessorPipeline::new(
                SensorConfig::default(),
                k,
                color,
                Detector::new(det_cfg.clone()),
            )
            .expect("the default sensor config is valid");
            let hirise_cfg = HiriseConfig::builder(aw, ah)
                .pooling(k)
                .stage1_color(color)
                .detector(det_cfg.clone())
                .build()
                .expect("pooling factors tile the array");
            let pipeline = HirisePipeline::new(hirise_cfg);

            // Calibration on the in-processor path ("training").
            let mut cal_dets: Vec<Vec<Detection>> = Vec::new();
            let mut cal_gts: Vec<Vec<GroundTruth>> = Vec::new();
            for scene in &cal_scenes {
                let (img, _) = in_proc.scaled_capture(&scene.image).expect("valid pooling");
                cal_dets.push(detect_and_classify(in_proc.detector(), &classifier, &img));
                cal_gts.push(scene_ground_truth(scene, k));
            }
            let mut best = (0.10, -1.0);
            for thr in (1..30).map(|i| i as f64 * 0.025) {
                let filtered = filter_by_threshold(&cal_dets, thr);
                let r = evaluate(&filtered, &cal_gts, 0.5);
                if r.map > best.1 {
                    best = (thr, r.map);
                }
            }
            let threshold = best.0;

            // Evaluation on both paths with the calibrated threshold.
            let mut proc_dets = Vec::new();
            let mut sensor_dets = Vec::new();
            let mut gts = Vec::new();
            for scene in &eval_scenes {
                let (proc_img, _) = in_proc.scaled_capture(&scene.image).expect("valid pooling");
                let (sensor_img, _, _) =
                    pipeline.run_stage1(&scene.image).expect("valid configuration");
                proc_dets.push(detect_and_classify(in_proc.detector(), &classifier, &proc_img));
                sensor_dets.push(detect_and_classify(
                    pipeline.detector(),
                    &classifier,
                    &sensor_img,
                ));
                gts.push(scene_ground_truth(scene, k));
            }
            let map_proc = evaluate(&filter_by_threshold(&proc_dets, threshold), &gts, 0.5).map;
            let map_sensor = evaluate(&filter_by_threshold(&sensor_dets, threshold), &gts, 0.5).map;
            progress(format!(
                "[{}] k={k} {color}: thr={threshold:.2} in-proc {:.3} in-sensor {:.3}",
                spec.name, map_proc, map_sensor
            ));
            cells.push(Table2Cell {
                k,
                color,
                map_in_processor: map_proc,
                map_in_sensor: map_sensor,
            });
        }
    }
    Table2Row { dataset: spec.name, cells }
}

/// Formats rows in the layout of the paper's Table 2.
pub fn format_table(rows: &[Table2Row], array: (u32, u32), ks: &[u32]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: mAP@0.5, in-processor (In-Proc) vs in-sensor (In-Sen) scaling, {}x{} array",
        array.0, array.1
    );
    let _ = write!(out, "{:<18}", "Resolution");
    for &k in ks {
        let _ = write!(out, "| {:>5}x{:<5} {:>7} ", array.0 / k, array.1 / k, "");
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<18}", "Color / Path");
    for _ in ks {
        let _ = write!(out, "| RGB In-P  In-S | Gray In-P In-S ");
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:<18}", row.dataset);
        for &k in ks {
            for color in [ColorMode::Rgb, ColorMode::Gray] {
                if let Some(c) = row.cells.iter().find(|c| c.k == k && c.color == color) {
                    let _ = write!(
                        out,
                        "| {:>5.1}% {:>5.1}% ",
                        100.0 * c.map_in_processor,
                        100.0 * c.map_in_sensor
                    );
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_config_uses_dataset_priors() {
        let spec = DatasetSpec::visdrone_like();
        let cfg = detector_for(&spec);
        assert!(cfg.min_object_frac > 0.0);
        assert!(cfg.max_object_frac <= 0.9);
        assert_eq!(cfg.class_aspects.len(), 9); // heads excluded
    }

    #[test]
    fn ground_truth_scales_and_filters_heads() {
        let generator = SceneGenerator::new(DatasetSpec::crowdhuman_like());
        let mut rng = StdRng::seed_from_u64(5);
        let scene = generator.generate(256, 192, &mut rng);
        let gt1 = scene_ground_truth(&scene, 1);
        let gt2 = scene_ground_truth(&scene, 2);
        assert_eq!(gt1.len(), gt2.len());
        assert!(gt1.iter().all(|g| g.class == ObjectClass::Person.id()));
        assert!(gt2[0].bbox.w <= gt1[0].bbox.w / 2 + 1);
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = Table2Config::quick();
        let s = Table2Config::standard();
        assert!(q.eval_images < s.eval_images);
        assert!(q.array.0 < s.array.0);
    }

    #[test]
    fn format_table_mentions_all_datasets() {
        let rows = vec![Table2Row {
            dataset: "demo",
            cells: vec![Table2Cell {
                k: 2,
                color: ColorMode::Rgb,
                map_in_processor: 0.5,
                map_in_sensor: 0.49,
            }],
        }];
        let text = format_table(&rows, (640, 480), &[2]);
        assert!(text.contains("demo"));
        assert!(text.contains("320"));
    }
}
