//! The end-to-end HiRISE two-stage pipeline.

use hirise_detect::{Detection, Detector};
use hirise_imaging::{Image, Rect, RgbImage};
use hirise_sensor::{ReadoutStats, Sensor};

use std::time::Instant;

use crate::config::HiriseConfig;
use crate::report::RunReport;
use crate::roi::detections_to_rois_into;
use crate::scratch::PipelineScratch;
use crate::timing::StageTimings;
use crate::{HiriseError, Result};

/// Everything one frame produced.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The stage-1 compressed image as the processor received it.
    pub pooled_image: Image,
    /// Stage-1 detections in pooled coordinates.
    pub detections: Vec<Detection>,
    /// The full-resolution ROI rectangles requested from the sensor.
    pub rois: Vec<Rect>,
    /// The full-resolution ROI crops the sensor returned.
    pub roi_images: Vec<RgbImage>,
    /// Cost accounting for the whole frame.
    pub report: RunReport,
}

/// The HiRISE two-stage pipeline.
///
/// Owns a [`HiriseConfig`] and a stage-1 [`Detector`]; each call to
/// [`HirisePipeline::run`] captures one scene on a fresh [`Sensor`] and
/// executes both stages.
#[derive(Debug, Clone)]
pub struct HirisePipeline {
    config: HiriseConfig,
    detector: Detector,
}

impl HirisePipeline {
    /// Creates a pipeline from a configuration (the detector settings are
    /// taken from [`HiriseConfig::detector`]).
    pub fn new(config: HiriseConfig) -> Self {
        let detector = Detector::new(config.detector.clone());
        Self { config, detector }
    }

    /// The active configuration.
    pub fn config(&self) -> &HiriseConfig {
        &self.config
    }

    /// Mutable detector access (threshold calibration et al.).
    pub fn detector_mut(&mut self) -> &mut Detector {
        &mut self.detector
    }

    /// Shared detector access.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    pub(crate) fn check_scene(&self, scene: &RgbImage) -> Result<()> {
        let expected = (self.config.array_width, self.config.array_height);
        if scene.dimensions() != expected {
            return Err(HiriseError::SceneMismatch { expected, actual: scene.dimensions() });
        }
        Ok(())
    }

    /// Captures `scene` into the scratch's sensor slot: recapture in
    /// place when the sensor configuration matches; otherwise (first
    /// frame, or a different pipeline borrowing the scratch) rebuild the
    /// sensor once. Shared by the still-image and temporal frame paths.
    pub(crate) fn capture_into<'a>(
        &self,
        scene: &RgbImage,
        slot: &'a mut Option<Sensor>,
    ) -> &'a mut Sensor {
        if slot.as_ref().is_some_and(|s| *s.config() == self.config.sensor) {
            slot.as_mut().expect("sensor presence just checked").recapture(scene);
        } else {
            *slot = Some(Sensor::capture(scene, self.config.sensor));
        }
        slot.as_mut().expect("sensor just ensured")
    }

    /// Runs stage 1 only: in-sensor compressed capture + detection.
    ///
    /// # Errors
    ///
    /// [`HiriseError::SceneMismatch`] for wrongly sized scenes, plus sensor
    /// failures.
    pub fn run_stage1(&self, scene: &RgbImage) -> Result<(Image, Vec<Detection>, ReadoutStats)> {
        self.check_scene(scene)?;
        let mut sensor = Sensor::capture(scene, self.config.sensor);
        let (pooled, stats) =
            sensor.capture_pooled(self.config.pooling_k, self.config.stage1_color)?;
        let detections = self.detector.detect(&pooled);
        Ok((pooled, detections, stats))
    }

    /// Runs the full two-stage pipeline on one scene.
    ///
    /// This is the allocating convenience wrapper: it builds a fresh
    /// [`PipelineScratch`], delegates to
    /// [`HirisePipeline::run_with_scratch`], and moves the frame results
    /// out. Reports are bit-identical between the two entry points.
    ///
    /// # Errors
    ///
    /// [`HiriseError::SceneMismatch`] for wrongly sized scenes, plus sensor
    /// failures.
    pub fn run(&self, scene: &RgbImage) -> Result<PipelineRun> {
        let mut scratch = PipelineScratch::new();
        let report = self.run_with_scratch(scene, &mut scratch)?;
        Ok(scratch.into_pipeline_run(report))
    }

    /// Runs the full two-stage pipeline on one scene, reusing `scratch`
    /// for every intermediate buffer — the steady-state frame path.
    ///
    /// After a warm-up frame (or two, while ROI crop buffers reach their
    /// high-water sizes) this performs **zero heap allocations per frame**;
    /// `tests/alloc.rs` enforces that with a counting allocator. The frame
    /// results (pooled image, detections, ROIs, crops) stay readable on
    /// the scratch until the next call; the returned [`RunReport`] is
    /// bit-identical to what [`HirisePipeline::run`] produces for the same
    /// `(config, scene)`.
    ///
    /// # Errors
    ///
    /// [`HiriseError::SceneMismatch`] for wrongly sized scenes, plus sensor
    /// failures.
    pub fn run_with_scratch(
        &self,
        scene: &RgbImage,
        scratch: &mut PipelineScratch,
    ) -> Result<RunReport> {
        self.check_scene(scene)?;
        let PipelineScratch {
            sensor,
            analog,
            pooled,
            detector,
            rois,
            roi_order,
            roi_images,
            pool,
            union,
        } = scratch;
        let mut timings = StageTimings::default();
        let mark = Instant::now();
        let sensor = self.capture_into(scene, sensor);
        timings.capture = mark.elapsed();

        let mark = Instant::now();
        let stage1_stats = sensor.capture_pooled_into(
            self.config.pooling_k,
            self.config.stage1_color,
            analog,
            pooled,
        )?;
        timings.pool = mark.elapsed();

        let mark = Instant::now();
        let detections = self.detector.detect_with_scratch(pooled, detector);
        detections_to_rois_into(
            detections,
            self.config.pooling_k,
            self.config.roi_margin,
            self.config.array_width,
            self.config.array_height,
            self.config.max_rois,
            roi_order,
            rois,
        );
        timings.detect = mark.elapsed();

        let mark = Instant::now();
        let stage2_stats = sensor.read_rois_into(rois, roi_images, pool, union)?;
        timings.roi_read = mark.elapsed();

        let stage1_image_bytes = pooled.storage_bytes(self.config.sensor.adc_bits);
        let stage2_image_bytes: u64 =
            roi_images.iter().map(|img| img.storage_bytes(self.config.sensor.adc_bits)).sum();
        Ok(RunReport {
            stage1: stage1_stats,
            stage2: stage2_stats,
            pooling_outputs: stage1_stats.conversions,
            stage1_image_bytes,
            stage2_image_bytes,
            roi_count: rois.len(),
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiriseConfig;
    use hirise_imaging::draw;
    use hirise_sensor::{ColorMode, SensorConfig};

    /// A scene with one bright textured object on a dim background.
    fn scene_with_object(w: u32, h: u32) -> RgbImage {
        let mut img = RgbImage::from_fn(w, h, |_, _| (0.35, 0.35, 0.35));
        let obj = Rect::new(w / 3, h / 4, w / 6, h / 2);
        draw::fill_rect_rgb(&mut img, obj, (0.9, 0.4, 0.2));
        let [pr, _, _] = img.planes_mut();
        draw::fill_stripes(pr, obj, 2, 0.95, 0.55);
        img
    }

    fn small_config() -> HiriseConfig {
        let detector = hirise_detect::DetectorConfig { score_threshold: 0.2, ..Default::default() };
        HiriseConfig::builder(192, 144)
            .pooling(2)
            .sensor(SensorConfig::noiseless())
            .detector(detector)
            .max_rois(4)
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_mismatched_scene() {
        let pipeline = HirisePipeline::new(small_config());
        let wrong = RgbImage::new(64, 64);
        assert!(matches!(pipeline.run(&wrong), Err(HiriseError::SceneMismatch { .. })));
    }

    #[test]
    fn full_run_produces_rois_and_accounting() {
        let pipeline = HirisePipeline::new(small_config());
        let scene = scene_with_object(192, 144);
        let run = pipeline.run(&scene).unwrap();
        assert_eq!(run.pooled_image.width(), 96);
        assert!(!run.detections.is_empty(), "stage-1 found nothing");
        assert_eq!(run.rois.len(), run.roi_images.len());
        assert!(run.report.stage1.conversions > 0);
        // Stage-1 conversions: pooled RGB image.
        assert_eq!(run.report.stage1.conversions, 96 * 72 * 3);
        // HiRISE moved less data than a full readout would have.
        let full_bits = 192 * 144 * 3 * 8;
        assert!(run.report.total_transfer_bits() < full_bits);
    }

    #[test]
    fn roi_crop_contains_the_object() {
        let pipeline = HirisePipeline::new(small_config());
        let scene = scene_with_object(192, 144);
        let run = pipeline.run(&scene).unwrap();
        let object = Rect::new(192 / 3, 144 / 4, 192 / 6, 144 / 2);
        let best = run.rois.iter().map(|r| r.iou(&object)).fold(0.0, f64::max);
        assert!(best > 0.3, "no roi matches the object (best IoU {best})");
    }

    #[test]
    fn gray_mode_cuts_stage1_conversions() {
        let mut cfg = small_config();
        cfg.stage1_color = ColorMode::Gray;
        let pipeline = HirisePipeline::new(cfg);
        let scene = scene_with_object(192, 144);
        let (pooled, _, stats) = pipeline.run_stage1(&scene).unwrap();
        assert_eq!(pooled.channels(), 1);
        assert_eq!(stats.conversions, 96 * 72);
    }

    #[test]
    fn max_rois_is_respected() {
        let mut cfg = small_config();
        cfg.max_rois = 1;
        let pipeline = HirisePipeline::new(cfg);
        let run = pipeline.run(&scene_with_object(192, 144)).unwrap();
        assert!(run.rois.len() <= 1);
    }

    #[test]
    fn deterministic_given_config() {
        let pipeline = HirisePipeline::new(small_config());
        let scene = scene_with_object(192, 144);
        let a = pipeline.run(&scene).unwrap();
        let b = pipeline.run(&scene).unwrap();
        assert_eq!(a.rois, b.rois);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_run() {
        let pipeline = HirisePipeline::new(small_config());
        let mut scratch = PipelineScratch::new();
        // Several frames through one scratch, compared field by field
        // against fresh allocating runs. The frames alternate between two
        // ROI crop sets swapped in from outside, which must not show.
        let mut crops = [crate::RoiCrops::default(), crate::RoiCrops::default()];
        for i in 0..4u32 {
            let mut scene = scene_with_object(192, 144);
            let extra = Rect::new(10 + 20 * i, 100, 30, 30);
            draw::fill_rect_rgb(&mut scene, extra, (0.2, 0.8, 0.6));
            let set = &mut crops[i as usize % 2];
            scratch.swap_roi_crops(set);
            let report = pipeline.run_with_scratch(&scene, &mut scratch).unwrap();
            let fresh = pipeline.run(&scene).unwrap();
            assert_eq!(report, fresh.report, "frame {i}");
            assert_eq!(*scratch.pooled_image(), fresh.pooled_image);
            assert_eq!(scratch.detections(), fresh.detections.as_slice());
            assert_eq!(scratch.rois(), fresh.rois.as_slice());
            assert_eq!(scratch.roi_images(), fresh.roi_images.as_slice());
            scratch.swap_roi_crops(set);
            assert!(scratch.roi_images().is_empty(), "frame {i}: the crops moved out");
        }
    }

    #[test]
    fn scratch_path_records_stage_timings() {
        let pipeline = HirisePipeline::new(small_config());
        let mut scratch = PipelineScratch::new();
        let scene = scene_with_object(192, 144);
        let report = pipeline.run_with_scratch(&scene, &mut scratch).unwrap();
        let t = report.timings;
        // Capture and pooling walk the whole array; they always register
        // on the monotonic clock. The total is consistent with the parts.
        assert!(t.capture > std::time::Duration::ZERO, "capture stage not timed");
        assert!(t.pool > std::time::Duration::ZERO, "pool stage not timed");
        assert!(t.detect > std::time::Duration::ZERO, "detect stage not timed");
        assert_eq!(t.total(), t.capture + t.pool + t.detect + t.roi_read);
        // The allocating wrapper reports timings too.
        assert!(pipeline.run(&scene).unwrap().report.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn one_scratch_serves_differently_configured_pipelines() {
        let rgb = HirisePipeline::new(small_config());
        let mut gray_cfg = HiriseConfig::builder(64, 64)
            .pooling(4)
            .sensor(SensorConfig::default())
            .max_rois(2)
            .build()
            .unwrap();
        gray_cfg.stage1_color = ColorMode::Gray;
        gray_cfg.detector.score_threshold = 0.2;
        let gray = HirisePipeline::new(gray_cfg);
        let big = scene_with_object(192, 144);
        let small = scene_with_object(64, 64);
        let mut scratch = PipelineScratch::new();
        // Alternating pipelines (different dims, colour mode, sensor
        // config) through one scratch must still match fresh runs.
        for _ in 0..2 {
            let a = rgb.run_with_scratch(&big, &mut scratch).unwrap();
            assert_eq!(a, rgb.run(&big).unwrap().report);
            let b = gray.run_with_scratch(&small, &mut scratch).unwrap();
            assert_eq!(b, gray.run(&small).unwrap().report);
        }
    }

    #[test]
    fn scratch_path_rejects_mismatched_scene() {
        let pipeline = HirisePipeline::new(small_config());
        let mut scratch = PipelineScratch::new();
        let wrong = RgbImage::new(64, 64);
        assert!(matches!(
            pipeline.run_with_scratch(&wrong, &mut scratch),
            Err(HiriseError::SceneMismatch { .. })
        ));
    }
}
