//! The systems the paper compares HiRISE against.
//!
//! * [`ConventionalPipeline`] — the single-stage baseline: the entire
//!   frame is converted by the ADC and shipped to the processor (Fig. 2a).
//! * [`InProcessorPipeline`] — the scaling baseline of Table 2: the full
//!   frame is read out conventionally and then scaled **digitally** on the
//!   processor. Detection quality on this path is the reference that
//!   in-sensor scaling must match.

use hirise_detect::{Detection, Detector};
use hirise_imaging::{color, ops, Image, RgbImage};
use hirise_sensor::{ColorMode, ReadoutStats, Sensor, SensorConfig};

use crate::report::RunReport;
use crate::Result;

/// Single-stage full-frame baseline.
#[derive(Debug, Clone)]
pub struct ConventionalPipeline {
    sensor_config: SensorConfig,
}

impl ConventionalPipeline {
    /// Creates the baseline with the given sensor physics.
    ///
    /// # Errors
    ///
    /// [`crate::HiriseError::Sensor`] when `sensor_config` fails
    /// [`SensorConfig::validate`].
    pub fn new(sensor_config: SensorConfig) -> Result<Self> {
        sensor_config.validate()?;
        Ok(Self { sensor_config })
    }

    /// Captures and ships the full frame; returns the digital image and a
    /// report (no stage 2, no pooling).
    pub fn run(&self, scene: &RgbImage) -> (RgbImage, RunReport) {
        let mark = std::time::Instant::now();
        let mut sensor = Sensor::capture(scene, self.sensor_config);
        let capture = mark.elapsed();
        let mark = std::time::Instant::now();
        let (image, stats) = sensor.read_full();
        let pool = mark.elapsed();
        let bytes = image.storage_bytes(self.sensor_config.adc_bits);
        let report = RunReport {
            stage1: stats,
            stage2: ReadoutStats::default(),
            pooling_outputs: 0,
            stage1_image_bytes: bytes,
            stage2_image_bytes: 0,
            roi_count: 0,
            // The conventional path has no pooling or ROI stages; the
            // full-frame readout is charged to `pool` (it is the
            // conversion stage of this pipeline).
            timings: crate::timing::StageTimings { capture, pool, ..Default::default() },
        };
        (image, report)
    }
}

/// Full readout followed by digital ("in-processor") scaling.
#[derive(Debug, Clone)]
pub struct InProcessorPipeline {
    sensor_config: SensorConfig,
    pooling_k: u32,
    color_mode: ColorMode,
    detector: Detector,
}

impl InProcessorPipeline {
    /// Creates the in-processor scaling baseline.
    ///
    /// # Errors
    ///
    /// [`crate::HiriseError::Sensor`] when `sensor_config` fails
    /// [`SensorConfig::validate`].
    pub fn new(
        sensor_config: SensorConfig,
        pooling_k: u32,
        color_mode: ColorMode,
        detector: Detector,
    ) -> Result<Self> {
        sensor_config.validate()?;
        Ok(Self { sensor_config, pooling_k, color_mode, detector })
    }

    /// Shared detector access.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Mutable detector access (threshold calibration).
    pub fn detector_mut(&mut self) -> &mut Detector {
        &mut self.detector
    }

    /// Produces the digitally scaled stage-1 image (without detection) and
    /// the full-frame readout stats it cost.
    ///
    /// # Errors
    ///
    /// Propagates imaging failures (non-tiling pooling factors).
    pub fn scaled_capture(&self, scene: &RgbImage) -> Result<(Image, ReadoutStats)> {
        let mut sensor = Sensor::capture(scene, self.sensor_config);
        let (full, stats) = sensor.read_full();
        let scaled: Image = match self.color_mode {
            ColorMode::Rgb => Image::Rgb(ops::avg_pool_rgb(&full, self.pooling_k)?),
            ColorMode::Gray => {
                let gray = color::rgb_to_gray_mean(&full);
                Image::Gray(ops::avg_pool_gray(&gray, self.pooling_k)?)
            }
        };
        Ok((scaled, stats))
    }

    /// Runs readout → digital scaling → detection.
    ///
    /// # Errors
    ///
    /// See [`InProcessorPipeline::scaled_capture`].
    pub fn run(&self, scene: &RgbImage) -> Result<(Image, Vec<Detection>, ReadoutStats)> {
        let (scaled, stats) = self.scaled_capture(scene)?;
        let detections = self.detector.detect(&scaled);
        Ok((scaled, detections, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hirise_imaging::{draw, metrics, Rect};

    fn scene(w: u32, h: u32) -> RgbImage {
        let mut img = RgbImage::from_fn(w, h, |x, y| {
            (0.3 + 0.02 * ((x / 7) % 3) as f32, 0.35, 0.3 + 0.02 * ((y / 5) % 4) as f32)
        });
        draw::fill_rect_rgb(&mut img, Rect::new(w / 4, h / 4, w / 5, h / 2), (0.9, 0.3, 0.2));
        img
    }

    #[test]
    fn conventional_costs_match_formulas() {
        let baseline = ConventionalPipeline::new(SensorConfig::noiseless()).unwrap();
        let (img, report) = baseline.run(&scene(64, 48));
        assert_eq!(img.dimensions(), (64, 48));
        assert_eq!(report.conversions(), 64 * 48 * 3);
        assert_eq!(report.total_transfer_bits(), 64 * 48 * 3 * 8);
        assert_eq!(report.peak_image_bytes(), 64 * 48 * 3);
        assert_eq!(report.roi_count, 0);
    }

    #[test]
    fn baselines_reject_an_invalid_sensor_config() {
        use hirise_sensor::SensorError;
        let bad = SensorConfig { adc_inl_lsb: f64::NAN, ..SensorConfig::default() };
        let is_inl_error = |e: crate::HiriseError| {
            matches!(
                e,
                crate::HiriseError::Sensor(SensorError::InvalidConfig {
                    parameter: "adc_inl_lsb",
                    ..
                })
            )
        };
        assert!(is_inl_error(ConventionalPipeline::new(bad).unwrap_err()));
        let in_proc = InProcessorPipeline::new(bad, 2, ColorMode::Rgb, Detector::default());
        assert!(is_inl_error(in_proc.unwrap_err()));
    }

    #[test]
    fn in_processor_scales_digitally() {
        let p = InProcessorPipeline::new(
            SensorConfig::noiseless(),
            4,
            ColorMode::Rgb,
            Detector::default(),
        )
        .unwrap();
        let (scaled, stats) = p.scaled_capture(&scene(64, 48)).unwrap();
        assert_eq!((scaled.width(), scaled.height()), (16, 12));
        // The full frame was still converted and transferred.
        assert_eq!(stats.conversions, 64 * 48 * 3);
    }

    #[test]
    fn gray_mode_produces_single_channel() {
        let p = InProcessorPipeline::new(
            SensorConfig::noiseless(),
            2,
            ColorMode::Gray,
            Detector::default(),
        )
        .unwrap();
        let (scaled, _) = p.scaled_capture(&scene(64, 48)).unwrap();
        assert_eq!(scaled.channels(), 1);
    }

    #[test]
    fn in_processor_matches_in_sensor_scaling() {
        // The Table-2 premise at the image level, via the public pipelines.
        let s = scene(64, 48);
        let in_proc = InProcessorPipeline::new(
            SensorConfig::noiseless(),
            4,
            ColorMode::Rgb,
            Detector::default(),
        )
        .unwrap();
        let (proc_img, _) = in_proc.scaled_capture(&s).unwrap();

        let cfg = crate::HiriseConfig::builder(64, 48)
            .pooling(4)
            .sensor(SensorConfig::noiseless())
            .build()
            .unwrap();
        let pipeline = crate::HirisePipeline::new(cfg);
        let (sensor_img, _, _) = pipeline.run_stage1(&s).unwrap();

        let a = proc_img.as_rgb().unwrap();
        let b = sensor_img.as_rgb().unwrap();
        for ch in 0..3 {
            let err = metrics::max_abs_diff(a.planes()[ch], b.planes()[ch]).unwrap();
            assert!(err <= 1.5 / 255.0, "channel {ch} differs by {err}");
        }
    }
}
