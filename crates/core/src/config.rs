//! System configuration.

use hirise_detect::DetectorConfig;
use hirise_sensor::{ColorMode, SensorConfig};

use crate::{HiriseError, Result};

/// Complete configuration of a HiRISE system instance.
#[derive(Debug, Clone, PartialEq)]
pub struct HiriseConfig {
    /// Pixel-array width `n`.
    pub array_width: u32,
    /// Pixel-array height `m`.
    pub array_height: u32,
    /// In-sensor pooling factor `k` (must tile the array).
    pub pooling_k: u32,
    /// Colour mode of the stage-1 compressed capture.
    pub stage1_color: ColorMode,
    /// Sensor physics (pixel, pooling circuit, ADC).
    pub sensor: SensorConfig,
    /// Stage-1 detector configuration.
    pub detector: DetectorConfig,
    /// Maximum number of ROIs requested from the sensor per frame.
    pub max_rois: usize,
    /// Margin added around each detected box before ROI readout, in
    /// full-resolution pixels (context for the stage-2 model).
    pub roi_margin: u32,
}

impl HiriseConfig {
    /// Starts building a configuration for an `n × m` pixel array.
    pub fn builder(array_width: u32, array_height: u32) -> HiriseConfigBuilder {
        HiriseConfigBuilder {
            config: HiriseConfig {
                array_width,
                array_height,
                pooling_k: 8,
                stage1_color: ColorMode::Rgb,
                sensor: SensorConfig::default(),
                detector: DetectorConfig::default(),
                max_rois: 32,
                roi_margin: 0,
            },
        }
    }

    /// The paper's reference configuration: 2560×1920 array, 8×8 pooling
    /// to a 320×240 stage-1 image, RGB.
    pub fn paper_reference() -> Self {
        Self::builder(2560, 1920).pooling(8).build().expect("static configuration is valid")
    }

    /// Stage-1 image dimensions after pooling.
    pub fn pooled_dimensions(&self) -> (u32, u32) {
        (self.array_width / self.pooling_k, self.array_height / self.pooling_k)
    }

    fn validate(&self) -> Result<()> {
        if self.array_width == 0 || self.array_height == 0 {
            return Err(HiriseError::InvalidConfig { reason: "zero array dimension".into() });
        }
        if self.pooling_k == 0
            || !self.array_width.is_multiple_of(self.pooling_k)
            || !self.array_height.is_multiple_of(self.pooling_k)
        {
            return Err(HiriseError::InvalidConfig {
                reason: format!(
                    "pooling {} does not tile {}x{}",
                    self.pooling_k, self.array_width, self.array_height
                ),
            });
        }
        if self.max_rois == 0 {
            return Err(HiriseError::InvalidConfig { reason: "max_rois must be positive".into() });
        }
        self.sensor
            .validate()
            .map_err(|e| HiriseError::InvalidConfig { reason: format!("sensor: {e}") })?;
        self.detector
            .validate()
            .map_err(|e| HiriseError::InvalidConfig { reason: format!("detector: {e}") })
    }
}

/// Policy of the temporal (video) pipeline: when to pay for a full
/// stage-1 pooled capture + detection versus riding the ROI tracks.
///
/// Used by [`crate::temporal::TrackingPipeline`]; plain still-image runs
/// ([`crate::HirisePipeline`]) ignore it. The defaults re-detect every
/// 8th frame and whenever a tracked ROI's mean intensity moves by more
/// than 6 % of full scale — a cheap proxy for "the prediction no longer
/// covers the object".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalConfig {
    /// Full stage-1 detection runs every `keyframe_interval`-th frame
    /// (≥ 1; `1` degenerates to per-frame detection).
    pub keyframe_interval: u32,
    /// Mean-intensity shift (normalised units, full scale = 1.0) of any
    /// tracked ROI that triggers an off-schedule re-detection. Non-finite
    /// or huge values effectively disable the trigger.
    pub drift_threshold: f32,
    /// Minimum IoU for a fresh detection to be associated with an
    /// existing track (below it, the detection spawns a new track).
    pub min_track_iou: f64,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        Self { keyframe_interval: 8, drift_threshold: 0.06, min_track_iou: 0.25 }
    }
}

impl TemporalConfig {
    /// Sets the keyframe cadence.
    pub fn keyframe_interval(mut self, interval: u32) -> Self {
        self.keyframe_interval = interval;
        self
    }

    /// Sets the mean-intensity drift trigger.
    pub fn drift_threshold(mut self, threshold: f32) -> Self {
        self.drift_threshold = threshold;
        self
    }

    /// Sets the track-association IoU gate.
    pub fn min_track_iou(mut self, iou: f64) -> Self {
        self.min_track_iou = iou;
        self
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// [`HiriseError::InvalidConfig`] for a zero keyframe interval, a NaN
    /// or negative drift threshold, or an association gate outside
    /// `0.0..=1.0`.
    pub fn validate(&self) -> Result<()> {
        if self.keyframe_interval == 0 {
            return Err(HiriseError::InvalidConfig {
                reason: "keyframe interval must be ≥ 1".into(),
            });
        }
        if !(self.drift_threshold >= 0.0) {
            return Err(HiriseError::InvalidConfig {
                reason: format!("drift threshold {} must be ≥ 0", self.drift_threshold),
            });
        }
        if !(0.0..=1.0).contains(&self.min_track_iou) {
            return Err(HiriseError::InvalidConfig {
                reason: format!("association IoU gate {} outside 0..=1", self.min_track_iou),
            });
        }
        Ok(())
    }
}

/// Builder for [`HiriseConfig`] (non-consuming terminal `build`).
#[derive(Debug, Clone)]
pub struct HiriseConfigBuilder {
    config: HiriseConfig,
}

impl HiriseConfigBuilder {
    /// Sets the pooling factor `k`.
    pub fn pooling(mut self, k: u32) -> Self {
        self.config.pooling_k = k;
        self
    }

    /// Sets the stage-1 colour mode.
    pub fn stage1_color(mut self, mode: ColorMode) -> Self {
        self.config.stage1_color = mode;
        self
    }

    /// Replaces the sensor physics configuration.
    pub fn sensor(mut self, sensor: SensorConfig) -> Self {
        self.config.sensor = sensor;
        self
    }

    /// Sets the row-shard count for the capture/pool/ROI paths (`1` =
    /// single threaded, `0` = one shard per core, `n` = exactly `n`).
    /// Output is bit-identical at every setting.
    pub fn sensor_shards(mut self, shards: u32) -> Self {
        self.config.sensor.shards = shards;
        self
    }

    /// Replaces the detector configuration.
    pub fn detector(mut self, detector: DetectorConfig) -> Self {
        self.config.detector = detector;
        self
    }

    /// Sets the per-frame ROI cap.
    pub fn max_rois(mut self, max: usize) -> Self {
        self.config.max_rois = max;
        self
    }

    /// Sets the ROI context margin (full-resolution pixels).
    pub fn roi_margin(mut self, margin: u32) -> Self {
        self.config.roi_margin = margin;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`HiriseError::InvalidConfig`] when the pooling factor does not
    /// tile the array, a dimension is zero, `max_rois == 0`, the sensor
    /// configuration fails [`SensorConfig::validate`], or the detector
    /// configuration fails [`DetectorConfig::validate`].
    pub fn build(self) -> Result<HiriseConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_to_paper_flavour() {
        let c = HiriseConfig::builder(2560, 1920).build().unwrap();
        assert_eq!(c.pooling_k, 8);
        assert_eq!(c.stage1_color, ColorMode::Rgb);
        assert_eq!(c.pooled_dimensions(), (320, 240));
    }

    #[test]
    fn paper_reference_is_valid() {
        let c = HiriseConfig::paper_reference();
        assert_eq!((c.array_width, c.array_height), (2560, 1920));
        assert_eq!(c.pooled_dimensions(), (320, 240));
    }

    #[test]
    fn rejects_non_tiling_pooling() {
        assert!(HiriseConfig::builder(100, 100).pooling(3).build().is_err());
        assert!(HiriseConfig::builder(100, 100).pooling(0).build().is_err());
        assert!(HiriseConfig::builder(100, 100).pooling(4).build().is_ok());
    }

    #[test]
    fn rejects_degenerate_values() {
        assert!(HiriseConfig::builder(0, 100).build().is_err());
        assert!(HiriseConfig::builder(100, 100).max_rois(0).build().is_err());
    }

    #[test]
    fn rejects_degenerate_detector() {
        let build = |detector: DetectorConfig| {
            HiriseConfig::builder(64, 64).pooling(2).detector(detector).build()
        };
        assert!(build(DetectorConfig::default()).is_ok());
        let err = build(DetectorConfig { scale_step: 1.0, ..Default::default() }).unwrap_err();
        assert!(matches!(err, HiriseError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("scale_step"), "{err}");
        assert!(build(DetectorConfig { min_object_h: 0, ..Default::default() }).is_err());
        assert!(build(DetectorConfig { aspects: Vec::new(), ..Default::default() }).is_err());
    }

    #[test]
    fn rejects_invalid_sensor() {
        let build =
            |sensor: SensorConfig| HiriseConfig::builder(64, 64).pooling(2).sensor(sensor).build();
        let mut pooling = SensorConfig::default().pooling;
        pooling.gain = 0.0;
        let mut pixel = SensorConfig::default().pixel;
        pixel.v_sat = pixel.v_dark;
        for (name, sensor) in [
            ("adc_bits 0", SensorConfig { adc_bits: 0, ..Default::default() }),
            ("adc_bits 17", SensorConfig { adc_bits: 17, ..Default::default() }),
            ("v_sat <= v_dark", SensorConfig { pixel, ..Default::default() }),
            ("gain 0", SensorConfig { pooling, ..Default::default() }),
        ] {
            let err = build(sensor).unwrap_err();
            assert!(matches!(err, HiriseError::InvalidConfig { .. }), "{name}: {err}");
            assert!(err.to_string().contains("sensor"), "{name}: {err}");
        }
        // Non-finite ADC parameters: each names the offending field.
        let mut infinite_swing = SensorConfig::default().pixel;
        infinite_swing.v_sat = f64::INFINITY;
        for (parameter, sensor) in [
            ("adc_inl_lsb", SensorConfig { adc_inl_lsb: f64::NAN, ..Default::default() }),
            ("adc_inl_lsb", SensorConfig { adc_inl_lsb: f64::INFINITY, ..Default::default() }),
            ("adc_noise", SensorConfig { adc_noise: -1e-3, ..Default::default() }),
            ("adc_noise", SensorConfig { adc_noise: f64::NAN, ..Default::default() }),
            ("adc_noise", SensorConfig { adc_noise: f64::INFINITY, ..Default::default() }),
            ("adc v_hi", SensorConfig { pixel: infinite_swing, ..Default::default() }),
        ] {
            let err = build(sensor).unwrap_err();
            assert!(matches!(err, HiriseError::InvalidConfig { .. }), "{parameter}: {err}");
            assert!(err.to_string().contains(parameter), "{parameter}: {err}");
        }
        assert!(build(SensorConfig::noiseless()).is_ok());
    }

    #[test]
    fn builder_setters_apply() {
        let c = HiriseConfig::builder(640, 480)
            .pooling(2)
            .stage1_color(ColorMode::Gray)
            .max_rois(5)
            .roi_margin(4)
            .sensor_shards(4)
            .build()
            .unwrap();
        assert_eq!(c.pooling_k, 2);
        assert_eq!(c.stage1_color, ColorMode::Gray);
        assert_eq!(c.max_rois, 5);
        assert_eq!(c.roi_margin, 4);
        assert_eq!(c.pooled_dimensions(), (320, 240));
        assert_eq!(c.sensor.shards, 4);
    }

    #[test]
    fn temporal_config_validates() {
        let t = TemporalConfig::default();
        assert!(t.validate().is_ok());
        assert!(TemporalConfig::default().keyframe_interval(0).validate().is_err());
        assert!(TemporalConfig::default().drift_threshold(-0.1).validate().is_err());
        assert!(TemporalConfig::default().drift_threshold(f32::NAN).validate().is_err());
        assert!(TemporalConfig::default().min_track_iou(1.5).validate().is_err());
        let custom =
            TemporalConfig::default().keyframe_interval(4).drift_threshold(0.1).min_track_iou(0.5);
        assert_eq!(custom.keyframe_interval, 4);
        assert_eq!(custom.drift_threshold, 0.1);
        assert_eq!(custom.min_track_iou, 0.5);
        assert!(custom.validate().is_ok());
    }

    #[test]
    fn default_noise_mode_is_keyed() {
        // Keyed draws are a pure function of (seed, position), so the
        // default single-shard capture equals a row-sharded one.
        let c = HiriseConfig::builder(64, 64).build().unwrap();
        assert_eq!(c.sensor.shards, 1);
        let scene = hirise_imaging::RgbImage::from_fn(16, 12, |x, y| {
            (x as f32 / 16.0, y as f32 / 12.0, 0.4)
        });
        let one = hirise_sensor::Sensor::capture(&scene, c.sensor);
        let sharded =
            hirise_sensor::Sensor::capture(&scene, SensorConfig { shards: 3, ..c.sensor });
        for ch in 0..3 {
            assert_eq!(one.array().plane(ch), sharded.array().plane(ch), "channel {ch}");
        }
    }
}
