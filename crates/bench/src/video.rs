//! The temporal video benchmark shared by the `video_stages` and
//! `bench_compare` binaries.
//!
//! One record runs a deterministic synthetic video
//! ([`hirise_scene::VideoGenerator`]) through the [`TrackingPipeline`]
//! with the configured keyframe cadence and keeps the tracked run's
//! policy counters (keyframes / drift refreshes / tracked frames) and
//! its **mean tracked-ROI IoU** against the generator's ground-truth
//! tracks. `video_stages` writes the record as
//! `results/BENCH_temporal.json`; `bench_compare` rebuilds it from the
//! committed config and gates every fact exactly.

use hirise::temporal::TrackingPipeline;
use hirise::{HiriseConfig, TemporalConfig};
use hirise_scene::{VideoGenerator, VideoSpec};

use crate::record::{Bench, Record, MAX_COUNT, MAX_SIDE};
use crate::scenario::run_tracked;

/// Seed of the benchmark's video sequence (fixed: the bench compares
/// implementations, not scenes).
const VIDEO_SEED: u64 = 0x3141;

/// Configuration of one temporal video record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoBenchConfig {
    /// Array width in pixels.
    pub width: u32,
    /// Array height in pixels.
    pub height: u32,
    /// In-sensor pooling factor.
    pub pooling_k: u32,
    /// Video frames.
    pub frames: u32,
    /// Keyframe cadence of the tracked run.
    pub keyframe_interval: u32,
}

impl Default for VideoBenchConfig {
    /// The committed point: the reference 640×480 / k = 2 array over 48
    /// frames, keyframes every 8.
    fn default() -> Self {
        Self { width: 640, height: 480, pooling_k: 2, frames: 48, keyframe_interval: 8 }
    }
}

/// The video seed backing the record (exposed so the test suite can
/// evaluate exactly the committed benchmark scene).
pub fn reference_seed() -> u64 {
    VIDEO_SEED
}

/// The pipeline configuration of the tracked run: 8 ROIs, and a
/// detector calibrated to the surveillance video spec — scan range and
/// aspects matched to the known object statistics (the reproduction's
/// analogue of per-dataset anchor tuning, as `table2` does for the still
/// datasets) plus aggressive part-to-whole grouping so one walking
/// person yields one box rather than a head box and a torso box.
///
/// # Panics
///
/// Panics on a config [`Bench::from_record`] would reject.
pub fn pipeline_config(config: &VideoBenchConfig) -> HiriseConfig {
    tracker(config).expect("valid video-bench configuration").pipeline().config().clone()
}

fn tracker(config: &VideoBenchConfig) -> hirise::Result<TrackingPipeline> {
    let detector = hirise::DetectorConfig {
        min_object_frac: 0.16,
        max_object_frac: 0.45,
        aspects: vec![0.4, 0.65],
        part_containment: 0.6,
        part_area_ratio: 0.5,
        part_suppress_ratio: 0.45,
        fill_norm: 0.6,
        ..Default::default()
    };
    let pipeline = HiriseConfig::builder(config.width, config.height)
        .pooling(config.pooling_k)
        .detector(detector)
        .max_rois(8)
        .roi_margin(2)
        .build()?;
    let temporal = TemporalConfig::default().keyframe_interval(config.keyframe_interval);
    TrackingPipeline::new(pipeline, temporal)
}

impl Bench for VideoBenchConfig {
    const NAME: &'static str = "video_stages";

    fn from_record(record: &Record) -> Result<Self, String> {
        let (width, height) = record.config_array()?;
        let config = Self {
            width,
            height,
            pooling_k: record.config_int("pooling_k", 1..=MAX_SIDE)?,
            frames: record.config_int("frames", 0..=MAX_COUNT)?,
            keyframe_interval: record.config_int("keyframe_interval", 1..=MAX_COUNT)?,
        };
        tracker(&config).map_err(|e| e.to_string())?;
        Ok(config)
    }

    fn header(&self) -> Record {
        Record::new(Self::NAME)
            .with_config("array", format!("{}x{}", self.width, self.height))
            .with_config("pooling_k", self.pooling_k)
            .with_config("frames", self.frames)
            .with_config("keyframe_interval", self.keyframe_interval)
    }

    fn record(&self) -> Record {
        let video =
            VideoGenerator::new(VideoSpec::surveillance(), self.width, self.height, VIDEO_SEED);
        let tracker = tracker(self).expect("valid video-bench configuration");
        let run = run_tracked(&tracker, self.frames, |i| video.frame(i));
        self.header()
            .with_count("keyframes", run.summary.keyframes)
            .with_count("drift_refreshes", run.summary.drift_refreshes)
            .with_count("tracked_frames", run.summary.tracked_frames)
            .with_metric("mean_roi_iou", run.mean_roi_iou, "ratio")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_through_the_emitted_format() {
        let config = VideoBenchConfig {
            width: 320,
            height: 240,
            pooling_k: 4,
            frames: 12,
            keyframe_interval: 6,
        };
        let parsed = Record::parse(&config.header().to_text()).expect("the header parses");
        assert_eq!(VideoBenchConfig::from_record(&parsed), Ok(config));
        let zero = Record::parse(
            &config
                .header()
                .to_text()
                .replace("\"keyframe_interval\": 6", "\"keyframe_interval\": 0"),
        )
        .unwrap();
        assert!(VideoBenchConfig::from_record(&zero).unwrap_err().contains("keyframe_interval"));
    }

    #[test]
    fn empty_clip_measurement_is_all_zeros_not_nan() {
        // A zero-frame clip (or equivalently a clip whose objects have
        // all exited and that yields no ROIs) must report clean zeros:
        // a record holds finite facts only.
        let cfg = VideoBenchConfig {
            width: 160,
            height: 120,
            pooling_k: 2,
            frames: 0,
            keyframe_interval: 4,
        };
        let r = cfg.record();
        assert_eq!(r.int("keyframes"), Some(0));
        assert_eq!(r.int("tracked_frames"), Some(0));
        assert_eq!(r.float("mean_roi_iou"), Some(0.0), "zero-ROI IoU must be 0, not NaN");
        assert!(!r.to_text().contains("NaN"));
    }

    #[test]
    fn measurement_shows_the_temporal_contract() {
        // Small array, quick frames: the point here is the *structure*
        // (counters add up, tracked skips work, IoU meaningful).
        let cfg = VideoBenchConfig {
            width: 192,
            height: 144,
            pooling_k: 2,
            frames: 12,
            keyframe_interval: 4,
        };
        let r = cfg.record();
        let count = |name| r.int(name).unwrap();
        assert_eq!(count("keyframes") + count("drift_refreshes") + count("tracked_frames"), 12);
        assert!(count("keyframes") >= 3, "12 frames at interval 4 schedule ≥ 3 keyframes");
        assert!(count("tracked_frames") > 0, "no frame was ever served from tracks");
        let iou = r.float("mean_roi_iou").unwrap();
        assert!(iou > 0.3 && iou <= 1.0, "tracked ROIs miss the objects: {iou}");
        assert_eq!(cfg.record(), r, "the record is a pure function of the config");
    }
}
