//! The temporal video benchmark shared by the `video_stages` and
//! `bench_compare` binaries.
//!
//! One measurement generates a deterministic synthetic video
//! ([`hirise_scene::VideoGenerator`]) and runs it twice through warmed
//! scratch:
//!
//! * **per-frame mode** — the still-image [`HirisePipeline`] on every
//!   frame (full pooled capture + detection each time, frames
//!   independent): the status quo this PR's temporal pipeline competes
//!   against;
//! * **tracked mode** — the [`TrackingPipeline`] with the configured
//!   keyframe cadence: non-keyframes skip the pool and detect stages
//!   entirely.
//!
//! Besides the two mean frame times the measurement reports the tracked
//! run's policy counters (keyframes / drift refreshes / tracked frames)
//! and its **mean tracked-ROI IoU** against the generator's ground-truth
//! tracks — the accuracy side of the latency trade. `video_stages`
//! emits the result as `results/BENCH_temporal.json`; `bench_compare`
//! re-measures the committed configuration and gates regressions.

use std::time::Instant;

use hirise::temporal::{TrackerState, TrackingPipeline};
use hirise::{HiriseConfig, HirisePipeline, PipelineScratch, Rect, TemporalConfig};
use hirise_scene::{VideoGenerator, VideoSpec};

/// Seed of the benchmark's video sequence (fixed: the bench compares
/// implementations, not scenes).
const VIDEO_SEED: u64 = 0x3141;

/// Configuration of one temporal video measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoBenchConfig {
    /// Array width in pixels.
    pub width: u32,
    /// Array height in pixels.
    pub height: u32,
    /// In-sensor pooling factor.
    pub pooling_k: u32,
    /// Measured video frames.
    pub frames: u32,
    /// Keyframe cadence of the tracked run.
    pub keyframe_interval: u32,
}

impl Default for VideoBenchConfig {
    /// The committed trajectory point: the reference 640×480 / k = 2
    /// array over 48 frames, keyframes every 8.
    fn default() -> Self {
        Self { width: 640, height: 480, pooling_k: 2, frames: 48, keyframe_interval: 8 }
    }
}

/// Aggregated result of one video measurement (means over the measured
/// frames, milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoBenchResult {
    /// The configuration that produced it.
    pub config: VideoBenchConfig,
    /// Mean frame time of per-frame (still-pipeline) mode.
    pub per_frame_ms_mean: f64,
    /// Mean frame time of tracked (temporal-pipeline) mode.
    pub tracked_ms_mean: f64,
    /// Scheduled keyframes in the tracked run.
    pub keyframes: u64,
    /// Drift-triggered re-detections in the tracked run.
    pub drift_refreshes: u64,
    /// Pure tracked frames (capture + ROI read only).
    pub tracked_frames: u64,
    /// Mean over all tracked-mode ROIs of each ROI's best IoU against
    /// the frame's ground-truth boxes.
    pub mean_roi_iou: f64,
}

impl VideoBenchResult {
    /// Per-frame-mode time over tracked-mode time (0 for a degenerate
    /// measurement over zero frames — a ratio of two zero means is
    /// meaningless, not NaN).
    pub fn speedup(&self) -> f64 {
        if !(self.tracked_ms_mean > 0.0) {
            return 0.0;
        }
        self.per_frame_ms_mean / self.tracked_ms_mean
    }

    /// Serialises the result in the `results/BENCH_temporal.json`
    /// format.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        format!(
            "{{\n  \"bench\": \"video_stages\",\n  \"array\": \"{}x{}\",\n  \
             \"pooling_k\": {},\n  \"frames\": {},\n  \
             \"keyframe_interval\": {},\n  \"per_frame_ms_mean\": {:.3},\n  \
             \"tracked_ms_mean\": {:.3},\n  \"speedup\": {:.3},\n  \
             \"keyframes\": {},\n  \"drift_refreshes\": {},\n  \
             \"tracked_frames\": {},\n  \"mean_roi_iou\": {:.4}\n}}\n",
            c.width,
            c.height,
            c.pooling_k,
            c.frames,
            c.keyframe_interval,
            self.per_frame_ms_mean,
            self.tracked_ms_mean,
            self.speedup(),
            self.keyframes,
            self.drift_refreshes,
            self.tracked_frames,
            self.mean_roi_iou,
        )
    }
}

/// The video seed backing [`measure`] (exposed so the test suite can
/// evaluate exactly the committed benchmark scene).
pub fn reference_seed() -> u64 {
    VIDEO_SEED
}

/// The pipeline configuration both modes share: 8 ROIs, and a detector
/// calibrated to the surveillance video spec — scan range and aspects
/// matched to the known object statistics (the reproduction's analogue
/// of per-dataset anchor tuning, as `table2` does for the still
/// datasets) plus aggressive part-to-whole grouping so one walking
/// person yields one box rather than a head box and a torso box.
pub fn pipeline_config(config: &VideoBenchConfig) -> HiriseConfig {
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
    HiriseConfig::builder(config.width, config.height)
        .pooling(config.pooling_k)
        .detector(detector)
        .max_rois(8)
        .roi_margin(2)
        .build()
        .expect("valid video-bench configuration")
}

/// Mean over `rois` of each ROI's best IoU against `truth`; returns the
/// (sum, count) pair so the caller can fold across frames.
fn iou_sums(rois: &[Rect], truth: &[Rect]) -> (f64, u64) {
    let sum: f64 = rois.iter().map(|r| truth.iter().map(|t| r.iou(t)).fold(0.0, f64::max)).sum();
    (sum, rois.len() as u64)
}

/// The tracked-mode half of a measurement — what the `bench_compare`
/// regression gate needs, without paying for the per-frame-mode pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedMeasurement {
    /// Mean frame time of tracked (temporal-pipeline) mode.
    pub tracked_ms_mean: f64,
    /// Scheduled keyframes.
    pub keyframes: u64,
    /// Drift-triggered re-detections.
    pub drift_refreshes: u64,
    /// Pure tracked frames.
    pub tracked_frames: u64,
    /// Mean over all ROIs of each ROI's best IoU against ground truth.
    pub mean_roi_iou: f64,
}

// Frames are rendered on demand in both measurement passes (every frame
// is a pure function of its index) and always outside the timed spans,
// so only one frame is resident at a time — at 640×480×3 f32 a
// materialised 48-frame clip would hold ~180 MB for nothing.

/// Runs the tracked-mode measurement only: one warm-up pass over the
/// whole sequence (buffers reach their high-water sizes), then a timed
/// pass from reset state, with IoU bookkeeping outside the timed spans.
///
/// # Panics
///
/// As for [`measure`].
pub fn measure_tracked(config: &VideoBenchConfig) -> TrackedMeasurement {
    let video =
        VideoGenerator::new(VideoSpec::surveillance(), config.width, config.height, VIDEO_SEED);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let temporal = TemporalConfig::default().keyframe_interval(config.keyframe_interval);
    let tracker =
        TrackingPipeline::new(pipeline_config(config), temporal).expect("valid temporal policy");
    let mut scratch = PipelineScratch::new();
    let mut state = TrackerState::new();
    for i in 0..config.frames {
        let frame = video.frame(i);
        tracker.run_frame(&frame.image, &mut state, &mut scratch).expect("warm-up succeeds");
    }
    state.reset();
    let mut tracked_total = 0.0;
    let mut iou_sum = 0.0;
    let mut iou_count = 0u64;
    let mut truth: Vec<Rect> = Vec::new();
    for i in 0..config.frames {
        let frame = video.frame(i);
        let start = Instant::now();
        tracker.run_frame(&frame.image, &mut state, &mut scratch).expect("frame succeeds");
        tracked_total += ms(start.elapsed());
        truth.clear();
        truth.extend(frame.objects.iter().map(|o| o.bbox));
        let (sum, count) = iou_sums(scratch.rois(), &truth);
        iou_sum += sum;
        iou_count += count;
    }
    TrackedMeasurement {
        tracked_ms_mean: tracked_total / (config.frames as f64).max(1.0),
        keyframes: state.keyframes(),
        drift_refreshes: state.drift_refreshes(),
        tracked_frames: state.tracked_frames(),
        mean_roi_iou: if iou_count == 0 { 0.0 } else { iou_sum / iou_count as f64 },
    }
}

/// Runs the full measurement: one deterministic video, two warmed
/// passes (per-frame and tracked), identical frames and sensor
/// settings.
///
/// # Panics
///
/// Panics when the configuration is invalid (e.g. `k` does not tile the
/// array) — these binaries fail loudly rather than emitting bad data.
pub fn measure(config: &VideoBenchConfig) -> VideoBenchResult {
    let video =
        VideoGenerator::new(VideoSpec::surveillance(), config.width, config.height, VIDEO_SEED);
    let pipeline = HirisePipeline::new(pipeline_config(config));
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;

    // Per-frame mode: the still pipeline on every frame.
    let mut scratch = PipelineScratch::new();
    for i in 0..config.frames.min(2) {
        let frame = video.frame(i);
        pipeline.run_with_scratch(&frame.image, &mut scratch).expect("warm-up succeeds");
    }
    let mut per_frame_total = 0.0;
    for i in 0..config.frames {
        let frame = video.frame(i);
        let start = Instant::now();
        pipeline.run_with_scratch(&frame.image, &mut scratch).expect("frame succeeds");
        per_frame_total += ms(start.elapsed());
    }

    let tracked = measure_tracked(config);
    VideoBenchResult {
        config: *config,
        per_frame_ms_mean: per_frame_total / (config.frames as f64).max(1.0),
        tracked_ms_mean: tracked.tracked_ms_mean,
        keyframes: tracked.keyframes,
        drift_refreshes: tracked.drift_refreshes,
        tracked_frames: tracked.tracked_frames,
        mean_roi_iou: tracked.mean_roi_iou,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::{json_f64, json_str};

    #[test]
    fn json_roundtrips_through_the_emitted_format() {
        let result = VideoBenchResult {
            config: VideoBenchConfig {
                width: 320,
                height: 240,
                pooling_k: 4,
                frames: 12,
                keyframe_interval: 6,
            },
            per_frame_ms_mean: 20.5,
            tracked_ms_mean: 8.25,
            keyframes: 2,
            drift_refreshes: 1,
            tracked_frames: 9,
            mean_roi_iou: 0.6125,
        };
        let json = result.to_json();
        assert_eq!(json_str(&json, "bench").as_deref(), Some("video_stages"));
        assert_eq!(json_str(&json, "array").as_deref(), Some("320x240"));
        assert_eq!(json_f64(&json, "per_frame_ms_mean"), Some(20.5));
        assert_eq!(json_f64(&json, "tracked_ms_mean"), Some(8.25));
        assert_eq!(json_f64(&json, "keyframe_interval"), Some(6.0));
        assert_eq!(json_f64(&json, "mean_roi_iou"), Some(0.6125));
        assert!((json_f64(&json, "speedup").unwrap() - 20.5 / 8.25).abs() < 1e-3);
    }

    #[test]
    fn empty_clip_measurement_is_all_zeros_not_nan() {
        // A zero-frame clip (or equivalently a clip whose objects have
        // all exited and that yields no ROIs) must report clean zeros:
        // every downstream consumer formats these into JSON, where NaN
        // is not even representable.
        let cfg = VideoBenchConfig {
            width: 160,
            height: 120,
            pooling_k: 2,
            frames: 0,
            keyframe_interval: 4,
        };
        let r = measure(&cfg);
        assert_eq!(r.per_frame_ms_mean, 0.0);
        assert_eq!(r.tracked_ms_mean, 0.0);
        assert_eq!(r.mean_roi_iou, 0.0, "zero-ROI IoU must be 0, not NaN");
        assert_eq!(r.speedup(), 0.0, "0/0 speedup must be 0, not NaN");
        assert!(r.speedup().is_finite() && r.mean_roi_iou.is_finite());
        // And the emitted JSON stays parseable (no "NaN" literals).
        let json = r.to_json();
        assert!(!json.contains("NaN"), "NaN leaked into the JSON: {json}");
        assert_eq!(json_f64(&json, "speedup"), Some(0.0));
    }

    #[test]
    fn measurement_shows_the_temporal_contract() {
        // Small array, quick frames: the point here is the *structure*
        // (counters add up, tracked skips work, IoU meaningful), not
        // wall-clock magnitudes — those belong to the release binary.
        let cfg = VideoBenchConfig {
            width: 192,
            height: 144,
            pooling_k: 2,
            frames: 12,
            keyframe_interval: 4,
        };
        let r = measure(&cfg);
        assert!(r.per_frame_ms_mean > 0.0 && r.tracked_ms_mean > 0.0);
        assert_eq!(r.keyframes + r.drift_refreshes + r.tracked_frames, 12);
        assert!(r.keyframes >= 3, "12 frames at interval 4 schedule ≥ 3 keyframes");
        assert!(r.tracked_frames > 0, "no frame was ever served from tracks");
        assert!((0.0..=1.0).contains(&r.mean_roi_iou));
        assert!(r.mean_roi_iou > 0.3, "tracked ROIs miss the objects: {}", r.mean_roi_iou);
        assert!(r.speedup() > 1.0, "tracked mode slower than per-frame: {:?}", r);
    }
}
