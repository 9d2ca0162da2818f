//! The stage-breakdown frame benchmark shared by the `pipeline_stages`
//! and `bench_compare` binaries, plus the dependency-free JSON helpers
//! they use to read each other's output.
//!
//! One measurement runs the steady-state (zero-allocation) two-stage
//! pipeline over a generated surveillance scene through a warmed
//! [`PipelineScratch`], collecting per-stage [`StageTimings`] and the
//! end-to-end wall time per frame. `pipeline_stages` emits the result as
//! `results/BENCH_pipeline.json`; `bench_compare` re-runs the same
//! configuration and diffs against that committed baseline, appending
//! the outcome to the `results/BENCH_history.json` trajectory.

use std::time::{Duration, Instant};

use hirise::{HiriseConfig, HirisePipeline, PipelineScratch, StageTimings};
use hirise_scene::{DatasetSpec, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of one stage-breakdown measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageBenchConfig {
    /// Array width in pixels.
    pub width: u32,
    /// Array height in pixels.
    pub height: u32,
    /// In-sensor pooling factor.
    pub pooling_k: u32,
    /// Measured frames (after two warm-up frames).
    pub frames: usize,
}

impl Default for StageBenchConfig {
    /// The committed trajectory point: 640×480, k = 2, 30 frames.
    fn default() -> Self {
        Self { width: 640, height: 480, pooling_k: 2, frames: 30 }
    }
}

/// Aggregated result of one measurement (means over the measured
/// frames, milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBenchResult {
    /// The configuration that produced it.
    pub config: StageBenchConfig,
    /// Mean end-to-end frame time.
    pub end_to_end_ms_mean: f64,
    /// Fastest observed frame.
    pub end_to_end_ms_min: f64,
    /// Mean capture-stage time.
    pub capture_ms: f64,
    /// Mean pool-stage time (analog pooling + stage-1 ADC).
    pub pool_ms: f64,
    /// Mean detect-stage time.
    pub detect_ms: f64,
    /// Mean ROI-readout-stage time.
    pub roi_read_ms: f64,
}

impl StageBenchResult {
    /// Mean throughput implied by the mean frame time.
    pub fn fps_mean(&self) -> f64 {
        1e3 / self.end_to_end_ms_mean
    }

    /// Serialises the result in the `results/BENCH_pipeline.json`
    /// format.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        format!(
            "{{\n  \"bench\": \"pipeline_stages\",\n  \"array\": \"{}x{}\",\n  \
             \"pooling_k\": {},\n  \"frames\": {},\n  \
             \"end_to_end_ms_mean\": {:.3},\n  \"end_to_end_ms_min\": {:.3},\n  \
             \"fps_mean\": {:.2},\n  \"stages_ms_mean\": {{\n    \"capture\": {:.3},\n    \
             \"pool\": {:.3},\n    \"detect\": {:.3},\n    \"roi_read\": {:.3}\n  }}\n}}\n",
            c.width,
            c.height,
            c.pooling_k,
            c.frames,
            self.end_to_end_ms_mean,
            self.end_to_end_ms_min,
            self.fps_mean(),
            self.capture_ms,
            self.pool_ms,
            self.detect_ms,
            self.roi_read_ms,
        )
    }
}

/// Runs the measurement: a deterministic generated scene, two warm-up
/// frames, then `config.frames` timed frames through one scratch.
///
/// # Panics
///
/// Panics when the configuration is invalid (e.g. `k` does not tile the
/// array) — these binaries fail loudly rather than emitting bad data.
pub fn measure(config: &StageBenchConfig) -> StageBenchResult {
    let generator = SceneGenerator::new(DatasetSpec::dhdcampus_like());
    let mut rng = StdRng::seed_from_u64(77);
    let scene = generator.generate(config.width, config.height, &mut rng).image;

    let pipeline_config = HiriseConfig::builder(config.width, config.height)
        .pooling(config.pooling_k)
        .max_rois(8)
        .build()
        .expect("valid stage-bench configuration");
    let pipeline = HirisePipeline::new(pipeline_config);
    let mut scratch = PipelineScratch::new();

    // Warm-up: buffers grow to their steady-state sizes.
    for _ in 0..2 {
        pipeline.run_with_scratch(&scene, &mut scratch).expect("warm-up succeeds");
    }

    let mut totals: Vec<Duration> = Vec::with_capacity(config.frames);
    let mut stages = StageTimings::default();
    for _ in 0..config.frames {
        let start = Instant::now();
        let report = pipeline.run_with_scratch(&scene, &mut scratch).expect("frame succeeds");
        totals.push(start.elapsed());
        stages += report.timings;
    }

    let n = totals.len().max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    StageBenchResult {
        config: *config,
        end_to_end_ms_mean: totals.iter().map(|&d| ms(d)).sum::<f64>() / n,
        end_to_end_ms_min: totals.iter().map(|&d| ms(d)).fold(f64::INFINITY, f64::min),
        capture_ms: ms(stages.capture) / n,
        pool_ms: ms(stages.pool) / n,
        detect_ms: ms(stages.detect) / n,
        roi_read_ms: ms(stages.roi_read) / n,
    }
}

/// Extracts the value of a `"field": <number>` pair from a flat JSON
/// document (no external JSON dependency in this workspace; the inputs
/// are files this crate itself emits).
pub fn json_f64(json: &str, field: &str) -> Option<f64> {
    let value = json_raw(json, field)?;
    value.trim().parse().ok()
}

/// Extracts the value of a `"field": "<string>"` pair.
pub fn json_str(json: &str, field: &str) -> Option<String> {
    let value = json_raw(json, field)?;
    let value = value.trim();
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

/// Extracts the value of a `"field": true|false` pair.
pub fn json_bool(json: &str, field: &str) -> Option<bool> {
    match json_raw(json, field)?.trim() {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// The raw text between `"field":` and the next `,`, `}` or newline.
fn json_raw<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\"");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?;
    let end = rest.find(['\n', ',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_through_the_emitted_format() {
        let result = StageBenchResult {
            config: StageBenchConfig { width: 320, height: 240, pooling_k: 4, frames: 3 },
            end_to_end_ms_mean: 12.345,
            end_to_end_ms_min: 11.5,
            capture_ms: 1.0,
            pool_ms: 6.25,
            detect_ms: 3.0,
            roi_read_ms: 2.095,
        };
        let json = result.to_json();
        assert_eq!(json_str(&json, "array").as_deref(), Some("320x240"));
        assert_eq!(json_f64(&json, "pooling_k"), Some(4.0));
        assert_eq!(json_f64(&json, "frames"), Some(3.0));
        assert_eq!(json_f64(&json, "end_to_end_ms_mean"), Some(12.345));
        // `"pool"` must not match `"pooling_k"`.
        assert_eq!(json_f64(&json, "pool"), Some(6.25));
        assert_eq!(json_f64(&json, "capture"), Some(1.0));
        assert_eq!(json_f64(&json, "missing"), None);
    }

    #[test]
    fn measurement_produces_consistent_numbers() {
        let cfg = StageBenchConfig { width: 64, height: 48, pooling_k: 2, frames: 2 };
        let r = measure(&cfg);
        assert!(r.end_to_end_ms_mean > 0.0);
        assert!(r.end_to_end_ms_min <= r.end_to_end_ms_mean);
        assert!(r.fps_mean() > 0.0);
        let stage_sum = r.capture_ms + r.pool_ms + r.detect_ms + r.roi_read_ms;
        assert!(stage_sum <= r.end_to_end_ms_mean * 1.5, "stages exceed the frame time");
    }
}
