//! The scenario-fleet benchmark shared by the `scenario_stages` and
//! `bench_compare` binaries.
//!
//! One measurement runs a [`hirise_scene::ScenarioGenerator`] scenario
//! through the tracked pipeline and reports the three axes every future
//! change is gated on:
//!
//! * **latency** — mean tracked-mode ms/frame (plus the per-frame-mode
//!   mean for the speedup context),
//! * **accuracy** — mean tracked-ROI IoU against the scenario's ground
//!   truth, and recall (the fraction of ground-truth boxes covered by
//!   an ROI at IoU ≥ 0.5),
//! * **energy** — the sensor-side energy of the run
//!   ([`RunReport::sensor_energy_mj_default`]) folded per frame kind
//!   through [`SequenceSummary`], so a policy change that silently
//!   shifts tracked frames back to keyframes shows up as a keyframe
//!   energy jump even when the total barely moves.
//!
//! Each full measurement also runs an `hirise-analog` pooling
//! consistency probe on one representative frame: 16 pooled blocks are
//! fed through the transistor-level [`PoolingCircuit`] and compared
//! against the behavioural [`PoolingConfig::transfer`] the sensor
//! actually uses, pinning the behavioural model to its analog origin on
//! *scenario* data, not just on the synthetic ramps of the
//! `analog_consistency` suite.
//!
//! `scenario_stages` emits one JSON per scenario under
//! `results/scenarios/`; `bench_compare` re-measures every committed
//! baseline and fails on a latency, IoU, *or* energy regression.
//!
//! [`RunReport::sensor_energy_mj_default`]: hirise::RunReport::sensor_energy_mj_default

use std::time::Instant;

use hirise::temporal::{TrackerState, TrackingPipeline};
use hirise::{
    HiriseConfig, HirisePipeline, PipelineScratch, Rect, SequenceSummary, TemporalConfig,
};
use hirise_analog::pooling::PoolingCircuit;
use hirise_scene::{ScenarioGenerator, ScenarioSpec};
use hirise_sensor::PoolingConfig;

/// Seed of every committed scenario baseline (fixed: the fleet compares
/// implementations, not scenes).
pub const SCENARIO_SEED: u64 = 0x5CE2;

/// The IoU at which a ground-truth box counts as recalled by an ROI.
pub const RECALL_IOU: f64 = 0.5;

/// Configuration of one scenario measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBenchConfig {
    /// Scenario preset name ([`ScenarioSpec::by_name`]).
    pub scenario: String,
    /// Baseline label: keys the committed JSON file name (differs from
    /// `scenario` on the resolution sweep, where the same `clean`
    /// layout runs as `sweep_vga` / `sweep_hd` / `sweep_4k`).
    pub label: String,
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
    /// ROI budget (the crowd scenario raises it).
    pub max_rois: usize,
    /// Scenario seed.
    pub seed: u64,
}

/// The committed scenario matrix: the six stress presets at the
/// reference VGA array, plus the `clean` layout swept VGA→4K. Frame
/// counts shrink as resolution grows to bound the runtime and the
/// per-frame image memory (a 4K RGB f32 frame is ~100 MB).
pub fn scenario_matrix() -> Vec<ScenarioBenchConfig> {
    let entry = |scenario: &str, label: &str, w: u32, h: u32, k: u32, frames: u32, rois: usize| {
        ScenarioBenchConfig {
            scenario: scenario.into(),
            label: label.into(),
            width: w,
            height: h,
            pooling_k: k,
            frames,
            keyframe_interval: 8,
            max_rois: rois,
            seed: SCENARIO_SEED,
        }
    };
    vec![
        entry("crossing", "crossing", 640, 480, 2, 32, 8),
        entry("scale", "scale", 640, 480, 2, 32, 8),
        entry("illumination", "illumination", 640, 480, 2, 32, 8),
        entry("defects", "defects", 640, 480, 2, 32, 8),
        entry("crowded", "crowded", 640, 480, 2, 32, 32),
        entry("departure", "departure", 640, 480, 2, 32, 8),
        entry("clean", "sweep_vga", 640, 480, 2, 32, 8),
        entry("clean", "sweep_hd", 1280, 960, 2, 12, 8),
        entry("clean", "sweep_4k", 3840, 2160, 4, 6, 8),
    ]
}

/// The shared pipeline configuration, with the detector's scan range
/// adapted to the scenario's known object statistics (`crowded` objects
/// sit far below the reference range, `scale` tracks sweep far above
/// it) — the same per-dataset anchor calibration `video::pipeline_config`
/// applies to the surveillance clip.
pub fn pipeline_config(config: &ScenarioBenchConfig) -> HiriseConfig {
    let (min_frac, max_frac) = match config.scenario.as_str() {
        "crowded" => (0.05, 0.30),
        "scale" => (0.10, 0.60),
        _ => (0.16, 0.45),
    };
    let detector = hirise::DetectorConfig {
        min_object_frac: min_frac,
        max_object_frac: max_frac,
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
        .max_rois(config.max_rois)
        .roi_margin(2)
        .build()
        .expect("valid scenario-bench configuration")
}

/// The tracked-mode measurement of one scenario — everything the
/// `bench_compare` triple gate needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioMeasurement {
    /// Mean frame time of tracked (temporal-pipeline) mode.
    pub tracked_ms_mean: f64,
    /// Scheduled keyframes.
    pub keyframes: u64,
    /// Drift-triggered re-detections.
    pub drift_refreshes: u64,
    /// Pure tracked frames.
    pub tracked_frames: u64,
    /// Mean over all ROIs of each ROI's best IoU against ground truth
    /// (0 when the run produced no ROIs — the departure scenario).
    pub mean_roi_iou: f64,
    /// Fraction of ground-truth boxes covered by an ROI at IoU ≥
    /// [`RECALL_IOU`] (0 when the scenario shows no objects at all).
    pub recall: f64,
    /// Total sensor-side energy of the tracked run, millijoules.
    pub energy_mj_total: f64,
    /// The keyframe share of [`ScenarioMeasurement::energy_mj_total`].
    pub energy_mj_keyframes: f64,
    /// The drift-refresh share.
    pub energy_mj_drift: f64,
    /// The tracked-frame share.
    pub energy_mj_tracked: f64,
}

/// A full scenario result: the tracked measurement plus the per-frame
/// context and the analog consistency probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBenchResult {
    /// The configuration that produced it.
    pub config: ScenarioBenchConfig,
    /// Mean frame time of per-frame (still-pipeline) mode.
    pub per_frame_ms_mean: f64,
    /// The tracked-mode measurement.
    pub tracked: ScenarioMeasurement,
    /// Worst |circuit − behavioural| pooled-block error of the analog
    /// probe, volts (see [`pooling_consistency`]).
    pub pooling_residual_v: f64,
}

impl ScenarioBenchResult {
    /// Per-frame-mode time over tracked-mode time (0 over zero frames).
    pub fn speedup(&self) -> f64 {
        if !(self.tracked.tracked_ms_mean > 0.0) {
            return 0.0;
        }
        self.per_frame_ms_mean / self.tracked.tracked_ms_mean
    }

    /// Serialises the result in the `results/scenarios/scenario_*.json`
    /// format.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let t = &self.tracked;
        format!(
            "{{\n  \"bench\": \"scenario_stages\",\n  \"scenario\": \"{}\",\n  \
             \"label\": \"{}\",\n  \"array\": \"{}x{}\",\n  \"pooling_k\": {},\n  \
             \"frames\": {},\n  \"keyframe_interval\": {},\n  \
             \"max_rois\": {},\n  \"seed\": {},\n  \"per_frame_ms_mean\": {:.3},\n  \
             \"tracked_ms_mean\": {:.3},\n  \"speedup\": {:.3},\n  \"keyframes\": {},\n  \
             \"drift_refreshes\": {},\n  \"tracked_frames\": {},\n  \
             \"mean_roi_iou\": {:.4},\n  \"recall\": {:.4},\n  \
             \"energy_mj_total\": {:.6},\n  \"energy_mj_keyframes\": {:.6},\n  \
             \"energy_mj_drift\": {:.6},\n  \"energy_mj_tracked\": {:.6},\n  \
             \"pooling_residual_v\": {:.6}\n}}\n",
            c.scenario,
            c.label,
            c.width,
            c.height,
            c.pooling_k,
            c.frames,
            c.keyframe_interval,
            c.max_rois,
            c.seed,
            self.per_frame_ms_mean,
            t.tracked_ms_mean,
            self.speedup(),
            t.keyframes,
            t.drift_refreshes,
            t.tracked_frames,
            t.mean_roi_iou,
            t.recall,
            t.energy_mj_total,
            t.energy_mj_keyframes,
            t.energy_mj_drift,
            t.energy_mj_tracked,
            self.pooling_residual_v,
        )
    }
}

/// Resolves the generator for `config`.
///
/// # Panics
///
/// Panics on an unknown scenario name — the binaries fail loudly rather
/// than silently measuring the wrong scene.
fn generator(config: &ScenarioBenchConfig) -> ScenarioGenerator {
    let spec = ScenarioSpec::by_name(&config.scenario)
        .unwrap_or_else(|| panic!("unknown scenario {:?}", config.scenario));
    ScenarioGenerator::new(spec, config.width, config.height, config.seed)
}

/// Mean over `rois` of each ROI's best IoU against `truth`, as a
/// (sum, count) pair, plus the recalled-box count for `truth`.
fn accuracy_sums(rois: &[Rect], truth: &[Rect]) -> (f64, u64, u64) {
    let iou_sum: f64 =
        rois.iter().map(|r| truth.iter().map(|t| r.iou(t)).fold(0.0, f64::max)).sum();
    let recalled =
        truth.iter().filter(|t| rois.iter().any(|r| r.iou(t) >= RECALL_IOU)).count() as u64;
    (iou_sum, rois.len() as u64, recalled)
}

/// Runs the tracked-mode measurement: one warm-up pass over the whole
/// sequence (buffers reach their high-water sizes), then a timed pass
/// from reset state, with accuracy and energy bookkeeping outside the
/// timed spans. Frames are rendered on demand (pure functions of their
/// index), so only one frame is resident at a time.
///
/// # Panics
///
/// As for [`measure`].
pub fn measure_tracked(config: &ScenarioBenchConfig) -> ScenarioMeasurement {
    let scenario = generator(config);
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let temporal = TemporalConfig::default().keyframe_interval(config.keyframe_interval);
    let tracker =
        TrackingPipeline::new(pipeline_config(config), temporal).expect("valid temporal policy");
    let mut scratch = PipelineScratch::new();
    let mut state = TrackerState::new();
    for i in 0..config.frames {
        let frame = scenario.frame(i);
        tracker.run_frame(&frame.image, &mut state, &mut scratch).expect("warm-up succeeds");
    }
    state.reset();
    let mut summary = SequenceSummary::default();
    let mut tracked_total = 0.0;
    let (mut iou_sum, mut iou_count) = (0.0f64, 0u64);
    let (mut recalled, mut truth_count) = (0u64, 0u64);
    let mut truth: Vec<Rect> = Vec::new();
    for i in 0..config.frames {
        let frame = scenario.frame(i);
        let start = Instant::now();
        let report =
            tracker.run_frame(&frame.image, &mut state, &mut scratch).expect("frame succeeds");
        tracked_total += ms(start.elapsed());
        summary.fold(&report);
        truth.clear();
        truth.extend(frame.objects.iter().map(|o| o.bbox));
        let (sum, count, hits) = accuracy_sums(scratch.rois(), &truth);
        iou_sum += sum;
        iou_count += count;
        recalled += hits;
        truth_count += truth.len() as u64;
    }
    ScenarioMeasurement {
        tracked_ms_mean: tracked_total / (config.frames as f64).max(1.0),
        keyframes: summary.keyframes,
        drift_refreshes: summary.drift_refreshes,
        tracked_frames: summary.tracked_frames,
        mean_roi_iou: if iou_count == 0 { 0.0 } else { iou_sum / iou_count as f64 },
        recall: if truth_count == 0 { 0.0 } else { recalled as f64 / truth_count as f64 },
        energy_mj_total: summary.energy_mj,
        energy_mj_keyframes: summary.energy_mj_keyframes,
        energy_mj_drift: summary.energy_mj_drift,
        energy_mj_tracked: summary.energy_mj_tracked,
    }
}

/// The analog pooling-consistency probe: 16 `k×k` blocks spread across
/// one representative frame (mid-sequence) are mapped to the circuit's
/// 0.3–0.9 V operating range and averaged by the transistor-level
/// [`PoolingCircuit`]; the worst absolute deviation from the
/// behavioural [`PoolingConfig::transfer`] the sensor uses is returned,
/// in volts.
///
/// The behavioural constants are fitted at 12 inputs and reused for
/// every pooling size, so the residual here includes the cross-input-
/// count gain variation (< 5 %, see the `analog_consistency` suite) on
/// top of the matched-count fit residual (< 4 mV).
pub fn pooling_consistency(config: &ScenarioBenchConfig) -> f64 {
    let scenario = generator(config);
    let frame = scenario.frame(config.frames / 2);
    let k = config.pooling_k;
    let circuit = PoolingCircuit::builder((k * k) as usize).build().expect("valid circuit");
    let behavioural = PoolingConfig::default();
    let plane = &frame.image.planes()[1]; // green carries most luma
    let (blocks_x, blocks_y) = (config.width / k, config.height / k);
    let mut volts = Vec::with_capacity((k * k) as usize);
    let mut worst = 0.0f64;
    for sy in 0..4u32 {
        for sx in 0..4u32 {
            let bx = (blocks_x - 1) * sx / 3;
            let by = (blocks_y - 1) * sy / 3;
            volts.clear();
            for dy in 0..k {
                for dx in 0..k {
                    let v = f64::from(plane.get(bx * k + dx, by * k + dy));
                    volts.push(0.3 + 0.6 * v.clamp(0.0, 1.0));
                }
            }
            let truth = circuit.dc_average(&volts).expect("dc average converges");
            let mean = volts.iter().sum::<f64>() / volts.len() as f64;
            let model = behavioural.transfer(mean, 0.3, 0.9);
            worst = worst.max((truth - model).abs());
        }
    }
    worst
}

/// Runs the full measurement: the tracked pass, a warmed per-frame-mode
/// pass over the same frames, and the analog consistency probe.
///
/// # Panics
///
/// Panics on an unknown scenario or invalid configuration (e.g. `k`
/// does not tile the array) — these binaries fail loudly rather than
/// emitting bad data.
pub fn measure(config: &ScenarioBenchConfig) -> ScenarioBenchResult {
    let scenario = generator(config);
    let pipeline = HirisePipeline::new(pipeline_config(config));
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut scratch = PipelineScratch::new();
    for i in 0..config.frames.min(2) {
        let frame = scenario.frame(i);
        pipeline.run_with_scratch(&frame.image, &mut scratch).expect("warm-up succeeds");
    }
    let mut per_frame_total = 0.0;
    for i in 0..config.frames {
        let frame = scenario.frame(i);
        let start = Instant::now();
        pipeline.run_with_scratch(&frame.image, &mut scratch).expect("frame succeeds");
        per_frame_total += ms(start.elapsed());
    }
    drop(scratch);
    ScenarioBenchResult {
        config: config.clone(),
        per_frame_ms_mean: per_frame_total / (config.frames as f64).max(1.0),
        tracked: measure_tracked(config),
        pooling_residual_v: pooling_consistency(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::{json_f64, json_str};

    /// A small, fast variant of a matrix entry for structural tests.
    fn small(scenario: &str) -> ScenarioBenchConfig {
        ScenarioBenchConfig {
            scenario: scenario.into(),
            label: scenario.into(),
            width: 192,
            height: 144,
            pooling_k: 2,
            frames: 8,
            keyframe_interval: 4,
            max_rois: if scenario == "crowded" { 32 } else { 8 },
            seed: SCENARIO_SEED,
        }
    }

    #[test]
    fn matrix_covers_the_fleet_and_the_sweep() {
        let matrix = scenario_matrix();
        assert!(matrix.len() >= 6, "matrix shrank to {} entries", matrix.len());
        // Labels are unique (they key the committed files).
        let mut labels: Vec<&str> = matrix.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        let len = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), len, "duplicate scenario labels");
        // Every scenario resolves, and the sweep reaches 4K.
        for c in &matrix {
            assert!(
                ScenarioSpec::by_name(&c.scenario).is_some(),
                "matrix references unknown scenario {:?}",
                c.scenario
            );
            assert_eq!(c.width % c.pooling_k, 0);
            assert_eq!(c.height % c.pooling_k, 0);
        }
        assert!(matrix.iter().any(|c| c.width >= 3840), "the sweep lost its 4K point");
        assert!(matrix.iter().any(|c| c.label == "sweep_vga"));
    }

    #[test]
    fn tracked_measurement_shows_the_scenario_contract() {
        let r = measure_tracked(&small("crossing"));
        assert_eq!(r.keyframes + r.drift_refreshes + r.tracked_frames, 8);
        assert!(r.tracked_ms_mean > 0.0);
        assert!((0.0..=1.0).contains(&r.mean_roi_iou));
        assert!((0.0..=1.0).contains(&r.recall));
        assert!(r.energy_mj_total > 0.0);
        let split = r.energy_mj_keyframes + r.energy_mj_drift + r.energy_mj_tracked;
        assert!((split - r.energy_mj_total).abs() <= 1e-12 * r.energy_mj_total);
    }

    #[test]
    fn departure_scenario_yields_zeros_not_nan() {
        // Frames 20.. of the departure scenario are object-free; over a
        // window starting past the exits the accuracy ratios must be 0.
        let mut cfg = small("departure");
        cfg.frames = 24;
        let r = measure_tracked(&cfg);
        assert!(r.mean_roi_iou.is_finite() && r.recall.is_finite());
        assert!((0.0..=1.0).contains(&r.recall));
        // The whole-fleet invariant that matters: formatting never sees
        // NaN even when a scenario empties out.
        let result = ScenarioBenchResult {
            config: cfg,
            per_frame_ms_mean: 0.0,
            tracked: ScenarioMeasurement {
                tracked_ms_mean: 0.0,
                keyframes: 0,
                drift_refreshes: 0,
                tracked_frames: 0,
                mean_roi_iou: r.mean_roi_iou,
                recall: r.recall,
                energy_mj_total: 0.0,
                energy_mj_keyframes: 0.0,
                energy_mj_drift: 0.0,
                energy_mj_tracked: 0.0,
            },
            pooling_residual_v: 0.0,
        };
        assert_eq!(result.speedup(), 0.0);
        assert!(!result.to_json().contains("NaN"));
    }

    #[test]
    fn pooling_probe_stays_within_the_fit_reuse_envelope() {
        for scenario in ["clean", "defects"] {
            let residual = pooling_consistency(&small(scenario));
            assert!(
                residual < 0.05,
                "{scenario}: circuit vs behavioural pooling diverged by {residual} V"
            );
        }
    }

    #[test]
    fn json_roundtrips_through_the_emitted_format() {
        let mut cfg = small("defects");
        cfg.label = "defects_small".into();
        let result = ScenarioBenchResult {
            config: cfg,
            per_frame_ms_mean: 12.5,
            tracked: ScenarioMeasurement {
                tracked_ms_mean: 5.0,
                keyframes: 2,
                drift_refreshes: 1,
                tracked_frames: 5,
                mean_roi_iou: 0.625,
                recall: 0.75,
                energy_mj_total: 0.5,
                energy_mj_keyframes: 0.3,
                energy_mj_drift: 0.1,
                energy_mj_tracked: 0.1,
            },
            pooling_residual_v: 0.002,
        };
        let json = result.to_json();
        assert_eq!(json_str(&json, "bench").as_deref(), Some("scenario_stages"));
        assert_eq!(json_str(&json, "scenario").as_deref(), Some("defects"));
        assert_eq!(json_str(&json, "label").as_deref(), Some("defects_small"));
        assert_eq!(json_str(&json, "array").as_deref(), Some("192x144"));
        assert_eq!(json_f64(&json, "seed"), Some(SCENARIO_SEED as f64));
        assert_eq!(json_f64(&json, "max_rois"), Some(8.0));
        assert_eq!(json_f64(&json, "tracked_ms_mean"), Some(5.0));
        assert_eq!(json_f64(&json, "mean_roi_iou"), Some(0.625));
        assert_eq!(json_f64(&json, "recall"), Some(0.75));
        assert_eq!(json_f64(&json, "energy_mj_total"), Some(0.5));
        assert_eq!(json_f64(&json, "energy_mj_tracked"), Some(0.1));
        assert_eq!(json_f64(&json, "pooling_residual_v"), Some(0.002));
        assert!((json_f64(&json, "speedup").unwrap() - 2.5).abs() < 1e-3);
    }
}
