//! The scenario-fleet benchmark shared by the `scenario_stages` and
//! `bench_compare` binaries.
//!
//! One record runs a [`hirise_scene::ScenarioGenerator`] scenario
//! through the tracked pipeline and keeps the facts every change is
//! gated on:
//!
//! * **policy** — keyframes, drift refreshes and tracked frames,
//! * **accuracy** — mean tracked-ROI IoU against the scenario's ground
//!   truth, and recall (the fraction of ground-truth boxes covered by
//!   an ROI at IoU ≥ 0.5),
//! * **energy** — the sensor-side energy of the run
//!   ([`RunReport::sensor_energy_mj_default`]) folded per frame kind
//!   through [`SequenceSummary`], so a policy change that silently
//!   shifts tracked frames back to keyframes shows up as a keyframe
//!   energy jump even when the total barely moves.
//!
//! Each record also runs an `hirise-analog` pooling consistency probe
//! on one representative frame: 16 pooled blocks are fed through the
//! transistor-level [`PoolingCircuit`] and compared against the
//! behavioural [`PoolingConfig::transfer`] the sensor actually uses,
//! pinning the behavioural model to its analog origin on *scenario*
//! data, not just on the synthetic ramps of the `analog_consistency`
//! suite.
//!
//! `scenario_stages` writes one record per scenario under
//! `results/scenarios/`; `bench_compare` rebuilds every committed one
//! and gates each fact exactly.
//!
//! [`RunReport::sensor_energy_mj_default`]: hirise::RunReport::sensor_energy_mj_default

use hirise::temporal::{TrackerState, TrackingPipeline};
use hirise::{HiriseConfig, PipelineScratch, Rect, SequenceSummary, TemporalConfig};
use hirise_analog::pooling::PoolingCircuit;
use hirise_scene::{ScenarioGenerator, ScenarioSpec, VideoFrame};
use hirise_sensor::PoolingConfig;

use crate::record::{Bench, Record, MAX_COUNT};

/// Seed of every committed scenario baseline (fixed: the fleet compares
/// implementations, not scenes).
pub const SCENARIO_SEED: u64 = 0x5CE2;

/// The IoU at which a ground-truth box counts as recalled by an ROI.
pub const RECALL_IOU: f64 = 0.5;

/// Largest pooling factor the analog probe simulates: it builds one
/// transistor leg per pooled pixel (k² legs), and the circuit solve
/// grows steeply with the leg count.
const MAX_PROBE_K: u32 = 16;

/// Configuration of one scenario record.
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
    /// Video frames.
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
///
/// # Panics
///
/// Panics on a config [`Bench::from_record`] would reject.
pub fn pipeline_config(config: &ScenarioBenchConfig) -> HiriseConfig {
    tracker(config).expect("valid scenario-bench configuration").pipeline().config().clone()
}

/// The tracked pipeline over [`pipeline_config`].
fn tracker(config: &ScenarioBenchConfig) -> hirise::Result<TrackingPipeline> {
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
    let pipeline = HiriseConfig::builder(config.width, config.height)
        .pooling(config.pooling_k)
        .detector(detector)
        .max_rois(config.max_rois)
        .roi_margin(2)
        .build()?;
    let temporal = TemporalConfig::default().keyframe_interval(config.keyframe_interval);
    TrackingPipeline::new(pipeline, temporal)
}

/// Resolves the generator for `config`.
///
/// # Panics
///
/// Panics on an unknown scenario name ([`Bench::from_record`] rejects
/// it first).
fn generator(config: &ScenarioBenchConfig) -> ScenarioGenerator {
    let spec = ScenarioSpec::by_name(&config.scenario)
        .unwrap_or_else(|| panic!("unknown scenario {:?}", config.scenario));
    ScenarioGenerator::new(spec, config.width, config.height, config.seed)
}

/// The facts of one tracked run over a clip.
pub(crate) struct TrackedRun {
    /// Policy counters and per-kind sensor energy.
    pub summary: SequenceSummary,
    /// Mean over all ROIs of each ROI's best IoU against ground truth
    /// (0 when the run produced no ROIs).
    pub mean_roi_iou: f64,
    /// Fraction of ground-truth boxes covered by an ROI at IoU ≥
    /// [`RECALL_IOU`] (0 when the clip shows no objects at all).
    pub recall: f64,
}

/// Runs `frames` frames of a clip through `tracker` from a cold state.
/// Frames are rendered on demand (pure functions of their index), so
/// only one frame is resident at a time — at 640×480×3 f32 a
/// materialised 48-frame clip would hold ~180 MB for nothing.
pub(crate) fn run_tracked(
    tracker: &TrackingPipeline,
    frames: u32,
    frame: impl Fn(u32) -> VideoFrame,
) -> TrackedRun {
    let mut scratch = PipelineScratch::new();
    let mut state = TrackerState::new();
    let mut summary = SequenceSummary::default();
    let (mut iou_sum, mut iou_count) = (0.0f64, 0u64);
    let (mut recalled, mut truth_count) = (0u64, 0u64);
    let mut truth: Vec<Rect> = Vec::new();
    for i in 0..frames {
        let frame = frame(i);
        let report =
            tracker.run_frame(&frame.image, &mut state, &mut scratch).expect("frame succeeds");
        summary.fold(&report);
        truth.clear();
        truth.extend(frame.objects.iter().map(|o| o.bbox));
        let rois = scratch.rois();
        iou_sum +=
            rois.iter().map(|r| truth.iter().map(|t| r.iou(t)).fold(0.0, f64::max)).sum::<f64>();
        iou_count += rois.len() as u64;
        recalled +=
            truth.iter().filter(|t| rois.iter().any(|r| r.iou(t) >= RECALL_IOU)).count() as u64;
        truth_count += truth.len() as u64;
    }
    TrackedRun {
        summary,
        mean_roi_iou: if iou_count == 0 { 0.0 } else { iou_sum / iou_count as f64 },
        recall: if truth_count == 0 { 0.0 } else { recalled as f64 / truth_count as f64 },
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

impl Bench for ScenarioBenchConfig {
    const NAME: &'static str = "scenario_stages";

    fn from_record(record: &Record) -> Result<Self, String> {
        let (width, height) = record.config_array()?;
        let config = Self {
            scenario: record.config_str("scenario")?.into(),
            label: record.config_str("label")?.into(),
            width,
            height,
            pooling_k: record.config_int("pooling_k", 1..=MAX_PROBE_K)?,
            frames: record.config_int("frames", 0..=MAX_COUNT)?,
            keyframe_interval: record.config_int("keyframe_interval", 1..=MAX_COUNT)?,
            max_rois: record.config_int("max_rois", 1..=MAX_COUNT as usize)?,
            seed: record.config_int("seed", 0..=u64::MAX)?,
        };
        if ScenarioSpec::by_name(&config.scenario).is_none() {
            return Err(format!("config `scenario` = {:?} is not a preset", config.scenario));
        }
        tracker(&config).map_err(|e| e.to_string())?;
        Ok(config)
    }

    fn header(&self) -> Record {
        Record::new(Self::NAME)
            .with_config("scenario", self.scenario.as_str())
            .with_config("label", self.label.as_str())
            .with_config("array", format!("{}x{}", self.width, self.height))
            .with_config("pooling_k", self.pooling_k)
            .with_config("frames", self.frames)
            .with_config("keyframe_interval", self.keyframe_interval)
            .with_config("max_rois", self.max_rois)
            .with_config("seed", self.seed)
    }

    fn record(&self) -> Record {
        let scenario = generator(self);
        let tracker = tracker(self).expect("valid scenario-bench configuration");
        let run = run_tracked(&tracker, self.frames, |i| scenario.frame(i));
        let s = &run.summary;
        self.header()
            .with_count("keyframes", s.keyframes)
            .with_count("drift_refreshes", s.drift_refreshes)
            .with_count("tracked_frames", s.tracked_frames)
            .with_metric("mean_roi_iou", run.mean_roi_iou, "ratio")
            .with_metric("recall", run.recall, "ratio")
            .with_metric("energy_mj_total", s.energy_mj, "mJ")
            .with_metric("energy_mj_keyframes", s.energy_mj_keyframes, "mJ")
            .with_metric("energy_mj_drift", s.energy_mj_drift, "mJ")
            .with_metric("energy_mj_tracked", s.energy_mj_tracked, "mJ")
            .with_metric("pooling_residual_v", pooling_consistency(self), "V")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let r = small("crossing").record();
        let count = |name| r.int(name).unwrap();
        assert_eq!(count("keyframes") + count("drift_refreshes") + count("tracked_frames"), 8);
        assert!((0.0..=1.0).contains(&r.float("mean_roi_iou").unwrap()));
        assert!((0.0..=1.0).contains(&r.float("recall").unwrap()));
        let total = r.float("energy_mj_total").unwrap();
        assert!(total > 0.0);
        let split: f64 = ["energy_mj_keyframes", "energy_mj_drift", "energy_mj_tracked"]
            .into_iter()
            .map(|name| r.float(name).unwrap())
            .sum();
        assert!((split - total).abs() <= 1e-12 * total);
        assert_eq!(small("crossing").record(), r, "the record is a pure function of the config");
    }

    #[test]
    fn departure_scenario_yields_zeros_not_nan() {
        // Frames 20.. of the departure scenario are object-free; the
        // accuracy ratios must stay finite ratios as the scene empties.
        let mut cfg = small("departure");
        cfg.frames = 24;
        let r = cfg.record();
        for name in ["mean_roi_iou", "recall"] {
            let v = r.float(name).unwrap();
            assert!(v.is_finite() && (0.0..=1.0).contains(&v), "{name} = {v}");
        }
        assert!(!r.to_text().contains("NaN"));
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
        // Every matrix entry survives the text form, so bench_compare
        // rebuilds exactly the committed configs.
        for config in scenario_matrix() {
            let parsed = Record::parse(&config.header().to_text()).expect("the header parses");
            assert_eq!(ScenarioBenchConfig::from_record(&parsed), Ok(config));
        }
        let text = small("defects").header().to_text();
        let bogus = Record::parse(
            &text.replace("\"defects\",\n    \"label\"", "\"bogus\",\n    \"label\""),
        )
        .unwrap();
        let err = ScenarioBenchConfig::from_record(&bogus).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        let mut coarse = small("clean");
        coarse.pooling_k = 48;
        let parsed = Record::parse(&coarse.header().to_text()).unwrap();
        let err = ScenarioBenchConfig::from_record(&parsed).unwrap_err();
        assert!(err.contains("`pooling_k` = 48 is outside 1..=16"), "{err}");
    }
}
