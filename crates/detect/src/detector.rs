//! Multi-scale sliding-window detector.
//!
//! The detector scans geometric scale steps and a small set of aspect
//! ratios, scoring each window from four normalised cues:
//!
//! * luminance standard deviation (objects are internally structured),
//! * gradient/texture energy (fine texture survives only at sufficient
//!   resolution — the cue pooling destroys),
//! * centre–surround contrast (objects pop out from the background),
//! * colour saturation (present only in RGB mode — the cue grayscale
//!   operation loses).
//!
//! Candidates above a score threshold go through class-agnostic NMS and
//! are then assigned the class whose canonical aspect ratio is nearest.
//!
//! The window scan is filter-and-verify: a flat-region gate on the
//! luminance variance, then — for windows whose four contrast rings lie
//! inside the image — a division-free approximate score that drops
//! windows certain to miss the threshold, and finally the exact score on
//! every window left. The filter's guard is a rounding-error bound (see
//! `ScoreFilter::new`), so the candidate set and every score are
//! bit-identical to scoring every gated window exactly.
//!
//! [`Detector::calibrate_threshold`] grid-searches the score threshold for
//! maximum mAP on a calibration set — the reproduction's analogue of the
//! paper's per-dataset fine-tuning of YOLOv8n (200 epochs). Re-calibrating
//! in grayscale mode mirrors the paper's grayscale retraining experiment.

use hirise_imaging::{Image, Rect};

use crate::eval::{evaluate, Detection, GroundTruth};
use crate::features::{FeatureMaps, FeatureScratch, InteriorRow, InteriorSums, UNIT_ROUNDOFF};
use crate::nms::{nms_in_place, sort_by_score_desc, NmsScratch};

/// Detector hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Smallest window height scanned, pixels.
    pub min_object_h: u32,
    /// Smallest window height as a fraction of image height (combined with
    /// [`DetectorConfig::min_object_h`] by taking the larger). Set from the
    /// dataset's known object-scale range — the reproduction's analogue of
    /// anchor tuning.
    pub min_object_frac: f64,
    /// Largest window height as a fraction of image height.
    pub max_object_frac: f64,
    /// Geometric scale progression between window heights.
    pub scale_step: f64,
    /// Aspect ratios (w/h) scanned at each scale.
    pub aspects: Vec<f32>,
    /// Stride as a fraction of window height.
    pub stride_frac: f64,
    /// Contrast-ring width as a fraction of window height.
    pub ring_frac: f64,
    /// Cue weights: standard deviation, texture, contrast, saturation,
    /// ring-texture penalty (subtracted).
    pub weights: [f64; 5],
    /// Cue normalisation constants (value that saturates each cue):
    /// standard deviation, texture, contrast, saturation.
    pub cue_scales: [f64; 4],
    /// Score threshold in `0.0..1.0`.
    pub score_threshold: f64,
    /// IoU above which NMS suppresses the lower-scored box.
    pub nms_iou: f64,
    /// Hard cap on detections per image (highest scores kept).
    pub max_detections: usize,
    /// Flat-region gate: windows whose luminance-stddev cue falls below
    /// this normalised value are skipped before full scoring (pure
    /// speed-up; plain background sits well under it).
    pub stddev_gate: f64,
    /// Fill level treated as "fully covered": the positive score is scaled
    /// by `min(fill / fill_norm, 1)`, demoting loose boxes and cluster
    /// boxes whose interior is partly background.
    pub fill_norm: f64,
    /// `(class id, canonical aspect)` pairs for post-NMS classification.
    /// Empty means every detection is reported as class 0.
    pub class_aspects: Vec<(usize, f32)>,
    /// Intersection-over-minimum above which a small box counts as a *part*
    /// of a larger one.
    pub part_containment: f64,
    /// A part must be at most this fraction of the container's area.
    pub part_area_ratio: f64,
    /// Per-part boost factor; the summed boost multiplies the container's
    /// own score and is capped at [`DetectorConfig::part_boost_cap`].
    pub part_boost: f64,
    /// Upper bound on the total multiplicative boost (the container score
    /// is multiplied by at most `1 + part_boost_cap`).
    pub part_boost_cap: f64,
    /// A part is suppressed when its container's (boosted) score reaches
    /// this fraction of the part's score.
    pub part_suppress_ratio: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            min_object_h: 8,
            min_object_frac: 0.0,
            max_object_frac: 0.55,
            scale_step: 1.22,
            aspects: vec![0.4, 0.7, 1.0, 1.9],
            stride_frac: 0.18,
            ring_frac: 0.30,
            weights: [1.0, 1.3, 1.1, 0.7, 0.8],
            cue_scales: [0.16, 0.055, 0.13, 0.35],
            score_threshold: 0.42,
            nms_iou: 0.35,
            max_detections: 80,
            stddev_gate: 0.18,
            fill_norm: 0.45,
            class_aspects: Vec::new(),
            part_containment: 0.7,
            part_area_ratio: 0.35,
            part_boost: 0.8,
            part_boost_cap: 1.0,
            part_suppress_ratio: 0.7,
        }
    }
}

/// Why [`DetectorConfig::validate`] rejected a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorConfigError {
    /// `scale_step` is not a finite number above 1, so the scale
    /// progression would never advance.
    ScaleStep(f64),
    /// `min_object_h` is 0 and `min_object_frac` is not positive, so the
    /// first window height is 0 and the progression never leaves it.
    ZeroStartHeight,
    /// `cue_scales[index]` is not a positive finite number.
    CueScale {
        /// Index into [`DetectorConfig::cue_scales`].
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// `fill_norm` is not a positive finite number.
    FillNorm(f64),
    /// `stride_frac` is not a positive finite number.
    StrideFrac(f64),
    /// Neither `aspects` nor `class_aspects` lists an aspect ratio, so no
    /// window would ever be scanned.
    NoAspects,
}

impl std::fmt::Display for DetectorConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ScaleStep(v) => write!(f, "scale_step {v} must be a finite number above 1"),
            Self::ZeroStartHeight => {
                write!(f, "min_object_h is 0 and min_object_frac is not positive")
            }
            Self::CueScale { index, value } => {
                write!(f, "cue_scales[{index}] = {value} must be positive and finite")
            }
            Self::FillNorm(v) => write!(f, "fill_norm {v} must be positive and finite"),
            Self::StrideFrac(v) => write!(f, "stride_frac {v} must be positive and finite"),
            Self::NoAspects => write!(f, "no aspect ratio to scan"),
        }
    }
}

impl std::error::Error for DetectorConfigError {}

impl DetectorConfig {
    /// Checks the fields the window scan divides by or iterates on.
    ///
    /// [`Detector::detect`] terminates on any configuration; one that
    /// fails this check scans a degenerate (or empty) set of windows.
    ///
    /// # Errors
    ///
    /// The first offending field, as a [`DetectorConfigError`].
    pub fn validate(&self) -> Result<(), DetectorConfigError> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !(self.scale_step.is_finite() && self.scale_step > 1.0) {
            return Err(DetectorConfigError::ScaleStep(self.scale_step));
        }
        if self.min_object_h == 0 && !(self.min_object_frac > 0.0) {
            return Err(DetectorConfigError::ZeroStartHeight);
        }
        if let Some((index, &value)) =
            self.cue_scales.iter().enumerate().find(|&(_, &v)| !positive(v))
        {
            return Err(DetectorConfigError::CueScale { index, value });
        }
        if !positive(self.fill_norm) {
            return Err(DetectorConfigError::FillNorm(self.fill_norm));
        }
        if !positive(self.stride_frac) {
            return Err(DetectorConfigError::StrideFrac(self.stride_frac));
        }
        if self.aspects.is_empty() && self.class_aspects.is_empty() {
            return Err(DetectorConfigError::NoAspects);
        }
        Ok(())
    }
}

/// Exact per-frame work counts of the window scan, reported by
/// [`DetectorScratch::scan_stats`].
///
/// Every gate test either fails the gate or passes it; every passing
/// window is either dropped by the score filter or scored exactly, so
/// `gate_passed == filtered + verified` and `candidates <= verified`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Windows whose luminance variance was tested against the
    /// flat-region gate.
    pub gate_tests: u64,
    /// Windows that passed the gate.
    pub gate_passed: u64,
    /// Gated windows the approximate score proved below the threshold.
    pub filtered: u64,
    /// Gated windows scored exactly.
    pub verified: u64,
    /// Exactly scored windows above the threshold (before the candidate
    /// cap, NMS and part grouping).
    pub candidates: u64,
}

/// Reusable working memory for [`Detector::detect_with_scratch`].
///
/// Holds the feature-map stack, candidate buffers and sorting scratch so
/// the steady-state detection path performs no heap allocation once the
/// buffers have grown to their working size. One scratch serves any
/// sequence of images (sizes and colour modes may vary between calls).
#[derive(Debug, Clone, Default)]
pub struct DetectorScratch {
    maps: FeatureMaps,
    features: FeatureScratch,
    /// Candidate boxes of the current frame; holds the final detections
    /// after a `detect_with_scratch` call returns.
    detections: Vec<Detection>,
    /// Sort/suppression buffers shared by the NMS sweeps; its `spill`
    /// also serves as the part-grouping originals buffer.
    nms: NmsScratch,
    /// Boosted-score copy used by the part-suppression pass.
    boosted: Vec<Detection>,
    /// Aspect ratios scanned this frame.
    aspects: Vec<f32>,
    /// Work counts of the most recent scan.
    stats: ScanStats,
}

impl DetectorScratch {
    /// Creates an empty scratch; buffers grow to their steady-state size
    /// during the first detection.
    pub fn new() -> Self {
        Self::default()
    }

    /// The detections produced by the most recent
    /// [`Detector::detect_with_scratch`] call.
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Work counts of the most recent [`Detector::detect_with_scratch`]
    /// call's window scan.
    pub fn scan_stats(&self) -> ScanStats {
        self.stats
    }
}

/// The stage-1 detector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Detector {
    config: DetectorConfig,
}

impl Detector {
    /// Creates a detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Self { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    fn score(&self, f: &crate::features::WindowFeatures) -> f64 {
        let [w_sd, w_tx, w_ct, w_sat, w_ring] = self.config.weights;
        let [n_sd, n_tx, n_ct, n_sat] = self.config.cue_scales;
        let sd = (f.stddev / n_sd).min(1.0);
        let tx = (f.texture / n_tx).min(1.0);
        let ct = (f.contrast / n_ct).min(1.0);
        let sat = (f.saturation / n_sat).min(1.0);
        let ring = (f.ring_texture / n_tx).min(1.0);
        let fill = (f.fill / self.config.fill_norm).min(1.0);
        let positive =
            (w_sd * sd + w_tx * tx + w_ct * ct + w_sat * sat) / (w_sd + w_tx + w_ct + w_sat);
        (positive * fill - w_ring * ring).max(0.0)
    }

    fn classify(&self, bbox: Rect) -> usize {
        if self.config.class_aspects.is_empty() {
            return 0;
        }
        let aspect = bbox.w as f32 / bbox.h.max(1) as f32;
        self.config
            .class_aspects
            .iter()
            .min_by(|(_, a), (_, b)| {
                let da = (aspect / a).ln().abs();
                let db = (aspect / b).ln().abs();
                // `total_cmp` keeps the argmin total when a
                // non-positive configured aspect makes `ln()` go NaN
                // (the old `partial_cmp().expect()` panicked): NaN
                // distances rank behind every real one.
                da.total_cmp(&db)
            })
            .map(|(c, _)| *c)
            .expect("non-empty class list")
    }

    /// Part-to-whole grouping: windows firing on object *parts* (a head, a
    /// wheel) transfer evidence to windows that contain them, and are then
    /// suppressed once a container explains them. Without this step the
    /// cleanest small blobs — object parts — outrank whole-object boxes,
    /// which is the classical failure mode of purely local window scoring.
    fn group_parts_in_place(
        &self,
        dets: &mut Vec<Detection>,
        originals: &mut Vec<Detection>,
        boosted: &mut Vec<Detection>,
    ) {
        if dets.is_empty() {
            return;
        }
        originals.clear();
        originals.extend_from_slice(dets);
        for container in dets.iter_mut() {
            let ca = container.bbox.area();
            if ca == 0 {
                continue;
            }
            let mut boost = 0.0f64;
            for part in originals.iter() {
                let pa = part.bbox.area();
                if pa == 0 || pa as f64 > self.config.part_area_ratio * ca as f64 {
                    continue;
                }
                let inter = container.bbox.intersection_area(&part.bbox);
                if inter as f64 >= self.config.part_containment * pa as f64 {
                    boost +=
                        self.config.part_boost * part.score as f64 * (pa as f64 / ca as f64).sqrt();
                }
            }
            container.score *= 1.0 + boost.min(self.config.part_boost_cap) as f32;
        }
        // Suppress parts explained by a (boosted) container.
        boosted.clear();
        boosted.extend_from_slice(dets);
        dets.retain(|part| {
            let pa = part.bbox.area();
            !boosted.iter().any(|container| {
                let ca = container.bbox.area();
                ca as f64 * self.config.part_area_ratio >= pa as f64
                    && container.bbox.intersection_area(&part.bbox) as f64
                        >= self.config.part_containment * pa as f64
                    && container.score as f64 >= self.config.part_suppress_ratio * part.score as f64
            })
        });
    }

    /// Aspect ratios to scan: the configured class aspects when available
    /// (deduplicated within 10 %), otherwise the generic list.
    fn scan_aspects_into(&self, out: &mut Vec<f32>) {
        out.clear();
        if self.config.class_aspects.is_empty() {
            out.extend_from_slice(&self.config.aspects);
            return;
        }
        for &(_, a) in &self.config.class_aspects {
            if !out.iter().any(|&b| (a / b).ln().abs() < 0.1) {
                out.push(a);
            }
        }
    }

    /// Runs detection on one image (allocating convenience wrapper over
    /// [`Detector::detect_with_scratch`]).
    pub fn detect(&self, image: &Image) -> Vec<Detection> {
        let mut scratch = DetectorScratch::new();
        self.detect_with_scratch(image, &mut scratch);
        scratch.detections
    }

    /// Runs detection on one image, reusing `scratch` for every buffer.
    /// After warm-up (buffers grown to their working size) this path
    /// performs no heap allocation. Results are identical to
    /// [`Detector::detect`].
    pub fn detect_with_scratch<'s>(
        &self,
        image: &Image,
        scratch: &'s mut DetectorScratch,
    ) -> &'s [Detection] {
        let DetectorScratch { maps, features, detections, nms, boosted, aspects, stats } = scratch;
        maps.recompute(image, features);
        self.scan_aspects_into(aspects);
        let candidates = detections;
        self.scan_windows(maps, aspects, candidates, stats);
        // Bound the candidate set (top scores) so the n² grouping and NMS
        // stay tractable on busy scenes, then dedup, group, suppress.
        const MAX_CANDIDATES: usize = 4000;
        if candidates.len() > MAX_CANDIDATES {
            sort_by_score_desc(candidates, &mut nms.order, &mut nms.spill);
            candidates.truncate(MAX_CANDIDATES);
        }
        nms_in_place(candidates, 0.8, nms);
        self.group_parts_in_place(candidates, &mut nms.spill, boosted);
        nms_in_place(candidates, self.config.nms_iou, nms);
        candidates.truncate(self.config.max_detections);
        for det in candidates.iter_mut() {
            det.class = self.classify(det.bbox);
        }
        candidates
    }

    /// The window scan: every scale of the progression × every aspect ×
    /// every stride position, through the flat-region gate, the score
    /// filter and the exact score. Fills `candidates` (in scan order)
    /// with the windows whose exact score clears the threshold, and
    /// `stats` with the frame's work counts.
    // lint: zero-alloc
    fn scan_windows(
        &self,
        maps: &FeatureMaps,
        aspects: &[f32],
        candidates: &mut Vec<Detection>,
        stats: &mut ScanStats,
    ) {
        let (iw, ih) = (maps.width(), maps.height());
        let gate = maps.luma_gate(self.config.stddev_gate * self.config.cue_scales[0]);
        let filter = ScoreFilter::new(&self.config, iw, ih, maps.magnitude());
        let threshold = self.config.score_threshold;
        candidates.clear();
        *stats = ScanStats::default();
        let mut h = (self.config.min_object_h as f64).max(self.config.min_object_frac * ih as f64);
        let max_h = self.config.max_object_frac * ih as f64;
        while h <= max_h {
            let wh = h as u32;
            for &aspect in aspects {
                let ww = ((h * aspect as f64) as u32).max(2);
                if ww >= iw || wh >= ih || wh < 2 {
                    continue;
                }
                let stride = ((h * self.config.stride_frac) as u32).max(1);
                let ring = ((h * self.config.ring_frac) as u32).max(1);
                let rows = (ih - wh) / stride + 1;
                let cols = (iw - ww) / stride + 1;
                stats.gate_tests += u64::from(rows) * u64::from(cols);
                let plan = filter.as_ref().and_then(|f| f.plan(ww, wh, ring));
                // Windows at columns `ring..=right_x` keep their left and
                // right rings inside the image (none when `right_x < ring`).
                let right_x = iw.saturating_sub(ww + ring);
                let mut y = 0;
                while y + wh <= ih {
                    let row = match &plan {
                        Some(plan) if ring <= y && y + wh + ring <= ih => {
                            Some((plan, maps.interior_row(y, ww, wh, ring)))
                        }
                        _ => None,
                    };
                    // The gate runs over hoisted table rows; only passing
                    // windows are scored, and only those the filter cannot
                    // rule out pay for the exact score.
                    maps.scan_row_gated(y, ww, wh, stride, gate, |x, mean, var| {
                        stats.gate_passed += 1;
                        if let Some((plan, row)) = &row {
                            if (ring..=right_x).contains(&x)
                                && plan.rejects(maps, row, x, mean, var)
                            {
                                stats.filtered += 1;
                                return;
                            }
                        }
                        stats.verified += 1;
                        let rect = Rect::new(x, y, ww, wh);
                        let score = self.score(&maps.window_with_moments(rect, ring, mean, var));
                        if score > threshold {
                            stats.candidates += 1;
                            candidates.push(Detection {
                                class: 0,
                                bbox: rect,
                                score: score as f32,
                            });
                        }
                    });
                    y += stride;
                }
            }
            // A progression that stops growing (a degenerate `scale_step`
            // or starting height) ends after its first scale.
            let next = h * self.config.scale_step;
            if !(next > h) {
                break;
            }
            h = next;
        }
    }

    /// Grid-searches `thresholds` for the best mAP on a calibration set and
    /// installs the winner. Returns `(best threshold, best mAP)`.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` is empty or the slices disagree in length.
    pub fn calibrate_threshold(
        &mut self,
        images: &[Image],
        ground_truths: &[Vec<GroundTruth>],
        thresholds: &[f64],
        iou_threshold: f64,
    ) -> (f64, f64) {
        assert!(!thresholds.is_empty(), "need at least one candidate threshold");
        assert_eq!(images.len(), ground_truths.len());
        // Detect once at the most permissive threshold, then re-filter.
        let min_thr = thresholds.iter().cloned().fold(f64::INFINITY, f64::min);
        let saved = self.config.score_threshold;
        self.config.score_threshold = min_thr;
        let mut scratch = DetectorScratch::new();
        let raw: Vec<Vec<Detection>> =
            images.iter().map(|img| self.detect_with_scratch(img, &mut scratch).to_vec()).collect();
        self.config.score_threshold = saved;

        let mut best = (thresholds[0], -1.0);
        for &thr in thresholds {
            let filtered: Vec<Vec<Detection>> = raw
                .iter()
                .map(|dets| dets.iter().filter(|d| d.score as f64 >= thr).copied().collect())
                .collect();
            let result = evaluate(&filtered, ground_truths, iou_threshold);
            if result.map > best.1 {
                best = (thr, result.map);
            }
        }
        self.config.score_threshold = best.0;
        best
    }
}

/// The division-free twin of [`Detector::score`] used to drop windows
/// that cannot clear the threshold, with the frame's rejection bound.
#[derive(Debug, Clone, Copy)]
struct ScoreFilter {
    weights: [f64; 5],
    /// `1 / (w_sd + w_tx + w_ct + w_sat)`.
    inv_weight_sum: f64,
    /// `1 / cue_scales[0]`, `1 / cue_scales[2]`.
    inv_sd: f64,
    inv_ct: f64,
    cue_scales: [f64; 4],
    fill_norm: f64,
    /// A window whose approximate score is below this has an exact score
    /// at or below the threshold.
    reject_below: f64,
    /// `w_ct >= 0` and a positive weight sum: the score is monotone
    /// non-decreasing in the contrast cue (see [`FilterPlan::rejects`]).
    contrast_bounded: bool,
}

impl ScoreFilter {
    /// The filter for `config` on a `width × height` image whose cue
    /// rasters are bounded by `magnitude` (`>= 1`, see
    /// `FeatureMaps::magnitude`), or `None` when no finite bound exists —
    /// then every window is scored exactly.
    ///
    /// # The guard
    ///
    /// Write `u = 2^-53` and `C = max(1, 2·magnitude / n_min)`, where
    /// `n_min` is the smallest of the four cue scales and `fill_norm`.
    /// Both scorers read the same table sums; they differ only in
    /// dividing (exact) versus multiplying by a hoisted reciprocal
    /// (approximate), and in summation order. While
    /// `(width + height)·width·height <= 2^49` the summed-area tables'
    /// own rounding keeps every finite window or ring mean within
    /// `2·magnitude`, so each pre-clamp cue is bounded by `C` (contrast,
    /// a difference of two means, by `2C`), and:
    ///
    /// * per cue, the exact value carries at most 2 roundings of relative
    ///   error `u` per quotient, the approximate one at most 3 (the
    ///   reciprocal of a rounded product, then the product); contrast
    ///   adds the subtraction, ring texture its 4-term sum. The worst
    ///   case (contrast) is `26·u·magnitude / n_ct <= 13·u·C`, and
    ///   `min(·, 1)` is 1-Lipschitz, so every clamped cue differs by at
    ///   most `δ = 32·u·C`;
    /// * the weighted 4-term sums differ by `Σ|w_i|·δ` plus at most
    ///   `4·u·Σ|w_i|·C` of rounding each, and the division versus the
    ///   reciprocal product adds `3·u` relative: with
    ///   `P = Σ|w_i|·C / |W|` (`W` the weight sum) the positive parts
    ///   differ by at most `44·u·P`;
    /// * `P·fill − w_ring·ring` then differs by at most
    ///   `P·δ + C·44·u·P + |w_ring|·δ`, plus `2·u` relative rounding per
    ///   product and subtraction in each scorer: in all at most
    ///   `80·u·C²·(Σ|w_i| / |W| + |w_ring|)` (using `C >= 1`).
    ///
    /// The guard is 256 in place of 80, plus `2·u·|threshold|`: a window
    /// is dropped when its approximate score is below
    /// `reject_below = threshold − guard`, and then its exact pre-clamp
    /// score is below `threshold` even after the one rounding that forms
    /// `reject_below`. `max(·, 0)` keeps the exact score at or below a
    /// threshold `>= 0`; a negative threshold turns the filter off.
    /// Subnormal results carry an absolute error of at most `2^-1074`
    /// per operation, far below the guard's `256·u` floor. A NaN
    /// approximate score compares false and is never dropped. The same
    /// bound covers the first stage of [`FilterPlan::rejects`], where
    /// both scorers take the contrast cue as the constant 1. With the
    /// default config on a `[0, 1]` image the guard is ~7e-11.
    fn new(config: &DetectorConfig, width: u32, height: u32, magnitude: f64) -> Option<Self> {
        let [w_sd, w_tx, w_ct, w_sat, w_ring] = config.weights;
        let [n_sd, n_tx, n_ct, n_sat] = config.cue_scales;
        let scales = [n_sd, n_tx, n_ct, n_sat, config.fill_norm];
        let (w, h) = (u128::from(width), u128::from(height));
        if (w + h) * w * h > 1 << 49
            || !scales.iter().all(|&n| n.is_finite() && n > 0.0)
            || !config.weights.iter().all(|w| w.is_finite())
        {
            return None;
        }
        let n_min = scales.into_iter().fold(f64::INFINITY, f64::min);
        let c = (2.0 * magnitude / n_min).max(1.0);
        let weight_sum = w_sd + w_tx + w_ct + w_sat;
        let weight_abs = w_sd.abs() + w_tx.abs() + w_ct.abs() + w_sat.abs();
        let threshold = config.score_threshold;
        let guard = 256.0 * UNIT_ROUNDOFF * c * c * (weight_abs / weight_sum.abs() + w_ring.abs())
            + 2.0 * UNIT_ROUNDOFF * threshold.abs();
        let filter = Self {
            weights: config.weights,
            inv_weight_sum: 1.0 / weight_sum,
            inv_sd: 1.0 / n_sd,
            inv_ct: 1.0 / n_ct,
            cue_scales: config.cue_scales,
            fill_norm: config.fill_norm,
            reject_below: threshold - guard,
            contrast_bounded: w_ct >= 0.0 && weight_sum > 0.0,
        };
        let finite = guard.is_finite() && filter.reject_below.is_finite();
        let normal =
            [filter.inv_weight_sum, filter.inv_sd, filter.inv_ct].iter().all(|r| r.is_normal());
        (threshold >= 0.0 && finite && normal).then_some(filter)
    }

    /// The reciprocals of one `ww × wh` window geometry with `ring`-wide
    /// contrast rings, hoisted out of its scan rows; `None` when one of
    /// them is not a normal number.
    fn plan(&self, ww: u32, wh: u32, ring: u32) -> Option<FilterPlan> {
        let area = (ww as u64 * wh as u64) as f64;
        let top_bottom = (ww as u64 * ring as u64) as f64;
        let left_right = (ring as u64 * wh as u64) as f64;
        let [_, n_tx, _, n_sat] = self.cue_scales;
        let plan = FilterPlan {
            filter: *self,
            texture: 1.0 / (area * n_tx),
            saturation: 1.0 / (area * n_sat),
            fill: 1.0 / (area * self.fill_norm),
            side_top_bottom: 1.0 / top_bottom,
            side_left_right: 1.0 / left_right,
            ring_top_bottom: 1.0 / (4.0 * top_bottom * n_tx),
            ring_left_right: 1.0 / (4.0 * left_right * n_tx),
        };
        let reciprocals = [
            plan.texture,
            plan.saturation,
            plan.fill,
            plan.side_top_bottom,
            plan.side_left_right,
            plan.ring_top_bottom,
            plan.ring_left_right,
        ];
        reciprocals.iter().all(|r| r.is_normal()).then_some(plan)
    }
}

/// A [`ScoreFilter`] with the reciprocals of one window geometry.
#[derive(Debug, Clone, Copy)]
struct FilterPlan {
    filter: ScoreFilter,
    /// `1 / (area · cue_scales[1])`.
    texture: f64,
    /// `1 / (area · cue_scales[3])`.
    saturation: f64,
    /// `1 / (area · fill_norm)`.
    fill: f64,
    /// `1 / area` of the top and bottom rings, then of the left and right.
    side_top_bottom: f64,
    side_left_right: f64,
    /// `1 / (4 · ring area · cue_scales[1])`, top/bottom then left/right.
    ring_top_bottom: f64,
    ring_left_right: f64,
}

impl FilterPlan {
    /// Whether the interior window at column `x` of `row`, with exact
    /// luminance `mean` and `var`, provably scores at or below the
    /// threshold.
    ///
    /// Runs in two stages when the contrast weight is non-negative and
    /// the weight sum positive: the score with the contrast cue at its
    /// ceiling of 1 needs neither ring luminance sum nor contrast
    /// arithmetic, and bounds the true score from above — every
    /// correctly rounded operation of [`Detector::score`] is monotone in
    /// the contrast cue then, so this holds for the computed values too.
    /// Only windows that stage cannot drop pay for the contrast.
    #[inline]
    fn rejects(&self, maps: &FeatureMaps, row: &InteriorRow, x: u32, mean: f64, var: f64) -> bool {
        let sums = maps.interior_sums(row, x);
        let stddev = var.sqrt();
        let reject_below = self.filter.reject_below;
        if self.filter.contrast_bounded && self.approx_score(&sums, stddev, 1.0) < reject_below {
            return true;
        }
        let ct = self.approx_contrast(maps.interior_ring_luma(row, x), mean);
        self.approx_score(&sums, stddev, ct) < reject_below
    }

    /// The clamped contrast cue from the four rings' luminance sums and
    /// the window's exact luminance `mean`, without divisions.
    #[inline]
    fn approx_contrast(&self, ring_luma: [f64; 4], mean: f64) -> f64 {
        let [top, bottom, left, right] = ring_luma;
        let side = |sum: f64, inv_area: f64| (mean - sum * inv_area).abs();
        let contrast = side(top, self.side_top_bottom)
            .min(side(bottom, self.side_top_bottom))
            .min(side(left, self.side_left_right))
            .min(side(right, self.side_left_right));
        (contrast * self.filter.inv_ct).min(1.0)
    }

    /// [`Detector::score`] of an interior window before `max(·, 0)`, from
    /// its raw table sums, exact luminance `stddev` and clamped contrast
    /// cue `ct`, with every division replaced by a product (see
    /// [`ScoreFilter::new`] for how far apart they can be).
    #[inline]
    fn approx_score(&self, sums: &InteriorSums, stddev: f64, ct: f64) -> f64 {
        let [w_sd, w_tx, w_ct, w_sat, w_ring] = self.filter.weights;
        let sd = (stddev * self.filter.inv_sd).min(1.0);
        let tx = (sums.texture * self.texture).min(1.0);
        let sat = (sums.saturation * self.saturation).min(1.0);
        let ring = (sums.ring_grad_top_bottom * self.ring_top_bottom
            + sums.ring_grad_left_right * self.ring_left_right)
            .min(1.0);
        let fill = (sums.fill * self.fill).min(1.0);
        let positive =
            (w_sd * sd + w_tx * tx + w_ct * ct + w_sat * sat) * self.filter.inv_weight_sum;
        positive * fill - w_ring * ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::WindowFeatures;
    use hirise_imaging::{draw, GrayImage, Plane, RgbImage};

    /// One bright, finely textured object on a darker flat background.
    fn blob_image() -> Image {
        let mut plane = Plane::filled(96, 96, 0.35);
        draw::fill_stripes(&mut plane, Rect::new(32, 28, 20, 40), 2, 0.85, 0.15);
        GrayImage::from_plane(plane).into()
    }

    /// A busy deterministic scene: textured and coloured rectangles of
    /// assorted sizes on a mildly noisy background, values in `[0, 1]`
    /// scaled by `gain` and shifted by `offset`.
    fn busy_image(w: u32, h: u32, rgb: bool, seed: u64, gain: f32, offset: f32) -> Image {
        let hash = |x: u32, y: u32, salt: u64| {
            let mut z = seed
                .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(u64::from(x) << 32 | u64::from(y));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32
        };
        let boxes: Vec<(Rect, u32)> = (0..8u64)
            .map(|i| {
                let bw = 4 + (hash(0, 0, 10 + i) * w as f32 * 0.4) as u32;
                let bh = 4 + (hash(0, 0, 20 + i) * h as f32 * 0.5) as u32;
                let x = (hash(0, 0, 30 + i) * w.saturating_sub(bw) as f32) as u32;
                let y = (hash(0, 0, 40 + i) * h.saturating_sub(bh) as f32) as u32;
                (Rect::new(x, y, bw, bh), 1 + (i % 3) as u32)
            })
            .collect();
        let value = move |x: u32, y: u32, c: u64| {
            let mut v = 0.3 + 0.08 * hash(x, y, 100 + c);
            for (i, (r, period)) in boxes.iter().enumerate() {
                if r.contains_point(x, y) {
                    let stripe = ((x + y) / period).is_multiple_of(2);
                    v = if stripe { 0.85 } else { 0.15 } - 0.1 * (i as f32 / 8.0) * c as f32;
                }
            }
            v * gain + offset
        };
        if rgb {
            RgbImage::from_fn(w, h, |x, y| (value(x, y, 0), value(x, y, 1), value(x, y, 2))).into()
        } else {
            GrayImage::from_fn(w, h, |x, y| value(x, y, 0)).into()
        }
    }

    #[test]
    fn rejects_non_advancing_scale_step() {
        for step in [1.0, 0.5, -1.22, f64::NAN, f64::INFINITY] {
            let cfg = DetectorConfig { scale_step: step, ..Default::default() };
            assert!(matches!(cfg.validate(), Err(DetectorConfigError::ScaleStep(_))), "{step}");
        }
        assert!(DetectorConfig { scale_step: 1.0001, ..Default::default() }.validate().is_ok());
    }

    #[test]
    fn rejects_zero_start_height() {
        for frac in [0.0, -0.1, f64::NAN] {
            let cfg =
                DetectorConfig { min_object_h: 0, min_object_frac: frac, ..Default::default() };
            assert_eq!(cfg.validate(), Err(DetectorConfigError::ZeroStartHeight), "{frac}");
        }
        let cfg = DetectorConfig { min_object_h: 0, min_object_frac: 0.05, ..Default::default() };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn rejects_non_positive_cue_scales() {
        for index in 0..4 {
            for value in [0.0, -0.2, f64::NAN, f64::INFINITY] {
                let mut cfg = DetectorConfig::default();
                cfg.cue_scales[index] = value;
                let err = cfg.validate().unwrap_err();
                assert!(
                    matches!(err, DetectorConfigError::CueScale { index: i, .. } if i == index),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn rejects_non_positive_fill_norm() {
        for value in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = DetectorConfig { fill_norm: value, ..Default::default() };
            assert!(matches!(cfg.validate(), Err(DetectorConfigError::FillNorm(_))), "{value}");
        }
    }

    #[test]
    fn rejects_non_positive_stride_frac() {
        for value in [0.0, -0.18, f64::NAN, f64::INFINITY] {
            let cfg = DetectorConfig { stride_frac: value, ..Default::default() };
            assert!(matches!(cfg.validate(), Err(DetectorConfigError::StrideFrac(_))), "{value}");
        }
    }

    #[test]
    fn rejects_empty_aspect_list() {
        let cfg = DetectorConfig { aspects: Vec::new(), ..Default::default() };
        assert_eq!(cfg.validate(), Err(DetectorConfigError::NoAspects));
        // Class aspects alone still give the scan something to do.
        let cfg = DetectorConfig { class_aspects: vec![(0, 0.5)], ..cfg };
        assert!(cfg.validate().is_ok());
        assert!(DetectorConfig::default().validate().is_ok());
    }

    #[test]
    fn degenerate_configs_terminate() {
        // Each of these used to spin forever in the scale loop.
        let img: Image = GrayImage::from_fn(64, 64, |x, y| ((x ^ y) % 5) as f32 / 4.0).into();
        let degenerate = [
            DetectorConfig { min_object_h: 0, ..Default::default() },
            DetectorConfig { scale_step: 1.0, ..Default::default() },
            DetectorConfig { scale_step: 0.5, ..Default::default() },
            DetectorConfig { min_object_h: 0, min_object_frac: f64::NAN, ..Default::default() },
            DetectorConfig { max_object_frac: f64::INFINITY, ..Default::default() },
        ];
        for cfg in degenerate {
            let mut scratch = DetectorScratch::new();
            Detector::new(cfg.clone()).detect_with_scratch(&img, &mut scratch);
            let stats = scratch.scan_stats();
            assert_eq!(stats.gate_passed, stats.filtered + stats.verified, "{cfg:?}");
        }
    }

    /// Gate tests of one frame, from the scan geometry alone.
    fn closed_form_gate_tests(cfg: &DetectorConfig, aspects: &[f32], iw: u32, ih: u32) -> u64 {
        let mut h = (cfg.min_object_h as f64).max(cfg.min_object_frac * ih as f64);
        let mut total = 0u64;
        while h <= cfg.max_object_frac * ih as f64 {
            let wh = h as u32;
            for &a in aspects {
                let ww = ((h * a as f64) as u32).max(2);
                if ww < iw && wh < ih && wh >= 2 {
                    let stride = ((h * cfg.stride_frac) as u32).max(1);
                    total += u64::from((iw - ww) / stride + 1) * u64::from((ih - wh) / stride + 1);
                }
            }
            h *= cfg.scale_step;
        }
        total
    }

    #[test]
    fn scan_stats_match_closed_forms() {
        let configs = [
            DetectorConfig::default(),
            DetectorConfig { score_threshold: 0.05, ..Default::default() },
            DetectorConfig {
                class_aspects: vec![(0, 0.4), (1, 0.42), (3, 1.9)],
                min_object_frac: 0.1,
                ..Default::default()
            },
        ];
        let mut scratch = DetectorScratch::new();
        for (i, cfg) in configs.iter().enumerate() {
            let detector = Detector::new(cfg.clone());
            let mut aspects = Vec::new();
            detector.scan_aspects_into(&mut aspects);
            for (w, h, rgb) in [(160, 120, true), (97, 61, false), (24, 40, true)] {
                let img = busy_image(w, h, rgb, i as u64, 1.0, 0.0);
                let dets = detector.detect_with_scratch(&img, &mut scratch).len();
                let stats = scratch.scan_stats();
                assert_eq!(stats.gate_tests, closed_form_gate_tests(cfg, &aspects, w, h));
                assert_eq!(stats.gate_passed, stats.filtered + stats.verified);
                assert!(stats.candidates <= stats.verified);
                assert!(dets as u64 <= stats.candidates);
            }
            // The busy scene exercises every branch of the scan.
            detector.detect_with_scratch(&busy_image(160, 120, true, 7, 1.0, 0.0), &mut scratch);
            let stats = scratch.scan_stats();
            assert!(stats.gate_passed < stats.gate_tests && stats.filtered > 0, "{stats:?}");
            assert!(stats.candidates > 0 || cfg.score_threshold > 0.1, "{stats:?}");
        }
    }

    #[test]
    fn filter_error_stays_inside_its_bound() {
        // The approximate score of every interior gated window lies within
        // the derived 80·u·C²·(Σ|w|/|W| + |w_ring|) of the exact one, on
        // images inside and well outside `[0, 1]`.
        let cases = [(1.0, 0.0, true), (1.0, 0.0, false), (6.0, -2.5, true), (40.0, 3.0, false)];
        let cfg = DetectorConfig { score_threshold: 0.05, ..Default::default() };
        let detector = Detector::new(cfg.clone());
        let mut checked = 0u64;
        for (seed, &(gain, offset, rgb)) in cases.iter().enumerate() {
            let img = busy_image(120, 90, rgb, seed as u64, gain, offset);
            let maps = FeatureMaps::new(&img);
            let (iw, ih) = (maps.width(), maps.height());
            let filter = ScoreFilter::new(&cfg, iw, ih, maps.magnitude()).expect("finite guard");
            let n_min = cfg.cue_scales.iter().fold(cfg.fill_norm, |m, &n| m.min(n));
            let c = (2.0 * maps.magnitude() / n_min).max(1.0);
            let bound = 80.0 * UNIT_ROUNDOFF * c * c * (1.0 + cfg.weights[4].abs());
            let mut worst = 0.0f64;
            for wh in [6u32, 11, 23, 40] {
                for ww in [4u32, 9, 17, 45] {
                    let ring = ((wh as f64 * cfg.ring_frac) as u32).max(1);
                    let plan = filter.plan(ww, wh, ring).expect("normal reciprocals");
                    for y in ring..=ih.saturating_sub(wh + ring) {
                        let row = maps.interior_row(y, ww, wh, ring);
                        maps.scan_row_gated(
                            y,
                            ww,
                            wh,
                            1,
                            maps.luma_gate(f64::NEG_INFINITY),
                            |x, mean, var| {
                                if x < ring || x + ww + ring > iw {
                                    return;
                                }
                                let rect = Rect::new(x, y, ww, wh);
                                let f = maps.window(rect, ring);
                                let sums = maps.interior_sums(&row, x);
                                let ct =
                                    plan.approx_contrast(maps.interior_ring_luma(&row, x), mean);
                                let approx = plan.approx_score(&sums, var.sqrt(), ct);
                                let exact = detector.score(&f);
                                worst = worst.max((approx.max(0.0) - exact).abs());
                                // The first stage: contrast at its ceiling of 1
                                // bounds the exact score from above.
                                let ceiling = WindowFeatures { contrast: cfg.cue_scales[2], ..f };
                                let exact_ceiling = detector.score(&ceiling);
                                assert!(exact <= exact_ceiling);
                                let stage = plan.approx_score(&sums, var.sqrt(), 1.0);
                                worst = worst.max((stage.max(0.0) - exact_ceiling).abs());
                                checked += 1;
                            },
                        );
                    }
                }
            }
            assert!(worst <= bound, "gain {gain}: error {worst:e} over bound {bound:e}");
        }
        assert!(checked > 10_000, "{checked}");
    }

    #[test]
    fn filter_turns_off_without_a_finite_bound() {
        let base = DetectorConfig::default();
        assert!(ScoreFilter::new(&base, 320, 240, 1.0).is_some());
        assert!(ScoreFilter::new(&base, 320, 240, f64::INFINITY).is_none());
        assert!(ScoreFilter::new(&base, 320, 240, 1e160).is_none());
        assert!(ScoreFilter::new(&base, 1 << 20, 1 << 20, 1.0).is_none());
        let off = [
            DetectorConfig { score_threshold: -0.1, ..base.clone() },
            DetectorConfig { score_threshold: f64::NAN, ..base.clone() },
            DetectorConfig { weights: [1.0, -1.0, 0.5, -0.5, 0.8], ..base.clone() },
            DetectorConfig { weights: [f64::INFINITY, 1.3, 1.1, 0.7, 0.8], ..base.clone() },
            DetectorConfig { cue_scales: [0.16, 0.0, 0.13, 0.35], ..base.clone() },
            DetectorConfig { fill_norm: f64::NAN, ..base.clone() },
        ];
        for cfg in off {
            assert!(ScoreFilter::new(&cfg, 320, 240, 1.0).is_none(), "{cfg:?}");
        }
        // Scans still run (exactly) under such configs.
        let img = busy_image(64, 48, true, 3, 1.0, 0.0);
        let detector =
            Detector::new(DetectorConfig { weights: [1.0, -1.0, 0.5, -0.5, 0.8], ..base });
        let mut scratch = DetectorScratch::new();
        detector.detect_with_scratch(&img, &mut scratch);
        assert_eq!(scratch.scan_stats().filtered, 0);
    }

    #[test]
    fn classify_survives_nan_aspect_distances() {
        // A non-positive configured aspect makes the log-distance NaN;
        // the argmin must pick the finite candidate instead of panicking
        // (the old `partial_cmp().expect("aspects are positive")`).
        let config =
            DetectorConfig { class_aspects: vec![(7, -1.0), (3, 1.0)], ..Default::default() };
        let detector = Detector::new(config);
        assert_eq!(detector.classify(Rect::new(0, 0, 10, 10)), 3);
    }

    #[test]
    fn finds_textured_blob() {
        let detector = Detector::default();
        let dets = detector.detect(&blob_image());
        assert!(!dets.is_empty(), "no detections");
        let target = Rect::new(32, 28, 20, 40);
        let best = dets.iter().map(|d| d.bbox.iou(&target)).fold(0.0, f64::max);
        assert!(best > 0.4, "best IoU {best}");
    }

    #[test]
    fn scratch_reuse_matches_fresh_detection() {
        let detector = Detector::default();
        let blob = blob_image();
        let rgb: Image = RgbImage::from_fn(64, 64, |x, y| {
            let on = (24..40).contains(&x) && (20..44).contains(&y);
            if on && (x + y) % 2 == 0 {
                (0.9, 0.4, 0.2)
            } else if on {
                (0.2, 0.2, 0.2)
            } else {
                (0.4, 0.4, 0.4)
            }
        })
        .into();
        let mut scratch = DetectorScratch::new();
        // Alternate image sizes and colour modes through one scratch.
        for img in [&blob, &rgb, &blob, &rgb] {
            let with_scratch = detector.detect_with_scratch(img, &mut scratch).to_vec();
            assert_eq!(with_scratch, detector.detect(img));
            assert_eq!(scratch.detections(), with_scratch.as_slice());
        }
    }

    #[test]
    fn flat_image_yields_nothing() {
        let detector = Detector::default();
        let img: Image = GrayImage::from_fn(96, 96, |_, _| 0.5).into();
        assert!(detector.detect(&img).is_empty());
    }

    #[test]
    fn detection_count_capped() {
        let cfg = DetectorConfig {
            max_detections: 3,
            score_threshold: 0.0, // everything passes
            ..Default::default()
        };
        let detector = Detector::new(cfg);
        let dets = detector.detect(&blob_image());
        assert!(dets.len() <= 3);
    }

    #[test]
    fn saturated_color_raises_score_in_rgb_mode() {
        // Same geometry and identical mean luminance (0.55): the saturated
        // variant differs only in the colour cue.
        let mk = |saturated: bool| -> Image {
            let mut img = RgbImage::from_fn(96, 96, |_, _| (0.35, 0.35, 0.35));
            let color = if saturated { (0.95, 0.5, 0.2) } else { (0.55, 0.55, 0.55) };
            draw::fill_rect_rgb(&mut img, Rect::new(36, 30, 20, 36), color);
            img.into()
        };
        let cfg = DetectorConfig { score_threshold: 0.05, ..Default::default() };
        let detector = Detector::new(cfg);
        let top = |img: &Image| detector.detect(img).iter().map(|d| d.score).fold(0.0f32, f32::max);
        assert!(top(&mk(true)) > top(&mk(false)));
    }

    #[test]
    fn classification_by_aspect() {
        let cfg = DetectorConfig { class_aspects: vec![(0, 0.4), (3, 1.9)], ..Default::default() };
        let detector = Detector::new(cfg);
        assert_eq!(detector.classify(Rect::new(0, 0, 10, 25)), 0); // tall
        assert_eq!(detector.classify(Rect::new(0, 0, 40, 20)), 3); // wide
    }

    #[test]
    fn empty_class_list_reports_class_zero() {
        let detector = Detector::default();
        assert_eq!(detector.classify(Rect::new(0, 0, 50, 10)), 0);
    }

    #[test]
    fn calibration_picks_threshold_maximising_map() {
        let img = blob_image();
        let gts = vec![vec![GroundTruth { class: 0, bbox: Rect::new(32, 28, 20, 40) }]];
        let mut detector = Detector::default();
        let (thr, map) = detector.calibrate_threshold(
            std::slice::from_ref(&img),
            &gts,
            &[0.1, 0.3, 0.5, 0.7, 0.9],
            0.4,
        );
        assert!(map > 0.3, "calibrated mAP {map}");
        assert_eq!(detector.config().score_threshold, thr);
    }

    #[test]
    fn small_objects_vanish_at_low_resolution() {
        // The Table-2 mechanism: pool the blob image 4x and the 20x40 object
        // becomes 5x10 with its stripes averaged away; the top IoU-matching
        // score drops.
        use hirise_imaging::ops;
        let img = blob_image();
        let pooled: Image = match &img {
            Image::Gray(g) => ops::avg_pool_gray(g, 4).unwrap().into(),
            Image::Rgb(_) => unreachable!(),
        };
        // Zero part-boost: containment boosts would obscure the
        // texture-loss effect under comparison here.
        let cfg = DetectorConfig {
            score_threshold: 0.05,
            min_object_h: 4,
            part_boost: 0.0,
            ..Default::default()
        };
        let detector = Detector::new(cfg);
        let score_at = |image: &Image, target: Rect| -> f32 {
            detector
                .detect(image)
                .iter()
                .filter(|d| d.bbox.iou(&target) > 0.3)
                .map(|d| d.score)
                .fold(0.0f32, f32::max)
        };
        let hi = score_at(&img, Rect::new(32, 28, 20, 40));
        let lo = score_at(&pooled, Rect::new(8, 7, 5, 10));
        assert!(hi > lo, "texture loss did not reduce score: hi={hi} lo={lo}");
    }
}
