//! Detector scan exactness: the filter-and-verify window scan against a
//! frozen reference that scores every gated window exactly.
//!
//! The reference below is a frozen copy of the detector as it was before
//! the score filter: the same scale/aspect/stride loop, the stddev gate
//! through `FeatureMaps::luma_stddev`, every gated window through
//! `FeatureMaps::window` and a copy of the score formula, then the same
//! candidate cap, NMS, part grouping and classification. The detector
//! must reproduce its output bit for bit (`bbox`, `class`,
//! `score.to_bits()`) on every configuration the repository ships, on RGB
//! and gray inputs, at sizes whose windows touch every border — including
//! images smaller than the largest window.
//!
//! Most windows score far from the threshold, where any bounded filter
//! error is invisible. The tie cases therefore set the threshold *at* and
//! just *below* the exact score of the best-scoring windows whose four
//! contrast rings lie inside the image (the windows the filter sees): a
//! filter that drops a window it must keep, or a candidate scored by the
//! approximation instead of the exact formula, changes the output there.

use hirise::HiriseConfig;
use hirise_bench::{scenario, table2, video};
use hirise_detect::eval::Detection;
use hirise_detect::nms::{nms_in_place, sort_by_score_desc, NmsScratch};
use hirise_detect::{Detector, DetectorConfig, DetectorScratch, FeatureMaps};
use hirise_imaging::{color, Image, Rect};
use hirise_scene::{DatasetSpec, SceneGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One gated window of the reference scan with its exact `f64` score.
#[derive(Debug, Clone, Copy)]
struct Scored {
    bbox: Rect,
    score: f64,
    /// All four contrast rings lie inside the image.
    interior: bool,
}

fn reference_score(cfg: &DetectorConfig, f: &hirise_detect::features::WindowFeatures) -> f64 {
    let [w_sd, w_tx, w_ct, w_sat, w_ring] = cfg.weights;
    let [n_sd, n_tx, n_ct, n_sat] = cfg.cue_scales;
    let sd = (f.stddev / n_sd).min(1.0);
    let tx = (f.texture / n_tx).min(1.0);
    let ct = (f.contrast / n_ct).min(1.0);
    let sat = (f.saturation / n_sat).min(1.0);
    let ring = (f.ring_texture / n_tx).min(1.0);
    let fill = (f.fill / cfg.fill_norm).min(1.0);
    let positive = (w_sd * sd + w_tx * tx + w_ct * ct + w_sat * sat) / (w_sd + w_tx + w_ct + w_sat);
    (positive * fill - w_ring * ring).max(0.0)
}

fn reference_aspects(cfg: &DetectorConfig) -> Vec<f32> {
    if cfg.class_aspects.is_empty() {
        return cfg.aspects.clone();
    }
    let mut out: Vec<f32> = Vec::new();
    for &(_, a) in &cfg.class_aspects {
        if !out.iter().any(|&b| (a / b).ln().abs() < 0.1) {
            out.push(a);
        }
    }
    out
}

/// Every window that passes the stddev gate, in scan order, scored
/// exactly.
fn reference_scan(cfg: &DetectorConfig, image: &Image) -> Vec<Scored> {
    let maps = FeatureMaps::new(image);
    let (iw, ih) = (maps.width(), maps.height());
    let sd_gate = cfg.stddev_gate * cfg.cue_scales[0];
    let mut scored = Vec::new();
    let mut h = (cfg.min_object_h as f64).max(cfg.min_object_frac * ih as f64);
    let max_h = cfg.max_object_frac * ih as f64;
    while h <= max_h {
        let wh = h as u32;
        for aspect in reference_aspects(cfg) {
            let ww = ((h * aspect as f64) as u32).max(2);
            if ww >= iw || wh >= ih || wh < 2 {
                continue;
            }
            let stride = ((h * cfg.stride_frac) as u32).max(1);
            let ring = ((h * cfg.ring_frac) as u32).max(1);
            let mut y = 0;
            while y + wh <= ih {
                let mut x = 0;
                while x + ww <= iw {
                    let bbox = Rect::new(x, y, ww, wh);
                    if maps.luma_stddev(bbox) >= sd_gate {
                        let score = reference_score(cfg, &maps.window(bbox, ring));
                        let interior =
                            ring <= x && ring <= y && x + ww + ring <= iw && y + wh + ring <= ih;
                        scored.push(Scored { bbox, score, interior });
                    }
                    x += stride;
                }
                y += stride;
            }
        }
        h *= cfg.scale_step;
    }
    scored
}

fn reference_classify(cfg: &DetectorConfig, bbox: Rect) -> usize {
    if cfg.class_aspects.is_empty() {
        return 0;
    }
    let aspect = bbox.w as f32 / bbox.h.max(1) as f32;
    cfg.class_aspects
        .iter()
        .min_by(|(_, a), (_, b)| {
            let da = (aspect / a).ln().abs();
            let db = (aspect / b).ln().abs();
            da.total_cmp(&db)
        })
        .map(|(c, _)| *c)
        .expect("non-empty class list")
}

fn reference_group_parts(cfg: &DetectorConfig, dets: &mut Vec<Detection>) {
    if dets.is_empty() {
        return;
    }
    let originals = dets.clone();
    for container in dets.iter_mut() {
        let ca = container.bbox.area();
        if ca == 0 {
            continue;
        }
        let mut boost = 0.0f64;
        for part in &originals {
            let pa = part.bbox.area();
            if pa == 0 || pa as f64 > cfg.part_area_ratio * ca as f64 {
                continue;
            }
            let inter = container.bbox.intersection_area(&part.bbox);
            if inter as f64 >= cfg.part_containment * pa as f64 {
                boost += cfg.part_boost * part.score as f64 * (pa as f64 / ca as f64).sqrt();
            }
        }
        container.score *= 1.0 + boost.min(cfg.part_boost_cap) as f32;
    }
    let boosted = dets.clone();
    dets.retain(|part| {
        let pa = part.bbox.area();
        !boosted.iter().any(|container| {
            let ca = container.bbox.area();
            ca as f64 * cfg.part_area_ratio >= pa as f64
                && container.bbox.intersection_area(&part.bbox) as f64
                    >= cfg.part_containment * pa as f64
                && container.score as f64 >= cfg.part_suppress_ratio * part.score as f64
        })
    });
}

/// The frozen detector: candidates above the threshold from the exact
/// scan, then cap, NMS, part grouping, NMS, truncation, classification.
fn reference_detect(cfg: &DetectorConfig, scored: &[Scored]) -> Vec<Detection> {
    let mut candidates: Vec<Detection> = scored
        .iter()
        .filter(|s| s.score > cfg.score_threshold)
        .map(|s| Detection { class: 0, bbox: s.bbox, score: s.score as f32 })
        .collect();
    let mut nms = NmsScratch::new();
    const MAX_CANDIDATES: usize = 4000;
    if candidates.len() > MAX_CANDIDATES {
        sort_by_score_desc(&mut candidates, &mut nms.order, &mut nms.spill);
        candidates.truncate(MAX_CANDIDATES);
    }
    nms_in_place(&mut candidates, 0.8, &mut nms);
    reference_group_parts(cfg, &mut candidates);
    nms_in_place(&mut candidates, cfg.nms_iou, &mut nms);
    candidates.truncate(cfg.max_detections);
    for det in &mut candidates {
        det.class = reference_classify(cfg, det.bbox);
    }
    candidates
}

fn bits(dets: &[Detection]) -> Vec<(Rect, usize, u32)> {
    dets.iter().map(|d| (d.bbox, d.class, d.score.to_bits())).collect()
}

/// Checks one configuration on one image; returns the number of
/// detections compared.
fn check(cfg: &DetectorConfig, image: &Image, scratch: &mut DetectorScratch, what: &str) -> usize {
    let scored = reference_scan(cfg, image);
    let expected = reference_detect(cfg, &scored);
    let got = Detector::new(cfg.clone()).detect_with_scratch(image, scratch).to_vec();
    assert_eq!(bits(&got), bits(&expected), "{what}: threshold {}", cfg.score_threshold);
    let stats = scratch.scan_stats();
    assert_eq!(stats.gate_passed, scored.len() as u64, "{what}");
    let above = scored.iter().filter(|s| s.score > cfg.score_threshold).count();
    assert_eq!(stats.candidates, above as u64, "{what}");
    expected.len()
}

/// Thresholds at and just below the exact scores of the `n` best
/// interior windows (distinct scores).
fn tie_thresholds(scored: &[Scored], n: usize) -> Vec<f64> {
    let mut best: Vec<f64> = scored.iter().filter(|s| s.interior).map(|s| s.score).collect();
    best.sort_by(|a, b| b.total_cmp(a));
    best.dedup();
    best.iter().take(n).flat_map(|&s| [s, s.next_down()]).filter(|&t| t >= 0.0).collect()
}

/// Seeded scenes of `spec` at `w × h`, as RGB and gray detector inputs.
fn scenes(spec: &DatasetSpec, w: u32, h: u32, count: usize, seed: u64) -> Vec<(Image, String)> {
    let generator = SceneGenerator::new(spec.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for i in 0..count {
        let rgb: Image = generator.generate(w, h, &mut rng).image.into();
        let gray: Image = color::to_gray(&rgb).into();
        out.push((rgb, format!("{} {w}x{h} #{i} rgb", spec.name)));
        out.push((gray, format!("{} {w}x{h} #{i} gray", spec.name)));
    }
    out
}

/// Sizes whose windows touch every border: odd sizes, a pooled VGA
/// frame, and images smaller than the largest window.
const SIZES: [(u32, u32); 5] = [(160, 120), (97, 73), (48, 36), (21, 15), (9, 7)];

fn shipped_configs() -> Vec<(String, DetectorConfig)> {
    let mut configs = vec![
        ("default".to_string(), DetectorConfig::default()),
        (
            "threshold 0.05".to_string(),
            DetectorConfig { score_threshold: 0.05, ..Default::default() },
        ),
    ];
    for spec in DatasetSpec::paper_presets() {
        configs.push((format!("table2 {}", spec.name), table2::detector_for(&spec)));
    }
    configs.push((
        "video".to_string(),
        video::pipeline_config(&video::VideoBenchConfig::default()).detector,
    ));
    configs
}

#[test]
fn every_shipped_config_validates() {
    for (name, cfg) in shipped_configs() {
        assert_eq!(cfg.validate(), Ok(()), "{name}");
    }
    for config in scenario::scenario_matrix() {
        let built: HiriseConfig = scenario::pipeline_config(&config);
        assert_eq!(built.detector.validate(), Ok(()), "scenario {}", config.scenario);
    }
}

#[test]
fn scan_matches_the_frozen_reference_on_every_shipped_config() {
    let mut scratch = DetectorScratch::new();
    let mut compared = 0usize;
    let specs = DatasetSpec::paper_presets();
    for (c, (name, cfg)) in shipped_configs().into_iter().enumerate() {
        for (s, &(w, h)) in SIZES.iter().enumerate() {
            let spec = &specs[(c + s) % specs.len()];
            for (image, what) in scenes(spec, w, h, 1, (c * 31 + s) as u64) {
                compared += check(&cfg, &image, &mut scratch, &format!("{name}, {what}"));
            }
        }
    }
    assert!(compared > 100, "only {compared} detections compared");
}

#[test]
fn scan_matches_the_frozen_reference_at_tie_thresholds() {
    // Thresholds sitting exactly on (and one ulp under) interior-window
    // scores: the only place a filter error could surface.
    let mut scratch = DetectorScratch::new();
    let mut ties = 0usize;
    let base = [DetectorConfig::default(), table2::detector_for(&DatasetSpec::visdrone_like())];
    for (c, cfg) in base.iter().enumerate() {
        for spec in DatasetSpec::paper_presets() {
            for &(w, h) in &SIZES[..3] {
                for (image, what) in scenes(&spec, w, h, 2, 1000 + c as u64) {
                    let scored = reference_scan(cfg, &image);
                    for threshold in tie_thresholds(&scored, 2) {
                        let cfg = DetectorConfig { score_threshold: threshold, ..cfg.clone() };
                        check(&cfg, &image, &mut scratch, &what);
                        ties += 1;
                    }
                }
            }
        }
    }
    assert!(ties > 100, "only {ties} tie thresholds");
}
