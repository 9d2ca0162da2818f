//! Golden-output regression tests (verification layer 5).
//!
//! The `table1` and `fig7` computations are re-run in-process at the
//! paper's reference points and compared against small committed CSVs
//! under `tests/goldens/`. Integer counters (bits, bytes, conversions,
//! box counts) must match **exactly**; floating-point columns (area
//! fractions, reduction factors) get a tight relative tolerance.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test goldens
//! ```
//!
//! then commit the rewritten CSVs and re-run without the variable.

use std::fmt::Write as _;
use std::path::Path;

use hirise::analytical::AnalyticalModel;
use hirise::{HiriseConfig, HirisePipeline, Rect};
use hirise_bench::stats::DatasetRoiStats;
use hirise_energy::{ColorChannels, SystemParams};
use hirise_imaging::{draw, RgbImage};
use hirise_scene::{DatasetSpec, ObjectClass};

/// Relative tolerance for floating-point golden columns.
const FLOAT_RTOL: f64 = 1e-9;

/// Compares `produced` against the committed golden, or rewrites the
/// golden when `UPDATE_GOLDENS` is set. Integer cells compare exactly;
/// cells containing `.` compare as floats within [`FLOAT_RTOL`].
fn check_golden(name: &str, produced: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("goldens dir has a parent")).unwrap();
        std::fs::write(&path, produced).unwrap();
        println!("rewrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1 cargo test --test goldens",
            path.display()
        )
    });
    let (g_lines, p_lines): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), produced.lines().collect());
    assert_eq!(
        g_lines.len(),
        p_lines.len(),
        "{name}: line count changed (golden {} vs produced {})",
        g_lines.len(),
        p_lines.len()
    );
    for (ln, (g, p)) in g_lines.iter().zip(&p_lines).enumerate() {
        let (g_cells, p_cells): (Vec<&str>, Vec<&str>) =
            (g.split(',').collect(), p.split(',').collect());
        assert_eq!(g_cells.len(), p_cells.len(), "{name}:{}: column count changed", ln + 1);
        for (col, (gc, pc)) in g_cells.iter().zip(&p_cells).enumerate() {
            let is_float = gc.contains('.');
            if is_float {
                let (gv, pv): (f64, f64) = (
                    gc.parse()
                        .unwrap_or_else(|_| panic!("{name}:{}: bad golden float {gc}", ln + 1)),
                    pc.parse()
                        .unwrap_or_else(|_| panic!("{name}:{}: bad produced float {pc}", ln + 1)),
                );
                let tol = FLOAT_RTOL * gv.abs().max(1.0);
                assert!(
                    (gv - pv).abs() <= tol,
                    "{name}:{}:{}: float drifted: golden {gv} vs produced {pv}",
                    ln + 1,
                    col + 1
                );
            } else {
                assert_eq!(gc, pc, "{name}:{}:{}: exact cell changed", ln + 1, col + 1);
            }
        }
    }
}

/// The 16 Table-3-style head ROIs the `table1` binary evaluates at the
/// paper's reference configuration.
fn table1_rois() -> Vec<Rect> {
    (0..16)
        .map(|i| Rect::new(150 * (i as u32 % 8) + 40, 300 + 400 * (i as u32 / 8), 112, 112))
        .collect()
}

#[test]
fn table1_reference_point_matches_golden() {
    let config = HiriseConfig::paper_reference();
    let rois = table1_rois();
    let model = AnalyticalModel::new(&config, &rois);

    let mut csv =
        String::from("system,transfer_s2p_bits,transfer_p2s_bits,memory_bytes,conversions\n");
    for b in [model.conventional(), model.stage1(), model.stage2(), model.hirise()] {
        writeln!(
            csv,
            "{},{},{},{},{}",
            b.label, b.transfer_bits_s2p, b.transfer_bits_p2s, b.memory_bytes, b.conversions
        )
        .unwrap();
    }
    writeln!(
        csv,
        "reductions,{:.6},{:.6},{:.6},{}",
        model.transfer_reduction(),
        model.memory_reduction(),
        model.conversion_reduction(),
        model.satisfies_paper_conditions()
    )
    .unwrap();
    check_golden("table1.csv", &csv);
}

#[test]
fn fig7_transfer_table_matches_golden() {
    // Same measurement as the fig7 binary's --quick configuration.
    let stats = DatasetRoiStats::measure(
        &DatasetSpec::crowdhuman_like(),
        Some(ObjectClass::Person),
        8,
        0xF167,
    );
    let mut csv = String::from("dataset,boxes,sum_area_frac,union_area_frac\n");
    writeln!(
        csv,
        "{},{},{:.9},{:.9}",
        stats.dataset, stats.boxes, stats.sum_area_frac, stats.union_area_frac
    )
    .unwrap();
    csv.push_str("n,m,k,baseline_bits,d1_bits,d2_bits,total_bits\n");
    let arrays: [(u64, u64); 5] =
        [(640, 480), (1280, 960), (1600, 1200), (1920, 1440), (2560, 1920)];
    for (n, m) in arrays {
        let (j, sum, union) = stats.at_array(n, m);
        for k in [2u64, 4, 8] {
            let params = SystemParams {
                stage1_color: ColorChannels::Rgb,
                ..SystemParams::paper_default(n, m, k)
            }
            .with_rois(j, sum, union);
            writeln!(
                csv,
                "{n},{m},{k},{},{},{},{}",
                params.conventional().total_transfer_bits(),
                params.hirise_stage1().transfer_bits_s2p,
                params.hirise_stage2().transfer_bits_s2p,
                params.hirise_total().total_transfer_bits()
            )
            .unwrap();
        }
    }
    check_golden("fig7.csv", &csv);
}

/// One image-sum checksum: a cheap, deterministic pin on the exact pixel
/// stream (any single-code change moves it by ≥ 1/255, far above the
/// 1e-9 relative golden tolerance).
fn plane_checksum(planes: &[&hirise_imaging::Plane]) -> f64 {
    planes.iter().flat_map(|p| p.as_slice()).map(|&v| v as f64).sum()
}

#[test]
fn pipeline_noise_mode_outputs_match_goldens() {
    // Pins the *noisy* frame path: the counter-based keyed Ziggurat
    // stream, the sensor's one noise path (the `mode` column keeps the
    // golden's layout). Counters compare exactly; checksums at 1e-9
    // relative.
    let mut scene = RgbImage::from_fn(128, 96, |_, _| (0.35, 0.35, 0.35));
    let obj = Rect::new(40, 24, 24, 48);
    draw::fill_rect_rgb(&mut scene, obj, (0.9, 0.4, 0.2));
    let [pr, _, _] = scene.planes_mut();
    draw::fill_stripes(pr, obj, 2, 0.95, 0.55);

    let mut csv = String::from(
        "mode,s1_conversions,s2_conversions,transfer_bits,rois,pooled_checksum,roi_checksum\n",
    );
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    let config =
        HiriseConfig::builder(128, 96).pooling(2).detector(detector).max_rois(4).build().unwrap();
    let run = HirisePipeline::new(config).run(&scene).unwrap();
    let pooled = plane_checksum(&run.pooled_image.as_rgb().unwrap().planes());
    let rois: f64 = run.roi_images.iter().map(|img| plane_checksum(&img.planes())).sum();
    writeln!(
        csv,
        "keyed,{},{},{},{},{pooled:.9},{rois:.9}",
        run.report.stage1.conversions,
        run.report.stage2.conversions,
        run.report.total_transfer_bits(),
        run.rois.len(),
    )
    .unwrap();
    check_golden("pipeline_modes.csv", &csv);
}

#[test]
fn video_temporal_sequence_matches_golden() {
    // Pins the whole temporal path on a seeded synthetic video: the
    // keyframe/drift policy decisions, the track lifecycle (association,
    // spawn, death), the exact per-frame ROI rectangles, and the readout
    // counters — all integers, compared exactly. The keyed sensor noise
    // stream is pinned too.
    use hirise::temporal::{TrackerState, TrackingPipeline};
    use hirise::{PipelineScratch, TemporalConfig};
    use hirise_scene::{VideoGenerator, VideoSpec};

    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    let config = HiriseConfig::builder(160, 120)
        .pooling(2)
        .detector(detector)
        .max_rois(4)
        .roi_margin(2)
        .build()
        .unwrap();
    let temporal =
        TemporalConfig::default().keyframe_interval(3).drift_threshold(0.05).min_track_iou(0.2);
    let tracker = TrackingPipeline::new(config, temporal).unwrap();
    let video = VideoGenerator::new(VideoSpec::surveillance(), 160, 120, 0x90D);
    let mut state = TrackerState::new();
    let mut scratch = PipelineScratch::new();

    let mut csv =
        String::from("frame,kind,tracks,rois,s1_conversions,s2_conversions,transfer_bits,boxes\n");
    for frame in video.frames(9) {
        let r = tracker.run_frame(&frame.image, &mut state, &mut scratch).unwrap();
        let boxes: Vec<String> =
            scratch.rois().iter().map(|b| format!("{} {} {} {}", b.x, b.y, b.w, b.h)).collect();
        writeln!(
            csv,
            "{},{},{},{},{},{},{},{}",
            frame.index,
            r.kind,
            r.active_tracks,
            r.report.roi_count,
            r.report.stage1.conversions,
            r.report.stage2.conversions,
            r.report.total_transfer_bits(),
            boxes.join("|"),
        )
        .unwrap();
    }
    check_golden("video_temporal.csv", &csv);
}

#[test]
fn scenario_fleet_sequences_match_goldens() {
    // One golden CSV per stress scenario, in the exact format of
    // `video_temporal.csv`: each pins the policy decisions, track
    // lifecycle, ROI rectangles, and readout counters of one fleet
    // scenario at a small array under the default keyed noise — so a
    // change to occlusion handling, scale adaptation, defect robustness,
    // or crowd association shows up as a per-scenario diff, not just a
    // shifted aggregate.
    use hirise::temporal::{TrackerState, TrackingPipeline};
    use hirise::{PipelineScratch, TemporalConfig};
    use hirise_scene::{ScenarioGenerator, ScenarioSpec};

    for spec in ScenarioSpec::fleet() {
        let name = spec.name;
        let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
        let config = HiriseConfig::builder(160, 120)
            .pooling(2)
            .detector(detector)
            .max_rois(4)
            .roi_margin(2)
            .build()
            .unwrap();
        let temporal =
            TemporalConfig::default().keyframe_interval(3).drift_threshold(0.05).min_track_iou(0.2);
        let tracker = TrackingPipeline::new(config, temporal).unwrap();
        let scenario = ScenarioGenerator::new(spec, 160, 120, 0x5CE2);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();

        let mut csv = String::from(
            "frame,kind,tracks,rois,s1_conversions,s2_conversions,transfer_bits,boxes\n",
        );
        for frame in scenario.frames(8) {
            let r = tracker.run_frame(&frame.image, &mut state, &mut scratch).unwrap();
            let boxes: Vec<String> =
                scratch.rois().iter().map(|b| format!("{} {} {} {}", b.x, b.y, b.w, b.h)).collect();
            writeln!(
                csv,
                "{},{},{},{},{},{},{},{}",
                frame.index,
                r.kind,
                r.active_tracks,
                r.report.roi_count,
                r.report.stage1.conversions,
                r.report.stage2.conversions,
                r.report.total_transfer_bits(),
                boxes.join("|"),
            )
            .unwrap();
        }
        check_golden(&format!("scenario_{name}.csv"), &csv);
    }
}

#[test]
fn goldens_sanity_paper_shape() {
    // Independent of the committed files: the golden computations must
    // keep the paper's qualitative shape, so a wrong regeneration cannot
    // silently bless nonsense.
    let model = AnalyticalModel::new(&HiriseConfig::paper_reference(), &table1_rois());
    assert!(model.satisfies_paper_conditions());
    assert!(model.transfer_reduction() > 2.0);
    let stats = DatasetRoiStats::measure(
        &DatasetSpec::crowdhuman_like(),
        Some(ObjectClass::Person),
        8,
        0xF167,
    );
    assert!(stats.union_area_frac < stats.sum_area_frac);
    assert!((1..=40).contains(&stats.boxes));
}
