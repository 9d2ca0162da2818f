//! Temporal-pipeline integration tests (verification layer 7).
//!
//! Covers the cross-frame contracts that unit tests cannot see:
//! tracked-sequence bit-identity across sensor-shard counts and across
//! serve-engine worker counts, the tracked-mode data-movement savings
//! over per-frame detection, and the tracking-quality floor (mean
//! tracked-ROI IoU against the generator's ground-truth tracks) on the
//! committed benchmark scene.

use hirise::temporal::{TrackerState, TrackingPipeline};
use hirise::{
    HiriseConfig, HirisePipeline, PipelineScratch, SequenceSummary, TemporalConfig,
    TemporalFrameReport,
};
use hirise_imaging::RgbImage;
use hirise_scene::{VideoGenerator, VideoSpec};
use hirise_serve::{FrameSource, ServeConfig, ServeEngine, SessionSpec};

const W: u32 = 128;
const H: u32 = 96;

/// Small tracked-pipeline configuration (keyed noise, the default).
fn config(shards: u32) -> HiriseConfig {
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    HiriseConfig::builder(W, H)
        .pooling(2)
        .detector(detector)
        .max_rois(4)
        .roi_margin(2)
        .sensor_shards(shards)
        .build()
        .unwrap()
}

fn temporal() -> TemporalConfig {
    TemporalConfig::default().keyframe_interval(3)
}

/// Three short generated videos with distinct seeds.
fn sequences(frames: u32) -> Vec<Vec<RgbImage>> {
    [7u64, 19, 42]
        .into_iter()
        .map(|seed| VideoGenerator::new(VideoSpec::surveillance(), W, H, seed).images(frames))
        .collect()
}

/// Runs one sequence through a fresh tracker state, returning the
/// per-frame reports and their frame-ordered fold.
fn track(
    tracker: &TrackingPipeline,
    frames: &[RgbImage],
) -> (Vec<TemporalFrameReport>, SequenceSummary) {
    let mut state = TrackerState::new();
    let mut scratch = PipelineScratch::new();
    let mut summary = SequenceSummary::default();
    let reports = frames
        .iter()
        .map(|f| {
            let report = tracker.run_frame(f, &mut state, &mut scratch).unwrap();
            summary.fold(&report);
            report
        })
        .collect();
    (reports, summary)
}

#[test]
fn sequence_mode_is_bit_identical_across_worker_counts() {
    // Each video is one serve session on an engine rated above the
    // fleet, so nothing sheds: every session's summary must equal the
    // direct single-threaded fold of its video, at any worker count.
    let seqs = sequences(7);
    let tracker = TrackingPipeline::new(config(1), temporal()).unwrap();
    let direct: Vec<SequenceSummary> = seqs.iter().map(|s| track(&tracker, s).1).collect();
    for s in &direct {
        assert_eq!(s.frames, 7);
        assert!(s.keyframes >= 3, "interval 3 over 7 frames schedules ≥ 3 keyframes");
    }
    for workers in [1, 2, 4] {
        let mut engine =
            ServeEngine::new(ServeConfig::new(config(1)).temporal(temporal()).rated_sessions(4))
                .unwrap();
        for (i, seq) in seqs.iter().enumerate() {
            let spec = SessionSpec::default().name(format!("v{i}")).frames(7).frames_per_tick(3);
            engine.admit(spec, FrameSource::Frames(seq.clone())).unwrap();
        }
        loop {
            engine.tick();
            if engine.active_sessions() == 0 {
                break;
            }
            engine.serve_parallel(workers).unwrap();
        }
        let summary = engine.summary();
        assert_eq!(summary.max_shed_level, 0, "the fleet must run unshed");
        assert_eq!(summary.sessions.len(), seqs.len());
        for (session, want) in summary.sessions.iter().zip(&direct) {
            assert_eq!(
                &session.summary, want,
                "session {} diverged at {workers} workers",
                session.name
            );
        }
    }
}

#[test]
fn sequence_mode_is_bit_identical_across_shard_counts() {
    // Keyed noise is position-pure, so splitting the capture and pooled
    // readout across row shards must not move a single bit of the
    // tracked sequence output: every per-frame report and the folded
    // summary match the unsharded run.
    let seqs = sequences(6);
    let base = TrackingPipeline::new(config(1), temporal()).unwrap();
    let reference: Vec<_> = seqs.iter().map(|s| track(&base, s)).collect();
    for shards in [2u32, 3, 4] {
        let tracker = TrackingPipeline::new(config(shards), temporal()).unwrap();
        for (i, seq) in seqs.iter().enumerate() {
            let (reports, summary) = track(&tracker, seq);
            assert_eq!(reports, reference[i].0, "sequence {i} diverged at {shards} shards");
            assert_eq!(summary, reference[i].1, "sequence {i} summary diverged at {shards} shards");
        }
    }
}

#[test]
fn tracked_sequences_move_less_data_than_per_frame_detection() {
    // The temporal premise at the accounting level: a tracked sequence
    // ships strictly less sensor traffic than running the full
    // two-stage pipeline on every frame, because non-keyframes skip the
    // stage-1 pooled readout entirely.
    let video = VideoGenerator::new(VideoSpec::surveillance(), W, H, 31);
    let frames = video.images(9);

    let per_frame = HirisePipeline::new(config(1));
    let mut scratch = PipelineScratch::new();
    let per_frame_bits: Vec<u64> = frames
        .iter()
        .map(|f| per_frame.run_with_scratch(f, &mut scratch).unwrap().total_transfer_bits())
        .collect();

    let tracker = TrackingPipeline::new(config(1), temporal()).unwrap();
    let mut state = TrackerState::new();
    let mut tracked_frames = 0u64;
    let mut tracked_total = 0u64;
    for (i, frame) in frames.iter().enumerate() {
        let r = tracker.run_frame(frame, &mut state, &mut scratch).unwrap();
        tracked_total += r.report.total_transfer_bits();
        if !r.kind.ran_detection() {
            tracked_frames += 1;
            // Frame-level claim: a tracked frame ships strictly less
            // than the per-frame pipeline did on the very same frame
            // (its stage-2 set is comparable; the whole stage-1 pooled
            // readout is gone).
            assert!(
                r.report.total_transfer_bits() < per_frame_bits[i],
                "tracked frame {i} moved {} bits ≥ per-frame {}",
                r.report.total_transfer_bits(),
                per_frame_bits[i]
            );
        }
    }
    assert!(tracked_frames >= 4, "too few tracked frames to compare ({tracked_frames})");
    let per_frame_total: u64 = per_frame_bits.iter().sum();
    assert!(
        tracked_total < per_frame_total,
        "tracked sequence moved {tracked_total} bits ≥ per-frame {per_frame_total}"
    );
}

#[test]
fn tracking_quality_holds_on_the_reference_video() {
    // The committed benchmark scene (video_stages / BENCH_temporal.json,
    // whose 48-frame mean IoU bench_compare pins exactly) must also keep
    // an accuracy floor on its prefix: mean over tracked-mode ROIs of
    // each ROI's best IoU against the ground-truth boxes ≥ 0.5. One pass
    // over a 16-frame prefix of the reference sequence.
    use hirise_bench::video::{pipeline_config, reference_seed, VideoBenchConfig};

    let bench = VideoBenchConfig::default();
    let video =
        VideoGenerator::new(VideoSpec::surveillance(), bench.width, bench.height, reference_seed());
    let tracker = TrackingPipeline::new(
        pipeline_config(&bench),
        TemporalConfig::default().keyframe_interval(bench.keyframe_interval),
    )
    .unwrap();
    let mut state = TrackerState::new();
    let mut scratch = PipelineScratch::new();
    let (mut iou_sum, mut rois) = (0.0f64, 0u64);
    for frame in video.frames(16) {
        tracker.run_frame(&frame.image, &mut state, &mut scratch).unwrap();
        for r in scratch.rois() {
            iou_sum += frame.objects.iter().map(|o| r.iou(&o.bbox)).fold(0.0, f64::max);
            rois += 1;
        }
    }
    assert!(rois > 0, "the reference video produced no ROIs");
    let mean = iou_sum / rois as f64;
    assert!(mean >= 0.5, "mean tracked-ROI IoU {mean:.3} fell below the 0.5 floor");
    // And the policy actually tracked: most frames skipped detection.
    assert!(state.tracked_frames() > state.keyframes() + state.drift_refreshes());
}
