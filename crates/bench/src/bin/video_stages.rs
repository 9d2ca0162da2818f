//! Temporal video benchmark: per-frame vs tracked mode.
//!
//! Generates a deterministic synthetic video, runs it through the
//! still-image pipeline (full stage-1 on every frame) and through the
//! temporal [`hirise::temporal::TrackingPipeline`] (stage-1 only on
//! keyframes/drift), and emits `results/BENCH_temporal.json` with both
//! mean frame times, the policy counters, and the mean tracked-ROI IoU
//! against the ground-truth tracks (see the `bench_compare` binary for
//! the trajectory gate).
//!
//! ```text
//! cargo run --release -p hirise-bench --bin video_stages -- \
//!     [--width 640] [--height 480] [--k 2] [--frames 48] \
//!     [--interval 8] [--out results/BENCH_temporal.json] \
//!     [--quick | --full]
//! ```

use hirise_bench::args::Flags;
use hirise_bench::video::{measure, VideoBenchConfig};

fn main() {
    let flags = Flags::from_env();
    let defaults = VideoBenchConfig::default();
    let config = VideoBenchConfig {
        width: flags.parsed("width").unwrap_or(defaults.width),
        height: flags.parsed("height").unwrap_or(defaults.height),
        pooling_k: flags.parsed("k").unwrap_or(defaults.pooling_k),
        frames: flags.parsed("frames").unwrap_or_else(|| flags.run_size().pick(16, 48, 120)),
        keyframe_interval: flags.parsed("interval").unwrap_or(defaults.keyframe_interval),
    };

    let result = measure(&config);
    println!(
        "temporal video over {} frames at {}x{}, k={}, keyframes every {}:",
        config.frames, config.width, config.height, config.pooling_k, config.keyframe_interval
    );
    println!(
        "  per-frame mode {:8.2} ms/frame  ({:.1} fps)",
        result.per_frame_ms_mean,
        1e3 / result.per_frame_ms_mean
    );
    println!(
        "  tracked mode   {:8.2} ms/frame  ({:.1} fps)  -> {:.2}x",
        result.tracked_ms_mean,
        1e3 / result.tracked_ms_mean,
        result.speedup()
    );
    println!(
        "  policy: {} keyframes, {} drift refreshes, {} tracked frames",
        result.keyframes, result.drift_refreshes, result.tracked_frames
    );
    println!("  mean tracked-ROI IoU vs ground truth: {:.3}", result.mean_roi_iou);

    let path = flags.value_of("out").unwrap_or("results/BENCH_temporal.json");
    let path = std::path::Path::new(path);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("results directory is writable");
    }
    std::fs::write(path, result.to_json()).expect("bench JSON is writable");
    println!("wrote {}", path.display());
}
