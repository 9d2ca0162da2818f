//! Temporal video benchmark: the tracked pipeline's exact facts.
//!
//! Runs a deterministic synthetic video through the temporal
//! [`hirise::temporal::TrackingPipeline`] (stage-1 only on keyframes and
//! drift) and writes the [`hirise_bench::video`] record — the policy
//! counters and the mean tracked-ROI IoU against the ground-truth
//! tracks — to `results/BENCH_temporal.json`. Wall clock is printed,
//! never recorded (see the `bench_compare` binary for the exact gate).
//!
//! ```text
//! cargo run --release -p hirise-bench --bin video_stages -- \
//!     [--width 640] [--height 480] [--k 2] [--frames 48] \
//!     [--interval 8] [--out results/BENCH_temporal.json] \
//!     [--quick | --full]
//! ```

use std::path::Path;

use hirise_bench::args::Flags;
use hirise_bench::record::measure_and_write;
use hirise_bench::video::VideoBenchConfig;

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
    println!(
        "video_stages: {} frames at {}x{}, k={}, keyframes every {}",
        config.frames, config.width, config.height, config.pooling_k, config.keyframe_interval
    );
    let out = flags.value_of("out").unwrap_or("results/BENCH_temporal.json");
    measure_and_write(&config, Path::new(out));
}
