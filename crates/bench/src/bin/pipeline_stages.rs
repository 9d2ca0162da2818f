//! Still-frame benchmark: the exact cost facts of one frame.
//!
//! Writes the [`hirise_bench::stages`] record (ROI count, stage-1 and
//! stage-2 conversions, transfer bits, peak image bytes, sensor energy)
//! to `results/BENCH_pipeline.json`. Wall clock is printed, never
//! recorded (see the `bench_compare` binary for the exact gate); the
//! per-stage breakdown of the frame time comes from perfbench's traced
//! mode.
//!
//! ```text
//! cargo run --release -p hirise-bench --bin pipeline_stages -- \
//!     [--width 640] [--height 480] [--k 2] [--out results/BENCH_pipeline.json]
//! ```

use hirise_bench::args::Flags;
use hirise_bench::record::measure_and_write;
use hirise_bench::stages::StageBenchConfig;

fn main() {
    let flags = Flags::from_env();
    let defaults = StageBenchConfig::default();
    let config = StageBenchConfig {
        width: flags.parsed("width").unwrap_or(defaults.width),
        height: flags.parsed("height").unwrap_or(defaults.height),
        pooling_k: flags.parsed("k").unwrap_or(defaults.pooling_k),
    };
    println!("pipeline_stages: {}x{}, k={}", config.width, config.height, config.pooling_k);
    let out = flags.value_of("out").unwrap_or("results/BENCH_pipeline.json");
    measure_and_write(&config, std::path::Path::new(out));
}
