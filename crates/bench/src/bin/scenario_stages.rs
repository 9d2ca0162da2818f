//! Scenario-fleet benchmark: the table-driven stress matrix.
//!
//! Runs every scenario of [`hirise_bench::scenario::scenario_matrix`]
//! (occlusion/crossing, scale change, illumination drift + flicker,
//! keyed sensor defects, a 24-object crowd, an emptying scene, and the
//! VGA→4K resolution sweep) through the tracked pipeline and writes one
//! record per scenario under `results/scenarios/`: policy counters,
//! accuracy (mean ROI IoU + recall), per-frame-kind sensor energy, and
//! the analog pooling-consistency residual. Wall clock is printed, never
//! recorded (see the `bench_compare` binary for the exact gate).
//!
//! ```text
//! cargo run --release -p hirise-bench --bin scenario_stages -- \
//!     [--scenario crossing] [--out-dir results/scenarios] [--quick]
//! ```
//!
//! `--scenario` filters the matrix by scenario name or baseline label;
//! `--quick` shrinks every entry to a small array and short clip — a CI
//! path smoke, not a baseline regeneration (it still writes to
//! `--out-dir`, so point it somewhere disposable).

use hirise_bench::args::{Flags, RunSize};
use hirise_bench::record::measure_and_write;
use hirise_bench::scenario::scenario_matrix;

fn main() {
    let flags = Flags::from_env();
    let filter = flags.value_of("scenario");
    let quick = flags.run_size() == RunSize::Quick;
    let out_dir = std::path::Path::new(flags.value_of("out-dir").unwrap_or("results/scenarios"));

    let mut matrix = scenario_matrix();
    if let Some(name) = filter {
        matrix.retain(|c| c.scenario == name || c.label == name);
        assert!(!matrix.is_empty(), "no scenario matches {name:?}");
    }
    if quick {
        for config in &mut matrix {
            config.width = 192;
            config.height = 144;
            config.pooling_k = 2;
            config.frames = config.frames.min(6);
            config.keyframe_interval = 4;
        }
    }

    for config in &matrix {
        println!(
            "{}: {}x{} k={} over {} frames",
            config.label, config.width, config.height, config.pooling_k, config.frames
        );
        measure_and_write(config, &out_dir.join(format!("scenario_{}.json", config.label)));
    }
}
