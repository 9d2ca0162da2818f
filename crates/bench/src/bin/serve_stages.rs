//! Serve-layer benchmark: the multi-tenant fleet's exact counters.
//!
//! Drives a [`hirise_serve::ServeEngine`] through the seeded synthetic
//! session mix of [`hirise_bench::serve`] — short and long sessions
//! across the scenario presets, priority spread, bursty arrivals, 3×
//! rated load so the shed ladder engages — and writes the record to
//! `results/BENCH_serve.json`: frames served, admissions, completions,
//! deferrals, the highest shed level and the structurally-zero
//! `dropped`. Wall clock is printed, never recorded (see the
//! `bench_compare` binary for the exact gate).
//!
//! ```text
//! cargo run --release -p hirise-bench --bin serve_stages -- \
//!     [--sessions N] [--frames N] [--out results/BENCH_serve.json] \
//!     [--quick | --full]
//! ```
//!
//! `--quick` shrinks the fleet and array for a CI path smoke — point
//! `--out` somewhere disposable; only standard runs belong in
//! `results/`.

use hirise_bench::args::{Flags, RunSize};
use hirise_bench::record::measure_and_write;
use hirise_bench::serve::ServeBenchConfig;

fn main() {
    let flags = Flags::from_env();
    let mut config = ServeBenchConfig::default();
    match flags.run_size() {
        RunSize::Quick => {
            config.sessions = 6;
            config.frames_per_session = 4;
            config.width = 96;
            config.height = 72;
            config.keyframe_interval = 4;
            config.rated_sessions = 2;
        }
        RunSize::Standard => {}
        RunSize::Full => {
            config.sessions = 48;
            config.frames_per_session = 16;
            config.rated_sessions = 16;
        }
    }
    if let Some(sessions) = flags.parsed("sessions") {
        config.sessions = sessions;
    }
    if let Some(frames) = flags.parsed("frames") {
        config.frames_per_session = frames;
    }
    println!(
        "serve_stages: {} sessions ({} rated) of ~{} frames on {}x{} k={}",
        config.sessions,
        config.rated_sessions,
        config.frames_per_session,
        config.width,
        config.height,
        config.pooling_k
    );
    let out = flags.value_of("out").unwrap_or("results/BENCH_serve.json");
    measure_and_write(&config, std::path::Path::new(out));
}
