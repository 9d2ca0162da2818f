//! Chaos benchmark: recovery under a seeded fault plan.
//!
//! Runs the fleet of [`hirise_bench::chaos`] twice — fault-free and
//! with the plan's panic injected mid-stream into one session — and
//! writes the record to `results/BENCH_chaos.json`: `dropped`, the
//! quarantine and recovery counts, the worst recovery span in frames,
//! availability, and the blast-radius bit (every non-faulted session
//! identical to the fault-free run). Wall clock is printed, never
//! recorded (see the `bench_compare` binary for the exact gate).
//!
//! ```text
//! cargo run --release -p hirise-bench --bin chaos_stages -- \
//!     [--sessions N] [--frames N] [--out results/BENCH_chaos.json] \
//!     [--quick | --full]
//! ```
//!
//! `--quick` shrinks the fleet and array for a CI smoke — point `--out`
//! somewhere disposable; only standard runs belong in `results/`.

use hirise_bench::args::{Flags, RunSize};
use hirise_bench::chaos::ChaosBenchConfig;
use hirise_bench::record::measure_and_write;

fn main() {
    let flags = Flags::from_env();
    let mut config = ChaosBenchConfig::default();
    match flags.run_size() {
        RunSize::Quick => {
            config.sessions = 4;
            config.frames_per_session = 8;
            config.width = 64;
            config.height = 48;
            config.panic_session = 1;
            config.panic_frame = 3;
        }
        RunSize::Standard => {}
        RunSize::Full => {
            config.sessions = 16;
            config.frames_per_session = 32;
        }
    }
    if let Some(sessions) = flags.parsed::<usize>("sessions") {
        config.sessions = sessions;
        config.panic_session = config.panic_session.min(sessions.saturating_sub(1) as u64);
    }
    if let Some(frames) = flags.parsed::<u32>("frames") {
        config.frames_per_session = frames;
        config.panic_frame = config.panic_frame.min(frames.saturating_sub(1));
    }
    println!(
        "chaos_stages: {} sessions of {} frames on {}x{} k={}, \
         panic into session {} frame {}",
        config.sessions,
        config.frames_per_session,
        config.width,
        config.height,
        config.pooling_k,
        config.panic_session,
        config.panic_frame
    );
    let out = flags.value_of("out").unwrap_or("results/BENCH_chaos.json");
    measure_and_write(&config, std::path::Path::new(out));
}
