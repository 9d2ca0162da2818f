//! Crash-recovery benchmark: warm restart from snapshot plus journal.
//!
//! Runs the fleet of [`hirise_bench::recover`] twice — uninterrupted
//! and killed mid-run at a seeded [`hirise_fault::CrashPlan`] tick —
//! then restores, replays, resumes, and writes the record to
//! `results/BENCH_recover.json`: the kill tick, snapshot size, the
//! replay MTTR in frames against its one-snapshot-interval budget, and
//! the post-restore bit-identity verdict. Wall clock is printed, never
//! recorded (see the `bench_compare` binary for the exact gate).
//!
//! ```text
//! cargo run --release -p hirise-bench --bin recover_stages -- \
//!     [--sessions N] [--frames N] [--out results/BENCH_recover.json] \
//!     [--quick | --full]
//! ```
//!
//! `--quick` shrinks the fleet for a CI smoke — point `--out` somewhere
//! disposable; only standard runs belong in `results/`.

use hirise_bench::args::{Flags, RunSize};
use hirise_bench::record::measure_and_write;
use hirise_bench::recover::RecoverBenchConfig;

fn main() {
    let flags = Flags::from_env();
    let mut config = RecoverBenchConfig::default();
    match flags.run_size() {
        RunSize::Quick => {
            config.sessions = 4;
            config.frames_per_session = 8;
            config.width = 64;
            config.height = 48;
            config.snapshot_every = 3;
        }
        RunSize::Standard => {}
        RunSize::Full => {
            config.sessions = 16;
            config.frames_per_session = 32;
        }
    }
    if let Some(sessions) = flags.parsed("sessions") {
        config.sessions = sessions;
    }
    if let Some(frames) = flags.parsed("frames") {
        config.frames_per_session = frames;
    }
    println!(
        "recover_stages: {} sessions of {} frames on {}x{} k={}, \
         snapshot every {} ticks, seeded crash rate {}",
        config.sessions,
        config.frames_per_session,
        config.width,
        config.height,
        config.pooling_k,
        config.snapshot_every,
        config.crash_rate
    );
    let out = flags.value_of("out").unwrap_or("results/BENCH_recover.json");
    measure_and_write(&config, std::path::Path::new(out));
}
