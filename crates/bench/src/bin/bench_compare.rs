//! The exact benchmark gate: rebuilds every committed record under the
//! results directory and fails unless each fact reproduces exactly.
//!
//! Every record (see [`hirise_bench::record`]) holds only facts that
//! depend on nothing but the seed and the config — counts, IoU and
//! recall, per-kind energy, snapshot bytes, crash tick, bit-identity
//! verdicts — so the gate compares name, unit and value exactly, floats
//! by `to_bits`. Wall clock is not gated here; timing is perfbench's
//! job.
//!
//! For each expected record (`BENCH_pipeline.json`,
//! `BENCH_temporal.json`, `BENCH_serve.json`, `BENCH_chaos.json`,
//! `BENCH_recover.json` and one `scenarios/scenario_<label>.json` per
//! scenario-matrix entry) the gate parses the record, dispatches on its
//! `bench` to rebuild and validate the config, and then — once every
//! record has been read — builds a fresh record and diffs it against the
//! committed one. The contracts that need no baseline (no drops,
//! bit-identical recovery and blast radius, every quarantine recovered,
//! every session completed, recovery within one keyframe interval,
//! replay within its budget) are checked on the fresh record too.
//!
//! Exit codes: 0 when every fact reproduces, 1 when a fact moved or a
//! fresh record breaks a contract, 2 for a configuration error — a
//! missing, unreadable, malformed or out-of-range record, or a committed
//! record that itself breaks a contract — reported as one
//! `bench_compare: error:` line before anything is measured.
//!
//! ```text
//! cargo run --release -p hirise-bench --bin bench_compare -- [--results-dir results]
//! ```

use std::path::{Path, PathBuf};

use hirise_bench::chaos::ChaosBenchConfig;
use hirise_bench::record::{Bench, Record};
use hirise_bench::recover::RecoverBenchConfig;
use hirise_bench::scenario::{scenario_matrix, ScenarioBenchConfig};
use hirise_bench::serve::ServeBenchConfig;
use hirise_bench::stages::StageBenchConfig;
use hirise_bench::video::VideoBenchConfig;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("bench_compare: error: {msg}");
    std::process::exit(2)
}

/// The one option: `--results-dir DIR` (default `results`).
fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(value) = arg.strip_prefix("--results-dir=") {
            dir = value.into();
        } else if arg == "--results-dir" {
            dir = args.next().unwrap_or_else(|| fail("--results-dir needs a value")).into();
        } else {
            fail(format!("unknown argument {arg:?}; the only option is --results-dir DIR"));
        }
    }
    dir
}

/// Every record the gate requires, with the bench each must hold.
fn expected(dir: &Path) -> Vec<(PathBuf, &'static str)> {
    let mut records = vec![
        (dir.join("BENCH_pipeline.json"), StageBenchConfig::NAME),
        (dir.join("BENCH_temporal.json"), VideoBenchConfig::NAME),
        (dir.join("BENCH_serve.json"), ServeBenchConfig::NAME),
        (dir.join("BENCH_chaos.json"), ChaosBenchConfig::NAME),
        (dir.join("BENCH_recover.json"), RecoverBenchConfig::NAME),
    ];
    for entry in scenario_matrix() {
        let path = dir.join("scenarios").join(format!("scenario_{}.json", entry.label));
        records.push((path, ScenarioBenchConfig::NAME));
    }
    records
}

/// A validated config, ready to build its fresh record.
type Job = Box<dyn Fn() -> Record>;

fn job<B: Bench + 'static>(committed: &Record) -> Result<Job, String> {
    let config = B::from_record(committed)?;
    if config.header().config != committed.config {
        return Err(format!("config is not the {} config (unknown or reordered key)", B::NAME));
    }
    Ok(Box::new(move || config.record()))
}

/// Dispatches on the record's `bench` to rebuild its config.
fn rebuild(committed: &Record) -> Result<Job, String> {
    match committed.bench.as_str() {
        StageBenchConfig::NAME => job::<StageBenchConfig>(committed),
        VideoBenchConfig::NAME => job::<VideoBenchConfig>(committed),
        ScenarioBenchConfig::NAME => job::<ScenarioBenchConfig>(committed),
        ServeBenchConfig::NAME => job::<ServeBenchConfig>(committed),
        ChaosBenchConfig::NAME => job::<ChaosBenchConfig>(committed),
        RecoverBenchConfig::NAME => job::<RecoverBenchConfig>(committed),
        other => Err(format!("unknown bench {other:?}")),
    }
}

fn main() {
    let dir = results_dir();
    let mut plan = Vec::new();
    for (path, bench) in expected(&dir) {
        let at = path.display();
        let committed = Record::read(&path).unwrap_or_else(|e| fail(format!("{at}: {e}")));
        let job = rebuild(&committed).unwrap_or_else(|e| fail(format!("{at}: {e}")));
        if committed.bench != bench {
            fail(format!("{at}: holds bench {:?}, expected {bench:?}", committed.bench));
        }
        if let Some(broken) = committed.contract_violations().first() {
            fail(format!("{at}: the committed record breaks a contract ({broken}); regenerate it"));
        }
        plan.push((path, committed, job));
    }

    let mut regressions = 0;
    for (path, committed, job) in &plan {
        let fresh = job();
        let problems: Vec<String> =
            committed.diff(&fresh).into_iter().chain(fresh.contract_violations()).collect();
        let verdict = if problems.is_empty() { "exact" } else { "MOVED" };
        println!("{verdict:>5}  {} ({} facts)", path.display(), fresh.metrics.len());
        for problem in &problems {
            eprintln!("REGRESSION: {}: {problem}", path.display());
        }
        regressions += problems.len();
    }
    if regressions > 0 {
        std::process::exit(1);
    }
    println!("bench_compare: all {} records reproduced exactly", plan.len());
}
