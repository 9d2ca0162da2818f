//! CLI contract of the exact `bench_compare` gate.
//!
//! A malformed or out-of-range committed record is a configuration
//! error — one diagnostic line on stderr and exit code 2, before
//! anything is measured — never a panic with a backtrace, and never a
//! silent pass. A fact that moves by a single ulp or tick exits 1 and
//! names the metric; the committed records themselves reproduce
//! exactly (exit 0).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use hirise_bench::record::{Record, Value, MAX_RECORD_BYTES};

/// The committed results directory at the workspace root.
fn committed() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_compare_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("scenarios")).expect("scratch dir is writable");
    dir
}

/// A scratch copy of every committed record.
fn copy_of_committed(name: &str) -> PathBuf {
    let dir = scratch_dir(name);
    for sub in ["", "scenarios"] {
        for entry in std::fs::read_dir(committed().join(sub)).expect("results/ is readable") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|ext| ext == "json") {
                std::fs::copy(&path, dir.join(sub).join(path.file_name().unwrap()))
                    .expect("record copies");
            }
        }
    }
    dir
}

fn run(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--results-dir")
        .arg(dir)
        .output()
        .expect("bench_compare binary runs")
}

/// Replaces the one occurrence of `from` in `dir/file` with `to`.
fn edit(dir: &Path, file: &str, from: &str, to: &str) {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path).expect("record is readable");
    assert_eq!(text.matches(from).count(), 1, "{from:?} must occur once in {file}");
    std::fs::write(&path, text.replace(from, to)).expect("record is writable");
}

fn assert_clean_config_error(output: &Output, expect_in_stderr: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "a malformed record must exit 2, got {:?}; stderr: {stderr}",
        output.status.code()
    );
    assert!(
        stderr.starts_with("bench_compare: error:") && stderr.lines().count() == 1,
        "stderr must be one diagnostic line, got: {stderr}"
    );
    assert!(stderr.contains(expect_in_stderr), "stderr must name {expect_in_stderr:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "a malformed record must not panic: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("exact"), "nothing may be measured first, got: {stdout}");
}

#[test]
fn a_truncated_baseline_exits_two_with_a_diagnostic_not_a_panic() {
    let dir = copy_of_committed("truncated");
    let path = dir.join("BENCH_pipeline.json");
    let text = std::fs::read_to_string(&path).unwrap();
    for cut in 0..text.len() {
        std::fs::write(&path, &text[..cut]).unwrap();
        assert_clean_config_error(&run(&dir), "BENCH_pipeline.json: truncated");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_garbled_array_field_exits_two_with_a_diagnostic() {
    let dir = copy_of_committed("garbled");
    edit(&dir, "BENCH_pipeline.json", "\"640x480\"", "\"not-a-size\"");
    assert_clean_config_error(&run(&dir), "not-a-size");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_baseline_is_a_config_error_not_a_skip() {
    // Every layer's record is required: an empty directory and a copy
    // missing one scenario both fail loudly.
    let dir = scratch_dir("missing");
    assert_clean_config_error(&run(&dir), "BENCH_pipeline.json: cannot read");
    let _ = std::fs::remove_dir_all(&dir);
    let dir = copy_of_committed("missing_scenario");
    std::fs::remove_file(dir.join("scenarios/scenario_sweep_4k.json")).unwrap();
    assert_clean_config_error(&run(&dir), "scenario_sweep_4k.json: cannot read");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_recovery_baseline_exits_two_before_measuring() {
    // Healthy records up front, but a recovery record whose tail —
    // including `replay_budget_frames` — was truncated away.
    let dir = copy_of_committed("recover");
    let path = dir.join("BENCH_recover.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.find("    {\"name\": \"replay_budget_frames\"").unwrap();
    std::fs::write(&path, &text[..cut]).unwrap();
    assert_clean_config_error(&run(&dir), "BENCH_recover.json: truncated");
    // And a committed record that itself breaks a contract.
    std::fs::write(
        &path,
        text.replace("\"value\": true, \"unit\": \"bool\"", "\"value\": false, \"unit\": \"bool\""),
    )
    .unwrap();
    assert_clean_config_error(&run(&dir), "`identical` is false");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_configs_exit_two_without_panicking() {
    let cases = [
        ("BENCH_pipeline.json", "\"pooling_k\": 2", "\"pooling_k\": 0", "`pooling_k` = 0"),
        ("BENCH_pipeline.json", "\"pooling_k\": 2", "\"pooling_k\": 3", "pooling 3 does not tile"),
        ("BENCH_pipeline.json", "\"pooling_k\": 2", "\"pooling_k\": -1", "negative integer"),
        (
            "BENCH_temporal.json",
            "\"frames\": 48",
            "\"frames\": 4294967296",
            "`frames` = 4294967296",
        ),
        ("BENCH_temporal.json", "\"frames\": 48", "\"frames\": 1e12", "`frames` = 1e12"),
        ("BENCH_serve.json", "\"sessions\": 24", "\"sessions\": 0", "`sessions` = 0"),
        ("BENCH_recover.json", "\"crash_rate\": 0.15", "\"crash_rate\": 1.5", "crash"),
        ("BENCH_recover.json", "\"snapshot_every\": 4", "\"snapshot_every\": 40", "kill window"),
    ];
    for (i, (file, from, to, expect)) in cases.into_iter().enumerate() {
        let dir = copy_of_committed(&format!("range{i}"));
        edit(&dir, file, from, to);
        assert_clean_config_error(&run(&dir), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn malformed_records_exit_two_with_a_diagnostic() {
    let pipeline = std::fs::read_to_string(committed().join("BENCH_pipeline.json")).unwrap();
    let oversize = format!("{pipeline}{}", " ".repeat(MAX_RECORD_BYTES as usize));
    let cases = [
        (format!("{pipeline}x"), "trailing bytes"),
        (
            pipeline.replace("\"name\": \"rois\"", "\"name\": \"stage1_conversions\""),
            "duplicate metric",
        ),
        (pipeline.replace("\"pooling_k\"", "\"array\""), "duplicate config key"),
        (pipeline.replace("\"value\": 6,", "\"value\": NaN,"), "expected a value"),
        (pipeline.replace("\"value\": 6,", "\"value\": inf,"), "expected a value"),
        (pipeline.replace("\"value\": 6,", "\"value\": 6.5,"), "does not fit its unit"),
        (pipeline.replace("\"pipeline_stages\"", "\"bogus_stages\""), "unknown bench"),
        (pipeline.replace("\"pipeline_stages\"", "\"video_stages\""), "config lacks `frames`"),
        (
            pipeline.replace("\"pooling_k\": 2", "\"pooling_k\": 2,\n    \"mode\": \"keyed\""),
            "unknown or reordered key",
        ),
        (oversize, "record cap"),
    ];
    let dir = copy_of_committed("malformed");
    for (text, expect) in cases {
        std::fs::write(dir.join("BENCH_pipeline.json"), text).unwrap();
        assert_clean_config_error(&run(&dir), expect);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_arguments_are_config_errors() {
    for args in [&["--quick"][..], &["--max-regress-pct", "75"], &["--results-dir"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_bench_compare")).args(args).output().unwrap();
        assert_clean_config_error(&output, "results-dir");
    }
}

/// Moves one float fact by one ulp and one count by one.
fn mutate(dir: &Path) {
    let path = dir.join("scenarios/scenario_crossing.json");
    let mut record = Record::read(&path).unwrap();
    let energy = record.metrics.iter_mut().find(|m| m.name == "energy_mj_total").unwrap();
    let Value::Float(v) = energy.value else { panic!("energy is a float") };
    energy.value = Value::Float(f64::from_bits(v.to_bits() + 1));
    record.write(&path).unwrap();
    let path = dir.join("BENCH_recover.json");
    let mut record = Record::read(&path).unwrap();
    let tick = record.metrics.iter_mut().find(|m| m.name == "crash_tick").unwrap();
    let Value::Int(t) = tick.value else { panic!("crash_tick is an integer") };
    tick.value = Value::Int(t + 1);
    record.write(&path).unwrap();
}

#[test]
fn a_fact_moved_by_one_ulp_or_one_tick_exits_one_naming_it() {
    let dir = copy_of_committed("mutated");
    mutate(&dir);
    let output = run(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "a moved fact must exit 1; stderr: {stderr}");
    let regressions: Vec<&str> = stderr.lines().filter(|l| l.starts_with("REGRESSION:")).collect();
    assert_eq!(regressions.len(), 2, "exactly the two moved facts: {regressions:?}");
    assert!(regressions[0].contains("BENCH_recover.json: `crash_tick`"), "{regressions:?}");
    assert!(
        regressions[1].contains("scenario_crossing.json: `energy_mj_total`"),
        "{regressions:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_committed_records_reproduce_exactly() {
    let dir = copy_of_committed("unmodified");
    let output = run(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "committed facts moved; stderr: {stderr}");
    assert!(!stderr.contains("REGRESSION"), "{stderr}");
    // Injected chaos faults unwind without the panic hook: a panic
    // report here is a real one.
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
