//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <still_vga|still_5mp|serve_fleet> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Each workload builds its inputs from the seed, sets itself up
//! [`SETUPS`] times (reporting the median set-up time), runs timed steps
//! for `--seconds` (and at least [`stats::MIN_STEPS`] steps), and checks
//! its outputs: every step against the reference pass, and the default
//! seed's digest against the one recorded in this source. Every time
//! metric is normalised by a calibration kernel timed around it
//! ([`calib`]), so it reads as milliseconds on the reference host. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a run that alternates
//! untraced and traced steps.

mod calib;
mod digest;
mod fleet;
mod stats;
mod still;
mod trace;

use stats::StepStats;

/// The seed whose output digests are recorded in this source.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts =
            Opts { workload: String::new(), seed: 0, seconds: 0.0, trace: false, trace_out: None };
        let mut seen = [false; 4];
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    opts.workload = value.clone();
                    seen[0] = true;
                }
                "--seed" => {
                    opts.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?;
                    seen[1] = true;
                }
                "--seconds" => {
                    opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                        return Err(bad("expected 0 < seconds <= 3600"));
                    }
                    seen[2] = true;
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    };
                    seen[3] = true;
                }
                "--trace-out" => opts.trace_out = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if seen.contains(&false) {
            return Err("--workload, --seed, --seconds and --trace are required".into());
        }
        Ok(opts)
    }
}

/// The output checks of one run.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Digest of the run's own seed.
    pub digest: u64,
    /// Digest of the traced composition over the same inputs.
    pub traced: Option<u64>,
    /// Digest of the default seed, as this build computes it.
    pub default_seed: u64,
    /// Digest of the default seed, as recorded.
    pub recorded: u64,
}

impl Check {
    /// Failed checks: a traced digest that differs from the untraced
    /// one, and a default-seed digest that differs from the recorded one.
    fn mismatches(&self) -> u64 {
        u64::from(self.traced.is_some_and(|t| t != self.digest))
            + u64::from(self.default_seed != self.recorded)
    }
}

/// End-to-end results of an untraced run; times are on the reference
/// host.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Every timed step, ms.
    pub steps: Vec<f64>,
    /// Median step as measured on this host, ms.
    pub raw_p50: f64,
    /// Median calibration kernel time of the run, ms.
    pub kernel_ms: f64,
    /// Frames completed per second of step time.
    pub frames_per_s: f64,
    /// Every set-up's time, s.
    pub setups: Vec<f64>,
    /// Peak resident memory, MiB.
    pub peak_rss_mib: f64,
    /// Modelled sensor energy per frame, µJ.
    pub energy_uj_per_frame: f64,
    /// Modelled sensor↔processor transfer per frame, kB.
    pub transfer_kb_per_frame: f64,
    /// Modelled peak image memory (`max(M1, M2)`), mean over the frames
    /// (over the sessions, for serving), kB.
    pub peak_image_kb: f64,
}

/// Per-layer results of a traced run, times as measured on this host; a
/// layer the workload does not exercise stays 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Turns this run's times into times on the reference host.
    pub factor: f64,
    pub capture_ms: f64,
    pub shard_speedup: f64,
    pub pool_ms: f64,
    pub roi_read_ms: f64,
    pub stage1_conversions: f64,
    pub stage2_conversions: f64,
    pub detect_ms: f64,
    pub roi_map_ms: f64,
    pub detections: f64,
    pub roi_keep_frac: f64,
    pub keyframes: f64,
    pub drift_refreshes: f64,
    pub tracked_frames: f64,
    pub drift_refresh_frac: f64,
    pub tick_ms: f64,
    pub serve_ms: f64,
    pub summary_ms: f64,
    pub frame_ms_p50: f64,
    pub frame_ms_p99: f64,
    pub worker_busy_frac: f64,
    pub deferred: f64,
    pub max_shed_level: f64,
    pub frames: f64,
    pub snapshot_ms: f64,
    pub snapshot_bytes: f64,
    pub render_ms: f64,
    /// Median untraced and traced step of the traced run, ms.
    pub untraced_p50: f64,
    pub traced_p50: f64,
    /// Sum of the per-layer spans along the blocking path, ms.
    pub span_sum_ms: f64,
}

/// Everything a workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Frames (plus admissions, for serving) attempted.
    pub attempted: u64,
    /// Attempts that errored, were quarantined or refused, or failed a
    /// per-step output check.
    pub failed: u64,
    /// Digest checks.
    pub check: Check,
    /// End-to-end metrics.
    pub end_to_end: EndToEnd,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `nproc` and the CPU model, recorded with every result.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    format!("nproc={nproc} cpu={model:?}")
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end_metrics(e: &EndToEnd, steps: &StepStats) -> Vec<Metric> {
    vec![
        ("step_ms_p50", steps.p50, "ms"),
        ("step_ms_tail", steps.tail, "ms"),
        ("frames_per_s", e.frames_per_s, "1/s"),
        ("setup_s", stats::median(&e.setups), "s"),
        ("peak_rss_mib", e.peak_rss_mib, "MiB"),
        ("energy_uj_per_frame", e.energy_uj_per_frame, "uJ"),
        ("transfer_kb_per_frame", e.transfer_kb_per_frame, "kB"),
        ("peak_image_kb", e.peak_image_kb, "kB"),
    ]
}

fn layer_metrics(l: &Layers) -> Vec<Metric> {
    vec![
        ("sensor.capture_ms", l.capture_ms * l.factor, "ms"),
        ("sensor.shard_speedup", l.shard_speedup, "x"),
        ("sensor.pool_ms", l.pool_ms * l.factor, "ms"),
        ("sensor.roi_read_ms", l.roi_read_ms * l.factor, "ms"),
        ("sensor.stage1_conversions", l.stage1_conversions, "count"),
        ("sensor.stage2_conversions", l.stage2_conversions, "count"),
        ("detect.ms", l.detect_ms * l.factor, "ms"),
        ("detect.detections", l.detections, "count"),
        ("detect.roi_keep_frac", l.roi_keep_frac, "ratio"),
        ("temporal.keyframes", l.keyframes, "count"),
        ("temporal.drift_refreshes", l.drift_refreshes, "count"),
        ("temporal.tracked_frames", l.tracked_frames, "count"),
        ("temporal.drift_refresh_frac", l.drift_refresh_frac, "ratio"),
        ("serve.tick_ms", l.tick_ms * l.factor, "ms"),
        ("serve.serve_ms", l.serve_ms * l.factor, "ms"),
        ("serve.summary_ms", l.summary_ms * l.factor, "ms"),
        ("serve.frame_ms_p50", l.frame_ms_p50 * l.factor, "ms"),
        ("serve.frame_ms_p99", l.frame_ms_p99 * l.factor, "ms"),
        ("serve.worker_busy_frac", l.worker_busy_frac, "ratio"),
        ("serve.deferred", l.deferred, "count"),
        ("serve.max_shed_level", l.max_shed_level, "count"),
        ("serve.frames", l.frames, "count"),
        ("recover.snapshot_ms", l.snapshot_ms * l.factor, "ms"),
        ("recover.snapshot_bytes", l.snapshot_bytes, "B"),
        ("scene.render_ms", l.render_ms * l.factor, "ms"),
        ("trace.overhead_frac", l.traced_p50 / l.untraced_p50 - 1.0, "ratio"),
    ]
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` prints the shortest string that round-trips: every
        // measured digit, nothing invented.
        format!("{value:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "still_vga" => still::run(&still::VGA, &opts),
        "still_5mp" => still::run(&still::FIVE_MP, &opts),
        "serve_fleet" => fleet::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let Outcome { attempted, failed, check, end_to_end, layers } = outcome;
    let Some(steps) = StepStats::of(&end_to_end.steps) else {
        eprintln!("perfbench: {} steps cannot support a tail percentile", end_to_end.steps.len());
        std::process::exit(1);
    };
    let failed = failed + check.mismatches();
    let metrics =
        if opts.trace { layer_metrics(&layers) } else { end_to_end_metrics(&end_to_end, &steps) };
    let correct = failed == 0 && metrics.iter().all(|m| m.1.is_finite());

    println!("workload={} seed={} {}", opts.workload, opts.seed, host_fingerprint());
    println!(
        "steps: {} untraced, p50 {:.4} ms, tail p{} {:.4} ms with {} steps beyond it",
        steps.count,
        steps.p50,
        steps.tail_pct,
        steps.tail,
        steps.beyond()
    );
    if !opts.trace {
        println!(
            "host: calibration kernel {:.4} ms (reference {} ms); p50 as measured {:.4} ms; set-ups {:.4?} s",
            end_to_end.kernel_ms,
            calib::REFERENCE_MS,
            end_to_end.raw_p50,
            end_to_end.setups
        );
    }
    if opts.trace {
        println!(
            "trace: roi.map {:.4} ms; spans along the blocking path sum to {:.4} ms = {:.1}% of the untraced p50",
            layers.roi_map_ms * layers.factor,
            layers.span_sum_ms * layers.factor,
            100.0 * layers.span_sum_ms / layers.untraced_p50
        );
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {} {unit}", json_number(*value));
    }
    let traced = check.traced.map_or("-".into(), |t| format!("{t:016x}"));
    println!(
        "check: digest {:016x}, traced {traced}, default seed {:016x} vs recorded {:016x}",
        check.digest, check.default_seed, check.recorded
    );
    println!(
        "failed_frac = {} ({failed} of {attempted}); verdict: {}",
        json_number(failed as f64 / attempted.max(1) as f64),
        if correct { "correct" } else { "INCORRECT" }
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line_and_rejects_bad_values() {
        let o = Opts::parse(&args("--workload still_vga --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("still_vga", 7, 10.0, true));
        assert!(Opts::parse(&args("--workload x --seed 7 --seconds 10")).is_err());
        assert!(Opts::parse(&args("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(Opts::parse(&args("--workload x --seed 1 --seconds nan --trace 0")).is_err());
        assert!(Opts::parse(&args("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(Opts::parse(&args("--workload x --seed 1 --seconds 10 --trace")).is_err());
    }

    #[test]
    fn json_numbers_are_full_precision_and_never_nan() {
        assert_eq!(json_number(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
