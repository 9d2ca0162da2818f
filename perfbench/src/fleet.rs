//! The `serve_fleet` workload: a `ServeEngine` holding a steady
//! population of small tracked sessions at three times its rated load.

use std::sync::Arc;
use std::time::Instant;

use hirise::{HiriseConfig, TemporalConfig};
use hirise_scene::{ScenarioGenerator, ScenarioSpec};
use hirise_sensor::Sensor;
use hirise_serve::{
    generate, FrameSource, ServeConfig, ServeEngine, ServeSummary, SessionSpec, TrafficConfig,
};

use crate::calib::{normalised_s, Bracketed, Calibrator};
use crate::digest::Digest;
use crate::stats::{median, MIN_STEPS};
use crate::trace::{Layer, RenderClock, Tracer};
use crate::{Check, EndToEnd, Layers, Opts, Outcome, DEFAULT_SEED, SETUPS};

/// Array size and pooling of every session.
const WIDTH: u32 = 256;
const HEIGHT: u32 = 192;
const K: u32 = 2;
/// The load the engine is provisioned for; the population is held at
/// three times it, so the shed ladder stays engaged.
const RATED: usize = 4;
const LIVE: usize = 3 * RATED;
/// `serve_parallel` workers.
const WORKERS: usize = 2;
/// An `EngineSnapshot` is taken on every tick that is a multiple of this.
const SNAPSHOT_EVERY: u64 = 8;
/// The initial population is admitted over this many ticks, so sessions
/// do not all keyframe on the same tick.
const RAMP_TICKS: u64 = 8;
/// Set-up ticks: the ramp plus enough lifetimes to mix session phases.
const WARMUP_TICKS: u64 = 32;
/// Timed ticks whose outputs form the digest and the exact metrics.
const WINDOW_TICKS: u64 = 64;
/// Distinct session specs drawn from the traffic mix (cycled).
const PLAN_SESSIONS: usize = 4096;

/// Output digest of the default seed's window.
pub const RECORDED: u64 = 0xc98f_2e00_4226_196a;

/// Counters summed over every session of a summary.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    frames: u64,
    keyframes: u64,
    drift_refreshes: u64,
    tracked_frames: u64,
    conversions: u64,
    pooling_outputs: u64,
    transfer_bits: u64,
    deferred: u64,
    poisoned_frames: u64,
    sessions: u64,
    /// Sum over sessions of each session's peak image memory, bytes.
    peak_image_bytes: u64,
    energy_mj: f64,
    service_ms: f64,
    capture_ms: f64,
    pool_ms: f64,
    detect_ms: f64,
    roi_read_ms: f64,
}

impl Totals {
    fn of(summary: &ServeSummary) -> Self {
        let mut t = Totals { energy_mj: summary.energy_mj, ..Totals::default() };
        for s in &summary.sessions {
            let q = &s.summary;
            t.frames += q.frames;
            t.keyframes += q.keyframes;
            t.drift_refreshes += q.drift_refreshes;
            t.tracked_frames += q.tracked_frames;
            t.conversions += q.aggregate.conversions;
            t.pooling_outputs += q.aggregate.pooling_outputs;
            t.transfer_bits += q.aggregate.transfer_bits;
            t.deferred += s.deferred;
            t.poisoned_frames += s.poisoned_frames;
            t.sessions += 1;
            t.peak_image_bytes += q.aggregate.peak_image_bytes;
            t.service_ms += s.latency_ms.iter().sum::<f64>();
            t.capture_ms += q.stage_totals.capture.as_secs_f64() * 1e3;
            t.pool_ms += q.stage_totals.pool.as_secs_f64() * 1e3;
            t.detect_ms += q.stage_totals.detect.as_secs_f64() * 1e3;
            t.roi_read_ms += q.stage_totals.roi_read.as_secs_f64() * 1e3;
        }
        t
    }
}

/// Every deterministic result of a summary: per-session serve counters,
/// frame-kind counts, transfer and energy folds.
fn summary_digest(summary: &ServeSummary) -> u64 {
    let mut d = Digest::default();
    d.word(summary.admitted);
    d.word(summary.rejected);
    d.word(summary.completed);
    d.word(u64::from(summary.max_shed_level));
    d.float(summary.energy_mj);
    for s in &summary.sessions {
        let q = &s.summary;
        let a = &q.aggregate;
        for word in [
            s.id.0,
            u64::from(s.completed),
            s.deferred,
            u64::from(s.max_shed_level),
            s.poisoned_frames,
            s.quarantines,
            q.frames,
            q.keyframes,
            q.drift_refreshes,
            q.tracked_frames,
            a.conversions,
            a.pooling_outputs,
            a.transfer_bits,
            a.rois,
            a.peak_image_bytes,
        ] {
            d.word(word);
        }
        for value in [q.energy_mj, q.energy_mj_keyframes, q.energy_mj_drift, q.energy_mj_tracked] {
            d.float(value);
        }
    }
    d.value()
}

/// The session mix: the seeded `hirise_serve::traffic` plans in
/// generation order (their arrival ticks are replaced by the closed loop).
fn session_mix(seed: u64) -> (Vec<SessionSpec>, usize) {
    let traffic =
        TrafficConfig { sessions: PLAN_SESSIONS, seed, arrival_span: 1, ..Default::default() };
    let specs = generate(&traffic).into_iter().map(|p| p.spec).collect();
    (specs, traffic.long_frames as usize)
}

/// A frame source rendering the spec's scenario on demand, timed by
/// `clock` so input generation shows as its own span.
fn source(spec: &SessionSpec, width: u32, height: u32, clock: &Arc<RenderClock>) -> FrameSource {
    let scenario = ScenarioSpec::by_name(&spec.scenario).expect("traffic names real presets");
    let generator = ScenarioGenerator::new(scenario, width, height, spec.seed);
    let clock = Arc::clone(clock);
    FrameSource::Generated(Box::new(move |i| clock.time(|| generator.frame(i).image)))
}

/// Timing of one step's phases.
#[derive(Debug, Clone, Copy)]
struct StepTimes {
    tick: (Instant, Instant),
    serve: (Instant, Instant),
    summary: (Instant, Instant),
    snapshot: Option<(Instant, Instant)>,
}

/// An engine, its session mix, and the closed loop that keeps `LIVE`
/// sessions being served on every tick.
struct Fleet {
    engine: ServeEngine,
    specs: Vec<SessionSpec>,
    next_spec: usize,
    width: u32,
    height: u32,
    clock: Arc<RenderClock>,
    /// Live sessions that have served every frame: the next tick retires
    /// them, so the loop admits their replacements now.
    finished_live: usize,
    summary: Option<ServeSummary>,
    snapshot_bytes: usize,
    serve_errors: u64,
}

impl Fleet {
    fn new(seed: u64, width: u32, height: u32) -> Self {
        let (specs, longest) = session_mix(seed);
        let pipeline = HiriseConfig::builder(width, height)
            .pooling(K)
            .roi_margin(2)
            .build()
            .expect("static fleet pipeline is valid");
        let config = ServeConfig::new(pipeline)
            .temporal(TemporalConfig::default().keyframe_interval(8))
            .rated_sessions(RATED)
            .max_sessions(2 * LIVE)
            // A window as long as the longest session keeps every frame's
            // service time, so sums over the windows are exact.
            .latency_window(longest);
        Self {
            engine: ServeEngine::new(config).expect("static fleet configuration is valid"),
            specs,
            next_spec: 0,
            width,
            height,
            clock: Arc::new(RenderClock::default()),
            finished_live: 0,
            summary: None,
            snapshot_bytes: 0,
            serve_errors: 0,
        }
    }

    /// Admits replacements for the sessions the coming tick retires (at
    /// most `LIVE / RAMP_TICKS` a tick while the fleet first fills).
    fn admit(&mut self) {
        let ticks = self.engine.ticks();
        let serving = self.engine.active_sessions() - self.finished_live;
        let mut want = LIVE.saturating_sub(serving);
        if ticks < RAMP_TICKS {
            want = want.min(LIVE.div_ceil(RAMP_TICKS as usize));
        }
        for _ in 0..want {
            let spec = self.specs[self.next_spec % self.specs.len()].clone();
            self.next_spec += 1;
            let source = source(&spec, self.width, self.height, &self.clock);
            // A refusal is counted by the engine (`rejected`).
            let _ = self.engine.admit(spec, source);
        }
    }

    /// One step: `tick`, `serve_parallel`, the `summary` poll, and a
    /// snapshot on every `SNAPSHOT_EVERY`-th tick.
    fn step(&mut self) -> StepTimes {
        let t0 = Instant::now();
        self.engine.tick();
        let t1 = Instant::now();
        if self.engine.serve_parallel(WORKERS).is_err() {
            self.serve_errors += 1;
        }
        let t2 = Instant::now();
        let summary = self.engine.summary();
        let t3 = Instant::now();
        let snapshot = self.engine.ticks().is_multiple_of(SNAPSHOT_EVERY).then(|| {
            self.snapshot_bytes = self.engine.snapshot().len();
            (t3, Instant::now())
        });
        let done = summary.sessions.iter().filter(|s| s.completed).count();
        self.finished_live = done - summary.completed as usize;
        self.summary = Some(summary);
        StepTimes { tick: (t0, t1), serve: (t1, t2), summary: (t2, t3), snapshot }
    }

    fn summary(&self) -> &ServeSummary {
        self.summary.as_ref().expect("a step has run")
    }
}

/// Builds a fleet and runs its warm-up ticks.
fn prepare(seed: u64, width: u32, height: u32) -> Fleet {
    let mut fleet = Fleet::new(seed, width, height);
    for _ in 0..WARMUP_TICKS {
        fleet.admit();
        fleet.step();
    }
    fleet
}

/// The digest window of one seed: its counters at the end of set-up and
/// `WINDOW_TICKS` ticks later.
struct Window {
    before: Totals,
    after: Totals,
    digest: u64,
    max_shed_level: u8,
    snapshot_bytes: usize,
}

impl Window {
    /// Sets up a fleet and runs it (untimed) through the window, with the
    /// render clock on where a traced run's traced steps would have it.
    fn run(seed: u64, trace: bool) -> Self {
        let mut fleet = prepare(seed, WIDTH, HEIGHT);
        let before = Totals::of(fleet.summary());
        for i in 0..WINDOW_TICKS {
            fleet.clock.set(trace && traced_step(i));
            fleet.admit();
            fleet.step();
        }
        let summary = fleet.summary();
        Self {
            before,
            after: Totals::of(summary),
            digest: summary_digest(summary),
            max_shed_level: summary.max_shed_level,
            snapshot_bytes: fleet.snapshot_bytes,
        }
    }
}

/// Whether step `step` of a traced run is a traced one: the top bit of a
/// Fibonacci hash of the step. Unlike plain alternation it lines up with
/// no tick period (snapshots and keyframes both recur every 8), so traced
/// and untraced steps see the same mix of ticks.
fn traced_step(step: u64) -> bool {
    step.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
}

fn span_ms((from, to): (Instant, Instant)) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Runs `serve_fleet`: set-up (repeated [`SETUPS`] times), the timed
/// ticks, then the output checks.
pub fn run(opts: &Opts) -> Outcome {
    let mut calibrator = Calibrator::new(WORKERS);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let (fleet, s) = normalised_s(&mut calibrator, || prepare(opts.seed, WIDTH, HEIGHT));
        prepared = Some(fleet);
        setup_s.push(s);
    }
    let mut fleet = prepared.expect("at least one set-up");
    let before = Totals::of(fleet.summary());
    let (admitted0, rejected0) = (fleet.engine.admitted(), fleet.engine.rejected());

    // Shard probe frames and sensors (traced runs only).
    let probe_scene = opts.trace.then(|| {
        let spec = ScenarioSpec::by_name("crossing").expect("preset exists");
        ScenarioGenerator::new(spec, WIDTH, HEIGHT, opts.seed).frame(0).image
    });
    let mut probes: Vec<Sensor> = probe_scene
        .iter()
        .flat_map(|scene| {
            [1, 2].map(|shards| {
                let mut config = fleet.engine.config().pipeline.sensor;
                config.shards = shards;
                Sensor::capture(scene, config)
            })
        })
        .collect();
    let mut probe_ms = [Vec::with_capacity(1 << 14), Vec::with_capacity(1 << 14)];

    let mut tracer = Tracer::with_capacity(if opts.trace { 1 << 16 } else { 0 });
    let mut untraced = Bracketed::new(calibrator);
    let mut traced = Vec::with_capacity(1 << 16);
    let (mut busy_service_ms, mut busy_serve_ms) = (0.0, 0.0);

    let start = Instant::now();
    let mut step = 0usize;
    while start.elapsed().as_secs_f64() < opts.seconds || untraced.len() < MIN_STEPS {
        let tracing = opts.trace && traced_step(step as u64);
        fleet.clock.set(tracing);
        fleet.admit();
        let service_before = if tracing { Totals::of(fleet.summary()).service_ms } else { 0.0 };
        let times = fleet.step();
        let end = times.snapshot.map_or(times.summary.1, |s| s.1);
        let step_ms = span_ms((times.tick.0, end));
        if tracing {
            traced.push(step_ms);
            untraced.gap();
            let id = step as u32;
            tracer.record(Layer::Tick, id, times.tick.0, times.tick.1);
            tracer.record(Layer::Serve, id, times.serve.0, times.serve.1);
            tracer.record(Layer::Summary, id, times.summary.0, times.summary.1);
            if let Some((from, to)) = times.snapshot {
                tracer.record(Layer::Snapshot, id, from, to);
            }
            tracer.record(Layer::Step, id, times.tick.0, end);
            busy_service_ms += Totals::of(fleet.summary()).service_ms - service_before;
            busy_serve_ms += span_ms(times.serve);
            for (sensor, out) in probes.iter_mut().zip(probe_ms.iter_mut()) {
                let t = Instant::now();
                sensor.recapture(probe_scene.as_ref().expect("probes exist only with a scene"));
                out.push(span_ms((t, Instant::now())));
            }
        } else {
            // Samples the calibration kernel after the step.
            untraced.step(step_ms);
        }
        step += 1;
    }
    let peak_rss_mib = crate::peak_rss_mib();
    fleet.clock.set(false);

    let summary = fleet.summary();
    let after = Totals::of(summary);
    let admissions = fleet.engine.admitted() - admitted0;
    let refused = fleet.engine.rejected() - rejected0;
    let frames = after.frames - before.frames;
    let attempted = frames + admissions + refused;
    let failed = (after.poisoned_frames - before.poisoned_frames) + refused + fleet.serve_errors;

    let own_digest = summary_digest(summary);

    let mut layers = Layers::default();
    if opts.trace {
        let served = frames as f64;
        layers.capture_ms = (after.capture_ms - before.capture_ms) / served;
        layers.pool_ms = (after.pool_ms - before.pool_ms) / served;
        layers.detect_ms = (after.detect_ms - before.detect_ms) / served;
        layers.roi_read_ms = (after.roi_read_ms - before.roi_read_ms) / served;
        layers.shard_speedup = median(&probe_ms[0]) / median(&probe_ms[1]);
        layers.tick_ms = median(&tracer.durations_ms(Layer::Tick));
        layers.serve_ms = median(&tracer.durations_ms(Layer::Serve));
        layers.summary_ms = median(&tracer.durations_ms(Layer::Summary));
        layers.snapshot_ms = median(&tracer.durations_ms(Layer::Snapshot));
        layers.frame_ms_p50 = summary.p50_ms;
        layers.frame_ms_p99 = summary.p99_ms;
        layers.worker_busy_frac = busy_service_ms / (WORKERS as f64 * busy_serve_ms);
        layers.render_ms = fleet.clock.mean_ms();
        layers.untraced_p50 = median(&untraced.raw);
        layers.traced_p50 = median(&traced);
        layers.span_sum_ms = layers.tick_ms + layers.serve_ms + layers.summary_ms;
        if let Some(path) = &opts.trace_out {
            let header = format!("workload={} seed={}", opts.workload, opts.seed);
            if let Err(e) = tracer.write_tsv(path, &header) {
                eprintln!("perfbench: cannot write trace {path}: {e}");
            }
        }
    }
    drop(fleet);

    // The default seed's window checks the recorded digest and gives the
    // exact modelled metrics, so those repeat bit-for-bit whatever the
    // seed.
    let win = Window::run(DEFAULT_SEED, opts.trace);
    let (b, a) = (&win.before, &win.after);
    let per_frame = (a.frames - b.frames) as f64;
    layers.factor = untraced.run_factor();
    let end_to_end = EndToEnd {
        frames_per_s: frames as f64 / (untraced.normalised.iter().sum::<f64>() / 1e3),
        raw_p50: median(&untraced.raw),
        kernel_ms: untraced.kernel_ms(),
        steps: untraced.normalised,
        setups: setup_s,
        peak_rss_mib,
        energy_uj_per_frame: (a.energy_mj - b.energy_mj) * 1e3 / per_frame,
        transfer_kb_per_frame: (a.transfer_bits - b.transfer_bits) as f64 / 8e3 / per_frame,
        peak_image_kb: a.peak_image_bytes as f64 / a.sessions as f64 / 1e3,
    };
    if opts.trace {
        let stage1 = a.pooling_outputs - b.pooling_outputs;
        layers.stage1_conversions = stage1 as f64 / per_frame;
        layers.stage2_conversions = ((a.conversions - b.conversions) - stage1) as f64 / per_frame;
        layers.keyframes = (a.keyframes - b.keyframes) as f64;
        layers.drift_refreshes = (a.drift_refreshes - b.drift_refreshes) as f64;
        layers.tracked_frames = (a.tracked_frames - b.tracked_frames) as f64;
        layers.drift_refresh_frac =
            layers.drift_refreshes / (layers.drift_refreshes + layers.tracked_frames).max(1.0);
        layers.deferred = (a.deferred - b.deferred) as f64;
        layers.max_shed_level = f64::from(win.max_shed_level);
        layers.frames = per_frame;
        layers.snapshot_bytes = win.snapshot_bytes as f64;
    }
    let check =
        Check { digest: own_digest, traced: None, default_seed: win.digest, recorded: RECORDED };
    Outcome { attempted, failed, check, end_to_end, layers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_holds_the_population_at_its_target() {
        let mut fleet = Fleet::new(7, 64, 48);
        let mut serving = Vec::new();
        for _ in 0..WARMUP_TICKS + 24 {
            fleet.admit();
            fleet.step();
            // Sessions served on this tick: live now, including any that
            // just finished.
            serving.push(fleet.engine.active_sessions());
        }
        let timed = &serving[WARMUP_TICKS as usize..];
        assert!(timed.iter().all(|&n| n == LIVE), "live count left its target: {timed:?}");
        assert_eq!(fleet.engine.rejected(), 0);
        assert!(fleet.summary().completed > 0, "no session finished, so nothing was replaced");
        assert!(fleet.summary().max_shed_level > 0, "3x rated load must engage the shed ladder");
    }

    #[test]
    fn window_digest_is_stable_and_seeded() {
        let run = |seed| {
            let mut fleet = prepare(seed, 64, 48);
            for i in 0..8 {
                fleet.clock.set(traced_step(i));
                fleet.admit();
                fleet.step();
            }
            summary_digest(fleet.summary())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
