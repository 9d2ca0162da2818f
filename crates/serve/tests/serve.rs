//! Integration tests for the serve engine: the overload contract
//! (degrade, never drop), backpressure, admission, and the
//! worker-count-invariance extension of the determinism contract.

use hirise::{HiriseConfig, SensorConfig, TemporalConfig};
use hirise_imaging::{draw, Rect, RgbImage};
use hirise_serve::{
    generate, nearest_rank, run_plans, AdmitError, FrameSource, Priority, ServeConfig, ServeEngine,
    ServeSummary, SessionSpec, TrafficConfig,
};

const W: u32 = 64;
const H: u32 = 48;

/// A short clip with one moving textured object.
fn clip(frames: u32, phase: u32) -> Vec<RgbImage> {
    (0..frames)
        .map(|i| {
            let mut img = RgbImage::from_fn(W, H, |_, _| (0.35, 0.35, 0.35));
            let x = 6 + (phase * 5 + i * 2) % (W / 2);
            let obj = Rect::new(x, 12, 12, 20);
            draw::fill_rect_rgb(&mut img, obj, (0.9, 0.4, 0.2));
            let [pr, _, _] = img.planes_mut();
            draw::fill_stripes(pr, obj, 2, 0.95, 0.55);
            img
        })
        .collect()
}

fn pipeline_config(sensor: SensorConfig) -> HiriseConfig {
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    HiriseConfig::builder(W, H)
        .pooling(2)
        .sensor(sensor)
        .detector(detector)
        .max_rois(4)
        .roi_margin(4)
        .build()
        .unwrap()
}

fn serve_config(rated: usize) -> ServeConfig {
    ServeConfig::new(pipeline_config(SensorConfig::noiseless()))
        .temporal(TemporalConfig::default().keyframe_interval(4).drift_threshold(1.0))
        .rated_sessions(rated)
        .max_sessions(4 * rated)
        .queue_capacity(4)
        .latency_window(64)
}

/// Admits `count` clip-backed sessions of `frames` frames each, with a
/// priority spread (session i % 3: 0 → High, 1 → Normal, 2 → Low).
fn admit_fleet(engine: &mut ServeEngine, count: usize, frames: u32) {
    for i in 0..count {
        let priority = match i % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        let spec = SessionSpec::default()
            .name(format!("s{i}"))
            .frames(frames)
            .priority(priority)
            .frames_per_tick(2);
        engine.admit(spec, FrameSource::Frames(clip(8, i as u32))).unwrap();
    }
}

#[test]
fn overload_degrades_before_dropping_anything() {
    // 2× the rated load: the ISSUE's acceptance scenario. Degradation
    // must engage and every session must still complete every frame.
    let rated = 4;
    let mut engine = ServeEngine::new(serve_config(rated)).unwrap();
    admit_fleet(&mut engine, 2 * rated, 12);
    engine.drain().unwrap();
    let summary = engine.summary();

    assert_eq!(summary.dropped, 0, "an admitted session must never be dropped");
    assert_eq!(summary.admitted, 2 * rated as u64);
    assert_eq!(summary.completed, 2 * rated as u64, "every session must finish");
    assert_eq!(summary.active, 0);
    assert_eq!(summary.frames, 2 * rated as u64 * 12, "every frame must be served");
    // At load 2.0 the default ladder sits at base level 2; the gauge
    // reports the deepest rung any frame was stamped with, and low
    // priority rides one rung above the base.
    assert_eq!(summary.max_shed_level, 3, "degradation did not engage at 2× rated load");
    for report in &summary.sessions {
        assert!(report.completed, "session {} unfinished", report.name);
        assert_eq!(report.summary.frames, 12);
    }

    // The same fleet on a generously rated engine never sheds — and
    // schedules strictly more keyframes, because overload widened the
    // loaded fleet's keyframe interval (degradation, not drops).
    let mut unshed = ServeEngine::new(serve_config(64)).unwrap();
    admit_fleet(&mut unshed, 2 * rated, 12);
    unshed.drain().unwrap();
    let baseline = unshed.summary();
    assert_eq!(baseline.max_shed_level, 0);
    assert_eq!(baseline.frames, summary.frames);
    assert!(
        summary.keyframes < baseline.keyframes,
        "shedding should widen keyframe intervals: {} keyframes shed vs {} unshed",
        summary.keyframes,
        baseline.keyframes
    );
    // Degraded sensing is cheaper sensing: the paper's budget argument,
    // one level up.
    assert!(
        summary.energy_mj < baseline.energy_mj,
        "shedding should reduce sensor energy: {} mJ shed vs {} mJ unshed",
        summary.energy_mj,
        baseline.energy_mj
    );
}

#[test]
fn shedding_follows_priority_order() {
    // At base level 1 (just past rated), low-priority sessions are two
    // rungs in while high-priority sessions still run clean.
    let rated = 4;
    let config = serve_config(rated);
    let mut engine = ServeEngine::new(config).unwrap();
    // 6 active sessions → load 1.5 → base level 1 (strictly past 1.0,
    // not past 1.5).
    admit_fleet(&mut engine, 6, 12);
    engine.drain().unwrap();
    let summary = engine.summary();
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.max_shed_level, 2, "the gauge tops out at low priority's rung");
    let max_for = |p: Priority| {
        summary.sessions.iter().filter(|r| r.priority == p).map(|r| r.max_shed_level).max().unwrap()
    };
    assert_eq!(max_for(Priority::High), 0, "high priority degraded at base level 1");
    assert_eq!(max_for(Priority::Normal), 1);
    assert_eq!(max_for(Priority::Low), 2, "low priority must degrade first");
}

#[test]
fn backpressure_defers_but_serves_everything() {
    // Arrivals outrun the queue: 6 frames/tick into a 4-deep queue.
    // The overflow must be deferred to later ticks — and still served.
    let mut engine = ServeEngine::new(serve_config(8).queue_capacity(4)).unwrap();
    let spec = SessionSpec::default().frames(30).frames_per_tick(6);
    engine.admit(spec, FrameSource::Frames(clip(8, 0))).unwrap();
    engine.drain().unwrap();
    let summary = engine.summary();
    assert_eq!(summary.frames, 30, "deferred frames must eventually be served");
    assert_eq!(summary.dropped, 0);
    assert!(summary.deferred > 0, "queue bound never engaged — backpressure untested");
    assert_eq!(summary.completed, 1);
}

#[test]
fn admission_cap_refuses_at_the_door() {
    let config = serve_config(1).max_sessions(2);
    let mut engine = ServeEngine::new(config).unwrap();
    let admit = |engine: &mut ServeEngine, name: &str| {
        engine.admit(SessionSpec::default().name(name).frames(4), FrameSource::Frames(clip(4, 0)))
    };
    admit(&mut engine, "a").unwrap();
    admit(&mut engine, "b").unwrap();
    let refused = admit(&mut engine, "c");
    assert!(matches!(refused, Err(AdmitError::Full { active: 2, max_sessions: 2 })));
    assert_eq!(engine.rejected(), 1);
    assert_eq!(engine.active_sessions(), 2);
    // Degenerate admissions are refused with a reason, not counted
    // against the cap... and an empty clip cannot enter the slab.
    let empty = engine.admit(SessionSpec::default(), FrameSource::Frames(Vec::new()));
    assert!(matches!(empty, Err(AdmitError::Invalid { .. })));
    let zero_frames = admit(&mut engine, "d");
    assert!(matches!(zero_frames, Err(AdmitError::Full { .. })));
    // Draining frees the slab for new admissions.
    engine.drain().unwrap();
    admit(&mut engine, "e").unwrap();
    assert_eq!(engine.summary().rejected, 2, "\"c\" and \"d\" both hit the cap");
}

/// Runs the same overloaded fleet on `sensor` under a given serve
/// driver and returns the per-session summaries in admission order.
fn run_fleet_with(
    sensor: SensorConfig,
    drive: impl Fn(&mut ServeEngine) -> hirise::Result<u64>,
) -> hirise_serve::ServeSummary {
    let mut config = serve_config(4);
    config.pipeline = pipeline_config(sensor);
    let mut engine = ServeEngine::new(config).unwrap();
    admit_fleet(&mut engine, 8, 10);
    loop {
        engine.tick();
        if engine.active_sessions() == 0 {
            return engine.summary();
        }
        drive(&mut engine).unwrap();
    }
}

#[test]
fn per_session_outputs_are_invariant_to_worker_count() {
    // The determinism contract, extended to the serve layer: for a
    // fixed tick schedule (serve-to-dry each tick), the per-session
    // outputs are bit-identical whether the slab is drained inline by
    // one worker or by any number of shard workers. Shed levels were stamped at
    // enqueue, sessions share no mutable state, and the sensor noise is
    // position-keyed — nothing observes the scheduling. The noisy
    // keyed sensor is checked at two capture shard counts, all against
    // the unsharded one-worker run.
    let noisy = SensorConfig::default(); // keyed noise is the default
    let inputs = [
        ("noiseless", vec![SensorConfig::noiseless()]),
        ("noisy keyed", vec![noisy, SensorConfig { shards: 2, ..noisy }]),
    ];
    for (input, sensors) in &inputs {
        let serial = run_fleet_with(sensors[0], |e| e.serve_parallel(1));
        assert_eq!(serial.max_shed_level, 3, "fleet must be overloaded for the test to bite");
        assert!(serial.sessions.iter().all(|s| s.summary.aggregate.rois > 0), "{input}: no ROIs");
        for &sensor in sensors {
            let shards = sensor.shards;
            for workers in [1, 2, 3, 4] {
                let parallel = run_fleet_with(sensor, |e| e.serve_parallel(workers));
                assert_eq!(parallel.sessions.len(), serial.sessions.len());
                for (p, s) in parallel.sessions.iter().zip(&serial.sessions) {
                    assert_eq!(p.id, s.id);
                    assert_eq!(
                        p.summary, s.summary,
                        "{input}: session {} diverged at {workers} workers / {shards} shards",
                        s.name
                    );
                    assert_eq!(p.max_shed_level, s.max_shed_level);
                    assert_eq!(p.deferred, s.deferred);
                }
                assert_eq!(parallel.frames, serial.frames);
                assert_eq!(parallel.energy_mj, serial.energy_mj);
            }
        }
    }
}

#[test]
fn traffic_driven_stress_run_completes_everything() {
    // The seeded synthetic workload end to end: scenario-backed
    // sessions, bursts, arrival spread, cap refusals — everything the
    // saturation benchmark drives, at test scale.
    let mut engine = ServeEngine::new(serve_config(4)).unwrap();
    let plans = generate(&TrafficConfig::default().sessions(12).seed(7));
    run_plans(&mut engine, &plans).unwrap();
    let summary = engine.summary();
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.admitted + summary.rejected, 12);
    assert_eq!(summary.completed, summary.admitted);
    assert_eq!(summary.active, 0);
    let expected: u64 = plans.iter().map(|p| u64::from(p.spec.frames)).sum();
    assert_eq!(summary.frames, expected, "refusals should be zero at this cap");
    assert!(summary.max_shed_level > 0, "12 sessions over rated 4 must shed");
    assert_eq!(
        summary.frames,
        summary.keyframes + summary.drift_refreshes + summary.tracked_frames
    );
    // The latency plumbing produced real measurements.
    assert!(summary.p50_ms > 0.0 && summary.p99_ms >= summary.p50_ms);
    // And the run reproduces bit-for-bit from the same seed.
    let mut again = ServeEngine::new(serve_config(4)).unwrap();
    run_plans(&mut again, &generate(&TrafficConfig::default().sessions(12).seed(7))).unwrap();
    let second = again.summary();
    assert_eq!(second.frames, summary.frames);
    assert_eq!(second.energy_mj, summary.energy_mj);
    for (a, b) in second.sessions.iter().zip(&summary.sessions) {
        assert_eq!(a.summary, b.summary);
    }
}

/// Runs a fleet that keeps `live` sessions in the slab, admitting a
/// replacement (from `total` specs of mixed lengths) whenever one
/// retires, and serves every tick at `workers`. The free list hands out
/// the most recently freed slot, so the live sessions stay in the low
/// slots of a slab twice their size while the high slots sit empty.
fn run_crowded_fleet(workers: usize, live: usize, total: usize) -> ServeSummary {
    let mut engine = ServeEngine::new(serve_config(4).max_sessions(2 * live)).unwrap();
    let mut admitted = 0;
    loop {
        while engine.active_sessions() < live && admitted < total {
            let spec = SessionSpec::default()
                .name(format!("c{admitted}"))
                .frames(3 + 4 * (admitted as u32 % 4))
                .frames_per_tick(1 + admitted as u32 % 2);
            engine.admit(spec, FrameSource::Frames(clip(8, admitted as u32))).unwrap();
            admitted += 1;
        }
        engine.tick();
        if engine.active_sessions() == 0 && admitted == total {
            return engine.summary();
        }
        engine.serve_parallel(workers).unwrap();
    }
}

#[test]
fn per_session_outputs_are_invariant_to_worker_count_with_crowded_low_slots() {
    // Replacements reuse low slots, so a static split of the slab into
    // bands would hand one worker nearly every live session. Claims
    // balance that; the outputs must not notice either way.
    let serial = run_crowded_fleet(1, 6, 20);
    assert_eq!(serial.completed, 20);
    assert!(serial.keyframes > 0 && serial.tracked_frames > 0);
    for workers in [2, 3, 4] {
        let parallel = run_crowded_fleet(workers, 6, 20);
        assert_eq!(parallel.sessions.len(), serial.sessions.len());
        for (p, s) in parallel.sessions.iter().zip(&serial.sessions) {
            assert_eq!(p.id, s.id);
            assert_eq!(p.summary, s.summary, "session {} diverged at {workers} workers", s.name);
            assert_eq!(p.deferred, s.deferred);
            assert_eq!(p.max_shed_level, s.max_shed_level);
        }
        assert_eq!(parallel.energy_mj.to_bits(), serial.energy_mj.to_bits());
    }
}

/// A clip-backed source whose frame `bad_frame` comes out `size`×`size`
/// instead of the array's size.
fn failing_source(phase: u32, bad_frame: u32, size: u32) -> FrameSource {
    let frames = clip(8, phase);
    FrameSource::Generated(Box::new(move |i| {
        if i == bad_frame {
            RgbImage::from_fn(size, size, |_, _| (0.5, 0.5, 0.5))
        } else {
            frames[i as usize % frames.len()].clone()
        }
    }))
}

/// The source of session `f{i}` in the failing fleet: the sessions in
/// slots 2 and 5 fail on their frame 3, with different wrong sizes.
fn failing_fleet_source(spec: &SessionSpec) -> Option<FrameSource> {
    let i: u32 = spec.name.strip_prefix('f')?.parse().ok()?;
    Some(match i {
        2 => failing_source(i, 3, 16),
        5 => failing_source(i, 3, 24),
        _ => FrameSource::Frames(clip(8, i)),
    })
}

/// An engine holding the eight sessions of the failing fleet.
fn failing_fleet() -> ServeEngine {
    let mut engine = ServeEngine::new(serve_config(8)).unwrap();
    for i in 0..8u32 {
        let spec = SessionSpec::default().name(format!("f{i}")).frames(12).frames_per_tick(2);
        let source = failing_fleet_source(&spec).unwrap();
        engine.admit(spec, source).unwrap();
    }
    engine
}

/// Serves the failing fleet for a fixed number of ticks. Returns every
/// pass's outcome and the final summary.
fn run_failing_fleet(workers: usize) -> (Vec<Result<u64, String>>, ServeSummary) {
    let mut engine = failing_fleet();
    let outcomes = (0..10)
        .map(|_| {
            engine.tick();
            engine.serve_parallel(workers).map_err(|e| e.to_string())
        })
        .collect();
    (outcomes, engine.summary())
}

#[test]
fn frame_failures_are_deterministic_across_worker_counts() {
    // A failure stops only its own session's drain, and the pass
    // reports the lowest failing slot's error: neither which sessions
    // drain nor which error comes back depends on the worker count.
    let (outcomes, serial) = run_failing_fleet(1);
    let failed: Vec<&String> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
    assert_eq!(failed.len(), 1, "both bad frames are served in the same pass: {outcomes:?}");
    assert_eq!(failed[0], "scene is 16x16 but the pixel array is 64x48", "lowest slot wins");
    for report in &serial.sessions {
        let healthy = !matches!(report.name.as_str(), "f2" | "f5");
        assert_eq!(report.completed, healthy, "session {}", report.name);
    }
    for workers in [2, 4] {
        let (parallel_outcomes, parallel) = run_failing_fleet(workers);
        assert_eq!(parallel_outcomes, outcomes, "{workers} workers");
        for (p, s) in parallel.sessions.iter().zip(&serial.sessions) {
            assert_eq!(p.id, s.id);
            assert_eq!(p.summary, s.summary, "session {} diverged at {workers} workers", s.name);
            assert_eq!(p.deferred, s.deferred);
        }
    }
}

/// Drains the failing fleet at `workers` workers: the first `drain`
/// returns the lowest failing slot's error, and a second one finishes
/// the fleet. Returns that error and the final summary.
fn drain_failing_fleet(workers: usize) -> (String, ServeSummary) {
    let mut engine = failing_fleet();
    // Sets the worker count `drain` serves at; nothing is queued yet.
    assert_eq!(engine.serve_parallel(workers).unwrap(), 0);
    let error = engine.drain().unwrap_err().to_string();
    engine.drain().expect("the failed sessions are over, so the rest drains");
    assert_eq!(engine.active_sessions(), 0, "{workers} workers");
    (error, engine.summary())
}

#[test]
fn drain_terminates_after_a_frame_error_at_any_worker_count() {
    // A frame error ends its session: the frame is consumed, the session
    // retires at the next tick as failed, and `drain` finishes the rest
    // of the fleet instead of waiting on it forever.
    let (error, serial) = drain_failing_fleet(1);
    assert_eq!(error, "scene is 16x16 but the pixel array is 64x48", "lowest slot wins");
    assert_eq!((serial.completed, serial.failed, serial.active), (6, 2, 0));
    for report in &serial.sessions {
        let bad = matches!(report.name.as_str(), "f2" | "f5");
        assert_eq!(report.failed, bad, "session {}", report.name);
        assert_eq!(report.completed, !bad, "session {}", report.name);
        // Frames 0..3 were served; frame 3 failed and ended the session.
        assert_eq!(report.summary.frames, if bad { 3 } else { 12 }, "session {}", report.name);
    }
    for workers in [2, 4] {
        let (parallel_error, parallel) = drain_failing_fleet(workers);
        assert_eq!(parallel_error, error, "{workers} workers");
        assert_eq!((parallel.completed, parallel.failed), (serial.completed, serial.failed));
        assert_eq!(parallel.energy_mj.to_bits(), serial.energy_mj.to_bits(), "{workers} workers");
        for (p, s) in parallel.sessions.iter().zip(&serial.sessions) {
            assert_eq!(p.id, s.id);
            assert_eq!((p.completed, p.failed), (s.completed, s.failed));
            assert_eq!(p.summary, s.summary, "session {} diverged at {workers} workers", s.name);
            assert_eq!(p.deferred, s.deferred);
            assert_eq!(p.max_shed_level, s.max_shed_level);
        }
    }
}

#[test]
fn a_failed_session_stays_failed_across_a_snapshot() {
    // Between its failing pass and the next tick a failed session is
    // still in the slab. A snapshot taken there must carry the mark, or
    // the restored session would serve on past its error.
    let mut engine = failing_fleet();
    let mut failed_pass = false;
    while !failed_pass {
        engine.tick();
        failed_pass = engine.serve_parallel(2).is_err();
    }
    let snapshot = engine.snapshot();
    let mut restored =
        ServeEngine::restore(&snapshot, serve_config(8), &failing_fleet_source).unwrap();
    assert_eq!(restored.snapshot().as_bytes(), snapshot.as_bytes());
    engine.drain().unwrap();
    restored.drain().unwrap();
    let (a, b) = (engine.summary(), restored.summary());
    assert_eq!((a.completed, a.failed), (6, 2));
    assert_eq!((b.completed, b.failed), (6, 2));
    assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits());
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!((x.id, x.completed, x.failed), (y.id, y.completed, y.failed));
        assert_eq!(x.summary, y.summary, "session {} diverged after restore", x.name);
    }
}

#[test]
fn summary_percentiles_match_a_full_merge_and_sort() {
    // `summary()` keeps the retired sessions' samples pre-sorted and
    // sorts only the live ones; its percentiles must equal the naive
    // merge-and-sort of every report's window, bit for bit, at every
    // point of a run with retirements.
    let mut engine = ServeEngine::new(serve_config(4)).unwrap();
    let plans = generate(&TrafficConfig::default().sessions(10).seed(3));
    let mut next = 0;
    let mut checked_with_retired = false;
    while next < plans.len() || engine.active_sessions() > 0 {
        while next < plans.len() && plans[next].at_tick <= engine.ticks() {
            let plan = &plans[next];
            let source = hirise_serve::source_for(&plan.spec, W, H).unwrap();
            let _ = engine.admit(plan.spec.clone(), source);
            next += 1;
        }
        engine.tick();
        engine.serve_parallel(2).unwrap();
        let summary = engine.summary();
        let mut merged: Vec<f64> =
            summary.sessions.iter().flat_map(|r| r.latency_ms.iter().copied()).collect();
        merged.sort_by(f64::total_cmp);
        assert_eq!(summary.p50_ms.to_bits(), nearest_rank(&merged, 50.0).to_bits());
        assert_eq!(summary.p99_ms.to_bits(), nearest_rank(&merged, 99.0).to_bits());
        checked_with_retired |= summary.completed > 0 && summary.active > 0;
    }
    assert!(checked_with_retired, "no poll saw retired and live sessions together");
}
