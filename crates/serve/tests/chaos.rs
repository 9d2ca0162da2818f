//! Chaos tests for the serve engine: session-level failure isolation,
//! checkpoint recovery, the deadline watchdog, and slot-recycling
//! hygiene.
//!
//! The injectors here are deliberately tiny hand-rolled
//! [`FaultInjector`]s pinned to exact `(session, frame)` coordinates —
//! the seeded fault *matrix* lives in `hirise-fault` and the chaos
//! benchmark; these tests pin the recovery machinery itself.

use std::sync::Arc;

use hirise::{HiriseConfig, SensorConfig, TemporalConfig};
use hirise_imaging::{draw, Rect, RgbImage};
use hirise_serve::{
    FaultAction, FaultInjector, FrameSource, Priority, ServeConfig, ServeEngine, ServeSummary,
    SessionId, SessionSpec,
};

const W: u32 = 64;
const H: u32 = 48;
/// The keyframe cadence every test runs at — and therefore the pinned
/// recovery budget: a session restored from its checkpoint reaches the
/// next scheduled keyframe within one interval.
const INTERVAL: u32 = 4;

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

fn serve_config(rated: usize) -> ServeConfig {
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    let pipeline = HiriseConfig::builder(W, H)
        .pooling(2)
        .sensor(SensorConfig::noiseless())
        .detector(detector)
        .max_rois(4)
        .roi_margin(4)
        .build()
        .unwrap();
    ServeConfig::new(pipeline)
        .temporal(TemporalConfig::default().keyframe_interval(INTERVAL).drift_threshold(1.0))
        .rated_sessions(rated)
        .max_sessions(4 * rated)
        .queue_capacity(4)
        .quantum(2)
        .latency_window(64)
}

/// Panics exactly one `(session, frame)` pair.
#[derive(Debug)]
struct PanicAt {
    session: u64,
    frame: u32,
}

impl FaultInjector for PanicAt {
    fn action(&self, session: SessionId, frame_index: u32) -> FaultAction {
        if session.0 == self.session && frame_index == self.frame {
            FaultAction::Panic
        } else {
            FaultAction::None
        }
    }
}

/// Stalls every frame of one session by a fixed simulated latency.
#[derive(Debug)]
struct StallOne {
    session: u64,
    stall_ms: f64,
}

impl FaultInjector for StallOne {
    fn action(&self, session: SessionId, _frame_index: u32) -> FaultAction {
        if session.0 == self.session {
            FaultAction::Stall { stall_ms: self.stall_ms }
        } else {
            FaultAction::None
        }
    }
}

/// Admits `count` clip-backed sessions and drives the engine to
/// completion with the given worker count.
fn run_fleet(config: ServeConfig, count: usize, frames: u32, workers: usize) -> ServeSummary {
    let mut engine = ServeEngine::new(config).unwrap();
    for i in 0..count {
        let spec = SessionSpec::default()
            .name(format!("s{i}"))
            .frames(frames)
            .priority(Priority::Normal)
            .frames_per_tick(2);
        engine.admit(spec, FrameSource::Frames(clip(8, i as u32))).unwrap();
    }
    loop {
        engine.tick();
        if engine.active_sessions() == 0 {
            return engine.summary();
        }
        engine.serve_parallel(workers).unwrap();
    }
}

#[test]
fn quarantined_session_recovers_and_the_fleet_is_unperturbed() {
    // The acceptance scenario: 8 sessions, a panic injected mid-stream
    // into session 3, at every worker count. The fleet must complete
    // with nothing dropped, exactly one session quarantined and
    // recovered within the keyframe budget, and every *other* session
    // bit-identical to a fault-free run.
    const SESSIONS: usize = 8;
    const FRAMES: u32 = 16;
    const FAULTED: u64 = 3;
    let faulted = FAULTED as usize;
    let fault: Arc<dyn FaultInjector> = Arc::new(PanicAt { session: FAULTED, frame: 6 });

    let clean = run_fleet(serve_config(SESSIONS), SESSIONS, FRAMES, 1);
    assert_eq!(clean.quarantined, 0);
    assert_eq!(clean.max_shed_level, 0, "the scenario must be fault-only, not overloaded");

    let chaos = run_fleet(serve_config(SESSIONS).fault(Arc::clone(&fault)), SESSIONS, FRAMES, 1);
    // Nothing dropped, every session completed — including the faulted
    // one, whose panicked frame is consumed rather than retried.
    assert_eq!(chaos.dropped, 0);
    assert_eq!(chaos.completed, SESSIONS as u64);
    assert_eq!(chaos.active, 0);
    // Exactly one quarantine, fully recovered, within the pinned frame
    // budget (the next scheduled keyframe after the checkpoint).
    assert_eq!(chaos.quarantined, 1);
    assert_eq!(chaos.recovered, 1);
    assert!(
        (1..=INTERVAL).contains(&chaos.max_recovery_frames),
        "recovery took {} frames, budget is {INTERVAL}",
        chaos.max_recovery_frames
    );
    // The poisoned frame never reached the tracker, so the fleet folded
    // one frame fewer than the clean run.
    assert_eq!(chaos.frames, clean.frames - 1);
    let report = &chaos.sessions[faulted];
    assert!(report.poisoned);
    assert_eq!((report.quarantines, report.recoveries, report.poisoned_frames), (1, 1, 1));
    assert!(report.completed, "the faulted session must still finish its stream");
    // Every other session is bit-identical to the fault-free run.
    for (c, f) in clean.sessions.iter().zip(&chaos.sessions) {
        assert_eq!(c.id, f.id);
        if c.id.0 == FAULTED {
            assert_ne!(c.summary, f.summary, "the fault must be observable on its session");
            continue;
        }
        assert!(!f.poisoned);
        assert_eq!(c.summary, f.summary, "session {} perturbed by another's fault", c.name);
        assert_eq!(c.deferred, f.deferred);
    }

    // And the whole chaos run — quarantine decision, recovery span,
    // per-session outputs — is invariant to the worker count.
    for workers in [1, 2, 4] {
        let parallel =
            run_fleet(serve_config(SESSIONS).fault(Arc::clone(&fault)), SESSIONS, FRAMES, workers);
        assert_eq!(parallel.quarantined, 1, "{workers} workers");
        assert_eq!(parallel.recovered, 1);
        assert_eq!(parallel.max_recovery_frames, chaos.max_recovery_frames);
        assert_eq!(parallel.frames, chaos.frames);
        for (a, b) in parallel.sessions.iter().zip(&chaos.sessions) {
            assert_eq!(a.summary, b.summary, "session {} diverged at {workers} workers", b.name);
            assert_eq!(
                (a.poisoned, a.quarantines, a.recoveries, a.max_recovery_frames),
                (b.poisoned, b.quarantines, b.recoveries, b.max_recovery_frames)
            );
        }
    }
}

#[test]
fn frame_zero_fault_cold_starts_and_still_recovers() {
    // A panic before any checkpoint exists: the session falls back to a
    // tracker reset and recovers at the very next frame (frame index 0
    // is always a keyframe).
    let fault: Arc<dyn FaultInjector> = Arc::new(PanicAt { session: 0, frame: 0 });
    let summary = run_fleet(serve_config(4).fault(fault), 1, 8, 1);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.quarantined, 1);
    assert_eq!(summary.recovered, 1);
    assert_eq!(summary.max_recovery_frames, 1, "cold start recovers at the next keyframe");
    assert_eq!(summary.frames, 7, "the poisoned frame is consumed, not folded");
}

#[test]
fn watchdog_escalates_a_stalled_session_before_it_defers() {
    // Session 0 stalls 10 s per frame against a 250 ms deadline; the
    // watchdog must count every miss and escalate exactly that session
    // one shed rung — on an otherwise unloaded fleet whose base level
    // never leaves 0.
    const FRAMES: u32 = 12;
    let fault: Arc<dyn FaultInjector> = Arc::new(StallOne { session: 0, stall_ms: 10_000.0 });
    let config = serve_config(8).fault(fault).deadline_ms(250.0);
    let summary = run_fleet(config, 2, FRAMES, 1);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.completed, 2);
    // The fleet gauge reports the deepest rung any frame was stamped
    // with — here that is the watchdog's rung, not overload.
    assert_eq!(summary.max_shed_level, 1);
    let (stalled, healthy) = (&summary.sessions[0], &summary.sessions[1]);
    assert_eq!(stalled.deadline_misses, u64::from(FRAMES), "every stalled frame over deadline");
    assert_eq!(stalled.max_shed_level, 1, "stalled session escalated one rung");
    assert!(stalled.p99_ms >= 10_000.0, "stall must dominate the recorded tail");
    assert_eq!(healthy.deadline_misses, 0);
    assert_eq!(healthy.max_shed_level, 0, "escalation must not leak to healthy sessions");
    assert_eq!(summary.deadline_misses, u64::from(FRAMES));
    // Escalation is degradation: the stalled session runs a wider
    // keyframe cadence than its healthy twin, not a shorter stream.
    assert_eq!(stalled.summary.frames, u64::from(FRAMES));
    assert!(
        stalled.summary.keyframes < healthy.summary.keyframes,
        "rung 1 must widen the stalled session's cadence ({} vs {})",
        stalled.summary.keyframes,
        healthy.summary.keyframes
    );
}

#[test]
fn recycled_slot_starts_with_fresh_metrics() {
    // Slot hygiene: a single-slot slab serves a stalled tenant to
    // completion, then a healthy one in the *same* slot. Nothing of the
    // first tenant — latency reservoir, deadline misses, queue depth —
    // may bleed into the second's report.
    let fault: Arc<dyn FaultInjector> = Arc::new(StallOne { session: 0, stall_ms: 10_000.0 });
    let config = serve_config(1).max_sessions(1).fault(fault).deadline_ms(250.0);
    let mut engine = ServeEngine::new(config).unwrap();
    let admit = |engine: &mut ServeEngine, name: &str| {
        let spec = SessionSpec::default().name(name).frames(6).frames_per_tick(2);
        engine.admit(spec, FrameSource::Frames(clip(8, 0))).unwrap()
    };
    let first = admit(&mut engine, "stalled");
    engine.drain().unwrap();
    assert_eq!(engine.active_sessions(), 0, "slot must be free again");
    let second = admit(&mut engine, "fresh");
    assert_eq!((first, second), (SessionId(0), SessionId(1)));
    engine.drain().unwrap();
    let summary = engine.summary();
    let (stalled, fresh) = (&summary.sessions[0], &summary.sessions[1]);
    assert_eq!(stalled.deadline_misses, 6);
    assert!(stalled.p99_ms >= 10_000.0);
    // The recycled slot's tenant sees none of it: every retained sample
    // is a real (sub-stall) measurement and the counters start at zero.
    assert_eq!(fresh.deadline_misses, 0);
    assert_eq!(fresh.max_shed_level, 0);
    assert_eq!(fresh.deferred, 0);
    assert_eq!(fresh.latency_ms.len(), 6, "reservoir must hold exactly the new tenant's frames");
    assert!(
        fresh.latency_ms.iter().all(|&ms| ms < 10_000.0),
        "stale latency bled into the recycled slot: {:?}",
        fresh.latency_ms
    );
    assert!(fresh.p99_ms < 10_000.0, "stale p99 bled into the recycled slot");
    assert_eq!(fresh.summary.frames, 6, "stale queue entries would distort the frame count");
}
