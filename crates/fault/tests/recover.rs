//! End-to-end crash recovery under the full fault matrix: sensor
//! defects on the frames, a pinned panic quarantine in flight, and a
//! [`CrashPlan`]-scheduled process death — warm-restarted from snapshot
//! plus journal and pinned bit-identical to the uninterrupted run.
//!
//! The serve-layer suite (`hirise-serve/tests/recover.rs`) sweeps crash
//! ticks with hand-rolled injectors; this test wires the same protocol
//! through the seeded fault plan, so one seed describes the *entire*
//! hostile run — defects, panics, and the kill schedule.

use std::sync::Arc;

use hirise::{HiriseConfig, SensorConfig, TemporalConfig};
use hirise_fault::{faulty_source_for, ChaosInjector, CrashPlan, FaultConfig, FaultPlan};
use hirise_serve::{
    run_plans_journaled, ArrivalJournal, FaultInjector, FrameSource, ServeConfig, ServeEngine,
    ServeSummary, SessionPlan, SessionSpec, TrafficConfig,
};

const W: u32 = 64;
const H: u32 = 48;
/// The fleet's site id in the crash domain (one replica under test).
const FLEET: u64 = 0;

fn serve_config(plan: &Arc<FaultPlan>) -> ServeConfig {
    let detector = hirise::DetectorConfig { score_threshold: 0.2, ..Default::default() };
    let pipeline = HiriseConfig::builder(W, H)
        .pooling(2)
        .sensor(SensorConfig::noiseless())
        .detector(detector)
        .max_rois(4)
        .roi_margin(4)
        .build()
        .unwrap();
    let injector: Arc<dyn FaultInjector> = Arc::new(ChaosInjector::new(Arc::clone(plan)));
    ServeConfig::new(pipeline)
        .temporal(TemporalConfig::default().keyframe_interval(4).drift_threshold(1.0))
        .rated_sessions(4)
        .max_sessions(16)
        .queue_capacity(4)
        .latency_window(64)
        .fault(injector)
}

/// The fault-wrapped source factory: pure in the spec (the site is
/// recovered from the plan list, which is itself pure in the traffic
/// seed), so a restore rebuilds byte-identical defective frames.
fn factory_for(
    plans: &[SessionPlan],
    plan: &Arc<FaultPlan>,
) -> impl Fn(&SessionSpec) -> Option<FrameSource> {
    let names: Vec<String> = plans.iter().map(|p| p.spec.name.clone()).collect();
    let plan = Arc::clone(plan);
    move |spec: &SessionSpec| {
        let site = names.iter().position(|n| n == &spec.name)? as u64;
        faulty_source_for(spec, W, H, &plan, site)
    }
}

fn assert_runs_identical(a: &ServeSummary, b: &ServeSummary, label: &str) {
    assert_eq!(a.ticks, b.ticks, "{label}: ticks");
    assert_eq!(a.frames, b.frames, "{label}: frames");
    assert_eq!(a.completed, b.completed, "{label}: completed");
    assert_eq!(a.dropped, b.dropped, "{label}: dropped");
    assert_eq!(a.deferred, b.deferred, "{label}: deferrals");
    assert_eq!(a.quarantined, b.quarantined, "{label}: quarantined");
    assert_eq!(a.recovered, b.recovered, "{label}: recovered");
    assert_eq!(a.max_recovery_frames, b.max_recovery_frames, "{label}: recovery span");
    assert_eq!(a.max_shed_level, b.max_shed_level, "{label}: shed");
    assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits(), "{label}: energy");
    assert_eq!(a.sessions.len(), b.sessions.len(), "{label}: session count");
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(x.id, y.id, "{label}: session order");
        assert_eq!(x.summary, y.summary, "{label}: session {} stream diverged", x.name);
        assert_eq!(
            (x.poisoned, x.quarantines, x.recoveries, x.deferred),
            (y.poisoned, y.quarantines, y.recoveries, y.deferred),
            "{label}: session {} fault history diverged",
            x.name
        );
    }
}

#[test]
fn seeded_crash_recovers_a_fully_faulted_fleet_bit_identically() {
    // One seed fixes everything hostile about this run: stuck sensor
    // rows on every session's frames, a pinned panic (session 2, frame
    // 6) that quarantines mid-run, and the seeded per-tick crash draw
    // that kills the process.
    let mut fault_config = FaultConfig::default().panic_at(2, 6);
    fault_config.sensor.stuck_row_rate = 0.08;
    fault_config.serve.crash_rate = 0.12;
    let plan = Arc::new(FaultPlan::new(0xDEC0DE, fault_config).unwrap());
    let plans = hirise_serve::generate(&TrafficConfig::default().sessions(6));
    let factory = factory_for(&plans, &plan);

    // Uninterrupted reference — same faults, no process death.
    let mut engine = ServeEngine::new(serve_config(&plan)).unwrap();
    let mut journal = ArrivalJournal::new();
    run_plans_journaled(&mut engine, &plans, &factory, &mut journal, 0, 1, &mut |_| false).unwrap();
    let baseline = engine.summary();
    assert_eq!(baseline.quarantined, 1, "the pinned panic must land");
    assert_eq!(baseline.recovered, 1);
    let total_ticks = baseline.ticks;

    // The kill schedule comes from the plan itself, not a hand piloted
    // oracle: the first seeded crash inside the run's span.
    let crash = CrashPlan::new(Arc::clone(&plan));
    let crash_tick = crash
        .first_crash_in(FLEET, 1..total_ticks)
        .expect("crash_rate 0.12 must fire within the run");

    // Crash leg: journaled drive with periodic snapshots, killed by the
    // seeded schedule.
    let mut engine = ServeEngine::new(serve_config(&plan)).unwrap();
    let mut journal = ArrivalJournal::new();
    let outcome =
        run_plans_journaled(&mut engine, &plans, &factory, &mut journal, 3, 1, &mut |tick| {
            crash.crashes_at(FLEET, tick)
        })
        .unwrap();
    assert_eq!(outcome.crashed_at, Some(crash_tick));
    drop(engine);

    // Warm restart: restore the last snapshot (or cold-start), replay
    // the journal tail, resume the un-attempted plans.
    let mut recovered = match outcome.snapshot {
        Some(snapshot) => ServeEngine::restore(&snapshot, serve_config(&plan), &factory).unwrap(),
        None => ServeEngine::new(serve_config(&plan)).unwrap(),
    };
    recovered.replay_from(&journal, &factory).unwrap();
    run_plans_journaled(
        &mut recovered,
        &plans[journal.admissions()..],
        &factory,
        &mut journal,
        3,
        1,
        &mut |_| false,
    )
    .unwrap();
    assert_runs_identical(
        &baseline,
        &recovered.summary(),
        &format!("seeded crash at tick {crash_tick}"),
    );
}
