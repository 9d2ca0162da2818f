//! Crash-recovery acceptance for the serve layer: a process death at
//! *any* tick, recovered from the last snapshot plus the arrival
//! journal, must leave every session bit-identical to an uninterrupted
//! run — at every worker count.
//!
//! The suite also pins the safety half of the contract: corrupted
//! snapshots are rejected whole (never half-restored), config drift is
//! refused by fingerprint, and a journal that cannot be the engine's
//! own is refused by tick accounting.

use std::sync::Arc;

use hirise::{HiriseConfig, SensorConfig, TemporalConfig};
use hirise_serve::{
    run_plans_journaled, ArrivalJournal, EngineSnapshot, FaultAction, FaultInjector, FrameSource,
    ReplayError, RestoreError, ServeConfig, ServeEngine, ServeSummary, SessionId, SessionPlan,
    SessionSpec, TrafficConfig,
};

use proptest::prelude::*;

const W: u32 = 64;
const H: u32 = 48;
/// Keyframe cadence — and therefore the pinned fault-recovery budget.
const INTERVAL: u32 = 4;

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
        .latency_window(64)
}

/// The canonical source factory: scenario-backed sources regenerated
/// from the spec alone.
fn factory(spec: &SessionSpec) -> Option<FrameSource> {
    hirise_serve::source_for(spec, W, H)
}

/// Asserts every *deterministic* field of two fleet summaries is
/// identical — everything except wall-clock latency, which is measured,
/// not computed, and so is exempt from the replay contract.
fn assert_fleet_identical(a: &ServeSummary, b: &ServeSummary, label: &str) {
    assert_eq!(a.ticks, b.ticks, "{label}: ticks");
    assert_eq!(a.admitted, b.admitted, "{label}: admitted");
    assert_eq!(a.rejected, b.rejected, "{label}: rejected");
    assert_eq!(a.dropped, b.dropped, "{label}: dropped");
    assert_eq!(a.completed, b.completed, "{label}: completed");
    assert_eq!(a.active, b.active, "{label}: active");
    assert_eq!(a.frames, b.frames, "{label}: frames");
    assert_eq!(a.keyframes, b.keyframes, "{label}: keyframes");
    assert_eq!(a.drift_refreshes, b.drift_refreshes, "{label}: drift refreshes");
    assert_eq!(a.tracked_frames, b.tracked_frames, "{label}: tracked frames");
    assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits(), "{label}: energy not bit-identical");
    assert_eq!(a.deferred, b.deferred, "{label}: deferrals");
    assert_eq!(a.quarantined, b.quarantined, "{label}: quarantined");
    assert_eq!(a.recovered, b.recovered, "{label}: recovered");
    assert_eq!(a.max_recovery_frames, b.max_recovery_frames, "{label}: recovery span");
    assert_eq!(a.deadline_misses, b.deadline_misses, "{label}: deadline misses");
    assert_eq!(a.shed_level, b.shed_level, "{label}: shed level");
    assert_eq!(a.max_shed_level, b.max_shed_level, "{label}: max shed level");
    assert_eq!(a.sessions.len(), b.sessions.len(), "{label}: session count");
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        let tag = format!("{label}: session {}", x.name);
        assert_eq!(x.id, y.id, "{tag}: id");
        assert_eq!(x.name, y.name, "{tag}: name");
        assert_eq!(x.priority, y.priority, "{tag}: priority");
        assert_eq!(x.completed, y.completed, "{tag}: completed");
        assert_eq!(x.deferred, y.deferred, "{tag}: deferred");
        assert_eq!(x.max_shed_level, y.max_shed_level, "{tag}: shed level");
        assert_eq!(x.poisoned, y.poisoned, "{tag}: poisoned");
        assert_eq!(x.poisoned_frames, y.poisoned_frames, "{tag}: poisoned frames");
        assert_eq!(x.quarantines, y.quarantines, "{tag}: quarantines");
        assert_eq!(x.recoveries, y.recoveries, "{tag}: recoveries");
        assert_eq!(x.max_recovery_frames, y.max_recovery_frames, "{tag}: recovery span");
        assert_eq!(x.summary, y.summary, "{tag}: stream summary diverged");
    }
}

/// Drives `plans` to completion with journaling but no crash; returns
/// the summary and the reference journal.
fn uninterrupted(config: ServeConfig, plans: &[SessionPlan]) -> (ServeSummary, ArrivalJournal) {
    let mut engine = ServeEngine::new(config).unwrap();
    let mut journal = ArrivalJournal::new();
    let outcome =
        run_plans_journaled(&mut engine, plans, &factory, &mut journal, 0, 1, &mut |_| false)
            .unwrap();
    assert!(outcome.crashed_at.is_none());
    (engine.summary(), journal)
}

/// Kills the engine at `crash_tick`, then performs the full recovery
/// protocol: restore the last snapshot (or cold-start), replay the
/// journal tail, resume the un-attempted plan tail. Returns the final
/// summary and the (continued) journal.
fn crash_and_recover(
    config_for: &dyn Fn() -> ServeConfig,
    plans: &[SessionPlan],
    snapshot_every: u64,
    crash_tick: u64,
    workers: usize,
) -> (ServeSummary, ArrivalJournal) {
    let mut engine = ServeEngine::new(config_for()).unwrap();
    let mut journal = ArrivalJournal::new();
    let outcome = run_plans_journaled(
        &mut engine,
        plans,
        &factory,
        &mut journal,
        snapshot_every,
        workers,
        &mut |tick| tick == crash_tick,
    )
    .unwrap();
    if outcome.crashed_at.is_none() {
        // The fleet drained before the oracle fired — nothing to
        // recover; the run *is* the uninterrupted run.
        return (engine.summary(), journal);
    }
    drop(engine); // the process is dead; only snapshot + journal survive

    // Snapshots round-trip through their serialized envelope, exactly
    // as a restart off stable storage would read them back.
    let mut recovered = match outcome.snapshot {
        Some(snapshot) => {
            let bytes = snapshot.into_bytes();
            let reread = EngineSnapshot::from_bytes(bytes).expect("persisted snapshot must reopen");
            ServeEngine::restore(&reread, config_for(), &factory).expect("restore must succeed")
        }
        None => ServeEngine::new(config_for()).unwrap(),
    };
    recovered.replay_from(&journal, &factory).expect("replay must succeed");
    assert_eq!(recovered.ticks(), journal.ticks(), "replay must land on the journal's boundary");
    let tail = &plans[journal.admissions()..];
    run_plans_journaled(
        &mut recovered,
        tail,
        &factory,
        &mut journal,
        snapshot_every,
        workers,
        &mut |_| false,
    )
    .unwrap();
    (recovered.summary(), journal)
}

#[test]
fn crash_at_any_tick_recovers_bit_identically() {
    // The tentpole acceptance: 8 mixed sessions under shed pressure
    // (rated 3 < 8 live), killed at *every* tick of the run, must
    // recover to the exact uninterrupted outcome — counters, energy,
    // shed history, per-session stream summaries, and the journal
    // itself.
    let plans = hirise_serve::generate(&TrafficConfig::default().sessions(8));
    let config_for = || serve_config(3);
    let (baseline, baseline_journal) = uninterrupted(config_for(), &plans);
    assert_eq!(baseline.dropped, 0);
    assert_eq!(baseline.completed, 8);
    assert!(baseline.max_shed_level > 0, "the mix must exercise shed state in the snapshot");
    let total_ticks = baseline.ticks;
    assert!(total_ticks > 6, "workload too short to sweep: {total_ticks} ticks");

    for crash_tick in 1..total_ticks {
        let (summary, journal) = crash_and_recover(&config_for, &plans, 3, crash_tick, 1);
        assert_fleet_identical(&baseline, &summary, &format!("crash at tick {crash_tick}"));
        assert_eq!(
            journal, baseline_journal,
            "crash at tick {crash_tick}: recovered journal diverged"
        );
    }
}

#[test]
fn recovery_is_worker_count_invariant() {
    // The same crash/recover cycle at parallel worker counts lands on
    // the same serial baseline: enqueue-time shed stamping makes the
    // replay exact regardless of how the slab is sharded.
    let plans = hirise_serve::generate(&TrafficConfig::default().sessions(8));
    let config_for = || serve_config(3);
    let (baseline, _) = uninterrupted(config_for(), &plans);
    let crash_ticks = [2, 3, baseline.ticks / 2, baseline.ticks - 2];
    for workers in [1usize, 2, 4] {
        for &crash_tick in &crash_ticks {
            let (summary, _) = crash_and_recover(&config_for, &plans, 4, crash_tick, workers);
            assert_fleet_identical(
                &baseline,
                &summary,
                &format!("{workers} workers, crash at tick {crash_tick}"),
            );
        }
    }
}

#[test]
fn cold_start_replay_recovers_without_any_snapshot() {
    // snapshot_every = 0 disables snapshots entirely: recovery then
    // cold-starts a fresh engine and replays the whole journal — the
    // degenerate (slowest, always-correct) end of the MTTR spectrum.
    let plans = hirise_serve::generate(&TrafficConfig::default().sessions(6));
    let config_for = || serve_config(3);
    let (baseline, _) = uninterrupted(config_for(), &plans);
    let (summary, _) = crash_and_recover(&config_for, &plans, 0, baseline.ticks / 2, 1);
    assert_fleet_identical(&baseline, &summary, "cold-start replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Satellite: encode→decode identity over arbitrary fleet shapes.
    // `snapshot(restore(snapshot(e)))` must equal `snapshot(e)` byte
    // for byte — covering tracker states mid-stream, queue stamps,
    // shed/priority spread, latency rings, and free-list order, all
    // randomized through the traffic generator.
    #[test]
    fn snapshot_restore_snapshot_is_byte_identical(
        sessions in 2usize..7,
        seed in 0u64..1_000,
        rated in 1usize..4,
        stop_tick in 1u64..10,
    ) {
        let plans = hirise_serve::generate(
            &TrafficConfig::default().sessions(sessions).seed(seed),
        );
        let mut engine = ServeEngine::new(serve_config(rated)).unwrap();
        let mut journal = ArrivalJournal::new();
        let outcome = run_plans_journaled(
            &mut engine,
            &plans,
            &factory,
            &mut journal,
            1,
            1,
            &mut |tick| tick >= stop_tick,
        )
        .unwrap();
        if let Some(snapshot) = outcome.snapshot {
            let restored =
                ServeEngine::restore(&snapshot, serve_config(rated), &factory).unwrap();
            let again = restored.snapshot();
            prop_assert_eq!(
                again.as_bytes(),
                snapshot.as_bytes(),
                "restore must reconstruct the slab exactly"
            );
            prop_assert_eq!(again.ticks(), snapshot.ticks());
            prop_assert_eq!(again.live_sessions(), snapshot.live_sessions());
        }
    }
}

#[test]
fn mid_tick_snapshot_round_trips_queued_frames() {
    // Snapshots at the contract's boundary always see drained queues;
    // this one is taken mid-tick (arrivals enqueued, nothing served) so
    // the queue stamps, pending counters, and backpressure deferrals
    // all take the codec path — and must survive it bit-exactly.
    let mut engine = ServeEngine::new(serve_config(2)).unwrap();
    for i in 0..4u64 {
        let spec = SessionSpec::default()
            .name(format!("q{i}"))
            .scenario("crossing")
            .seed(i)
            .frames(12)
            .frames_per_tick(3);
        let source = factory(&spec).unwrap();
        engine.admit(spec, source).unwrap();
    }
    for _ in 0..3 {
        engine.tick(); // queues fill (capacity 4 < 3 frames/tick backlog)
    }
    let snapshot = engine.snapshot();
    assert!(snapshot.live_sessions() == 4);
    let restored = ServeEngine::restore(&snapshot, serve_config(2), &factory).unwrap();
    assert_eq!(restored.snapshot().as_bytes(), snapshot.as_bytes());
    // Both engines then drain to the same deterministic outcome.
    let mut original = engine;
    let mut restored = restored;
    original.drain().unwrap();
    restored.drain().unwrap();
    assert_fleet_identical(&original.summary(), &restored.summary(), "post-restore drain");
}

#[test]
fn corrupted_snapshots_are_rejected_never_half_restored() {
    // Satellite: flip single bits across the envelope — every one must
    // be caught at `from_bytes` (truncation/magic/version/checksum),
    // before any field decode, so no restore path ever sees them.
    let plans = hirise_serve::generate(&TrafficConfig::default().sessions(4));
    let mut engine = ServeEngine::new(serve_config(2)).unwrap();
    let mut journal = ArrivalJournal::new();
    run_plans_journaled(&mut engine, &plans, &factory, &mut journal, 0, 1, &mut |t| t >= 3)
        .unwrap();
    let snapshot = engine.snapshot();
    let bytes = snapshot.as_bytes().to_vec();
    assert!(EngineSnapshot::from_bytes(bytes.clone()).is_ok());
    for bit in (0..bytes.len() * 8).step_by(97) {
        let mut corrupt = bytes.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert!(
            EngineSnapshot::from_bytes(corrupt).is_err(),
            "bit flip at {bit} slipped past envelope validation"
        );
    }
    // Truncation at every prefix is likewise rejected.
    for len in 0..bytes.len().min(64) {
        assert!(EngineSnapshot::from_bytes(bytes[..len].to_vec()).is_err());
    }
    // And the journal envelope holds to the same standard.
    let jbytes = journal.to_bytes();
    assert!(ArrivalJournal::from_bytes(&jbytes).is_ok());
    for bit in (0..jbytes.len() * 8).step_by(61) {
        let mut corrupt = jbytes.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert!(
            ArrivalJournal::from_bytes(&corrupt).is_err(),
            "journal bit flip at {bit} slipped past validation"
        );
    }
}

#[test]
fn restore_refuses_a_config_fingerprint_mismatch() {
    // Replaying under a different policy would silently diverge; the
    // fingerprint check turns that into a structured refusal.
    let plans = hirise_serve::generate(&TrafficConfig::default().sessions(4));
    let mut engine = ServeEngine::new(serve_config(2)).unwrap();
    let mut journal = ArrivalJournal::new();
    run_plans_journaled(&mut engine, &plans, &factory, &mut journal, 0, 1, &mut |t| t >= 3)
        .unwrap();
    let snapshot = engine.snapshot();
    let drifted = serve_config(2).queue_capacity(5);
    match ServeEngine::restore(&snapshot, drifted, &factory) {
        Err(RestoreError::ConfigMismatch { snapshot: s, config: c }) => assert_ne!(s, c),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    // The same snapshot still restores under the faithful config.
    assert!(ServeEngine::restore(&snapshot, serve_config(2), &factory).is_ok());
}

#[test]
fn replay_refuses_a_journal_shorter_than_the_engine() {
    let plans = hirise_serve::generate(&TrafficConfig::default().sessions(4));
    let mut engine = ServeEngine::new(serve_config(2)).unwrap();
    let mut journal = ArrivalJournal::new();
    run_plans_journaled(&mut engine, &plans, &factory, &mut journal, 2, 1, &mut |t| t >= 4)
        .unwrap();
    let snapshot = engine.snapshot();
    let mut restored = ServeEngine::restore(&snapshot, serve_config(2), &factory).unwrap();
    let stale = ArrivalJournal::new(); // pretend the journal was lost
    match restored.replay_from(&stale, &factory) {
        Err(ReplayError::MissingTicks { engine_ticks, journal_ticks }) => {
            assert_eq!(engine_ticks, snapshot.ticks());
            assert_eq!(journal_ticks, 0);
        }
        other => panic!("expected MissingTicks, got {other:?}"),
    }
}

#[test]
fn journal_round_trips_and_counts_its_records() {
    let plans = hirise_serve::generate(&TrafficConfig::default().sessions(5));
    let mut engine = ServeEngine::new(serve_config(2)).unwrap();
    let mut journal = ArrivalJournal::new();
    run_plans_journaled(&mut engine, &plans, &factory, &mut journal, 0, 1, &mut |_| false).unwrap();
    assert_eq!(journal.admissions(), plans.len(), "every admission attempt journaled");
    assert_eq!(journal.ticks(), engine.ticks(), "every tick boundary journaled");
    let reread = ArrivalJournal::from_bytes(&journal.to_bytes()).unwrap();
    assert_eq!(reread, journal, "journal must survive its envelope round-trip");
}

/// Panics exactly one `(session, frame)` pair — the chaos suite's
/// injector, here combined with a process crash.
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

#[test]
fn crash_during_a_quarantine_recovery_window_still_converges() {
    // Satellite: compound failure. Session 2 panics at frame 6 (tick 4
    // at 2 frames/tick; its checkpoint recovery completes at frame 8,
    // tick 5) and the *process* crashes around that window:
    //   (snapshot 3, crash 4) — restore pre-quarantine, the fault
    //     re-fires during replay;
    //   (snapshot 4, crash 5) — the snapshot itself captures the
    //     mid-recovery session state;
    //   (snapshot 2, crash 4) — snapshot at the crash tick: empty
    //     replay tail, recovery completes purely post-restore.
    // Every combination must converge to the uninterrupted chaos run,
    // within the keyframe recovery budget, with a blast radius of
    // exactly one session versus a fault-free fleet.
    let plans: Vec<SessionPlan> = (0..4u64)
        .map(|i| SessionPlan {
            at_tick: 0,
            spec: SessionSpec::default()
                .name(format!("c{i}"))
                .scenario("clean")
                .seed(0x5EED + i)
                .frames(16)
                .frames_per_tick(2),
        })
        .collect();
    let fault: Arc<dyn FaultInjector> = Arc::new(PanicAt { session: 2, frame: 6 });
    let faulted_config = || serve_config(4).fault(Arc::clone(&fault));

    let (clean, _) = uninterrupted(serve_config(4), &plans);
    assert_eq!(clean.quarantined, 0);
    let (chaos, _) = uninterrupted(faulted_config(), &plans);
    assert_eq!(chaos.quarantined, 1);
    assert_eq!(chaos.recovered, 1);
    assert!(
        (1..=INTERVAL).contains(&chaos.max_recovery_frames),
        "recovery took {} frames, budget is {INTERVAL}",
        chaos.max_recovery_frames
    );
    assert_eq!(chaos.frames, clean.frames - 1, "the poisoned frame is consumed, not folded");
    // Blast radius: only the faulted session differs from the clean run.
    for (c, f) in clean.sessions.iter().zip(&chaos.sessions) {
        if c.id.0 == 2 {
            assert_ne!(c.summary, f.summary, "the fault must be observable on its session");
        } else {
            assert!(!f.poisoned);
            assert_eq!(c.summary, f.summary, "fault bled into session {}", c.name);
        }
    }

    for (snapshot_every, crash_tick) in [(3u64, 4u64), (4, 5), (2, 4)] {
        let label = format!("snapshot every {snapshot_every}, crash at {crash_tick}");
        let (summary, _) =
            crash_and_recover(&faulted_config, &plans, snapshot_every, crash_tick, 1);
        assert_fleet_identical(&chaos, &summary, &label);
    }
}

#[test]
fn identical_runs_snapshot_to_identical_bytes() {
    // Snapshots hold state, never telemetry: wall-clock latency differs
    // between two runs of the same fleet, so any measured value in the
    // envelope would make identical runs snapshot differently. Checked
    // mid-run (live sessions, snapshot every tick, stop at tick 5) and
    // after the fleet drains (completed session reports).
    let plans = hirise_serve::generate(&TrafficConfig::default().sessions(4).seed(7));
    let snapshot_at = |crash_tick: Option<u64>| {
        let mut engine = ServeEngine::new(serve_config(4)).unwrap();
        let mut journal = ArrivalJournal::new();
        let outcome =
            run_plans_journaled(&mut engine, &plans, &factory, &mut journal, 1, 1, &mut |tick| {
                Some(tick) == crash_tick
            })
            .unwrap();
        assert_eq!(outcome.crashed_at, crash_tick);
        match crash_tick {
            Some(_) => outcome.snapshot.expect("a snapshot every tick").into_bytes(),
            None => {
                assert!(engine.summary().sessions.iter().all(|s| !s.latency_ms.is_empty()));
                engine.snapshot().into_bytes()
            }
        }
    };
    for crash_tick in [Some(5), None] {
        let (a, b) = (snapshot_at(crash_tick), snapshot_at(crash_tick));
        assert_eq!(a.len(), b.len(), "crash tick {crash_tick:?}: snapshot lengths differ");
        assert!(a == b, "crash tick {crash_tick:?}: identical runs snapshot to different bytes");
    }
}
