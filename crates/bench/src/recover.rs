//! The crash-recovery benchmark shared by the `recover_stages` and
//! `bench_compare` binaries: warm restart from snapshot plus journal.
//!
//! One record drives the same staggered-arrival fleet twice — once
//! uninterrupted, once killed mid-run at a tick drawn from a seeded
//! [`hirise_fault::CrashPlan`] — then restores the last snapshot,
//! replays the journal tail, resumes the remaining arrivals, and keeps
//! the recovery facts:
//!
//! * **snapshot size** — the serialized slab (`snapshot_bytes`, also
//!   per live session),
//! * **replay MTTR** — the frames re-served between the last snapshot
//!   and the crash point (`replay_frames`), bounded by one snapshot
//!   interval's worth of fleet frames (`replay_budget_frames`),
//! * **crash consistency** — the recovered run's deterministic summary
//!   and journal bit-identical to the uninterrupted twin, and the
//!   restored engine re-snapshotting to the exact bytes it was restored
//!   from (`identical`).
//!
//! Every fact is a pure function of the config, so `bench_compare`
//! gates each one exactly.

use std::sync::Arc;

use hirise::{HiriseConfig, TemporalConfig};
use hirise_fault::{CrashPlan, FaultConfig, FaultPlan};
use hirise_serve::{
    run_plans_journaled, ArrivalJournal, ServeConfig, ServeEngine, ServeSummary, SessionPlan,
    SessionSpec,
};

use crate::record::{Bench, Record, MAX_COUNT, MAX_SIDE};

/// Seed of the committed recovery baseline (fixed: the gate compares
/// recovery machinery, not kill schedules).
pub const RECOVER_SEED: u64 = 0x2EC0;

/// The fleet's site id in the crash domain (one replica under test).
const FLEET: u64 = 0;

/// Frames every session requests per tick (fixed: it scales the replay
/// budget, so the gate must re-derive the same number).
const FRAMES_PER_TICK: u32 = 2;

/// Scenario presets the fleet cycles through (session `i` runs preset
/// `i % 3`).
const SCENARIOS: [&str; 3] = ["clean", "illumination", "defects"];

/// Configuration of one crash-recovery record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverBenchConfig {
    /// Sessions in the fleet (arrivals staggered over four ticks).
    pub sessions: usize,
    /// Frames per session.
    pub frames_per_session: u32,
    /// Array width in pixels.
    pub width: u32,
    /// Array height in pixels.
    pub height: u32,
    /// In-sensor pooling factor.
    pub pooling_k: u32,
    /// Keyframe cadence (also the tracker checkpoint cadence inside
    /// each snapshot).
    pub keyframe_interval: u32,
    /// Ticks between periodic snapshots — and therefore the replay
    /// budget in ticks.
    pub snapshot_every: u64,
    /// Per-tick probability of the seeded crash draw.
    pub crash_rate: f64,
    /// Crash-plan seed (also salts the per-session scenario seeds).
    pub seed: u64,
}

impl Default for RecoverBenchConfig {
    /// The committed-baseline shape: 8 sessions of 16 frames arriving
    /// over four ticks, a snapshot every 4 ticks, and a seeded kill
    /// drawn from the first crash after the first boundary.
    fn default() -> Self {
        Self {
            sessions: 8,
            frames_per_session: 16,
            width: 128,
            height: 96,
            pooling_k: 2,
            keyframe_interval: 4,
            snapshot_every: 4,
            crash_rate: 0.15,
            seed: RECOVER_SEED,
        }
    }
}

/// The seeded crash schedule a configuration expands to.
///
/// # Errors
///
/// When the crash model is invalid (a rate outside `0..=1`).
fn crash_plan(config: &RecoverBenchConfig) -> hirise::Result<CrashPlan> {
    let mut faults = FaultConfig::default();
    faults.serve.crash_rate = config.crash_rate;
    Ok(CrashPlan::new(Arc::new(FaultPlan::new(config.seed, faults)?)))
}

/// The arrival plans a configuration expands to: session `i` arrives at
/// tick `i % 4`, so the crash lands on a fleet mid-admission-wave more
/// often than not.
fn plans(config: &RecoverBenchConfig) -> Vec<SessionPlan> {
    let mut plans: Vec<SessionPlan> = (0..config.sessions)
        .map(|i| SessionPlan {
            at_tick: (i % 4) as u64,
            spec: SessionSpec::default()
                .name(format!("r{i}"))
                .scenario(SCENARIOS[i % SCENARIOS.len()])
                .seed(config.seed ^ i as u64)
                .frames(config.frames_per_session)
                .frames_per_tick(FRAMES_PER_TICK),
        })
        .collect();
    plans.sort_by_key(|p| p.at_tick);
    plans
}

fn serve_config(config: &RecoverBenchConfig) -> hirise::Result<ServeConfig> {
    let pipeline = HiriseConfig::builder(config.width, config.height)
        .pooling(config.pooling_k)
        .roi_margin(2)
        .build()?;
    Ok(ServeConfig::new(pipeline)
        .temporal(TemporalConfig::default().keyframe_interval(config.keyframe_interval))
        .rated_sessions(config.sessions)
        .max_sessions(config.sessions)
        .latency_window(128))
}

/// A fresh engine for the fleet.
fn engine(config: &RecoverBenchConfig) -> ServeEngine {
    serve_config(config)
        .and_then(ServeEngine::new)
        .expect("valid recover-bench fleet configuration")
}

/// Deterministic-summary equality: everything but the wall-clock
/// latency percentiles, with energy compared bit-exactly.
fn summaries_identical(a: &ServeSummary, b: &ServeSummary) -> bool {
    a.ticks == b.ticks
        && a.frames == b.frames
        && a.completed == b.completed
        && a.dropped == b.dropped
        && a.deferred == b.deferred
        && a.quarantined == b.quarantined
        && a.recovered == b.recovered
        && a.max_shed_level == b.max_shed_level
        && a.energy_mj.to_bits() == b.energy_mj.to_bits()
        && a.sessions.len() == b.sessions.len()
        && a.sessions
            .iter()
            .zip(&b.sessions)
            .all(|(x, y)| x.id == y.id && x.summary == y.summary && x.deferred == y.deferred)
}

impl Bench for RecoverBenchConfig {
    const NAME: &'static str = "recover_stages";

    fn from_record(record: &Record) -> Result<Self, String> {
        let (width, height) = record.config_array()?;
        let count = |key| record.config_int(key, 1..=MAX_COUNT);
        let config = Self {
            sessions: count("sessions")? as usize,
            frames_per_session: count("frames_per_session")?,
            width,
            height,
            pooling_k: record.config_int("pooling_k", 1..=MAX_SIDE)?,
            keyframe_interval: count("keyframe_interval")?,
            snapshot_every: count("snapshot_every")?.into(),
            crash_rate: record.config_f64("crash_rate")?,
            seed: record.config_int("seed", 0..=u64::MAX)?,
        };
        // The kill must land past the first snapshot and before the
        // drain, which the last arrival outlasts by its session's ticks.
        let last_arrival = plans(&config).last().map_or(0, |p| p.at_tick);
        let session_ticks = u64::from(config.frames_per_session.div_ceil(FRAMES_PER_TICK));
        if config.snapshot_every + 2 > last_arrival + session_ticks {
            return Err(format!(
                "config `snapshot_every` = {} leaves no kill window in {}-frame sessions",
                config.snapshot_every, config.frames_per_session
            ));
        }
        crash_plan(&config)
            .and_then(|_| serve_config(&config))
            .and_then(ServeEngine::new)
            .map_err(|e| e.to_string())?;
        Ok(config)
    }

    fn header(&self) -> Record {
        Record::new(Self::NAME)
            .with_config("array", format!("{}x{}", self.width, self.height))
            .with_config("pooling_k", self.pooling_k)
            .with_config("keyframe_interval", self.keyframe_interval)
            .with_config("snapshot_every", self.snapshot_every)
            .with_config("sessions", self.sessions)
            .with_config("frames_per_session", self.frames_per_session)
            .with_config("crash_rate", self.crash_rate)
            .with_config("seed", self.seed)
    }

    /// The uninterrupted twin first, then the crash leg killed at the
    /// seeded schedule's first post-boundary tick, then restore →
    /// re-snapshot → replay → resume, then the bit-identity verdict.
    ///
    /// The kill window starts one tick past the first snapshot boundary
    /// so the warm path (restore, not cold start) is always the one
    /// recorded; when a short run's seeded schedule never fires inside
    /// the window, the kill lands two ticks before completion instead.
    fn record(&self) -> Record {
        let plans = plans(self);
        let factory = |spec: &SessionSpec| hirise_serve::source_for(spec, self.width, self.height);
        let run = |engine: &mut ServeEngine,
                   plans: &[SessionPlan],
                   journal: &mut ArrivalJournal,
                   kill: u64| {
            run_plans_journaled(
                engine,
                plans,
                &factory,
                journal,
                self.snapshot_every,
                None,
                &mut |tick| tick == kill,
            )
            .expect("recover-bench run serves until the kill or the drain")
        };

        // Uninterrupted reference.
        let mut uninterrupted = engine(self);
        let mut reference_journal = ArrivalJournal::new();
        run(&mut uninterrupted, &plans, &mut reference_journal, u64::MAX);
        let reference = uninterrupted.summary();
        let total_ticks = reference.ticks;

        // The kill tick comes from the seeded schedule, constrained past
        // the first boundary (so a snapshot exists) and before the drain.
        let window = (self.snapshot_every + 1)..total_ticks;
        let crash_tick = crash_plan(self)
            .expect("valid recover-bench crash model")
            .first_crash_in(FLEET, window)
            .unwrap_or_else(|| total_ticks.saturating_sub(2).max(self.snapshot_every + 1));

        // Crash leg.
        let mut journal = ArrivalJournal::new();
        let outcome = run(&mut engine(self), &plans, &mut journal, crash_tick);
        assert_eq!(outcome.crashed_at, Some(crash_tick), "the kill tick must land mid-run");
        let snapshot = outcome.snapshot.expect("a kill past the first boundary leaves a snapshot");

        // Warm restart: restore, re-snapshot the restored slab, replay
        // the journal tail, resume the remaining arrivals.
        let serve = serve_config(self).expect("valid recover-bench fleet configuration");
        let mut recovered = ServeEngine::restore(&snapshot, serve, &factory)
            .expect("recover-bench snapshot restores");
        let round_trip = recovered.snapshot().as_bytes() == snapshot.as_bytes();
        let replay_frames =
            recovered.replay_from(&journal, &factory).expect("recover-bench journal replays");
        run(&mut recovered, &plans[journal.admissions()..], &mut journal, u64::MAX);
        let summary = recovered.summary();
        let identical =
            round_trip && summaries_identical(&reference, &summary) && journal == reference_journal;

        let snapshot_sessions = snapshot.live_sessions();
        // One snapshot interval's worth of fleet frames.
        let replay_budget_frames =
            self.snapshot_every * self.sessions as u64 * u64::from(FRAMES_PER_TICK);
        self.header()
            .with_count("crash_tick", crash_tick)
            .with_count("total_ticks", total_ticks)
            .with_count("frames", summary.frames)
            .with_count("dropped", summary.dropped)
            .with_count("completed", summary.completed)
            .with_metric("snapshot_bytes", snapshot.len() as u64, "B")
            .with_count("snapshot_sessions", snapshot_sessions)
            .with_metric(
                "snapshot_bytes_per_session",
                snapshot.len() as f64 / snapshot_sessions.max(1) as f64,
                "B/session",
            )
            .with_count("replay_frames", replay_frames)
            .with_count("replay_budget_frames", replay_budget_frames)
            .with_metric("identical", identical, "bool")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast fleet for structural tests.
    fn small() -> RecoverBenchConfig {
        RecoverBenchConfig {
            sessions: 4,
            frames_per_session: 8,
            width: 64,
            height: 48,
            snapshot_every: 3,
            ..RecoverBenchConfig::default()
        }
    }

    #[test]
    fn measurement_recovers_bit_identically_within_budget() {
        let config = small();
        let r = config.record();
        assert!(r.contract_violations().is_empty(), "{:?}", r.contract_violations());
        assert_eq!(r.metric("identical"), Some(&true.into()), "recovery diverged from the twin");
        assert_eq!(r.int("dropped"), Some(0), "a crash must never drop an admitted session");
        assert_eq!(r.int("completed"), Some(config.sessions as u64), "every session finishes");
        let requested = config.sessions as u64 * u64::from(config.frames_per_session);
        assert_eq!(r.int("frames"), Some(requested), "every requested frame must be served");
        let (crash, total) = (r.int("crash_tick").unwrap(), r.int("total_ticks").unwrap());
        assert!(
            crash > config.snapshot_every && crash < total,
            "kill tick {crash} must land after the first boundary and before the drain at {total}"
        );
        assert!(r.int("snapshot_bytes").unwrap() > 0, "the restored snapshot cannot be empty");
        assert!(r.int("snapshot_sessions").unwrap() > 0, "a mid-run snapshot holds sessions");
        assert!(r.float("snapshot_bytes_per_session").unwrap() > 0.0);
        assert!(r.int("replay_frames").unwrap() <= r.int("replay_budget_frames").unwrap());
    }

    #[test]
    fn deterministic_counters_are_pure_in_the_config() {
        assert_eq!(small().record(), small().record());
    }

    #[test]
    fn json_roundtrips_through_the_emitted_format() {
        for config in [small(), RecoverBenchConfig::default()] {
            let parsed = Record::parse(&config.header().to_text()).expect("the header parses");
            assert_eq!(RecoverBenchConfig::from_record(&parsed), Ok(config));
        }
        let mut late = small();
        late.snapshot_every = 6;
        let parsed = Record::parse(&late.header().to_text()).unwrap();
        assert!(RecoverBenchConfig::from_record(&parsed).unwrap_err().contains("kill window"));
    }
}
