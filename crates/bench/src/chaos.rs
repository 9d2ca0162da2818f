//! The chaos benchmark shared by the `chaos_stages` and `bench_compare`
//! binaries: recovery under a seeded fault plan.
//!
//! One record runs the same scenario-backed fleet twice — once
//! fault-free, once with a [`hirise_fault::ChaosInjector`] panicking one
//! session mid-stream — and keeps the recovery facts:
//!
//! * **fleet survival** — the faulted run must complete every session
//!   with `dropped == 0`; a panic is a session-level event, never a
//!   fleet-level one,
//! * **blast radius** — exactly the planned session quarantined, and
//!   every *other* session's deterministic summary bit-identical to the
//!   fault-free run (`others_bit_identical`),
//! * **recovery** — the quarantined session restored from its keyframe
//!   checkpoint and re-detecting within
//!   [`ChaosBenchConfig::keyframe_interval`] frames
//!   (`max_recovery_frames`),
//! * **availability** — the fraction of requested frames that produced
//!   output (only the poisoned frames themselves are lost).
//!
//! Every fact is a pure function of the config, so `bench_compare`
//! gates each one exactly.

use std::sync::Arc;

use hirise::{HiriseConfig, TemporalConfig};
use hirise_fault::{faulty_source_for, ChaosInjector, FaultConfig, FaultPlan};
use hirise_serve::{ServeConfig, ServeEngine, ServeSummary, SessionSpec};

use crate::record::{Bench, Record, MAX_COUNT, MAX_SIDE};

/// Seed of the committed chaos baseline (fixed: the gate compares
/// recovery machinery, not fault schedules).
pub const CHAOS_SEED: u64 = 0xC4A05;

/// Scenario presets the fleet cycles through (session `i` runs preset
/// `i % 3`).
const SCENARIOS: [&str; 3] = ["clean", "illumination", "defects"];

/// Configuration of one chaos record.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosBenchConfig {
    /// Sessions in the fleet.
    pub sessions: usize,
    /// Frames per session.
    pub frames_per_session: u32,
    /// Array width in pixels.
    pub width: u32,
    /// Array height in pixels.
    pub height: u32,
    /// In-sensor pooling factor.
    pub pooling_k: u32,
    /// Keyframe cadence — and therefore the checkpoint cadence and the
    /// recovery budget.
    pub keyframe_interval: u32,
    /// The session the plan panics (engine-assigned id, admission
    /// order).
    pub panic_session: u64,
    /// The frame index of the injected panic.
    pub panic_frame: u32,
    /// Fault-plan seed (also salts the per-session scenario seeds).
    pub seed: u64,
}

impl Default for ChaosBenchConfig {
    /// The committed-baseline shape: 8 sessions of 16 frames, one panic
    /// injected mid-stream into session 3, fleet provisioned at rated
    /// load so every effect in the report is the fault's.
    fn default() -> Self {
        Self {
            sessions: 8,
            frames_per_session: 16,
            width: 128,
            height: 96,
            pooling_k: 2,
            keyframe_interval: 4,
            panic_session: 3,
            panic_frame: 6,
            seed: CHAOS_SEED,
        }
    }
}

/// The seeded fault plan a configuration expands to.
fn plan(config: &ChaosBenchConfig) -> hirise::Result<Arc<FaultPlan>> {
    let faults = FaultConfig::default().panic_at(config.panic_session, config.panic_frame);
    Ok(Arc::new(FaultPlan::new(config.seed, faults)?))
}

/// The fleet's engine, with the plan's injector attached when `inject`
/// is set.
fn engine(
    config: &ChaosBenchConfig,
    plan: &Arc<FaultPlan>,
    inject: bool,
) -> hirise::Result<ServeEngine> {
    let pipeline = HiriseConfig::builder(config.width, config.height)
        .pooling(config.pooling_k)
        .roi_margin(2)
        .build()?;
    let temporal = TemporalConfig::default().keyframe_interval(config.keyframe_interval);
    let mut serve = ServeConfig::new(pipeline)
        .temporal(temporal)
        .rated_sessions(config.sessions)
        .max_sessions(config.sessions)
        .latency_window(128);
    if inject {
        serve = serve.fault(Arc::new(ChaosInjector::new(Arc::clone(plan))));
    }
    ServeEngine::new(serve)
}

/// Runs the fleet to completion, with the plan's injector attached when
/// `inject` is set. Both runs draw frames through the same fault-wrapped
/// sources (sensor rates are zero, so the frames are clean and
/// identical); only the injector differs.
fn run(config: &ChaosBenchConfig, inject: bool) -> ServeSummary {
    let plan = plan(config).expect("valid chaos fault model");
    let mut engine = engine(config, &plan, inject).expect("valid chaos-bench configuration");
    for i in 0..config.sessions {
        let spec = SessionSpec::default()
            .name(format!("c{i}"))
            .scenario(SCENARIOS[i % SCENARIOS.len()])
            .seed(config.seed ^ i as u64)
            .frames(config.frames_per_session)
            .frames_per_tick(2);
        let source = faulty_source_for(&spec, config.width, config.height, &plan, i as u64)
            .expect("chaos-bench scenario preset exists");
        engine.admit(spec, source).expect("chaos-bench fleet fits its slab");
    }
    engine.drain().expect("chaos-bench fleet survives its fault plan");
    engine.summary()
}

impl Bench for ChaosBenchConfig {
    const NAME: &'static str = "chaos_stages";

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
            panic_session: record.config_int("panic_session", 0..=u64::MAX)?,
            panic_frame: record.config_int("panic_frame", 0..=MAX_COUNT)?,
            seed: record.config_int("seed", 0..=u64::MAX)?,
        };
        plan(&config).and_then(|plan| engine(&config, &plan, true)).map_err(|e| e.to_string())?;
        Ok(config)
    }

    fn header(&self) -> Record {
        Record::new(Self::NAME)
            .with_config("array", format!("{}x{}", self.width, self.height))
            .with_config("pooling_k", self.pooling_k)
            .with_config("keyframe_interval", self.keyframe_interval)
            .with_config("sessions", self.sessions)
            .with_config("frames_per_session", self.frames_per_session)
            .with_config("panic_session", self.panic_session)
            .with_config("panic_frame", self.panic_frame)
            .with_config("seed", self.seed)
    }

    /// The fault-free twin first, then the faulted run, then the
    /// per-session blast-radius diff.
    fn record(&self) -> Record {
        let clean = run(self, false);
        let chaos = run(self, true);
        let others_bit_identical = clean.sessions.len() == chaos.sessions.len()
            && clean
                .sessions
                .iter()
                .zip(&chaos.sessions)
                .filter(|(c, _)| c.id.0 != self.panic_session)
                .all(|(c, f)| !f.poisoned && c.summary == f.summary && c.deferred == f.deferred);
        let poisoned_frames: u64 = chaos.sessions.iter().map(|r| r.poisoned_frames).sum();
        // Fraction of requested frames that produced output (1.0 =
        // nothing lost; the injected panic costs exactly its poisoned
        // frames).
        let requested = self.sessions as u64 * u64::from(self.frames_per_session);
        self.header()
            .with_count("frames", chaos.frames)
            .with_count("dropped", chaos.dropped)
            .with_count("completed", chaos.completed)
            .with_count("quarantined", chaos.quarantined)
            .with_count("recovered", chaos.recovered)
            .with_count("max_recovery_frames", chaos.max_recovery_frames)
            .with_count("poisoned_frames", poisoned_frames)
            .with_metric("availability", chaos.frames as f64 / requested as f64, "ratio")
            .with_metric("others_bit_identical", others_bit_identical, "bool")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast fleet for structural tests.
    fn small() -> ChaosBenchConfig {
        ChaosBenchConfig {
            sessions: 4,
            frames_per_session: 8,
            width: 64,
            height: 48,
            panic_session: 1,
            panic_frame: 3,
            ..ChaosBenchConfig::default()
        }
    }

    #[test]
    fn measurement_quarantines_exactly_the_planned_session() {
        let config = small();
        let r = config.record();
        assert!(r.contract_violations().is_empty(), "{:?}", r.contract_violations());
        assert_eq!(r.int("dropped"), Some(0), "a session panic must never drop a session");
        assert_eq!(r.int("completed"), Some(config.sessions as u64), "every session finishes");
        assert_eq!(r.int("quarantined"), Some(1), "exactly the planned fault fires");
        assert_eq!(r.int("recovered"), Some(1), "the quarantined session must recover");
        let recovery = r.int("max_recovery_frames").unwrap();
        assert!((1..=u64::from(config.keyframe_interval)).contains(&recovery), "{recovery}");
        assert_eq!(r.int("poisoned_frames"), Some(1));
        assert_eq!(r.metric("others_bit_identical"), Some(&true.into()));
        let requested = config.sessions as u64 * u64::from(config.frames_per_session);
        assert_eq!(r.int("frames"), Some(requested - 1), "only the poisoned frame is lost");
        assert_eq!(r.float("availability"), Some((requested - 1) as f64 / requested as f64));
    }

    #[test]
    fn deterministic_counters_are_pure_in_the_config() {
        assert_eq!(small().record(), small().record());
    }

    #[test]
    fn json_roundtrips_through_the_emitted_format() {
        for config in [small(), ChaosBenchConfig::default()] {
            let parsed = Record::parse(&config.header().to_text()).expect("the header parses");
            assert_eq!(ChaosBenchConfig::from_record(&parsed), Ok(config));
        }
    }
}
