//! The serve-layer benchmark shared by the `serve_stages` and
//! `bench_compare` binaries.
//!
//! One record drives a [`hirise_serve::ServeEngine`] through a seeded
//! synthetic session mix ([`hirise_serve::traffic`]) at 3× rated load
//! to completion and keeps the fleet's deterministic counters: frames
//! served, admissions and refusals, completions, deferrals, the highest
//! shed level, and `dropped` — the no-drop contract, structurally zero.
//! The same seed must serve the same frames, so `bench_compare` gates
//! every counter exactly; fleet latency is wall clock and stays out of
//! the record.

use hirise::{HiriseConfig, TemporalConfig};
use hirise_serve::{generate, run_plans, ServeConfig, ServeEngine, TrafficConfig};

use crate::record::{Bench, Record, MAX_COUNT, MAX_SIDE};

/// Seed of the committed serve baseline (fixed: the gate compares
/// implementations, not workloads).
pub const SERVE_SEED: u64 = 0x5E12E;

/// Configuration of one serve record.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchConfig {
    /// Sessions in the synthetic mix.
    pub sessions: usize,
    /// Frame count of a *short* session; long sessions (a quarter of
    /// the mix) run 3× this.
    pub frames_per_session: u32,
    /// Array width in pixels.
    pub width: u32,
    /// Array height in pixels.
    pub height: u32,
    /// In-sensor pooling factor.
    pub pooling_k: u32,
    /// Undegraded keyframe cadence (shed level 0).
    pub keyframe_interval: u32,
    /// The load the fleet is provisioned for — the shed ladder engages
    /// above it, so `sessions > rated_sessions` exercises degradation.
    pub rated_sessions: usize,
    /// Traffic seed.
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    /// The committed-baseline shape: a 24-session mix at 3× rated load
    /// on a small array.
    fn default() -> Self {
        Self {
            sessions: 24,
            frames_per_session: 8,
            width: 256,
            height: 192,
            pooling_k: 2,
            keyframe_interval: 8,
            rated_sessions: 8,
            seed: SERVE_SEED,
        }
    }
}

/// The traffic mix a configuration expands to.
fn traffic(config: &ServeBenchConfig) -> TrafficConfig {
    TrafficConfig {
        sessions: config.sessions,
        seed: config.seed,
        short_frames: config.frames_per_session,
        long_frames: config.frames_per_session * 3,
        ..TrafficConfig::default()
    }
}

/// Builds the engine for a configuration. The slab cap equals the
/// session count, so the record admits the whole mix — overload is
/// absorbed by the shed ladder, not by refusals.
fn engine(config: &ServeBenchConfig) -> hirise::Result<ServeEngine> {
    let pipeline = HiriseConfig::builder(config.width, config.height)
        .pooling(config.pooling_k)
        .roi_margin(2)
        .build()?;
    let temporal = TemporalConfig::default().keyframe_interval(config.keyframe_interval);
    let serve = ServeConfig::new(pipeline)
        .temporal(temporal)
        .rated_sessions(config.rated_sessions)
        .max_sessions(config.sessions.max(config.rated_sessions))
        .latency_window(256);
    ServeEngine::new(serve)
}

impl Bench for ServeBenchConfig {
    const NAME: &'static str = "serve_stages";

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
            rated_sessions: count("rated_sessions")? as usize,
            seed: record.config_int("seed", 0..=u64::MAX)?,
        };
        engine(&config).map_err(|e| e.to_string())?;
        Ok(config)
    }

    fn header(&self) -> Record {
        Record::new(Self::NAME)
            .with_config("array", format!("{}x{}", self.width, self.height))
            .with_config("pooling_k", self.pooling_k)
            .with_config("keyframe_interval", self.keyframe_interval)
            .with_config("sessions", self.sessions)
            .with_config("frames_per_session", self.frames_per_session)
            .with_config("rated_sessions", self.rated_sessions)
            .with_config("seed", self.seed)
    }

    fn record(&self) -> Record {
        let mut engine = engine(self).expect("valid serve-bench configuration");
        run_plans(&mut engine, &generate(&traffic(self))).expect("serve run succeeds");
        let s = engine.summary();
        self.header()
            .with_count("frames", s.frames)
            .with_count("admitted", s.admitted)
            .with_count("rejected", s.rejected)
            .with_count("completed", s.completed)
            .with_count("dropped", s.dropped)
            .with_count("deferred", s.deferred)
            .with_count("max_shed_level", s.max_shed_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast fleet for structural tests: 6 sessions at 3× rated
    /// load on a tiny array.
    fn small() -> ServeBenchConfig {
        ServeBenchConfig {
            sessions: 6,
            frames_per_session: 4,
            width: 64,
            height: 48,
            pooling_k: 2,
            keyframe_interval: 4,
            rated_sessions: 2,
            seed: SERVE_SEED,
        }
    }

    #[test]
    fn measurement_serves_the_whole_mix_without_drops() {
        let config = small();
        let expected: u64 =
            generate(&traffic(&config)).iter().map(|p| u64::from(p.spec.frames)).sum();
        let r = config.record();
        assert!(r.contract_violations().is_empty(), "{:?}", r.contract_violations());
        assert_eq!(r.int("dropped"), Some(0), "the no-drop contract leaked into the bench");
        assert_eq!(r.int("rejected"), Some(0), "the slab is sized to the mix");
        assert_eq!(r.int("admitted"), Some(config.sessions as u64));
        assert_eq!(r.int("completed"), r.int("admitted"), "every admitted session must finish");
        assert_eq!(r.int("frames"), Some(expected), "served frames must match the plan");
        assert!(r.int("max_shed_level").unwrap() >= 1, "3x rated load never engaged shedding");
    }

    #[test]
    fn deterministic_counters_are_pure_in_the_config() {
        assert_eq!(small().record(), small().record());
    }

    #[test]
    fn json_roundtrips_through_the_emitted_format() {
        let config = small();
        let parsed = Record::parse(&config.header().to_text()).expect("the header parses");
        assert_eq!(ServeBenchConfig::from_record(&parsed), Ok(config));
        assert_eq!(
            ServeBenchConfig::from_record(
                &Record::parse(&ServeBenchConfig::default().header().to_text()).unwrap()
            ),
            Ok(ServeBenchConfig::default())
        );
    }
}
