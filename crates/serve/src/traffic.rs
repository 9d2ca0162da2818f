//! Seeded synthetic traffic: the arrival mix the stress suite and the
//! saturation benchmark both drive.
//!
//! [`generate`] expands a [`TrafficConfig`] into a deterministic list of
//! [`SessionPlan`]s — a mix of short and long sessions across the
//! scenario presets, a priority spread, bursty arrival shapes, and
//! admission times spread over the first few ticks. Everything derives
//! from one `splitmix64` stream, so a seed is a complete description of
//! the workload.

use hirise_scene::{ScenarioGenerator, ScenarioSpec};

use crate::engine::ServeEngine;
use crate::recover::{run_plans_journaled, ArrivalJournal, ReplayError};
use crate::session::{FrameSource, SessionSpec};
use crate::shed::Priority;

/// Scenario presets the generator rotates through — the cheap,
/// structurally distinct ones (the heavy defect/crowd presets belong to
/// the scenario benchmark, not fleet traffic).
const SCENARIOS: [&str; 4] = ["clean", "crossing", "scale", "departure"];

/// SplitMix64: the tiny, high-quality step generator (Steele et al.,
/// *Fast Splittable Pseudorandom Number Generators*) every derived
/// quantity here draws from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shape of a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Sessions to plan.
    pub sessions: usize,
    /// Workload seed — the only source of variation.
    pub seed: u64,
    /// Frame count of a short session.
    pub short_frames: u32,
    /// Frame count of a long session.
    pub long_frames: u32,
    /// Fraction of sessions that are long.
    pub long_fraction: f64,
    /// Admissions spread uniformly over the first `arrival_span` ticks.
    pub arrival_span: u64,
    /// Burst cadence for bursty sessions (every N-th tick).
    pub burst_every: u32,
    /// Extra frames per burst tick.
    pub burst_extra: u32,
}

impl Default for TrafficConfig {
    /// A short/long 3:1 mix arriving over 4 ticks, half the sessions
    /// bursty.
    fn default() -> Self {
        Self {
            sessions: 16,
            seed: 0xF1EE7,
            short_frames: 8,
            long_frames: 24,
            long_fraction: 0.25,
            arrival_span: 4,
            burst_every: 3,
            burst_extra: 2,
        }
    }
}

impl TrafficConfig {
    /// Sets the session count.
    pub fn sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One planned admission: when, and what.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// Engine tick count at (or after) which the session is admitted.
    pub at_tick: u64,
    /// The session to admit.
    pub spec: SessionSpec,
}

/// Expands a traffic config into admission plans, sorted by arrival
/// tick (stably, so same-tick plans keep generation order). Pure in the
/// config: the same seed always yields the same workload.
pub fn generate(config: &TrafficConfig) -> Vec<SessionPlan> {
    let mut rng = config.seed;
    let mut plans: Vec<SessionPlan> = (0..config.sessions)
        .map(|i| {
            let draw = splitmix64(&mut rng);
            let seed = splitmix64(&mut rng);
            let long = ((draw >> 32) as f64 / (1u64 << 32) as f64) < config.long_fraction;
            let scenario = SCENARIOS[(draw & 0xFF) as usize % SCENARIOS.len()];
            let priority = match (draw >> 8) & 0x3 {
                0 => Priority::High,
                1 => Priority::Low,
                _ => Priority::Normal,
            };
            let bursty = (draw >> 10) & 1 == 1;
            let at_tick = (draw >> 16) % config.arrival_span.max(1);
            let mut spec = SessionSpec::default()
                .name(format!("s{i:04}"))
                .scenario(scenario)
                .seed(seed)
                .frames(if long { config.long_frames } else { config.short_frames })
                .priority(priority);
            if bursty {
                spec = spec.burst(config.burst_every, config.burst_extra);
            }
            SessionPlan { at_tick, spec }
        })
        .collect();
    plans.sort_by_key(|p| p.at_tick);
    plans
}

/// Builds a scenario-backed frame source for a spec (`None` for an
/// unknown scenario name).
pub fn source_for(spec: &SessionSpec, width: u32, height: u32) -> Option<FrameSource> {
    let scenario = ScenarioSpec::by_name(&spec.scenario)?;
    Some(FrameSource::Scenario(Box::new(ScenarioGenerator::new(
        scenario, width, height, spec.seed,
    ))))
}

/// Drives an engine through a plan list (sorted by `at_tick`, as
/// [`generate`] returns it) to completion on one serve worker, with
/// scenario sources from [`source_for`]: [`run_plans_journaled`] with a
/// throwaway journal, no snapshots and no crash. Cap refusals are
/// counted by the engine ([`ServeEngine::rejected`]), not treated as
/// failures. Returns the frames served.
///
/// # Errors
///
/// As for [`run_plans_journaled`]: [`ReplayError::Source`] for an
/// unknown scenario name, [`ReplayError::Admit`] for a degenerate spec,
/// [`ReplayError::Serve`] for a frame failure.
pub fn run_plans(
    engine: &mut ServeEngine,
    plans: &[SessionPlan],
) -> std::result::Result<u64, ReplayError> {
    let (width, height) =
        (engine.config().pipeline.array_width, engine.config().pipeline.array_height);
    let factory = |spec: &SessionSpec| source_for(spec, width, height);
    let mut journal = ArrivalJournal::new();
    run_plans_journaled(engine, plans, &factory, &mut journal, 0, 1, &mut |_| false)
        .map(|outcome| outcome.served)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure_in_the_seed() {
        let config = TrafficConfig::default().sessions(32);
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a, b);
        let c = generate(&config.seed(99));
        assert_ne!(a, c, "a different seed must change the workload");
    }

    #[test]
    fn generated_mix_covers_the_advertised_axes() {
        let plans = generate(&TrafficConfig::default().sessions(64));
        assert_eq!(plans.len(), 64);
        assert!(plans.windows(2).all(|w| w[0].at_tick <= w[1].at_tick), "not sorted by arrival");
        assert!(plans.iter().all(|p| p.at_tick < 4), "arrivals outside the span");
        let longs = plans.iter().filter(|p| p.spec.frames == 24).count();
        let shorts = plans.iter().filter(|p| p.spec.frames == 8).count();
        assert_eq!(longs + shorts, 64);
        assert!(longs > 0 && shorts > longs, "short/long mix missing or inverted");
        assert!(plans.iter().any(|p| p.spec.burst_every > 0), "no bursty sessions");
        assert!(plans.iter().any(|p| p.spec.burst_every == 0), "no smooth sessions");
        for priority in [Priority::High, Priority::Normal, Priority::Low] {
            assert!(
                plans.iter().any(|p| p.spec.priority == priority),
                "priority {priority:?} never drawn"
            );
        }
        let mut scenarios: Vec<&str> = plans.iter().map(|p| p.spec.scenario.as_str()).collect();
        scenarios.sort_unstable();
        scenarios.dedup();
        assert!(scenarios.len() >= 3, "scenario rotation collapsed: {scenarios:?}");
        // Every planned scenario resolves to a real preset.
        for plan in &plans {
            assert!(source_for(&plan.spec, 64, 48).is_some(), "bad scenario {:?}", plan.spec);
        }
    }

    #[test]
    fn unknown_scenarios_are_refused_not_guessed() {
        let spec = SessionSpec::default().scenario("no-such-preset");
        assert!(source_for(&spec, 64, 48).is_none());
    }
}
