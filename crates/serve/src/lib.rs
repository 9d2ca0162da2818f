//! `hirise-serve`: a multi-tenant session layer over the HiRISE
//! temporal pipeline.
//!
//! The repo's other crates process one workload per call; a deployed
//! fleet faces thousands of concurrent video sessions. This crate is
//! the long-lived service layer in between (verification layer 9 in
//! DESIGN.md):
//!
//! * **Session slab** ([`ServeEngine`]): fixed slots, each holding one
//!   session's [`hirise::temporal::TrackerState`], counters-only
//!   [`hirise::SequenceSummary`], bounded frame queue, and
//!   latency reservoir. The engine keeps one
//!   [`hirise::PipelineScratch`] per serve worker (frame-local on every
//!   path) and its worker threads across passes, so the steady state
//!   serves frames with zero heap allocations on any thread — the same
//!   contract `tests/alloc.rs` pins for the single-session paths.
//! * **Scheduler**: tick-driven arrivals into bounded per-session
//!   queues with backpressure (full queues defer, never drop), drained
//!   deficit-round-robin — `quantum` frames per session per round — by
//!   [`ServeEngine::serve_parallel`], inline on the caller or across
//!   slot bands on a persistent [`hirise_sensor::ShardPool`].
//! * **Admission + graceful degradation** ([`ShedPolicy`]): past the
//!   hard cap, sessions are refused at the door; past rated load,
//!   sessions *degrade* instead of dropping — keyframe intervals widen
//!   and ROI margins shrink, lowest [`Priority`] first, via the live
//!   [`hirise::TrackingPipeline`] policy hooks.
//! * **Observability** ([`ServeSummary`]): per-session p50/p99 from
//!   fixed nearest-rank reservoirs ([`LatencyReservoir`]), frame-kind
//!   counters, shed gauges, and a `dropped` field that is structurally
//!   zero.
//! * **Failure isolation** ([`FaultInjector`]): each session's frame
//!   work runs behind a panic boundary — a panicking session is
//!   quarantined and its tracker restored from its last keyframe
//!   checkpoint ([`hirise::temporal::TrackerCheckpoint`]) while the
//!   fleet keeps serving; a per-frame deadline watchdog escalates a
//!   stalled session one shed rung before its queue starts deferring.
//! * **Traffic** ([`traffic`]): seeded synthetic session mixes over the
//!   `hirise_scene` scenario presets — the stress suite and the
//!   `serve_stages` saturation benchmark share one workload definition.
//!
//! Determinism extends the repo-wide contract: shed levels are computed
//! only at tick time and stamped per frame at enqueue, so each
//! session's output is a pure function of `(spec, seed, arrival/tick
//! schedule)` — bit-identical at any worker count for a fixed driver
//! schedule.
//!
//! # Example
//!
//! ```
//! use hirise::HiriseConfig;
//! use hirise_serve::{FrameSource, ServeConfig, ServeEngine, SessionSpec};
//! use hirise_imaging::RgbImage;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pipeline = HiriseConfig::builder(64, 64).pooling(4).build()?;
//! let mut engine = ServeEngine::new(ServeConfig::new(pipeline))?;
//! let clip: Vec<RgbImage> = (0..4)
//!     .map(|i| RgbImage::from_fn(64, 64, |x, y| {
//!         let v = ((x / 8 + y / 8 + i) % 2) as f32 * 0.4 + 0.3;
//!         (v, v, 0.5)
//!     }))
//!     .collect();
//! engine.admit(SessionSpec::default().frames(8), FrameSource::Frames(clip))?;
//! engine.drain()?;
//! let summary = engine.summary();
//! assert_eq!(summary.frames, 8);
//! assert_eq!(summary.dropped, 0);
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod fault;
pub mod metrics;
pub mod recover;
pub mod session;
pub mod shed;
pub mod traffic;

pub use engine::{AdmitError, ServeConfig, ServeEngine, ServeSummary, SessionId};
pub use fault::{FaultAction, FaultInjector};
pub use metrics::{nearest_rank, LatencyReservoir};
pub use recover::{
    config_fingerprint, run_plans_journaled, ArrivalJournal, EngineSnapshot, JournalRecord,
    JournaledOutcome, ReplayError, RestoreError, SourceFactory,
};
pub use session::{FrameSource, SessionReport, SessionSpec};
pub use shed::{Priority, ShedPolicy};
pub use traffic::{generate, run_plans, source_for, SessionPlan, TrafficConfig};
