//! The serve engine: session slab, admission control, tick-driven
//! shedding, and per-session frame scheduling.
//!
//! # Lifecycle
//!
//! Sessions are [`ServeEngine::admit`]ted into a fixed slab (refused —
//! never silently queued or dropped — past `max_sessions`). Time
//! advances in [`ServeEngine::tick`]s: each tick retires finished
//! sessions, recomputes the fleet's shed level from the deterministic
//! load ratio `active / rated_sessions`, and lets every session move
//! this tick's frame arrivals into its bounded queue, stamping each
//! queued frame with the session's current shed level. Between ticks,
//! [`ServeEngine::serve_parallel`] drains every queue on the engine's
//! persistent worker pool (or inline on the caller with one worker):
//! workers claim whole sessions from one shared cursor, sessions with a
//! keyframe due first, and drain each claimed queue before claiming the
//! next.
//!
//! # Determinism
//!
//! The shed level is computed only at tick time from admission/retire
//! counts, and stamped per frame at enqueue time — never read during
//! serving. A session's output is therefore a pure function of its
//! `(spec, source, arrival schedule, stamped level trajectory)`: for a
//! fixed tick/serve driver schedule, worker counts, slot placement, and
//! claim order cannot change any session's frames, counters, or energy
//! fold. The integration tests pin this bit-for-bit.
//!
//! # No drops, by construction
//!
//! There is no code path that discards an admitted session or a
//! generated frame: overload widens keyframe intervals and shrinks ROI
//! margins (the [`ShedPolicy`] ladder), and full queues defer arrivals
//! to later ticks. [`ServeSummary::dropped`] exists to pin that
//! contract at 0 in every report.

use std::sync::{Arc, Mutex, PoisonError};

use hirise::{HiriseConfig, HiriseError, PipelineScratch, Result, TemporalConfig};
use hirise_sensor::shard::claim_each;
use hirise_sensor::ShardPool;

use crate::fault::FaultInjector;
use crate::metrics::nearest_rank_of_two;
use crate::session::{FrameSource, Session, SessionReport, SessionSpec};
use crate::shed::ShedPolicy;

/// Engine-assigned session identity: the admission sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Why [`ServeEngine::admit`] refused a session. Refusal at the door is
/// the only "no" the engine ever says — an admitted session is never
/// dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The slab is at its hard cap.
    Full {
        /// Sessions currently live.
        active: usize,
        /// The configured cap.
        max_sessions: usize,
    },
    /// The spec or source is degenerate (zero frames, empty clip, …).
    Invalid {
        /// Description of the violated constraint.
        reason: String,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Full { active, max_sessions } => {
                write!(f, "admission refused: {active} active sessions at the cap {max_sessions}")
            }
            AdmitError::Invalid { reason } => write!(f, "admission refused: {reason}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The per-session pipeline configuration (shared; sessions differ
    /// only in their frame sources and specs).
    pub pipeline: HiriseConfig,
    /// The undegraded temporal policy — shed level 0.
    pub temporal: TemporalConfig,
    /// The load the fleet is provisioned for; the shed ladder engages on
    /// `active / rated_sessions`.
    pub rated_sessions: usize,
    /// Hard admission cap (slab size, ≥ `rated_sessions`).
    pub max_sessions: usize,
    /// Bounded per-session frame queue length (≥ 1).
    pub queue_capacity: usize,
    /// Latency reservoir window per session.
    pub latency_window: usize,
    /// The overload shed ladder.
    pub shed: ShedPolicy,
    /// Optional per-frame fault oracle (chaos testing); `None` disables
    /// injection entirely.
    pub fault: Option<Arc<dyn FaultInjector>>,
    /// Per-frame latency deadline for the watchdog, ms (`0` disables
    /// it). A frame over deadline escalates its session one shed rung on
    /// the next tick's arrivals — the session gets cheaper before the
    /// queue starts deferring.
    pub deadline_ms: f64,
}

impl ServeConfig {
    /// A small default fleet: rated for 8 sessions, capped at 32, no
    /// fault injection, watchdog disabled.
    pub fn new(pipeline: HiriseConfig) -> Self {
        Self {
            pipeline,
            temporal: TemporalConfig::default(),
            rated_sessions: 8,
            max_sessions: 32,
            queue_capacity: 8,
            latency_window: 128,
            shed: ShedPolicy::default(),
            fault: None,
            deadline_ms: 0.0,
        }
    }

    /// Sets the undegraded temporal policy.
    pub fn temporal(mut self, temporal: TemporalConfig) -> Self {
        self.temporal = temporal;
        self
    }

    /// Sets the rated session count.
    pub fn rated_sessions(mut self, rated: usize) -> Self {
        self.rated_sessions = rated;
        self
    }

    /// Sets the hard admission cap.
    pub fn max_sessions(mut self, max: usize) -> Self {
        self.max_sessions = max;
        self
    }

    /// Sets the per-session queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the latency reservoir window.
    pub fn latency_window(mut self, window: usize) -> Self {
        self.latency_window = window;
        self
    }

    /// Sets the shed ladder.
    pub fn shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// Installs a per-frame fault oracle.
    pub fn fault(mut self, fault: Arc<dyn FaultInjector>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Sets the per-frame watchdog deadline, ms (`0` disables it).
    pub fn deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Checks the fleet shape and both embedded policies.
    ///
    /// # Errors
    ///
    /// [`hirise::HiriseError::InvalidConfig`] for a degenerate fleet
    /// (zero rated load, cap below rated, zero queue) or embedded
    /// policy.
    pub fn validate(&self) -> Result<()> {
        self.temporal.validate()?;
        self.shed.validate()?;
        let invalid = |reason: String| hirise::HiriseError::InvalidConfig { reason };
        if self.rated_sessions == 0 {
            return Err(invalid("rated_sessions must be ≥ 1".into()));
        }
        if self.max_sessions < self.rated_sessions {
            return Err(invalid(format!(
                "max_sessions ({}) must be ≥ rated_sessions ({})",
                self.max_sessions, self.rated_sessions
            )));
        }
        if self.queue_capacity == 0 {
            return Err(invalid("queue_capacity must be ≥ 1".into()));
        }
        // `!(x >= 0.0)` rather than `x < 0.0`: rejects NaN too.
        if !(self.deadline_ms >= 0.0) {
            return Err(invalid(format!(
                "deadline_ms must be a non-negative number ({})",
                self.deadline_ms
            )));
        }
        Ok(())
    }
}

/// Fleet-wide observability: counters, shed gauges, and latency
/// percentiles over the merged per-session windows.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Ticks elapsed.
    pub ticks: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions refused at the door (the cap).
    pub rejected: u64,
    /// Sessions dropped after admission — **structurally zero**: no
    /// engine code path discards an admitted session. The field pins
    /// the contract in every report and gate.
    pub dropped: u64,
    /// Sessions that served every requested frame.
    pub completed: u64,
    /// Sessions still live.
    pub active: u64,
    /// Frames served across all sessions.
    pub frames: u64,
    /// Scheduled full-detection frames across all sessions.
    pub keyframes: u64,
    /// Drift-triggered re-detections across all sessions.
    pub drift_refreshes: u64,
    /// Pure tracked frames across all sessions.
    pub tracked_frames: u64,
    /// Sensor-side energy across all sessions, millijoules.
    pub energy_mj: f64,
    /// Total (frame × tick) backpressure deferrals.
    pub deferred: u64,
    /// Sessions that were ever quarantined (a frame of theirs panicked
    /// inside the isolation boundary).
    pub quarantined: u64,
    /// Quarantined sessions whose every fault has recovered — the
    /// tracker restored from its keyframe checkpoint and reached the
    /// next detection frame.
    pub recovered: u64,
    /// The longest fault-to-recovery span any session paid, in served
    /// frames.
    pub max_recovery_frames: u32,
    /// Frames that exceeded the watchdog deadline, across all sessions.
    pub deadline_misses: u64,
    /// The fleet's shed base level at the last tick.
    pub shed_level: u8,
    /// The highest base level any tick reached.
    pub max_shed_level: u8,
    /// Median frame latency over the merged windows, ms.
    pub p50_ms: f64,
    /// Tail frame latency over the merged windows, ms.
    pub p99_ms: f64,
    /// Per-session reports (completed and live), in admission order.
    pub sessions: Vec<SessionReport>,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve: {} sessions ({} done, {} live, {} refused, {} dropped), \
             {} frames over {} ticks, shed {}/{} now/max, \
             p50 {:.3} ms, p99 {:.3} ms, {} deferrals, \
             {} quarantined ({} recovered, worst {} frames)",
            self.admitted,
            self.completed,
            self.active,
            self.rejected,
            self.dropped,
            self.frames,
            self.ticks,
            self.shed_level,
            self.max_shed_level,
            self.p50_ms,
            self.p99_ms,
            self.deferred,
            self.quarantined,
            self.recovered,
            self.max_recovery_frames,
        )
    }
}

/// One serve worker's state: the frame scratch it reuses across passes
/// and what it served in the last pass.
#[derive(Debug, Default)]
pub(crate) struct Worker {
    scratch: PipelineScratch,
    /// Frames served in the last pass.
    served: u64,
    /// The lowest-slot session failure of the last pass, with its slot.
    failure: Option<(usize, HiriseError)>,
}

impl Worker {
    /// Keeps `failure` if its slot is below the one already kept.
    fn keep_lowest(kept: &mut Option<(usize, HiriseError)>, failure: (usize, HiriseError)) {
        if kept.as_ref().is_none_or(|(slot, _)| failure.0 < *slot) {
            *kept = Some(failure);
        }
    }
}

/// The multi-tenant engine. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct ServeEngine {
    // Fields are `pub(crate)` (not private) solely for the snapshot /
    // restore codec in [`crate::recover`], which must see the whole
    // slab to persist it.
    pub(crate) config: ServeConfig,
    /// The session slab: `max_sessions` fixed slots.
    pub(crate) slots: Vec<Option<Session>>,
    /// Free slot indices (top of the stack is the next admission's
    /// slot); seeded in reverse so slots fill in index order.
    pub(crate) free: Vec<usize>,
    /// The serve worker threads (the caller is worker 0).
    pool: ShardPool,
    /// One scratch and pass outcome per worker, reused across passes;
    /// rebuilt with `pool` only when the worker count changes. Its
    /// length is the worker count [`ServeEngine::drain`] and journal
    /// replay serve at.
    pub(crate) workers: Vec<Mutex<Worker>>,
    /// A serve pass's claim order over the slab (slot indices), sized
    /// for every slot at construction so a pass never allocates.
    order: Vec<usize>,
    pub(crate) ticks: u64,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) active: usize,
    pub(crate) base_level: u8,
    pub(crate) max_base_level: u8,
    pub(crate) completed: Vec<SessionReport>,
    /// Every latency sample of `completed`, ascending, merged in at
    /// retire so [`ServeEngine::summary`] sorts only the live samples.
    /// Telemetry, not state: never snapshotted, and a restored engine
    /// starts it empty, as its restored reports carry no samples.
    completed_latency_ms: Vec<f64>,
}

impl ServeEngine {
    /// Creates an engine with an empty slab.
    ///
    /// # Errors
    ///
    /// [`hirise::HiriseError::InvalidConfig`] as for
    /// [`ServeConfig::validate`].
    pub fn new(config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let max = config.max_sessions;
        Ok(Self {
            config,
            slots: (0..max).map(|_| None).collect(),
            free: (0..max).rev().collect(),
            pool: ShardPool::new(1),
            workers: vec![Mutex::new(Worker::default())],
            order: Vec::with_capacity(max),
            ticks: 0,
            admitted: 0,
            rejected: 0,
            active: 0,
            base_level: 0,
            max_base_level: 0,
            completed: Vec::new(),
            completed_latency_ms: Vec::new(),
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Ticks elapsed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Sessions currently live in the slab.
    pub fn active_sessions(&self) -> usize {
        self.active
    }

    /// Sessions admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Sessions refused at the cap so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The fleet's shed base level as of the last tick.
    pub fn shed_level(&self) -> u8 {
        self.base_level
    }

    /// Admits a session into the slab.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Full`] at the hard cap (counted in
    /// [`ServeEngine::rejected`]); [`AdmitError::Invalid`] for a
    /// degenerate spec or source. Refusal is the engine's only "no" —
    /// once admitted, a session is never dropped.
    pub fn admit(
        &mut self,
        spec: SessionSpec,
        source: FrameSource,
    ) -> std::result::Result<SessionId, AdmitError> {
        if let Err(reason) = spec.validate() {
            return Err(AdmitError::Invalid { reason });
        }
        if source.is_empty() {
            return Err(AdmitError::Invalid { reason: "frame source is empty".into() });
        }
        let Some(slot) = self.free.pop() else {
            self.rejected += 1;
            return Err(AdmitError::Full {
                active: self.active,
                max_sessions: self.config.max_sessions,
            });
        };
        let id = SessionId(self.admitted);
        match Session::new(id, spec, source, &self.config) {
            Ok(session) => {
                self.slots[slot] = Some(session);
                self.admitted += 1;
                self.active += 1;
                Ok(id)
            }
            Err(e) => {
                self.free.push(slot);
                Err(AdmitError::Invalid { reason: e.to_string() })
            }
        }
    }

    /// Advances fleet time: retires finished sessions, recomputes the
    /// shed base level from the load ratio, and generates every live
    /// session's arrivals (stamped with its priority-biased level).
    pub fn tick(&mut self) {
        self.ticks += 1;
        self.retire();
        let load = self.active as f64 / self.config.rated_sessions as f64;
        self.base_level = self.config.shed.base_level(load);
        self.max_base_level = self.max_base_level.max(self.base_level);
        let Self { slots, config, base_level, .. } = self;
        for session in slots.iter_mut().flatten() {
            let level = config.shed.level_for(*base_level, session.priority());
            session.arrive(level);
        }
    }

    /// Moves finished sessions out of the slab into the completed list,
    /// freeing their slots. Runs in slot order, so the completed list
    /// ordering is a pure function of the tick/serve schedule.
    fn retire(&mut self) {
        for slot in 0..self.slots.len() {
            if self.slots[slot].as_ref().is_some_and(Session::is_done) {
                let session = self.slots[slot].take().expect("checked above");
                let report = session.report();
                // The stable sort takes the sorted history as one run, so
                // this sorts the new window and merges it in linear time.
                self.completed_latency_ms.extend_from_slice(&report.latency_ms);
                self.completed_latency_ms.sort_by(f64::total_cmp);
                self.completed.push(report);
                self.free.push(slot);
                self.active -= 1;
            }
        }
    }

    /// Drains every queued frame across `workers` serve workers (the
    /// calling thread is worker 0; `workers <= 1` runs inline). Workers
    /// claim sessions one at a time from one shared cursor and drain each
    /// claimed queue through their own [`PipelineScratch`]. Sessions with
    /// a keyframe due are claimed first (slot order within each class),
    /// so the long frames start early and the short ones fill in behind
    /// them. The engine keeps the worker threads, their scratch and the
    /// claim order across calls, rebuilding the first two only when
    /// `workers` changes, so a warm engine serves without allocating.
    /// Per-session outputs are bit-identical at any worker count:
    /// sessions share no mutable state and levels were stamped at
    /// enqueue. Returns the frames served.
    ///
    /// A panicking frame is quarantined inside its session (see
    /// [`crate::session`]); a panic outside any session would be a bug,
    /// and [`ShardPool`] re-raises it here once every worker is idle.
    ///
    /// # Errors
    ///
    /// The frame failure of the lowest failing slot. A failure stops
    /// only its own session's drain (the failed frame is consumed);
    /// every other session still drains, so which sessions drain does
    /// not depend on the worker count.
    pub fn serve_parallel(&mut self, workers: usize) -> Result<u64> {
        let workers = workers.max(1);
        if self.workers.len() != workers {
            self.pool = ShardPool::new(workers);
            self.workers = (0..workers).map(|_| Mutex::new(Worker::default())).collect();
        }
        let Self { slots, config, pool, workers, order, .. } = self;
        let config = &*config;
        // Keyframe-first is a cost guess made before the frame's predict
        // step: a wrong guess changes only which worker serves when.
        let class = |slot: &Option<Session>| {
            slot.as_ref().filter(|s| s.has_queued()).map(Session::keyframe_due)
        };
        // A worker's lock is poisoned only by a panic outside every
        // session's boundary, which `claim_each` re-raises here. Its
        // state stays usable: the scratch is frame-local (quarantined
        // sessions already reuse it after a mid-frame panic), and the
        // outcome is taken below after every pass.
        claim_each(pool, slots, order, workers.len(), class, |worker, claims| {
            let mut worker = workers[worker].lock().unwrap_or_else(PoisonError::into_inner);
            let Worker { scratch, served, failure } = &mut *worker;
            for (slot, session) in claims {
                let session = session.as_mut().expect("only live sessions are claimed");
                match session.drain(config, scratch) {
                    Ok(n) => *served += n,
                    Err(e) => Worker::keep_lowest(failure, (slot, e)),
                }
            }
        });
        let mut total = 0u64;
        let mut failure = None;
        for worker in workers.iter_mut() {
            let worker = worker.get_mut().unwrap_or_else(PoisonError::into_inner);
            total += std::mem::take(&mut worker.served);
            if let Some(lost) = worker.failure.take() {
                Worker::keep_lowest(&mut failure, lost);
            }
        }
        failure.map_or(Ok(total), |(_, e)| Err(e))
    }

    /// Runs tick/serve cycles until every admitted session has completed
    /// and been retired, serving at the engine's current worker count
    /// (1 until [`ServeEngine::serve_parallel`] is called with another).
    /// Returns the frames served.
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::serve_parallel`].
    pub fn drain(&mut self) -> Result<u64> {
        let mut served = 0u64;
        loop {
            self.tick();
            if self.active == 0 {
                return Ok(served);
            }
            served += self.serve_parallel(self.workers.len())?;
        }
    }

    /// The fleet-wide summary over completed and live sessions.
    pub fn summary(&self) -> ServeSummary {
        let mut sessions = self.completed.clone();
        let mut live_latency_ms: Vec<f64> = Vec::new();
        for session in self.slots.iter().flatten() {
            let report = session.report();
            live_latency_ms.extend_from_slice(&report.latency_ms);
            sessions.push(report);
        }
        live_latency_ms.sort_by(f64::total_cmp);
        sessions.sort_by_key(|r| r.id);
        let mut frames = 0u64;
        let mut keyframes = 0u64;
        let mut drift_refreshes = 0u64;
        let mut tracked_frames = 0u64;
        let mut energy_mj = 0.0;
        let mut deferred = 0u64;
        let mut quarantined = 0u64;
        let mut recovered = 0u64;
        let mut max_recovery_frames = 0u32;
        let mut deadline_misses = 0u64;
        let mut max_shed_level = self.max_base_level;
        for report in &sessions {
            frames += report.summary.frames;
            keyframes += report.summary.keyframes;
            drift_refreshes += report.summary.drift_refreshes;
            tracked_frames += report.summary.tracked_frames;
            energy_mj += report.summary.energy_mj;
            deferred += report.deferred;
            if report.poisoned {
                quarantined += 1;
                if report.recoveries == report.quarantines {
                    recovered += 1;
                }
            }
            max_recovery_frames = max_recovery_frames.max(report.max_recovery_frames);
            deadline_misses += report.deadline_misses;
            max_shed_level = max_shed_level.max(report.max_shed_level);
        }
        let percentile = |p| nearest_rank_of_two(&self.completed_latency_ms, &live_latency_ms, p);
        ServeSummary {
            ticks: self.ticks,
            admitted: self.admitted,
            rejected: self.rejected,
            dropped: 0,
            completed: self.completed.len() as u64,
            active: self.active as u64,
            frames,
            keyframes,
            drift_refreshes,
            tracked_frames,
            energy_mj,
            deferred,
            quarantined,
            recovered,
            max_recovery_frames,
            deadline_misses,
            shed_level: self.base_level,
            max_shed_level,
            p50_ms: percentile(50.0),
            p99_ms: percentile(99.0),
            sessions,
        }
    }
}
