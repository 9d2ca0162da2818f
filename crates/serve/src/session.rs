//! One tenant of the serve engine: its frame source, tracker, bounded
//! queue, and fixed-size observability.
//!
//! A session is the unit of multi-tenancy. Everything a session needs
//! across frames lives here — [`hirise::temporal::TrackerState`], the
//! running [`SequenceSummary`] (counters only),
//! the [`LatencyReservoir`], and the bounded frame queue — so the
//! engine's slab slot is self-contained and a slot can be served by any
//! worker with any [`hirise::PipelineScratch`] (the scratch is
//! frame-local on every path, which is what makes per-*worker* scratch
//! safe in a per-*session* world).
//!
//! Determinism: each queued frame is stamped with its shed level at
//! enqueue time, so the pipeline configuration a frame is processed
//! under is fixed the moment it enters the system — scheduling order
//! and worker counts can no longer affect the output.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hirise::temporal::{TrackerCheckpoint, TrackerState, TrackingPipeline};
use hirise::{PipelineScratch, Result, RgbImage, RoiCrops, SequenceSummary};
use hirise_scene::ScenarioGenerator;

use crate::engine::{ServeConfig, SessionId};
use crate::fault::FaultAction;
use crate::metrics::LatencyReservoir;
use crate::shed::Priority;

/// What a session wants: how many frames, at what arrival shape, at
/// which priority.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Display name (reports only).
    pub name: String,
    /// Scenario preset name for scenario-backed sources
    /// ([`crate::traffic::source_for`]); ignored for pre-materialised
    /// clips.
    pub scenario: String,
    /// Seed for the session's scenario generator.
    pub seed: u64,
    /// Total frames the session will submit (≥ 1).
    pub frames: u32,
    /// Where the session lands on the shed ladder under load.
    pub priority: Priority,
    /// Nominal frame arrivals per engine tick (≥ 1).
    pub frames_per_tick: u32,
    /// Every `burst_every`-th tick delivers `burst_extra` extra frames
    /// (`0` disables bursts).
    pub burst_every: u32,
    /// Extra frames per burst tick.
    pub burst_extra: u32,
}

impl Default for SessionSpec {
    /// A short clean-scenario session: 16 frames, one per tick, normal
    /// priority, no bursts.
    fn default() -> Self {
        Self {
            name: "session".into(),
            scenario: "clean".into(),
            seed: 0,
            frames: 16,
            priority: Priority::Normal,
            frames_per_tick: 1,
            burst_every: 0,
            burst_extra: 0,
        }
    }
}

impl SessionSpec {
    /// Sets the display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the scenario preset name.
    pub fn scenario(mut self, scenario: impl Into<String>) -> Self {
        self.scenario = scenario.into();
        self
    }

    /// Sets the scenario seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the total frame count.
    pub fn frames(mut self, frames: u32) -> Self {
        self.frames = frames;
        self
    }

    /// Sets the shed priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the nominal arrivals per tick.
    pub fn frames_per_tick(mut self, frames_per_tick: u32) -> Self {
        self.frames_per_tick = frames_per_tick;
        self
    }

    /// Sets the burst shape: `extra` additional frames every `every`-th
    /// tick.
    pub fn burst(mut self, every: u32, extra: u32) -> Self {
        self.burst_every = every;
        self.burst_extra = extra;
        self
    }

    pub(crate) fn validate(&self) -> std::result::Result<(), String> {
        if self.frames == 0 {
            return Err("session must submit at least one frame".into());
        }
        if self.frames_per_tick == 0 {
            return Err("session must arrive at least one frame per tick".into());
        }
        Ok(())
    }
}

/// Where a session's frames come from.
pub enum FrameSource {
    /// A pre-materialised clip, cycled if the session outlives it.
    /// Serving borrows frames in place — the choice for the
    /// zero-allocation and determinism tests.
    Frames(Vec<RgbImage>),
    /// Frames rendered on demand by a scenario generator (pure in the
    /// frame index, so just as deterministic — but each frame is an
    /// allocation, so this is the capacity-realism choice, not the
    /// zero-alloc one).
    Scenario(Box<ScenarioGenerator>),
    /// Frames produced by an arbitrary function of the index — the hook
    /// a fault layer uses to wrap a generator in sensor-defect
    /// injection without this crate depending on any fault model. The
    /// function must be pure in the index for the determinism contract
    /// to hold.
    Generated(Box<dyn Fn(u32) -> RgbImage + Send + Sync>),
}

impl FrameSource {
    /// The frame at `index` (pure: same index, same frame).
    fn frame(&self, index: u32) -> Cow<'_, RgbImage> {
        match self {
            FrameSource::Frames(clip) => Cow::Borrowed(&clip[index as usize % clip.len()]),
            FrameSource::Scenario(generator) => Cow::Owned(generator.frame(index).image),
            FrameSource::Generated(render) => Cow::Owned(render(index)),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, FrameSource::Frames(clip) if clip.is_empty())
    }
}

impl std::fmt::Debug for FrameSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameSource::Frames(clip) => write!(f, "FrameSource::Frames({} frames)", clip.len()),
            FrameSource::Scenario(g) => write!(f, "FrameSource::Scenario({})", g.name()),
            FrameSource::Generated(_) => write!(f, "FrameSource::Generated"),
        }
    }
}

/// Fixed-capacity ring of `(frame_index, shed_level)` entries — the
/// bounded per-session queue. `push` refuses when full (backpressure),
/// it never overwrites: a queued frame is a promise.
#[derive(Debug)]
struct FrameQueue {
    entries: Vec<(u32, u8)>,
    head: usize,
    len: usize,
}

impl FrameQueue {
    fn new(capacity: usize) -> Self {
        Self { entries: vec![(0, 0); capacity], head: 0, len: 0 }
    }

    fn push(&mut self, entry: (u32, u8)) -> bool {
        if self.len == self.entries.len() {
            return false;
        }
        let tail = (self.head + self.len) % self.entries.len();
        self.entries[tail] = entry;
        self.len += 1;
        true
    }

    fn pop(&mut self) -> Option<(u32, u8)> {
        if self.len == 0 {
            return None;
        }
        let entry = self.entries[self.head];
        self.head = (self.head + 1) % self.entries.len();
        self.len -= 1;
        Some(entry)
    }
}

/// A live slab entry: spec, source, tracker, queue, stats.
#[derive(Debug)]
pub(crate) struct Session {
    id: SessionId,
    spec: SessionSpec,
    source: FrameSource,
    tracker: TrackingPipeline,
    state: TrackerState,
    summary: SequenceSummary,
    latency: LatencyReservoir,
    queue: FrameQueue,
    /// Next frame index to enqueue.
    next_frame: u32,
    /// Frames arrived but not yet queued (held back by backpressure).
    pending: u32,
    served: u32,
    /// Total (frame × tick) deferrals: each pending frame counts once
    /// per tick it spends waiting for queue space.
    deferred: u64,
    ticks: u64,
    /// The session's own ROI crop buffers, swapped into whichever
    /// worker's scratch serves a frame: their capacities then follow
    /// this session's ROI sizes alone, so a warmed session reads its
    /// crops without allocating on any worker. Capacity, not state:
    /// never snapshotted.
    roi_crops: RoiCrops,
    /// Shed level currently built into the tracker.
    applied_level: u8,
    max_shed_level: u8,
    /// The recovery anchor: snapshotted after every detection frame, so
    /// a quarantined fault rewinds at most one keyframe interval.
    checkpoint: TrackerCheckpoint,
    /// Whether any frame of this session ever panicked in isolation.
    poisoned: bool,
    /// Frames whose processing panicked (each consumed, never retried —
    /// a deterministic fault would re-fire forever).
    poisoned_frames: u64,
    /// Quarantine events (one per poisoned frame).
    quarantines: u64,
    /// Whether a frame returned an error. That frame is consumed and the
    /// session ends: it serves nothing more and retires at the next
    /// tick, reported as not completed.
    failed: bool,
    /// Completed recoveries: the tracker restored from its checkpoint
    /// and reached the next detection frame.
    recoveries: u64,
    /// `served` count at the most recent unrecovered fault.
    recovering_since: Option<u32>,
    /// The longest fault-to-recovery span paid so far, in served frames.
    max_recovery_frames: u32,
    /// Frames over the watchdog deadline.
    deadline_misses: u64,
    /// One extra shed rung stamped on the next arrivals after a
    /// deadline miss (the watchdog escalation); cleared by an on-time
    /// frame.
    watchdog_boost: u8,
}

impl Session {
    pub(crate) fn new(
        id: SessionId,
        spec: SessionSpec,
        source: FrameSource,
        config: &ServeConfig,
    ) -> Result<Self> {
        let tracker = TrackingPipeline::new(config.pipeline.clone(), config.temporal)?;
        Ok(Self {
            id,
            spec,
            source,
            tracker,
            state: TrackerState::new(),
            summary: SequenceSummary::default(),
            latency: LatencyReservoir::new(config.latency_window),
            queue: FrameQueue::new(config.queue_capacity),
            next_frame: 0,
            pending: 0,
            served: 0,
            deferred: 0,
            ticks: 0,
            roi_crops: RoiCrops::default(),
            applied_level: 0,
            max_shed_level: 0,
            checkpoint: TrackerCheckpoint::new(),
            poisoned: false,
            poisoned_frames: 0,
            quarantines: 0,
            failed: false,
            recoveries: 0,
            recovering_since: None,
            max_recovery_frames: 0,
            deadline_misses: 0,
            watchdog_boost: 0,
        })
    }

    pub(crate) fn priority(&self) -> Priority {
        self.spec.priority
    }

    /// Whether the session is over: every frame served, or a frame
    /// error ended it.
    pub(crate) fn is_done(&self) -> bool {
        self.failed || self.served >= self.spec.frames
    }

    /// Whether a frame waits in the queue to be served.
    pub(crate) fn has_queued(&self) -> bool {
        !self.failed && self.queue.len > 0
    }

    /// Whether the next frame is due to be a keyframe under the
    /// tracker's current policy — a cost guess for scheduling: the
    /// frame's stamped shed level or its predict step may still change
    /// the outcome.
    pub(crate) fn keyframe_due(&self) -> bool {
        self.tracker.keyframe_due(&self.state)
    }

    /// Serves every queued frame through `scratch`; returns how many.
    ///
    /// # Errors
    ///
    /// The first frame failure, which stops the drain (the failed frame
    /// is consumed; later frames stay queued).
    pub(crate) fn drain(
        &mut self,
        config: &ServeConfig,
        scratch: &mut PipelineScratch,
    ) -> Result<u64> {
        let mut served = 0;
        while self.serve_one(config, scratch)? {
            served += 1;
        }
        Ok(served)
    }

    /// One engine tick: generate this tick's arrivals, then move as many
    /// waiting frames into the bounded queue as fit, stamping each with
    /// the session's current shed `level`. What does not fit stays
    /// pending — deferred, never dropped.
    ///
    /// A session the watchdog caught over deadline is escalated one
    /// extra rung before its frames can start deferring: getting
    /// cheaper is the first response to a stall, falling behind the
    /// second.
    pub(crate) fn arrive(&mut self, level: u8) {
        let level = (level + self.watchdog_boost).min(3);
        self.ticks += 1;
        let mut due = self.spec.frames_per_tick;
        if self.spec.burst_every > 0 && self.ticks.is_multiple_of(u64::from(self.spec.burst_every))
        {
            due += self.spec.burst_extra;
        }
        let remaining = self.spec.frames - self.next_frame - self.pending;
        self.pending += due.min(remaining);
        let mut stamped = false;
        while self.pending > 0 && self.queue.push((self.next_frame, level)) {
            self.next_frame += 1;
            self.pending -= 1;
            stamped = true;
        }
        if stamped {
            self.max_shed_level = self.max_shed_level.max(level);
        }
        self.deferred += u64::from(self.pending);
    }

    /// Serves the oldest queued frame through `scratch`, applying the
    /// frame's stamped shed level first (a cheap policy swap on the rung
    /// transitions, a no-op otherwise). Returns `false` when nothing is
    /// left to serve: the queue is empty, or an earlier frame failed.
    ///
    /// A frame that returns an error is consumed and ends the session
    /// ([`Session::is_done`]); the error is returned once.
    ///
    /// The frame's critical section (fault injection, frame render,
    /// tracker step) runs behind the serve layer's one panic boundary:
    /// a panic quarantines *this session* — the frame is counted
    /// consumed (a deterministic fault would re-fire forever if
    /// retried), the tracker rewinds to its last keyframe checkpoint,
    /// and the fleet keeps serving.
    pub(crate) fn serve_one(
        &mut self,
        config: &ServeConfig,
        scratch: &mut PipelineScratch,
    ) -> Result<bool> {
        if self.failed {
            return Ok(false);
        }
        let Some((index, level)) = self.queue.pop() else {
            return Ok(false);
        };
        if level != self.applied_level {
            let (temporal, margin) =
                config.shed.apply(level, config.temporal, config.pipeline.roi_margin);
            self.tracker.set_temporal(temporal)?;
            if self.tracker.pipeline().config().roi_margin != margin {
                self.tracker.set_roi_margin(margin);
            }
            self.applied_level = level;
        }
        let action =
            config.fault.as_deref().map_or(FaultAction::None, |f| f.action(self.id, index));
        let start = Instant::now();
        scratch.swap_roi_crops(&mut self.roi_crops);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.frame_step(action, index, scratch)));
        scratch.swap_roi_crops(&mut self.roi_crops);
        let report = match outcome {
            Err(_payload) => {
                self.quarantine();
                return Ok(true);
            }
            Ok(Err(e)) => {
                self.served += 1;
                self.failed = true;
                return Err(e);
            }
            Ok(Ok(report)) => report,
        };
        let mut latency_ms = start.elapsed().as_secs_f64() * 1e3;
        if let FaultAction::Stall { stall_ms } = action {
            latency_ms += stall_ms;
        }
        self.latency.record(latency_ms);
        if config.deadline_ms > 0.0 {
            if latency_ms > config.deadline_ms {
                self.deadline_misses += 1;
                self.watchdog_boost = 1;
            } else {
                self.watchdog_boost = 0;
            }
        }
        self.summary.fold(&report);
        self.served += 1;
        if report.kind.ran_detection() {
            // A detection frame both completes any in-flight recovery
            // (the track set is fresh again) and becomes the next
            // recovery anchor.
            if let Some(since) = self.recovering_since.take() {
                self.recoveries += 1;
                self.max_recovery_frames = self.max_recovery_frames.max(self.served - since);
            }
            self.state.checkpoint_into(&mut self.checkpoint);
        }
        Ok(true)
    }

    /// The per-frame critical section: everything that runs behind the
    /// isolation boundary. An injected [`FaultAction::Panic`] unwinds
    /// from here, on the same path a panic inside the pool/detect stages
    /// would take. It uses `resume_unwind`, which skips the panic hook:
    /// an expected fault prints no panic report.
    fn frame_step(
        &mut self,
        action: FaultAction,
        index: u32,
        scratch: &mut PipelineScratch,
    ) -> Result<hirise::TemporalFrameReport> {
        if action == FaultAction::Panic {
            std::panic::resume_unwind(Box::new(format!(
                "injected fault: session {} frame {index}",
                self.id
            )));
        }
        let frame = self.source.frame(index);
        self.tracker.run_frame(frame.as_ref(), &mut self.state, scratch)
    }

    /// Quarantines a panicked frame: consume it, mark the session
    /// poisoned, and rewind the tracker to its last keyframe checkpoint
    /// (cold-start when no checkpoint exists yet). The session keeps
    /// serving — recovery completes at the next detection frame.
    fn quarantine(&mut self) {
        self.served += 1;
        self.poisoned = true;
        self.poisoned_frames += 1;
        self.quarantines += 1;
        if self.recovering_since.is_none() {
            self.recovering_since = Some(self.served);
        }
        if !self.state.restore_from(&self.checkpoint) {
            self.state.reset();
        }
    }

    /// Serializes every persistent field of this slab entry into an
    /// open snapshot envelope. The live tracker state is captured
    /// through a fresh [`TrackerCheckpoint`] (the same persistent-field
    /// projection quarantine recovery uses — per-frame association
    /// buffers are rebuilt on the next frame anyway), alongside the
    /// separate recovery-anchor checkpoint, which may lag it by up to
    /// one keyframe interval. The latency reservoir is telemetry, not
    /// state: it is left out, so the bytes are a pure function of the
    /// inputs.
    pub(crate) fn encode_into(&self, enc: &mut hirise::recover::Encoder) {
        crate::recover::encode_spec(&self.spec, enc);
        enc.u64(self.id.0);
        let mut live = TrackerCheckpoint::new();
        self.state.checkpoint_into(&mut live);
        live.encode_into(enc);
        self.checkpoint.encode_into(enc);
        crate::recover::encode_summary(&self.summary, enc);
        enc.seq(self.queue.len);
        for k in 0..self.queue.len {
            let (frame, level) =
                self.queue.entries[(self.queue.head + k) % self.queue.entries.len()];
            enc.u32(frame);
            enc.u8(level);
        }
        enc.u32(self.next_frame);
        enc.u32(self.pending);
        enc.u32(self.served);
        enc.u64(self.deferred);
        enc.u64(self.ticks);
        enc.u8(self.applied_level);
        enc.u8(self.max_shed_level);
        enc.bool(self.poisoned);
        enc.u64(self.poisoned_frames);
        enc.u64(self.quarantines);
        enc.bool(self.failed);
        enc.u64(self.recoveries);
        enc.bool(self.recovering_since.is_some());
        enc.u32(self.recovering_since.unwrap_or(0));
        enc.u32(self.max_recovery_frames);
        enc.u64(self.deadline_misses);
        enc.u8(self.watchdog_boost);
    }

    /// Rebuilds a slab entry written by [`Session::encode_into`]. The
    /// frame source is not serializable (it may hold a closure), so
    /// `source_for` regenerates it from the decoded spec — sources are
    /// pure in `(spec, seed)`, which is what makes the rebuilt session
    /// serve bit-identical frames. The rebuilt session starts an empty
    /// latency window.
    pub(crate) fn decode_from(
        dec: &mut hirise::recover::Decoder<'_>,
        config: &ServeConfig,
        source_for: &dyn Fn(&SessionSpec) -> Option<FrameSource>,
    ) -> std::result::Result<Self, crate::recover::RestoreError> {
        use crate::recover::RestoreError;
        let spec = crate::recover::decode_spec(dec)?;
        let id = SessionId(dec.u64()?);
        let live = TrackerCheckpoint::decode_from(dec)?;
        let anchor = TrackerCheckpoint::decode_from(dec)?;
        let summary = crate::recover::decode_summary(dec)?;
        let queued = dec.seq(5)?;
        if queued > config.queue_capacity {
            return Err(hirise::RecoverError::malformed(format!(
                "session {id}: {queued} queued frames exceed the queue capacity {}",
                config.queue_capacity
            ))
            .into());
        }
        let mut entries = Vec::with_capacity(queued);
        for _ in 0..queued {
            entries.push((dec.u32()?, dec.u8()?));
        }
        let source = source_for(&spec).ok_or_else(|| RestoreError::Source {
            name: spec.name.clone(),
            scenario: spec.scenario.clone(),
        })?;
        let mut session = Session::new(id, spec, source, config).map_err(RestoreError::Invalid)?;
        for entry in entries {
            let pushed = session.queue.push(entry);
            debug_assert!(pushed, "capacity checked above");
        }
        session.next_frame = dec.u32()?;
        session.pending = dec.u32()?;
        session.served = dec.u32()?;
        session.deferred = dec.u64()?;
        session.ticks = dec.u64()?;
        session.applied_level = dec.u8()?;
        session.max_shed_level = dec.u8()?;
        session.poisoned = dec.bool()?;
        session.poisoned_frames = dec.u64()?;
        session.quarantines = dec.u64()?;
        session.failed = dec.bool()?;
        session.recoveries = dec.u64()?;
        let recovering = dec.bool()?;
        let since = dec.u32()?;
        session.recovering_since = recovering.then_some(since);
        session.max_recovery_frames = dec.u32()?;
        session.deadline_misses = dec.u64()?;
        session.watchdog_boost = dec.u8()?;
        // Re-apply the shed rung the tracker was configured at — the
        // same lazy policy swap `serve_one` performs on a stamped-level
        // transition.
        if session.applied_level != 0 {
            let (temporal, margin) = config.shed.apply(
                session.applied_level,
                config.temporal,
                config.pipeline.roi_margin,
            );
            session.tracker.set_temporal(temporal).map_err(RestoreError::Invalid)?;
            if session.tracker.pipeline().config().roi_margin != margin {
                session.tracker.set_roi_margin(margin);
            }
        }
        if !session.state.restore_from(&live) {
            // A never-captured live checkpoint means the session had
            // served nothing; the fresh state is already correct.
            session.state.reset();
        }
        session.checkpoint = anchor;
        session.summary = summary;
        Ok(session)
    }

    /// Snapshot of the session's observable state.
    pub(crate) fn report(&self) -> SessionReport {
        SessionReport {
            id: self.id,
            name: self.spec.name.clone(),
            priority: self.spec.priority,
            completed: !self.failed && self.served >= self.spec.frames,
            failed: self.failed,
            deferred: self.deferred,
            max_shed_level: self.max_shed_level,
            poisoned: self.poisoned,
            poisoned_frames: self.poisoned_frames,
            quarantines: self.quarantines,
            recoveries: self.recoveries,
            max_recovery_frames: self.max_recovery_frames,
            deadline_misses: self.deadline_misses,
            p50_ms: self.latency.p50(),
            p99_ms: self.latency.p99(),
            latency_ms: self.latency.samples().to_vec(),
            summary: self.summary.clone(),
        }
    }
}

/// Per-session observability, as folded into
/// [`crate::engine::ServeSummary`].
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The engine-assigned id (admission order).
    pub id: SessionId,
    /// The spec's display name.
    pub name: String,
    /// The spec's shed priority.
    pub priority: Priority,
    /// Whether every requested frame was served.
    pub completed: bool,
    /// Whether a frame error ended the session before its last frame.
    pub failed: bool,
    /// Total (frame × tick) backpressure deferrals.
    pub deferred: u64,
    /// Highest shed level stamped on any of this session's frames.
    pub max_shed_level: u8,
    /// Whether any frame of this session panicked inside the isolation
    /// boundary. A poisoned session's summary is not comparable to a
    /// fault-free run; an unpoisoned session's is, bit for bit.
    pub poisoned: bool,
    /// Frames whose processing panicked (consumed, never retried).
    pub poisoned_frames: u64,
    /// Quarantine events (one per poisoned frame).
    pub quarantines: u64,
    /// Completed checkpoint recoveries. A session with
    /// `recoveries == quarantines` has fully recovered from every
    /// fault.
    pub recoveries: u64,
    /// The longest fault-to-recovery span paid, in served frames
    /// (`0` when never quarantined).
    pub max_recovery_frames: u32,
    /// Frames that exceeded the watchdog deadline.
    pub deadline_misses: u64,
    /// Median frame latency over the retained window, ms.
    pub p50_ms: f64,
    /// Tail frame latency over the retained window, ms.
    pub p99_ms: f64,
    /// The retained latency window (unordered) — merged by the engine
    /// for fleet-wide percentiles.
    pub latency_ms: Vec<f64>,
    /// Frame-kind counters, aggregates, and the frame-ordered energy
    /// fold. A pure function of `(spec, arrival schedule, shed level
    /// trajectory)` — the determinism tests compare it bit-for-bit
    /// across worker counts.
    pub summary: SequenceSummary,
}
