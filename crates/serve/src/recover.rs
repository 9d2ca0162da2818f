//! Crash-consistent serving: engine snapshots, the write-ahead arrival
//! journal, and deterministic warm restart.
//!
//! # The crash-recovery contract
//!
//! The serve layer's determinism contract — every frame a pure function
//! of `(spec, seed, arrival/tick schedule)` — makes process-level
//! recovery *exact* rather than best-effort. Two artifacts suffice:
//!
//! * an [`EngineSnapshot`]: the full [`ServeEngine`] slab serialized
//!   through the checksummed [`hirise::recover`] envelope — per-session
//!   tracker state (as [`hirise::temporal::TrackerCheckpoint`]s, the
//!   live state plus the quarantine recovery anchor), counters-only
//!   [`hirise::SequenceSummary`], queued frame stamps, shed / priority /
//!   watchdog state, free-list order, and the engine counters. Latency
//!   reservoirs and percentiles are telemetry, not state: they are left
//!   out, so two identical runs snapshot to identical bytes;
//! * an [`ArrivalJournal`]: an append-only record of **admission events
//!   and tick boundaries only**. Frames are never journaled — arrivals
//!   are pure in the traffic seed, so replay regenerates them through
//!   the same source factory that built them the first time.
//!
//! A crash at any tick then recovers by [`ServeEngine::restore`]-ing
//! the last snapshot and [`ServeEngine::replay_from`]-ing the journal
//! tail; the tests pin the result **bit-identical** to an uninterrupted
//! run, at any worker count.
//!
//! # Snapshot discipline
//!
//! Exact replay leans on the driver discipline every driver
//! ([`run_plans_journaled`] here, which [`crate::traffic::run_plans`]
//! wraps, and [`ServeEngine::drain`]) already follows: admissions happen
//! before the tick, and each tick is followed by one serve-to-dry pass.
//! Snapshots are taken at a tick boundary — after the serve pass,
//! before the next tick's admissions — so every journal record up to
//! and including the snapshot tick's boundary is *inside* the snapshot,
//! and everything after it is the replay tail. [`replay_from`]
//! resynchronizes by counting tick records, so the journal may be
//! arbitrarily older than the snapshot (e.g. journal from tick 0,
//! snapshot from tick 40).
//!
//! [`replay_from`]: ServeEngine::replay_from

use hirise::recover::{fnv1a64, Decoder, Encoder};
use hirise::summary::StreamAggregate;
use hirise::{HiriseError, RecoverError, SequenceSummary, StageTimings};

use crate::engine::{AdmitError, ServeConfig, ServeEngine, SessionId};
use crate::session::{FrameSource, Session, SessionReport, SessionSpec};
use crate::shed::Priority;
use crate::traffic::SessionPlan;

/// Snapshot envelope magic ("HiRise SNapshot").
const SNAPSHOT_MAGIC: [u8; 4] = *b"HRSN";
/// Journal envelope magic ("HiRise JourNaL").
const JOURNAL_MAGIC: [u8; 4] = *b"HRJL";
/// Shared format version of both artifacts.
const FORMAT_VERSION: u16 = 2;

/// Rebuilds a session's frame source from its spec — the serializable
/// stand-in for the sources themselves, which may hold closures. Must
/// return the *same pure function of the frame index* the original
/// admission used (e.g. [`crate::traffic::source_for`], or a fault
/// layer's wrapped equivalent), or replay exactness is forfeit.
pub type SourceFactory<'a> = &'a dyn Fn(&SessionSpec) -> Option<FrameSource>;

/// Why a snapshot could not be restored. No variant leaves a partially
/// restored engine behind: the envelope checksum is verified before any
/// field is read, and the engine is built whole or not at all.
#[derive(Debug)]
pub enum RestoreError {
    /// The snapshot bytes were rejected (truncated, corrupted, wrong
    /// version — see [`RecoverError`]).
    Codec(RecoverError),
    /// The snapshot was taken under a different engine configuration
    /// (fingerprints over every deterministic config field differ).
    ConfigMismatch {
        /// Fingerprint stored in the snapshot.
        snapshot: u64,
        /// Fingerprint of the config offered for restore.
        config: u64,
    },
    /// The source factory could not rebuild a session's frame source.
    Source {
        /// The session's display name.
        name: String,
        /// The scenario it asked for.
        scenario: String,
    },
    /// The offered configuration (or a rebuilt session) failed
    /// validation.
    Invalid(HiriseError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Codec(e) => write!(f, "snapshot rejected: {e}"),
            RestoreError::ConfigMismatch { snapshot, config } => write!(
                f,
                "config fingerprint mismatch: snapshot {snapshot:#018x}, offered {config:#018x}"
            ),
            RestoreError::Source { name, scenario } => {
                write!(f, "cannot rebuild the frame source of {name:?} (scenario {scenario:?})")
            }
            RestoreError::Invalid(e) => write!(f, "restored state is invalid: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Codec(e) => Some(e),
            RestoreError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RecoverError> for RestoreError {
    fn from(e: RecoverError) -> Self {
        RestoreError::Codec(e)
    }
}

/// Why a journal replay (or a journaled drive) failed.
#[derive(Debug)]
pub enum ReplayError {
    /// The journal has fewer tick records than the engine has already
    /// lived through — it cannot be the journal of this run.
    MissingTicks {
        /// Ticks the restored engine has served.
        engine_ticks: u64,
        /// Tick records the journal holds.
        journal_ticks: u64,
    },
    /// The source factory could not rebuild an admission's source.
    Source {
        /// The session's display name.
        name: String,
        /// The scenario it asked for.
        scenario: String,
    },
    /// A journaled admission was refused as invalid — impossible for a
    /// journal written by a successful run under the same config.
    Admit {
        /// The refusal reason.
        reason: String,
    },
    /// A frame failed during a serve pass.
    Serve(HiriseError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::MissingTicks { engine_ticks, journal_ticks } => write!(
                f,
                "journal too short: engine is at tick {engine_ticks}, journal holds {journal_ticks}"
            ),
            ReplayError::Source { name, scenario } => {
                write!(f, "cannot rebuild the frame source of {name:?} (scenario {scenario:?})")
            }
            ReplayError::Admit { reason } => write!(f, "journaled admission refused: {reason}"),
            ReplayError::Serve(e) => write!(f, "serve failure: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

/// Fingerprint of every *deterministic* field of a [`ServeConfig`] —
/// everything that shapes outputs except the fault injector, which is
/// attachment-time state a restored engine may legitimately swap (the
/// chaos tests attach the same plan; a production restart would attach
/// none). Restore refuses a snapshot whose fingerprint differs, since
/// replaying under a different policy would silently diverge. The hash
/// goes through `Debug` formatting, so it is stable within one build —
/// exactly the scope a crash-restart needs — not across releases.
pub fn config_fingerprint(config: &ServeConfig) -> u64 {
    let text = format!(
        "{:?}|{:?}|{}|{}|{}|{}|{:?}|{}",
        config.pipeline,
        config.temporal,
        config.rated_sessions,
        config.max_sessions,
        config.queue_capacity,
        config.latency_window,
        config.shed,
        config.deadline_ms,
    );
    fnv1a64(text.as_bytes())
}

fn encode_priority(priority: Priority, enc: &mut Encoder) {
    enc.u8(match priority {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    });
}

fn decode_priority(dec: &mut Decoder<'_>) -> Result<Priority, RecoverError> {
    match dec.u8()? {
        0 => Ok(Priority::High),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::Low),
        other => Err(RecoverError::malformed(format!("priority discriminant {other}"))),
    }
}

pub(crate) fn encode_spec(spec: &SessionSpec, enc: &mut Encoder) {
    enc.str(&spec.name);
    enc.str(&spec.scenario);
    enc.u64(spec.seed);
    enc.u32(spec.frames);
    encode_priority(spec.priority, enc);
    enc.u32(spec.frames_per_tick);
    enc.u32(spec.burst_every);
    enc.u32(spec.burst_extra);
}

pub(crate) fn decode_spec(dec: &mut Decoder<'_>) -> Result<SessionSpec, RecoverError> {
    Ok(SessionSpec {
        name: dec.str()?,
        scenario: dec.str()?,
        seed: dec.u64()?,
        frames: dec.u32()?,
        priority: decode_priority(dec)?,
        frames_per_tick: dec.u32()?,
        burst_every: dec.u32()?,
        burst_extra: dec.u32()?,
    })
}

/// Encodes the counters of a [`SequenceSummary`]: frame-kind counters,
/// aggregate totals, and the per-kind energy fold. Wall-clock
/// stage timings are deliberately dropped (they are not part of any
/// determinism contract).
pub(crate) fn encode_summary(summary: &SequenceSummary, enc: &mut Encoder) {
    enc.u64(summary.frames);
    enc.u64(summary.keyframes);
    enc.u64(summary.drift_refreshes);
    enc.u64(summary.tracked_frames);
    enc.u64(summary.aggregate.conversions);
    enc.u64(summary.aggregate.pooling_outputs);
    enc.u64(summary.aggregate.transfer_bits);
    enc.u64(summary.aggregate.rois);
    enc.u64(summary.aggregate.peak_image_bytes);
    enc.f64(summary.energy_mj);
    enc.f64(summary.energy_mj_keyframes);
    enc.f64(summary.energy_mj_drift);
    enc.f64(summary.energy_mj_tracked);
}

pub(crate) fn decode_summary(dec: &mut Decoder<'_>) -> Result<SequenceSummary, RecoverError> {
    // Struct-literal fields evaluate in the order written, which is the
    // encode order.
    Ok(SequenceSummary {
        frames: dec.u64()?,
        keyframes: dec.u64()?,
        drift_refreshes: dec.u64()?,
        tracked_frames: dec.u64()?,
        aggregate: StreamAggregate {
            conversions: dec.u64()?,
            pooling_outputs: dec.u64()?,
            transfer_bits: dec.u64()?,
            rois: dec.u64()?,
            peak_image_bytes: dec.u64()?,
        },
        energy_mj: dec.f64()?,
        energy_mj_keyframes: dec.f64()?,
        energy_mj_drift: dec.f64()?,
        energy_mj_tracked: dec.f64()?,
        stage_totals: StageTimings::default(),
    })
}

/// Encodes a completed session's report without its latency fields
/// (telemetry, not state); [`decode_report`] restores them empty.
fn encode_report(report: &SessionReport, enc: &mut Encoder) {
    enc.u64(report.id.0);
    enc.str(&report.name);
    encode_priority(report.priority, enc);
    enc.bool(report.completed);
    enc.u64(report.deferred);
    enc.u8(report.max_shed_level);
    enc.bool(report.poisoned);
    enc.u64(report.poisoned_frames);
    enc.u64(report.quarantines);
    enc.u64(report.recoveries);
    enc.u32(report.max_recovery_frames);
    enc.u64(report.deadline_misses);
    encode_summary(&report.summary, enc);
}

fn decode_report(dec: &mut Decoder<'_>) -> Result<SessionReport, RecoverError> {
    let id = SessionId(dec.u64()?);
    let name = dec.str()?;
    let priority = decode_priority(dec)?;
    let completed = dec.bool()?;
    let deferred = dec.u64()?;
    let max_shed_level = dec.u8()?;
    let poisoned = dec.bool()?;
    let poisoned_frames = dec.u64()?;
    let quarantines = dec.u64()?;
    let recoveries = dec.u64()?;
    let max_recovery_frames = dec.u32()?;
    let deadline_misses = dec.u64()?;
    let summary = decode_summary(dec)?;
    Ok(SessionReport {
        id,
        name,
        priority,
        completed,
        deferred,
        max_shed_level,
        poisoned,
        poisoned_frames,
        quarantines,
        recoveries,
        max_recovery_frames,
        deadline_misses,
        p50_ms: 0.0,
        p99_ms: 0.0,
        latency_ms: Vec::new(),
        summary,
    })
}

/// A serialized, checksummed image of a whole [`ServeEngine`] at a tick
/// boundary. Construction (either path) validates the envelope, so a
/// held `EngineSnapshot` is always structurally opener-checked; the
/// full field decode happens at [`ServeEngine::restore`].
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    bytes: Vec<u8>,
    fingerprint: u64,
    ticks: u64,
    live_sessions: u64,
}

impl EngineSnapshot {
    /// Validates and adopts snapshot bytes (e.g. read back from disk).
    ///
    /// # Errors
    ///
    /// [`RecoverError`] when the envelope is truncated, mis-tagged, the
    /// wrong version, or fails its checksum — corruption is rejected
    /// here, whole, before any restore is attempted.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, RecoverError> {
        let mut dec = Decoder::new(&bytes, SNAPSHOT_MAGIC, FORMAT_VERSION)?;
        let fingerprint = dec.u64()?;
        let ticks = dec.u64()?;
        let _admitted = dec.u64()?;
        let _rejected = dec.u64()?;
        let live_sessions = dec.u64()?;
        Ok(Self { bytes, fingerprint, ticks, live_sessions })
    }

    /// The serialized envelope (write this to stable storage).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot into its envelope bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Envelope size in bytes (header and checksum included).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the envelope is empty (never: the header alone is 6
    /// bytes).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The [`config_fingerprint`] the snapshot was taken under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The engine tick the snapshot was taken at.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Live sessions in the snapshotted slab.
    pub fn live_sessions(&self) -> u64 {
        self.live_sessions
    }
}

/// One write-ahead record: everything nondeterministic about a serve
/// run is *when sessions arrive relative to ticks* — so that is all the
/// journal stores.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// An admission attempt (written before [`ServeEngine::admit`] is
    /// called — write-ahead, so a crash between journal append and
    /// admission replays the admission rather than losing it).
    Admit(SessionSpec),
    /// A tick boundary; replay follows each with one serve-to-dry pass.
    Tick,
}

/// The append-only arrival journal. See [`JournalRecord`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArrivalJournal {
    records: Vec<JournalRecord>,
}

impl ArrivalJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an admission attempt (call *before* admitting).
    pub fn record_admit(&mut self, spec: &SessionSpec) {
        self.records.push(JournalRecord::Admit(spec.clone()));
    }

    /// Appends a tick boundary (call when the driver ticks the engine).
    pub fn record_tick(&mut self) {
        self.records.push(JournalRecord::Tick);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Tick-boundary records in the journal.
    pub fn ticks(&self) -> u64 {
        self.records.iter().filter(|r| matches!(r, JournalRecord::Tick)).count() as u64
    }

    /// Admission records in the journal — also the index of the next
    /// un-attempted plan when a driver resumes a plan list after
    /// restore (every attempt was journaled, refused or not).
    pub fn admissions(&self) -> usize {
        self.records.iter().filter(|r| matches!(r, JournalRecord::Admit(_))).count()
    }

    /// Serializes the journal into its checksummed envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new(JOURNAL_MAGIC, FORMAT_VERSION);
        enc.seq(self.records.len());
        for record in &self.records {
            match record {
                JournalRecord::Tick => enc.u8(0),
                JournalRecord::Admit(spec) => {
                    enc.u8(1);
                    encode_spec(spec, &mut enc);
                }
            }
        }
        enc.finish()
    }

    /// Reads a journal written by [`ArrivalJournal::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`RecoverError`] for a truncated, corrupted, or mis-versioned
    /// envelope.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RecoverError> {
        let mut dec = Decoder::new(bytes, JOURNAL_MAGIC, FORMAT_VERSION)?;
        let count = dec.seq(1)?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(match dec.u8()? {
                0 => JournalRecord::Tick,
                1 => JournalRecord::Admit(decode_spec(&mut dec)?),
                other => {
                    return Err(RecoverError::malformed(format!("journal record tag {other}")))
                }
            });
        }
        dec.finish()?;
        Ok(Self { records })
    }
}

impl ServeEngine {
    /// Serializes the whole engine — counters, free-list order,
    /// completed reports, and every live session — into a checksummed
    /// [`EngineSnapshot`]. Meant to be taken at a tick boundary (after
    /// the tick's serve-to-dry pass, before the next tick's
    /// admissions); see the module docs for why replay leans on that
    /// discipline.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut enc = Encoder::new(SNAPSHOT_MAGIC, FORMAT_VERSION);
        enc.u64(config_fingerprint(&self.config));
        enc.u64(self.ticks);
        enc.u64(self.admitted);
        enc.u64(self.rejected);
        enc.u64(self.active as u64);
        enc.u8(self.base_level);
        enc.u8(self.max_base_level);
        enc.seq(self.free.len());
        for &slot in &self.free {
            enc.u32(slot as u32);
        }
        enc.seq(self.completed.len());
        for report in &self.completed {
            encode_report(report, &mut enc);
        }
        enc.seq(self.slots.len());
        for slot in &self.slots {
            match slot {
                None => enc.bool(false),
                Some(session) => {
                    enc.bool(true);
                    session.encode_into(&mut enc);
                }
            }
        }
        let bytes = enc.finish();
        EngineSnapshot {
            bytes,
            fingerprint: config_fingerprint(&self.config),
            ticks: self.ticks,
            live_sessions: self.active as u64,
        }
    }

    /// Rebuilds an engine from a snapshot: the inverse of
    /// [`ServeEngine::snapshot`], given the same configuration
    /// (fingerprint-checked; the fault injector slot is exempt) and a
    /// source factory that regenerates each session's frames from its
    /// spec. All-or-nothing: any decode failure returns the error and
    /// no engine.
    ///
    /// # Errors
    ///
    /// [`RestoreError`] — codec rejection, config fingerprint mismatch,
    /// an unbuildable frame source, or invalid configuration.
    pub fn restore(
        snapshot: &EngineSnapshot,
        config: ServeConfig,
        source_for: SourceFactory<'_>,
    ) -> Result<Self, RestoreError> {
        let offered = config_fingerprint(&config);
        let mut dec = Decoder::new(&snapshot.bytes, SNAPSHOT_MAGIC, FORMAT_VERSION)?;
        let recorded = dec.u64()?;
        if recorded != offered {
            return Err(RestoreError::ConfigMismatch { snapshot: recorded, config: offered });
        }
        let ticks = dec.u64()?;
        let admitted = dec.u64()?;
        let rejected = dec.u64()?;
        let active = dec.u64()? as usize;
        let base_level = dec.u8()?;
        let max_base_level = dec.u8()?;
        let free_len = dec.seq(4)?;
        let mut free = Vec::with_capacity(free_len);
        for _ in 0..free_len {
            let slot = dec.u32()? as usize;
            if slot >= config.max_sessions {
                return Err(RecoverError::malformed(format!(
                    "free slot {slot} outside a slab of {}",
                    config.max_sessions
                ))
                .into());
            }
            free.push(slot);
        }
        let completed_len = dec.seq(8)?;
        let mut completed = Vec::with_capacity(completed_len);
        for _ in 0..completed_len {
            completed.push(decode_report(&mut dec)?);
        }
        let slot_count = dec.seq(1)?;
        if slot_count != config.max_sessions {
            return Err(RecoverError::malformed(format!(
                "snapshot slab holds {slot_count} slots, config says {}",
                config.max_sessions
            ))
            .into());
        }
        let mut slots: Vec<Option<Session>> = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            if dec.bool()? {
                slots.push(Some(Session::decode_from(&mut dec, &config, source_for)?));
            } else {
                slots.push(None);
            }
        }
        dec.finish()?;
        let live = slots.iter().filter(|s| s.is_some()).count();
        if live != active || live + free.len() != config.max_sessions {
            return Err(RecoverError::malformed(format!(
                "slab accounting: {live} live sessions, {} free slots, active counter {active}",
                free.len()
            ))
            .into());
        }
        let mut engine = ServeEngine::new(config).map_err(RestoreError::Invalid)?;
        engine.slots = slots;
        engine.free = free;
        engine.ticks = ticks;
        engine.admitted = admitted;
        engine.rejected = rejected;
        engine.active = active;
        engine.base_level = base_level;
        engine.max_base_level = max_base_level;
        engine.completed = completed;
        Ok(engine)
    }

    /// Replays a journal tail against this (typically just-restored)
    /// engine: skips past the tick boundaries the engine has already
    /// lived through, then re-performs every remaining record — an
    /// admission per [`JournalRecord::Admit`] (cap refusals replay as
    /// refusals), a tick plus one serve-to-dry pass (at the engine's
    /// current worker count) per [`JournalRecord::Tick`] — exactly the
    /// canonical driver discipline. Returns the frames served during
    /// replay (the recovery's MTTR numerator).
    ///
    /// # Errors
    ///
    /// [`ReplayError`] — a journal shorter than the engine's own tick
    /// count, an unbuildable source, an invalid admission, or a serve
    /// failure.
    pub fn replay_from(
        &mut self,
        journal: &ArrivalJournal,
        source_for: SourceFactory<'_>,
    ) -> Result<u64, ReplayError> {
        let journal_ticks = journal.ticks();
        if journal_ticks < self.ticks {
            return Err(ReplayError::MissingTicks { engine_ticks: self.ticks, journal_ticks });
        }
        let mut skip = self.ticks;
        let mut served = 0u64;
        for record in journal.records() {
            if skip > 0 {
                if matches!(record, JournalRecord::Tick) {
                    skip -= 1;
                }
                continue;
            }
            match record {
                JournalRecord::Admit(spec) => {
                    let source = source_for(spec).ok_or_else(|| ReplayError::Source {
                        name: spec.name.clone(),
                        scenario: spec.scenario.clone(),
                    })?;
                    match self.admit(spec.clone(), source) {
                        Ok(_) | Err(AdmitError::Full { .. }) => {}
                        Err(AdmitError::Invalid { reason }) => {
                            return Err(ReplayError::Admit { reason });
                        }
                    }
                }
                JournalRecord::Tick => {
                    self.tick();
                    served +=
                        self.serve_parallel(self.workers.len()).map_err(ReplayError::Serve)?;
                }
            }
        }
        Ok(served)
    }
}

/// The outcome of one [`run_plans_journaled`] drive.
#[derive(Debug)]
pub struct JournaledOutcome {
    /// Frames served before returning.
    pub served: u64,
    /// The most recent periodic snapshot (`None` before the first
    /// boundary — recovery then cold-starts a fresh engine and replays
    /// the whole journal).
    pub snapshot: Option<EngineSnapshot>,
    /// `Some(tick)` when the crash oracle fired and the drive stopped
    /// mid-run; `None` on completion.
    pub crashed_at: Option<u64>,
}

/// The canonical driver: takes an engine through a plan list (sorted
/// by `at_tick`, as [`crate::traffic::generate`] returns it) with the
/// admissions-then-tick-then-serve-to-dry discipline, plus (1)
/// every admission attempt and tick boundary appended to `journal`
/// (write-ahead: the admit record lands before the engine sees the
/// session), (2) a snapshot taken every `snapshot_every` ticks (`0`
/// disables), at the contract's tick-boundary point, and (3) a crash
/// oracle consulted after each boundary — when it fires, the drive
/// stops as a simulated process death and reports
/// [`JournaledOutcome::crashed_at`]. Each serve pass runs on `workers`
/// workers ([`ServeEngine::serve_parallel`]).
///
/// To resume after a crash: restore the last snapshot (or a fresh
/// engine when `None`), [`ServeEngine::replay_from`] the journal, then
/// call this again with the un-attempted plan tail
/// (`&plans[journal.admissions()..]`) and the same journal.
///
/// # Errors
///
/// [`ReplayError`] — an unknown scenario, an invalid spec, or a serve
/// failure.
pub fn run_plans_journaled(
    engine: &mut ServeEngine,
    plans: &[SessionPlan],
    source_for: SourceFactory<'_>,
    journal: &mut ArrivalJournal,
    snapshot_every: u64,
    workers: usize,
    crash_at: &mut dyn FnMut(u64) -> bool,
) -> Result<JournaledOutcome, ReplayError> {
    let mut next = 0usize;
    let mut served = 0u64;
    let mut snapshot = None;
    loop {
        while next < plans.len() && plans[next].at_tick <= engine.ticks() {
            let plan = &plans[next];
            journal.record_admit(&plan.spec);
            let source = source_for(&plan.spec).ok_or_else(|| ReplayError::Source {
                name: plan.spec.name.clone(),
                scenario: plan.spec.scenario.clone(),
            })?;
            match engine.admit(plan.spec.clone(), source) {
                Ok(_) | Err(AdmitError::Full { .. }) => {}
                Err(AdmitError::Invalid { reason }) => return Err(ReplayError::Admit { reason }),
            }
            next += 1;
        }
        journal.record_tick();
        engine.tick();
        if next == plans.len() && engine.active_sessions() == 0 {
            return Ok(JournaledOutcome { served, snapshot, crashed_at: None });
        }
        served += engine.serve_parallel(workers).map_err(ReplayError::Serve)?;
        if snapshot_every > 0 && engine.ticks().is_multiple_of(snapshot_every) {
            snapshot = Some(engine.snapshot());
        }
        if crash_at(engine.ticks()) {
            return Ok(JournaledOutcome { served, snapshot, crashed_at: Some(engine.ticks()) });
        }
    }
}
