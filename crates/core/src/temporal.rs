//! Temporal video pipeline: ROI tracking with selective re-detection.
//!
//! The still-image pipeline ([`crate::HirisePipeline`]) pays the full
//! stage-1 cost on every frame: pooled capture (analog pooling + ADC of
//! the whole array) and sliding-window detection. On video that is
//! wasteful — objects move a few pixels per frame, so the ROI set of
//! frame `t` is an excellent predictor of frame `t+1`'s. This module
//! extends HiRISE's *selective ROI* idea along the time axis:
//!
//! * a [`TrackerState`] persists one [`Track`] per live ROI — position,
//!   size, and a constant-velocity estimate fitted between detections;
//! * full stage-1 (pool + detect) runs only on **keyframes** (a
//!   configurable cadence, [`TemporalConfig::keyframe_interval`]), when
//!   no track survived, or when the **drift trigger** fires;
//! * every other frame does capture + *predicted*-ROI readout only: each
//!   track's box is advanced by its velocity, re-inflated by the
//!   configured margin, clamped to the array, and read straight through
//!   [`hirise_sensor::Sensor::read_rois_into`] — the pool and detect
//!   stages are skipped entirely, which on the reference 640×480 / k = 2
//!   configuration removes the two dominant stage costs;
//! * the drift trigger is deliberately cheap: the mean intensity of each
//!   tracked crop (already read this frame — no extra sensor traffic) is
//!   compared against the mean recorded at the track's last detection;
//!   a shift beyond [`TemporalConfig::drift_threshold`] means the
//!   prediction is probably reading background, so the frame is
//!   re-detected on the spot ([`FrameKind::DriftRefresh`]).
//!
//! On keyframes, fresh detections are associated with predicted tracks
//! by greedy IoU ([`hirise_detect::associate`]); matched tracks update
//! their velocity from the displacement since their last detection,
//! unmatched detections spawn new tracks, and unmatched tracks die.
//!
//! # Determinism
//!
//! A frame's output is a pure function of `(configuration, tracker
//! state, scene)`, and the tracker state is itself a pure fold over the
//! preceding frames of the sequence: association is deterministic
//! greedy IoU, velocities are exact f64 arithmetic on box centres, and
//! the policy decisions (cadence, drift) branch on deterministic
//! quantities. The sensor's keyed frame noise is position-pure as
//! well, so an entire tracked *sequence* is bit-identical regardless of
//! worker placement or intra-frame shard count — the property the multi-session serve engine
//! (`hirise_serve::ServeEngine`) builds on.
//!
//! Like the still path, the steady state allocates nothing: tracks,
//! candidate boxes, association tables and ROI buffers all live in
//! [`TrackerState`] / [`PipelineScratch`] and are reused every frame
//! (`tests/alloc.rs` pins tracked frames at 0 heap allocations).
//!
//! # Example
//!
//! ```
//! use hirise::temporal::{TrackerState, TrackingPipeline};
//! use hirise::{HiriseConfig, PipelineScratch, TemporalConfig};
//! use hirise_imaging::RgbImage;
//!
//! # fn main() -> Result<(), hirise::HiriseError> {
//! let config = HiriseConfig::builder(64, 64).pooling(4).build()?;
//! let tracker = TrackingPipeline::new(config, TemporalConfig::default())?;
//! let mut state = TrackerState::new();
//! let mut scratch = PipelineScratch::new();
//! let frame = RgbImage::from_fn(64, 64, |x, y| {
//!     let v = ((x / 8 + y / 8) % 2) as f32 * 0.4 + 0.3;
//!     (v, v, 0.5)
//! });
//! let report = tracker.run_frame(&frame, &mut state, &mut scratch)?;
//! assert!(report.kind.ran_detection(), "frame 0 is always a keyframe");
//! # Ok(())
//! # }
//! ```

use std::time::Instant;

use hirise_detect::{greedy_iou_associate, AssociateScratch};
use hirise_imaging::{Rect, RgbImage};
use hirise_sensor::ReadoutStats;

use crate::config::{HiriseConfig, TemporalConfig};
use crate::pipeline::HirisePipeline;
use crate::report::{FrameKind, RunReport, TemporalFrameReport};
use crate::roi::detections_to_rois_into;
use crate::scratch::PipelineScratch;
use crate::timing::StageTimings;
use crate::Result;

/// One persisted ROI: where the object is believed to be and how it
/// moves. Geometry is kept in f64 centre coordinates so sub-pixel
/// velocities accumulate without quantisation drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Track {
    id: u32,
    /// Current (predicted or detected) box centre, full-resolution px.
    cx: f64,
    cy: f64,
    /// Box size from the last detection, full-resolution px.
    w: u32,
    h: u32,
    /// Velocity estimate, px/frame.
    vx: f64,
    vy: f64,
    /// Box centre at the last detection — the velocity anchor.
    det_cx: f64,
    det_cy: f64,
    /// Mean crop intensity recorded at the last detection readout — the
    /// drift-trigger reference.
    mean: f32,
}

impl Track {
    /// Stable track id (unique within one [`TrackerState`] lifetime).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current box centre, full-resolution pixels.
    pub fn center(&self) -> (f64, f64) {
        (self.cx, self.cy)
    }

    /// Box size from the last detection.
    pub fn size(&self) -> (u32, u32) {
        (self.w, self.h)
    }

    /// Velocity estimate, pixels per frame.
    pub fn velocity(&self) -> (f64, f64) {
        (self.vx, self.vy)
    }

    /// The track's current box clipped to a `width × height` array
    /// (degenerate once the prediction has left the array entirely).
    pub fn base_rect(&self, width: u32, height: u32) -> Rect {
        let x0 = (self.cx - self.w as f64 / 2.0).round();
        let y0 = (self.cy - self.h as f64 / 2.0).round();
        let cx0 = x0.clamp(0.0, width as f64);
        let cy0 = y0.clamp(0.0, height as f64);
        let cx1 = (x0 + self.w as f64).clamp(0.0, width as f64);
        let cy1 = (y0 + self.h as f64).clamp(0.0, height as f64);
        Rect::from_corners(cx0 as u32, cy0 as u32, cx1 as u32, cy1 as u32)
    }
}

/// Mean intensity of a crop across its three channels (the drift cue);
/// `None` for an empty crop, whose zero-sample mean would be `0/0 =
/// NaN`.
fn crop_mean(img: &RgbImage) -> Option<f32> {
    if img.width() == 0 || img.height() == 0 {
        return None;
    }
    let [r, g, b] = img.planes();
    Some((r.mean() + g.mean() + b.mean()) / 3.0)
}

/// Whether a tracked crop's intensity has drifted from its reference.
///
/// A crop without a readable mean counts as drifted — in every form the
/// hazard takes. An empty crop yields no mean at all; a NaN anywhere
/// (a NaN sample in the crop, or a reference poisoned by one earlier)
/// makes the shift NaN, and `NaN > threshold` is false, which the old
/// `(mean - reference).abs() > threshold` turned into a drift trigger
/// silently disabled for that track forever. The comparison is
/// therefore written `!(shift <= threshold)`: identical for finite
/// shifts, but NaN falls through to "drifted" and the track re-detects
/// instead of going stale.
fn crop_drifted(img: &RgbImage, reference: f32, threshold: f32) -> bool {
    crop_mean(img).is_none_or(|mean| !((mean - reference).abs() <= threshold))
}

/// Per-sequence tracker state: the live tracks plus every reusable
/// buffer the temporal path needs, so steady-state frames allocate
/// nothing. One `TrackerState` serves one ordered frame sequence;
/// [`TrackerState::reset`] recycles it (buffers keep their capacity) for
/// the next sequence.
#[derive(Debug, Clone, Default)]
pub struct TrackerState {
    tracks: Vec<Track>,
    /// Rebuild buffer for the keyframe track update (swapped with
    /// `tracks`, never reallocated in steady state).
    new_tracks: Vec<Track>,
    next_id: u32,
    frame_index: u64,
    /// Frames since the last full detection (the velocity divisor).
    frames_since_detect: u32,
    /// Predicted track boxes, aligned with `tracks` (association refs).
    track_rects: Vec<Rect>,
    /// Candidate boxes from the current keyframe's detections.
    candidates: Vec<Rect>,
    /// Index buffer for the candidate score sort.
    cand_order: Vec<u32>,
    /// `assoc[i] = Some(j)`: candidate `i` continues track `j`.
    assoc: Vec<Option<u32>>,
    assoc_scratch: AssociateScratch,
    keyframes: u64,
    drift_refreshes: u64,
    tracked_frames: u64,
}

impl TrackerState {
    /// Creates an empty tracker; buffers grow to their steady-state
    /// sizes during the first keyframe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all cross-frame state (tracks, ids, counters, frame index)
    /// while keeping buffer capacity — the start of a new sequence.
    pub fn reset(&mut self) {
        self.tracks.clear();
        self.new_tracks.clear();
        self.next_id = 0;
        self.frame_index = 0;
        self.frames_since_detect = 0;
        self.keyframes = 0;
        self.drift_refreshes = 0;
        self.tracked_frames = 0;
    }

    /// The live tracks after the most recent frame.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Frames processed since construction / [`TrackerState::reset`].
    pub fn frame_index(&self) -> u64 {
        self.frame_index
    }

    /// Frames that ran the full stage-1 path on schedule (or because no
    /// track survived).
    pub fn keyframes(&self) -> u64 {
        self.keyframes
    }

    /// Off-schedule re-detections forced by the drift trigger.
    pub fn drift_refreshes(&self) -> u64 {
        self.drift_refreshes
    }

    /// Frames served purely from the track predictions.
    pub fn tracked_frames(&self) -> u64 {
        self.tracked_frames
    }
}

/// A restartable snapshot of a [`TrackerState`]'s cross-frame fields —
/// the recovery anchor a service layer captures at each detection frame
/// so a session whose in-flight frame fails can resume from its last
/// good keyframe instead of cold-starting.
///
/// Only the *persistent* tracker state is captured (tracks, ids, frame
/// index, cadence phase, counters); the per-frame association buffers
/// are rebuilt from scratch on the next frame anyway. [`Track`] is
/// `Copy`, so a snapshot into a warm checkpoint is a `memcpy` — no heap
/// allocation in the steady state, which keeps checkpointing compatible
/// with the zero-allocation frame-path contract.
#[derive(Debug, Clone, Default)]
pub struct TrackerCheckpoint {
    tracks: Vec<Track>,
    next_id: u32,
    frame_index: u64,
    frames_since_detect: u32,
    keyframes: u64,
    drift_refreshes: u64,
    tracked_frames: u64,
    valid: bool,
}

impl TrackerCheckpoint {
    /// An empty (invalid) checkpoint; restoring from it is refused until
    /// a snapshot has been taken.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a snapshot has been captured since construction /
    /// [`TrackerCheckpoint::clear`].
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The frame index the snapshot was taken at (`0` when invalid).
    pub fn frame_index(&self) -> u64 {
        self.frame_index
    }

    /// Invalidates the checkpoint (buffer capacity is kept).
    pub fn clear(&mut self) {
        self.tracks.clear();
        self.valid = false;
        self.next_id = 0;
        self.frame_index = 0;
        self.frames_since_detect = 0;
        self.keyframes = 0;
        self.drift_refreshes = 0;
        self.tracked_frames = 0;
    }

    /// Serializes the checkpoint into an open [`crate::recover::Encoder`]
    /// envelope — the temporal half of an engine snapshot. Geometry is
    /// written as raw IEEE-754 bit patterns, so the decode is bit-exact
    /// and a restored tracker replays the sequence identically.
    pub fn encode_into(&self, enc: &mut crate::recover::Encoder) {
        enc.bool(self.valid);
        enc.u32(self.next_id);
        enc.u64(self.frame_index);
        enc.u32(self.frames_since_detect);
        enc.u64(self.keyframes);
        enc.u64(self.drift_refreshes);
        enc.u64(self.tracked_frames);
        enc.seq(self.tracks.len());
        for track in &self.tracks {
            enc.u32(track.id);
            enc.f64(track.cx);
            enc.f64(track.cy);
            enc.u32(track.w);
            enc.u32(track.h);
            enc.f64(track.vx);
            enc.f64(track.vy);
            enc.f64(track.det_cx);
            enc.f64(track.det_cy);
            enc.f32(track.mean);
        }
    }

    /// Bytes one encoded [`Track`] occupies (the sequence element floor
    /// for [`crate::recover::Decoder::seq`]).
    const TRACK_BYTES: usize = 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8 + 8 + 4;

    /// Reads a checkpoint written by [`TrackerCheckpoint::encode_into`].
    ///
    /// # Errors
    ///
    /// [`crate::RecoverError`] when the stream is truncated or
    /// structurally malformed at this field group.
    pub fn decode_from(
        dec: &mut crate::recover::Decoder<'_>,
    ) -> std::result::Result<Self, crate::RecoverError> {
        let valid = dec.bool()?;
        let next_id = dec.u32()?;
        let frame_index = dec.u64()?;
        let frames_since_detect = dec.u32()?;
        let keyframes = dec.u64()?;
        let drift_refreshes = dec.u64()?;
        let tracked_frames = dec.u64()?;
        let count = dec.seq(Self::TRACK_BYTES)?;
        let mut tracks = Vec::with_capacity(count);
        for _ in 0..count {
            tracks.push(Track {
                id: dec.u32()?,
                cx: dec.f64()?,
                cy: dec.f64()?,
                w: dec.u32()?,
                h: dec.u32()?,
                vx: dec.f64()?,
                vy: dec.f64()?,
                det_cx: dec.f64()?,
                det_cy: dec.f64()?,
                mean: dec.f32()?,
            });
        }
        Ok(Self {
            tracks,
            next_id,
            frame_index,
            frames_since_detect,
            keyframes,
            drift_refreshes,
            tracked_frames,
            valid,
        })
    }
}

impl TrackerState {
    /// Snapshots the persistent tracker state into `checkpoint`
    /// (allocation-free once the checkpoint's track buffer is warm).
    pub fn checkpoint_into(&self, checkpoint: &mut TrackerCheckpoint) {
        checkpoint.tracks.clear();
        checkpoint.tracks.extend_from_slice(&self.tracks);
        checkpoint.next_id = self.next_id;
        checkpoint.frame_index = self.frame_index;
        checkpoint.frames_since_detect = self.frames_since_detect;
        checkpoint.keyframes = self.keyframes;
        checkpoint.drift_refreshes = self.drift_refreshes;
        checkpoint.tracked_frames = self.tracked_frames;
        checkpoint.valid = true;
    }

    /// Rewinds the tracker to `checkpoint`. Returns `false` (leaving the
    /// state untouched) when the checkpoint has never been captured —
    /// the caller should [`TrackerState::reset`] and cold-start instead.
    pub fn restore_from(&mut self, checkpoint: &TrackerCheckpoint) -> bool {
        if !checkpoint.valid {
            return false;
        }
        self.tracks.clear();
        self.tracks.extend_from_slice(&checkpoint.tracks);
        self.new_tracks.clear();
        self.next_id = checkpoint.next_id;
        self.frame_index = checkpoint.frame_index;
        self.frames_since_detect = checkpoint.frames_since_detect;
        self.keyframes = checkpoint.keyframes;
        self.drift_refreshes = checkpoint.drift_refreshes;
        self.tracked_frames = checkpoint.tracked_frames;
        true
    }
}

/// The temporal HiRISE pipeline: a [`HirisePipeline`] plus the
/// keyframe/drift policy of a [`TemporalConfig`]. See the module docs.
#[derive(Debug, Clone)]
pub struct TrackingPipeline {
    pipeline: HirisePipeline,
    temporal: TemporalConfig,
}

impl TrackingPipeline {
    /// Creates a tracking pipeline from a system configuration and a
    /// temporal policy.
    ///
    /// # Errors
    ///
    /// [`crate::HiriseError::InvalidConfig`] when the temporal policy is
    /// degenerate (see [`TemporalConfig::validate`]).
    pub fn new(config: HiriseConfig, temporal: TemporalConfig) -> Result<Self> {
        Self::from_pipeline(HirisePipeline::new(config), temporal)
    }

    /// Wraps an existing still-image pipeline.
    ///
    /// # Errors
    ///
    /// As for [`TrackingPipeline::new`].
    pub fn from_pipeline(pipeline: HirisePipeline, temporal: TemporalConfig) -> Result<Self> {
        temporal.validate()?;
        Ok(Self { pipeline, temporal })
    }

    /// The wrapped still-image pipeline.
    pub fn pipeline(&self) -> &HirisePipeline {
        &self.pipeline
    }

    /// The temporal policy.
    pub fn temporal(&self) -> &TemporalConfig {
        &self.temporal
    }

    /// Replaces the temporal policy in place — the hook a service layer
    /// uses to widen the keyframe cadence of a live session under
    /// overload (graceful degradation) without rebuilding the pipeline
    /// or touching the session's tracker state.
    ///
    /// # Errors
    ///
    /// [`crate::HiriseError::InvalidConfig`] as for
    /// [`TrackingPipeline::new`]; the current policy is kept on error.
    pub fn set_temporal(&mut self, temporal: TemporalConfig) -> Result<()> {
        temporal.validate()?;
        self.temporal = temporal;
        Ok(())
    }

    /// Rebuilds the wrapped pipeline with a new ROI context margin —
    /// the companion shed hook: a smaller margin shrinks every stage-2
    /// readout. Track state is untouched (tracks carry the tight box;
    /// the margin is applied at readout time only, so the change takes
    /// effect on the very next frame and reverses just as cleanly).
    pub fn set_roi_margin(&mut self, margin: u32) {
        let mut config = self.pipeline.config().clone();
        config.roi_margin = margin;
        self.pipeline = HirisePipeline::new(config);
    }

    /// Processes the next frame of the sequence `state` belongs to.
    ///
    /// The frame results stay readable on the scratch until the next
    /// call ([`PipelineScratch::rois`] holds the frame's ROI set,
    /// [`PipelineScratch::roi_images`] the crops); tracked frames leave
    /// the scratch's pooled image untouched (it still holds the last
    /// keyframe's).
    ///
    /// # Errors
    ///
    /// [`crate::HiriseError::SceneMismatch`] for wrongly sized scenes,
    /// plus sensor failures.
    pub fn run_frame(
        &self,
        scene: &RgbImage,
        state: &mut TrackerState,
        scratch: &mut PipelineScratch,
    ) -> Result<TemporalFrameReport> {
        self.pipeline.check_scene(scene)?;
        let cfg = self.pipeline.config();
        let (aw, ah) = (cfg.array_width, cfg.array_height);
        let mut timings = StageTimings::default();

        let mark = Instant::now();
        self.pipeline.capture_into(scene, &mut scratch.sensor);
        timings.capture = mark.elapsed();

        // Predict: advance every track one frame along its velocity and
        // drop those whose box has left the array entirely.
        state.frames_since_detect = state.frames_since_detect.saturating_add(1);
        for t in &mut state.tracks {
            t.cx += t.vx;
            t.cy += t.vy;
        }
        state.tracks.retain(|t| !t.base_rect(aw, ah).is_degenerate());
        state.track_rects.clear();
        state.track_rects.extend(state.tracks.iter().map(|t| t.base_rect(aw, ah)));

        let scheduled = state.frame_index.is_multiple_of(self.temporal.keyframe_interval as u64)
            || state.tracks.is_empty();
        let (kind, stage1, stage2) = if scheduled {
            state.keyframes += 1;
            let (s1, s2) = self.refresh(state, scratch, &mut timings)?;
            (FrameKind::Keyframe, s1, s2)
        } else {
            // Tracked attempt: read the predicted ROIs directly.
            let PipelineScratch { sensor, rois, roi_images, pool, union, .. } = &mut *scratch;
            let sensor = sensor.as_mut().expect("captured above");
            rois.clear();
            rois.extend(
                state.track_rects.iter().map(|r| r.inflated(cfg.roi_margin).clamped(aw, ah)),
            );
            let mark = Instant::now();
            let stage2 = sensor.read_rois_into(rois, roi_images, pool, union)?;
            timings.roi_read += mark.elapsed();
            let drifted = state
                .tracks
                .iter()
                .zip(roi_images.iter())
                .any(|(t, img)| crop_drifted(img, t.mean, self.temporal.drift_threshold));
            if drifted {
                // The prediction is reading something else — re-detect
                // now rather than serving a stale ROI. The speculative
                // readout above already happened on the sensor, so its
                // cost stays in the frame's accounting.
                state.drift_refreshes += 1;
                let (s1, s2) = self.refresh(state, scratch, &mut timings)?;
                (FrameKind::DriftRefresh, s1, stage2.merged(s2))
            } else {
                state.tracked_frames += 1;
                (FrameKind::Tracked, ReadoutStats::default(), stage2)
            }
        };
        state.frame_index += 1;

        let stage1_image_bytes = if kind.ran_detection() {
            scratch.pooled.storage_bytes(cfg.sensor.adc_bits)
        } else {
            0
        };
        let stage2_image_bytes: u64 =
            scratch.roi_images.iter().map(|img| img.storage_bytes(cfg.sensor.adc_bits)).sum();
        Ok(TemporalFrameReport {
            report: RunReport {
                stage1,
                stage2,
                pooling_outputs: stage1.conversions,
                stage1_image_bytes,
                stage2_image_bytes,
                roi_count: scratch.rois.len(),
                timings,
            },
            kind,
            active_tracks: state.tracks.len() as u32,
        })
    }

    /// The full stage-1 path on the already-captured sensor: pooled
    /// capture, detection, candidate→track association, track-set
    /// rebuild, ROI readout, drift-reference refresh. Returns the
    /// stage-1 and stage-2 readout stats of this refresh.
    fn refresh(
        &self,
        state: &mut TrackerState,
        scratch: &mut PipelineScratch,
        timings: &mut StageTimings,
    ) -> Result<(ReadoutStats, ReadoutStats)> {
        let cfg = self.pipeline.config();
        let (aw, ah) = (cfg.array_width, cfg.array_height);
        let PipelineScratch {
            sensor, analog, pooled, detector, rois, roi_images, pool, union, ..
        } = &mut *scratch;
        let sensor = sensor.as_mut().expect("captured earlier this frame");

        let mark = Instant::now();
        let stage1 = sensor.capture_pooled_into(cfg.pooling_k, cfg.stage1_color, analog, pooled)?;
        timings.pool += mark.elapsed();

        let mark = Instant::now();
        let detections = self.pipeline.detector().detect_with_scratch(pooled, detector);
        // Candidate boxes: top-scored detections mapped to full
        // resolution *without* the margin — tracks carry the tight box;
        // the margin is re-applied at every readout so repeated
        // inflation cannot compound.
        detections_to_rois_into(
            detections,
            cfg.pooling_k,
            0,
            aw,
            ah,
            cfg.max_rois,
            &mut state.cand_order,
            &mut state.candidates,
        );
        greedy_iou_associate(
            &state.candidates,
            &state.track_rects,
            self.temporal.min_track_iou,
            &mut state.assoc_scratch,
            &mut state.assoc,
        );
        // Rebuild the track set in candidate (score) order: matched
        // candidates continue their track with a refitted velocity,
        // unmatched candidates spawn, unmatched tracks die.
        state.new_tracks.clear();
        let span = state.frames_since_detect.max(1) as f64;
        for (i, &cand) in state.candidates.iter().enumerate() {
            let cx = cand.x as f64 + cand.w as f64 / 2.0;
            let cy = cand.y as f64 + cand.h as f64 / 2.0;
            let track = match state.assoc[i] {
                Some(j) => {
                    let old = &state.tracks[j as usize];
                    Track {
                        id: old.id,
                        cx,
                        cy,
                        w: cand.w,
                        h: cand.h,
                        vx: (cx - old.det_cx) / span,
                        vy: (cy - old.det_cy) / span,
                        det_cx: cx,
                        det_cy: cy,
                        mean: old.mean,
                    }
                }
                None => {
                    let id = state.next_id;
                    state.next_id += 1;
                    Track {
                        id,
                        cx,
                        cy,
                        w: cand.w,
                        h: cand.h,
                        vx: 0.0,
                        vy: 0.0,
                        det_cx: cx,
                        det_cy: cy,
                        mean: 0.0,
                    }
                }
            };
            state.new_tracks.push(track);
        }
        std::mem::swap(&mut state.tracks, &mut state.new_tracks);
        state.frames_since_detect = 0;
        rois.clear();
        rois.extend(
            state
                .tracks
                .iter()
                .map(|t| t.base_rect(aw, ah).inflated(cfg.roi_margin).clamped(aw, ah)),
        );
        timings.detect += mark.elapsed();

        let mark = Instant::now();
        let stage2 = sensor.read_rois_into(rois, roi_images, pool, union)?;
        // Refresh the drift references from the crops just read. An
        // empty crop gets an infinite reference, so any future readable
        // crop compares as drifted and forces a re-detection — never a
        // NaN, which would disable the trigger instead.
        for (t, img) in state.tracks.iter_mut().zip(roi_images.iter()) {
            t.mean = crop_mean(img).unwrap_or(f32::INFINITY);
        }
        timings.roi_read += mark.elapsed();
        Ok((stage1, stage2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiriseConfig;
    use hirise_imaging::draw;
    use hirise_sensor::SensorConfig;

    const W: u32 = 192;
    const H: u32 = 144;

    /// A frame with one bright textured object at `(x, y)`.
    fn frame_with_object(x: u32, y: u32) -> RgbImage {
        let mut img = RgbImage::from_fn(W, H, |_, _| (0.35, 0.35, 0.35));
        let obj = Rect::new(x, y, 32, 72);
        draw::fill_rect_rgb(&mut img, obj, (0.9, 0.4, 0.2));
        let [pr, _, _] = img.planes_mut();
        draw::fill_stripes(pr, obj, 2, 0.95, 0.55);
        img
    }

    fn config() -> HiriseConfig {
        let detector = hirise_detect::DetectorConfig { score_threshold: 0.2, ..Default::default() };
        HiriseConfig::builder(W, H)
            .pooling(2)
            .sensor(SensorConfig::noiseless())
            .detector(detector)
            .max_rois(4)
            .build()
            .unwrap()
    }

    fn tracker(interval: u32) -> TrackingPipeline {
        TrackingPipeline::new(config(), TemporalConfig::default().keyframe_interval(interval))
            .unwrap()
    }

    #[test]
    fn rejects_invalid_temporal_policy() {
        let bad = TemporalConfig::default().keyframe_interval(0);
        assert!(TrackingPipeline::new(config(), bad).is_err());
    }

    #[test]
    fn rejects_mismatched_scene() {
        let t = tracker(4);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        let wrong = RgbImage::new(16, 16);
        assert!(t.run_frame(&wrong, &mut state, &mut scratch).is_err());
    }

    #[test]
    fn keyframe_cadence_on_a_static_scene() {
        let t = tracker(4);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        let frame = frame_with_object(60, 30);
        let mut kinds = Vec::new();
        for _ in 0..9 {
            kinds.push(t.run_frame(&frame, &mut state, &mut scratch).unwrap().kind);
        }
        // Static scene, perfect prediction: keyframes exactly on the
        // cadence, everything else tracked, no drift.
        use FrameKind::*;
        assert_eq!(
            kinds,
            vec![
                Keyframe, Tracked, Tracked, Tracked, Keyframe, Tracked, Tracked, Tracked, Keyframe
            ]
        );
        assert_eq!(state.keyframes(), 3);
        assert_eq!(state.tracked_frames(), 6);
        assert_eq!(state.drift_refreshes(), 0);
    }

    #[test]
    fn tracked_frames_skip_pool_and_detect() {
        let t = tracker(4);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        let frame = frame_with_object(60, 30);
        let key = t.run_frame(&frame, &mut state, &mut scratch).unwrap();
        let tracked = t.run_frame(&frame, &mut state, &mut scratch).unwrap();
        assert_eq!(tracked.kind, FrameKind::Tracked);
        // No stage-1 work at all on a tracked frame.
        assert_eq!(tracked.report.stage1, ReadoutStats::default());
        assert_eq!(tracked.report.pooling_outputs, 0);
        assert_eq!(tracked.report.stage1_image_bytes, 0);
        assert_eq!(tracked.report.timings.pool, std::time::Duration::ZERO);
        assert_eq!(tracked.report.timings.detect, std::time::Duration::ZERO);
        // But the same ROIs were read as the keyframe produced.
        assert_eq!(tracked.report.roi_count, key.report.roi_count);
        assert_eq!(tracked.report.stage2, key.report.stage2);
        // A tracked frame saves exactly the stage-1 traffic of a keyframe.
        assert_eq!(
            tracked.report.total_transfer_bits(),
            key.report.total_transfer_bits() - key.report.stage1.total_transfer_bits(),
            "tracked frame should cost a keyframe minus its stage-1 transfer"
        );
    }

    #[test]
    fn prediction_follows_constant_velocity_motion() {
        let t = tracker(4);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        // 3 px/frame rightward motion across two keyframe cycles.
        let mut id_at_first_key = None;
        for i in 0..9u32 {
            let report =
                t.run_frame(&frame_with_object(40 + 3 * i, 30), &mut state, &mut scratch).unwrap();
            assert!(report.active_tracks >= 1, "frame {i}: track lost");
            if i == 0 {
                id_at_first_key = Some(state.tracks()[0].id());
            }
        }
        // The association kept the identity across keyframes…
        assert_eq!(state.tracks()[0].id(), id_at_first_key.unwrap());
        // …the velocity estimate is sane (detector boxes snap to the
        // scan stride, so only bound it rather than pin it)…
        let (vx, vy) = state.tracks()[0].velocity();
        assert!(vx.abs() < 7.0 && vy.abs() < 7.0, "wild velocity estimate ({vx}, {vy})");
        // …the track still covers the object after 8 frames of motion…
        let object = Rect::new(40 + 3 * 8, 30, 32, 72);
        let iou = state.tracks()[0].base_rect(W, H).iou(&object);
        assert!(iou > 0.3, "track drifted off the object (IoU {iou})");
        // …and no drift refreshes were needed: prediction held.
        assert_eq!(state.drift_refreshes(), 0);
    }

    #[test]
    fn teleporting_object_fires_the_drift_trigger() {
        let t = tracker(8);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        t.run_frame(&frame_with_object(30, 30), &mut state, &mut scratch).unwrap();
        let r = t.run_frame(&frame_with_object(30, 30), &mut state, &mut scratch).unwrap();
        assert_eq!(r.kind, FrameKind::Tracked);
        // Mid-interval the object jumps far away: the predicted ROI now
        // reads flat background, whose mean is far from the reference.
        let r = t.run_frame(&frame_with_object(140, 40), &mut state, &mut scratch).unwrap();
        assert_eq!(r.kind, FrameKind::DriftRefresh, "drift trigger did not fire");
        assert_eq!(state.drift_refreshes(), 1);
        // The refreshed track follows the object at its new position.
        let (cx, _) = state.tracks()[0].center();
        assert!((cx - 156.0).abs() < 12.0, "track centre {cx} not at the new position");
        // A drift-refresh frame pays both readouts in its accounting.
        assert!(r.report.stage2.box_words_bits >= 2 * 64);
    }

    #[test]
    fn empty_scenes_re_detect_every_frame() {
        let t = tracker(4);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        let flat = RgbImage::from_fn(W, H, |_, _| (0.35, 0.35, 0.35));
        for _ in 0..3 {
            let r = t.run_frame(&flat, &mut state, &mut scratch).unwrap();
            // Nothing to track, so every frame falls back to detection.
            assert_eq!(r.kind, FrameKind::Keyframe);
            assert_eq!(r.active_tracks, 0);
            assert_eq!(r.report.roi_count, 0);
        }
    }

    #[test]
    fn reset_state_reproduces_the_sequence_bit_identically() {
        let t = tracker(3);
        let frames: Vec<RgbImage> = (0..7).map(|i| frame_with_object(40 + 4 * i, 32)).collect();
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        let first: Vec<TemporalFrameReport> =
            frames.iter().map(|f| t.run_frame(f, &mut state, &mut scratch).unwrap()).collect();
        state.reset();
        let second: Vec<TemporalFrameReport> =
            frames.iter().map(|f| t.run_frame(f, &mut state, &mut scratch).unwrap()).collect();
        assert_eq!(first, second);
        // A completely fresh state/scratch pair agrees too.
        let mut fresh_state = TrackerState::new();
        let mut fresh_scratch = PipelineScratch::new();
        let third: Vec<TemporalFrameReport> = frames
            .iter()
            .map(|f| t.run_frame(f, &mut fresh_state, &mut fresh_scratch).unwrap())
            .collect();
        assert_eq!(first, third);
    }

    #[test]
    fn interval_one_degenerates_to_per_frame_detection() {
        let t = tracker(1);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        for i in 0..4u32 {
            let r =
                t.run_frame(&frame_with_object(40 + 2 * i, 30), &mut state, &mut scratch).unwrap();
            assert_eq!(r.kind, FrameKind::Keyframe);
        }
        assert_eq!(state.tracked_frames(), 0);
    }

    #[test]
    fn unreadable_crops_count_as_drifted_not_nan() {
        // Readable crops keep the original semantics.
        let flat = RgbImage::from_fn(4, 4, |_, _| (0.5, 0.5, 0.5));
        assert_eq!(crop_mean(&flat), Some(0.5));
        assert!(!crop_drifted(&flat, 0.5, 0.06));
        assert!(crop_drifted(&flat, 0.8, 0.06));
        // A NaN sample poisons `Plane::mean` — the degenerate-crop
        // hazard in its constructible form. The old comparison
        // `(NaN - reference).abs() > threshold` is always false, which
        // silently disabled the drift trigger for that track forever;
        // the NaN-rejecting form fires instead, at any threshold —
        // including the infinite one that legitimately disables the
        // trigger for *finite* shifts.
        let mut poisoned = flat.clone();
        poisoned.set_pixel(1, 1, (f32::NAN, 0.5, 0.5));
        assert!(crop_mean(&poisoned).unwrap().is_nan());
        assert!(crop_drifted(&poisoned, 0.5, 0.06));
        assert!(crop_drifted(&poisoned, 0.5, f32::INFINITY));
        assert!(!crop_drifted(&flat, 0.5, f32::INFINITY));
        // A poisoned *reference* (recorded at an earlier refresh) must
        // not disable the trigger either.
        assert!(crop_drifted(&flat, f32::NAN, 0.06));
        assert!(crop_drifted(&flat, f32::INFINITY, 0.06));
    }

    #[test]
    fn set_temporal_rewrites_the_cadence_of_a_live_pipeline() {
        let mut t = tracker(8);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        let frame = frame_with_object(60, 30);
        for _ in 0..3 {
            t.run_frame(&frame, &mut state, &mut scratch).unwrap();
        }
        assert_eq!(state.keyframes(), 1, "interval 8 schedules one keyframe in 3 frames");
        // Degenerate policies are rejected and leave the current one.
        assert!(t.set_temporal(TemporalConfig::default().keyframe_interval(0)).is_err());
        assert_eq!(t.temporal().keyframe_interval, 8);
        // Tighten to per-frame detection mid-sequence: takes effect on
        // the very next frame, tracker state intact.
        t.set_temporal(TemporalConfig::default().keyframe_interval(1)).unwrap();
        let r = t.run_frame(&frame, &mut state, &mut scratch).unwrap();
        assert_eq!(r.kind, FrameKind::Keyframe);
        assert_eq!(state.frame_index(), 4, "state survived the policy swap");
    }

    #[test]
    fn set_roi_margin_changes_the_readout_footprint() {
        let mut t = tracker(4);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        let frame = frame_with_object(60, 30);
        t.run_frame(&frame, &mut state, &mut scratch).unwrap();
        let tight = t.run_frame(&frame, &mut state, &mut scratch).unwrap();
        assert_eq!(tight.kind, FrameKind::Tracked);
        let tight_bits = tight.report.stage2.total_transfer_bits();
        t.set_roi_margin(8);
        assert_eq!(t.pipeline().config().roi_margin, 8);
        let wide = t.run_frame(&frame, &mut state, &mut scratch).unwrap();
        assert_eq!(wide.kind, FrameKind::Tracked);
        assert!(
            wide.report.stage2.total_transfer_bits() > tight_bits,
            "a wider margin must read more ROI pixels"
        );
    }

    #[test]
    fn checkpoint_restore_replays_the_tail_bit_identically() {
        let t = tracker(3);
        let frames: Vec<RgbImage> = (0..8).map(|i| frame_with_object(40 + 4 * i, 32)).collect();
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        let mut checkpoint = TrackerCheckpoint::new();
        // Restoring before any snapshot is refused and changes nothing.
        assert!(!state.restore_from(&checkpoint));
        assert!(!checkpoint.is_valid());
        // Run 4 frames, snapshotting after the keyframe at index 3.
        let mut reference = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            reference.push(t.run_frame(f, &mut state, &mut scratch).unwrap());
            if i == 3 {
                state.checkpoint_into(&mut checkpoint);
            }
        }
        assert!(checkpoint.is_valid());
        assert_eq!(checkpoint.frame_index(), 4);
        // Rewind to the snapshot and replay frames 4..: every report and
        // the final tracker state must be bit-identical to the first run.
        assert!(state.restore_from(&checkpoint));
        assert_eq!(state.frame_index(), 4);
        for (i, f) in frames.iter().enumerate().skip(4) {
            let replay = t.run_frame(f, &mut state, &mut scratch).unwrap();
            assert_eq!(replay, reference[i], "frame {i} diverged after restore");
        }
        assert_eq!(
            state.tracks(),
            {
                let mut fresh = TrackerState::new();
                for f in &frames {
                    t.run_frame(f, &mut fresh, &mut scratch).unwrap();
                }
                fresh
            }
            .tracks()
        );
    }

    #[test]
    fn cleared_checkpoint_refuses_to_restore() {
        let t = tracker(4);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        t.run_frame(&frame_with_object(60, 30), &mut state, &mut scratch).unwrap();
        let mut checkpoint = TrackerCheckpoint::new();
        state.checkpoint_into(&mut checkpoint);
        assert!(checkpoint.is_valid());
        checkpoint.clear();
        assert!(!checkpoint.is_valid());
        let before = state.frame_index();
        assert!(!state.restore_from(&checkpoint));
        assert_eq!(state.frame_index(), before, "failed restore must not touch the state");
    }

    #[test]
    fn checkpoint_into_a_warm_buffer_reuses_capacity() {
        let t = tracker(4);
        let mut state = TrackerState::new();
        let mut scratch = PipelineScratch::new();
        let mut checkpoint = TrackerCheckpoint::new();
        t.run_frame(&frame_with_object(60, 30), &mut state, &mut scratch).unwrap();
        state.checkpoint_into(&mut checkpoint);
        let capacity = checkpoint.tracks.capacity();
        assert!(capacity >= state.tracks().len());
        // Re-snapshotting the same shape must not grow the buffer.
        t.run_frame(&frame_with_object(62, 30), &mut state, &mut scratch).unwrap();
        state.checkpoint_into(&mut checkpoint);
        assert_eq!(checkpoint.tracks.capacity(), capacity);
    }

    #[test]
    fn checkpoint_codec_round_trips_bit_exactly() {
        const MAGIC: [u8; 4] = *b"TEST";
        // Hand-built checkpoint with awkward geometry: negative
        // velocities, sub-pixel centres, a NaN drift reference (the
        // poisoned-track hazard case), and a non-zero cadence phase.
        let checkpoint = TrackerCheckpoint {
            tracks: vec![
                Track {
                    id: 7,
                    cx: 12.34375,
                    cy: -0.5,
                    w: 24,
                    h: 18,
                    vx: -1.25,
                    vy: 0.0625,
                    det_cx: 10.0,
                    det_cy: 0.75,
                    mean: f32::NAN,
                },
                Track {
                    id: 8,
                    cx: 99.0,
                    cy: 41.0,
                    w: 0,
                    h: 0,
                    vx: 0.0,
                    vy: 0.0,
                    det_cx: 99.0,
                    det_cy: 41.0,
                    mean: 0.25,
                },
            ],
            next_id: 9,
            frame_index: 1234,
            frames_since_detect: 3,
            keyframes: 300,
            drift_refreshes: 17,
            tracked_frames: 917,
            valid: true,
        };
        let mut enc = crate::recover::Encoder::new(MAGIC, 1);
        checkpoint.encode_into(&mut enc);
        let bytes = enc.finish();
        let mut dec = crate::recover::Decoder::new(&bytes, MAGIC, 1).unwrap();
        let decoded = TrackerCheckpoint::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        // NaN breaks PartialEq, so compare through a re-encode: equal
        // bytes ⇔ bit-identical fields.
        let mut re = crate::recover::Encoder::new(MAGIC, 1);
        decoded.encode_into(&mut re);
        assert_eq!(re.finish(), bytes);
        assert_eq!(decoded.next_id, 9);
        assert_eq!(decoded.tracks.len(), 2);
        assert!(decoded.tracks[0].mean.is_nan());
        // An invalid (never-captured) checkpoint round-trips too.
        let mut enc = crate::recover::Encoder::new(MAGIC, 1);
        TrackerCheckpoint::new().encode_into(&mut enc);
        let bytes = enc.finish();
        let mut dec = crate::recover::Decoder::new(&bytes, MAGIC, 1).unwrap();
        assert!(!TrackerCheckpoint::decode_from(&mut dec).unwrap().is_valid());
    }

    #[test]
    fn track_rect_clips_to_the_array() {
        let track = Track {
            id: 0,
            cx: 5.0,
            cy: 5.0,
            w: 20,
            h: 20,
            vx: 0.0,
            vy: 0.0,
            det_cx: 5.0,
            det_cy: 5.0,
            mean: 0.0,
        };
        let r = track.base_rect(100, 100);
        assert_eq!(r, Rect::new(0, 0, 15, 15));
        let gone = Track { cx: -50.0, cy: -50.0, ..track };
        assert!(gone.base_rect(100, 100).is_degenerate());
    }
}
