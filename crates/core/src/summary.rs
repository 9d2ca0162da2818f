//! Counters-only folds over ordered video sequences.
//!
//! A [`SequenceSummary`] accumulates the per-frame
//! [`TemporalFrameReport`]s of one tracked sequence — frame-kind
//! counters, the order-independent [`StreamAggregate`] totals, and the
//! frame-ordered energy fold with its per-kind split. It holds no
//! per-frame data, so a long-lived session folds millions of frames in
//! constant memory. The serve engine keeps one per session, and the
//! scenario benchmark folds its measured sequences through the same
//! accounting.

use crate::report::{FrameKind, RunReport, TemporalFrameReport};
use crate::timing::StageTimings;

/// Order-independent totals over a set of [`RunReport`]s.
///
/// Every field is an integer counter, so equal frame sets produce equal
/// aggregates regardless of fold order; the floating-point energy
/// figures live on [`SequenceSummary`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamAggregate {
    /// Total ADC conversions across both stages of every frame.
    pub conversions: u64,
    /// Total analog pooling outputs produced.
    pub pooling_outputs: u64,
    /// Total sensor→processor (and coordinate back-channel) traffic, bits.
    pub transfer_bits: u64,
    /// Total ROIs read out.
    pub rois: u64,
    /// Largest per-frame peak image memory observed, bytes.
    pub peak_image_bytes: u64,
}

impl StreamAggregate {
    fn fold(&mut self, report: &RunReport) {
        self.conversions += report.conversions();
        self.pooling_outputs += report.pooling_outputs;
        self.transfer_bits += report.total_transfer_bits();
        self.rois += report.roi_count as u64;
        self.peak_image_bytes = self.peak_image_bytes.max(report.peak_image_bytes());
    }
}

/// Totals over one ordered video sequence processed by the temporal
/// pipeline ([`crate::TrackingPipeline::run_frame`]).
///
/// Equality ignores [`SequenceSummary::stage_totals`] (wall-clock
/// measurements are never bit-stable); everything else — counters and
/// the frame-ordered energy fold — is a pure function of the
/// configuration and the frames, so two equal runs compare equal at any
/// worker or shard count.
#[derive(Debug, Clone, Default)]
pub struct SequenceSummary {
    /// Frames processed.
    pub frames: u64,
    /// Frames that ran the full stage-1 path on the keyframe cadence (or
    /// because no track survived).
    pub keyframes: u64,
    /// Off-schedule re-detections forced by the drift trigger.
    pub drift_refreshes: u64,
    /// Frames served purely from track predictions (capture + ROI read).
    pub tracked_frames: u64,
    /// Order-independent counter totals.
    pub aggregate: StreamAggregate,
    /// Sensor-side energy folded in frame order, millijoules.
    pub energy_mj: f64,
    /// The share of [`SequenceSummary::energy_mj`] spent on scheduled
    /// keyframes (full stage-1 capture + pooled readout + detection).
    pub energy_mj_keyframes: f64,
    /// The share spent on drift-triggered re-detections.
    pub energy_mj_drift: f64,
    /// The share spent on pure tracked frames (capture + ROI read
    /// only) — the per-kind split the scenario energy gate compares.
    pub energy_mj_tracked: f64,
    /// Summed per-stage wall-clock time across the sequence's frames.
    pub stage_totals: StageTimings,
}

impl PartialEq for SequenceSummary {
    fn eq(&self, other: &Self) -> bool {
        self.frames == other.frames
            && self.keyframes == other.keyframes
            && self.drift_refreshes == other.drift_refreshes
            && self.tracked_frames == other.tracked_frames
            && self.aggregate == other.aggregate
            && self.energy_mj == other.energy_mj
            && self.energy_mj_keyframes == other.energy_mj_keyframes
            && self.energy_mj_drift == other.energy_mj_drift
            && self.energy_mj_tracked == other.energy_mj_tracked
    }
}

impl SequenceSummary {
    /// Folds one frame of the sequence, in frame order.
    pub fn fold(&mut self, frame: &TemporalFrameReport) {
        self.frames += 1;
        let energy = frame.report.sensor_energy_mj_default();
        match frame.kind {
            FrameKind::Keyframe => {
                self.keyframes += 1;
                self.energy_mj_keyframes += energy;
            }
            FrameKind::DriftRefresh => {
                self.drift_refreshes += 1;
                self.energy_mj_drift += energy;
            }
            FrameKind::Tracked => {
                self.tracked_frames += 1;
                self.energy_mj_tracked += energy;
            }
        }
        self.aggregate.fold(&frame.report);
        self.energy_mj += energy;
        self.stage_totals += frame.report.timings;
    }

    /// Fraction of frames that ran the full stage-1 detection path.
    pub fn detection_fraction(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            (self.keyframes + self.drift_refreshes) as f64 / self.frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HiriseConfig, TemporalConfig};
    use crate::scratch::PipelineScratch;
    use crate::temporal::{TrackerState, TrackingPipeline};
    use hirise_imaging::{draw, Rect, RgbImage};
    use hirise_sensor::SensorConfig;

    /// A short synthetic sequence: one object drifting rightward at a
    /// sequence-specific speed.
    fn sequence(s: u32, frames: u32) -> Vec<RgbImage> {
        (0..frames)
            .map(|i| {
                let mut img = RgbImage::from_fn(64, 48, |_, _| (0.35, 0.35, 0.35));
                let x = 8 + (s * 7 + i * (1 + s % 2)) % 32;
                draw::fill_rect_rgb(&mut img, Rect::new(x, 12, 12, 20), (0.9, 0.4, 0.2));
                img
            })
            .collect()
    }

    fn tracker(temporal: TemporalConfig) -> TrackingPipeline {
        let detector = hirise_detect::DetectorConfig { score_threshold: 0.2, ..Default::default() };
        let config = HiriseConfig::builder(64, 48)
            .pooling(2)
            .sensor(SensorConfig::noiseless())
            .detector(detector)
            .max_rois(4)
            .build()
            .unwrap();
        TrackingPipeline::new(config, temporal).unwrap()
    }

    #[test]
    fn sequence_mode_counts_frame_kinds() {
        // An empty summary guards its ratio against the zero frame count.
        assert_eq!(SequenceSummary::default().detection_fraction(), 0.0);
        let tracker = tracker(TemporalConfig::default().keyframe_interval(3));
        let mut scratch = PipelineScratch::new();
        for s in 0..2 {
            let mut state = TrackerState::new();
            let mut summary = SequenceSummary::default();
            let mut reports = Vec::new();
            for frame in &sequence(s, 7) {
                let report = tracker.run_frame(frame, &mut state, &mut scratch).unwrap();
                summary.fold(&report);
                reports.push(report.report);
            }
            assert_eq!(summary.frames, 7);
            assert_eq!(
                summary.frames,
                summary.keyframes + summary.drift_refreshes + summary.tracked_frames
            );
            assert!(summary.keyframes >= 3, "7 frames at interval 3 schedule ≥ 3 keyframes");
            assert!((0.0..=1.0).contains(&summary.detection_fraction()));
            // The aggregate and energy fold are exactly the frame-ordered
            // folds of the per-frame reports.
            let rois: usize = reports.iter().map(|r| r.roi_count).sum();
            assert_eq!(summary.aggregate.rois, rois as u64);
            let energy = reports.iter().fold(0.0, |acc, r| acc + r.sensor_energy_mj_default());
            assert_eq!(summary.energy_mj, energy);
            let timings = reports.iter().fold(StageTimings::default(), |acc, r| acc + r.timings);
            assert_eq!(summary.stage_totals, timings);
            // The per-kind split partitions the total: same addends, but
            // grouped by kind rather than interleaved in frame order, so
            // the comparison is up to float reassociation only.
            let split =
                summary.energy_mj_keyframes + summary.energy_mj_drift + summary.energy_mj_tracked;
            assert!(
                (split - summary.energy_mj).abs() <= 1e-12 * summary.energy_mj.abs(),
                "per-kind energy split {split} diverged from total {}",
                summary.energy_mj
            );
            assert!(summary.energy_mj_keyframes > 0.0, "keyframes spent no sensor energy");
            if summary.drift_refreshes == 0 {
                assert_eq!(summary.energy_mj_drift, 0.0);
            }
            assert!(summary.tracked_frames > 0, "sequence {s} never tracked");
            // A tracked frame skips the stage-1 pooled readout, so its
            // mean energy must undercut the keyframe mean.
            let tracked_mean = summary.energy_mj_tracked / summary.tracked_frames as f64;
            let keyframe_mean = summary.energy_mj_keyframes / summary.keyframes as f64;
            assert!(tracked_mean < keyframe_mean, "tracked frames are not cheaper than keyframes");
        }
    }
}
