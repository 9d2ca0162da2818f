//! Per-stage wall-clock accounting for the frame path.
//!
//! [`StageTimings`] records how long each stage of one
//! [`HirisePipeline::run_with_scratch`](crate::HirisePipeline::run_with_scratch)
//! call took, measured with the monotonic [`std::time::Instant`] clock and
//! carried on the [`RunReport`](crate::RunReport) without any heap
//! allocation (the struct is four inline [`Duration`]s). Timings are
//! *measurement metadata*, not frame results: two runs of the same frame
//! produce bit-identical images, detections and counters but different
//! timings, so [`RunReport`](crate::RunReport)'s `PartialEq` deliberately
//! ignores them.

use std::fmt;
use std::ops::{Add, AddAssign};
use std::time::Duration;

/// Wall-clock time spent in each stage of one frame (or, summed, of a
/// whole sequence — see
/// [`SequenceSummary::stage_totals`](crate::SequenceSummary::stage_totals)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Scene → analog pixel array (sensor capture / in-place recapture,
    /// including fixed-pattern application).
    pub capture: Duration,
    /// Analog pooling plus stage-1 ADC conversion of the pooled outputs.
    pub pool: Duration,
    /// Stage-1 detection on the pooled image plus mapping detections to
    /// full-resolution ROI rectangles.
    pub detect: Duration,
    /// Stage-2 selective ROI readout (union conversion + per-box crops).
    pub roi_read: Duration,
}

impl StageTimings {
    /// Sum of all stage durations.
    pub fn total(&self) -> Duration {
        self.capture + self.pool + self.detect + self.roi_read
    }

    /// Fraction of the total spent in `stage` (0 when the total is zero).
    pub fn share(&self, stage: Duration) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            stage.as_secs_f64() / total
        }
    }
}

impl Add for StageTimings {
    type Output = StageTimings;

    fn add(self, other: StageTimings) -> StageTimings {
        StageTimings {
            capture: self.capture + other.capture,
            pool: self.pool + other.pool,
            detect: self.detect + other.detect,
            roi_read: self.roi_read + other.roi_read,
        }
    }
}

impl AddAssign for StageTimings {
    fn add_assign(&mut self, other: StageTimings) {
        *self = *self + other;
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "capture {:.2} ms | pool {:.2} ms | detect {:.2} ms | roi-read {:.2} ms \
             (total {:.2} ms)",
            self.capture.as_secs_f64() * 1e3,
            self.pool.as_secs_f64() * 1e3,
            self.detect.as_secs_f64() * 1e3,
            self.roi_read.as_secs_f64() * 1e3,
            self.total().as_secs_f64() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(ms: [u64; 4]) -> StageTimings {
        StageTimings {
            capture: Duration::from_millis(ms[0]),
            pool: Duration::from_millis(ms[1]),
            detect: Duration::from_millis(ms[2]),
            roi_read: Duration::from_millis(ms[3]),
        }
    }

    #[test]
    fn total_sums_stages() {
        let t = timings([1, 2, 3, 4]);
        assert_eq!(t.total(), Duration::from_millis(10));
    }

    #[test]
    fn add_accumulates_fieldwise() {
        let mut acc = timings([1, 2, 3, 4]);
        acc += timings([10, 20, 30, 40]);
        assert_eq!(acc, timings([11, 22, 33, 44]));
        assert_eq!(timings([0, 0, 0, 0]) + acc, acc);
    }

    #[test]
    fn share_handles_zero_total() {
        let zero = StageTimings::default();
        assert_eq!(zero.share(zero.capture), 0.0);
        let t = timings([1, 1, 1, 1]);
        assert!((t.share(t.capture) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_reports_milliseconds() {
        let text = timings([1, 2, 3, 4]).to_string();
        assert!(text.contains("capture 1.00 ms"));
        assert!(text.contains("total 10.00 ms"));
    }
}
