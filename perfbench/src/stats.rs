//! Order statistics for step latencies: the median and the tail rule.

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; fewer and the "tail" is one or two unlucky steps.
pub const MIN_BEYOND: usize = 10;

/// Fewest timed steps a run may end with. At 40 steps the tail rule
/// reaches p75, so a slow workload's tail can never collapse onto its
/// median.
pub const MIN_STEPS: usize = 40;

/// 1-based nearest-rank index of percentile `p` (in percent) over `n`
/// samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The highest whole percentile above the median whose nearest-rank
/// value has at least [`MIN_BEYOND`] samples beyond it, or `None` when
/// the sample cannot support any tail above p50.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (51..=99).rev().find(|&p| n.saturating_sub(nearest_rank(n, p)) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of `values` (the mean of the middle pair for even counts).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median, tail percentile and tail value of a set of step times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Steps measured.
    pub count: usize,
    /// Median step time.
    pub p50: f64,
    /// The percentile [`tail_percentile`] chose.
    pub tail_pct: u32,
    /// The step time at that percentile.
    pub tail: f64,
}

impl StepStats {
    /// Summarises `steps`, or `None` when there are too few for a tail.
    pub fn of(steps: &[f64]) -> Option<Self> {
        let tail_pct = tail_percentile(steps.len())?;
        let mut sorted = steps.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            count: sorted.len(),
            p50: median(&sorted),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        })
    }

    /// Samples strictly beyond the tail's nearest rank.
    pub fn beyond(&self) -> usize {
        self.count - nearest_rank(self.count, self.tail_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(100), Some(90));
        for n in [22, 40, 100, 250, 1000, 12345] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - nearest_rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - nearest_rank(n, p + 1) < MIN_BEYOND,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn a_short_run_has_no_tail_instead_of_a_tail_equal_to_its_median() {
        // A 5 MP run of ~20 frames in 10 s supports no percentile above
        // p50; calling p50 the tail would print the median twice, so the
        // rule refuses.
        let frames: Vec<f64> = (0..20).map(|i| 440.0 + i as f64).collect();
        assert_eq!(tail_percentile(frames.len()), None);
        assert!(StepStats::of(&frames).is_none());
        // The floor every workload runs to supports a real tail.
        let frames: Vec<f64> = (0..MIN_STEPS).map(|i| 440.0 + i as f64).collect();
        let stats = StepStats::of(&frames).expect("MIN_STEPS supports a tail");
        assert!(stats.tail_pct >= 75, "p{}", stats.tail_pct);
        assert!(stats.tail > stats.p50, "tail {} collapsed onto p50 {}", stats.tail, stats.p50);
        assert!(stats.beyond() >= MIN_BEYOND);
    }

    #[test]
    fn median_and_percentile_on_known_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50), 50.0);
        assert_eq!(percentile(&sorted, 90), 90.0);
    }
}
