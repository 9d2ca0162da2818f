//! Per-session latency observability in fixed memory.
//!
//! A long-lived service cannot keep every frame latency, so each session
//! records into a [`LatencyReservoir`]: a fixed-size ring over the most
//! recent `window` samples. Percentiles use the **nearest-rank** method
//! (the classic `ceil(p/100 · n)`-th order statistic), which always
//! returns an observed sample — no interpolation, so a reported p99 is a
//! latency some frame actually paid.

/// Fixed-size ring of the most recent latency samples, milliseconds.
///
/// Recording is allocation-free after construction (the ring is
/// pre-allocated to its window); percentile queries sort a copy and are
/// meant for summary time, not the per-frame hot path.
#[derive(Debug, Clone)]
pub struct LatencyReservoir {
    samples: Vec<f64>,
    head: usize,
    window: usize,
    recorded: u64,
}

impl LatencyReservoir {
    /// An empty reservoir retaining at most `window` samples (`0`
    /// retains nothing).
    pub fn new(window: usize) -> Self {
        Self { samples: Vec::with_capacity(window), head: 0, window, recorded: 0 }
    }

    /// Records one latency sample, evicting the oldest once full.
    pub fn record(&mut self, latency_ms: f64) {
        self.recorded += 1;
        if self.window == 0 {
            return;
        }
        if self.samples.len() < self.window {
            self.samples.push(latency_ms);
        } else {
            self.samples[self.head] = latency_ms;
            self.head = (self.head + 1) % self.window;
        }
    }

    /// Retained samples, in no particular order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Total samples ever recorded (not capped by the window).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank percentile over the retained window (`0.0` when
    /// empty).
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p)
    }

    /// Median latency over the retained window.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Tail latency over the retained window.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set: the
/// `ceil(p/100 · n)`-th smallest sample (rank clamped to `1..=n`), or
/// `0.0` for an empty set.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_golden_values_on_1_to_100() {
        // With n = 100 the nearest-rank percentile is the textbook
        // identity: pX is the X-th smallest sample.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 50.0), 50.0);
        assert_eq!(nearest_rank(&samples, 90.0), 90.0);
        assert_eq!(nearest_rank(&samples, 99.0), 99.0);
        assert_eq!(nearest_rank(&samples, 100.0), 100.0);
        assert_eq!(nearest_rank(&samples, 1.0), 1.0);
    }

    #[test]
    fn nearest_rank_golden_values_on_small_sets() {
        let samples = [10.0, 20.0, 30.0, 40.0];
        // ceil(0.50 · 4) = 2nd, ceil(0.99 · 4) = 4th, ceil(0.01 · 4) = 1st.
        assert_eq!(nearest_rank(&samples, 50.0), 20.0);
        assert_eq!(nearest_rank(&samples, 99.0), 40.0);
        assert_eq!(nearest_rank(&samples, 1.0), 10.0);
        // A single sample is every percentile.
        assert_eq!(nearest_rank(&[7.5], 1.0), 7.5);
        assert_eq!(nearest_rank(&[7.5], 99.0), 7.5);
        // Degenerate requests stay in range rather than indexing out.
        assert_eq!(nearest_rank(&samples, 0.0), 10.0);
        assert_eq!(nearest_rank(&samples, 200.0), 40.0);
    }

    #[test]
    fn empty_reservoir_reports_zero() {
        let r = LatencyReservoir::new(8);
        assert!(r.is_empty());
        assert_eq!(r.percentile(50.0), 0.0);
        assert_eq!(r.p99(), 0.0);
    }

    #[test]
    fn reservoir_ring_keeps_the_most_recent_window() {
        let mut r = LatencyReservoir::new(8);
        for i in 1..=20 {
            r.record(f64::from(i));
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.recorded(), 20);
        let mut kept = r.samples().to_vec();
        kept.sort_by(f64::total_cmp);
        assert_eq!(kept, (13..=20).map(f64::from).collect::<Vec<_>>());
        // Percentiles are over the window, not the full history.
        assert_eq!(r.p50(), 16.0);
        assert_eq!(r.p99(), 20.0);
    }

    #[test]
    fn zero_window_reservoir_counts_but_retains_nothing() {
        let mut r = LatencyReservoir::new(0);
        for _ in 0..5 {
            r.record(1.0);
        }
        assert_eq!(r.recorded(), 5);
        assert!(r.is_empty());
        assert_eq!(r.p50(), 0.0);
    }
}
