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

/// [`nearest_rank`] of the union of two ascending-sorted sample sets,
/// without merging them: bit-identical to `nearest_rank` of their
/// sorted concatenation, in `O(log n)`.
pub(crate) fn nearest_rank_of_two(a: &[f64], b: &[f64], p: f64) -> f64 {
    let n = a.len() + b.len();
    if n == 0 {
        return 0.0;
    }
    let take = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    // The `take` smallest samples are `a[..i]` and `b[..take - i]` for
    // the least `i` at which the last `b` sample taken is no greater
    // than the next `a` sample left out; that predicate is monotone in
    // `i`, so bisect for it.
    let (mut lo, mut hi) = (take.saturating_sub(b.len()), take.min(a.len()));
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        if b[take - i - 1].total_cmp(&a[i]).is_gt() {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    // The rank-th sample is the larger of the last one taken from each
    // side. Samples equal under `total_cmp` are equal bit for bit.
    let from_a = lo.checked_sub(1).map(|i| a[i]);
    let from_b = (take - lo).checked_sub(1).map(|j| b[j]);
    match (from_a, from_b) {
        (Some(x), Some(y)) => std::cmp::max_by(x, y, f64::total_cmp),
        (x, y) => x.or(y).expect("take ≥ 1 samples"),
    }
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
    fn nearest_rank_of_two_matches_the_merged_sort_bit_for_bit() {
        // Small integer-valued sets force ties across the two sides; the
        // signed zeros check the `total_cmp` order.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut sample = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            [-0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 7.0, 9.0][(state >> 61) as usize]
        };
        for la in 0..7 {
            for lb in 0..7 {
                let mut a: Vec<f64> = (0..la).map(|_| sample()).collect();
                let mut b: Vec<f64> = (0..lb).map(|_| sample()).collect();
                a.sort_by(f64::total_cmp);
                b.sort_by(f64::total_cmp);
                let mut merged = [a.clone(), b.clone()].concat();
                merged.sort_by(f64::total_cmp);
                for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0, 200.0] {
                    let (got, want) = (nearest_rank_of_two(&a, &b, p), nearest_rank(&merged, p));
                    assert_eq!(got.to_bits(), want.to_bits(), "a={a:?} b={b:?} p={p}");
                }
            }
        }
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
