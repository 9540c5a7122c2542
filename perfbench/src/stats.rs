//! Latency summaries and failure accounting.
//!
//! A timing is reported as its median plus one tail percentile: the highest
//! percentile, up to the one the metric is named after, that still has at
//! least [`MIN_BEYOND_TAIL`] samples beyond it. A failed operation is kept as
//! an infinitely slow sample, so it counts as a miss against any limit.

use std::time::Instant;

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The latency recorded for an operation that returned an error.
pub const FAILED: u64 = u64::MAX;

/// Percentiles a tail may fall back to, highest first.
const TAIL_LADDER: [f64; 8] = [0.999, 0.99, 0.98, 0.95, 0.9, 0.8, 0.75, 0.5];

/// Latency samples of one operation class, in nanoseconds, plus how many
/// of the attempts failed.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    samples: Vec<u64>,
    failed: u64,
}

impl Timings {
    /// Records a completed operation that took `ns`.
    pub fn ok(&mut self, ns: u64) {
        self.samples.push(ns.min(FAILED - 1));
    }

    /// Records an operation that returned an error.
    pub fn fail(&mut self) {
        self.samples.push(FAILED);
        self.failed += 1;
    }

    /// Runs `f`, records its latency (or its failure) and returns its
    /// result with the instants it started and ended.
    pub fn time<T, E>(
        &mut self,
        f: impl FnOnce() -> Result<T, E>,
    ) -> (Result<T, E>, Instant, Instant) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        match &result {
            Ok(_) => self.ok((end - start).as_nanos() as u64),
            Err(_) => self.fail(),
        }
        (result, start, end)
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Appends every sample of `other`.
    pub fn merge(&mut self, other: &Timings) {
        self.samples.extend_from_slice(&other.samples);
        self.failed += other.failed;
    }

    /// The sorted summary of these samples.
    pub fn summary(&self) -> Summary {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        Summary { sorted }
    }
}

/// Sorted samples, ready for percentile queries.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<u64>,
}

impl Summary {
    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank value at quantile `q` in `(0, 1]`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// The median.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// The tail: the highest percentile at or below `cap` with at least
    /// [`MIN_BEYOND_TAIL`] samples beyond it, as `(quantile, value)`. With
    /// too few samples for any of them the median stands in.
    pub fn tail(&self, cap: f64) -> Option<(f64, u64)> {
        let q = tail_quantile(self.sorted.len(), cap);
        self.quantile(q).map(|v| (q, v))
    }
}

/// The quantile [`Summary::tail`] reports for `n` samples under `cap`.
pub fn tail_quantile(n: usize, cap: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|q| *q <= cap + 1e-12)
        .find(|q| {
            let rank = (q * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= MIN_BEYOND_TAIL
        })
        .unwrap_or(0.5)
}

/// Median of a small set of values (used for repeated set-ups).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Attempted/failed totals across operation classes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
}

impl Outcome {
    /// Adds the counts of one class.
    pub fn add(&mut self, timings: &Timings) {
        self.attempted += timings.attempted();
        self.failed += timings.failed();
    }

    /// Failed operations as a fraction of attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(values: impl IntoIterator<Item = u64>) -> Timings {
        let mut t = Timings::default();
        for v in values {
            t.ok(v);
        }
        t
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond it.
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        // 999 samples: p99 would leave 9, so p98 is the tail.
        assert_eq!(tail_quantile(999, 0.99), 0.98);
        // 100 samples: p90 leaves 10.
        assert_eq!(tail_quantile(100, 0.99), 0.9);
        assert_eq!(tail_quantile(100, 0.9), 0.9);
        // 60 samples: p80 leaves 12, p90 only 6.
        assert_eq!(tail_quantile(60, 0.9), 0.8);
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail_quantile(12, 0.99), 0.5);
        assert_eq!(tail_quantile(0, 0.99), 0.5);
        // The cap is never exceeded even with many samples.
        assert_eq!(tail_quantile(1_000_000, 0.9), 0.9);
        assert_eq!(tail_quantile(1_000_000, 0.99), 0.99);
    }

    #[test]
    fn tail_and_median_values_use_nearest_rank() {
        let s = timings(1..=1000).summary();
        assert_eq!(s.median(), Some(500));
        assert_eq!(s.tail(0.99), Some((0.99, 990)));
        let beyond = s.sorted.iter().filter(|v| **v > 990).count();
        assert_eq!(beyond, MIN_BEYOND_TAIL);
        assert_eq!(Timings::default().summary().median(), None);
    }

    #[test]
    fn failures_count_as_attempts_and_as_misses() {
        let mut t = timings(1..=100);
        t.fail();
        assert!(t.time(|| Err::<(), ()>(())).0.is_err());
        assert!(t.time(|| Ok::<(), ()>(())).0.is_ok());
        assert_eq!(t.attempted(), 103);
        assert_eq!(t.failed(), 2);
        // A failure sorts beyond every completed operation.
        let s = t.summary();
        assert_eq!(s.quantile(1.0), Some(FAILED));
        let mut outcome = Outcome::default();
        outcome.add(&t);
        outcome.add(&timings([1, 2]));
        assert_eq!(outcome.attempted, 105);
        assert_eq!(outcome.failed, 2);
        assert!((outcome.failed_frac() - 2.0 / 105.0).abs() < 1e-12);
        assert_eq!(Outcome::default().failed_frac(), 0.0);
    }

    #[test]
    fn merge_keeps_samples_and_failures() {
        let mut a = timings([1, 2, 3]);
        let mut b = timings([4]);
        b.fail();
        a.merge(&b);
        assert_eq!(a.attempted(), 5);
        assert_eq!(a.failed(), 1);
    }

    #[test]
    fn median_of_setups() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
