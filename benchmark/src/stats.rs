//! Order statistics used by every workload: medians of repeated
//! measurements, nearest-rank percentiles of latency samples, and the rule
//! that decides which tail percentile a sample can support.

/// The percentiles a latency summary may report, in increasing order.
pub const LEVELS: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `0.99 × 1000` at rank 990 despite binary rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile `p` of `sorted` (ascending); `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest of [`LEVELS`] that leaves at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when not even the median does.
pub fn tail_level(n: usize) -> Option<f64> {
    LEVELS.iter().rev().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A latency sample reduced to its reportable order statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile, present only when the sample supports it.
    pub p99: Option<f64>,
    /// The highest percentile the sample supports (see [`tail_level`]).
    pub tail_level: Option<f64>,
    /// The value at `tail_level`.
    pub tail: Option<f64>,
}

impl Latency {
    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Latency {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let level = tail_level(n);
        let supported = |p: f64| level.is_some_and(|t| t >= p).then(|| percentile(&v, p));
        Latency {
            n,
            p50: percentile(&v, 0.5),
            p99: supported(0.99),
            tail_level: level,
            tail: level.map(|p| percentile(&v, p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
    }

    #[test]
    fn tail_level_needs_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 beyond p99; p99.9 leaves 1.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_level(1000), Some(0.99));
        // One sample fewer and p99 leaves 9, so the rule falls back to p90.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_level(999), Some(0.9));
        assert_eq!(tail_level(10_000), Some(0.999));
        assert_eq!(tail_level(100_000), Some(0.9999));
        // Twenty samples: the median leaves 10 beyond; nineteen leave 9.
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(0), None);
    }

    #[test]
    fn latency_reports_p99_only_when_supported() {
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let l = Latency::of(&many);
        assert_eq!(l.n, 2000);
        assert_eq!(l.p50, 1000.0);
        assert_eq!(l.p99, Some(1980.0));
        assert_eq!(l.tail_level, Some(0.99));
        assert_eq!(l.tail, Some(1980.0));

        let few: Vec<f64> = (1..=500).rev().map(f64::from).collect();
        let l = Latency::of(&few);
        assert_eq!(l.p50, 250.0);
        assert_eq!(l.p99, None);
        assert_eq!(l.tail_level, Some(0.9));
        assert_eq!(l.tail, Some(450.0));
    }
}
