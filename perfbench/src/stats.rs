//! Order statistics with the sample-count rule the benchmark reports by.

/// A tail percentile as reported: which percentile the sample could
/// support, its value, and how many samples it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub q: f64,
    pub value: f64,
    pub n: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(q·n)` (1-based, at least 1).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 0.5)
}

/// The highest percentile up to `target` that leaves at least
/// [`MIN_BEYOND`] samples beyond it. A sample too small to support any
/// percentile above the median reports the median. `None` when empty.
pub fn tail(samples: &[f64], target: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let supported = n.saturating_sub(MIN_BEYOND) as f64 / n as f64;
    let q = target.min(supported).max(0.5);
    Some(Tail {
        q,
        value: nearest_rank(&sorted(samples), q),
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled so that sorting is exercised
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let t = tail(&ramp(200), 0.95).unwrap();
        assert_eq!(t.q, 0.95);
        assert_eq!(t.n, 200);
        // rank 190 of 0..200 → value 189, with exactly ten beyond it
        assert_eq!(t.value, 189.0);
        assert_eq!(ramp(200).iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn smaller_samples_report_the_highest_supported_percentile() {
        let t = tail(&ramp(100), 0.95).unwrap();
        assert!((t.q - 0.90).abs() < 1e-12);
        assert_eq!(ramp(100).iter().filter(|&&v| v > t.value).count(), 10);
        let t = tail(&ramp(75), 0.95).unwrap();
        assert!((t.q - 65.0 / 75.0).abs() < 1e-12);
        assert!(ramp(75).iter().filter(|&&v| v > t.value).count() >= 10);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        let t = tail(&[3.0, 1.0, 2.0], 0.95).unwrap();
        assert_eq!((t.q, t.value, t.n), (0.5, 2.0, 3));
        assert!(tail(&[], 0.95).is_none());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
