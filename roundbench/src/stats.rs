//! Order statistics for timing samples.

/// The percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Nearest-rank percentile `p` (0–100] of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// Median (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether `p` may be reported from `n` samples: at least ten samples
/// must lie beyond it, i.e. `n * (1 - p/100) >= 10`.
pub fn percentile_allowed(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// The highest percentile on the reporting ladder (p50, p90, p99,
/// p99.9) with at least ten samples beyond it, or `None` when even the
/// median has fewer than ten beyond it (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|&p| percentile_allowed(n, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!(percentile_allowed(100, 90.0));
        assert!(!percentile_allowed(99, 90.0));
    }
}
