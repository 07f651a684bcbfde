//! Exact order statistics and the process's memory high-water mark.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is one outlier, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of a sorted sample: the smallest value with at
/// least `q` of the sample at or below it. `None` on an empty sample or,
/// above the median, when fewer than [`MIN_BEYOND`] samples lie beyond.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: impl IntoIterator<Item = u64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0u128, 0u64), |(s, n), v| (s + v as u128, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.50), Some(500));
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.5), Some(7));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // 1000 samples: exactly ten lie beyond p99, none of the ten beyond p99.9
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..20], 0.50), Some(10));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean([1, 2, 6]), 3.0);
        assert_eq!(mean([]), 0.0);
    }

    #[test]
    fn rss_reads_something() {
        assert!(peak_rss_mb() > 0.0);
    }
}
