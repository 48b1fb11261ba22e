//! Sample summaries and metric-name rules shared by every workload.
//!
//! Every timing is reported with its sample count. A tail percentile is
//! only reported where at least [`MIN_BEYOND`] samples lie beyond it, so
//! a "p99" of 40 samples is never printed: the helper falls back to the
//! highest whole percentile the sample count supports.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A summary of one sample set: its size, median and supported tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The whole percentile the tail was taken at (≤ the one asked for).
    pub tail_pct: u32,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// 1-based nearest rank of the `pct` percentile among `n > 0` samples:
/// the smallest rank with at least `pct·n/100` samples at or below it.
fn rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).clamp(1, n)
}

/// Nearest-rank `pct` percentile of sorted samples.
pub fn percentile_sorted(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    sorted[rank(sorted.len(), pct) - 1]
}

/// How many samples lie beyond the nearest-rank `pct` percentile of `n`.
fn beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct)
}

/// The highest whole percentile ≤ `want_pct` with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer (under 20 samples).
pub fn supported_tail_pct(n: usize, want_pct: u32) -> Option<u32> {
    (50..=want_pct.min(99)).rev().find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, 50))
}

/// Summarizes `samples`, taking the tail at `want_pct` or the highest
/// percentile below it the sample count supports. With fewer than 20
/// samples the tail is the median (`tail_pct` = 50). `None` when empty.
pub fn summarize(samples: &[f64], want_pct: u32) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = supported_tail_pct(sorted.len(), want_pct).unwrap_or(50);
    Some(Summary {
        n: sorted.len(),
        p50: percentile_sorted(&sorted, 50),
        tail_pct,
        tail: percentile_sorted(&sorted, tail_pct),
    })
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted: 1..=n in a scrambled order.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50), 5.0);
        assert_eq!(percentile_sorted(&sorted, 90), 9.0);
        assert_eq!(percentile_sorted(&sorted, 91), 10.0);
        assert_eq!(percentile_sorted(&sorted, 0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 100), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 beyond it.
        assert_eq!(supported_tail_pct(1000, 99), Some(99));
        // 999 samples: p99 is rank 990, 9 beyond — fall back to p98.
        assert_eq!(supported_tail_pct(999, 99), Some(98));
        // p90 of 100 has 10 beyond; p90 of 99 has 9.
        assert_eq!(supported_tail_pct(100, 90), Some(90));
        assert_eq!(supported_tail_pct(99, 90), Some(89));
        // 20 samples support the median and nothing above it.
        assert_eq!(supported_tail_pct(20, 99), Some(50));
        assert_eq!(supported_tail_pct(19, 99), None);
        assert_eq!(supported_tail_pct(0, 99), None);
        // Every supported percentile really has ≥ 10 samples beyond.
        for n in 20..1200 {
            let p = supported_tail_pct(n, 99).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(beyond(n, p + 1) < MIN_BEYOND, "n={n}: p{} was supported", p + 1);
            }
        }
    }

    #[test]
    fn summary_reports_count_median_and_supported_tail() {
        let s = summarize(&ramp(1000), 99).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (1000, 500.0, 99, 990.0));
        let s = summarize(&ramp(150), 99).unwrap();
        assert_eq!((s.n, s.tail_pct), (150, 93));
        assert_eq!(s.tail, 140.0);
        let s = summarize(&ramp(5), 99).unwrap();
        assert_eq!((s.n, s.p50, s.tail_pct, s.tail), (5, 3.0, 50, 3.0));
        assert_eq!(summarize(&[], 90), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "ergraph.candidates_s", "serve.next_ms_p99", "campaign-deep", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "-lead", "has space", "slash/y", "ü", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["s", "ms", "1/s", "%", "count", "q/match", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "units_that_are_too_long", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
