//! Percentiles under the benchmark's sample-size rule, and interval
//! arithmetic for self times and coverage.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples` (`0 < p < 100`), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: a p50
/// needs at least 20 samples, a p90 at least 100.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a non-empty list without the sample-size rule, for
/// repeated set-up timings and per-layer medians of few samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A parent span's self time: its length minus the part of it that its
/// children cover. Children may overlap each other (they run in parallel
/// on worker threads) and are clipped to the parent.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .collect();
    (parent.1 - parent.0) - union_len(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut v: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let a = percentile(&v, 90.0);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&v, 90.0));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two workers run children in parallel: [10, 40) and [20, 60)
        // overlap on [20, 40), so together they cover [10, 60).
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30), (70, 80)]), 40);
        // Children are clipped to the parent span.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((0, 10), &[]), 10);
    }

    #[test]
    fn union_merges_touching_and_disjoint_intervals() {
        assert_eq!(union_len(&[(0, 5), (5, 10), (20, 25)]), 15);
        assert_eq!(union_len(&[(3, 3)]), 0);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
