//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the
//! raw per-operation samples, never from the server's log2 latency
//! buckets.

/// The `q`-quantile (`0.0..=1.0`) of `n` ascending values read through
/// `at`, by linear interpolation between the two nearest order
/// statistics: rank `q * (n - 1)`, the rule of NumPy's default
/// `percentile`.
fn interpolate(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!(n > 0, "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    let rank = q * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let (a, b) = (at(lo), at(hi));
    // Equal neighbours (infinite ones included) need no interpolation.
    if frac == 0.0 || a == b {
        a
    } else {
        a + (b - a) * frac
    }
}

/// The `q`-quantile of `sorted` (ascending); see [`interpolate`].
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `0.0..=1.0`.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    interpolate(sorted.len(), q, |i| sorted[i])
}

/// The median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// A timing distribution in µs: the mean and one fixed tail
/// percentile, with the number of samples both were computed from.
///
/// The mean stands in for the median. On a shared host the same
/// operation runs at one of two speeds, up to 1.5x apart, for seconds
/// at a time, and the share of a run spent in each differs from run to
/// run. Where the two speeds split the samples into two modes (whole
/// cold builds and restores), the median jumps from one mode to the
/// other as that share crosses a half; the mean moves in proportion to
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Mean of the completed operations.
    pub mean: f64,
    /// The tail percentile (`tail_q`).
    pub tail: f64,
    /// The tail quantile, e.g. 0.99.
    pub tail_q: f64,
    /// Samples, failures included.
    pub n: usize,
}

impl Timing {
    /// Summarizes host-ns `samples` (sorted in place, so the summary
    /// allocates nothing) plus `failed` operations, which count as
    /// infinitely slow in the tail: a failure misses every latency
    /// limit. The mean is over the completed operations.
    ///
    /// # Panics
    ///
    /// Panics if there are no samples and no failures.
    #[must_use]
    pub fn of(samples: &mut [u32], failed: u64, tail_q: f64) -> Timing {
        samples.sort_unstable();
        let n = samples.len() + usize::try_from(failed).expect("failure count fits");
        let at = |i: usize| {
            samples
                .get(i)
                .map_or(f64::INFINITY, |&ns| f64::from(ns) / 1e3)
        };
        let total: f64 = samples.iter().map(|&ns| f64::from(ns)).sum();
        Timing {
            mean: total / samples.len().max(1) as f64 / 1e3,
            tail: interpolate(n, tail_q, at),
            tail_q,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_values() {
        let v = [10.0, 20.0, 30.0, 40.0];
        // rank = q * 3
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0); // rank 1.5
        assert!((percentile(&v, 0.9) - 37.0).abs() < 1e-9); // rank 2.7
        let odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&odd), 3.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_of_a_long_run_picks_the_order_statistic() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank = 0.99 * 999 = 989.01 → 990 + 0.01
        assert!((percentile(&v, 0.99) - 990.01).abs() < 1e-9);
        assert!((percentile(&v, 0.5) - 500.5).abs() < 1e-9);
    }

    #[test]
    fn timings_are_microseconds_from_raw_ns_samples() {
        let mut ns: Vec<u32> = (1..=1000).rev().map(|i| i * 1000).collect();
        let t = Timing::of(&mut ns, 0, 0.99);
        assert_eq!(t.n, 1000);
        assert!((t.mean - 500.5).abs() < 1e-9);
        assert!((t.tail - 990.01).abs() < 1e-9);
    }

    #[test]
    fn failures_count_as_missing_the_tail() {
        let mut samples = vec![1000u32; 98];
        let t = Timing::of(&mut samples, 2, 0.99);
        assert_eq!(t.n, 100);
        assert_eq!(t.mean, 1.0);
        assert!(t.tail.is_infinite());
        let clean = Timing::of(&mut samples, 0, 0.99);
        assert_eq!(clean.tail, 1.0);
    }
}
