//! Sample statistics: percentiles the sample supports, rates over rounds,
//! and the least-squares line behind the α–β fit.

/// Tail percentiles a summary may report, in hundredths of a percent so the
/// "ten samples beyond" rule is exact integer arithmetic.
const TAIL_BASIS_POINTS: [u64; 5] = [9000, 9500, 9900, 9990, 9999];

/// Nearest-rank percentile `q` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it,
/// or `None` when the sample is too small for anything above the median.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_BASIS_POINTS
        .iter()
        .rev()
        .find(|&&bp| n as u64 * (10_000 - bp) >= 10 * 10_000)
        .map(|&bp| bp as f64 / 100.0)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Sample count, median, and the highest percentile the count supports.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// `(q, value)` of the highest supported percentile, if any.
    pub high: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize an unsorted, non-empty sample.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            n: sorted.len(),
            median: percentile(&sorted, 50.0),
            high: highest_supported_percentile(sorted.len()).map(|q| (q, percentile(&sorted, q))),
        }
    }
}

/// Time per op from several rounds of `(ops, timed seconds)`: the median
/// over rounds of each round's seconds ÷ ops. Rank threads are pinned, so
/// rounds are not bimodal; what is left is interference from outside the
/// process, which lands on whole rounds and which a median shrugs off.
pub fn secs_per_op(rounds: &[(u64, f64)]) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|&(ops, secs)| secs / ops as f64)
        .collect();
    median(&per_round)
}

/// Least-squares line `y = a + b·x`; returns `(a, b)`.
pub fn least_squares(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert!(
        xs.len() == ys.len() && xs.len() >= 2,
        "need two or more points"
    );
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let b = sxy / sxx;
    (my - b * mx, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_and_supported_tail() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.0);
        assert_eq!(s.high, Some((99.0, 990.0)));
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).high, None);
    }

    #[test]
    fn rate_over_rounds_is_the_median_round() {
        // One round hit by outside interference does not move the figure.
        let rounds = [
            (1000, 1.0),
            (1000, 1.5),
            (1000, 9.0),
            (500, 0.5),
            (1000, 1.25),
        ];
        assert_eq!(secs_per_op(&rounds), 0.00125);
        assert_eq!(secs_per_op(&[(10, 1.0)]), 0.1);
    }

    #[test]
    fn least_squares_recovers_a_line() {
        let xs = [64.0, 1024.0, 65536.0, 262144.0];
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 + 0.25 * x).collect();
        let (a, b) = least_squares(&xs, &ys);
        assert!((a - 5.0).abs() < 1e-6 && (b - 0.25).abs() < 1e-9);
    }
}
