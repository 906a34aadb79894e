//! Order statistics for the reported metrics.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least ten samples beyond it; a fixed ladder of percentiles
//! keeps the reported percentile from wandering with the sample count.

/// The percentiles a tail may be reported at, ascending.
const LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Index of the nearest-rank `pct`-th percentile among `n` sorted samples.
/// Percentiles are taken to a tenth, in whole numbers, so that 99.9 % of
/// 10 000 is 9 990 and not the next float above it.
fn rank(n: usize, pct: f64) -> usize {
    let per_mille = (pct * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n) - 1
}

/// Nearest-rank percentile; 0 for no samples (a round that failed before
/// measuring anything — the run is reported as incorrect, not crashed).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    v[rank(v.len(), pct)]
}

/// Median as the mean of the two middle samples for even counts; 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest ladder percentile with at least ten of `n` samples beyond
/// it, or 50 when the sample supports nothing above the median.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| n > 0 && n - 1 - rank(n, pct) >= 10)
        .unwrap_or(50.0)
}

/// What is printed beside a timing: how many rounds it rests on, their
/// median, minimum and inter-quartile range.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub rounds: usize,
    pub median: f64,
    pub min: f64,
    pub iqr: f64,
}

pub fn summary(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    if v.is_empty() {
        return Summary {
            rounds: 0,
            median: 0.0,
            min: 0.0,
            iqr: 0.0,
        };
    }
    Summary {
        rounds: v.len(),
        median: median(&v),
        min: v[0],
        iqr: v[rank(v.len(), 75.0)] - v[rank(v.len(), 25.0)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(110), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), 3.0);
        // Ten samples lie beyond the reported tail, as the rule demands.
        let pct = tail_percentile(v.len());
        let at = percentile(&v, pct);
        assert_eq!(v.iter().filter(|&&x| x > at).count(), 10);
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        let s = summary(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.rounds, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.iqr, 2.0);
    }
}
