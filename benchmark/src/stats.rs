//! Order statistics of a run's samples.

/// The tail percentiles a summary may report, highest first, in
/// thousandths.
const TAILS: [usize; 5] = [999, 990, 950, 900, 750];

/// A metric's distribution over one run's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest percentile in [`TAILS`] with at least ten samples
    /// beyond it, and its value; `None` below forty samples.
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`, which must not be empty.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAILS
            .iter()
            .find(|&&p| n * (1000 - p) >= 10 * 1000)
            .map(|&p| (p as f64 / 10.0, quantile(&sorted, p, 1000)));
        Summary {
            min: sorted[0],
            median: quantile(&sorted, 2, 4),
            q1: quantile(&sorted, 1, 4),
            q3: quantile(&sorted, 3, 4),
            tail,
            n,
        }
    }
}

/// The `i`-th of the `groups`-quantiles of sorted data, computed as
/// Python's `statistics.quantiles` does by default (the "exclusive"
/// method, which extrapolates past the data for tiny samples), so these
/// quartiles agree with any spread computed from them in Python.
fn quantile(sorted: &[f64], i: usize, groups: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = i * (len + 1);
    let j = (m / groups).clamp(1, len - 1);
    let delta = m as f64 - (j * groups) as f64;
    (sorted[j - 1] * (groups as f64 - delta) + sorted[j] * delta) / groups as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_is_every_quantile() {
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.tail, None);
    }

    #[test]
    fn quartiles_match_python_for_small_n() {
        // statistics.quantiles(data, n=4) for each data set.
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        assert_eq!(s.min, 1.0);
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).tail, None);
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(Summary::of(&samples).tail.map(|(p, _)| p), Some(75.0));
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = Summary::of(&samples).tail.unwrap();
        assert_eq!(p, 90.0);
        assert!((v - 90.9).abs() < 1e-9, "{v}");
    }
}
