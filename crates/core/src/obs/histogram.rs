//! Log2-bucketed latency histograms.

/// Bucket count: one bucket for zero plus one per bit of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i >= 1` covers the half-open
/// range `[2^(i-1), 2^i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value falls into.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The `[lower, upper)` range of bucket `i` (`upper` is `None` for
    /// the last bucket, whose upper bound exceeds `u64`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, Option<u64>) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket out of range");
        match i {
            0 => (0, Some(1)),
            64 => (1 << 63, None),
            _ => (1 << (i - 1), Some(1 << i)),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples, if any.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Non-empty buckets as `(index, lower, upper, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64, Option<u64>, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| {
            let (lo, hi) = Histogram::bucket_bounds(i);
            (i, lo, hi, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        for k in 0..64 {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_index(v), k + 1, "2^{k}");
            if v > 1 {
                assert_eq!(Histogram::bucket_index(v - 1), k, "2^{k} - 1");
            }
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bounds_cover_each_bucket() {
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            if let Some(hi) = hi {
                assert_eq!(Histogram::bucket_index(hi - 1), i);
                assert_eq!(Histogram::bucket_index(hi), i + 1);
            }
        }
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn record_tracks_extremes_and_mean() {
        let mut h = Histogram::new();
        for v in [3, 0, 12, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 20);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(12));
        assert_eq!(h.mean(), Some(5.0));
    }
}
