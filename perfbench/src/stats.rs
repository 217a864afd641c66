//! Order statistics over a run's samples.

use pcmap_obs::LatencyHistogram;

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples` (any order). Quartiles use the "exclusive"
    /// method of Python's `statistics.quantiles(values, n=4)`, so the
    /// figures printed here match how the spread of runs is judged; the
    /// median is `statistics.median`. A single sample is its own
    /// quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or a NaN sample.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        if n == 1 {
            return Self {
                n,
                q1: s[0],
                median,
                q3: s[0],
            };
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Self {
            n,
            q1: quartile(1),
            median,
            q3: quartile(3),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// The `p`-th percentile of `h`, interpolated linearly inside the
/// bucket that holds it and capped at the largest sample; 0 when empty.
/// (`LatencyHistogram::percentile` returns the bucket's floor, which
/// moves in quarter-octave steps.)
pub fn interpolated_percentile(h: &LatencyHistogram, p: f64) -> f64 {
    let target = p / 100.0 * h.count() as f64;
    let mut seen = 0.0;
    for (floor, count) in h.buckets() {
        let count = count as f64;
        if seen + count >= target {
            let next = LatencyHistogram::bucket_floor(LatencyHistogram::bucket_of(floor) + 1);
            let v = floor as f64 + (next - floor) as f64 * (target - seen) / count;
            return v.min(h.max() as f64);
        }
        seen += count;
    }
    h.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_inside_the_bucket() {
        let mut h = LatencyHistogram::new();
        assert_eq!(interpolated_percentile(&h, 99.0), 0.0);
        // 50 samples in [192, 224) and 50 in [224, 256).
        for _ in 0..50 {
            h.record(200);
            h.record(250);
        }
        assert_eq!(h.percentile(50.0), 192);
        assert_eq!(interpolated_percentile(&h, 50.0), 224.0);
        assert_eq!(interpolated_percentile(&h, 75.0), 240.0);
        // Capped at the largest sample.
        assert_eq!(interpolated_percentile(&h, 99.0), 250.0);
    }

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 8], n=4) == [3.0, 6.0, 9.0]
        let s = Summary::of(&[8.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 6.0, 9.0));
        assert_eq!(s.n, 2);
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = Summary::of(&[7.5]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.5, 7.5, 7.5, 0.0));
    }
}
