//! Sample statistics for the end-to-end metrics.
//!
//! Every sample is kept (no histogram buckets), so a quantile is an exact
//! nearest-rank order statistic. The tail of a timing is the highest
//! percentile of [`TAIL_LEVELS`] that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it; that rule lives in
//! [`tail_percentile`] and nowhere else.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_LEVELS: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` sorted samples (the
/// small offset keeps `99.9 % of 10 000` from rounding up past 9 990).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest [`TAIL_LEVELS`] percentile with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly above its rank, or `None`
/// when `n` is too small for any of them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .copied()
        .find(|&p| n >= 1 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// A percentile label such as `p99` or `p99.9`.
pub fn percentile_label(p: f64) -> String {
    format!("p{p}")
}

/// A tail quantile: which percentile it resolved to and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// Every sample of one timing, in recording order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The samples in recording order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `p` (0–100), or `None` with no samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let sorted = self.sorted();
        Some(sorted[rank(sorted.len(), p) - 1])
    }

    /// The median (nearest rank), or `None` with no samples.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The tail by [`tail_percentile`], or `None` with too few samples.
    pub fn tail(&self) -> Option<Tail> {
        let p = tail_percentile(self.values.len())?;
        Some(Tail {
            percentile: p,
            value: self.percentile(p)?,
        })
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(2000), Some(99.5));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n = {n}, p = {p}");
            }
        }
    }

    #[test]
    fn tail_value_is_the_nearest_rank_sample() {
        let s = samples(1000);
        let tail = s.tail().unwrap();
        assert_eq!(tail.percentile, 99.0);
        assert_eq!(tail.value, 990.0);
        assert_eq!(s.median(), Some(500.0));
        assert_eq!(percentile_label(tail.percentile), "p99");
        assert_eq!(percentile_label(99.9), "p99.9");
        assert_eq!(samples(19).tail(), None);
    }

    #[test]
    fn order_of_recording_does_not_matter() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.percentile(100.0), Some(5.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
    }
}
