//! Small descriptive-statistics toolkit for experiment tables.
//!
//! The experiment harness reports means over seeds; for the sweeps where
//! variance is part of the story (latency, quiescence time) tables also
//! show standard deviation and percentiles. No external dependency — 120
//! lines we can test exhaustively beat a stats crate we cannot vet.

/// Descriptive summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile, nearest-rank on the sorted sample).
    pub median: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in experiment data"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let stddev = if count < 2 {
            0.0
        } else {
            let var =
                sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count - 1) as f64;
            var.sqrt()
        };
        let pct = |p: f64| -> f64 {
            let rank = ((p * (count - 1) as f64).round() as usize).min(count - 1);
            sorted[rank]
        };
        Some(Summary {
            count,
            mean,
            stddev,
            min: sorted[0],
            median: pct(0.5),
            p99: pct(0.99),
            max: sorted[count - 1],
        })
    }

    /// Summarizes integer samples.
    pub fn of_u64(values: &[u64]) -> Option<Summary> {
        let f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        Summary::of(&f)
    }

    /// `"mean ± stddev"` with sensible precision.
    pub fn mean_pm(&self) -> String {
        format!("{:.1} ± {:.1}", self.mean, self.stddev)
    }
}

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of an ascending-sorted
/// integer sample; 0 for an empty one. The rank rule is [`Summary`]'s.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((p * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v = [10u64, 20, 30, 40, 50];
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 0.5), 30);
        assert_eq!(percentile(&v, 0.99), 50);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn empty_sample() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of_u64(&[]).is_none());
    }

    #[test]
    fn singleton_sample() {
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stddev of this classic set is sqrt(32/7).
        assert!((s.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn median_and_percentiles_are_order_independent() {
        let a = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        let b = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.median, 2.0);
        assert_eq!(a.p99, 3.0);
    }

    #[test]
    fn u64_conversion() {
        let s = Summary::of_u64(&[10, 20, 30]).unwrap();
        assert_eq!(s.mean, 20.0);
        assert_eq!(s.mean_pm(), "20.0 ± 10.0");
    }
}
