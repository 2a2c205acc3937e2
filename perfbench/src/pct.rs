//! Percentile helper: the median plus the highest tail percentile that has
//! at least ten samples beyond it, with the sample count.

/// Tail percentiles tried from the highest down.
const TAIL_LADDER: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie strictly beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub p50: f64,
    /// `(percentile, value)` of the highest ladder percentile with at least
    /// ten samples beyond it, by nearest rank; `None` when none qualifies.
    pub tail: Option<(f64, f64)>,
}

impl Pct {
    /// Summarise `xs`; `None` when it is empty.
    pub fn of(xs: &[f64]) -> Option<Pct> {
        if xs.is_empty() {
            return None;
        }
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let p50 = if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        };
        let tail = TAIL_LADDER.iter().find_map(|&p| {
            // Nearest rank: the smallest rank r with r / n >= p / 100.
            let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
            (n - rank >= MIN_BEYOND).then(|| (p, v[rank - 1]))
        });
        Some(Pct { n, p50, tail })
    }

    /// The value of the tail percentile `p`, if it is the one reported.
    pub fn at(&self, p: f64) -> Option<f64> {
        self.tail.filter(|&(q, _)| q == p).map(|(_, v)| v)
    }
}

/// Median of `xs`, or 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    Pct::of(xs).map_or(0.0, |p| p.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousand_latencies_yield_p99() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let p = Pct::of(&xs).unwrap();
        assert_eq!(p.n, 1000);
        assert_eq!(p.p50, 500.5);
        assert_eq!(p.tail, Some((99.0, 990.0)));
        assert_eq!(p.at(99.0), Some(990.0));
    }

    #[test]
    fn twenty_batch_times_yield_no_p99() {
        let xs: Vec<f64> = (0..20).map(|i| 10.0 + i as f64).collect();
        let p = Pct::of(&xs).unwrap();
        assert_eq!(p.n, 20);
        assert_eq!(p.p50, 19.5);
        assert_eq!(p.tail, None);
        assert_eq!(p.at(99.0), None);
    }

    #[test]
    fn hundred_samples_yield_p90_not_p99() {
        let xs: Vec<f64> = (1..=100).rev().map(|i| i as f64).collect();
        let p = Pct::of(&xs).unwrap();
        assert_eq!(p.tail, Some((90.0, 90.0)));
        assert_eq!(p.at(99.0), None);
    }

    #[test]
    fn ten_thousand_samples_yield_p999() {
        let xs: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        assert_eq!(Pct::of(&xs).unwrap().tail, Some((99.9, 9990.0)));
    }

    #[test]
    fn empty_and_odd_sets() {
        assert_eq!(Pct::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
