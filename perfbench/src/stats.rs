//! Order statistics for the benchmark's timings.
//!
//! Percentiles use the nearest-rank rule: the `q`-th percentile of `n`
//! ascending samples is the sample at 1-based rank `ceil(q/100 * n)`. A
//! percentile is only as good as the samples beyond it, so [`tail`] picks
//! the highest percentile of a fixed ladder that still has at least
//! [`MIN_BEYOND`] samples above its rank.

/// Samples a reported tail percentile must have beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder [`tail`] climbs.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// 1-based nearest rank of the `q`-th percentile among `n` samples
/// (`n >= 1`, `0 < q <= 100`).
pub fn rank(n: usize, q: f64) -> usize {
    // The tolerance keeps float noise (99.9 / 100 * 10_000 = 9990.000..02)
    // from pushing an exact rank up by one.
    let r = (q / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank `q`-th percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// A reported tail percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples ranked strictly above it.
    pub beyond: usize,
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median lacks them.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&q| (q, rank(n, q)))
        .find(|&(_, r)| n - r >= MIN_BEYOND)
        .map(|(q, r)| Tail {
            q,
            value: sorted[r - 1],
            beyond: n - r,
        })
}

/// Sorts `xs` ascending (total order, so a stray NaN cannot panic).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median (nearest rank) of a non-empty sequence.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 50.0)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Latency distribution summary of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile (reported even when thinly supported; see `tail`).
    pub p99: f64,
    /// Mean.
    pub mean: f64,
    /// The highest well-supported percentile.
    pub tail: Option<Tail>,
}

impl Summary {
    /// Summarizes a non-empty sample.
    pub fn of(xs: Vec<f64>) -> Summary {
        let s = sorted(xs);
        Summary {
            n: s.len(),
            p50: percentile(&s, 50.0),
            p90: percentile(&s, 90.0),
            p99: percentile(&s, 99.0),
            mean: mean(&s),
            tail: tail(&s),
        }
    }

    /// The same summary with every value multiplied by `k` (a unit change).
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            p50: self.p50 * k,
            p90: self.p90 * k,
            p99: self.p99 * k,
            mean: self.mean * k,
            tail: self.tail.map(|t| Tail {
                value: t.value * k,
                ..t
            }),
            ..self
        }
    }

    /// Samples ranked beyond the `q`-th percentile.
    pub fn beyond(&self, q: f64) -> usize {
        self.n - rank(self.n, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs = one_to(100);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // ceil(0.5 * 5) = 3 -> third sample; ceil(0.9 * 5) = 5 -> the max
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&five, 50.0), 30.0);
        assert_eq!(percentile(&five, 90.0), 50.0);
        // a single sample is every percentile
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(rank(10, 0.0001), 1);
    }

    #[test]
    fn median_and_summary_sort_their_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let s = Summary::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.p50, s.p90, s.mean), (5, 3.0, 5.0, 3.0));
        let ms = s.scaled(1e3);
        assert_eq!((ms.n, ms.p50, ms.p99), (5, 3000.0, 5000.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median (rank 10) has 9 beyond -> nothing qualifies
        assert_eq!(tail(&one_to(19)), None);
        // 20: the median has exactly 10 beyond
        let t = tail(&one_to(20)).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (50.0, 10.0, 10));
        // 100: p90 (rank 90) has 10 beyond, p99 only 1
        let t = tail(&one_to(100)).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000: p99 (rank 990) has 10 beyond, p99.9 only 1
        let t = tail(&one_to(1000)).unwrap();
        assert_eq!((t.q, t.beyond), (99.0, 10));
        // 10_000: p99.9 (rank 9990) has 10 beyond
        let t = tail(&one_to(10_000)).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (99.9, 9990.0, 10));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn summary_reports_the_count_beyond_each_percentile() {
        let s = Summary::of(one_to(1000));
        assert_eq!(s.beyond(99.0), 10);
        assert_eq!(s.beyond(50.0), 500);
        assert_eq!(s.tail.unwrap().q, 99.0);
    }
}
