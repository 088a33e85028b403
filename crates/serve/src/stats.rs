//! Latency accounting: percentile, throughput, and shed summaries.

/// Summary statistics of one serving run's per-request latencies.
///
/// Percentiles use the nearest-rank method on the full sample (no
/// interpolation), so equal inputs always summarize to equal bits —
/// the determinism contract of the modeled-timing bench. Latencies are
/// only ever recorded for *completed* requests; shed and rejected
/// requests are counted (never silently dropped) but do not pollute the
/// percentile sample — the tail of a hardened server is the tail of the
/// work it accepted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of completed requests (the percentile sample size).
    pub n: usize,
    /// Requests admitted past admission control. Without an admission
    /// layer this equals `n`.
    pub admitted: usize,
    /// Requests that resolved to a non-completed outcome (shed at
    /// admission, shed past deadline, or rejected by backpressure).
    pub shed: usize,
    /// Mean latency, seconds.
    pub mean: f64,
    /// Median latency, seconds.
    pub p50: f64,
    /// 95th-percentile latency, seconds.
    pub p95: f64,
    /// 99th-percentile latency, seconds.
    pub p99: f64,
    /// 99.9th-percentile latency, seconds — the tail the soak bench
    /// gates on; needs a sample of 1000+ to differ from `max`.
    pub p999: f64,
    /// Worst observed latency, seconds.
    pub max: f64,
    /// Resolved requests (completed + shed) per second of makespan:
    /// the rate at which the server disposed of offered work.
    pub throughput: f64,
    /// Completed requests per second of makespan — throughput that did
    /// useful work. Equals `throughput` when nothing was shed.
    pub goodput: f64,
}

impl LatencySummary {
    /// Summarizes `latencies` (seconds per completed request, any order)
    /// over a run that spanned `makespan` seconds and also shed or
    /// rejected `shed` requests. Order-invariant and bit-deterministic: the
    /// sample is sorted by `total_cmp` before any percentile is read.
    pub fn from_latencies_with_shed(latencies: &[f64], makespan: f64, shed: usize) -> Self {
        let n = latencies.len();
        if n == 0 {
            let throughput = rate(shed, makespan);
            return LatencySummary {
                n: 0,
                admitted: 0,
                shed,
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                p999: 0.0,
                max: 0.0,
                throughput,
                goodput: 0.0,
            };
        }
        let mut sorted: Vec<f64> = latencies.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let max = sorted.last().copied().unwrap_or(0.0);
        LatencySummary {
            n,
            admitted: n,
            shed,
            mean,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            p999: percentile(&sorted, 0.999),
            max,
            throughput: rate(n + shed, makespan),
            goodput: rate(n, makespan),
        }
    }

    /// Fraction of resolved requests that were shed (0 when nothing was
    /// offered).
    pub fn shed_fraction(&self) -> f64 {
        let total = self.n + self.shed;
        if total == 0 {
            return 0.0;
        }
        self.shed as f64 / total as f64
    }
}

/// Requests per second over a makespan (0 for a degenerate span).
fn rate(count: usize, makespan: f64) -> f64 {
    if makespan > 0.0 {
        count as f64 / makespan
    } else {
        0.0
    }
}

/// Nearest-rank percentile of an ascending-sorted nonempty sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_all_zero() {
        let s = LatencySummary::from_latencies_with_shed(&[], 1.0, 0);
        assert_eq!(s.n, 0);
        assert_eq!(s.throughput, 0.0);
        assert_eq!(s.goodput, 0.0);
        assert_eq!(s.shed_fraction(), 0.0);
    }

    #[test]
    fn nearest_rank_on_a_known_sample() {
        // 1..=100 milliseconds: p50 = 50 ms, p95 = 95 ms, p99 = 99 ms.
        let lat: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-3).collect();
        let s = LatencySummary::from_latencies_with_shed(&lat, 2.0, 0);
        assert_eq!(s.n, 100);
        assert_eq!(s.admitted, 100);
        assert!((s.p50 - 0.050).abs() < 1e-12);
        assert!((s.p95 - 0.095).abs() < 1e-12);
        assert!((s.p99 - 0.099).abs() < 1e-12);
        assert!((s.p999 - 0.100).abs() < 1e-12, "p999 of 100 samples is the max");
        assert!((s.max - 0.100).abs() < 1e-12);
        assert!((s.throughput - 50.0).abs() < 1e-12);
        assert!((s.goodput - 50.0).abs() < 1e-12);
    }

    #[test]
    fn p999_separates_from_max_at_scale() {
        // 2000 samples with one extreme outlier: p999 is the 1999th
        // sorted value, strictly below the max.
        let mut lat: Vec<f64> = (0..1999).map(|i| 1e-3 + i as f64 * 1e-7).collect();
        lat.push(10.0);
        let s = LatencySummary::from_latencies_with_shed(&lat, 1.0, 0);
        assert!(s.p999 < s.max, "p999 {} must exclude the outlier {}", s.p999, s.max);
        assert!(s.p99 <= s.p999);
    }

    #[test]
    fn single_sample_percentiles_collapse() {
        let s = LatencySummary::from_latencies_with_shed(&[0.25], 0.5, 0);
        assert_eq!(s.p50, 0.25);
        assert_eq!(s.p99, 0.25);
        assert_eq!(s.p999, 0.25);
        assert_eq!(s.mean, 0.25);
        assert_eq!(s.throughput, 2.0);
    }

    #[test]
    fn summary_is_order_invariant() {
        let a = LatencySummary::from_latencies_with_shed(&[0.3, 0.1, 0.2], 1.0, 0);
        let b = LatencySummary::from_latencies_with_shed(&[0.1, 0.2, 0.3], 1.0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn shed_accounting_splits_throughput_from_goodput() {
        // 3 completed + 7 shed over 2 seconds: the server resolved 5
        // requests per second but only 1.5 of them did useful work.
        let s = LatencySummary::from_latencies_with_shed(&[0.1, 0.2, 0.3], 2.0, 7);
        assert_eq!(s.n, 3);
        assert_eq!(s.admitted, 3);
        assert_eq!(s.shed, 7);
        assert!((s.throughput - 5.0).abs() < 1e-12);
        assert!((s.goodput - 1.5).abs() < 1e-12);
        assert!((s.shed_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn all_shed_run_still_accounts() {
        let s = LatencySummary::from_latencies_with_shed(&[], 1.0, 4);
        assert_eq!(s.n, 0);
        assert_eq!(s.shed, 4);
        assert_eq!(s.shed_fraction(), 1.0);
        assert!((s.throughput - 4.0).abs() < 1e-12);
        assert_eq!(s.goodput, 0.0);
    }
}
