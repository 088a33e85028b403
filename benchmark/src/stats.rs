//! Order statistics the metrics are built from.

/// Samples a percentile needs beyond it before it may be reported: a
/// tail figure resting on fewer is the position of a handful of
/// outliers, not a property of the system.
pub const MIN_BEYOND: usize = 10;

/// Why [`supported_percentile`] declined to answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub beyond: usize,
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: `ceil(p/100 * n)`, at least 1.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The value of 1-based `rank` in the union of `parts`, each sorted
/// ascending — percentiles over several connections' samples without
/// copying them into one array.
fn select(parts: &[&[f64]], rank: usize) -> f64 {
    let mut heads = vec![0usize; parts.len()];
    let mut value = f64::NAN;
    for _ in 0..rank {
        let (part, _) = parts
            .iter()
            .enumerate()
            .filter(|(i, p)| heads[*i] < p.len())
            .map(|(i, p)| (i, p[heads[i]]))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("rank is within the union");
        value = parts[part][heads[part]];
        heads[part] += 1;
    }
    value
}

/// Nearest-rank percentile of the union of sorted `parts`.
pub fn percentile_of_parts(parts: &[&[f64]], p: f64) -> f64 {
    let n: usize = parts.iter().map(|p| p.len()).sum();
    assert!(n > 0, "percentile of no samples");
    select(parts, nearest_rank(n, p))
}

/// [`percentile_of_parts`], refused unless at least [`MIN_BEYOND`]
/// samples lie beyond its rank.
pub fn supported_percentile(parts: &[&[f64]], p: f64) -> Result<f64, TooFewSamples> {
    let n: usize = parts.iter().map(|p| p.len()).sum();
    let beyond = if n == 0 { 0 } else { n - nearest_rank(n, p) };
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { samples: n, beyond });
    }
    Ok(percentile_of_parts(parts, p))
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the acceptance rule for this
/// benchmark is stated in those terms, so `compare` and the run-to-run
/// spread use the same arithmetic. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 below two samples
/// or for a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let Some((q1, q3)) = quartiles(values) else { return 0.0 };
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile_of_parts(&[&v], 50.0), 50.0);
        assert_eq!(percentile_of_parts(&[&v], 95.0), 95.0);
        assert_eq!(percentile_of_parts(&[&v], 100.0), 100.0);
        // ceil(0.95 * 20) = 19.
        assert_eq!(percentile_of_parts(&[&ramp(20)], 95.0), 19.0);
        // A single sample is every percentile.
        assert_eq!(percentile_of_parts(&[&[7.0]], 1.0), 7.0);
        assert_eq!(percentile_of_parts(&[&[7.0]], 99.0), 7.0);
    }

    #[test]
    fn a_tail_with_fewer_than_ten_samples_beyond_is_refused() {
        // p95 of 200 has rank 190: exactly ten beyond.
        assert_eq!(supported_percentile(&[&ramp(200)], 95.0), Ok(190.0));
        assert_eq!(
            supported_percentile(&[&ramp(199)], 95.0),
            Err(TooFewSamples { samples: 199, beyond: 9 })
        );
        // The samples of two connections count together.
        assert_eq!(supported_percentile(&[&ramp(100), &ramp(100)], 95.0), Ok(95.0));
        // p99 needs a thousand.
        assert!(supported_percentile(&[&ramp(999)], 99.0).is_err());
        assert_eq!(supported_percentile(&[&ramp(1000)], 99.0), Ok(990.0));
        assert_eq!(supported_percentile(&[], 50.0), Err(TooFewSamples { samples: 0, beyond: 0 }));
    }

    #[test]
    fn percentiles_of_a_union_match_the_pooled_array() {
        let a: Vec<f64> = (0..130).map(|i| (i * 7 % 101) as f64).collect();
        let b: Vec<f64> = (0..90).map(|i| (i * 13 % 97) as f64 + 0.5).collect();
        let pooled = sorted(a.iter().chain(&b).copied().collect());
        let (a, b) = (sorted(a), sorted(b));
        for p in [1.0, 50.0, 95.0, 99.0, 100.0] {
            let rank = nearest_rank(pooled.len(), p);
            assert_eq!(percentile_of_parts(&[&a, &b], p), pooled[rank - 1], "p{p}");
        }
        assert_eq!(percentile_of_parts(&[&[], &[4.0]], 50.0), 4.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
