//! Order statistics over pass timings.

/// Five-number summary of a sample set, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Quantile `k/4` of an ascending sample, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so the
/// spreads this binary prints are the ones the acceptance protocol takes.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let m = sorted.len();
    if m == 1 {
        return sorted[0];
    }
    let j = (k * (m + 1) / 4).clamp(1, m - 1);
    let delta = (k * (m + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarise a non-empty sample set.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Quartiles {
        median,
        q1: quartile(&sorted, 1),
        q3: quartile(&sorted, 3),
        min: sorted[0],
        max: sorted[n - 1],
        n,
    }
}

/// Median of a non-empty sample set.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// `num / den`, or 0 when nothing was counted in the denominator (a
/// workload with no run of some transport, no flood, no busy slot).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        assert_eq!((q.min, q.max, q.n), (1.0, 5.0, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past a two-point sample.
        let q = quartiles(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let q = quartiles(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
