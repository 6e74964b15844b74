//! Order statistics used by the report and the steadiness command.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile, lowered where needed so that at least
/// `beyond` samples lie above it: "p90" is the highest percentile up to
/// 90 with ten samples beyond it.  `None` with `beyond` or fewer samples.
pub fn tail_quantile(values: &[f64], q: f64, beyond: usize) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n <= beyond {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    Some(v[rank.min(n - 1 - beyond)])
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them.  `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the steadiness
/// figure the benchmark's bounds are checked against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    Some((q3 - q1) / med.abs())
}

/// Arithmetic mean (`0` for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: the 180th value, with 20 above it.
        assert_eq!(tail_quantile(&v, 0.9, 10), Some(180.0));
        // 100 samples: the 90th value has exactly ten above it.
        assert_eq!(tail_quantile(&v[..100], 0.9, 10), Some(90.0));
        // 50 samples: p90 would leave five beyond, so it drops to the
        // 40th value, the highest with ten beyond.
        assert_eq!(tail_quantile(&v[..50], 0.9, 10), Some(40.0));
        assert_eq!(tail_quantile(&v[..11], 0.9, 10), Some(1.0));
        assert_eq!(tail_quantile(&v[..10], 0.9, 10), None);
        // Input order does not matter.
        let mut r = v[..100].to_vec();
        r.reverse();
        assert_eq!(tail_quantile(&r, 0.9, 10), Some(90.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
    }
}
