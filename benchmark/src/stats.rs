//! Order statistics over timing samples.

/// Nearest-rank percentile `p ∈ [0, 100]` of `samples` (0 when empty).
/// Sorts a copy: callers keep their samples in arrival order.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the midpoint rule for even counts (0 when empty) — the
/// same value Python's `statistics.median` gives, so a number printed
/// here can be compared with one the driver computes.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, 0 when the denominator is 0 (a layer that did no work).
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
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(|x| (x * 10) as f64).collect();
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(percentile(&[30.0, 10.0, 20.0], 50.0), 20.0);
    }

    #[test]
    fn median_uses_the_midpoint_for_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_tolerates_a_zero_denominator() {
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(ratio(6.0, 0.0), 0.0);
    }
}
