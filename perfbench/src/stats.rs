//! Order statistics used to summarise repeated measurements.

/// Sorted copy of `xs` (NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method). Needs at least two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail percentile of a sample, chosen so that the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The whole percentile reported (e.g. 98 for p98).
    pub percentile: u32,
    /// The sample at that percentile (nearest-rank).
    pub value: f64,
    /// How many samples lie beyond it (always at least ten).
    pub beyond: usize,
}

/// The highest whole percentile that has at least ten samples beyond it,
/// by the nearest-rank rule. `None` with fewer than eleven samples, which
/// cannot put ten samples beyond any of their own values.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let percentile = 100 * (n - 10) / n;
    // Nearest rank: the smallest rank covering `percentile`% of samples.
    let rank = (percentile * n).div_ceil(100).max(1);
    let v = sorted(xs);
    Some(Tail { percentile: u32::try_from(percentile).ok()?, value: v[rank - 1], beyond: n - rank })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples cannot have ten beyond any of them");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some(Tail { percentile: 9, value: 1.0, beyond: 10 }));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some(Tail { percentile: 90, value: 90.0, beyond: 10 }));
        // The figure matrix: 924 cells give p98 with 18 cells beyond.
        let cells: Vec<f64> = (1..=924).map(f64::from).collect();
        assert_eq!(tail(&cells), Some(Tail { percentile: 98, value: 906.0, beyond: 18 }));
    }

    #[test]
    fn tail_percentile_is_maximal_for_every_sample_count() {
        for n in 11..2_000usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&xs).expect("n >= 11");
            assert!(t.beyond >= 10, "n={n}: {t:?}");
            // One percentile higher would leave fewer than ten beyond.
            let next_rank = ((t.percentile as usize + 1) * n).div_ceil(100);
            assert!(t.percentile == 99 || n - next_rank < 10, "n={n}: {t:?}");
        }
    }
}
