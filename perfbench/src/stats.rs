//! Order statistics over timing samples.

/// Median (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail statistic: the highest integer percentile `p` whose
/// nearest-rank value still has at least `beyond` samples above it.
/// Returns `(p, value)`.
///
/// # Panics
/// Panics if fewer than `beyond + 1` samples are given.
#[must_use]
pub fn tail(samples: &[f64], beyond: usize) -> (u32, f64) {
    let n = samples.len();
    assert!(
        n > beyond,
        "{n} samples cannot leave {beyond} beyond a percentile"
    );
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mut best = 1;
    for p in 1..100u32 {
        if n - rank(n, p) >= beyond {
            best = p;
        }
    }
    (best, s[rank(n, best) - 1])
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_the_requested_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), (90, 90.0));
        let ys: Vec<f64> = (1..=24).map(f64::from).collect();
        let (p, v) = tail(&ys, 10);
        assert_eq!(p, 58);
        assert_eq!(v, 14.0);
    }
}
