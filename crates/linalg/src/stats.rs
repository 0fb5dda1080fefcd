//! Statistical kernels: means and covariances over point sets.
//!
//! The *mean* accumulations are context-routed — they are exactly the
//! "Mean Value" datapath the paper scales on approximate adders for the
//! GMM benchmark (its Table 2). Covariance estimation stays exact: it
//! feeds matrix inversions, which the resilience partitioning marks
//! error-sensitive.

use approx_arith::ArithContext;

use crate::matrix::Matrix;

/// Mean of a set of points (rows of equal dimension), fully on the
/// context's datapath — including the final division, so at approximate
/// levels the result is quantized to the datapath's fixed-point format
/// (exactly like hardware, where a sub-resolution update vanishes and
/// the iteration freezes).
///
/// # Panics
/// Panics if `points` is empty or the rows have unequal lengths.
///
/// # Example
///
/// ```
/// use approx_arith::{ExactContext, EnergyProfile};
/// use approx_linalg::stats;
///
/// let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
/// let mut ctx = ExactContext::with_profile(profile);
/// let pts = [vec![1.0, 0.0], vec![3.0, 4.0]];
/// assert_eq!(stats::mean(&mut ctx, &pts), vec![2.0, 2.0]);
/// ```
#[must_use]
pub fn mean(ctx: &mut dyn ArithContext, points: &[Vec<f64>]) -> Vec<f64> {
    assert!(
        !points.is_empty(),
        "mean of an empty point set is undefined"
    );
    let dim = points[0].len();
    let mut acc = vec![0.0; dim];
    for p in points {
        assert_eq!(p.len(), dim, "all points must have the same dimension");
        ctx.add_assign_slice(&mut acc, p);
    }
    let n = points.len() as f64;
    acc.iter().map(|&a| ctx.div(a, n)).collect()
}

/// Weighted mean `Σ wᵢ·xᵢ / Σ wᵢ`, entirely on the context's datapath
/// (accumulations *and* the final division) — the M-step mean update of
/// GMM-EM. At approximate levels the result is quantized to the
/// datapath's fixed-point format.
///
/// Returns `None` if the total weight is not strictly positive (an empty
/// soft cluster).
///
/// # Panics
/// Panics if the lengths differ, `points` is empty, or rows have unequal
/// dimensions.
#[must_use]
pub fn weighted_mean(
    ctx: &mut dyn ArithContext,
    points: &[Vec<f64>],
    weights: &[f64],
) -> Option<Vec<f64>> {
    assert!(
        !points.is_empty(),
        "weighted mean of an empty set is undefined"
    );
    assert_eq!(points.len(), weights.len(), "one weight per point required");
    let dim = points[0].len();
    let n = points.len();
    // One fused sum for the total weight, then the per-dimension
    // accumulations `acc[d] = Σₙ wₙ·xₙ[d]` as a single matvec over the
    // transposed point set. Each chain folds left-to-right in point
    // order exactly like the historical interleaved per-point axpy loop
    // (`mul` is commutative on every datapath), so values, op counts
    // and energy are bit-identical to that formulation.
    let total = ctx.sum_slice(weights);
    let mut pt = vec![0.0; dim * n];
    for (idx, p) in points.iter().enumerate() {
        assert_eq!(p.len(), dim, "all points must have the same dimension");
        for (d, &v) in p.iter().enumerate() {
            pt[d * n + idx] = v;
        }
    }
    let mut acc = vec![0.0; dim];
    ctx.matvec_slice(&pt, n, weights, &mut acc);
    if total <= 0.0 {
        return None;
    }
    Some(acc.iter().map(|&a| ctx.div(a, total)).collect())
}

/// Exact sample covariance of a point set around a given mean, with
/// optional weights (unnormalized responsibilities) and a diagonal
/// regularizer `ridge` added for numerical safety.
///
/// # Panics
/// Panics if `points` is empty, dimensions are inconsistent, or
/// `weights` (when given) has the wrong length.
#[must_use]
pub fn covariance_exact(
    points: &[Vec<f64>],
    mean: &[f64],
    weights: Option<&[f64]>,
    ridge: f64,
) -> Matrix {
    assert!(
        !points.is_empty(),
        "covariance of an empty set is undefined"
    );
    let dim = mean.len();
    if let Some(w) = weights {
        assert_eq!(w.len(), points.len(), "one weight per point required");
    }
    // Accumulates into the flat row-major entries; `Matrix`'s `IndexMut`
    // would check the index and drop the operand cache on every add.
    let mut cov = vec![0.0; dim * dim];
    let mut total = 0.0;
    for (idx, p) in points.iter().enumerate() {
        assert_eq!(p.len(), dim, "all points must have the same dimension");
        let w = weights.map_or(1.0, |ws| ws[idx]);
        total += w;
        for (row, (&pi, &mi)) in cov.chunks_exact_mut(dim).zip(p.iter().zip(mean)) {
            let di = pi - mi;
            for (c, (&pj, &mj)) in row.iter_mut().zip(p.iter().zip(mean)) {
                *c += w * di * (pj - mj);
            }
        }
    }
    let denom = if total > 0.0 { total } else { 1.0 };
    for (i, row) in cov.chunks_exact_mut(dim).enumerate() {
        for c in row.iter_mut() {
            *c /= denom;
        }
        row[i] += ridge;
    }
    Matrix::from_vec(dim, dim, cov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::{AccuracyLevel, EnergyProfile, ExactContext, QcsContext};

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    #[test]
    fn mean_of_grid() {
        let mut ctx = ExactContext::with_profile(profile());
        let pts = vec![
            vec![0.0, 0.0],
            vec![2.0, 0.0],
            vec![0.0, 2.0],
            vec![2.0, 2.0],
        ];
        assert_eq!(mean(&mut ctx, &pts), vec![1.0, 1.0]);
    }

    #[test]
    fn weighted_mean_matches_unweighted_for_unit_weights() {
        let mut ctx = ExactContext::with_profile(profile());
        let pts = vec![vec![1.0], vec![2.0], vec![6.0]];
        let w = vec![1.0, 1.0, 1.0];
        let wm = weighted_mean(&mut ctx, &pts, &w).unwrap();
        assert_eq!(wm, vec![3.0]);
    }

    #[test]
    fn weighted_mean_respects_weights() {
        let mut ctx = ExactContext::with_profile(profile());
        let pts = vec![vec![0.0], vec![10.0]];
        let wm = weighted_mean(&mut ctx, &pts, &[3.0, 1.0]).unwrap();
        assert_eq!(wm, vec![2.5]);
    }

    #[test]
    fn empty_soft_cluster_yields_none() {
        let mut ctx = ExactContext::with_profile(profile());
        let pts = vec![vec![1.0], vec![2.0]];
        assert!(weighted_mean(&mut ctx, &pts, &[0.0, 0.0]).is_none());
    }

    #[test]
    fn approximate_mean_is_biased_but_bounded() {
        let mut ctx = QcsContext::with_profile(profile());
        ctx.set_level(AccuracyLevel::Level4);
        let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i) / 10.0]).collect();
        let approx = mean(&mut ctx, &pts);
        let exact = 4.95;
        // Level 4 corrupts the low 11 of 16 fraction bits: per-add error
        // ≤ 2^-5 · 2, accumulated over 100 adds, divided by 100 (with a
        // quantized division).
        assert!((approx[0] - exact).abs() < 0.1, "mean {}", approx[0]);
        assert_ne!(approx[0], exact); // but it *is* approximate
    }

    #[test]
    fn covariance_of_isotropic_cloud() {
        let pts = vec![
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
        ];
        let cov = covariance_exact(&pts, &[0.0, 0.0], None, 0.0);
        assert!((cov[(0, 0)] - 0.5).abs() < 1e-14);
        assert!((cov[(1, 1)] - 0.5).abs() < 1e-14);
        assert!(cov[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn ridge_keeps_covariance_invertible() {
        // All points identical: zero covariance without the ridge.
        let pts = vec![vec![2.0, 2.0]; 5];
        let cov = covariance_exact(&pts, &[2.0, 2.0], None, 1e-6);
        assert!(crate::decomp::cholesky(&cov).is_ok());
    }

    #[test]
    fn weighted_covariance_ignores_zero_weight_points() {
        let pts = vec![vec![0.0], vec![100.0]];
        let cov = covariance_exact(&pts, &[0.0], Some(&[1.0, 0.0]), 0.0);
        assert!(cov[(0, 0)].abs() < 1e-14);
    }

    #[test]
    fn covariance_matches_the_indexed_loop_bit_for_bit() {
        let pool = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            1.5,
            -2.25,
            3e-3,
            -7e5,
        ];
        let mut rng = approx_arith::rng::Pcg32::seeded(41, 9);
        let draw = |rng: &mut approx_arith::rng::Pcg32| match rng.next_u32() % 3 {
            0 => pool[rng.next_u32() as usize % pool.len()],
            _ => rng.uniform(-4.0, 4.0),
        };
        for dim in 1..=5 {
            for count in [1, 2, 7, 40] {
                let points: Vec<Vec<f64>> = (0..count)
                    .map(|_| (0..dim).map(|_| draw(&mut rng)).collect())
                    .collect();
                let mean: Vec<f64> = (0..dim).map(|_| draw(&mut rng)).collect();
                // Zero, subnormal, unit and non-unit weights.
                let weights: Vec<f64> = (0..count)
                    .map(|_| match rng.next_u32() % 4 {
                        0 => 0.0,
                        1 => f64::from_bits(3),
                        2 => 1.0,
                        _ => rng.uniform(0.0, 2.0),
                    })
                    .collect();
                for w in [None, Some(&weights[..])] {
                    for ridge in [0.0, 1e-6] {
                        // The loop `covariance_exact` had before it
                        // wrote through row slices.
                        let mut want = Matrix::zeros(dim, dim);
                        let mut total = 0.0;
                        for (idx, p) in points.iter().enumerate() {
                            let wt = w.map_or(1.0, |ws| ws[idx]);
                            total += wt;
                            for i in 0..dim {
                                let di = p[i] - mean[i];
                                for j in 0..dim {
                                    want[(i, j)] += wt * di * (p[j] - mean[j]);
                                }
                            }
                        }
                        let denom = if total > 0.0 { total } else { 1.0 };
                        for i in 0..dim {
                            for j in 0..dim {
                                want[(i, j)] /= denom;
                            }
                            want[(i, i)] += ridge;
                        }
                        let got = covariance_exact(&points, &mean, w, ridge);
                        let bits = |m: &Matrix| {
                            m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        };
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "d = {dim}, {count} points, weighted {}, ridge {ridge}",
                            w.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mean_of_empty_panics() {
        let mut ctx = ExactContext::with_profile(profile());
        let _ = mean(&mut ctx, &[]);
    }
}
