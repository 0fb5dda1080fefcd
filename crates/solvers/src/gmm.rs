//! Gaussian mixture model fitted by expectation-maximization.
//!
//! The paper's first benchmark (Table 1): nonlinear clustering by EM,
//! with the approximate adders applied to the M-step *mean value*
//! computation (Table 2, "Adder Impact: Mean Value") and the QEM being
//! the Hamming distance of the final hard assignments against the Truth
//! run's assignments.

use approx_arith::ArithContext;
use approx_linalg::{decomp, stats, Matrix};

use approx_arith::rng::Pcg32;

use crate::datasets::ClusterDataset;
use crate::method::IterativeMethod;

/// Parameters of a `k`-component Gaussian mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct GmmState {
    /// Component means.
    pub means: Vec<Vec<f64>>,
    /// Component covariance matrices.
    pub covariances: Vec<Matrix>,
    /// Mixing weights (sum to 1).
    pub weights: Vec<f64>,
}

/// GMM-EM over a fixed point set, as an [`IterativeMethod`].
///
/// # Example
///
/// ```
/// use approx_arith::{ExactContext, EnergyProfile};
/// use iter_solvers::datasets::gaussian_blobs;
/// use iter_solvers::{GaussianMixture, IterativeMethod};
///
/// let data = gaussian_blobs(
///     "demo",
///     &[40, 40],
///     &[vec![0.0, 0.0], vec![6.0, 6.0]],
///     &[0.5, 0.5],
///     7,
/// );
/// let gmm = GaussianMixture::from_dataset(&data, 1e-8, 100, 42);
/// let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
/// let mut ctx = ExactContext::with_profile(profile);
/// let mut state = gmm.initial_state();
/// for _ in 0..50 {
///     let next = gmm.step(&state, &mut ctx);
///     let done = gmm.converged(&state, &next);
///     state = next;
///     if done { break; }
/// }
/// // Two tight, far-apart blobs: the fit must separate them perfectly.
/// let labels = gmm.assignments(&state);
/// assert_eq!(labels.iter().filter(|&&l| l == labels[0]).count(), 40);
/// ```
#[derive(Debug, Clone)]
pub struct GaussianMixture {
    points: Vec<Vec<f64>>,
    k: usize,
    tolerance: f64,
    max_iterations: usize,
    ridge: f64,
    initial: GmmState,
}

impl GaussianMixture {
    /// Create a model over raw points.
    ///
    /// Initialization is deterministic in `seed`: means are `k` distinct
    /// sample points, covariances start isotropic at the global variance,
    /// weights uniform — so every configuration of an experiment starts
    /// identically, as the paper's setup requires.
    ///
    /// # Panics
    /// Panics if there are fewer points than clusters, `k` is 0,
    /// `tolerance` is not positive, or `max_iterations` is 0.
    #[must_use]
    pub fn new(
        points: Vec<Vec<f64>>,
        k: usize,
        tolerance: f64,
        max_iterations: usize,
        seed: u64,
    ) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(points.len() >= k, "need at least k points");
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "iteration budget must be positive");
        let dim = points[0].len();
        assert!(
            points.iter().all(|p| p.len() == dim),
            "all points must have the same dimension"
        );
        // Deterministic initial means: k distinct random samples.
        let mut rng = Pcg32::seeded(seed, 2);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        while chosen.len() < k {
            let idx = rng.below(points.len() as u64) as usize;
            if !chosen.contains(&idx) {
                chosen.push(idx);
            }
        }
        let means: Vec<Vec<f64>> = chosen.iter().map(|&i| points[i].clone()).collect();
        // Global variance for the isotropic initial covariance.
        let n = points.len() as f64;
        let global_mean: Vec<f64> = (0..dim)
            .map(|d| points.iter().map(|p| p[d]).sum::<f64>() / n)
            .collect();
        let global_var: f64 = points
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&global_mean)
                    .map(|(&x, &m)| (x - m) * (x - m))
                    .sum::<f64>()
            })
            .sum::<f64>()
            / (n * dim as f64);
        let mut cov = Matrix::zeros(dim, dim);
        for d in 0..dim {
            cov[(d, d)] = global_var.max(1e-6);
        }
        let initial = GmmState {
            means,
            covariances: vec![cov; k],
            weights: vec![1.0 / k as f64; k],
        };
        Self {
            points,
            k,
            tolerance,
            max_iterations,
            ridge: 1e-6,
            initial,
        }
    }

    /// Create a model from a labelled dataset (labels are ignored; they
    /// are only used for external quality evaluation).
    #[must_use]
    pub fn from_dataset(
        dataset: &ClusterDataset,
        tolerance: f64,
        max_iterations: usize,
        seed: u64,
    ) -> Self {
        Self::new(
            dataset.points.clone(),
            dataset.k,
            tolerance,
            max_iterations,
            seed,
        )
    }

    /// Number of mixture components.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The point set being clustered.
    #[must_use]
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// Per-component `(inverse covariance, log det)` with progressive
    /// ridging if a covariance has degenerated.
    fn precisions(&self, state: &GmmState) -> Vec<(Matrix, f64)> {
        state
            .covariances
            .iter()
            .map(|cov| {
                let mut ridged = cov.clone();
                let mut ridge = 0.0;
                loop {
                    match (decomp::inverse(&ridged), decomp::determinant(&ridged)) {
                        (Ok(inv), Ok(det)) if det > 0.0 => {
                            return (inv, det.ln());
                        }
                        _ => {
                            ridge = if ridge == 0.0 { 1e-6 } else { ridge * 10.0 };
                            ridged = cov.clone();
                            for d in 0..ridged.rows() {
                                ridged[(d, d)] += ridge;
                            }
                            assert!(ridge < 1e6, "covariance could not be regularized: {cov}");
                        }
                    }
                }
            })
            .collect()
    }

    /// Exact responsibilities r\[n\]\[k\] (E-step, log-domain).
    #[must_use]
    pub fn responsibilities(&self, state: &GmmState) -> Vec<Vec<f64>> {
        let precisions = self.precisions(state);
        let dim = self.points[0].len() as f64;
        let log_norm = -0.5 * dim * (2.0 * std::f64::consts::PI).ln();
        self.points
            .iter()
            .map(|x| {
                let log_posts: Vec<f64> = (0..self.k)
                    .map(|c| {
                        let (inv, logdet) = &precisions[c];
                        let diff: Vec<f64> = x
                            .iter()
                            .zip(&state.means[c])
                            .map(|(&xi, &mi)| xi - mi)
                            .collect();
                        let q = approx_linalg::vector::dot_exact(&diff, &inv.matvec_exact(&diff));
                        state.weights[c].max(1e-300).ln() + log_norm - 0.5 * logdet - 0.5 * q
                    })
                    .collect();
                let max = log_posts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = log_posts.iter().map(|&lp| (lp - max).exp()).collect();
                let total: f64 = exps.iter().sum();
                exps.iter().map(|&e| e / total.max(1e-300)).collect()
            })
            .collect()
    }

    /// Hard assignments (argmax responsibility).
    #[must_use]
    pub fn assignments(&self, state: &GmmState) -> Vec<usize> {
        self.responsibilities(state)
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite responsibilities"))
                    .map(|(i, _)| i)
                    .expect("k > 0")
            })
            .collect()
    }
}

impl IterativeMethod for GaussianMixture {
    type State = GmmState;

    fn name(&self) -> &str {
        "gmm-em"
    }

    fn initial_state(&self) -> GmmState {
        self.initial.clone()
    }

    fn step(&self, state: &GmmState, ctx: &mut dyn ArithContext) -> GmmState {
        // E-step: exact (error-sensitive — drives all control flow).
        let resp = self.responsibilities(state);
        let n = self.points.len() as f64;
        let mut means = Vec::with_capacity(self.k);
        let mut covariances = Vec::with_capacity(self.k);
        let mut weights = Vec::with_capacity(self.k);
        for c in 0..self.k {
            let rc: Vec<f64> = resp.iter().map(|r| r[c]).collect();
            let nk: f64 = rc.iter().sum();
            // M-step mean: the approximate datapath (paper Table 2).
            let mean = stats::weighted_mean(ctx, &self.points, &rc)
                .unwrap_or_else(|| state.means[c].clone());
            // Covariance and weight: exact.
            let cov = stats::covariance_exact(&self.points, &mean, Some(&rc), self.ridge);
            means.push(mean);
            covariances.push(cov);
            weights.push((nk / n).max(1e-12));
        }
        // Renormalize weights after the floor.
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        GmmState {
            means,
            covariances,
            weights,
        }
    }

    /// Mean negative log-likelihood (exact).
    fn objective(&self, state: &GmmState) -> f64 {
        let precisions = self.precisions(state);
        let dim = self.points[0].len() as f64;
        let log_norm = -0.5 * dim * (2.0 * std::f64::consts::PI).ln();
        let mut nll = 0.0;
        for x in &self.points {
            let log_posts: Vec<f64> = (0..self.k)
                .map(|c| {
                    let (inv, logdet) = &precisions[c];
                    let diff: Vec<f64> = x
                        .iter()
                        .zip(&state.means[c])
                        .map(|(&xi, &mi)| xi - mi)
                        .collect();
                    let q = approx_linalg::vector::dot_exact(&diff, &inv.matvec_exact(&diff));
                    state.weights[c].max(1e-300).ln() + log_norm - 0.5 * logdet - 0.5 * q
                })
                .collect();
            let max = log_posts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = max
                + log_posts
                    .iter()
                    .map(|&lp| (lp - max).exp())
                    .sum::<f64>()
                    .ln();
            nll -= lse;
        }
        nll / self.points.len() as f64
    }

    /// Gradient of the mean NLL with respect to the flattened means:
    /// `∂/∂μ_c = (1/N) Σ_n r_{nc} Σ_c⁻¹ (μ_c − x_n)`.
    fn gradient(&self, state: &GmmState) -> Option<Vec<f64>> {
        let resp = self.responsibilities(state);
        let precisions = self.precisions(state);
        let dim = self.points[0].len();
        let n = self.points.len() as f64;
        let mut grad = Vec::with_capacity(self.k * dim);
        for c in 0..self.k {
            let (inv, _) = &precisions[c];
            let mut acc = vec![0.0; dim];
            for (x, r) in self.points.iter().zip(&resp) {
                let diff: Vec<f64> = state.means[c]
                    .iter()
                    .zip(x)
                    .map(|(&mi, &xi)| mi - xi)
                    .collect();
                let v = inv.matvec_exact(&diff);
                for (a, vi) in acc.iter_mut().zip(&v) {
                    *a += r[c] * vi;
                }
            }
            grad.extend(acc.iter().map(|a| a / n));
        }
        Some(grad)
    }

    fn params(&self, state: &GmmState) -> Vec<f64> {
        state.means.iter().flatten().copied().collect()
    }

    /// Converged when no mean coordinate moved more than the tolerance.
    fn converged(&self, prev: &GmmState, next: &GmmState) -> bool {
        prev.means
            .iter()
            .flatten()
            .zip(next.means.iter().flatten())
            .all(|(&a, &b)| (a - b).abs() < self.tolerance)
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gaussian_blobs;
    use crate::method::run_to_convergence as run;
    use crate::metrics::hamming_distance;
    use approx_arith::{AccuracyLevel, EnergyProfile, ExactContext, QcsContext};

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    fn small_data() -> ClusterDataset {
        gaussian_blobs(
            "small3",
            &[60, 60, 60],
            &[vec![0.0, 0.0], vec![7.0, 0.5], vec![3.5, 6.0]],
            &[0.9, 0.8, 1.0],
            11,
        )
    }

    #[test]
    fn exact_em_recovers_clusters() {
        let data = small_data();
        let gmm = GaussianMixture::from_dataset(&data, 1e-8, 200, 5);
        let mut ctx = ExactContext::with_profile(profile());
        let (state, iters) = run(&gmm, &mut ctx);
        assert!(iters < 200, "EM did not converge");
        let labels = gmm.assignments(&state);
        let qem = hamming_distance(&labels, &data.labels, 3);
        assert!(qem <= 2, "qem {qem}");
    }

    #[test]
    fn objective_decreases_under_exact_em() {
        let data = small_data();
        let gmm = GaussianMixture::from_dataset(&data, 1e-8, 50, 5);
        let mut ctx = ExactContext::with_profile(profile());
        let mut state = gmm.initial_state();
        let mut prev = gmm.objective(&state);
        for _ in 0..10 {
            state = gmm.step(&state, &mut ctx);
            let f = gmm.objective(&state);
            assert!(f <= prev + 1e-9, "NLL went up: {prev} -> {f}");
            prev = f;
        }
    }

    #[test]
    fn initialization_is_deterministic() {
        let data = small_data();
        let a = GaussianMixture::from_dataset(&data, 1e-8, 10, 5).initial_state();
        let b = GaussianMixture::from_dataset(&data, 1e-8, 10, 5).initial_state();
        assert_eq!(a, b);
        let c = GaussianMixture::from_dataset(&data, 1e-8, 10, 6).initial_state();
        assert_ne!(a.means, c.means);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let data = gaussian_blobs(
            "tiny",
            &[20, 20],
            &[vec![0.0, 0.0], vec![5.0, 5.0]],
            &[0.8, 0.8],
            3,
        );
        let gmm = GaussianMixture::from_dataset(&data, 1e-8, 10, 9);
        let state = gmm.initial_state();
        let grad = gmm.gradient(&state).unwrap();
        let h = 1e-6;
        for c in 0..2 {
            for d in 0..2 {
                let mut sp = state.clone();
                sp.means[c][d] += h;
                let mut sm = state.clone();
                sm.means[c][d] -= h;
                let fd = (gmm.objective(&sp) - gmm.objective(&sm)) / (2.0 * h);
                let g = grad[c * 2 + d];
                assert!(
                    (fd - g).abs() < 1e-4 * (1.0 + fd.abs()),
                    "component {c} dim {d}: fd {fd} vs analytic {g}"
                );
            }
        }
    }

    #[test]
    fn level1_damages_the_fit() {
        // Level 1's truncation quantum (2^4 in value units) exceeds the
        // data scale, so the M-step freezes almost instantly at a fit
        // whose likelihood is far from the converged one.
        let data = small_data();
        let gmm = GaussianMixture::from_dataset(&data, 1e-8, 200, 5);
        let mut exact_ctx = QcsContext::with_profile(profile());
        let (exact_state, _) = run(&gmm, &mut exact_ctx);
        let mut ctx = QcsContext::with_profile(profile());
        ctx.set_level(AccuracyLevel::Level1);
        let (state, iters) = run(&gmm, &mut ctx);
        assert!(iters < 10, "level1 should freeze quickly, took {iters}");
        assert!(
            gmm.objective(&state) > gmm.objective(&exact_state) + 0.1,
            "level1 NLL {} vs exact {}",
            gmm.objective(&state),
            gmm.objective(&exact_state)
        );
    }

    #[test]
    fn level4_is_much_better_than_level1() {
        let data = small_data();
        let nll_at = |level: AccuracyLevel| {
            let gmm = GaussianMixture::from_dataset(&data, 1e-8, 200, 5);
            let mut ctx = QcsContext::with_profile(profile());
            ctx.set_level(level);
            let (state, _) = run(&gmm, &mut ctx);
            (
                gmm.objective(&state),
                hamming_distance(&gmm.assignments(&state), &data.labels, 3),
            )
        };
        let (f1, _q1) = nll_at(AccuracyLevel::Level1);
        let (f4, q4) = nll_at(AccuracyLevel::Level4);
        assert!(f4 < f1, "level4 NLL {f4} !< level1 NLL {f1}");
        assert!(q4 <= 5, "level4 qem {q4}");
    }

    #[test]
    fn params_flatten_means() {
        let data = small_data();
        let gmm = GaussianMixture::from_dataset(&data, 1e-8, 10, 5);
        let state = gmm.initial_state();
        let params = gmm.params(&state);
        assert_eq!(params.len(), 6);
        assert_eq!(params[0], state.means[0][0]);
        assert_eq!(params[5], state.means[2][1]);
    }

    #[test]
    #[should_panic(expected = "at least k points")]
    fn too_few_points_panics() {
        let _ = GaussianMixture::new(vec![vec![0.0]], 2, 1e-6, 10, 1);
    }
}
