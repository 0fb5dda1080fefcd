//! ℓ2-regularized logistic regression fitted by IRLS.
//!
//! Iteratively reweighted least squares is Newton's method applied to
//! the logistic log-likelihood — the second-order iterative method the
//! paper names alongside gradient descent (§3.2). Each iteration solves
//! a weighted normal-equation system (error-sensitive, exact) and
//! applies the Newton update on the approximate datapath, so the
//! framework's update-error machinery is exercised by a genuinely
//! different iteration structure than the gradient methods.

use approx_arith::ArithContext;
use approx_linalg::{decomp, vector, Matrix};

use crate::method::IterativeMethod;

/// Logistic regression (labels ±1) trained by damped IRLS/Newton, as an
/// [`IterativeMethod`].
///
/// # Example
///
/// ```
/// use approx_arith::{EnergyProfile, ExactContext};
/// use iter_solvers::rng::Pcg32;
/// use iter_solvers::{IterativeMethod, LogisticIrls};
///
/// // Two separable 1-D classes.
/// let mut rng = Pcg32::seeded(3, 0);
/// let mut features = Vec::new();
/// let mut labels = Vec::new();
/// for sign in [-1.0f64, 1.0] {
///     for _ in 0..40 {
///         features.push(vec![rng.gaussian(2.0 * sign, 0.8), 1.0]);
///         labels.push(sign);
///     }
/// }
/// let model = LogisticIrls::new(features, labels, 1e-2, 1e-9, 50);
/// let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
/// let mut ctx = ExactContext::with_profile(profile);
/// let mut w = model.initial_state();
/// for _ in 0..10 {
///     w = model.step(&w, &mut ctx);
/// }
/// assert!(model.accuracy(&w) > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct LogisticIrls {
    features: Vec<Vec<f64>>,
    labels: Vec<f64>,
    ridge: f64,
    tolerance: f64,
    max_iterations: usize,
}

impl LogisticIrls {
    /// Create a model over feature rows and ±1 labels.
    ///
    /// # Panics
    /// Panics if the data is empty or ragged, a label is not ±1, the
    /// ridge or tolerance is not positive, or `max_iterations` is 0.
    #[must_use]
    pub fn new(
        features: Vec<Vec<f64>>,
        labels: Vec<f64>,
        ridge: f64,
        tolerance: f64,
        max_iterations: usize,
    ) -> Self {
        assert!(!features.is_empty(), "at least one sample is required");
        let d = features[0].len();
        assert!(d > 0, "at least one feature is required");
        assert!(features.iter().all(|r| r.len() == d), "ragged features");
        assert_eq!(features.len(), labels.len(), "one label per sample");
        assert!(
            labels.iter().all(|&y| y == 1.0 || y == -1.0),
            "labels must be +1 or -1"
        );
        assert!(ridge > 0.0, "ridge must be positive");
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "iteration budget must be positive");
        Self {
            features,
            labels,
            ridge,
            tolerance,
            max_iterations,
        }
    }

    /// Feature dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.features[0].len()
    }

    /// Training accuracy of a weight vector.
    #[must_use]
    pub fn accuracy(&self, w: &[f64]) -> f64 {
        let correct = self
            .features
            .iter()
            .zip(&self.labels)
            .filter(|(x, &y)| vector::dot_exact(x, w) * y > 0.0)
            .count();
        correct as f64 / self.labels.len() as f64
    }

    fn sigmoid(z: f64) -> f64 {
        1.0 / (1.0 + (-z).exp())
    }
}

impl IterativeMethod for LogisticIrls {
    type State = Vec<f64>;

    fn name(&self) -> &str {
        "logistic-irls"
    }

    fn initial_state(&self) -> Vec<f64> {
        vec![0.0; self.dim()]
    }

    fn step(&self, w: &Vec<f64>, ctx: &mut dyn ArithContext) -> Vec<f64> {
        let d = self.dim();
        let n = self.labels.len() as f64;
        // Gradient accumulation on the approximate datapath.
        let mut grad = vec![0.0; d];
        // Hessian (XᵀWX) built exactly — it feeds a pivoted solve.
        let mut hess = Matrix::zeros(d, d);
        for (x, &y) in self.features.iter().zip(&self.labels) {
            let margin = ctx.dot(x, w);
            let prob = Self::sigmoid(y * margin); // exact transcendental
            let coeff = -y * (1.0 - prob) / n;
            vector::axpy_assign(ctx, &mut grad, coeff, x);
            let weight = prob * (1.0 - prob) / n;
            for i in 0..d {
                for j in 0..d {
                    hess[(i, j)] += weight * x[i] * x[j];
                }
            }
        }
        vector::axpy_assign(ctx, &mut grad, self.ridge, w);
        for i in 0..d {
            hess[(i, i)] += self.ridge;
        }
        // Newton direction: exact solve (error-sensitive kernel), update
        // on the datapath.
        let direction = decomp::solve(&hess, &grad).unwrap_or_else(|_| grad.clone());
        vector::axpy(ctx, -1.0, &direction, w)
    }

    /// Mean regularized logistic loss (exact).
    fn objective(&self, w: &Vec<f64>) -> f64 {
        let n = self.labels.len() as f64;
        let loss: f64 = self
            .features
            .iter()
            .zip(&self.labels)
            .map(|(x, &y)| {
                let margin = vector::dot_exact(x, w);
                // ln(1 + e^{-ym}) computed stably.
                let z = -y * margin;
                if z > 30.0 {
                    z
                } else {
                    z.exp().ln_1p()
                }
            })
            .sum::<f64>()
            / n;
        loss + 0.5 * self.ridge * vector::dot_exact(w, w)
    }

    fn gradient(&self, w: &Vec<f64>) -> Option<Vec<f64>> {
        let d = self.dim();
        let n = self.labels.len() as f64;
        let mut g = vec![0.0; d];
        for (x, &y) in self.features.iter().zip(&self.labels) {
            let margin = vector::dot_exact(x, w);
            let coeff = -y * (1.0 - Self::sigmoid(y * margin)) / n;
            for (gi, &xi) in g.iter_mut().zip(x) {
                *gi += coeff * xi;
            }
        }
        for (gi, &wi) in g.iter_mut().zip(w) {
            *gi += self.ridge * wi;
        }
        Some(g)
    }

    fn params(&self, w: &Vec<f64>) -> Vec<f64> {
        w.clone()
    }

    fn converged(&self, prev: &Vec<f64>, next: &Vec<f64>) -> bool {
        prev.iter()
            .zip(next)
            .all(|(&a, &b)| (a - b).abs() < self.tolerance)
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::run_to_convergence as run;
    use crate::rng::Pcg32;
    use approx_arith::{AccuracyLevel, ArithContext, EnergyProfile, ExactContext, QcsContext};

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    fn two_blobs(n: usize, gap: f64, seed: u64) -> LogisticIrls {
        let mut rng = Pcg32::seeded(seed, 0);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for sign in [-1.0f64, 1.0] {
            for _ in 0..n {
                features.push(vec![
                    rng.gaussian(sign * gap, 1.0),
                    rng.gaussian(sign * gap * 0.6, 1.0),
                    1.0,
                ]);
                labels.push(sign);
            }
        }
        LogisticIrls::new(features, labels, 1e-2, 1e-9, 100)
    }

    #[test]
    fn irls_converges_in_few_iterations() {
        let model = two_blobs(80, 1.5, 7);
        let mut ctx = ExactContext::with_profile(profile());
        let (w, iters) = run(&model, &mut ctx);
        assert!(iters < 25, "IRLS took {iters} iterations");
        assert!(model.accuracy(&w) > 0.9, "accuracy {}", model.accuracy(&w));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let model = two_blobs(30, 1.0, 11);
        let w = vec![0.3, -0.2, 0.1];
        let g = model.gradient(&w).expect("gradient available");
        let h = 1e-6;
        for i in 0..3 {
            let mut wp = w.clone();
            wp[i] += h;
            let mut wm = w.clone();
            wm[i] -= h;
            let fd = (model.objective(&wp) - model.objective(&wm)) / (2.0 * h);
            assert!((fd - g[i]).abs() < 1e-5, "dim {i}: {fd} vs {}", g[i]);
        }
    }

    #[test]
    fn gradient_vanishes_at_convergence() {
        let model = two_blobs(60, 1.2, 13);
        let mut ctx = ExactContext::with_profile(profile());
        let (w, _) = run(&model, &mut ctx);
        let g = model.gradient(&w).expect("gradient available");
        assert!(vector::norm2_exact(&g) < 1e-7);
    }

    #[test]
    fn objective_decreases_under_exact_irls() {
        let model = two_blobs(50, 1.0, 17);
        let mut ctx = ExactContext::with_profile(profile());
        let mut w = model.initial_state();
        let mut prev = model.objective(&w);
        for _ in 0..8 {
            w = model.step(&w, &mut ctx);
            let f = model.objective(&w);
            assert!(f <= prev + 1e-9, "loss rose {prev} -> {f}");
            prev = f;
        }
    }

    #[test]
    fn approximate_irls_preserves_classification_quality() {
        // Quantized Newton steps drift the coefficient *scale* (the
        // near-converged gradients fall below the approximation grid),
        // but the decision boundary — the quantity that matters — stays
        // put: accuracy tracks the exact fit.
        let model = two_blobs(60, 1.2, 19);
        let mut exact_ctx = ExactContext::with_profile(profile());
        let (w_exact, _) = run(&model, &mut exact_ctx);
        let exact_acc = model.accuracy(&w_exact);
        let mut ctx = QcsContext::with_profile(profile());
        ctx.set_level(AccuracyLevel::Level4);
        let (w4, iters) = run(&model, &mut ctx);
        assert!(iters < 100, "level4 IRLS never froze");
        let acc = model.accuracy(&w4);
        assert!(
            acc >= exact_acc - 0.03,
            "level4 accuracy {acc} vs exact {exact_acc}"
        );
    }

    #[test]
    #[should_panic(expected = "labels must be")]
    fn non_binary_labels_panic() {
        let _ = LogisticIrls::new(vec![vec![1.0]], vec![0.5], 1e-2, 1e-9, 10);
    }
}
