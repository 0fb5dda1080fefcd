//! Generic gradient descent as an [`IterativeMethod`].

use approx_arith::ArithContext;
use approx_linalg::vector;

use crate::functions::Objective;
use crate::method::IterativeMethod;

/// Fixed-step gradient descent `x^{k+1} = x^k − α ∇f(x^k)`.
///
/// Both the direction (via [`Objective::gradient_ctx`]) and the update
/// accumulation run on the arithmetic context, so direction error *and*
/// update error (§2.1 of the paper) are modelled.
///
/// # Example
///
/// ```
/// use approx_arith::{ExactContext, EnergyProfile};
/// use approx_linalg::Matrix;
/// use iter_solvers::functions::Quadratic;
/// use iter_solvers::{GradientDescent, IterativeMethod};
///
/// let q = Quadratic::new(Matrix::identity(2), vec![1.0, 2.0]);
/// let gd = GradientDescent::new(q, vec![0.0, 0.0], 0.5, 1e-12, 200);
/// let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
/// let mut ctx = ExactContext::with_profile(profile);
/// let mut x = gd.initial_state();
/// for _ in 0..100 {
///     x = gd.step(&x, &mut ctx);
/// }
/// assert!((x[0] - 1.0).abs() < 1e-9);
/// assert!((x[1] - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct GradientDescent<O> {
    objective: O,
    x0: Vec<f64>,
    step_size: f64,
    tolerance: f64,
    max_iterations: usize,
}

impl<O: Objective> GradientDescent<O> {
    /// Create a solver.
    ///
    /// # Panics
    /// Panics if `x0` does not match the objective's dimension, the step
    /// size or tolerance is not positive, or `max_iterations` is 0.
    #[must_use]
    pub fn new(
        objective: O,
        x0: Vec<f64>,
        step_size: f64,
        tolerance: f64,
        max_iterations: usize,
    ) -> Self {
        assert_eq!(x0.len(), objective.dim(), "x0 must match objective dim");
        assert!(step_size > 0.0, "step size must be positive");
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "iteration budget must be positive");
        Self {
            objective,
            x0,
            step_size,
            tolerance,
            max_iterations,
        }
    }

    /// The fixed step size α.
    #[must_use]
    pub fn step_size(&self) -> f64 {
        self.step_size
    }
}

impl<O: Objective> IterativeMethod for GradientDescent<O> {
    type State = Vec<f64>;

    fn name(&self) -> &str {
        "gradient-descent"
    }

    fn initial_state(&self) -> Vec<f64> {
        self.x0.clone()
    }

    fn step(&self, state: &Vec<f64>, ctx: &mut dyn ArithContext) -> Vec<f64> {
        let g = self.objective.gradient_ctx(state, ctx);
        vector::axpy(ctx, -self.step_size, &g, state)
    }

    fn objective(&self, state: &Vec<f64>) -> f64 {
        self.objective.value(state)
    }

    fn gradient(&self, state: &Vec<f64>) -> Option<Vec<f64>> {
        Some(self.objective.gradient(state))
    }

    fn params(&self, state: &Vec<f64>) -> Vec<f64> {
        state.clone()
    }

    fn converged(&self, prev: &Vec<f64>, next: &Vec<f64>) -> bool {
        vector::dist2_exact(prev, next) < self.tolerance
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{Quadratic, Rosenbrock};
    use crate::method::run_to_convergence as run;
    use approx_arith::{AccuracyLevel, EnergyProfile, ExactContext, QcsContext};
    use approx_linalg::Matrix;

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    #[test]
    fn converges_on_quadratic() {
        let a = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]);
        let q = Quadratic::new(a, vec![1.0, 1.0]);
        let want = q.minimizer();
        let gd = GradientDescent::new(q, vec![5.0, -5.0], 0.3, 1e-13, 2000);
        let mut ctx = ExactContext::with_profile(profile());
        let (x, iters) = run(&gd, &mut ctx);
        assert!(iters < 2000, "did not converge");
        assert!(vector::dist2_exact(&x, &want) < 1e-9);
    }

    #[test]
    fn makes_progress_on_rosenbrock() {
        let r = Rosenbrock::new(2);
        let gd = GradientDescent::new(r, vec![0.0, 0.0], 2e-3, 1e-12, 2000);
        let mut ctx = ExactContext::with_profile(profile());
        let f0 = gd.objective(&gd.initial_state());
        let (x, _) = run(&gd, &mut ctx);
        let f = gd.objective(&x);
        assert!(f.is_finite());
        assert!(f < f0 / 2.0, "f0 {f0} -> f {f}");
    }

    #[test]
    fn approximate_mode_converges_near_but_not_exactly() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let q = Quadratic::new(a, vec![2.0, -2.0]);
        let want = q.minimizer();
        let gd = GradientDescent::new(q, vec![10.0, 10.0], 0.25, 1e-13, 2000);
        let mut ctx = QcsContext::with_profile(profile());
        ctx.set_level(AccuracyLevel::Level4);
        let (x, iters) = run(&gd, &mut ctx);
        // The quantized datapath freezes the iterates near (but not at)
        // the optimum.
        assert!(iters < 2000);
        let dist = vector::dist2_exact(&x, &want);
        assert!(dist < 0.05, "dist {dist}");
    }

    #[test]
    fn coarse_approximation_is_worse_than_fine() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let q = Quadratic::new(a.clone(), vec![2.0, -2.0]);
        let want = q.minimizer();
        let dist_at = |level: AccuracyLevel| {
            let q = Quadratic::new(a.clone(), vec![2.0, -2.0]);
            let gd = GradientDescent::new(q, vec![10.0, 10.0], 0.25, 1e-13, 2000);
            let mut ctx = QcsContext::with_profile(profile());
            ctx.set_level(level);
            let (x, _) = run(&gd, &mut ctx);
            vector::dist2_exact(&x, &want)
        };
        assert!(dist_at(AccuracyLevel::Level1) > dist_at(AccuracyLevel::Level4));
    }

    #[test]
    #[should_panic(expected = "x0 must match")]
    fn wrong_dimension_panics() {
        let q = Quadratic::new(Matrix::identity(2), vec![0.0, 0.0]);
        let _ = GradientDescent::new(q, vec![0.0], 0.1, 1e-9, 10);
    }
}
