//! Newton's method as an [`IterativeMethod`].

use approx_arith::ArithContext;
use approx_linalg::{decomp, vector};

use crate::functions::Objective;
use crate::method::IterativeMethod;

/// Damped Newton's method `x^{k+1} = x^k − α (∇²f)⁻¹ ∇f`.
///
/// The direction solve `(∇²f) d = ∇f` is an error-sensitive kernel and
/// runs exactly; the parameter *update* runs on the arithmetic context
/// (the paper's "update error"). If the Hessian solve fails (singular or
/// unavailable), the step falls back to plain gradient descent with the
/// same damping — the recovery behaviour a robust implementation needs.
#[derive(Debug, Clone)]
pub struct NewtonMethod<O> {
    objective: O,
    x0: Vec<f64>,
    damping: f64,
    tolerance: f64,
    max_iterations: usize,
}

impl<O: Objective> NewtonMethod<O> {
    /// Create a solver.
    ///
    /// # Panics
    /// Panics if `x0` does not match the objective's dimension, `damping`
    /// is not in `(0, 1]`, the tolerance is not positive, or
    /// `max_iterations` is 0.
    #[must_use]
    pub fn new(
        objective: O,
        x0: Vec<f64>,
        damping: f64,
        tolerance: f64,
        max_iterations: usize,
    ) -> Self {
        assert_eq!(x0.len(), objective.dim(), "x0 must match objective dim");
        assert!(damping > 0.0 && damping <= 1.0, "damping must be in (0, 1]");
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "iteration budget must be positive");
        Self {
            objective,
            x0,
            damping,
            tolerance,
            max_iterations,
        }
    }
}

impl<O: Objective> IterativeMethod for NewtonMethod<O> {
    type State = Vec<f64>;

    fn name(&self) -> &str {
        "newton"
    }

    fn initial_state(&self) -> Vec<f64> {
        self.x0.clone()
    }

    fn step(&self, state: &Vec<f64>, ctx: &mut dyn ArithContext) -> Vec<f64> {
        let g = self.objective.gradient(state);
        let direction = self
            .objective
            .hessian(state)
            .and_then(|h| decomp::solve(&h, &g).ok())
            .unwrap_or_else(|| g.clone());
        // Update on the (possibly approximate) datapath.
        vector::axpy(ctx, -self.damping, &direction, state)
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
    use approx_arith::{EnergyProfile, ExactContext};
    use approx_linalg::Matrix;

    fn ctx() -> ExactContext {
        ExactContext::with_profile(EnergyProfile::from_constants(
            [1.0, 2.0, 3.0, 4.0, 5.0],
            50.0,
            100.0,
        ))
    }

    #[test]
    fn newton_solves_quadratic_in_one_undamped_step() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let q = Quadratic::new(a, vec![1.0, 4.0]);
        let want = q.minimizer();
        let newton = NewtonMethod::new(q, vec![10.0, -10.0], 1.0, 1e-12, 10);
        let mut c = ctx();
        let x1 = newton.step(&newton.initial_state(), &mut c);
        assert!(vector::dist2_exact(&x1, &want) < 1e-10);
    }

    #[test]
    fn newton_beats_gd_on_rosenbrock_iterations() {
        let newton = NewtonMethod::new(Rosenbrock::new(2), vec![-0.5, 0.5], 1.0, 1e-12, 200);
        let mut c = ctx();
        let (x, iters) = run(&newton, &mut c);
        assert!(iters < 100, "newton took {iters} iterations");
        assert!(vector::dist2_exact(&x, &[1.0, 1.0]) < 1e-6);
    }

    #[test]
    fn falls_back_to_gradient_when_hessian_missing() {
        // An objective without a Hessian.
        struct NoHess;
        impl Objective for NoHess {
            fn dim(&self) -> usize {
                1
            }
            fn value(&self, x: &[f64]) -> f64 {
                x[0] * x[0]
            }
            fn gradient(&self, x: &[f64]) -> Vec<f64> {
                vec![2.0 * x[0]]
            }
        }
        let newton = NewtonMethod::new(NoHess, vec![1.0], 0.25, 1e-12, 100);
        let mut c = ctx();
        let (x, _) = run(&newton, &mut c);
        assert!(x[0].abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "damping must be in")]
    fn zero_damping_panics() {
        let q = Quadratic::new(Matrix::identity(1), vec![0.0]);
        let _ = NewtonMethod::new(q, vec![0.0], 0.0, 1e-9, 10);
    }
}
