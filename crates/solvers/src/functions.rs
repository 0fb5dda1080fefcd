//! Differentiable test objectives for the generic solvers.

use approx_arith::ArithContext;
use approx_linalg::Matrix;

/// A differentiable objective `f : ℝⁿ → ℝ`.
///
/// [`gradient_ctx`](Objective::gradient_ctx) lets an objective compute its
/// gradient on the approximate datapath (the paper's "direction error");
/// the default computes it exactly.
pub trait Objective {
    /// Problem dimension `n`.
    fn dim(&self) -> usize;

    /// Exact objective value.
    fn value(&self, x: &[f64]) -> f64;

    /// Exact gradient.
    fn gradient(&self, x: &[f64]) -> Vec<f64>;

    /// Gradient evaluated on the context's datapath (defaults to the
    /// exact gradient — override to model direction error).
    fn gradient_ctx(&self, x: &[f64], ctx: &mut dyn ArithContext) -> Vec<f64> {
        let _ = ctx;
        self.gradient(x)
    }
}

/// Convex quadratic `f(x) = ½ xᵀAx − bᵀx` with SPD `A`.
///
/// # Example
///
/// ```
/// use approx_linalg::Matrix;
/// use iter_solvers::functions::{Objective, Quadratic};
///
/// let q = Quadratic::new(Matrix::identity(2), vec![1.0, 2.0]);
/// // Minimum at x = A⁻¹ b = b.
/// assert_eq!(q.gradient(&[1.0, 2.0]), vec![0.0, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Quadratic {
    a: Matrix,
    b: Vec<f64>,
}

impl Quadratic {
    /// Create a quadratic objective.
    ///
    /// # Panics
    /// Panics if `a` is not square of order `b.len()` or not symmetric.
    #[must_use]
    pub fn new(a: Matrix, b: Vec<f64>) -> Self {
        assert_eq!(a.rows(), b.len(), "A and b dimensions must agree");
        assert!(a.is_symmetric(1e-9), "A must be symmetric");
        Self { a, b }
    }

    /// The exact minimizer `A⁻¹ b`.
    ///
    /// # Panics
    /// Panics if `A` is singular.
    #[must_use]
    pub fn minimizer(&self) -> Vec<f64> {
        approx_linalg::decomp::solve(&self.a, &self.b).expect("A is SPD")
    }
}

impl Objective for Quadratic {
    fn dim(&self) -> usize {
        self.b.len()
    }

    fn value(&self, x: &[f64]) -> f64 {
        let ax = self.a.matvec_exact(x);
        0.5 * approx_linalg::vector::dot_exact(x, &ax)
            - approx_linalg::vector::dot_exact(&self.b, x)
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let ax = self.a.matvec_exact(x);
        ax.iter().zip(&self.b).map(|(&axi, &bi)| axi - bi).collect()
    }

    fn gradient_ctx(&self, x: &[f64], ctx: &mut dyn ArithContext) -> Vec<f64> {
        let ax = self.a.matvec(ctx, x);
        let mut g = vec![0.0; ax.len()];
        ctx.sub_slice(&ax, &self.b, &mut g);
        g
    }
}

/// The Rosenbrock function, the classic non-convex banana valley:
/// `f(x, y) = (1−x)² + 100(y−x²)²`, generalized to `n` dimensions as a
/// sum of consecutive-pair terms. Minimum at `(1, …, 1)`.
#[derive(Debug, Clone, Copy)]
pub struct Rosenbrock {
    dim: usize,
}

impl Rosenbrock {
    /// Create an `n`-dimensional Rosenbrock objective.
    ///
    /// # Panics
    /// Panics if `dim < 2`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 2, "Rosenbrock needs at least two dimensions");
        Self { dim }
    }
}

impl Objective for Rosenbrock {
    fn dim(&self) -> usize {
        self.dim
    }

    fn value(&self, x: &[f64]) -> f64 {
        (0..self.dim - 1)
            .map(|i| {
                let a = 1.0 - x[i];
                let b = x[i + 1] - x[i] * x[i];
                a * a + 100.0 * b * b
            })
            .sum()
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; self.dim];
        for i in 0..self.dim - 1 {
            let b = x[i + 1] - x[i] * x[i];
            g[i] += -2.0 * (1.0 - x[i]) - 400.0 * x[i] * b;
            g[i + 1] += 200.0 * b;
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_grad(obj: &dyn Objective, x: &[f64]) -> Vec<f64> {
        let h = 1e-6;
        (0..x.len())
            .map(|i| {
                let mut xp = x.to_vec();
                let mut xm = x.to_vec();
                xp[i] += h;
                xm[i] -= h;
                (obj.value(&xp) - obj.value(&xm)) / (2.0 * h)
            })
            .collect()
    }

    #[test]
    fn quadratic_gradient_matches_finite_difference() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let q = Quadratic::new(a, vec![1.0, -1.0]);
        let x = [0.3, -0.7];
        let g = q.gradient(&x);
        let fd = finite_diff_grad(&q, &x);
        for (a, b) in g.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn quadratic_minimizer_has_zero_gradient() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let q = Quadratic::new(a, vec![2.0, 5.0]);
        let xs = q.minimizer();
        let g = q.gradient(&xs);
        assert!(approx_linalg::vector::norm2_exact(&g) < 1e-12);
    }

    #[test]
    fn rosenbrock_minimum_is_at_ones() {
        let r = Rosenbrock::new(4);
        let ones = vec![1.0; 4];
        assert_eq!(r.value(&ones), 0.0);
        assert!(approx_linalg::vector::norm2_exact(&r.gradient(&ones)) < 1e-12);
    }

    #[test]
    fn rosenbrock_gradient_matches_finite_difference() {
        let r = Rosenbrock::new(3);
        let x = [0.5, -0.2, 0.8];
        let g = r.gradient(&x);
        let fd = finite_diff_grad(&r, &x);
        for (a, b) in g.iter().zip(&fd) {
            assert!((a - b).abs() < 1e-4, "{g:?} vs {fd:?}");
        }
    }
}
