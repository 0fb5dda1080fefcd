//! Damped Jacobi iteration over any [`LinearOperator`].
//!
//! The solver reads the operator's
//! [`diagonal`](LinearOperator::diagonal) probe and runs the matvec,
//! the residual and the update on the arithmetic context. Jacobi
//! converges whenever the damped iteration matrix contracts (e.g.
//! strictly diagonally dominant systems) and is the smoother of choice
//! inside multigrid. On `CsrMatrix::poisson5` with a
//! [`PoissonSource`](crate::datasets::PoissonSource) right-hand side it
//! is the paper's PDE workload.
//!
//! Each step rounds the relaxed value `(rᵢ + dᵢxᵢ)/dᵢ` once instead of
//! adding a separately rounded `rᵢ/dᵢ` to `xᵢ`: on a datapath that
//! rounds half away from zero, that extra rounding biases negative
//! residuals into a limit cycle the accurate run never leaves
//! (DESIGN.md §15).

use approx_arith::ArithContext;
use approx_linalg::{vector, LinearOperator};

use crate::method::IterativeMethod;

/// Damped Jacobi on `A x = b` for any square [`LinearOperator`], as an
/// [`IterativeMethod`].
///
/// # Example
///
/// ```
/// use approx_arith::ExactContext;
/// use approx_linalg::CsrMatrix;
/// use iter_solvers::{IterativeMethod, Jacobi};
///
/// // Strictly diagonally dominant 2×2 system.
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
/// let jac = Jacobi::new(a, vec![1.0, 2.0], 1.0, 1e-12, 500);
/// let mut ctx = ExactContext::new();
/// let mut state = jac.initial_state();
/// for _ in 0..100 {
///     state = jac.step(&state, &mut ctx);
/// }
/// assert!((state[0] - 1.0 / 11.0).abs() < 1e-9);
/// assert!((state[1] - 7.0 / 11.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Jacobi<A> {
    a: A,
    b: Vec<f64>,
    /// Diagonal of `A`, captured exactly at construction.
    diag: Vec<f64>,
    omega: f64,
    tolerance: f64,
    max_iterations: usize,
}

impl<A: LinearOperator> Jacobi<A> {
    /// Create a damped Jacobi solver for `A x = b`.
    ///
    /// # Panics
    /// Panics if `A` is not square of order `b.len()`, any diagonal
    /// entry is zero, `omega` is outside `(0, 1]`, the tolerance is not
    /// positive, or `max_iterations` is 0.
    #[must_use]
    pub fn new(a: A, b: Vec<f64>, omega: f64, tolerance: f64, max_iterations: usize) -> Self {
        assert_eq!(a.order(), b.len(), "A and b dimensions must agree");
        assert!(
            omega > 0.0 && omega <= 1.0,
            "damping must be in (0, 1] (got {omega})"
        );
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "iteration budget must be positive");
        let diag = a.diagonal();
        assert!(
            diag.iter().all(|&d| d != 0.0),
            "Jacobi needs a zero-free diagonal"
        );
        Self {
            a,
            b,
            diag,
            omega,
            tolerance,
            max_iterations,
        }
    }

    /// The system operator `A`.
    #[must_use]
    pub fn operator(&self) -> &A {
        &self.a
    }

    /// The right-hand side `b`.
    #[must_use]
    pub fn rhs(&self) -> &[f64] {
        &self.b
    }

    /// Exact residual `b − Ax` (monitoring).
    #[must_use]
    pub fn exact_residual(&self, x: &[f64]) -> Vec<f64> {
        self.a
            .matvec_exact(x)
            .iter()
            .zip(&self.b)
            .map(|(&axi, &bi)| bi - axi)
            .collect()
    }
}

impl<A: LinearOperator> IterativeMethod for Jacobi<A> {
    type State = Vec<f64>;

    fn name(&self) -> &str {
        "jacobi"
    }

    fn initial_state(&self) -> Vec<f64> {
        vec![0.0; self.b.len()]
    }

    /// One damped sweep: `r = b − Ax`, then per row the relaxed value
    /// `(rᵢ + dᵢxᵢ)/dᵢ`, then `(1 − ω)·x + ω·relaxed`.
    fn step(&self, x: &Vec<f64>, ctx: &mut dyn ArithContext) -> Vec<f64> {
        let n = x.len();
        let mut ax = vec![0.0; n];
        self.a.apply(ctx, x, &mut ax);
        let mut r = vec![0.0; n];
        ctx.sub_slice(&self.b, &ax, &mut r);
        let mut relaxed = vec![0.0; n];
        for (((out, &ri), &di), &xi) in relaxed.iter_mut().zip(&r).zip(&self.diag).zip(x) {
            let dx = ctx.mul(di, xi);
            let acc = ctx.add(ri, dx);
            *out = ctx.div(acc, di);
        }
        let mut kept = vec![0.0; n];
        ctx.scale_slice(1.0 - self.omega, x, &mut kept);
        let mut push = vec![0.0; n];
        ctx.scale_slice(self.omega, &relaxed, &mut push);
        let mut next = vec![0.0; n];
        ctx.add_slice(&kept, &push, &mut next);
        next
    }

    /// Exact residual 2-norm `‖b − Ax‖₂` (monitoring).
    fn objective(&self, x: &Vec<f64>) -> f64 {
        vector::norm2_exact(&self.exact_residual(x))
    }

    /// `Ax − b`, the gradient of the energy functional `½xᵀAx − bᵀx`
    /// for symmetric `A`; the controller uses it to tell a converged
    /// iterate from a frozen one.
    fn gradient(&self, x: &Vec<f64>) -> Option<Vec<f64>> {
        Some(self.exact_residual(x).iter().map(|r| -r).collect())
    }

    fn params(&self, x: &Vec<f64>) -> Vec<f64> {
        x.clone()
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
    use crate::datasets::PoissonSource;
    use crate::method::{max_deviation, run_to_convergence as run};
    use approx_arith::{AccuracyLevel, EnergyProfile, ExactContext, QcsContext};
    use approx_linalg::{CsrMatrix, Matrix};

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    /// Jacobi on the `n × n` 5-point Poisson system.
    fn poisson(
        n: usize,
        source: PoissonSource,
        omega: f64,
        tolerance: f64,
        max_iterations: usize,
    ) -> Jacobi<CsrMatrix> {
        let a = CsrMatrix::poisson5(n, n);
        Jacobi::new(a, source.rhs(n), omega, tolerance, max_iterations)
    }

    #[test]
    fn converges_to_the_analytic_sine_solution() {
        let source = PoissonSource::Sine { amplitude: 8.0 };
        let pde = poisson(15, source, 0.9, 1e-8, 5000);
        let mut ctx = ExactContext::with_profile(profile());
        let (u, iters) = run(&pde, &mut ctx);
        assert!(iters < 5000, "did not converge");
        let truth = source.analytic_solution(15).expect("closed form");
        // Discretization error of the 5-point stencil at h = 1/16.
        let err = max_deviation(&u, &truth);
        assert!(err < 0.1, "max error {err}");
    }

    #[test]
    fn energy_functional_decreases_monotonically() {
        // J(u) = ½uᵀAu − bᵀu falls every sweep: damped Jacobi with
        // ω ≤ 1 is an A-norm contraction on the 5-point stencil.
        let pde = poisson(10, PoissonSource::Sine { amplitude: 5.0 }, 0.8, 1e-8, 100);
        let energy = |u: &[f64]| {
            let au = pde.operator().matvec_exact(u);
            u.iter()
                .zip(&au)
                .zip(pde.rhs())
                .map(|((&ui, &aui), &bi)| 0.5 * ui * aui - bi * ui)
                .sum::<f64>()
        };
        let mut ctx = ExactContext::with_profile(profile());
        let mut u = pde.initial_state();
        let mut prev = energy(&u);
        for _ in 0..30 {
            u = pde.step(&u, &mut ctx);
            let f = energy(&u);
            assert!(f <= prev + 1e-12, "energy rose {prev} -> {f}");
            prev = f;
        }
    }

    #[test]
    fn gradient_is_negated_residual_and_vanishes_at_convergence() {
        let pde = poisson(8, PoissonSource::Sine { amplitude: 3.0 }, 0.9, 1e-10, 5000);
        let mut ctx = ExactContext::with_profile(profile());
        let (u, _) = run(&pde, &mut ctx);
        let g = pde.gradient(&u).expect("gradient available");
        for (gi, ri) in g.iter().zip(pde.exact_residual(&u)) {
            assert_eq!(gi.to_bits(), (-ri).to_bits());
        }
        let norm = vector::norm2_exact(&g);
        assert!(norm < 1e-6, "gradient norm {norm}");
    }

    #[test]
    fn point_load_produces_a_localized_bump() {
        let source = PoissonSource::Point {
            x: 0.5,
            y: 0.5,
            strength: 1.0,
        };
        let pde = poisson(11, source, 0.9, 1e-9, 5000);
        let mut ctx = ExactContext::with_profile(profile());
        let (u, _) = run(&pde, &mut ctx);
        let center = u[5 * 11 + 5];
        let corner = u[0];
        assert!(center > 0.0);
        assert!(center > 5.0 * corner, "center {center} corner {corner}");
    }

    #[test]
    fn approximate_sweeps_freeze_early_with_bounded_error() {
        let pde = poisson(12, PoissonSource::Sine { amplitude: 8.0 }, 0.9, 1e-8, 5000);
        let mut exact = ExactContext::with_profile(profile());
        let (u_exact, exact_iters) = run(&pde, &mut exact);
        let mut ctx = QcsContext::with_profile(profile());
        ctx.set_level(AccuracyLevel::Level4);
        let (u4, iters4) = run(&pde, &mut ctx);
        assert!(
            iters4 < exact_iters,
            "level4 {iters4} !< exact {exact_iters}"
        );
        let err = max_deviation(&u4, &u_exact);
        assert!(err < 0.5, "level4 deviation {err}");
    }

    #[test]
    fn level1_destroys_the_field() {
        let pde = poisson(12, PoissonSource::Sine { amplitude: 8.0 }, 0.9, 1e-8, 200);
        let mut ctx = QcsContext::with_profile(profile());
        ctx.set_level(AccuracyLevel::Level1);
        let (u1, _) = run(&pde, &mut ctx);
        // Every update truncates to multiples of 16 > field scale: the
        // field never leaves zero.
        assert!(u1.iter().all(|&v| v.abs() < 16.0));
        let peak = u1.iter().fold(0.0f64, |m, &v| m.max(v));
        assert!(
            peak < 1.0,
            "level1 accidentally built the field, peak {peak}"
        );
    }

    #[test]
    #[should_panic(expected = "damping must be in")]
    fn invalid_omega_panics() {
        let _ = poisson(4, PoissonSource::Sine { amplitude: 1.0 }, 1.5, 1e-6, 10);
    }

    #[test]
    fn converges_on_a_diagonally_dominant_sparse_system() {
        let a = CsrMatrix::poisson5(4, 4);
        let b = vec![1.0; 16];
        let jac = Jacobi::new(a, b, 0.9, 1e-11, 2000);
        let mut ctx = ExactContext::with_profile(profile());
        let (x, _) = run(&jac, &mut ctx);
        assert!(jac.objective(&x) < 1e-6, "residual {}", jac.objective(&x));
    }

    #[test]
    fn dense_and_sparse_operators_give_identical_iterates() {
        let s = CsrMatrix::poisson5(3, 3);
        let d = s.to_dense();
        let b: Vec<f64> = (0..9).map(|i| 0.25 * (i as f64) - 1.0).collect();
        let js = Jacobi::new(s, b.clone(), 0.8, 1e-10, 100);
        let jd = Jacobi::new(d, b, 0.8, 1e-10, 100);
        let mut cs = ExactContext::with_profile(profile());
        let mut cd = ExactContext::with_profile(profile());
        let mut xs = js.initial_state();
        let mut xd = jd.initial_state();
        for _ in 0..20 {
            xs = js.step(&xs, &mut cs);
            xd = jd.step(&xd, &mut cd);
        }
        for (a, b) in xs.iter().zip(&xd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "zero-free diagonal")]
    fn zero_diagonal_panics() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let _ = Jacobi::new(a, vec![1.0, 1.0], 1.0, 1e-9, 10);
    }
}
