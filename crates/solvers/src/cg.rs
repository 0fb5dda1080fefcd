//! Conjugate gradient for symmetric positive-definite systems.
//!
//! The paper positions iterative methods as "the most widely-used
//! solutions for large linear … systems of equations"; conjugate
//! gradient is the canonical such solver. It is also the most
//! error-*sensitive* method in this suite — its three coupled
//! recurrences lose conjugacy under arithmetic noise — which makes it a
//! stress test for the reconfiguration schemes rather than an easy win.

use approx_arith::ArithContext;
use approx_linalg::{vector, LinearOperator, Matrix};

use crate::method::IterativeMethod;

/// One CG iterate: the solution estimate plus the residual and search
/// direction recurrences.
///
/// The state also carries the exact product `A·x`, computed once when
/// the iterate is made and read by every exact monitor. Editing `x` by
/// hand leaves that product stale: the solver's monitors and residual
/// replacement would then describe the old `x`. Build states with
/// [`IterativeMethod::initial_state`] and [`IterativeMethod::step`].
#[derive(Debug, Clone, PartialEq)]
pub struct CgState {
    /// Solution estimate `x`.
    pub x: Vec<f64>,
    /// Residual `r = b − Ax` (as maintained by the recurrence).
    pub r: Vec<f64>,
    /// Search direction `p`.
    pub p: Vec<f64>,
    /// Exact `A·x` for this `x`.
    ax: Vec<f64>,
}

/// Conjugate gradient on an SPD system behind any [`LinearOperator`]
/// (dense [`Matrix`] by default, [`approx_linalg::CsrMatrix`] for
/// graph- and PDE-scale systems), as an [`IterativeMethod`].
///
/// The matrix–vector product and the three axpy updates run on the
/// arithmetic context; the step-size scalars α and β are computed from
/// context-routed dot products as well, so direction *and* update error
/// are both modelled. Monitoring (objective, gradient, convergence) uses
/// the exact residual `b − Ax`, not the recurrence residual — the
/// recurrence drifts under approximation, and trusting it would hide
/// exactly the failures ApproxIt exists to catch. The exact product
/// `A·x` is applied once per iterate and kept in the [`CgState`], so
/// residual replacement, the objective and the gradient share it.
///
/// # Example
///
/// ```
/// use approx_arith::{EnergyProfile, ExactContext};
/// use approx_linalg::Matrix;
/// use iter_solvers::{ConjugateGradient, IterativeMethod};
///
/// let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
/// let cg = ConjugateGradient::new(a, vec![1.0, 2.0], 1e-10, 50);
/// let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
/// let mut ctx = ExactContext::with_profile(profile);
/// let mut state = cg.initial_state();
/// for _ in 0..2 {
///     state = cg.step(&state, &mut ctx); // CG solves 2x2 in 2 steps
/// }
/// assert!((state.x[0] - 1.0 / 11.0).abs() < 1e-9);
/// assert!((state.x[1] - 7.0 / 11.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ConjugateGradient<A = Matrix> {
    a: A,
    b: Vec<f64>,
    tolerance: f64,
    max_iterations: usize,
}

impl<A: LinearOperator> ConjugateGradient<A> {
    /// Create a solver for `A x = b` over any [`LinearOperator`].
    ///
    /// # Panics
    /// Panics if `A` is not square and symmetric of order `b.len()`, the
    /// tolerance is not positive, or `max_iterations` is 0.
    #[must_use]
    pub fn new(a: A, b: Vec<f64>, tolerance: f64, max_iterations: usize) -> Self {
        assert_eq!(a.rows(), b.len(), "A and b dimensions must agree");
        assert!(a.is_symmetric(1e-9), "A must be symmetric");
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "iteration budget must be positive");
        Self {
            a,
            b,
            tolerance,
            max_iterations,
        }
    }

    /// The system order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.b.len()
    }

    /// The system operator `A` (range and contraction analyses read its
    /// structural probes).
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
        self.residual_from(&self.a.matvec_exact(x))
    }

    /// `b − ax` for a precomputed exact product `ax = A·x`.
    fn residual_from(&self, ax: &[f64]) -> Vec<f64> {
        ax.iter().zip(&self.b).map(|(&axi, &bi)| bi - axi).collect()
    }
}

impl<A: LinearOperator> IterativeMethod for ConjugateGradient<A> {
    type State = CgState;

    fn name(&self) -> &str {
        "conjugate-gradient"
    }

    fn initial_state(&self) -> CgState {
        let x = vec![0.0; self.order()];
        let ax = self.a.matvec_exact(&x);
        let r = self.b.clone();
        let p = self.b.clone();
        CgState { x, r, p, ax }
    }

    fn step(&self, state: &CgState, ctx: &mut dyn ArithContext) -> CgState {
        // Residual replacement (van der Vorst): approximate steps can
        // decouple the r-recurrence from b − Ax while still *lowering*
        // the objective, after which every later iteration solves the
        // wrong system — invisibly to any objective-based monitor. The
        // exact monitor rebuilds the recurrence (r and the search
        // direction) whenever the stored residual drifts from the true
        // one by more than 1%; in exact and accurate runs the drift
        // stays at rounding level and the guard never fires.
        let true_r = self.residual_from(&state.ax);
        let drift = vector::dist2_exact(&state.r, &true_r);
        let refreshed;
        // audit:allow(taint-branch, residual-replacement guard deliberately compares fabric state against the exact monitor; recurrence drift is invisible to the objective)
        let state = if drift > 0.01 * vector::norm2_exact(&true_r) {
            refreshed = CgState {
                x: state.x.clone(),
                p: true_r.clone(),
                r: true_r,
                ax: state.ax.clone(),
            };
            &refreshed
        } else {
            state
        };
        let ap = self.a.matvec(ctx, &state.p);
        let rr = ctx.dot_slice(&state.r, &state.r);
        let pap = ctx.dot_slice(&state.p, &ap);
        // audit:allow(taint-branch, degenerate-direction restart deliberately reads fabric state; CG must detect pᵀAp collapse under heavy approximation)
        if pap.abs() < 1e-300 || rr.abs() < 1e-300 {
            // Degenerate direction (possible under heavy approximation):
            // restart from the steepest descent at the current point.
            let r = self.residual_from(&state.ax);
            return CgState {
                x: state.x.clone(),
                p: r.clone(),
                r,
                ax: state.ax.clone(),
            };
        }
        let alpha = rr / pap; // exact scalar division
        let x = vector::axpy(ctx, alpha, &state.p, &state.x);
        let r = vector::axpy(ctx, -alpha, &ap, &state.r);
        let rr_new = ctx.dot_slice(&r, &r);
        let beta = rr_new / rr;
        let p = vector::axpy(ctx, beta, &state.p, &r);
        let ax = self.a.matvec_exact(&x);
        CgState { x, r, p, ax }
    }

    /// Quadratic objective `½ xᵀAx − bᵀx` (exact).
    fn objective(&self, state: &CgState) -> f64 {
        0.5 * vector::dot_exact(&state.x, &state.ax) - vector::dot_exact(&self.b, &state.x)
    }

    /// Gradient `Ax − b` — the exact negated residual.
    fn gradient(&self, state: &CgState) -> Option<Vec<f64>> {
        Some(self.residual_from(&state.ax).iter().map(|r| -r).collect())
    }

    fn params(&self, state: &CgState) -> Vec<f64> {
        state.x.clone()
    }

    fn converged(&self, prev: &CgState, next: &CgState) -> bool {
        prev.x
            .iter()
            .zip(&next.x)
            .all(|(&a, &b)| (a - b).abs() < self.tolerance)
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// In exact arithmetic CG terminates in at most `n` steps; the
    /// fixed-point datapath and level switches perturb the Krylov
    /// recurrence, so a healthy run gets `4n` before a deadline-aware
    /// caller should give up and escalate (never more than `MAX_ITER`).
    fn deadline_hint(&self) -> Option<usize> {
        Some((4 * self.order()).min(self.max_iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::run_to_convergence as run;
    use approx_arith::{AccuracyLevel, ArithContext, EnergyProfile, ExactContext, QcsContext};
    use std::cell::Cell;

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    /// A well-conditioned SPD test system.
    fn system(n: usize) -> (Matrix, Vec<f64>) {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.5).collect();
        (a, b)
    }

    #[test]
    fn deadline_hint_is_4n_capped_by_max_iterations() {
        let (a, b) = system(8);
        let cg = ConjugateGradient::new(a.clone(), b.clone(), 1e-12, 100);
        assert_eq!(cg.deadline_hint(), Some(32));
        let tight = ConjugateGradient::new(a, b, 1e-12, 20);
        assert_eq!(tight.deadline_hint(), Some(20));
        // And the hint is genuinely achievable: an exact run converges
        // within it.
        let (a, b) = system(8);
        let cg = ConjugateGradient::new(a, b, 1e-12, 100);
        let mut ctx = ExactContext::with_profile(profile());
        let (_, iters) = run(&cg, &mut ctx);
        assert!(iters <= cg.deadline_hint().unwrap());
    }

    #[test]
    fn solves_in_at_most_n_steps_exactly() {
        let (a, b) = system(8);
        let want = approx_linalg::decomp::solve(&a, &b).expect("SPD");
        let cg = ConjugateGradient::new(a, b, 1e-12, 100);
        let mut ctx = ExactContext::with_profile(profile());
        let mut state = cg.initial_state();
        for _ in 0..8 {
            state = cg.step(&state, &mut ctx);
        }
        assert!(vector::dist2_exact(&state.x, &want) < 1e-8);
    }

    #[test]
    fn converges_via_the_iterative_interface() {
        let (a, b) = system(12);
        let want = approx_linalg::decomp::solve(&a, &b).expect("SPD");
        let cg = ConjugateGradient::new(a, b, 1e-12, 100);
        let mut ctx = ExactContext::with_profile(profile());
        let (state, iters) = run(&cg, &mut ctx);
        assert!(iters <= 20, "took {iters} iterations");
        assert!(vector::dist2_exact(&state.x, &want) < 1e-6);
    }

    #[test]
    fn objective_decreases_monotonically() {
        let (a, b) = system(10);
        let cg = ConjugateGradient::new(a, b, 1e-12, 50);
        let mut ctx = ExactContext::with_profile(profile());
        let mut state = cg.initial_state();
        let mut prev = cg.objective(&state);
        for _ in 0..10 {
            state = cg.step(&state, &mut ctx);
            let f = cg.objective(&state);
            assert!(f <= prev + 1e-12);
            prev = f;
        }
    }

    #[test]
    fn gradient_vanishes_at_the_solution() {
        let (a, b) = system(6);
        let cg = ConjugateGradient::new(a, b, 1e-13, 50);
        let mut ctx = ExactContext::with_profile(profile());
        let (state, _) = run(&cg, &mut ctx);
        let g = cg.gradient(&state).expect("gradient available");
        assert!(vector::norm2_exact(&g) < 1e-8);
    }

    #[test]
    fn approximate_cg_drifts_but_level4_stays_close() {
        let (a, b) = system(10);
        let want = approx_linalg::decomp::solve(&a, &b).expect("SPD");
        let dist_at = |level: AccuracyLevel| {
            let (a, b) = system(10);
            let cg = ConjugateGradient::new(a, b, 1e-12, 200);
            let mut ctx = QcsContext::with_profile(profile());
            ctx.set_level(level);
            let (state, _) = run(&cg, &mut ctx);
            vector::dist2_exact(&state.x, &want)
        };
        let d4 = dist_at(AccuracyLevel::Level4);
        let d1 = dist_at(AccuracyLevel::Level1);
        assert!(d4 < 0.1, "level4 distance {d4}");
        assert!(d1 > d4, "level1 {d1} should be worse than level4 {d4}");
        let _ = a;
        let _ = b;
        let _ = want;
    }

    #[test]
    fn sparse_and_dense_operators_give_bit_identical_iterates() {
        use approx_linalg::CsrMatrix;
        let (a, b) = system(12);
        let s = CsrMatrix::from_dense(&a);
        let cgd = ConjugateGradient::new(a, b.clone(), 1e-10, 40);
        let cgs = ConjugateGradient::new(s, b, 1e-10, 40);
        for level in [AccuracyLevel::Level2, AccuracyLevel::Accurate] {
            let mut cd = QcsContext::with_profile(profile());
            let mut cs = QcsContext::with_profile(profile());
            cd.set_level(level);
            cs.set_level(level);
            let mut sd = cgd.initial_state();
            let mut ss = cgs.initial_state();
            for _ in 0..10 {
                sd = cgd.step(&sd, &mut cd);
                ss = cgs.step(&ss, &mut cs);
                for (x, y) in sd.x.iter().zip(&ss.x) {
                    assert_eq!(x.to_bits(), y.to_bits(), "iterates diverged at {level:?}");
                }
            }
        }
    }

    /// A dense operator that counts its exact applies.
    struct CountingOp {
        a: Matrix,
        exact: Cell<usize>,
    }

    impl LinearOperator for CountingOp {
        fn rows(&self) -> usize {
            LinearOperator::rows(&self.a)
        }

        fn cols(&self) -> usize {
            LinearOperator::cols(&self.a)
        }

        fn apply(&self, ctx: &mut dyn ArithContext, x: &[f64], out: &mut [f64]) {
            self.a.apply(ctx, x, out);
        }

        fn apply_exact(&self, x: &[f64], out: &mut [f64]) {
            self.exact.set(self.exact.get() + 1);
            self.a.apply_exact(x, out);
        }

        fn diagonal(&self) -> Vec<f64> {
            self.a.diagonal()
        }

        fn max_abs_entry(&self) -> f64 {
            self.a.max_abs_entry()
        }

        fn off_diagonal_abs_row_sums(&self) -> Vec<f64> {
            self.a.off_diagonal_abs_row_sums()
        }

        fn is_symmetric(&self, tol: f64) -> bool {
            LinearOperator::is_symmetric(&self.a, tol)
        }
    }

    fn counting_cg(a: Matrix, b: Vec<f64>) -> ConjugateGradient<CountingOp> {
        let op = CountingOp {
            a,
            exact: Cell::new(0),
        };
        ConjugateGradient::new(op, b, 1e-12, 60)
    }

    /// Every step of 30-step runs on the tridiagonal system at every
    /// accuracy level (Level1 drifts enough to trigger residual
    /// replacement), plus an identity system that the first step solves
    /// exactly: r is then 0, so every later step takes the degenerate
    /// restart. `visit` gets the solver, the states before and after the
    /// step, and the exact applies the step made.
    fn visit_steps(
        mut visit: impl FnMut(&ConjugateGradient<CountingOp>, &CgState, &CgState, usize),
    ) {
        let (tri, tri_b) = system(10);
        let cases = AccuracyLevel::ALL
            .into_iter()
            .map(|level| (tri.clone(), tri_b.clone(), level))
            .chain([(
                Matrix::identity(4),
                vec![1.0, 0.5, -0.25, 2.0],
                AccuracyLevel::Accurate,
            )]);
        for (a, b, level) in cases {
            let cg = counting_cg(a, b);
            let mut ctx = QcsContext::with_profile(profile());
            ctx.set_level(level);
            let mut state = cg.initial_state();
            for _ in 0..30 {
                let before = cg.operator().exact.get();
                let next = cg.step(&state, &mut ctx);
                visit(&cg, &state, &next, cg.operator().exact.get() - before);
                state = next;
            }
        }
    }

    #[test]
    fn each_iterate_applies_a_exactly_once() {
        let (a, b) = system(10);
        let cg = counting_cg(a, b);
        let _ = cg.initial_state();
        assert_eq!(cg.operator().exact.get(), 1, "initial_state");
        let (mut replaced, mut restarted) = (0, 0);
        visit_steps(|cg, prev, next, applies| {
            let a = &cg.operator().a;
            let true_r: Vec<f64> = a
                .matvec_exact(&prev.x)
                .iter()
                .zip(cg.rhs())
                .map(|(&axi, &bi)| bi - axi)
                .collect();
            let drift = vector::dist2_exact(&prev.r, &true_r);
            let moved = prev
                .x
                .iter()
                .zip(&next.x)
                .any(|(p, n)| p.to_bits() != n.to_bits());
            if moved {
                assert_eq!(applies, 1, "a step that moves x applies A once");
                replaced += usize::from(drift > 0.01 * vector::norm2_exact(&true_r));
            } else {
                assert!(applies <= 1, "a frozen step applies A at most once");
            }
            if prev.r.iter().all(|&r| r == 0.0) {
                // rᵀr = 0: the step must take the degenerate restart.
                assert!(!moved);
                assert_eq!(applies, 0, "the degenerate restart applies nothing");
                restarted += 1;
            }
            let before = cg.operator().exact.get();
            let _ = (cg.objective(next), cg.gradient(next));
            assert_eq!(cg.operator().exact.get(), before, "monitors apply nothing");
        });
        assert!(replaced > 0, "no run exercised residual replacement");
        assert!(restarted > 0, "no run exercised the degenerate restart");
    }

    #[test]
    fn monitors_match_a_fresh_exact_product_bit_for_bit() {
        visit_steps(|cg, prev, next, _| {
            for s in [prev, next] {
                let ax = cg.operator().a.matvec_exact(&s.x);
                let b = cg.rhs();
                let objective = 0.5 * vector::dot_exact(&s.x, &ax) - vector::dot_exact(b, &s.x);
                assert_eq!(cg.objective(s).to_bits(), objective.to_bits());
                let gradient = cg.gradient(s).expect("gradient available");
                for ((g, &axi), &bi) in gradient.iter().zip(&ax).zip(b) {
                    assert_eq!(g.to_bits(), (-(bi - axi)).to_bits());
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "must be symmetric")]
    fn asymmetric_matrix_panics() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let _ = ConjugateGradient::new(a, vec![1.0, 1.0], 1e-9, 10);
    }
}
