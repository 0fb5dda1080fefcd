//! The [`LinearOperator`] abstraction: what a solver needs from `A`.
//!
//! Iterative methods never look *inside* a matrix — they apply it to
//! vectors and read a handful of cheap structural probes (the diagonal
//! for Jacobi-style smoothing, entry bounds for range analysis,
//! Gershgorin data for contraction certificates). This trait captures
//! exactly that surface, so a solver written against it runs unchanged
//! on the dense [`Matrix`](crate::Matrix), the sparse
//! [`CsrMatrix`](crate::CsrMatrix), or any future format.
//!
//! The split mirrors the rest of the workspace:
//!
//! * [`apply`](LinearOperator::apply) routes every value multiply/add
//!   through an [`ArithContext`] slice kernel — this is the
//!   error-*resilient* datapath the accuracy levels degrade and meter;
//! * [`apply_exact`](LinearOperator::apply_exact) and the structural
//!   probes run in plain `f64` — they feed monitoring, range proofs and
//!   contraction certificates, which must stay error-*sensitive*.

use approx_arith::ArithContext;

/// A real linear operator `A : ℝⁿ → ℝᵐ` usable by the iterative
/// solvers.
///
/// # Contract
///
/// * `apply` and `apply_exact` compute the same mathematical product;
///   `apply` runs on the context's datapath (and is metered), while
///   `apply_exact` is the `f64` reference used for monitoring.
/// * Each output row must be reduced left-to-right from `+0.0` in a
///   format-deterministic order, so that two operators representing the
///   same matrix *and the same storage order* produce bit-identical
///   results on the same context.
/// * The structural probes (`diagonal`, `max_abs_entry`,
///   `off_diagonal_abs_row_sums`, `is_symmetric`) are exact host
///   arithmetic over the stored entries.
///
/// # Example
///
/// ```
/// use approx_arith::ExactContext;
/// use approx_linalg::{CsrMatrix, LinearOperator, Matrix};
///
/// let dense = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
/// let sparse = CsrMatrix::from_dense(&dense);
/// let mut ctx = ExactContext::new();
/// assert_eq!(
///     dense.matvec(&mut ctx, &[1.0, 1.0]),
///     sparse.matvec(&mut ctx, &[1.0, 1.0]),
/// );
/// assert_eq!(sparse.diagonal(), vec![2.0, 3.0]);
/// ```
pub trait LinearOperator {
    /// Number of rows `m` (the output dimension).
    fn rows(&self) -> usize;

    /// Number of columns `n` (the input dimension).
    fn cols(&self) -> usize;

    /// The order of a square operator.
    ///
    /// # Panics
    /// Panics if the operator is not square.
    fn order(&self) -> usize {
        assert_eq!(
            self.rows(),
            self.cols(),
            "order() requires a square operator"
        );
        self.rows()
    }

    /// Apply the operator on the context's datapath: `out = A·x`, with
    /// every value multiply and add metered by `ctx`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    fn apply(&self, ctx: &mut dyn ArithContext, x: &[f64], out: &mut [f64]);

    /// Apply the operator in exact `f64` arithmetic (monitoring,
    /// residual checks), with the same per-row reduction order as
    /// [`apply`](Self::apply).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    fn apply_exact(&self, x: &[f64], out: &mut [f64]);

    /// The main diagonal `a_ii` (exact), for Jacobi-style smoothing and
    /// preconditioning. Entries a format does not store are `0.0`.
    ///
    /// # Panics
    /// Panics if the operator is not square.
    fn diagonal(&self) -> Vec<f64>;

    /// The largest `|a_ij|` over all (stored) entries — the data bound
    /// the static range models are built from.
    fn max_abs_entry(&self) -> f64;

    /// The longest per-row reduction [`apply`](Self::apply) performs:
    /// `cols()` for a dense operator, the maximum stored entries per
    /// row for a sparse one. Range models bound the matvec
    /// accumulation with this length — for a 5-point stencil that is 5
    /// terms, not 10⁵.
    fn max_row_terms(&self) -> usize {
        self.cols()
    }

    /// Per-row off-diagonal absolute sums `Σ_{j≠i} |a_ij|` (exact) —
    /// together with [`diagonal`](Self::diagonal) these are the
    /// Gershgorin discs the contraction certificates need.
    ///
    /// # Panics
    /// Panics if the operator is not square.
    fn off_diagonal_abs_row_sums(&self) -> Vec<f64>;

    /// `true` if the operator is square and symmetric within `tol`.
    fn is_symmetric(&self, tol: f64) -> bool;

    /// Allocating convenience for [`apply`](Self::apply): `A·x` on the
    /// context's datapath.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    fn matvec(&self, ctx: &mut dyn ArithContext, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows()];
        self.apply(ctx, x, &mut out);
        out
    }

    /// Allocating convenience for [`apply_exact`](Self::apply_exact).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    fn matvec_exact(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows()];
        self.apply_exact(x, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn order_of_square_operator() {
        let m = Matrix::identity(3);
        assert_eq!(LinearOperator::order(&m), 3);
    }

    #[test]
    fn exact_rows_start_at_positive_zero() {
        // Both products are −0.0: a sum started at −0.0 stays −0.0, the
        // contract's +0.0 start gives +0.0.
        let dense = Matrix::from_rows(&[&[-1.0, -2.0]]);
        let sparse = crate::CsrMatrix::from_dense(&dense);
        for out in [
            dense.matvec_exact(&[0.0, 0.0]),
            sparse.matvec_exact(&[0.0, 0.0]),
        ] {
            assert_eq!(out[0].to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn order_of_rectangular_operator_panics() {
        let m = Matrix::zeros(2, 3);
        let _ = LinearOperator::order(&m);
    }
}
