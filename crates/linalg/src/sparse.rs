//! Compressed sparse row matrices.
//!
//! [`CsrMatrix`] is the workspace's large-scale matrix format: only the
//! stored entries cost memory and datapath operations, so problems move
//! from the paper-scale dense systems (n ≈ 10²) to graph- and PDE-scale
//! ones (n ≥ 10⁵). The matvec is a single
//! [`ArithContext::spmv_slice`] call, whose per-row reduction order is
//! the stored (column-sorted) order — the same left-to-right-from-zero
//! contract every other kernel follows.

use approx_arith::ArithContext;

use crate::operator::LinearOperator;
use crate::Matrix;

/// A sparse matrix in compressed sparse row (CSR) form.
///
/// # Invariants
///
/// Every constructor establishes, and every accessor may rely on:
///
/// * `row_ptr` has `rows + 1` entries, starts at `0`, ends at
///   `values.len()`, and is monotonically non-decreasing;
/// * within each row the column indices are **strictly increasing**
///   (sorted, no duplicates) and `< cols`;
/// * `values.len() == col_idx.len()`.
///
/// Stored entries may be exactly `0.0` (e.g. duplicate triplets that
/// cancel): they are structural nonzeros and still cost datapath
/// operations, exactly like an explicit zero in a dense row.
///
/// # Example
///
/// ```
/// use approx_linalg::{CsrMatrix, LinearOperator};
///
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0), (1, 0, 1.0)]);
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.matvec_exact(&[1.0, 1.0]), vec![2.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    values: Vec<f64>,
    col_idx: Vec<usize>,
    row_ptr: Vec<usize>,
}

impl CsrMatrix {
    /// Build from `(row, col, value)` triplets in any order. Duplicate
    /// coordinates are summed; within each row the stored entries are
    /// sorted by column.
    ///
    /// # Panics
    /// Panics if a dimension is 0 or a triplet indexes out of bounds.
    #[must_use]
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        for &(i, j, _) in &sorted {
            assert!(i < rows && j < cols, "triplet ({i}, {j}) out of bounds");
        }
        sorted.sort_by_key(|&(i, j, _)| (i, j));

        let mut values = Vec::with_capacity(sorted.len());
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        let mut current_row = 0usize;
        for &(i, j, v) in &sorted {
            while current_row < i {
                row_ptr.push(values.len());
                current_row += 1;
            }
            let row_start = *row_ptr.last().expect("row_ptr is non-empty");
            if values.len() > row_start && *col_idx.last().expect("entries exist") == j {
                // Duplicate coordinate (adjacent after the sort): fold
                // it in. The accumulation is exact — assembly happens at
                // construction time, not on the datapath.
                *values.last_mut().expect("entries exist") += v;
            } else {
                values.push(v);
                col_idx.push(j);
            }
        }
        while current_row < rows {
            row_ptr.push(values.len());
            current_row += 1;
        }
        let out = Self {
            rows,
            cols,
            values,
            col_idx,
            row_ptr,
        };
        debug_assert!(out.check_invariants());
        out
    }

    /// Build from a dense matrix, storing every entry that is not
    /// exactly `0.0`.
    #[must_use]
    pub fn from_dense(m: &Matrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let mut values = Vec::new();
        let mut col_idx = Vec::new();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        for i in 0..rows {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    values.push(v);
                    col_idx.push(j);
                }
            }
            row_ptr.push(values.len());
        }
        let out = Self {
            rows,
            cols,
            values,
            col_idx,
            row_ptr,
        };
        debug_assert!(out.check_invariants());
        out
    }

    /// The standard 5-point Laplacian stencil on an `nx × ny` interior
    /// grid (homogeneous Dirichlet boundary), row-major unknown
    /// ordering: diagonal `4`, the four grid neighbours `−1`.
    ///
    /// This is the *unscaled* stencil `h²·(−Δ)`: a Poisson right-hand
    /// side `f` enters the system as `b = h²·f` (the grid constant is
    /// folded into `b` rather than the operator), which is what
    /// `iter_solvers::datasets::PoissonSource::rhs` returns.
    ///
    /// # Panics
    /// Panics if either grid dimension is 0.
    #[must_use]
    pub fn poisson5(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        let n = nx * ny;
        let mut values = Vec::with_capacity(5 * n);
        let mut col_idx = Vec::with_capacity(5 * n);
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        for iy in 0..ny {
            for ix in 0..nx {
                let u = iy * nx + ix;
                // Columns in strictly increasing order: N, W, C, E, S.
                if iy > 0 {
                    values.push(-1.0);
                    col_idx.push(u - nx);
                }
                if ix > 0 {
                    values.push(-1.0);
                    col_idx.push(u - 1);
                }
                values.push(4.0);
                col_idx.push(u);
                if ix + 1 < nx {
                    values.push(-1.0);
                    col_idx.push(u + 1);
                }
                if iy + 1 < ny {
                    values.push(-1.0);
                    col_idx.push(u + nx);
                }
                row_ptr.push(values.len());
            }
        }
        let out = Self {
            rows: n,
            cols: n,
            values,
            col_idx,
            row_ptr,
        };
        debug_assert!(out.check_invariants());
        out
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored values, row-major and column-sorted within each row.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column index of each stored value.
    #[must_use]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// Row pointers: row `i`'s entries are `row_ptr[i] .. row_ptr[i+1]`.
    #[must_use]
    pub fn row_pointers(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Entry `(i, j)`, `0.0` if not stored.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Expand to a dense [`Matrix`] (cross-checks and small systems
    /// only — this materializes all `rows × cols` entries).
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] = self.values[k];
            }
        }
        m
    }

    /// Validate the CSR invariants (used by `debug_assert!` in the
    /// constructors and by tests).
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        if self.values.len() != self.col_idx.len()
            || self.row_ptr.len() != self.rows + 1
            || self.row_ptr[0] != 0
            || *self.row_ptr.last().expect("non-empty row_ptr") != self.values.len()
        {
            return false;
        }
        for i in 0..self.rows {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            if lo > hi {
                return false;
            }
            let cols = &self.col_idx[lo..hi];
            if !cols.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            if cols.last().is_some_and(|&j| j >= self.cols) {
                return false;
            }
        }
        true
    }
}

impl LinearOperator for CsrMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn apply(&self, ctx: &mut dyn ArithContext, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        assert_eq!(out.len(), self.rows, "output length must equal row count");
        ctx.spmv_slice(&self.values, &self.col_idx, &self.row_ptr, x, out);
    }

    fn apply_exact(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        assert_eq!(out.len(), self.rows, "output length must equal row count");
        for (i, o) in out.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = 0.0;
            for (&a, &j) in self.values[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
                acc += a * x[j];
            }
            *o = acc;
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        let n = self.order();
        (0..n).map(|i| self.get(i, i)).collect()
    }

    fn max_abs_entry(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    fn max_row_terms(&self) -> usize {
        self.row_ptr
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    fn off_diagonal_abs_row_sums(&self) -> Vec<f64> {
        let n = self.order();
        (0..n)
            .map(|i| {
                let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
                self.values[lo..hi]
                    .iter()
                    .zip(&self.col_idx[lo..hi])
                    .filter(|&(_, &j)| j != i)
                    .map(|(v, _)| v.abs())
                    .sum()
            })
            .collect()
    }

    fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if j <= i {
                    continue;
                }
                if (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
            // Entries stored at (j, i) with no (i, j) counterpart are
            // caught when row j is scanned (get(i, j) returns 0.0).
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if j < i && (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::ExactContext;

    #[test]
    fn triplets_sort_and_sum_duplicates() {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (2, 0, 5.0),
                (0, 2, 3.0),
                (0, 0, 1.0),
                (0, 2, -1.0), // duplicate of (0, 2): summed
                (1, 1, 2.0),
            ],
        );
        assert!(a.check_invariants());
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.col_indices(), &[0, 2, 1, 0]);
        assert_eq!(a.row_pointers(), &[0, 2, 3, 4]);
    }

    #[test]
    fn duplicates_cancelling_to_zero_stay_stored() {
        let a = CsrMatrix::from_triplets(1, 2, &[(0, 1, 4.0), (0, 1, -4.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn from_dense_skips_exact_zeros_and_round_trips() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, -2.0], &[0.0, 0.0, 0.0], &[4.0, 5.0, 0.0]]);
        let s = CsrMatrix::from_dense(&d);
        assert!(s.check_invariants());
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn empty_rows_are_representable() {
        let a = CsrMatrix::from_triplets(4, 4, &[(3, 3, 1.0)]);
        assert!(a.check_invariants());
        assert_eq!(a.matvec_exact(&[1.0; 4]), vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn poisson5_matches_the_dense_stencil() {
        let s = CsrMatrix::poisson5(3, 2);
        assert!(s.check_invariants());
        assert_eq!(s.order(), 6);
        assert_eq!(s.nnz(), 6 + 2 * (2 * 2 + 3)); // diag + 2 per interior edge
        assert!(s.is_symmetric(0.0));
        assert_eq!(s.diagonal(), vec![4.0; 6]);
        // Hand-check one interior row: unknown 1 = (ix=1, iy=0).
        assert_eq!(s.get(1, 0), -1.0);
        assert_eq!(s.get(1, 1), 4.0);
        assert_eq!(s.get(1, 2), -1.0);
        assert_eq!(s.get(1, 4), -1.0);
        assert_eq!(s.get(1, 3), 0.0);
    }

    #[test]
    fn exact_and_context_matvec_agree_on_exact_context() {
        let s = CsrMatrix::poisson5(4, 4);
        let x: Vec<f64> = (0..16).map(|i| (i as f64) * 0.25 - 2.0).collect();
        let mut ctx = ExactContext::new();
        assert_eq!(s.matvec(&mut ctx, &x), s.matvec_exact(&x));
        assert_eq!(ctx.counts().muls, s.nnz() as u64);
    }

    #[test]
    fn gershgorin_probes_match_dense() {
        let s = CsrMatrix::poisson5(3, 3);
        let d = s.to_dense();
        assert_eq!(s.diagonal(), LinearOperator::diagonal(&d));
        assert_eq!(
            s.off_diagonal_abs_row_sums(),
            LinearOperator::off_diagonal_abs_row_sums(&d)
        );
        assert_eq!(s.max_abs_entry(), 4.0);
    }

    #[test]
    fn asymmetry_is_detected_in_both_triangles() {
        let upper_only = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(!upper_only.is_symmetric(1e-12));
        let lower_only = CsrMatrix::from_triplets(2, 2, &[(1, 0, 1.0)]);
        assert!(!lower_only.is_symmetric(1e-12));
        let both = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(both.is_symmetric(0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_triplet_panics() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }
}
