//! Dense row-major matrices.

use approx_arith::ArithContext;

use crate::operator::LinearOperator;

/// A dense row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use approx_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m[(0, 1)], 2.0);
/// assert_eq!(m.transpose()[(1, 0)], 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a zero matrix.
    ///
    /// # Panics
    /// Panics if either dimension is 0.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    ///
    /// # Panics
    /// Panics if `n` is 0.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from row slices.
    ///
    /// # Panics
    /// Panics if `rows` is empty or the rows have unequal lengths.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "at least one row is required");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or a dimension is 0.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Exact matrix–vector product (thin delegation to
    /// [`LinearOperator::matvec_exact`] — the trait is the one matvec
    /// code path).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec_exact(&self, x: &[f64]) -> Vec<f64> {
        LinearOperator::matvec_exact(self, x)
    }

    /// Matrix–vector product on a context's datapath (thin delegation
    /// to [`LinearOperator::matvec`], which routes through a single
    /// [`ArithContext::matvec_slice`] call over the row-major storage).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, ctx: &mut dyn ArithContext, x: &[f64]) -> Vec<f64> {
        LinearOperator::matvec(self, ctx, x)
    }

    /// Exact matrix product `self · rhs`.
    ///
    /// # Panics
    /// Panics if the inner dimensions differ.
    #[must_use]
    pub fn matmul_exact(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// `true` if the matrix is square and symmetric within `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl LinearOperator for Matrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// A single [`ArithContext::matvec_slice`] call over the row-major
    /// storage, so contexts with batched kernels convert the shared
    /// vector once and run every row reduction at slice granularity.
    fn apply(&self, ctx: &mut dyn ArithContext, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        assert_eq!(out.len(), self.rows, "output length must equal row count");
        ctx.matvec_slice(&self.data, self.cols, x, out);
    }

    /// Each row is one left-to-right sum of `a_ij · x_j` from `+0.0`.
    /// Four rows run side by side, so their independent sums overlap
    /// the add latency a single serial row would wait on.
    fn apply_exact(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        assert_eq!(out.len(), self.rows, "output length must equal row count");
        let cols = self.cols;
        let mut quads = out.chunks_exact_mut(4);
        let mut blocks = self.data.chunks_exact(4 * cols);
        for (o, block) in (&mut quads).zip(&mut blocks) {
            let (r0, rest) = block.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            let mut acc = [0.0f64; 4];
            for ((((&a0, &a1), &a2), &a3), &xj) in r0.iter().zip(r1).zip(r2).zip(r3).zip(x) {
                acc[0] += a0 * xj;
                acc[1] += a1 * xj;
                acc[2] += a2 * xj;
                acc[3] += a3 * xj;
            }
            o.copy_from_slice(&acc);
        }
        let tail = quads.into_remainder();
        for (o, row) in tail.iter_mut().zip(blocks.remainder().chunks_exact(cols)) {
            *o = row.iter().zip(x).fold(0.0, |acc, (&a, &b)| acc + a * b);
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        let n = LinearOperator::order(self);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    fn max_abs_entry(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    fn off_diagonal_abs_row_sums(&self) -> Vec<f64> {
        let n = LinearOperator::order(self);
        (0..n)
            .map(|i| {
                self.row(i)
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, v)| v.abs())
                    .sum()
            })
            .collect()
    }

    fn is_symmetric(&self, tol: f64) -> bool {
        Matrix::is_symmetric(self, tol)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::{EnergyProfile, ExactContext};

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matvec_is_id() {
        let id = Matrix::identity(3);
        let x = vec![7.0, -2.0, 0.5];
        assert_eq!(id.matvec_exact(&x), x);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(0, 2)], 5.0);
    }

    #[test]
    fn matmul_matches_hand_example() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul_exact(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn context_matvec_matches_exact_on_exact_ctx() {
        let m = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let mut ctx = ExactContext::with_profile(EnergyProfile::from_constants(
            [1.0, 2.0, 3.0, 4.0, 5.0],
            50.0,
            100.0,
        ));
        assert_eq!(m.matvec(&mut ctx, &[2.0, 4.0]), m.matvec_exact(&[2.0, 4.0]));
        assert_eq!(ctx.counts().muls, 4);
    }

    #[test]
    fn exact_apply_is_each_rows_fold_from_positive_zero() {
        // Every row count mod 4 of the four-row blocks, against the
        // serial fold, with signed zeros, subnormals and infinities.
        let pool = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.25,
            3e-3,
            -7e5,
        ];
        let mut rng = approx_arith::rng::Pcg32::seeded(5, 17);
        let mut draw = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| pool[rng.next_u32() as usize % pool.len()])
                .collect()
        };
        for rows in 1..=9 {
            for cols in [1, 2, 7, 64] {
                let m = Matrix::from_vec(rows, cols, draw(rows * cols));
                let x = draw(cols);
                let got = m.matvec_exact(&x);
                for (i, &g) in got.iter().enumerate() {
                    let want = m.row(i).iter().zip(&x).fold(0.0, |s, (&a, &b)| s + a * b);
                    if want.is_nan() {
                        assert!(g.is_nan(), "{rows}x{cols} row {i}: {g} vs NaN");
                    } else {
                        assert_eq!(g.to_bits(), want.to_bits(), "{rows}x{cols} row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        assert!(s.is_symmetric(0.0));
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        assert!(!ns.is_symmetric(1e-12));
        let rect = Matrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_index_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn from_vec_round_trips() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(m.to_string().contains("3.0000"));
    }
}
