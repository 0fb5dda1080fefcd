//! Dense row-major matrices.

use approx_arith::{ArithContext, Operand};

use crate::operator::LinearOperator;

/// A dense row-major `f64` matrix.
///
/// The entries are a constant fabric [`Operand`]: the first
/// [`LinearOperator::apply`] on a fixed-point context converts them to
/// datapath words, later applies reuse those words, and any write
/// through `IndexMut` drops them.
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
    data: Operand,
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
            data: Operand::new(vec![0.0; rows * cols]),
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
            data: Operand::new(data),
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
        Self {
            rows,
            cols,
            data: Operand::new(data),
        }
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
        &self.as_slice()[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        self.data.values()
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut t = vec![0.0; self.rows * self.cols];
        for (i, row) in self.as_slice().chunks_exact(self.cols).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                t[j * self.rows + i] = v;
            }
        }
        Self::from_vec(self.cols, self.rows, t)
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
    /// [`ArithContext::matvec_operand`] call over the row-major storage).
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, ctx: &mut dyn ArithContext, x: &[f64]) -> Vec<f64> {
        LinearOperator::matvec(self, ctx, x)
    }

    /// Exact matrix product `self · rhs`.
    ///
    /// Each entry is the left-to-right sum over `k` of `a_ik · b_kj`
    /// from `+0.0`, skipping every `a_ik == 0.0`.
    ///
    /// Two output rows take four `k` per pass: each entry is read once,
    /// takes `(((c + a_k·b_k) + a_{k+1}·b_{k+1}) + …) + a_{k+3}·b_{k+3}`
    /// and is written once, so the two rows' sums share every load of
    /// `b`. A block whose eight `a_ik` hold a zero, the `k mod 4` tail
    /// and an odd last row add term by term instead; either way every
    /// entry sees the same terms in the same order (DESIGN.md §15, "The
    /// exact plane").
    ///
    /// # Panics
    /// Panics if the inner dimensions differ.
    #[must_use]
    pub fn matmul_exact(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let (n, m) = (self.cols, rhs.cols);
        let b = rhs.as_slice();
        let mut out = vec![0.0; self.rows * m];
        let mut out_pairs = out.chunks_exact_mut(2 * m);
        let mut a_pairs = self.as_slice().chunks_exact(2 * n);
        for (o, a) in (&mut out_pairs).zip(&mut a_pairs) {
            let ((o0, o1), (a0, a1)) = (o.split_at_mut(m), a.split_at(n));
            let ((quads0, tail0), (quads1, tail1)) = (a0.as_chunks::<4>(), a1.as_chunks::<4>());
            let mut b_quads = b.chunks_exact(4 * m);
            for ((k0, k1), bq) in quads0.iter().zip(quads1).zip(&mut b_quads) {
                if k0.iter().chain(k1).any(|&v| v == 0.0) {
                    add_row_terms(o0, k0, bq);
                    add_row_terms(o1, k1, bq);
                    continue;
                }
                let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (*k0, *k1);
                let (b0, rest) = bq.split_at(m);
                let (b1, rest) = rest.split_at(m);
                let (b2, b3) = rest.split_at(m);
                let lanes = o0.iter_mut().zip(o1.iter_mut());
                for ((((c0, c1), &v0), &v1), (&v2, &v3)) in
                    lanes.zip(b0).zip(b1).zip(b2.iter().zip(b3))
                {
                    *c0 = (((*c0 + x0 * v0) + x1 * v1) + x2 * v2) + x3 * v3;
                    *c1 = (((*c1 + y0 * v0) + y1 * v1) + y2 * v2) + y3 * v3;
                }
            }
            add_row_terms(o0, tail0, b_quads.remainder());
            add_row_terms(o1, tail1, b_quads.remainder());
        }
        let last = out_pairs.into_remainder();
        if !last.is_empty() {
            add_row_terms(last, a_pairs.remainder(), b);
        }
        Matrix::from_vec(self.rows, m, out)
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

/// `o += a_k · b_k` for each `k` in ascending order, skipping every
/// `a_k == 0.0`; `b` holds the rows `b_k` of `o.len()` entries each.
fn add_row_terms(o: &mut [f64], a: &[f64], b: &[f64]) {
    for (&ak, bk) in a.iter().zip(b.chunks_exact(o.len())) {
        if ak != 0.0 {
            for (c, &bkj) in o.iter_mut().zip(bk) {
                *c += ak * bkj;
            }
        }
    }
}

impl LinearOperator for Matrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// A single [`ArithContext::matvec_operand`] call over the
    /// row-major storage, so contexts with batched kernels convert the
    /// shared vector once, reuse the matrix's cached datapath words and
    /// run every row reduction at slice granularity.
    fn apply(&self, ctx: &mut dyn ArithContext, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        assert_eq!(out.len(), self.rows, "output length must equal row count");
        ctx.matvec_operand(&self.data, self.cols, x, out);
    }

    /// Each row is one left-to-right sum of `a_ij · x_j` from `+0.0`.
    /// Four rows run side by side, so their independent sums overlap
    /// the add latency a single serial row would wait on.
    fn apply_exact(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        assert_eq!(out.len(), self.rows, "output length must equal row count");
        let cols = self.cols;
        let mut quads = out.chunks_exact_mut(4);
        let mut blocks = self.as_slice().chunks_exact(4 * cols);
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
        self.as_slice().iter().fold(0.0_f64, |m, v| m.max(v.abs()))
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
        &self.as_slice()[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data.values_mut()[i * self.cols + j]
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

    /// Signed zeros (+0.0 twice, so the `a_ik == 0.0` skip is common),
    /// subnormals, infinities, NaN and ordinary values.
    const SPECIALS: [f64; 12] = [
        0.0,
        -0.0,
        0.0,
        f64::from_bits(1),
        -f64::MIN_POSITIVE / 2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.5,
        -2.25,
        3e-3,
        -7e5,
    ];

    fn draw_specials(rng: &mut approx_arith::rng::Pcg32, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| SPECIALS[rng.next_u32() as usize % SPECIALS.len()])
            .collect()
    }

    /// Nonzero entries: one in eight a special past the list's three
    /// zeros, the rest uniform draws, whose sums round, so a term added
    /// out of order changes the bits.
    fn draw_nonzero(rng: &mut approx_arith::rng::Pcg32, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.next_u32() % 8 {
                0 => SPECIALS[3 + rng.next_u32() as usize % (SPECIALS.len() - 3)],
                _ => rng.uniform(-3.0, 3.0),
            })
            .collect()
    }

    #[test]
    fn matmul_and_transpose_match_the_entrywise_loops_bit_for_bit() {
        let mut rng = approx_arith::rng::Pcg32::seeded(11, 3);
        // Inner dimensions below, at and past one block of four `k`
        // with every `k mod 4` tail, and an odd column count.
        let shapes = [(1, 1), (3, 2), (4, 3), (5, 7), (8, 4), (9, 17), (13, 5)];
        for rows in 1..=9 {
            for (inner, cols) in shapes {
                let b = Matrix::from_vec(inner, cols, draw_nonzero(&mut rng, inner * cols));
                // Mostly mixed blocks, blocks of nonzeros only, and
                // nonzero blocks with one zero planted in one of the two
                // rows of a pair.
                let specials = draw_specials(&mut rng, rows * inner);
                let nonzero = draw_nonzero(&mut rng, rows * inner);
                let mut planted = nonzero.clone();
                let at = rng.next_u32() as usize % planted.len();
                planted[at] = if rng.next_u32() & 1 == 0 { 0.0 } else { -0.0 };
                for (kind, a) in [
                    ("specials", specials),
                    ("nonzero", nonzero),
                    ("planted", planted),
                ] {
                    let a = Matrix::from_vec(rows, inner, a);
                    check_matmul(&a, &b, &format!("{kind} {rows}x{inner}·{inner}x{cols}"));
                }
                let b = Matrix::from_vec(inner, cols, draw_specials(&mut rng, inner * cols));
                let a = Matrix::from_vec(rows, inner, draw_nonzero(&mut rng, rows * inner));
                check_matmul(&a, &b, &format!("special b {rows}x{inner}·{inner}x{cols}"));
                let t = a.transpose();
                assert_eq!((t.rows(), t.cols()), (inner, rows));
                for i in 0..rows {
                    for k in 0..inner {
                        assert_eq!(t[(k, i)].to_bits(), a[(i, k)].to_bits());
                    }
                }
            }
        }
    }

    /// `matmul_exact` against the triple loop it had before it wrote
    /// through row slices.
    fn check_matmul(a: &Matrix, b: &Matrix, what: &str) {
        let (rows, inner, cols) = (a.rows(), a.cols(), b.cols());
        let mut want = vec![0.0f64; rows * cols];
        for i in 0..rows {
            for k in 0..inner {
                let aik = a[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..cols {
                    want[i * cols + j] += aik * b[(k, j)];
                }
            }
        }
        let got = a.matmul_exact(b);
        // Rust leaves the sign and payload of a NaN result unspecified
        // (an optimized build may commute `c + a·b`), so a NaN matches
        // any NaN; every other entry matches bit for bit.
        let bits = |v: &[f64]| {
            v.iter()
                .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(got.as_slice()), bits(&want), "{what}");
    }

    fn qcs(format: approx_arith::QFormat) -> approx_arith::QcsContext {
        let adder = approx_arith::QcsAdder::new(format.width(), [20, 15, 10, 5]);
        let mut ctx = approx_arith::QcsContext::new(adder, format, test_profile());
        ctx.set_level(approx_arith::AccuracyLevel::Level2);
        ctx
    }

    fn test_profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    #[test]
    fn a_write_after_an_apply_reaches_the_next_apply() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut ctx = qcs(approx_arith::QFormat::Q15_16);
        let x = [0.5, -1.0];
        assert_eq!(m.matvec(&mut ctx, &x), vec![-1.5, -2.5]);
        m[(1, 0)] = 7.0;
        assert_eq!(m.matvec(&mut ctx, &x), vec![-1.5, -0.5]);
        let mut twin = m.clone();
        assert_eq!(twin.matvec(&mut ctx, &x), vec![-1.5, -0.5]);
        twin[(0, 1)] = 0.0;
        assert_eq!(twin.matvec(&mut ctx, &x), vec![0.5, -0.5]);
        assert_eq!(
            m.matvec(&mut ctx, &x),
            vec![-1.5, -0.5],
            "the original keeps its entries"
        );
    }

    #[test]
    fn every_format_matches_the_slice_kernel_whichever_filled_the_cache() {
        use approx_arith::QFormat;
        let mut rng = approx_arith::rng::Pcg32::seeded(29, 1);
        let m = Matrix::from_vec(6, 5, (0..30).map(|_| rng.uniform(-3.0, 3.0)).collect());
        let x: Vec<f64> = (0..5).map(|_| rng.uniform(-2.0, 2.0)).collect();
        // Two formats that cache (≤ 32 bits) and two that never do.
        let formats = [
            QFormat::Q15_16,
            QFormat::new(24, 12),
            QFormat::Q31_16,
            QFormat::Q31_32,
        ];
        for first in formats {
            // A clone starts empty, so each `first` fills its own cache.
            let m = m.clone();
            for format in std::iter::once(first).chain(formats) {
                let (mut op, mut slice) = (qcs(format), qcs(format));
                let got = m.matvec(&mut op, &x);
                let mut want = vec![0.0; 6];
                slice.matvec_slice(m.as_slice(), 5, &x, &mut want);
                assert_eq!(got, want, "{first} then {format}");
                assert_eq!(op.counts(), slice.counts());
                assert_eq!(op.total_energy().to_bits(), slice.total_energy().to_bits());
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
