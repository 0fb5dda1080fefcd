//! Autoregression fitted by batch gradient descent.
//!
//! The paper's second benchmark (Table 1): an AR(p) model of a financial
//! index series, fit by minimizing the mean squared one-step prediction
//! error. The residual and gradient accumulations — the dominant
//! datapath — run on the approximate adders; the convergence check and
//! the reported least-square error are exact.

use approx_arith::{ArithContext, Operand};
use approx_linalg::vector;

use crate::datasets::SeriesDataset;
use crate::method::IterativeMethod;

/// AR(p) least-squares regression as an [`IterativeMethod`].
///
/// State is the coefficient vector `w ∈ ℝᵖ`; one iteration is a
/// full-batch gradient step
/// `w ← w + (α/N) Σₙ (yₙ − w·xₙ) xₙ` computed on the context's datapath.
///
/// # Example
///
/// ```
/// use approx_arith::{ExactContext, EnergyProfile};
/// use iter_solvers::datasets::ar_series;
/// use iter_solvers::{AutoRegression, IterativeMethod};
///
/// let series = ar_series("demo", 400, &[0.6, 0.2], 1.0, 3);
/// let ar = AutoRegression::from_series(&series, 0.5, 1e-10, 500);
/// let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
/// let mut ctx = ExactContext::with_profile(profile);
/// let mut w = ar.initial_state();
/// for _ in 0..200 {
///     w = ar.step(&w, &mut ctx);
/// }
/// // The fit should recover coefficients near the generating ones.
/// assert!((w[0] - 0.6).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct AutoRegression {
    /// Regression order `p`.
    order: usize,
    /// The design matrix `X` (`N × p`, row-major), a constant operand
    /// of the prediction pass's fused [`ArithContext::matvec_operand`].
    x: Operand,
    /// `Xᵀ` (`p × N`, row-major), so the gradient accumulation
    /// `Σₙ rₙ·xₙ = Xᵀr` is one fused [`ArithContext::matvec_operand`]
    /// call per step as well. The exact monitors read its rows as the
    /// columns of `X`.
    xt: Operand,
    y: Vec<f64>,
    step_size: f64,
    tolerance: f64,
    max_iterations: usize,
}

impl AutoRegression {
    /// Create a regression over an explicit design matrix and target.
    ///
    /// # Panics
    /// Panics if the design matrix is empty or ragged, `y` has a
    /// different number of rows, the step size or tolerance is not
    /// positive, or `max_iterations` is 0.
    #[must_use]
    pub fn new(
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        step_size: f64,
        tolerance: f64,
        max_iterations: usize,
    ) -> Self {
        assert!(!x.is_empty(), "design matrix must be non-empty");
        let p = x[0].len();
        assert!(p > 0, "at least one regressor is required");
        assert!(x.iter().all(|r| r.len() == p), "ragged design matrix");
        assert_eq!(x.len(), y.len(), "one target per row required");
        assert!(step_size > 0.0, "step size must be positive");
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "iteration budget must be positive");
        let mut xt = vec![0.0; x.len() * p];
        for (n, row) in x.iter().enumerate() {
            for (i, &v) in row.iter().enumerate() {
                xt[i * x.len() + n] = v;
            }
        }
        Self {
            order: p,
            x: Operand::new(x.concat()),
            xt: Operand::new(xt),
            y,
            step_size,
            tolerance,
            max_iterations,
        }
    }

    /// Create a regression from a windowed series dataset.
    ///
    /// # Panics
    /// Propagates the panics of [`SeriesDataset::to_regression`] and
    /// [`AutoRegression::new`].
    #[must_use]
    pub fn from_series(
        series: &SeriesDataset,
        step_size: f64,
        tolerance: f64,
        max_iterations: usize,
    ) -> Self {
        let (x, y) = series.to_regression();
        Self::new(x, y, step_size, tolerance, max_iterations)
    }

    /// Regression order `p`.
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of samples `N`.
    #[must_use]
    pub fn num_samples(&self) -> usize {
        self.y.len()
    }

    /// The design matrix `X` (`N × p`, row-major; range analysis reads
    /// its entry bounds).
    #[must_use]
    pub fn design_matrix(&self) -> &[f64] {
        self.x.values()
    }

    /// The rows `xₙ` of the design matrix, in sample order.
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.x.values().chunks_exact(self.order)
    }

    /// The regression targets.
    #[must_use]
    pub fn targets(&self) -> &[f64] {
        &self.y
    }

    /// The gradient-descent step size `α`.
    #[must_use]
    pub fn step_size(&self) -> f64 {
        self.step_size
    }

    /// The exact least-squares solution via the normal equations — the
    /// reference the QEM can be measured against.
    ///
    /// # Panics
    /// Panics if the normal equations are singular.
    #[must_use]
    pub fn normal_equation_solution(&self) -> Vec<f64> {
        let p = self.order();
        let mut xtx = vec![0.0; p * p];
        let mut xty = vec![0.0; p];
        for (row, &target) in self.rows().zip(&self.y) {
            for ((xtx_row, b), &xi) in xtx.chunks_exact_mut(p).zip(&mut xty).zip(row) {
                *b += xi * target;
                for (c, &xj) in xtx_row.iter_mut().zip(row) {
                    *c += xi * xj;
                }
            }
        }
        let xtx = approx_linalg::Matrix::from_vec(p, p, xtx);
        approx_linalg::decomp::solve(&xtx, &xty).expect("normal equations are SPD")
    }

    /// Regressor `i` of samples `start..start + len`: a run of row `i`
    /// of `Xᵀ`.
    fn column(&self, i: usize, start: usize, len: usize) -> &[f64] {
        &self.xt.values()[i * self.num_samples() + start..][..len]
    }

    /// Calls `f(start, r)` for consecutive blocks of at most
    /// [`MONITOR_BLOCK`] samples, where `r[k] = y_{start+k} − x_{start+k}·w`
    /// and the dot is formed as `vector::dot_exact` forms it: from
    /// `−0.0`, adding `xₙᵢ·wᵢ` in ascending `i`. The block's dots advance
    /// side by side over four columns of `Xᵀ` per pass, instead of one
    /// serial chain per sample.
    fn for_each_residual_block(&self, w: &[f64], mut f: impl FnMut(usize, &[f64])) {
        assert_eq!(w.len(), self.order, "vector lengths must match");
        let (quads, tail) = w.as_chunks::<4>();
        let mut buf = [0.0; MONITOR_BLOCK];
        for (start, y) in (0..)
            .step_by(MONITOR_BLOCK)
            .zip(self.y.chunks(MONITOR_BLOCK))
        {
            let len = y.len();
            let column = |i| self.column(i, start, len);
            let r = &mut buf[..len];
            r.fill(-0.0);
            for (i, &[w0, w1, w2, w3]) in (0..).step_by(4).zip(quads) {
                let [c0, c1, c2, c3] = std::array::from_fn(|k| column(i + k));
                for (((acc, &x0), &x1), (&x2, &x3)) in
                    r.iter_mut().zip(c0).zip(c1).zip(c2.iter().zip(c3))
                {
                    *acc = (((*acc + x0 * w0) + x1 * w1) + x2 * w2) + x3 * w3;
                }
            }
            for (i, &wi) in (4 * quads.len()..).zip(tail) {
                for (acc, &x) in r.iter_mut().zip(column(i)) {
                    *acc += x * wi;
                }
            }
            for (acc, &yn) in r.iter_mut().zip(y) {
                *acc = yn - *acc;
            }
            f(start, r);
        }
    }
}

/// Samples per residual block of the exact monitors: 512 `f64` fill a
/// 4 KiB stack buffer, which stays in L1 while the columns stream past.
const MONITOR_BLOCK: usize = 512;

/// `gᵢ −= r_k·column(i)[k]` for `i < G`, in ascending `k`, with the `G`
/// sums held in locals so their chains overlap; returns `G`.
fn subtract_products<'a, const G: usize>(
    g: &mut [f64],
    r: &[f64],
    column: impl Fn(usize) -> &'a [f64],
) -> usize {
    let columns: [&[f64]; G] = std::array::from_fn(column);
    let mut acc: [f64; G] = std::array::from_fn(|i| g[i]);
    for (k, &rk) in r.iter().enumerate() {
        for (a, c) in acc.iter_mut().zip(&columns) {
            *a -= rk * c[k];
        }
    }
    g[..G].copy_from_slice(&acc);
    G
}

impl IterativeMethod for AutoRegression {
    type State = Vec<f64>;

    fn name(&self) -> &str {
        "autoregression"
    }

    /// Start from the zero coefficient vector (identical across all
    /// configurations).
    fn initial_state(&self) -> Vec<f64> {
        vec![0.0; self.order()]
    }

    fn step(&self, state: &Vec<f64>, ctx: &mut dyn ArithContext) -> Vec<f64> {
        let p = self.order();
        let n = self.num_samples();
        // All N predictions come from one fused matvec over the
        // row-major design matrix (each row reduced exactly like `dot`).
        let mut preds = vec![0.0; n];
        ctx.matvec_operand(&self.x, p, state, &mut preds);
        // Residuals yₙ − ŷₙ in one element-wise kernel.
        let mut residuals = vec![0.0; n];
        ctx.sub_slice(&self.y, &preds, &mut residuals);
        // Gradient accumulation Σₙ rₙ·xₙ = Xᵀr as one fused matvec over
        // the transpose. Each acc[i] sees the same left-to-right
        // add chain as the historical per-sample axpy loop (loop
        // interchange over independent accumulator chains; `mul` is
        // commutative on every datapath), so values, op counts and
        // energy are bit-identical to that formulation.
        let mut acc = vec![0.0; p];
        ctx.matvec_operand(&self.xt, n, &residuals, &mut acc);
        let scale = self.step_size / n as f64;
        vector::axpy(ctx, scale, &acc, state)
    }

    /// Exact mean squared error `(1/2N)‖y − Xw‖²`: `r²` summed from
    /// `+0.0` in sample order.
    fn objective(&self, state: &Vec<f64>) -> f64 {
        let mut sse = 0.0;
        self.for_each_residual_block(state, |_, r| {
            sse = r.iter().fold(sse, |s, &rn| s + rn * rn);
        });
        sse / (2.0 * self.num_samples() as f64)
    }

    /// Exact gradient `−(1/N) Xᵀ(y − Xw)`: each `gᵢ` starts at `+0.0`
    /// and subtracts `rₙ·xₙᵢ` in sample order.
    fn gradient(&self, state: &Vec<f64>) -> Option<Vec<f64>> {
        let mut g = vec![0.0; self.order()];
        self.for_each_residual_block(state, |start, r| {
            let column = |i| self.column(i, start, r.len());
            let mut i = 0;
            while i < g.len() {
                let g = &mut g[i..];
                i += match g.len() {
                    8.. => subtract_products::<8>(g, r, |k| column(i + k)),
                    4..=7 => subtract_products::<4>(g, r, |k| column(i + k)),
                    2 | 3 => subtract_products::<2>(g, r, |k| column(i + k)),
                    _ => subtract_products::<1>(g, r, |k| column(i + k)),
                };
            }
        });
        for gi in &mut g {
            *gi /= self.num_samples() as f64;
        }
        Some(g)
    }

    fn params(&self, state: &Vec<f64>) -> Vec<f64> {
        state.clone()
    }

    /// Converged when no coefficient moved more than the tolerance (the
    /// paper uses 1e-13 on the financial datasets).
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
    use crate::datasets::ar_series;
    use crate::method::run_to_convergence as run;
    use crate::metrics::l2_error;
    use approx_arith::{AccuracyLevel, ArithContext, EnergyProfile, ExactContext, QcsContext};

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    #[test]
    fn exact_gd_approaches_normal_equations() {
        let series = ar_series("t", 500, &[0.5, 0.25], 1.0, 17);
        let ar = AutoRegression::from_series(&series, 0.5, 1e-12, 5000);
        let want = ar.normal_equation_solution();
        let mut ctx = ExactContext::with_profile(profile());
        let (w, iters) = run(&ar, &mut ctx);
        assert!(iters < 5000, "did not converge");
        assert!(l2_error(&w, &want) < 1e-8, "w {w:?} vs {want:?}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let series = ar_series("t", 120, &[0.4, 0.2, 0.1], 1.0, 23);
        let ar = AutoRegression::from_series(&series, 0.3, 1e-10, 100);
        let w = vec![0.1, -0.2, 0.3];
        let g = ar.gradient(&w).unwrap();
        let h = 1e-7;
        for i in 0..3 {
            let mut wp = w.clone();
            wp[i] += h;
            let mut wm = w.clone();
            wm[i] -= h;
            let fd = (ar.objective(&wp) - ar.objective(&wm)) / (2.0 * h);
            assert!((fd - g[i]).abs() < 1e-5, "dim {i}: {fd} vs {}", g[i]);
        }
    }

    #[test]
    fn objective_decreases_monotonically() {
        let series = ar_series("t", 300, &[0.6], 1.0, 29);
        let ar = AutoRegression::from_series(&series, 0.3, 1e-12, 50);
        let mut ctx = ExactContext::with_profile(profile());
        let mut state = ar.initial_state();
        let mut prev = ar.objective(&state);
        for _ in 0..20 {
            state = ar.step(&state, &mut ctx);
            let f = ar.objective(&state);
            assert!(f <= prev + 1e-12);
            prev = f;
        }
    }

    #[test]
    fn approximate_modes_freeze_early_with_bias() {
        let series = ar_series("t", 400, &[0.5, 0.3], 1.0, 31);
        let reference = {
            let ar = AutoRegression::from_series(&series, 0.4, 1e-13, 3000);
            let mut ctx = ExactContext::with_profile(profile());
            run(&ar, &mut ctx).0
        };
        let mut qems = Vec::new();
        let mut iter_counts = Vec::new();
        for level in [AccuracyLevel::Level1, AccuracyLevel::Level4] {
            let ar = AutoRegression::from_series(&series, 0.4, 1e-13, 3000);
            let mut ctx = QcsContext::with_profile(profile());
            ctx.set_level(level);
            let (w, iters) = run(&ar, &mut ctx);
            qems.push(l2_error(&w, &reference));
            iter_counts.push(iters);
        }
        // Level 1 is far worse than level 4.
        assert!(qems[0] > qems[1], "qems {qems:?}");
        // Both freeze before the budget (quantized updates reach zero).
        assert!(iter_counts.iter().all(|&i| i < 3000), "{iter_counts:?}");
    }

    #[test]
    fn step_counts_operations() {
        let series = ar_series("t", 60, &[0.5], 1.0, 37);
        let ar = AutoRegression::from_series(&series, 0.3, 1e-10, 10);
        let mut ctx = ExactContext::with_profile(profile());
        let w = ar.initial_state();
        let _ = ar.step(&w, &mut ctx);
        let n = ar.num_samples() as u64;
        // Per sample: p muls + p adds (dot) + 1 sub + p muls + p adds
        // (axpy) with p = 1, plus the final p-element update.
        assert_eq!(ctx.counts().adds, n * 3 + 1);
        assert_eq!(ctx.counts().muls, n * 2 + 1);
    }

    /// Signed zeros (+0.0 twice), subnormals, infinities, NaN and
    /// ordinary values, as in the matrix tests.
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

    /// The row-wise loops `objective` and `gradient` had before they
    /// went column by column over `Xᵀ`.
    fn row_wise_monitors(x: &[Vec<f64>], y: &[f64], w: &[f64]) -> (f64, Vec<f64>) {
        let mut sse = 0.0;
        for (row, &target) in x.iter().zip(y) {
            let r = target - vector::dot_exact(row, w);
            sse += r * r;
        }
        let mut g = vec![0.0; w.len()];
        for (row, &target) in x.iter().zip(y) {
            let r = target - vector::dot_exact(row, w);
            for (gi, &xi) in g.iter_mut().zip(row) {
                *gi -= r * xi;
            }
        }
        for gi in &mut g {
            *gi /= y.len() as f64;
        }
        (sse / (2.0 * y.len() as f64), g)
    }

    #[test]
    fn exact_monitors_match_the_row_wise_loops_bit_for_bit() {
        // Rust leaves the sign and payload of a NaN result unspecified,
        // so a NaN matches any NaN; everything else matches bit for bit.
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = approx_arith::rng::Pcg32::seeded(43, 5);
        let b = MONITOR_BLOCK;
        for n in [1, b - 1, b, b + 1, 3 * b + 7] {
            for p in [1, 3, 8, 10, 11] {
                // All specials (most sums end non-finite), then the finite
                // specials among uniform draws, whose sums round, so a
                // changed order or start value shows.
                for finite in [false, true] {
                    let mut draw = || {
                        let pick = SPECIALS[rng.next_u32() as usize % SPECIALS.len()];
                        match (finite, rng.next_u32() % 3) {
                            (false, _) => pick,
                            (true, 0) if pick.is_finite() => pick,
                            _ => rng.uniform(-3.0, 3.0),
                        }
                    };
                    let w: Vec<f64> = (0..p).map(|_| draw()).collect();
                    let mut x: Vec<Vec<f64>> =
                        (0..n).map(|_| (0..p).map(|_| draw()).collect()).collect();
                    let mut y: Vec<f64> = (0..n).map(|_| draw()).collect();
                    // Samples with y = −0.0 and every xₙᵢ·wᵢ = −0.0: the
                    // dot is −0.0 from a −0.0 start and r is +0.0; a +0.0
                    // start would give r = −0.0.
                    for at in [0, n / 2, n - 1] {
                        y[at] = -0.0;
                        x[at] = w
                            .iter()
                            .map(|&wi| if wi.is_sign_negative() { 0.0 } else { -0.0 })
                            .collect();
                    }
                    let ar = AutoRegression::new(x.clone(), y.clone(), 0.1, 1e-9, 1);
                    let what = format!("N = {n}, p = {p}, finite {finite}");
                    let mut next = 0;
                    ar.for_each_residual_block(&w, |start, r| {
                        assert_eq!(start, next, "{what}: blocks in sample order");
                        assert!(!r.is_empty() && r.len() <= b, "{what}");
                        for (k, &rk) in r.iter().enumerate() {
                            let want = y[start + k] - vector::dot_exact(&x[start + k], &w);
                            assert!(
                                same(rk, want),
                                "{what}: r[{}] {rk:e} vs {want:e}",
                                start + k
                            );
                        }
                        next += r.len();
                    });
                    assert_eq!(next, n, "{what}: every sample once");
                    let (objective, gradient) = row_wise_monitors(&x, &y, &w);
                    let got = ar.objective(&w);
                    assert!(
                        same(got, objective),
                        "{what}: objective {got:e} vs {objective:e}"
                    );
                    let got = ar.gradient(&w).unwrap();
                    assert_eq!(got.len(), p);
                    for (i, (&gi, &want)) in got.iter().zip(&gradient).enumerate() {
                        assert!(same(gi, want), "{what}: g[{i}] {gi:e} vs {want:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn normal_equations_match_the_indexed_loop_bit_for_bit() {
        let series = ar_series("t", 300, &[0.5, 0.2, -0.1], 1.0, 41);
        let ar = AutoRegression::from_series(&series, 0.3, 1e-10, 10);
        // The loop `normal_equation_solution` had before it wrote
        // through row slices.
        let p = ar.order();
        let mut xtx = approx_linalg::Matrix::zeros(p, p);
        let mut xty = vec![0.0; p];
        for (row, &target) in ar.rows().zip(ar.targets()) {
            for i in 0..p {
                xty[i] += row[i] * target;
                for j in 0..p {
                    xtx[(i, j)] += row[i] * row[j];
                }
            }
        }
        let want = approx_linalg::decomp::solve(&xtx, &xty).unwrap();
        let got = ar.normal_equation_solution();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    #[should_panic(expected = "ragged design matrix")]
    fn ragged_matrix_panics() {
        let _ = AutoRegression::new(
            vec![vec![1.0, 2.0], vec![1.0]],
            vec![0.0, 0.0],
            0.1,
            1e-9,
            10,
        );
    }
}
