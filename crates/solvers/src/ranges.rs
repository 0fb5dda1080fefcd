//! Static range models of the benchmark datapaths.
//!
//! Each function here transcribes one solver's per-iteration arithmetic
//! into a [`RangeGraph`] over *declared* input ranges, so the analyzer
//! in [`approx_arith::range`] can prove — before any simulation — that
//! the fixed-point datapath cannot overflow or saturate.
//!
//! Two kinds of bounds feed the graphs:
//!
//! * **data bounds** read directly from the problem instance (matrix
//!   entries, regression rows, sample coordinates) — these are facts;
//! * **declared bounds** on quantities a static analysis cannot derive
//!   (iterate norms, CG's α/β, GMM's effective cluster weight) — these
//!   are assumptions in the assume-guarantee sense, and every model
//!   records them in its [`RangeModel::notes`] so a report can show
//!   exactly what the proof is conditioned on.

use approx_arith::range::{ExprId, RangeConfig, RangeGraph, RangeReport};
use approx_linalg::LinearOperator;

use crate::autoreg::AutoRegression;
use crate::cg::ConjugateGradient;
use crate::gmm::GaussianMixture;

/// A solver datapath transcribed for range analysis: the expression
/// graph plus the assumptions its proof is conditioned on.
#[derive(Debug, Clone)]
pub struct RangeModel {
    name: String,
    graph: RangeGraph,
    notes: Vec<String>,
    /// The next-state expressions of the iteration map — the values the
    /// solver carries into the following iteration. Error injected into
    /// these is what compounds across iterations, so the contraction
    /// analysis reads its per-iteration injected bound here.
    outputs: Vec<ExprId>,
}

impl RangeModel {
    /// Solver name the model describes.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The expression graph (for direct inspection of node bounds).
    #[must_use]
    pub fn graph(&self) -> &RangeGraph {
        &self.graph
    }

    /// The declared assumptions the proof relies on.
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The next-state expressions of the iteration map (see the field
    /// doc on [`RangeModel`]).
    #[must_use]
    pub fn outputs(&self) -> &[ExprId] {
        &self.outputs
    }

    /// Analyze the model under a per-operation error configuration.
    #[must_use]
    pub fn analyze(&self, config: &RangeConfig) -> RangeReport {
        self.graph.analyze(config)
    }
}

fn max_abs(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Declared (assume-guarantee) bounds for the CG datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgRangeSpec {
    /// Bound on `‖x‖∞`, `‖r‖∞` and `‖p‖∞` across all iterations.
    pub state_bound: f64,
    /// Bound on the step scalars `|α|` and `|β|`.
    pub scalar_bound: f64,
}

impl Default for CgRangeSpec {
    fn default() -> Self {
        // Sized for the paper-scale benchmark systems (entries of a few
        // units, well-conditioned): tight enough that the quadratic
        // p·Ap bound fits Q15.16, loose enough that real trajectories
        // stay inside — which `cg_iterates_respect_the_declared_state_bound`
        // checks against an actual run.
        Self {
            state_bound: 8.0,
            scalar_bound: 4.0,
        }
    }
}

/// Transcribe one CG iteration (`ap = Ap`, the three dot products, the
/// three axpy updates) over the actual entry bounds of the system.
///
/// The scalars α = rr/pap and β = rr'/rr are *declared* inputs: proving
/// `pap > 0` needs positive-definiteness, which is outside a static
/// range analysis — the runtime guard in [`ConjugateGradient::step`]
/// restarts on degenerate directions instead.
#[must_use]
pub fn cg_range_model<A: LinearOperator>(
    cg: &ConjugateGradient<A>,
    spec: &CgRangeSpec,
) -> RangeModel {
    let n = cg.order();
    let a_max = cg.operator().max_abs_entry();
    let b_max = max_abs(cg.rhs().iter().copied());
    let s = spec.state_bound.max(b_max); // initial r = p = b
    let g_bound = spec.scalar_bound;

    let mut g = RangeGraph::new();
    let a_entry = g.input("A[i][j]", -a_max, a_max);
    let x = g.input("x[i]", -s, s);
    let r = g.input("r[i]", -s, s);
    let p = g.input("p[i]", -s, s);
    let alpha = g.input("alpha", -g_bound, g_bound);
    let beta = g.input("beta", -g_bound, g_bound);

    // ap = A·p, one entry: a dot product over the operator's longest
    // row reduction (n for dense, max stored entries per row for
    // sparse — a 5-point stencil accumulates 5 terms, not n).
    let row_terms = cg.operator().max_row_terms();
    let ap = g.dot(a_entry, p, row_terms);
    g.named(ap, "ap[i] = (A p)[i]");

    // rr = r·r and pap = p·ap.
    let rr = g.dot(r, r, n);
    g.named(rr, "rr = r.r");
    let pap = g.dot(p, ap, n);
    g.named(pap, "pap = p.Ap");

    // The axpy updates.
    let step = g.mul(alpha, p);
    let x_next = g.add(x, step);
    g.named(x_next, "x' = x + alpha p");
    let neg_alpha = g.neg(alpha);
    let damp = g.mul(neg_alpha, ap);
    let r_next = g.add(r, damp);
    g.named(r_next, "r' = r - alpha Ap");
    let climb = g.mul(beta, p);
    let p_next = g.add(r, climb);
    g.named(p_next, "p' = r' + beta p");

    RangeModel {
        name: format!("conjugate-gradient(n={n})"),
        graph: g,
        outputs: vec![x_next, r_next, p_next],
        notes: vec![
            format!(
                "assumes iterate bound ‖x‖∞, ‖r‖∞, ‖p‖∞ ≤ {s} across all iterations \
                 (data gives ‖b‖∞ = {b_max})"
            ),
            format!(
                "assumes |alpha|, |beta| ≤ {g_bound}: alpha = rr/pap needs A ≻ 0, \
                 which static range analysis cannot establish"
            ),
        ],
    }
}

/// Declared bounds for the autoregression datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArRangeSpec {
    /// Bound on `‖w‖∞` across all iterations.
    pub weight_bound: f64,
}

impl Default for ArRangeSpec {
    fn default() -> Self {
        // Standardized series keep the true coefficients well below 1;
        // the fitted vector approaches them from zero, so 1.5 holds
        // with margin while keeping the N-term gradient accumulation
        // inside Q15.16.
        Self { weight_bound: 1.5 }
    }
}

/// Transcribe one AR gradient step (per-sample prediction, residual,
/// gradient accumulation over all `N` samples, scaled coefficient
/// update) over the actual bounds of the design matrix and targets.
#[must_use]
pub fn ar_range_model(ar: &AutoRegression, spec: &ArRangeSpec) -> RangeModel {
    let p = ar.order();
    let n = ar.num_samples();
    let x_max = max_abs(ar.design_matrix().iter().copied());
    let y_max = max_abs(ar.targets().iter().copied());
    let w_bound = spec.weight_bound;

    let mut g = RangeGraph::new();
    let x = g.input("x[n][j]", -x_max, x_max);
    let y = g.input("y[n]", -y_max, y_max);
    let w = g.input("w[j]", -w_bound, w_bound);

    let pred = g.dot(x, w, p);
    g.named(pred, "pred = x.w");
    let residual = g.sub(y, pred);
    g.named(residual, "residual = y - pred");

    // acc[j] = Σₙ residual·x[n][j], accumulated on the datapath.
    let contrib = g.mul(residual, x);
    let acc = g.sum_of(contrib, n);
    g.named(acc, "acc[j] = sum residual x[n][j]");

    // w' = w + (alpha/N)·acc.
    let scale = g.constant(ar.step_size() / n as f64);
    let update = g.mul(scale, acc);
    let w_next = g.add(w, update);
    g.named(w_next, "w' = w + (alpha/N) acc");

    RangeModel {
        name: format!("autoregression(p={p}, N={n})"),
        graph: g,
        outputs: vec![w_next],
        notes: vec![format!(
            "assumes coefficient bound ‖w‖∞ ≤ {w_bound} across all iterations \
             (data gives max |x| = {x_max:.4}, max |y| = {y_max:.4})"
        )],
    }
}

/// Declared bounds for the GMM M-step mean datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmRangeSpec {
    /// Declared lower bound on the effective cluster weight
    /// `nk = Σᵢ rᵢ` the division is conditioned on. Positivity itself
    /// is enforced at runtime ([`weighted_mean`] returns `None` on
    /// non-positive totals and the previous mean is kept); the floor's
    /// *magnitude* is an assumption about healthy clusterings,
    /// recorded in the model's notes.
    ///
    /// [`weighted_mean`]: approx_linalg::stats::weighted_mean
    pub min_cluster_weight: f64,
}

impl Default for GmmRangeSpec {
    fn default() -> Self {
        // A live cluster owns at least one point's worth of
        // responsibility mass. A much smaller floor (say 1e-3) is
        // still sound for the division but inflates the mean's
        // interval by 1/floor, far past any fixed-point format.
        Self {
            min_cluster_weight: 1.0,
        }
    }
}

/// Transcribe the GMM M-step mean update — the one approximate datapath
/// of the benchmark: `mean[j] = (Σᵢ rᵢ·xᵢ[j]) / (Σᵢ rᵢ)` with
/// responsibilities `rᵢ ∈ [0, 1]`.
///
/// The divisor is a *declared* input `[min_cluster_weight, m]`: the
/// accumulated total's own range necessarily includes values near zero,
/// so the division is conditioned on the runtime's positive-total guard.
#[must_use]
pub fn gmm_range_model(gmm: &GaussianMixture, spec: &GmmRangeSpec) -> RangeModel {
    let m = gmm.points().len();
    let x_max = max_abs(gmm.points().iter().flatten().copied());
    let nk_min = spec.min_cluster_weight;

    let mut g = RangeGraph::new();
    let resp = g.input("r[i]", 0.0, 1.0);
    let coord = g.input("x[i][j]", -x_max, x_max);

    let weighted = g.mul(resp, coord);
    let acc = g.sum_of(weighted, m);
    g.named(acc, "acc[j] = sum r[i] x[i][j]");

    let nk = g.input("nk = sum r[i]", nk_min, m as f64);
    let mean = g.div(acc, nk);
    g.named(mean, "mean[j] = acc[j] / nk");

    RangeModel {
        name: format!("gmm-mean(m={m}, k={})", gmm.k()),
        graph: g,
        outputs: vec![mean],
        notes: vec![format!(
            "assumes effective cluster weight nk ≥ {nk_min}: positivity is \
             guaranteed at runtime by the empty-cluster guard, not provable \
             statically (data gives max |x| = {x_max:.4})"
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::range::RangeVerdict;
    use approx_arith::{EnergyProfile, QFormat, QcsContext};
    use approx_linalg::Matrix;

    use crate::datasets;
    use crate::method::IterativeMethod;

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    fn cg_system(n: usize) -> ConjugateGradient {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.5).collect();
        ConjugateGradient::new(a, b, 1e-12, 100)
    }

    #[test]
    fn cg_datapath_is_proven_for_paper_format() {
        let cg = cg_system(10);
        let model = cg_range_model(&cg, &CgRangeSpec::default());
        let report = model.analyze(&RangeConfig::exact(QFormat::Q15_16));
        assert!(report.proven(), "{}", report.verdict);
        assert_eq!(model.notes().len(), 2);
    }

    #[test]
    fn cg_iterates_respect_the_declared_state_bound() {
        // The assume-guarantee contract is only honest if real runs stay
        // inside the declared bounds — check an exact-mode trajectory.
        let cg = cg_system(10);
        let spec = CgRangeSpec::default();
        let mut ctx = QcsContext::with_profile(profile());
        let mut state = cg.initial_state();
        for _ in 0..20 {
            state = cg.step(&state, &mut ctx);
            for v in state.x.iter().chain(&state.r).chain(&state.p) {
                assert!(
                    v.abs() <= spec.state_bound,
                    "iterate {v} escapes declared bound {}",
                    spec.state_bound
                );
            }
        }
    }

    #[test]
    fn cg_overflows_on_a_narrow_format() {
        // Same datapath, Q3.4 toy format: the dot products cannot fit.
        let cg = cg_system(10);
        let model = cg_range_model(&cg, &CgRangeSpec::default());
        let narrow = QFormat::new(8, 4);
        let report = model.analyze(&RangeConfig::exact(narrow));
        assert!(
            matches!(report.verdict, RangeVerdict::MayOverflow { .. }),
            "{}",
            report.verdict
        );
    }

    #[test]
    fn ar_datapath_is_proven_for_paper_format() {
        let series = datasets::ar_series("range", 400, &[0.6, 0.2], 1.0, 3);
        let ar = AutoRegression::from_series(&series, 0.5, 1e-10, 500);
        let model = ar_range_model(&ar, &ArRangeSpec::default());
        let report = model.analyze(&RangeConfig::exact(QFormat::Q15_16));
        assert!(report.proven(), "{}", report.verdict);
    }

    #[test]
    fn ar_coefficients_respect_the_declared_weight_bound() {
        let series = datasets::ar_series("range", 400, &[0.6, 0.2], 1.0, 3);
        let ar = AutoRegression::from_series(&series, 0.5, 1e-10, 500);
        let spec = ArRangeSpec::default();
        let mut ctx = QcsContext::with_profile(profile());
        let mut w = ar.initial_state();
        for _ in 0..200 {
            w = ar.step(&w, &mut ctx);
            for v in &w {
                assert!(
                    v.abs() <= spec.weight_bound,
                    "coefficient {v} escapes declared bound {}",
                    spec.weight_bound
                );
            }
        }
    }

    #[test]
    fn gmm_divisor_needs_its_declared_floor() {
        let dataset = datasets::gaussian_blobs(
            "range",
            &[30, 30],
            &[vec![0.0, 0.0], vec![6.0, 6.0]],
            &[0.6, 0.6],
            1,
        );
        let gmm = GaussianMixture::from_dataset(&dataset, 1e-9, 100, 7);
        let model = gmm_range_model(&gmm, &GmmRangeSpec::default());
        let report = model.analyze(&RangeConfig::exact(QFormat::Q31_16));
        assert!(report.proven(), "{}", report.verdict);
        assert!(model.notes()[0].contains("nk"));

        // Without the floor the divisor straddles zero and the analysis
        // must refuse to bound the mean.
        let m = gmm.points().len();
        let x_max = gmm
            .points()
            .iter()
            .flatten()
            .fold(0.0_f64, |a, v| a.max(v.abs()));
        let mut g = RangeGraph::new();
        let resp = g.input("r", 0.0, 1.0);
        let coord = g.input("x", -x_max, x_max);
        let weighted = g.mul(resp, coord);
        let acc = g.sum_of(weighted, m);
        let nk = g.input("nk", 0.0, m as f64);
        let mean = g.div(acc, nk);
        g.named(mean, "mean");
        let report = g.analyze(&RangeConfig::exact(QFormat::Q31_16));
        assert_eq!(
            report.verdict,
            RangeVerdict::Unbounded {
                expr: "mean".into()
            }
        );
    }
}
