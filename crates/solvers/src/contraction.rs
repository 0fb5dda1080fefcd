//! Static contraction factors of the benchmark iteration maps.
//!
//! The quality guarantee needs more than a per-iteration error bound:
//! injected error *compounds* across iterations, and the compounded
//! total only stays finite when the exact iteration map is a
//! contraction. This module derives per-solver contraction factors `ρ`
//! statically — from the problem data, before any simulation — so they
//! can be combined with the per-iteration injected bounds of
//! [`approx_arith::errorprop`] into an [`ErrorRecurrence`] whose steady
//! state `δ/(1−ρ)` is the static quality guarantee.
//!
//! Derivations, in the same assume-guarantee style as
//! [`crate::ranges`]:
//!
//! * **CG** — eigenvalue bounds of the system matrix by Gershgorin
//!   discs; if they certify positive-definiteness, the classical
//!   Chebyshev bound `ρ = (√κ−1)/(√κ+1)` on the condition number bound
//!   `κ ≤ λmax/λmin` holds for the energy-norm error.
//! * **AR gradient descent** — the error iterates *exactly* under
//!   `e' = (I − (α/N)·XᵀX)·e`; Gershgorin on the (computed) Gram matrix
//!   bounds that matrix's spectrum, hence its 2-norm.
//! * **GMM EM** — EM's local rate depends on cluster overlap, which no
//!   cheap static argument bounds; the factor is *declared* and the
//!   declaration is validated against measured trajectories (the same
//!   contract the range models use for iterate bounds).

use approx_arith::errorprop::{propagate_error, ErrorRecurrence};
use approx_arith::range::RangeConfig;
use approx_linalg::{LinearOperator, Matrix};

use crate::autoreg::AutoRegression;
use crate::cg::ConjugateGradient;
use crate::gmm::GaussianMixture;
use crate::ranges::RangeModel;

/// A statically derived (or declared) contraction factor for one
/// solver's iteration map, with the derivation spelled out.
#[derive(Debug, Clone)]
pub struct ContractionReport {
    name: String,
    factor: f64,
    notes: Vec<String>,
}

impl ContractionReport {
    /// Solver the factor belongs to.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The contraction factor `ρ`. A value `≥ 1` means the analysis
    /// could not certify contraction (the notes say why).
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// `true` when the map was certified (or declared) contracting.
    #[must_use]
    pub fn is_contracting(&self) -> bool {
        self.factor < 1.0
    }

    /// How the factor was obtained and what it is conditioned on.
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Combine with a per-iteration injected error bound `δ` into the
    /// error recurrence `e' ≤ ρ·e + δ`.
    #[must_use]
    pub fn recurrence(&self, injected: f64) -> ErrorRecurrence {
        ErrorRecurrence::new(self.factor, injected)
    }
}

impl std::fmt::Display for ContractionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: rho = {:.6}", self.name, self.factor)
    }
}

/// Gershgorin disc bounds on the spectrum of a symmetric operator:
/// every eigenvalue lies in `[lo, hi]` where each row contributes the
/// disc `center a_ii`, `radius Σ_{j≠i} |a_ij|` — both read through the
/// [`LinearOperator`] structural probes, so the certificate works
/// unchanged for dense and sparse systems.
fn gershgorin<A: LinearOperator>(m: &A) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (diag, off) in m.diagonal().iter().zip(m.off_diagonal_abs_row_sums()) {
        lo = lo.min(diag - off);
        hi = hi.max(diag + off);
    }
    (lo, hi)
}

/// Contraction factor of CG's energy-norm error from Gershgorin bounds
/// on the system matrix: `κ ≤ λmax/λmin` gives the Chebyshev rate
/// `ρ = (√κ−1)/(√κ+1)` per iteration. If the discs do not certify
/// `λmin > 0`, the factor is reported as `1.0` (no static certificate —
/// CG may still converge, but this analysis cannot prove it).
#[must_use]
pub fn cg_contraction<A: LinearOperator>(cg: &ConjugateGradient<A>) -> ContractionReport {
    let (lmin, lmax) = gershgorin(cg.operator());
    let name = format!("conjugate-gradient(n={})", cg.order());
    if lmin <= 0.0 {
        return ContractionReport {
            name,
            factor: 1.0,
            notes: vec![format!(
                "Gershgorin discs give lambda in [{lmin:.4}, {lmax:.4}]: positive-definiteness \
                 not certified, no static contraction factor"
            )],
        };
    }
    let kappa = lmax / lmin;
    let s = kappa.sqrt();
    let factor = (s - 1.0) / (s + 1.0);
    ContractionReport {
        name,
        factor,
        notes: vec![
            format!("Gershgorin: lambda in [{lmin:.4}, {lmax:.4}], kappa <= {kappa:.4}"),
            format!(
                "Chebyshev bound on the A-norm error: rho = (sqrt(kappa)-1)/(sqrt(kappa)+1) \
                 = {factor:.6}"
            ),
        ],
    }
}

/// Contraction factor of AR gradient descent. The coefficient error
/// iterates exactly under `e' = M·e` with `M = I − (α/N)·XᵀX`, so
/// `ρ = ‖M‖₂ = max |eig(M)|`, bounded via Gershgorin on the Gram
/// matrix (clamped below at 0: `XᵀX` is positive semi-definite
/// regardless of what the discs say).
#[must_use]
pub fn ar_contraction(ar: &AutoRegression) -> ContractionReport {
    let p = ar.order();
    let n = ar.num_samples();
    let mut gram = Matrix::zeros(p, p);
    for row in ar.design_matrix().chunks_exact(p) {
        for j in 0..p {
            for k in 0..p {
                gram[(j, k)] += row[j] * row[k];
            }
        }
    }
    let (glo, ghi) = gershgorin(&gram);
    let glo = glo.max(0.0);
    let a = ar.step_size() / n as f64;
    let name = format!("autoregression(p={p}, N={n})");
    // eig(M) ranges over [1 − a·ghi, 1 − a·glo].
    let factor = (1.0 - a * ghi).abs().max((1.0 - a * glo).abs());
    let mut notes = vec![
        format!("error map is exactly linear: e' = (I - (alpha/N) X^T X) e"),
        format!(
            "Gershgorin on the Gram matrix: lambda in [{glo:.4}, {ghi:.4}], \
             step alpha/N = {a:.6}, rho = {factor:.6}"
        ),
    ];
    if factor >= 1.0 {
        notes.push(
            "discs do not separate the Gram spectrum from 0 (or the step overshoots): \
             no static contraction certificate"
                .into(),
        );
    }
    ContractionReport {
        name,
        factor,
        notes,
    }
}

/// Declared contraction factor for GMM EM's mean updates.
///
/// EM's local convergence rate is governed by the fraction of missing
/// information — a quantity tied to cluster overlap that static
/// analysis of the datapath cannot bound. Like the iterate bounds of
/// [`crate::ranges`], the factor is an assume-guarantee *declaration*:
/// this function records it with its justification, and the test suite
/// (plus the `guarantee` bench binary) validates it against measured
/// update trajectories on the benchmark datasets.
#[must_use]
pub fn gmm_contraction(gmm: &GaussianMixture, declared_factor: f64) -> ContractionReport {
    assert!(
        declared_factor > 0.0 && declared_factor.is_finite(),
        "declared factor must be positive and finite"
    );
    ContractionReport {
        name: format!("gmm-em(m={}, k={})", gmm.points().len(), gmm.k()),
        factor: declared_factor,
        notes: vec![format!(
            "declared: EM rate = fraction of missing information, not statically \
             derivable; declaration rho <= {declared_factor} is validated against \
             measured update trajectories on well-separated benchmark blobs"
        )],
    }
}

/// Per-iteration injected error bound `δ` of a solver datapath: the
/// worst error-propagation bound over the model's next-state outputs,
/// i.e. the most error one iteration on the `approx` datapath can add
/// relative to the `exact` one from identical inputs.
#[must_use]
pub fn injected_error_bound(model: &RangeModel, approx: &RangeConfig, exact: &RangeConfig) -> f64 {
    let report = propagate_error(model.graph(), approx, exact);
    model
        .outputs()
        .iter()
        .map(|&id| report.bound(id))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approx_arith::{EnergyProfile, ExactContext, QFormat};

    use crate::datasets;
    use crate::method::IterativeMethod;
    use crate::ranges::{ar_range_model, ArRangeSpec};

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
    fn cg_tridiagonal_matches_the_closed_form() {
        // Discs: diag 4, off-diagonal sum <= 2 → lambda in [2, 6],
        // kappa <= 3, rho = (sqrt 3 - 1)/(sqrt 3 + 1).
        let report = cg_contraction(&cg_system(10));
        let expected = (3f64.sqrt() - 1.0) / (3f64.sqrt() + 1.0);
        assert!((report.factor() - expected).abs() < 1e-12);
        assert!(report.is_contracting());
        assert!(report.notes()[0].contains("kappa"));
    }

    #[test]
    fn cg_without_diagonal_dominance_is_not_certified() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a[(i, i)] = 1.0;
        }
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        let cg = ConjugateGradient::new(a, vec![1.0; 3], 1e-12, 10);
        let report = cg_contraction(&cg);
        assert!(!report.is_contracting());
        assert!(report.notes()[0].contains("not certified"));
    }

    #[test]
    fn cg_observed_error_reduction_beats_the_static_rate() {
        // The Chebyshev factor bounds the A-norm error rate; CG in
        // floating point on a well-conditioned system converges at
        // least that fast. Compare ||x_k - x*||_2 reduction over 10
        // iterations against factor^10 (norm equivalence costs at most
        // sqrt(kappa) <= sqrt(3), far below the headroom here).
        let cg = cg_system(10);
        let report = cg_contraction(&cg);
        let x_star = {
            // Converge fully in exact arithmetic as reference.
            let mut ctx = ExactContext::with_profile(profile());
            let mut s = cg.initial_state();
            for _ in 0..60 {
                s = cg.step(&s, &mut ctx);
            }
            s.x.clone()
        };
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut ctx = ExactContext::with_profile(profile());
        let s0 = cg.initial_state();
        let e0 = norm(
            &s0.x
                .iter()
                .zip(&x_star)
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>(),
        );
        let mut s = s0;
        for _ in 0..10 {
            s = cg.step(&s, &mut ctx);
        }
        let e10 = norm(
            &s.x.iter()
                .zip(&x_star)
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>(),
        );
        let budget = report.factor().powi(10) * e0 * 3f64.sqrt() + 1e-9;
        assert!(e10 <= budget, "e10 = {e10}, static budget {budget}");
    }

    #[test]
    fn ar_gradient_descent_contracts_at_the_derived_rate() {
        let series = datasets::ar_series("contraction", 400, &[0.6, 0.2], 1.0, 3);
        let ar = AutoRegression::from_series(&series, 0.5, 1e-10, 500);
        let report = ar_contraction(&ar);
        assert!(report.is_contracting(), "{report}");

        // The coefficient error shrinks by at least the factor every
        // step (the error map is exactly linear with 2-norm <= rho).
        let w_star = ar.normal_equation_solution();
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut ctx = ExactContext::with_profile(profile());
        let mut w = ar.initial_state();
        let mut prev_err = norm(
            &w.iter()
                .zip(&w_star)
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>(),
        );
        for _ in 0..30 {
            w = ar.step(&w, &mut ctx);
            let err = norm(
                &w.iter()
                    .zip(&w_star)
                    .map(|(a, b)| a - b)
                    .collect::<Vec<_>>(),
            );
            assert!(
                err <= report.factor() * prev_err + 1e-6,
                "step error {err} exceeds rho * {prev_err}"
            );
            prev_err = err;
        }
    }

    #[test]
    fn gmm_declared_factor_dominates_measured_update_ratios() {
        let dataset = datasets::gaussian_blobs(
            "contraction",
            &[30, 30],
            &[vec![0.0, 0.0], vec![6.0, 6.0]],
            &[0.6, 0.6],
            1,
        );
        let gmm = GaussianMixture::from_dataset(&dataset, 1e-9, 100, 7);
        let report = gmm_contraction(&gmm, 0.9);
        let mut ctx = ExactContext::with_profile(profile());
        let mut prev = gmm.initial_state();
        let mut prev_update: Option<f64> = None;
        for _ in 0..25 {
            let next = gmm.step(&prev, &mut ctx);
            let update: f64 = next
                .means
                .iter()
                .flatten()
                .zip(prev.means.iter().flatten())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            if let Some(p) = prev_update {
                if p > 1e-8 {
                    assert!(
                        update <= report.factor() * p + 1e-9,
                        "update ratio {} exceeds declared {}",
                        update / p,
                        report.factor()
                    );
                }
            }
            prev_update = Some(update);
            prev = next;
        }
    }

    #[test]
    fn injected_bound_is_positive_and_grows_with_slack() {
        let series = datasets::ar_series("contraction", 400, &[0.6, 0.2], 1.0, 3);
        let ar = AutoRegression::from_series(&series, 0.5, 1e-10, 500);
        let model = ar_range_model(&ar, &ArRangeSpec::default());
        let exact = RangeConfig::exact(QFormat::Q15_16);
        let loose = RangeConfig {
            add_slack: 0.01,
            ..exact
        };
        let tight_bound = injected_error_bound(&model, &exact, &exact);
        let loose_bound = injected_error_bound(&model, &loose, &exact);
        assert!(tight_bound > 0.0);
        assert!(loose_bound > tight_bound);
    }
}
