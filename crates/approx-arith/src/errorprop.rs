//! Inter-iteration error-propagation analysis.
//!
//! [`crate::range`] proves that datapath *values* stay representable;
//! this module bounds how far the approximate datapath's *results* can
//! drift from the exact datapath's, and how that per-iteration drift
//! composes across the iteration map of an iterative method.
//!
//! Two layers:
//!
//! * **Per-iteration injected error** ([`propagate_error`]) — a
//!   first-order error abstract interpretation over the same
//!   [`RangeGraph`] the range analyzer uses. Each node carries a sound
//!   bound `E` on `|approx − exact|` for identical inputs, built from
//!   the per-operation slacks of the two [`RangeConfig`]s and the value
//!   magnitudes of the range analysis:
//!
//!   ```text
//!   E(a ± b)  ≤ E(a) + E(b) + s_add
//!   E(a · b)  ≤ |a|·E(b) + |b|·E(a) + E(a)·E(b) + s_mul
//!   E(a / b)  ≤ (E(a) + |a/b|·E(b)) / (|b|min − E(b)) + s_mul
//!   E(Σₖ a)   ≤ k · (E(a) + s_add)
//!   ```
//!
//!   where `s_op` charges the slack of *both* datapaths (the exact side
//!   still rounds), and magnitudes are the union of both analyses'
//!   value intervals, so the bound covers either trajectory.
//!
//! * **Inter-iteration composition** ([`ErrorRecurrence`]) — given a
//!   contraction factor `ρ < 1` of the iteration map (see
//!   `iter_solvers::contraction` for the per-solver static derivations)
//!   and a per-iteration injected bound `δ`, the error after `k`
//!   iterations obeys `e_{k+1} ≤ ρ·e_k + δ`, whose closed form and
//!   fixed point this type evaluates. The quality guarantee reduces to
//!   `steady_state = δ/(1−ρ)` staying below the controller's switching
//!   threshold — ARCHITECT's digit-elision argument, transplanted to
//!   mode-switching hardware.

use crate::range::{ExprId, Interval, RangeConfig, RangeGraph, RangeNode};

/// Result of a [`propagate_error`] pass: one absolute error bound per
/// expression of the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorPropReport {
    bounds: Vec<f64>,
}

impl ErrorPropReport {
    /// The absolute error bound of an expression: `|approx − exact|`
    /// can never exceed this for inputs inside the declared ranges.
    /// `f64::INFINITY` when no finite bound exists (a division whose
    /// divisor cannot be bounded away from zero).
    #[must_use]
    pub fn bound(&self, id: ExprId) -> f64 {
        self.bounds[id.index()]
    }
}

/// Bound `|approx − exact|` for every expression of `graph`, where the
/// approximate datapath runs under `approx` and the reference under
/// `exact` (typically [`RangeConfig::exact`] — rounding only).
///
/// The bound is *static*: it holds for every input assignment inside
/// the graph's declared ranges and for every error the configured
/// slacks admit, which is exactly the per-operation worst case proven
/// by the BDD error characterization (`gatesim::equiv::error_bound`).
/// It therefore dominates any *measured* per-iteration error — the
/// cross-check the `guarantee` bench binary performs against the Monte
/// Carlo characterization table.
#[must_use]
pub fn propagate_error(
    graph: &RangeGraph,
    approx: &RangeConfig,
    exact: &RangeConfig,
) -> ErrorPropReport {
    // Value magnitudes: the union of both analyses' per-node intervals
    // covers values seen on either datapath.
    let report_a = graph.analyze(approx);
    let report_e = graph.analyze(exact);
    let value = |id: ExprId| -> Interval { report_a.interval(id).union(report_e.interval(id)) };

    let s_add = approx.add_slack + exact.add_slack;
    let s_mul = approx.mul_slack + exact.mul_slack;

    let mut bounds: Vec<f64> = Vec::with_capacity(graph.len());
    for idx in 0..graph.len() {
        let id = ExprId::from_index(idx);
        let e = match graph.node(id) {
            RangeNode::Input(_) | RangeNode::Const(_) => 0.0,
            RangeNode::Add(a, b) | RangeNode::Sub(a, b) => {
                bounds[a.index()] + bounds[b.index()] + s_add
            }
            RangeNode::Neg(a) => bounds[a.index()],
            RangeNode::Mul(a, b) => {
                let (ea, eb) = (bounds[a.index()], bounds[b.index()]);
                value(*a).abs_bound() * eb + value(*b).abs_bound() * ea + ea * eb + s_mul
            }
            RangeNode::Div(a, b) => {
                let vb = value(*b);
                let b_min = vb.lo.abs().min(vb.hi.abs());
                if vb.lo <= 0.0 && vb.hi >= 0.0 {
                    f64::INFINITY
                } else {
                    let eb = bounds[b.index()];
                    let ea = bounds[a.index()];
                    let b_eff = b_min - eb;
                    if b_eff <= 0.0 {
                        f64::INFINITY
                    } else {
                        let q_max = value(*a).abs_bound() / b_min;
                        (ea + q_max * eb) / b_eff + s_mul
                    }
                }
            }
            RangeNode::SumOf(item, count) => *count as f64 * (bounds[item.index()] + s_add),
        };
        bounds.push(e);
    }
    ErrorPropReport { bounds }
}

/// The one-step error recurrence `e_{k+1} ≤ ρ·e_k + δ` of an iterative
/// method on an approximate datapath: `contraction` is the iteration
/// map's contraction factor `ρ` (statically derived per solver) and
/// `injected` the per-iteration injected error bound `δ` (from
/// [`propagate_error`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRecurrence {
    /// Contraction factor `ρ ≥ 0` of the exact iteration map.
    pub contraction: f64,
    /// Per-iteration injected error bound `δ ≥ 0`.
    pub injected: f64,
}

impl ErrorRecurrence {
    /// Create the recurrence.
    ///
    /// # Panics
    /// Panics if either quantity is negative or NaN.
    #[must_use]
    pub fn new(contraction: f64, injected: f64) -> Self {
        assert!(
            contraction >= 0.0 && !contraction.is_nan(),
            "contraction factor must be non-negative"
        );
        assert!(
            injected >= 0.0 && !injected.is_nan(),
            "injected error must be non-negative"
        );
        Self {
            contraction,
            injected,
        }
    }

    /// The error bound after `k` iterations starting from `e0`:
    /// `ρᵏ·e₀ + δ·(1 + ρ + … + ρᵏ⁻¹)`.
    #[must_use]
    pub fn after(&self, e0: f64, k: usize) -> f64 {
        let rho = self.contraction;
        let geometric = if (rho - 1.0).abs() < 1e-15 {
            k as f64
        } else {
            (1.0 - rho.powi(k as i32)) / (1.0 - rho)
        };
        rho.powi(k as i32) * e0 + self.injected * geometric
    }

    /// The fixed point `δ/(1−ρ)` the error converges to, or `None` when
    /// `ρ ≥ 1` (the map does not contract — no steady state exists).
    #[must_use]
    pub fn steady_state(&self) -> Option<f64> {
        if self.contraction < 1.0 {
            Some(self.injected / (1.0 - self.contraction))
        } else {
            None
        }
    }

    /// `true` when the steady-state error exists and stays strictly
    /// below `threshold` — the static form of the paper's quality
    /// guarantee: sustained iteration at this mode can never push the
    /// accumulated error past the controller's switching threshold.
    #[must_use]
    pub fn stays_below(&self, threshold: f64) -> bool {
        self.steady_state().is_some_and(|e| e < threshold)
    }
}

impl std::fmt::Display for ErrorRecurrence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.steady_state() {
            Some(e) => write!(
                f,
                "e' <= {:.3}e + {:.3e} (steady state {:.3e})",
                self.contraction, self.injected, e
            ),
            None => write!(
                f,
                "e' <= {:.3}e + {:.3e} (no steady state: not contracting)",
                self.contraction, self.injected
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::QFormat;
    use crate::rng::Pcg32;

    fn zero_slack() -> RangeConfig {
        RangeConfig {
            format: QFormat::Q15_16,
            add_slack: 0.0,
            mul_slack: 0.0,
        }
    }

    fn slacked(add: f64, mul: f64) -> RangeConfig {
        RangeConfig {
            format: QFormat::Q15_16,
            add_slack: add,
            mul_slack: mul,
        }
    }

    #[test]
    fn inputs_and_constants_carry_no_error() {
        let mut g = RangeGraph::new();
        let x = g.input("x", -1.0, 1.0);
        let c = g.constant(3.0);
        let rep = propagate_error(&g, &slacked(0.5, 0.5), &zero_slack());
        assert_eq!(rep.bound(x), 0.0);
        assert_eq!(rep.bound(c), 0.0);
    }

    #[test]
    fn addition_errors_accumulate_linearly() {
        let mut g = RangeGraph::new();
        let x = g.input("x", -1.0, 1.0);
        let y = g.input("y", -1.0, 1.0);
        let s1 = g.add(x, y);
        let s2 = g.add(s1, x);
        let rep = propagate_error(&g, &slacked(0.25, 0.0), &zero_slack());
        assert!((rep.bound(s1) - 0.25).abs() < 1e-12);
        assert!((rep.bound(s2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn both_configs_slacks_are_charged() {
        let mut g = RangeGraph::new();
        let x = g.input("x", -1.0, 1.0);
        let y = g.input("y", -1.0, 1.0);
        let s = g.add(x, y);
        let rep = propagate_error(&g, &slacked(0.25, 0.0), &slacked(0.125, 0.0));
        assert!((rep.bound(s) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn sum_of_scales_per_item_error() {
        let mut g = RangeGraph::new();
        let x = g.input("x", 0.0, 2.0);
        let acc = g.sum_of(x, 10);
        let rep = propagate_error(&g, &slacked(0.1, 0.0), &zero_slack());
        assert!((rep.bound(acc) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_straddling_divisor_has_no_finite_bound() {
        let mut g = RangeGraph::new();
        let x = g.input("x", 1.0, 2.0);
        let d = g.input("d", -1.0, 1.0);
        let q = g.div(x, d);
        let rep = propagate_error(&g, &slacked(0.1, 0.1), &zero_slack());
        assert!(rep.bound(q).is_infinite());
    }

    #[test]
    fn bounded_divisor_has_a_finite_bound() {
        let mut g = RangeGraph::new();
        let x = g.input("x", 1.0, 2.0);
        let d = g.input("d", 1.0, 4.0);
        let q = g.div(x, d);
        let rep = propagate_error(&g, &slacked(0.01, 0.01), &zero_slack());
        assert!([x, d, q].iter().all(|&e| rep.bound(e).is_finite()));
    }

    /// Randomized soundness: evaluate the graph concretely with every
    /// operation perturbed by at most its slack; the observed deviation
    /// from the unperturbed evaluation must stay within the propagated
    /// bound.
    #[test]
    fn propagated_bounds_contain_sampled_perturbed_evaluations() {
        let approx = slacked(0.05, 0.02);
        let exact = zero_slack();
        let mut g = RangeGraph::new();
        let x = g.input("x", -2.0, 2.0);
        let y = g.input("y", -1.0, 3.0);
        let p = g.mul(x, y);
        let s = g.add(p, x);
        let d = g.sub(s, y);
        let q = g.mul(d, d);
        let rep = propagate_error(&g, &approx, &exact);
        let nodes = [p, s, d, q];

        let mut rng = Pcg32::seeded(0xE11, 3);
        for _ in 0..500 {
            let xv = rng.uniform(-2.0, 2.0);
            let yv = rng.uniform(-1.0, 3.0);
            // Exact (unperturbed) evaluation.
            let pe = xv * yv;
            let se = pe + xv;
            let de = se - yv;
            let qe = de * de;
            // Perturbed evaluation: each op off by at most its slack.
            let e = |rng: &mut Pcg32, s: f64| rng.uniform(-s, s);
            let pa = xv * yv + e(&mut rng, approx.mul_slack);
            let sa = pa + xv + e(&mut rng, approx.add_slack);
            let da = sa - yv + e(&mut rng, approx.add_slack);
            let qa = da * da + e(&mut rng, approx.mul_slack);
            for (id, (got, want)) in nodes
                .iter()
                .zip([(pa, pe), (sa, se), (da, de), (qa, qe)])
                .map(|(id, v)| (*id, v))
            {
                let drift = (got - want).abs();
                assert!(
                    drift <= rep.bound(id) + 1e-12,
                    "drift {drift} exceeds bound {} at node {id:?}",
                    rep.bound(id)
                );
            }
        }
    }

    #[test]
    fn recurrence_closed_form_matches_iteration() {
        let rec = ErrorRecurrence::new(0.5, 1.0);
        let mut e = 3.0;
        for k in 1..=20 {
            e = rec.contraction * e + rec.injected;
            let closed = rec.after(3.0, k);
            assert!((closed - e).abs() < 1e-9, "k={k}: {closed} vs {e}");
        }
        assert!((rec.steady_state().unwrap() - 2.0).abs() < 1e-12);
        assert!(rec.stays_below(2.5));
        assert!(!rec.stays_below(2.0));
    }

    #[test]
    fn non_contracting_map_has_no_steady_state() {
        let rec = ErrorRecurrence::new(1.0, 0.1);
        assert_eq!(rec.steady_state(), None);
        assert!(!rec.stays_below(1e300));
        assert!(rec.to_string().contains("no steady state"));
        // After k steps the bound is e0 + k·δ.
        assert!((rec.after(1.0, 10) - 2.0).abs() < 1e-12);
    }
}
