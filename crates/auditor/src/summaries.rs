//! Interprocedural function summaries, iterated to fixpoint.
//!
//! A [`Summary`] abstracts one function for its callers: the taint its
//! return value carries regardless of arguments (`intrinsic`), which
//! value parameters flow into the return (`value_flow`), and which
//! context parameters have fabric ops flowing into the return
//! (`ctx_flow`). The last is the key to precision: a solver `step`
//! taking `&mut dyn ArithContext` does *not* intrinsically return
//! approximate data — it returns data that is approximate exactly when
//! the caller's context is, so the flow is kept symbolic here and
//! resolved at each call site.
//!
//! [`fixpoint`] runs the intraprocedural analysis ([`Analyzer`]) over
//! every function until no summary changes. All transfer functions are
//! monotone over the finite lattice (three-point taint × two 64-bit
//! flow sets), so the iteration converges; [`MAX_ROUNDS`] is a
//! belt-and-braces cap, not a tuning knob.

use std::collections::BTreeMap;

use crate::callgraph::{FnId, Workspace};
use crate::config::AuditConfig;
use crate::report::TraceHop;
use crate::taint::{Analyzer, Taint};

/// Caller-facing abstraction of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Taint of the return value independent of any parameter (e.g. the
    /// function constructs its own `QcsContext` and returns its ops).
    pub intrinsic: Taint,
    /// Bitset over parameter indices: value parameters whose data
    /// reaches the return value.
    pub value_flow: u64,
    /// Bitset over parameter indices: context parameters whose fabric
    /// ops reach the return value (resolved per call site against the
    /// actual context's exact/approx kind).
    pub ctx_flow: u64,
    /// Representative source→return hops, used to extend call-site
    /// traces (does not participate in the fixpoint comparison).
    pub trace: Vec<TraceHop>,
}

impl Summary {
    /// Fixpoint-relevant projection (traces are presentation only).
    #[must_use]
    pub fn key(&self) -> (Taint, u64, u64) {
        (self.intrinsic, self.value_flow, self.ctx_flow)
    }
}

/// Hard cap on fixpoint rounds (the lattice guarantees convergence far
/// earlier; this bounds the damage of any non-monotone analysis bug).
pub const MAX_ROUNDS: usize = 16;

/// Iterate summaries for every function in the workspace to fixpoint.
///
/// Functions are visited in deterministic unit-major order each round;
/// the result is therefore reproducible run to run.
#[must_use]
pub fn fixpoint(ws: &Workspace, cfg: &AuditConfig) -> BTreeMap<FnId, Summary> {
    let ids = ws.fn_ids();
    let mut sums: BTreeMap<FnId, Summary> =
        ids.iter().map(|id| (*id, Summary::default())).collect();
    for _round in 0..MAX_ROUNDS {
        let mut changed = false;
        for id in &ids {
            if ws.def(*id).body.is_empty() {
                continue;
            }
            let next = Analyzer::new(ws, &sums, cfg).summarize(*id);
            if sums[id].key() != next.key() {
                changed = true;
            }
            sums.insert(*id, next);
        }
        if !changed {
            break;
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_key_ignores_traces() {
        let mut a = Summary::default();
        let b = Summary {
            trace: vec![TraceHop {
                file: "x.rs".into(),
                line: 1,
                col: 1,
                note: "op".into(),
            }],
            ..Summary::default()
        };
        assert_eq!(a.key(), b.key());
        a.intrinsic = Taint::Approx;
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn fixpoint_converges_on_mutual_recursion() {
        let cfg = AuditConfig::approxit(".");
        let files = vec![(
            "crates/solvers/src/planted.rs".to_owned(),
            "fn even(n: u32, ctx: &mut dyn ArithContext) -> f64 {\n    if n == 0 { 0.0 } else { odd(n - 1, ctx) }\n}\nfn odd(n: u32, ctx: &mut dyn ArithContext) -> f64 {\n    ctx.add(even(n - 1, ctx), 1.0)\n}\n"
                .to_owned(),
        )];
        let ws = Workspace::build(&files);
        let sums = fixpoint(&ws, &cfg);
        // Both functions' returns flow from their ctx parameter (the
        // mutual recursion must converge, not oscillate).
        let odd = ws.resolve("odd", None)[0];
        assert_ne!(sums[&odd].ctx_flow, 0, "{:?}", sums[&odd]);
        let even = ws.resolve("even", None)[0];
        assert_ne!(sums[&even].ctx_flow, 0, "{:?}", sums[&even]);
    }
}
