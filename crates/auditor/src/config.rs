//! Audit policy configuration.
//!
//! [`AuditConfig::approxit`] is *the* project policy — the allowlists
//! and budgets below are part of the determinism contract documented in
//! `DESIGN.md` §13, not per-run knobs. Fixture tests construct ad-hoc
//! configs; everything else (the `audit` bench binary, CI, the
//! clean-tree self-test) goes through the defaults so there is exactly
//! one source of truth.

use std::path::PathBuf;

/// Where the auditor looks and what it tolerates.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Workspace root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Crate directory names whose outputs feed solver results; these
    /// get the strictest ordering rules (`hash-iter`, `par-reduce`).
    pub result_affecting: Vec<String>,
    /// Files allowed to spawn threads: the deterministic executor
    /// itself (the `parx` substrate crate).
    pub parallel_home: Vec<String>,
    /// Files forming the service request path: no panics allowed.
    pub panic_free: Vec<String>,
    /// Files exempt from `par-reduce` (the executor's own internals).
    pub reduce_exempt: Vec<String>,
    /// Maximum `audit:allow` markers per rule, workspace-wide. Staying
    /// under it forces suppressions to stay exceptional.
    pub suppression_budget: usize,
    /// Crate directory names the taint dataflow pass analyzes (sources
    /// and value flow are tracked across all of them).
    pub taint_crates: Vec<String>,
    /// Crates where *positional* sinks fire: any branch condition,
    /// loop bound, or index expression must be exact.
    pub taint_control: Vec<String>,
    /// Files whose functions are exact-only decision modules: passing
    /// an approximate value to any of them is a `taint-sink`.
    pub taint_decision_files: Vec<String>,
    /// Function names that launder taint by contract (`endorse`, raw
    /// reconstruction): their results are exact.
    pub taint_sanitizers: Vec<String>,
}

impl AuditConfig {
    /// The ApproxIt workspace policy.
    #[must_use]
    pub fn approxit(root: impl Into<PathBuf>) -> Self {
        let own = |s: &[&str]| s.iter().map(|s| (*s).to_owned()).collect();
        Self {
            root: root.into(),
            result_affecting: own(&["approx-arith", "linalg", "solvers", "core"]),
            parallel_home: own(&["crates/parx/src/lib.rs"]),
            panic_free: own(&["crates/core/src/service.rs", "crates/core/src/runner.rs"]),
            reduce_exempt: own(&["crates/parx/src/lib.rs"]),
            suppression_budget: 8,
            taint_crates: own(&["approx-arith", "linalg", "solvers", "core", "gatesim"]),
            taint_control: own(&["core", "solvers"]),
            // `watchdog.rs` is deliberately absent: the watchdog reads
            // approximate state by design (it decides whether the
            // fabric has wedged, not what the answer is).
            taint_decision_files: own(&[
                "crates/core/src/adaptive.rs",
                "crates/core/src/strategy.rs",
                "crates/core/src/incremental.rs",
                "crates/core/src/pid.rs",
                "crates/core/src/modelcheck.rs",
                "crates/core/src/quality.rs",
                "crates/core/src/service.rs",
            ]),
            taint_sanitizers: own(&["endorse", "from_raw"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_self_consistent() {
        let cfg = AuditConfig::approxit("/tmp/x");
        assert!(cfg.result_affecting.iter().any(|c| c == "core"));
        // gatesim is covered via the par-reduce scope, not hash-iter.
        assert!(!cfg.result_affecting.iter().any(|c| c == "gatesim"));
        assert!(cfg.parallel_home == cfg.reduce_exempt);
        assert!(cfg.suppression_budget > 0);
        // Positional taint sinks only fire inside analyzed crates.
        for c in &cfg.taint_control {
            assert!(cfg.taint_crates.contains(c), "{c} analyzed");
        }
        for f in &cfg.taint_decision_files {
            assert!(f.starts_with("crates/core/src/"), "{f} is a core module");
            assert!(f != "crates/core/src/watchdog.rs");
        }
        assert!(cfg.taint_sanitizers.iter().any(|s| s == "endorse"));
        // Every listed file exists, so deleting one cannot leave a stale
        // allowance behind.
        let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for path in cfg
            .parallel_home
            .iter()
            .chain(&cfg.panic_free)
            .chain(&cfg.reduce_exempt)
            .chain(&cfg.taint_decision_files)
        {
            assert!(
                path.starts_with("crates/"),
                "allowlists are workspace-relative"
            );
            assert!(workspace.join(path).is_file(), "{path} does not exist");
        }
    }
}
