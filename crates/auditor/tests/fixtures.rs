//! Planted-violation fixtures: one file per rule (plus hygiene cases),
//! each asserted caught with the right rule id and file:line span —
//! mirroring the model checker's mutant-catching style. The fixture
//! sources live under `tests/fixtures/` where the workspace walker
//! deliberately does not look.

use auditor::rules::FileFindings;
use auditor::{assemble, audit_rust_source, audit_sources, AuditConfig, AuditReport};

fn config() -> AuditConfig {
    AuditConfig::approxit(".")
}

/// Audit one in-memory Rust source as-if it lived at `virtual_path`.
fn audit_at(virtual_path: &str, src: &str) -> AuditReport {
    audit_with(virtual_path, src, &config())
}

fn audit_with(virtual_path: &str, src: &str, cfg: &AuditConfig) -> AuditReport {
    assemble(audit_rust_source(virtual_path, src, cfg), 1, cfg)
}

/// Audit a planted multi-file workspace through the full pipeline
/// (per-file rules + taint dataflow + suppression settlement).
fn audit_files(files: &[(&str, &str)]) -> AuditReport {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
        .collect();
    audit_sources(&files, &config())
}

/// (rule, line) pairs of the unsuppressed findings, in report order.
fn spans(report: &AuditReport) -> Vec<(&str, u32)> {
    report.violations.iter().map(|v| (v.rule, v.line)).collect()
}

/// The `(line, col)` of the first hop (the source) and last hop (the
/// sink) of a finding's trace.
fn endpoints(report: &AuditReport, i: usize) -> ((u32, u32), (u32, u32)) {
    let t = &report.violations[i].trace;
    assert!(t.len() >= 2, "trace has source and sink: {t:?}");
    let first = t.first().unwrap();
    let last = t.last().unwrap();
    ((first.line, first.col), (last.line, last.col))
}

#[test]
fn hash_iter_fixture_is_caught() {
    let report = audit_at(
        "crates/core/src/planted.rs",
        include_str!("fixtures/hash_iter.rs"),
    );
    assert_eq!(spans(&report), [("hash-iter", 7), ("hash-iter", 17)]);
    assert_eq!(report.violations[0].file, "crates/core/src/planted.rs");
}

#[test]
fn raw_parallel_fixture_is_caught() {
    let src = include_str!("fixtures/raw_parallel.rs");
    let report = audit_at("crates/solvers/src/planted.rs", src);
    assert_eq!(spans(&report), [("raw-parallel", 7), ("raw-parallel", 13)]);
    // The sanction covers exactly `parx/src/lib.rs`: a sibling file in
    // the substrate crate still may not spawn on its own.
    let sibling = audit_at("crates/parx/src/worker.rs", src);
    assert_eq!(spans(&sibling), [("raw-parallel", 7), ("raw-parallel", 13)]);
    assert!(sibling.violations[0].message.contains("parx::Executor"));
    let home = audit_at("crates/parx/src/lib.rs", src);
    assert!(home.violations.iter().all(|v| v.rule != "raw-parallel"));
}

#[test]
fn wall_clock_fixture_is_caught() {
    let src = include_str!("fixtures/wall_clock.rs");
    let report = audit_at("crates/linalg/src/planted.rs", src);
    assert_eq!(spans(&report), [("wall-clock", 3), ("wall-clock", 6)]);
    // No file is exempt: a bench binary gets the same findings.
    let bench = audit_at("crates/bench/src/bin/perf.rs", src);
    assert_eq!(spans(&bench), [("wall-clock", 3), ("wall-clock", 6)]);
}

#[test]
fn no_unsafe_fixture_is_caught_but_not_its_comments() {
    let report = audit_at(
        "crates/gatesim/src/planted.rs",
        include_str!("fixtures/no_unsafe.rs"),
    );
    // Exactly one finding: the real block, not the doc comment or the
    // string literal that also say "unsafe".
    assert_eq!(spans(&report), [("no-unsafe", 8)]);
    assert_eq!(report.violations[0].col, 5);
}

#[test]
fn panic_path_fixture_is_caught_outside_tests_only() {
    let src = include_str!("fixtures/panic_path.rs");
    let report = audit_at("crates/core/src/service.rs", src);
    assert_eq!(
        spans(&report),
        [("panic-path", 6), ("panic-path", 11), ("panic-path", 17)]
    );
    // Off the request path the same source is legal (no other rule
    // matches it either).
    assert!(audit_at("crates/core/src/strategy.rs", src)
        .violations
        .is_empty());
}

#[test]
fn hermetic_deps_fixture_is_caught() {
    let report = assemble(
        FileFindings {
            violations: auditor::manifest::audit_manifest(
                "crates/planted/Cargo.toml",
                include_str!("fixtures/hermetic.toml"),
            ),
            suppressions: Vec::new(),
        },
        1,
        &config(),
    );
    assert_eq!(
        spans(&report),
        [
            ("hermetic-deps", 8),
            ("hermetic-deps", 9),
            ("hermetic-deps", 11)
        ]
    );
    assert!(report.violations[0].message.contains("serde"));
    assert!(report.violations[2].message.contains("proptest"));
}

#[test]
fn par_reduce_fixture_is_caught() {
    let report = audit_at(
        "crates/approx-arith/src/planted.rs",
        include_str!("fixtures/par_reduce.rs"),
    );
    assert_eq!(
        spans(&report),
        [("par-reduce", 4), ("par-reduce", 7), ("par-reduce", 10)]
    );
}

#[test]
fn allow_budget_fixture_overflows_and_hygiene_fires() {
    let mut cfg = config();
    cfg.suppression_budget = 2;
    let report = audit_with(
        "crates/gatesim/src/planted.rs",
        include_str!("fixtures/allow_budget.rs"),
        &cfg,
    );
    // Open: the reason-less marker leaves its finding open, plus three
    // hygiene findings (over budget, missing reason, stale marker).
    assert_eq!(
        spans(&report),
        [
            ("allow-budget", 8),
            ("allow-budget", 9), // col 1 sorts before the unsafe block
            ("no-unsafe", 9),
            ("allow-budget", 10)
        ]
    );
    assert_eq!(
        report.suppressed.len(),
        3,
        "markers inside budget still suppress"
    );
    assert_eq!(report.error_count(), 3);
    assert_eq!(report.warning_count(), 1);
    assert!(!report.is_clean());
    // With the project budget (8) only the hygiene findings remain.
    let report = audit_at(
        "crates/gatesim/src/planted.rs",
        include_str!("fixtures/allow_budget.rs"),
    );
    assert_eq!(
        spans(&report),
        [("allow-budget", 9), ("no-unsafe", 9), ("allow-budget", 10)]
    );
}

#[test]
fn justified_suppressions_inside_budget_pass() {
    let report = audit_at(
        "crates/linalg/src/planted.rs",
        include_str!("fixtures/suppressed.rs"),
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 2);
    assert!(report.suppressions.iter().all(|s| s.used));
    assert!(report.is_clean());
    // Suppressed findings keep their spans in the report.
    assert_eq!(report.suppressed[0].line, 3);
    assert_eq!(report.suppressed[1].line, 7);
}

#[test]
fn clean_fixture_raises_nothing() {
    let report = audit_at(
        "crates/core/src/planted.rs",
        include_str!("fixtures/clean.rs"),
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.suppressed.is_empty());
    assert!(report.is_clean());
}

#[test]
fn json_report_carries_fixture_spans() {
    let report = audit_at(
        "crates/core/src/service.rs",
        include_str!("fixtures/panic_path.rs"),
    );
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"approxit-audit/2\""));
    assert!(json.contains("\"rule\": \"panic-path\""));
    assert!(json.contains("\"line\": 6"));
    assert!(json.contains("\"clean\": false"));
    assert!(auditor::report::check_schema(&json).is_ok());
}

// ---------------------------------------------------------------------
// Taint dataflow fixtures
// ---------------------------------------------------------------------

#[test]
fn taint_direct_flow_is_caught_with_both_sinks() {
    let report = audit_files(&[(
        "crates/core/src/planted.rs",
        include_str!("fixtures/taint_direct.rs"),
    )]);
    assert_eq!(spans(&report), [("taint-sink", 8), ("taint-branch", 9)]);
    // quality_error's accurate operand: source is the `.mul` on line 7.
    let (src, sink) = endpoints(&report, 0);
    assert_eq!(src.0, 7, "source hop at the fabric op");
    assert_eq!(sink, (8, 15), "sink hop at the quality_error call");
    let (src, sink) = endpoints(&report, 1);
    assert_eq!(src.0, 7);
    assert_eq!(sink.0, 9, "branch sink on the `if`");
}

#[test]
fn taint_interprocedural_laundering_is_caught() {
    let report = audit_files(&[(
        "crates/solvers/src/planted.rs",
        include_str!("fixtures/taint_interproc.rs"),
    )]);
    assert_eq!(spans(&report), [("taint-branch", 12)]);
    let v = &report.violations[0];
    // The trace must walk the whole interprocedural path: the caller's
    // approximate context, the fabric op inside the helper, the call
    // site, and finally the branch sink.
    let notes: Vec<&str> = v.trace.iter().map(|h| h.note.as_str()).collect();
    assert!(
        notes.iter().any(|n| n.contains("QcsContext::new")),
        "{notes:?}"
    );
    assert!(notes.iter().any(|n| n.contains(".dot")), "{notes:?}");
    assert!(
        notes
            .iter()
            .any(|n| n.contains("fabric ops inside `fabric_dot`")),
        "{notes:?}"
    );
    assert!(notes.last().unwrap().contains("branch"), "{notes:?}");
    // The fabric op hop points into the helper (line 6), the sink into
    // the caller (line 12).
    assert!(v.trace.iter().any(|h| h.line == 6));
    assert_eq!(v.line, 12);
}

#[test]
fn taint_sanitized_flows_do_not_report() {
    let report = audit_files(&[(
        "crates/solvers/src/planted.rs",
        include_str!("fixtures/taint_sanitized.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.is_clean());
}

#[test]
fn taint_branch_fixture_is_caught() {
    let report = audit_files(&[(
        "crates/solvers/src/planted.rs",
        include_str!("fixtures/taint_branch.rs"),
    )]);
    assert_eq!(spans(&report), [("taint-branch", 6)]);
    let (src, sink) = endpoints(&report, 0);
    assert_eq!(src, (5, 19), "source at the `.dot` fabric op");
    assert_eq!(sink, (6, 5), "sink at the `if`");
}

#[test]
fn taint_loop_bound_fixture_is_caught() {
    let report = audit_files(&[(
        "crates/solvers/src/planted.rs",
        include_str!("fixtures/taint_loop_bound.rs"),
    )]);
    assert_eq!(spans(&report), [("taint-loop-bound", 7)]);
    let (src, sink) = endpoints(&report, 0);
    assert_eq!(src.0, 5, "source at the `.mul`");
    assert_eq!(sink.0, 7, "sink at the `for`");
}

#[test]
fn taint_spmv_out_slice_steering_index_arithmetic_is_caught() {
    let report = audit_files(&[(
        "crates/solvers/src/planted.rs",
        include_str!("fixtures/taint_spmv.rs"),
    )]);
    // Both the inner `rp[row]` and the outer `vals[…]` index on line 12
    // are steered by the fabric out-slice.
    assert_eq!(spans(&report), [("taint-index", 12), ("taint-index", 12)]);
    // The trace roots at the spmv_slice out-parameter write (line 10).
    let v = &report.violations[0];
    assert!(
        v.trace.iter().any(|h| h.line == 10),
        "source hop at the spmv_slice call: {:?}",
        v.trace
    );
}

#[test]
fn taint_matvec_operand_out_slice_steering_a_branch_is_caught() {
    let report = audit_files(&[(
        "crates/solvers/src/planted.rs",
        include_str!("fixtures/taint_matvec_operand.rs"),
    )]);
    // Caught only while `matvec_operand` is both a fabric op and a
    // kernel with an out-slice: the branch reads the out-slice, not a
    // return value.
    assert_eq!(spans(&report), [("taint-branch", 10)]);
    let v = &report.violations[0];
    assert!(
        v.trace.iter().any(|h| h.line == 9),
        "source hop at the matvec_operand call: {:?}",
        v.trace
    );
}

#[test]
fn taint_suppressed_fixture_lands_in_suppressed() {
    let report = audit_files(&[(
        "crates/solvers/src/planted.rs",
        include_str!("fixtures/taint_suppressed.rs"),
    )]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "taint-branch");
    assert_eq!(report.suppressed[0].line, 8);
    assert!(report.suppressions.iter().all(|s| s.used));
    assert!(report.is_clean());
}

/// The acceptance-criteria mutant: rewire `quality_error` to consume a
/// `QcsContext` result as its *accurate* operand — the pass must catch
/// exactly that operand, and stay silent when the operands are the
/// right way around.
#[test]
fn quality_error_consuming_qcs_result_mutant_is_caught() {
    let mutant = "pub fn check(ctx: &mut QcsContext, x: f64) -> f64 {\n    let approximate = ctx.mul(x, x);\n    quality_error(approximate, x * x)\n}\n";
    let report = audit_files(&[("crates/core/src/planted.rs", mutant)]);
    assert_eq!(spans(&report), [("taint-sink", 3)]);
    assert!(report.violations[0].message.contains("quality_error"));

    // Correct orientation: exact reference first, fabric value second.
    let sound = "pub fn check(ctx: &mut QcsContext, x: f64) -> f64 {\n    let approximate = ctx.mul(x, x);\n    quality_error(x * x, approximate)\n}\n";
    let report = audit_files(&[("crates/core/src/planted.rs", sound)]);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

/// The burn-in contract: the real workspace must audit clean, so CI
/// starts (and stays) at a zero-violation baseline. Every allowance in
/// the tree must be used and justified.
#[test]
fn real_workspace_audits_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let cfg = AuditConfig::approxit(&root);
    let report = auditor::run_audit(&cfg).expect("workspace walk succeeds");
    assert!(
        report.violations.is_empty(),
        "clean-tree audit found:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.is_clean());
    assert!(
        report.files_scanned >= 60,
        "walk collapsed: {} files",
        report.files_scanned
    );
    assert!(report
        .suppressions
        .iter()
        .all(|s| s.used && !s.reason.is_empty()));
    // Taint extension of the burn-in contract: zero unsuppressed
    // taint-* findings, and every taint-rule allow marker in the tree
    // is live (non-stale) — at least one exists (cg.rs's
    // degenerate-direction restart), so this is not vacuous.
    assert!(report
        .violations
        .iter()
        .all(|v| !v.rule.starts_with("taint-")));
    let taint_allows: Vec<_> = report
        .suppressions
        .iter()
        .filter(|s| s.rule.starts_with("taint-"))
        .collect();
    assert!(
        !taint_allows.is_empty(),
        "expected the sanctioned cg.rs fabric-state read to carry a taint allow"
    );
    assert!(taint_allows.iter().all(|s| s.used), "{taint_allows:?}");
}
