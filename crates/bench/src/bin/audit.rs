//! Workspace determinism & hermeticity audit.
//!
//! Runs the static-analysis pass from `crates/auditor` over every
//! workspace source file and `Cargo.toml`, and converts the result into
//! the shared [`Checker`] verdict format: one check per rule (zero
//! unsuppressed findings), plus suppression-hygiene and coverage
//! checks. CI runs this in the lint job; a clean tree is the merge
//! gate.
//!
//! Unlike the other binaries, `--json PATH` writes the full
//! `approxit-audit/2` report (every violation and suppression with
//! file:line spans and source→sink traces) rather than the check
//! summary — that document is the CI artifact.
//!
//! Two further outputs support the taint pass:
//!
//! - `--baseline PATH` diffs the current findings against a committed
//!   `approxit-audit/2` report: the run fails only on findings **new**
//!   relative to the baseline, so a burn-down of historical findings
//!   can land incrementally without blocking unrelated PRs.
//! - `--dot PATH` writes the workspace call graph (the interprocedural
//!   skeleton the taint fixpoint runs on) in Graphviz format.
//!
//! ```text
//! cargo run --release -p bench --bin audit            # human output
//! cargo run --release -p bench --bin audit -- --json AUDIT_report.json
//! cargo run --release -p bench --bin audit -- --baseline AUDIT_baseline.json
//! cargo run --release -p bench --bin audit -- --dot CALLGRAPH.dot
//! ```

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::ExitCode;

use approxit_bench::cli::{BenchOpts, Checker};
use auditor::report::{check_schema, parse_violation_keys};
use auditor::{audit_sources, collect_sources, taint, AuditConfig, Violation, RULES};

fn main() -> ExitCode {
    let mut opts = BenchOpts::parse_for("audit", &[], &["--baseline", "--dot"]);
    let json = opts.json.take(); // reserved for the audit report itself
    let baseline_path = opts.flag_value("--baseline").map(PathBuf::from);
    let dot_path = opts.flag_value("--dot").map(PathBuf::from);

    let root = workspace_root();
    opts.say(&format!("auditing workspace at {}", root.display()));
    let config = AuditConfig::approxit(&root);
    let sources = match collect_sources(&config) {
        Ok(sources) => sources,
        Err(error) => {
            eprintln!("audit: walking {} failed: {error}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let report = audit_sources(&sources, &config);

    // With a baseline, only findings absent from it gate the run.
    let known = match &baseline_path {
        Some(path) => match load_baseline_keys(path) {
            Ok(keys) => Some(keys),
            Err(error) => {
                eprintln!("audit: baseline {}: {error}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let is_new = |v: &Violation| {
        known
            .as_ref()
            .is_none_or(|k| !k.contains(&(v.rule.to_owned(), v.file.clone(), v.line)))
    };

    // Findings always print, sorted; known/suppressed ones only without -q.
    for violation in &report.violations {
        if is_new(violation) {
            println!("  {violation}");
        } else if !opts.quiet {
            println!("  baseline   {violation}");
        }
    }
    if !opts.quiet {
        for violation in &report.suppressed {
            println!("  allowed    {violation}");
        }
    }

    let mut checker = Checker::new(opts.quiet);
    checker.note(&format!(
        "scanned {} files: {} unsuppressed ({} errors, {} warnings), {} suppressed",
        report.files_scanned,
        report.violations.len(),
        report.error_count(),
        report.warning_count(),
        report.suppressed.len(),
    ));
    if let Some(keys) = &known {
        checker.note(&format!(
            "baseline {} carries {} known finding(s)",
            baseline_path
                .as_ref()
                .map_or_else(String::new, |p| p.display().to_string()),
            keys.len(),
        ));
    }
    for (rule, _, open, suppressed) in &report.rule_counts {
        let new = report
            .violations
            .iter()
            .filter(|v| v.rule == *rule && is_new(v))
            .count();
        let detail = match (new, *open, *suppressed) {
            (0, 0, 0) => "clean".to_owned(),
            (0, 0, s) => format!("clean ({s} suppressed)"),
            (0, o, _) => format!("clean ({o} known in baseline)"),
            (n, o, _) if n < o => format!("{n} new finding(s), {} known", o - n),
            (n, _, _) => format!("{n} unsuppressed finding(s)"),
        };
        checker.check(&format!("rule {rule}"), new == 0, &detail);
    }
    checker.check(
        "rule roster covers the contract",
        report.rule_counts.len() == RULES.len(),
        &format!("{} rules", RULES.len()),
    );
    checker.check(
        "suppressions are budgeted and justified",
        report
            .suppressions
            .iter()
            .all(|s| s.used && !s.reason.is_empty()),
        &format!("{} markers", report.suppressions.len()),
    );
    // A collapsing walk (wrong root, renamed dirs) must fail loudly
    // rather than report a vacuously clean tree.
    checker.check(
        "workspace coverage",
        report.files_scanned >= 60,
        &format!("{} files", report.files_scanned),
    );

    if let Some(path) = &json {
        if let Err(error) = std::fs::write(path, report.to_json()) {
            eprintln!("audit: could not write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        checker.note(&format!("wrote {}", path.display()));
    }
    if let Some(path) = &dot_path {
        let workspace = taint::build_workspace(&sources, &config);
        if let Err(error) = std::fs::write(path, workspace.to_dot()) {
            eprintln!("audit: could not write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        checker.note(&format!("wrote call graph to {}", path.display()));
    }
    checker.finish("audit", &opts)
}

/// Read and validate a committed baseline report, returning its
/// unsuppressed violation keys as a `(rule, file, line)` set.
fn load_baseline_keys(path: &std::path::Path) -> Result<HashSet<(String, String, u32)>, String> {
    let text = std::fs::read_to_string(path).map_err(|error| format!("could not read: {error}"))?;
    check_schema(&text)?;
    Ok(parse_violation_keys(&text)?.into_iter().collect())
}

/// The workspace root: two levels above this crate's manifest dir, with
/// the current directory as fallback for a relocated binary.
fn workspace_root() -> PathBuf {
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    compiled
        .parent()
        .and_then(std::path::Path::parent)
        .filter(|root| root.join("Cargo.toml").is_file())
        .map_or_else(|| PathBuf::from("."), std::path::Path::to_path_buf)
}
