//! Workspace determinism & hermeticity auditor.
//!
//! ApproxIt's quality-control story rests on a contract the type system
//! cannot see: a given `(config, seed)` must always produce the same
//! trajectory, bit for bit, on any thread count. The service layer's
//! cross-thread identity checks and the model-checker proofs *assume*
//! that contract; this crate enforces it at the source level, so a
//! violation fails CI as a named lint instead of surfacing weeks later
//! as a flaky bench.
//!
//! The pass is deliberately dependency-free: a hand-rolled Rust
//! [`lexer`], a lightweight [`scope`] analysis for `#[cfg(test)]`
//! boundaries, a line-oriented [`manifest`] reader for `Cargo.toml`
//! hermeticity, and a token-level rule engine ([`rules`]) in the same
//! spirit as gatesim's netlist linter. See [`rules::RULES`] for the
//! roster; `DESIGN.md` §13 documents the contract each rule encodes.
//!
//! On top of the syntactic rules sits a semantic pass: the
//! approximation-taint dataflow analysis ([`symbols`] → [`callgraph`] →
//! [`taint`] with [`summaries`] iterated to fixpoint), which proves the
//! exact/approximate boundary the quality guarantee assumes. Its
//! `taint-*` findings carry full source→sink traces; `DESIGN.md` §14
//! documents the lattice and the source/sanitizer/sink tables.
//!
//! # Suppressions
//!
//! A finding can be silenced inline:
//!
//! ```text
//! let t0 = Instant::now(); // audit:allow(wall-clock, timing printout only)
//! ```
//!
//! The marker must name the rule and give a reason; it may sit on the
//! offending line or the line above. Suppressions are themselves
//! audited: an unused marker, an empty reason, or more markers than the
//! per-rule budget all raise `allow-budget` findings.
//!
//! # Example
//!
//! ```
//! use auditor::{audit_rust_source, AuditConfig};
//!
//! let config = AuditConfig::approxit(".");
//! let planted = "fn f() { std::thread::spawn(|| {}); }\n";
//! let findings = audit_rust_source("crates/solvers/src/x.rs", planted, &config);
//! assert_eq!(findings.violations.len(), 1);
//! assert_eq!(findings.violations[0].rule, "raw-parallel");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod scope;
pub mod summaries;
pub mod symbols;
pub mod taint;

pub use config::AuditConfig;
pub use report::{AuditReport, Severity, Suppression, TraceHop, Violation};
pub use rules::{audit_rust_source, FileFindings, RuleInfo, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Audit the whole workspace under `config.root`.
///
/// Walks every `Cargo.toml` plus every `.rs` file under `crates/*/src`,
/// `crates/*/tests`, `crates/*/benches`, root `tests/` and `examples/`
/// (in sorted path order, so reports are deterministic), runs the rule
/// engine, applies suppressions, and settles the suppression budget.
///
/// # Errors
/// Propagates I/O errors from the directory walk or file reads.
pub fn run_audit(config: &AuditConfig) -> io::Result<AuditReport> {
    let sources = collect_sources(config)?;
    Ok(audit_sources(&sources, config))
}

/// Read every audited workspace file into `(rel_path, source)` pairs, in
/// sorted path order. The same list feeds [`audit_sources`] and the
/// call-graph export, so the two always see an identical workspace.
///
/// # Errors
/// Propagates I/O errors from the directory walk or file reads.
pub fn collect_sources(config: &AuditConfig) -> io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    for path in workspace_files(&config.root)? {
        let rel = rel_path(&config.root, &path);
        let src = fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Audit a set of in-memory `(rel_path, source)` pairs: per-file rules,
/// manifests, the workspace-wide taint dataflow pass, then suppression
/// and budget settlement. This is `run_audit` minus the I/O — fixture
/// tests feed it planted multi-file workspaces directly.
#[must_use]
pub fn audit_sources(sources: &[(String, String)], config: &AuditConfig) -> AuditReport {
    let mut findings = rules::FileFindings::default();
    for (rel, src) in sources {
        if rel.ends_with("Cargo.toml") {
            findings
                .violations
                .extend(manifest::audit_manifest(rel, src));
        } else {
            let file = rules::audit_rust_source(rel, src, config);
            findings.violations.extend(file.violations);
            findings.suppressions.extend(file.suppressions);
        }
    }
    findings
        .violations
        .extend(taint::audit_taint(sources, config));
    assemble(findings, sources.len(), config)
}

/// Apply suppressions and the per-rule budget to raw findings, producing
/// the final report. Exposed for fixture tests that audit in-memory
/// sources instead of a directory tree.
#[must_use]
pub fn assemble(
    findings: rules::FileFindings,
    files_scanned: usize,
    config: &AuditConfig,
) -> AuditReport {
    let rules::FileFindings {
        violations,
        mut suppressions,
    } = findings;

    // Match each violation against the markers in its file: same line
    // (trailing comment) or the line above (comment-above style).
    let mut open = Vec::new();
    let mut suppressed = Vec::new();
    for v in violations {
        let same_line = |s: &Suppression| s.rule == v.rule && s.file == v.file && s.line == v.line;
        let line_above =
            |s: &Suppression| s.rule == v.rule && s.file == v.file && s.line + 1 == v.line;
        // Prefer a trailing comment on the offending line; fall back to
        // a comment-above marker.
        let idx = suppressions
            .iter()
            .position(same_line)
            .or_else(|| suppressions.iter().position(line_above));
        match idx.map(|i| &mut suppressions[i]) {
            Some(s) if !s.reason.is_empty() => {
                s.used = true;
                suppressed.push(v);
            }
            _ => open.push(v),
        }
    }

    // Suppression hygiene: unknown rule ids and empty reasons are
    // errors; a marker that matched nothing is a warning (stale marker).
    for s in &suppressions {
        if rules::rule_info(&s.rule).is_none() {
            open.push(Violation {
                rule: "allow-budget",
                severity: Severity::Error,
                file: s.file.clone(),
                line: s.line,
                col: 1,
                message: format!("audit:allow names unknown rule `{}`", s.rule),
                trace: Vec::new(),
            });
        } else if s.reason.is_empty() {
            open.push(Violation {
                rule: "allow-budget",
                severity: Severity::Error,
                file: s.file.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "audit:allow({}) has no reason; suppressions must be justified",
                    s.rule
                ),
                trace: Vec::new(),
            });
        } else if !s.used {
            open.push(Violation {
                rule: "allow-budget",
                severity: Severity::Warning,
                file: s.file.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "audit:allow({}) matched no finding on its line or the line below; \
                     stale markers hide future regressions — delete it",
                    s.rule
                ),
                trace: Vec::new(),
            });
        }
    }

    // Per-rule budget: suppressing more than `suppression_budget`
    // findings of one rule means the rule is being worked around, not
    // excepted. Every marker past the budget (in file/line order) is an
    // error at its own span.
    for rule in RULES {
        let mut markers: Vec<&Suppression> = suppressions
            .iter()
            .filter(|s| s.used && s.rule == rule.id)
            .collect();
        markers.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        for s in markers.iter().skip(config.suppression_budget) {
            open.push(Violation {
                rule: "allow-budget",
                severity: Severity::Error,
                file: s.file.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "suppression budget exceeded for `{}` ({} markers, budget {}); \
                     fix the findings instead of allowlisting them",
                    rule.id,
                    markers.len(),
                    config.suppression_budget
                ),
                trace: Vec::new(),
            });
        }
    }

    open.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    suppressed
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));

    let rule_counts = RULES
        .iter()
        .map(|r| {
            (
                r.id,
                r.severity,
                open.iter().filter(|v| v.rule == r.id).count(),
                suppressed.iter().filter(|v| v.rule == r.id).count(),
            )
        })
        .collect();

    AuditReport {
        files_scanned,
        violations: open,
        suppressed,
        suppressions,
        rule_counts,
    }
}

/// Every file the audit covers, in sorted (deterministic) order.
///
/// # Errors
/// Propagates directory-walk I/O errors; missing optional directories
/// (e.g. a crate without `tests/`) are skipped silently.
fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let top_manifest = root.join("Cargo.toml");
    if top_manifest.is_file() {
        files.push(top_manifest);
    }
    for dir in ["tests", "examples"] {
        collect_rs(&root.join(dir), &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for krate in crates {
            let manifest = krate.join("Cargo.toml");
            if manifest.is_file() {
                files.push(manifest);
            }
            for dir in ["src", "tests", "benches"] {
                collect_rs(&krate.join(dir), &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively gather `.rs` files under `dir` (no-op if absent).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            // Fixture directories hold *planted violations*: they are
            // audit test data, not workspace source.
            if entry.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with `/` separators.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted(rule: &'static str, file: &str, line: u32) -> Violation {
        Violation {
            rule,
            severity: Severity::Error,
            file: file.to_owned(),
            line,
            col: 1,
            message: "planted".to_owned(),
            trace: Vec::new(),
        }
    }

    fn marker(rule: &str, reason: &str, file: &str, line: u32) -> Suppression {
        Suppression {
            rule: rule.to_owned(),
            reason: reason.to_owned(),
            file: file.to_owned(),
            line,
            used: false,
        }
    }

    #[test]
    fn suppression_matches_same_line_and_line_above() {
        let cfg = AuditConfig::approxit(".");
        let findings = rules::FileFindings {
            violations: vec![
                planted("no-unsafe", "a.rs", 5),
                planted("no-unsafe", "a.rs", 9),
            ],
            suppressions: vec![
                marker("no-unsafe", "ffi shim", "a.rs", 5),
                marker("no-unsafe", "ffi shim", "a.rs", 8),
            ],
        };
        let report = assemble(findings, 1, &cfg);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.suppressed.len(), 2);
        assert!(report.is_clean());
    }

    #[test]
    fn wrong_rule_or_distance_does_not_suppress() {
        let cfg = AuditConfig::approxit(".");
        let findings = rules::FileFindings {
            violations: vec![planted("no-unsafe", "a.rs", 5)],
            suppressions: vec![marker("wall-clock", "wrong rule", "a.rs", 5)],
        };
        let report = assemble(findings, 1, &cfg);
        // The violation stays, and the stale marker is warned about.
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
    }

    #[test]
    fn empty_reason_and_unknown_rule_are_errors() {
        let cfg = AuditConfig::approxit(".");
        let findings = rules::FileFindings {
            violations: vec![planted("no-unsafe", "a.rs", 5)],
            suppressions: vec![
                marker("no-unsafe", "", "a.rs", 5),
                marker("not-a-rule", "whatever", "a.rs", 20),
            ],
        };
        let report = assemble(findings, 1, &cfg);
        // Empty reason: the finding stays open AND the marker errors.
        assert_eq!(report.error_count(), 3);
        assert!(report
            .violations
            .iter()
            .any(|v| v.message.contains("no reason")));
        assert!(report
            .violations
            .iter()
            .any(|v| v.message.contains("unknown rule")));
    }

    #[test]
    fn budget_overflow_flags_each_excess_marker() {
        let mut cfg = AuditConfig::approxit(".");
        cfg.suppression_budget = 2;
        let findings = rules::FileFindings {
            violations: (1..=4).map(|l| planted("wall-clock", "a.rs", l)).collect(),
            suppressions: (1..=4)
                .map(|l| marker("wall-clock", "why", "a.rs", l))
                .collect(),
        };
        let report = assemble(findings, 1, &cfg);
        let over: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == "allow-budget")
            .collect();
        assert_eq!(over.len(), 2, "two markers past the budget of 2");
        assert!(over.iter().all(|v| v.message.contains("budget exceeded")));
        assert_eq!(report.suppressed.len(), 4);
        assert!(!report.is_clean());
    }

    #[test]
    fn rule_counts_cover_the_roster() {
        let cfg = AuditConfig::approxit(".");
        let report = assemble(rules::FileFindings::default(), 0, &cfg);
        assert_eq!(report.rule_counts.len(), RULES.len());
        assert!(report.is_clean());
    }
}
