//! Audit results: violations, suppressions, and the machine-readable
//! report.
//!
//! The JSON schema ([`SCHEMA`], currently `approxit-audit/2`) is what
//! CI uploads as an artifact, so it is rendered deterministically:
//! files in sorted path order, violations in (file, line, col, rule)
//! order, rules in roster order, one violation object per line (which
//! [`parse_violation_keys`] relies on for baseline diffing). The
//! renderer is hand-rolled (the auditor is dependency-free).
//!
//! Schema history: `/1` had no `trace` arrays on violations; `/2` added
//! them for the taint pass. Consumers must call [`check_schema`] first
//! and fail loudly on a version they were not written for.

use std::fmt::Write as _;

/// The JSON schema version this build renders — and the only one
/// [`check_schema`] accepts.
pub const SCHEMA: &str = "approxit-audit/2";

/// How bad a finding is. `Error` gates CI; `Warning` is reported (and
/// counted in the JSON artifact) but does not fail the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported but non-gating.
    Warning,
    /// Gates the audit: the tree is not clean while one is unsuppressed.
    Error,
}

impl Severity {
    /// Lower-case name used in reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Warning => "warning",
            Self::Error => "error",
        }
    }
}

/// One hop of a taint source→sink path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHop {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What happened at this hop (`fabric op .mul on …`, `returned
    /// from …`, `reaches branch condition`).
    pub note: String,
}

impl std::fmt::Display for TraceHop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}: {}", self.file, self.line, self.col, self.note)
    }
}

/// One rule finding at a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (kebab-case, e.g. `hash-iter`).
    pub rule: &'static str,
    /// Severity the rule carries.
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Source→sink hops for dataflow (`taint-*`) findings; empty for
    /// syntactic rules.
    pub trace: Vec<TraceHop>,
}

impl Violation {
    /// `file:line:col` span string.
    #[must_use]
    pub fn span(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.col)
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {} — {}",
            self.severity.name(),
            self.rule,
            self.span(),
            self.message
        )?;
        for hop in &self.trace {
            write!(f, "\n    ↳ {hop}")?;
        }
        Ok(())
    }
}

/// A parsed `// audit:allow(rule, reason)` marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule id it suppresses.
    pub rule: String,
    /// Mandatory justification (empty reasons are themselves flagged).
    pub reason: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the marker.
    pub line: u32,
    /// Whether any violation actually matched this marker.
    pub used: bool,
}

/// The assembled result of an audit run.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Number of files scanned (Rust sources + manifests).
    pub files_scanned: usize,
    /// Unsuppressed findings, sorted by (file, line, col, rule).
    pub violations: Vec<Violation>,
    /// Findings silenced by an `audit:allow`, same order.
    pub suppressed: Vec<Violation>,
    /// Every suppression marker found, with usage accounting.
    pub suppressions: Vec<Suppression>,
    /// Per-rule roster: (rule id, severity, unsuppressed, suppressed).
    pub rule_counts: Vec<(&'static str, Severity, usize, usize)>,
}

impl AuditReport {
    /// Unsuppressed errors — the number that must be zero for a clean
    /// tree.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .count()
    }

    /// Unsuppressed warnings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Warning)
            .count()
    }

    /// Whether the tree passes the gate (no unsuppressed errors).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Render the [`SCHEMA`] JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SCHEMA));
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"errors\": {},", self.error_count());
        let _ = writeln!(out, "  \"warnings\": {},", self.warning_count());
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed.len());
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());

        out.push_str("  \"rules\": [\n");
        for (i, (rule, severity, open, suppressed)) in self.rule_counts.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"id\": {}, \"severity\": {}, \"violations\": {open}, \"suppressed\": {suppressed}}}",
                json_str(rule),
                json_str(severity.name()),
            );
            out.push_str(if i + 1 < self.rule_counts.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");

        render_violations(&mut out, "violations", &self.violations);
        out.push_str(",\n");
        render_violations(&mut out, "suppressed_violations", &self.suppressed);
        out.push_str(",\n");

        out.push_str("  \"suppressions\": [\n");
        for (i, s) in self.suppressions.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"used\": {}, \"reason\": {}}}",
                json_str(&s.rule),
                json_str(&s.file),
                s.line,
                s.used,
                json_str(&s.reason),
            );
            out.push_str(if i + 1 < self.suppressions.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn render_violations(out: &mut String, key: &str, list: &[Violation]) {
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, v) in list.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"trace\": [",
            json_str(v.rule),
            json_str(v.severity.name()),
            json_str(&v.file),
            v.line,
            v.col,
            json_str(&v.message),
        );
        for (h, hop) in v.trace.iter().enumerate() {
            if h > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"file\": {}, \"line\": {}, \"col\": {}, \"note\": {}}}",
                json_str(&hop.file),
                hop.line,
                hop.col,
                json_str(&hop.note),
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 < list.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
}

/// Validate a serialized report's `schema` field against [`SCHEMA`].
///
/// Every consumer of the artifact (the `--baseline` diff, external
/// tooling) must call this first: an `approxit-audit/1` document — or
/// any future `/3` — is rejected loudly instead of being misread.
///
/// # Errors
/// The schema field is missing, or names a version other than
/// [`SCHEMA`].
pub fn check_schema(json: &str) -> Result<(), String> {
    for line in json.lines() {
        let Some(v) = extract_str_field(line, "schema") else {
            continue;
        };
        if v == SCHEMA {
            return Ok(());
        }
        return Err(format!(
            "unsupported audit schema {v:?}: this reader handles {SCHEMA:?} only \
             (regenerate the document with the current `bench --bin audit`)"
        ));
    }
    Err(format!(
        "document has no \"schema\" field; refusing to guess (expected {SCHEMA:?})"
    ))
}

/// Extract `(rule, file, line)` keys from a report's *unsuppressed*
/// `violations` array (suppressed ones are excluded — a finding leaving
/// suppression must count as new in a baseline diff).
///
/// This is a line-oriented reader of our own renderer's output: one
/// violation object per line, fields rendered by [`json_str`]. It
/// checks the schema first.
///
/// # Errors
/// Bad schema, or a violation line whose `rule`/`file`/`line` fields
/// cannot be read back.
pub fn parse_violation_keys(json: &str) -> Result<Vec<(String, String, u32)>, String> {
    check_schema(json)?;
    let mut out = Vec::new();
    let mut inside = false;
    for line in json.lines() {
        let t = line.trim();
        if !inside {
            if t.starts_with("\"violations\": [") {
                inside = true;
            }
            continue;
        }
        if t.starts_with(']') {
            break;
        }
        if !t.starts_with('{') {
            continue;
        }
        let rule = extract_str_field(t, "rule")
            .ok_or_else(|| format!("violation line without a rule: {t}"))?;
        let file = extract_str_field(t, "file")
            .ok_or_else(|| format!("violation line without a file: {t}"))?;
        let line_no = extract_num_field(t, "line")
            .ok_or_else(|| format!("violation line without a line number: {t}"))?;
        out.push((rule, file, line_no));
    }
    Ok(out)
}

/// Read back a `"name": "value"` field rendered by [`json_str`] from a
/// single line; returns the unescaped value of the *first* occurrence.
fn extract_str_field(line: &str, name: &str) -> Option<String> {
    let needle = format!("\"{name}\": \"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Read back a `"name": 123` numeric field from a single line.
fn extract_num_field(line: &str, name: &str) -> Option<u32> {
    let needle = format!("\"{name}\": ");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Escape a string as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(rule: &'static str, file: &str, line: u32) -> Violation {
        Violation {
            rule,
            severity: Severity::Error,
            file: file.to_owned(),
            line,
            col: 5,
            message: "planted \"finding\"".to_owned(),
            trace: Vec::new(),
        }
    }

    #[test]
    fn counts_and_cleanliness() {
        let mut report = AuditReport {
            files_scanned: 2,
            ..Default::default()
        };
        assert!(report.is_clean());
        report.violations.push(violation("no-unsafe", "a.rs", 3));
        report.violations.push(Violation {
            severity: Severity::Warning,
            ..violation("allow-budget", "a.rs", 9)
        });
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let report = AuditReport {
            files_scanned: 1,
            violations: vec![violation("hash-iter", "crates/x/src/a.rs", 7)],
            suppressions: vec![Suppression {
                rule: "wall-clock".into(),
                reason: "bench \"timing\"".into(),
                file: "b.rs".into(),
                line: 2,
                used: true,
            }],
            rule_counts: vec![("hash-iter", Severity::Error, 1, 0)],
            ..Default::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"approxit-audit/2\""));
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\\\"finding\\\""));
        assert!(json.contains("\\\"timing\\\""));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("\"clean\": false"));
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }

    #[test]
    fn schema_check_rejects_v1_and_missing() {
        let v2 = AuditReport::default().to_json();
        assert!(check_schema(&v2).is_ok());
        let v1 = v2.replace("approxit-audit/2", "approxit-audit/1");
        let err = check_schema(&v1).unwrap_err();
        assert!(err.contains("approxit-audit/1"), "{err}");
        assert!(err.contains("approxit-audit/2"), "{err}");
        let none = "{\n  \"files_scanned\": 0\n}\n";
        assert!(check_schema(none).unwrap_err().contains("no \"schema\""));
    }

    #[test]
    fn violation_keys_round_trip_through_json() {
        let mut v = violation("taint-branch", "crates/solvers/src/cg.rs", 42);
        v.trace = vec![
            TraceHop {
                file: "crates/solvers/src/cg.rs".into(),
                line: 40,
                col: 17,
                note: "fabric op `.dot` on context parameter `ctx`".into(),
            },
            TraceHop {
                file: "crates/solvers/src/cg.rs".into(),
                line: 42,
                col: 9,
                note: "reaches branch condition".into(),
            },
        ];
        let report = AuditReport {
            files_scanned: 1,
            violations: vec![v.clone(), violation("hash-iter", "crates/x/src/a.rs", 7)],
            suppressed: vec![violation("taint-sink", "crates/core/src/quality.rs", 9)],
            ..Default::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"note\": \"fabric op `.dot` on context parameter `ctx`\""));
        let keys = parse_violation_keys(&json).unwrap();
        // Unsuppressed only: the suppressed taint-sink must not appear.
        assert_eq!(
            keys,
            vec![
                (
                    "taint-branch".to_owned(),
                    "crates/solvers/src/cg.rs".to_owned(),
                    42
                ),
                ("hash-iter".to_owned(), "crates/x/src/a.rs".to_owned(), 7),
            ]
        );
        // The rendered trace survives Display too.
        let text = v.to_string();
        assert!(text.contains("↳ crates/solvers/src/cg.rs:40:17: fabric op"));
    }

    #[test]
    fn display_span_format() {
        let v = violation("panic-path", "crates/core/src/service.rs", 505);
        assert_eq!(v.span(), "crates/core/src/service.rs:505:5");
        let text = v.to_string();
        assert!(text.starts_with("error[panic-path] "));
    }
}
