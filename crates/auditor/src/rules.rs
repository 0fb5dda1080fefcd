//! The rule roster and the per-file rule engine.
//!
//! Each rule encodes one clause of the workspace determinism/hermeticity
//! contract (see `DESIGN.md` §13). Rules work on the lexed token stream
//! — never on raw text — so words inside comments and string literals
//! can never fire them, and they consult the scope analysis to skip
//! `#[cfg(test)]` code where the contract allows it.

use crate::config::AuditConfig;
use crate::lexer::{lex, Token, TokenKind};
use crate::report::{Severity, Suppression, Violation};
use crate::scope::{in_test_code, test_spans, LineSpan};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Kebab-case id, as used by `audit:allow(id, reason)`.
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// One-line summary for reports and docs.
    pub summary: &'static str,
}

/// The full roster, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-iter",
        severity: Severity::Error,
        summary: "no HashMap/HashSet iteration in result-affecting crates (iteration order is nondeterministic)",
    },
    RuleInfo {
        id: "raw-parallel",
        severity: Severity::Error,
        summary: "no thread::spawn/scope or third-party runtimes outside parx::Executor",
    },
    RuleInfo {
        id: "wall-clock",
        severity: Severity::Error,
        summary: "no wall clock or unseeded randomness flowing into computed values",
    },
    RuleInfo {
        id: "no-unsafe",
        severity: Severity::Error,
        summary: "no unsafe code workspace-wide; crate roots must carry #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "panic-path",
        severity: Severity::Error,
        summary: "no unwrap/expect/panic on the service request path (core::service, core::runner)",
    },
    RuleInfo {
        id: "hermetic-deps",
        severity: Severity::Error,
        summary: "every Cargo.toml dependency must stay workspace-local (path or workspace entries)",
    },
    RuleInfo {
        id: "par-reduce",
        severity: Severity::Error,
        summary: "no shared-state accumulation primitives bypassing the Executor's in-order reduction",
    },
    RuleInfo {
        id: "taint-sink",
        severity: Severity::Error,
        summary: "no approximate value may reach an exact-only sink (quality_error's reference operand, decision-module arguments)",
    },
    RuleInfo {
        id: "taint-branch",
        severity: Severity::Error,
        summary: "no approximate value may decide a branch condition or match scrutinee in core/solvers",
    },
    RuleInfo {
        id: "taint-loop-bound",
        severity: Severity::Error,
        summary: "no approximate value may bound a for-loop in core/solvers (iteration counts must be exact)",
    },
    RuleInfo {
        id: "taint-index",
        severity: Severity::Error,
        summary: "no approximate value may index a slice or array in core/solvers (memory addressing must be exact)",
    },
    RuleInfo {
        id: "allow-budget",
        severity: Severity::Error,
        summary: "audit:allow markers need a reason, must match a finding, and are budgeted per rule",
    },
];

/// Look up a rule by id.
#[must_use]
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Everything the engine found in one Rust source file, before
/// suppression/budget accounting (which is workspace-wide).
#[derive(Debug, Default)]
pub struct FileFindings {
    /// Raw rule findings.
    pub violations: Vec<Violation>,
    /// `audit:allow` markers, `used` not yet resolved.
    pub suppressions: Vec<Suppression>,
}

/// Run every Rust-source rule over one file.
#[must_use]
pub fn audit_rust_source(rel_path: &str, src: &str, config: &AuditConfig) -> FileFindings {
    let tokens = lex(src);
    let spans = test_spans(&tokens);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut findings = FileFindings {
        suppressions: collect_suppressions(rel_path, &tokens),
        ..Default::default()
    };
    let out = &mut findings.violations;

    let crate_name = crate_of(rel_path);
    let result_affecting =
        crate_name.is_some_and(|c| config.result_affecting.iter().any(|r| r == c));

    if result_affecting {
        hash_iter_rule(rel_path, &code, &spans, out);
    }
    if !config.parallel_home.iter().any(|p| p == rel_path) {
        raw_parallel_rule(rel_path, &code, out);
    }
    wall_clock_rule(rel_path, &code, out);
    no_unsafe_rule(rel_path, &code, out);
    if config.panic_free.iter().any(|p| p == rel_path) {
        panic_path_rule(rel_path, &code, &spans, out);
    }
    let reduce_scope =
        result_affecting || crate_name == Some("gatesim") || crate_name == Some("parx");
    if reduce_scope && !config.reduce_exempt.iter().any(|p| p == rel_path) {
        par_reduce_rule(rel_path, &code, &spans, out);
    }

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// The crate directory name a workspace-relative path belongs to
/// (`crates/<name>/…`), or `None` for root-level `tests/`/`examples/`.
#[must_use]
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    rest.split('/').next()
}

fn violation(rule: &'static str, rel_path: &str, tok: &Token, message: String) -> Violation {
    let severity = rule_info(rule).map_or(Severity::Error, |r| r.severity);
    Violation {
        rule,
        severity,
        file: rel_path.to_owned(),
        line: tok.line,
        col: tok.col,
        message,
        trace: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Rule 1: hash-iter
// ---------------------------------------------------------------------

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers bound to a hash-ordered collection in this file: type
/// annotations (`name: HashMap<…>`, including struct fields and fn
/// params) and constructor bindings (`name = HashMap::new()`).
fn hash_bound_idents(code: &[&Token]) -> Vec<String> {
    let mut bound = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !HASH_TYPES.contains(&tok.text.as_str()) {
            continue;
        }
        // Walk back over a `std :: collections ::`-style path prefix,
        // then over reference sigils (`name: &mut HashMap<…>`).
        let mut j = i;
        while j >= 3
            && code[j - 1].is_punct(':')
            && code[j - 2].is_punct(':')
            && code[j - 3].kind == TokenKind::Ident
        {
            j -= 3;
        }
        while j >= 1 && (code[j - 1].is_punct('&') || code[j - 1].is_ident("mut")) {
            j -= 1;
        }
        let name = if j >= 2
            && code[j - 1].is_punct(':')
            && !code[j - 2].is_punct(':')
            && code[j - 2].kind == TokenKind::Ident
        {
            // `name : HashMap<…>` (let annotation, field, or parameter).
            Some(&code[j - 2].text)
        } else if j >= 2 && code[j - 1].is_punct('=') && code[j - 2].kind == TokenKind::Ident {
            // `name = HashMap::new()` / `HashMap::from(…)`.
            Some(&code[j - 2].text)
        } else {
            None
        };
        if let Some(name) = name {
            if !bound.iter().any(|b| b == name) {
                bound.push(name.clone());
            }
        }
    }
    bound
}

fn hash_iter_rule(rel_path: &str, code: &[&Token], spans: &[LineSpan], out: &mut Vec<Violation>) {
    let bound = hash_bound_idents(code);
    if bound.is_empty() {
        return;
    }
    let is_bound = |t: &Token| t.kind == TokenKind::Ident && bound.contains(&t.text);
    for (i, tok) in code.iter().enumerate() {
        if in_test_code(spans, tok.line) {
            continue;
        }
        // `map.iter()` and friends.
        if tok.is_punct('.')
            && i > 0
            && is_bound(code[i - 1])
            && code.get(i + 1).is_some_and(|t| {
                t.kind == TokenKind::Ident && ITER_METHODS.contains(&t.text.as_str())
            })
            && code.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            let method = &code[i + 1].text;
            let recv = &code[i - 1].text;
            out.push(violation(
                "hash-iter",
                rel_path,
                code[i + 1],
                format!(
                    "`{recv}.{method}()` iterates a hash-ordered collection; iteration order \
                     varies across runs — use a BTreeMap/sorted Vec or sort before reducing"
                ),
            ));
        }
        // `for x in [&][mut] map {`.
        if tok.is_ident("for") {
            let Some(in_at) = code[i..]
                .iter()
                .position(|t| t.is_ident("in"))
                .map(|p| i + p)
            else {
                continue;
            };
            if in_at > i + 8 {
                continue; // too far: probably not this `for`'s `in`
            }
            let mut k = in_at + 1;
            while code
                .get(k)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                k += 1;
            }
            if code.get(k).is_some_and(|t| is_bound(t))
                && code.get(k + 1).is_some_and(|t| t.is_punct('{'))
            {
                let recv = &code[k].text;
                out.push(violation(
                    "hash-iter",
                    rel_path,
                    code[k],
                    format!(
                        "`for … in {recv}` iterates a hash-ordered collection; iteration order \
                         varies across runs — use a BTreeMap/sorted Vec or sort before reducing"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: raw-parallel
// ---------------------------------------------------------------------

const FOREIGN_RUNTIMES: &[&str] = &["rayon", "crossbeam", "tokio", "async_std"];
const THREAD_ENTRYPOINTS: &[&str] = &["spawn", "scope", "Builder"];

fn raw_parallel_rule(rel_path: &str, code: &[&Token], out: &mut Vec<Violation>) {
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if FOREIGN_RUNTIMES.contains(&tok.text.as_str()) {
            out.push(violation(
                "raw-parallel",
                rel_path,
                tok,
                format!(
                    "`{}` bypasses the deterministic executor; all parallelism must go \
                     through parx::Executor (indexed work, in-order reduction)",
                    tok.text
                ),
            ));
            continue;
        }
        if tok.text == "thread"
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 3).is_some_and(|t| {
                t.kind == TokenKind::Ident && THREAD_ENTRYPOINTS.contains(&t.text.as_str())
            })
        {
            out.push(violation(
                "raw-parallel",
                rel_path,
                code[i + 3],
                format!(
                    "`thread::{}` spawns outside parx::Executor; ad-hoc threads break \
                     the indexed-work/in-order-reduction determinism contract",
                    code[i + 3].text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: wall-clock
// ---------------------------------------------------------------------

const CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "getrandom", "RandomState"];

fn wall_clock_rule(rel_path: &str, code: &[&Token], out: &mut Vec<Violation>) {
    for tok in code {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if CLOCK_IDENTS.contains(&tok.text.as_str()) {
            out.push(violation(
                "wall-clock",
                rel_path,
                tok,
                format!(
                    "`{}` reads the wall clock; computed values must depend on (config, seed) \
                     alone — a read that only reports timings needs an audit:allow marker",
                    tok.text
                ),
            ));
        } else if ENTROPY_IDENTS.contains(&tok.text.as_str()) {
            out.push(violation(
                "wall-clock",
                rel_path,
                tok,
                format!(
                    "`{}` draws unseeded randomness; every RNG must derive from an explicit \
                     seed (see parx::chunk_seed) so runs replay bit-identically",
                    tok.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: no-unsafe
// ---------------------------------------------------------------------

fn no_unsafe_rule(rel_path: &str, code: &[&Token], out: &mut Vec<Violation>) {
    for tok in code {
        if tok.is_ident("unsafe") {
            out.push(violation(
                "no-unsafe",
                rel_path,
                tok,
                "`unsafe` is banned workspace-wide; the kernels stay in safe Rust so the \
                 nightly Miri job and the static audit agree"
                    .to_owned(),
            ));
        }
    }
    if is_crate_root(rel_path) && !has_forbid_unsafe(code) {
        out.push(Violation {
            rule: "no-unsafe",
            severity: Severity::Error,
            file: rel_path.to_owned(),
            line: 1,
            col: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`; every crate the audit \
                      proves clean must also be locked down by rustc"
                .to_owned(),
            trace: Vec::new(),
        });
    }
}

fn is_crate_root(rel_path: &str) -> bool {
    rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs")
}

fn has_forbid_unsafe(code: &[&Token]) -> bool {
    code.windows(4).any(|w| {
        w[0].is_ident("forbid")
            && w[1].is_punct('(')
            && w[2].is_ident("unsafe_code")
            && w[3].is_punct(')')
    })
}

// ---------------------------------------------------------------------
// Rule 5: panic-path
// ---------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

fn panic_path_rule(rel_path: &str, code: &[&Token], spans: &[LineSpan], out: &mut Vec<Violation>) {
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || in_test_code(spans, tok.line) {
            continue;
        }
        if PANIC_METHODS.contains(&tok.text.as_str())
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push(violation(
                "panic-path",
                rel_path,
                tok,
                format!(
                    "`.{}()` can abort a service request mid-drain; the request path must \
                     degrade through Outcome/telemetry, never panic",
                    tok.text
                ),
            ));
        }
        if PANIC_MACROS.contains(&tok.text.as_str())
            && code.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            out.push(violation(
                "panic-path",
                rel_path,
                tok,
                format!(
                    "`{}!` can abort a service request mid-drain; the request path must \
                     degrade through Outcome/telemetry, never panic",
                    tok.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 7: par-reduce
// ---------------------------------------------------------------------

const SHARED_STATE_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar", "mpsc"];
const ATOMIC_RMW_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

fn par_reduce_rule(rel_path: &str, code: &[&Token], spans: &[LineSpan], out: &mut Vec<Violation>) {
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || in_test_code(spans, tok.line) {
            continue;
        }
        let shared_type = SHARED_STATE_TYPES.contains(&tok.text.as_str())
            || (tok.text.starts_with("Atomic") && tok.text.len() > "Atomic".len());
        if shared_type {
            out.push(violation(
                "par-reduce",
                rel_path,
                tok,
                format!(
                    "`{}` enables scheduling-order accumulation; parallel reductions must \
                     return indexed results through parx::Executor, which folds them \
                     in index order",
                    tok.text
                ),
            ));
            continue;
        }
        if ATOMIC_RMW_METHODS.contains(&tok.text.as_str()) && i > 0 && code[i - 1].is_punct('.') {
            out.push(violation(
                "par-reduce",
                rel_path,
                tok,
                format!(
                    "`.{}` is a read-modify-write on shared state; accumulation order would \
                     depend on thread scheduling — reduce through the Executor instead",
                    tok.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

/// Parse `audit:allow(rule, reason)` markers out of the comment tokens.
///
/// A marker suppresses matching findings on its own line (trailing
/// comment) or the line directly below (comment-above style). Only
/// plain comments count: doc comments (`///`, `//!`, `/**`, `/*!`) are
/// documentation *about* the syntax, not suppressions of adjacent code
/// — which also keeps this crate's own docs from self-triggering.
fn collect_suppressions(rel_path: &str, tokens: &[Token]) -> Vec<Suppression> {
    let is_doc = |t: &Token| {
        ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| t.text.starts_with(p))
    };
    let mut out = Vec::new();
    for tok in tokens.iter().filter(|t| t.is_comment() && !is_doc(t)) {
        let mut rest = tok.text.as_str();
        while let Some(at) = rest.find("audit:allow(") {
            rest = &rest[at + "audit:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let inside = &rest[..close];
            rest = &rest[close + 1..];
            let (rule, reason) = match inside.split_once(',') {
                Some((r, why)) => (r.trim(), why.trim()),
                None => (inside.trim(), ""),
            };
            out.push(Suppression {
                rule: rule.to_owned(),
                reason: reason.to_owned(),
                file: rel_path.to_owned(),
                line: tok.line,
                used: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AuditConfig;

    fn cfg() -> AuditConfig {
        AuditConfig::approxit(".")
    }

    fn audit(rel: &str, src: &str) -> Vec<Violation> {
        audit_rust_source(rel, src, &cfg()).violations
    }

    #[test]
    fn roster_ids_are_unique_and_kebab() {
        for rule in RULES {
            assert!(rule.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert_eq!(RULES.iter().filter(|r| r.id == rule.id).count(), 1);
        }
    }

    #[test]
    fn hash_iter_only_fires_in_result_affecting_crates() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in &m {\n        drop((k, v));\n    }\n}\n";
        let v = audit("crates/core/src/quality.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "hash-iter").count(), 1);
        assert_eq!(v[0].line, 4);
        // Same source in a non-result-affecting crate: no finding.
        assert!(audit("crates/bench/src/harness2.rs", src)
            .iter()
            .all(|v| v.rule != "hash-iter"));
    }

    #[test]
    fn hash_lookup_without_iteration_is_fine() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> Option<u32> {\n    m.get(&1).copied()\n}\n";
        assert!(audit("crates/core/src/quality.rs", src).is_empty());
    }

    #[test]
    fn constructor_bound_names_are_tracked() {
        let src = "fn f() {\n    let seen = std::collections::HashMap::from([(1, 2)]);\n    let total: u32 = seen.values().sum();\n    drop(total);\n}\n";
        let v = audit("crates/solvers/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("hash-iter", 3));
    }

    #[test]
    fn raw_parallel_flags_spawn_but_not_par_home() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let v = audit("crates/solvers/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("raw-parallel", 1));
        assert!(audit("crates/parx/src/lib.rs", src)
            .iter()
            .all(|v| v.rule != "raw-parallel"));
    }

    #[test]
    fn wall_clock_respects_the_allowlist() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        let v = audit("crates/linalg/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "wall-clock").count(), 2);
        // No file is exempt, a bench binary included.
        let v = audit("crates/bench/src/bin/perf.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "wall-clock").count(), 2);
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_invisible() {
        let src = "// unsafe in a comment\nfn f() { let _ = \"unsafe in a string\"; }\n";
        assert!(audit("crates/gatesim/src/lint2.rs", src).is_empty());
        let v = audit("crates/gatesim/src/lint2.rs", "fn f() { unsafe { } }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unsafe");
    }

    #[test]
    fn crate_roots_must_forbid_unsafe() {
        let v = audit("crates/demo/src/lib.rs", "//! docs\npub fn f() {}\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("forbid(unsafe_code)"));
        assert!(audit(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
    }

    #[test]
    fn panic_path_skips_test_modules() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) { x.unwrap(); }\n}\n";
        let v = audit("crates/core/src/service.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "panic-path").count(), 1);
        assert_eq!(v[0].line, 1);
        // Other files are not on the request path.
        assert!(audit("crates/core/src/quality.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(audit("crates/core/src/runner.rs", src).is_empty());
    }

    #[test]
    fn par_reduce_flags_shared_accumulators() {
        let src =
            "use std::sync::Mutex;\nfn f() { let total = Mutex::new(0.0f64); drop(total); }\n";
        let v = audit("crates/approx-arith/src/x.rs", src);
        assert_eq!(v.iter().filter(|v| v.rule == "par-reduce").count(), 2);
        let src = "fn f(c: &std::sync::atomic::AtomicU64) { c.fetch_add(1, std::sync::atomic::Ordering::Relaxed); }\n";
        let v = audit("crates/gatesim/src/sim2.rs", src);
        assert!(v.iter().any(|v| v.rule == "par-reduce"));
        // The parx substrate is in scope too, but its own internals are
        // the one sanctioned home.
        let v = audit("crates/parx/src/helper.rs", src);
        assert!(v.iter().any(|v| v.rule == "par-reduce"));
        assert!(audit("crates/parx/src/lib.rs", src)
            .iter()
            .all(|v| v.rule != "par-reduce"));
    }

    #[test]
    fn suppressions_parse_rule_and_reason() {
        let src = "fn f() {\n    // audit:allow(wall-clock, bench timing only)\n    let x = 1;\n    drop(x);\n}\n";
        let f = audit_rust_source("crates/core/src/x.rs", src, &cfg());
        assert_eq!(f.suppressions.len(), 1);
        let s = &f.suppressions[0];
        assert_eq!(s.rule, "wall-clock");
        assert_eq!(s.reason, "bench timing only");
        assert_eq!(s.line, 2);
    }

    #[test]
    fn doc_comments_never_carry_suppressions() {
        let src = "/// Explains `audit:allow(no-unsafe, reason)` syntax.\n//! Or `audit:allow(rule, reason)` in module docs.\n/** Even `audit:allow(id, why)` in block docs. */\nfn f() {} // audit:allow(no-unsafe, a real marker)\n";
        let f = audit_rust_source("crates/core/src/x.rs", src, &cfg());
        assert_eq!(f.suppressions.len(), 1);
        assert_eq!(f.suppressions[0].line, 4);
    }

    #[test]
    fn crate_of_classifies_paths() {
        assert_eq!(crate_of("crates/core/src/service.rs"), Some("core"));
        assert_eq!(crate_of("tests/end_to_end.rs"), None);
        assert_eq!(crate_of("examples/quickstart.rs"), None);
    }
}
