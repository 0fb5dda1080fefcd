//! Workspace model and call graph for the taint pass.
//!
//! A [`Workspace`] holds every analyzed file's comment-free token
//! stream plus its [`symbols`](crate::symbols) function table, with
//! name indices for call resolution. Resolution is *name-based* (no
//! type inference): a call joins the summaries of every candidate with
//! a matching name, which over-approximates dispatch — safe for a
//! taint analysis, where joining too much can only make a value more
//! approximate, never less.
//!
//! [`Workspace::to_dot`] renders the resolved caller→callee edges as
//! Graphviz for the `CALLGRAPH.dot` CI artifact.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};
use crate::scope::test_spans;
use crate::symbols::{file_functions, match_paren, FnDef};

/// Identifies one function: (unit index, fn index within the unit).
pub type FnId = (usize, usize);

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceUnit {
    /// Workspace-relative path.
    pub path: String,
    /// Comment-free token stream; `FnDef::body` ranges index into it.
    pub code: Vec<Token>,
    /// Function table for this file.
    pub fns: Vec<FnDef>,
}

/// Every analyzed file plus cross-file name indices.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Units in sorted path order (deterministic reports).
    pub units: Vec<SourceUnit>,
    by_name: BTreeMap<String, Vec<FnId>>,
    by_qual: BTreeMap<String, Vec<FnId>>,
}

impl Workspace {
    /// Build the workspace model from `(rel_path, source)` pairs.
    ///
    /// Functions inside test code stay in the tables (so spans stay
    /// accurate) but are excluded from the name indices: a helper named
    /// like a production function inside `#[cfg(test)]` must not
    /// pollute call resolution.
    #[must_use]
    pub fn build(files: &[(String, String)]) -> Self {
        let mut ws = Self::default();
        for (path, src) in files {
            let tokens = lex(src);
            let spans = test_spans(&tokens);
            let code: Vec<Token> = tokens.into_iter().filter(|t| !t.is_comment()).collect();
            let fns = file_functions(path, &code, &spans);
            ws.units.push(SourceUnit {
                path: path.clone(),
                code,
                fns,
            });
        }
        for (u, unit) in ws.units.iter().enumerate() {
            for (f, def) in unit.fns.iter().enumerate() {
                if def.is_test {
                    continue;
                }
                ws.by_name.entry(def.name.clone()).or_default().push((u, f));
                if def.qual != def.name {
                    ws.by_qual.entry(def.qual.clone()).or_default().push((u, f));
                }
            }
        }
        ws
    }

    /// The function behind an id.
    #[must_use]
    pub fn def(&self, id: FnId) -> &FnDef {
        &self.units[id.0].fns[id.1]
    }

    /// All ids, unit-major — the deterministic iteration order every
    /// pass uses.
    #[must_use]
    pub fn fn_ids(&self) -> Vec<FnId> {
        let mut out = Vec::new();
        for (u, unit) in self.units.iter().enumerate() {
            for f in 0..unit.fns.len() {
                out.push((u, f));
            }
        }
        out
    }

    /// Candidates for a call: when the call is path-qualified
    /// (`Type::name`) prefer exact qualified matches, otherwise (and as
    /// a fallback) every non-test function with the bare name.
    #[must_use]
    pub fn resolve(&self, name: &str, type_hint: Option<&str>) -> &[FnId] {
        if let Some(ty) = type_hint {
            if let Some(ids) = self.by_qual.get(&format!("{ty}::{name}")) {
                return ids;
            }
        }
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Resolved caller→callee edges, deduplicated and sorted.
    #[must_use]
    pub fn edges(&self) -> Vec<(FnId, FnId)> {
        let mut edges = BTreeSet::new();
        for (u, unit) in self.units.iter().enumerate() {
            for (f, def) in unit.fns.iter().enumerate() {
                for site in call_sites(&unit.code, def.body.clone()) {
                    for callee in self.resolve(&site.name, site.type_hint.as_deref()) {
                        if *callee != (u, f) {
                            edges.insert(((u, f), *callee));
                        }
                    }
                }
            }
        }
        edges.into_iter().collect()
    }

    /// Render the call graph as Graphviz DOT (the CI debug artifact).
    /// Nodes are `file :: qualified_name`; test functions are dashed.
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let label = |id: FnId| format!("{}::{}", self.units[id.0].path, self.def(id).qual);
        let mut out = String::from(
            "digraph approxit_callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n",
        );
        for id in self.fn_ids() {
            let style = if self.def(id).is_test {
                ", style=dashed"
            } else {
                ""
            };
            let _ = writeln!(out, "  \"{}\" [label=\"{0}\"{style}];", label(id));
        }
        for (from, to) in self.edges() {
            let _ = writeln!(out, "  \"{}\" -> \"{}\";", label(from), label(to));
        }
        out.push_str("}\n");
        out
    }
}

/// One syntactic call site inside a function body.
#[derive(Debug)]
struct CallSite {
    /// Called name (`step` for both `x.step(…)` and `Type::step(…)`).
    name: String,
    /// `Some(Type)` when the call is written `Type::name(…)`; method
    /// calls (`recv.name(…)`) carry none.
    type_hint: Option<String>,
}

/// Scan a body token range for call sites (`name(`, `Type::name(`,
/// `recv.name(`). Macro invocations (`name!(…)`) are not calls.
fn call_sites(code: &[Token], body: std::ops::Range<usize>) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in body.clone() {
        let tok = &code[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if !code.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if match_paren(code, i + 1).is_none() {
            continue;
        }
        // `fn name(` is a declaration, not a call.
        if i > 0 && code[i - 1].is_ident("fn") {
            continue;
        }
        let is_method = i > 0 && code[i - 1].is_punct('.');
        let type_hint = (!is_method)
            .then(|| path_qualifier(code, i, body.start))
            .flatten();
        out.push(CallSite {
            name: tok.text.clone(),
            type_hint,
        });
    }
    out
}

/// For `Seg :: name` at `at`, the ident directly before the `::` (the
/// last path segment, usually a type or module name).
pub(crate) fn path_qualifier(code: &[Token], at: usize, floor: usize) -> Option<String> {
    if at < floor + 3 {
        return None;
    }
    (code[at - 1].is_punct(':')
        && code[at - 2].is_punct(':')
        && code[at - 3].kind == TokenKind::Ident)
        .then(|| code[at - 3].text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
            .collect();
        Workspace::build(&files)
    }

    #[test]
    fn cross_file_resolution_by_name_and_qual() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "pub fn helper(x: f64) -> f64 { x }\nimpl S {\n    fn helper(&self) -> f64 { 0.0 }\n}\n"),
            ("crates/b/src/lib.rs", "fn user() -> f64 { helper(1.0) + S::helper() }\n"),
        ]);
        assert_eq!(w.resolve("helper", None).len(), 2);
        assert_eq!(w.resolve("helper", Some("S")).len(), 1);
        assert_eq!(w.def(w.resolve("helper", Some("S"))[0]).qual, "S::helper");
        assert_eq!(w.resolve("nonexistent", None).len(), 0);
    }

    #[test]
    fn test_functions_do_not_resolve() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    pub fn helper() -> f64 { 1.0 }\n}\n",
        )]);
        assert_eq!(w.resolve("helper", None).len(), 0);
        assert!(w.units[0].fns[0].is_test, "still in the table");
    }

    #[test]
    fn call_sites_classify_shapes() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn f(x: S) -> f64 {\n    let a = free(1.0);\n    let b = S::assoc(a);\n    let c = x.method(b);\n    let d = vec![a];\n    drop(d);\n    c\n}\n",
        )]);
        let def = &w.units[0].fns[0];
        let sites = call_sites(&w.units[0].code, def.body.clone());
        let names: Vec<(&str, Option<&str>)> = sites
            .iter()
            .map(|s| (s.name.as_str(), s.type_hint.as_deref()))
            .collect();
        assert!(names.contains(&("free", None)));
        assert!(names.contains(&("assoc", Some("S"))));
        assert!(names.contains(&("method", None)));
        assert!(!names.iter().any(|(n, _)| *n == "vec"), "macro skipped");
    }

    #[test]
    fn dot_output_has_edges() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "pub fn leaf() -> f64 { 1.0 }\n"),
            ("crates/b/src/lib.rs", "pub fn root() -> f64 { leaf() }\n"),
        ]);
        let dot = w.to_dot();
        assert!(dot.starts_with("digraph approxit_callgraph"));
        assert!(dot.contains("\"crates/b/src/lib.rs::root\" -> \"crates/a/src/lib.rs::leaf\";"));
        assert_eq!(w.edges().len(), 1);
    }
}
