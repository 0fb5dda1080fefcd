//! Symbol table: every function item in the workspace, with enough
//! signature detail for the taint pass.
//!
//! Built directly on the [`lexer`](crate::lexer) token stream — no AST.
//! The walker tracks `impl` blocks (so methods get `Type::name`
//! qualified names), fn generics and `where` clauses (so a parameter of
//! type `&mut C` with `C: ArithContext` is recognized as an arithmetic
//! context), and the body token range of each function for the
//! intraprocedural analysis in [`taint`](crate::taint).
//!
//! Parameter classification is the semantic core: the taint pass treats
//! operations on an *approximate-capable* context parameter
//! (`QcsContext`, `dyn ArithContext`, `impl ArithContext`, a generic
//! bounded by `ArithContext`, or a `FaultInjector`) as taint sources,
//! while the documented exact routes (`ExactContext`, `ScalarPath<_>`)
//! stay clean. See `DESIGN.md` §14 for the full source/sanitizer/sink
//! tables.

use crate::lexer::{Token, TokenKind};
use crate::scope::{in_test_code, LineSpan};

/// Whether a context produces approximate or exact values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxKind {
    /// May execute under `Approx(level)` or inject faults: `QcsContext`,
    /// `dyn/impl ArithContext`, `ArithContext`-bounded generics,
    /// `FaultInjector<_>`.
    Approx,
    /// Documented exact routes: `ExactContext`, `ScalarPath<_>`.
    Exact,
}

/// How a parameter participates in the value flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// An arithmetic context (taint source or sanitizer, never a value).
    Ctx(CtxKind),
    /// An ordinary data value.
    Value,
}

/// One declared parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`_`-prefixed names are kept verbatim).
    pub name: String,
    /// Classification from the declared type.
    pub kind: ParamKind,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`step`).
    pub name: String,
    /// Qualified name (`ConjugateGradient::step` inside an impl block,
    /// else the bare name).
    pub qual: String,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Declared parameters, in order. A `self` receiver is `params[0]`
    /// with name `self`.
    pub params: Vec<Param>,
    /// Token range of the body (inside the braces, exclusive of them),
    /// as indices into the comment-free token slice the table was built
    /// from. Empty for trait declarations without a default body.
    pub body: std::ops::Range<usize>,
    /// Whether the item sits inside `#[cfg(test)]`/`#[test]` code.
    pub is_test: bool,
}

/// Context types that may produce approximate values.
pub const APPROX_CTX_TYPES: &[&str] = &["QcsContext", "ArithContext", "FaultInjector"];
/// Context types that are exact by contract.
pub const EXACT_CTX_TYPES: &[&str] = &["ExactContext", "ScalarPath"];

/// Classify a type-token slice as a context or a plain value.
///
/// The *first* recognizable context type wins, which makes the wrapper
/// decide: `ScalarPath<C>` is exact even when `C` is approximate (the
/// wrapper forces the scalar reference semantics), and
/// `FaultInjector<ExactContext>` is approximate (it corrupts whatever
/// it wraps).
#[must_use]
fn classify_type(ty: &[Token], approx_generics: &[String]) -> ParamKind {
    for tok in ty {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if EXACT_CTX_TYPES.contains(&tok.text.as_str()) {
            return ParamKind::Ctx(CtxKind::Exact);
        }
        if APPROX_CTX_TYPES.contains(&tok.text.as_str())
            || approx_generics.iter().any(|g| g == &tok.text)
        {
            return ParamKind::Ctx(CtxKind::Approx);
        }
    }
    ParamKind::Value
}

/// Build the function table for one file's comment-free token slice.
///
/// Nested functions are found too: after recording a function the scan
/// resumes *inside* its body rather than skipping it. `spans` are the
/// test-code line spans from
/// [`scope::test_spans`](crate::scope::test_spans) — functions inside
/// them are kept in the table (so the call graph is complete) but
/// marked [`FnDef::is_test`].
#[must_use]
pub fn file_functions(file: &str, code: &[Token], spans: &[LineSpan]) -> Vec<FnDef> {
    let mut out = Vec::new();
    // Stack of (brace depth the impl body opens at, impl type name).
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < code.len() {
        let tok = &code[i];
        if tok.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            while impls.last().is_some_and(|(d, _)| *d > depth) {
                impls.pop();
            }
            i += 1;
            continue;
        }
        if tok.is_ident("impl") {
            if let Some((name, body_open)) = impl_header(code, i) {
                impls.push((depth + 1, name));
                // Resume at the `{` so the depth tracker sees it.
                i = body_open;
                continue;
            }
        }
        if tok.is_ident("fn") {
            if let Some((def, next)) = parse_fn(file, code, i, impls.last().map(|(_, n)| n), spans)
            {
                // Resume at the body's opening brace (not past the
                // body) so nested fns are discovered too.
                let resume = if def.body.is_empty() {
                    next
                } else {
                    def.body.start - 1
                };
                out.push(def);
                i = resume;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parse an `impl` header: returns the implemented type's name and the
/// index of the body's opening `{`. Handles `impl<T> Type<T>`,
/// `impl Trait for Type`, and gives up (returns `None`) on exotic
/// shapes — those methods then get bare names, which only costs
/// call-graph precision.
fn impl_header(code: &[Token], at: usize) -> Option<(String, usize)> {
    let mut j = at + 1;
    j = skip_generics(code, j);
    let mut first_path: Option<String> = None;
    let mut second_path: Option<String> = None;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('{') {
            let name = second_path.or(first_path)?;
            return Some((name, j));
        }
        if t.is_ident("for") {
            j += 1;
            let mut last = None;
            while j < code.len() && !code[j].is_punct('{') && !code[j].is_ident("where") {
                if code[j].kind == TokenKind::Ident {
                    last = Some(code[j].text.clone());
                }
                if code[j].is_punct('<') {
                    j = skip_generics(code, j);
                    continue;
                }
                j += 1;
            }
            second_path = last;
            continue;
        }
        if t.is_ident("where") {
            while j < code.len() && !code[j].is_punct('{') {
                j += 1;
            }
            continue;
        }
        if t.kind == TokenKind::Ident {
            first_path = Some(t.text.clone());
        }
        if t.is_punct('<') {
            j = skip_generics(code, j);
            continue;
        }
        j += 1;
    }
    None
}

/// If `code[at]` is `<`, return the index just past the matching `>`
/// (angle-depth matched, tolerant of `->`). Otherwise `at`.
fn skip_generics(code: &[Token], at: usize) -> usize {
    if !code.get(at).is_some_and(|t| t.is_punct('<')) {
        return at;
    }
    let mut depth = 0i32;
    let mut j = at;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            // `->` is two tokens `-` `>`; its `>` closes nothing.
            let arrow = j > 0 && code[j - 1].is_punct('-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
        } else if t.is_punct(';') || t.is_punct('{') {
            // Malformed / not generics after all: bail.
            return j;
        }
        j += 1;
    }
    j
}

/// Parse one `fn` item starting at the `fn` keyword. Returns the
/// definition plus the index just past the body (or past the `;` for a
/// trait method without a default body).
fn parse_fn(
    file: &str,
    code: &[Token],
    at: usize,
    impl_type: Option<&String>,
    spans: &[LineSpan],
) -> Option<(FnDef, usize)> {
    let name_tok = code.get(at + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    let mut j = at + 2;

    let mut approx_generics: Vec<String> = Vec::new();
    if code.get(j).is_some_and(|t| t.is_punct('<')) {
        let end = skip_generics(code, j);
        collect_ctx_bounds(&code[j..end], &mut approx_generics);
        j = end;
    }

    if !code.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_end = match_paren(code, j)?;
    let params_range = j + 1..params_end;
    j = params_end + 1;

    // Return type / where clause: scan to the body `{` or `;`; the
    // where clause may add further ArithContext bounds.
    let sig_start = j;
    while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
        j += 1;
    }
    collect_ctx_bounds(&code[sig_start..j], &mut approx_generics);

    let params = parse_params(&code[params_range], &approx_generics);
    let (body, next) = if code.get(j).is_some_and(|t| t.is_punct('{')) {
        let close = match_brace(code, j)?;
        (j + 1..close, close + 1)
    } else {
        (j..j, j + 1)
    };

    Some((
        FnDef {
            qual: impl_type.map_or_else(|| name.clone(), |t| format!("{t}::{name}")),
            name,
            file: file.to_owned(),
            line: code[at].line,
            col: code[at].col,
            params,
            body,
            is_test: in_test_code(spans, code[at].line),
        },
        next,
    ))
}

/// Find `C : … ArithContext …` bounds in a generics/where token slice.
fn collect_ctx_bounds(tokens: &[Token], out: &mut Vec<String>) {
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_ident("ArithContext") {
            continue;
        }
        // Walk back to the `:` introducing this bound list, then take
        // the ident before it as the bound's subject.
        let mut j = i;
        while j > 0 && !tokens[j - 1].is_punct(':') {
            if tokens[j - 1].is_punct(',') || tokens[j - 1].is_punct('<') {
                break;
            }
            j -= 1;
        }
        if j >= 2 && tokens[j - 1].is_punct(':') && tokens[j - 2].kind == TokenKind::Ident {
            // Require the subject to *start* the bound (preceded by
            // `,`, `<`, `where`, or nothing): `C::Assoc: Trait` is not
            // a type-parameter bound.
            let subject = &tokens[j - 2];
            let before_ok = j < 3
                || tokens[j - 3].is_punct(',')
                || tokens[j - 3].is_punct('<')
                || tokens[j - 3].is_ident("where");
            if before_ok && !out.iter().any(|g| g == &subject.text) {
                out.push(subject.text.clone());
            }
        }
    }
}

/// Split the parameter token slice at top-level commas and classify
/// each `name: Type` pair.
fn parse_params(tokens: &[Token], approx_generics: &[String]) -> Vec<Param> {
    let mut params = Vec::new();
    for range in split_top_level(tokens, ',') {
        let group = &tokens[range];
        if group.is_empty() {
            continue;
        }
        // `self` receivers: `self`, `&self`, `&mut self`, `self: …`.
        if group.iter().take(3).any(|t| t.is_ident("self")) {
            params.push(Param {
                name: "self".to_owned(),
                kind: ParamKind::Value,
            });
            continue;
        }
        let Some(colon) = group.iter().position(|t| t.is_punct(':')) else {
            continue;
        };
        let Some(name_tok) = group[..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
        else {
            continue;
        };
        params.push(Param {
            name: name_tok.text.clone(),
            kind: classify_type(&group[colon + 1..], approx_generics),
        });
    }
    params
}

/// Split a token slice at top-level occurrences of `sep` (not inside
/// `()`, `[]`, `{}`, or `<>` pairs). Returns subranges of the input.
pub(crate) fn split_top_level(tokens: &[Token], sep: char) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    for (i, tok) in tokens.iter().enumerate() {
        match tok.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => depth -= 1,
            TokenKind::Punct('<') if depth == 0 => angle += 1,
            TokenKind::Punct('>') if depth == 0 => {
                let arrow = i > 0 && tokens[i - 1].is_punct('-');
                if !arrow && angle > 0 {
                    angle -= 1;
                }
            }
            TokenKind::Punct(c) if c == sep && depth == 0 && angle <= 0 => {
                out.push(start..i);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start <= tokens.len() {
        out.push(start..tokens.len());
    }
    out
}

/// Index of the `)` matching the `(` at `open`.
pub(crate) fn match_paren(code: &[Token], open: usize) -> Option<usize> {
    match_pair(code, open, '(', ')')
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn match_brace(code: &[Token], open: usize) -> Option<usize> {
    match_pair(code, open, '{', '}')
}

/// Index of the `]` matching the `[` at `open`.
pub(crate) fn match_bracket(code: &[Token], open: usize) -> Option<usize> {
    match_pair(code, open, '[', ']')
}

fn match_pair(code: &[Token], open: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in code.iter().enumerate().skip(open) {
        if tok.is_punct(o) {
            depth += 1;
        } else if tok.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_spans;

    fn table(src: &str) -> Vec<FnDef> {
        let tokens = lex(src);
        let spans = test_spans(&tokens);
        let code: Vec<Token> = tokens.into_iter().filter(|t| !t.is_comment()).collect();
        file_functions("crates/x/src/a.rs", &code, &spans)
    }

    #[test]
    fn free_functions_and_methods_get_names() {
        let src = "fn free(a: f64) -> f64 { a }\nimpl Solver {\n    fn step(&self, x: f64) -> f64 { x }\n}\nimpl Method for Solver {\n    fn run(&self) {}\n}\n";
        let defs = table(src);
        let quals: Vec<&str> = defs.iter().map(|d| d.qual.as_str()).collect();
        assert_eq!(quals, ["free", "Solver::step", "Solver::run"]);
        assert_eq!(defs[1].params[0].name, "self");
        assert_eq!(defs[1].params[1].name, "x");
    }

    #[test]
    fn context_params_are_classified() {
        let src = "fn a(ctx: &mut dyn ArithContext) {}\nfn b(ctx: &mut QcsContext) {}\nfn c(ctx: &mut ExactContext) {}\nfn d<C: ArithContext>(ctx: &mut C) {}\nfn e(ctx: &mut ScalarPath<QcsContext>) {}\nfn f(x: f64) {}\nfn g<C>(ctx: &mut C) where C: ArithContext {}\nfn h(inj: &mut FaultInjector<ExactContext>) {}\n";
        let defs = table(src);
        let kind = |i: usize| defs[i].params[0].kind;
        assert_eq!(kind(0), ParamKind::Ctx(CtxKind::Approx));
        assert_eq!(kind(1), ParamKind::Ctx(CtxKind::Approx));
        assert_eq!(kind(2), ParamKind::Ctx(CtxKind::Exact));
        assert_eq!(kind(3), ParamKind::Ctx(CtxKind::Approx), "generic bound");
        assert_eq!(kind(4), ParamKind::Ctx(CtxKind::Exact), "ScalarPath wins");
        assert_eq!(kind(5), ParamKind::Value);
        assert_eq!(kind(6), ParamKind::Ctx(CtxKind::Approx), "where clause");
        assert_eq!(kind(7), ParamKind::Ctx(CtxKind::Approx), "fault injector");
    }

    #[test]
    fn bodies_and_test_marking() {
        let src = "fn prod() { let x = 1; }\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let defs = table(src);
        assert_eq!(defs.len(), 2);
        assert!(!defs[0].is_test);
        assert!(defs[1].is_test);
        assert!(defs[0].body.len() >= 4, "body tokens captured");
    }

    #[test]
    fn nested_functions_are_discovered() {
        let src = "fn outer() -> Vec<(f64, u32)> {\n    fn inner(q: &QcsContext) -> f64 { 0.0 }\n    Vec::new()\n}\n";
        let defs = table(src);
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"outer"), "{names:?}");
        assert!(names.contains(&"inner"), "{names:?}");
    }

    #[test]
    fn trait_declarations_without_bodies() {
        let src = "trait T {\n    fn abstract_step(&self, ctx: &mut dyn ArithContext) -> f64;\n    fn with_default(&self) -> f64 { 1.0 }\n}\n";
        let defs = table(src);
        assert_eq!(defs.len(), 2);
        assert!(defs[0].body.is_empty());
        assert!(!defs[1].body.is_empty());
        assert_eq!(defs[0].params[1].kind, ParamKind::Ctx(CtxKind::Approx));
    }

    #[test]
    fn impl_blocks_close_correctly() {
        let src = "impl A {\n    fn one(&self) {}\n}\nfn two() {}\nimpl B for C {\n    fn three(&self) { if x { y(); } }\n}\nfn four() {}\n";
        let defs = table(src);
        let quals: Vec<&str> = defs.iter().map(|d| d.qual.as_str()).collect();
        assert_eq!(quals, ["A::one", "two", "C::three", "four"]);
    }
}
