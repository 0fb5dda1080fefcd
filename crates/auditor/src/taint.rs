//! Approximation-taint dataflow: statically prove the exact/approximate
//! boundary.
//!
//! ApproxIt's quality guarantee (Def. 1, Eq. 5) assumes the
//! quality-control path — `quality_error`, convergence predicates,
//! controller level decisions, breaker/shedding predicates — is
//! computed *exactly* while only the solver datapath runs on the
//! approximate fabric. This pass proves that separation per build, in
//! the EnerJ tradition: values produced by fabric operations carry an
//! `Approx` taint; taint propagates through bindings, assignments,
//! arguments, and returns (interprocedurally via
//! [`summaries`](crate::summaries)); and an `Approx` value arriving at
//! an exact-only *sink* is a reported violation with a full
//! source→sink trace.
//!
//! - **Sources**: `ArithContext` ops (`add`…`matvec_slice`) on an
//!   approximate-capable context — a constructed `QcsContext` /
//!   `FaultInjector`, or a context *parameter* typed as one (resolved
//!   per call site through [`Summary::ctx_flow`]). A
//!   `set_level(AccuracyLevel::Accurate)` literal reclassifies the
//!   context as exact (the accurate mode is the paper's reference
//!   trajectory); setting any other level reclassifies it approximate.
//! - **Sanitizers**: `ExactContext` / `ScalarPath` contexts,
//!   `RawConverter::from_raw` reconstruction, and the explicit
//!   `endorse()` boundary function.
//! - **Sinks**: `quality_error`'s accurate operand, value arguments of
//!   the decision modules (`core::adaptive`, `core::modelcheck`, …),
//!   and any branch condition, `for`-loop bound, or index expression in
//!   `core`/`solvers`.
//!
//! The lattice is `Exact ⊑ Unknown ⊑ Approx` with join = max. Only a
//! definite `Approx` reports at a sink: `Unknown` records analysis
//! imprecision (unresolved names, foreign calls) and never gates, so
//! the pass stays a proof of the *modeled* flows rather than a noisy
//! over-approximation. `DESIGN.md` §14 documents the model and its
//! known imprecisions (out-parameter flows across calls, match-arm
//! local bindings).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{path_qualifier, FnId, Workspace};
use crate::config::AuditConfig;
use crate::lexer::{Token, TokenKind};
use crate::report::{Severity, TraceHop, Violation};
use crate::rules::crate_of;
use crate::summaries::{fixpoint, Summary};
use crate::symbols::{
    match_brace, match_bracket, match_paren, split_top_level, CtxKind, FnDef, ParamKind,
    APPROX_CTX_TYPES, EXACT_CTX_TYPES,
};

/// The taint lattice: `Exact ⊑ Unknown ⊑ Approx` (join = max).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Taint {
    /// Provably unaffected by fabric operations.
    #[default]
    Exact,
    /// The analysis cannot tell (unresolved call, foreign code). Never
    /// reported — imprecision must not gate CI.
    Unknown,
    /// Definitely derived from an approximate fabric operation.
    Approx,
}

impl Taint {
    /// Lattice join (least upper bound).
    #[must_use]
    pub fn join(self, other: Self) -> Self {
        self.max(other)
    }
}

/// `ArithContext` operations whose results (or out-slices) are fabric
/// values when the context is approximate.
pub const CTX_OPS: &[&str] = &[
    "add",
    "sub",
    "mul",
    "div",
    "sum",
    "dot",
    "add_slice",
    "sub_slice",
    "scale_slice",
    "axpy_slice",
    "add_assign_slice",
    "axpy_assign_slice",
    "dot_slice",
    "sum_slice",
    "matvec_slice",
    "matvec_operand",
    "spmv_slice",
];

/// Hop cap per trace (a path deeper than this is summarized, not lost:
/// the endpoints always survive).
pub const MAX_TRACE: usize = 12;

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "in", "return", "let", "loop", "break", "continue",
    "move", "ref", "mut", "as", "fn", "impl", "where", "dyn", "pub", "use", "struct", "enum",
    "trait", "mod", "const", "static", "type", "unsafe", "crate", "super", "Self",
];

fn bit(j: usize) -> u64 {
    1u64.checked_shl(u32::try_from(j).unwrap_or(64))
        .unwrap_or(0)
}

/// Abstract value: taint plus symbolic provenance.
///
/// `sink` is the conservative taint used at sink checks (ops on an
/// approx-*typed* context parameter count, because the function must be
/// safe for every context it accepts). `ret` is the definite taint used
/// for summaries (the same ops stay symbolic in `from_ctx`, so an exact
/// caller is not poisoned).
#[derive(Debug, Clone, Default)]
pub struct Val {
    /// Taint as seen by sinks in the current function.
    pub sink: Taint,
    /// Taint as exported through the return value.
    pub ret: Taint,
    /// Value parameters (bitset) whose data reached this value.
    pub from_params: u64,
    /// Context parameters (bitset) whose fabric ops produced this value.
    pub from_ctx: u64,
    /// Source-side hops explaining the strongest taint.
    pub trace: Vec<TraceHop>,
}

impl Val {
    fn unknown() -> Self {
        Self {
            sink: Taint::Unknown,
            ret: Taint::Unknown,
            ..Self::default()
        }
    }

    /// Lattice join; the trace follows the strongest `sink` taint.
    pub fn join(&mut self, other: &Self) {
        if other.sink > self.sink || (self.trace.is_empty() && other.sink >= self.sink) {
            self.trace.clone_from(&other.trace);
        }
        self.sink = self.sink.join(other.sink);
        self.ret = self.ret.join(other.ret);
        self.from_params |= other.from_params;
        self.from_ctx |= other.from_ctx;
    }

    fn push_hop(&mut self, hop: TraceHop) {
        if self.trace.len() < MAX_TRACE {
            self.trace.push(hop);
        }
    }
}

/// A variable known to hold an arithmetic context.
#[derive(Debug, Clone)]
struct CtxVar {
    kind: CtxKind,
    /// `Some(j)` when the context is (an alias of) parameter `j`.
    param: Option<usize>,
    line: u32,
    col: u32,
    /// Human description for trace hops.
    what: String,
}

#[derive(Debug, Clone, Default)]
struct Binding {
    val: Val,
    ctx: Option<CtxVar>,
}

/// Result of evaluating an expression slice.
#[derive(Debug, Default)]
struct EvalOut {
    val: Val,
    /// Set when the expression *is* a context (variable, `.clone()`, or
    /// constructor) — lets `let` bindings track context aliases.
    ctx: Option<CtxVar>,
}

/// Ties a workspace, its current summaries, and the policy together;
/// analyzes one function at a time.
pub struct Analyzer<'w> {
    ws: &'w Workspace,
    sums: &'w BTreeMap<FnId, Summary>,
    cfg: &'w AuditConfig,
}

impl<'w> Analyzer<'w> {
    /// Wire up an analyzer over the current summary map.
    #[must_use]
    pub fn new(ws: &'w Workspace, sums: &'w BTreeMap<FnId, Summary>, cfg: &'w AuditConfig) -> Self {
        Self { ws, sums, cfg }
    }

    /// Intraprocedural analysis producing the function's summary
    /// (no violations reported).
    #[must_use]
    pub fn summarize(&self, id: FnId) -> Summary {
        let mut pass = FnPass::new(self, id, None);
        pass.run()
    }

    /// Final reporting pass: same analysis, with sink violations
    /// appended to `out`.
    pub fn report_into(&self, id: FnId, out: &mut Vec<Violation>) {
        let mut pass = FnPass::new(self, id, Some(out));
        let _ = pass.run();
    }
}

/// One function's walk: environment, return accumulator, sink reports.
struct FnPass<'w, 'o> {
    an: &'o Analyzer<'w>,
    file: &'w str,
    code: &'w [Token],
    def: &'w FnDef,
    /// Whether branch/loop/index sinks are active (control crates only).
    control: bool,
    env: BTreeMap<String, Binding>,
    ret: Val,
    out: Option<&'o mut Vec<Violation>>,
    reporting: bool,
    seen: BTreeSet<(&'static str, u32, u32)>,
}

impl<'w, 'o> FnPass<'w, 'o> {
    fn new(an: &'o Analyzer<'w>, id: FnId, out: Option<&'o mut Vec<Violation>>) -> Self {
        let unit = &an.ws.units[id.0];
        let def = &unit.fns[id.1];
        let control =
            crate_of(&unit.path).is_some_and(|c| an.cfg.taint_control.iter().any(|t| t == c));
        Self {
            an,
            file: &unit.path,
            code: &unit.code,
            def,
            control,
            env: BTreeMap::new(),
            ret: Val::default(),
            out,
            reporting: false,
            seen: BTreeSet::new(),
        }
    }

    fn run(&mut self) -> Summary {
        for (j, p) in self.def.params.iter().enumerate() {
            let binding = match p.kind {
                ParamKind::Ctx(kind) => Binding {
                    ctx: Some(CtxVar {
                        kind,
                        param: Some(j),
                        line: self.def.line,
                        col: self.def.col,
                        what: format!("context parameter `{}`", p.name),
                    }),
                    val: Val::default(),
                },
                ParamKind::Value => Binding {
                    val: Val {
                        from_params: bit(j),
                        ..Val::default()
                    },
                    ctx: None,
                },
            };
            self.env.insert(p.name.clone(), binding);
        }
        // Two walks: the first settles loop-carried taint (a value
        // tainted late in a loop body is visible early on the rerun),
        // the second reports. The env persists between walks.
        let body = self.def.body.clone();
        self.reporting = false;
        self.walk(body.clone(), false);
        self.reporting = self.out.is_some();
        self.walk(body, true);
        Summary {
            intrinsic: self.ret.ret,
            value_flow: self.ret.from_params,
            ctx_flow: self.ret.from_ctx,
            trace: self.ret.trace.clone(),
        }
    }

    // -- statement layer ----------------------------------------------

    fn walk(&mut self, range: std::ops::Range<usize>, tail_to_ret: bool) {
        let mut i = range.start;
        let mut last: Option<(usize, bool)> = None;
        while i < range.end {
            let start = i;
            i = self.stmt(i, range.end);
            if i <= start {
                i = start + 1; // forward progress on malformed input
            }
            let semi = self
                .code
                .get(i.saturating_sub(1))
                .is_some_and(|t| t.is_punct(';'));
            last = Some((start, semi));
        }
        // A `;`-less tail statement is the return value. Re-evaluating
        // the whole construct joins every contributing ident (branch
        // values of a tail `if`/`match` included) — over-approximate in
        // the safe direction for summaries.
        if tail_to_ret {
            if let Some((start, false)) = last {
                let v = self.eval(start..range.end);
                self.ret.join(&v.val);
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, i: usize, end: usize) -> usize {
        let tok = &self.code[i];
        if tok.is_punct('{') {
            let close = match_brace(self.code, i).unwrap_or(end).min(end);
            self.walk(i + 1..close, false);
            return (close + 1).min(end);
        }
        if tok.is_punct(';') {
            return i + 1;
        }
        if tok.is_punct('#') {
            return self.skip_attr(i, end);
        }
        if tok.kind == TokenKind::Ident {
            match tok.text.as_str() {
                "let" => return self.let_stmt(i, end),
                "if" | "while" => return self.cond_stmt(i, end),
                "match" => return self.match_stmt(i, end),
                "for" => return self.for_stmt(i, end),
                "loop" => {
                    // Walk the body twice so loop-carried taint (a
                    // value tainted late in the body, read early) is
                    // seen on the rerun; the dedup set prevents double
                    // reports.
                    let mut j = i + 1;
                    while j < end && !self.code[j].is_punct('{') {
                        j += 1;
                    }
                    if j >= end {
                        return end;
                    }
                    let close = match_brace(self.code, j).unwrap_or(end).min(end);
                    self.walk(j + 1..close, false);
                    self.walk(j + 1..close, false);
                    return (close + 1).min(end);
                }
                "unsafe" | "else" | "pub" => return i + 1,
                "return" | "break" => {
                    let stop = self.stmt_end(i + 1, end);
                    let expr_end = if self
                        .code
                        .get(stop.saturating_sub(1))
                        .is_some_and(|t| t.is_punct(';'))
                    {
                        stop - 1
                    } else {
                        stop
                    };
                    if tok.is_ident("return") && expr_end > i + 1 {
                        let v = self.eval(i + 1..expr_end);
                        self.ret.join(&v.val);
                    }
                    return stop;
                }
                "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "use" | "type" | "const"
                | "static" | "macro_rules" => return self.skip_item(i, end),
                _ => {}
            }
        }
        self.expr_stmt(i, end)
    }

    fn let_stmt(&mut self, i: usize, end: usize) -> usize {
        // Find the init `=` at bracket- and angle-depth 0.
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut eq = None;
        let mut j = i + 1;
        while j < end {
            let t = &self.code[j];
            match t.kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                TokenKind::Punct('<') if depth == 0 => angle += 1,
                TokenKind::Punct('>')
                    if depth == 0 && angle > 0 && !self.code[j - 1].is_punct('-') =>
                {
                    angle -= 1;
                }
                TokenKind::Punct('=') if depth == 0 && angle == 0 => {
                    if !self.code.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                        eq = Some(j);
                    }
                    break;
                }
                TokenKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            if depth < 0 {
                break;
            }
            j += 1;
        }
        // Pattern idents (before any `:` type annotation).
        let pat_end = eq.unwrap_or(j);
        let mut names = Vec::new();
        let mut k = i + 1;
        while k < pat_end {
            let t = &self.code[k];
            if t.is_punct(':')
                && !self.code.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !self.code[k - 1].is_punct(':')
            {
                break; // type annotation
            }
            if t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref") {
                names.push(t.text.clone());
            }
            k += 1;
        }
        let Some(eq) = eq else {
            for n in names {
                self.env.insert(n, Binding::default());
            }
            return (j + 1).min(end);
        };
        let (rhs_end, next) = self.rhs_end(eq + 1, end, true);
        let out = self.eval(eq + 1..rhs_end);
        if names.len() == 1 {
            self.env.insert(
                names.remove(0),
                Binding {
                    val: out.val,
                    ctx: out.ctx,
                },
            );
        } else {
            for n in names {
                self.env.insert(
                    n,
                    Binding {
                        val: out.val.clone(),
                        ctx: None,
                    },
                );
            }
        }
        next
    }

    /// End of an initializer/assignment RHS: the `;` at depth 0 (braces
    /// nest — a `match`/`if` RHS is one expression). With `let_else`,
    /// an `else` not preceded by `}` is the `let … else { }` diverging
    /// arm, not an `if`'s.
    fn rhs_end(&mut self, from: usize, end: usize, let_else: bool) -> (usize, usize) {
        let mut depth = 0i32;
        let mut j = from;
        while j < end {
            let t = &self.code[j];
            match t.kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth < 0 {
                        return (j, j);
                    }
                }
                TokenKind::Punct(';') if depth == 0 => return (j, j + 1),
                _ => {}
            }
            if let_else
                && depth == 0
                && t.is_ident("else")
                && j > from
                && !self.code[j - 1].is_punct('}')
            {
                // `let Pat = expr else { … };`
                let rhs = j;
                let mut k = j + 1;
                while k < end && !self.code[k].is_punct('{') {
                    k += 1;
                }
                let close = match_brace(self.code, k).unwrap_or(end).min(end);
                return (rhs, (close + 2).min(end)); // past `}` and `;`
            }
            j += 1;
        }
        (end, end)
    }

    fn cond_stmt(&mut self, i: usize, end: usize) -> usize {
        let mut j = i;
        loop {
            let kw = (self.code[j].line, self.code[j].col);
            let what = if self.code[j].is_ident("while") {
                "`while` condition"
            } else {
                "branch condition"
            };
            let Some((stop, has_block)) = self.cond_end(j + 1, end) else {
                return end;
            };
            let v = self.eval(j + 1..stop);
            self.positional_sink("taint-branch", kw, what, &v.val);
            if !has_block {
                return stop; // match-arm guard: stop before `=>`
            }
            let close = match_brace(self.code, stop).unwrap_or(end).min(end);
            self.walk(stop + 1..close, false);
            if self.code[j].is_ident("while") {
                // Loop-carried taint: re-check the condition against
                // the post-body env, then rerun the body.
                let v = self.eval(j + 1..stop);
                self.positional_sink("taint-branch", kw, what, &v.val);
                self.walk(stop + 1..close, false);
                return (close + 1).min(end);
            }
            let k = close + 1;
            if self.code.get(k).is_some_and(|t| t.is_ident("else")) {
                if self.code.get(k + 1).is_some_and(|t| t.is_ident("if")) {
                    j = k + 1;
                    continue;
                }
                if self.code.get(k + 1).is_some_and(|t| t.is_punct('{')) {
                    let c2 = match_brace(self.code, k + 1).unwrap_or(end).min(end);
                    self.walk(k + 2..c2, false);
                    return (c2 + 1).min(end);
                }
            }
            return k.min(end);
        }
    }

    fn match_stmt(&mut self, i: usize, end: usize) -> usize {
        let Some((brace, true)) = self.cond_end(i + 1, end) else {
            return end;
        };
        let kw = (self.code[i].line, self.code[i].col);
        let v = self.eval(i + 1..brace);
        self.positional_sink("taint-branch", kw, "`match` scrutinee", &v.val);
        let close = match_brace(self.code, brace).unwrap_or(end).min(end);
        self.walk(brace + 1..close, false);
        (close + 1).min(end)
    }

    fn for_stmt(&mut self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut in_at = None;
        let mut j = i + 1;
        while j < end {
            let t = &self.code[j];
            match t.kind {
                TokenKind::Punct('(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth -= 1,
                _ => {}
            }
            if depth == 0 && t.is_ident("in") {
                in_at = Some(j);
                break;
            }
            if depth == 0 && t.is_punct('{') {
                break;
            }
            j += 1;
        }
        let Some(in_at) = in_at else { return i + 1 };
        let Some((brace, true)) = self.cond_end(in_at + 1, end) else {
            return end;
        };
        let kw = (self.code[i].line, self.code[i].col);
        let v = self.eval(in_at + 1..brace);
        // Only numeric range bounds are control decisions: iterating a
        // collection's *elements* has an exact trip count (length
        // metadata), even when the values are approximate — those taint
        // the loop variable instead.
        if self.range_bound(in_at + 1, brace) {
            self.positional_sink("taint-loop-bound", kw, "`for`-loop bound", &v.val);
        }
        // The loop variable holds elements of the iterated value.
        for k in i + 1..in_at {
            let t = &self.code[k];
            if t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref") {
                self.env.insert(
                    t.text.clone(),
                    Binding {
                        val: v.val.clone(),
                        ctx: None,
                    },
                );
            }
        }
        let close = match_brace(self.code, brace).unwrap_or(end).min(end);
        // Twice: loop-carried taint must be visible on the rerun.
        self.walk(brace + 1..close, false);
        self.walk(brace + 1..close, false);
        (close + 1).min(end)
    }

    fn expr_stmt(&mut self, i: usize, end: usize) -> usize {
        // Assignment? First standalone `=` at depth 0 before `;`/`{`.
        let mut depth = 0i32;
        let mut assign = None;
        let mut j = i;
        while j < end {
            let t = &self.code[j];
            match t.kind {
                TokenKind::Punct('(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth -= 1,
                TokenKind::Punct('{' | ';') if depth == 0 => break,
                TokenKind::Punct('}') if depth == 0 => break,
                TokenKind::Punct('=') if depth == 0 && j > i => {
                    let next_is = |c| self.code.get(j + 1).is_some_and(|t: &Token| t.is_punct(c));
                    let prev = match self.code[j - 1].kind {
                        TokenKind::Punct(c) => Some(c),
                        _ => None,
                    };
                    if next_is('=')
                        || next_is('>')
                        || matches!(prev, Some('<' | '>' | '!' | '=' | '.'))
                    {
                        j += 1;
                        continue;
                    }
                    let compound =
                        matches!(prev, Some('+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'));
                    assign = Some((j, compound));
                    break;
                }
                _ => {}
            }
            if depth < 0 {
                break;
            }
            j += 1;
        }
        if let Some((eq, compound)) = assign {
            let lhs_end = if compound { eq - 1 } else { eq };
            let (rhs_end, next) = self.rhs_end(eq + 1, end, false);
            let v = self.eval(eq + 1..rhs_end);
            let _ = self.eval(i..lhs_end); // index-sink checks inside the lvalue
            let base = self.code[i..lhs_end]
                .iter()
                .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut"))
                .map(|t| t.text.clone());
            if let Some(base) = base {
                let single = lhs_end == i + 1;
                let entry = self.env.entry(base).or_default();
                entry.val.join(&v.val);
                if single && !compound {
                    if let Some(ctx) = v.ctx {
                        entry.ctx = Some(ctx);
                    }
                }
            }
            return next;
        }
        // Plain expression statement.
        let stop = self.stmt_end(i, end);
        let expr_end = if self
            .code
            .get(stop.saturating_sub(1))
            .is_some_and(|t| t.is_punct(';'))
        {
            stop - 1
        } else {
            stop
        };
        if expr_end > i {
            let _ = self.eval(i..expr_end);
        }
        stop
    }

    /// End of a plain expression statement: past the `;` at depth 0, or
    /// *at* a block-opening `{` at depth 0 (handled as a block next).
    fn stmt_end(&self, from: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = from;
        while j < end {
            let t = &self.code[j];
            match t.kind {
                TokenKind::Punct('(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth -= 1,
                TokenKind::Punct('{') => {
                    if depth == 0 {
                        return j;
                    }
                    depth += 1;
                }
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth < 0 {
                        return j;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        end
    }

    fn skip_item(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            let t = &self.code[j];
            match t.kind {
                TokenKind::Punct('(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth -= 1,
                TokenKind::Punct('{') if depth == 0 => {
                    return (match_brace(self.code, j).unwrap_or(end) + 1).min(end);
                }
                TokenKind::Punct(';') if depth == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        end
    }

    fn skip_attr(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.code.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if self.code.get(j).is_some_and(|t| t.is_punct('[')) {
            return (match_bracket(self.code, j).unwrap_or(end) + 1).min(end);
        }
        i + 1
    }

    /// Whether a `for`-loop bound expression is a numeric range
    /// (`a..b` / `a..=b` at top level) — the only shape whose trip
    /// count depends on the bound *values*.
    fn range_bound(&self, from: usize, to: usize) -> bool {
        let mut depth = 0i32;
        let mut k = from;
        while k + 1 < to {
            match self.code[k].kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                TokenKind::Punct('.') if depth == 0 && self.code[k + 1].is_punct('.') => {
                    return true;
                }
                _ => {}
            }
            k += 1;
        }
        false
    }

    /// First `{` (or a match-guard `=>`) at paren/bracket depth 0.
    fn cond_end(&self, from: usize, end: usize) -> Option<(usize, bool)> {
        let mut depth = 0i32;
        let mut j = from;
        while j < end {
            let t = &self.code[j];
            match t.kind {
                TokenKind::Punct('(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth -= 1,
                TokenKind::Punct('{') if depth == 0 => return Some((j, true)),
                TokenKind::Punct('=')
                    if depth == 0 && self.code.get(j + 1).is_some_and(|t| t.is_punct('>')) =>
                {
                    return Some((j, false));
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    // -- expression layer ---------------------------------------------

    /// Evaluate an expression slice: joins every contributing value,
    /// handles calls/ctx ops/macros, and runs nested sink checks
    /// (branches, loop bounds, indexes inside the slice).
    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, range: std::ops::Range<usize>) -> EvalOut {
        if let Some(out) = self.ctx_expr(range.clone()) {
            return out;
        }
        let mut acc = Val::default();
        let mut i = range.start;
        while i < range.end {
            let tok = &self.code[i];
            match tok.kind {
                TokenKind::Ident => match tok.text.as_str() {
                    "let" => {
                        while i < range.end && !self.code[i].is_punct('=') {
                            i += 1;
                        }
                        i += 1;
                    }
                    "if" | "while" => {
                        let kw = (tok.line, tok.col);
                        let what = if tok.is_ident("while") {
                            "`while` condition"
                        } else {
                            "branch condition"
                        };
                        if let Some((stop, _)) = self.cond_end(i + 1, range.end) {
                            let v = self.eval(i + 1..stop);
                            self.positional_sink("taint-branch", kw, what, &v.val);
                            acc.join(&v.val);
                            i = stop;
                        } else {
                            i += 1;
                        }
                    }
                    "match" => {
                        let kw = (tok.line, tok.col);
                        if let Some((stop, true)) = self.cond_end(i + 1, range.end) {
                            let v = self.eval(i + 1..stop);
                            self.positional_sink("taint-branch", kw, "`match` scrutinee", &v.val);
                            acc.join(&v.val);
                            i = stop;
                        } else {
                            i += 1;
                        }
                    }
                    "for" => {
                        let kw = (tok.line, tok.col);
                        let mut found = false;
                        if let Some(in_at) =
                            (i + 1..range.end).find(|&k| self.code[k].is_ident("in"))
                        {
                            if let Some((stop, true)) = self.cond_end(in_at + 1, range.end) {
                                let v = self.eval(in_at + 1..stop);
                                if self.range_bound(in_at + 1, stop) {
                                    self.positional_sink(
                                        "taint-loop-bound",
                                        kw,
                                        "`for`-loop bound",
                                        &v.val,
                                    );
                                }
                                acc.join(&v.val);
                                i = stop;
                                found = true;
                            }
                        }
                        if !found {
                            i += 1;
                        }
                    }
                    "return" => {
                        let mut depth = 0i32;
                        let mut stop = range.end;
                        for k in i + 1..range.end {
                            match self.code[k].kind {
                                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                                TokenKind::Punct(';') if depth == 0 => {
                                    stop = k;
                                    break;
                                }
                                _ => {}
                            }
                            if depth < 0 {
                                stop = k;
                                break;
                            }
                        }
                        if stop > i + 1 {
                            let v = self.eval(i + 1..stop);
                            self.ret.join(&v.val);
                        }
                        i = stop;
                    }
                    "fn" => i = self.skip_item(i, range.end),
                    _ if KEYWORDS.contains(&tok.text.as_str()) => i += 1,
                    _ => {
                        let next = self.code.get(i + 1);
                        if next.is_some_and(|t| t.is_punct('!')) {
                            // Macro: evaluate the delimited arguments.
                            let open = i + 2;
                            let close = match self.code.get(open).map(|t| &t.kind) {
                                Some(TokenKind::Punct('(')) => match_paren(self.code, open),
                                Some(TokenKind::Punct('[')) => match_bracket(self.code, open),
                                Some(TokenKind::Punct('{')) => match_brace(self.code, open),
                                _ => None,
                            };
                            if let Some(close) = close.filter(|c| *c < range.end) {
                                let v = self.eval(open + 1..close);
                                acc.join(&v.val);
                                i = close + 1;
                            } else {
                                i += 1;
                            }
                        } else if next.is_some_and(|t| t.is_punct('(')) {
                            let (v, next_i) = self.handle_call(i, range.clone());
                            acc.join(&v);
                            i = next_i;
                        } else if next.is_some_and(|t| t.is_punct(':'))
                            && self.code.get(i + 2).is_some_and(|t| t.is_punct(':'))
                        {
                            i += 1; // path segment, not a value read
                        } else {
                            match self.env.get(&tok.text) {
                                Some(b) if b.ctx.is_some() => {} // bare context mention
                                Some(b) => acc.join(&b.val.clone()),
                                None => acc.join(&Val::unknown()),
                            }
                            i += 1;
                        }
                    }
                },
                TokenKind::Punct('[') => {
                    let prev = (i > range.start).then(|| &self.code[i - 1]);
                    let is_index = prev.is_some_and(|p| {
                        (p.kind == TokenKind::Ident && !KEYWORDS.contains(&p.text.as_str()))
                            || p.is_punct(')')
                            || p.is_punct(']')
                    });
                    if let Some(close) = match_bracket(self.code, i).filter(|c| *c <= range.end) {
                        let v = self.eval(i + 1..close);
                        if is_index {
                            let at = (tok.line, tok.col);
                            self.positional_sink("taint-index", at, "index expression", &v.val);
                        }
                        acc.join(&v.val);
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                TokenKind::Punct('#') => i = self.skip_attr(i, range.end),
                _ => i += 1,
            }
        }
        EvalOut {
            val: acc,
            ctx: None,
        }
    }

    /// Recognize expressions that *are* a context: a context variable,
    /// its `.clone()`, or a context-type constructor (`QcsContext::…`,
    /// `FaultInjector::…`, `ExactContext::…`, `ScalarPath::…`),
    /// optionally behind `&`/`&mut`.
    fn ctx_expr(&mut self, range: std::ops::Range<usize>) -> Option<EvalOut> {
        let mut s = range.start;
        while s < range.end && (self.code[s].is_punct('&') || self.code[s].is_ident("mut")) {
            s += 1;
        }
        let len = range.end - s;
        if len == 0 {
            return None;
        }
        let first = &self.code[s];
        if first.kind != TokenKind::Ident {
            return None;
        }
        // `ctx` or `ctx.clone()`
        let plain = len == 1;
        let cloned = len == 5
            && self.code[s + 1].is_punct('.')
            && self.code[s + 2].is_ident("clone")
            && self.code[s + 3].is_punct('(')
            && self.code[s + 4].is_punct(')');
        if plain || cloned {
            let b = self.env.get(&first.text)?;
            let ctx = b.ctx.clone()?;
            return Some(EvalOut {
                val: b.val.clone(),
                ctx: Some(ctx),
            });
        }
        // `Type::ctor(…)` spanning the whole slice.
        let exact = EXACT_CTX_TYPES.contains(&first.text.as_str());
        let approx = APPROX_CTX_TYPES.contains(&first.text.as_str());
        if (exact || approx)
            && len >= 5
            && self.code[s + 1].is_punct(':')
            && self.code[s + 2].is_punct(':')
            && self.code[s + 3].kind == TokenKind::Ident
            && self.code[s + 4].is_punct('(')
            && match_paren(self.code, s + 4) == Some(range.end - 1)
        {
            let ctor = format!("`{}::{}`", first.text, self.code[s + 3].text);
            let (line, col) = (first.line, first.col);
            let _ = self.eval(s + 5..range.end - 1); // nested sink checks
            return Some(EvalOut {
                val: Val::default(),
                ctx: Some(CtxVar {
                    kind: if exact {
                        CtxKind::Exact
                    } else {
                        CtxKind::Approx
                    },
                    param: None,
                    line,
                    col,
                    what: ctor,
                }),
            });
        }
        None
    }

    #[allow(clippy::too_many_lines)]
    fn handle_call(&mut self, i: usize, range: std::ops::Range<usize>) -> (Val, usize) {
        let name = self.code[i].text.clone();
        let open = i + 1;
        let Some(close) = match_paren(self.code, open).filter(|c| *c <= range.end) else {
            return (Val::default(), i + 1);
        };
        let args: Vec<std::ops::Range<usize>> = split_top_level(&self.code[open + 1..close], ',')
            .into_iter()
            .map(|r| r.start + open + 1..r.end + open + 1)
            .filter(|r| !r.is_empty())
            .collect();
        let is_method = i > 0 && self.code[i - 1].is_punct('.');
        let type_hint = if is_method {
            None
        } else {
            path_qualifier(self.code, i, self.def.body.start)
        };

        let mut arg_vals = Vec::with_capacity(args.len());
        let mut arg_ctx = Vec::with_capacity(args.len());
        for r in &args {
            let out = self.eval(r.clone());
            arg_vals.push(out.val);
            arg_ctx.push(out.ctx);
        }

        // Receiver: leftmost ident of an `a.b.name(` chain.
        let base = if is_method {
            let mut j = i - 1; // at '.'
            let mut found = None;
            while j > self.def.body.start
                && self.code[j].is_punct('.')
                && self.code[j - 1].kind == TokenKind::Ident
            {
                found = Some(self.code[j - 1].text.clone());
                if j < 2 {
                    break;
                }
                j -= 2;
            }
            found
        } else {
            None
        };

        // Method on a known context variable?
        if let Some(bname) = &base {
            if let Some(ctx) = self.env.get(bname).and_then(|b| b.ctx.clone()) {
                return (
                    self.ctx_method(&name, &ctx, bname, i, &args, &arg_vals),
                    close + 1,
                );
            }
        }

        // Sanitizer: evaluated args keep their sink checks, the result
        // is exact by contract.
        if self.an.cfg.taint_sanitizers.iter().any(|s| s == &name) {
            return (Val::default(), close + 1);
        }

        let site = |note: String| TraceHop {
            file: self.file.to_owned(),
            line: self.code[i].line,
            col: self.code[i].col,
            note,
        };
        let cands: Vec<FnId> = self.an.ws.resolve(&name, type_hint.as_deref()).to_vec();
        let mut result = Val::default();
        if cands.is_empty() {
            // Unresolved: join receiver and arguments (incl. closures —
            // their bodies were evaluated inline above), degrade to
            // Unknown, and treat an approximate context argument as
            // producing fabric results.
            result.join(&Val::unknown());
            for v in &arg_vals {
                result.join(v);
            }
            let joined = [base.as_deref(), Some(name.as_str())]
                .into_iter()
                .flatten()
                .filter_map(|n| self.env.get(n))
                .filter(|b| b.ctx.is_none())
                .map(|b| b.val.clone())
                .collect::<Vec<_>>();
            for v in joined {
                result.join(&v);
            }
            for (k, c) in arg_ctx.iter().enumerate() {
                let Some(cv) = c else { continue };
                if cv.kind != CtxKind::Approx {
                    continue;
                }
                let mut v = Val {
                    sink: Taint::Approx,
                    ..Val::default()
                };
                v.push_hop(TraceHop {
                    file: self.file.to_owned(),
                    line: cv.line,
                    col: cv.col,
                    note: format!("approximate {}", cv.what),
                });
                v.push_hop(site(format!("passed to unresolved `{name}`")));
                if let Some(j) = cv.param {
                    v.from_ctx |= bit(j);
                } else {
                    v.ret = Taint::Approx;
                }
                let _ = k;
                result.join(&v);
            }
        } else {
            for c in &cands {
                let cd = self.an.ws.def(*c);
                let s = self.an.sums.get(c).cloned().unwrap_or_default();
                if s.intrinsic > Taint::Exact {
                    let mut v = Val {
                        sink: s.intrinsic,
                        ret: s.intrinsic,
                        trace: s.trace.clone(),
                        ..Val::default()
                    };
                    v.push_hop(site(format!("returned from `{name}`")));
                    result.join(&v);
                }
                let has_self = cd.params.first().is_some_and(|p| p.name == "self");
                let offset = usize::from(has_self && is_method);
                if offset == 1 && s.value_flow & 1 != 0 {
                    if let Some(b) = base.as_deref().and_then(|n| self.env.get(n)) {
                        if b.ctx.is_none() {
                            let mut v = b.val.clone();
                            v.push_hop(site(format!("receiver flows through `{name}`")));
                            result.join(&v);
                        }
                    }
                }
                for (k, _r) in args.iter().enumerate() {
                    let p = k + offset;
                    let Some(param) = cd.params.get(p) else {
                        continue;
                    };
                    match param.kind {
                        ParamKind::Value => {
                            if s.value_flow & bit(p) != 0 {
                                let mut v = arg_vals[k].clone();
                                v.push_hop(site(format!(
                                    "argument `{}` flows through `{name}`",
                                    param.name
                                )));
                                result.join(&v);
                            }
                        }
                        ParamKind::Ctx(_) => {
                            if s.ctx_flow & bit(p) == 0 {
                                continue;
                            }
                            let resolved = arg_ctx[k].clone().or_else(|| {
                                self.tokens_have_approx_ctx(args[k].clone())
                                    .then(|| CtxVar {
                                        kind: CtxKind::Approx,
                                        param: None,
                                        line: self.code[args[k].start].line,
                                        col: self.code[args[k].start].col,
                                        what: "approximate context expression".to_owned(),
                                    })
                            });
                            let Some(cv) = resolved else { continue };
                            if cv.kind != CtxKind::Approx {
                                continue;
                            }
                            let mut v = Val {
                                sink: Taint::Approx,
                                trace: vec![TraceHop {
                                    file: self.file.to_owned(),
                                    line: cv.line,
                                    col: cv.col,
                                    note: format!("approximate {}", cv.what),
                                }],
                                ..Val::default()
                            };
                            for hop in &s.trace {
                                v.push_hop(hop.clone());
                            }
                            v.push_hop(site(format!("fabric ops inside `{name}`")));
                            if let Some(j) = cv.param {
                                v.from_ctx |= bit(j);
                            } else {
                                v.ret = Taint::Approx;
                            }
                            result.join(&v);
                        }
                    }
                }
            }
        }
        self.sink_call(&name, &cands, &arg_vals, i);
        (result, close + 1)
    }

    /// A method call whose receiver is a known context variable.
    fn ctx_method(
        &mut self,
        name: &str,
        ctx: &CtxVar,
        bname: &str,
        name_at: usize,
        args: &[std::ops::Range<usize>],
        arg_vals: &[Val],
    ) -> Val {
        if name == "set_level" {
            // `set_level(AccuracyLevel::Accurate)` pins the reference
            // trajectory: the context becomes exact. Any other argument
            // (a variable, another literal) makes it approximate.
            let accurate = args
                .iter()
                .any(|r| self.code[r.clone()].iter().any(|t| t.is_ident("Accurate")));
            if let Some(c) = self.env.get_mut(bname).and_then(|b| b.ctx.as_mut()) {
                c.kind = if accurate {
                    CtxKind::Exact
                } else {
                    CtxKind::Approx
                };
            }
            return Val::default();
        }
        if !CTX_OPS.contains(&name) {
            // Telemetry and admin methods (`level`, `counts`,
            // `approx_energy`, …) are control state, not fabric data.
            return Val::default();
        }
        let mut v = Val::default();
        for a in arg_vals {
            v.join(a);
        }
        if ctx.kind == CtxKind::Approx {
            v.sink = Taint::Approx;
            v.trace = vec![TraceHop {
                file: self.file.to_owned(),
                line: self.code[name_at].line,
                col: self.code[name_at].col,
                note: format!("fabric op `.{name}` on {}", ctx.what),
            }];
            if let Some(j) = ctx.param {
                v.from_ctx |= bit(j);
            } else {
                v.ret = Taint::Approx;
            }
        }
        // Slice kernels write fabric results into their out parameter.
        let out_arg = match name {
            "add_slice" | "sub_slice" | "scale_slice" | "axpy_slice" | "matvec_slice"
            | "matvec_operand" | "spmv_slice" => args.len().checked_sub(1),
            "add_assign_slice" | "axpy_assign_slice" => Some(0),
            _ => None,
        };
        if let Some(k) = out_arg {
            if let Some(r) = args.get(k) {
                let target = self.code[r.clone()]
                    .iter()
                    .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut"))
                    .map(|t| t.text.clone());
                if let Some(target) = target {
                    let entry = self.env.entry(target).or_default();
                    if entry.ctx.is_none() {
                        entry.val.join(&v);
                    }
                }
            }
        }
        v
    }

    /// Whether an argument slice mentions an approximate context (type
    /// name or known approx context variable) — fallback resolution for
    /// complex context expressions.
    fn tokens_have_approx_ctx(&self, range: std::ops::Range<usize>) -> bool {
        self.code[range].iter().any(|t| {
            t.kind == TokenKind::Ident
                && (APPROX_CTX_TYPES.contains(&t.text.as_str())
                    || self
                        .env
                        .get(&t.text)
                        .and_then(|b| b.ctx.as_ref())
                        .is_some_and(|c| c.kind == CtxKind::Approx))
        })
    }

    // -- sinks --------------------------------------------------------

    /// Call-boundary sinks: `quality_error`'s accurate operand, and any
    /// value argument of a function defined in a decision module.
    fn sink_call(&mut self, name: &str, cands: &[FnId], arg_vals: &[Val], name_at: usize) {
        let at = (self.code[name_at].line, self.code[name_at].col);
        if name == "quality_error" {
            if let Some(v) = arg_vals.first() {
                if v.sink == Taint::Approx {
                    self.report(
                        "taint-sink",
                        at,
                        "`quality_error` accurate operand (the Def. 1 reference) receives an \
                         approximate value; the quality metric must compare against an exact \
                         trajectory"
                            .to_owned(),
                        v,
                        "exact-only sink `quality_error(accurate, _)`",
                    );
                }
            }
            return;
        }
        let decision_file = cands.iter().find_map(|c| {
            let f = &self.an.ws.def(*c).file;
            self.an
                .cfg
                .taint_decision_files
                .iter()
                .any(|d| d == f)
                .then(|| f.clone())
        });
        if let Some(f) = decision_file {
            for v in arg_vals {
                if v.sink == Taint::Approx {
                    self.report(
                        "taint-sink",
                        at,
                        format!(
                            "approximate value passed to `{name}` in exact-only decision \
                             module `{f}`; endorse at the boundary or keep the computation exact"
                        ),
                        &v.clone(),
                        "exact-only decision-module argument",
                    );
                    break;
                }
            }
        }
    }

    /// Positional sinks (branch condition, loop bound, index
    /// expression) — control crates only.
    fn positional_sink(&mut self, rule: &'static str, at: (u32, u32), what: &str, v: &Val) {
        if !self.control || v.sink != Taint::Approx {
            return;
        }
        self.report(
            rule,
            at,
            format!(
                "approximate value decides a {what}; control flow in core/solvers must depend \
                 only on exact values — endorse() explicitly where the design reads fabric state"
            ),
            v,
            what,
        );
    }

    fn report(&mut self, rule: &'static str, at: (u32, u32), message: String, v: &Val, sink: &str) {
        if !self.reporting || v.sink != Taint::Approx {
            return;
        }
        if !self.seen.insert((rule, at.0, at.1)) {
            return;
        }
        let mut trace = v.trace.clone();
        trace.truncate(MAX_TRACE - 1);
        trace.push(TraceHop {
            file: self.file.to_owned(),
            line: at.0,
            col: at.1,
            note: format!("reaches {sink}"),
        });
        if let Some(out) = self.out.as_deref_mut() {
            out.push(Violation {
                rule,
                severity: Severity::Error,
                file: self.file.to_owned(),
                line: at.0,
                col: at.1,
                message,
                trace,
            });
        }
    }
}

// -- workspace entry points -------------------------------------------

/// Whether the taint pass analyzes this workspace-relative path.
#[must_use]
pub fn analyzed(rel_path: &str, cfg: &AuditConfig) -> bool {
    rel_path.contains("/src/")
        && crate_of(rel_path).is_some_and(|c| cfg.taint_crates.iter().any(|t| t == c))
}

/// Build the taint workspace from `(rel_path, source)` pairs, keeping
/// only the analyzed files.
#[must_use]
pub fn build_workspace(files: &[(String, String)], cfg: &AuditConfig) -> Workspace {
    let filtered: Vec<(String, String)> = files
        .iter()
        .filter(|(p, _)| analyzed(p, cfg))
        .cloned()
        .collect();
    Workspace::build(&filtered)
}

/// Run summaries to fixpoint, then report every sink violation in
/// deterministic order.
#[must_use]
pub fn audit_workspace(ws: &Workspace, cfg: &AuditConfig) -> Vec<Violation> {
    let sums = fixpoint(ws, cfg);
    let an = Analyzer::new(ws, &sums, cfg);
    let mut out = Vec::new();
    for id in ws.fn_ids() {
        let d = ws.def(id);
        if !d.is_test && !d.body.is_empty() {
            an.report_into(id, &mut out);
        }
    }
    out
}

/// The full taint pass over in-memory sources (filter + fixpoint +
/// report).
#[must_use]
pub fn audit_taint(files: &[(String, String)], cfg: &AuditConfig) -> Vec<Violation> {
    let ws = build_workspace(files, cfg);
    audit_workspace(&ws, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Violation> {
        let cfg = AuditConfig::approxit(".");
        audit_taint(
            &[("crates/solvers/src/planted.rs".to_owned(), src.to_owned())],
            &cfg,
        )
    }

    #[test]
    fn lattice_join_is_max() {
        assert_eq!(Taint::Exact.join(Taint::Unknown), Taint::Unknown);
        assert_eq!(Taint::Unknown.join(Taint::Approx), Taint::Approx);
        assert_eq!(Taint::Approx.join(Taint::Exact), Taint::Approx);
        assert!(Taint::Exact < Taint::Unknown && Taint::Unknown < Taint::Approx);
    }

    #[test]
    fn direct_branch_on_fabric_result_reports_with_trace() {
        let v = run(
            "fn f(ctx: &mut dyn ArithContext, a: f64, b: f64) -> f64 {\n    let p = ctx.mul(a, b);\n    if p > 0.0 {\n        return 1.0;\n    }\n    0.0\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "taint-branch");
        assert_eq!(v[0].line, 3);
        assert_eq!(v[0].trace.first().map(|h| h.line), Some(2), "source hop");
        assert!(v[0].trace.first().unwrap().note.contains(".mul"));
        assert!(v[0].trace.last().unwrap().note.contains("branch"));
    }

    #[test]
    fn exact_context_flows_are_clean() {
        let v = run(
            "fn f(ctx: &mut ExactContext, a: f64, b: f64) -> f64 {\n    let p = ctx.mul(a, b);\n    if p > 0.0 {\n        return 1.0;\n    }\n    0.0\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unknown_values_never_report() {
        let v = run(
            "fn f(n: usize) -> f64 {\n    let x = mystery(n);\n    if x > 0.0 { 1.0 } else { 0.0 }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn endorse_sanitizes() {
        let v = run(
            "fn f(ctx: &mut dyn ArithContext, a: f64, b: f64) -> f64 {\n    let p = endorse(ctx.mul(a, b));\n    if p > 0.0 {\n        return 1.0;\n    }\n    0.0\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn set_level_accurate_reclassifies() {
        let v = run(
            "fn f(template: &QcsContext, a: f64, b: f64) -> f64 {\n    let mut c = template.clone();\n    c.set_level(AccuracyLevel::Accurate);\n    let p = c.mul(a, b);\n    if p > 0.0 { 1.0 } else { 0.0 }\n}\nfn g(template: &QcsContext, level: AccuracyLevel, a: f64) -> f64 {\n    let mut c = template.clone();\n    c.set_level(level);\n    let p = c.mul(a, a);\n    if p > 0.0 { 1.0 } else { 0.0 }\n}\n",
        );
        // `f` pins Accurate (clean); `g` sets a variable level (fires).
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 11);
    }

    #[test]
    fn loop_carried_taint_is_seen_before_the_assignment() {
        let v = run(
            "fn f(ctx: &mut dyn ArithContext, n: usize) -> f64 {\n    let mut x = 0.0;\n    for _i in 0..n {\n        if x > 10.0 {\n            break;\n        }\n        x = ctx.add(x, 1.0);\n    }\n    x\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("taint-branch", 4));
    }

    #[test]
    fn slice_kernel_out_param_carries_taint() {
        let v = run(
            "fn f(ctx: &mut dyn ArithContext, xs: &[f64], ys: &[f64]) -> f64 {\n    let mut out = vec![0.0; xs.len()];\n    ctx.add_slice(xs, ys, &mut out);\n    if out[0] > 0.0 { 1.0 } else { 0.0 }\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("taint-branch", 4));
    }

    #[test]
    fn non_control_crates_skip_positional_sinks() {
        let cfg = AuditConfig::approxit(".");
        let src = "fn f(ctx: &mut dyn ArithContext, a: f64) -> f64 {\n    let p = ctx.mul(a, a);\n    if p > 0.0 { 1.0 } else { 0.0 }\n}\n";
        let v = audit_taint(
            &[("crates/linalg/src/planted.rs".to_owned(), src.to_owned())],
            &cfg,
        );
        assert!(v.is_empty(), "branch sinks are core/solvers only: {v:?}");
    }
}
