//! Span tracing at the public trait boundaries.
//!
//! Four decorators wrap the workspace's extension points without touching
//! program code: [`TracedCtx`] (`ArithContext`, the fabric), [`TracedOp`]
//! (`LinearOperator`), [`TracedMethod`] (`IterativeMethod`: the step and
//! the exact monitoring) and [`TracedStrategy`] (`ReconfigStrategy`, the
//! controller). Each forwards every trait method to its target — default
//! methods included, so a target's override is never bypassed for the
//! trait's scalar fallback.
//!
//! Spans nest on a per-thread stack. Closing a span charges its *self*
//! time (duration minus child spans) to its layer. When the outermost
//! span of a thread closes, the thread's totals fold into a process-wide
//! sink under the current [`Phase`]. Spans are aggregated on the fly
//! rather than stored: a service run closes millions of kernel spans.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use approx_arith::{AccuracyLevel, ArithContext, OpCounts, QFormat, RangeConfig};
use approx_linalg::{CsrMatrix, LinearOperator, Matrix};
use approxit::{Decision, IterationObservation, ReconfigStrategy};
use iter_solvers::IterativeMethod;

use crate::clock;

/// The layers a span can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `execute` call: a solver unit, or one service attempt.
    Runner,
    /// `IterativeMethod::step`.
    Step,
    /// The exact monitoring: `objective`, `gradient`, `params`, `converged`.
    Monitor,
    /// `ReconfigStrategy::decide` and `convergence_veto`.
    Decide,
    /// An `ArithContext` slice kernel.
    Kernel,
    /// `LinearOperator::apply` on the fabric.
    Apply,
    /// `LinearOperator::apply_exact`.
    ApplyExact,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 7;

/// Accumulated self time and counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Self seconds per layer, indexed by `Layer as usize`.
    pub self_s: [f64; LAYERS],
    /// Closed spans per layer.
    pub calls: [u64; LAYERS],
    /// Elements processed by slice kernels (from slice lengths).
    pub kernel_elems: u64,
    /// Per-operation `add`/`sub`/`mul`/`div` calls on the fabric.
    pub scalar_ops: u64,
    /// Bytes touched by fabric operator applies.
    pub apply_bytes: u64,
    /// Strategy decisions that asked for a different level.
    pub switches: u64,
    /// Summed wall time of outermost runner spans.
    pub busy_s: f64,
}

const ZERO: Totals = Totals {
    self_s: [0.0; LAYERS],
    calls: [0; LAYERS],
    kernel_elems: 0,
    scalar_ops: 0,
    apply_bytes: 0,
    switches: 0,
    busy_s: 0.0,
};

impl Default for Totals {
    fn default() -> Self {
        ZERO
    }
}

impl Totals {
    fn absorb(&mut self, other: &Totals) {
        for l in 0..LAYERS {
            self.self_s[l] += other.self_s[l];
            self.calls[l] += other.calls[l];
        }
        self.kernel_elems += other.kernel_elems;
        self.scalar_ops += other.scalar_ops;
        self.apply_bytes += other.apply_bytes;
        self.switches += other.switches;
        self.busy_s += other.busy_s;
    }

    /// Self seconds of one layer.
    #[must_use]
    pub fn secs(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }

    /// Closed spans of one layer.
    #[must_use]
    pub fn count(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

/// Which bucket folded totals land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Input generation and offline characterization.
    Setup,
    /// Timed units.
    Solve,
}

struct Sink {
    totals: [Totals; 2],
    /// `(start, end)` of every outermost runner span.
    intervals: Vec<(f64, f64)>,
}

static PHASE: AtomicUsize = AtomicUsize::new(0);
static SINK: Mutex<Sink> = Mutex::new(Sink {
    totals: [ZERO; 2],
    intervals: Vec::new(),
});

struct Frame {
    layer: Layer,
    start: f64,
    child: f64,
}

struct Local {
    stack: Vec<Frame>,
    totals: Totals,
    /// When set, folds land here instead of the process-wide sink.
    capture: Option<Totals>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            stack: Vec::new(),
            totals: ZERO,
            capture: None,
        })
    };
}

fn sink() -> std::sync::MutexGuard<'static, Sink> {
    SINK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Route later folds to `phase`.
pub fn set_phase(phase: Phase) {
    PHASE.store(phase as usize, Ordering::SeqCst);
}

/// Take and clear the totals folded under `phase`.
pub fn take(phase: Phase) -> Totals {
    std::mem::take(&mut sink().totals[phase as usize])
}

/// Take and clear the recorded outermost runner intervals.
pub fn take_intervals() -> Vec<(f64, f64)> {
    std::mem::take(&mut sink().intervals)
}

/// Run `f` with this thread's folds captured instead of published, and
/// return what it recorded. Only spans closed on the calling thread are
/// seen, so use it for single-threaded probes.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Totals) {
    LOCAL.with_borrow_mut(|l| l.capture = Some(ZERO));
    let r = f();
    let totals = LOCAL.with_borrow_mut(|l| {
        let mut got = l.capture.take().unwrap_or(ZERO);
        got.absorb(&l.totals);
        l.totals = ZERO;
        got
    });
    (r, totals)
}

fn enter(layer: Layer) {
    let start = clock::now();
    LOCAL.with_borrow_mut(|l| {
        l.stack.push(Frame {
            layer,
            start,
            child: 0.0,
        });
    });
}

fn exit() {
    let end = clock::now();
    LOCAL.with_borrow_mut(|l| {
        let Some(frame) = l.stack.pop() else {
            return;
        };
        let dur = end - frame.start;
        let index = frame.layer as usize;
        l.totals.self_s[index] += dur - frame.child;
        l.totals.calls[index] += 1;
        if let Some(parent) = l.stack.last_mut() {
            parent.child += dur;
            return;
        }
        let runner = frame.layer == Layer::Runner;
        if runner {
            l.totals.busy_s += dur;
        }
        let totals = std::mem::take(&mut l.totals);
        if let Some(captured) = l.capture.as_mut() {
            captured.absorb(&totals);
        } else {
            let mut s = sink();
            s.totals[PHASE.load(Ordering::SeqCst)].absorb(&totals);
            if runner {
                s.intervals.push((frame.start, end));
            }
        }
    });
}

/// Run `f` inside a span charged to `layer`.
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let r = f();
    exit();
    r
}

fn bump(f: impl FnOnce(&mut Totals)) {
    LOCAL.with_borrow_mut(|l| f(&mut l.totals));
}

fn kernel<R>(elems: usize, f: impl FnOnce() -> R) -> R {
    bump(|t| t.kernel_elems += elems as u64);
    timed(Layer::Kernel, f)
}

/// An `ArithContext` decorator timing every slice kernel and counting
/// every per-operation call.
#[derive(Debug, Clone)]
pub struct TracedCtx<C> {
    inner: C,
}

impl<C> TracedCtx<C> {
    /// Wrap a context.
    pub fn new(inner: C) -> Self {
        Self { inner }
    }
}

impl<C: ArithContext> ArithContext for TracedCtx<C> {
    fn add(&mut self, a: f64, b: f64) -> f64 {
        bump(|t| t.scalar_ops += 1);
        self.inner.add(a, b)
    }

    fn mul(&mut self, a: f64, b: f64) -> f64 {
        bump(|t| t.scalar_ops += 1);
        self.inner.mul(a, b)
    }

    fn div(&mut self, a: f64, b: f64) -> f64 {
        bump(|t| t.scalar_ops += 1);
        self.inner.div(a, b)
    }

    fn sub(&mut self, a: f64, b: f64) -> f64 {
        bump(|t| t.scalar_ops += 1);
        self.inner.sub(a, b)
    }

    fn level(&self) -> AccuracyLevel {
        self.inner.level()
    }

    fn set_level(&mut self, level: AccuracyLevel) {
        self.inner.set_level(level);
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }

    fn approx_energy(&self) -> f64 {
        self.inner.approx_energy()
    }

    fn total_energy(&self) -> f64 {
        self.inner.total_energy()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn datapath_format(&self) -> Option<QFormat> {
        self.inner.datapath_format()
    }

    fn range_config(&self) -> Option<RangeConfig> {
        self.inner.range_config()
    }

    fn add_slice(&mut self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        let inner = &mut self.inner;
        kernel(out.len(), || inner.add_slice(xs, ys, out));
    }

    fn sub_slice(&mut self, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        let inner = &mut self.inner;
        kernel(out.len(), || inner.sub_slice(xs, ys, out));
    }

    fn scale_slice(&mut self, alpha: f64, xs: &[f64], out: &mut [f64]) {
        let inner = &mut self.inner;
        kernel(out.len(), || inner.scale_slice(alpha, xs, out));
    }

    fn axpy_slice(&mut self, alpha: f64, xs: &[f64], ys: &[f64], out: &mut [f64]) {
        let inner = &mut self.inner;
        kernel(out.len(), || inner.axpy_slice(alpha, xs, ys, out));
    }

    fn add_assign_slice(&mut self, ys: &mut [f64], xs: &[f64]) {
        let inner = &mut self.inner;
        kernel(xs.len(), || inner.add_assign_slice(ys, xs));
    }

    fn axpy_assign_slice(&mut self, ys: &mut [f64], alpha: f64, xs: &[f64]) {
        let inner = &mut self.inner;
        kernel(xs.len(), || inner.axpy_assign_slice(ys, alpha, xs));
    }

    fn dot_slice(&mut self, xs: &[f64], ys: &[f64]) -> f64 {
        let inner = &mut self.inner;
        kernel(xs.len(), || inner.dot_slice(xs, ys))
    }

    fn sum_slice(&mut self, xs: &[f64]) -> f64 {
        let inner = &mut self.inner;
        kernel(xs.len(), || inner.sum_slice(xs))
    }

    fn matvec_slice(&mut self, rows: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
        let inner = &mut self.inner;
        kernel(rows.len(), || inner.matvec_slice(rows, cols, x, out));
    }

    fn spmv_slice(
        &mut self,
        values: &[f64],
        col_idx: &[usize],
        row_ptr: &[usize],
        x: &[f64],
        out: &mut [f64],
    ) {
        let inner = &mut self.inner;
        kernel(values.len(), || {
            inner.spmv_slice(values, col_idx, row_ptr, x, out);
        });
    }

    fn sum(&mut self, xs: &[f64]) -> f64 {
        let inner = &mut self.inner;
        kernel(xs.len(), || inner.sum(xs))
    }

    fn dot(&mut self, xs: &[f64], ys: &[f64]) -> f64 {
        let inner = &mut self.inner;
        kernel(xs.len(), || inner.dot(xs, ys))
    }
}

/// Bytes one fabric apply of a CSR matrix touches: values, column
/// indices, row pointers, `x` and `out`.
#[must_use]
pub fn csr_bytes(a: &CsrMatrix) -> u64 {
    let word = 8;
    let rows = LinearOperator::rows(a) as u64;
    let cols = LinearOperator::cols(a) as u64;
    word * (2 * a.nnz() as u64 + (rows + 1) + cols + rows)
}

/// Bytes one fabric apply of a dense matrix touches: entries, `x` and
/// `out`.
#[must_use]
pub fn dense_bytes(a: &Matrix) -> u64 {
    let rows = LinearOperator::rows(a) as u64;
    let cols = LinearOperator::cols(a) as u64;
    8 * (rows * cols + cols + rows)
}

/// A `LinearOperator` decorator timing fabric and exact applies.
#[derive(Debug, Clone)]
pub struct TracedOp<A> {
    inner: A,
    bytes_per_apply: u64,
}

impl<A> TracedOp<A> {
    /// Wrap an operator whose fabric apply touches `bytes_per_apply`.
    pub fn new(inner: A, bytes_per_apply: u64) -> Self {
        Self {
            inner,
            bytes_per_apply,
        }
    }
}

impl<A: LinearOperator> LinearOperator for TracedOp<A> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn order(&self) -> usize {
        self.inner.order()
    }

    fn apply(&self, ctx: &mut dyn ArithContext, x: &[f64], out: &mut [f64]) {
        let bytes = self.bytes_per_apply;
        bump(|t| t.apply_bytes += bytes);
        timed(Layer::Apply, || self.inner.apply(ctx, x, out));
    }

    fn apply_exact(&self, x: &[f64], out: &mut [f64]) {
        timed(Layer::ApplyExact, || self.inner.apply_exact(x, out));
    }

    fn diagonal(&self) -> Vec<f64> {
        self.inner.diagonal()
    }

    fn max_abs_entry(&self) -> f64 {
        self.inner.max_abs_entry()
    }

    fn max_row_terms(&self) -> usize {
        self.inner.max_row_terms()
    }

    fn off_diagonal_abs_row_sums(&self) -> Vec<f64> {
        self.inner.off_diagonal_abs_row_sums()
    }

    fn is_symmetric(&self, tol: f64) -> bool {
        self.inner.is_symmetric(tol)
    }

    fn matvec(&self, ctx: &mut dyn ArithContext, x: &[f64]) -> Vec<f64> {
        let bytes = self.bytes_per_apply;
        bump(|t| t.apply_bytes += bytes);
        timed(Layer::Apply, || self.inner.matvec(ctx, x))
    }

    fn matvec_exact(&self, x: &[f64]) -> Vec<f64> {
        timed(Layer::ApplyExact, || self.inner.matvec_exact(x))
    }
}

/// An `IterativeMethod` decorator timing the step and the exact
/// monitoring.
#[derive(Debug, Clone)]
pub struct TracedMethod<M> {
    inner: M,
}

impl<M> TracedMethod<M> {
    /// Wrap a method.
    pub fn new(inner: M) -> Self {
        Self { inner }
    }
}

impl<M: IterativeMethod> IterativeMethod for TracedMethod<M> {
    type State = M::State;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_state(&self) -> M::State {
        self.inner.initial_state()
    }

    fn step(&self, state: &M::State, ctx: &mut dyn ArithContext) -> M::State {
        timed(Layer::Step, || self.inner.step(state, ctx))
    }

    fn objective(&self, state: &M::State) -> f64 {
        timed(Layer::Monitor, || self.inner.objective(state))
    }

    fn gradient(&self, state: &M::State) -> Option<Vec<f64>> {
        timed(Layer::Monitor, || self.inner.gradient(state))
    }

    fn params(&self, state: &M::State) -> Vec<f64> {
        timed(Layer::Monitor, || self.inner.params(state))
    }

    fn converged(&self, prev: &M::State, next: &M::State) -> bool {
        timed(Layer::Monitor, || self.inner.converged(prev, next))
    }

    fn max_iterations(&self) -> usize {
        self.inner.max_iterations()
    }

    fn deadline_hint(&self) -> Option<usize> {
        self.inner.deadline_hint()
    }
}

/// A `ReconfigStrategy` decorator timing decisions and counting level
/// switches. Built with [`TracedStrategy::attempt`], it also opens a
/// runner span for the service attempt it serves and closes it on drop.
pub struct TracedStrategy {
    inner: Box<dyn ReconfigStrategy>,
    attempt: bool,
}

impl TracedStrategy {
    /// Wrap a strategy whose run the caller times.
    pub fn new(inner: Box<dyn ReconfigStrategy>) -> Self {
        Self {
            inner,
            attempt: false,
        }
    }

    /// Wrap a strategy created for one service attempt: the attempt's
    /// runner span lasts as long as the wrapper.
    pub fn attempt(inner: Box<dyn ReconfigStrategy>) -> Self {
        enter(Layer::Runner);
        Self {
            inner,
            attempt: true,
        }
    }
}

impl Drop for TracedStrategy {
    fn drop(&mut self) {
        if self.attempt {
            exit();
        }
    }
}

fn count_switch(observation: &IterationObservation<'_>, decision: Option<Decision>) {
    if let Some(Decision::SwitchTo(level) | Decision::RollbackAndSwitch(level)) = decision {
        if level != observation.level {
            bump(|t| t.switches += 1);
        }
    }
}

impl ReconfigStrategy for TracedStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_level(&self) -> AccuracyLevel {
        self.inner.initial_level()
    }

    fn decide(&mut self, observation: &IterationObservation<'_>) -> Decision {
        let inner = &mut self.inner;
        let decision = timed(Layer::Decide, || inner.decide(observation));
        count_switch(observation, Some(decision));
        decision
    }

    fn convergence_veto(&mut self, observation: &IterationObservation<'_>) -> Option<Decision> {
        let inner = &mut self.inner;
        let veto = timed(Layer::Decide, || inner.convergence_veto(observation));
        count_switch(observation, veto);
        veto
    }
}
