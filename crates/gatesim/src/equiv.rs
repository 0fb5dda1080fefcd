//! Combinational equivalence checking: BDD proofs and simulation.
//!
//! [`prove`] is the primary entry point: it compiles both netlists into a
//! shared [ROBDD](crate::bdd) manager and compares the canonical output
//! diagrams — a real miter-style proof that returns
//! [`Equivalence::Proven`] or a concrete [`Equivalence::Counterexample`]
//! for arbitrary-width circuits (all the 16/32/64-bit adders in this
//! workspace stay polynomial under the structural variable order).
//!
//! [`check`] is the older simulation path — exhaustive for small input
//! counts, seeded random sampling otherwise. Sampling cannot prove
//! equivalence and survives mainly for cross-checking the BDD engine and
//! for circuits whose diagrams blow past the node budget; prefer
//! [`prove`] wherever BDDs fit (they do for everything this crate
//! builds). The exhaustive sweep runs on the bit-parallel
//! [`PackedSimulator`] split across cores by [`Executor`], yet
//! returns exactly what the old scalar loop returned (the *lowest*
//! differing pattern) regardless of thread count.
//!
//! For approximate circuits — which are deliberately *not* equivalent to
//! their exact references — [`error_bound`] characterizes the deviation
//! exactly: the fraction of input vectors with any output mismatch (via
//! BDD model counting) and the worst-case absolute word error (via
//! symbolic two's complement arithmetic), without a `2^n` sweep. Its
//! brute-force witnesses are scalar sweeps: this module's tests and the
//! `bench` crate's `verify` binary.
//!
//! [`Executor`]: parx::Executor
//! [`PackedSimulator`]: crate::PackedSimulator

use crate::bdd::{interleaved_order, Bdd, BddRef, NodeLimitExceeded};
use crate::netlist::Netlist;
use crate::packed::{exhaustive_input_words, PackedSimulator, LANES};
use crate::sim::Simulator;
use parx::Executor;
// audit:allow(par-reduce, import feeds the pruning hint in exhaustive_mismatch; the result reduction is the Executor's in-order fold)
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// Equivalence was established for *all* input vectors — by BDD proof
    /// ([`prove`]) or an exhaustive sweep ([`check`]).
    Proven,
    /// `vectors` sampled vectors agreed; no counterexample found. This is
    /// evidence, not proof.
    Sampled {
        /// Number of vectors simulated.
        vectors: u64,
    },
    /// A differing input vector was found.
    Counterexample {
        /// The inputs (LSB-first per primary input order).
        inputs: Vec<bool>,
        /// Outputs of the first netlist.
        left: Vec<bool>,
        /// Outputs of the second netlist.
        right: Vec<bool>,
    },
    /// The interfaces differ (input or output counts), so the circuits
    /// cannot be compared.
    InterfaceMismatch,
}

impl Equivalence {
    /// `true` unless a counterexample or interface mismatch was found.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, Equivalence::Proven | Equivalence::Sampled { .. })
    }

    /// `true` only for a full proof (not mere sampling evidence).
    #[must_use]
    pub fn is_proven(&self) -> bool {
        matches!(self, Equivalence::Proven)
    }
}

/// Largest input count for which [`check`] will sweep all `2^n` vectors;
/// larger requests are clamped here (16M vectors is the practical
/// ceiling).
pub const EXHAUSTIVE_CEILING: u32 = 24;

/// Samples used when [`prove`] has to fall back to simulation.
const FALLBACK_SAMPLES: u64 = 4096;

/// Prove or refute equivalence of two netlists with a BDD miter.
///
/// Both netlists are compiled into one BDD manager under a structural
/// variable order derived from `left` (see
/// [`interleaved_order`]); because ROBDDs are canonical, the circuits are
/// equivalent exactly when every output pair maps to the same node.
/// Inputs and outputs are matched positionally, as in [`check`].
///
/// Returns [`Equivalence::Proven`] or a concrete
/// [`Equivalence::Counterexample`]. In the unlikely event the diagrams
/// exceed the default node budget ([`Bdd::DEFAULT_NODE_LIMIT`]) the
/// check falls back to seeded random simulation and returns
/// [`Equivalence::Sampled`]; use [`prove_with_limit`] to observe the
/// budget overrun directly.
///
/// # Example
///
/// ```
/// use gatesim::{builders, equiv, Equivalence};
///
/// // 65 inputs: far beyond exhaustive simulation, trivial for BDDs.
/// let (a, _) = builders::ripple_carry_adder(32);
/// let (b, _) = builders::ripple_carry_adder(32);
/// assert_eq!(equiv::prove(&a, &b), Equivalence::Proven);
/// ```
#[must_use]
pub fn prove(left: &Netlist, right: &Netlist) -> Equivalence {
    match prove_with_limit(left, right, Bdd::DEFAULT_NODE_LIMIT) {
        Ok(verdict) => verdict,
        Err(_) => check(left, right, EXHAUSTIVE_CEILING, FALLBACK_SAMPLES),
    }
}

/// [`prove`] with an explicit BDD node budget and no simulation fallback.
///
/// # Errors
/// Returns [`NodeLimitExceeded`] if either circuit's diagrams outgrow
/// `node_limit` (e.g. under an adversarial structure the variable-order
/// heuristic cannot tame).
pub fn prove_with_limit(
    left: &Netlist,
    right: &Netlist,
    node_limit: usize,
) -> Result<Equivalence, NodeLimitExceeded> {
    if left.num_inputs() != right.num_inputs() || left.num_outputs() != right.num_outputs() {
        return Ok(Equivalence::InterfaceMismatch);
    }
    let n = left.num_inputs();
    let order = interleaved_order(left);
    let mut bdd = Bdd::with_node_limit(n as u32, node_limit);
    let left_outs = bdd.compile(left, &order)?;
    let right_outs = bdd.compile(right, &order)?;
    let mut miter = BddRef::FALSE;
    for (&l, &r) in left_outs.iter().zip(&right_outs) {
        let diff = bdd.xor(l, r)?;
        miter = bdd.or(miter, diff)?;
    }
    if miter == BddRef::FALSE {
        return Ok(Equivalence::Proven);
    }
    let assignment = bdd.any_sat(miter).expect("non-false miter is satisfiable");
    let inputs: Vec<bool> = (0..n).map(|i| assignment[order[i] as usize]).collect();
    let left_out = Simulator::new(left)
        .evaluate(&inputs)
        .expect("interface checked");
    let right_out = Simulator::new(right)
        .evaluate(&inputs)
        .expect("interface checked");
    debug_assert_ne!(left_out, right_out, "BDD counterexample must re-simulate");
    Ok(Equivalence::Counterexample {
        inputs,
        left: left_out,
        right: right_out,
    })
}

/// Exact error characterization of an approximate circuit against its
/// exact reference, computed symbolically (no vector sweep).
///
/// Produced by [`error_bound`]. Outputs are interpreted as unsigned words
/// (LSB first, matching the builder conventions); the error of a vector
/// is `approx_word − exact_word` as a signed integer, the same convention
/// as the simulation-based error statistics elsewhere in the workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBound {
    /// Exact fraction of input vectors on which any output bit differs.
    pub error_rate: f64,
    /// Worst-case absolute word error over *all* input vectors.
    pub max_abs_error: u64,
    /// Worst-case error as a distance on the `2^w` output ring:
    /// `min(d, 2^w − d)` where `d = (approx − exact) mod 2^w`. A modular
    /// adder that drops a carry wraps the plain difference to nearly
    /// `2^w`, but on the ring the damage is only the dropped carry's
    /// weight — this is the right metric for truncated/speculative
    /// adder families whose error bound is stated modulo the word width.
    pub max_ring_error: u64,
    /// An input vector attaining `max_abs_error` (LSB-first per primary
    /// input order). All-false when the circuits are equivalent.
    pub worst_case_inputs: Vec<bool>,
}

impl ErrorBound {
    /// `true` if the circuits agree on every input vector.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.max_abs_error == 0 && self.error_rate == 0.0
    }
}

/// Failure modes of [`error_bound`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorBoundError {
    /// The circuits have different input or output counts.
    InterfaceMismatch,
    /// The output word is too wide for exact `u64` error extraction.
    OutputTooWide {
        /// Number of primary outputs.
        bits: usize,
    },
    /// A BDD outgrew the node budget.
    NodeLimit(NodeLimitExceeded),
}

impl std::fmt::Display for ErrorBoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorBoundError::InterfaceMismatch => {
                write!(f, "circuits have mismatched interfaces")
            }
            ErrorBoundError::OutputTooWide { bits } => {
                write!(f, "output word of {bits} bits exceeds the 63-bit limit")
            }
            ErrorBoundError::NodeLimit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ErrorBoundError {}

impl From<NodeLimitExceeded> for ErrorBoundError {
    fn from(e: NodeLimitExceeded) -> Self {
        ErrorBoundError::NodeLimit(e)
    }
}

/// Characterize the exact error of `approx` against `exact` by symbolic
/// analysis: error rate via BDD model counting, worst-case absolute word
/// error via two's complement BDD arithmetic and MSB-first maximization.
///
/// Both results are exact over all `2^n` input vectors — this supersedes
/// exhaustive simulation sweeps, which are infeasible beyond ~24 inputs.
///
/// # Errors
/// * [`ErrorBoundError::InterfaceMismatch`] if input/output counts differ;
/// * [`ErrorBoundError::OutputTooWide`] if the circuits have more than 63
///   outputs (the signed difference must fit in a `u64` word);
/// * [`ErrorBoundError::NodeLimit`] if a diagram outgrows the budget.
///
/// # Example
///
/// ```
/// use gatesim::{builders, equiv};
///
/// let (a, _) = builders::modular_adder(16);
/// let (b, _) = builders::modular_adder(16);
/// let bound = equiv::error_bound(&a, &b).unwrap();
/// assert!(bound.is_exact());
/// ```
pub fn error_bound(approx: &Netlist, exact: &Netlist) -> Result<ErrorBound, ErrorBoundError> {
    if approx.num_inputs() != exact.num_inputs() || approx.num_outputs() != exact.num_outputs() {
        return Err(ErrorBoundError::InterfaceMismatch);
    }
    let out_bits = approx.num_outputs();
    if out_bits > 63 {
        return Err(ErrorBoundError::OutputTooWide { bits: out_bits });
    }
    let n = approx.num_inputs();
    let order = interleaved_order(exact);
    let mut bdd = Bdd::new(n as u32);
    let approx_outs = bdd.compile(approx, &order)?;
    let exact_outs = bdd.compile(exact, &order)?;

    // Error rate: satisfying fraction of the miter.
    let mut miter = BddRef::FALSE;
    for (&a, &e) in approx_outs.iter().zip(&exact_outs) {
        let diff = bdd.xor(a, e)?;
        miter = bdd.or(miter, diff)?;
    }
    let error_rate = bdd.sat_fraction(miter);

    // Worst-case |approx − exact| via symbolic subtraction.
    let signed_diff = bdd.word_sub(&approx_outs, &exact_outs)?;
    let abs_diff = bdd.word_abs(&signed_diff)?;
    let (max_abs_error, witness) = bdd.max_unsigned(&abs_diff)?;
    let worst_case_inputs: Vec<bool> = (0..n).map(|i| witness[order[i] as usize]).collect();

    // Ring distance: keep only the low `out_bits` of the difference —
    // that is (approx − exact) mod 2^w as a w-bit two's complement
    // word, whose absolute value is min(d, 2^w − d).
    let ring_abs = bdd.word_abs(&signed_diff[..out_bits])?;
    let (max_ring_error, _) = bdd.max_unsigned(&ring_abs)?;
    Ok(ErrorBound {
        error_rate,
        max_abs_error,
        max_ring_error,
        worst_case_inputs,
    })
}

/// Compare two netlists by simulation: exhaustively if they have at most
/// `min(exhaustive_limit, EXHAUSTIVE_CEILING)` inputs, otherwise on
/// `samples` vectors from a seeded xorshift stream.
///
/// Limits above [`EXHAUSTIVE_CEILING`] are clamped (not an error): wider
/// circuits silently take the sampling path, so callers can pass the
/// input count directly. Prefer [`prove`] — it returns a real proof for
/// any width this workspace builds; sampling survives for cross-checking
/// the BDD engine and for circuits past the node budget.
///
/// # Panics
/// Panics if `samples` is 0.
///
/// # Example
///
/// ```
/// use gatesim::{equiv, optimize, Netlist};
///
/// let mut nl = Netlist::new();
/// let a = nl.input("a");
/// let one = nl.constant(true);
/// let y = nl.and2(a, one);
/// nl.mark_output(y, "y");
/// let optimized = optimize::optimize(&nl).netlist;
/// assert!(equiv::check(&nl, &optimized, 16, 1000).holds());
/// ```
#[must_use]
pub fn check(left: &Netlist, right: &Netlist, exhaustive_limit: u32, samples: u64) -> Equivalence {
    check_with(left, right, exhaustive_limit, samples, &Executor::new())
}

/// [`check`] with an explicit [`Executor`] for the exhaustive sweep.
///
/// The verdict is identical for every thread count: the parallel sweep
/// reduces to the *minimum* differing pattern, which is exactly the
/// vector the old serial loop would have reported first.
///
/// # Panics
/// Panics if `samples` is 0.
#[must_use]
pub fn check_with(
    left: &Netlist,
    right: &Netlist,
    exhaustive_limit: u32,
    samples: u64,
    exec: &Executor,
) -> Equivalence {
    let exhaustive_limit = exhaustive_limit.min(EXHAUSTIVE_CEILING);
    assert!(samples > 0, "samples must be positive");
    if left.num_inputs() != right.num_inputs() || left.num_outputs() != right.num_outputs() {
        return Equivalence::InterfaceMismatch;
    }
    let n = left.num_inputs();

    if (n as u32) <= exhaustive_limit {
        return match exhaustive_mismatch(left, right, exec) {
            Some(pattern) => {
                let inputs: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
                let out_left = Simulator::new(left)
                    .evaluate(&inputs)
                    .expect("interface checked");
                let out_right = Simulator::new(right)
                    .evaluate(&inputs)
                    .expect("interface checked");
                debug_assert_ne!(out_left, out_right);
                Equivalence::Counterexample {
                    inputs,
                    left: out_left,
                    right: out_right,
                }
            }
            None => Equivalence::Proven,
        };
    }

    let mut sim_left = Simulator::new(left);
    let mut sim_right = Simulator::new(right);
    let mut try_vector = |inputs: &[bool]| -> Option<Equivalence> {
        let out_left = sim_left.evaluate(inputs).expect("interface checked");
        let out_right = sim_right.evaluate(inputs).expect("interface checked");
        if out_left == out_right {
            None
        } else {
            Some(Equivalence::Counterexample {
                inputs: inputs.to_vec(),
                left: out_left,
                right: out_right,
            })
        }
    };

    // Seeded xorshift64* stream, bit-sliced into input vectors.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next_bit = {
        let mut buffer = 0u64;
        let mut remaining = 0u32;
        move || -> bool {
            if remaining == 0 {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                buffer = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                remaining = 64;
            }
            remaining -= 1;
            let bit = buffer & 1 == 1;
            buffer >>= 1;
            bit
        }
    };
    for _ in 0..samples {
        let inputs: Vec<bool> = (0..n).map(|_| next_bit()).collect();
        if let Some(counterexample) = try_vector(&inputs) {
            return counterexample;
        }
    }
    Equivalence::Sampled { vectors: samples }
}

/// Patterns per parallel work unit in exhaustive sweeps (multiple of 64
/// so every chunk keeps full lanes and 64-aligned bases).
const SWEEP_CHUNK: u64 = 1 << 16;

/// Lowest input pattern on which the two netlists disagree, or `None`
/// if they agree everywhere — computed packed and in parallel.
fn exhaustive_mismatch(left: &Netlist, right: &Netlist, exec: &Executor) -> Option<u64> {
    let n = left.num_inputs();
    let total = 1u64 << n;
    // Best (lowest) mismatch so far, shared so chunks that cannot beat
    // it are skipped; the reduction below stays a pure minimum, so this
    // is a pruning hint, never a determinism hazard.
    // audit:allow(par-reduce, pruning hint only: the returned value is the in-order min fold over chunk results, the atomic can only skip work)
    let best = AtomicU64::new(u64::MAX);
    let hits = exec.map_chunks(total, SWEEP_CHUNK, |start, end| -> Option<u64> {
        if start > best.load(Ordering::Relaxed) {
            return None;
        }
        let mut sim_left = PackedSimulator::new(left);
        let mut sim_right = PackedSimulator::new(right);
        let mut base = start;
        while base < end {
            let lanes = usize::try_from(end - base).map_or(LANES, |r| r.min(LANES));
            let words = exhaustive_input_words(n, base);
            let out_left = sim_left
                .evaluate_packed(&words, lanes)
                .expect("interface checked");
            let out_right = sim_right
                .evaluate_packed(&words, lanes)
                .expect("interface checked");
            let mut diff = 0u64;
            for (l, r) in out_left.iter().zip(&out_right) {
                diff |= l ^ r;
            }
            if diff != 0 {
                let pattern = base + u64::from(diff.trailing_zeros());
                // audit:allow(par-reduce, tightens the pruning hint; chunk results are still reduced in index order below)
                best.fetch_min(pattern, Ordering::Relaxed);
                return Some(pattern);
            }
            base += lanes as u64;
        }
        None
    });
    hits.into_iter().flatten().min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::optimize::optimize;

    #[test]
    fn identical_netlists_are_proven_equivalent() {
        let (a, _) = builders::ripple_carry_adder(4);
        let (b, _) = builders::ripple_carry_adder(4);
        assert_eq!(check(&a, &b, 16, 100), Equivalence::Proven);
    }

    #[test]
    fn optimizer_output_is_equivalent() {
        let (nl, _) = builders::ripple_carry_adder(6);
        let optimized = optimize(&nl).netlist;
        assert!(check(&nl, &optimized, 16, 100).holds());
    }

    #[test]
    fn differing_circuits_yield_a_counterexample() {
        let mut left = Netlist::new();
        let a = left.input("a");
        let b = left.input("b");
        let y = left.and2(a, b);
        left.mark_output(y, "y");

        let mut right = Netlist::new();
        let a = right.input("a");
        let b = right.input("b");
        let y = right.or2(a, b);
        right.mark_output(y, "y");

        match check(&left, &right, 16, 100) {
            Equivalence::Counterexample {
                inputs,
                left,
                right,
            } => {
                // AND and OR differ exactly when inputs differ.
                assert_ne!(inputs[0], inputs[1]);
                assert_ne!(left, right);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_is_reported() {
        let (a, _) = builders::ripple_carry_adder(4);
        let (b, _) = builders::ripple_carry_adder(5);
        assert_eq!(check(&a, &b, 16, 100), Equivalence::InterfaceMismatch);
        assert!(!check(&a, &b, 16, 100).holds());
        assert_eq!(prove(&a, &b), Equivalence::InterfaceMismatch);
    }

    #[test]
    fn wide_circuits_fall_back_to_sampling() {
        let (a, _) = builders::ripple_carry_adder(32); // 65 inputs
        let (b, _) = builders::ripple_carry_adder(32);
        assert_eq!(check(&a, &b, 16, 50), Equivalence::Sampled { vectors: 50 });
    }

    #[test]
    fn oversized_exhaustive_limit_is_clamped_not_fatal() {
        // Previously panicked; now clamps to EXHAUSTIVE_CEILING and
        // samples, since 65 inputs > 24.
        let (a, _) = builders::ripple_carry_adder(32);
        let (b, _) = builders::ripple_carry_adder(32);
        assert_eq!(check(&a, &b, 999, 10), Equivalence::Sampled { vectors: 10 });
        // Small circuits under an oversized limit still get the full sweep.
        let (c, _) = builders::ripple_carry_adder(2);
        let (d, _) = builders::ripple_carry_adder(2);
        assert_eq!(check(&c, &d, u32::MAX, 10), Equivalence::Proven);
    }

    #[test]
    fn sampling_finds_gross_differences() {
        let (exact, _) = builders::ripple_carry_adder(32);
        // A circuit that drops the carry chain entirely: same interface,
        // wildly different function.
        let mut broken = Netlist::new();
        let (a, b, _cin) = builders::declare_operands(&mut broken, 32);
        for i in 0..32 {
            let s = broken.xor2(a[i], b[i]);
            broken.mark_output(s, format!("sum{i}"));
        }
        let zero = broken.constant(false);
        broken.mark_output(zero, "cout");
        assert!(!check(&exact, &broken, 16, 200).holds());
    }

    #[test]
    fn prove_upgrades_wide_adders_from_sampled_to_proven() {
        for width in [16usize, 32, 64] {
            let (a, _) = builders::ripple_carry_adder(width);
            let (b, _) = builders::ripple_carry_adder(width);
            assert_eq!(prove(&a, &b), Equivalence::Proven, "width {width}");
        }
    }

    #[test]
    fn prove_finds_counterexamples_on_wide_circuits() {
        let (exact, ports) = builders::ripple_carry_adder(32);
        let mut broken = Netlist::new();
        let (a, b, _cin) = builders::declare_operands(&mut broken, 32);
        for i in 0..32 {
            let s = broken.xor2(a[i], b[i]);
            broken.mark_output(s, format!("sum{i}"));
        }
        let zero = broken.constant(false);
        broken.mark_output(zero, "cout");
        match prove(&exact, &broken) {
            Equivalence::Counterexample {
                inputs,
                left,
                right,
            } => {
                assert_eq!(inputs.len(), 65);
                assert_ne!(left, right);
                // The counterexample must actually reproduce in simulation.
                let got = Simulator::new(&exact).evaluate(&inputs).unwrap();
                assert_eq!(got, left);
                let _ = ports;
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn prove_with_limit_reports_budget_overruns() {
        let (a, _) = builders::ripple_carry_adder(24);
        let (b, _) = builders::ripple_carry_adder(24);
        let err = prove_with_limit(&a, &b, 64).unwrap_err();
        assert_eq!(err.limit, 64);
        // prove() still answers by falling back to sampling-based check.
        assert!(prove(&a, &b).holds());
    }

    #[test]
    fn prove_agrees_with_exhaustive_check_on_mux() {
        let m1 = builders::word_mux(3);
        let m2 = builders::word_mux(3);
        assert_eq!(prove(&m1, &m2), check(&m1, &m2, 24, 10));
    }

    #[test]
    fn error_bound_is_zero_for_equivalent_circuits() {
        let (a, _) = builders::modular_adder(16);
        let (b, _) = builders::modular_adder(16);
        let bound = error_bound(&a, &b).unwrap();
        assert!(bound.is_exact());
        assert_eq!(bound.max_abs_error, 0);
        assert_eq!(bound.max_ring_error, 0);
        assert_eq!(bound.error_rate, 0.0);
    }

    /// Bitwise-XOR "adder" (drops every carry) with the same interface
    /// as `modular_adder(width)` — a maximally error-prone approximation.
    fn carry_free_adder(width: usize) -> Netlist {
        let mut approx = Netlist::new();
        let (a, b) = builders::declare_ab(&mut approx, width);
        for i in 0..width {
            let s = approx.xor2(a[i], b[i]);
            approx.mark_output(s, format!("sum{i}"));
        }
        approx
    }

    #[test]
    fn error_bound_matches_brute_force_on_carry_free_adder() {
        for width in [3usize, 5, 8] {
            let (exact, ports) = builders::modular_adder(width);
            let approx = carry_free_adder(width);
            let bound = error_bound(&approx, &exact).unwrap();

            // Brute-force reference sweep.
            let mask = (1u64 << width) - 1;
            let mut mismatches = 0u64;
            let mut worst = 0u64;
            let mut worst_ring = 0u64;
            let modulus = mask + 1;
            for x in 0..=mask {
                for y in 0..=mask {
                    let approx_word = x ^ y;
                    let exact_word = (x + y) & mask;
                    if approx_word != exact_word {
                        mismatches += 1;
                    }
                    worst = worst.max(approx_word.abs_diff(exact_word));
                    let d = approx_word.wrapping_sub(exact_word) & mask;
                    worst_ring = worst_ring.max(d.min(modulus - d));
                }
            }
            let total = modulus * modulus;
            assert!(
                (bound.error_rate - mismatches as f64 / total as f64).abs() < 1e-12,
                "width {width}"
            );
            assert_eq!(bound.max_abs_error, worst, "width {width}");
            assert_eq!(bound.max_ring_error, worst_ring, "width {width}");

            // The worst-case witness must reproduce in simulation.
            let out = Simulator::new(&approx)
                .evaluate(&bound.worst_case_inputs)
                .unwrap();
            let (approx_word, _) = ports.unpack_result(&out);
            let ref_out = Simulator::new(&exact)
                .evaluate(&bound.worst_case_inputs)
                .unwrap();
            let (exact_word, _) = ports.unpack_result(&ref_out);
            assert_eq!(approx_word.abs_diff(exact_word), worst, "width {width}");
        }
    }

    #[test]
    fn error_bound_rejects_mismatched_interfaces() {
        let (a, _) = builders::modular_adder(4);
        let (b, _) = builders::modular_adder(5);
        assert_eq!(error_bound(&a, &b), Err(ErrorBoundError::InterfaceMismatch));
    }

    #[test]
    fn packed_check_reports_lowest_counterexample_for_any_thread_count() {
        // AND vs OR differ on patterns 1 and 2; the lowest is 1
        // (a=1, b=0), which the serial loop reported first.
        let mut left = Netlist::new();
        let a = left.input("a");
        let b = left.input("b");
        let y = left.and2(a, b);
        left.mark_output(y, "y");
        let mut right = Netlist::new();
        let a = right.input("a");
        let b = right.input("b");
        let y = right.or2(a, b);
        right.mark_output(y, "y");

        for threads in [1usize, 2, 8] {
            let verdict = check_with(&left, &right, 16, 100, &Executor::with_threads(threads));
            match verdict {
                Equivalence::Counterexample { ref inputs, .. } => {
                    assert_eq!(inputs, &vec![true, false], "threads={threads}");
                }
                ref other => panic!("expected counterexample, got {other:?}"),
            }
        }
    }
}
