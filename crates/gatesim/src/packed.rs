//! Bit-parallel (word-level) simulation: 64 input patterns per gate op.
//!
//! The scalar [`Simulator`](crate::Simulator) evaluates one `&[bool]`
//! pattern per call. [`PackedSimulator`] evaluates **64 patterns at
//! once** by storing one `u64` per node in which bit `ℓ` ("lane" `ℓ`)
//! carries the node's value under the `ℓ`-th input pattern. Two-input
//! gates become single word instructions (`&`, `|`, `^`, `!`), so an
//! exhaustive sweep over an n-input circuit costs `2^n / 64` forward
//! passes instead of `2^n`.
//!
//! # Toggle identity
//!
//! Packed simulation preserves the scalar simulator's switching-activity
//! accounting *exactly*, not just its outputs. Within a word, the
//! transition of node `v` between lane `ℓ-1` and lane `ℓ` is bit `ℓ` of
//! `w ^ (w << 1)`; the transition into lane 0 comes from the last lane of
//! the previous word, carried in a per-node `last` bit. The very first
//! pattern ever evaluated is the baseline and contributes no toggle
//! (`x &= !1` on the first word), matching the scalar convention that
//! the first `evaluate` call establishes state without charging energy.
//! Consequently, feeding the same pattern sequence to [`Simulator`] one
//! at a time and to [`PackedSimulator`] 64 at a time yields *identical
//! per-node toggle counts*, and therefore identical
//! [`EnergyModel`](crate::EnergyModel) readings — a property pinned by
//! the `packed_properties` integration tests.
//!
//! # Example
//!
//! ```
//! use gatesim::{Netlist, PackedSimulator, Simulator};
//! use gatesim::packed::exhaustive_input_word;
//!
//! let mut nl = Netlist::new();
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let y = nl.xor2(a, b);
//! nl.mark_output(y, "y");
//!
//! // All four patterns of the 2-input XOR in a single packed call.
//! let mut packed = PackedSimulator::new(&nl);
//! let words = vec![exhaustive_input_word(0, 0), exhaustive_input_word(1, 0)];
//! let out = packed.evaluate_packed(&words, 4).unwrap();
//! assert_eq!(out[0], 0b0110); // 0^0, 1^0, 0^1, 1^1
//!
//! // Identical toggles to the scalar sweep over the same four patterns.
//! let mut scalar = Simulator::new(&nl);
//! for p in 0u64..4 {
//!     scalar.evaluate(&[p & 1 == 1, p >> 1 & 1 == 1]).unwrap();
//! }
//! assert_eq!(packed.toggles(), scalar.toggles());
//! ```

use crate::energy::EnergyModel;
use crate::error::SimulateError;
use crate::gate::GateKind;
use crate::netlist::Netlist;
use crate::stats::ActivityReport;
use parx::Executor;

/// Number of patterns (lanes) carried per machine word.
pub const LANES: usize = 64;

/// Bit-parallel simulator: 64 input patterns per evaluation, with
/// per-gate toggle counts identical to the scalar [`Simulator`].
///
/// [`Simulator`]: crate::Simulator
#[derive(Debug, Clone)]
pub struct PackedSimulator<'a> {
    netlist: &'a Netlist,
    words: Vec<u64>,
    last: Vec<bool>,
    toggles: Vec<u64>,
    evaluations: u64,
}

impl<'a> PackedSimulator<'a> {
    /// Create a packed simulator for the given netlist.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        Self {
            netlist,
            words: vec![0; netlist.len()],
            last: vec![false; netlist.len()],
            toggles: vec![0; netlist.len()],
            evaluations: 0,
        }
    }

    /// The netlist this simulator evaluates.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Evaluate `lanes` input patterns at once (1 ≤ `lanes` ≤ 64).
    ///
    /// `inputs[j]` carries, in bit `ℓ`, the value of primary input `j`
    /// under the `ℓ`-th pattern of this word. Returns one `u64` per
    /// primary output in declaration order, with bits above `lanes`
    /// cleared. Toggles are charged per lane-to-lane transition,
    /// continuing seamlessly from the previous call's final lane.
    ///
    /// # Errors
    /// Returns [`SimulateError::InputLengthMismatch`] if `inputs` does
    /// not hold exactly one word per primary input.
    ///
    /// # Panics
    /// Panics if `lanes` is 0 or exceeds [`LANES`].
    pub fn evaluate_packed(
        &mut self,
        inputs: &[u64],
        lanes: usize,
    ) -> Result<Vec<u64>, SimulateError> {
        assert!(
            (1..=LANES).contains(&lanes),
            "lanes must be in 1..=64, got {lanes}"
        );
        let expected = self.netlist.num_inputs();
        if inputs.len() != expected {
            return Err(SimulateError::InputLengthMismatch {
                supplied: inputs.len(),
                expected,
            });
        }
        let lane_mask = if lanes == LANES {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let first = self.evaluations == 0;
        let mut input_iter = inputs.iter().copied();
        for (idx, node) in self.netlist.nodes().iter().enumerate() {
            let word = match node.kind() {
                GateKind::Input => input_iter.next().expect("length checked above"),
                GateKind::Const0 => 0,
                GateKind::Const1 => u64::MAX,
                kind => {
                    let mut ins = [0u64; 3];
                    for (slot, dep) in ins.iter_mut().zip(node.inputs()) {
                        *slot = self.words[dep.index()];
                    }
                    eval_word(kind, ins)
                }
            };
            // Bit ℓ of `x` is the transition into lane ℓ: from lane ℓ-1
            // within the word, or from the previous word's last lane.
            let mut x = word ^ ((word << 1) | u64::from(self.last[idx]));
            if first {
                x &= !1; // the first-ever pattern is the toggle-free baseline
            }
            self.toggles[idx] += u64::from((x & lane_mask).count_ones());
            self.last[idx] = (word >> (lanes - 1)) & 1 == 1;
            self.words[idx] = word;
        }
        self.evaluations += lanes as u64;
        Ok(self
            .netlist
            .primary_outputs()
            .iter()
            .map(|(id, _)| self.words[id.index()] & lane_mask)
            .collect())
    }

    /// Number of input *patterns* evaluated so far (64 per full word) —
    /// directly comparable to the scalar simulator's
    /// [`evaluations`](crate::Simulator::evaluations) count.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Total output toggles across all nodes since construction (the
    /// first pattern is the baseline and contributes none).
    #[must_use]
    pub fn total_toggles(&self) -> u64 {
        self.toggles.iter().sum()
    }

    /// Per-node toggle counts, indexed by node id.
    #[must_use]
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Accumulated energy under `model` (dynamic switching + leakage),
    /// identical to what the scalar simulator reports for the same
    /// pattern sequence.
    #[must_use]
    pub fn energy(&self, model: &EnergyModel) -> f64 {
        model.energy(self.netlist, &self.toggles, self.evaluations)
    }

    /// Structured switching-activity report for this simulation run.
    #[must_use]
    pub fn activity_report(&self, model: &EnergyModel) -> ActivityReport {
        ActivityReport::new(self.netlist, &self.toggles, self.evaluations, model)
    }

    /// Reset values, toggle counts, and the pattern counter.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.last.fill(false);
        self.toggles.fill(0);
        self.evaluations = 0;
    }
}

/// Word-level evaluation of one gate function (lane-independent).
fn eval_word(kind: GateKind, ins: [u64; 3]) -> u64 {
    let [x, y, z] = ins;
    match kind {
        GateKind::Input => unreachable!("inputs are set by the simulator"),
        GateKind::Const0 => 0,
        GateKind::Const1 => u64::MAX,
        GateKind::Buf => x,
        GateKind::Not => !x,
        GateKind::And2 => x & y,
        GateKind::Or2 => x | y,
        GateKind::Xor2 => x ^ y,
        GateKind::Nand2 => !(x & y),
        GateKind::Nor2 => !(x | y),
        GateKind::Xnor2 => !(x ^ y),
        // (sel, a, b): y = sel ? b : a, per lane.
        GateKind::Mux2 => (x & z) | (!x & y),
        GateKind::Maj3 => (x & y) | (y & z) | (x & z),
    }
}

/// The packed word for input bit `bit` over the 64 consecutive patterns
/// `base .. base + 64`, where pattern `p` assigns input `j` the value
/// `(p >> j) & 1` (the LSB-first convention of [`equiv::check`]).
///
/// For a 64-aligned `base` the low six input bits are the fixed periodic
/// masks (`0xAAAA…`, `0xCCCC…`, …) and higher bits broadcast a single
/// bit of `base`; unaligned bases fall back to a per-lane loop.
///
/// [`equiv::check`]: crate::equiv::check
#[must_use]
pub fn exhaustive_input_word(bit: u32, base: u64) -> u64 {
    const PERIODIC: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    if base.is_multiple_of(LANES as u64) {
        if bit < 6 {
            PERIODIC[bit as usize]
        } else {
            // Broadcast bit `bit` of `base`: constant across the word.
            0u64.wrapping_sub((base >> bit) & 1)
        }
    } else {
        let mut word = 0u64;
        for lane in 0..LANES as u64 {
            if (base.wrapping_add(lane) >> bit) & 1 == 1 {
                word |= 1 << lane;
            }
        }
        word
    }
}

/// Packed input words for all `num_inputs` primary inputs over the
/// patterns `base .. base + 64` (see [`exhaustive_input_word`]).
#[must_use]
pub fn exhaustive_input_words(num_inputs: usize, base: u64) -> Vec<u64> {
    (0..num_inputs as u32)
        .map(|bit| exhaustive_input_word(bit, base))
        .collect()
}

/// Transpose up to 64 Boolean input vectors into packed words: bit `ℓ`
/// of `result[j]` is `vectors[ℓ][j]`.
///
/// # Panics
/// Panics if `vectors` is empty or holds more than [`LANES`] entries;
/// vectors shorter than `num_inputs` simply leave the high bits clear
/// (length errors surface in [`PackedSimulator::evaluate_packed`]).
#[must_use]
pub fn pack_vectors<V: AsRef<[bool]>>(vectors: &[V], num_inputs: usize) -> Vec<u64> {
    assert!(
        !vectors.is_empty() && vectors.len() <= LANES,
        "pack_vectors takes 1..=64 vectors, got {}",
        vectors.len()
    );
    let mut words = vec![0u64; num_inputs];
    for (lane, vector) in vectors.iter().enumerate() {
        for (j, &bit) in vector.as_ref().iter().take(num_inputs).enumerate() {
            words[j] |= u64::from(bit) << lane;
        }
    }
    words
}

/// Per-node toggle counts for simulating `vectors` in order — exactly
/// what the scalar [`Simulator`](crate::Simulator) would accumulate —
/// computed packed and in parallel.
///
/// The trace is split into contiguous chunks; each chunk re-evaluates
/// the vector *preceding* it as a toggle-free baseline, so every
/// adjacent-vector transition is charged exactly once and the summed
/// counts are bit-identical to a serial scalar run, for any thread
/// count (see the determinism rules in [`par`](crate::par)).
///
/// # Errors
/// Returns [`SimulateError::InputLengthMismatch`] if any vector's
/// length differs from the netlist's primary-input count.
pub fn trace_toggles<V: AsRef<[bool]> + Sync>(
    netlist: &Netlist,
    vectors: &[V],
    exec: &Executor,
) -> Result<Vec<u64>, SimulateError> {
    let expected = netlist.num_inputs();
    for vector in vectors {
        let supplied = vector.as_ref().len();
        if supplied != expected {
            return Err(SimulateError::InputLengthMismatch { supplied, expected });
        }
    }
    if vectors.is_empty() {
        return Ok(vec![0; netlist.len()]);
    }
    // Big enough to amortize per-chunk setup, small enough to balance
    // load across workers; a multiple of 64 keeps full lanes.
    const CHUNK: u64 = 4096;
    let chunks = exec.map_chunks(vectors.len() as u64, CHUNK, |start, end| {
        let mut sim = PackedSimulator::new(netlist);
        // Chunks after the first replay their predecessor vector as the
        // baseline so the transition into `start` is charged here (and
        // nowhere else).
        let lo = (start as usize).saturating_sub(1);
        let mut pos = lo;
        while pos < end as usize {
            let lanes = (end as usize - pos).min(LANES);
            let words = pack_vectors(&vectors[pos..pos + lanes], expected);
            sim.evaluate_packed(&words, lanes)
                .expect("vector lengths checked above");
            pos += lanes;
        }
        sim.toggles().to_vec()
    });
    let mut total = vec![0u64; netlist.len()];
    for chunk in chunks {
        for (acc, t) in total.iter_mut().zip(chunk) {
            *acc += t;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::sim::Simulator;

    #[test]
    fn packed_xor_truth_table() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.xor2(a, b);
        nl.mark_output(y, "y");
        let mut sim = PackedSimulator::new(&nl);
        let out = sim
            .evaluate_packed(&exhaustive_input_words(2, 0), 4)
            .unwrap();
        assert_eq!(out, vec![0b0110]);
    }

    #[test]
    fn packed_matches_scalar_on_ripple_carry_exhaustive() {
        let (nl, ports) = builders::ripple_carry_adder(4);
        let n = nl.num_inputs();
        let total = 1u64 << n;

        let mut scalar = Simulator::new(&nl);
        let mut scalar_outs = Vec::new();
        for pattern in 0..total {
            let inputs: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
            scalar_outs.push(scalar.evaluate(&inputs).unwrap());
        }

        let mut packed = PackedSimulator::new(&nl);
        let mut base = 0;
        while base < total {
            let lanes = (total - base).min(LANES as u64) as usize;
            let out = packed
                .evaluate_packed(&exhaustive_input_words(n, base), lanes)
                .unwrap();
            for lane in 0..lanes {
                let expected = &scalar_outs[(base + lane as u64) as usize];
                for (o, word) in out.iter().enumerate() {
                    assert_eq!(
                        (word >> lane) & 1 == 1,
                        expected[o],
                        "output {o}, pattern {}",
                        base + lane as u64
                    );
                }
            }
            base += lanes as u64;
        }

        assert_eq!(packed.toggles(), scalar.toggles());
        assert_eq!(packed.evaluations(), scalar.evaluations());
        let model = EnergyModel::default();
        assert_eq!(
            packed.energy(&model).to_bits(),
            scalar.energy(&model).to_bits()
        );
        // Sanity: the adder actually adds.
        let words = exhaustive_input_words(n, 0);
        let mut check = PackedSimulator::new(&nl);
        let out = check.evaluate_packed(&words, LANES).unwrap();
        for lane in 0..LANES {
            let pattern = lane as u64;
            let bits: Vec<bool> = (0..nl.num_outputs())
                .map(|o| (out[o] >> lane) & 1 == 1)
                .collect();
            let (sum, cout) = ports.unpack_result(&bits);
            let a = pattern & 0xF;
            let b = (pattern >> 4) & 0xF;
            let cin = (pattern >> 8) & 1;
            let exact = a + b + cin;
            assert_eq!(sum, exact & 0xF);
            assert_eq!(cout, exact > 0xF);
        }
    }

    #[test]
    fn partial_lanes_chain_toggles_across_words() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let y = nl.not(a);
        nl.mark_output(y, "y");

        // Alternate the input one pattern at a time across many small calls.
        let mut packed = PackedSimulator::new(&nl);
        let mut scalar = Simulator::new(&nl);
        let mut pattern = 0u64;
        for lanes in [1usize, 3, 2, 5, 64, 7] {
            let mut word = 0u64;
            for lane in 0..lanes {
                let bit = pattern % 2 == 1;
                if bit {
                    word |= 1 << lane;
                }
                scalar.evaluate(&[bit]).unwrap();
                pattern += 1;
            }
            packed.evaluate_packed(&[word], lanes).unwrap();
        }
        assert_eq!(packed.toggles(), scalar.toggles());
        assert_eq!(packed.evaluations(), scalar.evaluations());
    }

    #[test]
    fn rejects_wrong_input_count() {
        let (nl, _) = builders::ripple_carry_adder(2);
        let mut sim = PackedSimulator::new(&nl);
        let err = sim.evaluate_packed(&[0], LANES).unwrap_err();
        assert_eq!(
            err,
            SimulateError::InputLengthMismatch {
                supplied: 1,
                expected: nl.num_inputs(),
            }
        );
    }

    #[test]
    fn constants_never_toggle() {
        let mut nl = Netlist::new();
        let c1 = nl.constant(true);
        let c0 = nl.constant(false);
        let y = nl.or2(c0, c1);
        nl.mark_output(y, "y");
        let mut sim = PackedSimulator::new(&nl);
        for _ in 0..3 {
            let out = sim.evaluate_packed(&[], 64).unwrap();
            assert_eq!(out[0], u64::MAX);
        }
        assert_eq!(sim.total_toggles(), 0);
    }

    #[test]
    fn exhaustive_words_match_per_lane_definition() {
        for base in [0u64, 64, 128, 4096, 17] {
            for bit in 0..10u32 {
                let word = exhaustive_input_word(bit, base);
                for lane in 0..LANES as u64 {
                    let expected = ((base + lane) >> bit) & 1 == 1;
                    assert_eq!(
                        (word >> lane) & 1 == 1,
                        expected,
                        "bit {bit}, base {base}, lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_toggles_matches_scalar_for_any_thread_count() {
        let (nl, ports) = builders::ripple_carry_adder(6);
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut vectors = Vec::new();
        for _ in 0..300 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = state >> 10 & 0x3F;
            let b = state >> 30 & 0x3F;
            vectors.push(ports.pack_operands(a, b, state >> 60 & 1 == 1));
        }

        let mut scalar = Simulator::new(&nl);
        for v in &vectors {
            scalar.evaluate(v).unwrap();
        }

        for threads in [1, 2, 8] {
            let toggles = trace_toggles(&nl, &vectors, &Executor::with_threads(threads)).unwrap();
            assert_eq!(toggles, scalar.toggles(), "threads={threads}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let y = nl.not(a);
        nl.mark_output(y, "y");
        let mut sim = PackedSimulator::new(&nl);
        sim.evaluate_packed(&[0xAAAA], 16).unwrap();
        assert!(sim.total_toggles() > 0);
        sim.reset();
        assert_eq!(sim.total_toggles(), 0);
        assert_eq!(sim.evaluations(), 0);
    }
}
