//! Structural fault models and fault-injection simulation.
//!
//! Approximate hardware is routinely co-designed with fault tolerance:
//! voltage overscaling, particle strikes, and manufacturing defects all
//! manifest at the netlist level before they become numeric error. This
//! module models the three classic structural fault classes on top of the
//! existing [`Simulator`] infrastructure:
//!
//! * **Stuck-at faults** — a net is tied to a constant 0 or 1, modelling
//!   shorts and opens found by manufacturing test.
//! * **Transient faults** — a net flips with some per-evaluation
//!   probability, modelling single-event upsets (SEUs) from particle
//!   strikes or supply noise.
//! * **Timing-overscaling faults** — the clock period is set below a
//!   node's STA arrival time (see [`DelayModel`]), so the node's
//!   register captures the *previous* evaluation's value. This is the
//!   fault mechanism that voltage/frequency overscaling trades against
//!   energy, and it reuses the crate's own static timing analysis to
//!   decide which nodes miss timing.
//!
//! [`FaultCampaign`] sweeps these fault models over an adder netlist and
//! reports numeric error-magnitude statistics, which is what the
//! ApproxIt runtime layer consumes to calibrate its watchdog thresholds.
//!
//! # Example
//!
//! ```
//! use gatesim::builders;
//! use gatesim::fault::{FaultCampaign, StructuralFault};
//!
//! let (nl, ports) = builders::ripple_carry_adder(8);
//! let campaign = FaultCampaign::new(&nl, &ports).vectors(64).seed(7);
//! // Stuck-at-1 on the carry-in of bit 4 corrupts roughly half of all sums.
//! let site = nl.primary_inputs()[3];
//! let stats = campaign.run(&[StructuralFault::stuck_at(site, true)]);
//! assert!(stats.error_rate() > 0.0);
//! ```

use crate::builders::AdderPorts;
use crate::gate::GateKind;
use crate::netlist::{Netlist, NodeId};
use crate::sim::Simulator;
use crate::timing::DelayModel;
use parx::Executor;

/// Minimal deterministic generator (SplitMix64) for fault sampling.
///
/// `gatesim` sits below the arithmetic crates and cannot borrow their
/// PCG stream, so it carries its own tiny generator; campaigns seeded
/// identically replay identical fault schedules.
#[derive(Debug, Clone)]
struct FaultRng(u64);

impl FaultRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One structural fault at the netlist level.
#[derive(Debug, Clone, PartialEq)]
pub enum StructuralFault {
    /// The node's output is tied to a constant.
    StuckAt {
        /// The faulty net.
        node: NodeId,
        /// The constant the net is tied to.
        value: bool,
    },
    /// The node's output flips with probability `rate` per evaluation.
    Transient {
        /// The faulty net.
        node: NodeId,
        /// Per-evaluation flip probability in `[0, 1]`.
        rate: f64,
    },
    /// Every node whose STA arrival time exceeds `clock_period` captures
    /// the previous evaluation's value instead of the new one.
    TimingOverscale {
        /// The overscaled clock period, in [`DelayModel`] units.
        clock_period: f64,
    },
}

impl StructuralFault {
    /// Convenience constructor for a stuck-at fault.
    #[must_use]
    pub fn stuck_at(node: NodeId, value: bool) -> Self {
        Self::StuckAt { node, value }
    }

    /// Convenience constructor for a transient (SEU) fault.
    ///
    /// # Panics
    /// Panics if `rate` is not a probability.
    #[must_use]
    pub fn transient(node: NodeId, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        Self::Transient { node, rate }
    }
}

/// A simulator that evaluates a netlist under a set of structural faults.
///
/// Fault application order per node: timing staleness first (the value the
/// register captured), then a possible transient flip, then stuck-at — a
/// hard short dominates everything upstream of it.
#[derive(Debug, Clone)]
pub struct FaultySimulator<'a> {
    netlist: &'a Netlist,
    stuck_at: Vec<Option<bool>>,
    transient_rate: Vec<f64>,
    /// Nodes that miss timing under the configured clock period.
    misses_timing: Vec<bool>,
    values: Vec<bool>,
    evaluations: u64,
    rng: FaultRng,
    faults_fired: u64,
}

impl<'a> FaultySimulator<'a> {
    /// Build a faulty simulator from a fault list. Timing faults are
    /// resolved against `delay_model` once, up front.
    ///
    /// # Panics
    /// Panics if a fault names a node outside the netlist or a transient
    /// rate is not a probability.
    #[must_use]
    pub fn new(
        netlist: &'a Netlist,
        faults: &[StructuralFault],
        delay_model: &DelayModel,
        seed: u64,
    ) -> Self {
        let n = netlist.len();
        let mut stuck_at = vec![None; n];
        let mut transient_rate = vec![0.0; n];
        let mut misses_timing = vec![false; n];
        for fault in faults {
            match *fault {
                StructuralFault::StuckAt { node, value } => {
                    assert!(node.index() < n, "stuck-at node outside netlist");
                    stuck_at[node.index()] = Some(value);
                }
                StructuralFault::Transient { node, rate } => {
                    assert!(node.index() < n, "transient node outside netlist");
                    assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
                    transient_rate[node.index()] = rate;
                }
                StructuralFault::TimingOverscale { clock_period } => {
                    let arrival = delay_model.arrival_times(netlist);
                    for (slot, t) in misses_timing.iter_mut().zip(&arrival) {
                        *slot = *slot || *t > clock_period;
                    }
                }
            }
        }
        Self {
            netlist,
            stuck_at,
            transient_rate,
            misses_timing,
            values: vec![false; n],
            evaluations: 0,
            rng: FaultRng(seed),
            faults_fired: 0,
        }
    }

    /// Evaluate under the configured faults and return the primary
    /// outputs in declaration order.
    ///
    /// # Errors
    /// Returns [`crate::SimulateError::InputLengthMismatch`] if `inputs`
    /// does not have exactly one value per primary input.
    pub fn evaluate(&mut self, inputs: &[bool]) -> Result<Vec<bool>, crate::SimulateError> {
        let expected = self.netlist.num_inputs();
        if inputs.len() != expected {
            return Err(crate::SimulateError::InputLengthMismatch {
                supplied: inputs.len(),
                expected,
            });
        }
        let mut input_iter = inputs.iter().copied();
        for (idx, node) in self.netlist.nodes().iter().enumerate() {
            let mut new = match node.kind() {
                GateKind::Input => input_iter.next().expect("length checked above"),
                kind => {
                    let mut ins = [false; 3];
                    for (slot, dep) in ins.iter_mut().zip(node.inputs()) {
                        *slot = self.values[dep.index()];
                    }
                    kind.eval(ins)
                }
            };
            // A node that misses timing latches the previous evaluation's
            // value (power-on state `false` before the first evaluation).
            if self.misses_timing[idx] {
                let stale = self.values[idx];
                if stale != new {
                    self.faults_fired += 1;
                }
                new = stale;
            }
            let rate = self.transient_rate[idx];
            if rate > 0.0 && self.rng.next_f64() < rate {
                new = !new;
                self.faults_fired += 1;
            }
            if let Some(forced) = self.stuck_at[idx] {
                if forced != new {
                    self.faults_fired += 1;
                }
                new = forced;
            }
            self.values[idx] = new;
        }
        self.evaluations += 1;
        Ok(self
            .netlist
            .primary_outputs()
            .iter()
            .map(|(id, _)| self.values[id.index()])
            .collect())
    }

    /// Number of `evaluate` calls so far.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// How many times a fault actually changed a node value (a stuck-at
    /// that agrees with the fault-free value does not count).
    #[must_use]
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired
    }
}

/// Numeric error statistics from comparing faulty against fault-free
/// evaluations of the same adder.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorStats {
    /// Input vectors evaluated.
    pub evaluations: u64,
    /// Vectors whose faulty sum differed from the clean sum.
    pub mismatches: u64,
    /// Mean of `|faulty − clean|` over all vectors.
    pub mean_abs_error: f64,
    /// Largest `|faulty − clean|` observed.
    pub max_abs_error: f64,
    /// Structural fault events that fired inside the simulator.
    pub faults_fired: u64,
}

impl ErrorStats {
    /// Fraction of vectors with a wrong sum.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.mismatches as f64 / self.evaluations as f64
        }
    }
}

/// One row of a campaign sweep: a fault configuration and its measured
/// numeric impact.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Human-readable description of the injected fault set.
    pub label: String,
    /// Measured error statistics.
    pub stats: ErrorStats,
}

/// Sweeps structural faults over an adder netlist, comparing each faulty
/// configuration against the fault-free reference on a shared random
/// operand stream.
///
/// Sweep rows are independent by construction — every row re-derives its
/// operand and fault RNG streams from the campaign seed — so the
/// `sweep_*` methods fan rows out across an [`Executor`] and the results
/// are bit-identical for any thread count.
#[derive(Debug, Clone)]
pub struct FaultCampaign<'a> {
    netlist: &'a Netlist,
    ports: &'a AdderPorts,
    delay_model: DelayModel,
    vectors: usize,
    seed: u64,
    executor: Executor,
}

impl<'a> FaultCampaign<'a> {
    /// Create a campaign over `netlist` with the default delay model,
    /// 256 vectors per configuration, seed 0, and a machine-sized
    /// executor for the sweeps.
    #[must_use]
    pub fn new(netlist: &'a Netlist, ports: &'a AdderPorts) -> Self {
        Self {
            netlist,
            ports,
            delay_model: DelayModel::default(),
            vectors: 256,
            seed: 0,
            executor: Executor::new(),
        }
    }

    /// Set the executor used to parallelize the `sweep_*` methods.
    #[must_use]
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Set the number of operand vectors per fault configuration.
    #[must_use]
    pub fn vectors(mut self, vectors: usize) -> Self {
        self.vectors = vectors;
        self
    }

    /// Set the operand/fault sampling seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the delay model used to resolve timing-overscaling faults.
    #[must_use]
    pub fn delay_model(mut self, model: DelayModel) -> Self {
        self.delay_model = model;
        self
    }

    /// Measure one fault configuration against the fault-free reference.
    #[must_use]
    pub fn run(&self, faults: &[StructuralFault]) -> ErrorStats {
        let width = self.ports.width();
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut operands = FaultRng(self.seed ^ 0xA0_0F5E7);
        let mut clean = Simulator::new(self.netlist);
        let mut faulty = FaultySimulator::new(self.netlist, faults, &self.delay_model, self.seed);
        let mut stats = ErrorStats::default();
        let mut abs_sum = 0.0f64;
        for _ in 0..self.vectors {
            let a = operands.next_u64() & mask;
            let b = operands.next_u64() & mask;
            let inputs = self.ports.pack_operands(a, b, false);
            let clean_out = clean.evaluate(&inputs).expect("ports match netlist");
            let faulty_out = faulty.evaluate(&inputs).expect("ports match netlist");
            let (clean_sum, clean_cout) = self.ports.unpack_result(&clean_out);
            let (faulty_sum, faulty_cout) = self.ports.unpack_result(&faulty_out);
            let clean_full = u128::from(clean_sum) | (u128::from(clean_cout) << width);
            let faulty_full = u128::from(faulty_sum) | (u128::from(faulty_cout) << width);
            let abs_err = clean_full.abs_diff(faulty_full) as f64;
            stats.evaluations += 1;
            if abs_err > 0.0 {
                stats.mismatches += 1;
            }
            abs_sum += abs_err;
            stats.max_abs_error = stats.max_abs_error.max(abs_err);
        }
        if stats.evaluations > 0 {
            stats.mean_abs_error = abs_sum / stats.evaluations as f64;
        }
        stats.faults_fired = faulty.faults_fired();
        stats
    }

    /// Stuck-at sweep: one row per (site, polarity) over the given sites,
    /// rows measured in parallel.
    #[must_use]
    pub fn sweep_stuck_at(&self, sites: &[NodeId]) -> Vec<CampaignRow> {
        let configs: Vec<(NodeId, bool)> = sites
            .iter()
            .flat_map(|&site| [(site, false), (site, true)])
            .collect();
        self.executor.run_indexed(configs.len(), |i| {
            let (site, value) = configs[i];
            CampaignRow {
                label: format!("stuck-at-{}@n{}", u8::from(value), site.index()),
                stats: self.run(&[StructuralFault::stuck_at(site, value)]),
            }
        })
    }

    /// Transient sweep: every non-input node flips at each of the given
    /// rates.
    #[must_use]
    pub fn sweep_transient(&self, rates: &[f64]) -> Vec<CampaignRow> {
        let gate_nodes: Vec<NodeId> = self
            .netlist
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, node)| {
                !matches!(
                    node.kind(),
                    GateKind::Input | GateKind::Const0 | GateKind::Const1
                )
            })
            .map(|(idx, _)| NodeId(u32::try_from(idx).expect("netlist fits u32")))
            .collect();
        self.executor.run_indexed(rates.len(), |i| {
            let rate = rates[i];
            let faults: Vec<StructuralFault> = gate_nodes
                .iter()
                .map(|&node| StructuralFault::transient(node, rate))
                .collect();
            CampaignRow {
                label: format!("transient@rate={rate:.0e}"),
                stats: self.run(&faults),
            }
        })
    }

    /// Timing-overscaling sweep: clock period set to each fraction of the
    /// netlist's own STA critical path.
    #[must_use]
    pub fn sweep_timing(&self, period_fractions: &[f64]) -> Vec<CampaignRow> {
        let critical = self.delay_model.critical_path(self.netlist);
        self.executor.run_indexed(period_fractions.len(), |i| {
            let frac = period_fractions[i];
            let clock_period = critical * frac;
            CampaignRow {
                label: format!("clock@{:.0}%", frac * 100.0),
                stats: self.run(&[StructuralFault::TimingOverscale { clock_period }]),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn campaign_fixture() -> (Netlist, AdderPorts) {
        builders::ripple_carry_adder(16)
    }

    #[test]
    fn no_faults_means_no_error() {
        let (nl, ports) = campaign_fixture();
        let stats = FaultCampaign::new(&nl, &ports).vectors(64).run(&[]);
        assert_eq!(stats.mismatches, 0);
        assert_eq!(stats.faults_fired, 0);
        assert_eq!(stats.error_rate(), 0.0);
        assert_eq!(stats.max_abs_error, 0.0);
    }

    #[test]
    fn stuck_at_on_an_input_bit_bounds_error_by_bit_weight() {
        let (nl, ports) = campaign_fixture();
        let campaign = FaultCampaign::new(&nl, &ports).vectors(128);
        // Stuck-at on input bit k of operand a changes the sum by at most
        // 2^k (carry effects can only propagate the same magnitude).
        for (k, &site) in ports.a_bits().iter().enumerate().take(4) {
            for value in [false, true] {
                let stats = campaign.run(&[StructuralFault::stuck_at(site, value)]);
                assert!(
                    stats.max_abs_error <= (1u64 << k) as f64,
                    "bit {k} stuck-at-{value}: error {} exceeds weight",
                    stats.max_abs_error
                );
            }
        }
    }

    #[test]
    fn transient_rate_one_always_fires() {
        let (nl, ports) = campaign_fixture();
        let campaign = FaultCampaign::new(&nl, &ports).vectors(32);
        // Flip the LSB sum output on every evaluation: every vector is
        // off by exactly 1.
        let lsb = nl.primary_outputs()[0].0;
        let stats = campaign.run(&[StructuralFault::transient(lsb, 1.0)]);
        assert_eq!(stats.mismatches, stats.evaluations);
        assert_eq!(stats.max_abs_error, 1.0);
        assert_eq!(stats.faults_fired, stats.evaluations);
    }

    #[test]
    fn transient_error_rate_grows_with_rate() {
        let (nl, ports) = campaign_fixture();
        let campaign = FaultCampaign::new(&nl, &ports).vectors(256).seed(3);
        let rows = campaign.sweep_transient(&[1e-4, 1e-2, 1e-1]);
        assert!(rows[0].stats.error_rate() <= rows[2].stats.error_rate());
        assert!(rows[2].stats.error_rate() > 0.0);
    }

    #[test]
    fn generous_clock_produces_no_timing_faults() {
        let (nl, ports) = campaign_fixture();
        let campaign = FaultCampaign::new(&nl, &ports).vectors(64);
        let rows = campaign.sweep_timing(&[1.0, 0.25]);
        // At 100 % of the critical path every node meets timing.
        assert_eq!(rows[0].stats.mismatches, 0);
        // At 25 % the upper carry chain misses timing and errors appear.
        assert!(rows[1].stats.error_rate() > 0.0);
        assert!(rows[1].stats.faults_fired > 0);
    }

    #[test]
    fn identical_seeds_replay_identical_campaigns() {
        let (nl, ports) = campaign_fixture();
        let a = FaultCampaign::new(&nl, &ports).vectors(64).seed(9);
        let b = FaultCampaign::new(&nl, &ports).vectors(64).seed(9);
        let lsb = nl.primary_outputs()[0].0;
        let faults = [StructuralFault::transient(lsb, 0.3)];
        assert_eq!(a.run(&faults), b.run(&faults));
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        let (nl, ports) = campaign_fixture();
        let serial = FaultCampaign::new(&nl, &ports)
            .vectors(48)
            .seed(11)
            .executor(Executor::with_threads(1));
        let parallel = FaultCampaign::new(&nl, &ports)
            .vectors(48)
            .seed(11)
            .executor(Executor::with_threads(8));
        let sites = &ports.a_bits()[..3];
        assert_eq!(serial.sweep_stuck_at(sites), parallel.sweep_stuck_at(sites));
        let rates = [1e-3, 1e-2, 1e-1];
        assert_eq!(
            serial.sweep_transient(&rates),
            parallel.sweep_transient(&rates)
        );
        let fracs = [1.0, 0.5, 0.25];
        assert_eq!(serial.sweep_timing(&fracs), parallel.sweep_timing(&fracs));
    }

    #[test]
    fn stuck_at_sweep_labels_sites() {
        let (nl, ports) = campaign_fixture();
        let campaign = FaultCampaign::new(&nl, &ports).vectors(16);
        let rows = campaign.sweep_stuck_at(&ports.a_bits()[..2]);
        assert_eq!(rows.len(), 4);
        assert!(rows[0].label.starts_with("stuck-at-0@"));
        assert!(rows[1].label.starts_with("stuck-at-1@"));
    }
}
