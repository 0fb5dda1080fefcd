//! Gate-level combinational netlist simulator with a switching-activity
//! energy model.
//!
//! This crate is the hardware substrate of the ApproxIt reproduction: every
//! approximate adder evaluated by the framework exists as a real gate
//! netlist built from this crate's primitives, and every energy number the
//! benchmark harness reports is derived from the switching activity of such
//! a netlist under a CMOS-style switched-capacitance model (after Weste &
//! Harris, *CMOS VLSI Design*).
//!
//! # Architecture
//!
//! * [`Netlist`] — an append-only DAG of logic gates. Because a gate can
//!   only reference already-created nodes, insertion order is a topological
//!   order and evaluation is a single forward sweep.
//! * [`Simulator`] — evaluates a netlist on Boolean input vectors and
//!   counts per-gate output toggles across consecutive evaluations.
//! * [`PackedSimulator`] — the bit-parallel backend: 64 input patterns
//!   per `u64` word per gate, output- and toggle-identical to
//!   [`Simulator`], used by every exhaustive sweep in the workspace.
//! * [`parx::Executor`] — the deterministic scoped-thread executor of
//!   the shared `parx` crate; all parallel sweeps (equivalence checks,
//!   fault campaigns, energy traces) are bit-identical to serial runs.
//! * [`EnergyModel`] — maps toggle counts to (relative) dynamic energy and
//!   adds a leakage term, using per-gate capacitances proportional to
//!   transistor counts.
//! * [`builders`] — reusable structural generators (full adders,
//!   ripple-carry chains, multiplexers) used by higher-level crates to
//!   assemble approximate arithmetic units.
//!
//! # Example
//!
//! Build a 1-bit full adder, simulate it, and measure its switching energy:
//!
//! ```
//! use gatesim::{Netlist, Simulator, EnergyModel};
//!
//! # fn main() -> Result<(), gatesim::SimulateError> {
//! let mut nl = Netlist::new();
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let cin = nl.input("cin");
//! let (sum, cout) = gatesim::builders::full_adder(&mut nl, a, b, cin);
//! nl.mark_output(sum, "sum");
//! nl.mark_output(cout, "cout");
//!
//! let mut sim = Simulator::new(&nl);
//! let out = sim.evaluate(&[true, true, false])?; // 1 + 1 + 0
//! assert_eq!(out, vec![false, true]);            // sum = 0, carry = 1
//!
//! let out = sim.evaluate(&[true, false, false])?; // 1 + 0 + 0
//! assert_eq!(out, vec![true, false]);
//!
//! let energy = sim.energy(&EnergyModel::default());
//! assert!(energy > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy;
mod error;
mod gate;
mod netlist;
mod sim;

pub mod bdd;
pub mod builders;
pub mod dot;
pub mod equiv;
pub mod fault;
pub mod lint;
pub mod optimize;
pub mod packed;
pub mod stats;
pub mod timing;

pub use energy::EnergyModel;
pub use equiv::Equivalence;
pub use error::{BuildNetlistError, SimulateError};
pub use fault::{CampaignRow, ErrorStats, FaultCampaign, FaultySimulator, StructuralFault};
pub use gate::GateKind;
pub use lint::{LintConfig, LintDiagnostic, LintPass, LintReport, Severity};
pub use netlist::{Netlist, Node, NodeId};
pub use packed::PackedSimulator;
pub use sim::Simulator;
pub use stats::ActivityReport;
