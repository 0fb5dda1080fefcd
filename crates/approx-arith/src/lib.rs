//! Approximate arithmetic for the ApproxIt reproduction: adder
//! architectures (exact and approximate), fixed-point formats, error
//! metrics, measured per-operation energy, and the energy-accounting
//! [`ArithContext`] that applications route their error-resilient
//! datapath through.
//!
//! Every adder exists twice — as a fast bit-parallel functional model and
//! as a [`gatesim`] netlist — and the test suite enforces bit-exact
//! agreement between the two. Energy constants are *measured* from the
//! netlists' switching activity, never asserted.
//!
//! # Quick tour
//!
//! ```
//! use approx_arith::{
//!     AccuracyLevel, Adder, ArithContext, QcsAdder, QcsContext,
//! };
//!
//! // The quality-configurable adder the framework reconfigures at runtime:
//! let qcs = QcsAdder::paper_default();
//! assert_eq!(qcs.add(100, 200, AccuracyLevel::Accurate), 300);
//!
//! // The datapath view applications use:
//! let mut ctx = QcsContext::with_paper_defaults();
//! ctx.set_level(AccuracyLevel::Level4);
//! let y = ctx.add(1.5, 2.5);
//! assert!((y - 4.0).abs() < 0.01); // level 4 is nearly exact
//! assert!(ctx.approx_energy() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aca;
mod adder;
mod context;
mod energy;
mod error_metrics;
mod eta;
mod exact;
mod fault;
mod fixed;
mod gear;
mod loa;
mod multiplier;
mod operand;
mod prefix;
mod recon;
mod trunc;

pub mod errorprop;
pub mod range;
pub mod rng;

pub use aca::WindowedCarryAdder;
pub use adder::{width_mask, AccuracyLevel, Adder};
pub use context::{endorse, ArithContext, ExactContext, OpCounts, QcsContext, ScalarPath};
pub use energy::{characterize_adder_energy, characterize_adder_energy_on_trace, EnergyProfile};
pub use error_metrics::{
    bit_error_rates, characterize_exhaustive, characterize_monte_carlo, characterize_trace,
    error_histogram, ErrorStats,
};
pub use errorprop::{propagate_error, ErrorPropReport, ErrorRecurrence};
pub use eta::EtaIiAdder;
pub use exact::RippleCarryAdder;
pub use fault::{FaultInjector, FaultModel, FaultTargets};
pub use fixed::{QFormat, RawConverter};
pub use gear::GeArAdder;
pub use loa::LowerOrAdder;
pub use multiplier::ArrayMultiplier;
pub use operand::Operand;
pub use prefix::KoggeStoneAdder;
pub use range::{ExprId, Interval, RangeConfig, RangeGraph, RangeReport, RangeVerdict};
pub use recon::{LowPartPolicy, QcsAdder, QcsModeAdder};
pub use trunc::LowerZeroAdder;

#[cfg(test)]
pub(crate) mod test_util {
    use gatesim::Simulator;

    use crate::adder::Adder;
    use crate::rng::Pcg32;

    /// Assert that an adder's netlist agrees bit-exactly with its
    /// functional model over `samples` random operand pairs (plus a few
    /// corner cases).
    pub(crate) fn assert_netlist_matches(adder: &dyn Adder, samples: u64) {
        let (netlist, ports) = adder.netlist();
        netlist.validate().expect("builder netlists are valid");
        let mut sim = Simulator::new(&netlist);
        let mask = adder.mask();
        let mut check = |a: u64, b: u64| {
            let out = sim
                .evaluate(&ports.pack_operands(a, b, false))
                .expect("ports match their own netlist");
            let (got, _) = ports.unpack_result(&out);
            let want = adder.add(a, b);
            assert_eq!(
                got,
                want,
                "{}: netlist {got:#x} != functional {want:#x} for a={a:#x} b={b:#x}",
                adder.name()
            );
        };
        check(0, 0);
        check(mask, mask);
        check(mask, 1);
        check(1, mask);
        let mut rng = Pcg32::seeded(0xDECAF, 0);
        for _ in 0..samples {
            check(rng.next_u64() & mask, rng.next_u64() & mask);
        }
    }
}
