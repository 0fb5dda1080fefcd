//! Adder architecture survey: the design space the QCS adder was picked
//! from, quantified on three axes — accuracy (Monte-Carlo error
//! metrics), energy (switching activity of the gate netlist), and delay
//! (critical path under the standard-cell delay model).
//!
//! This is the kind of table an approximate-arithmetic paper (e.g. the
//! paper's refs [5, 11–14]) reports for its building blocks.

use approx_arith::rng::Pcg32;
use approx_arith::{
    characterize_adder_energy, characterize_monte_carlo, Adder, EtaIiAdder, GeArAdder,
    KoggeStoneAdder, LowerOrAdder, LowerZeroAdder, RippleCarryAdder, WindowedCarryAdder,
};
use approxit_bench::render::{fmt_value, render_table};
use gatesim::timing::DelayModel;
use gatesim::EnergyModel;

/// The survey table with Monte-Carlo operands drawn from `seed`, then
/// the optimizer's effect on each QCS mode.
pub fn run(seed: u64) {
    let width = 32u32;
    let adders: Vec<Box<dyn Adder>> = vec![
        Box::new(RippleCarryAdder::new(width)),
        Box::new(KoggeStoneAdder::new(width)),
        Box::new(LowerZeroAdder::new(width, 5)),
        Box::new(LowerZeroAdder::new(width, 10)),
        Box::new(LowerZeroAdder::new(width, 15)),
        Box::new(LowerZeroAdder::new(width, 20)),
        Box::new(LowerOrAdder::new(width, 10, false)),
        Box::new(LowerOrAdder::new(width, 10, true)),
        Box::new(EtaIiAdder::new(width, 8)),
        Box::new(EtaIiAdder::new(width, 4)),
        Box::new(WindowedCarryAdder::new(width, 8)),
        Box::new(GeArAdder::new(width, 4, 4)),
        Box::new(GeArAdder::new(width, 8, 4)),
        Box::new(GeArAdder::new(width, 2, 6)),
    ];

    let energy_model = EnergyModel::default();
    let delay_model = DelayModel::default();
    let samples = 4000;

    println!("Adder architecture survey ({width}-bit, {samples} Monte-Carlo samples)\n");
    let baseline_energy =
        characterize_adder_energy(&RippleCarryAdder::new(width), 512, 0xCAFE, &energy_model);
    let baseline_delay = {
        let (nl, _) = RippleCarryAdder::new(width).netlist();
        delay_model.critical_path(&nl)
    };

    let mut rows = Vec::new();
    for adder in &adders {
        let mut rng = Pcg32::seeded(seed, 1);
        let stats = characterize_monte_carlo(adder.as_ref(), samples, &mut rng);
        let energy = characterize_adder_energy(adder.as_ref(), 512, 0xCAFE, &energy_model);
        let (nl, _) = adder.netlist();
        let delay = delay_model.critical_path(&nl);
        rows.push(vec![
            adder.name(),
            format!("{:.3}", stats.error_rate),
            fmt_value(stats.mean_error_distance),
            fmt_value(stats.normalized_med),
            fmt_value(stats.mean_relative_error),
            format!("{:.3}", energy / baseline_energy),
            format!("{:.3}", delay / baseline_delay),
            format!("{}", nl.transistor_count()),
            format!("{}", DelayModel::logic_depth(&nl)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Adder",
                "ER",
                "MED",
                "NMED",
                "MRED",
                "Energy",
                "Delay",
                "Transistors",
                "Depth",
            ],
            &rows,
        )
    );
    println!(
        "Energy and Delay are normalized to the exact ripple-carry adder \
         (energy {baseline_energy:.1}, delay {baseline_delay:.1})."
    );

    optimizer_effect();
}

/// Logic-optimization effect on each QCS mode's netlist: constant
/// folding strips the tied-to-zero low bits a naive truncation netlist
/// carries, confirming the hand-built netlists are already minimal.
fn optimizer_effect() {
    use approx_arith::{AccuracyLevel, QcsAdder};
    use gatesim::optimize::optimize;

    println!("\nNetlist optimization effect on the QCS adder modes\n");
    let qcs = QcsAdder::paper_default();
    let mut rows = Vec::new();
    for level in AccuracyLevel::ALL {
        let (nl, _) = qcs.at(level).netlist();
        let report = optimize(&nl);
        rows.push(vec![
            format!("qcs32/{level}"),
            nl.len().to_string(),
            report.netlist.len().to_string(),
            report.folded.to_string(),
            report.dead.to_string(),
            nl.transistor_count().to_string(),
            report.netlist.transistor_count().to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Mode",
                "Nodes",
                "Optimized",
                "Folded",
                "Dead",
                "Transistors",
                "OptTransistors",
            ],
            &rows,
        )
    );
}
