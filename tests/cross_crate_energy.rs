//! Energy accounting consistency across the stack: gate-level
//! measurement → per-op profile → context meters → run reports.

use approx_arith::{characterize_adder_energy, QcsAdder, RippleCarryAdder};
use approxit::prelude::*;
use gatesim::EnergyModel;
use iter_solvers::datasets::gaussian_blobs;
use iter_solvers::GaussianMixture;

#[test]
fn measured_profile_orders_levels_like_the_gate_counts() {
    let qcs = QcsAdder::paper_default();
    let profile = EnergyProfile::characterize(&qcs, 256, 1, &EnergyModel::default());
    let rel = profile.relative_add_energies();
    for pair in rel.windows(2) {
        assert!(pair[0] < pair[1], "relative energies not monotone: {rel:?}");
    }
    // The paper's per-level power ratios run roughly 0.46..0.93; our
    // measured truncation family must land in the same regime.
    assert!(rel[0] > 0.15 && rel[0] < 0.75, "level1 ratio {}", rel[0]);
    assert!(rel[3] > 0.75 && rel[3] < 1.0, "level4 ratio {}", rel[3]);
}

#[test]
fn netlist_energy_scales_with_width() {
    let model = EnergyModel::default();
    let e16 = characterize_adder_energy(&RippleCarryAdder::new(16), 128, 3, &model);
    let e32 = characterize_adder_energy(&RippleCarryAdder::new(32), 128, 3, &model);
    let e64 = characterize_adder_energy(&RippleCarryAdder::new(64), 128, 3, &model);
    assert!(e16 < e32 && e32 < e64);
    // Roughly linear in width.
    let ratio = e64 / e16;
    assert!(ratio > 2.5 && ratio < 6.0, "width scaling ratio {ratio}");
}

#[test]
fn context_meter_equals_ops_times_profile() {
    let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
    let mut ctx = QcsContext::with_profile(profile);
    ctx.set_level(AccuracyLevel::Level3);
    for i in 0..100 {
        ctx.add(f64::from(i), 0.5);
    }
    assert!((ctx.approx_energy() - 300.0).abs() < 1e-9);
    ctx.set_level(AccuracyLevel::Accurate);
    for _ in 0..10 {
        ctx.add(1.0, 1.0);
    }
    assert!((ctx.approx_energy() - 350.0).abs() < 1e-9);
}

#[test]
fn run_report_energy_matches_context_accounting() {
    let data = gaussian_blobs(
        "energy",
        &[40, 40],
        &[vec![0.0, 0.0], vec![6.0, 5.0]],
        &[0.9, 0.9],
        3,
    );
    let gmm = GaussianMixture::from_dataset(&data, 1e-7, 200, 5);
    let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
    let mut ctx = QcsContext::with_profile(profile.clone());
    let outcome = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
    let report = &outcome.report;

    // Energy per iteration sums to the total.
    let sum: f64 = report.energy_per_iteration.iter().sum();
    assert!((sum - report.approx_energy).abs() < 1e-9 * report.approx_energy.max(1.0));

    // Every add cost exactly the accurate-mode energy.
    let expected = report.op_counts.adds as f64 * profile.add_energy(AccuracyLevel::Accurate);
    assert!(
        (report.approx_energy - expected).abs() < 1e-9 * expected,
        "approx energy {} vs adds*per-op {}",
        report.approx_energy,
        expected
    );
}

#[test]
fn truncated_modes_toggle_less_in_the_netlist() {
    // The energy ordering is *measured*, not asserted: simulate the
    // level-1 and accurate netlists on the same operand stream and
    // compare switching activity.
    let qcs = QcsAdder::paper_default();
    let model = EnergyModel::default();
    let cheap = characterize_adder_energy(&qcs.at(AccuracyLevel::Level1), 256, 9, &model);
    let exact = characterize_adder_energy(&qcs.at(AccuracyLevel::Accurate), 256, 9, &model);
    assert!(cheap < 0.75 * exact, "cheap {cheap} vs exact {exact}");
}

#[test]
fn trace_driven_energy_is_cheaper_than_uniform_for_small_operands() {
    // Application operands exercise far fewer bits than uniform noise,
    // so trace-driven characterization reports lower energy.
    let adder = RippleCarryAdder::new(32);
    let model = EnergyModel::default();
    let uniform = characterize_adder_energy(&adder, 256, 11, &model);
    let trace: Vec<(u64, u64)> = (0..256u64).map(|i| (i % 17, i % 13)).collect();
    let traced = approx_arith::characterize_adder_energy_on_trace(&adder, &trace, &model);
    assert!(traced < uniform, "traced {traced} vs uniform {uniform}");
}
