//! Figures 3 and 4: GMM clustering per single mode, and GMM energy.

use std::collections::BTreeSet;
use std::fs;
use std::io::Write as _;

use approx_arith::{AccuracyLevel, QcsContext};
use approxit::{characterize, SingleMode};
use approxit_bench::cli::BenchOpts;
use approxit_bench::render::{ascii_scatter, fmt_value, render_table};
use approxit_bench::{against_truth, gmm_specs, shared_profile};

use crate::{approxit_strategies, level_label, named};

/// Figure 3: the hard assignments on `3cluster` under each single mode.
///
/// Prints an ASCII scatter per mode (the paper shows five scatter
/// panels) and writes per-mode assignment CSVs to `target/fig3/` for
/// external plotting.
pub fn fig3(opts: &BenchOpts) {
    let spec = &gmm_specs()[0]; // 3cluster
    let gmm = spec.model();
    let out_dir = std::path::Path::new("target/fig3");
    fs::create_dir_all(out_dir).expect("create output directory");

    opts.say(&format!(
        "Figure 3: GMM single-mode clustering on {}\n",
        spec.name()
    ));
    // Panels in the paper's order: Truth, level4, level3, level2, level1.
    let panels = [
        AccuracyLevel::Accurate,
        AccuracyLevel::Level4,
        AccuracyLevel::Level3,
        AccuracyLevel::Level2,
        AccuracyLevel::Level1,
    ];
    let strategies = panels[1..]
        .iter()
        .map(|&level| named(level.to_string(), SingleMode::new(level)))
        .collect();
    let mut ctx = QcsContext::with_profile(shared_profile().clone());
    let runs = against_truth(&gmm, &mut ctx, strategies, |_, _| 0.0);
    for (level, run) in panels.into_iter().zip(runs) {
        let labels = gmm.assignments(&run.outcome.state);
        let distinct = labels.iter().collect::<BTreeSet<_>>().len();
        opts.say(&format!(
            "--- {} ({} iterations, {} clusters populated) ---",
            level_label(level),
            run.outcome.report.iterations,
            distinct,
        ));
        opts.say(&format!(
            "{}\n",
            ascii_scatter(&spec.dataset.points, &labels, 72, 24)
        ));

        let path = out_dir.join(format!("assignments_{level}.csv"));
        let mut file = fs::File::create(&path).expect("create csv");
        writeln!(file, "x,y,cluster").expect("write header");
        for (p, l) in spec.dataset.points.iter().zip(&labels) {
            writeln!(file, "{},{},{}", p[0], p[1], l).expect("write row");
        }
        opts.say(&format!("(wrote {})\n", path.display()));
    }
}

/// Figure 4: for each GMM dataset, the total approximate-part energy and
/// the per-iteration energy (both normalized to Truth) of the Truth,
/// incremental, and adaptive runs — the two bar groups of the paper's
/// figure — plus the percentage savings the paper quotes in the text.
pub fn fig4(opts: &BenchOpts) {
    opts.say("Figure 4: GMM comparison on energy consumption\n");
    let mut rows = Vec::new();
    for spec in gmm_specs() {
        let gmm = spec.model();
        let table = characterize(&gmm, shared_profile(), 5);
        let mut ctx = QcsContext::with_profile(shared_profile().clone());
        let runs = against_truth(&gmm, &mut ctx, approxit_strategies(&table, 1), |_, _| 0.0);
        let truth_per_iter = runs[0].outcome.report.energy_per_iteration_mean();
        for run in runs {
            let per_iter = run.outcome.report.energy_per_iteration_mean() / truth_per_iter;
            rows.push(vec![
                spec.name().to_owned(),
                run.name,
                run.outcome.report.iterations.to_string(),
                fmt_value(run.energy),
                fmt_value(per_iter),
                format!("{:+.1}%", (run.energy - 1.0) * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "Dataset",
                "Strategy",
                "Iterations",
                "TotalEnergy",
                "EnergyPerIter",
                "vsTruth",
            ],
            &rows,
        )
    );
}
