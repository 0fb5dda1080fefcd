//! Tables 2–4: the datasets, then each application's single-mode (a)
//! and online-reconfiguration (b) results.

use approx_arith::{AccuracyLevel, QcsContext};
use approxit::{characterize, SingleMode};
use approxit_bench::render::{fmt_value, render_table};
use approxit_bench::{against_truth, ar_specs, gmm_specs, shared_profile};
use iter_solvers::metrics::{hamming_distance, l2_error};
use iter_solvers::IterativeMethod;

use crate::{approxit_strategies, level_label, named};

/// Table 2: dataset and parameter description.
pub fn table2() {
    println!("Table 2: Dataset and Parameter Description\n");
    let mut rows = Vec::new();
    for spec in gmm_specs() {
        rows.push(vec![
            spec.name().to_owned(),
            "Gaussian Mixture Model".to_owned(),
            format!("{}*{}", spec.dataset.len(), spec.dataset.dim()),
            "synthetic (seeded)".to_owned(),
            spec.max_iterations.to_string(),
            format!("{:.0e}", spec.convergence),
            "Mean Value".to_owned(),
        ]);
    }
    for spec in ar_specs() {
        rows.push(vec![
            spec.name().to_owned(),
            "AutoRegression".to_owned(),
            format!("{}*{}", spec.series.num_samples(), spec.series.order),
            "synthetic (seeded)".to_owned(),
            spec.max_iterations.to_string(),
            format!("{:.0e}", spec.convergence),
            "Gradient Accumulation".to_owned(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Dataset",
                "Application",
                "Samples",
                "Source",
                "MAX_ITER",
                "Convergence",
                "Adder Impact",
            ],
            &rows,
        )
    );
}

/// Table 3: GMM, with QEM the Hamming distance of the hard assignments
/// against Truth's.
pub fn table3(part: &str) {
    let datasets: Vec<_> = gmm_specs()
        .iter()
        .map(|spec| (spec.name().to_owned(), spec.model()))
        .collect();
    results(
        "Table 3",
        "GMM",
        &datasets,
        part,
        |gmm, state, truth| {
            hamming_distance(&gmm.assignments(state), &gmm.assignments(truth), gmm.k()) as f64
        },
        |qem| format!("{qem:.0}"),
    );
}

/// Table 4: AutoRegression, with QEM the ℓ2 error of the fitted
/// coefficients against Truth's.
pub fn table4(part: &str) {
    let datasets: Vec<_> = ar_specs()
        .iter()
        .map(|spec| (spec.name().to_owned(), spec.model()))
        .collect();
    results(
        "Table 4",
        "AutoRegression",
        &datasets,
        part,
        |_, state, truth| l2_error(state, truth),
        fmt_value,
    );
}

/// One results table: part (a) runs every single mode on each dataset,
/// part (b) the incremental and adaptive (f = 1) strategies; `part`
/// names the parts to print. Both score each run with `qem` against
/// Truth and print it with `fmt_qem`.
fn results<M, Q>(
    title: &str,
    application: &str,
    datasets: &[(String, M)],
    part: &str,
    qem: Q,
    fmt_qem: fn(f64) -> String,
) where
    M: IterativeMethod + Sync,
    M::State: Sync,
    Q: Fn(&M, &M::State, &M::State) -> f64,
{
    if part.contains('a') {
        println!("{title}(a): {application} single-mode results\n");
        for (name, method) in datasets {
            println!("dataset: {name}");
            let strategies = AccuracyLevel::APPROXIMATE
                .iter()
                .map(|&level| named(level.to_string(), SingleMode::new(level)))
                .collect();
            let mut ctx = QcsContext::with_profile(shared_profile().clone());
            let mut runs = against_truth(method, &mut ctx, strategies, |state, truth| {
                qem(method, state, truth)
            });
            // The paper lists Truth after the four levels.
            runs.rotate_left(1);
            let rows: Vec<Vec<String>> = AccuracyLevel::ALL
                .iter()
                .zip(runs)
                .map(|(&level, run)| {
                    let report = &run.outcome.report;
                    vec![
                        level_label(level),
                        if report.converged {
                            report.iterations.to_string()
                        } else {
                            "MAX_ITER".to_owned()
                        },
                        fmt_qem(run.qem),
                        fmt_value(run.energy),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(&["Configuration", "Iteration", "QEM", "Energy"], &rows)
            );
        }
    }

    if part.contains('b') {
        println!("{title}(b): {application} online reconfiguration results (f = 1)\n");
        let mut rows = Vec::new();
        for (name, method) in datasets {
            let table = characterize(method, shared_profile(), 5);
            let mut ctx = QcsContext::with_profile(shared_profile().clone());
            let runs = against_truth(
                method,
                &mut ctx,
                approxit_strategies(&table, 1),
                |state, truth| qem(method, state, truth),
            );
            for run in runs.into_iter().skip(1) {
                let report = &run.outcome.report;
                let mut row = vec![name.clone(), run.name];
                row.extend(report.steps_per_level.iter().map(usize::to_string));
                row.extend([
                    report.iterations.to_string(),
                    fmt_qem(run.qem),
                    fmt_value(run.energy),
                    report.rollbacks.to_string(),
                ]);
                rows.push(row);
            }
        }
        println!(
            "{}",
            render_table(
                &[
                    "Dataset",
                    "Strategy",
                    "level1",
                    "level2",
                    "level3",
                    "level4",
                    "acc",
                    "Total",
                    "Error",
                    "Energy",
                    "Rollbacks",
                ],
                &rows,
            )
        );
    }
}
