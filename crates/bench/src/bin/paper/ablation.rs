//! Extension experiments beyond the paper's exhibits (ablations called
//! out in DESIGN.md §5):
//!
//! * scheme ablation — incremental with each scheme disabled;
//! * quality-scheme variant — step-distance vs objective-decrease;
//! * f-step sweep — adaptive with update periods 1, 2, 5, 10;
//! * PID baseline — the controller of Chippa et al. head-to-head;
//! * fixed-point width sweep — Q15.16 vs Q31.32 datapaths;
//! * k-means with the MCD sensor — the paper's §2.3 motivating example.

use approx_arith::{EnergyProfile, QFormat, QcsAdder, QcsContext};
use approxit::{
    characterize, characterize_on, AdaptiveAngleStrategy, IncrementalConfig, IncrementalStrategy,
    PidStrategy, QualitySchemeVariant,
};
use approxit_bench::render::{fmt_value, render_table};
use approxit_bench::{against_truth, gmm_specs, shared_profile, Scored};
use iter_solvers::metrics::hamming_distance;
use iter_solvers::{GmmState, KMeans};

use crate::{approxit_strategies, named, yes_no};

const HEADERS: [&str; 6] = [
    "Configuration",
    "Iterations",
    "Converged",
    "QEM",
    "Energy",
    "Rollbacks",
];

/// The rows of every scored run after Truth.
fn rows(runs: Vec<Scored<GmmState>>) -> Vec<Vec<String>> {
    runs.into_iter()
        .skip(1)
        .map(|run| {
            let report = &run.outcome.report;
            vec![
                run.name,
                report.iterations.to_string(),
                yes_no(report.converged),
                format!("{:.0}", run.qem),
                fmt_value(run.energy),
                report.rollbacks.to_string(),
            ]
        })
        .collect()
}

fn print_section(title: String, rows: &[Vec<String>]) {
    println!("{title}\n");
    println!("{}", render_table(&HEADERS, rows));
}

/// Ablations 1–4 on GMM `3cluster`, then the k-means ablation.
pub fn run() {
    let spec = &gmm_specs()[0]; // 3cluster
    let gmm = spec.model();
    let hamming = |state: &GmmState, truth: &GmmState| {
        hamming_distance(&gmm.assignments(state), &gmm.assignments(truth), gmm.k()) as f64
    };
    let table = characterize(&gmm, shared_profile(), 5);
    let mut ctx = QcsContext::with_profile(shared_profile().clone());

    let configs = [
        ("all schemes (paper)", IncrementalConfig::default()),
        (
            "no gradient scheme",
            IncrementalConfig {
                gradient_scheme: false,
                ..IncrementalConfig::default()
            },
        ),
        (
            "no quality scheme",
            IncrementalConfig {
                quality_scheme: false,
                ..IncrementalConfig::default()
            },
        ),
        (
            "no function scheme",
            IncrementalConfig {
                function_scheme: false,
                ..IncrementalConfig::default()
            },
        ),
        (
            "objective-decrease variant",
            IncrementalConfig {
                quality_variant: QualitySchemeVariant::ObjectiveDecrease,
                ..IncrementalConfig::default()
            },
        ),
    ];
    let strategies = configs
        .into_iter()
        .map(|(name, config)| {
            named(
                name,
                IncrementalStrategy::with_config(table.update_errors, config),
            )
        })
        .collect();
    print_section(
        format!("Ablation 1: incremental schemes on {}", spec.name()),
        &rows(against_truth(&gmm, &mut ctx, strategies, hamming)),
    );

    let strategies = [1usize, 2, 5, 10]
        .into_iter()
        .map(|f| {
            named(
                format!("f = {f}"),
                AdaptiveAngleStrategy::from_characterization(&table, f),
            )
        })
        .collect();
    print_section(
        format!("Ablation 2: adaptive f-step sweep on {}", spec.name()),
        &rows(against_truth(&gmm, &mut ctx, strategies, hamming)),
    );

    let mut strategies = vec![named("pid-baseline", PidStrategy::default())];
    strategies.extend(
        approxit_strategies(&table, 1)
            .into_iter()
            .map(|(name, strategy)| (format!("approxit {name}"), strategy)),
    );
    print_section(
        format!(
            "Ablation 3: PID baseline (Chippa et al.) on {}",
            spec.name()
        ),
        &rows(against_truth(&gmm, &mut ctx, strategies, hamming)),
    );

    // Each width is its own datapath, so each gets its own Truth.
    let widths = [
        (
            "Q15.16 / 32-bit (default)",
            QcsAdder::paper_default(),
            QFormat::Q15_16,
        ),
        (
            "Q31.32 / 64-bit",
            QcsAdder::new(64, [36, 31, 26, 21]),
            QFormat::Q31_32,
        ),
    ];
    let mut width_rows = Vec::new();
    for (name, adder, format) in widths {
        let profile =
            EnergyProfile::characterize(&adder, 256, 0x5EED, &gatesim::EnergyModel::default());
        let mut wide_ctx = QcsContext::new(adder, format, profile);
        let table = characterize_on(&gmm, &wide_ctx, 5);
        let strategies = vec![named(
            name,
            IncrementalStrategy::from_characterization(&table),
        )];
        width_rows.extend(rows(against_truth(
            &gmm,
            &mut wide_ctx,
            strategies,
            hamming,
        )));
    }
    print_section(
        format!("Ablation 4: datapath width sweep on {}", spec.name()),
        &width_rows,
    );

    kmeans_mcd_ablation();
}

/// The paper's §2.3 motivating example: approximate k-means with the
/// mean-centroid-distance sensor driving a PID controller, against
/// ApproxIt's incremental strategy on the same workload. K-means
/// provides no analytic gradient, so ApproxIt's direction-criterion veto
/// is unavailable — the function scheme alone carries the recovery.
fn kmeans_mcd_ablation() {
    let spec = &gmm_specs()[0];
    let km = KMeans::from_dataset(&spec.dataset, 1e-6, 500, 7);
    let table = characterize(&km, shared_profile(), 5);
    let mut ctx = QcsContext::with_profile(shared_profile().clone());
    let strategies = vec![
        named("pid + mcd sensor", PidStrategy::default()),
        named(
            "approxit incremental",
            IncrementalStrategy::from_characterization(&table),
        ),
    ];
    let runs = against_truth(&km, &mut ctx, strategies, |state, truth| {
        hamming_distance(
            &km.assignments(state),
            &km.assignments(truth),
            spec.dataset.k,
        ) as f64
    });

    println!(
        "Ablation 5: k-means + MCD sensor on {} (truth MCD {:.4})\n",
        spec.dataset.name,
        km.mean_centroid_distance(&runs[0].outcome.state),
    );
    let rows: Vec<Vec<String>> = runs
        .into_iter()
        .skip(1)
        .map(|run| {
            let report = &run.outcome.report;
            vec![
                run.name,
                report.iterations.to_string(),
                yes_no(report.converged),
                format!("{:.0}", run.qem),
                format!("{:.4}", km.mean_centroid_distance(&run.outcome.state)),
                fmt_value(run.energy),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Configuration",
                "Iterations",
                "Converged",
                "QEM",
                "MCD",
                "Energy"
            ],
            &rows,
        )
    );
}
