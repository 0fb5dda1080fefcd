//! General experiment runner: any benchmark method × any strategy, with
//! table or CSV output.
//!
//! ```text
//! experiment --method gmm --dataset 3cluster --strategy adaptive --f 2
//! experiment --method ar --dataset sp500 --strategy all --csv
//! experiment --method kmeans --dataset 4cluster --strategy pid
//! experiment --method poisson --grid 23 --strategy incremental
//! ```
//!
//! `--strategy all` runs Truth, every single mode, both ApproxIt
//! strategies, and the PID baseline. Add `--csv` for machine-readable
//! output (one [`approxit::RunReport`] row per run).

use std::process::ExitCode;

use approx_arith::{AccuracyLevel, QcsContext};
use approx_linalg::CsrMatrix;
use approxit::{
    characterize, AdaptiveAngleStrategy, IncrementalStrategy, PidStrategy, ReconfigStrategy,
    RunConfig, RunReport, SingleMode,
};
use approxit_bench::cli::BenchOpts;
use approxit_bench::render::{fmt_value, render_table};
use approxit_bench::{ar_specs, gmm_specs, shared_profile};
use iter_solvers::datasets::PoissonSource;
use iter_solvers::{IterativeMethod, Jacobi, KMeans};

struct Options {
    method: String,
    dataset: String,
    strategy: String,
    update_period: usize,
    grid: usize,
    csv: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        method: "gmm".to_owned(),
        dataset: "3cluster".to_owned(),
        strategy: "all".to_owned(),
        update_period: 1,
        grid: 23,
        csv: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take_value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag {
            "--method" => options.method = take_value("--method")?,
            "--dataset" => options.dataset = take_value("--dataset")?,
            "--strategy" => options.strategy = take_value("--strategy")?,
            "--f" => {
                options.update_period = take_value("--f")?
                    .parse()
                    .map_err(|_| "--f expects a positive integer".to_owned())?;
            }
            "--grid" => {
                options.grid = take_value("--grid")?
                    .parse()
                    .map_err(|_| "--grid expects a positive integer".to_owned())?;
            }
            "--csv" => options.csv = true,
            "--help" | "-h" => {
                return Err("usage: experiment --method gmm|ar|kmeans|poisson \
                            [--dataset NAME] [--strategy all|truth|level1..level4|\
                            incremental|adaptive|pid] [--f N] [--grid N] [--csv]"
                    .to_owned())
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    Ok(options)
}

/// Everything the harness needs from a method, type-erased per method
/// family via a driver closure.
fn drive<M>(method: &M, options: &Options) -> Result<Vec<(String, RunReport, f64)>, String>
where
    M: IterativeMethod + Sync,
    M::State: Sync,
{
    let table = characterize(method, shared_profile(), 5);
    let mut ctx = QcsContext::with_profile(shared_profile().clone());
    let truth = RunConfig::new(method, &mut ctx).execute(&mut SingleMode::accurate());

    let mut selected: Vec<(String, Box<dyn ReconfigStrategy>)> = Vec::new();
    let mut add = |name: &str, strategy: Box<dyn ReconfigStrategy>| {
        selected.push((name.to_owned(), strategy));
    };
    let want = options.strategy.as_str();
    let wants = |name: &str| want == "all" || want == name;
    if wants("truth") {
        add("truth", Box::new(SingleMode::accurate()));
    }
    for level in AccuracyLevel::APPROXIMATE {
        if wants(&level.to_string()) {
            add(&level.to_string(), Box::new(SingleMode::new(level)));
        }
    }
    if wants("incremental") {
        add(
            "incremental",
            Box::new(IncrementalStrategy::from_characterization(&table)),
        );
    }
    if wants("adaptive") {
        add(
            "adaptive",
            Box::new(AdaptiveAngleStrategy::from_characterization(
                &table,
                options.update_period,
            )),
        );
    }
    if wants("pid") {
        add("pid", Box::<PidStrategy>::default());
    }
    if selected.is_empty() {
        return Err(format!("unknown strategy {want} (try --help)"));
    }

    Ok(selected
        .into_iter()
        .map(|(name, mut strategy)| {
            let outcome = RunConfig::new(method, &mut ctx).execute(strategy.as_mut());
            let energy = outcome.report.normalized_energy(&truth.report);
            (name, outcome.report, energy)
        })
        .collect())
}

fn main() -> ExitCode {
    let opts = BenchOpts::parse();
    let options = match parse_args(opts.rest()) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let result = match options.method.as_str() {
        "gmm" => {
            let Some(spec) = gmm_specs()
                .into_iter()
                .find(|s| s.name() == options.dataset)
            else {
                eprintln!(
                    "unknown GMM dataset {} (3cluster, 3d3cluster, 4cluster)",
                    options.dataset
                );
                return ExitCode::FAILURE;
            };
            drive(&spec.model(), &options)
        }
        "ar" => {
            let Some(spec) = ar_specs().into_iter().find(|s| s.name() == options.dataset) else {
                eprintln!(
                    "unknown AR dataset {} (hangseng, nasdaq, sp500)",
                    options.dataset
                );
                return ExitCode::FAILURE;
            };
            drive(&spec.model(), &options)
        }
        "kmeans" => {
            let Some(spec) = gmm_specs()
                .into_iter()
                .find(|s| s.name() == options.dataset)
            else {
                eprintln!("unknown dataset {} for kmeans", options.dataset);
                return ExitCode::FAILURE;
            };
            let km = KMeans::from_dataset(&spec.dataset, 1e-6, 500, spec.init_seed);
            drive(&km, &options)
        }
        "poisson" => {
            let n = options.grid;
            let b = PoissonSource::Sine { amplitude: 8.0 }.rhs(n);
            let pde = Jacobi::new(CsrMatrix::poisson5(n, n), b, 0.9, 1e-7, 5000);
            drive(&pde, &options)
        }
        other => {
            eprintln!("unknown method {other} (gmm, ar, kmeans, poisson)");
            return ExitCode::FAILURE;
        }
    };

    let rows = match result {
        Ok(rows) => rows,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    if options.csv {
        println!("{},norm_energy", RunReport::csv_header());
        for (_, report, energy) in &rows {
            println!("{},{}", report.to_csv_row(), energy);
        }
    } else {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(name, report, energy)| {
                vec![
                    name.clone(),
                    report.iterations.to_string(),
                    if report.converged { "yes" } else { "NO" }.to_owned(),
                    fmt_value(*energy),
                    report.rollbacks.to_string(),
                    report.schedule_summary(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "Strategy",
                    "Iterations",
                    "Converged",
                    "Energy",
                    "Rollbacks",
                    "Schedule"
                ],
                &table_rows,
            )
        );
    }
    ExitCode::SUCCESS
}
