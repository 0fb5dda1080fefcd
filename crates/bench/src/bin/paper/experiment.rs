//! General experiment runner: any benchmark method × any strategy, with
//! table or CSV output.
//!
//! ```text
//! paper experiment --method gmm --dataset 3cluster --strategy adaptive --f 2
//! paper experiment --method ar --dataset sp500 --strategy all --csv
//! paper experiment --method kmeans --dataset 4cluster --strategy pid
//! paper experiment --method poisson --grid 23 --strategy incremental
//! ```
//!
//! `--strategy all` runs Truth, every single mode, both ApproxIt
//! strategies, and the PID baseline. Add `--csv` for machine-readable
//! output (one [`approxit::RunReport`] row per run).

use approx_arith::{AccuracyLevel, QcsContext};
use approx_linalg::CsrMatrix;
use approxit::{characterize, PidStrategy, RunReport, SingleMode};
use approxit_bench::render::{fmt_value, render_table};
use approxit_bench::{against_truth, ar_specs, gmm_specs, shared_profile};
use iter_solvers::datasets::PoissonSource;
use iter_solvers::{IterativeMethod, Jacobi, KMeans};

use crate::{approxit_strategies, named, yes_no};

/// The flags of `paper experiment`.
pub struct Options {
    method: String,
    dataset: String,
    strategy: String,
    update_period: usize,
    grid: usize,
    csv: bool,
}

/// Parse the flags after `paper experiment`.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
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
            "--f" => options.update_period = positive("--f", &take_value("--f")?)?,
            "--grid" => options.grid = positive("--grid", &take_value("--grid")?)?,
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

/// Parse the value of `flag`, which must be an integer above 0.
fn positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer")),
    }
}

/// Run Truth and the selected strategies on `method` and print one row
/// per run; Truth's own row is printed only when `--strategy` selects it.
fn drive<M>(method: &M, options: &Options) -> Result<(), String>
where
    M: IterativeMethod + Sync,
    M::State: Sync,
{
    let table = characterize(method, shared_profile(), 5);
    let want = options.strategy.as_str();
    let wants = |name: &str| want == "all" || want == name;
    let mut selected = Vec::new();
    for level in AccuracyLevel::APPROXIMATE {
        selected.push(named(level.to_string(), SingleMode::new(level)));
    }
    selected.extend(approxit_strategies(&table, options.update_period));
    selected.push(named("pid", PidStrategy::default()));
    selected.retain(|(name, _)| wants(name));
    if selected.is_empty() && !wants("truth") {
        return Err(format!("unknown strategy {want} (try --help)"));
    }

    let mut ctx = QcsContext::with_profile(shared_profile().clone());
    let mut runs = against_truth(method, &mut ctx, selected, |_, _| 0.0);
    if !wants("truth") {
        runs.remove(0);
    }
    if options.csv {
        println!("{},norm_energy", RunReport::csv_header());
        for run in &runs {
            println!("{},{}", run.outcome.report.to_csv_row(), run.energy);
        }
    } else {
        let rows: Vec<Vec<String>> = runs
            .into_iter()
            .map(|run| {
                let report = run.outcome.report;
                vec![
                    run.name,
                    report.iterations.to_string(),
                    yes_no(report.converged),
                    fmt_value(run.energy),
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
                &rows,
            )
        );
    }
    Ok(())
}

/// Run the experiment `options` selects.
pub fn run(options: &Options) -> Result<(), String> {
    match options.method.as_str() {
        "gmm" => {
            let Some(spec) = gmm_specs()
                .into_iter()
                .find(|s| s.name() == options.dataset)
            else {
                return Err(format!(
                    "unknown GMM dataset {} (3cluster, 3d3cluster, 4cluster)",
                    options.dataset
                ));
            };
            drive(&spec.model(), options)
        }
        "ar" => {
            let Some(spec) = ar_specs().into_iter().find(|s| s.name() == options.dataset) else {
                return Err(format!(
                    "unknown AR dataset {} (hangseng, nasdaq, sp500)",
                    options.dataset
                ));
            };
            drive(&spec.model(), options)
        }
        "kmeans" => {
            let Some(spec) = gmm_specs()
                .into_iter()
                .find(|s| s.name() == options.dataset)
            else {
                return Err(format!("unknown dataset {} for kmeans", options.dataset));
            };
            let km = KMeans::from_dataset(&spec.dataset, 1e-6, 500, spec.init_seed);
            drive(&km, options)
        }
        "poisson" => {
            let n = options.grid;
            let b = PoissonSource::Sine { amplitude: 8.0 }.rhs(n);
            let pde = Jacobi::new(CsrMatrix::poisson5(n, n), b, 0.9, 1e-7, 5000);
            drive(&pde, options)
        }
        other => Err(format!("unknown method {other} (gmm, ar, kmeans, poisson)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse_args(&owned)
    }

    #[test]
    fn update_period_must_be_positive() {
        assert_eq!(parse(&["--f", "3"]).map(|o| o.update_period), Ok(3));
        for bad in ["0", "-1", "x"] {
            let err = parse(&["--f", bad]).err();
            assert_eq!(err.as_deref(), Some("--f expects a positive integer"));
        }
    }

    #[test]
    fn grid_must_be_positive() {
        assert_eq!(parse(&["--grid", "5"]).map(|o| o.grid), Ok(5));
        for bad in ["0", "-1", "x"] {
            let err = parse(&["--grid", bad]).err();
            assert_eq!(err.as_deref(), Some("--grid expects a positive integer"));
        }
    }
}
