//! Regenerates the paper's exhibits and their extensions, one
//! subcommand each:
//!
//! ```text
//! paper table2                   Table 2: datasets and parameters
//! paper table3 [--part a|b|ab]   Table 3: GMM single-mode (a) and reconfiguration (b)
//! paper table4 [--part a|b|ab]   Table 4: the same on AutoRegression
//! paper fig3                     Figure 3: GMM clustering per mode (+ CSVs in target/fig3/)
//! paper fig4                     Figure 4: GMM energy, total and per iteration
//! paper ablation                 scheme, f-step, PID, width and k-means ablations
//! paper survey [--seed N]        adder design space: error x energy x delay
//! paper experiment [FLAGS]       any method x strategy (`paper experiment --help`)
//! ```
//!
//! Only `fig3` and `fig4` take `--quiet`, only `survey` takes `--seed`,
//! and none writes `--json`. A flag a subcommand does not take is an
//! error, not a no-op.

mod ablation;
mod experiment;
mod figures;
mod survey;
mod tables;

use std::process::ExitCode;

use approx_arith::AccuracyLevel;
use approxit::{
    AdaptiveAngleStrategy, CharacterizationTable, IncrementalStrategy, ReconfigStrategy,
};
use approxit_bench::cli::BenchOpts;

/// The subcommands, in usage order.
const EXHIBITS: [&str; 8] = [
    "table2",
    "table3",
    "table4",
    "fig3",
    "fig4",
    "ablation",
    "survey",
    "experiment",
];

/// Default `survey` seed (`--seed` overrides).
const SURVEY_SEED: u64 = 0x5EED;

/// A parsed subcommand.
enum Exhibit {
    Table2,
    /// Table 3 with its parts: `a`, `b` or `ab`.
    Table3(&'static str),
    /// Table 4 with its parts: `a`, `b` or `ab`.
    Table4(&'static str),
    Fig3,
    Fig4,
    Ablation,
    Survey,
    Experiment(experiment::Options),
}

/// Parse `paper <exhibit> [flags]`, rejecting any flag the exhibit
/// would ignore.
fn parse(args: &[String]) -> Result<(Exhibit, BenchOpts), String> {
    let Some(name) = args
        .first()
        .filter(|name| EXHIBITS.contains(&name.as_str()))
    else {
        return Err(format!("usage: paper <{}> [flags]", EXHIBITS.join("|")));
    };
    let opts = BenchOpts::from_args(args[1..].iter().cloned())?;
    if opts.json.is_some() {
        return Err(format!("paper {name}: no exhibit writes --json"));
    }
    if opts.seed.is_some() && name != "survey" {
        return Err(format!("paper {name}: only survey takes --seed"));
    }
    if opts.quiet && !matches!(name.as_str(), "fig3" | "fig4") {
        return Err(format!("paper {name}: only fig3 and fig4 take --quiet"));
    }
    let exhibit = match (name.as_str(), opts.rest()) {
        ("table2", []) => Exhibit::Table2,
        ("table3", rest) => Exhibit::Table3(part(rest)?),
        ("table4", rest) => Exhibit::Table4(part(rest)?),
        ("fig3", []) => Exhibit::Fig3,
        ("fig4", []) => Exhibit::Fig4,
        ("ablation", []) => Exhibit::Ablation,
        ("survey", []) => Exhibit::Survey,
        ("experiment", rest) => Exhibit::Experiment(experiment::parse_args(rest)?),
        (_, rest) => return Err(format!("paper {name} takes no {}", rest.join(" "))),
    };
    Ok((exhibit, opts))
}

/// The `--part a|b|ab` of Tables 3 and 4 (both parts by default).
fn part(rest: &[String]) -> Result<&'static str, String> {
    match rest {
        [] => Ok("ab"),
        [flag, part] if flag == "--part" => ["a", "b", "ab"]
            .into_iter()
            .find(|p| p == part)
            .ok_or_else(|| format!("--part expects a, b or ab, got {part:?}")),
        _ => Err(format!("expected --part a|b|ab, got {}", rest.join(" "))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|(exhibit, opts)| run(exhibit, &opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn run(exhibit: Exhibit, opts: &BenchOpts) -> Result<(), String> {
    match exhibit {
        Exhibit::Table2 => tables::table2(),
        Exhibit::Table3(part) => tables::table3(part),
        Exhibit::Table4(part) => tables::table4(part),
        Exhibit::Fig3 => figures::fig3(opts),
        Exhibit::Fig4 => figures::fig4(opts),
        Exhibit::Ablation => ablation::run(),
        Exhibit::Survey => survey::run(opts.seed_or(SURVEY_SEED)),
        Exhibit::Experiment(options) => return experiment::run(&options),
    }
    Ok(())
}

/// A strategy under the name its row is printed with.
fn named<S: ReconfigStrategy + 'static>(
    name: impl Into<String>,
    strategy: S,
) -> (String, Box<dyn ReconfigStrategy>) {
    (name.into(), Box::new(strategy))
}

/// ApproxIt's two strategies from one characterization: `incremental`,
/// then `adaptive` with update period `f`.
fn approxit_strategies(
    table: &CharacterizationTable,
    f: usize,
) -> Vec<(String, Box<dyn ReconfigStrategy>)> {
    vec![
        named(
            "incremental",
            IncrementalStrategy::from_characterization(table),
        ),
        named(
            "adaptive",
            AdaptiveAngleStrategy::from_characterization(table, f),
        ),
    ]
}

/// The paper's label for a single-mode configuration.
fn level_label(level: AccuracyLevel) -> String {
    if level.is_accurate() {
        "Truth".to_owned()
    } else {
        level.to_string()
    }
}

/// The `Converged` column.
fn yes_no(converged: bool) -> String {
    if converged { "yes" } else { "NO" }.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(list: &[&str]) -> Result<(Exhibit, BenchOpts), String> {
        parse(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn every_exhibit_parses_with_the_flags_it_uses() {
        for name in EXHIBITS {
            assert!(parse_strs(&[name]).is_ok(), "{name}");
        }
        for name in ["fig3", "fig4"] {
            assert!(parse_strs(&[name, "--quiet"]).is_ok(), "{name} --quiet");
            assert!(parse_strs(&[name, "-q"]).is_ok(), "{name} -q");
        }
        assert!(matches!(parse_strs(&["table2"]), Ok((Exhibit::Table2, _))));
        assert!(matches!(
            parse_strs(&["table3"]),
            Ok((Exhibit::Table3("ab"), _))
        ));
        assert!(matches!(
            parse_strs(&["table3", "--part", "a"]),
            Ok((Exhibit::Table3("a"), _))
        ));
        assert!(matches!(
            parse_strs(&["table4", "--part", "b"]),
            Ok((Exhibit::Table4("b"), _))
        ));
        assert!(matches!(
            parse_strs(&["survey", "--seed", "7"]),
            Ok((Exhibit::Survey, opts)) if opts.seed == Some(7)
        ));
        assert!(matches!(
            parse_strs(&["experiment", "--method", "ar", "--csv"]),
            Ok((Exhibit::Experiment(_), _))
        ));
    }

    #[test]
    fn missing_or_unknown_exhibit_prints_a_usage_naming_all_eight() {
        for list in [&[][..], &["table5"], &["--help"], &["--part", "a"]] {
            let Err(message) = parse_strs(list) else {
                panic!("{list:?} was accepted");
            };
            assert!(message.starts_with("usage: paper"), "{message}");
            assert!(EXHIBITS.iter().all(|name| message.contains(name)));
        }
    }

    #[test]
    fn flags_an_exhibit_would_ignore_are_rejected() {
        let mut cases = vec![
            vec!["table3", "--part", "c"],
            vec!["table3", "--part", "ba"],
            vec!["table4", "--part"],
            vec!["table3", "--prat", "a"],
            vec!["table3", "--part", "a", "--part", "b"],
            vec!["table2", "--part", "a"],
            vec!["fig4", "--csv"],
            vec!["survey", "extra"],
            vec!["experiment", "--prat"],
        ];
        for name in EXHIBITS {
            cases.push(vec![name, "--json", "t.json"]);
            if name != "survey" {
                cases.push(vec![name, "--seed", "7"]);
            }
            if !matches!(name, "fig3" | "fig4") {
                cases.push(vec![name, "--quiet"]);
                cases.push(vec![name, "-q"]);
            }
        }
        for case in cases {
            assert!(parse_strs(&case).is_err(), "{case:?} was accepted");
        }
    }
}
