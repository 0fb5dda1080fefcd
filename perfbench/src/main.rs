//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run header, detail lines, one line per metric (name, value,
//! unit, samples) and, last, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! End-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Exits 1 on a wrong output, 2 on a usage error.
//! `--workload all` runs every workload in its own process.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode};

use perfbench::run::{Report, RunOpts, WORKERS};
use perfbench::{host, run_workload, WORKLOADS};

struct Args {
    workload: String,
    opts: RunOpts,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, opts })
}

fn json_result(correct: bool, report: &Report, trace: bool) -> String {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

fn run_one(name: &str, opts: &RunOpts) -> ExitCode {
    if !WORKLOADS.contains(&name) {
        eprintln!("unknown workload {name:?}; expected one of {WORKLOADS:?} or all");
        return ExitCode::from(2);
    }
    println!(
        "perfbench {name}: seed {}, seconds {}, trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "host: nproc {}, build profile {}, {}",
        host::nproc(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
    );
    println!(
        "workers: service executor {WORKERS}, characterize_on_with executor {WORKERS}, \
         gate-level simulation {WORKERS} ({}), solve contexts none",
        parx::THREADS_ENV
    );
    let Some(report) = run_workload(name, opts) else {
        return ExitCode::from(2);
    };
    for line in &report.lines {
        println!("{line}");
    }
    let metrics = if opts.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let mut errors = report.errors.clone();
    for m in metrics {
        println!(
            "metric {:<34} {:>16.9} {:<6} samples {}",
            m.name, m.value, m.unit, m.samples
        );
        if !m.value.is_finite() {
            errors.push(format!("metric {} is not finite", m.name));
        }
    }
    for e in &errors {
        println!("error: {e}");
    }
    let correct = errors.is_empty();
    println!("{}", json_result(correct, &report, opts.trace));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in a child process of its own, one after another.
fn run_all(opts: &RunOpts) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the perfbench executable");
        return ExitCode::from(2);
    };
    let mut results = Vec::new();
    let mut correct = true;
    for name in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .output();
        let Ok(out) = out else {
            eprintln!("could not start the {name} process");
            return ExitCode::from(2);
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        correct &= out.status.success();
        let last = stdout.lines().last().unwrap_or("null").to_owned();
        results.push(format!("\"{name}\": {last}"));
    }
    println!(
        "{{\"correct\": {correct}, \"workloads\": {{{}}}}}",
        results.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Pin the gate-level simulator's executor (read from the environment
    // by `EnergyProfile` characterization) before anything creates one.
    std::env::set_var(parx::THREADS_ENV, WORKERS.to_string());
    std::env::remove_var(parx::LEGACY_THREADS_ENV);
    let args = match parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args.opts)
    } else {
        run_one(&args.workload, &args.opts)
    }
}
