//! End-to-end resilience campaign: structural faults at the netlist
//! level, then quality vs. SEU rate per strategy on GMM and
//! AutoRegression workloads.
//!
//! The application sweep runs every single-mode baseline on raw
//! hardware (guards-only watchdog, no recovery) and the online
//! reconfiguration strategies under the resilient watchdog
//! ([`WatchdogConfig::resilient`]); faults strike the voltage-overscaled
//! approximate modes only (`FaultInjector::sparing_accurate`), so a
//! single-mode approximate baseline has no escape while the adaptive
//! strategy can climb to the dependable accurate mode and still bank the
//! energy saved in its approximate iterations. The tables demonstrate
//! the graceful-degradation claim: at SEU rates where approximate
//! baselines stall at `MAX_ITER`, the adaptive strategy converges to
//! Truth quality with nonzero recovery telemetry.

use std::process::ExitCode;

use approx_arith::{AccuracyLevel, Adder, FaultInjector, FaultModel, QcsAdder, QcsContext};
use approxit::{
    characterize, AdaptiveAngleStrategy, IncrementalStrategy, ReconfigStrategy, RunConfig,
    RunReport, SingleMode, WatchdogConfig,
};
use approxit_bench::cli::{BenchOpts, Checker};
use approxit_bench::render::{fmt_value, render_table};
use approxit_bench::specs::shared_profile;
use gatesim::FaultCampaign;
use iter_solvers::datasets::{ar_series, gaussian_blobs};
use iter_solvers::metrics::{hamming_distance, l2_error};
use iter_solvers::{AutoRegression, GaussianMixture, IterativeMethod};

/// Per-operation SEU rates swept in the application campaign.
const SEU_RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];
/// Low result bits exposed to upsets (up to bit 15 of Q15.16 — flips of
/// magnitude up to 0.5, well above any convergence tolerance).
const FAULT_BITS: u32 = 16;
/// Default fault-stream seed: every run of this binary replays the same
/// faults unless `--seed` overrides it.
const SEED: u64 = 0xF01D;

fn faulty_ctx(rate: f64, seed: u64) -> FaultInjector<QcsContext> {
    let inner = QcsContext::with_profile(shared_profile().clone());
    FaultInjector::new(inner, rate, FAULT_BITS, seed).sparing_accurate()
}

fn level_label(level: AccuracyLevel) -> String {
    if level.is_accurate() {
        "Truth".to_owned()
    } else {
        level.to_string()
    }
}

/// Structural campaign on the QCS adder netlist: stuck-at, transient,
/// and timing-overscaling faults with error-magnitude statistics.
fn structural_section(opts: &BenchOpts, c: &mut Checker) {
    opts.say("Structural fault campaign (QCS adder netlist, level2 configuration)\n");
    let adder = QcsAdder::paper_default().at(AccuracyLevel::Level2);
    let (netlist, ports) = adder.netlist();
    let campaign = FaultCampaign::new(&netlist, &ports).vectors(256).seed(3);

    let inputs = netlist.primary_inputs();
    let sites = [
        inputs[0],
        inputs[inputs.len() / 2],
        inputs[inputs.len() - 1],
    ];
    let mut rows = campaign.sweep_stuck_at(&sites);
    rows.extend(campaign.sweep_transient(&[1e-4, 1e-3, 1e-2]));
    rows.extend(campaign.sweep_timing(&[1.0, 0.8, 0.5]));

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.label.clone(),
                format!("{:.4}", row.stats.error_rate()),
                fmt_value(row.stats.mean_abs_error),
                fmt_value(row.stats.max_abs_error),
                row.stats.faults_fired.to_string(),
            ]
        })
        .collect();
    opts.say(&render_table(
        &[
            "Fault",
            "Error rate",
            "Mean |err|",
            "Max |err|",
            "Faults fired",
        ],
        &table,
    ));
    c.check(
        "structural: every fault family produced rows with sane statistics",
        !rows.is_empty()
            && rows.iter().all(|row| {
                (0.0..=1.0).contains(&row.stats.error_rate())
                    && row.stats.mean_abs_error.is_finite()
                    && row.stats.max_abs_error.is_finite()
            }),
        &format!("{} fault rows", rows.len()),
    );
    c.check(
        "structural: faults actually fired during the campaign",
        rows.iter().any(|row| row.stats.faults_fired > 0),
        "at least one injection site was exercised",
    );
}

fn report_row(
    rate: f64,
    configuration: &str,
    report: &RunReport,
    qem: f64,
    truth: &RunReport,
) -> Vec<String> {
    vec![
        if rate == 0.0 {
            "0".to_owned()
        } else {
            format!("{rate:.0e}")
        },
        configuration.to_owned(),
        if report.converged {
            report.iterations.to_string()
        } else {
            "MAX_ITER".to_owned()
        },
        fmt_value(qem),
        fmt_value(report.normalized_energy(truth)),
        report.rollbacks.to_string(),
        report.recovery.restores.to_string(),
        report.recovery.escalations.to_string(),
    ]
}

/// Sweep one application over `SEU_RATES`: single-mode baselines on the
/// guards-only watchdog, reconfiguration strategies on the resilient
/// one. `quality_ok` decides whether a QEM value counts as Truth
/// quality.
#[allow(clippy::too_many_arguments)]
fn application_section<M, Q, G>(
    title: &str,
    name: &str,
    method: &M,
    seed: u64,
    qem: Q,
    quality_ok: G,
    opts: &BenchOpts,
    c: &mut Checker,
) where
    M: IterativeMethod + Sync,
    M::State: Sync,
    Q: Fn(&M::State, &M::State) -> f64,
    G: Fn(f64) -> bool,
{
    let mut clean = QcsContext::with_profile(shared_profile().clone());
    let truth = RunConfig::new(method, &mut clean)
        .with_watchdog(WatchdogConfig::default())
        .execute(&mut SingleMode::accurate());
    c.check(
        &format!("{name}: the accurate baseline converges on clean hardware"),
        truth.report.converged,
        &format!("{} iterations", truth.report.iterations),
    );
    let table = characterize(method, shared_profile(), 5);

    let mut rows = Vec::new();
    let mut findings = Vec::new();
    for &rate in &SEU_RATES {
        let mut failed_baselines: Vec<String> = Vec::new();
        for &level in &AccuracyLevel::ALL {
            let mut ctx = faulty_ctx(rate, seed);
            let outcome = RunConfig::new(method, &mut ctx)
                .with_watchdog(WatchdogConfig::default())
                .execute(&mut SingleMode::new(level));
            let q = qem(&outcome.state, &truth.state);
            if !level.is_accurate() && (!outcome.report.converged || !quality_ok(q)) {
                failed_baselines.push(format!(
                    "{} ({})",
                    level_label(level),
                    if outcome.report.converged {
                        "quality loss"
                    } else {
                        "MAX_ITER"
                    }
                ));
            }
            rows.push(report_row(
                rate,
                &level_label(level),
                &outcome.report,
                q,
                &truth.report,
            ));
        }

        let strategies: Vec<Box<dyn ReconfigStrategy>> = vec![
            Box::new(IncrementalStrategy::from_characterization(&table)),
            Box::new(AdaptiveAngleStrategy::from_characterization(&table, 1)),
        ];
        for (index, mut strategy) in strategies.into_iter().enumerate() {
            let mut ctx = faulty_ctx(rate, seed);
            let outcome = RunConfig::new(method, &mut ctx)
                .with_watchdog(WatchdogConfig::resilient())
                .execute(strategy.as_mut());
            let q = qem(&outcome.state, &truth.state);
            let label = outcome.report.strategy.clone();
            rows.push(report_row(rate, &label, &outcome.report, q, &truth.report));
            if rate == 0.0 {
                c.check(
                    &format!("{name}: {label} reaches Truth quality on clean hardware"),
                    outcome.report.converged && quality_ok(q),
                    &format!(
                        "{} iterations, QEM {}",
                        outcome.report.iterations,
                        fmt_value(q)
                    ),
                );
            }
            let is_adaptive = index == 1;
            if is_adaptive
                && rate > 0.0
                && outcome.report.converged
                && quality_ok(q)
                && !failed_baselines.is_empty()
            {
                let recovery = outcome.report.recovery;
                findings.push(format!(
                    "  at SEU rate {rate:.0e}: {} failed, yet {label} converged to Truth \
                     quality in {} iterations (rollbacks {}, restores {}, escalations {})",
                    failed_baselines.join(", "),
                    outcome.report.iterations,
                    outcome.report.rollbacks,
                    recovery.restores,
                    recovery.escalations,
                ));
            }
        }
    }

    opts.say(&format!("{title}\n"));
    opts.say(&render_table(
        &[
            "SEU rate",
            "Configuration",
            "Iterations",
            "QEM",
            "Energy",
            "Rollbacks",
            "Restores",
            "Escalations",
        ],
        &rows,
    ));
    c.check(
        &format!(
            "{name}: graceful degradation — some SEU rate fails approximate baselines \
             while the adaptive strategy holds Truth quality"
        ),
        !findings.is_empty(),
        &format!("{} separating rates", findings.len()),
    );
    if findings.is_empty() {
        opts.say(
            "graceful degradation: no rate separated the adaptive strategy from the baselines\n",
        );
    } else {
        opts.say("graceful degradation:");
        for line in &findings {
            opts.say(line);
        }
        opts.say("");
    }
}

/// Drive the adaptive strategy through multi-bit burst upsets violent
/// enough to trip the hard-failure guards, and show the watchdog's
/// checkpoint restores and escalations pulling the run back to Truth
/// quality.
fn burst_recovery_section<M, Q, G>(
    method: &M,
    name: &str,
    seed: u64,
    qem: Q,
    quality_ok: G,
    opts: &BenchOpts,
    c: &mut Checker,
) where
    M: IterativeMethod + Sync,
    M::State: Sync,
    Q: Fn(&M::State, &M::State) -> f64,
    G: Fn(f64) -> bool,
{
    let mut clean = QcsContext::with_profile(shared_profile().clone());
    let truth = RunConfig::new(method, &mut clean)
        .with_watchdog(WatchdogConfig::default())
        .execute(&mut SingleMode::accurate());
    let table = characterize(method, shared_profile(), 5);

    let (burst_rate, burst_width) = (1e-2, 16);
    let model = FaultModel::Burst {
        rate: burst_rate,
        width: burst_width,
    };
    let inner = QcsContext::with_profile(shared_profile().clone());
    let mut ctx = FaultInjector::with_model(inner, model, seed).sparing_accurate();
    let mut strategy = AdaptiveAngleStrategy::from_characterization(&table, 1);
    // Calibrate the overflow guard against the clean run: a healthy
    // objective never exceeds its starting value by orders of magnitude.
    let objective_scale = method.objective(&method.initial_state()).abs();
    let watchdog = WatchdogConfig {
        overflow_threshold: Some(100.0 * (objective_scale + 1.0)),
        divergence_window: Some(3),
        checkpoint_interval: 2,
        escalation_threshold: Some(2),
        ..WatchdogConfig::resilient()
    };
    let outcome = RunConfig::new(method, &mut ctx)
        .with_watchdog(watchdog.clone())
        .execute(&mut strategy);
    let q = qem(&outcome.state, &truth.state);
    opts.say(&format!(
        "{name}: burst faults (rate {burst_rate:.0e}, width {burst_width}), \
         adaptive + resilient watchdog:\n  \
         {} in {} iterations, QEM {} — rollbacks {}, {}",
        if outcome.report.converged {
            "converged"
        } else {
            "hit MAX_ITER"
        },
        outcome.report.iterations,
        fmt_value(q),
        outcome.report.rollbacks,
        outcome.report.recovery,
    ));
    c.check(
        &format!("{name}: adaptive + resilient watchdog rides out burst faults at Truth quality"),
        outcome.report.converged && quality_ok(q),
        &format!(
            "{} iterations, QEM {}",
            outcome.report.iterations,
            fmt_value(q)
        ),
    );

    // A single-mode approximate baseline has no reconfiguration
    // escape: recovery is carried entirely by the watchdog's checkpoint
    // restores and forced escalations.
    let inner = QcsContext::with_profile(shared_profile().clone());
    let mut ctx = FaultInjector::with_model(inner, model, seed).sparing_accurate();
    let outcome = RunConfig::new(method, &mut ctx)
        .with_watchdog(watchdog.clone())
        .execute(&mut SingleMode::new(AccuracyLevel::Level2));
    let q = qem(&outcome.state, &truth.state);
    opts.say(&format!(
        "{name}: same faults, single-mode level2 + resilient watchdog:\n  \
         {} in {} iterations, QEM {} — rollbacks {}, {}\n",
        if outcome.report.converged {
            "converged"
        } else {
            "hit MAX_ITER"
        },
        outcome.report.iterations,
        fmt_value(q),
        outcome.report.rollbacks,
        outcome.report.recovery,
    ));
}

fn main() -> ExitCode {
    let opts = BenchOpts::parse_for("resilience", &[], &[]);
    let seed = opts.seed_or(SEED);
    opts.say("ApproxIt resilience campaign");
    opts.say("============================\n");
    let mut c = Checker::new(opts.quiet);

    structural_section(&opts, &mut c);

    let data = gaussian_blobs(
        "gmm-resilience",
        &[120, 120, 120],
        &[vec![0.0, 0.0], vec![8.0, 0.0], vec![4.0, 7.0]],
        &[0.9, 0.9, 0.9],
        17,
    );
    let gmm = GaussianMixture::from_dataset(&data, 1e-8, 300, 5);
    application_section(
        "GMM quality vs. SEU rate (QEM = Hamming distance to Truth assignments)",
        "gmm",
        &gmm,
        seed,
        |state, truth_state| {
            hamming_distance(&gmm.assignments(state), &gmm.assignments(truth_state), 3) as f64
        },
        |q| q == 0.0,
        &opts,
        &mut c,
    );

    let series = ar_series(
        "ar-resilience",
        1500,
        &[0.35, 0.22, 0.1, 0.05, -0.06],
        1.0,
        23,
    );
    let ar = AutoRegression::from_series(&series, 0.2, 1e-10, 400);
    application_section(
        "AutoRegression quality vs. SEU rate (QEM = coefficient l2 error to Truth)",
        "ar",
        &ar,
        seed,
        |state, truth_state| l2_error(state, truth_state),
        |q| q < 1e-3,
        &opts,
        &mut c,
    );

    opts.say("Watchdog recovery under burst faults\n");
    burst_recovery_section(
        &gmm,
        "GMM",
        seed,
        |state, truth_state| {
            hamming_distance(&gmm.assignments(state), &gmm.assignments(truth_state), 3) as f64
        },
        |q| q == 0.0,
        &opts,
        &mut c,
    );
    burst_recovery_section(
        &ar,
        "AutoRegression",
        seed,
        |state, truth_state| l2_error(state, truth_state),
        |q| q < 1e-3,
        &opts,
        &mut c,
    );
    c.finish("resilience", &opts)
}
