//! `guarantee` — static proof of the quality guarantee.
//!
//! Where `verify` proves the *hardware* (netlists, error bounds,
//! overflow-freedom), this binary proves the *control loop*: that the
//! online reconfiguration policies can never livelock away from the
//! accurate mode, and that the error injected per iteration — bounded
//! statically, before any simulation — is tamed by the solvers'
//! contraction. Runs, end to end and with a non-zero exit code on any
//! failure:
//!
//! 1. **Controller model checking** — the shipped strategies
//!    (adaptive, adaptive + watchdog, watchdogged single-mode) are
//!    proven livelock-free, monotone in their escalation order, and
//!    checkpoint-disciplined over their *entire* reachable state
//!    spaces.
//! 2. **Counterexample demo** — a deliberately broken controller with
//!    the escalation order inverted, and the unprotected single-mode
//!    baseline, must each yield concrete decision traces that replay
//!    against their specs (the same philosophy as `verify`'s broken
//!    adder: the checker earns trust by catching planted bugs with
//!    evidence).
//! 3. **Symbolic cross-check** — an independent BDD-based engine
//!    (forward reachability fixpoint + backward `EF accurate`) must
//!    agree with the explicit exploration on every controller.
//! 4. **Error propagation & contraction** — per-solver contraction
//!    factors (CG via Gershgorin + Chebyshev, AR via its exactly
//!    linear error map, GMM by validated declaration) are combined
//!    with the per-mode injected-error bounds of the datapath into the
//!    recurrence `e' ≤ ρ·e + δ`; its steady state `δ/(1−ρ)` must stay
//!    below the controller's switching budget (the paper's Eq. 5 error
//!    budget `E`).
//! 5. **Static dominance over Monte Carlo** — the static per-mode
//!    injected bounds must dominate *every* measured row of the
//!    offline `CharacterizationTable` for CG, AR and GMM: anything the
//!    simulation observes, the analysis predicted.

use std::process::ExitCode;

use approx_arith::{AccuracyLevel, ArithContext, EnergyProfile, QcsContext, RangeConfig};
use approxit::modelcheck::{symbolic_cross_check, ControllerSpec};
use approxit::{characterize, model_check, CharacterizationTable};
use approxit_bench::cli::{BenchOpts, Checker};
use approxit_bench::shared_profile;
use iter_solvers::{
    ar_contraction, ar_range_model, cg_contraction, cg_range_model, datasets, gmm_contraction,
    gmm_range_model, injected_error_bound, ArRangeSpec, AutoRegression, CgRangeSpec,
    ConjugateGradient, ContractionReport, GaussianMixture, GmmRangeSpec, IterativeMethod,
    RangeModel,
};

/// Characterization iterations per workload (kept small: the stage is
/// re-run per mode).
const CHAR_ITERS: usize = 4;

/// Declared contraction factor for GMM EM on the well-separated
/// benchmark blobs (validated against measured update ratios in stage
/// 4 before anything depends on it).
const GMM_DECLARED_RHO: f64 = 0.9;

fn shipped_specs() -> Vec<ControllerSpec> {
    vec![
        ControllerSpec::adaptive(),
        ControllerSpec::adaptive_with_watchdog(3),
        ControllerSpec::single_mode_with_watchdog(AccuracyLevel::Level1, 3),
        ControllerSpec::single_mode_with_watchdog(AccuracyLevel::Level4, 3),
    ]
}

fn modelcheck_stage(c: &mut Checker) {
    c.note("[1/5] model checking: shipped controllers over their full state spaces");
    for spec in shipped_specs() {
        let report = model_check(&spec);
        c.check(
            &format!("{} proven", report.controller),
            report.proven(),
            &format!(
                "{} states, {} transitions{}",
                report.states_explored,
                report.transitions,
                report
                    .violations
                    .first()
                    .map(|v| format!("; first violation: {v}"))
                    .unwrap_or_default()
            ),
        );
    }
}

fn counterexample_stage(c: &mut Checker) {
    c.note("[2/5] counterexamples: planted controller bugs must be caught with traces");

    // The inverted-escalation mutant: damage *lowers* the level.
    let mutant = ControllerSpec::inverted_escalation_mutant();
    let report = model_check(&mutant);
    let monotone = report
        .violations
        .iter()
        .find(|v| v.property.contains("monotone"));
    match monotone {
        Some(cx) => {
            c.check(
                "inverted-escalation mutant violates monotone order",
                cx.replay(&mutant),
                &format!("trace of {} steps replays against the spec", cx.trace.len()),
            );
            // Show the concrete decision trace, like verify prints the
            // broken adder's input assignment.
            for line in cx.to_string().lines() {
                c.note(&format!("       {line}"));
            }
        }
        None => c.check(
            "inverted-escalation mutant violates monotone order",
            false,
            "checker failed to catch the planted bug",
        ),
    }

    // The unprotected single-mode baseline livelocks below accurate —
    // the exact failure the watchdog exists to break.
    let unprotected = ControllerSpec::single_mode_unprotected(AccuracyLevel::Level1);
    let report = model_check(&unprotected);
    let livelock = report
        .violations
        .iter()
        .find(|v| v.property.contains("livelock"));
    c.check(
        "unprotected single-mode livelocks (watchdog is load-bearing)",
        livelock.is_some_and(|cx| cx.replay(&unprotected)),
        &format!("{} violations, all replayable", report.violations.len()),
    );
}

fn symbolic_stage(c: &mut Checker) {
    c.note("[3/5] symbolic cross-check: BDD engine vs explicit exploration");
    let mut specs = shipped_specs();
    specs.push(ControllerSpec::inverted_escalation_mutant());
    specs.push(ControllerSpec::single_mode_unprotected(
        AccuracyLevel::Level1,
    ));
    for spec in &specs {
        match symbolic_cross_check(spec) {
            Ok(cc) => c.check(
                &format!("symbolic == explicit for {}", spec.name()),
                cc.counts_agree(),
                &format!(
                    "{} reachable states, {} BDD nodes, EF accurate everywhere: {}",
                    cc.symbolic_reachable, cc.bdd_nodes, cc.all_reach_accurate
                ),
            ),
            Err(e) => c.check(
                &format!("symbolic == explicit for {}", spec.name()),
                false,
                &format!("BDD blow-up: {e:?}"),
            ),
        }
    }

    // EF accurate must hold for every *protected* controller and fail
    // for the unprotected baseline: the symbolic engine independently
    // rediscovers what the watchdog buys.
    let protected_ok = shipped_specs()
        .iter()
        .all(|s| symbolic_cross_check(s).is_ok_and(|cc| cc.all_reach_accurate));
    let unprotected_stuck = symbolic_cross_check(&ControllerSpec::single_mode_unprotected(
        AccuracyLevel::Level1,
    ))
    .is_ok_and(|cc| !cc.all_reach_accurate);
    c.check(
        "EF-accurate separates protected from unprotected controllers",
        protected_ok && unprotected_stuck,
        "",
    );
}

/// Everything the guarantee stages need to know about one workload.
struct Workload {
    model: RangeModel,
    contraction: ContractionReport,
    table: CharacterizationTable,
    /// Dimension of the parameter vector (for the √n norm conversion).
    dim: usize,
    /// Smallest exact next-iterate 2-norm over the characterized steps
    /// — the denominator floor when converting absolute bounds to the
    /// table's relative metric.
    min_exact_norm: f64,
    /// For *declared* (assume-guarantee) contraction factors: the
    /// largest measured successive update-norm ratio, which must stay
    /// at or below the declaration.
    declared_validation: Option<f64>,
}

/// Largest successive mean-update-norm ratio of the GMM EM trajectory
/// (exact datapath) while the updates are still numerically meaningful
/// — the measurement that backs the declared EM contraction factor.
fn gmm_measured_ratio(gmm: &GaussianMixture, profile: &EnergyProfile) -> f64 {
    let mut ctx = QcsContext::with_profile(profile.clone());
    ctx.set_level(AccuracyLevel::Accurate);
    let mut prev = gmm.initial_state();
    let mut prev_update: Option<f64> = None;
    let mut worst: f64 = 0.0;
    for _ in 0..25 {
        let next = gmm.step(&prev, &mut ctx);
        let update: f64 = next
            .means
            .iter()
            .flatten()
            .zip(prev.means.iter().flatten())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        if let Some(p) = prev_update {
            if p > 1e-8 {
                worst = worst.max(update / p);
            }
        }
        prev_update = Some(update);
        prev = next;
    }
    worst
}

fn exact_norm_floor<M: IterativeMethod>(method: &M, profile: &EnergyProfile) -> f64 {
    let mut ctx = QcsContext::with_profile(profile.clone());
    ctx.set_level(AccuracyLevel::Accurate);
    let mut state = method.initial_state();
    let mut floor = f64::INFINITY;
    for _ in 0..CHAR_ITERS {
        state = method.step(&state, &mut ctx);
        let p = method.params(&state);
        let norm = p.iter().map(|x| x * x).sum::<f64>().sqrt();
        floor = floor.min(norm);
    }
    floor
}

fn workloads(profile: &EnergyProfile) -> Vec<Workload> {
    // The same benchmark instances as `verify`'s range stage.
    let mut a = approx_linalg::Matrix::zeros(10, 10);
    for i in 0..10 {
        a[(i, i)] = 4.0;
        if i + 1 < 10 {
            a[(i, i + 1)] = -1.0;
            a[(i + 1, i)] = -1.0;
        }
    }
    let b: Vec<f64> = (0..10).map(|i| 1.0 + i as f64 * 0.5).collect();
    let cg = ConjugateGradient::new(a, b, 1e-12, 100);

    let series = datasets::ar_series("guarantee", 400, &[0.6, 0.2], 1.0, 3);
    let ar = AutoRegression::from_series(&series, 0.5, 1e-10, 500);

    let blobs = datasets::gaussian_blobs(
        "guarantee",
        &[30, 30],
        &[vec![0.0, 0.0], vec![6.0, 6.0]],
        &[0.6, 0.6],
        1,
    );
    let gmm = GaussianMixture::from_dataset(&blobs, 1e-9, 100, 7);

    vec![
        Workload {
            model: cg_range_model(&cg, &CgRangeSpec::default()),
            contraction: cg_contraction(&cg),
            table: characterize(&cg, profile, CHAR_ITERS),
            dim: cg.initial_state().x.len(),
            min_exact_norm: exact_norm_floor(&cg, profile),
            declared_validation: None,
        },
        Workload {
            model: ar_range_model(&ar, &ArRangeSpec::default()),
            contraction: ar_contraction(&ar),
            table: characterize(&ar, profile, CHAR_ITERS),
            dim: ar.order(),
            min_exact_norm: exact_norm_floor(&ar, profile),
            declared_validation: None,
        },
        Workload {
            model: gmm_range_model(&gmm, &GmmRangeSpec::default()),
            contraction: gmm_contraction(&gmm, GMM_DECLARED_RHO),
            table: characterize(&gmm, profile, CHAR_ITERS),
            dim: gmm.initial_state().means.iter().map(Vec::len).sum(),
            min_exact_norm: exact_norm_floor(&gmm, profile),
            declared_validation: Some(gmm_measured_ratio(&gmm, profile)),
        },
    ]
}

/// Per-mode hardware range configuration of the paper-default datapath.
fn config_at(ctx: &mut QcsContext, level: AccuracyLevel) -> RangeConfig {
    ctx.set_level(level);
    ctx.range_config().expect("QCS context models hardware")
}

/// Static per-mode injected bound, converted to the characterization
/// table's *relative parameter-space* metric: per-component absolute
/// bound × √dim (2-norm over the parameter vector), divided by the
/// smallest exact iterate norm observed over the characterized window.
fn relative_static_bound(w: &Workload, ctx: &mut QcsContext, level: AccuracyLevel) -> f64 {
    let approx = config_at(ctx, level);
    let exact = config_at(ctx, AccuracyLevel::Accurate);
    let abs = injected_error_bound(&w.model, &approx, &exact);
    abs * (w.dim as f64).sqrt() / w.min_exact_norm
}

fn contraction_stage(c: &mut Checker, loads: &[Workload], ctx: &mut QcsContext) {
    c.note("[4/5] error propagation x contraction: the recurrence e' <= rho*e + delta");
    for w in loads {
        for note in w.contraction.notes() {
            c.note(&format!("       {}: {note}", w.model.name()));
        }
        c.check(
            &format!("{} contraction certified", w.contraction.name()),
            w.contraction.is_contracting(),
            &format!("rho = {:.6}", w.contraction.factor()),
        );
        if let Some(measured) = w.declared_validation {
            c.check(
                &format!(
                    "{} declared factor backed by measurement",
                    w.contraction.name()
                ),
                measured <= w.contraction.factor(),
                &format!(
                    "worst measured update ratio {measured:.4} <= declared {:.4}",
                    w.contraction.factor()
                ),
            );
        }

        // The controller's switching budget is the paper's Eq. 5 error
        // budget E = the exact run's initial objective drop — the total
        // error the adaptive LUT is allowed to distribute over the run.
        // The *steady state* of the error recurrence at the finest
        // approximate mode must sit below it: sustained Level4
        // approximation can never exhaust the budget on its own.
        let delta = relative_static_bound(w, ctx, AccuracyLevel::Level4);
        let rec = w.contraction.recurrence(delta);
        let budget = w.table.initial_objective_drop;
        match rec.steady_state() {
            Some(ss) => c.check(
                &format!("{} steady state below switching budget", w.model.name()),
                rec.stays_below(budget),
                &format!("delta/(1-rho) = {ss:.4e}, budget E = {budget:.4e}"),
            ),
            None => c.check(
                &format!("{} steady state below switching budget", w.model.name()),
                false,
                "no steady state: contraction not certified",
            ),
        }
    }
}

fn dominance_stage(c: &mut Checker, loads: &[Workload], ctx: &mut QcsContext) {
    c.note("[5/5] dominance: static bounds vs the measured characterization table");
    for w in loads {
        c.note(&format!(
            "       {} (dim {}, exact-norm floor {:.3e}):",
            w.model.name(),
            w.dim,
            w.min_exact_norm
        ));
        c.note(&format!(
            "       {:>8} {:>14} {:>14}",
            "mode", "measured eps", "static bound"
        ));
        let mut dominated = true;
        let mut worst = String::new();
        for level in AccuracyLevel::APPROXIMATE {
            let measured = w.table.update_error(level);
            let stat = relative_static_bound(w, ctx, level);
            c.note(&format!(
                "       {:>8} {measured:>14.4e} {stat:>14.4e}",
                level.to_string()
            ));
            if !(stat.is_finite() && measured <= stat) {
                dominated = false;
                worst = format!("{level}: measured {measured:.4e} > static {stat:.4e}");
            }
        }
        c.check(
            &format!(
                "static bounds dominate every measured row for {}",
                w.model.name()
            ),
            dominated,
            &worst,
        );
    }
}

fn main() -> ExitCode {
    let opts = BenchOpts::parse_for("guarantee", &[], &[]);
    opts.say("guarantee: controller model checking + static error-propagation proofs");
    let mut c = Checker::new(opts.quiet);
    modelcheck_stage(&mut c);
    counterexample_stage(&mut c);
    symbolic_stage(&mut c);

    let profile = shared_profile();
    let loads = workloads(profile);
    let mut ctx = QcsContext::with_profile(profile.clone());
    contraction_stage(&mut c, &loads, &mut ctx);
    dominance_stage(&mut c, &loads, &mut ctx);

    c.finish("guarantee", &opts)
}
