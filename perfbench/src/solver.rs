//! The closed-loop runner shared by the three solver workloads.
//!
//! A run sets up `SETUP_REPS` times (energy profile, inputs, offline
//! characterization), solves each input once at `Accurate` for the Truth
//! reference, warms up with one adaptive solve per input, and then times
//! a fixed count of passes over the input pool. Every timed solve must
//! reproduce its input's warm-up solve bit for bit. A traced run then
//! repeats the passes through the trace wrappers and must again
//! reproduce the warm-up solves.

use approx_arith::{AccuracyLevel, EnergyProfile, QcsContext};
use approxit::{
    characterize_on_with, AdaptiveAngleStrategy, CharacterizationTable, RunConfig, RunOutcome,
    SingleMode,
};
use iter_solvers::IterativeMethod;
use parx::Executor;

use crate::clock;
use crate::host;
use crate::run::{
    mean, Fingerprint, Metric, Report, RunOpts, CHAR_ITERS, SETUP_REPS, UPDATE_PERIOD, WORKERS,
};
use crate::stats;
use crate::trace::{self, Layer, Phase, TracedCtx, TracedStrategy};

/// The fixed shape of a solver workload.
#[derive(Debug, Clone, Copy)]
pub struct SolverSpec {
    /// Typical wall time of one unit on a 2-vCPU host, which fixes the
    /// unit count for a given `--seconds`.
    pub nominal_unit_s: f64,
    /// Largest acceptable quality metric.
    pub qem_tol: f64,
    /// What the quality metric measures, for the report.
    pub qem_what: &'static str,
}

/// How a workload builds and judges its inputs.
pub trait SolverInputs {
    /// The untraced method.
    type Method: IterativeMethod + Sync;
    /// The same method behind the trace wrappers.
    type Traced: IterativeMethod<State = <Self::Method as IterativeMethod>::State> + Sync;

    /// The gate-level energy profile of the datapath.
    fn profile(&self) -> EnergyProfile {
        EnergyProfile::paper_default()
    }

    /// The input pool for a seed; timed units cycle over it.
    fn build(&self, seed: u64) -> Vec<Self::Method>;

    /// The datapath template every context of the run is cloned from.
    fn template(&self, profile: &EnergyProfile) -> QcsContext;

    /// Wrap a method (and its operator, if any) for tracing.
    fn wrap(&self, method: &Self::Method) -> Self::Traced;

    /// The quality metric of a solve of pool member `member`.
    fn qem(
        &self,
        seed: u64,
        member: usize,
        method: &Self::Method,
        approx: &<Self::Method as IterativeMethod>::State,
        truth: &<Self::Method as IterativeMethod>::State,
    ) -> f64;
}

struct Prepared<W: SolverInputs> {
    methods: Vec<W::Method>,
    traced: Vec<W::Traced>,
    tables: Vec<CharacterizationTable>,
    template: QcsContext,
}

fn set_up<W: SolverInputs>(w: &W, opts: &RunOpts, report: &mut Report) -> (Prepared<W>, [f64; 3])
where
    <W::Method as IterativeMethod>::State: Sync,
{
    let exec = Executor::with_threads(WORKERS);
    let (mut setup_s, mut profile_s, mut char_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared: Option<Prepared<W>> = None;
    for _ in 0..SETUP_REPS {
        let t0 = clock::now();
        let profile = w.profile();
        let t1 = clock::now();
        let methods = w.build(opts.seed);
        let traced: Vec<W::Traced> = if opts.trace {
            methods.iter().map(|m| w.wrap(m)).collect()
        } else {
            Vec::new()
        };
        let template = w.template(&profile);
        let t2 = clock::now();
        let tables: Vec<CharacterizationTable> = if opts.trace {
            traced
                .iter()
                .map(|m| characterize_on_with(m, &template, CHAR_ITERS, &exec))
                .collect()
        } else {
            methods
                .iter()
                .map(|m| characterize_on_with(m, &template, CHAR_ITERS, &exec))
                .collect()
        };
        let t3 = clock::now();
        setup_s.push(t3 - t0);
        profile_s.push(t1 - t0);
        char_s.push(t3 - t2);
        if prepared.as_ref().is_some_and(|p| p.tables != tables) {
            report.error("offline characterization differs between set-ups".to_owned());
        }
        prepared = Some(Prepared {
            methods,
            traced,
            tables,
            template,
        });
    }
    report.line(format!(
        "setup: {SETUP_REPS} set-ups, median {:.6} s (energy profile {:.6} s, \
         characterization {:.6} s)",
        stats::median(&setup_s),
        stats::median(&profile_s),
        stats::median(&char_s),
    ));
    let prepared = prepared.expect("at least one set-up");
    (
        prepared,
        [stats::median(&setup_s), mean(&profile_s), mean(&char_s)],
    )
}

/// Run one solver workload end to end and fill in its report.
///
/// A timed unit is one pass over the input pool — one `execute` solve
/// of every input, in order — so every unit does the same work and the
/// timing distribution has one mode. Timings are reported per solve: a
/// pass's wall time divided by the pool size.
pub fn run<W: SolverInputs>(w: &W, spec: &SolverSpec, opts: &RunOpts) -> Report
where
    <W::Method as IterativeMethod>::State: Sync,
{
    let mut report = Report::default();
    let ticks = host::cpu_ticks();
    trace::set_phase(Phase::Setup);
    let (p, [setup_s, profile_s, char_s]) = set_up(w, opts, &mut report);
    let setup_totals = trace::take(Phase::Setup);
    trace::set_phase(Phase::Solve);
    let pool = p.methods.len();

    // Untimed Truth references.
    let truths: Vec<RunOutcome<_>> = p
        .methods
        .iter()
        .map(|m| {
            let mut ctx = p.template.clone();
            RunConfig::new(m, &mut ctx).execute(&mut SingleMode::accurate())
        })
        .collect();

    let strategy =
        |i: usize| AdaptiveAngleStrategy::from_characterization(&p.tables[i], UPDATE_PERIOD);
    let solve = |i: usize| {
        let mut ctx = p.template.clone();
        RunConfig::new(&p.methods[i], &mut ctx).execute(&mut strategy(i))
    };

    // Warm-up pass: one solve per input, judged against its Truth
    // reference; every later solve of the input must reproduce it.
    let mut refs = Vec::with_capacity(pool);
    let (mut energy_norms, mut qems) = (Vec::new(), Vec::new());
    let mut ok_inputs = 0u64;
    for (i, (m, truth)) in p.methods.iter().zip(&truths).enumerate() {
        if !truth.report.converged {
            report.error(format!(
                "input {i}: the Truth reference hit its iteration cap"
            ));
        }
        let out = solve(i);
        let qem = w.qem(opts.seed, i, m, &out.state, &truth.state);
        let energy_norm = out.report.normalized_energy(&truth.report);
        if out.report.converged && qem <= spec.qem_tol {
            ok_inputs += 1;
        } else {
            report.error(format!(
                "input {i}: adaptive solve converged={} with {} {qem:.3e} (tolerance {:.1e})",
                out.report.converged, spec.qem_what, spec.qem_tol
            ));
        }
        report.line(format!(
            "input {i}: truth {} iters; adaptive {} iters, steps/level {:?}, rollbacks {}, \
             energy_norm {energy_norm:.6}, {} {qem:.3e}",
            truth.report.iterations,
            out.report.iterations,
            out.report.steps_per_level,
            out.report.rollbacks,
            spec.qem_what,
        ));
        energy_norms.push(energy_norm);
        qems.push(qem);
        refs.push(Fingerprint::of(m, &out));
    }

    if !report.errors.is_empty() {
        // A wrong warm-up output fails the run; timing it would measure
        // a broken program.
        report.attempted = pool as u64;
        report.failed = pool as u64 - ok_inputs;
        return report;
    }

    // Timed passes. A traced run alternates untraced and traced passes,
    // so both see the same host conditions and their difference is the
    // tracing overhead.
    let passes = opts.units(spec.nominal_unit_s * pool as f64);
    let mut times = Vec::with_capacity(passes);
    let mut traced_times = Vec::new();
    let mut reports = Vec::new();
    let mut differing = 0u64;
    let _ = trace::take(Phase::Solve);
    let _ = trace::take_intervals();
    for pass in 0..passes {
        let t = clock::now();
        for (i, reference) in refs.iter().enumerate() {
            if Fingerprint::of(&p.methods[i], &solve(i)) != *reference {
                differing += 1;
                report.error(format!(
                    "pass {pass}: input {i} differs from its first solve"
                ));
            }
        }
        times.push((clock::now() - t) / pool as f64);
        if !opts.trace {
            continue;
        }
        let t = clock::now();
        for (i, reference) in refs.iter().enumerate() {
            let mut ctx = TracedCtx::new(p.template.clone());
            let mut s = TracedStrategy::new(Box::new(strategy(i)));
            let out = trace::timed(Layer::Runner, || {
                RunConfig::new(&p.traced[i], &mut ctx).execute(&mut s)
            });
            if Fingerprint::of(&p.methods[i], &out) != *reference {
                report.error(format!(
                    "traced pass {pass}: input {i} differs from untraced"
                ));
            }
            reports.push(out.report);
        }
        traced_times.push((clock::now() - t) / pool as f64);
    }
    let solves = (passes * pool) as u64;
    let ok_solves = solves - differing;
    report.attempted = solves;
    report.failed = solves - ok_solves;
    report.timings(
        &times,
        ok_solves as f64,
        times.iter().sum::<f64>() * pool as f64,
    );

    if !opts.trace {
        report.end_to_end.insert(
            0,
            Metric {
                name: "setup_s",
                value: setup_s,
                unit: "s",
                samples: SETUP_REPS,
            },
        );
        report.e2e("peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0), "MiB", 1);
        report.e2e(
            "ok_frac",
            ok_solves as f64 / solves as f64,
            "ratio",
            solves as usize,
        );
        report.e2e("energy_norm", mean(&energy_norms), "ratio", pool);
        report.line(format!(
            "quality: mean {} {:.6e} over {pool} inputs (tolerance {:.1e})",
            spec.qem_what,
            mean(&qems),
            spec.qem_tol
        ));
        report.line(format!(
            "host: steal_frac {:.6}",
            host::steal_frac(ticks, host::cpu_ticks())
        ));
        return report;
    }

    report.attempted += solves;
    let t = trace::take(Phase::Solve);
    let iterations: usize = reports.iter().map(|r| r.iterations).sum();
    let rollbacks: usize = reports.iter().map(|r| r.rollbacks).sum();
    let accurate: usize = reports
        .iter()
        .map(|r| r.steps_at(AccuracyLevel::Accurate))
        .sum();
    let ops: u64 = reports.iter().map(|r| r.op_counts.total()).sum();
    let energy: f64 = reports.iter().map(|r| r.approx_energy).sum();
    let checkpoints: usize = reports.iter().map(|r| r.recovery.checkpoints_taken).sum();
    let setup_steps = setup_totals.count(Layer::Step) as f64 / SETUP_REPS as f64;

    layer_metrics(
        &mut report,
        &t,
        &LayerInputs {
            units: solves as f64,
            ops: ops as f64,
            energy,
            iterations: iterations as f64,
            useful_iterations: (iterations - rollbacks) as f64,
            accurate_steps: accurate as f64,
            checkpoints: checkpoints as f64,
            char_s,
            char_steps: setup_steps,
            profile_s,
            service: None,
            workers: 1.0,
            wall: traced_times.iter().sum::<f64>() * pool as f64,
            qem: mean(&qems),
            steal: host::steal_frac(ticks, host::cpu_ticks()),
            overhead: stats::median(&traced_times) / stats::median(&times) - 1.0,
        },
    );
    report
}

/// Service-only inputs to the per-layer metrics, summed over drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceLayer {
    /// Drain wall time not covered by any attempt.
    pub sched_s: f64,
    /// Scheduling rounds.
    pub rounds: f64,
    /// Attempts run.
    pub attempts: f64,
    /// Attempts beyond each request's first.
    pub retries: f64,
    /// Circuit-breaker trips.
    pub breaker_trips: f64,
    /// Requests that succeeded.
    pub successes: f64,
}

/// Everything [`layer_metrics`] needs besides the span totals.
#[derive(Debug, Clone, Copy)]
pub struct LayerInputs {
    /// Traced units the totals cover.
    pub units: f64,
    /// `OpCounts` total over the units.
    pub ops: f64,
    /// Metered approximate energy over the units.
    pub energy: f64,
    /// Iterations over the units (from run reports).
    pub iterations: f64,
    /// Iterations not rolled back.
    pub useful_iterations: f64,
    /// Steps run at `Accurate`.
    pub accurate_steps: f64,
    /// Watchdog checkpoints taken.
    pub checkpoints: f64,
    /// Mean characterization time per set-up.
    pub char_s: f64,
    /// Characterization steps per set-up.
    pub char_steps: f64,
    /// Mean energy-profile time per set-up.
    pub profile_s: f64,
    /// Service counters, on `service_drain` only.
    pub service: Option<ServiceLayer>,
    /// Executor workers the units ran on.
    pub workers: f64,
    /// Summed unit wall time.
    pub wall: f64,
    /// Mean quality metric.
    pub qem: f64,
    /// Hypervisor steal share over the run.
    pub steal: f64,
    /// Traced over untraced median unit time, minus one.
    pub overhead: f64,
}

/// Fill in every per-layer metric, per traced unit.
pub fn layer_metrics(report: &mut Report, t: &trace::Totals, x: &LayerInputs) {
    let samples = x.units as usize;
    let layer = |r: &mut Report, name, value, unit| r.layer(name, value, unit, samples);
    let per = |v: f64| v / x.units;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let kernel_s = t.secs(Layer::Kernel);
    let elems = t.kernel_elems as f64;
    layer(report, "approx_arith.kernel_s", per(kernel_s), "s");
    layer(
        report,
        "approx_arith.kernel_calls",
        per(t.count(Layer::Kernel) as f64),
        "count",
    );
    layer(report, "approx_arith.kernel_elems", per(elems), "count");
    layer(
        report,
        "approx_arith.ns_per_elem",
        ratio(kernel_s * 1e9, elems),
        "ns",
    );
    layer(
        report,
        "approx_arith.scalar_ops",
        per(t.scalar_ops as f64),
        "count",
    );
    layer(report, "approx_arith.ops", per(x.ops), "count");
    layer(report, "approx_arith.energy", per(x.energy), "energy");

    let applies = t.count(Layer::Apply) as f64;
    layer(
        report,
        "linalg.apply_self_s",
        per(t.secs(Layer::Apply)),
        "s",
    );
    layer(
        report,
        "linalg.apply_exact_s",
        per(t.secs(Layer::ApplyExact)),
        "s",
    );
    layer(report, "linalg.applies", per(applies), "count");
    layer(
        report,
        "linalg.exact_applies",
        per(t.count(Layer::ApplyExact) as f64),
        "count",
    );
    layer(
        report,
        "linalg.bytes_per_apply",
        ratio(t.apply_bytes as f64, applies),
        "B",
    );

    layer(report, "solvers.step_self_s", per(t.secs(Layer::Step)), "s");
    layer(
        report,
        "solvers.monitor_s",
        per(t.secs(Layer::Monitor)),
        "s",
    );
    layer(
        report,
        "solvers.iters",
        per(t.count(Layer::Step) as f64),
        "count",
    );
    layer(
        report,
        "solvers.useful_iter_frac",
        ratio(x.useful_iterations, x.iterations),
        "ratio",
    );

    layer(
        report,
        "core.runner.self_s",
        per(t.secs(Layer::Runner)),
        "s",
    );
    layer(
        report,
        "core.runner.checkpoints",
        per(x.checkpoints),
        "count",
    );

    layer(
        report,
        "core.strategy.decide_s",
        per(t.secs(Layer::Decide)),
        "s",
    );
    layer(
        report,
        "core.strategy.decisions",
        per(t.count(Layer::Decide) as f64),
        "count",
    );
    layer(
        report,
        "core.strategy.switches",
        per(t.switches as f64),
        "count",
    );
    layer(
        report,
        "core.strategy.accurate_frac",
        ratio(x.accurate_steps, x.iterations),
        "ratio",
    );

    layer(report, "core.characterize.s", x.char_s, "s");
    layer(report, "core.characterize.steps", x.char_steps, "count");
    layer(report, "gatesim.energy_profile_s", x.profile_s, "s");

    let s = x.service.unwrap_or_default();
    layer(report, "core.service.sched_s", per(s.sched_s), "s");
    layer(
        report,
        "core.service.attempt_busy_s",
        if x.service.is_some() {
            per(t.busy_s)
        } else {
            0.0
        },
        "s",
    );
    layer(report, "core.service.rounds", per(s.rounds), "count");
    layer(report, "core.service.attempts", per(s.attempts), "count");
    layer(report, "core.service.retries", per(s.retries), "count");
    layer(
        report,
        "core.service.breaker_trips",
        per(s.breaker_trips),
        "count",
    );
    layer(
        report,
        "core.service.useful_attempt_frac",
        ratio(s.successes, s.attempts),
        "ratio",
    );

    let capacity = x.workers * x.wall;
    layer(report, "parx.workers", x.workers, "count");
    layer(
        report,
        "parx.utilization",
        ratio(t.busy_s, capacity),
        "ratio",
    );
    layer(
        report,
        "parx.idle_s",
        per((capacity - t.busy_s).max(0.0)),
        "s",
    );

    layer(report, "quality.qem", x.qem, "qem");
    layer(report, "host.steal_frac", x.steal, "ratio");
    layer(report, "trace.overhead_frac", x.overhead, "ratio");
}
