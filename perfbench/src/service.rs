//! `service_drain`: dense SPD conjugate-gradient requests drained by
//! `SolverService` on an executor pinned to [`WORKERS`] workers.
//!
//! Every batch mixes orders, starts every request at `Level1` with a
//! quality floor, and holds one NaN-seeded request, so retry with
//! escalation and backoff rounds run in every drain. A run holds a pool
//! of batches; a timed unit is one pass that drains each batch once with
//! `run_with`, and timings are reported per drain. Attempt contexts carry
//! no executor.

use approx_arith::{AccuracyLevel, ArithContext, EnergyProfile, QcsContext};
use approx_linalg::{vector, Matrix};
use approxit::service::{AttemptSpec, Request, ServiceConfig, ServiceReport, SolverService};
use approxit::{
    characterize_on_with, AdaptiveAngleStrategy, CharacterizationTable, Outcome, ReconfigStrategy,
    SingleMode,
};
use iter_solvers::rng::Pcg32;
use iter_solvers::{CgState, ConjugateGradient, IterativeMethod};
use parx::Executor;

use crate::clock;
use crate::host;
use crate::run::{
    mean, union_len, Fingerprint, Metric, Report, RunOpts, CHAR_ITERS, SETUP_REPS, UPDATE_PERIOD,
    WORKERS,
};
use crate::solver::{layer_metrics, LayerInputs, ServiceLayer};
use crate::stats;
use crate::trace::{
    self, dense_bytes, Layer, Phase, TracedCtx, TracedMethod, TracedOp, TracedStrategy,
};
use crate::workloads::member_seed;

/// Convergence tolerance of the healthy requests.
const HEALTHY_TOL: f64 = 1e-4;
/// Iteration cap of the healthy requests.
const HEALTHY_CAP: usize = 200;
/// A successful request's objective must come within this share of the
/// Accurate drain's objective for the same system.
pub const FLOOR_GAP: f64 = 0.01;
/// Typical wall time of one drain on a 2-vCPU host.
const NOMINAL_DRAIN_S: f64 = 0.17;

/// The request batches of `service_drain`.
#[derive(Debug, Clone, Copy)]
pub struct ServiceDrain {
    /// Batches per run; a timed unit drains each once.
    pub pool: usize,
    /// Requests per batch, the NaN-seeded one included.
    pub batch: usize,
    /// Smallest system order; orders step by `order_step` over 8 sizes.
    pub min_order: usize,
    /// Order increment between sizes.
    pub order_step: usize,
}

type Cg = ConjugateGradient<Matrix>;
type TracedCg = TracedMethod<ConjugateGradient<TracedOp<Matrix>>>;

impl ServiceDrain {
    /// The benchmark configuration: four batches of 48 requests of
    /// orders 64 to 288.
    pub const FULL: Self = Self {
        pool: 4,
        batch: 48,
        min_order: 64,
        order_step: 32,
    };

    /// Position of the NaN-seeded request in the batch.
    #[must_use]
    pub fn nan_index(&self) -> usize {
        self.batch / 2
    }

    /// The `(A, b, tolerance, cap)` of every request of batch `member`
    /// for a seed.
    #[must_use]
    pub fn systems(&self, seed: u64, member: usize) -> Vec<(Matrix, Vec<f64>, f64, usize)> {
        (0..self.batch)
            .map(|i| {
                let n = self.min_order + self.order_step * (i % 8);
                let (a, mut b) = spd_system(n, member_seed(seed, 0x5E, member * self.batch + i));
                if i == self.nan_index() {
                    b[0] = f64::NAN;
                    (a, b, 1e-6, 50)
                } else {
                    (a, b, HEALTHY_TOL, HEALTHY_CAP)
                }
            })
            .collect()
    }
}

/// A well-conditioned SPD system `A = M·Mᵀ/n + I` with a random `b`.
fn spd_system(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = Pcg32::seeded(seed, 0);
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = rng.uniform(-1.0, 1.0);
        }
    }
    let mut a = m.matmul_exact(&m.transpose());
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] /= n as f64;
        }
        a[(i, i)] += 1.0;
    }
    let b: Vec<f64> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
    (a, b)
}

fn attempt_ctx(template: &QcsContext, spec: &AttemptSpec) -> QcsContext {
    let mut ctx = template.clone();
    ctx.set_level(spec.level);
    ctx
}

/// The strategy of an attempt: the adaptive controller on a request's
/// first attempt; a retry runs at the fixed level the service escalated
/// it to.
fn attempt_strategy(
    table: &CharacterizationTable,
    spec: &AttemptSpec,
) -> Box<dyn ReconfigStrategy> {
    if spec.attempt == 1 {
        Box::new(AdaptiveAngleStrategy::from_characterization(
            table,
            UPDATE_PERIOD,
        ))
    } else {
        Box::new(SingleMode::new(spec.level))
    }
}

/// Submit a batch to a fresh service and drain it; returns the ids,
/// report and wall time of the drain.
fn drain<M, C>(
    seed: u64,
    batch: &[Request<M>],
    exec: &Executor,
    ctx: impl Fn(&AttemptSpec) -> C + Sync,
    strategy: impl Fn(&AttemptSpec) -> Box<dyn ReconfigStrategy> + Sync,
) -> (Vec<u64>, ServiceReport<CgState>, f64)
where
    M: IterativeMethod<State = CgState> + Sync + Clone,
    C: ArithContext,
{
    let mut service = SolverService::new(ServiceConfig {
        queue_capacity: 64,
        base_seed: seed,
        ..ServiceConfig::default()
    });
    let ids: Vec<u64> = batch
        .iter()
        .map(|r| service.submit(r.clone()).id())
        .collect();
    let t = clock::now();
    let report = service.run_with(exec, ctx, strategy);
    (ids, report, clock::now() - t)
}

/// What must repeat bit for bit from drain to drain: per request its
/// outcome, attempts, final level, reroutes and final solve.
type RequestPrint = (
    &'static str,
    usize,
    Option<AccuracyLevel>,
    usize,
    Option<Fingerprint>,
);

/// What must repeat bit for bit from drain to drain.
#[derive(Debug, Clone, PartialEq)]
struct DrainPrint {
    rounds: usize,
    requests: Vec<RequestPrint>,
}

fn print_of(report: &ServiceReport<CgState>) -> DrainPrint {
    DrainPrint {
        rounds: report.rounds,
        requests: report
            .requests
            .iter()
            .map(|r| {
                let t = &r.telemetry;
                let fp = match (&t.report, &r.state) {
                    (Some(rep), Some(state)) => Some(Fingerprint::new(&state.x, rep)),
                    _ => None,
                };
                (
                    t.outcome.as_str(),
                    t.attempts,
                    t.final_level,
                    t.reroutes,
                    fp,
                )
            })
            .collect(),
    }
}

/// The per-drain verdict.
struct Judged {
    successes: usize,
    qem: f64,
}

fn judge(
    w: &ServiceDrain,
    report: &ServiceReport<CgState>,
    ids: &[u64],
    floors: &[f64],
    x_acc: &[Vec<f64>],
    errors: &mut Vec<String>,
) -> Judged {
    if !report.accounts_for(ids) {
        errors.push("a drain lost or reordered a request".to_owned());
    }
    let mut successes = 0;
    let mut qem = 0.0f64;
    for (i, r) in report.requests.iter().enumerate() {
        let t = &r.telemetry;
        if i == w.nan_index() {
            if t.outcome != Outcome::Failed || t.report.is_none() {
                errors.push(format!(
                    "the NaN request ended {} without a failed report",
                    t.outcome
                ));
            }
            continue;
        }
        if !matches!(t.outcome, Outcome::Completed | Outcome::Degraded) {
            continue;
        }
        successes += 1;
        let objective = t
            .report
            .as_ref()
            .map_or(f64::NAN, |rep| rep.final_objective);
        if objective.is_nan() || objective > floors[i] {
            errors.push(format!(
                "request {i} succeeded at objective {objective} above its floor"
            ));
        }
        if let Some(state) = &r.state {
            let rel = vector::dist2_exact(&state.x, &x_acc[i]) / vector::norm2_exact(&x_acc[i]);
            qem = qem.max(rel);
        }
    }
    Judged { successes, qem }
}

/// The representative request of each batch, characterized offline;
/// every first attempt's adaptive strategy is built from its table.
const REPRESENTATIVE: usize = 1;

/// One batch of the pool and everything a drain of it is judged by.
struct Batch {
    requests: Vec<Request<Cg>>,
    traced: Vec<Request<TracedCg>>,
    table: CharacterizationTable,
    floors: Vec<f64>,
    x_acc: Vec<Vec<f64>>,
    first: DrainPrint,
}

/// Counters summed over the traced drains.
#[derive(Default)]
struct Tally {
    layer: ServiceLayer,
    iterations: f64,
    useful: f64,
    accurate_steps: f64,
    ops: f64,
    energy: f64,
    checkpoints: f64,
}

impl Tally {
    fn add(&mut self, rep: &ServiceReport<CgState>) {
        self.layer.rounds += rep.rounds as f64;
        self.layer.breaker_trips += rep.breaker.trips as f64;
        for r in &rep.requests {
            let t = &r.telemetry;
            self.layer.attempts += t.attempts as f64;
            self.layer.retries += t.attempts.saturating_sub(1) as f64;
            if matches!(t.outcome, Outcome::Completed | Outcome::Degraded) {
                self.layer.successes += 1.0;
            }
            if let Some(rr) = &t.report {
                self.iterations += rr.iterations as f64;
                self.useful += (rr.iterations - rr.rollbacks) as f64;
                self.accurate_steps += rr.steps_at(AccuracyLevel::Accurate) as f64;
                self.ops += rr.op_counts.total() as f64;
                self.energy += rr.approx_energy;
                self.checkpoints += rr.recovery.checkpoints_taken as f64;
            }
        }
    }
}

/// Run `service_drain` end to end and fill in its report.
pub fn run(w: &ServiceDrain, opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let ticks = host::cpu_ticks();
    let exec = Executor::with_threads(WORKERS);
    trace::set_phase(Phase::Setup);
    let (mut setup_s, mut profile_s, mut char_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = clock::now();
        let profile = EnergyProfile::paper_default();
        let t1 = clock::now();
        let systems: Vec<_> = (0..w.pool).map(|m| w.systems(opts.seed, m)).collect();
        let template = QcsContext::with_profile(profile);
        let representatives: Vec<_> = systems.iter().map(|s| &s[REPRESENTATIVE]).collect();
        let cgs: Vec<Cg> = representatives
            .iter()
            .map(|(a, b, tol, cap)| ConjugateGradient::new(a.clone(), b.clone(), *tol, *cap))
            .collect();
        let traced_cgs: Vec<TracedCg> = if opts.trace {
            representatives
                .iter()
                .map(|(a, b, tol, cap)| traced_request(a, b, *tol, *cap))
                .collect()
        } else {
            Vec::new()
        };
        let t2 = clock::now();
        let tables: Vec<CharacterizationTable> = if opts.trace {
            traced_cgs
                .iter()
                .map(|m| characterize_on_with(m, &template, CHAR_ITERS, &exec))
                .collect()
        } else {
            cgs.iter()
                .map(|m| characterize_on_with(m, &template, CHAR_ITERS, &exec))
                .collect()
        };
        let t3 = clock::now();
        setup_s.push(t3 - t0);
        profile_s.push(t1 - t0);
        char_s.push(t3 - t2);
        prepared = Some((systems, template, tables));
    }
    let (systems, template, tables) = prepared.expect("at least one set-up");
    let setup = stats::median(&setup_s);
    report.line(format!(
        "setup: {SETUP_REPS} set-ups, median {setup:.6} s (energy profile {:.6} s, \
         characterization {:.6} s, {} batches of {} requests)",
        stats::median(&profile_s),
        stats::median(&char_s),
        w.pool,
        w.batch
    ));
    let char_steps = trace::take(Phase::Setup).count(Layer::Step) as f64 / SETUP_REPS as f64;
    trace::set_phase(Phase::Solve);
    let ctx = |spec: &AttemptSpec| attempt_ctx(&template, spec);

    let mut batches = Vec::with_capacity(w.pool);
    let mut energy_norms = Vec::with_capacity(w.pool);
    let mut qem = 0.0f64;
    for (member, (systems, table)) in systems.into_iter().zip(tables).enumerate() {
        // Untimed reference: the same batch drained at Accurate.
        let accurate: Vec<Request<Cg>> = systems
            .iter()
            .map(|(a, b, tol, cap)| {
                Request::new(ConjugateGradient::new(a.clone(), b.clone(), *tol, *cap))
                    .at_level(AccuracyLevel::Accurate)
            })
            .collect();
        let (_, acc, _) = drain(opts.seed, &accurate, &exec, ctx, |spec: &AttemptSpec| {
            Box::new(SingleMode::new(spec.level)) as Box<dyn ReconfigStrategy>
        });
        drop(accurate);
        let mut floors = Vec::new();
        let mut x_acc = Vec::new();
        for (i, r) in acc.requests.iter().enumerate() {
            let objective = r
                .telemetry
                .report
                .as_ref()
                .map_or(f64::NAN, |rep| rep.final_objective);
            if i != w.nan_index() && r.telemetry.outcome != Outcome::Completed {
                report.error(format!(
                    "batch {member}: request {i} failed its Accurate reference solve"
                ));
            }
            floors.push(if i == w.nan_index() {
                0.0
            } else {
                objective + FLOOR_GAP * objective.abs()
            });
            x_acc.push(r.state.as_ref().map_or_else(Vec::new, |s| s.x.clone()));
        }

        let requests: Vec<Request<Cg>> = systems
            .iter()
            .zip(&floors)
            .map(|((a, b, tol, cap), &floor)| {
                Request::new(ConjugateGradient::new(a.clone(), b.clone(), *tol, *cap))
                    .with_quality_floor(floor)
            })
            .collect();
        // Requests behind the trace wrappers.
        let traced: Vec<Request<TracedCg>> = if opts.trace {
            systems
                .iter()
                .zip(&floors)
                .map(|((a, b, tol, cap), &floor)| {
                    Request::new(traced_request(a, b, *tol, *cap)).with_quality_floor(floor)
                })
                .collect()
        } else {
            Vec::new()
        };

        // Warm-up drain: the print every timed drain of the batch must
        // reproduce.
        let (ids, first, _) = drain(opts.seed, &requests, &exec, ctx, |spec: &AttemptSpec| {
            attempt_strategy(&table, spec)
        });
        let judged = judge(w, &first, &ids, &floors, &x_acc, &mut report.errors);
        let energy_norm = first.total_energy() / acc.total_energy();
        qem = qem.max(judged.qem);
        report.line(format!(
            "batch {member}: {} rounds, outcomes {:?}, breaker {}, energy_norm {energy_norm:.6}, \
             max relative solution error vs Accurate {:.3e}",
            first.rounds,
            first.counts(),
            first.breaker,
            judged.qem,
        ));
        energy_norms.push(energy_norm);
        batches.push(Batch {
            requests,
            traced,
            table,
            floors,
            x_acc,
            first: print_of(&first),
        });
    }

    let traced_ctx = |spec: &AttemptSpec| TracedCtx::new(attempt_ctx(&template, spec));

    // Timed passes, each draining every batch once. A traced run
    // alternates untraced and traced passes, so both see the same host
    // conditions.
    let n = opts.units(NOMINAL_DRAIN_S * w.pool as f64);
    let per_drain = |s: f64| s / w.pool as f64;
    let mut times = Vec::with_capacity(n);
    let mut traced_times = Vec::new();
    let mut ok_requests = 0usize;
    let mut bad_drains = 0u64;
    let mut tally = Tally::default();
    let _ = trace::take(Phase::Solve);
    let _ = trace::take_intervals();
    for pass in 0..n {
        let mut pass_s = 0.0;
        for (member, b) in batches.iter().enumerate() {
            let before = report.errors.len();
            let strategy = |spec: &AttemptSpec| attempt_strategy(&b.table, spec);
            let (ids, rep, dt) = drain(opts.seed, &b.requests, &exec, ctx, strategy);
            pass_s += dt;
            ok_requests += judge(w, &rep, &ids, &b.floors, &b.x_acc, &mut report.errors).successes;
            if print_of(&rep) != b.first {
                report.error(format!(
                    "pass {pass}: batch {member} differs from its first drain"
                ));
            }
            bad_drains += u64::from(report.errors.len() > before);
        }
        times.push(per_drain(pass_s));
        if !opts.trace {
            continue;
        }
        let mut pass_s = 0.0;
        for (member, b) in batches.iter().enumerate() {
            let strategy = |spec: &AttemptSpec| {
                Box::new(TracedStrategy::attempt(attempt_strategy(&b.table, spec)))
                    as Box<dyn ReconfigStrategy>
            };
            let _ = trace::take_intervals();
            let (ids, rep, dt) = drain(opts.seed, &b.traced, &exec, traced_ctx, strategy);
            pass_s += dt;
            tally.layer.sched_s += (dt - union_len(&trace::take_intervals())).max(0.0);
            let _ = judge(w, &rep, &ids, &b.floors, &b.x_acc, &mut report.errors);
            if print_of(&rep) != b.first {
                report.error(format!(
                    "traced pass {pass}: batch {member} differs from the untraced drains"
                ));
            }
            tally.add(&rep);
        }
        traced_times.push(per_drain(pass_s));
    }
    let drains = n * w.pool;
    report.attempted = drains as u64;
    report.failed = bad_drains;
    let wall = times.iter().sum::<f64>() * w.pool as f64;
    report.timings(&times, ok_requests as f64, wall);

    if !opts.trace {
        report.end_to_end.insert(
            0,
            Metric {
                name: "setup_s",
                value: setup,
                unit: "s",
                samples: SETUP_REPS,
            },
        );
        report.e2e("peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0), "MiB", 1);
        let attempted = drains * w.batch;
        report.e2e(
            "ok_frac",
            ok_requests as f64 / attempted as f64,
            "ratio",
            attempted,
        );
        report.e2e("energy_norm", mean(&energy_norms), "ratio", w.pool);
        report.line(format!(
            "host: steal_frac {:.6}",
            host::steal_frac(ticks, host::cpu_ticks())
        ));
        return report;
    }

    report.attempted += drains as u64;
    let totals = trace::take(Phase::Solve);
    layer_metrics(
        &mut report,
        &totals,
        &LayerInputs {
            units: drains as f64,
            ops: tally.ops,
            energy: tally.energy,
            iterations: tally.iterations,
            useful_iterations: tally.useful,
            accurate_steps: tally.accurate_steps,
            checkpoints: tally.checkpoints,
            char_s: mean(&char_s),
            char_steps,
            profile_s: mean(&profile_s),
            service: Some(tally.layer),
            workers: WORKERS as f64,
            wall: traced_times.iter().sum::<f64>() * w.pool as f64,
            qem,
            steal: host::steal_frac(ticks, host::cpu_ticks()),
            overhead: stats::median(&traced_times) / stats::median(&times) - 1.0,
        },
    );
    report
}

/// A request's method behind the trace wrappers.
fn traced_request(a: &Matrix, b: &[f64], tol: f64, cap: usize) -> TracedCg {
    let op = TracedOp::new(a.clone(), dense_bytes(a));
    TracedMethod::new(ConjugateGradient::new(op, b.to_vec(), tol, cap))
}
