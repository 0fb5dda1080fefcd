//! Chaos-injection harness for the resilient solver service.
//!
//! Drives one [`SolverService`] campaign through the failure modes a
//! deployed solver fleet actually sees — composed, not in isolation:
//!
//! * a **fault storm**: SEU injection at high rate confined to the two
//!   cheapest accuracy levels, tripping their circuit breakers and
//!   forcing retry-with-escalation;
//! * a **clean wave** after the storm clears, whose traffic probes and
//!   heals the quarantined levels;
//! * a **burst arrival** beyond queue capacity (load shedding), spiked
//!   with an ill-conditioned system under a hopeless deadline and a
//!   NaN-seeded right-hand side, under background burst faults.
//!
//! Every check is a **hard invariant** — violations exit non-zero:
//!
//! 1. *No request lost*: every submission (including shed ones) ends in
//!    exactly one of completed / degraded / shed / failed, with
//!    telemetry.
//! 2. *Determinism*: the whole campaign replayed under a fixed seed is
//!    bit-identical — outcomes, telemetry, final states — across
//!    executor thread counts.
//! 3. *Quality floor*: every completed or degraded request with a
//!    quality floor meets it.
//! 4. *Breaker lifecycle*: the storm trips breakers, the clean wave
//!    probes and heals them.
//! 5. *Shedding*: exactly the over-capacity tail of the burst is shed,
//!    with telemetry but no execution.
//! 6. *Poison containment*: the NaN request fails with full telemetry
//!    instead of poisoning the drain; the deadline-starved
//!    ill-conditioned request exhausts its attempts and fails.
//!
//! `--json PATH` writes the machine-readable summary; CI diffs it
//! against the committed `BENCH_chaos.json`.

use std::process::ExitCode;

use approx_arith::{AccuracyLevel, ArithContext, FaultInjector, FaultModel, QcsContext};
use approxit::service::{
    AttemptSpec, BreakerConfig, Request, ServiceConfig, ServiceReport, SolverService,
};
use approxit::Outcome;
use approxit_bench::cli::{BenchOpts, Checker};
use approxit_bench::specs::shared_profile;
use iter_solvers::rng::Pcg32;
use iter_solvers::{CgState, ConjugateGradient};
use parx::Executor;

use approx_linalg::Matrix;

/// Default campaign seed (`--seed` overrides).
const SEED: u64 = 0xC4A0;
/// Low result bits exposed to upsets during the storm.
const FAULT_BITS: u32 = 16;
/// Requests in the fault storm and in the clean wave.
const STORM: usize = 6;
const CLEAN: usize = 6;
/// Queue capacity, and burst submissions beyond it.
const CAPACITY: usize = 10;
const OVERFLOW: usize = 5;
/// Executor thread counts the campaign is replayed at; the first is the
/// serial reference.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A well-conditioned SPD system `A = M·Mᵀ/n + I`.
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

/// A healthy request: moderate order, loose-enough tolerance for the
/// approximate levels, a zero quality floor (the quadratic objective is
/// strictly negative at any useful iterate).
fn healthy(n: usize, seed: u64) -> Request<ConjugateGradient> {
    let (a, b) = spd_system(n, seed);
    Request::new(ConjugateGradient::new(a, b, 1e-4, 200)).with_quality_floor(0.0)
}

/// An ill-conditioned SPD system: the same construction with the
/// identity shift collapsed to `1e-6`, pushing the condition number far
/// beyond what any 8-iteration deadline can absorb.
fn ill_conditioned(n: usize, seed: u64) -> ConjugateGradient {
    let mut rng = Pcg32::seeded(seed, 1);
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
        a[(i, i)] += 1e-6;
    }
    let b: Vec<f64> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
    ConjugateGradient::new(a, b, 1e-10, 200)
}

/// A NaN-seeded right-hand side: the iterate is poisoned from step one
/// and can never converge at any level.
fn nan_seeded(n: usize, seed: u64) -> ConjugateGradient {
    let (a, mut b) = spd_system(n, seed);
    b[0] = f64::NAN;
    ConjugateGradient::new(a, b, 1e-6, 50)
}

fn clean_ctx(spec: &AttemptSpec) -> QcsContext {
    let mut ctx = QcsContext::with_profile(shared_profile().clone());
    ctx.set_level(spec.level);
    ctx
}

/// Everything one campaign replay produces, for bit-exact comparison
/// across thread counts.
#[derive(Debug)]
struct Campaign {
    storm: ServiceReport<CgState>,
    clean: ServiceReport<CgState>,
    burst: ServiceReport<CgState>,
    storm_ids: Vec<u64>,
    clean_ids: Vec<u64>,
    burst_ids: Vec<u64>,
    illcond_id: u64,
    nan_id: u64,
    shed_count: usize,
    max_attempts: usize,
}

fn run_campaign(threads: usize, seed: u64) -> Campaign {
    let exec = Executor::with_threads(threads);
    let config = ServiceConfig {
        queue_capacity: CAPACITY,
        max_attempts: 4,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_rounds: 1,
        },
        base_seed: seed,
        ..ServiceConfig::default()
    };
    let max_attempts = config.max_attempts;
    let mut service = SolverService::new(config);

    // Phase 1 — fault storm: heavy SEUs confined to the two cheapest
    // levels; every request starts on the cheapest.
    let storm_ids: Vec<u64> = (0..STORM)
        .map(|i| {
            service
                .submit(healthy(8 + i % 3, seed ^ (0x100 + i as u64)))
                .id()
        })
        .collect();
    let storm = service.run(&exec, |spec| {
        let ctx = clean_ctx(spec);
        FaultInjector::new(ctx, 0.9, FAULT_BITS, spec.seed)
            .striking_only(&[AccuracyLevel::Level1, AccuracyLevel::Level2])
    });

    // Phase 2 — clean wave: the storm has passed; fresh traffic probes
    // the quarantined levels and heals them.
    let clean_ids: Vec<u64> = (0..CLEAN)
        .map(|i| {
            service
                .submit(healthy(8 + i % 3, seed ^ (0x200 + i as u64)))
                .id()
        })
        .collect();
    let clean = service.run(&exec, clean_ctx);

    // Phase 3 — burst arrival over capacity, spiked with poisoned
    // inputs, under background burst faults.
    let mut burst_ids = Vec::new();
    let illcond_id = service
        .submit(
            Request::new(ill_conditioned(12, seed ^ 0x300))
                .at_level(AccuracyLevel::Level2)
                .with_deadline(8),
        )
        .id();
    burst_ids.push(illcond_id);
    let nan_id = service
        .submit(Request::new(nan_seeded(8, seed ^ 0x400)).at_level(AccuracyLevel::Level3))
        .id();
    burst_ids.push(nan_id);
    let mut shed_count = 0;
    for i in 0..CAPACITY - 2 + OVERFLOW {
        let submission = service.submit(healthy(8 + i % 3, seed ^ (0x500 + i as u64)));
        if !submission.accepted() {
            shed_count += 1;
        }
        burst_ids.push(submission.id());
    }
    let burst = service.run(&exec, |spec| {
        let ctx = clean_ctx(spec);
        let model = FaultModel::Burst {
            rate: 2e-3,
            width: 8,
        };
        FaultInjector::with_model(ctx, model, spec.seed).sparing_accurate()
    });

    Campaign {
        storm,
        clean,
        burst,
        storm_ids,
        clean_ids,
        burst_ids,
        illcond_id,
        nan_id,
        shed_count,
        max_attempts,
    }
}

fn total_attempts(report: &ServiceReport<CgState>) -> usize {
    report.requests.iter().map(|r| r.telemetry.attempts).sum()
}

/// A bit-exact fingerprint of a campaign: the full telemetry JSON of
/// every drain plus every final state's raw f64 bits. Plain `==` on the
/// reports would be wrong here — the NaN-seeded request makes two
/// bit-identical campaigns compare unequal (`NaN != NaN`), so equality
/// must go through `to_bits`.
fn fingerprint(campaign: &Campaign) -> (String, Vec<Option<Vec<u64>>>) {
    let json = format!(
        "{}\n{}\n{}",
        campaign.storm.to_json(),
        campaign.clean.to_json(),
        campaign.burst.to_json()
    );
    let states = [&campaign.storm, &campaign.clean, &campaign.burst]
        .iter()
        .flat_map(|report| {
            report.requests.iter().map(|r| {
                r.state.as_ref().map(|s| {
                    s.x.iter()
                        .chain(&s.r)
                        .chain(&s.p)
                        .map(|v| v.to_bits())
                        .collect()
                })
            })
        })
        .collect();
    (json, states)
}

fn main() -> ExitCode {
    let opts = BenchOpts::parse_for("chaos", &[], &[]);
    let seed = opts.seed_or(SEED);
    opts.say(&format!(
        "chaos: service campaign (storm {STORM}, clean {CLEAN}, burst {CAPACITY}+{OVERFLOW} \
         over capacity), threads {THREADS:?}, seed {seed:#x}"
    ));
    let mut c = Checker::new(opts.quiet);

    // Invariant 2 (determinism) drives the structure: replay the whole
    // campaign per thread count and demand bit-identical results.
    let reference = run_campaign(THREADS[0], seed);
    let reference_print = fingerprint(&reference);
    for threads in THREADS[1..].iter().copied() {
        let replay = run_campaign(threads, seed);
        c.check(
            &format!("determinism: campaign at {threads} threads matches the serial reference"),
            fingerprint(&replay) == reference_print,
            "outcomes, telemetry, and final states compared for bit equality",
        );
    }

    // Invariant 1 — no request lost, phase by phase and overall.
    c.check(
        "no request lost: storm drain accounts for every submission",
        reference.storm.accounts_for(&reference.storm_ids),
        &format!("{} requests", reference.storm_ids.len()),
    );
    c.check(
        "no request lost: clean drain accounts for every submission",
        reference.clean.accounts_for(&reference.clean_ids),
        &format!("{} requests", reference.clean_ids.len()),
    );
    c.check(
        "no request lost: burst drain accounts for every submission",
        reference.burst.accounts_for(&reference.burst_ids),
        &format!("{} requests", reference.burst_ids.len()),
    );
    let submitted =
        reference.storm_ids.len() + reference.clean_ids.len() + reference.burst_ids.len();
    let reported = reference.storm.requests.len()
        + reference.clean.requests.len()
        + reference.burst.requests.len();
    c.check(
        "no request lost: every id 0..N appears exactly once across all drains",
        reported == submitted
            && reference
                .storm_ids
                .iter()
                .chain(&reference.clean_ids)
                .chain(&reference.burst_ids)
                .copied()
                .eq(0..submitted as u64),
        &format!("{submitted} submissions"),
    );
    for (name, report) in [
        ("storm", &reference.storm),
        ("clean", &reference.clean),
        ("burst", &reference.burst),
    ] {
        let counts = report.counts();
        c.check(
            &format!("outcome histogram of the {name} drain sums to its request count"),
            counts.total() == report.requests.len(),
            &format!(
                "{} completed, {} degraded, {} shed, {} failed",
                counts.completed, counts.degraded, counts.shed, counts.failed
            ),
        );
    }

    // Invariant 3 — quality floors hold for every successful request
    // that declared one (healthy requests pin floor 0.0; CG's quadratic
    // objective is strictly negative at any useful iterate).
    let mut floor_ok = true;
    let mut floor_checked = 0;
    for report in [&reference.storm, &reference.clean, &reference.burst] {
        for r in &report.requests {
            if r.telemetry.outcome.is_success()
                && r.telemetry.id != reference.illcond_id
                && r.telemetry.id != reference.nan_id
            {
                let rep = r.telemetry.report.as_ref().expect("successful → executed");
                floor_checked += 1;
                floor_ok &=
                    rep.converged && rep.final_objective.is_finite() && rep.final_objective <= 0.0;
            }
        }
    }
    c.check(
        "quality floor: every successful floored request converged below its floor",
        floor_ok && floor_checked > 0,
        &format!("{floor_checked} successful requests checked against floor 0.0"),
    );

    // Invariant 4 — breaker lifecycle (telemetry is cumulative, so the
    // clean wave's contribution is the delta over the storm).
    c.check(
        "breaker: the fault storm tripped at least one level",
        reference.storm.breaker.trips >= 1,
        &format!("{}", reference.storm.breaker),
    );
    c.check(
        "breaker: the storm survived via escalated retries",
        reference.storm.counts().all_succeeded()
            && total_attempts(&reference.storm) > reference.storm_ids.len(),
        &format!(
            "{} attempts for {} requests, {} rounds",
            total_attempts(&reference.storm),
            reference.storm_ids.len(),
            reference.storm.rounds
        ),
    );
    c.check(
        "breaker: the clean wave probed the quarantined level",
        reference.clean.breaker.probes > reference.storm.breaker.probes,
        &format!("{}", reference.clean.breaker),
    );
    c.check(
        "breaker: a clean probe healed the level",
        reference.clean.breaker.heals > reference.storm.breaker.heals,
        &format!("{}", reference.clean.breaker),
    );
    c.check(
        "breaker: waiting traffic was rerouted around the quarantine",
        reference.clean.breaker.reroutes > reference.storm.breaker.reroutes,
        &format!("{}", reference.clean.breaker),
    );

    // Invariant 5 — load shedding: exactly the over-capacity tail.
    let burst_counts = reference.burst.counts();
    c.check(
        "shedding: exactly the over-capacity tail of the burst was shed",
        reference.shed_count == OVERFLOW && burst_counts.shed == OVERFLOW,
        &format!(
            "{} shed of {} submitted (capacity {})",
            burst_counts.shed,
            reference.burst_ids.len(),
            CAPACITY
        ),
    );
    let shed_sound = reference
        .burst
        .requests
        .iter()
        .filter(|r| r.telemetry.outcome == Outcome::Shed)
        .all(|r| r.telemetry.attempts == 0 && r.telemetry.report.is_none() && r.state.is_none());
    c.check(
        "shedding: shed requests carry telemetry but were never executed",
        shed_sound,
        "attempts 0, no report, no state",
    );

    // Invariant 6 — poison containment.
    let nan = reference
        .burst
        .requests
        .iter()
        .find(|r| r.telemetry.id == reference.nan_id)
        .expect("nan request reported");
    c.check(
        "poison: the NaN-seeded request failed with full telemetry",
        nan.telemetry.outcome == Outcome::Failed
            && nan.telemetry.attempts == reference.max_attempts
            && nan.telemetry.report.is_some(),
        &format!(
            "outcome {}, {} attempts, guard trips {}",
            nan.telemetry.outcome,
            nan.telemetry.attempts,
            nan.telemetry
                .report
                .as_ref()
                .map_or(0, |rep| rep.recovery.guard_trips)
        ),
    );
    let illcond = reference
        .burst
        .requests
        .iter()
        .find(|r| r.telemetry.id == reference.illcond_id)
        .expect("ill-conditioned request reported");
    c.check(
        "deadline: the ill-conditioned request exhausted its attempts under deadline pressure",
        illcond.telemetry.outcome == Outcome::Failed
            && illcond.telemetry.attempts == reference.max_attempts,
        &format!(
            "outcome {} after {} attempts at deadline 8",
            illcond.telemetry.outcome, illcond.telemetry.attempts
        ),
    );
    let poison_contained = reference
        .burst
        .requests
        .iter()
        .filter(|r| {
            r.telemetry.id != reference.nan_id
                && r.telemetry.id != reference.illcond_id
                && r.telemetry.outcome != Outcome::Shed
        })
        .all(|r| r.telemetry.outcome.is_success());
    c.check(
        "poison: the poisoned requests did not take healthy neighbors down",
        poison_contained,
        "every executed healthy burst request succeeded",
    );

    let energy: f64 = reference.storm.total_energy()
        + reference.clean.total_energy()
        + reference.burst.total_energy();
    c.check(
        "telemetry: metered campaign energy is finite and positive",
        energy.is_finite() && energy > 0.0,
        &format!("{energy:.3e} units"),
    );

    c.note(&format!(
        "campaign: {} submissions, {} attempts, breaker {} — energy {energy:.3e}",
        submitted,
        total_attempts(&reference.storm)
            + total_attempts(&reference.clean)
            + total_attempts(&reference.burst),
        reference.burst.breaker,
    ));
    c.finish("chaos", &opts)
}
