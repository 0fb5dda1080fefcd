//! The trace wrappers must measure the same program the untraced run
//! executes: every method a target overrides is forwarded, and a traced
//! solve is bit-identical to an untraced one.

use std::sync::Mutex;

use approx_arith::{AccuracyLevel, ArithContext, EnergyProfile, QcsContext};
use approx_linalg::{CsrMatrix, LinearOperator};
use approxit::{characterize_on_with, AdaptiveAngleStrategy, RunConfig};
use iter_solvers::datasets::{ar_series, hang_seng_like};
use iter_solvers::IterativeMethod;
use perfbench::run::{Fingerprint, Metric, Report, RunOpts};
use perfbench::service::{self, ServiceDrain};
use perfbench::solver::{self, SolverInputs, SolverSpec};
use perfbench::trace::{self, csr_bytes, Layer, TracedCtx, TracedMethod, TracedOp, TracedStrategy};
use perfbench::workloads::{ArPaper, GmmPaper, PoissonCg, HANG_SENG_COEFFS, HANG_SENG_LEN};

/// Spans closed outside `trace::capture` land in the process-wide sink
/// that workload runs read; tests producing them run one at a time.
static SINK_USERS: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SINK_USERS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn ctx() -> QcsContext {
    let mut c = QcsContext::with_profile(EnergyProfile::from_constants(
        [1.0, 2.0, 3.0, 4.0, 5.0],
        50.0,
        100.0,
    ));
    c.set_level(AccuracyLevel::Level3);
    c
}

#[test]
fn every_slice_kernel_reaches_the_target_override() {
    let xs: Vec<f64> = (0..64).map(|i| 0.25 * f64::from(i) - 3.0).collect();
    let ys: Vec<f64> = (0..64).map(|i| 1.5 - 0.125 * f64::from(i)).collect();
    let (values, cols, rows) = (
        vec![2.0, -1.0, 0.5, 3.0],
        vec![0, 3, 1, 2],
        vec![0, 2, 3, 4],
    );
    type Kernel =
        fn(&mut dyn ArithContext, &[f64], &[f64], &(Vec<f64>, Vec<usize>, Vec<usize>)) -> Vec<f64>;
    let kernels: [(&str, Kernel); 10] = [
        ("add_slice", |c, x, y, _| {
            let mut o = vec![0.0; x.len()];
            c.add_slice(x, y, &mut o);
            o
        }),
        ("sub_slice", |c, x, y, _| {
            let mut o = vec![0.0; x.len()];
            c.sub_slice(x, y, &mut o);
            o
        }),
        ("scale_slice", |c, x, _, _| {
            let mut o = vec![0.0; x.len()];
            c.scale_slice(0.75, x, &mut o);
            o
        }),
        ("axpy_slice", |c, x, y, _| {
            let mut o = vec![0.0; x.len()];
            c.axpy_slice(-1.25, x, y, &mut o);
            o
        }),
        ("add_assign_slice", |c, x, y, _| {
            let mut o = y.to_vec();
            c.add_assign_slice(&mut o, x);
            o
        }),
        ("axpy_assign_slice", |c, x, y, _| {
            let mut o = y.to_vec();
            c.axpy_assign_slice(&mut o, 0.5, x);
            o
        }),
        ("dot_slice", |c, x, y, _| vec![c.dot_slice(x, y)]),
        ("sum_slice", |c, x, _, _| vec![c.sum_slice(x)]),
        ("matvec_slice", |c, x, y, _| {
            let mut o = vec![0.0; 8];
            c.matvec_slice(&x[..64], 8, &y[..8], &mut o);
            o
        }),
        ("spmv_slice", |c, x, _, (v, ci, rp)| {
            let mut o = vec![0.0; 3];
            c.spmv_slice(v, ci, rp, &x[..4], &mut o);
            o
        }),
    ];
    let csr = (values, cols, rows);
    for (name, kernel) in kernels {
        let mut direct = ctx();
        let expected = kernel(&mut direct, &xs, &ys, &csr);
        let mut traced = TracedCtx::new(ctx());
        let (got, totals) = trace::capture(|| kernel(&mut traced, &xs, &ys, &csr));
        assert_eq!(totals.scalar_ops, 0, "{name} fell back to per-op calls");
        assert_eq!(
            totals.count(Layer::Kernel),
            1,
            "{name} opened one kernel span"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expected), "{name} values");
        assert_eq!(traced.counts(), direct.counts(), "{name} op counts");
        assert_eq!(
            traced.total_energy().to_bits(),
            direct.total_energy().to_bits(),
            "{name} energy"
        );
    }
    // The per-op path is still counted, so a missed forward would show.
    let mut traced = TracedCtx::new(ctx());
    let (_, totals) = trace::capture(|| traced.add(1.0, 2.0) + traced.mul(2.0, 3.0));
    assert_eq!(totals.scalar_ops, 2);
}

#[test]
fn operator_wrapper_forwards_every_probe_and_apply() {
    let a = CsrMatrix::poisson5(5, 4);
    let op = TracedOp::new(a.clone(), csr_bytes(&a));
    assert_eq!(op.rows(), a.rows());
    assert_eq!(op.cols(), a.cols());
    assert_eq!(op.order(), a.order());
    assert_eq!(op.diagonal(), a.diagonal());
    assert_eq!(op.max_abs_entry().to_bits(), a.max_abs_entry().to_bits());
    assert_eq!(op.max_row_terms(), a.max_row_terms());
    assert_eq!(
        op.off_diagonal_abs_row_sums(),
        a.off_diagonal_abs_row_sums()
    );
    assert_eq!(op.is_symmetric(1e-12), a.is_symmetric(1e-12));
    let x: Vec<f64> = (0..20).map(|i| f64::from(i).sin()).collect();
    let (mut c1, mut c2) = (TracedCtx::new(ctx()), ctx());
    let ((traced, traced_exact), totals) =
        trace::capture(|| (op.matvec(&mut c1, &x), op.matvec_exact(&x)));
    assert_eq!(traced, a.matvec(&mut c2, &x));
    assert_eq!(traced_exact, a.matvec_exact(&x));
    assert_eq!(totals.count(Layer::Apply), 1);
    assert_eq!(totals.count(Layer::ApplyExact), 1);
    assert_eq!(totals.scalar_ops, 0, "spmv went through the slice kernel");
    assert_eq!(totals.apply_bytes, csr_bytes(&a));
}

/// Solve `method` under the adaptive strategy untraced and through every
/// wrapper, and require the two runs to agree bit for bit.
fn assert_traced_identical<W: SolverInputs>(w: &W, seed: u64)
where
    <W::Method as IterativeMethod>::State: Sync,
{
    let profile = w.profile();
    let template = w.template(&profile);
    let exec = parx::Executor::with_threads(2);
    for (i, m) in w.build(seed).iter().enumerate() {
        let traced_method = w.wrap(m);
        let table = characterize_on_with(m, &template, 5, &exec);
        assert_eq!(
            characterize_on_with(&traced_method, &template, 5, &exec),
            table,
            "input {i}: characterization through the wrapper"
        );
        let mut plain = template.clone();
        let mut s = AdaptiveAngleStrategy::from_characterization(&table, 1);
        let untraced = RunConfig::new(m, &mut plain).execute(&mut s);
        let mut ctx = TracedCtx::new(template.clone());
        let mut s = TracedStrategy::new(Box::new(AdaptiveAngleStrategy::from_characterization(
            &table, 1,
        )));
        let (traced, totals) = trace::capture(|| {
            trace::timed(Layer::Runner, || {
                RunConfig::new(&traced_method, &mut ctx).execute(&mut s)
            })
        });
        assert_eq!(
            Fingerprint::of(m, &traced),
            Fingerprint::of(m, &untraced),
            "input {i}: traced solve differs"
        );
        assert_eq!(
            traced.report.energy_per_iteration, untraced.report.energy_per_iteration,
            "input {i}: per-iteration energy"
        );
        assert_eq!(totals.count(Layer::Step) as usize, traced.report.iterations);
        assert_eq!(
            totals.count(Layer::Decide) as usize,
            traced.report.iterations
        );
        assert!(totals.count(Layer::Kernel) > 0);
    }
}

#[test]
fn traced_solves_are_bit_identical_to_untraced_ones() {
    let _guard = serial();
    assert_traced_identical(&ArPaper { pool: 2, len: 800 }, 3);
    assert_traced_identical(&GmmPaper { pool: 2, stride: 5 }, 3);
    assert_traced_identical(&PoissonCg { pool: 2, side: 12 }, 3);
}

const SMALL_SERVICE: ServiceDrain = ServiceDrain {
    pool: 2,
    batch: 6,
    min_order: 8,
    order_step: 4,
};

fn small_run(name: &str, seed: u64, trace: bool) -> Report {
    let opts = RunOpts {
        seed,
        seconds: 0.01,
        trace,
    };
    let spec = |qem_tol, qem_what| SolverSpec {
        nominal_unit_s: 1.0,
        qem_tol,
        qem_what,
    };
    match name {
        "ar" => solver::run(&ArPaper { pool: 2, len: 800 }, &spec(1e-3, "l2"), &opts),
        "gmm" => solver::run(
            &GmmPaper { pool: 2, stride: 5 },
            &spec(0.02, "hamming"),
            &opts,
        ),
        _ => service::run(&SMALL_SERVICE, &opts),
    }
}

/// Metrics that must repeat exactly for a fixed seed.
fn deterministic(metrics: &[Metric]) -> Vec<(&'static str, u64)> {
    const TIMED: [&str; 6] = [
        "ns_per_elem",
        "utilization",
        "idle_s",
        "steal_frac",
        "overhead_frac",
        "peak_rss_mb",
    ];
    metrics
        .iter()
        .filter(|m| m.unit != "s" && m.unit != "1/s" && !TIMED.iter().any(|t| m.name.ends_with(t)))
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn small_runs_pass_their_gates_and_repeat_for_a_fixed_seed() {
    let _guard = serial();
    for name in ["ar", "gmm", "service"] {
        for trace in [false, true] {
            let first = small_run(name, 5, trace);
            assert!(first.errors.is_empty(), "{name}: {:?}", first.errors);
            let again = small_run(name, 5, trace);
            let metrics = |r: &Report| {
                if trace {
                    r.per_layer.clone()
                } else {
                    r.end_to_end.clone()
                }
            };
            let kept = deterministic(&metrics(&first));
            assert!(kept.len() >= if trace { 20 } else { 2 }, "{name}: {kept:?}");
            assert_eq!(
                kept,
                deterministic(&metrics(&again)),
                "{name} trace={trace}"
            );
        }
        let other = small_run(name, 6, false);
        assert_ne!(
            deterministic(&small_run(name, 5, false).end_to_end),
            deterministic(&other.end_to_end),
            "{name}: a second seed must pose different inputs"
        );
    }
}

#[test]
fn seeds_generate_the_inputs() {
    let ar = ArPaper::FULL;
    let (a, b, c) = (ar.build(9), ar.build(9), ar.build(10));
    assert_eq!(a[1].targets(), b[1].targets());
    assert_ne!(a[1].targets(), c[1].targets());
    let gmm = GmmPaper::FULL;
    assert_eq!(gmm.build(9)[2].points(), gmm.build(9)[2].points());
    assert_ne!(gmm.build(9)[2].points(), gmm.build(10)[2].points());
    let poisson = PoissonCg { pool: 1, side: 8 };
    assert_eq!(poisson.build(9)[0].rhs(), poisson.build(9)[0].rhs());
    assert_ne!(poisson.build(9)[0].rhs(), poisson.build(10)[0].rhs());
    let bits = |s: &[(approx_linalg::Matrix, Vec<f64>, f64, usize)]| {
        s.iter()
            .flat_map(|(_, b, _, _)| b.iter().map(|x| x.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&SMALL_SERVICE.systems(9, 1)),
        bits(&SMALL_SERVICE.systems(9, 1))
    );
    assert_ne!(
        bits(&SMALL_SERVICE.systems(9, 1)),
        bits(&SMALL_SERVICE.systems(10, 1))
    );
    assert_ne!(
        bits(&SMALL_SERVICE.systems(9, 0)),
        bits(&SMALL_SERVICE.systems(9, 1)),
        "the batches of a pool differ"
    );
}

#[test]
fn the_default_seed_keeps_the_paper_rows() {
    let paper_ar = approxit_bench::ar_specs()[0].model();
    let ours = &ArPaper::FULL.build(0)[0];
    assert_eq!(ours.design_matrix(), paper_ar.design_matrix());
    assert_eq!(ours.targets(), paper_ar.targets());
    assert_eq!(ours.step_size(), paper_ar.step_size());
    assert_eq!(ours.max_iterations(), paper_ar.max_iterations());
    let replayed = ar_series("hangseng", HANG_SENG_LEN, &HANG_SENG_COEFFS, 1.0, 0x4A11);
    assert_eq!(
        replayed.values,
        hang_seng_like().values,
        "other seeds share the process"
    );

    let paper_gmm = approxit_bench::gmm_specs()[0].model();
    let ours = &GmmPaper::FULL.build(0)[0];
    assert_eq!(ours.points(), paper_gmm.points());
    assert_eq!(ours.max_iterations(), paper_gmm.max_iterations());
    assert_eq!(
        ours.params(&ours.initial_state()),
        paper_gmm.params(&paper_gmm.initial_state())
    );
}

#[test]
fn method_wrapper_forwards_the_defaults_its_target_overrides() {
    let _guard = serial();
    let m = &PoissonCg { pool: 1, side: 6 }.build(1)[0];
    let traced = TracedMethod::new(m.clone());
    let state = m.initial_state();
    assert_eq!(traced.deadline_hint(), m.deadline_hint());
    assert!(m.gradient(&state).is_some());
    assert_eq!(traced.gradient(&state), m.gradient(&state));
    assert_eq!(traced.max_iterations(), m.max_iterations());
    assert_eq!(traced.name(), m.name());
}
