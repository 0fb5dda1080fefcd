//! Thread-count invariance guarantees for the parallel substrate: every
//! slice kernel on [`QcsContext`] must produce bit-identical values
//! (compared through `f64::to_bits`), identical operation counts, and
//! bit-identical metered energy whether it runs serially, on the scalar
//! per-op reference path, or row/chunk-partitioned across any number of
//! `parx` worker threads.
//!
//! The same holds for whole solves built on those kernels: dense CG,
//! AR, GMM and CSR Jacobi, and CG on a 100,489-unknown CSR system.
//!
//! This is the executable form of the determinism contract in
//! `DESIGN.md` §16: indexed work, fixed chunk geometry (never derived
//! from the thread count), and in-order reduction of per-chunk partials.

use approx_arith::{
    AccuracyLevel, ArithContext, EnergyProfile, LowPartPolicy, OpCounts, QFormat, QcsAdder,
    QcsContext, ScalarPath,
};
use approx_linalg::{CsrMatrix, Matrix};
use iter_solvers::datasets::{ar_series, gaussian_blobs};
use iter_solvers::rng::Pcg32;
use iter_solvers::{AutoRegression, ConjugateGradient, GaussianMixture, IterativeMethod, Jacobi};
use parx::Executor;

fn profile() -> EnergyProfile {
    EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
}

const LEVELS: [AccuracyLevel; 5] = [
    AccuracyLevel::Level1,
    AccuracyLevel::Level2,
    AccuracyLevel::Level3,
    AccuracyLevel::Level4,
    AccuracyLevel::Accurate,
];

/// Thread counts the contract is exercised at: serial, even split, and
/// a count that does not divide the chunk counts evenly.
const THREADS: [usize; 3] = [1, 2, 7];

/// The format sweep: narrow, paper-default, and wide fixed point (the
/// wide format exercises the serial fallback of the reductions, whose
/// per-step f64 rounding is not associative).
fn formats() -> Vec<(QFormat, [u32; 4])> {
    vec![
        (QFormat::Q15_16, [20, 15, 10, 5]),
        (QFormat::Q31_16, [20, 15, 10, 5]),
        (QFormat::Q31_32, [36, 24, 12, 6]),
    ]
}

fn ctx_for(format: QFormat, approx_bits: [u32; 4], level: AccuracyLevel) -> QcsContext {
    let adder = QcsAdder::with_policy(format.width(), approx_bits, LowPartPolicy::Zero);
    let mut ctx = QcsContext::new(adder, format, profile());
    ctx.set_level(level);
    ctx
}

fn vec_of(n: usize, lo: f64, hi: f64, rng: &mut Pcg32) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(lo, hi)).collect()
}

/// Outcome of one kernel run: values, counts, energy.
struct Run {
    values: Vec<f64>,
    counts: OpCounts,
    energy: f64,
}

fn run_kernels(ctx: &mut dyn ArithContext, seed: u64) -> Run {
    let mut rng = Pcg32::seeded(seed, 0);
    // Sizes sit above the parallel-dispatch gate (PAR_MIN_OPS) and
    // produce chunk counts that do not divide evenly by any tested
    // thread count.
    let n = 10_000;
    let rows = 300;
    let cols = 64;
    let xs = vec_of(n, -4.0, 4.0, &mut rng);
    let ys = vec_of(n, -4.0, 4.0, &mut rng);
    let mat = vec_of(rows * cols, -1.5, 1.5, &mut rng);
    let mx = vec_of(cols, -2.0, 2.0, &mut rng);
    // A random CSR operator with ~8 stored entries per row.
    let spmv_rows = 2_000;
    let mut values = Vec::new();
    let mut col_idx = Vec::new();
    let mut row_ptr = vec![0usize];
    for _ in 0..spmv_rows {
        for _ in 0..8 {
            values.push(rng.uniform(-2.0, 2.0));
            col_idx.push(rng.uniform(0.0, cols as f64) as usize % cols);
        }
        row_ptr.push(values.len());
    }

    let mut out = Vec::new();
    let mut buf = vec![0.0; n];
    ctx.add_slice(&xs, &ys, &mut buf);
    out.extend_from_slice(&buf);
    ctx.axpy_slice(1.25, &xs, &ys, &mut buf);
    out.extend_from_slice(&buf);
    let mut mv = vec![0.0; rows];
    ctx.matvec_slice(&mat, cols, &mx, &mut mv);
    out.extend_from_slice(&mv);
    let mut sv = vec![0.0; spmv_rows];
    ctx.spmv_slice(&values, &col_idx, &row_ptr, &mx, &mut sv);
    out.extend_from_slice(&sv);
    out.push(ctx.dot_slice(&xs, &ys));
    out.push(ctx.sum_slice(&xs));
    Run {
        values: out,
        counts: ctx.counts(),
        energy: ctx.total_energy(),
    }
}

fn assert_runs_match(label: &str, a: &Run, b: &Run) {
    assert_eq!(a.values.len(), b.values.len(), "{label}: value count");
    for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: value {i} diverged ({x} vs {y})"
        );
    }
    assert_eq!(a.counts, b.counts, "{label}: operation counts");
    assert_eq!(
        a.energy.to_bits(),
        b.energy.to_bits(),
        "{label}: metered energy"
    );
}

/// The headline guarantee: for every format × level, the scalar per-op
/// path, the serial batched path, and the parallel batched path at
/// every thread count all agree bit-for-bit on values, counts, energy.
#[test]
fn kernels_are_bit_identical_across_thread_counts() {
    for (format, bits) in formats() {
        for level in LEVELS {
            let label = format!("{format} {level}");
            let scalar = run_kernels(&mut ScalarPath::new(ctx_for(format, bits, level)), 0xC0FFEE);
            for threads in THREADS {
                let exec = Executor::with_threads(threads);
                let mut ctx = ctx_for(format, bits, level).with_executor(exec);
                let run = run_kernels(&mut ctx, 0xC0FFEE);
                assert_runs_match(&format!("{label} threads={threads}"), &scalar, &run);
            }
        }
    }
}

/// Replay determinism: the same kernels on the same executor produce
/// the same bits twice in a row (no hidden per-run state in the
/// chunked dispatch).
#[test]
fn parallel_runs_replay_bit_identically() {
    let (format, bits) = (QFormat::Q31_16, [20, 15, 10, 5]);
    for threads in THREADS {
        let first = run_kernels(
            &mut ctx_for(format, bits, AccuracyLevel::Level2)
                .with_executor(Executor::with_threads(threads)),
            0xFEED,
        );
        let second = run_kernels(
            &mut ctx_for(format, bits, AccuracyLevel::Level2)
                .with_executor(Executor::with_threads(threads)),
            0xFEED,
        );
        assert_runs_match(&format!("replay threads={threads}"), &first, &second);
    }
}

/// The chunked f64↔raw conversions are bit-identical to the scalar
/// element loops on every format, including the non-finite and
/// saturating edge cases, and replay deterministically.
#[test]
fn chunked_conversions_match_scalar_and_replay() {
    for (format, _) in formats() {
        let cv = format.converter();
        let mut rng = Pcg32::seeded(0xD1CE, 0);
        let mut xs = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            format.max_value(),
            format.min_value(),
            format.resolution() / 2.0,
        ];
        xs.extend((0..4096).map(|_| rng.uniform(-1e5, 1e5)));
        let mut raws = vec![0i64; xs.len()];
        cv.to_raw_slice(&xs, &mut raws);
        let mut raws2 = vec![0i64; xs.len()];
        cv.to_raw_slice(&xs, &mut raws2);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(raws[i], cv.to_raw(x), "{format} to_raw({x})");
            assert_eq!(raws[i], raws2[i], "{format} to_raw replay at {i}");
        }
        let mut back = vec![0.0; raws.len()];
        cv.from_raw_slice(&raws, &mut back);
        for (i, &r) in raws.iter().enumerate() {
            assert_eq!(
                back[i].to_bits(),
                cv.from_raw(r).to_bits(),
                "{format} from_raw({r})"
            );
        }
    }
}

/// A dense, well-conditioned SPD system: `A = M·Mᵀ/n + I`.
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
    let b = vec_of(n, -2.0, 2.0, &mut rng);
    (a, b)
}

/// Step `method` `iters` times from its initial state on `ctx`; the
/// run's values are the method's parameters.
fn drive<M: IterativeMethod>(method: &M, ctx: &mut dyn ArithContext, iters: usize) -> Run {
    let mut state = method.initial_state();
    for _ in 0..iters {
        state = method.step(&state, ctx);
    }
    Run {
        values: method.params(&state),
        counts: ctx.counts(),
        energy: ctx.total_energy(),
    }
}

/// Whole solves: the batched kernels on a context with no executor
/// match the scalar per-op path, and a 7-thread executor matches the
/// context with none. Every size makes each step's matvec or spmv
/// cross the parallel-dispatch gate (`PAR_MIN_OPS` = 4096 fabric ops)
/// and split into at least two chunks: CG 128² = 16,384 ops, AR
/// 792 × 8 = 6,336, GMM 3 × 700 points × 2 = 4,200, Jacobi ≈ 11,300
/// stored entries. Jacobi also runs at Level4: at Level2 every update
/// truncates away and the iterate stays all zeros, so there only the
/// counts and energy can differ.
#[test]
fn solves_are_bit_identical_across_paths_and_thread_counts() {
    fn check<M: IterativeMethod>(label: &str, method: &M, level: AccuracyLevel, iters: usize) {
        let ctx = || {
            let mut ctx = QcsContext::with_profile(profile());
            ctx.set_level(level);
            ctx
        };
        let scalar = drive(method, &mut ScalarPath::new(ctx()), iters);
        let serial = drive(method, &mut ctx(), iters);
        let exec = Executor::with_threads(7);
        let parallel = drive(method, &mut ctx().with_executor(exec), iters);
        let case = format!("{label} {level}");
        assert_runs_match(&format!("{case}: batched vs scalar"), &scalar, &serial);
        assert_runs_match(&format!("{case}: 7 threads vs none"), &serial, &parallel);
    }

    let (a, b) = spd_system(128, 17);
    let cg = ConjugateGradient::new(a, b, 1e-12, 60);
    check("cg n=128", &cg, AccuracyLevel::Level2, 60);

    let coeffs = [0.55, -0.2, 0.1, 0.05, -0.03, 0.02, 0.01, -0.01];
    let series = ar_series("perf-ar", 800, &coeffs, 0.05, 18);
    let ar = AutoRegression::from_series(&series, 0.05, 1e-12, 25);
    check("ar N=800 p=8", &ar, AccuracyLevel::Level2, 25);

    let centers = [vec![0.0, 0.0], vec![6.0, 0.0], vec![3.0, 5.0]];
    let blobs = gaussian_blobs("perf-gmm", &[700; 3], &centers, &[0.8; 3], 19);
    let gmm = GaussianMixture::from_dataset(&blobs, 1e-12, 6, 3);
    check("gmm k=3 n=2100", &gmm, AccuracyLevel::Level3, 6);

    let grid = 48;
    let b: Vec<f64> = (0..grid * grid).map(|i| 0.5 + 0.001 * i as f64).collect();
    let jacobi = Jacobi::new(CsrMatrix::poisson5(grid, grid), b, 0.8, 1e-12, 40);
    for level in [AccuracyLevel::Level2, AccuracyLevel::Level4] {
        check("jacobi 48x48", &jacobi, level, 40);
    }
}

/// CG on the 317² = 100,489-unknown Poisson stencil, Q31.32 at
/// `Accurate`: 4 workers reproduce 1 worker in values, counts and
/// energy over 12 steps.
#[test]
fn large_sparse_cg_is_bit_identical_on_one_and_four_threads() {
    let nx = 317;
    let mut rng = Pcg32::seeded(7, 3);
    let b = vec_of(nx * nx, -1.0, 1.0, &mut rng);
    let cg = ConjugateGradient::new(CsrMatrix::poisson5(nx, nx), b, 1e-10, 12);
    let q31 = |threads| {
        ctx_for(QFormat::Q31_32, [36, 24, 12, 6], AccuracyLevel::Accurate)
            .with_executor(Executor::with_threads(threads))
    };
    let one = drive(&cg, &mut q31(1), 12);
    let four = drive(&cg, &mut q31(4), 12);
    assert_runs_match("cg n=100489: 4 threads vs 1", &one, &four);
}
