//! Representation-independence guarantees for the sparse stack: a
//! `CsrMatrix` is the *same operator* as its dense image at every
//! accuracy level (bit-identical values, compared through
//! `f64::to_bits`), and the sparse workloads run end to end under the
//! ApproxIt controller at debug-feasible sizes.

use approx_arith::{AccuracyLevel, LowPartPolicy, QFormat, QcsAdder};
use approxit::prelude::*;
use iter_solvers::datasets::{ring_with_chords, PoissonSource};
use iter_solvers::rng::Pcg32;
use iter_solvers::{ConjugateGradient, IterativeMethod, Jacobi, OperatorMultigrid};

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

/// The format sweep: narrow, paper-default, and wide fixed point. The
/// wide format's approx-bit schedule is scaled to its 32 fraction bits.
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

/// A random sparse matrix with a few entries per row, including
/// explicitly stored zeros (legal in CSR, and a case where a naive
/// "skip zeros" shortcut would change operation counts).
fn random_sparse(rows: usize, cols: usize, per_row: usize, rng: &mut Pcg32) -> Matrix {
    let mut dense = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for _ in 0..per_row {
            let j = rng.uniform(0.0, cols as f64) as usize % cols;
            let v = if rng.uniform(0.0, 1.0) < 0.1 {
                0.0
            } else {
                rng.uniform(-2.0, 2.0)
            };
            dense[(i, j)] = v;
        }
    }
    dense
}

#[test]
fn csr_matvec_is_bit_identical_to_dense_across_formats_and_levels() {
    let mut rng = Pcg32::seeded(0x5fa11, 1);
    for case in 0..4 {
        let rows = 5 + 3 * case;
        let cols = 4 + 2 * case;
        let dense = random_sparse(rows, cols, 3, &mut rng);
        let csr = CsrMatrix::from_dense(&dense);
        assert!(csr.check_invariants());
        let x: Vec<f64> = (0..cols).map(|_| rng.uniform(-1.5, 1.5)).collect();
        for (format, approx_bits) in formats() {
            for level in LEVELS {
                let mut dctx = ctx_for(format, approx_bits, level);
                let mut sctx = ctx_for(format, approx_bits, level);
                let yd = dense.matvec(&mut dctx, &x);
                let ys = csr.matvec(&mut sctx, &x);
                for (i, (a, b)) in yd.iter().zip(&ys).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "case {case} {format} {level:?} row {i}: dense {a:e} vs csr {b:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn csr_round_trip_preserves_the_operator() {
    let mut rng = Pcg32::seeded(0xcafe, 7);
    let dense = random_sparse(9, 9, 4, &mut rng);
    let csr = CsrMatrix::from_dense(&dense);
    let back = csr.to_dense();
    let x: Vec<f64> = (0..9).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let a = dense.matvec_exact(&x);
    let b = back.matvec_exact(&x);
    for (u, v) in a.iter().zip(&b) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}

#[test]
fn duplicate_triplets_fold_and_sort() {
    let csr = CsrMatrix::from_triplets(
        3,
        3,
        &[
            (0, 2, 1.0),
            (0, 0, 2.0),
            (0, 2, 0.5),
            (1, 1, -1.0),
            (2, 0, 3.0),
        ],
    );
    assert!(csr.check_invariants());
    assert_eq!(csr.get(0, 2), 1.5);
    assert_eq!(csr.get(0, 0), 2.0);
    assert_eq!(csr.nnz(), 4);
}

/// Sparse CG under the full pipeline at a debug-feasible grid size:
/// characterize, run adaptively, and land within the quality budget of
/// the accurate-only reference.
#[test]
fn sparse_cg_under_the_controller_matches_truth_quality() {
    let nx = 10;
    let n = nx * nx;
    let a = CsrMatrix::poisson5(nx, nx);
    let mut rng = Pcg32::seeded(31, 2);
    let truth_x: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let b = a.matvec_exact(&truth_x);
    let cg = ConjugateGradient::new(a, b, 1e-9, 200);

    let table = characterize(&cg, &profile(), 4);
    let mut ctx = QcsContext::with_profile(profile());
    let truth = RunConfig::new(&cg, &mut ctx).execute(&mut SingleMode::accurate());
    let mut adaptive = AdaptiveAngleStrategy::from_characterization(&table, 1);
    let run = RunConfig::new(&cg, &mut ctx).execute(&mut adaptive);

    let norm = |v: &[f64]| v.iter().map(|e| e * e).sum::<f64>().sqrt();
    let scale = norm(&truth_x);
    let rel = |x: &[f64]| {
        let d: Vec<f64> = x.iter().zip(&truth_x).map(|(a, b)| a - b).collect();
        norm(&d) / scale
    };
    let rel_truth = rel(&truth.state.x);
    let rel_run = rel(&run.state.x);
    // The accurate reference itself sits at the Q15.16 quantization
    // floor (~1e-2 on this system); the adaptive run must stay within
    // a small factor of that floor.
    assert!(rel_truth < 2e-2, "accurate reference off: {rel_truth:e}");
    assert!(
        rel_run < 5.0 * rel_truth,
        "adaptive run degraded: {rel_run:e} vs truth {rel_truth:e}"
    );
}

/// PageRank local push drains its residual queue under the controller,
/// and the exact-invariant residual mass confirms real convergence
/// (not the phantom kind where truncation destroys stored mass).
#[test]
fn pagerank_push_under_the_controller_really_converges() {
    let n = 120;
    let graph = ring_with_chords(n, 2, 0xBEEF);
    let ppr = PersonalizedPageRank::new(graph, 5, 0.2, 5e-4, 300);
    let table = characterize(&ppr, &profile(), 4);
    let mut ctx = QcsContext::with_profile(profile());
    let mut adaptive = AdaptiveAngleStrategy::from_characterization(&table, 1);
    let run = RunConfig::new(&ppr, &mut ctx).execute(&mut adaptive);
    assert!(run.report.converged, "queue did not drain");
    let mass = ppr.residual_mass(&run.state);
    // Every node's residual is below its eps·deg threshold, so the
    // total exact mass is bounded by eps·(total out-degree) = eps·nnz.
    let bound = 5e-4 * 3.0 * n as f64;
    assert!(
        mass <= bound,
        "exact residual mass {mass:e} above {bound:e}"
    );
}

/// FNV-1a over the little-endian bytes of each value's `f64::to_bits`:
/// an order-sensitive fingerprint of a state vector.
fn fingerprint(state: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in state.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The two Poisson sources the golden tables index by position.
const POISSON_SOURCES: [PoissonSource; 2] = [
    PoissonSource::Sine { amplitude: 8.0 },
    PoissonSource::Point {
        x: 0.25,
        y: 0.75,
        strength: 4.0,
    },
];

/// `(n, source, ω, level index, FNV-1a of the final state's f64 bits,
/// sweep on which converged() first fired)`.
type JacobiGolden = (usize, usize, f64, usize, u64, Option<usize>);

/// Fingerprints of the grid-specific 5-point Jacobi solver, captured at
/// commit f843ce0 before it was replaced by `Jacobi` on
/// `CsrMatrix::poisson5`. Every run uses tolerance 1e-7 on the default
/// Q15.16 `QcsContext` and stops at convergence or its cap: 2000 sweeps
/// for n ∈ {7, 15}, 200 for n = 31.
#[rustfmt::skip]
const POISSON_JACOBI_GOLDEN: [JacobiGolden; 60] = [
    (7, 0, 0.8, 0, 0x854a12c5d39e57c5, Some(1)),
    (7, 0, 0.8, 1, 0x854a12c5d39e57c5, Some(1)),
    (7, 0, 0.8, 2, 0x67d0008f448fb270, Some(63)),
    (7, 0, 0.8, 3, 0x58783c8054bd8dcf, Some(126)),
    (7, 0, 0.8, 4, 0xffa20ba0840890e5, Some(175)),
    (7, 0, 0.9, 0, 0x854a12c5d39e57c5, Some(1)),
    (7, 0, 0.9, 1, 0x854a12c5d39e57c5, Some(1)),
    (7, 0, 0.9, 2, 0xa2b822cc43c49983, Some(71)),
    (7, 0, 0.9, 3, 0xbda783cb75a597de, Some(121)),
    (7, 0, 0.9, 4, 0x14a4ab9d5a8cba57, Some(156)),
    (7, 1, 0.8, 0, 0x854a12c5d39e57c5, Some(1)),
    (7, 1, 0.8, 1, 0x01f9392cbc19d028, Some(2)),
    (7, 1, 0.8, 2, 0xf1e0a30bd1fc6bdd, Some(17)),
    (7, 1, 0.8, 3, 0x7df3061830eca4d2, Some(87)),
    (7, 1, 0.8, 4, 0xbc04b1bebc673b3b, Some(152)),
    (7, 1, 0.9, 0, 0x854a12c5d39e57c5, Some(1)),
    (7, 1, 0.9, 1, 0x01f9392cbc19d028, Some(2)),
    (7, 1, 0.9, 2, 0x49ea53c5945b5fe5, Some(20)),
    (7, 1, 0.9, 3, 0xcba3617e4c70ec70, Some(82)),
    (7, 1, 0.9, 4, 0x49c5edc3c64114a0, Some(131)),
    (15, 0, 0.8, 0, 0xd34ab51bc386c5c5, Some(1)),
    (15, 0, 0.8, 1, 0xd34ab51bc386c5c5, Some(1)),
    (15, 0, 0.8, 2, 0x9277bbcee98762b0, Some(155)),
    (15, 0, 0.8, 3, 0x42efcb69c1a2b00b, Some(447)),
    (15, 0, 0.8, 4, 0xc5e2f4f69a60bf05, Some(653)),
    (15, 0, 0.9, 0, 0xd34ab51bc386c5c5, Some(1)),
    (15, 0, 0.9, 1, 0xd34ab51bc386c5c5, Some(1)),
    (15, 0, 0.9, 2, 0xfc78c1b191ac6923, Some(182)),
    (15, 0, 0.9, 3, 0xab14c00ca3cce798, Some(391)),
    (15, 0, 0.9, 4, 0x4d1cfbba6daae826, Some(599)),
    (15, 1, 0.8, 0, 0xd34ab51bc386c5c5, Some(1)),
    (15, 1, 0.8, 1, 0x9e13c7a7585207a8, Some(2)),
    (15, 1, 0.8, 2, 0x1050250c11fedf60, Some(22)),
    (15, 1, 0.8, 3, 0x3aafb1c85436b564, Some(241)),
    (15, 1, 0.8, 4, 0xd600a891ba3909a8, Some(485)),
    (15, 1, 0.9, 0, 0xd34ab51bc386c5c5, Some(1)),
    (15, 1, 0.9, 1, 0x9e13c7a7585207a8, Some(2)),
    (15, 1, 0.9, 2, 0x779f915fe035be40, Some(25)),
    (15, 1, 0.9, 3, 0xb1ed061b61f3b8a8, Some(246)),
    (15, 1, 0.9, 4, 0x041849298889ac09, Some(491)),
    (31, 0, 0.8, 0, 0x9d774423920491c5, Some(1)),
    (31, 0, 0.8, 1, 0x9d774423920491c5, Some(1)),
    (31, 0, 0.8, 2, 0x9034edc94761e678, Some(11)),
    (31, 0, 0.8, 3, 0xd612812779f91b71, None),
    (31, 0, 0.8, 4, 0xe90d6735450b264e, None),
    (31, 0, 0.9, 0, 0x9d774423920491c5, Some(1)),
    (31, 0, 0.9, 1, 0x9d774423920491c5, Some(1)),
    (31, 0, 0.9, 2, 0x73904b8084950c66, Some(28)),
    (31, 0, 0.9, 3, 0x19da7540b129ebc9, None),
    (31, 0, 0.9, 4, 0x15bef18a650d4ba2, None),
    (31, 1, 0.8, 0, 0x9d774423920491c5, Some(1)),
    (31, 1, 0.8, 1, 0x11e9d076a479f8a8, Some(2)),
    (31, 1, 0.8, 2, 0x01bee91a48d4d860, Some(22)),
    (31, 1, 0.8, 3, 0xebcdc632b6e3f097, None),
    (31, 1, 0.8, 4, 0x467087bd8a060859, None),
    (31, 1, 0.9, 0, 0x9d774423920491c5, Some(1)),
    (31, 1, 0.9, 1, 0x11e9d076a479f8a8, Some(2)),
    (31, 1, 0.9, 2, 0x3d000ba287d29740, Some(25)),
    (31, 1, 0.9, 3, 0x1b7171c5028ae884, None),
    (31, 1, 0.9, 4, 0x5ba0907d22bad738, None),
];

/// `(n, source, level index, FNV-1a of the state's f64 bits, adds, muls,
/// divs, approximate energy bits, total energy bits)`.
type MultigridGolden = (usize, usize, usize, u64, u64, u64, u64, u64, u64);

/// Fingerprints of `OperatorMultigrid::poisson` (2 smoothing sweeps,
/// 6 V-cycles), captured at commit f843ce0.
#[rustfmt::skip]
const OPERATOR_MULTIGRID_GOLDEN: [MultigridGolden; 20] = [
    (7, 0, 0, 0x854a12c5d39e57c5, 12060, 9972, 1398, 0x40c78e0000000000, 0x4123d9b800000000),
    (7, 0, 1, 0xdd2180038c10d0f5, 12060, 9972, 1398, 0x40d78e0000000000, 0x412437f000000000),
    (7, 0, 2, 0x67ddf3c6991f228a, 12060, 9972, 1398, 0x40e1aa8000000000, 0x4124962800000000),
    (7, 0, 3, 0x509754e8d2c20357, 12060, 9972, 1398, 0x40e78e0000000000, 0x4124f46000000000),
    (7, 0, 4, 0x70e70e4a1c4ec06b, 12060, 9972, 1398, 0x40ed718000000000, 0x4125529800000000),
    (7, 1, 0, 0x854a12c5d39e57c5, 12060, 9972, 1398, 0x40c78e0000000000, 0x4123d9b800000000),
    (7, 1, 1, 0x01f9392cbc19d028, 12060, 9972, 1398, 0x40d78e0000000000, 0x412437f000000000),
    (7, 1, 2, 0x04505c0610d59376, 12060, 9972, 1398, 0x40e1aa8000000000, 0x4124962800000000),
    (7, 1, 3, 0x369c7ccc93d70346, 12060, 9972, 1398, 0x40e78e0000000000, 0x4124f46000000000),
    (7, 1, 4, 0xb1be572887c078f3, 12060, 9972, 1398, 0x40ed718000000000, 0x4125529800000000),
    (15, 0, 0, 0xd34ab51bc386c5c5, 62802, 52614, 6798, 0x40eeaa4000000000, 0x4149bc7b00000000),
    (15, 0, 1, 0xd34ab51bc386c5c5, 62802, 52614, 6798, 0x40feaa4000000000, 0x414a372400000000),
    (15, 0, 2, 0x067ed771264ff208, 62802, 52614, 6798, 0x4106ffb000000000, 0x414ab1cd00000000),
    (15, 0, 3, 0x06f75b1a705e99bb, 62802, 52614, 6798, 0x410eaa4000000000, 0x414b2c7600000000),
    (15, 0, 4, 0xa0b35f28dcae3660, 62802, 52614, 6798, 0x41132a6800000000, 0x414ba71f00000000),
    (15, 1, 0, 0xd34ab51bc386c5c5, 62802, 52614, 6798, 0x40eeaa4000000000, 0x4149bc7b00000000),
    (15, 1, 1, 0x9e13c7a7585207a8, 62802, 52614, 6798, 0x40feaa4000000000, 0x414a372400000000),
    (15, 1, 2, 0x64aef44977704d3f, 62802, 52614, 6798, 0x4106ffb000000000, 0x414ab1cd00000000),
    (15, 1, 3, 0x11db698efd2ac309, 62802, 52614, 6798, 0x410eaa4000000000, 0x414b2c7600000000),
    (15, 1, 4, 0x40c7d39b5cc87a49, 62802, 52614, 6798, 0x41132a6800000000, 0x414ba71f00000000),
];

/// `Jacobi` on the CSR stencil reproduces the retired grid solver bit
/// for bit wherever `n + 1` is a power of two (so `h²` is exact): same
/// final state, and `converged()` fires on the same sweep.
#[test]
fn csr_jacobi_reproduces_the_grid_poisson_solver_bit_for_bit() {
    for &(n, s, omega, level, hash, converged_at) in &POISSON_JACOBI_GOLDEN {
        let cap = if n == 31 { 200 } else { 2000 };
        let source = POISSON_SOURCES[s];
        let jac = Jacobi::new(CsrMatrix::poisson5(n, n), source.rhs(n), omega, 1e-7, cap);
        let mut ctx = ctx_for(QFormat::Q15_16, [20, 15, 10, 5], LEVELS[level]);
        let mut u = jac.initial_state();
        let mut at = None;
        for sweep in 1..=cap {
            let next = jac.step(&u, &mut ctx);
            let done = jac.converged(&u, &next);
            u = next;
            if done {
                at = Some(sweep);
                break;
            }
        }
        let case = format!("n={n} source={s} omega={omega} level={level}");
        assert_eq!(at, converged_at, "{case}: convergence sweep");
        assert_eq!(fingerprint(&u), hash, "{case}: final state bits");
    }
}

/// `OperatorMultigrid::poisson` keeps its values, operation counts and
/// metered energy now that its right-hand side comes from
/// `PoissonSource::rhs`.
#[test]
fn operator_multigrid_poisson_is_unchanged_in_values_counts_and_energy() {
    for &(n, s, level, hash, adds, muls, divs, approx_e, total_e) in &OPERATOR_MULTIGRID_GOLDEN {
        let mg = OperatorMultigrid::poisson(n, POISSON_SOURCES[s], 2, 1e-7, 50);
        let mut ctx = ctx_for(QFormat::Q15_16, [20, 15, 10, 5], LEVELS[level]);
        let mut u = mg.initial_state();
        for _ in 0..6 {
            u = mg.step(&u, &mut ctx);
        }
        let case = format!("n={n} source={s} level={level}");
        let c = ctx.counts();
        let counts = (c.adds, c.muls, c.divs);
        assert_eq!(counts, (adds, muls, divs), "{case}: op counts");
        assert_eq!(fingerprint(&u), hash, "{case}: state bits");
        let energy = (ctx.approx_energy().to_bits(), ctx.total_energy().to_bits());
        assert_eq!(energy, (approx_e, total_e), "{case}: approx, total energy");
    }
}
