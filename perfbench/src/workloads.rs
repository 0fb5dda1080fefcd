//! The three solver workloads: inputs from the seed, datapaths, trace
//! wrapping and quality metrics.
//!
//! Seed 0 is the default. On it, input 0 of `ar_paper` and `gmm_paper`
//! is the paper's Table 2 row unchanged. Every other input is generated
//! from `(seed, input index)` through `parx::chunk_seed`.

use approx_arith::{EnergyProfile, LowPartPolicy, QFormat, QcsAdder, QcsContext};
use approx_linalg::{vector, CsrMatrix, LinearOperator};
use iter_solvers::datasets::{ar_series, hang_seng_like, three_cluster};
use iter_solvers::metrics::{hamming_distance, l2_error};
use iter_solvers::rng::Pcg32;
use iter_solvers::{AutoRegression, CgState, ConjugateGradient, GaussianMixture, GmmState};

use crate::solver::{SolverInputs, SolverSpec};
use crate::trace::{csr_bytes, TracedMethod, TracedOp};

/// The generator seed of input `member` of a run with `seed`, salted
/// per workload so workloads never share inputs.
#[must_use]
pub fn member_seed(seed: u64, salt: u64, member: usize) -> u64 {
    parx::chunk_seed(seed ^ salt, member as u64)
}

/// The HangSeng-like AR(10) coefficients of the paper's first AR row
/// (`datasets::hang_seng_like`), so other seeds draw from the same
/// process.
pub const HANG_SENG_COEFFS: [f64; 10] = [
    0.32 + 0.05,
    0.18,
    0.10,
    0.05,
    -0.04,
    0.06,
    -0.03,
    0.02,
    0.04,
    -0.02,
];
/// Length of the HangSeng-like series (6,694 regression samples).
pub const HANG_SENG_LEN: usize = 6704;
/// Gradient-descent step, tolerance and cap of the paper's AR rows.
pub const AR_STEP: f64 = 0.2;
/// Per-coefficient convergence tolerance of the paper's AR rows.
pub const AR_TOL: f64 = 1e-13;
/// `MAX_ITER` of the paper's AR rows.
pub const AR_CAP: usize = 1000;

/// `ar_paper`: AR(10) by gradient descent on HangSeng-like series.
#[derive(Debug, Clone, Copy)]
pub struct ArPaper {
    /// Inputs per run.
    pub pool: usize,
    /// Series length (the paper's is [`HANG_SENG_LEN`]).
    pub len: usize,
}

impl ArPaper {
    /// The benchmark configuration.
    pub const FULL: Self = Self {
        pool: 6,
        len: HANG_SENG_LEN,
    };

    /// Fixed run shape.
    pub const SPEC: SolverSpec = SolverSpec {
        nominal_unit_s: 0.15,
        qem_tol: 1e-3,
        qem_what: "coefficient l2 error vs Truth",
    };
}

impl SolverInputs for ArPaper {
    type Method = AutoRegression;
    type Traced = TracedMethod<AutoRegression>;

    fn build(&self, seed: u64) -> Vec<AutoRegression> {
        (0..self.pool)
            .map(|i| {
                let series = if seed == 0 && i == 0 && self.len == HANG_SENG_LEN {
                    hang_seng_like()
                } else {
                    let s = member_seed(seed, 0xA2, i);
                    ar_series("hangseng", self.len, &HANG_SENG_COEFFS, 1.0, s)
                };
                AutoRegression::from_series(&series, AR_STEP, AR_TOL, AR_CAP)
            })
            .collect()
    }

    fn template(&self, profile: &EnergyProfile) -> QcsContext {
        QcsContext::with_profile(profile.clone())
    }

    fn wrap(&self, method: &AutoRegression) -> Self::Traced {
        TracedMethod::new(method.clone())
    }

    fn qem(
        &self,
        _seed: u64,
        _member: usize,
        _method: &AutoRegression,
        approx: &Vec<f64>,
        truth: &Vec<f64>,
    ) -> f64 {
        l2_error(approx, truth)
    }
}

/// Convergence tolerance of the paper's `3cluster` row.
pub const GMM_TOL: f64 = 1e-10;
/// `MAX_ITER` of the paper's GMM rows.
pub const GMM_CAP: usize = 500;
/// Initialization seed of the paper's GMM rows.
pub const GMM_INIT_SEED: u64 = 7;

/// `gmm_paper`: GMM-EM on the paper's `3cluster` data, translated by a
/// seeded offset.
///
/// EM is translation-equivariant in exact arithmetic — the same points
/// are picked as initial means and every iterate moves with the data —
/// so each seed poses the same clustering problem, while the fixed-point
/// datapath sees different bit patterns. Fresh blob draws would not do:
/// with the paper's fixed initialization, EM takes 11 to 147 iterations
/// across draws and sometimes settles in another local optimum.
#[derive(Debug, Clone, Copy)]
pub struct GmmPaper {
    /// Inputs per run.
    pub pool: usize,
    /// Keep every `stride`-th point (1 = the paper's 1,000 points).
    pub stride: usize,
}

impl GmmPaper {
    /// The benchmark configuration.
    pub const FULL: Self = Self {
        pool: 12,
        stride: 1,
    };

    /// Fixed run shape.
    pub const SPEC: SolverSpec = SolverSpec {
        nominal_unit_s: 0.11,
        qem_tol: 0.01,
        qem_what: "label Hamming fraction vs Truth",
    };
}

impl SolverInputs for GmmPaper {
    type Method = GaussianMixture;
    type Traced = TracedMethod<GaussianMixture>;

    fn build(&self, seed: u64) -> Vec<GaussianMixture> {
        let base = three_cluster();
        (0..self.pool)
            .map(|i| {
                let mut data = base.clone();
                data.points = data.points.into_iter().step_by(self.stride).collect();
                data.labels = data.labels.into_iter().step_by(self.stride).collect();
                if seed != 0 || i != 0 {
                    let mut rng = Pcg32::seeded(member_seed(seed, 0x6A, i), 0);
                    let offset: Vec<f64> = (0..2).map(|_| rng.uniform(-4.0, 4.0)).collect();
                    for p in &mut data.points {
                        for (x, o) in p.iter_mut().zip(&offset) {
                            *x += o;
                        }
                    }
                }
                GaussianMixture::from_dataset(&data, GMM_TOL, GMM_CAP, GMM_INIT_SEED)
            })
            .collect()
    }

    fn template(&self, profile: &EnergyProfile) -> QcsContext {
        QcsContext::with_profile(profile.clone())
    }

    fn wrap(&self, method: &GaussianMixture) -> Self::Traced {
        TracedMethod::new(method.clone())
    }

    fn qem(
        &self,
        _seed: u64,
        _member: usize,
        method: &GaussianMixture,
        approx: &GmmState,
        truth: &GmmState,
    ) -> f64 {
        let labels = method.assignments(approx);
        let wrong = hamming_distance(&labels, &method.assignments(truth), method.k());
        wrong as f64 / labels.len() as f64
    }
}

/// Per-coordinate movement tolerance of the Poisson solves: well above
/// the Q31.32 quantum (2.3e-10), so convergence does not hinge on an
/// update rounding to exactly zero.
pub const POISSON_TOL: f64 = 1e-5;
/// Iteration cap of the Poisson solves.
pub const POISSON_CAP: usize = 1000;

/// `poisson_cg`: sparse CG on a 5-point Poisson system with a
/// manufactured solution, on a Q31.32 datapath.
#[derive(Debug, Clone, Copy)]
pub struct PoissonCg {
    /// Inputs per run.
    pub pool: usize,
    /// Grid side; the system has `side²` unknowns.
    pub side: usize,
}

impl PoissonCg {
    /// The benchmark configuration.
    pub const FULL: Self = Self { pool: 4, side: 96 };

    /// Fixed run shape.
    pub const SPEC: SolverSpec = SolverSpec {
        nominal_unit_s: 0.5,
        qem_tol: 2.5e-2,
        qem_what: "relative l2 error vs manufactured solution",
    };

    /// The manufactured solution of input `member`.
    #[must_use]
    pub fn manufactured(&self, seed: u64, member: usize) -> Vec<f64> {
        let mut rng = Pcg32::seeded(member_seed(seed, 0x9015, member), 2);
        (0..self.side * self.side)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect()
    }

    /// The 64-bit QCS adder of the Q31.32 datapath.
    #[must_use]
    pub fn adder() -> QcsAdder {
        QcsAdder::with_policy(
            QFormat::Q31_32.width(),
            [36, 24, 12, 6],
            LowPartPolicy::Zero,
        )
    }
}

impl SolverInputs for PoissonCg {
    type Method = ConjugateGradient<CsrMatrix>;
    type Traced = TracedMethod<ConjugateGradient<TracedOp<CsrMatrix>>>;

    fn profile(&self) -> EnergyProfile {
        EnergyProfile::characterize(
            &Self::adder(),
            512,
            0x5EED,
            &gatesim::EnergyModel::default(),
        )
    }

    fn build(&self, seed: u64) -> Vec<Self::Method> {
        (0..self.pool)
            .map(|i| {
                let a = CsrMatrix::poisson5(self.side, self.side);
                let b = a.matvec_exact(&self.manufactured(seed, i));
                ConjugateGradient::new(a, b, POISSON_TOL, POISSON_CAP)
            })
            .collect()
    }

    fn template(&self, profile: &EnergyProfile) -> QcsContext {
        QcsContext::new(Self::adder(), QFormat::Q31_32, profile.clone())
    }

    fn wrap(&self, method: &Self::Method) -> Self::Traced {
        let a = method.operator().clone();
        let bytes = csr_bytes(&a);
        TracedMethod::new(ConjugateGradient::new(
            TracedOp::new(a, bytes),
            method.rhs().to_vec(),
            POISSON_TOL,
            POISSON_CAP,
        ))
    }

    fn qem(
        &self,
        seed: u64,
        member: usize,
        _method: &Self::Method,
        approx: &CgState,
        _truth: &CgState,
    ) -> f64 {
        let u = self.manufactured(seed, member);
        vector::dist2_exact(&approx.x, &u) / vector::norm2_exact(&u)
    }
}
