//! Iterative-method substrate for the ApproxIt reproduction: the
//! [`IterativeMethod`] abstraction, generic solvers (gradient descent,
//! conjugate gradient, Jacobi, multigrid), the paper's benchmark
//! applications (GMM-EM, AutoRegression, plus the k-means system of the
//! PID baseline), personalized PageRank, deterministic dataset
//! generators, and quality metrics.
//!
//! # Example
//!
//! ```
//! use approx_arith::{EnergyProfile, ExactContext};
//! use iter_solvers::datasets::gaussian_blobs;
//! use iter_solvers::{GaussianMixture, IterativeMethod};
//!
//! let data = gaussian_blobs("demo", &[30, 30],
//!     &[vec![0.0, 0.0], vec![6.0, 6.0]], &[0.6, 0.6], 1);
//! let gmm = GaussianMixture::from_dataset(&data, 1e-8, 100, 7);
//! let profile = EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
//! let mut ctx = ExactContext::with_profile(profile);
//! let state = gmm.step(&gmm.initial_state(), &mut ctx);
//! assert!(gmm.objective(&state) <= gmm.objective(&gmm.initial_state()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoreg;
mod cg;
mod gmm;
mod gradient_descent;
mod jacobi;
mod kmeans;
mod method;
mod opmultigrid;
mod pagerank;

pub mod contraction;
pub mod datasets;
pub mod functions;
pub mod metrics;
pub mod ranges;

pub use autoreg::AutoRegression;
pub use cg::{CgState, ConjugateGradient};
pub use contraction::{
    ar_contraction, cg_contraction, gmm_contraction, injected_error_bound, ContractionReport,
};
pub use gmm::{GaussianMixture, GmmState};
pub use gradient_descent::GradientDescent;
pub use jacobi::Jacobi;
pub use kmeans::{KMeans, KMeansState};
pub use method::IterativeMethod;
pub use opmultigrid::{MgLevel, OperatorMultigrid};
pub use pagerank::{PersonalizedPageRank, PprState};
pub use ranges::{
    ar_range_model, cg_range_model, gmm_range_model, ArRangeSpec, CgRangeSpec, GmmRangeSpec,
    RangeModel,
};

/// Deterministic PRNGs, re-exported from [`approx_arith::rng`] so that
/// downstream code has a single import path.
pub use approx_arith::rng;
