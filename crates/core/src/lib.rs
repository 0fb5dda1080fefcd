//! **ApproxIt** — a quality-guaranteed approximate-computing framework
//! for iterative methods, reproducing Zhang, Yuan, Ye & Xu (DAC 2014).
//!
//! Iterative methods refine a solution over many steps whose accuracy
//! requirements vary at runtime: early iterations tolerate large errors,
//! late iterations near convergence do not. ApproxIt exploits this by
//! running each iteration on a quality-configurable approximate adder
//! ([`approx_arith::QcsAdder`]) and *reconfiguring* the accuracy level
//! online, guided by monitoring quantities that the iterative method
//! produces anyway.
//!
//! The crate provides:
//!
//! * the iteration-level [`quality_error`] metric (Definition 1) and the
//!   offline [`characterize`] stage that measures it per mode;
//! * the [`IncrementalStrategy`] (§4.1) with its gradient / quality /
//!   function schemes, including rollback recovery;
//! * the [`AdaptiveAngleStrategy`] (§4.2) with its LP-initialized,
//!   online-updated lookup table (see [`lp`]);
//! * a PID-controller baseline ([`PidStrategy`]) after Chippa et al.,
//!   the design the paper argues against;
//! * the [`RunConfig`] controller that drives any
//!   [`iter_solvers::IterativeMethod`] under any [`ReconfigStrategy`]
//!   with full energy/quality telemetry ([`RunReport`]);
//! * a runner watchdog ([`WatchdogConfig`], attached via
//!   [`RunConfig::with_watchdog`]) with NaN/Inf/overflow guards,
//!   divergence detection, checkpointed recovery, and level escalation
//!   for fault-tolerant execution under soft errors;
//! * a controller [`modelcheck`]er that statically proves the
//!   reconfiguration policies livelock-free and monotone over their
//!   full reachable state spaces, with replayable counterexamples for
//!   anything it cannot prove;
//! * a resilient multi-request [`service`] ([`SolverService`]) that fans
//!   independent solves across [`parx::Executor`] under
//!   per-request deadlines, retry-with-escalation, bounded-queue load
//!   shedding, and per-level circuit breakers — deterministic for any
//!   thread count.
//!
//! # Quickstart
//!
//! ```
//! use approxit::prelude::*;
//! use iter_solvers::datasets::gaussian_blobs;
//! use iter_solvers::GaussianMixture;
//!
//! // A small clustering workload.
//! let data = gaussian_blobs("demo", &[40, 40],
//!     &[vec![0.0, 0.0], vec![7.0, 7.0]], &[0.8, 0.8], 1);
//! let gmm = GaussianMixture::from_dataset(&data, 1e-8, 200, 3);
//!
//! // Offline stage: characterize per-mode quality errors.
//! let profile = EnergyProfile::from_constants(
//!     [1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0);
//! let table = characterize(&gmm, &profile, 4);
//!
//! // Online stage: run under the incremental strategy and compare with
//! // the fully accurate baseline.
//! let mut ctx = QcsContext::with_profile(profile);
//! let truth = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
//! let mut strategy = IncrementalStrategy::from_characterization(&table);
//! let scaled = RunConfig::new(&gmm, &mut ctx).execute(&mut strategy);
//! assert!(scaled.report.normalized_energy(&truth.report) < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod characterize;
mod incremental;
mod pid;
mod quality;
mod report;
mod runner;
mod strategy;
mod watchdog;

pub mod lp;
pub mod modelcheck;
pub mod service;

pub use adaptive::AdaptiveAngleStrategy;
pub use characterize::{
    characterize, characterize_on, characterize_on_with, CharacterizationTable,
};
pub use incremental::{IncrementalConfig, IncrementalStrategy, QualitySchemeVariant};
pub use modelcheck::{
    check as model_check, symbolic_cross_check, ControllerSpec, Counterexample, ModelCheckReport,
    SymbolicCrossCheck,
};
pub use pid::{PidConfig, PidStrategy};
pub use quality::{quality_error, QUALITY_EPS};
pub use report::{Outcome, RangeProofSummary, RunReport};
pub use runner::{RunConfig, RunOutcome};
pub use service::{
    BreakerConfig, BreakerTelemetry, Request, RequestResult, RequestTelemetry, ServiceConfig,
    ServiceReport, SolverService, Submission,
};
pub use strategy::{Decision, IterationObservation, ReconfigStrategy, SingleMode};
pub use watchdog::{RecoveryTelemetry, WatchdogConfig};

// Re-export the vocabulary types downstream code always needs together
// with this crate.
pub use approx_arith::{AccuracyLevel, EnergyProfile, QcsContext};

/// One-stop import for applications: `use approxit::prelude::*;`.
///
/// Re-exports the framework vocabulary — the [`RunConfig`] controller
/// and its telemetry, the reconfiguration strategies, the offline
/// characterization stage, and the arithmetic-context types from
/// [`approx_arith`] — plus the [`IterativeMethod`](iter_solvers::IterativeMethod)
/// trait every workload implements. Concrete solvers, datasets, and
/// metrics stay behind explicit `iter_solvers::…` imports: they are
/// workload choices, not framework vocabulary.
pub mod prelude {
    pub use crate::adaptive::AdaptiveAngleStrategy;
    pub use crate::characterize::{
        characterize, characterize_on, characterize_on_with, CharacterizationTable,
    };
    pub use crate::incremental::{IncrementalConfig, IncrementalStrategy};
    pub use crate::quality::quality_error;
    pub use crate::report::{Outcome, RunReport};
    pub use crate::runner::{RunConfig, RunOutcome};
    pub use crate::service::{Request, ServiceConfig, ServiceReport, SolverService, Submission};
    pub use crate::strategy::{Decision, IterationObservation, ReconfigStrategy, SingleMode};
    pub use crate::watchdog::{RecoveryTelemetry, WatchdogConfig};

    pub use approx_arith::{AccuracyLevel, ArithContext, EnergyProfile, FaultInjector, QcsContext};
    pub use approx_linalg::{CsrMatrix, LinearOperator, Matrix};
    pub use iter_solvers::{IterativeMethod, PersonalizedPageRank};
}

/// The README's Rust blocks, compiled as doctests so they keep up with
/// the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
