//! End-to-end and per-layer benchmark of the ApproxIt workspace.
//!
//! Four workloads — `ar_paper`, `gmm_paper`, `poisson_cg` and
//! `service_drain` — run as closed loops with one client through the
//! public API only (`RunConfig::execute`, `characterize_on_with`,
//! `SolverService::run_with`). An untraced pass yields the end-to-end
//! metrics; a traced pass through the [`trace`] wrappers splits the same
//! work into layers. See `WORKLOADS.md` next to this crate.

#![forbid(unsafe_code)]

pub mod clock;
pub mod host;
pub mod run;
pub mod service;
pub mod solver;
pub mod stats;
pub mod trace;
pub mod workloads;

use run::{Report, RunOpts};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["ar_paper", "gmm_paper", "poisson_cg", "service_drain"];

/// Run one workload by name; `None` for an unknown name.
#[must_use]
pub fn run_workload(name: &str, opts: &RunOpts) -> Option<Report> {
    use workloads::{ArPaper, GmmPaper, PoissonCg};
    Some(match name {
        "ar_paper" => solver::run(&ArPaper::FULL, &ArPaper::SPEC, opts),
        "gmm_paper" => solver::run(&GmmPaper::FULL, &GmmPaper::SPEC, opts),
        "poisson_cg" => solver::run(&PoissonCg::FULL, &PoissonCg::SPEC, opts),
        "service_drain" => service::run(&service::ServiceDrain::FULL, opts),
        _ => return None,
    })
}
