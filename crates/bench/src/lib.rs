//! Benchmark harness regenerating every table and figure of the ApproxIt
//! paper.
//!
//! The binaries in `src/bin/`:
//!
//! | binary    | what it runs |
//! |-----------|--------------|
//! | `paper`   | the paper's exhibits and their extensions, one subcommand each: `table2`, `table3`, `table4`, `fig3`, `fig4`, `ablation`, `survey`, `experiment` |
//! | `verify`  | formal pipeline: lint, BDD equivalence proofs, exact error characterization, static range analysis |
//! | `guarantee` | static quality-guarantee proofs: controller model checking (+ symbolic BDD cross-check), error-propagation × contraction recurrence, dominance over the measured characterization table |
//! | `resilience` | fault campaign: quality vs fault rate under the runner watchdog |
//! | `chaos`   | solver-service chaos campaign: invariants under composed faults |
//! | `audit`   | workspace determinism & hermeticity audit (the CI lint gate) |
//!
//! This library holds the shared experiment definitions so the binaries,
//! the integration tests, and the `perfbench` benchmark agree on every
//! parameter, and the one loop ([`against_truth`]) that scores runs
//! against Truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod render;
pub mod specs;
pub mod truth;

pub use specs::{ar_specs, gmm_specs, shared_profile, ArSpec, GmmSpec};
pub use truth::{against_truth, Scored};
