//! Benchmark harness regenerating every table and figure of the ApproxIt
//! paper.
//!
//! Each binary in `src/bin/` reproduces one exhibit:
//!
//! | binary    | paper exhibit |
//! |-----------|---------------|
//! | `table2`  | Table 2 — dataset & parameter description |
//! | `table3`  | Table 3 — GMM single-mode and reconfiguration results |
//! | `table4`  | Table 4 — AutoRegression single-mode and reconfiguration results |
//! | `fig3`    | Figure 3 — GMM clustering scatter (per-mode assignments) |
//! | `fig4`    | Figure 4 — GMM energy comparison (total & per-iteration) |
//! | `ablation`| extensions: scheme ablation, f-step sweep, PID baseline, width sweep |
//! | `verify`  | formal pipeline: lint, BDD equivalence proofs, exact error characterization, static range analysis |
//! | `guarantee` | static quality-guarantee proofs: controller model checking (+ symbolic BDD cross-check), error-propagation × contraction recurrence, dominance over the measured characterization table |
//! | `resilience` | fault campaign: quality vs fault rate under the runner watchdog |
//! | `survey`  | adder design-space survey: error × energy × delay |
//! | `perf`    | packed-vs-scalar cross-check + exhaustive-sweep speedup measurement |
//! | `chaos`   | solver-service chaos campaign: invariants under composed faults |
//! | `audit`   | workspace determinism & hermeticity audit (the CI lint gate) |
//! | `experiment` | general runner for ad-hoc method/dataset/strategy sweeps |
//!
//! This library holds the shared experiment definitions so the binaries,
//! the integration tests, and the `perfbench` benchmark agree on every
//! parameter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod render;
pub mod specs;
pub mod tables;

pub use specs::{ar_specs, gmm_specs, shared_profile, ArSpec, GmmSpec};
pub use tables::{
    ar_reconfig_rows, ar_single_mode_rows, gmm_reconfig_rows, gmm_single_mode_rows, ReconfigRow,
    SingleModeRow,
};
