//! Shared run plumbing: options, unit counts, fingerprints and the
//! metric report every workload fills in.

use approx_arith::{AccuracyLevel, OpCounts};
use approxit::{RunOutcome, RunReport};
use iter_solvers::IterativeMethod;

use crate::stats;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Workers of the executor given to `characterize_on_with` and to the
/// service. Pinned here, never derived from the host.
pub const WORKERS: usize = 2;
/// Offline characterization iterations (the paper tables' value).
pub const CHAR_ITERS: usize = 5;
/// The adaptive strategy's lookup-table update period (the paper's f).
pub const UPDATE_PERIOD: usize = 1;
/// Fewest timed units in a run; `solve_s_tail` needs samples beyond it.
pub const MIN_UNITS: usize = 21;
/// Samples the tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// Command-line options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Target measuring time.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
}

impl RunOpts {
    /// Timed units for a workload whose unit takes about `nominal_s`:
    /// a fixed count for given options, never measured at run time. A
    /// traced run splits the time between its untraced and traced halves.
    #[must_use]
    pub fn units(&self, nominal_s: f64) -> usize {
        let seconds = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        ((seconds / nominal_s).ceil() as usize).max(MIN_UNITS)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed units attempted (solves, or drains on `service_drain`).
    pub attempted: u64,
    /// Units with a wrong or not-ok output.
    pub failed: u64,
    /// Correctness violations; any makes the run exit non-zero.
    pub errors: Vec<String>,
    /// Human-readable detail lines.
    pub lines: Vec<String>,
    /// End-to-end metrics (untraced pass).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced pass).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Record a correctness violation.
    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Record a detail line.
    pub fn line(&mut self, message: String) {
        self.lines.push(message);
    }

    /// Append an end-to-end metric measured over `samples` samples.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Append a per-layer metric measured over `samples` samples.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The timing metrics of `times` (per solve, or per drain on the
    /// service), with a line stating sample count and tail percentile.
    /// `ok` successes completed in `wall` seconds of timed units.
    pub fn timings(&mut self, times: &[f64], ok: f64, wall: f64) {
        let p50 = stats::median(times);
        let (pct, tail) = stats::tail(times, TAIL_BEYOND);
        let n = times.len();
        self.line(format!(
            "timing: {n} timed units, solve_s_p50 {p50:.6} s, solve_s_tail = p{pct} {tail:.6} s \
             ({} samples beyond), {wall:.3} s timed",
            n - (pct as usize * n).div_ceil(100),
        ));
        self.e2e("solve_s_p50", p50, "s", n);
        self.e2e("solve_s_tail", tail, "s", n);
        self.e2e("solves_per_s", ok / wall, "1/s", n);
    }
}

/// Everything a solve produces that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    params: Vec<u64>,
    counts: OpCounts,
    approx_energy: u64,
    total_energy: u64,
    schedule: Vec<AccuracyLevel>,
    converged: bool,
    rollbacks: usize,
}

impl Fingerprint {
    /// Fingerprint a run outcome, reading parameters through `method`.
    pub fn of<M: IterativeMethod>(method: &M, outcome: &RunOutcome<M::State>) -> Self {
        Self::new(&method.params(&outcome.state), &outcome.report)
    }

    /// Fingerprint final parameters and the report of their run.
    #[must_use]
    pub fn new(params: &[f64], r: &RunReport) -> Self {
        Self {
            params: params.iter().map(|p| p.to_bits()).collect(),
            counts: r.op_counts,
            approx_energy: r.approx_energy.to_bits(),
            total_energy: r.total_energy.to_bits(),
            schedule: r.level_schedule.clone(),
            converged: r.converged,
            rollbacks: r.rollbacks,
        }
    }
}

/// Mean of a non-empty sample.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Total length of the union of `[start, end)` intervals.
#[must_use]
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (s, e) in sorted {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    if let Some((os, oe)) = open {
        total += oe - os;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let len = union_len(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]);
        assert!((len - 4.0).abs() < 1e-12);
    }

    #[test]
    fn unit_counts_are_fixed_by_the_options() {
        let opts = RunOpts {
            seed: 0,
            seconds: 10.0,
            trace: false,
        };
        assert_eq!(opts.units(0.25), 40);
        assert_eq!(opts.units(1.0), MIN_UNITS);
        let traced = RunOpts {
            trace: true,
            ..opts
        };
        assert_eq!(traced.units(0.25), MIN_UNITS);
    }
}
