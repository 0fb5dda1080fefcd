//! Packed-vs-scalar performance harness: proves the bit-parallel
//! simulation backend agrees with the scalar reference, then measures
//! the speedup it buys on exhaustive adder error sweeps.
//!
//! Quick mode (the default) runs the full scalar/packed/packed+threads
//! comparison at 12 bits and the packed+threads sweep at 16 bits
//! (2³² patterns), extrapolating the 16-bit scalar cost from the
//! measured 12-bit per-pattern rate. Pass `--full` to measure the
//! 16-bit scalar sweep directly (minutes), or `--smoke` (the CI mode)
//! to skip the 16-bit sweeps and judge the speedup at 12 bits only.
//!
//! Correctness checks are hard failures (non-zero exit). The wall-clock
//! budget is a soft threshold: exceeding it only logs a warning, so a
//! loaded CI machine cannot flake the job.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use approxit_bench::cli::{BenchOpts, Checker};
use gatesim::builders::{self, declare_ab, full_adder, half_adder};
use gatesim::equiv::{error_bound, exhaustive_error_bound_with, ErrorBound};
use gatesim::packed::{exhaustive_input_words, PackedSimulator, LANES};
use gatesim::{EnergyModel, Netlist, Simulator};
use parx::Executor;

/// Soft wall-clock budget for the quick run (log-only).
const QUICK_BUDGET: Duration = Duration::from_secs(120);

/// A `width`-bit truncated adder: the low `approx_bits` sum bits are
/// carry-free XORs and the exact carry chain starts above them — the
/// classic lower-bits approximation the QCS adder family is built from.
/// Input declaration order matches [`builders::modular_adder`] so the
/// two netlists see every exhaustive pattern identically.
fn truncated_adder(width: usize, approx_bits: usize) -> Netlist {
    assert!(approx_bits < width, "at least one exact bit");
    let mut nl = Netlist::new();
    let (a, b) = declare_ab(&mut nl, width);
    for i in 0..approx_bits {
        let sum = nl.xor2(a[i], b[i]);
        nl.mark_output(sum, format!("sum{i}"));
    }
    let (sum, mut carry) = half_adder(&mut nl, a[approx_bits], b[approx_bits]);
    nl.mark_output(sum, format!("sum{approx_bits}"));
    for i in approx_bits + 1..width {
        let (s, c) = full_adder(&mut nl, a[i], b[i], carry);
        nl.mark_output(s, format!("sum{i}"));
        carry = c;
    }
    nl
}

/// The benchmark pair at one width: truncated approximation vs the
/// exact modular adder.
fn sweep_pair(width: usize) -> (Netlist, Netlist) {
    (
        truncated_adder(width, width / 3),
        builders::modular_adder(width).0,
    )
}

/// The pre-packed reference: one scalar [`Simulator`] evaluation per
/// input vector, accumulating the same statistics as
/// [`exhaustive_error_bound_with`].
fn scalar_error_bound(approx: &Netlist, exact: &Netlist) -> ErrorBound {
    let n = approx.num_inputs();
    let out_bits = approx.num_outputs();
    let modulus = 1u64 << out_bits;
    let ring_mask = modulus - 1;
    let total = 1u64 << n;
    let mut sim_approx = Simulator::new(approx);
    let mut sim_exact = Simulator::new(exact);
    let mut mismatches = 0u64;
    let mut max_abs = 0u64;
    let mut max_ring = 0u64;
    let mut witness = 0u64;
    let mut inputs = vec![false; n];
    for pattern in 0..total {
        for (i, bit) in inputs.iter_mut().enumerate() {
            *bit = (pattern >> i) & 1 == 1;
        }
        let out_approx = sim_approx.evaluate(&inputs).expect("interface matches");
        let approx_word = word_of(&out_approx);
        let out_exact = sim_exact.evaluate(&inputs).expect("interface matches");
        let exact_word = word_of(&out_exact);
        if approx_word != exact_word {
            mismatches += 1;
            let abs = approx_word.abs_diff(exact_word);
            if abs > max_abs {
                max_abs = abs;
                witness = pattern;
            }
            let wrapped = approx_word.wrapping_sub(exact_word) & ring_mask;
            max_ring = max_ring.max(wrapped.min(modulus - wrapped));
        }
    }
    ErrorBound {
        error_rate: mismatches as f64 / total as f64,
        max_abs_error: max_abs,
        max_ring_error: max_ring,
        worst_case_inputs: (0..n).map(|i| (witness >> i) & 1 == 1).collect(),
    }
}

fn word_of(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |w, (i, &b)| w | (u64::from(b) << i))
}

fn bounds_match(left: &ErrorBound, right: &ErrorBound) -> bool {
    left.error_rate.to_bits() == right.error_rate.to_bits()
        && left.max_abs_error == right.max_abs_error
        && left.max_ring_error == right.max_ring_error
        && left.worst_case_inputs == right.worst_case_inputs
}

/// Packed-vs-scalar agreement at a width small enough to cross-check
/// everything exhaustively, including the independent symbolic engine.
fn correctness_stage(c: &mut Checker, threads: usize) {
    let width = 8;
    let (approx, exact) = sweep_pair(width);
    let scalar = scalar_error_bound(&approx, &exact);
    let serial = exhaustive_error_bound_with(&approx, &exact, &Executor::with_threads(1))
        .expect("within ceiling");
    let parallel = exhaustive_error_bound_with(&approx, &exact, &Executor::with_threads(threads))
        .expect("within ceiling");
    c.check(
        "packed sweep matches the scalar reference (width 8, exhaustive)",
        bounds_match(&scalar, &serial),
        &format!(
            "rate {:.6}, max |err| {}",
            serial.error_rate, serial.max_abs_error
        ),
    );
    c.check(
        &format!("packed sweep is thread-count invariant (1 vs {threads} threads)"),
        bounds_match(&serial, &parallel),
        "",
    );
    let symbolic = error_bound(&approx, &exact).expect("within BDD ceiling");
    c.check(
        "packed sweep matches the symbolic BDD engine",
        symbolic.error_rate.to_bits() == serial.error_rate.to_bits()
            && symbolic.max_abs_error == serial.max_abs_error
            && symbolic.max_ring_error == serial.max_ring_error,
        &format!("both report max |err| {}", symbolic.max_abs_error),
    );

    // Toggle identity: the packed simulator charges exactly the toggles
    // the scalar one does, so energy numbers are bit-identical.
    let mut scalar_sim = Simulator::new(&exact);
    let mut inputs = vec![false; exact.num_inputs()];
    for pattern in 0..(1u64 << exact.num_inputs()) {
        for (i, bit) in inputs.iter_mut().enumerate() {
            *bit = (pattern >> i) & 1 == 1;
        }
        scalar_sim.evaluate(&inputs).expect("interface matches");
    }
    let mut packed_sim = PackedSimulator::new(&exact);
    let mut base = 0u64;
    let total = 1u64 << exact.num_inputs();
    while base < total {
        let lanes = usize::try_from(total - base).map_or(LANES, |r| r.min(LANES));
        packed_sim
            .evaluate_packed(&exhaustive_input_words(exact.num_inputs(), base), lanes)
            .expect("interface matches");
        base += lanes as u64;
    }
    let model = EnergyModel::default();
    c.check(
        "packed toggles and energy are bit-identical to scalar (width 8)",
        packed_sim.toggles() == scalar_sim.toggles()
            && packed_sim.energy(&model).to_bits() == scalar_sim.energy(&model).to_bits(),
        &format!("{} toggles", packed_sim.total_toggles()),
    );
}

struct TimedSweep {
    label: String,
    patterns: u64,
    elapsed: Duration,
    measured: bool,
}

impl TimedSweep {
    fn throughput(&self) -> f64 {
        self.patterns as f64 / self.elapsed.as_secs_f64()
    }

    fn row(&self) -> String {
        format!(
            "  {:<44} {:>10} {:>12} {:>14}",
            self.label,
            fmt_count(self.patterns),
            if self.measured {
                format!("{:.3}s", self.elapsed.as_secs_f64())
            } else {
                format!("~{:.1}s*", self.elapsed.as_secs_f64())
            },
            format!("{}/s", fmt_count(self.throughput() as u64)),
        )
    }
}

fn fmt_count(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}G", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

fn time_sweep<F: FnMut() -> ErrorBound>(
    label: &str,
    patterns: u64,
    mut run: F,
) -> (TimedSweep, ErrorBound) {
    let start = Instant::now();
    let bound = run();
    (
        TimedSweep {
            label: label.to_owned(),
            patterns,
            elapsed: start.elapsed(),
            measured: true,
        },
        bound,
    )
}

fn main() -> ExitCode {
    let opts = BenchOpts::parse_for("perf", &["--smoke", "--full"], &[]);
    let full = opts.has_flag("--full");
    let smoke = opts.has_flag("--smoke") && !full;
    let threads = Executor::new().threads();
    opts.say(&format!(
        "perf: packed-vs-scalar cross-check and speedup measurement ({threads} threads)"
    ));
    let started = Instant::now();
    let mut c = Checker::new(opts.quiet);

    correctness_stage(&mut c, threads.max(2));

    // --- Timed sweeps ----------------------------------------------------
    let mut rows: Vec<TimedSweep> = Vec::new();

    let width = 12usize;
    let (approx, exact) = sweep_pair(width);
    let patterns_12 = 1u64 << (2 * width);
    let (scalar_12, scalar_bound) = time_sweep(
        &format!("scalar   {width}-bit exhaustive error_bound"),
        patterns_12,
        || scalar_error_bound(&approx, &exact),
    );
    let (packed_12, packed_bound) = time_sweep(
        &format!("packed×1 {width}-bit exhaustive error_bound"),
        patterns_12,
        || {
            exhaustive_error_bound_with(&approx, &exact, &Executor::with_threads(1))
                .expect("in range")
        },
    );
    let (threaded_12, threaded_bound) = time_sweep(
        &format!("packed×{threads} {width}-bit exhaustive error_bound"),
        patterns_12,
        || exhaustive_error_bound_with(&approx, &exact, &Executor::new()).expect("in range"),
    );
    c.check(
        &format!("scalar, packed and packed×{threads} agree at {width} bits"),
        bounds_match(&scalar_bound, &packed_bound) && bounds_match(&scalar_bound, &threaded_bound),
        &format!(
            "rate {:.6}, max |err| {}",
            scalar_bound.error_rate, scalar_bound.max_abs_error
        ),
    );

    let speedup_12_packed = scalar_12.elapsed.as_secs_f64() / packed_12.elapsed.as_secs_f64();
    let speedup_12_threads = scalar_12.elapsed.as_secs_f64() / threaded_12.elapsed.as_secs_f64();
    rows.push(scalar_12);
    rows.push(packed_12);
    rows.push(threaded_12);

    let mut speedup_16 = None;
    if smoke {
        // CI smoke mode: the 2³² sweeps would dominate the job, and the
        // 12-bit comparison already exercises every code path. Judge the
        // speedup target here instead.
        c.check(
            "packed 12-bit sweep beats the scalar path by ≥10×",
            speedup_12_packed >= 10.0 || speedup_12_threads >= 10.0,
            &format!("{speedup_12_packed:.0}× on one thread"),
        );
    } else {
        let width = 16usize;
        let (approx_16, exact_16) = sweep_pair(width);
        let patterns_16 = 1u64 << (2 * width);
        let (threaded_16, bound_16) = time_sweep(
            &format!("packed×{threads} {width}-bit exhaustive error_bound"),
            patterns_16,
            || {
                exhaustive_error_bound_with(&approx_16, &exact_16, &Executor::new())
                    .expect("in range")
            },
        );
        c.check(
            "16-bit sweep finds the truncation's worst case",
            bound_16.max_abs_error > 0 && bound_16.error_rate > 0.0,
            &format!(
                "rate {:.4}, max |err| {} over {} patterns",
                bound_16.error_rate,
                bound_16.max_abs_error,
                fmt_count(patterns_16)
            ),
        );

        let scalar_16 = if full {
            let (timed, bound) = time_sweep(
                "scalar   16-bit exhaustive error_bound",
                patterns_16,
                || scalar_error_bound(&approx_16, &exact_16),
            );
            c.check(
                "full 16-bit scalar sweep agrees with packed",
                bounds_match(&bound, &bound_16),
                "",
            );
            timed
        } else {
            // Extrapolate from the measured 12-bit scalar rate, corrected
            // for netlist size (scalar cost is per pattern per node).
            let nodes_12 = (sweep_pair(12).0.len() + sweep_pair(12).1.len()) as f64;
            let nodes_16 = (approx_16.len() + exact_16.len()) as f64;
            let per_pattern = rows[0].elapsed.as_secs_f64() / patterns_12 as f64;
            TimedSweep {
                label: "scalar   16-bit exhaustive error_bound".to_owned(),
                patterns: patterns_16,
                elapsed: Duration::from_secs_f64(
                    per_pattern * (nodes_16 / nodes_12) * patterns_16 as f64,
                ),
                measured: false,
            }
        };

        let ratio = scalar_16.elapsed.as_secs_f64() / threaded_16.elapsed.as_secs_f64();
        c.check(
            "packed 16-bit sweep beats the scalar path by ≥10×",
            ratio >= 10.0,
            &format!(
                "{ratio:.0}×{}",
                if scalar_16.measured {
                    ""
                } else {
                    " (scalar extrapolated; pass --full to measure)"
                }
            ),
        );
        speedup_16 = Some(ratio);
        rows.push(scalar_16);
        rows.push(threaded_16);
    }

    println!(
        "\n  {:<44} {:>10} {:>12} {:>14}",
        "sweep", "patterns", "time", "throughput"
    );
    for row in &rows {
        println!("{}", row.row());
    }
    if rows.iter().any(|r| !r.measured) {
        println!("  (* extrapolated from the 12-bit scalar rate, node-count corrected)");
    }
    let tail = speedup_16.map_or_else(String::new, |s| format!(", {s:.0}× (16-bit)"));
    println!(
        "\n  speedup vs scalar: packed×1 {speedup_12_packed:.0}× (12-bit), \
         packed×{threads} {speedup_12_threads:.0}× (12-bit){tail}\n"
    );

    let elapsed = started.elapsed();
    if elapsed > QUICK_BUDGET && !full {
        println!(
            "  warning: quick run took {:.0}s (soft budget {}s) — wall clock is \
             informational only, not failing the job",
            elapsed.as_secs_f64(),
            QUICK_BUDGET.as_secs()
        );
    }
    c.finish("perf", &opts)
}
