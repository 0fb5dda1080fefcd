//! `verify` — the formal verification and static-analysis pipeline.
//!
//! Runs, end to end and with a non-zero exit code on any failure:
//!
//! 1. **Lint** — every shipped adder netlist must validate and lint
//!    free of error-severity findings. (Warnings are reported but
//!    allowed: truncated adders leave low input bits floating by
//!    design, and the raw prefix-tree builders carry dead gates that
//!    the optimizer strips.)
//! 2. **Equivalence proofs** — for every adder variant the optimizer's
//!    output is *proven* (BDD miter, not sampled) equal to the original;
//!    every exact configuration is proven equal to an independently
//!    constructed ripple-carry reference.
//! 3. **Counterexample demo** — a deliberately broken 16-bit adder must
//!    yield a concrete counterexample that reproduces in simulation.
//! 4. **Exact error characterization** — BDD model counting
//!    (`equiv::error_bound`) is cross-checked against exhaustive netlist
//!    simulation at width 8, and the 32-bit QCS modes are proven to
//!    respect their family error bound `< 2^(k+1)`.
//! 5. **Static range analysis** — the CG / AR / GMM datapath models are
//!    proven overflow-free for the paper's Q15.16 format in accurate
//!    mode, the per-level behaviour is reported, and the proof is
//!    attached to a real `RunReport`.

use std::process::ExitCode;

use approx_arith::{
    AccuracyLevel, Adder, ArithContext, EtaIiAdder, GeArAdder, KoggeStoneAdder, LowerOrAdder,
    LowerZeroAdder, QcsAdder, QcsContext, RippleCarryAdder, WindowedCarryAdder,
};
use approxit::{RangeProofSummary, RunConfig, SingleMode};
use approxit_bench::cli::{BenchOpts, Checker};
use gatesim::builders::{self, AdderPorts};
use gatesim::equiv::{self, Equivalence};
use gatesim::{optimize, GateKind, Netlist, NodeId, Simulator};
use iter_solvers::{
    ar_range_model, cg_range_model, datasets, gmm_range_model, ArRangeSpec, AutoRegression,
    CgRangeSpec, ConjugateGradient, GaussianMixture, GmmRangeSpec,
};

/// The full 16-bit roster: every adder architecture the crate ships, in
/// both exact and approximate configurations.
fn roster_16() -> Vec<Box<dyn Adder>> {
    let qcs = QcsAdder::new(16, [10, 8, 6, 4]);
    let mut v: Vec<Box<dyn Adder>> = vec![
        Box::new(RippleCarryAdder::new(16)),
        Box::new(KoggeStoneAdder::new(16)),
        Box::new(LowerZeroAdder::new(16, 4)),
        Box::new(LowerOrAdder::new(16, 4, false)),
        Box::new(EtaIiAdder::new(16, 4)),
        Box::new(GeArAdder::new(16, 4, 4)),
        Box::new(WindowedCarryAdder::new(16, 8)),
    ];
    for level in AccuracyLevel::ALL {
        v.push(Box::new(qcs.at(level)));
    }
    v
}

/// Exactly-configured variants: all must be provably equal to a
/// ripple-carry reference.
fn exact_roster_16() -> Vec<Box<dyn Adder>> {
    let qcs = QcsAdder::new(16, [10, 8, 6, 4]);
    vec![
        Box::new(RippleCarryAdder::new(16)),
        Box::new(KoggeStoneAdder::new(16)),
        Box::new(LowerZeroAdder::new(16, 0)),
        Box::new(LowerOrAdder::new(16, 0, false)),
        Box::new(EtaIiAdder::new(16, 16)),
        Box::new(GeArAdder::new(16, 8, 8)),
        Box::new(WindowedCarryAdder::new(16, 16)),
        Box::new(qcs.at(AccuracyLevel::Accurate)),
    ]
}

/// Build an exact ripple-carry reference with the same port interface
/// (carry-in / carry-out presence) and input order as `ports`.
fn exact_reference(ports: &AdderPorts) -> Netlist {
    let w = ports.width();
    let mut nl = Netlist::new();
    let a: Vec<NodeId> = (0..w).map(|i| nl.input(format!("a{i}"))).collect();
    let b: Vec<NodeId> = (0..w).map(|i| nl.input(format!("b{i}"))).collect();
    let mut carry = ports.cin().map(|_| nl.input("cin"));
    let mut sums = Vec::with_capacity(w);
    for i in 0..w {
        let (s, c) = match carry {
            Some(c0) => builders::full_adder(&mut nl, a[i], b[i], c0),
            None => builders::half_adder(&mut nl, a[i], b[i]),
        };
        sums.push(s);
        carry = Some(c);
    }
    for (i, s) in sums.iter().enumerate() {
        nl.mark_output(*s, format!("sum{i}"));
    }
    if ports.has_cout() {
        nl.mark_output(carry.expect("width >= 1"), "cout");
    }
    nl
}

/// Rebuild `nl` with the first gate of `kind` replaced by `replacement`.
fn break_netlist(nl: &Netlist, kind: GateKind, replacement: GateKind) -> Netlist {
    let victim = nl
        .nodes()
        .iter()
        .position(|n| n.kind() == kind)
        .expect("victim gate kind present");
    let mut out = Netlist::new();
    let mut remap: Vec<NodeId> = Vec::with_capacity(nl.len());
    for (idx, node) in nl.nodes().iter().enumerate() {
        let k = if idx == victim {
            replacement
        } else {
            node.kind()
        };
        let get = |i: usize| remap[node.inputs()[i].index()];
        let id = match k {
            GateKind::Input => out.input(node.name().unwrap_or("in").to_owned()),
            GateKind::Const0 => out.constant(false),
            GateKind::Const1 => out.constant(true),
            GateKind::Buf => out.buf(get(0)),
            GateKind::Not => out.not(get(0)),
            GateKind::And2 => out.and2(get(0), get(1)),
            GateKind::Or2 => out.or2(get(0), get(1)),
            GateKind::Xor2 => out.xor2(get(0), get(1)),
            GateKind::Nand2 => out.nand2(get(0), get(1)),
            GateKind::Nor2 => out.nor2(get(0), get(1)),
            GateKind::Xnor2 => out.xnor2(get(0), get(1)),
            GateKind::Mux2 => out.mux2(get(0), get(1), get(2)),
            GateKind::Maj3 => out.maj3(get(0), get(1), get(2)),
        };
        remap.push(id);
    }
    for (id, name) in nl.primary_outputs() {
        out.mark_output(remap[id.index()], name.clone());
    }
    out
}

/// Exhaustive netlist-vs-netlist error statistics over every input
/// assignment: `(error_rate, worst_case_abs_error)` with outputs read as
/// unsigned words in output order.
fn exhaustive_netlist_error(approx: &Netlist, exact: &Netlist) -> (f64, u64) {
    let n = approx.num_inputs();
    assert!(n <= 20, "exhaustive sweep limited to 20 inputs");
    let mut sim_a = Simulator::new(approx);
    let mut sim_e = Simulator::new(exact);
    let mut errors = 0u64;
    let mut wce = 0u64;
    let total = 1u64 << n;
    for x in 0..total {
        let inputs: Vec<bool> = (0..n).map(|i| (x >> i) & 1 == 1).collect();
        let oa = sim_a.evaluate(&inputs).expect("approx netlist simulates");
        let oe = sim_e.evaluate(&inputs).expect("exact netlist simulates");
        let word = |bits: &[bool]| {
            bits.iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
        };
        let (va, ve) = (word(&oa), word(&oe));
        if va != ve {
            errors += 1;
        }
        wce = wce.max(va.abs_diff(ve));
    }
    (errors as f64 / total as f64, wce)
}

fn lint_stage(c: &mut Checker) {
    c.note("[1/5] lint: every shipped adder netlist");
    for adder in roster_16() {
        let (nl, _) = adder.netlist();
        let valid = nl.validate().is_ok();
        let report = nl.lint();
        c.check(
            &format!("lint {}", adder.name()),
            valid && report.is_clean(),
            &format!(
                "{} errors, {} warnings",
                report.error_count(),
                report.warning_count()
            ),
        );
    }
}

fn equivalence_stage(c: &mut Checker) {
    c.note("[2/5] equivalence: optimizer exactness + exact-config proofs");
    for adder in roster_16() {
        let (nl, _) = adder.netlist();
        let optimized = optimize::optimize(&nl).netlist;
        let verdict = equiv::prove(&nl, &optimized);
        c.check(
            &format!("optimize({}) preserves function", adder.name()),
            verdict.is_proven(),
            &format!("{} -> {} gates", nl.len(), optimized.len()),
        );
    }
    for adder in exact_roster_16() {
        let (nl, ports) = adder.netlist();
        let reference = exact_reference(&ports);
        let verdict = equiv::prove(&nl, &reference);
        c.check(
            &format!("{} == ripple-carry reference", adder.name()),
            verdict.is_proven(),
            "",
        );
    }
}

fn counterexample_stage(c: &mut Checker) {
    c.note("[3/5] counterexample: a broken 16-bit adder must be caught");
    let (nl, _) = RippleCarryAdder::new(16).netlist();
    let broken = break_netlist(&nl, GateKind::Maj3, GateKind::And2);
    match equiv::prove(&nl, &broken) {
        Equivalence::Counterexample {
            inputs,
            left,
            right,
        } => {
            let got_l = Simulator::new(&nl).evaluate(&inputs).expect("simulates");
            let got_r = Simulator::new(&broken)
                .evaluate(&inputs)
                .expect("simulates");
            let reproduces = got_l == left && got_r == right && left != right;
            c.check(
                "counterexample reproduces in simulation",
                reproduces,
                &format!(
                    "inputs {}",
                    inputs
                        .iter()
                        .map(|&b| if b { '1' } else { '0' })
                        .collect::<String>()
                ),
            );
        }
        other => c.check(
            "broken adder yields counterexample",
            false,
            &format!("got {other:?}"),
        ),
    }
}

fn error_bound_stage(c: &mut Checker) {
    c.note("[4/5] exact error characterization via BDD model counting");
    // Width-8 cross-check: BDD counting vs exhaustive netlist simulation.
    let qcs8 = QcsAdder::new(8, [4, 3, 2, 1]);
    let small: Vec<Box<dyn Adder>> = vec![
        Box::new(LowerZeroAdder::new(8, 3)),
        Box::new(LowerOrAdder::new(8, 3, false)),
        Box::new(EtaIiAdder::new(8, 2)),
        Box::new(GeArAdder::new(8, 2, 2)),
        Box::new(WindowedCarryAdder::new(8, 4)),
        Box::new(qcs8.at(AccuracyLevel::Level1)),
        Box::new(qcs8.at(AccuracyLevel::Level3)),
    ];
    for adder in small {
        let (nl, ports) = adder.netlist();
        let reference = exact_reference(&ports);
        let bound = equiv::error_bound(&nl, &reference).expect("BDD fits");
        let (swept_rate, swept_wce) = exhaustive_netlist_error(&nl, &reference);
        let rate_matches = (bound.error_rate - swept_rate).abs() < 1e-12;
        let wce_matches = bound.max_abs_error == swept_wce;
        c.check(
            &format!("BDD counting == exhaustive sweep for {}", adder.name()),
            rate_matches && wce_matches,
            &format!(
                "ER {:.6} (swept {:.6}), WCE {} (swept {})",
                bound.error_rate, swept_rate, bound.max_abs_error, swept_wce
            ),
        );
    }

    // 32-bit QCS family bound: ring error < 2^(k+1) raw, proven over
    // the full 2^64 operand space by the BDD — no sampling involved.
    // The ring metric is the right one here: a dropped carry wraps the
    // plain |approx − exact| to nearly 2^32, but modulo the word width
    // the damage is only the carry's weight.
    let qcs = QcsAdder::paper_default();
    for level in AccuracyLevel::ALL {
        let mode = qcs.at(level);
        let (nl, ports) = mode.netlist();
        let reference = exact_reference(&ports);
        let bound = equiv::error_bound(&nl, &reference).expect("BDD fits");
        let k = qcs.approx_bits(level);
        let family = if k == 0 { 0 } else { 1u64 << (k + 1) };
        let ok = if k == 0 {
            bound.is_exact()
        } else {
            bound.max_ring_error < family
        };
        c.check(
            &format!("qcs32 {level}: ring WCE within family bound"),
            ok,
            &format!(
                "ring WCE {} (bound {}), ER {:.4}",
                bound.max_ring_error, family, bound.error_rate
            ),
        );
    }
}

fn range_stage(c: &mut Checker) {
    c.note("[5/5] static range analysis of the benchmark datapaths");
    let mut ctx = QcsContext::with_paper_defaults();

    // Build the three workload models at benchmark scale.
    let mut a = approx_linalg::Matrix::zeros(10, 10);
    for i in 0..10 {
        a[(i, i)] = 4.0;
        if i + 1 < 10 {
            a[(i, i + 1)] = -1.0;
            a[(i + 1, i)] = -1.0;
        }
    }
    let b: Vec<f64> = (0..10).map(|i| 1.0 + i as f64 * 0.5).collect();
    let cg = ConjugateGradient::new(a, b, 1e-12, 100);
    let cg_model = cg_range_model(&cg, &CgRangeSpec::default());

    let series = datasets::ar_series("verify", 400, &[0.6, 0.2], 1.0, 3);
    let ar = AutoRegression::from_series(&series, 0.5, 1e-10, 500);
    let ar_model = ar_range_model(&ar, &ArRangeSpec::default());

    let blobs = datasets::gaussian_blobs(
        "verify",
        &[30, 30],
        &[vec![0.0, 0.0], vec![6.0, 6.0]],
        &[0.6, 0.6],
        1,
    );
    let gmm = GaussianMixture::from_dataset(&blobs, 1e-9, 100, 7);
    let gmm_model = gmm_range_model(&gmm, &GmmRangeSpec::default());

    // In accurate mode all three datapaths must be proven overflow-free
    // for the paper's Q15.16 format; per-level verdicts are reported.
    for model in [&cg_model, &ar_model, &gmm_model] {
        for level in AccuracyLevel::ALL {
            ctx.set_level(level);
            let config = ctx.range_config().expect("QCS context models hardware");
            let report = model.analyze(&config);
            if level == AccuracyLevel::Accurate {
                c.check(
                    &format!("{} proven at {level}", model.name()),
                    report.proven(),
                    &report.verdict.to_string(),
                );
            } else {
                c.note(&format!(
                    "       {} @ {level}: {}",
                    model.name(),
                    report.verdict
                ));
            }
        }
    }

    // The proof travels with the run report.
    ctx.set_level(AccuracyLevel::Accurate);
    ctx.reset_counters();
    let config = ctx.range_config().expect("QCS context models hardware");
    let summary = RangeProofSummary::from_model(&cg_model, &config);
    let mut strategy = SingleMode::new(AccuracyLevel::Accurate);
    let mut outcome = RunConfig::new(&cg, &mut ctx).execute(&mut strategy);
    outcome.report.range_proof = Some(summary);
    let json = outcome.report.to_json();
    c.check(
        "RunReport carries the range proof",
        json.contains("\"range_proof\":{\"proven\":true")
            && outcome.report.to_string().contains("range: proven"),
        &format!("{} iterations, verdict attached", outcome.report.iterations),
    );
}

fn main() -> ExitCode {
    let opts = BenchOpts::parse_for("verify", &[], &[]);
    opts.say("verify: BDD equivalence proofs, netlist lint, static range analysis");
    let mut c = Checker::new(opts.quiet);
    lint_stage(&mut c);
    equivalence_stage(&mut c);
    counterexample_stage(&mut c);
    error_bound_stage(&mut c);
    range_stage(&mut c);
    c.finish("verify", &opts)
}
