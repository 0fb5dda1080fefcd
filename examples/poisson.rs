//! Solving a Poisson boundary-value problem on the approximate datapath
//! — the PDE workload the paper's introduction motivates ("the
//! iterative-based finite difference … methods … to tackle partial
//! differential equations").
//!
//! ```sh
//! cargo run -p approxit --example poisson --release
//! ```

use approxit::prelude::*;
use iter_solvers::datasets::PoissonSource;
use iter_solvers::{ConjugateGradient, Jacobi};

/// Render the field as an ASCII heatmap.
fn heatmap(u: &[f64], n: usize) -> String {
    const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let max = u.iter().fold(1e-12f64, |m, &v| m.max(v.abs()));
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let t = (u[i * n + j].abs() / max * 9.0).round() as usize;
                    SHADES[t.min(9)]
                })
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let n = 23;
    let source = PoissonSource::Sine { amplitude: 8.0 };
    // The 5-point stencil as a CsrMatrix: any LinearOperator — dense,
    // sparse, or matrix-free — plugs into the same solvers and the same
    // controller.
    let a = CsrMatrix::poisson5(n, n);
    let b = source.rhs(n);
    let pde = Jacobi::new(a.clone(), b.clone(), 0.9, 1e-7, 5000);
    let profile = EnergyProfile::paper_default();
    let table = characterize(&pde, &profile, 5);
    let mut ctx = QcsContext::with_profile(profile);

    let truth = RunConfig::new(&pde, &mut ctx).execute(&mut SingleMode::accurate());
    println!(
        "Truth: {} Jacobi sweeps on a {n}x{n} grid",
        truth.report.iterations
    );
    println!("{}\n", heatmap(&truth.state, n));

    // Level 1's truncation quantum exceeds the field scale entirely: the
    // field never leaves zero (the PDE analogue of the paper's broken
    // level-1 clustering).
    let broken =
        RunConfig::new(&pde, &mut ctx).execute(&mut SingleMode::new(AccuracyLevel::Level1));
    println!(
        "level1 single mode: froze after {} sweeps, field peak {:.3}:",
        broken.report.iterations,
        broken.state.iter().cloned().fold(0.0f64, f64::max),
    );
    println!("{}\n", heatmap(&broken.state, n));

    // ApproxIt recovers the field at reduced energy.
    let mut strategy = AdaptiveAngleStrategy::from_characterization(&table, 1);
    let scaled = RunConfig::new(&pde, &mut ctx).execute(&mut strategy);
    let deviation = scaled
        .state
        .iter()
        .zip(&truth.state)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "ApproxIt adaptive: {} sweeps (steps {:?}), max deviation from Truth {:.2e}, energy {:.1}%",
        scaled.report.iterations,
        scaled.report.steps_per_level,
        deviation,
        100.0 * scaled.report.normalized_energy(&truth.report),
    );
    println!("{}", heatmap(&scaled.state, n));

    // Report against the analytic solution too.
    let analytic = source
        .analytic_solution(n)
        .expect("sine source has a closed form");
    let disc_err = truth
        .state
        .iter()
        .zip(&analytic)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\n(discretization error of Truth vs analytic solution: {disc_err:.3})");

    // The same system handed to CG instead of Jacobi.
    let cg = ConjugateGradient::new(a, b, 1e-10, 400);
    let sparse = RunConfig::new(&cg, &mut ctx).execute(&mut SingleMode::accurate());
    let cg_dev = sparse
        .state
        .x
        .iter()
        .zip(&truth.state)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "sparse CG on the CsrMatrix stencil: {} iterations, max deviation from Jacobi Truth {:.2e}",
        sparse.report.iterations, cg_dev
    );
}
