//! Plugging a *custom* iterative method into ApproxIt: a logistic
//! regression trained by gradient descent, defined entirely in this
//! example. Everything the framework needs is the `IterativeMethod`
//! implementation — quality estimation, effort scaling, and energy
//! metering come for free.
//!
//! ```sh
//! cargo run -p approxit --example custom_method --release
//! ```

use approxit::prelude::*;
use iter_solvers::rng::Pcg32;

/// ℓ2-regularized logistic regression trained by full-batch gradient
/// descent, with the gradient accumulation on the approximate datapath.
struct LogisticRegression {
    features: Vec<Vec<f64>>,
    labels: Vec<f64>, // ±1
    step_size: f64,
    ridge: f64,
    tolerance: f64,
    max_iterations: usize,
}

impl LogisticRegression {
    fn synthetic(n: usize, seed: u64) -> Self {
        // Two Gaussian classes separated along (1, 1).
        let mut rng = Pcg32::seeded(seed, 0);
        let mut features = Vec::with_capacity(2 * n);
        let mut labels = Vec::with_capacity(2 * n);
        for sign in [-1.0, 1.0] {
            for _ in 0..n {
                features.push(vec![
                    rng.gaussian(sign * 1.2, 1.0),
                    rng.gaussian(sign * 0.8, 1.0),
                    1.0, // bias feature
                ]);
                labels.push(sign);
            }
        }
        Self {
            features,
            labels,
            step_size: 0.5,
            ridge: 1e-3,
            tolerance: 1e-9,
            max_iterations: 2000,
        }
    }

    fn accuracy(&self, w: &[f64]) -> f64 {
        let correct = self
            .features
            .iter()
            .zip(&self.labels)
            .filter(|(x, &y)| {
                let score: f64 = x.iter().zip(w).map(|(&xi, &wi)| xi * wi).sum();
                score * y > 0.0
            })
            .count();
        correct as f64 / self.labels.len() as f64
    }
}

impl IterativeMethod for LogisticRegression {
    type State = Vec<f64>;

    fn name(&self) -> &str {
        "logistic-regression"
    }

    fn initial_state(&self) -> Vec<f64> {
        vec![0.0; 3]
    }

    fn step(&self, w: &Vec<f64>, ctx: &mut dyn ArithContext) -> Vec<f64> {
        let n = self.labels.len() as f64;
        // Gradient accumulation on the (possibly approximate) fabric.
        let mut acc = vec![0.0; w.len()];
        for (x, &y) in self.features.iter().zip(&self.labels) {
            let margin = ctx.dot_slice(x, w);
            // The sigmoid is transcendental — error-sensitive, exact.
            let coeff = y / (1.0 + (y * margin).exp());
            for (a, &xi) in acc.iter_mut().zip(x) {
                let contrib = ctx.mul(coeff, xi);
                *a = ctx.add(*a, contrib);
            }
        }
        // w' = (1 − α·ridge)·w + (α/n)·acc
        let shrink = 1.0 - self.step_size * self.ridge;
        w.iter()
            .zip(&acc)
            .map(|(&wi, &ai)| {
                let kept = ctx.mul(shrink, wi);
                let push = ctx.mul(self.step_size / n, ai);
                ctx.add(kept, push)
            })
            .collect()
    }

    fn objective(&self, w: &Vec<f64>) -> f64 {
        let n = self.labels.len() as f64;
        let loss: f64 = self
            .features
            .iter()
            .zip(&self.labels)
            .map(|(x, &y)| {
                let margin: f64 = x.iter().zip(w).map(|(&xi, &wi)| xi * wi).sum();
                (1.0 + (-y * margin).exp()).ln()
            })
            .sum::<f64>()
            / n;
        let reg: f64 = 0.5 * self.ridge * w.iter().map(|wi| wi * wi).sum::<f64>();
        loss + reg
    }

    fn gradient(&self, w: &Vec<f64>) -> Option<Vec<f64>> {
        let n = self.labels.len() as f64;
        let mut g = vec![0.0; w.len()];
        for (x, &y) in self.features.iter().zip(&self.labels) {
            let margin: f64 = x.iter().zip(w).map(|(&xi, &wi)| xi * wi).sum();
            let coeff = -y / (1.0 + (y * margin).exp());
            for (gi, &xi) in g.iter_mut().zip(x) {
                *gi += coeff * xi / n;
            }
        }
        for (gi, &wi) in g.iter_mut().zip(w) {
            *gi += self.ridge * wi;
        }
        Some(g)
    }

    fn params(&self, w: &Vec<f64>) -> Vec<f64> {
        w.clone()
    }

    fn converged(&self, prev: &Vec<f64>, next: &Vec<f64>) -> bool {
        prev.iter()
            .zip(next)
            .all(|(&a, &b)| (a - b).abs() < self.tolerance)
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }
}

fn main() {
    let model = LogisticRegression::synthetic(400, 7);
    let profile = EnergyProfile::paper_default();
    let table = characterize(&model, &profile, 5);
    let mut ctx = QcsContext::with_profile(profile);

    let truth = RunConfig::new(&model, &mut ctx).execute(&mut SingleMode::accurate());
    println!(
        "Truth: {} iterations, loss {:.5}, train accuracy {:.1}%",
        truth.report.iterations,
        truth.report.final_objective,
        100.0 * model.accuracy(&truth.state),
    );

    let mut strategy = AdaptiveAngleStrategy::from_characterization(&table, 1);
    let scaled = RunConfig::new(&model, &mut ctx).execute(&mut strategy);
    println!(
        "ApproxIt adaptive: {} iterations (steps {:?}), loss {:.5}, accuracy {:.1}%",
        scaled.report.iterations,
        scaled.report.steps_per_level,
        scaled.report.final_objective,
        100.0 * model.accuracy(&scaled.state),
    );
    println!(
        "energy vs Truth: {:.1}%",
        100.0 * scaled.report.normalized_energy(&truth.report),
    );
}
