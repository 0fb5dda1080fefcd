//! The experiment loop every exhibit shares: run Truth, run each
//! strategy on the same context, and score each run against Truth.

use approx_arith::QcsContext;
use approxit::{ReconfigStrategy, RunConfig, RunOutcome, SingleMode};
use iter_solvers::IterativeMethod;

/// One run scored against the Truth run of the same method.
#[derive(Debug, Clone)]
pub struct Scored<S> {
    /// The name the run is reported under (`truth` for the baseline).
    pub name: String,
    /// The run's final state and report.
    pub outcome: RunOutcome<S>,
    /// Quality evaluation metric of the final state against Truth's.
    pub qem: f64,
    /// Approximate-part energy normalized to Truth's.
    pub energy: f64,
}

/// Run Truth ([`SingleMode::accurate`]) on `ctx`, then each named
/// strategy on the same context, and score every run against Truth:
/// `qem(state, truth_state)` on the final states, and energy as a ratio
/// of Truth's. The first entry is Truth itself, named `truth`; the
/// strategies follow in the order given.
#[must_use]
pub fn against_truth<M, Q>(
    method: &M,
    ctx: &mut QcsContext,
    strategies: Vec<(String, Box<dyn ReconfigStrategy>)>,
    qem: Q,
) -> Vec<Scored<M::State>>
where
    M: IterativeMethod,
    Q: Fn(&M::State, &M::State) -> f64,
{
    let truth = RunConfig::new(method, ctx).execute(&mut SingleMode::accurate());
    let score = |name, outcome: RunOutcome<M::State>| Scored {
        name,
        qem: qem(&outcome.state, &truth.state),
        energy: outcome.report.normalized_energy(&truth.report),
        outcome,
    };
    let mut runs = vec![score("truth".to_owned(), truth.clone())];
    for (name, mut strategy) in strategies {
        let outcome = RunConfig::new(method, ctx).execute(strategy.as_mut());
        runs.push(score(name, outcome));
    }
    runs
}
