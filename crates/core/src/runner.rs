//! The online reconfiguration controller: drives any
//! [`IterativeMethod`] under a [`ReconfigStrategy`] with full telemetry.

use std::collections::VecDeque;

use approx_arith::{AccuracyLevel, ArithContext};
use approx_linalg::vector;
use iter_solvers::IterativeMethod;

use crate::report::RunReport;
use crate::strategy::{Decision, IterationObservation, ReconfigStrategy};
use crate::watchdog::{RecoveryTelemetry, WatchdogConfig};

/// A committed state snapshot the watchdog can restore after a hard
/// failure.
struct Checkpoint<S> {
    state: S,
    objective: f64,
    params: Vec<f64>,
    gradient: Option<Vec<f64>>,
}

/// Result of a run: the final state plus its report.
#[derive(Debug, Clone)]
pub struct RunOutcome<S> {
    /// The final iterate.
    pub state: S,
    /// Telemetry of the run.
    pub report: RunReport,
}

/// Builder configuring one controller run — the single entry point for
/// driving a method under a reconfiguration strategy.
///
/// # Example
///
/// ```
/// use approxit::{RunConfig, SingleMode, WatchdogConfig};
/// use approx_arith::{EnergyProfile, QcsContext};
/// use iter_solvers::datasets::gaussian_blobs;
/// use iter_solvers::GaussianMixture;
///
/// let data = gaussian_blobs("demo", &[30, 30],
///     &[vec![0.0, 0.0], vec![6.0, 6.0]], &[0.7, 0.7], 1);
/// let gmm = GaussianMixture::from_dataset(&data, 1e-8, 100, 3);
/// let mut ctx = QcsContext::with_profile(EnergyProfile::from_constants(
///     [1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0));
///
/// let outcome = RunConfig::new(&gmm, &mut ctx)
///     .with_watchdog(WatchdogConfig::resilient())
///     .with_checkpoint_every(3)
///     .execute(&mut SingleMode::accurate());
/// assert!(outcome.report.converged);
/// ```
#[derive(Debug)]
pub struct RunConfig<'a, M, C> {
    method: &'a M,
    ctx: &'a mut C,
    watchdog: WatchdogConfig,
}

impl<'a, M: IterativeMethod, C: ArithContext> RunConfig<'a, M, C> {
    /// Configure a run of `method` on the datapath `ctx`, with the
    /// default (guards-only) watchdog.
    #[must_use]
    pub fn new(method: &'a M, ctx: &'a mut C) -> Self {
        Self {
            method,
            ctx,
            watchdog: WatchdogConfig::default(),
        }
    }

    /// Replace the watchdog configuration (see [`crate::watchdog`]).
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Take a recovery checkpoint every `k` committed iterations
    /// (0 disables checkpointing). Adjusts the current watchdog
    /// configuration, so order it after [`with_watchdog`](Self::with_watchdog).
    #[must_use]
    pub fn with_checkpoint_every(mut self, k: usize) -> Self {
        self.watchdog.checkpoint_interval = k;
        self
    }

    /// Stop after at most `iterations`, even if the method's own
    /// `MAX_ITER` is larger — the per-request deadline of the solver
    /// service. Adjusts the current watchdog configuration, so order it
    /// after [`with_watchdog`](Self::with_watchdog).
    #[must_use]
    pub fn with_deadline(mut self, iterations: usize) -> Self {
        self.watchdog.iteration_budget = Some(iterations);
        self
    }

    /// Drive the method to convergence (or `MAX_ITER`) under `strategy`.
    ///
    /// Control flow per iteration (paper Figure 1's online stage):
    ///
    /// 1. run one step at the current level, metering its energy;
    /// 2. compute the exact monitoring quantities (objective, parameters,
    ///    gradient) in plain `f64`. They are not free: AR's monitors
    ///    re-form every residual, CG's read the `A·x` its state carries
    ///    (DESIGN.md §15, "The exact plane");
    /// 3. check the method's own convergence criterion. A converged iterate
    ///    is accepted if the final step did not increase the objective *and*
    ///    the strategy’s [`ReconfigStrategy::convergence_veto`] allows it — the veto is how a
    ///    reconfiguration strategy rejects being "falsely stopped" at an
    ///    approximate level (single-mode baselines never veto and stop like
    ///    raw hardware would). A vetoed or ascending freeze falls through to
    ///    reconfiguration;
    /// 4. otherwise ask the strategy for a decision:
    ///    * `Keep` — commit the iterate;
    ///    * `SwitchTo` — commit the iterate and reconfigure;
    ///    * `RollbackAndSwitch` — discard the iterate, restore `xᵏ⁻¹`, and
    ///      reconfigure (the function scheme's recovery; the discarded
    ///      iteration's energy remains charged, as it would be in
    ///      hardware).
    ///
    /// The watchdog inspects every candidate iterate *before* the normal
    /// convergence/strategy flow. A hard failure — non-finite or overflowing
    /// objective/parameters, or an objective that rose for the configured
    /// number of consecutive iterations — discards the iterate, restores the
    /// most recent checkpoint if one exists, and counts as a rollback for
    /// the escalation policy. After the configured number of consecutive
    /// rollbacks (from the strategy or the watchdog), the accuracy level is
    /// forced one step toward exact and becomes a floor the strategy cannot
    /// go below. With [`WatchdogConfig::default`] (NaN/Inf guards only), a
    /// fault-free run is bit-identical to an unguarded loop, and discarded
    /// iterations' energy remains charged, as it would be in hardware.
    ///
    /// The context's counters are reset at the start so the report reflects
    /// this run only; the context's level is managed by the runner. The
    /// context is any [`ArithContext`] — the [`approx_arith::QcsContext`]
    /// hardware model in normal use, or a decorated one (e.g.
    /// [`approx_arith::FaultInjector`]) for failure-injection studies.
    pub fn execute(self, strategy: &mut dyn ReconfigStrategy) -> RunOutcome<M::State> {
        run_loop(self.method, strategy, self.ctx, &self.watchdog)
    }
}

/// The controller loop backing [`RunConfig::execute`].
fn run_loop<M: IterativeMethod, C: ArithContext>(
    method: &M,
    strategy: &mut dyn ReconfigStrategy,
    ctx: &mut C,
    watchdog: &WatchdogConfig,
) -> RunOutcome<M::State> {
    ctx.reset_counters();
    ctx.set_level(strategy.initial_level());

    let mut state = method.initial_state();
    let mut objective_prev = method.objective(&state);
    let mut params_prev = method.params(&state);
    let mut gradient_prev = method.gradient(&state);
    let initial_gradient_norm = gradient_prev.as_deref().map_or(0.0, vector::norm2_exact);

    let mut steps_per_level = [0usize; 5];
    let mut rollbacks = 0usize;
    let mut energy_per_iteration = Vec::new();
    let mut level_schedule = Vec::new();
    let mut converged = false;
    let mut iterations = 0usize;

    let mut recovery = RecoveryTelemetry::default();
    let mut checkpoints: VecDeque<Checkpoint<M::State>> = VecDeque::new();
    let mut rising_streak = 0usize;
    let mut consecutive_rollbacks = 0usize;
    let mut committed_since_checkpoint = 0usize;
    // Escalation ratchet: the strategy may not select a level below this.
    let mut level_floor = 0usize;

    let clamp_to_floor = |level: AccuracyLevel, floor: usize| -> AccuracyLevel {
        if level.index() < floor {
            // The floor only ever ratchets along the ladder; fail safe
            // to the dependable mode rather than aborting a request.
            AccuracyLevel::from_index(floor).unwrap_or(AccuracyLevel::Accurate)
        } else {
            level
        }
    };

    // The effective iteration budget: the method's own MAX_ITER, capped
    // by the watchdog's deadline when one is set.
    let budget = watchdog
        .iteration_budget
        .map_or(method.max_iterations(), |b| b.min(method.max_iterations()));

    while iterations < budget {
        let level = ctx.level();
        let energy_before = ctx.approx_energy();
        // The controller *measures* the approximate iterate to decide
        // its fate — this is the one sanctioned exact/approx crossing
        // in the runner, made explicit for the taint audit.
        let next = crate::quality::endorse(method.step(&state, ctx));
        iterations += 1;
        steps_per_level[level.index()] += 1;
        energy_per_iteration.push(ctx.approx_energy() - energy_before);
        level_schedule.push(level);

        let objective_curr = method.objective(&next);
        let params_curr = method.params(&next);

        // --- Watchdog: guards and divergence detection -----------------
        let non_finite = watchdog.guard_non_finite
            && (!objective_curr.is_finite() || params_curr.iter().any(|p| !p.is_finite()));
        let overflow = !non_finite
            && watchdog.overflow_threshold.is_some_and(|bound| {
                objective_curr.abs() > bound || params_curr.iter().any(|p| p.abs() > bound)
            });
        let mut diverging = false;
        if let Some(window) = watchdog.divergence_window {
            if !non_finite && !overflow {
                if objective_curr > objective_prev {
                    rising_streak += 1;
                } else {
                    rising_streak = 0;
                }
                diverging = rising_streak >= window;
            }
        }

        if non_finite || overflow || diverging {
            if diverging {
                recovery.divergence_trips += 1;
            } else {
                recovery.guard_trips += 1;
            }
            rising_streak = 0;
            // Hard failure: discard the iterate. Restore the most recent
            // checkpoint when one exists; otherwise xᵏ⁻¹ stands.
            if let Some(cp) = checkpoints.pop_back() {
                state = cp.state;
                objective_prev = cp.objective;
                params_prev = cp.params;
                gradient_prev = cp.gradient;
                recovery.restores += 1;
            }
            rollbacks += 1;
            consecutive_rollbacks += 1;
            if watchdog
                .escalation_threshold
                .is_some_and(|r| consecutive_rollbacks >= r)
            {
                if let Some(higher) = ctx.level().next_higher() {
                    level_floor = level_floor.max(higher.index());
                    ctx.set_level(higher);
                    recovery.escalations += 1;
                }
                consecutive_rollbacks = 0;
            }
            continue;
        }

        let gradient_curr = method.gradient(&next);

        let observation = IterationObservation {
            iteration: iterations,
            level,
            objective_prev,
            objective_curr,
            params_prev: &params_prev,
            params_curr: &params_curr,
            gradient_prev: gradient_prev.as_deref(),
            gradient_curr: gradient_curr.as_deref(),
            initial_gradient_norm,
        };

        let decision = if method.converged(&state, &next) && objective_curr <= objective_prev {
            match strategy.convergence_veto(&observation) {
                None => {
                    state = next;
                    converged = true;
                    break;
                }
                Some(veto) => veto,
            }
        } else {
            strategy.decide(&observation)
        };

        let mut committed = false;
        match decision {
            Decision::Keep => {
                state = next;
                objective_prev = objective_curr;
                params_prev = params_curr;
                gradient_prev = gradient_curr;
                committed = true;
            }
            Decision::SwitchTo(new_level) => {
                ctx.set_level(clamp_to_floor(new_level, level_floor));
                state = next;
                objective_prev = objective_curr;
                params_prev = params_curr;
                gradient_prev = gradient_curr;
                committed = true;
            }
            Decision::RollbackAndSwitch(new_level) => {
                ctx.set_level(clamp_to_floor(new_level, level_floor));
                rollbacks += 1;
                consecutive_rollbacks += 1;
                if watchdog
                    .escalation_threshold
                    .is_some_and(|r| consecutive_rollbacks >= r)
                {
                    if let Some(higher) = ctx.level().next_higher() {
                        level_floor = level_floor.max(higher.index());
                        ctx.set_level(higher);
                        recovery.escalations += 1;
                    }
                    consecutive_rollbacks = 0;
                }
                // `state`, `objective_prev`, `params_prev`,
                // `gradient_prev` all stay at xᵏ⁻¹.
            }
        }

        if committed {
            consecutive_rollbacks = 0;
            committed_since_checkpoint += 1;
            if watchdog.checkpoint_interval > 0
                && watchdog.checkpoint_capacity > 0
                && committed_since_checkpoint >= watchdog.checkpoint_interval
            {
                if checkpoints.len() >= watchdog.checkpoint_capacity {
                    checkpoints.pop_front();
                    recovery.checkpoints_evicted += 1;
                }
                checkpoints.push_back(Checkpoint {
                    state: state.clone(),
                    objective: objective_prev,
                    params: params_prev.clone(),
                    gradient: gradient_prev.clone(),
                });
                recovery.checkpoints_taken += 1;
                committed_since_checkpoint = 0;
            }
        }
    }

    let report = RunReport {
        method: method.name().to_owned(),
        strategy: strategy.name().to_owned(),
        iterations,
        converged,
        steps_per_level,
        rollbacks,
        approx_energy: ctx.approx_energy(),
        total_energy: ctx.total_energy(),
        energy_per_iteration,
        level_schedule,
        final_objective: method.objective(&state),
        op_counts: ctx.counts(),
        attempts: 1,
        outcome: crate::report::Outcome::classify_run(converged, &recovery),
        recovery,
        range_proof: None,
    };
    RunOutcome { state, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveAngleStrategy;
    use crate::characterize::characterize;
    use crate::incremental::IncrementalStrategy;
    use crate::strategy::SingleMode;
    use approx_arith::{AccuracyLevel, EnergyProfile, QcsContext};
    use iter_solvers::datasets::gaussian_blobs;
    use iter_solvers::metrics::hamming_distance;
    use iter_solvers::GaussianMixture;

    fn profile() -> EnergyProfile {
        EnergyProfile::from_constants([1.0, 2.0, 3.0, 4.0, 5.0], 50.0, 100.0)
    }

    /// Moderately separated clusters: EM needs ~45 iterations, giving
    /// effort scaling room to act while the ground truth stays
    /// recoverable.
    fn data() -> iter_solvers::datasets::ClusterDataset {
        gaussian_blobs(
            "runner",
            &[70, 70, 70],
            &[vec![0.0, 0.0], vec![4.8, 0.8], vec![1.8, 4.4]],
            &[1.1, 1.1, 1.1],
            23,
        )
    }

    #[test]
    fn truth_run_converges_at_accurate() {
        let d = data();
        let gmm = GaussianMixture::from_dataset(&d, 1e-7, 500, 7);
        let mut ctx = QcsContext::with_profile(profile());
        let outcome = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
        assert!(outcome.report.converged);
        assert_eq!(
            outcome.report.steps_at(AccuracyLevel::Accurate),
            outcome.report.iterations
        );
        assert_eq!(outcome.report.rollbacks, 0);
        // The clusters overlap, so ground-truth labels are not exactly
        // recoverable — but a converged fit must be far better than
        // chance.
        let qem = hamming_distance(&gmm.assignments(&outcome.state), &d.labels, 3);
        assert!(qem < d.points.len() / 4, "truth qem {qem}");
    }

    #[test]
    fn single_mode_level1_is_cheap_and_wrong() {
        let d = data();
        let gmm = GaussianMixture::from_dataset(&d, 1e-7, 500, 7);
        let mut ctx = QcsContext::with_profile(profile());
        let truth = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
        let l1 =
            RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::new(AccuracyLevel::Level1));
        // Cheap per iteration...
        assert!(l1.report.energy_per_iteration_mean() < truth.report.energy_per_iteration_mean());
        // ...but a degraded clustering.
        let qem = hamming_distance(&gmm.assignments(&l1.state), &d.labels, 3);
        assert!(qem > 0, "level1 accidentally produced a perfect result");
    }

    #[test]
    fn incremental_reaches_truth_quality() {
        let d = data();
        let gmm = GaussianMixture::from_dataset(&d, 1e-7, 500, 7);
        let table = characterize(&gmm, &profile(), 5);
        let mut ctx = QcsContext::with_profile(profile());
        let truth = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
        let truth_labels = gmm.assignments(&truth.state);
        let mut strategy = IncrementalStrategy::from_characterization(&table);
        let outcome = RunConfig::new(&gmm, &mut ctx).execute(&mut strategy);
        assert!(outcome.report.converged, "incremental did not converge");
        // The paper's quality guarantee: reconfiguration matches the
        // Truth run's output (zero Hamming distance against it).
        let qem = hamming_distance(&gmm.assignments(&outcome.state), &truth_labels, 3);
        assert_eq!(qem, 0, "incremental must match Truth quality");
        // Energy stays in Truth's ballpark on this fast-converging
        // dataset (the savings headline is measured on the full
        // benchmark datasets); it must never blow up like single-mode
        // over-approximation does.
        assert!(
            outcome.report.normalized_energy(&truth.report) < 1.2,
            "energy blow-up: {}",
            outcome.report.normalized_energy(&truth.report)
        );
        // The level schedule must be monotone (incremental never lowers
        // accuracy).
        for w in outcome.report.level_schedule.windows(2) {
            assert!(w[0] <= w[1], "incremental lowered accuracy");
        }
    }

    #[test]
    fn adaptive_reaches_truth_quality() {
        let d = data();
        let gmm = GaussianMixture::from_dataset(&d, 1e-7, 500, 7);
        let table = characterize(&gmm, &profile(), 5);
        let mut ctx = QcsContext::with_profile(profile());
        let truth = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
        let truth_labels = gmm.assignments(&truth.state);
        let mut strategy = AdaptiveAngleStrategy::from_characterization(&table, 1);
        let outcome = RunConfig::new(&gmm, &mut ctx).execute(&mut strategy);
        assert!(outcome.report.converged, "adaptive did not converge");
        let qem = hamming_distance(&gmm.assignments(&outcome.state), &truth_labels, 3);
        assert_eq!(qem, 0, "adaptive must match Truth quality");
        assert!(outcome.report.normalized_energy(&truth.report) < 1.3);
    }

    #[test]
    fn strategies_save_energy_on_slow_workloads() {
        // Heavily overlapping clusters: EM converges slowly, so the
        // cheap mid-run phases dominate and both strategies beat Truth.
        let d = gaussian_blobs(
            "slow",
            &[70, 70, 70],
            &[vec![0.0, 0.0], vec![3.6, 0.6], vec![1.4, 3.2]],
            &[1.2, 1.2, 1.2],
            23,
        );
        let gmm = GaussianMixture::from_dataset(&d, 1e-7, 500, 7);
        let table = characterize(&gmm, &profile(), 5);
        let mut ctx = QcsContext::with_profile(profile());
        let truth = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
        let truth_labels = gmm.assignments(&truth.state);
        for (name, strategy) in [
            (
                "incremental",
                &mut IncrementalStrategy::from_characterization(&table)
                    as &mut dyn crate::strategy::ReconfigStrategy,
            ),
            (
                "adaptive",
                &mut AdaptiveAngleStrategy::from_characterization(&table, 1),
            ),
        ] {
            let outcome = RunConfig::new(&gmm, &mut ctx).execute(strategy);
            assert!(outcome.report.converged, "{name} did not converge");
            let qem = hamming_distance(&gmm.assignments(&outcome.state), &truth_labels, 3);
            assert_eq!(qem, 0, "{name} must match Truth quality");
            let energy = outcome.report.normalized_energy(&truth.report);
            assert!(energy < 1.0, "{name} saved no energy: {energy}");
        }
    }

    #[test]
    fn report_accounting_is_consistent() {
        let d = data();
        let gmm = GaussianMixture::from_dataset(&d, 1e-7, 500, 7);
        let mut ctx = QcsContext::with_profile(profile());
        let outcome = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
        let r = &outcome.report;
        assert_eq!(r.total_steps(), r.iterations);
        assert_eq!(r.energy_per_iteration.len(), r.iterations);
        assert_eq!(r.level_schedule.len(), r.iterations);
        let energy_sum: f64 = r.energy_per_iteration.iter().sum();
        assert!((energy_sum - r.approx_energy).abs() < 1e-6 * r.approx_energy);
    }

    #[test]
    fn clean_runs_are_identical_with_and_without_the_watchdog() {
        let d = data();
        let gmm = GaussianMixture::from_dataset(&d, 1e-7, 500, 7);
        let mut ctx = QcsContext::with_profile(profile());
        let plain = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
        let guarded = RunConfig::new(&gmm, &mut ctx)
            .with_watchdog(WatchdogConfig::resilient())
            .execute(&mut SingleMode::accurate());
        // Same trajectory: the watchdog only takes checkpoints.
        assert_eq!(plain.report.iterations, guarded.report.iterations);
        assert_eq!(plain.report.level_schedule, guarded.report.level_schedule);
        assert_eq!(plain.report.final_objective, guarded.report.final_objective);
        assert_eq!(plain.report.rollbacks, guarded.report.rollbacks);
        assert!(!plain.report.recovery.any());
        assert!(guarded.report.recovery.checkpoints_taken > 0);
        assert_eq!(guarded.report.recovery.guard_trips, 0);
        assert_eq!(guarded.report.recovery.restores, 0);
        assert_eq!(guarded.report.recovery.escalations, 0);
    }

    /// A deliberately sabotaged method: descends cleanly for a while,
    /// then every step at an approximate level corrupts the state so the
    /// objective explodes — only the watchdog can recover it.
    struct Sabotaged {
        explode_after: usize,
        max_iterations: usize,
    }

    impl iter_solvers::IterativeMethod for Sabotaged {
        type State = (usize, f64);

        fn name(&self) -> &str {
            "sabotaged"
        }

        fn initial_state(&self) -> Self::State {
            (0, 100.0)
        }

        fn step(
            &self,
            state: &Self::State,
            ctx: &mut dyn approx_arith::ArithContext,
        ) -> Self::State {
            let (k, x) = *state;
            let accurate = ctx.level().is_accurate();
            let next = ctx.mul(x, 0.5);
            if k + 1 > self.explode_after && !accurate {
                // Fault-like corruption: the iterate leaves the basin.
                (k + 1, f64::NAN)
            } else {
                (k + 1, next)
            }
        }

        fn objective(&self, state: &Self::State) -> f64 {
            state.1.abs()
        }

        fn params(&self, state: &Self::State) -> Vec<f64> {
            vec![state.1]
        }

        fn converged(&self, prev: &Self::State, next: &Self::State) -> bool {
            (prev.1 - next.1).abs() < 1e-6 && next.1.is_finite()
        }

        fn max_iterations(&self) -> usize {
            self.max_iterations
        }
    }

    #[test]
    fn watchdog_restores_checkpoints_and_escalates_out_of_a_hard_failure() {
        let method = Sabotaged {
            explode_after: 12,
            max_iterations: 200,
        };
        let mut ctx = QcsContext::with_profile(profile());
        let config = WatchdogConfig {
            checkpoint_interval: 2,
            escalation_threshold: Some(2),
            ..WatchdogConfig::resilient()
        };
        let outcome = RunConfig::new(&method, &mut ctx)
            .with_watchdog(config)
            .execute(&mut SingleMode::new(AccuracyLevel::Level2));
        let r = &outcome.report.recovery;
        assert!(r.guard_trips > 0, "NaN guard never fired");
        assert!(r.checkpoints_taken > 0, "no checkpoints were taken");
        assert!(r.restores > 0, "hard failure did not restore");
        assert!(r.escalations > 0, "escalation never fired");
        // Escalation ratchets to Accurate, where steps are clean again —
        // the run must converge to the true fixed point.
        assert!(outcome.report.converged, "watchdog failed to rescue");
        assert!(outcome.state.1.is_finite());
        assert!(outcome.report.final_objective < 1e-3);
        // Recovery shows up in the committed level schedule too.
        assert!(outcome
            .report
            .level_schedule
            .iter()
            .any(|l| l.is_accurate()));
    }

    #[test]
    fn deadline_caps_iterations_and_classifies_failed() {
        let d = data();
        let gmm = GaussianMixture::from_dataset(&d, 1e-7, 500, 7);
        let mut ctx = QcsContext::with_profile(profile());
        let full = RunConfig::new(&gmm, &mut ctx).execute(&mut SingleMode::accurate());
        assert!(full.report.iterations > 5, "workload too easy for the test");
        let cut = RunConfig::new(&gmm, &mut ctx)
            .with_deadline(5)
            .execute(&mut SingleMode::accurate());
        assert_eq!(cut.report.iterations, 5);
        assert!(!cut.report.converged);
        assert_eq!(cut.report.outcome, crate::report::Outcome::Failed);
        // A deadline beyond MAX_ITER defers to the method.
        let slack = RunConfig::new(&gmm, &mut ctx)
            .with_deadline(10_000)
            .execute(&mut SingleMode::accurate());
        assert_eq!(slack.report.iterations, full.report.iterations);
        assert_eq!(slack.report.outcome, crate::report::Outcome::Completed);
        assert_eq!(slack.report.attempts, 1);
    }

    #[test]
    fn checkpoint_ring_is_bounded_and_counts_evictions() {
        let d = data();
        let gmm = GaussianMixture::from_dataset(&d, 1e-7, 500, 7);
        let mut ctx = QcsContext::with_profile(profile());
        let config = WatchdogConfig {
            checkpoint_interval: 1,
            checkpoint_capacity: 2,
            ..WatchdogConfig::resilient()
        };
        let outcome = RunConfig::new(&gmm, &mut ctx)
            .with_watchdog(config)
            .execute(&mut SingleMode::accurate());
        let r = &outcome.report.recovery;
        assert!(outcome.report.converged);
        assert!(
            r.checkpoints_taken > 2,
            "need enough iterations to fill the ring"
        );
        // Every checkpoint beyond the capacity evicted the oldest: the
        // live ring never held more than 2 entries.
        assert_eq!(r.checkpoints_evicted, r.checkpoints_taken - 2);
        // Eviction is routine bookkeeping, not degradation.
        assert_eq!(outcome.report.outcome, crate::report::Outcome::Completed);
    }

    #[test]
    fn without_watchdog_the_sabotaged_run_never_converges() {
        let method = Sabotaged {
            explode_after: 12,
            max_iterations: 60,
        };
        let mut ctx = QcsContext::with_profile(profile());
        let outcome = RunConfig::new(&method, &mut ctx)
            .with_watchdog(WatchdogConfig {
                guard_non_finite: false,
                ..WatchdogConfig::default()
            })
            .execute(&mut SingleMode::new(AccuracyLevel::Level2));
        assert!(!outcome.report.converged);
        assert!(!outcome.state.1.is_finite());
    }

    #[test]
    fn divergence_window_trips_on_a_rising_objective() {
        /// Objective rises forever at approximate levels, falls at
        /// Accurate.
        struct Riser;
        impl iter_solvers::IterativeMethod for Riser {
            type State = f64;
            fn name(&self) -> &str {
                "riser"
            }
            fn initial_state(&self) -> f64 {
                1.0
            }
            fn step(&self, state: &f64, ctx: &mut dyn approx_arith::ArithContext) -> f64 {
                if ctx.level().is_accurate() {
                    ctx.mul(*state, 0.5)
                } else {
                    ctx.mul(*state, 1.5)
                }
            }
            fn objective(&self, state: &f64) -> f64 {
                state.abs()
            }
            fn params(&self, state: &f64) -> Vec<f64> {
                vec![*state]
            }
            fn converged(&self, prev: &f64, next: &f64) -> bool {
                (prev - next).abs() < 1e-9
            }
            fn max_iterations(&self) -> usize {
                300
            }
        }
        let mut ctx = QcsContext::with_profile(profile());
        let config = WatchdogConfig {
            divergence_window: Some(4),
            escalation_threshold: Some(1),
            ..WatchdogConfig::resilient()
        };
        let outcome = RunConfig::new(&Riser, &mut ctx)
            .with_watchdog(config)
            .execute(&mut SingleMode::new(AccuracyLevel::Level1));
        let r = &outcome.report.recovery;
        assert!(r.divergence_trips > 0, "divergence detector never fired");
        assert!(r.escalations > 0);
        assert!(outcome.report.converged, "escalation failed to rescue");
    }
}
