//! Runner watchdog: guards, divergence detection, checkpointed
//! recovery, and escalation.
//!
//! Approximate hardware occasionally fails in ways the strategies'
//! objective-based monitoring cannot absorb: a fault flips a high bit
//! and the iterate blows up, or sustained upsets push the objective
//! uphill for many consecutive iterations. The watchdog wraps the
//! runner's commit loop with four defenses:
//!
//! 1. **Guards** — the exact monitoring quantities (objective and
//!    parameter vector) are checked for NaN/Inf and, optionally, for
//!    magnitude overflow before an iterate can be committed.
//! 2. **Divergence detection** — an objective that rises for K
//!    consecutive iterations trips the watchdog even though each
//!    individual step looked plausible.
//! 3. **Checkpointed recovery** — a bounded ring buffer holds the last
//!    few *committed* states; a tripped guard restores the most recent
//!    checkpoint instead of continuing from a corrupt iterate.
//! 4. **Escalation** — after R consecutive rollbacks (strategy- or
//!    watchdog-initiated) the accuracy level is forced one step toward
//!    exact and pinned there, breaking fault-induced livelock.
//!
//! The [`Default`] configuration enables only the NaN/Inf guards, which
//! can never fire on a healthy datapath — fault-free runs are
//! bit-identical with or without the watchdog. Energy accounting is
//! deliberately untouched by recovery: discarded iterations stay
//! charged, exactly as the hardware would have spent the energy.

/// Configuration of the runner watchdog (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// Reject iterates whose objective or parameters are NaN/Inf.
    pub guard_non_finite: bool,
    /// Reject iterates whose objective or parameter magnitude exceeds
    /// this bound (`None` disables the overflow guard).
    pub overflow_threshold: Option<f64>,
    /// Trip after this many consecutive objective increases (`None`
    /// disables divergence detection).
    pub divergence_window: Option<usize>,
    /// Take a checkpoint every this many *committed* iterations
    /// (0 disables checkpointing).
    pub checkpoint_interval: usize,
    /// Maximum number of checkpoints retained in the ring buffer: once
    /// full, taking a new checkpoint evicts the oldest (surfaced as
    /// [`RecoveryTelemetry::checkpoints_evicted`]), so a long run's
    /// memory footprint stays bounded no matter how many checkpoints it
    /// takes.
    pub checkpoint_capacity: usize,
    /// Force the level one step toward exact after this many
    /// consecutive rollbacks (`None` disables escalation).
    pub escalation_threshold: Option<usize>,
    /// Per-run iteration deadline: the loop stops after this many
    /// iterations even if the method's own `MAX_ITER` is larger
    /// (`None` defers entirely to the method). A run cut off by the
    /// deadline reports `converged == false` and classifies as
    /// [`Failed`](crate::Outcome::Failed) — the solver service uses
    /// this as its per-attempt deadline enforcement.
    pub iteration_budget: Option<usize>,
}

impl Default for WatchdogConfig {
    /// Guards only: NaN/Inf rejection, no divergence detection, no
    /// checkpoints, no escalation. Fault-free runs are unaffected.
    fn default() -> Self {
        Self {
            guard_non_finite: true,
            overflow_threshold: None,
            divergence_window: None,
            checkpoint_interval: 0,
            checkpoint_capacity: 4,
            escalation_threshold: None,
            iteration_budget: None,
        }
    }
}

impl WatchdogConfig {
    /// Full protection, tuned for fault-injection studies: overflow
    /// guard at 10³⁰, divergence after 5 rising iterations, a
    /// checkpoint every 5 committed iterations (ring of 4), and
    /// escalation after 3 consecutive rollbacks.
    #[must_use]
    pub fn resilient() -> Self {
        Self {
            guard_non_finite: true,
            overflow_threshold: Some(1e30),
            divergence_window: Some(5),
            checkpoint_interval: 5,
            checkpoint_capacity: 4,
            escalation_threshold: Some(3),
            iteration_budget: None,
        }
    }

    /// This configuration with a per-run iteration deadline (see
    /// [`iteration_budget`](Self::iteration_budget)).
    #[must_use]
    pub fn with_deadline(mut self, iterations: usize) -> Self {
        self.iteration_budget = Some(iterations);
        self
    }
}

/// Recovery events observed during one run, surfaced in
/// [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryTelemetry {
    /// NaN/Inf or overflow guard trips.
    pub guard_trips: usize,
    /// Divergence-window trips.
    pub divergence_trips: usize,
    /// Checkpoints written into the ring buffer.
    pub checkpoints_taken: usize,
    /// Checkpoints evicted from the full ring to make room for newer
    /// ones ([`WatchdogConfig::checkpoint_capacity`] bounds the ring).
    pub checkpoints_evicted: usize,
    /// Restores from a checkpoint after a hard failure.
    pub restores: usize,
    /// Forced level escalations toward exact.
    pub escalations: usize,
}

impl RecoveryTelemetry {
    /// Whether any recovery machinery fired during the run.
    #[must_use]
    pub fn any(&self) -> bool {
        self.guard_trips > 0
            || self.divergence_trips > 0
            || self.checkpoints_taken > 0
            || self.restores > 0
            || self.escalations > 0
    }

    /// Whether the run needed an actual intervention — a guard or
    /// divergence trip, a restore, or a forced escalation. Routine
    /// checkpointing (taken/evicted) does not count: a clean run that
    /// only snapshots state is not degraded.
    #[must_use]
    pub fn degrading(&self) -> bool {
        self.guard_trips > 0
            || self.divergence_trips > 0
            || self.restores > 0
            || self.escalations > 0
    }
}

impl std::fmt::Display for RecoveryTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "guards {}, divergences {}, checkpoints {} ({} evicted), restores {}, escalations {}",
            self.guard_trips,
            self.divergence_trips,
            self.checkpoints_taken,
            self.checkpoints_evicted,
            self.restores,
            self.escalations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_guards_only() {
        let c = WatchdogConfig::default();
        assert!(c.guard_non_finite);
        assert!(c.overflow_threshold.is_none());
        assert!(c.divergence_window.is_none());
        assert_eq!(c.checkpoint_interval, 0);
        assert!(c.escalation_threshold.is_none());
        assert!(c.iteration_budget.is_none());
    }

    #[test]
    fn with_deadline_sets_the_iteration_budget() {
        let c = WatchdogConfig::default().with_deadline(25);
        assert_eq!(c.iteration_budget, Some(25));
        // The deadline leaves every other setting as it was.
        let bare = WatchdogConfig {
            guard_non_finite: false,
            ..WatchdogConfig::default()
        };
        let timed = WatchdogConfig {
            iteration_budget: Some(10),
            ..bare.clone()
        };
        assert_eq!(bare.with_deadline(10), timed);
    }

    #[test]
    fn degrading_ignores_routine_checkpointing() {
        let mut t = RecoveryTelemetry {
            checkpoints_taken: 7,
            checkpoints_evicted: 3,
            ..RecoveryTelemetry::default()
        };
        assert!(t.any());
        assert!(!t.degrading());
        t.restores = 1;
        assert!(t.degrading());
    }

    #[test]
    fn resilient_config_enables_everything() {
        let c = WatchdogConfig::resilient();
        assert!(c.overflow_threshold.is_some());
        assert!(c.divergence_window.is_some());
        assert!(c.checkpoint_interval > 0);
        assert!(c.escalation_threshold.is_some());
    }

    #[test]
    fn telemetry_any_reflects_events() {
        let mut t = RecoveryTelemetry::default();
        assert!(!t.any());
        t.restores = 1;
        assert!(t.any());
        assert!(t.to_string().contains("restores 1"));
    }
}
