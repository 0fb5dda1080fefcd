//! Controller model checking: static proofs of the quality guarantee's
//! *control* side.
//!
//! The paper's guarantee rests on the online controller always steering
//! the solver back toward the accurate mode when approximation injects
//! too much error. The dynamic test suite exercises that claim on
//! particular trajectories; this module proves it for *every*
//! trajectory by modeling the controller as an explicit finite
//! transition system and checking the guarantee invariants exhaustively
//! (and, as a cross-check, symbolically on BDDs via [`gatesim::bdd`]).
//!
//! # The abstraction
//!
//! A controller state is `(accuracy level, level floor, stall counter)`
//! — [`CtrlState`]. The environment input is the *quantized
//! quality-error band* of the iteration just completed —
//! [`ErrorBand`]: how much error the monitoring quantities showed,
//! folded into four bands. This abstracts exactly the quantities the
//! real implementations branch on:
//!
//! * [`AdaptiveAngleStrategy`](crate::AdaptiveAngleStrategy) retires a
//!   mode and rolls back when the objective *increased*
//!   ([`ErrorBand::Damage`]); otherwise its angle/LUT machinery picks a
//!   target mode that moves toward accurate as the observed error band
//!   rises ([`ErrorBand::Low`] → cheapest eligible,
//!   [`ErrorBand::Medium`] → mid table, [`ErrorBand::High`] →
//!   accurate).
//! * [`SingleMode`](crate::SingleMode) never reacts; only the runner
//!   watchdog ([`WatchdogConfig`](crate::WatchdogConfig)) defends it:
//!   a damaged iterate is rolled back (restoring a checkpoint when
//!   enabled) and after `R` *consecutive* rollbacks the level is
//!   escalated one step toward exact and floored there.
//!
//! **Soundness assumptions**, in the same assume-guarantee style as the
//! range models: (1) the accurate mode injects zero approximation
//! error, so [`ErrorBand::Damage`] is not applicable at
//! [`AccuracyLevel::Accurate`] — matching the strategy code, which
//! exempts the accurate mode from rollback; (2) the band quantization
//! over-approximates the real-valued monitors — every concrete decision
//! corresponds to *some* band, so a property proved for all band
//! sequences holds for all concrete runs.
//!
//! # The properties
//!
//! [`check`] verifies four invariants and reports violations as
//! concrete replayable decision traces ([`Counterexample`]) — the same
//! philosophy as `gatesim::equiv::prove`, which never reports a
//! mismatch without an input that exhibits it:
//!
//! 1. **Liveness** — under sustained worst-case error, every reachable
//!    state reaches the accurate mode within `|states|` steps (no
//!    livelock below accurate).
//! 2. **No rollback livelock** — no reachable cycle consisting entirely
//!    of rollback edges: the controller cannot discard iterates forever
//!    without committing progress or escalating.
//! 3. **Monotone escalation** — the level floor never decreases, a
//!    rollback never lowers the accuracy level, escalations strictly
//!    raise it, and the level never sits below the floor.
//! 4. **Checkpoint discipline** — a checkpoint is only restored on a
//!    rollback edge, only when checkpointing is configured, and a
//!    restore stays at the level boundary: the restored state's level
//!    is the same level or its escalation successor, never lower and
//!    never skipping levels.

use std::collections::{HashMap, VecDeque};

use approx_arith::AccuracyLevel;
use gatesim::bdd::{Bdd, BddRef, NodeLimitExceeded};

/// Index of the accurate mode (`AccuracyLevel::Accurate.index()`).
const ACCURATE: u8 = 4;

/// One abstract controller state: everything the controller's future
/// behavior depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtrlState {
    /// Current accuracy level index (0 = Level1 … 4 = Accurate).
    pub level: u8,
    /// Ratchet floor: the lowest level index still eligible.
    pub floor: u8,
    /// Consecutive-rollback counter feeding watchdog escalation.
    pub stall: u8,
}

impl std::fmt::Display for CtrlState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(level {}, floor {}, stall {})",
            self.level, self.floor, self.stall
        )
    }
}

/// Quantized per-iteration quality-error band — the controller's input
/// alphabet (see the module docs for the mapping onto the real
/// monitors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorBand {
    /// Error well inside the budget; steep manifold.
    Low,
    /// Error near the budget; mid-table angle.
    Medium,
    /// Error at the switching threshold; flat manifold or stalled
    /// progress.
    High,
    /// The iterate was damaged (objective increased / guard tripped).
    Damage,
}

impl ErrorBand {
    /// Every band, for exhaustive exploration.
    pub const ALL: [ErrorBand; 4] = [
        ErrorBand::Low,
        ErrorBand::Medium,
        ErrorBand::High,
        ErrorBand::Damage,
    ];

    /// Stable encoding for the symbolic backend (2 bits).
    #[must_use]
    fn code(self) -> u16 {
        match self {
            ErrorBand::Low => 0,
            ErrorBand::Medium => 1,
            ErrorBand::High => 2,
            ErrorBand::Damage => 3,
        }
    }
}

impl std::fmt::Display for ErrorBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorBand::Low => "low",
            ErrorBand::Medium => "medium",
            ErrorBand::High => "high",
            ErrorBand::Damage => "damage",
        };
        f.write_str(s)
    }
}

/// What happened on one transition, for the property checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransitionLabel {
    /// The iterate was committed.
    pub commit: bool,
    /// The iterate was discarded (strategy or watchdog rollback).
    pub rollback: bool,
    /// A checkpoint was restored.
    pub restore: bool,
    /// The level was forced up by the escalation policy or ratchet.
    pub escalation: bool,
}

/// Which controller the transition system models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControllerKind {
    /// [`AdaptiveAngleStrategy`](crate::AdaptiveAngleStrategy) with its
    /// floor ratchet.
    Adaptive,
    /// [`SingleMode`](crate::SingleMode) at a fixed starting level.
    SingleMode(u8),
    /// Deliberately broken mutant: escalation order inverted — damage
    /// *lowers* the level and never ratchets the floor. Exists to
    /// demonstrate that the checker produces concrete counterexamples.
    InvertedEscalation,
}

/// A finite-state model of one controller configuration (strategy plus
/// watchdog escalation rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerSpec {
    kind: ControllerKind,
    /// Watchdog: escalate after this many consecutive rollbacks.
    escalation_threshold: Option<u8>,
    /// Watchdog: checkpoint restores are active.
    checkpointing: bool,
}

impl ControllerSpec {
    /// The shipped adaptive strategy (its own floor ratchet, no runner
    /// watchdog).
    #[must_use]
    pub fn adaptive() -> Self {
        Self {
            kind: ControllerKind::Adaptive,
            escalation_threshold: None,
            checkpointing: false,
        }
    }

    /// The adaptive strategy under the resilient runner watchdog.
    #[must_use]
    pub fn adaptive_with_watchdog(escalation_threshold: u8) -> Self {
        assert!(escalation_threshold > 0, "threshold must be positive");
        Self {
            kind: ControllerKind::Adaptive,
            escalation_threshold: Some(escalation_threshold),
            checkpointing: true,
        }
    }

    /// A single-mode baseline protected by the watchdog
    /// (checkpointed recovery plus escalation after `threshold`
    /// consecutive rollbacks — the `WatchdogConfig::resilient` shape).
    #[must_use]
    pub fn single_mode_with_watchdog(level: AccuracyLevel, escalation_threshold: u8) -> Self {
        assert!(escalation_threshold > 0, "threshold must be positive");
        Self {
            kind: ControllerKind::SingleMode(level.index() as u8),
            escalation_threshold: Some(escalation_threshold),
            checkpointing: true,
        }
    }

    /// A single-mode baseline with no watchdog escalation — raw
    /// hardware behavior. Kept constructible because its *failure* is
    /// informative: the checker shows exactly the livelock the watchdog
    /// exists to break.
    #[must_use]
    pub fn single_mode_unprotected(level: AccuracyLevel) -> Self {
        Self {
            kind: ControllerKind::SingleMode(level.index() as u8),
            escalation_threshold: None,
            checkpointing: false,
        }
    }

    /// The deliberately broken mutant with the escalation order
    /// inverted: damage lowers the level. Every check that holds for
    /// the shipped controllers must fail here with a concrete trace.
    #[must_use]
    pub fn inverted_escalation_mutant() -> Self {
        Self {
            kind: ControllerKind::InvertedEscalation,
            escalation_threshold: None,
            checkpointing: false,
        }
    }

    /// Human-readable name for reports.
    #[must_use]
    pub fn name(&self) -> String {
        let base = match self.kind {
            ControllerKind::Adaptive => "adaptive".to_owned(),
            ControllerKind::SingleMode(l) => format!("single-mode(level index {l})"),
            ControllerKind::InvertedEscalation => "mutant/inverted-escalation".to_owned(),
        };
        match self.escalation_threshold {
            Some(r) => format!("{base} + watchdog(R={r})"),
            None => base,
        }
    }

    /// Saturation cap for the stall counter (keeps the state space
    /// finite when no escalation threshold consumes the counter).
    fn stall_cap(&self) -> u8 {
        self.escalation_threshold.unwrap_or(3)
    }

    /// The initial controller state.
    #[must_use]
    pub fn initial_state(&self) -> CtrlState {
        let level = match self.kind {
            ControllerKind::Adaptive | ControllerKind::InvertedEscalation => 0,
            ControllerKind::SingleMode(l) => l,
        };
        CtrlState {
            level,
            floor: level,
            stall: 0,
        }
    }

    /// Whether `band` can occur in `state` under the model's soundness
    /// assumptions (damage cannot originate from the accurate mode).
    #[must_use]
    pub fn applicable(&self, state: CtrlState, band: ErrorBand) -> bool {
        !(band == ErrorBand::Damage && state.level == ACCURATE)
    }

    /// One controller reaction: the post-state and what happened.
    ///
    /// # Panics
    /// Panics if the band is not [`applicable`](Self::applicable) in
    /// `state`.
    #[must_use]
    pub fn step(&self, state: CtrlState, band: ErrorBand) -> (CtrlState, TransitionLabel) {
        assert!(
            self.applicable(state, band),
            "band {band} not applicable in {state}"
        );
        let mut label = TransitionLabel::default();
        let mut next = state;
        match self.kind {
            ControllerKind::Adaptive => match band {
                ErrorBand::Damage => {
                    // decide(): damaged mode retired (floor ratchet),
                    // RollbackAndSwitch(floor).
                    label.rollback = true;
                    next.floor = state.floor.max((state.level + 1).min(ACCURATE));
                    next.level = next.floor;
                    next.stall = self.bump_stall(state.stall);
                }
                ErrorBand::Low => {
                    // Steep manifold: the cheapest eligible mode.
                    label.commit = true;
                    next.level = state.floor;
                    next.stall = 0;
                }
                ErrorBand::Medium => {
                    // Mid-table angle.
                    label.commit = true;
                    next.level = state.floor.max(2);
                    next.stall = 0;
                }
                ErrorBand::High => {
                    // Flat manifold / stalled progress: accurate.
                    label.commit = true;
                    next.level = ACCURATE;
                    next.stall = 0;
                }
            },
            ControllerKind::SingleMode(_) => match band {
                ErrorBand::Damage => {
                    // The strategy keeps; only the watchdog reacts.
                    label.rollback = true;
                    label.restore = self.checkpointing;
                    next.stall = self.bump_stall(state.stall);
                }
                _ => {
                    // Keep, commit as-is.
                    label.commit = true;
                    next.stall = 0;
                }
            },
            ControllerKind::InvertedEscalation => match band {
                ErrorBand::Damage => {
                    // BROKEN: de-escalates on damage, no ratchet.
                    label.rollback = true;
                    next.level = state.level.saturating_sub(1);
                    next.stall = self.bump_stall(state.stall);
                }
                ErrorBand::Low => {
                    label.commit = true;
                    next.level = state.floor;
                    next.stall = 0;
                }
                ErrorBand::Medium => {
                    label.commit = true;
                    next.level = state.floor.max(2);
                    next.stall = 0;
                }
                ErrorBand::High => {
                    label.commit = true;
                    next.level = ACCURATE;
                    next.stall = 0;
                }
            },
        }
        // Runner watchdog escalation: after R consecutive rollbacks the
        // level is forced one step toward exact and floored there.
        if label.rollback {
            if let Some(r) = self.escalation_threshold {
                if next.stall >= r {
                    if next.level < ACCURATE {
                        next.level += 1;
                        next.floor = next.floor.max(next.level);
                        label.escalation = true;
                    }
                    next.stall = 0;
                }
            }
        }
        if next.level > state.level {
            label.escalation = true;
        }
        (next, label)
    }

    fn bump_stall(&self, stall: u8) -> u8 {
        (stall + 1).min(self.stall_cap())
    }
}

/// One edge of the explored transition system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Pre-state.
    pub from: CtrlState,
    /// Observed error band.
    pub band: ErrorBand,
    /// Post-state.
    pub to: CtrlState,
    /// What happened.
    pub label: TransitionLabel,
}

/// The reachable fragment of a controller's transition system.
#[derive(Debug, Clone)]
pub struct TransitionSystem {
    spec: ControllerSpec,
    states: Vec<CtrlState>,
    edges: Vec<Transition>,
    /// BFS tree parent of each non-initial state, for building
    /// replayable prefixes to any reachable state.
    parents: HashMap<CtrlState, Transition>,
}

impl TransitionSystem {
    /// Explore every reachable state of `spec` by breadth-first search
    /// over all applicable error bands.
    #[must_use]
    pub fn explore(spec: &ControllerSpec) -> Self {
        let initial = spec.initial_state();
        let mut states = vec![initial];
        let mut seen: HashMap<CtrlState, ()> = HashMap::from([(initial, ())]);
        let mut parents = HashMap::new();
        let mut edges = Vec::new();
        let mut queue = VecDeque::from([initial]);
        while let Some(state) = queue.pop_front() {
            for band in ErrorBand::ALL {
                if !spec.applicable(state, band) {
                    continue;
                }
                let (to, label) = spec.step(state, band);
                let edge = Transition {
                    from: state,
                    band,
                    to,
                    label,
                };
                edges.push(edge);
                if seen.insert(to, ()).is_none() {
                    states.push(to);
                    parents.insert(to, edge);
                    queue.push_back(to);
                }
            }
        }
        Self {
            spec: *spec,
            states,
            edges,
            parents,
        }
    }

    /// All reachable states (initial state first).
    #[must_use]
    pub fn states(&self) -> &[CtrlState] {
        &self.states
    }

    /// All transitions between reachable states.
    #[must_use]
    pub fn edges(&self) -> &[Transition] {
        &self.edges
    }

    /// The modeled controller.
    #[must_use]
    pub fn spec(&self) -> &ControllerSpec {
        &self.spec
    }

    /// A replayable decision trace from the initial state to `target`
    /// (empty for the initial state itself).
    fn prefix_to(&self, target: CtrlState) -> Vec<Transition> {
        let mut path = Vec::new();
        let mut cursor = target;
        while let Some(edge) = self.parents.get(&cursor) {
            path.push(*edge);
            cursor = edge.from;
        }
        path.reverse();
        path
    }
}

/// A concrete, replayable violation trace: the sequence of observed
/// error bands that drives the controller from its initial state into
/// the violation. The same philosophy as `gatesim::equiv::prove`'s
/// `Counterexample`: no property failure is reported without an input
/// sequence that exhibits it, and [`Counterexample::replay`] re-executes
/// the trace against the spec to confirm it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Which property was violated.
    pub property: String,
    /// What the final step violates.
    pub detail: String,
    /// The decision trace from the initial state into the violation.
    pub trace: Vec<Transition>,
}

impl Counterexample {
    /// Re-execute the trace against `spec`: every step's band must be
    /// applicable, reproduce the recorded post-state and label, and
    /// chain onto the previous step. Returns `false` if the trace does
    /// not replay — a non-replayable counterexample would mean the
    /// checker itself is broken.
    #[must_use]
    pub fn replay(&self, spec: &ControllerSpec) -> bool {
        let mut state = spec.initial_state();
        for step in &self.trace {
            if step.from != state || !spec.applicable(state, step.band) {
                return false;
            }
            let (to, label) = spec.step(state, step.band);
            if to != step.to || label != step.label {
                return false;
            }
            state = to;
        }
        true
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation of {}: {}", self.property, self.detail)?;
        for (i, step) in self.trace.iter().enumerate() {
            let mut tags = Vec::new();
            if step.label.commit {
                tags.push("commit");
            }
            if step.label.rollback {
                tags.push("rollback");
            }
            if step.label.restore {
                tags.push("restore");
            }
            if step.label.escalation {
                tags.push("escalate");
            }
            writeln!(
                f,
                "  {i:3}: {} --[{}]--> {}  ({})",
                step.from,
                step.band,
                step.to,
                tags.join("+")
            )?;
        }
        Ok(())
    }
}

/// Result of [`check`]: exploration statistics plus any violations.
#[derive(Debug, Clone)]
pub struct ModelCheckReport {
    /// Controller that was checked.
    pub controller: String,
    /// Reachable states explored.
    pub states_explored: usize,
    /// Transitions examined.
    pub transitions: usize,
    /// All property violations, each with a replayable trace.
    pub violations: Vec<Counterexample>,
}

impl ModelCheckReport {
    /// `true` when every property holds.
    #[must_use]
    pub fn proven(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Check all four guarantee invariants of `spec` (module docs) over its
/// full reachable state space.
#[must_use]
pub fn check(spec: &ControllerSpec) -> ModelCheckReport {
    let ts = TransitionSystem::explore(spec);
    let mut violations = Vec::new();
    violations.extend(check_liveness(&ts));
    violations.extend(check_no_rollback_livelock(&ts));
    violations.extend(check_monotone_escalation(&ts));
    violations.extend(check_checkpoint_discipline(&ts));
    ModelCheckReport {
        controller: spec.name(),
        states_explored: ts.states().len(),
        transitions: ts.edges().len(),
        violations,
    }
}

/// Property 1: from every reachable state, sustained worst-case error
/// (damage whenever the mode can inject it) drives the controller to
/// the accurate mode within `|states|` steps.
fn check_liveness(ts: &TransitionSystem) -> Option<Counterexample> {
    let spec = ts.spec();
    let worst = |state: CtrlState| -> ErrorBand {
        if spec.applicable(state, ErrorBand::Damage) {
            ErrorBand::Damage
        } else {
            ErrorBand::High
        }
    };
    for &start in ts.states() {
        let mut trace = ts.prefix_to(start);
        let mut state = start;
        let mut reached = state.level == ACCURATE;
        for _ in 0..ts.states().len() {
            if reached {
                break;
            }
            let band = worst(state);
            let (to, label) = spec.step(state, band);
            trace.push(Transition {
                from: state,
                band,
                to,
                label,
            });
            state = to;
            reached = state.level == ACCURATE;
        }
        if !reached {
            return Some(Counterexample {
                property: "liveness (eventually accurate under sustained error)".into(),
                detail: format!(
                    "from {start}, {len} worst-case steps never reach the accurate mode \
                     (the suffix repeats forever)",
                    len = ts.states().len()
                ),
                trace,
            });
        }
    }
    None
}

/// Property 2: no cycle of rollback-only edges — the controller cannot
/// discard work forever without either committing or escalating out.
fn check_no_rollback_livelock(ts: &TransitionSystem) -> Option<Counterexample> {
    // DFS over the subgraph of rollback edges.
    let mut rollback_out: HashMap<CtrlState, Vec<Transition>> = HashMap::new();
    for edge in ts.edges() {
        if edge.label.rollback {
            rollback_out.entry(edge.from).or_default().push(*edge);
        }
    }
    // Iterative DFS with colors: 0 unvisited, 1 on stack, 2 done.
    let mut color: HashMap<CtrlState, u8> = HashMap::new();
    for &root in ts.states() {
        if color.get(&root).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Stack of (state, edge-iterator-index, path-so-far edge).
        let mut stack: Vec<(CtrlState, usize)> = vec![(root, 0)];
        let mut path: Vec<Transition> = Vec::new();
        color.insert(root, 1);
        while let Some(&mut (state, ref mut idx)) = stack.last_mut() {
            let out = rollback_out.get(&state).map_or(&[][..], Vec::as_slice);
            if *idx < out.len() {
                let edge = out[*idx];
                *idx += 1;
                match color.get(&edge.to).copied().unwrap_or(0) {
                    0 => {
                        color.insert(edge.to, 1);
                        path.push(edge);
                        stack.push((edge.to, 0));
                    }
                    1 => {
                        // Cycle found: close it and prepend a replayable
                        // path from the initial state.
                        path.push(edge);
                        let cycle_start = edge.to;
                        let from_idx = path
                            .iter()
                            .position(|e| e.from == cycle_start)
                            .expect("cycle entry is on the DFS path");
                        let cycle: Vec<Transition> = path[from_idx..].to_vec();
                        let mut trace = ts.prefix_to(cycle_start);
                        trace.extend(cycle.iter().copied());
                        return Some(Counterexample {
                            property: "no rollback livelock".into(),
                            detail: format!(
                                "rollback-only cycle of length {} through {cycle_start}: \
                                 the controller can discard iterates forever",
                                cycle.len()
                            ),
                            trace,
                        });
                    }
                    _ => {}
                }
            } else {
                color.insert(state, 2);
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// Property 3: the escalation order is monotone — floors ratchet, a
/// rollback never lowers the level, escalation edges strictly raise it,
/// and the level never drops below the floor.
fn check_monotone_escalation(ts: &TransitionSystem) -> Option<Counterexample> {
    for edge in ts.edges() {
        let violation = if edge.to.floor < edge.from.floor {
            Some(format!(
                "floor decreased ({} -> {})",
                edge.from.floor, edge.to.floor
            ))
        } else if edge.label.rollback && edge.to.level < edge.from.level {
            Some(format!(
                "rollback lowered the level ({} -> {})",
                edge.from.level, edge.to.level
            ))
        } else if edge.label.escalation && edge.to.level <= edge.from.level {
            Some(format!(
                "escalation edge did not raise the level ({} -> {})",
                edge.from.level, edge.to.level
            ))
        } else if edge.to.level < edge.to.floor {
            Some(format!(
                "level {} fell below the floor {}",
                edge.to.level, edge.to.floor
            ))
        } else {
            None
        };
        if let Some(detail) = violation {
            let mut trace = ts.prefix_to(edge.from);
            trace.push(*edge);
            return Some(Counterexample {
                property: "monotone escalation order".into(),
                detail,
                trace,
            });
        }
    }
    None
}

/// Property 4: checkpoints are only restored on rollback edges, only
/// when checkpointing is configured, and a restore stays at the level
/// boundary (same level or exactly one escalation step up).
fn check_checkpoint_discipline(ts: &TransitionSystem) -> Option<Counterexample> {
    for edge in ts.edges() {
        let violation = if edge.label.restore && !edge.label.rollback {
            Some("checkpoint restored outside a rollback".to_owned())
        } else if edge.label.restore && !ts.spec().checkpointing {
            Some("checkpoint restored with checkpointing disabled".to_owned())
        } else if edge.label.restore
            && (edge.to.level < edge.from.level || edge.to.level > edge.from.level + 1)
        {
            Some(format!(
                "restore crossed a level boundary ({} -> {})",
                edge.from.level, edge.to.level
            ))
        } else {
            None
        };
        if let Some(detail) = violation {
            let mut trace = ts.prefix_to(edge.from);
            trace.push(*edge);
            return Some(Counterexample {
                property: "checkpoint discipline".into(),
                detail,
                trace,
            });
        }
    }
    None
}

// ---------------------------------------------------------------------
// Symbolic backend
// ---------------------------------------------------------------------

/// Bit width of the state encoding: level (3) + floor (3) + stall (3).
const STATE_BITS: u32 = 9;
/// Bit width of the input encoding (the error band).
const INPUT_BITS: u32 = 2;
/// Variable blocks: current state, then input, then next state —
/// ordered so that renaming next → current is order-preserving once the
/// other blocks are quantified away.
const CUR_BASE: u32 = 0;
const INPUT_BASE: u32 = STATE_BITS;
const NEXT_BASE: u32 = STATE_BITS + INPUT_BITS;
const NUM_VARS: u32 = 2 * STATE_BITS + INPUT_BITS;

fn state_code(s: CtrlState) -> u16 {
    u16::from(s.level) | (u16::from(s.floor) << 3) | (u16::from(s.stall) << 6)
}

/// Result of [`symbolic_cross_check`]: the explicit and symbolic
/// analyses of the same controller, for mutual validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolicCrossCheck {
    /// Reachable-state count from the explicit BFS.
    pub explicit_reachable: usize,
    /// Reachable-state count from the symbolic fixpoint (model count of
    /// the reachability BDD).
    pub symbolic_reachable: usize,
    /// `AG EF accurate` over the reachable states: from every reachable
    /// state, *some* band sequence reaches the accurate mode.
    pub all_reach_accurate: bool,
    /// Live BDD nodes after the fixpoints, for the report.
    pub bdd_nodes: usize,
}

impl SymbolicCrossCheck {
    /// `true` when both backends agree on the reachable set size.
    #[must_use]
    pub fn counts_agree(&self) -> bool {
        self.explicit_reachable == self.symbolic_reachable
    }
}

/// Verify the explicit exploration against a BDD-based symbolic model
/// checker built on [`gatesim::bdd`]: encode the transition relation
/// `R(cur, input, next)` over Boolean variables, compute the reachable
/// set as a forward image fixpoint (`∃ cur, input . R ∧ Reached`,
/// renamed back), count it, and check `AG EF accurate` by a backward
/// fixpoint. The two engines share nothing but [`ControllerSpec::step`]
/// — agreement is strong evidence both are faithful.
///
/// # Errors
/// Propagates [`NodeLimitExceeded`] if the BDD outgrows its manager
/// budget (does not happen for the shipped controllers; the state space
/// is tiny).
pub fn symbolic_cross_check(
    spec: &ControllerSpec,
) -> Result<SymbolicCrossCheck, NodeLimitExceeded> {
    let ts = TransitionSystem::explore(spec);
    let mut bdd = Bdd::new(NUM_VARS);

    // Cube helpers: conjunction of literals for `value` over `bits`
    // variables starting at `base`.
    fn cube(bdd: &mut Bdd, base: u32, bits: u32, value: u16) -> Result<BddRef, NodeLimitExceeded> {
        let mut acc = BddRef::TRUE;
        for b in 0..bits {
            let v = bdd.var(base + b)?;
            let lit = if (value >> b) & 1 == 1 {
                v
            } else {
                bdd.not(v)?
            };
            acc = bdd.and(acc, lit)?;
        }
        Ok(acc)
    }

    // Transition relation: one cube per explored edge.
    let mut relation = BddRef::FALSE;
    for edge in ts.edges() {
        let c = cube(&mut bdd, CUR_BASE, STATE_BITS, state_code(edge.from))?;
        let i = cube(&mut bdd, INPUT_BASE, INPUT_BITS, edge.band.code())?;
        let n = cube(&mut bdd, NEXT_BASE, STATE_BITS, state_code(edge.to))?;
        let ci = bdd.and(c, i)?;
        let cin = bdd.and(ci, n)?;
        relation = bdd.or(relation, cin)?;
    }

    let cur_vars: Vec<u32> = (CUR_BASE..CUR_BASE + STATE_BITS).collect();
    let input_vars: Vec<u32> = (INPUT_BASE..INPUT_BASE + INPUT_BITS).collect();
    let next_vars: Vec<u32> = (NEXT_BASE..NEXT_BASE + STATE_BITS).collect();
    let cur_and_input: Vec<u32> = cur_vars.iter().chain(&input_vars).copied().collect();
    let next_and_input: Vec<u32> = next_vars.iter().chain(&input_vars).copied().collect();
    let next_to_cur: HashMap<u32, u32> = next_vars
        .iter()
        .zip(&cur_vars)
        .map(|(&n, &c)| (n, c))
        .collect();
    let cur_to_next: HashMap<u32, u32> = cur_vars
        .iter()
        .zip(&next_vars)
        .map(|(&c, &n)| (c, n))
        .collect();

    // Forward reachability fixpoint.
    let mut reached = cube(
        &mut bdd,
        CUR_BASE,
        STATE_BITS,
        state_code(spec.initial_state()),
    )?;
    loop {
        let step = bdd.and(relation, reached)?;
        let image_next = bdd.exists(step, &cur_and_input)?;
        let image = bdd.rename_monotone(image_next, &next_to_cur)?;
        let grown = bdd.or(reached, image)?;
        if grown == reached {
            break;
        }
        reached = grown;
    }
    // Model count over the 9 current-state bits: sat_fraction counts
    // over all NUM_VARS variables, and `reached` is independent of the
    // other NUM_VARS − STATE_BITS of them.
    let symbolic_reachable =
        (bdd.sat_fraction(reached) * f64::from(1u32 << STATE_BITS)).round() as usize;

    // Backward fixpoint for EF accurate: accurate means level == 4,
    // i.e. the three level bits (cur vars 0..3) read 0b100.
    let mut ef = cube(&mut bdd, CUR_BASE, 3, u16::from(ACCURATE))?;
    loop {
        let ef_next = bdd.rename_monotone(ef, &cur_to_next)?;
        let step = bdd.and(relation, ef_next)?;
        let pre = bdd.exists(step, &next_and_input)?;
        let grown = bdd.or(ef, pre)?;
        if grown == ef {
            break;
        }
        ef = grown;
    }
    let not_ef = bdd.not(ef)?;
    let stuck = bdd.and(reached, not_ef)?;

    Ok(SymbolicCrossCheck {
        explicit_reachable: ts.states().len(),
        symbolic_reachable,
        all_reach_accurate: stuck == BddRef::FALSE,
        bdd_nodes: bdd.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_proves_all_invariants() {
        let report = check(&ControllerSpec::adaptive());
        assert!(
            report.proven(),
            "adaptive violated: {}",
            report.violations[0]
        );
        assert!(report.states_explored > 1);
        assert!(report.transitions >= report.states_explored);
    }

    #[test]
    fn adaptive_with_watchdog_proves_all_invariants() {
        let report = check(&ControllerSpec::adaptive_with_watchdog(3));
        assert!(report.proven(), "violated: {}", report.violations[0]);
    }

    #[test]
    fn watchdogged_single_mode_proves_all_invariants() {
        for level in [AccuracyLevel::Level1, AccuracyLevel::Level3] {
            let report = check(&ControllerSpec::single_mode_with_watchdog(level, 3));
            assert!(
                report.proven(),
                "single-mode({level:?}) violated: {}",
                report.violations[0]
            );
        }
    }

    #[test]
    fn unprotected_single_mode_livelocks() {
        let spec = ControllerSpec::single_mode_unprotected(AccuracyLevel::Level1);
        let report = check(&spec);
        assert!(!report.proven(), "the watchdog must be load-bearing");
        let liveness = report
            .violations
            .iter()
            .find(|v| v.property.contains("liveness"))
            .expect("liveness must fail without escalation");
        assert!(liveness.replay(&spec), "counterexample must replay");
        let livelock = report
            .violations
            .iter()
            .find(|v| v.property.contains("livelock"))
            .expect("rollback livelock must be found");
        assert!(livelock.replay(&spec));
    }

    #[test]
    fn inverted_escalation_mutant_yields_replayable_counterexamples() {
        let spec = ControllerSpec::inverted_escalation_mutant();
        let report = check(&spec);
        assert!(!report.proven(), "the mutant must be caught");
        let monotone = report
            .violations
            .iter()
            .find(|v| v.property.contains("monotone"))
            .expect("inverted escalation violates monotonicity");
        assert!(
            monotone.detail.contains("rollback lowered the level"),
            "{}",
            monotone.detail
        );
        assert!(monotone.replay(&spec), "counterexample must replay");
        // The rendered trace is a concrete decision sequence.
        let rendered = monotone.to_string();
        assert!(rendered.contains("--[damage]-->"), "{rendered}");
    }

    #[test]
    fn tampered_traces_do_not_replay() {
        let spec = ControllerSpec::inverted_escalation_mutant();
        let report = check(&spec);
        let mut cx = report.violations[0].clone();
        assert!(cx.replay(&spec));
        // Against a different controller the trace must not replay.
        assert!(!cx.replay(&ControllerSpec::adaptive()));
        // A corrupted post-state must be rejected.
        if let Some(last) = cx.trace.last_mut() {
            last.to.level = (last.to.level + 1) % 5;
        }
        assert!(!cx.replay(&spec));
    }

    #[test]
    fn reachable_states_keep_level_at_or_above_floor() {
        for spec in [
            ControllerSpec::adaptive(),
            ControllerSpec::adaptive_with_watchdog(2),
            ControllerSpec::single_mode_with_watchdog(AccuracyLevel::Level2, 3),
        ] {
            let ts = TransitionSystem::explore(&spec);
            for s in ts.states() {
                assert!(s.level >= s.floor, "{}: {s}", spec.name());
            }
        }
    }

    #[test]
    fn symbolic_backend_agrees_with_explicit_exploration() {
        for spec in [
            ControllerSpec::adaptive(),
            ControllerSpec::adaptive_with_watchdog(3),
            ControllerSpec::single_mode_with_watchdog(AccuracyLevel::Level1, 3),
            ControllerSpec::inverted_escalation_mutant(),
        ] {
            let cc = symbolic_cross_check(&spec).expect("tiny state space");
            assert!(
                cc.counts_agree(),
                "{}: explicit {} != symbolic {}",
                spec.name(),
                cc.explicit_reachable,
                cc.symbolic_reachable
            );
        }
    }

    #[test]
    fn symbolic_ef_accurate_separates_protected_from_unprotected() {
        let protected = symbolic_cross_check(&ControllerSpec::single_mode_with_watchdog(
            AccuracyLevel::Level1,
            3,
        ))
        .expect("tiny state space");
        assert!(protected.all_reach_accurate);

        let adaptive = symbolic_cross_check(&ControllerSpec::adaptive()).expect("tiny");
        assert!(adaptive.all_reach_accurate);

        let unprotected = symbolic_cross_check(&ControllerSpec::single_mode_unprotected(
            AccuracyLevel::Level1,
        ))
        .expect("tiny state space");
        assert!(
            !unprotected.all_reach_accurate,
            "an unprotected single mode can never leave its level"
        );
    }

    #[test]
    fn liveness_bound_is_tight_enough_to_terminate() {
        // Sanity: the explored systems stay tiny, so exhaustive
        // per-state liveness walks are cheap.
        for spec in [
            ControllerSpec::adaptive(),
            ControllerSpec::single_mode_with_watchdog(AccuracyLevel::Level1, 3),
        ] {
            let ts = TransitionSystem::explore(&spec);
            assert!(ts.states().len() <= 200, "{}", ts.states().len());
            assert!(ts.edges().len() <= 800);
        }
    }
}
