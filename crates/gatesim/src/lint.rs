//! Structural netlist linting.
//!
//! The linter runs a catalog of structural passes over a [`Netlist`] and
//! emits machine-readable [`LintDiagnostic`]s — each with a severity, the
//! offending node's path, and a suggested fix. It complements
//! [`Netlist::validate`]: `validate` rejects netlists that are unsafe to
//! simulate (dangling ids, cycles-by-forward-reference, inconsistent
//! input lists), while the linter *also* reports quality findings that
//! are legal but suspicious — dead gates, floating inputs,
//! constant-driven outputs, fanout and depth budget overruns.
//!
//! Because netlists built through the ordinary builders are append-only
//! DAGs, the graph-shape errors (cycles, dangling references) can only
//! arise via [`Netlist::from_parts`] — deserialized netlists and test
//! fixtures. The optimizer runs the linter as a post-pass and asserts it
//! never introduces regressions.
//!
//! # Example
//!
//! ```
//! use gatesim::Netlist;
//!
//! let mut nl = Netlist::new();
//! let a = nl.input("a");
//! let b = nl.input("b");
//! let y = nl.and2(a, b);
//! let _orphan = nl.or2(a, b); // never reaches an output
//! nl.mark_output(y, "y");
//!
//! let report = nl.lint();
//! assert!(report.is_clean()); // no errors…
//! assert_eq!(report.warning_count(), 1); // …but the dead gate is flagged
//! ```

use std::collections::HashMap;

use crate::gate::GateKind;
use crate::netlist::{Netlist, NodeId};

/// How serious a [`LintDiagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but simulatable: dead logic, budget overruns.
    Warning,
    /// Structurally broken: the netlist cannot be simulated reliably.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The lint pass that produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintPass {
    /// A gate or output references a node id outside the netlist.
    DanglingReference,
    /// The graph contains a combinational cycle.
    CombinationalCycle,
    /// The primary-input list disagrees with the `Input`-kind nodes, so
    /// some node would never be driven by the simulator.
    UndrivenNode,
    /// Two primary outputs (error) or inputs (warning) share a name.
    NameCollision,
    /// A gate's value can never reach a primary output.
    DeadGate,
    /// A primary input feeds no logic cone of any output.
    FloatingInput,
    /// A primary output is driven by a constant (possibly via buffers).
    ConstantOutput,
    /// A node's fanout exceeds [`LintConfig::max_fanout`].
    FanoutBudget,
    /// An output's logic depth exceeds [`LintConfig::max_depth`].
    DepthBudget,
}

impl LintPass {
    /// Kebab-case mnemonic, e.g. `combinational-cycle`.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            LintPass::DanglingReference => "dangling-reference",
            LintPass::CombinationalCycle => "combinational-cycle",
            LintPass::UndrivenNode => "undriven-node",
            LintPass::NameCollision => "name-collision",
            LintPass::DeadGate => "dead-gate",
            LintPass::FloatingInput => "floating-input",
            LintPass::ConstantOutput => "constant-output",
            LintPass::FanoutBudget => "fanout-budget",
            LintPass::DepthBudget => "depth-budget",
        }
    }

    /// All passes, in catalog order.
    #[must_use]
    pub const fn all() -> [LintPass; 9] {
        [
            LintPass::DanglingReference,
            LintPass::CombinationalCycle,
            LintPass::UndrivenNode,
            LintPass::NameCollision,
            LintPass::DeadGate,
            LintPass::FloatingInput,
            LintPass::ConstantOutput,
            LintPass::FanoutBudget,
            LintPass::DepthBudget,
        ]
    }
}

impl std::fmt::Display for LintPass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single finding from a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintDiagnostic {
    /// Which pass fired.
    pub pass: LintPass,
    /// How serious the finding is.
    pub severity: Severity,
    /// The primary offending node, when one exists.
    pub node: Option<NodeId>,
    /// Human-readable location, e.g. `n17 (maj)` or `output "cout"`.
    pub path: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

impl std::fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {} (help: {})",
            self.severity, self.pass, self.path, self.message, self.suggestion
        )
    }
}

/// Budgets for the resource-oriented passes.
///
/// The defaults are sized so every netlist the workspace ships — up to
/// the 64-bit ripple-carry adder, whose carry chain is the deepest
/// structure here — passes without findings, while an accidental
/// quadratic blow-up trips them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Maximum fanout any single node may have.
    pub max_fanout: usize,
    /// Maximum logic depth (gates on the longest input→output path).
    pub max_depth: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            max_fanout: 64,
            max_depth: 256,
        }
    }
}

/// The collected findings of a lint run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<LintDiagnostic>,
}

impl LintReport {
    /// All findings, in pass-catalog order.
    #[must_use]
    pub fn diagnostics(&self) -> &[LintDiagnostic] {
        &self.diagnostics
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` if no error-severity findings were produced (warnings are
    /// allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Findings per pass, for regression comparisons.
    #[must_use]
    pub fn counts_by_pass(&self) -> HashMap<LintPass, usize> {
        let mut counts = HashMap::new();
        for d in &self.diagnostics {
            *counts.entry(d.pass).or_insert(0) += 1;
        }
        counts
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "lint: clean");
        }
        writeln!(
            f,
            "lint: {} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl Netlist {
    /// Run the full lint catalog with the default [`LintConfig`].
    #[must_use]
    pub fn lint(&self) -> LintReport {
        lint_with_config(self, &LintConfig::default())
    }
}

/// Run the full lint catalog with the default [`LintConfig`].
#[must_use]
pub fn lint(netlist: &Netlist) -> LintReport {
    lint_with_config(netlist, &LintConfig::default())
}

fn node_path(netlist: &Netlist, id: NodeId) -> String {
    let node = &netlist.nodes()[id.index()];
    match node.name() {
        Some(name) => format!("{id} ({} {name:?})", node.kind()),
        None => format!("{id} ({})", node.kind()),
    }
}

fn id_of(idx: usize) -> NodeId {
    NodeId::from_raw(u32::try_from(idx).expect("netlist larger than u32 nodes"))
}

/// Run the full lint catalog with an explicit configuration.
#[must_use]
pub fn lint_with_config(netlist: &Netlist, config: &LintConfig) -> LintReport {
    let mut diagnostics = Vec::new();
    let len = netlist.len();
    let nodes = netlist.nodes();
    let in_range = |id: NodeId| id.index() < len;

    // --- dangling-reference: gate fan-ins and primary outputs -----------
    let mut structurally_sound = true;
    for (idx, node) in nodes.iter().enumerate() {
        for &input in node.inputs() {
            if !in_range(input) {
                structurally_sound = false;
                diagnostics.push(LintDiagnostic {
                    pass: LintPass::DanglingReference,
                    severity: Severity::Error,
                    node: Some(id_of(idx)),
                    path: node_path(netlist, id_of(idx)),
                    message: format!(
                        "fan-in references node id {} but the netlist has {len} nodes",
                        input.index()
                    ),
                    suggestion: "rebuild the netlist through the builder API, which \
                                 rejects foreign node ids"
                        .into(),
                });
            }
        }
    }
    for (id, name) in netlist.primary_outputs() {
        if !in_range(*id) {
            structurally_sound = false;
            diagnostics.push(LintDiagnostic {
                pass: LintPass::DanglingReference,
                severity: Severity::Error,
                node: None,
                path: format!("output {name:?}"),
                message: format!(
                    "references node id {} but the netlist has {len} nodes",
                    id.index()
                ),
                suggestion: "mark an existing node as the output instead".into(),
            });
        }
    }

    // --- undriven-node: input list vs Input-kind nodes ------------------
    let mut listed = vec![false; len];
    for id in netlist.primary_inputs() {
        if !in_range(*id) {
            structurally_sound = false;
            diagnostics.push(LintDiagnostic {
                pass: LintPass::DanglingReference,
                severity: Severity::Error,
                node: None,
                path: format!("primary-input list entry {id}"),
                message: format!("references node id {} past the netlist end", id.index()),
                suggestion: "drop the stale entry from the input list".into(),
            });
            continue;
        }
        if nodes[id.index()].kind() != GateKind::Input {
            diagnostics.push(LintDiagnostic {
                pass: LintPass::UndrivenNode,
                severity: Severity::Error,
                node: Some(*id),
                path: node_path(netlist, *id),
                message: "listed as a primary input but is not an Input node".into(),
                suggestion: "list only Input-kind nodes as primary inputs".into(),
            });
        } else {
            listed[id.index()] = true;
        }
    }
    for (idx, node) in nodes.iter().enumerate() {
        if node.kind() == GateKind::Input && !listed[idx] {
            diagnostics.push(LintDiagnostic {
                pass: LintPass::UndrivenNode,
                severity: Severity::Error,
                node: Some(id_of(idx)),
                path: node_path(netlist, id_of(idx)),
                message: "Input node is missing from the primary-input list and would \
                          never be driven"
                    .into(),
                suggestion: "append the node to the primary-input list".into(),
            });
        }
    }

    // --- name-collision --------------------------------------------------
    let mut seen_outputs: HashMap<&str, usize> = HashMap::new();
    for (_, name) in netlist.primary_outputs() {
        *seen_outputs.entry(name.as_str()).or_insert(0) += 1;
    }
    let mut dup_outputs: Vec<&str> = seen_outputs
        .iter()
        .filter(|(_, &c)| c > 1)
        .map(|(&n, _)| n)
        .collect();
    dup_outputs.sort_unstable();
    for name in dup_outputs {
        diagnostics.push(LintDiagnostic {
            pass: LintPass::NameCollision,
            severity: Severity::Error,
            node: None,
            path: format!("output {name:?}"),
            message: format!("{} outputs share this name", seen_outputs[name]),
            suggestion: "give each primary output a unique name".into(),
        });
    }
    let mut seen_inputs: HashMap<&str, usize> = HashMap::new();
    for id in netlist.primary_inputs() {
        if in_range(*id) {
            if let Some(name) = nodes[id.index()].name() {
                *seen_inputs.entry(name).or_insert(0) += 1;
            }
        }
    }
    let mut dup_inputs: Vec<&str> = seen_inputs
        .iter()
        .filter(|(_, &c)| c > 1)
        .map(|(&n, _)| n)
        .collect();
    dup_inputs.sort_unstable();
    for name in dup_inputs {
        diagnostics.push(LintDiagnostic {
            pass: LintPass::NameCollision,
            severity: Severity::Warning,
            node: None,
            path: format!("input {name:?}"),
            message: format!("{} inputs share this name", seen_inputs[name]),
            suggestion: "give each primary input a unique name".into(),
        });
    }

    // --- combinational-cycle ---------------------------------------------
    // Iterative three-color DFS over in-range edges; needed because
    // `from_parts` permits forward references.
    let mut acyclic = true;
    if structurally_sound {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; len];
        for root in 0..len {
            if color[root] != WHITE {
                continue;
            }
            // Stack of (node, next-child-index); `path` mirrors the gray chain.
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            color[root] = GRAY;
            let mut path = vec![root];
            while let Some(&mut (idx, ref mut child)) = stack.last_mut() {
                let fanins = nodes[idx].inputs();
                if *child < fanins.len() {
                    let next = fanins[*child].index();
                    *child += 1;
                    match color[next] {
                        WHITE => {
                            color[next] = GRAY;
                            stack.push((next, 0));
                            path.push(next);
                        }
                        GRAY => {
                            acyclic = false;
                            let start = path.iter().position(|&p| p == next).unwrap_or(0);
                            let cycle: Vec<String> = path[start..]
                                .iter()
                                .chain(std::iter::once(&next))
                                .map(|&p| id_of(p).to_string())
                                .collect();
                            diagnostics.push(LintDiagnostic {
                                pass: LintPass::CombinationalCycle,
                                severity: Severity::Error,
                                node: Some(id_of(next)),
                                path: node_path(netlist, id_of(next)),
                                message: format!("combinational cycle: {}", cycle.join(" → ")),
                                suggestion: "break the loop (combinational netlists \
                                             must be acyclic)"
                                    .into(),
                            });
                        }
                        _ => {}
                    }
                } else {
                    color[idx] = BLACK;
                    stack.pop();
                    path.pop();
                }
            }
        }
    }

    // The remaining passes assume a structurally sound, acyclic graph.
    if !structurally_sound || !acyclic {
        return LintReport { diagnostics };
    }

    // --- dead-gate / floating-input: reachability from the outputs -------
    let mut reachable = vec![false; len];
    let mut queue: Vec<usize> = netlist
        .primary_outputs()
        .iter()
        .map(|(id, _)| id.index())
        .collect();
    while let Some(idx) = queue.pop() {
        if reachable[idx] {
            continue;
        }
        reachable[idx] = true;
        for &input in nodes[idx].inputs() {
            if !reachable[input.index()] {
                queue.push(input.index());
            }
        }
    }
    for (idx, node) in nodes.iter().enumerate() {
        if reachable[idx] {
            continue;
        }
        if node.kind() == GateKind::Input {
            diagnostics.push(LintDiagnostic {
                pass: LintPass::FloatingInput,
                severity: Severity::Warning,
                node: Some(id_of(idx)),
                path: node_path(netlist, id_of(idx)),
                message: "primary input reaches no primary output".into(),
                suggestion: "remove the input or connect it to live logic".into(),
            });
        } else {
            diagnostics.push(LintDiagnostic {
                pass: LintPass::DeadGate,
                severity: Severity::Warning,
                node: Some(id_of(idx)),
                path: node_path(netlist, id_of(idx)),
                message: "gate reaches no primary output".into(),
                suggestion: "remove it (optimize() strips dead logic)".into(),
            });
        }
    }

    // --- constant-output: follow buffer chains to a constant -------------
    for (id, name) in netlist.primary_outputs() {
        let mut cur = *id;
        while nodes[cur.index()].kind() == GateKind::Buf {
            cur = nodes[cur.index()].inputs()[0];
        }
        let kind = nodes[cur.index()].kind();
        if matches!(kind, GateKind::Const0 | GateKind::Const1) {
            diagnostics.push(LintDiagnostic {
                pass: LintPass::ConstantOutput,
                severity: Severity::Warning,
                node: Some(*id),
                path: format!("output {name:?}"),
                message: format!("stuck at constant ({kind})"),
                suggestion: "check the logic cone; a primary output should depend \
                             on at least one input"
                    .into(),
            });
        }
    }

    // --- fanout-budget ----------------------------------------------------
    let mut fanout = vec![0usize; len];
    for node in nodes {
        for &input in node.inputs() {
            fanout[input.index()] += 1;
        }
    }
    for (id, _) in netlist.primary_outputs() {
        fanout[id.index()] += 1;
    }
    for (idx, &count) in fanout.iter().enumerate() {
        if count > config.max_fanout {
            diagnostics.push(LintDiagnostic {
                pass: LintPass::FanoutBudget,
                severity: Severity::Warning,
                node: Some(id_of(idx)),
                path: node_path(netlist, id_of(idx)),
                message: format!("fanout {count} exceeds the budget of {}", config.max_fanout),
                suggestion: "insert buffers or restructure the cone".into(),
            });
        }
    }

    // --- depth-budget -----------------------------------------------------
    // Longest input→output path counting logic gates. Memoized iterative
    // post-order (insertion order need not be topological for
    // `from_parts` netlists, but the graph is acyclic here).
    let mut depth: Vec<Option<usize>> = vec![None; len];
    for root in 0..len {
        if depth[root].is_some() {
            continue;
        }
        let mut stack = vec![(root, false)];
        while let Some((idx, expanded)) = stack.pop() {
            if depth[idx].is_some() {
                continue;
            }
            let fanins = nodes[idx].inputs();
            if expanded || fanins.is_empty() {
                let max_in = fanins
                    .iter()
                    .map(|i| depth[i.index()].expect("children resolved"))
                    .max()
                    .unwrap_or(0);
                depth[idx] = Some(max_in + usize::from(!fanins.is_empty()));
            } else {
                stack.push((idx, true));
                for &input in fanins {
                    if depth[input.index()].is_none() {
                        stack.push((input.index(), false));
                    }
                }
            }
        }
    }
    let deepest = netlist
        .primary_outputs()
        .iter()
        .map(|(id, name)| (depth[id.index()].unwrap_or(0), id, name))
        .max_by_key(|(d, _, _)| *d);
    if let Some((d, id, name)) = deepest {
        if d > config.max_depth {
            diagnostics.push(LintDiagnostic {
                pass: LintPass::DepthBudget,
                severity: Severity::Warning,
                node: Some(*id),
                path: format!("output {name:?}"),
                message: format!("logic depth {d} exceeds the budget of {}", config.max_depth),
                suggestion: "use a parallel-prefix structure or raise \
                             LintConfig::max_depth"
                    .into(),
            });
        }
    }

    LintReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::netlist::Node;

    #[test]
    fn shipped_adders_are_spotless() {
        for width in [4usize, 16, 32, 64] {
            let (nl, _) = builders::ripple_carry_adder(width);
            let report = nl.lint();
            assert!(report.diagnostics.is_empty(), "rca{width}: {report}");
            let (nl, _) = builders::modular_adder(width);
            let report = nl.lint();
            assert!(report.diagnostics.is_empty(), "mod{width}: {report}");
        }
    }

    #[test]
    fn dead_gate_is_flagged() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let live = nl.and2(a, b);
        let _dead = nl.xor2(a, b);
        nl.mark_output(live, "y");
        let report = nl.lint();
        assert!(report.is_clean());
        let dead: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == LintPass::DeadGate)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].severity, Severity::Warning);
        assert!(dead[0].path.contains("xor"));
    }

    #[test]
    fn floating_input_is_flagged() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let _unused = nl.input("b");
        let y = nl.not(a);
        nl.mark_output(y, "y");
        let report = nl.lint();
        let floats: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == LintPass::FloatingInput)
            .collect();
        assert_eq!(floats.len(), 1);
        assert!(floats[0].path.contains("\"b\""));
    }

    #[test]
    fn combinational_cycle_is_detected() {
        // n0 = input, n1 = and(n0, n2), n2 = not(n1): a 2-gate loop only
        // expressible through from_parts.
        let nodes = vec![
            Node::new(GateKind::Input, &[], Some("a".into())),
            Node::new(
                GateKind::And2,
                &[NodeId::from_raw(0), NodeId::from_raw(2)],
                None,
            ),
            Node::new(GateKind::Not, &[NodeId::from_raw(1)], None),
        ];
        let nl = Netlist::from_parts(
            nodes,
            vec![NodeId::from_raw(0)],
            vec![(NodeId::from_raw(2), "y".into())],
        );
        assert!(nl.validate().is_err(), "forward refs must fail validate");
        let report = nl.lint();
        assert!(!report.is_clean());
        let cycles: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == LintPass::CombinationalCycle)
            .collect();
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].message.contains("→"), "{}", cycles[0].message);
    }

    #[test]
    fn dangling_reference_is_detected() {
        let nodes = vec![
            Node::new(GateKind::Input, &[], Some("a".into())),
            Node::new(
                GateKind::And2,
                &[NodeId::from_raw(0), NodeId::from_raw(99)],
                None,
            ),
        ];
        let nl = Netlist::from_parts(
            nodes,
            vec![NodeId::from_raw(0)],
            vec![(NodeId::from_raw(1), "y".into())],
        );
        let report = nl.lint();
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics()[0].pass, LintPass::DanglingReference);
    }

    #[test]
    fn undriven_input_node_is_detected() {
        // An Input node that is not in the primary-input list.
        let nodes = vec![
            Node::new(GateKind::Input, &[], Some("a".into())),
            Node::new(GateKind::Input, &[], Some("ghost".into())),
            Node::new(
                GateKind::Or2,
                &[NodeId::from_raw(0), NodeId::from_raw(1)],
                None,
            ),
        ];
        let nl = Netlist::from_parts(
            nodes,
            vec![NodeId::from_raw(0)],
            vec![(NodeId::from_raw(2), "y".into())],
        );
        let report = nl.lint();
        let undriven: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == LintPass::UndrivenNode)
            .collect();
        assert_eq!(undriven.len(), 1);
        assert_eq!(undriven[0].severity, Severity::Error);
        assert!(undriven[0].path.contains("ghost"));
    }

    #[test]
    fn constant_output_is_flagged_through_buffers() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let y = nl.buf(a);
        nl.mark_output(y, "ok");
        let c = nl.constant(true);
        let cb = nl.buf(c);
        nl.mark_output(cb, "stuck");
        let report = nl.lint();
        let constants: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == LintPass::ConstantOutput)
            .collect();
        assert_eq!(constants.len(), 1);
        assert!(constants[0].path.contains("stuck"));
    }

    #[test]
    fn name_collisions_are_reported_at_both_severities() {
        let mut nl = Netlist::new();
        let a = nl.input("x");
        let b = nl.input("x");
        let y = nl.and2(a, b);
        nl.mark_output(y, "y");
        nl.mark_output(y, "y");
        let report = nl.lint();
        let collisions: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.pass == LintPass::NameCollision)
            .collect();
        assert_eq!(collisions.len(), 2);
        assert!(collisions
            .iter()
            .any(|d| d.severity == Severity::Error && d.path.contains("output")));
        assert!(collisions
            .iter()
            .any(|d| d.severity == Severity::Warning && d.path.contains("input")));
    }

    #[test]
    fn budgets_trip_on_tiny_limits() {
        let (nl, _) = builders::ripple_carry_adder(8);
        let tight = LintConfig {
            max_fanout: 1,
            max_depth: 2,
        };
        let report = lint_with_config(&nl, &tight);
        assert!(report.is_clean(), "budgets are warnings, not errors");
        let passes = report.counts_by_pass();
        assert!(passes.get(&LintPass::FanoutBudget).copied().unwrap_or(0) > 0);
        assert_eq!(passes.get(&LintPass::DepthBudget).copied(), Some(1));
    }

    #[test]
    fn regression_comparison_detects_new_findings() {
        let mut clean = Netlist::new();
        let a = clean.input("a");
        let y = clean.not(a);
        clean.mark_output(y, "y");
        let mut dirty = clean.clone();
        let _dead = dirty.buf(a);
        // The per-pass counts a before/after comparison reads: the
        // dead buffer is the one new finding.
        assert!(clean.lint().counts_by_pass().is_empty());
        let after = dirty.lint().counts_by_pass();
        assert_eq!(after.values().sum::<usize>(), 1);
        assert_eq!(after.get(&LintPass::DeadGate), Some(&1));
    }

    #[test]
    fn diagnostics_render_with_severity_pass_and_help() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let _dead = nl.not(a);
        let y = nl.buf(a);
        nl.mark_output(y, "y");
        let report = nl.lint();
        let text = report.to_string();
        assert!(text.contains("warning[dead-gate]"), "{text}");
        assert!(text.contains("help:"), "{text}");
    }
}
