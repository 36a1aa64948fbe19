//! The typed graph change feed handed from the graph to incremental
//! solvers (§6.2–6.3): [`GraphDelta`] batches that the graph compacts as
//! it mutates, and exact replay of a batch onto a snapshot.
//!
//! # The change-feed contract
//!
//! Two parties touch the feed:
//!
//! - **The graph records compacted deltas.** A [`FlowGraph`] with change
//!   tracking enabled folds every structural or pricing mutation
//!   (node/arc add/remove, cost, capacity, supply) and every
//!   flow-disturbance marker into a record per touched slot as it
//!   happens, and [`FlowGraph::take_deltas`] emits the batch and empties
//!   the recorder. Whoever owns the graph (the
//!   `FlowGraphManager` in `firmament-core`) takes one batch per
//!   scheduling round — *after* applying events and the dirty-node cost
//!   refresh, *before* handing the graph to the solver. Flow pushes are
//!   *not* recorded: between two solver handoffs every flow move the
//!   graph owner makes (path drains, rebalancing) preserves conservation
//!   except at nodes that also appear in the batch, so the batch plus the
//!   live flow state is enough to find every node whose excess may be
//!   non-zero.
//! - **The solver consumes.** An incremental solver warm-starts from the
//!   batch alone: the touched-node set, the reduced-cost violations, and
//!   the feasibility damage are all derivable from the deltas plus
//!   O(degree) local reads of the live graph — no full-graph diff against
//!   the warm state is needed.
//!
//! # Compaction rules
//!
//! Within one batch (one scheduling round):
//!
//! - an entity added and removed in the same round **cancels** (a task that
//!   arrived and completed between two solves never reaches the solver);
//!   cancellation relies on within-batch arcs never carrying flow, which
//!   holds because no solver runs inside a batch window;
//! - repeated cost/capacity/supply changes on a surviving entity **merge**
//!   end-to-end (first `old`, last `new`) and vanish when they net out,
//!   except that flow spilled by capacity clamps is accumulated — it is
//!   feasibility damage even when the capacity itself nets out;
//! - changes to an entity that is later removed are **absorbed** into the
//!   removal entry;
//! - surviving deltas are emitted in dependency order — arc removals, node
//!   removals, node additions, arc additions, then mutations — so a batch
//!   replays onto a pre-batch snapshot without ever referencing a dead or
//!   not-yet-created slot, even across id (slot) reuse.
//!
//! Replay ([`DeltaBatch::replay`]) reproduces the **structure** of the
//! live graph exactly — alive sets, ids, kinds, supplies, arc endpoints,
//! capacities, and costs. It does *not* reproduce flow (flow is carried by
//! the live graph, not the batch), so replayed capacity clamps may spill
//! differently than the live sequence did.

use crate::graph::{FlowGraph, GraphError};
use crate::ids::{ArcId, NodeId};
use crate::node::NodeKind;
use std::collections::HashMap;

/// One compacted graph change, as consumed by incremental solvers.
///
/// A batch of `GraphDelta`s contains at most one structural entry per
/// surviving entity and no entries at all for entities whose round trip
/// (add then remove) cancelled out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphDelta {
    /// A node exists now that did not exist at the last handoff.
    NodeAdded {
        /// The new node.
        node: NodeId,
        /// Its kind.
        kind: NodeKind,
        /// Its supply at the end of the batch.
        supply: i64,
    },
    /// A node from the last handoff is gone (its incident arc removals are
    /// emitted separately, earlier in the batch).
    NodeRemoved {
        /// The removed node.
        node: NodeId,
        /// The supply it had *at the last handoff* (not at removal time:
        /// in-batch supply changes are absorbed, and consumers balance
        /// end-state against pre-batch supplies).
        supply: i64,
    },
    /// A surviving node's supply changed.
    SupplyChanged {
        /// The affected node.
        node: NodeId,
        /// Supply at the last handoff.
        old: i64,
        /// Supply now.
        new: i64,
    },
    /// An arc exists now that did not exist at the last handoff.
    ArcAdded {
        /// Forward id of the new pair.
        arc: ArcId,
        /// Tail node.
        src: NodeId,
        /// Head node.
        dst: NodeId,
        /// Capacity at the end of the batch.
        capacity: i64,
        /// Cost at the end of the batch.
        cost: i64,
    },
    /// An arc from the last handoff is gone.
    ArcRemoved {
        /// Forward id of the removed pair.
        arc: ArcId,
        /// Tail node.
        src: NodeId,
        /// Head node.
        dst: NodeId,
        /// Capacity at removal.
        capacity: i64,
        /// Cost at removal.
        cost: i64,
        /// Flow it carried at removal (excess appears at both endpoints).
        flow: i64,
    },
    /// A surviving arc's cost changed.
    CostChanged {
        /// Forward id of the pair.
        arc: ArcId,
        /// Cost at the last handoff.
        old: i64,
        /// Cost now.
        new: i64,
    },
    /// A surviving arc's capacity changed (possibly netting to the same
    /// value, with intermediate flow spills).
    CapacityChanged {
        /// Forward id of the pair.
        arc: ArcId,
        /// Capacity at the last handoff.
        old: i64,
        /// Capacity now.
        new: i64,
        /// Total flow clamped off across the batch (feasibility damage).
        flow_spilled: i64,
    },
    /// Flow was moved at this surviving node outside a solver run (a
    /// [`FlowGraph::note_flow_disturbance`] marker, e.g. the terminus
    /// of a §5.3.2 drain), so its excess must be re-derived even though no
    /// structural delta names it. [`DeltaBatch::all_dirty`] names every
    /// live node this way. No replayable effect.
    FlowTouched {
        /// The node whose conservation may have been broken.
        node: NodeId,
    },
}

/// An arc pair's state as the recorder captures it: before the batch for
/// a surviving arc, at removal for a removed one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArcState {
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) capacity: i64,
    pub(crate) cost: i64,
}

/// What the recorder keeps for one touched node slot. The live slot
/// holds the current state, so only the pre-batch state and the
/// ordering sequence numbers are stored.
#[derive(Debug, Clone)]
struct NodeRecord {
    /// Supply before the batch, `None` if the slot was dead.
    before: Option<i64>,
    /// Sequence of the removal of the pre-batch incarnation.
    removed: Option<usize>,
    /// Sequence of the latest (re-)addition within the batch.
    added: Option<usize>,
    /// Sequence of the latest supply change.
    supply_changed: usize,
    /// Sequence of the first flow-disturbance marker.
    disturbed: Option<usize>,
}

/// What the recorder keeps for one touched arc slot (keyed by forward id).
#[derive(Debug, Clone)]
struct ArcRecord {
    /// State before the batch, `None` if the slot was dead.
    before: Option<ArcState>,
    /// Removal of the pre-batch incarnation: sequence, state and flow at
    /// removal.
    removed: Option<(usize, ArcState, i64)>,
    /// Sequence of the latest (re-)addition within the batch.
    added: Option<usize>,
    /// Sequence of the latest cost or capacity change.
    changed: usize,
    /// Flow clamped off by capacity changes across the batch.
    spilled: i64,
}

/// The emission categories, in dependency order (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    ArcRemoved,
    NodeRemoved,
    NodeAdded,
    ArcAdded,
    Mutated,
}

/// The per-slot fold a tracked [`FlowGraph`] updates on every recorded
/// mutation; [`FlowGraph::take_deltas`] turns it into a [`DeltaBatch`].
/// Empty after each take, so it never holds anything that grows with the
/// graph rather than with the batch.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaRecorder {
    /// Effective mutations recorded so far; also the sequence number of
    /// the next one.
    seq: usize,
    nodes: HashMap<NodeId, NodeRecord>,
    arcs: HashMap<ArcId, ArcRecord>,
}

impl DeltaRecorder {
    /// The record of `node`, created with pre-batch supply `before` on
    /// first touch, plus the sequence number of the mutation at hand.
    fn node(&mut self, node: NodeId, before: Option<i64>) -> (&mut NodeRecord, usize) {
        let seq = self.seq;
        self.seq += 1;
        let record = self.nodes.entry(node).or_insert(NodeRecord {
            before,
            removed: None,
            added: None,
            supply_changed: 0,
            disturbed: None,
        });
        (record, seq)
    }

    /// The arc counterpart of [`node`](Self::node).
    fn arc(&mut self, arc: ArcId, before: Option<ArcState>) -> (&mut ArcRecord, usize) {
        let seq = self.seq;
        self.seq += 1;
        let record = self.arcs.entry(arc).or_insert(ArcRecord {
            before,
            removed: None,
            added: None,
            changed: 0,
            spilled: 0,
        });
        (record, seq)
    }

    pub(crate) fn node_added(&mut self, node: NodeId) {
        let (r, seq) = self.node(node, None);
        r.added = Some(seq);
    }

    /// `supply` is the node's supply just before removal.
    pub(crate) fn node_removed(&mut self, node: NodeId, supply: i64) {
        let (r, seq) = self.node(node, Some(supply));
        // Removing the pre-batch incarnation is recorded; removing a
        // within-batch one cancels its addition.
        if r.before.is_some() && r.removed.is_none() {
            r.removed = Some(seq);
        }
    }

    pub(crate) fn supply_changed(&mut self, node: NodeId, old: i64) {
        let (r, seq) = self.node(node, Some(old));
        r.supply_changed = seq;
    }

    /// `supply` is the (alive) node's current supply.
    pub(crate) fn flow_disturbed(&mut self, node: NodeId, supply: i64) {
        let (r, seq) = self.node(node, Some(supply));
        r.disturbed.get_or_insert(seq);
    }

    pub(crate) fn arc_added(&mut self, arc: ArcId) {
        let (r, seq) = self.arc(arc, None);
        r.added = Some(seq);
    }

    /// `state` and `flow` are the arc's just before removal.
    pub(crate) fn arc_removed(&mut self, arc: ArcId, state: ArcState, flow: i64) {
        let (r, seq) = self.arc(arc, Some(state));
        if r.before.is_some() && r.removed.is_none() {
            r.removed = Some((seq, state, flow));
        } else {
            // Within-batch incarnation cancels; the contract guarantees it
            // never carried flow (no solver runs inside a batch window).
            debug_assert_eq!(
                flow, 0,
                "within-batch arc {arc} removed while carrying flow"
            );
        }
    }

    /// A cost or capacity change; `before` is the arc's state just before
    /// it, `spilled` the flow a capacity clamp removed.
    pub(crate) fn arc_changed(&mut self, arc: ArcId, before: ArcState, spilled: i64) {
        let (r, seq) = self.arc(arc, Some(before));
        r.changed = seq;
        r.spilled += spilled;
    }

    /// Compares every touched slot's record against the live `graph` and
    /// emits the surviving deltas in dependency order; within each
    /// category, by the sequence number of the defining mutation, so
    /// replay follows the live graph's slot-allocation history.
    pub(crate) fn finish(self, graph: &FlowGraph) -> DeltaBatch {
        let mut out: Vec<(Stage, usize, GraphDelta)> = Vec::new();
        for (&arc, r) in &self.arcs {
            if let Some((seq, s, flow)) = r.removed {
                out.push((
                    Stage::ArcRemoved,
                    seq,
                    GraphDelta::ArcRemoved {
                        arc,
                        src: s.src,
                        dst: s.dst,
                        capacity: s.capacity,
                        cost: s.cost,
                        flow,
                    },
                ));
                // Feasibility damage must survive removal: a capacity
                // clamp earlier in the batch spilled flow (excess at both
                // endpoints), but the removal records the *post-clamp*
                // flow — possibly 0 — so without these markers the
                // solver would never re-derive the endpoints' excesses.
                if r.spilled > 0 {
                    out.push((Stage::Mutated, seq, GraphDelta::FlowTouched { node: s.src }));
                    out.push((Stage::Mutated, seq, GraphDelta::FlowTouched { node: s.dst }));
                }
            }
            if !graph.arc_alive(arc) {
                continue;
            }
            let (capacity, cost) = (graph.capacity(arc), graph.cost(arc));
            match (r.added, r.before) {
                // (Re-)added within the batch.
                (Some(seq), _) => out.push((
                    Stage::ArcAdded,
                    seq,
                    GraphDelta::ArcAdded {
                        arc,
                        src: graph.src(arc),
                        dst: graph.dst(arc),
                        capacity,
                        cost,
                    },
                )),
                // Survived in place: merged mutations only.
                (None, Some(old)) => {
                    if old.cost != cost {
                        out.push((
                            Stage::Mutated,
                            r.changed,
                            GraphDelta::CostChanged {
                                arc,
                                old: old.cost,
                                new: cost,
                            },
                        ));
                    }
                    if old.capacity != capacity || r.spilled > 0 {
                        out.push((
                            Stage::Mutated,
                            r.changed,
                            GraphDelta::CapacityChanged {
                                arc,
                                old: old.capacity,
                                new: capacity,
                                flow_spilled: r.spilled,
                            },
                        ));
                    }
                }
                (None, None) => {}
            }
        }
        for (&node, r) in &self.nodes {
            if let (Some(supply), Some(seq)) = (r.before, r.removed) {
                // Report the pre-batch supply, not the removal-time one:
                // in-batch supply changes were absorbed into this entry,
                // and the solver's balance check sums end-state minus
                // pre-batch supplies.
                out.push((
                    Stage::NodeRemoved,
                    seq,
                    GraphDelta::NodeRemoved { node, supply },
                ));
            }
            if !graph.node_alive(node) {
                continue;
            }
            let supply = graph.supply(node);
            match (r.added, r.before) {
                // (Re-)added within the batch.
                (Some(seq), _) => out.push((
                    Stage::NodeAdded,
                    seq,
                    GraphDelta::NodeAdded {
                        node,
                        kind: graph.kind(node),
                        supply,
                    },
                )),
                // Survived in place: merged supply change and the first
                // flow-disturbance marker.
                (None, Some(old)) => {
                    if old != supply {
                        out.push((
                            Stage::Mutated,
                            r.supply_changed,
                            GraphDelta::SupplyChanged {
                                node,
                                old,
                                new: supply,
                            },
                        ));
                    }
                    if let Some(seq) = r.disturbed {
                        out.push((Stage::Mutated, seq, GraphDelta::FlowTouched { node }));
                    }
                }
                (None, None) => {}
            }
        }
        // Stable: the only ties are deltas of one record, pushed in order.
        out.sort_by_key(|&(stage, seq, _)| (stage, seq));
        DeltaBatch {
            deltas: out.into_iter().map(|(_, _, d)| d).collect(),
            raw_len: self.seq,
        }
    }
}

/// A compacted, replayable batch of graph changes covering one handoff
/// window (typically one scheduling round).
///
/// # Examples
///
/// ```
/// use firmament_flow::delta::GraphDelta;
/// use firmament_flow::{FlowGraph, NodeKind};
///
/// let mut g = FlowGraph::new();
/// g.set_change_tracking(true);
/// let t = g.add_node(NodeKind::Task { task: 0 }, 1);
/// let s = g.add_node(NodeKind::Sink, -1);
/// let a = g.add_arc(t, s, 1, 5).unwrap();
/// g.set_arc_cost(a, 7).unwrap();
/// // A node that comes and goes within the round cancels entirely.
/// let ghost = g.add_node(NodeKind::Other { tag: 9 }, 0);
/// g.remove_node(ghost).unwrap();
///
/// let batch = g.take_deltas();
/// assert_eq!(batch.raw_len(), 6);
/// // Two node adds + one arc add (with the final cost folded in).
/// assert_eq!(batch.len(), 3);
/// assert!(batch
///     .deltas()
///     .iter()
///     .any(|d| matches!(d, GraphDelta::ArcAdded { cost: 7, .. })));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    deltas: Vec<GraphDelta>,
    raw_len: usize,
}

impl DeltaBatch {
    /// An empty batch (what a quiescent round hands the solver).
    pub fn empty() -> Self {
        DeltaBatch::default()
    }

    /// A batch marking every live node of `graph` as
    /// [`GraphDelta::FlowTouched`]: the feed for a graph whose changes were
    /// not recorded, so a warm solver treats the whole graph as dirty. It
    /// carries no supply deltas, so it cannot vouch for supply balance.
    pub fn all_dirty(graph: &FlowGraph) -> Self {
        DeltaBatch {
            deltas: graph
                .node_ids()
                .map(|node| GraphDelta::FlowTouched { node })
                .collect(),
            raw_len: 0,
        }
    }

    /// The compacted deltas, in replay (dependency) order.
    pub fn deltas(&self) -> &[GraphDelta] {
        &self.deltas
    }

    /// Number of compacted deltas.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` if the batch carries no changes (a quiescent round).
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Number of effective graph mutations recorded into this batch, one
    /// per node/arc addition or removal (incident arc removals included),
    /// effective supply/cost/capacity change and flow-disturbance marker.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// Number of pure re-pricings ([`GraphDelta::CostChanged`]) in the
    /// batch — the deltas a convex-bundle segment re-price produces.
    /// Cheap for warm starts (no flow moved, no structure changed), so
    /// telemetry reports them separately from structural churn.
    pub fn cost_changes(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| matches!(d, GraphDelta::CostChanged { .. }))
            .count()
    }

    /// Replays the batch onto `graph`, which must be a snapshot of the
    /// state the batch was recorded against. Reproduces structure exactly
    /// (ids included); does not touch flow except where capacity clamps
    /// force it (see module docs).
    pub fn replay(&self, graph: &mut FlowGraph) -> Result<(), GraphError> {
        for d in &self.deltas {
            match *d {
                GraphDelta::ArcRemoved { arc, .. } => graph.remove_arc(arc)?,
                GraphDelta::NodeRemoved { node, .. } => {
                    graph.remove_node(node)?;
                }
                GraphDelta::NodeAdded { node, kind, supply } => {
                    graph.restore_node(node, kind, supply)?
                }
                GraphDelta::ArcAdded {
                    arc,
                    src,
                    dst,
                    capacity,
                    cost,
                } => graph.restore_arc(arc, src, dst, capacity, cost)?,
                GraphDelta::SupplyChanged { node, new, .. } => graph.set_supply(node, new)?,
                GraphDelta::CostChanged { arc, new, .. } => graph.set_arc_cost(arc, new)?,
                GraphDelta::CapacityChanged { arc, new, .. } => graph.set_arc_capacity(arc, new)?,
                GraphDelta::FlowTouched { .. } => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracked() -> FlowGraph {
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        g
    }

    /// Asserts that `replayed` and `live` are structurally identical slot
    /// by slot (ids, kinds, supplies, arc endpoints, capacities, costs).
    /// Bounds may differ only by trailing dead slots: entities that
    /// cancelled within a batch still grew the live arena, but never reach
    /// the replayed snapshot.
    fn assert_same_structure(replayed: &FlowGraph, live: &FlowGraph) {
        for i in 0..live.node_bound().max(replayed.node_bound()) {
            let n = NodeId::from_index(i);
            assert_eq!(replayed.node_alive(n), live.node_alive(n), "alive {n}");
            if live.node_alive(n) {
                assert_eq!(replayed.kind(n), live.kind(n), "kind {n}");
                assert_eq!(replayed.supply(n), live.supply(n), "supply {n}");
            }
        }
        for i in (0..live.arc_bound().max(replayed.arc_bound())).step_by(2) {
            let a = ArcId::from_index(i);
            assert_eq!(replayed.arc_alive(a), live.arc_alive(a), "alive {a}");
            if live.arc_alive(a) {
                assert_eq!(replayed.src(a), live.src(a), "src {a}");
                assert_eq!(replayed.dst(a), live.dst(a), "dst {a}");
                assert_eq!(replayed.capacity(a), live.capacity(a), "capacity {a}");
                assert_eq!(replayed.cost(a), live.cost(a), "cost {a}");
            }
        }
    }

    #[test]
    fn add_then_remove_cancels() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        g.take_deltas();
        let snapshot = g.clone();

        let ghost = g.add_node(NodeKind::Other { tag: 5 }, 0);
        let a = g.add_arc(t, ghost, 1, 3).unwrap();
        g.set_arc_cost(a, 9).unwrap();
        g.remove_node(ghost).unwrap();
        let batch = g.take_deltas();
        assert!(batch.is_empty(), "round-trip must cancel: {:?}", batch);

        let mut replayed = snapshot;
        batch.replay(&mut replayed).unwrap();
        assert_same_structure(&replayed, &g);
        let _ = s;
    }

    #[test]
    fn cost_and_capacity_changes_merge() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 5, 3).unwrap();
        g.take_deltas();

        g.set_arc_cost(a, 10).unwrap();
        g.set_arc_cost(a, 4).unwrap();
        g.set_arc_capacity(a, 2).unwrap();
        g.set_arc_capacity(a, 7).unwrap();
        let batch = g.take_deltas();
        assert_eq!(batch.len(), 2);
        assert!(batch.deltas().contains(&GraphDelta::CostChanged {
            arc: a,
            old: 3,
            new: 4
        }));
        assert!(batch.deltas().contains(&GraphDelta::CapacityChanged {
            arc: a,
            old: 5,
            new: 7,
            flow_spilled: 0
        }));
    }

    #[test]
    fn netted_out_changes_vanish_but_spill_survives() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 5, 3).unwrap();
        g.push_flow(a, 4);
        g.take_deltas();

        g.set_arc_cost(a, 10).unwrap();
        g.set_arc_cost(a, 3).unwrap();
        let batch = g.take_deltas();
        assert!(batch.is_empty(), "netted cost change must vanish");

        // Capacity 5 → 1 (spills 3 units) → 5 again: the capacity netted
        // out but the spilled flow is real damage and must be reported.
        g.set_arc_capacity(a, 1).unwrap();
        g.set_arc_capacity(a, 5).unwrap();
        let batch = g.take_deltas();
        assert_eq!(
            batch.deltas(),
            &[GraphDelta::CapacityChanged {
                arc: a,
                old: 5,
                new: 5,
                flow_spilled: 3
            }]
        );
    }

    #[test]
    fn removal_absorbs_prior_changes() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 5, 3).unwrap();
        g.take_deltas();
        let snapshot = g.clone();

        g.set_arc_cost(a, 10).unwrap();
        g.remove_arc(a).unwrap();
        let batch = g.take_deltas();
        assert_eq!(batch.len(), 1);
        assert!(matches!(
            batch.deltas()[0],
            GraphDelta::ArcRemoved { arc, cost: 10, .. } if arc == a
        ));
        let mut replayed = snapshot;
        batch.replay(&mut replayed).unwrap();
        assert_same_structure(&replayed, &g);
    }

    #[test]
    fn slot_reuse_across_removal_replays_exactly() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let s = g.add_node(NodeKind::Sink, -1);
        let tm = g.add_arc(t, m, 1, 2).unwrap();
        g.add_arc(m, s, 1, 0).unwrap();
        g.take_deltas();
        let snapshot = g.clone();

        // Remove the machine (freeing its node slot and both arc pairs),
        // then add a different machine that reuses the slot, plus an arc
        // reusing a freed pair.
        g.remove_node(m).unwrap();
        let m2 = g.add_node(NodeKind::Machine { machine: 9 }, 0);
        assert_eq!(m2, m, "slot reuse expected");
        let tm2 = g.add_arc(t, m2, 3, 8).unwrap();
        assert!(tm2 == tm || g.arc_alive(tm2));
        let batch = g.take_deltas();

        let mut replayed = snapshot;
        batch.replay(&mut replayed).unwrap();
        assert_same_structure(&replayed, &g);
    }

    #[test]
    fn reincarnated_node_emits_remove_then_add() {
        let mut g = tracked();
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        g.take_deltas();

        g.remove_node(m).unwrap();
        let m2 = g.add_node(NodeKind::Machine { machine: 7 }, 0);
        assert_eq!(m2, m);
        let batch = g.take_deltas();
        assert_eq!(batch.len(), 2);
        assert!(matches!(batch.deltas()[0], GraphDelta::NodeRemoved { .. }));
        assert!(matches!(
            batch.deltas()[1],
            GraphDelta::NodeAdded {
                kind: NodeKind::Machine { machine: 7 },
                ..
            }
        ));
    }

    /// The untracked-graph feed names every live node, and only live
    /// nodes, as flow-touched — and replays as a no-op.
    #[test]
    fn all_dirty_marks_every_live_node_and_replays_as_no_op() {
        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let gone = g.add_node(NodeKind::Other { tag: 2 }, 0);
        let s = g.add_node(NodeKind::Sink, -1);
        g.add_arc(t, s, 1, 3).unwrap();
        g.remove_node(gone).unwrap();

        let batch = DeltaBatch::all_dirty(&g);
        assert_eq!(batch.raw_len(), 0);
        assert_eq!(
            batch.deltas(),
            &[
                GraphDelta::FlowTouched { node: t },
                GraphDelta::FlowTouched { node: s },
            ]
        );
        let mut replayed = g.clone();
        batch.replay(&mut replayed).unwrap();
        assert_same_structure(&replayed, &g);
    }

    /// A capacity clamp that spills flow followed by removal of the same
    /// arc must still surface the endpoints (the spill is feasibility
    /// damage; the removal records the post-clamp flow of 0).
    #[test]
    fn spill_then_remove_still_marks_endpoints() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 5, 3).unwrap();
        g.push_flow(a, 4);
        g.take_deltas();

        g.set_arc_capacity(a, 0).unwrap(); // spills all 4 units
        g.remove_arc(a).unwrap(); // removal-time flow is 0
        let batch = g.take_deltas();
        assert!(matches!(
            batch.deltas()[0],
            GraphDelta::ArcRemoved { flow: 0, .. }
        ));
        let touched: Vec<NodeId> = batch
            .deltas()
            .iter()
            .filter_map(|d| match d {
                GraphDelta::FlowTouched { node } => Some(*node),
                _ => None,
            })
            .collect();
        assert!(touched.contains(&t), "spilled tail must be marked");
        assert!(touched.contains(&s), "spilled head must be marked");
    }

    /// A node whose supply changes and is then removed in the same batch
    /// must report its *pre-batch* supply, so end-state-minus-pre-batch
    /// balance sums stay exact.
    #[test]
    fn removed_node_reports_pre_batch_supply() {
        let mut g = tracked();
        let x = g.add_node(NodeKind::Task { task: 1 }, 3);
        let s = g.add_node(NodeKind::Sink, -3);
        g.take_deltas();

        g.set_supply(x, 7).unwrap();
        g.set_supply(s, -7).unwrap();
        g.remove_node(x).unwrap();
        g.set_supply(s, 0).unwrap();
        let batch = g.take_deltas();
        // Net supply delta across the batch: (removed x: -3) + (sink
        // -3 → 0: +3) = 0 — balanced, as the graph genuinely is.
        let mut delta = 0i64;
        for d in batch.deltas() {
            match *d {
                GraphDelta::NodeAdded { supply, .. } => delta += supply,
                GraphDelta::NodeRemoved { supply, .. } => delta -= supply,
                GraphDelta::SupplyChanged { old, new, .. } => delta += new - old,
                _ => {}
            }
        }
        assert_eq!(delta, 0, "batch must net to zero: {:?}", batch.deltas());
    }

    #[test]
    fn supply_changes_merge_end_to_end() {
        let mut g = tracked();
        let s = g.add_node(NodeKind::Sink, -3);
        g.take_deltas();
        g.set_supply(s, -4).unwrap();
        g.set_supply(s, -6).unwrap();
        let batch = g.take_deltas();
        assert_eq!(
            batch.deltas(),
            &[GraphDelta::SupplyChanged {
                node: s,
                old: -3,
                new: -6
            }]
        );
        g.set_supply(s, -2).unwrap();
        g.set_supply(s, -6).unwrap();
        assert!(g.take_deltas().is_empty());
    }

    #[test]
    fn new_node_supply_folds_into_added() {
        let mut g = tracked();
        g.add_node(NodeKind::Sink, 0);
        g.take_deltas();
        let t = g.add_node(NodeKind::Task { task: 3 }, 1);
        g.set_supply(t, 2).unwrap();
        let batch = g.take_deltas();
        assert_eq!(
            batch.deltas(),
            &[GraphDelta::NodeAdded {
                node: t,
                kind: NodeKind::Task { task: 3 },
                supply: 2
            }]
        );
    }

    #[test]
    fn randomized_mutation_scripts_replay_exactly() {
        use crate::testgen::XorShift64;
        for seed in 1..20u64 {
            let mut rng = XorShift64::new(seed);
            let mut g = tracked();
            let sink = g.add_node(NodeKind::Sink, 0);
            let mut machines = Vec::new();
            for i in 0..4 {
                let m = g.add_node(NodeKind::Machine { machine: i }, 0);
                g.add_arc(m, sink, 2, 0).unwrap();
                machines.push(m);
            }
            g.take_deltas();
            for round in 0..10 {
                let snapshot = g.clone();
                for _ in 0..(1 + rng.below(6)) {
                    match rng.below(6) {
                        0 => {
                            let t = g.add_node(
                                NodeKind::Task {
                                    task: rng.below(1 << 30),
                                },
                                1,
                            );
                            let m = machines[rng.below(machines.len() as u64) as usize];
                            if g.node_alive(m) {
                                g.add_arc(t, m, 1, rng.below(100) as i64).unwrap();
                            }
                        }
                        1 => {
                            let alive: Vec<NodeId> = g
                                .node_ids()
                                .filter(|&n| matches!(g.kind(n), NodeKind::Task { .. }))
                                .collect();
                            if let Some(&t) =
                                alive.get(rng.below((alive.len().max(1)) as u64) as usize)
                            {
                                g.remove_node(t).unwrap();
                            }
                        }
                        2 | 3 => {
                            let arcs: Vec<ArcId> = g.arc_ids().collect();
                            if let Some(&a) = arcs.get(rng.below(arcs.len().max(1) as u64) as usize)
                            {
                                g.set_arc_cost(a, rng.below(200) as i64 - 100).unwrap();
                            }
                        }
                        4 => {
                            let arcs: Vec<ArcId> = g.arc_ids().collect();
                            if let Some(&a) = arcs.get(rng.below(arcs.len().max(1) as u64) as usize)
                            {
                                g.set_arc_capacity(a, rng.below(5) as i64).unwrap();
                            }
                        }
                        _ => {
                            g.set_supply(sink, -(rng.below(10) as i64)).unwrap();
                        }
                    }
                }
                let batch = g.take_deltas();
                let mut replayed = snapshot;
                batch
                    .replay(&mut replayed)
                    .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));
                assert_same_structure(&replayed, &g);
            }
        }
    }
}
