//! The mutable flow-network representation shared by all MCMF solvers.
//!
//! Arcs are stored in forward/reverse *residual* pairs in a flat arena, which
//! is the layout min-cost max-flow algorithms want: pushing `δ` units along a
//! residual arc `a` decrements `rescap(a)` and increments `rescap(a.sister())`
//! without any branching on direction. Node adjacency lists hold residual
//! arcs of both directions, so a single slice walk visits every residual arc
//! out of a node.

use crate::delta::{ArcState, DeltaBatch, DeltaRecorder};
use crate::ids::{ArcId, NodeId};
use crate::node::NodeKind;

/// Internal node storage.
#[derive(Debug, Clone)]
struct NodeSlot {
    alive: bool,
    kind: NodeKind,
    supply: i64,
}

/// Internal residual-arc storage.
///
/// Every pair uses two consecutive slots; slot `2k` is the forward arc and
/// `2k + 1` the reverse. `capacity` is only meaningful on the forward slot.
#[derive(Debug, Clone)]
struct ArcSlot {
    alive: bool,
    src: NodeId,
    dst: NodeId,
    /// Cost of sending one unit along this residual direction (reverse slots
    /// hold the negated forward cost).
    cost: i64,
    /// Remaining capacity in this residual direction.
    rescap: i64,
    /// Original capacity of the pair (forward slot only; 0 on reverse).
    capacity: i64,
}

/// A directed flow network with costs, capacities, and node supplies.
///
/// This is the `G = (N, A)` of §4: each arc `(i, j)` has a cost `c_ij` and
/// capacity `u_ij`; each node has a supply `b(i)` (positive for sources,
/// negative for sinks). Flow state lives *in* the graph (as residual
/// capacities), so solvers mutate the graph they solve and placement
/// extraction reads the flow back out.
///
/// # Examples
///
/// ```
/// use firmament_flow::{FlowGraph, NodeKind};
///
/// let mut g = FlowGraph::new();
/// let t = g.add_node(NodeKind::Task { task: 0 }, 1);
/// let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
/// let s = g.add_node(NodeKind::Sink, -1);
/// let tm = g.add_arc(t, m, 1, 5).unwrap();
/// let ms = g.add_arc(m, s, 1, 0).unwrap();
/// g.push_flow(tm, 1);
/// g.push_flow(ms, 1);
/// assert_eq!(g.flow(tm), 1);
/// assert_eq!(g.objective(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    nodes: Vec<NodeSlot>,
    arcs: Vec<ArcSlot>,
    adj: Vec<Vec<ArcId>>,
    free_nodes: Vec<NodeId>,
    /// Base (even) indices of freed arc pairs.
    free_arc_pairs: Vec<u32>,
    alive_nodes: usize,
    alive_arc_pairs: usize,
    track_changes: bool,
    recorder: DeltaRecorder,
}

/// Errors returned by graph mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The referenced node is not alive.
    DeadNode(NodeId),
    /// The referenced arc is not alive.
    DeadArc(ArcId),
    /// A self-loop arc was requested, which scheduling graphs never contain.
    SelfLoop(NodeId),
    /// A negative capacity was requested.
    NegativeCapacity(i64),
    /// A restore targeted a node slot that is currently alive.
    OccupiedNode(NodeId),
    /// A restore targeted an arc slot that is currently alive.
    OccupiedArc(ArcId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DeadNode(n) => write!(f, "node {n} is not alive"),
            GraphError::DeadArc(a) => write!(f, "arc {a} is not alive"),
            GraphError::SelfLoop(n) => write!(f, "self-loop on {n} is not allowed"),
            GraphError::NegativeCapacity(c) => write!(f, "negative capacity {c}"),
            GraphError::OccupiedNode(n) => write!(f, "node slot {n} is occupied"),
            GraphError::OccupiedArc(a) => write!(f, "arc slot {a} is occupied"),
        }
    }
}

impl std::error::Error for GraphError {}

impl FlowGraph {
    /// Creates an empty flow network.
    pub fn new() -> Self {
        FlowGraph::default()
    }

    /// Creates an empty flow network with room for `nodes` nodes and `arcs`
    /// arc pairs.
    pub fn with_capacity(nodes: usize, arcs: usize) -> Self {
        FlowGraph {
            nodes: Vec::with_capacity(nodes),
            arcs: Vec::with_capacity(arcs * 2),
            adj: Vec::with_capacity(nodes),
            ..FlowGraph::default()
        }
    }

    /// Enables or disables recording of the change feed consumed by
    /// incremental solvers. Turning it off suspends recording and keeps
    /// the pending batch; mutations made meanwhile are not recorded.
    pub fn set_change_tracking(&mut self, on: bool) {
        self.track_changes = on;
    }

    /// Returns `true` if mutations are being recorded.
    pub fn tracks_changes(&self) -> bool {
        self.track_changes
    }

    /// Emits the compacted batch of changes recorded since the last call
    /// and empties the recorder (see [`crate::delta`] for the rules).
    pub fn take_deltas(&mut self) -> DeltaBatch {
        std::mem::take(&mut self.recorder).finish(self)
    }

    #[inline]
    fn record(&mut self, f: impl FnOnce(&mut DeltaRecorder)) {
        if self.track_changes {
            f(&mut self.recorder);
        }
    }

    /// The recordable state of a live arc pair (forward id).
    fn arc_state(&self, fwd: ArcId) -> ArcState {
        let a = &self.arcs[fwd.index()];
        ArcState {
            src: a.src,
            dst: a.dst,
            capacity: a.capacity,
            cost: a.cost,
        }
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Adds a node with the given kind and supply, reusing a free slot if one
    /// exists, and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, supply: i64) -> NodeId {
        let id = if let Some(id) = self.free_nodes.pop() {
            let slot = &mut self.nodes[id.index()];
            debug_assert!(!slot.alive);
            *slot = NodeSlot {
                alive: true,
                kind,
                supply,
            };
            self.adj[id.index()].clear();
            id
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(NodeSlot {
                alive: true,
                kind,
                supply,
            });
            self.adj.push(Vec::new());
            id
        };
        self.alive_nodes += 1;
        self.record(|r| r.node_added(id));
        id
    }

    /// Removes a node and every arc incident to it.
    ///
    /// Returns the list of removed arc pairs (forward ids) so callers such as
    /// the incremental solvers can account for disrupted flow. The incident
    /// arc removals are recorded *before* the node removal.
    pub fn remove_node(&mut self, node: NodeId) -> Result<Vec<ArcId>, GraphError> {
        self.check_node(node)?;
        let incident: Vec<ArcId> = self.adj[node.index()].clone();
        let mut removed = Vec::with_capacity(incident.len());
        for a in incident {
            let fwd = a.forward();
            if self.arcs[fwd.index()].alive {
                self.remove_arc(fwd)?;
                removed.push(fwd);
            }
        }
        let slot = &mut self.nodes[node.index()];
        slot.alive = false;
        let supply = slot.supply;
        slot.supply = 0;
        self.alive_nodes -= 1;
        self.free_nodes.push(node);
        self.record(|r| r.node_removed(node, supply));
        Ok(removed)
    }

    /// Revives a node in an exact slot — the id-faithful insertion used by
    /// delta replay ([`crate::delta::DeltaBatch::replay`]): unlike
    /// [`add_node`](Self::add_node), which allocates from the free list,
    /// this places the node at `node` regardless of allocation history, so
    /// a replayed snapshot reproduces the live graph's ids exactly.
    ///
    /// Fails with [`GraphError::OccupiedNode`] if the slot is alive. Slots
    /// between the current bound and `node` are created dead (they mirror
    /// live slots whose occupants cancelled out within the batch).
    pub fn restore_node(
        &mut self,
        node: NodeId,
        kind: NodeKind,
        supply: i64,
    ) -> Result<(), GraphError> {
        while self.nodes.len() <= node.index() {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(NodeSlot {
                alive: false,
                kind: NodeKind::Sink,
                supply: 0,
            });
            self.adj.push(Vec::new());
            if id != node {
                self.free_nodes.push(id);
            }
        }
        if self.nodes[node.index()].alive {
            return Err(GraphError::OccupiedNode(node));
        }
        if let Some(pos) = self.free_nodes.iter().position(|&n| n == node) {
            self.free_nodes.swap_remove(pos);
        }
        self.nodes[node.index()] = NodeSlot {
            alive: true,
            kind,
            supply,
        };
        self.adj[node.index()].clear();
        self.alive_nodes += 1;
        self.record(|r| r.node_added(node));
        Ok(())
    }

    /// Changes the supply of a node.
    pub fn set_supply(&mut self, node: NodeId, supply: i64) -> Result<(), GraphError> {
        self.check_node(node)?;
        let old = self.nodes[node.index()].supply;
        if old != supply {
            self.nodes[node.index()].supply = supply;
            self.record(|r| r.supply_changed(node, old));
        }
        Ok(())
    }

    /// Returns the supply `b(i)` of a node.
    #[inline]
    pub fn supply(&self, node: NodeId) -> i64 {
        self.nodes[node.index()].supply
    }

    /// Returns the kind of a node.
    #[inline]
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.index()].kind
    }

    /// Returns `true` if the node id refers to a live node.
    #[inline]
    pub fn node_alive(&self, node: NodeId) -> bool {
        node.index() < self.nodes.len() && self.nodes[node.index()].alive
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.alive_nodes
    }

    /// Upper bound (exclusive) on raw node indices; useful for sizing
    /// solver-side per-node arrays.
    #[inline]
    pub fn node_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over the ids of all live nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Sum of positive supplies (total flow that must reach sinks).
    pub fn total_supply(&self) -> i64 {
        self.nodes
            .iter()
            .filter(|s| s.alive && s.supply > 0)
            .map(|s| s.supply)
            .sum()
    }

    // ------------------------------------------------------------------
    // Arcs
    // ------------------------------------------------------------------

    /// Adds an arc `src → dst` with the given capacity and cost; returns the
    /// forward residual arc id. The new arc carries no flow.
    pub fn add_arc(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: i64,
        cost: i64,
    ) -> Result<ArcId, GraphError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if capacity < 0 {
            return Err(GraphError::NegativeCapacity(capacity));
        }
        let fwd = if let Some(base) = self.free_arc_pairs.pop() {
            let fwd = ArcId(base);
            self.arcs[fwd.index()] = ArcSlot {
                alive: true,
                src,
                dst,
                cost,
                rescap: capacity,
                capacity,
            };
            self.arcs[fwd.index() + 1] = ArcSlot {
                alive: true,
                src: dst,
                dst: src,
                cost: -cost,
                rescap: 0,
                capacity: 0,
            };
            fwd
        } else {
            let fwd = ArcId(self.arcs.len() as u32);
            debug_assert!(fwd.is_forward());
            self.arcs.push(ArcSlot {
                alive: true,
                src,
                dst,
                cost,
                rescap: capacity,
                capacity,
            });
            self.arcs.push(ArcSlot {
                alive: true,
                src: dst,
                dst: src,
                cost: -cost,
                rescap: 0,
                capacity: 0,
            });
            fwd
        };
        self.adj[src.index()].push(fwd);
        self.adj[dst.index()].push(fwd.sister());
        self.alive_arc_pairs += 1;
        self.record(|r| r.arc_added(fwd));
        Ok(fwd)
    }

    /// Revives an arc pair in an exact slot — the id-faithful counterpart
    /// of [`restore_node`](Self::restore_node) for delta replay. The
    /// new pair carries no flow.
    ///
    /// Fails with [`GraphError::OccupiedArc`] if the pair's forward slot is
    /// alive. Pairs between the current bound and `arc` are created dead.
    pub fn restore_arc(
        &mut self,
        arc: ArcId,
        src: NodeId,
        dst: NodeId,
        capacity: i64,
        cost: i64,
    ) -> Result<(), GraphError> {
        let fwd = arc.forward();
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if capacity < 0 {
            return Err(GraphError::NegativeCapacity(capacity));
        }
        while self.arcs.len() <= fwd.index() + 1 {
            let base = self.arcs.len() as u32;
            debug_assert_eq!(base % 2, 0);
            for _ in 0..2 {
                self.arcs.push(ArcSlot {
                    alive: false,
                    src: NodeId(0),
                    dst: NodeId(0),
                    cost: 0,
                    rescap: 0,
                    capacity: 0,
                });
            }
            if base != fwd.0 {
                self.free_arc_pairs.push(base);
            }
        }
        if self.arcs[fwd.index()].alive {
            return Err(GraphError::OccupiedArc(fwd));
        }
        if let Some(pos) = self.free_arc_pairs.iter().position(|&b| b == fwd.0) {
            self.free_arc_pairs.swap_remove(pos);
        }
        self.arcs[fwd.index()] = ArcSlot {
            alive: true,
            src,
            dst,
            cost,
            rescap: capacity,
            capacity,
        };
        self.arcs[fwd.index() + 1] = ArcSlot {
            alive: true,
            src: dst,
            dst: src,
            cost: -cost,
            rescap: 0,
            capacity: 0,
        };
        self.adj[src.index()].push(fwd);
        self.adj[dst.index()].push(fwd.sister());
        self.alive_arc_pairs += 1;
        self.record(|r| r.arc_added(fwd));
        Ok(())
    }

    /// Removes an arc pair given either of its residual arc ids.
    pub fn remove_arc(&mut self, arc: ArcId) -> Result<(), GraphError> {
        let fwd = arc.forward();
        self.check_arc(fwd)?;
        let (state, flow) = (self.arc_state(fwd), self.flow(fwd));
        self.arcs[fwd.index()].alive = false;
        self.arcs[fwd.index() + 1].alive = false;
        self.detach(state.src, fwd);
        self.detach(state.dst, fwd.sister());
        self.alive_arc_pairs -= 1;
        self.free_arc_pairs.push(fwd.0);
        self.record(|r| r.arc_removed(fwd, state, flow));
        Ok(())
    }

    fn detach(&mut self, node: NodeId, arc: ArcId) {
        let list = &mut self.adj[node.index()];
        if let Some(pos) = list.iter().position(|&a| a == arc) {
            list.swap_remove(pos);
        }
    }

    /// Changes the cost of an arc pair (given either residual id).
    pub fn set_arc_cost(&mut self, arc: ArcId, cost: i64) -> Result<(), GraphError> {
        let fwd = arc.forward();
        self.check_arc(fwd)?;
        let before = self.arc_state(fwd);
        if before.cost != cost {
            self.arcs[fwd.index()].cost = cost;
            self.arcs[fwd.index() + 1].cost = -cost;
            self.record(|r| r.arc_changed(fwd, before, 0));
        }
        Ok(())
    }

    /// Changes the capacity of an arc pair (given either residual id).
    ///
    /// If the new capacity is below the current flow, the flow on the arc is
    /// clamped down to the new capacity; the spilled units show up as node
    /// imbalance that the next solver run repairs (Table 3: decreasing
    /// capacity can break feasibility).
    pub fn set_arc_capacity(&mut self, arc: ArcId, capacity: i64) -> Result<(), GraphError> {
        let fwd = arc.forward();
        self.check_arc(fwd)?;
        if capacity < 0 {
            return Err(GraphError::NegativeCapacity(capacity));
        }
        let before = self.arc_state(fwd);
        if before.capacity == capacity {
            return Ok(());
        }
        let flow = self.flow(fwd);
        let spilled = (flow - capacity).max(0);
        let new_flow = flow.min(capacity);
        self.arcs[fwd.index()].capacity = capacity;
        self.arcs[fwd.index()].rescap = capacity - new_flow;
        self.arcs[fwd.index() + 1].rescap = new_flow;
        self.record(|r| r.arc_changed(fwd, before, spilled));
        Ok(())
    }

    /// Returns `true` if the arc id refers to a live residual arc.
    #[inline]
    pub fn arc_alive(&self, arc: ArcId) -> bool {
        arc.index() < self.arcs.len() && self.arcs[arc.index()].alive
    }

    /// Number of live arc pairs.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.alive_arc_pairs
    }

    /// Upper bound (exclusive) on raw residual-arc indices.
    #[inline]
    pub fn arc_bound(&self) -> usize {
        self.arcs.len()
    }

    /// Iterates over the forward ids of all live arc pairs.
    pub fn arc_ids(&self) -> impl Iterator<Item = ArcId> + '_ {
        (0..self.arcs.len())
            .step_by(2)
            .filter(|&i| self.arcs[i].alive)
            .map(|i| ArcId(i as u32))
    }

    /// Source node of a residual arc.
    #[inline]
    pub fn src(&self, arc: ArcId) -> NodeId {
        self.arcs[arc.index()].src
    }

    /// Destination node of a residual arc.
    #[inline]
    pub fn dst(&self, arc: ArcId) -> NodeId {
        self.arcs[arc.index()].dst
    }

    /// Cost of one unit of flow along a residual arc (negated on reverse
    /// arcs).
    #[inline]
    pub fn cost(&self, arc: ArcId) -> i64 {
        self.arcs[arc.index()].cost
    }

    /// Remaining residual capacity of a residual arc.
    #[inline]
    pub fn rescap(&self, arc: ArcId) -> i64 {
        self.arcs[arc.index()].rescap
    }

    /// Original capacity of the pair containing `arc`.
    #[inline]
    pub fn capacity(&self, arc: ArcId) -> i64 {
        self.arcs[arc.forward().index()].capacity
    }

    /// Current flow on the pair containing `arc` (always reported for the
    /// forward direction).
    #[inline]
    pub fn flow(&self, arc: ArcId) -> i64 {
        self.arcs[arc.forward().index() + 1].rescap
    }

    /// Residual out-arcs (both directions) of a node.
    #[inline]
    pub fn adj(&self, node: NodeId) -> &[ArcId] {
        &self.adj[node.index()]
    }

    // ------------------------------------------------------------------
    // Flow manipulation
    // ------------------------------------------------------------------

    /// Pushes `delta` units of flow along a residual arc.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `delta` exceeds the residual capacity.
    #[inline]
    pub fn push_flow(&mut self, arc: ArcId, delta: i64) {
        debug_assert!(
            delta <= self.arcs[arc.index()].rescap,
            "push of {delta} exceeds residual capacity {} on {arc}",
            self.arcs[arc.index()].rescap
        );
        self.arcs[arc.index()].rescap -= delta;
        self.arcs[arc.index() ^ 1].rescap += delta;
    }

    /// Records that flow was moved at `node` outside a solver run (e.g. a
    /// §5.3.2 drain terminated here), so incremental solvers re-derive its
    /// excess. No-op when tracking is off.
    pub fn note_flow_disturbance(&mut self, node: NodeId) {
        if self.node_alive(node) {
            let supply = self.nodes[node.index()].supply;
            self.record(|r| r.flow_disturbed(node, supply));
        }
    }

    /// Sets the flow on a pair directly (clamped to `[0, capacity]`).
    pub fn set_flow(&mut self, arc: ArcId, flow: i64) {
        let fwd = arc.forward();
        let cap = self.arcs[fwd.index()].capacity;
        let f = flow.clamp(0, cap);
        self.arcs[fwd.index()].rescap = cap - f;
        self.arcs[fwd.index() + 1].rescap = f;
    }

    /// Clears all flow, restoring every pair to `rescap = capacity`.
    pub fn reset_flow(&mut self) {
        for i in (0..self.arcs.len()).step_by(2) {
            if self.arcs[i].alive {
                let cap = self.arcs[i].capacity;
                self.arcs[i].rescap = cap;
                self.arcs[i + 1].rescap = 0;
            }
        }
    }

    /// Total cost of the current flow: `Σ c_ij · f_ij` (Eq. 1).
    pub fn objective(&self) -> i64 {
        let mut total = 0i64;
        for i in (0..self.arcs.len()).step_by(2) {
            if self.arcs[i].alive {
                total += self.arcs[i].cost * self.arcs[i + 1].rescap;
            }
        }
        total
    }

    /// Per-node excess `e(i) = b(i) + inflow(i) − outflow(i)`, indexed by raw
    /// node index. A feasible flow has zero excess everywhere (Eq. 2).
    pub fn excesses(&self) -> Vec<i64> {
        let mut e = vec![0i64; self.nodes.len()];
        for (i, s) in self.nodes.iter().enumerate() {
            if s.alive {
                e[i] = s.supply;
            }
        }
        for i in (0..self.arcs.len()).step_by(2) {
            if self.arcs[i].alive {
                let f = self.arcs[i + 1].rescap;
                if f != 0 {
                    e[self.arcs[i].src.index()] -= f;
                    e[self.arcs[i].dst.index()] += f;
                }
            }
        }
        e
    }

    /// Returns the maximum absolute arc cost `C` (0 for an empty graph).
    pub fn max_cost(&self) -> i64 {
        self.arc_ids()
            .map(|a| self.cost(a).abs())
            .max()
            .unwrap_or(0)
    }

    /// Returns the maximum arc capacity `U` (0 for an empty graph).
    pub fn max_capacity(&self) -> i64 {
        self.arc_ids().map(|a| self.capacity(a)).max().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Checks
    // ------------------------------------------------------------------

    #[inline]
    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.node_alive(node) {
            Ok(())
        } else {
            Err(GraphError::DeadNode(node))
        }
    }

    #[inline]
    fn check_arc(&self, arc: ArcId) -> Result<(), GraphError> {
        if self.arc_alive(arc) {
            Ok(())
        } else {
            Err(GraphError::DeadArc(arc))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (FlowGraph, NodeId, NodeId, NodeId, ArcId, ArcId) {
        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let s = g.add_node(NodeKind::Sink, -1);
        let tm = g.add_arc(t, m, 1, 5).unwrap();
        let ms = g.add_arc(m, s, 2, 3).unwrap();
        (g, t, m, s, tm, ms)
    }

    #[test]
    fn add_and_query() {
        let (g, t, m, s, tm, ms) = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.src(tm), t);
        assert_eq!(g.dst(tm), m);
        assert_eq!(g.cost(tm), 5);
        assert_eq!(g.cost(tm.sister()), -5);
        assert_eq!(g.capacity(ms), 2);
        assert_eq!(g.supply(t), 1);
        assert_eq!(g.supply(s), -1);
        assert_eq!(g.total_supply(), 1);
        assert!(g.adj(m).contains(&tm.sister()));
        assert!(g.adj(m).contains(&ms));
    }

    #[test]
    fn push_and_objective() {
        let (mut g, _, _, _, tm, ms) = tiny();
        g.push_flow(tm, 1);
        g.push_flow(ms, 1);
        assert_eq!(g.flow(tm), 1);
        assert_eq!(g.flow(ms), 1);
        assert_eq!(g.rescap(tm), 0);
        assert_eq!(g.rescap(tm.sister()), 1);
        assert_eq!(g.objective(), 8);
        let e = g.excesses();
        assert!(e.iter().all(|&x| x == 0));
    }

    #[test]
    fn push_reverse_undoes() {
        let (mut g, _, _, _, tm, _) = tiny();
        g.push_flow(tm, 1);
        g.push_flow(tm.sister(), 1);
        assert_eq!(g.flow(tm), 0);
        assert_eq!(g.objective(), 0);
    }

    #[test]
    fn excess_without_flow_equals_supply() {
        let (g, t, _, s, _, _) = tiny();
        let e = g.excesses();
        assert_eq!(e[t.index()], 1);
        assert_eq!(e[s.index()], -1);
    }

    #[test]
    fn remove_arc_updates_adjacency() {
        let (mut g, t, m, _, tm, _) = tiny();
        g.remove_arc(tm).unwrap();
        assert_eq!(g.arc_count(), 1);
        assert!(!g.arc_alive(tm));
        assert!(!g.adj(t).contains(&tm));
        assert!(!g.adj(m).contains(&tm.sister()));
        assert!(g.remove_arc(tm).is_err());
    }

    #[test]
    fn remove_node_removes_incident_arcs() {
        let (mut g, _, m, _, tm, ms) = tiny();
        let removed = g.remove_node(m).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.arc_count(), 0);
        assert!(removed.contains(&tm));
        assert!(removed.contains(&ms));
    }

    #[test]
    fn slot_reuse_after_removal() {
        let (mut g, _, m, _, _, _) = tiny();
        g.remove_node(m).unwrap();
        let m2 = g.add_node(NodeKind::Machine { machine: 9 }, 0);
        assert_eq!(m2, m, "freed slot should be reused");
        assert_eq!(g.kind(m2), NodeKind::Machine { machine: 9 });
        assert!(g.adj(m2).is_empty());
    }

    #[test]
    fn arc_pair_reuse_keeps_even_alignment() {
        let (mut g, t, m, _, tm, _) = tiny();
        g.remove_arc(tm).unwrap();
        let a = g.add_arc(t, m, 4, 7).unwrap();
        assert!(a.is_forward());
        assert_eq!(a, tm, "freed pair should be reused");
        assert_eq!(g.capacity(a), 4);
        assert_eq!(g.flow(a), 0);
    }

    #[test]
    fn capacity_decrease_clamps_flow() {
        let (mut g, _, _, _, _, ms) = tiny();
        g.push_flow(ms, 2);
        g.set_arc_capacity(ms, 1).unwrap();
        assert_eq!(g.flow(ms), 1);
        assert_eq!(g.capacity(ms), 1);
        // The clamp spilled one unit back onto the machine node.
        let e = g.excesses();
        assert_eq!(e[1], -1, "machine lost one unit of outflow");
        assert_eq!(e[2], 0, "sink is balanced after the clamp");
    }

    #[test]
    fn cost_change_applies_to_both_directions() {
        let (mut g, _, _, _, tm, _) = tiny();
        g.set_arc_cost(tm, 11).unwrap();
        assert_eq!(g.cost(tm), 11);
        assert_eq!(g.cost(tm.sister()), -11);
    }

    #[test]
    fn change_log_records_mutations() {
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 1, 2).unwrap();
        g.set_arc_cost(a, 3).unwrap();
        g.set_supply(t, 0).unwrap();
        let batch = g.take_deltas();
        assert_eq!(batch.raw_len(), 5);
        assert_eq!(g.take_deltas().raw_len(), 0);
    }

    #[test]
    fn no_change_no_log_entry() {
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 1, 2).unwrap();
        g.take_deltas();
        g.set_arc_cost(a, 2).unwrap();
        g.set_supply(t, 1).unwrap();
        g.set_arc_capacity(a, 1).unwrap();
        assert_eq!(g.take_deltas().raw_len(), 0);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = FlowGraph::new();
        let n = g.add_node(NodeKind::Sink, 0);
        assert_eq!(g.add_arc(n, n, 1, 1), Err(GraphError::SelfLoop(n)));
    }

    #[test]
    fn reset_flow_clears_everything() {
        let (mut g, _, _, _, tm, ms) = tiny();
        g.push_flow(tm, 1);
        g.push_flow(ms, 2);
        g.reset_flow();
        assert_eq!(g.flow(tm), 0);
        assert_eq!(g.flow(ms), 0);
        assert_eq!(g.objective(), 0);
    }
}
