//! The flow-graph manager: the *imperative* half of the policy split.
//!
//! A [`CostModel`] declares costs and arc structure as pure functions of
//! [`ClusterState`]; the [`FlowGraphManager`] owns the flow network and
//! does everything stateful — it translates [`ClusterEvent`]s into graph
//! deltas, materializes the aggregator nodes a model refers to (including
//! whole EC→EC hierarchies, recursively and cycle-checked), runs the
//! two-pass cost update of §6.3 (collect dirty nodes — propagating
//! dirtiness *up* multi-level aggregator chains — then re-query the model
//! for exactly those), admission-controls and enforces gang constraints
//! through the `U_j → S` capacities, and garbage-collects aggregators no
//! task can reach. No other component mutates the graph: the scheduler
//! core borrows it for solving and hands the winning flow back via
//! [`FlowGraphManager::adopt_graph`].
//!
//! # Arc bundles
//!
//! Every declared arc is an [`ArcBundle`] — a piecewise-linear convex
//! cost ladder. The manager materializes one parallel graph arc per
//! segment and keeps the arc ids in a **slot vector** per (source,
//! target) pair, so segment `j` of a bundle always maps to the same graph
//! arc across refreshes: re-pricing a segment is a pure
//! cost/capacity change on its slot (a cheap `CostChanged` delta for the
//! incremental solver), growing a bundle appends slots, and shrinking
//! parks the tail at capacity 0 (static models) or removes it (dynamic
//! models). Convexity — non-decreasing segment costs — is validated at
//! every declaration site and violations are rejected with
//! [`PolicyError::NonConvexBundle`]: a decreasing ladder would let the
//! min-cost solver fill expensive segments before cheap ones, silently
//! corrupting the declared cost function.
//!
//! This mirrors real Firmament's `FlowGraphManager`/`CostModelInterface`
//! split, which is what makes new policies cheap: the node and slot
//! bookkeeping below is written once instead of once per policy. Every
//! declaration site — machine arrival, aggregate creation, the refresh's
//! machine and EC→EC passes, waiting-task installs and re-prices — hands
//! its bundle to one reconciler, `reconcile`, which alone decides when a
//! bundle is live and whether a withdrawn one is parked or removed.

use firmament_cluster::{ClusterEvent, ClusterState, JobId, Machine, MachineId, TaskId, Time};
use firmament_flow::delta::DeltaBatch;
use firmament_flow::{ArcId, FlowGraph, NodeId, NodeKind};
use firmament_mcmf::incremental::drain_task_flow;
use firmament_policies::{AggregateId, ArcBundle, ArcTarget, CostModel, PolicyError};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Rejects bundles that break the convexity contract: segment costs must
/// be non-decreasing, or the min-cost solver would fill expensive
/// segments before cheap ones.
fn validate_bundle(hook: &'static str, bundle: &ArcBundle) -> Result<(), PolicyError> {
    if let Some((prev, next)) = bundle.convexity_violation() {
        return Err(PolicyError::NonConvexBundle { hook, prev, next });
    }
    Ok(())
}

/// The model's aggregate → machine declaration, validated.
fn declared_aggregate_arc<C: CostModel>(
    model: &C,
    state: &ClusterState,
    agg: AggregateId,
    machine: &Machine,
) -> Result<Option<ArcBundle>, PolicyError> {
    let bundle = model.aggregate_arc(state, agg, machine);
    if let Some(b) = &bundle {
        validate_bundle("aggregate_arc", b)?;
    }
    Ok(bundle)
}

/// Whether a declared bundle holds graph arcs. Static-structure models
/// keep zero-capacity bundles materialized so a later refresh can revive
/// them in place; dynamic models add and remove bundles as their
/// capacity comes and goes.
fn is_live(bundle: &ArcBundle, dynamic: bool) -> bool {
    !(bundle.is_empty() || (dynamic && bundle.total_capacity() <= 0))
}

/// The bundle reconciler: brings the slots held for one `(src, dst)` pair
/// in line with the model's declaration (`None` once the model stops
/// declaring the pair), preserving per-segment slot identity. An empty
/// `slots` holds nothing.
///
/// - Held slots covered by a live declaration are re-priced in place
///   (`CostChanged` / `CapacityChanged` deltas — never structural).
/// - Declared segments beyond the held slots append new arcs; from
///   nothing held, this materializes the bundle.
/// - Held slots beyond the live declaration — all of them once the
///   bundle is withdrawn — are parked at capacity 0 (static models,
///   revivable) or removed (`dynamic`).
fn reconcile(
    graph: &mut FlowGraph,
    slots: &mut Vec<ArcId>,
    src: NodeId,
    dst: NodeId,
    declared: Option<&ArcBundle>,
    dynamic: bool,
) -> Result<(), PolicyError> {
    let segments = match declared {
        Some(bundle) if is_live(bundle, dynamic) => bundle.segments(),
        _ => &[],
    };
    let common = slots.len().min(segments.len());
    for (&slot, seg) in slots.iter().zip(segments) {
        graph.set_arc_capacity(slot, seg.capacity.max(0))?;
        graph.set_arc_cost(slot, seg.cost)?;
    }
    if dynamic {
        for &arc in &slots[common..] {
            graph.remove_arc(arc)?;
        }
        slots.truncate(common);
    } else {
        for &arc in &slots[common..] {
            graph.set_arc_capacity(arc, 0)?;
        }
    }
    for seg in &segments[common..] {
        slots.push(graph.add_arc(src, dst, seg.capacity.max(0), seg.cost)?);
    }
    Ok(())
}

/// [`reconcile`] for a bundle kept in a slot map: the map holds an entry
/// for `key` exactly while the bundle holds slots.
fn reconcile_keyed(
    graph: &mut FlowGraph,
    bundles: &mut BTreeMap<AggregateId, Vec<ArcId>>,
    key: AggregateId,
    src: NodeId,
    dst: NodeId,
    declared: Option<&ArcBundle>,
    dynamic: bool,
) -> Result<(), PolicyError> {
    match bundles.get_mut(&key) {
        Some(slots) => {
            reconcile(graph, slots, src, dst, declared, dynamic)?;
            if slots.is_empty() {
                bundles.remove(&key);
            }
        }
        None => {
            let mut slots = Vec::new();
            reconcile(graph, &mut slots, src, dst, declared, dynamic)?;
            if !slots.is_empty() {
                bundles.insert(key, slots);
            }
        }
    }
    Ok(())
}

/// Counters describing what the two-pass refresh actually touched —
/// exposed so tests (and curious operators) can verify that quiescent
/// rounds skip the graph entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct RefreshStats {
    /// Completed refresh passes.
    pub rounds: u64,
    /// Machines whose aggregate arcs were re-evaluated, cumulative.
    pub machines_touched: u64,
    /// Tasks whose unscheduled cost was re-evaluated, cumulative.
    pub tasks_touched: u64,
    /// Aggregates whose EC→EC arcs were re-synchronized, cumulative.
    pub aggregates_touched: u64,
    /// Aggregate nodes garbage-collected (task in-degree dropped to zero),
    /// cumulative; includes per-job unscheduled aggregators.
    pub aggregates_collected: u64,
    /// Waiting tasks whose arc sets were re-derived by machine-set events,
    /// cumulative — the quantity the waiting-task dirty-set narrowing
    /// ([`CostModel::task_arcs_machine_local`]) keeps small.
    pub waiting_rederived: u64,
    /// Machines touched by the most recent refresh.
    pub last_machines_touched: usize,
    /// Tasks touched by the most recent refresh.
    pub last_tasks_touched: usize,
    /// Aggregates touched by the most recent refresh.
    pub last_aggregates_touched: usize,
}

/// Owns the scheduling flow network and keeps it in sync with cluster
/// state by querying a [`CostModel`] for the policy-specific numbers.
///
/// See the [module documentation](self) for the division of labor.
#[derive(Debug)]
pub struct FlowGraphManager {
    /// The flow network. Change tracking is on from the start, so each
    /// round's [`DeltaBatch`] can be handed to the incremental solver.
    graph: FlowGraph,
    /// The sink node `S`.
    sink: NodeId,
    /// Task → its node and its `task → U_j` arc. The arc lives as long as
    /// the task: `U_j` is only collected once its job has no task left in
    /// the graph.
    task_nodes: HashMap<TaskId, (NodeId, ArcId)>,
    /// Machine → node.
    machine_nodes: HashMap<MachineId, NodeId>,
    /// Machine → its arc to the sink (capacity = slots).
    machine_sink_arcs: HashMap<MachineId, ArcId>,
    /// Job → unscheduled aggregator `U_j`.
    unsched_nodes: HashMap<JobId, NodeId>,
    /// Job → the `U_j → S` arc (capacity = incomplete tasks of the job).
    unsched_sink_arcs: HashMap<JobId, ArcId>,
    /// Aggregate id → node.
    agg_nodes: HashMap<AggregateId, NodeId>,
    /// Machine → its aggregate bundles (aggregate → per-segment arc
    /// slots, sorted). Machine-major so a dirty machine's refresh touches
    /// only its own arcs.
    machine_agg_arcs: HashMap<MachineId, BTreeMap<AggregateId, Vec<ArcId>>>,
    /// EC→EC bundles, source-major: parent aggregate → (child aggregate →
    /// per-segment arc slots). These are the multi-level hierarchy edges
    /// declared via [`CostModel::aggregate_to_aggregate`].
    agg_agg_arcs: HashMap<AggregateId, BTreeMap<AggregateId, Vec<ArcId>>>,
    /// Waiting task → its declared arc targets with per-segment slots, in
    /// declaration order. Machine targets absent from the cluster are
    /// recorded with empty slot vectors so machine-arrival events can
    /// find the tasks that reference them (dirty-set narrowing) and the
    /// dynamic task re-pricing can detect structural drift.
    task_slots: HashMap<TaskId, Vec<(ArcTarget, Vec<ArcId>)>>,
    /// Where each running task sits (so preemption/completion events can
    /// dirty the right machine without consulting stale cluster state).
    running_on: HashMap<TaskId, MachineId>,
    /// Machines touched by events since the last refresh.
    dirty_machines: HashSet<MachineId>,
    /// Tasks touched by events since the last refresh.
    dirty_tasks: HashSet<TaskId>,
    /// Aggregates explicitly dirtied by events (machine-set changes dirty
    /// every aggregate, since EC→EC capacities aggregate machine slots).
    /// Dirtiness also propagates *up* the hierarchy at refresh time.
    dirty_aggs: HashSet<AggregateId>,
    /// Gang jobs whose minimum exceeded free capacity at the last refresh:
    /// their gang cap is left unenforced (the job queues) so the network
    /// stays feasible instead of surfacing a solver infeasibility error.
    deferred_gangs: Vec<JobId>,
    /// Job → number of its tasks still in the graph; keeps the gang pass
    /// proportional to *live* jobs instead of every job ever submitted.
    live_job_tasks: HashMap<JobId, i64>,
    /// Virtual time of the last refresh; when unchanged, waiting-task
    /// costs cannot have drifted and are skipped.
    last_refresh_now: Option<Time>,
    /// Whether the model has *ever* declared an EC→EC child. Flat models
    /// (the common case) never do, so machine-set events skip the blanket
    /// aggregate-dirtying that exists only to re-sync hierarchy arcs and
    /// their subtree capacities. Sticky: once a hierarchy is seen, machine
    /// events always re-dirty every aggregate (hierarchies may grow with
    /// the machine set). Known limit: a model that has never declared any
    /// EC→EC child and whose *first* declaration appears, in response to
    /// a machine-set change, on an existing aggregate with no arc to the
    /// touched machine is not re-queried (the flag can only flip inside a
    /// query). No shipped model behaves this way; the differential fuzz
    /// suite would flag the divergence if one did.
    hierarchy_declared: bool,
    stats: RefreshStats,
}

impl Default for FlowGraphManager {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowGraphManager {
    /// Creates a manager with an empty network (sink only).
    pub fn new() -> Self {
        let mut graph = FlowGraph::default();
        graph.set_change_tracking(true);
        let sink = graph.add_node(NodeKind::Sink, 0);
        FlowGraphManager {
            graph,
            sink,
            task_nodes: HashMap::new(),
            machine_nodes: HashMap::new(),
            machine_sink_arcs: HashMap::new(),
            unsched_nodes: HashMap::new(),
            unsched_sink_arcs: HashMap::new(),
            agg_nodes: HashMap::new(),
            machine_agg_arcs: HashMap::new(),
            agg_agg_arcs: HashMap::new(),
            task_slots: HashMap::new(),
            running_on: HashMap::new(),
            dirty_machines: HashSet::new(),
            dirty_tasks: HashSet::new(),
            dirty_aggs: HashSet::new(),
            deferred_gangs: Vec::new(),
            live_job_tasks: HashMap::new(),
            last_refresh_now: None,
            hierarchy_declared: false,
            stats: RefreshStats::default(),
        }
    }

    /// The flow network (read-only; solvers clone or take it via the
    /// scheduler core).
    pub fn graph(&self) -> &FlowGraph {
        &self.graph
    }

    /// The sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Node for a task, if present.
    pub fn task_node(&self, task: TaskId) -> Option<NodeId> {
        self.task_nodes.get(&task).map(|&(node, _)| node)
    }

    /// Node for a machine, if present.
    pub fn machine_node(&self, machine: MachineId) -> Option<NodeId> {
        self.machine_nodes.get(&machine).copied()
    }

    /// Node for a policy-defined aggregate, if it has been materialized.
    pub fn aggregate_node(&self, aggregate: AggregateId) -> Option<NodeId> {
        self.agg_nodes.get(&aggregate).copied()
    }

    /// Number of currently materialized policy aggregates (excludes the
    /// per-job unscheduled aggregators).
    pub fn aggregate_count(&self) -> usize {
        self.agg_nodes.len()
    }

    /// The per-segment arc slots of an aggregate → machine bundle, if
    /// present. Slot `j` is the graph arc of bundle segment `j`.
    pub fn aggregate_machine_slots(
        &self,
        aggregate: AggregateId,
        machine: MachineId,
    ) -> Option<&[ArcId]> {
        self.machine_agg_arcs
            .get(&machine)
            .and_then(|m| m.get(&aggregate))
            .map(|v| v.as_slice())
    }

    /// The per-segment arc slots of an EC→EC bundle, if present.
    pub fn aggregate_to_aggregate_slots(
        &self,
        parent: AggregateId,
        child: AggregateId,
    ) -> Option<&[ArcId]> {
        self.agg_agg_arcs
            .get(&parent)
            .and_then(|m| m.get(&child))
            .map(|v| v.as_slice())
    }

    /// The declared arc targets and per-segment slots of a waiting task,
    /// in declaration order. Machine targets not currently in the cluster
    /// have empty slot vectors. `None` for running or unknown tasks.
    pub fn task_arc_slots(&self, task: TaskId) -> Option<&[(ArcTarget, Vec<ArcId>)]> {
        self.task_slots.get(&task).map(|v| v.as_slice())
    }

    /// Gang jobs deferred by admission control at the last refresh: jobs
    /// whose minimum exceeded total machine capacity (summed across
    /// admitted gangs) or the machine capacity their own tasks can reach
    /// through positive-capacity arcs. Their `U_j → S` cap is left
    /// unenforced — the job queues (its tasks may stay unscheduled)
    /// rather than making the flow network infeasible. Re-evaluated every
    /// refresh, so a deferred gang is admitted automatically once
    /// capacity appears.
    pub fn deferred_gang_jobs(&self) -> &[JobId] {
        &self.deferred_gangs
    }

    /// What the refresh passes have touched so far.
    pub fn stats(&self) -> RefreshStats {
        self.stats
    }

    /// Takes the compacted graph deltas recorded since the last call — the
    /// typed feed the incremental solver warm-starts from. The
    /// scheduler core calls this once per round, after the refresh and
    /// before [`take_graph`](Self::take_graph), so the batch covers
    /// exactly one handoff window.
    pub fn take_deltas(&mut self) -> DeltaBatch {
        self.graph.take_deltas()
    }

    /// Takes the graph out of the manager for an owned (zero-copy) solve.
    /// The caller **must** return it — or the solver's derived copy, which
    /// preserves node/arc ids — via [`adopt_graph`](Self::adopt_graph)
    /// before the next event or refresh.
    pub fn take_graph(&mut self) -> FlowGraph {
        std::mem::take(&mut self.graph)
    }

    /// Installs `graph` as the authoritative network. `graph` must be the
    /// one obtained from [`take_graph`](Self::take_graph) or a solver
    /// output derived from it (ids preserved); adopting the winning flow
    /// lets the next incremental solve warm-start from it.
    pub fn adopt_graph(&mut self, graph: FlowGraph) {
        self.graph = graph;
    }

    /// Applies one cluster event to the flow network, querying `model` for
    /// any newly required costs or arcs. `state` must already reflect the
    /// event (call [`ClusterState::apply`] first).
    pub fn apply_event<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        event: &ClusterEvent,
    ) -> Result<(), PolicyError> {
        match event {
            ClusterEvent::Tick { .. } => {}
            ClusterEvent::MachineAdded { machine } => {
                if self.machine_nodes.contains_key(&machine.id) {
                    return Err(PolicyError::DuplicateMachine(machine.id));
                }
                let kind = NodeKind::Machine {
                    machine: machine.id,
                };
                let mn = self.graph.add_node(kind, 0);
                let sink_arc = self.graph.add_arc(mn, self.sink, machine.slots as i64, 0)?;
                self.machine_nodes.insert(machine.id, mn);
                self.machine_sink_arcs.insert(machine.id, sink_arc);
                let dynamic = model.dynamic_aggregate_arcs();
                let mut aggs: Vec<AggregateId> = self.agg_nodes.keys().copied().collect();
                aggs.sort_unstable();
                let bundles = self.machine_agg_arcs.entry(machine.id).or_default();
                for agg in aggs {
                    let declared = declared_aggregate_arc(model, state, agg, machine)?;
                    let an = self.agg_nodes[&agg];
                    reconcile_keyed(
                        &mut self.graph,
                        bundles,
                        agg,
                        an,
                        mn,
                        declared.as_ref(),
                        dynamic,
                    )?;
                }
                self.dirty_machines.insert(machine.id);
                // Machine-set changes can alter EC→EC capacities (which
                // aggregate subtree slots) and even create hierarchy levels
                // (first machine of a new rack), so every aggregate's
                // EC→EC arcs are re-synced at the next refresh — but only
                // for models that have ever declared a hierarchy. Flat
                // aggregates have no EC→EC arcs to re-sync, so dirtying
                // them here would only trigger no-op model queries. (A
                // model that has *never* declared any EC→EC child and
                // whose first declaration would come from an aggregate not
                // adjacent to the touched machine is not re-queried — see
                // `hierarchy_declared` for the documented limits.)
                if self.hierarchy_declared {
                    self.dirty_aggs.extend(self.agg_nodes.keys().copied());
                }
                // And they can change waiting tasks' declared arc *sets*:
                // a model that names this machine (or its rack) as a
                // preference target would declare arcs a from-scratch
                // build gets but the old incremental graph lacks.
                // Machine-local models narrow this to the tasks whose
                // declared targets reference the new machine.
                self.resync_waiting_arcs(model, state, Some(machine.id))?;
            }
            ClusterEvent::MachineRemoved { machine, .. } => {
                self.machine_agg_arcs.remove(machine);
                // See `MachineAdded`: the blanket re-sync only exists for
                // EC→EC hierarchies.
                if self.hierarchy_declared {
                    self.dirty_aggs.extend(self.agg_nodes.keys().copied());
                }
                self.running_on.retain(|_, m| *m != *machine);
                self.dirty_machines.remove(machine);
                let mn = self
                    .machine_nodes
                    .remove(machine)
                    .ok_or(PolicyError::UnknownMachine(*machine))?;
                self.machine_sink_arcs.remove(machine);
                self.graph.remove_node(mn)?;
                // A machine failure invalidates waiting arc *sets*, not
                // just those of the displaced tasks: block replicas died
                // with the machine, so locality-driven preference arcs
                // (e.g. a rack arc whose holders are gone) may no longer
                // be declared. Re-derive waiting tasks' arcs from the
                // model, exactly as a from-scratch build would — narrowed
                // to referencing tasks for machine-local models.
                self.resync_waiting_arcs(model, state, Some(*machine))?;
            }
            ClusterEvent::JobSubmitted { job, tasks } => {
                for task in tasks {
                    self.add_task(task.id, job.id, model.task_unscheduled_cost(state, task))?;
                    self.add_waiting_arcs(model, state, task)?;
                    self.dirty_tasks.insert(task.id);
                    *self.live_job_tasks.entry(job.id).or_insert(0) += 1;
                }
            }
            ClusterEvent::TaskPlaced { task, machine, .. } => {
                let t = self
                    .task_node(*task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                let m = self
                    .machine_node(*machine)
                    .ok_or(PolicyError::UnknownMachine(*machine))?;
                let task_data = state
                    .tasks
                    .get(task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                // Drain the task's old flow (which may route through
                // aggregator chains) before rewiring its arcs: removing a
                // flow-carrying waiting arc would strand stale flow on the
                // aggregates below, unbalancing the warm start and pinning
                // otherwise-dead aggregates past garbage collection.
                drain_task_flow(&mut self.graph, t);
                // A running task keeps exactly two arcs: the zero-ish-cost
                // arc to its machine and the preemption arc to U_j, so
                // migrations always go through explicit preemption.
                self.strip_task_arcs(*task)?;
                let cost = model.running_arc_cost(state, task_data, *machine);
                self.graph.add_arc(t, m, 1, cost)?;
                self.running_on.insert(*task, *machine);
                self.dirty_machines.insert(*machine);
            }
            ClusterEvent::TaskPreempted { task, .. } => {
                let t = self
                    .task_node(*task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                let task_data = state
                    .tasks
                    .get(task)
                    .ok_or(PolicyError::UnknownTask(*task))?
                    .clone();
                // Drain before dropping the running arc, for the same
                // reason as in `TaskPlaced`: its flow must not be stranded
                // on the machine → sink arc.
                drain_task_flow(&mut self.graph, t);
                self.strip_task_arcs(*task)?;
                self.add_waiting_arcs(model, state, &task_data)?;
                if let Some(m) = self.running_on.remove(task) {
                    self.dirty_machines.insert(m);
                }
                self.dirty_tasks.insert(*task);
            }
            ClusterEvent::TaskCompleted { task, .. } => {
                // Efficient task removal (§5.3.2): drain the departing
                // task's flow before deleting the node so the graph stays
                // balanced for the incremental solver.
                if let Some(node) = self.task_node(*task) {
                    drain_task_flow(&mut self.graph, node);
                }
                let job = state
                    .tasks
                    .get(task)
                    .ok_or(PolicyError::UnknownTask(*task))?
                    .job;
                let (tn, _) = self
                    .task_nodes
                    .remove(task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                self.graph.remove_node(tn)?;
                let demand = self.graph.supply(self.sink);
                self.graph.set_supply(self.sink, demand + 1)?;
                if let Some(&ua) = self.unsched_sink_arcs.get(&job) {
                    let cap = self.graph.capacity(ua);
                    self.graph.set_arc_capacity(ua, (cap - 1).max(0))?;
                }
                self.task_slots.remove(task);
                if let Some(n) = self.live_job_tasks.get_mut(&job) {
                    *n -= 1;
                    if *n <= 0 {
                        self.live_job_tasks.remove(&job);
                    }
                }
                self.dirty_tasks.remove(task);
                if let Some(m) = self.running_on.remove(task) {
                    self.dirty_machines.insert(m);
                }
            }
        }
        Ok(())
    }

    /// Adds a task node with one unit of supply and its arc to the job's
    /// unscheduled aggregator `U_j` (created with its `U_j → S` arc on the
    /// job's first task); grows the sink demand and the `U_j → S`
    /// capacity accordingly.
    fn add_task(&mut self, task: TaskId, job: JobId, unsched_cost: i64) -> Result<(), PolicyError> {
        if self.task_nodes.contains_key(&task) {
            return Err(PolicyError::DuplicateTask(task));
        }
        let tn = self.graph.add_node(NodeKind::Task { task }, 1);
        let u = match self.unsched_nodes.get(&job) {
            Some(&u) => u,
            None => {
                let u = self
                    .graph
                    .add_node(NodeKind::UnscheduledAggregator { job }, 0);
                let ua = self.graph.add_arc(u, self.sink, 0, 0)?;
                self.unsched_nodes.insert(job, u);
                self.unsched_sink_arcs.insert(job, ua);
                u
            }
        };
        let unsched_arc = self.graph.add_arc(tn, u, 1, unsched_cost)?;
        self.task_nodes.insert(task, (tn, unsched_arc));
        let demand = self.graph.supply(self.sink);
        self.graph.set_supply(self.sink, demand - 1)?;
        let ua = self.unsched_sink_arcs[&job];
        let cap = self.graph.capacity(ua);
        self.graph.set_arc_capacity(ua, cap + 1)?;
        Ok(())
    }

    /// Strips a task back to its `task → U_j` arc and forgets its waiting
    /// slots — the first step of every re-wire (placement, preemption,
    /// re-derivation of its waiting arcs).
    fn strip_task_arcs(&mut self, task: TaskId) -> Result<(), PolicyError> {
        let (tn, keep) = *self
            .task_nodes
            .get(&task)
            .ok_or(PolicyError::UnknownTask(task))?;
        let doomed: Vec<ArcId> = self
            .graph
            .adj(tn)
            .iter()
            .copied()
            .filter(|&a| a.is_forward() && a != keep)
            .collect();
        for arc in doomed {
            self.graph.remove_arc(arc)?;
        }
        self.task_slots.remove(&task);
        Ok(())
    }

    /// The two-pass cost update (§6.3): pass 1 collects the dirty node
    /// sets (machines touched by events — or all of them for models with
    /// dynamic arcs — plus waiting tasks whose wait-time cost drifted,
    /// plus aggregates above any dirty machine, with dirtiness propagated
    /// *up* multi-level EC→EC chains); pass 2 re-queries the model for
    /// exactly those and applies the deltas. A quiescent round (no events,
    /// clock unchanged) touches nothing.
    ///
    /// Pass 2 re-syncs bundles **in place**: segment slots keep their
    /// identity, so a re-priced ladder reaches the incremental solver as
    /// cost/capacity deltas, never as structural churn. Models with
    /// [`CostModel::dynamic_task_arcs`] additionally get their waiting
    /// tasks' preference bundles re-priced here (the task-side mirror of
    /// the dynamic aggregate-arc refresh).
    ///
    /// The refresh also runs gang admission control (deferring gang caps
    /// that would make the network infeasible; see
    /// [`deferred_gang_jobs`](Self::deferred_gang_jobs)) and garbage-
    /// collects aggregates whose task in-degree dropped to zero.
    pub fn refresh<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
    ) -> Result<(), PolicyError> {
        // Pass 1: dirty-set collection.
        let dynamic = model.dynamic_aggregate_arcs();
        let mut machines: Vec<MachineId> = if dynamic {
            state.machines.keys().copied().collect()
        } else {
            self.dirty_machines
                .iter()
                .copied()
                .filter(|m| state.machines.contains_key(m))
                .collect()
        };
        machines.sort_unstable();
        let time_advanced = self.last_refresh_now != Some(state.now);
        let mut tasks: Vec<TaskId> = if time_advanced {
            // Every task still in the graph: waiting tasks' unscheduled
            // arcs *and* running tasks' preemption arcs carry the
            // wait-scaled cost, and both drift with the clock.
            self.task_nodes.keys().copied().collect()
        } else {
            self.dirty_tasks.iter().copied().collect()
        };
        tasks.sort_unstable();
        let dirty_aggs = self.collect_dirty_aggregates(dynamic, &machines);

        // EC→EC re-sync: for every dirty aggregate, bring its declared
        // aggregate→aggregate arc set up to date *before* the machine-arc
        // pass, so aggregates materialized here (e.g. a brand-new rack
        // level) already have their machine arcs when that pass runs.
        for &agg in &dirty_aggs {
            self.sync_aggregate_children(model, state, agg, dynamic)?;
        }

        // Pass 2: apply cost/capacity deltas for the dirty nodes only.
        // Static-structure models (the common case) re-sync exactly the
        // bundles a dirty machine already holds; dynamic models (Fig 6c)
        // get the full aggregate scan, since their arc *set* reacts to
        // monitored state.
        let mut all_aggs: Vec<AggregateId> = Vec::new();
        if dynamic {
            all_aggs.extend(self.agg_nodes.keys().copied());
            all_aggs.sort_unstable();
        }
        for &mid in &machines {
            let machine = &state.machines[&mid];
            let Some(&mn) = self.machine_nodes.get(&mid) else {
                continue;
            };
            let bundles = self.machine_agg_arcs.entry(mid).or_default();
            let aggs: Vec<AggregateId> = if dynamic {
                all_aggs.clone()
            } else {
                bundles.keys().copied().collect()
            };
            for agg in aggs {
                let declared = declared_aggregate_arc(model, state, agg, machine)?;
                let an = self.agg_nodes[&agg];
                reconcile_keyed(
                    &mut self.graph,
                    bundles,
                    agg,
                    an,
                    mn,
                    declared.as_ref(),
                    dynamic,
                )?;
            }
        }
        let reprice_tasks = model.dynamic_task_arcs();
        for &tid in &tasks {
            let Some(task) = state.tasks.get(&tid) else {
                continue;
            };
            let Some(&(_, unsched_arc)) = self.task_nodes.get(&tid) else {
                continue;
            };
            self.graph
                .set_arc_cost(unsched_arc, model.task_unscheduled_cost(state, task))?;
            // The dynamic task-arc hook: re-price this waiting task's
            // declared preference bundles (Execution-Templates style —
            // the cached structure is kept, only the parameters are
            // patched; structural drift falls back to a full re-derive).
            if reprice_tasks && self.task_slots.contains_key(&tid) {
                self.reprice_task_bundles(model, state, task)?;
            }
        }
        // Gang constraints with admission control: cap `U_j → S` at
        // incomplete − minimum so at least `minimum` of the job's tasks
        // are forced through machines — but only while (a) the sum of
        // forced flows fits in total machine capacity and (b) the job's
        // own tasks can actually *reach* that much machine capacity
        // through positive-capacity arcs. A gang beyond either bound
        // would make the network infeasible (a solver error), so the job
        // is *deferred* instead: its cap stays at `incomplete` (the job
        // queues, unconstrained) and it is re-considered every refresh.
        // Both bounds are fast necessary conditions, not a max-flow: a
        // model that bottlenecks a gang below its minimum on *interior*
        // arc capacities (or makes admitted gangs compete for the same
        // machines) can still declare an unsatisfiable constraint, which
        // then surfaces as a solver error. Only jobs with tasks still in
        // the graph are consulted, so the pass stays proportional to live
        // work, not total jobs submitted.
        self.deferred_gangs.clear();
        let mut jobs: Vec<JobId> = self.live_job_tasks.keys().copied().collect();
        jobs.sort_unstable();
        let budget: i64 = state.machines.values().map(|m| m.slots as i64).sum();
        let mut committed: i64 = 0;
        for jid in jobs {
            let Some(job) = state.jobs.get(&jid) else {
                continue;
            };
            let gang = model.job_gang_minimum(state, job);
            if gang <= 0 {
                continue;
            }
            let Some(&ua) = self.unsched_sink_arcs.get(&jid) else {
                continue;
            };
            let incomplete = job
                .tasks
                .iter()
                .filter(|t| self.task_nodes.contains_key(t))
                .count() as i64;
            let forced = gang.min(incomplete);
            if committed + forced > budget || forced > self.job_reachable_machine_capacity(job) {
                self.deferred_gangs.push(jid);
                self.graph.set_arc_capacity(ua, incomplete)?;
                continue;
            }
            committed += forced;
            self.graph
                .set_arc_capacity(ua, (incomplete - gang).max(0))?;
        }

        let collected = self.collect_dead_aggregates()?;

        self.stats.rounds += 1;
        self.stats.machines_touched += machines.len() as u64;
        self.stats.tasks_touched += tasks.len() as u64;
        self.stats.aggregates_touched += dirty_aggs.len() as u64;
        self.stats.aggregates_collected += collected as u64;
        self.stats.last_machines_touched = machines.len();
        self.stats.last_tasks_touched = tasks.len();
        self.stats.last_aggregates_touched = dirty_aggs.len();
        self.dirty_machines.clear();
        self.dirty_tasks.clear();
        self.dirty_aggs.clear();
        self.last_refresh_now = Some(state.now);
        Ok(())
    }

    /// The dirty-aggregate set for this refresh: aggregates explicitly
    /// dirtied by events plus those with an arc to a dirty machine, with
    /// dirtiness propagated *up* every EC→EC chain (a parent's arc to a
    /// dirty child may price the child's whole subtree). Dynamic-arc
    /// models re-sync every aggregate each round.
    fn collect_dirty_aggregates(
        &self,
        dynamic: bool,
        dirty_machines: &[MachineId],
    ) -> BTreeSet<AggregateId> {
        let mut set: BTreeSet<AggregateId> = if dynamic {
            self.agg_nodes.keys().copied().collect()
        } else {
            let mut set: BTreeSet<AggregateId> = self.dirty_aggs.iter().copied().collect();
            for m in dirty_machines {
                if let Some(arcs) = self.machine_agg_arcs.get(m) {
                    set.extend(arcs.keys().copied());
                }
            }
            // Reverse EC→EC edges (child → parents) for the upward sweep.
            let mut parents: HashMap<AggregateId, Vec<AggregateId>> = HashMap::new();
            for (&parent, children) in &self.agg_agg_arcs {
                for &child in children.keys() {
                    parents.entry(child).or_default().push(parent);
                }
            }
            let mut work: Vec<AggregateId> = set.iter().copied().collect();
            while let Some(a) = work.pop() {
                if let Some(ps) = parents.get(&a) {
                    for &p in ps {
                        if set.insert(p) {
                            work.push(p);
                        }
                    }
                }
            }
            set
        };
        set.retain(|a| self.agg_nodes.contains_key(a));
        set
    }

    /// Re-synchronizes one aggregate's EC→EC arc set with what the model
    /// currently declares: every declared child's bundle is reconciled
    /// (newly live children are first materialized and cycle-checked),
    /// and children no longer declared are withdrawn.
    fn sync_aggregate_children<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        agg: AggregateId,
        dynamic: bool,
    ) -> Result<(), PolicyError> {
        let Some(&an) = self.agg_nodes.get(&agg) else {
            return Ok(());
        };
        let declared = model.aggregate_to_aggregate(state, agg);
        if !declared.is_empty() {
            self.hierarchy_declared = true;
        }
        let mut seen: BTreeSet<AggregateId> = BTreeSet::new();
        for (child, bundle) in declared {
            if child == agg {
                return Err(PolicyError::AggregateCycle(agg));
            }
            validate_bundle("aggregate_to_aggregate", &bundle)?;
            if !seen.insert(child) {
                // Duplicate child declaration: first occurrence wins.
                continue;
            }
            let held = self
                .agg_agg_arcs
                .get(&agg)
                .is_some_and(|m| m.contains_key(&child));
            if !held {
                if !is_live(&bundle, dynamic) {
                    continue;
                }
                self.ensure_aggregate(model, state, child)?;
                // A new edge into a pre-existing aggregate could close
                // a loop that per-materialization cycle detection
                // cannot see — and materializing `child` may itself
                // have connected descendants back to `agg`'s ancestors
                // — so reachability must be checked *after* the
                // child's subtree exists, just before connecting.
                if self.agg_reaches(child, agg) {
                    return Err(PolicyError::AggregateCycle(agg));
                }
            }
            let cn = self.agg_nodes[&child];
            let bundles = self.agg_agg_arcs.entry(agg).or_default();
            reconcile_keyed(
                &mut self.graph,
                bundles,
                child,
                an,
                cn,
                Some(&bundle),
                dynamic,
            )?;
        }
        let Some(bundles) = self.agg_agg_arcs.get_mut(&agg) else {
            return Ok(());
        };
        let stale: Vec<AggregateId> = bundles
            .keys()
            .filter(|c| !seen.contains(c))
            .copied()
            .collect();
        for child in stale {
            let cn = self.agg_nodes[&child];
            reconcile_keyed(&mut self.graph, bundles, child, an, cn, None, dynamic)?;
        }
        Ok(())
    }

    /// Re-prices one waiting task's declared bundles in place. The cheap
    /// path applies when the declared target sequence matches the cached
    /// slots (and every slot is still alive): each bundle is reconciled
    /// slot-stably, parking (never removing) a shrunk tail. Structural
    /// drift (targets added, removed, or reordered; slots killed by
    /// machine removal or aggregate GC) falls back to a full arc
    /// re-derivation, exactly what a structural event would do.
    fn reprice_task_bundles<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        task: &firmament_cluster::Task,
    ) -> Result<(), PolicyError> {
        let Some(tn) = self.task_node(task.id) else {
            return Ok(());
        };
        let declared = dedup_targets(model.task_arcs(state, task));
        for (_, bundle) in &declared {
            validate_bundle("task_arcs", bundle)?;
        }
        let Some(entry) = self.task_slots.get(&task.id) else {
            return Ok(());
        };
        let structural_match = entry.len() == declared.len()
            && entry.iter().zip(&declared).all(|((t0, slots), (t1, _))| {
                t0 == t1
                    && match t0 {
                        ArcTarget::Machine(m) if !state.machines.contains_key(m) => {
                            slots.is_empty()
                        }
                        _ => !slots.is_empty() && slots.iter().all(|&a| self.graph.arc_alive(a)),
                    }
            });
        if !structural_match {
            self.strip_task_arcs(task.id)?;
            // Rebuild from the declaration already computed (and
            // validated) above — no second model query.
            return self.install_waiting_arcs(model, state, task, declared);
        }
        let mut entry = self.task_slots.remove(&task.id).expect("checked above");
        for ((target, slots), (_, bundle)) in entry.iter_mut().zip(&declared) {
            let dst = match target {
                ArcTarget::Aggregate(agg) => self.agg_nodes[agg],
                ArcTarget::Machine(m) => match self.machine_node(*m) {
                    Some(mn) => mn,
                    None => continue, // absent machine: parked reference
                },
            };
            reconcile(&mut self.graph, slots, tn, dst, Some(bundle), false)?;
        }
        self.task_slots.insert(task.id, entry);
        Ok(())
    }

    /// Machine → sink capacity reachable from `job`'s task nodes through
    /// positive-capacity arcs (across any aggregator depth) — a fast
    /// upper bound on how much of the job's flow can reach machines, used
    /// by gang admission control. Not a max flow: interior bottlenecks
    /// are ignored, so this can overestimate, never underestimate.
    fn job_reachable_machine_capacity(&self, job: &firmament_cluster::Job) -> i64 {
        let g = &self.graph;
        let mut work: Vec<NodeId> = job
            .tasks
            .iter()
            .filter_map(|t| self.task_node(*t))
            .collect();
        let mut visited: HashSet<NodeId> = work.iter().copied().collect();
        let mut cap = 0i64;
        while let Some(n) = work.pop() {
            for &a in g.adj(n) {
                if !a.is_forward() || g.capacity(a) <= 0 {
                    continue;
                }
                let dst = g.dst(a);
                if !visited.insert(dst) {
                    continue;
                }
                match g.kind(dst) {
                    NodeKind::Machine { machine } => {
                        if let Some(&ms) = self.machine_sink_arcs.get(&machine) {
                            cap += g.capacity(ms);
                        }
                    }
                    NodeKind::UnscheduledAggregator { .. } | NodeKind::Sink => {}
                    _ => work.push(dst),
                }
            }
        }
        cap
    }

    /// Whether `target` is reachable from `from` along EC→EC arcs.
    fn agg_reaches(&self, from: AggregateId, target: AggregateId) -> bool {
        if from == target {
            return true;
        }
        let mut work = vec![from];
        let mut visited: HashSet<AggregateId> = HashSet::new();
        while let Some(a) = work.pop() {
            if !visited.insert(a) {
                continue;
            }
            if let Some(children) = self.agg_agg_arcs.get(&a) {
                for &c in children.keys() {
                    if c == target {
                        return true;
                    }
                    work.push(c);
                }
            }
        }
        false
    }

    /// Garbage-collects aggregator nodes that no task can reach any more:
    /// policy aggregates (and per-job unscheduled aggregators of jobs with
    /// no tasks left in the graph) with zero incoming arcs and no flow on
    /// their outgoing arcs. Runs to a fixpoint, so removing a hierarchy
    /// root frees its (now unreachable) descendants in the same refresh.
    /// Nodes still carrying stale solver flow are left for a later round —
    /// the next adopted solve rebalances them. Collected aggregates are
    /// rematerialized on demand if a model names them again.
    fn collect_dead_aggregates(&mut self) -> Result<usize, PolicyError> {
        let mut collected = 0usize;
        loop {
            let mut victim_aggs: Vec<AggregateId> = self
                .agg_nodes
                .iter()
                .filter(|(_, &n)| self.node_is_collectable(n))
                .map(|(&a, _)| a)
                .collect();
            let mut victim_jobs: Vec<JobId> = self
                .unsched_nodes
                .iter()
                .filter(|(j, &n)| {
                    !self.live_job_tasks.contains_key(j) && self.node_is_collectable(n)
                })
                .map(|(&j, _)| j)
                .collect();
            if victim_aggs.is_empty() && victim_jobs.is_empty() {
                break;
            }
            victim_aggs.sort_unstable();
            victim_jobs.sort_unstable();
            let victim_set: HashSet<AggregateId> = victim_aggs.iter().copied().collect();
            for &agg in &victim_aggs {
                let n = self
                    .agg_nodes
                    .remove(&agg)
                    .expect("victim came from agg_nodes");
                self.graph.remove_node(n)?;
                self.agg_agg_arcs.remove(&agg);
                self.dirty_aggs.remove(&agg);
                collected += 1;
            }
            // One sweep over the arc maps for the whole batch, so mass GC
            // (draining many per-job aggregates at once) stays linear in
            // map size instead of victims × map size.
            if !victim_set.is_empty() {
                for arcs in self.agg_agg_arcs.values_mut() {
                    arcs.retain(|c, _| !victim_set.contains(c));
                }
                for arcs in self.machine_agg_arcs.values_mut() {
                    arcs.retain(|a, _| !victim_set.contains(a));
                }
            }
            for job in victim_jobs {
                let n = self
                    .unsched_nodes
                    .remove(&job)
                    .expect("victim came from unsched_nodes");
                self.unsched_sink_arcs.remove(&job);
                self.graph.remove_node(n)?;
                collected += 1;
            }
        }
        Ok(collected)
    }

    /// A node is collectable when nothing can send it flow — every
    /// incoming forward arc is parked at capacity 0 (e.g. the stale EC→EC
    /// arc of a rack whose machines all departed) — and no incident arc
    /// carries flow (so removal cannot unbalance a warm-started solve).
    fn node_is_collectable(&self, n: NodeId) -> bool {
        let g = &self.graph;
        g.adj(n).iter().all(|&a| {
            let fwd = a.forward();
            if a.is_forward() {
                g.flow(fwd) == 0
            } else {
                g.capacity(fwd) == 0 && g.flow(fwd) == 0
            }
        })
    }

    /// Re-derives waiting tasks' declared arc sets from the model —
    /// called on machine-set changes, whose fallout (dead block replicas,
    /// new preference targets) is not limited to displaced tasks. This is
    /// what keeps the incremental graph identical to a from-scratch
    /// rebuild across machine churn; the differential fuzz suite pins it.
    ///
    /// For models whose task arcs are **machine-local**
    /// ([`CostModel::task_arcs_machine_local`]), re-derivation is
    /// narrowed to the waiting tasks whose declared targets reference the
    /// `touched` machine id — every other task's declaration cannot have
    /// changed, by the model's own contract.
    fn resync_waiting_arcs<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        touched: Option<MachineId>,
    ) -> Result<(), PolicyError> {
        let narrow = model.task_arcs_machine_local();
        let mut waiting: Vec<TaskId> = state.waiting_tasks().map(|t| t.id).collect();
        waiting.sort_unstable();
        for tid in waiting {
            if narrow {
                if let Some(m) = touched {
                    let skip = match self.task_slots.get(&tid) {
                        // A cached declaration that never references the
                        // touched machine cannot have changed — the
                        // machine-local contract.
                        Some(slots) => !slots.iter().any(|(t, _)| *t == ArcTarget::Machine(m)),
                        // No cached declaration: the task just became
                        // waiting (displaced by this very machine
                        // removal) and must derive its arc set from
                        // scratch regardless of narrowing.
                        None => false,
                    };
                    if skip {
                        continue;
                    }
                }
            }
            if !self.task_nodes.contains_key(&tid) {
                continue;
            }
            let task = state.tasks[&tid].clone();
            self.strip_task_arcs(tid)?;
            self.add_waiting_arcs(model, state, &task)?;
            self.dirty_tasks.insert(tid);
            self.stats.waiting_rederived += 1;
        }
        Ok(())
    }

    /// Materializes the waiting arc set a model declares for `task`:
    /// aggregate targets are created on demand (together with their
    /// machine arcs); machine targets absent from the cluster are
    /// recorded with empty slot vectors so they materialize when the
    /// machine arrives (and so machine-local narrowing can find their
    /// tasks). Duplicate target declarations keep the first bundle.
    fn add_waiting_arcs<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        task: &firmament_cluster::Task,
    ) -> Result<(), PolicyError> {
        let declared = dedup_targets(model.task_arcs(state, task));
        for (_, bundle) in &declared {
            validate_bundle("task_arcs", bundle)?;
        }
        self.install_waiting_arcs(model, state, task, declared)
    }

    /// The materialization half of [`add_waiting_arcs`](Self::add_waiting_arcs),
    /// taking an already-deduplicated, already-validated declaration (so
    /// callers that computed one — the dynamic re-price fallback — don't
    /// pay a second `task_arcs` query).
    fn install_waiting_arcs<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        task: &firmament_cluster::Task,
        declared: Vec<(ArcTarget, ArcBundle)>,
    ) -> Result<(), PolicyError> {
        let t = self
            .task_node(task.id)
            .ok_or(PolicyError::UnknownTask(task.id))?;
        let mut entry: Vec<(ArcTarget, Vec<ArcId>)> = Vec::with_capacity(declared.len());
        for (target, bundle) in declared {
            let dst = match target {
                ArcTarget::Aggregate(agg) => Some(self.ensure_aggregate(model, state, agg)?),
                // A machine not in the cluster (yet) keeps an empty slot
                // vector: the parked reference arrival re-derivation finds.
                ArcTarget::Machine(mid) => self.machine_node(mid),
            };
            let mut slots = Vec::new();
            if let Some(dst) = dst {
                reconcile(&mut self.graph, &mut slots, t, dst, Some(&bundle), false)?;
            }
            entry.push((target, slots));
        }
        self.task_slots.insert(task.id, entry);
        Ok(())
    }

    /// Returns (creating if needed) the node for a policy-defined
    /// aggregate. On creation, the aggregate's machine bundles are
    /// materialized by querying the model for every known machine, and its
    /// EC→EC children (declared via
    /// [`CostModel::aggregate_to_aggregate`]) are materialized
    /// recursively. Fails with [`PolicyError::AggregateCycle`] if the
    /// declared hierarchy is not a DAG.
    fn ensure_aggregate<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        agg: AggregateId,
    ) -> Result<NodeId, PolicyError> {
        let mut stack = Vec::new();
        self.ensure_aggregate_rec(model, state, agg, &mut stack)
    }

    fn ensure_aggregate_rec<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        agg: AggregateId,
        stack: &mut Vec<AggregateId>,
    ) -> Result<NodeId, PolicyError> {
        // The stack check must precede the node lookup: an aggregate under
        // materialization is already in `agg_nodes`, and reaching it again
        // through its own descendants is exactly the cycle case.
        if stack.contains(&agg) {
            return Err(PolicyError::AggregateCycle(agg));
        }
        if let Some(&n) = self.agg_nodes.get(&agg) {
            return Ok(n);
        }
        stack.push(agg);
        let an = self.graph.add_node(model.aggregate_kind(agg), 0);
        self.agg_nodes.insert(agg, an);
        let dynamic = model.dynamic_aggregate_arcs();
        let mut machines: Vec<MachineId> = self.machine_nodes.keys().copied().collect();
        machines.sort_unstable();
        for mid in machines {
            let Some(machine) = state.machines.get(&mid) else {
                continue;
            };
            let declared = declared_aggregate_arc(model, state, agg, machine)?;
            let mn = self.machine_nodes[&mid];
            let bundles = self.machine_agg_arcs.entry(mid).or_default();
            reconcile_keyed(
                &mut self.graph,
                bundles,
                agg,
                an,
                mn,
                declared.as_ref(),
                dynamic,
            )?;
        }
        // EC→EC children: materialize each live child (recursively —
        // hierarchies can be arbitrarily deep) and connect it.
        let declared = model.aggregate_to_aggregate(state, agg);
        if !declared.is_empty() {
            self.hierarchy_declared = true;
        }
        for (child, bundle) in declared {
            validate_bundle("aggregate_to_aggregate", &bundle)?;
            if !is_live(&bundle, dynamic) {
                continue;
            }
            let cn = self.ensure_aggregate_rec(model, state, child, stack)?;
            let bundles = self.agg_agg_arcs.entry(agg).or_default();
            // A duplicate child declaration keeps the first bundle.
            if !bundles.contains_key(&child) {
                reconcile_keyed(
                    &mut self.graph,
                    bundles,
                    child,
                    an,
                    cn,
                    Some(&bundle),
                    dynamic,
                )?;
            }
        }
        stack.pop();
        Ok(an)
    }
}

/// Deduplicates a declared target list, keeping the first bundle per
/// target (declaration order preserved) — the bundle-era equivalent of
/// the old "skip if an arc to this destination already exists" guard.
fn dedup_targets(declared: Vec<(ArcTarget, ArcBundle)>) -> Vec<(ArcTarget, ArcBundle)> {
    let mut seen: HashSet<ArcTarget> = HashSet::with_capacity(declared.len());
    declared
        .into_iter()
        .filter(|(t, _)| seen.insert(*t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_cluster::{Job, JobClass, Machine, Task, TopologySpec};
    use firmament_flow::delta::GraphDelta;
    use firmament_policies::{ArcBundle, ArcSpec};

    /// A minimal cost model for manager tests: one cluster aggregate,
    /// machine cost = running task count (single-segment bundle).
    struct TestModel;
    const AGG: AggregateId = 0;

    impl CostModel for TestModel {
        fn name(&self) -> &'static str {
            "test"
        }
        fn task_unscheduled_cost(&self, state: &ClusterState, task: &Task) -> i64 {
            10_000 + (state.now.saturating_sub(task.submit_time) / 1_000_000) as i64
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(
                machine.slots as i64,
                10 * machine.running.len() as i64,
            ))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
    }

    fn setup(machines: usize, slots: u32) -> (ClusterState, FlowGraphManager) {
        let state = ClusterState::with_topology(&TopologySpec {
            machines,
            machines_per_rack: 20,
            slots_per_machine: slots,
        });
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values() {
            mgr.apply_event(
                &TestModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m.clone() },
            )
            .unwrap();
        }
        (state, mgr)
    }

    fn submit(state: &mut ClusterState, mgr: &mut FlowGraphManager, job: u64, n: usize) {
        let j = Job::new(job, JobClass::Batch, 0, state.now);
        let tasks: Vec<Task> = (0..n)
            .map(|i| Task::new(job * 1000 + i as u64, job, state.now, 10_000_000))
            .collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&TestModel, state, &ev).unwrap();
    }

    #[test]
    fn base_bookkeeping_roundtrip() {
        let (mut state, mut mgr) = setup(1, 4);
        let m = mgr.machine_node(0).expect("machine node");
        assert_eq!(mgr.graph().capacity(mgr.machine_sink_arcs[&0]), 4);
        let ev = ClusterEvent::JobSubmitted {
            job: Job::new(0, JobClass::Batch, 0, 0),
            tasks: vec![Task::new(10, 0, 0, 1_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        assert_eq!(mgr.graph().supply(mgr.sink()), -1);
        assert_eq!(mgr.machine_node(0), Some(m));
        let (t, unsched_arc) = mgr.task_nodes[&10];
        assert_eq!(mgr.task_node(10), Some(t));
        // The task → U_j arc is recorded when the task is added.
        assert_eq!(mgr.graph().src(unsched_arc), t);
        assert_eq!(mgr.graph().dst(unsched_arc), mgr.unsched_nodes[&0]);
        // Unscheduled agg exists with capacity 1.
        let ua = mgr.unsched_sink_arcs[&0];
        assert_eq!(mgr.graph().capacity(ua), 1);

        for ev in [
            ClusterEvent::TaskPlaced {
                task: 10,
                machine: 0,
                now: 1,
            },
            ClusterEvent::TaskCompleted { task: 10, now: 2 },
        ] {
            state.apply(&ev);
            mgr.apply_event(&TestModel, &state, &ev).unwrap();
        }
        assert_eq!(mgr.graph().supply(mgr.sink()), 0);
        assert_eq!(mgr.graph().capacity(ua), 0);
        assert!(mgr.task_node(10).is_none());
        let ev = ClusterEvent::MachineRemoved { machine: 0, now: 3 };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        assert!(mgr.machine_node(0).is_none());
    }

    #[test]
    fn duplicate_rejected() {
        let (mut state, mut mgr) = setup(1, 1);
        let m0 = state.machines[&0].clone();
        assert!(matches!(
            mgr.apply_event(
                &TestModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m0 }
            ),
            Err(PolicyError::DuplicateMachine(0))
        ));
        let ev = ClusterEvent::JobSubmitted {
            job: Job::new(0, JobClass::Batch, 0, 0),
            tasks: vec![Task::new(5, 0, 0, 10)],
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        assert!(matches!(
            mgr.apply_event(&TestModel, &state, &ev),
            Err(PolicyError::DuplicateTask(5))
        ));
    }

    #[test]
    fn unscheduled_shared_per_job() {
        let (mut state, mut mgr) = setup(1, 1);
        submit(&mut state, &mut mgr, 7, 2);
        assert_eq!(mgr.unsched_nodes.len(), 1);
        let ua = mgr.unsched_sink_arcs[&7];
        assert_eq!(mgr.graph().capacity(ua), 2);
    }

    #[test]
    fn aggregates_materialize_on_demand_with_machine_arcs() {
        let (mut state, mut mgr) = setup(4, 2);
        assert!(mgr.aggregate_node(AGG).is_none(), "lazy until referenced");
        submit(&mut state, &mut mgr, 0, 3);
        let agg = mgr.aggregate_node(AGG).expect("created by first task");
        // Arc to each of the 4 machines.
        let out = mgr
            .graph()
            .adj(agg)
            .iter()
            .copied()
            .filter(|a| a.is_forward())
            .count();
        assert_eq!(out, 4);
        // sink + 4 machines + agg + 3 tasks + U_0 = 10 nodes.
        assert_eq!(mgr.graph().node_count(), 10);
        assert_eq!(mgr.graph().total_supply(), 3);
    }

    #[test]
    fn task_lifecycle_updates_arcs() {
        let (mut state, mut mgr) = setup(2, 2);
        submit(&mut state, &mut mgr, 0, 1);
        let tid = 0u64;
        assert!(mgr.task_arc_slots(tid).is_some(), "waiting task has slots");
        let ev = ClusterEvent::TaskPlaced {
            task: tid,
            machine: 0,
            now: 100,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        assert!(
            mgr.task_arc_slots(tid).is_none(),
            "running task keeps no waiting slots"
        );
        let t = mgr.task_node(tid).unwrap();
        let g = mgr.graph();
        let out: Vec<_> = g
            .adj(t)
            .iter()
            .copied()
            .filter(|&a| a.is_forward())
            .map(|a| g.kind(g.dst(a)))
            .collect();
        assert_eq!(out.len(), 2, "running arc + unscheduled arc");
        assert!(out.iter().any(|k| k.is_machine()));
        assert!(out.iter().any(|k| k.is_unscheduled()));

        let ev = ClusterEvent::TaskPreempted {
            task: tid,
            now: 200,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        assert!(mgr.task_arc_slots(tid).is_some(), "waiting slots restored");
        let g = mgr.graph();
        let out: Vec<_> = g
            .adj(t)
            .iter()
            .copied()
            .filter(|&a| a.is_forward())
            .map(|a| g.kind(g.dst(a)))
            .collect();
        assert!(out.iter().any(|k| matches!(k, NodeKind::ClusterAggregator)));

        let ev = ClusterEvent::TaskPlaced {
            task: tid,
            machine: 1,
            now: 300,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        let ev = ClusterEvent::TaskCompleted {
            task: tid,
            now: 400,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        assert!(mgr.task_node(tid).is_none());
        assert_eq!(mgr.graph().total_supply(), 0);
    }

    #[test]
    fn refresh_tracks_running_counts_on_dirty_machines() {
        let (mut state, mut mgr) = setup(2, 2);
        // Three tasks; two get placed, one keeps waiting so the aggregate
        // retains task in-degree (and survives garbage collection).
        submit(&mut state, &mut mgr, 0, 3);
        for (tid, m) in [(0u64, 0u64), (1, 0)] {
            let ev = ClusterEvent::TaskPlaced {
                task: tid,
                machine: m,
                now: 0,
            };
            state.apply(&ev);
            mgr.apply_event(&TestModel, &state, &ev).unwrap();
        }
        mgr.refresh(&TestModel, &state).unwrap();
        let agg = mgr.aggregate_node(AGG).unwrap();
        let g = mgr.graph();
        let mut costs: Vec<(u64, i64)> = g
            .adj(agg)
            .iter()
            .copied()
            .filter(|&a| a.is_forward())
            .filter_map(|a| match g.kind(g.dst(a)) {
                NodeKind::Machine { machine } => Some((machine, g.cost(a))),
                _ => None,
            })
            .collect();
        costs.sort();
        assert_eq!(costs, vec![(0, 20), (1, 0)]);
    }

    #[test]
    fn quiescent_refresh_touches_nothing() {
        let (mut state, mut mgr) = setup(3, 2);
        submit(&mut state, &mut mgr, 0, 2);
        mgr.refresh(&TestModel, &state).unwrap();
        assert!(mgr.stats().last_tasks_touched > 0);
        // Same state, same clock: the two-pass update finds no dirty nodes.
        mgr.refresh(&TestModel, &state).unwrap();
        assert_eq!(mgr.stats().last_machines_touched, 0);
        assert_eq!(mgr.stats().last_tasks_touched, 0);
    }

    #[test]
    fn machine_removal_rebuilds_displaced_waiting_arcs() {
        let (mut state, mut mgr) = setup(2, 1);
        submit(&mut state, &mut mgr, 0, 1);
        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 10,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        let ev = ClusterEvent::MachineRemoved {
            machine: 0,
            now: 20,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        // The displaced task got its aggregate arc back.
        let slots = mgr.task_arc_slots(0).expect("waiting again");
        assert!(slots
            .iter()
            .any(|(target, s)| *target == ArcTarget::Aggregate(AGG) && !s.is_empty()));
    }

    #[test]
    fn take_and_adopt_graph_roundtrip() {
        let (mut state, mut mgr) = setup(2, 1);
        submit(&mut state, &mut mgr, 0, 1);
        let nodes = mgr.graph().node_count();
        let g = mgr.take_graph();
        assert_eq!(mgr.graph().node_count(), 0);
        mgr.adopt_graph(g);
        assert_eq!(mgr.graph().node_count(), nodes);
    }

    // ------------------------------------------------------------------
    // Convex bundle behavior
    // ------------------------------------------------------------------

    /// A ladder model: per-slot segments priced by standing load.
    struct LadderModel;

    impl CostModel for LadderModel {
        fn name(&self) -> &'static str {
            "ladder-test"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            let running = machine.running.len() as i64;
            Some(ArcBundle::ladder(
                (0..machine.slots as i64).map(|j| 10 * (running + j)),
            ))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
    }

    #[test]
    fn ladder_bundle_materializes_parallel_segment_arcs() {
        let state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 20,
            slots_per_machine: 3,
        });
        let mut state = state;
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &LadderModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 1_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&LadderModel, &state, &ev).unwrap();
        let slots = mgr.aggregate_machine_slots(AGG, 0).expect("bundle slots");
        assert_eq!(slots.len(), 3, "one arc per segment");
        let g = mgr.graph();
        let costs: Vec<i64> = slots.iter().map(|&a| g.cost(a)).collect();
        assert_eq!(costs, vec![0, 10, 20]);
        assert!(slots.iter().all(|&a| g.capacity(a) == 1));
        // All three arcs are parallel aggregate → machine-0 arcs.
        let an = mgr.aggregate_node(AGG).unwrap();
        let mn = mgr.machine_node(0).unwrap();
        assert!(slots.iter().all(|&a| g.src(a) == an && g.dst(a) == mn));
    }

    #[test]
    fn repricing_a_segment_is_slot_stable_and_structural_free() {
        let (mut state, mut mgr) = {
            let state = ClusterState::with_topology(&TopologySpec {
                machines: 2,
                machines_per_rack: 20,
                slots_per_machine: 2,
            });
            let mut mgr = FlowGraphManager::new();
            let mut ms: Vec<_> = state.machines.values().cloned().collect();
            ms.sort_by_key(|m| m.id);
            for m in ms {
                mgr.apply_event(
                    &LadderModel,
                    &state,
                    &ClusterEvent::MachineAdded { machine: m },
                )
                .unwrap();
            }
            (state, mgr)
        };
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..2).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&LadderModel, &state, &ev).unwrap();
        let before: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        mgr.refresh(&LadderModel, &state).unwrap();
        mgr.take_deltas();

        // Place a task on machine 0: its ladder re-prices on refresh.
        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 5,
        };
        state.apply(&ev);
        mgr.apply_event(&LadderModel, &state, &ev).unwrap();
        mgr.refresh(&LadderModel, &state).unwrap();
        let after: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(before, after, "segment slots keep their identity");
        let g = mgr.graph();
        let costs: Vec<i64> = after.iter().map(|&a| g.cost(a)).collect();
        assert_eq!(costs, vec![10, 20], "ladder shifted by the new load");
        // The re-price reached the delta feed as pure cost changes on the
        // machine-0 bundle — no Arc{Added,Removed} for it.
        let batch = mgr.take_deltas();
        let on_bundle = |arc: ArcId| after.contains(&arc);
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::CostChanged { arc, .. } if on_bundle(*arc))));
        assert!(!batch.deltas().iter().any(|d| matches!(
            d,
            GraphDelta::ArcAdded { arc, .. } | GraphDelta::ArcRemoved { arc, .. }
            if on_bundle(*arc)
        )));
    }

    /// Segment count tracks free slots: shrinks when tasks land, grows
    /// when they leave — exercising park/revive in static mode and
    /// remove/re-materialize in dynamic mode.
    struct ShrinkingLadderModel {
        dynamic: bool,
    }

    impl CostModel for ShrinkingLadderModel {
        fn name(&self) -> &'static str {
            "shrinking-ladder"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            let running = machine.running.len() as i64;
            let free = machine.slots as i64 - running;
            Some(ArcBundle::ladder((0..free).map(|j| 10 * (running + j))))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
        fn dynamic_aggregate_arcs(&self) -> bool {
            self.dynamic
        }
    }

    /// One machine with two slots under a [`ShrinkingLadderModel`], and
    /// `tasks` waiting tasks of job 0 (ids `0..tasks`).
    fn shrinking_setup(dynamic: bool, tasks: u64) -> (ClusterState, FlowGraphManager) {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 1,
            machines_per_rack: 20,
            slots_per_machine: 2,
        });
        let model = ShrinkingLadderModel { dynamic };
        let mut mgr = FlowGraphManager::new();
        let m0 = state.machines.values().next().unwrap().clone();
        mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m0 })
            .unwrap();
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..tasks).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        mgr.take_deltas();
        (state, mgr)
    }

    /// Applies `ev`, refreshes, and returns the round's delta batch.
    fn shrinking_step(
        state: &mut ClusterState,
        mgr: &mut FlowGraphManager,
        dynamic: bool,
        ev: ClusterEvent,
    ) -> DeltaBatch {
        let model = ShrinkingLadderModel { dynamic };
        state.apply(&ev);
        mgr.apply_event(&model, state, &ev).unwrap();
        mgr.refresh(&model, state).unwrap();
        mgr.take_deltas()
    }

    fn structural_on(batch: &DeltaBatch, slots: &[ArcId]) -> bool {
        batch.deltas().iter().any(|d| {
            matches!(d, GraphDelta::ArcAdded { arc, .. } | GraphDelta::ArcRemoved { arc, .. }
                if slots.contains(arc))
        })
    }

    fn capacity_changed(batch: &DeltaBatch, slot: ArcId) -> bool {
        batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::CapacityChanged { arc, .. } if *arc == slot))
    }

    #[test]
    fn static_bundles_park_and_revive_on_segment_count_changes() {
        let (mut state, mut mgr) = shrinking_setup(false, 2);
        let slots: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(slots.len(), 2);

        // One task lands: the declared ladder shrinks to one segment; the
        // second slot parks at capacity 0 instead of being removed.
        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 5,
        };
        let batch = shrinking_step(&mut state, &mut mgr, false, ev);
        let after: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(after, slots, "slot identity survives the shrink");
        let g = mgr.graph();
        assert_eq!(g.capacity(slots[0]), 1);
        assert_eq!(g.cost(slots[0]), 10, "remaining slot priced at load 1");
        assert_eq!(g.capacity(slots[1]), 0, "tail parked, not removed");
        assert!(
            capacity_changed(&batch, slots[1]),
            "park is a capacity change"
        );
        assert!(!structural_on(&batch, &slots));

        // The task completes: the ladder grows back, reviving the slot.
        let ev = ClusterEvent::TaskCompleted { task: 0, now: 9 };
        let batch = shrinking_step(&mut state, &mut mgr, false, ev);
        let g = mgr.graph();
        assert_eq!(g.capacity(slots[0]), 1);
        assert_eq!(g.cost(slots[0]), 0);
        assert_eq!(g.capacity(slots[1]), 1, "parked slot revived in place");
        assert_eq!(g.cost(slots[1]), 10);
        assert!(
            capacity_changed(&batch, slots[1]),
            "revival is a capacity change"
        );
        assert!(!structural_on(&batch, &slots));
    }

    /// The dynamic arm of the test above: a dynamic model's shrunk tail and
    /// withdrawn bundle are removed (`ArcRemoved`), and re-declaring the
    /// bundle materializes fresh slots (`ArcAdded`).
    #[test]
    fn dynamic_bundles_remove_and_rematerialize_on_segment_count_changes() {
        // Three tasks on two slots: one always waits, so the aggregate keeps
        // task in-degree and survives garbage collection.
        let (mut state, mut mgr) = shrinking_setup(true, 3);
        let slots: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(slots.len(), 2);

        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 5,
        };
        let batch = shrinking_step(&mut state, &mut mgr, true, ev);
        assert_eq!(
            mgr.aggregate_machine_slots(AGG, 0),
            Some(&slots[..1]),
            "the shrunk tail is removed, the head keeps its slot"
        );
        assert!(!mgr.graph().arc_alive(slots[1]));
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::ArcRemoved { arc, .. } if *arc == slots[1])));

        // The machine fills up: the empty ladder withdraws the bundle.
        let ev = ClusterEvent::TaskPlaced {
            task: 1,
            machine: 0,
            now: 6,
        };
        let batch = shrinking_step(&mut state, &mut mgr, true, ev);
        assert!(mgr.aggregate_machine_slots(AGG, 0).is_none());
        assert!(mgr.aggregate_node(AGG).is_some(), "task 2 still waits");
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::ArcRemoved { arc, .. } if *arc == slots[0])));

        // A slot frees up: the re-declared bundle gets fresh slots.
        let ev = ClusterEvent::TaskCompleted { task: 0, now: 9 };
        let batch = shrinking_step(&mut state, &mut mgr, true, ev);
        let fresh: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(fresh.len(), 1);
        let g = mgr.graph();
        assert_eq!((g.capacity(fresh[0]), g.cost(fresh[0])), (1, 10));
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::ArcAdded { arc, .. } if *arc == fresh[0])));
    }

    /// Capacity-bucketed ladders go through the same stable-slot path as
    /// per-slot ladders: a load re-price patches the same 5 (not 12) arcs
    /// in place and reaches the delta feed as pure `CostChanged` entries —
    /// never structural churn, never capacity churn (bucket capacities
    /// depend only on the slot count).
    #[test]
    fn bucketed_ladder_reprices_as_pure_cost_deltas() {
        use firmament_policies::LoadSpreadingCostModel;
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 20,
            slots_per_machine: 12,
        });
        let model = LoadSpreadingCostModel::bucketed();
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m })
                .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..2).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        let slots: Vec<ArcId> = mgr.aggregate_machine_slots(0, 0).unwrap().to_vec();
        assert_eq!(slots.len(), 5, "12 slots → 5 bucketed segments");
        mgr.refresh(&model, &state).unwrap();
        mgr.take_deltas();

        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 5,
        };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        mgr.refresh(&model, &state).unwrap();
        let after: Vec<ArcId> = mgr.aggregate_machine_slots(0, 0).unwrap().to_vec();
        assert_eq!(slots, after, "bucket slots keep their identity");
        let g = mgr.graph();
        let caps: Vec<i64> = after.iter().map(|&a| g.capacity(a)).collect();
        assert_eq!(caps, vec![1, 1, 2, 4, 4], "geometric capacities intact");
        // Ladder shifted up by one standing task (marginal step 10).
        assert_eq!(g.cost(after[0]), 10);
        let batch = mgr.take_deltas();
        let on_bundle = |arc: ArcId| after.contains(&arc);
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::CostChanged { arc, .. } if on_bundle(*arc))));
        assert!(
            !batch.deltas().iter().any(|d| matches!(
                d,
                GraphDelta::ArcAdded { arc, .. }
                    | GraphDelta::ArcRemoved { arc, .. }
                    | GraphDelta::CapacityChanged { arc, .. }
                if on_bundle(*arc)
            )),
            "a bucketed load re-price must be cost-only"
        );
    }

    /// A bucketed ladder whose slot count tracks *free* slots, so every
    /// placement/completion moves the bucket boundaries themselves.
    struct BucketedDriftModel;

    impl CostModel for BucketedDriftModel {
        fn name(&self) -> &'static str {
            "bucketed-drift"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            let running = machine.running.len() as i64;
            let free = machine.slots as i64 - running;
            Some(ArcBundle::bucketed(free, |j| 10 * (running + j)))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
    }

    /// Bucket-boundary drift under slot-count churn re-prices in place:
    /// segment capacities and costs are patched on the cached slots (and
    /// the tail parks/revives), with **no** `ArcAdded`/`ArcRemoved` in the
    /// delta feed.
    #[test]
    fn bucketed_boundary_drift_reprices_in_place() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 1,
            machines_per_rack: 20,
            slots_per_machine: 12,
        });
        let model = BucketedDriftModel;
        let mut mgr = FlowGraphManager::new();
        let m0 = state.machines.values().next().unwrap().clone();
        mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m0 })
            .unwrap();
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..6).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        let slots: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(slots.len(), 5, "12 free slots → 5 buckets");
        mgr.refresh(&model, &state).unwrap();
        mgr.take_deltas();

        // Four placements: free 12 → 8, buckets [1,1,2,4,4] → [1,1,2,4]
        // — the last slot parks, the others re-price/re-size in place.
        for t in 0..4u64 {
            let ev = ClusterEvent::TaskPlaced {
                task: t,
                machine: 0,
                now: 5 + t,
            };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
        }
        mgr.refresh(&model, &state).unwrap();
        let after: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(slots, after, "boundary drift keeps slot identity");
        let g = mgr.graph();
        let caps: Vec<i64> = after.iter().map(|&a| g.capacity(a)).collect();
        assert_eq!(caps, vec![1, 1, 2, 4, 0], "tail parked, not removed");
        assert_eq!(g.cost(after[0]), 40, "ladder re-anchored at load 4");
        let batch = mgr.take_deltas();
        // The placements themselves rewire task arcs (legitimate structural
        // deltas); the *bundle* slots must only see cost/capacity patches.
        let on_bundle = |arc: ArcId| after.contains(&arc);
        assert!(
            !batch.deltas().iter().any(|d| matches!(
                d,
                GraphDelta::ArcAdded { arc, .. } | GraphDelta::ArcRemoved { arc, .. }
                if on_bundle(*arc)
            )),
            "drifted boundaries must not churn bundle structure: {:?}",
            batch.deltas()
        );
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::CostChanged { arc, .. } if on_bundle(*arc))));
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::CapacityChanged { arc, .. } if on_bundle(*arc))));

        // Completions drift the boundaries back; the parked slot revives.
        for t in 0..4u64 {
            let ev = ClusterEvent::TaskCompleted {
                task: t,
                now: 20 + t,
            };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
        }
        mgr.refresh(&model, &state).unwrap();
        let revived: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(slots, revived);
        let g = mgr.graph();
        let caps: Vec<i64> = revived.iter().map(|&a| g.capacity(a)).collect();
        assert_eq!(caps, vec![1, 1, 2, 4, 4], "full ladder revived in place");
        assert_eq!(g.cost(revived[0]), 0);
    }

    /// Models that declare decreasing-cost ladders are rejected with the
    /// typed error, from every hook.
    struct NonConvexModel {
        from: &'static str,
    }

    impl CostModel for NonConvexModel {
        fn name(&self) -> &'static str {
            "non-convex"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            1
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            let bundle = if self.from == "task_arcs" {
                ArcBundle::ladder([5, 3])
            } else {
                ArcBundle::cost(0)
            };
            vec![(ArcTarget::Aggregate(AGG), bundle)]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            aggregate: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            if aggregate != AGG {
                return None;
            }
            Some(if self.from == "aggregate_arc" {
                ArcBundle::ladder([9, 2])
            } else {
                ArcBundle::single(machine.slots as i64, 0)
            })
        }
        fn aggregate_to_aggregate(
            &self,
            _: &ClusterState,
            aggregate: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            if self.from == "aggregate_to_aggregate" && aggregate == AGG {
                vec![(7, ArcBundle::ladder([4, 1]))]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn non_convex_bundles_rejected_from_every_hook() {
        for from in ["task_arcs", "aggregate_arc", "aggregate_to_aggregate"] {
            let model = NonConvexModel { from };
            let mut state = ClusterState::with_topology(&TopologySpec {
                machines: 1,
                machines_per_rack: 20,
                slots_per_machine: 2,
            });
            let mut mgr = FlowGraphManager::new();
            let m0 = state.machines.values().next().unwrap().clone();
            mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m0 })
                .unwrap();
            let j = Job::new(0, JobClass::Batch, 0, 0);
            let ev = ClusterEvent::JobSubmitted {
                job: j,
                tasks: vec![Task::new(0, 0, 0, 1_000_000)],
            };
            state.apply(&ev);
            let err = mgr.apply_event(&model, &state, &ev);
            assert!(
                matches!(
                    err,
                    Err(PolicyError::NonConvexBundle { hook, .. }) if hook == from
                ),
                "{from}: expected NonConvexBundle, got {err:?}"
            );
        }
    }

    // ------------------------------------------------------------------
    // Dynamic task-arc re-pricing
    // ------------------------------------------------------------------

    /// Preference costs decay with wait time (e.g. locality that matters
    /// less the longer a task starves): the dynamic_task_arcs hook lets
    /// the refresh patch them without structural events.
    struct DecayingPrefModel;

    impl CostModel for DecayingPrefModel {
        fn name(&self) -> &'static str {
            "decaying-pref"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            let wait_sec = state.now.saturating_sub(task.submit_time) / 1_000_000;
            // The machine preference fades as the task waits.
            vec![
                (ArcTarget::Aggregate(AGG), ArcBundle::cost(50)),
                (
                    ArcTarget::Machine(0),
                    ArcBundle::cost((40i64 - wait_sec as i64).max(0)),
                ),
            ]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 0))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
        fn dynamic_task_arcs(&self) -> bool {
            true
        }
    }

    #[test]
    fn dynamic_task_arcs_reprice_in_place_on_clock_advance() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &DecayingPrefModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 60_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&DecayingPrefModel, &state, &ev).unwrap();
        mgr.refresh(&DecayingPrefModel, &state).unwrap();
        let slots_before: Vec<(ArcTarget, Vec<ArcId>)> = mgr.task_arc_slots(0).unwrap().to_vec();
        let pref = slots_before
            .iter()
            .find(|(t, _)| *t == ArcTarget::Machine(0))
            .unwrap()
            .1[0];
        assert_eq!(mgr.graph().cost(pref), 40);

        // 10 seconds pass: the preference cost decays — in place.
        let ev = ClusterEvent::Tick { now: 10_000_000 };
        state.apply(&ev);
        mgr.apply_event(&DecayingPrefModel, &state, &ev).unwrap();
        mgr.take_deltas();
        mgr.refresh(&DecayingPrefModel, &state).unwrap();
        assert_eq!(
            mgr.task_arc_slots(0).unwrap().to_vec(),
            slots_before,
            "re-pricing must not rebuild the arc set"
        );
        assert_eq!(mgr.graph().cost(pref), 30, "decayed by 10s");
        // And the batch carries no structural deltas for the task arcs.
        let batch = mgr.take_deltas();
        assert!(!batch.deltas().iter().any(|d| matches!(
            d,
            GraphDelta::ArcAdded { .. } | GraphDelta::ArcRemoved { .. }
        )));
    }

    /// Target-set drift under dynamic_task_arcs forces a full re-derive.
    struct TargetDriftModel;

    impl CostModel for TargetDriftModel {
        fn name(&self) -> &'static str {
            "target-drift"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, state: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            // After 5 s the task also wants a second aggregate.
            let mut arcs = vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))];
            if state.now >= 5_000_000 {
                arcs.push((ArcTarget::Aggregate(77), ArcBundle::cost(3)));
            }
            arcs
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 0))
        }
        fn dynamic_task_arcs(&self) -> bool {
            true
        }
    }

    #[test]
    fn dynamic_task_arcs_rebuild_on_target_set_change() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 1,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        let m0 = state.machines.values().next().unwrap().clone();
        mgr.apply_event(
            &TargetDriftModel,
            &state,
            &ClusterEvent::MachineAdded { machine: m0 },
        )
        .unwrap();
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 60_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&TargetDriftModel, &state, &ev).unwrap();
        assert_eq!(mgr.task_arc_slots(0).unwrap().len(), 1);
        assert!(mgr.aggregate_node(77).is_none());

        let ev = ClusterEvent::Tick { now: 6_000_000 };
        state.apply(&ev);
        mgr.apply_event(&TargetDriftModel, &state, &ev).unwrap();
        mgr.refresh(&TargetDriftModel, &state).unwrap();
        let slots = mgr.task_arc_slots(0).unwrap();
        assert_eq!(slots.len(), 2, "new target materialized");
        assert!(mgr.aggregate_node(77).is_some());
    }

    // ------------------------------------------------------------------
    // Hierarchies (EC→EC)
    // ------------------------------------------------------------------

    /// A two-level hierarchy for manager tests: root `X` → per-rack
    /// aggregates → machines of that rack (no direct X→machine arcs).
    struct HierModel;
    const ROOT: AggregateId = 100;
    fn rack_of(agg: AggregateId) -> u32 {
        (agg - 200) as u32
    }
    fn hier_rack_agg(rack: u32) -> AggregateId {
        200 + rack as AggregateId
    }

    impl CostModel for HierModel {
        fn name(&self) -> &'static str {
            "hier-test"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(ROOT), ArcBundle::cost(0))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            aggregate: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            (aggregate != ROOT && rack_of(aggregate) == machine.rack)
                .then(|| ArcBundle::single(machine.slots as i64, 10 * machine.running.len() as i64))
        }
        fn aggregate_to_aggregate(
            &self,
            state: &ClusterState,
            aggregate: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            if aggregate != ROOT {
                return Vec::new();
            }
            firmament_policies::rack_capacities(state)
                .into_iter()
                .map(|(rack, slots, running)| {
                    (hier_rack_agg(rack), ArcBundle::single(slots, running))
                })
                .collect()
        }
        fn aggregate_kind(&self, aggregate: AggregateId) -> NodeKind {
            if aggregate == ROOT {
                NodeKind::ClusterAggregator
            } else {
                NodeKind::RackAggregator {
                    rack: rack_of(aggregate),
                }
            }
        }
    }

    fn hier_setup(
        machines: usize,
        per_rack: usize,
        slots: u32,
    ) -> (ClusterState, FlowGraphManager) {
        let state = ClusterState::with_topology(&TopologySpec {
            machines,
            machines_per_rack: per_rack,
            slots_per_machine: slots,
        });
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &HierModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        (state, mgr)
    }

    fn hier_submit(state: &mut ClusterState, mgr: &mut FlowGraphManager, job: u64, n: usize) {
        let j = Job::new(job, JobClass::Batch, 0, state.now);
        let tasks: Vec<Task> = (0..n)
            .map(|i| Task::new(job * 1000 + i as u64, job, state.now, 10_000_000))
            .collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&HierModel, state, &ev).unwrap();
    }

    #[test]
    fn hierarchy_materializes_recursively_without_direct_root_machine_arcs() {
        // 4 machines in 2 racks of 2.
        let (mut state, mut mgr) = hier_setup(4, 2, 2);
        assert!(mgr.aggregate_node(ROOT).is_none());
        hier_submit(&mut state, &mut mgr, 0, 1);
        let root = mgr.aggregate_node(ROOT).expect("root materialized");
        for rack in [0u32, 1] {
            let rn = mgr
                .aggregate_node(hier_rack_agg(rack))
                .expect("rack agg materialized via EC→EC declaration");
            let arc = mgr
                .aggregate_to_aggregate_slots(ROOT, hier_rack_agg(rack))
                .expect("EC→EC arc exists")[0];
            assert_eq!(mgr.graph().src(arc), root);
            assert_eq!(mgr.graph().dst(arc), rn);
            // Capacity propagated: 2 machines × 2 slots per rack.
            assert_eq!(mgr.graph().capacity(arc), 4);
        }
        // The root has exactly its 2 EC→EC arcs — no machine arcs.
        let root_out: Vec<NodeKind> = mgr
            .graph()
            .adj(root)
            .iter()
            .copied()
            .filter(|a| a.is_forward())
            .map(|a| mgr.graph().kind(mgr.graph().dst(a)))
            .collect();
        assert_eq!(root_out.len(), 2);
        assert!(root_out
            .iter()
            .all(|k| matches!(k, NodeKind::RackAggregator { .. })));
        // Each rack agg reaches exactly its 2 machines.
        for rack in [0u32, 1] {
            let rn = mgr.aggregate_node(hier_rack_agg(rack)).unwrap();
            let machines: Vec<u64> = mgr
                .graph()
                .adj(rn)
                .iter()
                .copied()
                .filter(|a| a.is_forward())
                .filter_map(|a| match mgr.graph().kind(mgr.graph().dst(a)) {
                    NodeKind::Machine { machine } => Some(machine),
                    _ => None,
                })
                .collect();
            assert_eq!(machines.len(), 2, "rack {rack}");
            for m in machines {
                assert_eq!(state.machines[&m].rack, rack);
            }
        }
    }

    #[test]
    fn ec_ec_costs_and_caps_refresh_through_dirty_propagation() {
        let (mut state, mut mgr) = hier_setup(4, 2, 2);
        hier_submit(&mut state, &mut mgr, 0, 3);
        // Place two tasks on rack-0 machines; the X→R_0 arc must re-price.
        for (tid, m) in [(0u64, 0u64), (1, 1)] {
            let ev = ClusterEvent::TaskPlaced {
                task: tid,
                machine: m,
                now: 0,
            };
            state.apply(&ev);
            mgr.apply_event(&HierModel, &state, &ev).unwrap();
        }
        mgr.refresh(&HierModel, &state).unwrap();
        let a0 = mgr
            .aggregate_to_aggregate_slots(ROOT, hier_rack_agg(0))
            .unwrap()[0];
        let a1 = mgr
            .aggregate_to_aggregate_slots(ROOT, hier_rack_agg(1))
            .unwrap()[0];
        assert_eq!(mgr.graph().cost(a0), 2, "two tasks running in rack 0");
        assert_eq!(mgr.graph().cost(a1), 0, "rack 1 idle");
    }

    #[test]
    fn machine_in_new_rack_extends_hierarchy_on_refresh() {
        let (mut state, mut mgr) = hier_setup(2, 2, 1);
        hier_submit(&mut state, &mut mgr, 0, 1);
        assert!(mgr.aggregate_node(hier_rack_agg(7)).is_none());
        // A machine appears in brand-new rack 7.
        let m = Machine::new(50, 7, 1);
        let ev = ClusterEvent::MachineAdded { machine: m };
        state.apply(&ev);
        mgr.apply_event(&HierModel, &state, &ev).unwrap();
        mgr.refresh(&HierModel, &state).unwrap();
        let rn = mgr
            .aggregate_node(hier_rack_agg(7))
            .expect("new rack level materialized by EC→EC re-sync");
        assert!(mgr
            .aggregate_to_aggregate_slots(ROOT, hier_rack_agg(7))
            .is_some());
        // And the new rack aggregate got its machine arc.
        let out = mgr
            .graph()
            .adj(rn)
            .iter()
            .copied()
            .filter(|a| a.is_forward())
            .count();
        assert_eq!(out, 1);
    }

    #[test]
    fn aggregates_gc_when_task_indegree_drops_to_zero() {
        let (mut state, mut mgr) = hier_setup(4, 2, 2);
        let baseline = mgr.graph().node_count();
        hier_submit(&mut state, &mut mgr, 0, 2);
        mgr.refresh(&HierModel, &state).unwrap();
        assert!(mgr.aggregate_count() > 0);
        for tid in [0u64, 1] {
            let ev = ClusterEvent::TaskPlaced {
                task: tid,
                machine: tid,
                now: 5,
            };
            state.apply(&ev);
            mgr.apply_event(&HierModel, &state, &ev).unwrap();
            let ev = ClusterEvent::TaskCompleted { task: tid, now: 10 };
            state.apply(&ev);
            mgr.apply_event(&HierModel, &state, &ev).unwrap();
        }
        mgr.refresh(&HierModel, &state).unwrap();
        // Root, rack aggregates, and the job's U_0 are all unreachable now.
        assert_eq!(mgr.aggregate_count(), 0, "hierarchy collected");
        assert_eq!(mgr.graph().node_count(), baseline, "back to sink+machines");
        assert!(mgr.stats().aggregates_collected >= 4);
        // Reuse after GC: a new job rematerializes the hierarchy.
        hier_submit(&mut state, &mut mgr, 1, 1);
        assert!(mgr.aggregate_node(ROOT).is_some());
    }

    /// A deliberately cyclic hierarchy: 0 → 1 → 0.
    struct CyclicModel;

    impl CostModel for CyclicModel {
        fn name(&self) -> &'static str {
            "cyclic"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            1
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(0), ArcBundle::cost(0))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 0))
        }
        fn aggregate_to_aggregate(
            &self,
            _: &ClusterState,
            aggregate: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            let next = if aggregate == 0 { 1 } else { 0 };
            vec![(next, ArcBundle::single(10, 0))]
        }
    }

    /// A cycle that only closes *across* separate materializations: agg 0
    /// declares child 1 only once a third machine exists, while agg 1
    /// always declares child 0. Agg 0 is materialized alone first; the
    /// machine addition then makes the refresh re-sync try to connect
    /// 0 → 1 after materializing 1 (which links 1 → 0) — reachability is
    /// checked after the child subtree exists, so the loop is caught.
    struct LateCycleModel;

    impl CostModel for LateCycleModel {
        fn name(&self) -> &'static str {
            "late-cycle"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            1
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(0), ArcBundle::cost(0))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 0))
        }
        fn aggregate_to_aggregate(
            &self,
            state: &ClusterState,
            aggregate: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            let bundle = ArcBundle::single(10, 0);
            match aggregate {
                0 if state.machines.len() >= 3 => vec![(1, bundle)],
                1 => vec![(0, bundle)],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn cycle_closing_across_materializations_is_rejected() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 2,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &LateCycleModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        // Materialize agg 0 while it declares no children.
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 1_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&LateCycleModel, &state, &ev).unwrap();
        mgr.refresh(&LateCycleModel, &state).unwrap();
        // The third machine makes agg 0 declare agg 1, whose own
        // materialization links back to agg 0.
        let ev = ClusterEvent::MachineAdded {
            machine: Machine::new(10, 0, 1),
        };
        state.apply(&ev);
        mgr.apply_event(&LateCycleModel, &state, &ev).unwrap();
        let err = mgr.refresh(&LateCycleModel, &state);
        assert!(
            matches!(err, Err(PolicyError::AggregateCycle(0))),
            "late-closing EC→EC cycle must be detected, got {err:?}"
        );
        // The cycle-closing arc was never installed: agg 1's materialized
        // subtree links 1 → 0, but 0 → 1 must be absent, keeping the
        // network a DAG even on the error path.
        assert!(mgr.aggregate_to_aggregate_slots(1, 0).is_some());
        assert!(mgr.aggregate_to_aggregate_slots(0, 1).is_none());
        // The error is deterministic: retrying re-queries the same
        // declaration and fails the same way.
        assert!(matches!(
            mgr.refresh(&LateCycleModel, &state),
            Err(PolicyError::AggregateCycle(0))
        ));
    }

    /// A gang whose tasks can only reach one 1-slot machine must be
    /// deferred even though the cluster as a whole has enough slots.
    struct NarrowGangModel;

    impl CostModel for NarrowGangModel {
        fn name(&self) -> &'static str {
            "narrow-gang"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            0
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Machine(0), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            _: &Machine,
        ) -> Option<ArcBundle> {
            None
        }
        fn job_gang_minimum(&self, _: &ClusterState, _: &Job) -> i64 {
            2
        }
        fn task_arcs_machine_local(&self) -> bool {
            // Declares Machine(0) unconditionally — the exact contract the
            // narrowing requires (references to absent machines are
            // parked and found on arrival).
            true
        }
    }

    #[test]
    fn late_arriving_preference_machine_gets_its_arc() {
        // NarrowGangModel declares ArcTarget::Machine(0) for every task.
        // Submit while machine 0 is absent, then add it: the waiting arc
        // re-derivation on MachineAdded must materialize the preference
        // arc, exactly as a from-scratch build would — through the
        // narrowed path, since the model is machine-local.
        let mut state = ClusterState::default();
        let mut mgr = FlowGraphManager::new();
        let ev = ClusterEvent::MachineAdded {
            machine: Machine::new(7, 0, 1),
        };
        state.apply(&ev);
        mgr.apply_event(&NarrowGangModel, &state, &ev).unwrap();
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 1_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&NarrowGangModel, &state, &ev).unwrap();
        let t = mgr.task_node(0).unwrap();
        assert!(
            mgr.machine_node(0).is_none(),
            "preference target not in the cluster yet"
        );
        // The absent machine is recorded as a parked reference.
        let slots = mgr.task_arc_slots(0).unwrap();
        assert!(slots
            .iter()
            .any(|(t, s)| *t == ArcTarget::Machine(0) && s.is_empty()));
        let ev = ClusterEvent::MachineAdded {
            machine: Machine::new(0, 0, 1),
        };
        state.apply(&ev);
        mgr.apply_event(&NarrowGangModel, &state, &ev).unwrap();
        let m = mgr.machine_node(0).unwrap();
        let g = mgr.graph();
        let slots = mgr.task_arc_slots(0).unwrap();
        assert!(
            slots
                .iter()
                .any(|(target, s)| *target == ArcTarget::Machine(0)
                    && s.iter().any(|&a| g.src(a) == t && g.dst(a) == m)),
            "late-arriving preference machine must get the declared arc"
        );
    }

    #[test]
    fn gang_beyond_reachable_capacity_is_deferred() {
        // 3 machines × 1 slot = 3 total slots ≥ gang of 2, but the tasks
        // only have arcs to machine 0 (1 slot).
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 3,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &NarrowGangModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..3).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&NarrowGangModel, &state, &ev).unwrap();
        mgr.refresh(&NarrowGangModel, &state).unwrap();
        assert_eq!(
            mgr.deferred_gang_jobs(),
            &[0],
            "structurally unreachable gang must defer, not go infeasible"
        );
        assert_eq!(
            mgr.graph().capacity(mgr.unsched_sink_arcs[&0]),
            3,
            "deferred gang leaves U_0 → S unconstrained"
        );
    }

    #[test]
    fn cyclic_hierarchy_is_rejected() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 2,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values() {
            mgr.apply_event(
                &CyclicModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m.clone() },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks = vec![Task::new(0, 0, 0, 1_000_000)];
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        let err = mgr.apply_event(&CyclicModel, &state, &ev);
        assert!(
            matches!(err, Err(PolicyError::AggregateCycle(0))),
            "cycle must be detected, got {err:?}"
        );
    }

    /// Gang constraints squeeze the unscheduled capacity.
    struct GangModel;

    impl CostModel for GangModel {
        fn name(&self) -> &'static str {
            "gang"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            0 // unscheduled is free: only the gang constraint forces work
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 5))
        }
        fn job_gang_minimum(&self, _: &ClusterState, _: &Job) -> i64 {
            2
        }
    }

    #[test]
    fn gang_minimum_caps_unscheduled_capacity() {
        let state = ClusterState::with_topology(&TopologySpec {
            machines: 3,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut state = state;
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values() {
            mgr.apply_event(
                &GangModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m.clone() },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..3).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&GangModel, &state, &ev).unwrap();
        mgr.refresh(&GangModel, &state).unwrap();
        let ua = mgr.unsched_sink_arcs[&0];
        // 3 incomplete tasks − gang minimum 2 = capacity 1.
        assert_eq!(mgr.graph().capacity(ua), 1);
    }

    #[test]
    fn gang_beyond_capacity_is_deferred_not_infeasible() {
        // 3 slots total; two gang-2 jobs demand 4 forced placements.
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 3,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values() {
            mgr.apply_event(
                &GangModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m.clone() },
            )
            .unwrap();
        }
        for job in 0..2u64 {
            let j = Job::new(job, JobClass::Batch, 0, 0);
            let tasks: Vec<Task> = (0..3)
                .map(|i| Task::new(job * 100 + i, job, 0, 1_000_000))
                .collect();
            let ev = ClusterEvent::JobSubmitted { job: j, tasks };
            state.apply(&ev);
            mgr.apply_event(&GangModel, &state, &ev).unwrap();
        }
        mgr.refresh(&GangModel, &state).unwrap();
        // Job 0 is admitted (cap 3−2=1); job 1 is deferred (cap stays 3).
        assert_eq!(mgr.deferred_gang_jobs(), &[1]);
        assert_eq!(mgr.graph().capacity(mgr.unsched_sink_arcs[&0]), 1);
        assert_eq!(mgr.graph().capacity(mgr.unsched_sink_arcs[&1]), 3);
        // Capacity appears: two more machines admit the second gang.
        for id in [10u64, 11] {
            let m = Machine::new(id, 0, 1);
            let ev = ClusterEvent::MachineAdded { machine: m };
            state.apply(&ev);
            mgr.apply_event(&GangModel, &state, &ev).unwrap();
        }
        mgr.refresh(&GangModel, &state).unwrap();
        assert!(mgr.deferred_gang_jobs().is_empty());
        assert_eq!(mgr.graph().capacity(mgr.unsched_sink_arcs[&1]), 1);
    }

    /// A flat model that counts its `aggregate_to_aggregate` queries, to
    /// pin the dirty-set narrowing: machine events on hierarchy-free
    /// models must not trigger per-aggregate no-op EC→EC queries.
    struct CountingFlatModel {
        a2a_queries: std::cell::Cell<u64>,
    }

    impl CostModel for CountingFlatModel {
        fn name(&self) -> &'static str {
            "counting-flat"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            10_000
        }
        fn task_arcs(&self, _: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            // Per-job aggregates, so the manager holds many flat aggregates.
            vec![(ArcTarget::Aggregate(500 + task.job), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 1))
        }
        fn aggregate_to_aggregate(
            &self,
            _: &ClusterState,
            _: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            self.a2a_queries.set(self.a2a_queries.get() + 1);
            Vec::new()
        }
    }

    #[test]
    fn flat_models_skip_aggregate_resync_on_machine_events() {
        let model = CountingFlatModel {
            a2a_queries: std::cell::Cell::new(0),
        };
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 20,
            slots_per_machine: 2,
        });
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values().cloned().collect::<Vec<_>>() {
            mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m })
                .unwrap();
        }
        // Ten jobs → ten flat per-job aggregates (queried once each at
        // materialization).
        for job in 0..10u64 {
            let j = Job::new(job, JobClass::Batch, 0, 0);
            let tasks = vec![Task::new(job * 100, job, 0, 1_000_000)];
            let ev = ClusterEvent::JobSubmitted { job: j, tasks };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
        }
        mgr.refresh(&model, &state).unwrap();
        let before = model.a2a_queries.get();

        // A machine joins and another leaves. Without narrowing, every
        // one of the ten aggregates would be re-synced (one EC→EC query
        // each, twice); with it, only aggregates adjacent to the touched
        // machine are — and their sync cost is already paid by the
        // machine-arc pass.
        let m = Machine::new(77, 0, 2);
        let ev = ClusterEvent::MachineAdded { machine: m };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        mgr.refresh(&model, &state).unwrap();
        let ev = ClusterEvent::MachineRemoved {
            machine: 77,
            now: 5,
        };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        mgr.refresh(&model, &state).unwrap();

        let after = model.a2a_queries.get();
        // The machine-add still syncs aggregates that gained an arc to the
        // new machine (they become dirty through adjacency); the blanket
        // all-aggregate sweep — 20 queries here — must be gone. Machine
        // *removal* must trigger none at all.
        assert!(
            after - before <= 10,
            "machine events triggered {} EC→EC queries on a flat model",
            after - before
        );
    }

    /// Counts task_arcs queries, to pin the waiting-task half of the
    /// dirty-set narrowing.
    struct CountingTaskModel {
        machine_local: bool,
        task_queries: std::cell::Cell<u64>,
    }

    impl CostModel for CountingTaskModel {
        fn name(&self) -> &'static str {
            "counting-task"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            10_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            self.task_queries.set(self.task_queries.get() + 1);
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 1))
        }
        fn task_arcs_machine_local(&self) -> bool {
            self.machine_local
        }
    }

    #[test]
    fn machine_local_models_skip_waiting_task_rederivation() {
        for machine_local in [false, true] {
            let model = CountingTaskModel {
                machine_local,
                task_queries: std::cell::Cell::new(0),
            };
            let mut state = ClusterState::with_topology(&TopologySpec {
                machines: 2,
                machines_per_rack: 20,
                slots_per_machine: 1,
            });
            let mut mgr = FlowGraphManager::new();
            for m in state.machines.values().cloned().collect::<Vec<_>>() {
                mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m })
                    .unwrap();
            }
            // 20 waiting tasks, none referencing any machine directly.
            let j = Job::new(0, JobClass::Batch, 0, 0);
            let tasks: Vec<Task> = (0..20).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
            let ev = ClusterEvent::JobSubmitted { job: j, tasks };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
            let before = model.task_queries.get();
            let rederived_before = mgr.stats().waiting_rederived;

            // Machine churn: one add, one remove.
            let m = Machine::new(50, 0, 1);
            let ev = ClusterEvent::MachineAdded { machine: m };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
            let ev = ClusterEvent::MachineRemoved {
                machine: 50,
                now: 5,
            };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();

            let queries = model.task_queries.get() - before;
            let rederived = mgr.stats().waiting_rederived - rederived_before;
            if machine_local {
                assert_eq!(
                    queries, 0,
                    "machine-local model must not re-query any waiting task"
                );
                assert_eq!(rederived, 0);
            } else {
                assert_eq!(
                    queries, 40,
                    "full re-query: every waiting task, on both events"
                );
                assert_eq!(rederived, 40);
            }
        }
    }

    #[test]
    fn hierarchical_models_still_resync_on_machine_events() {
        // The narrowing must not regress hierarchy growth: this is the
        // `machine_in_new_rack_extends_hierarchy_on_refresh` scenario,
        // re-checked here because it is exactly what the blanket dirtying
        // existed for.
        let (mut state, mut mgr) = hier_setup(2, 2, 1);
        hier_submit(&mut state, &mut mgr, 0, 1);
        let m = Machine::new(50, 7, 1);
        let ev = ClusterEvent::MachineAdded { machine: m };
        state.apply(&ev);
        mgr.apply_event(&HierModel, &state, &ev).unwrap();
        mgr.refresh(&HierModel, &state).unwrap();
        assert!(mgr.aggregate_node(hier_rack_agg(7)).is_some());
    }

    #[test]
    fn take_deltas_covers_one_handoff_window() {
        let (mut state, mut mgr) = setup(2, 2);
        // Drain the build-up batch (sink + machines).
        let initial = mgr.take_deltas();
        assert!(!initial.is_empty());
        // A quiescent window records nothing.
        mgr.refresh(&TestModel, &state).unwrap();
        assert!(mgr.take_deltas().is_empty());
        // A job submission lands in the next batch exactly once.
        submit(&mut state, &mut mgr, 0, 2);
        mgr.refresh(&TestModel, &state).unwrap();
        let batch = mgr.take_deltas();
        assert!(!batch.is_empty());
        assert!(batch.raw_len() >= batch.len(), "compaction never grows");
        assert!(mgr.take_deltas().is_empty(), "batch drained");
    }

    #[test]
    fn take_deltas_replays_onto_snapshot() {
        let (mut state, mut mgr) = setup(3, 2);
        mgr.take_deltas();
        let mut snapshot = mgr.graph().clone();
        submit(&mut state, &mut mgr, 0, 3);
        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 1,
            now: 50,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        mgr.refresh(&TestModel, &state).unwrap();
        mgr.take_deltas().replay(&mut snapshot).unwrap();
        let live = mgr.graph();
        for n in live.node_ids() {
            assert!(snapshot.node_alive(n));
            assert_eq!(snapshot.kind(n), live.kind(n));
            assert_eq!(snapshot.supply(n), live.supply(n));
        }
        assert_eq!(snapshot.node_count(), live.node_count());
        assert_eq!(snapshot.arc_count(), live.arc_count());
        for a in live.arc_ids() {
            assert!(snapshot.arc_alive(a));
            assert_eq!(snapshot.src(a), live.src(a));
            assert_eq!(snapshot.dst(a), live.dst(a));
            assert_eq!(snapshot.capacity(a), live.capacity(a));
            assert_eq!(snapshot.cost(a), live.cost(a));
        }
    }

    #[test]
    fn bundle_validation_helpers() {
        assert!(validate_bundle("task_arcs", &ArcBundle::ladder([1, 2, 2])).is_ok());
        let err = validate_bundle("aggregate_arc", &ArcBundle::ladder([3, 1]));
        assert!(matches!(
            err,
            Err(PolicyError::NonConvexBundle {
                hook: "aggregate_arc",
                prev: 3,
                next: 1
            })
        ));
        // Zero-capacity segments are legal (parked), convexity still holds.
        let b = ArcBundle::from_segments(vec![
            ArcSpec {
                capacity: 0,
                cost: 1,
            },
            ArcSpec {
                capacity: 4,
                cost: 2,
            },
        ]);
        assert!(validate_bundle("task_arcs", &b).is_ok());
    }
}
