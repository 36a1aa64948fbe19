//! Firmament: fast, centralized cluster scheduling at scale.
//!
//! A Rust reproduction of *Gog, Schwarzkopf, Gleave, Watson, Hand —
//! "Firmament: Fast, Centralized Cluster Scheduling at Scale" (OSDI 2016)*.
//! This façade crate re-exports the workspace's public API:
//!
//! - [`flow`]: the flow-network substrate;
//! - [`mcmf`]: the four MCMF algorithms, incremental variants, and the
//!   speculative dual solver;
//! - [`cluster`]: machines, jobs, tasks, and the block store;
//! - [`policies`]: the declarative [`CostModel`](policies::CostModel) API
//!   and the load-spreading, Quincy, network-aware, and Octopus models;
//! - [`core`]: the scheduler service, the
//!   [`FlowGraphManager`](core::FlowGraphManager), and placement
//!   extraction;
//! - [`sim`]: the discrete-event simulator, trace generator, and testbed;
//! - [`baselines`]: Sparrow/SwarmKit/Kubernetes/Mesos placement logic.
//!
//! # Quickstart
//!
//! ```
//! use firmament::cluster::{ClusterEvent, ClusterState, Job, JobClass, Task, TopologySpec};
//! use firmament::core::Firmament;
//! use firmament::policies::LoadSpreadingCostModel;
//!
//! let mut state = ClusterState::with_topology(&TopologySpec::default());
//! let mut scheduler = Firmament::new(LoadSpreadingCostModel::new());
//! let machines: Vec<_> = state.machines.values().cloned().collect();
//! for m in machines {
//!     scheduler
//!         .handle_event(&state, &ClusterEvent::MachineAdded { machine: m })
//!         .unwrap();
//! }
//! let ev = ClusterEvent::JobSubmitted {
//!     job: Job::new(0, JobClass::Batch, 0, 0),
//!     tasks: vec![Task::new(0, 0, 0, 5_000_000)],
//! };
//! state.apply(&ev);
//! scheduler.handle_event(&state, &ev).unwrap();
//! let outcome = scheduler.schedule(&state).unwrap();
//! assert_eq!(outcome.placed_tasks, 1);
//! ```
//!
//! # Migrating from the `SchedulingPolicy` API (pre-0.2)
//!
//! The monolithic `SchedulingPolicy` trait — where each policy owned a
//! `GraphBase` and hand-maintained its flow network — has been split into
//! two cooperating APIs, mirroring real Firmament's
//! `CostModelInterface`/`FlowGraphManager` design:
//!
//! - [`policies::CostModel`] *declares* per-arc costs and arc structure
//!   (task → aggregate/machine arcs, aggregate → machine arcs,
//!   unscheduled costs, gang minimums) as pure functions of
//!   [`cluster::ClusterState`];
//! - [`core::FlowGraphManager`] owns the graph, translates
//!   [`cluster::ClusterEvent`]s into deltas, and runs the two-pass cost
//!   update of §6.3 touching only dirty nodes.
//!
//! Concretely:
//!
//! | pre-0.2 | 0.2 |
//! |---------|-----|
//! | `LoadSpreadingPolicy` / `QuincyPolicy` / `NetworkAwarePolicy` | `LoadSpreadingCostModel` / `QuincyCostModel` / `NetworkAwareCostModel` (the deprecated aliases were removed in 0.6) |
//! | `impl SchedulingPolicy` (~300–450 lines incl. graph code) | `impl CostModel` (a few dozen lines of cost arithmetic) |
//! | `firmament.policy()` / `policy_mut()` | [`model()`](core::Firmament::model) / [`model_mut()`](core::Firmament::model_mut) |
//! | `firmament.policy().base().graph` | [`graph()`](core::Firmament::graph) |
//! | `policy.refresh_costs(&state)` | [`refresh(&state)`](core::Firmament::refresh) |
//! | `policy.base().task_node(..)` | [`manager().task_node(..)`](core::FlowGraphManager::task_node) |
//!
//! `extract_placements` now returns a `BTreeMap` (task-ordered), making
//! scheduler action order deterministic by construction, and the solver
//! consumes the graph by move (since 0.6 through its single entry point,
//! `DualSolver::solve_owned_with_deltas`) instead of cloning it every
//! round.
//!
//! # The delta-feed solver handoff (0.3)
//!
//! The manager's graph records every structural and pricing mutation in a
//! typed change log; once per round the scheduler drains and compacts it
//! into a [`flow::delta::DeltaBatch`] (add-then-remove cancels, repeated
//! re-pricings merge) and hands it to the solver alongside the graph:
//!
//! ```text
//!  events ─► FlowGraphManager ─► refresh (§6.3, dirty nodes only)
//!                 │                    │
//!                 │ take_deltas()      │ take_graph()
//!                 ▼                    ▼
//!           DeltaBatch ───────► DualSolver::solve_owned_with_deltas
//!                                      │
//!                 relaxation ∥ IncrementalCostScaling::solve_with_deltas
//!                                      │ optimal flow (adopted back)
//! ```
//!
//! The incremental cost-scaling side consumes the feed natively, and
//! since 0.6 this is its only warm path (a caller with no feed passes
//! `None`, which makes every live node dirty): new nodes get targeted price
//! initialization, the starting ε comes from a violation scan over the
//! dirty region only, feasibility damage becomes local excesses, and the
//! ε-schedule's per-phase saturation visits only arcs adjacent to the
//! dirty region (see [`mcmf::incremental`] for the contract and
//! [`flow::delta`] for the compaction/replay rules). A configurable
//! safety valve (`IncrementalConfig::warm_work_bailout`) abandons a warm
//! attempt that exceeds a multiple of the last from-scratch solve's work
//! and re-solves cold, bounding warm-start pathologies. Per-round
//! telemetry (deltas fed, nodes touched, bailouts, winner) is surfaced on
//! [`core::RoundOutcome::solver`]. The feed's fidelity is pinned by the
//! delta-replay oracle in `tests/graph_refresh_differential.rs`:
//! replaying each round's batch onto the previous round's snapshot must
//! reproduce the live graph slot-exactly.
//!
//! # Migrating from scalar `ArcSpec` declarations (pre-0.4)
//!
//! Every [`policies::CostModel`] arc hook now declares a
//! [`policies::ArcBundle`] — a piecewise-linear **convex cost ladder**
//! (ordered `ArcSpec` segments with non-decreasing costs) — instead of a
//! single `(capacity, cost)` pair or a bare cost:
//!
//! | pre-0.4 | 0.4 |
//! |---------|-----|
//! | `task_arcs → Vec<(ArcTarget, i64)>` | `task_arcs → Vec<(ArcTarget, ArcBundle)>` — wrap each cost in [`ArcBundle::cost`] |
//! | `aggregate_arc → Option<ArcSpec>` | `aggregate_arc → Option<ArcBundle>` — `Some(ArcSpec { capacity, cost })` becomes `Some(ArcBundle::single(capacity, cost))` |
//! | `aggregate_to_aggregate → Vec<(AggregateId, ArcSpec)>` | `Vec<(AggregateId, ArcBundle)>` — same `single` wrapping |
//!
//! Single-segment bundles are behaviorally identical to the old scalar
//! arcs, so the migration is mechanical. The point of the change is what
//! multi-segment bundles buy: the manager materializes one parallel arc
//! per segment (stable per-segment slot identity — re-pricing a segment
//! is a pure `CostChanged` delta, never structural churn), so load-based
//! policies can declare *rising* per-unit costs and get **one-round load
//! spreading** (Quincy's convexity trick; see [`policies::ArcBundle`]
//! and the `convex_spreading` bench bin). The **convexity contract** —
//! segment costs never decrease — is validated at every declaration and
//! violations are rejected with `PolicyError::NonConvexBundle`: a
//! decreasing ladder would let the min-cost solver fill expensive
//! segments before cheap ones, silently corrupting the declared cost
//! function.
//!
//! Two new (defaulted) hooks ride along: `CostModel::dynamic_task_arcs`
//! opts waiting tasks' preference bundles into in-place re-pricing on
//! clock advance / dirty events (the task-side mirror of
//! `dynamic_aggregate_arcs`), and `CostModel::task_arcs_machine_local`
//! lets models whose task arcs reference the machine set only through
//! direct machine targets skip the per-waiting-task re-derivation on
//! machine add/remove. Cross-solver placement reproducibility is
//! available via [`mcmf::canonical::canonicalize_flow`], which maps any
//! degenerate optimum to the canonical one.
//!
//! # Capacity-bucketed ladders and the scale testbed (0.5)
//!
//! Per-slot convex ladders multiply aggregate → machine arcs by the slot
//! count — 150,000 parallel arcs for load-spreading at the paper's
//! 12,500-machine × 12-slot scale. [`policies::ArcBundle::bucketed`] is
//! the classic convex-cost compression: `O(log slots)` segments with
//! geometrically growing capacities (1, 1, 2, 4, …), each priced at the
//! rounded mean of the per-slot marginals it covers — convexity is
//! preserved (bucket means of a non-decreasing marginal are
//! non-decreasing), any load on a bucket boundary prices exactly like the
//! per-slot ladder, and the segment count depends only on the slot count,
//! so re-pricing under load drift stays a pure `CostChanged` delta on the
//! same stable slots (bucket-boundary drift under slot-count churn
//! re-sizes/parks/revives those slots in place — no structural churn).
//!
//! The shipped load-based models carry a [`policies::BundleShape`] knob
//! (`PerSlot`, the default, vs `Bucketed`):
//!
//! | model | bucketed constructor |
//! |-------|----------------------|
//! | `LoadSpreadingCostModel` | [`bucketed()`](policies::LoadSpreadingCostModel::bucketed) / [`with_shape`](policies::LoadSpreadingCostModel::with_shape) |
//! | `OctopusCostModel` | [`bucketed()`](policies::OctopusCostModel::bucketed) / `OctopusConfig::shape` |
//! | `HierarchicalTopologyCostModel` | [`bucketed()`](policies::HierarchicalTopologyCostModel::bucketed) / `TopologyConfig::shape` |
//!
//! The trade, quantified by the `scale_regression` testbed
//! (`firmament-bench`'s `scale` module, `tests/scale_regression.rs`, and
//! the CI `scale-smoke` job): arcs drop from `O(m·s)` to `O(m·log s)`
//! (12 slots → 5 segments/machine; 62,500 vs 150,000 ladder arcs at the
//! full-scale fig3 point, which now runs), while one-round burst
//! spreading goes bucket-granular — exact at bucket boundaries, within
//! one marginal step per task of the per-slot optimum otherwise (pinned
//! against canonicalized exact optima).
//!
//! Also in 0.5: **re-price-only rounds skip the solver race.** A round
//! whose whole `DeltaBatch` is
//! [`CostChanged`](flow::delta::GraphDelta::CostChanged) entries with every change a
//! rise on a flowless arc is proven quiescent; the dual executor then
//! runs the warm cost-scaling path alone (O(Δ), no relaxation thread, no
//! graph clone) and records the skip on
//! [`core::SolverStats::race_skipped`].
//!
//! # One warm path, one entry point per solver (0.6)
//!
//! The diff-based warm start is gone: incremental cost scaling always
//! warm-starts from a [`flow::delta::DeltaBatch`], and a caller with no
//! recorded feed passes `None`, which the solver turns into
//! [`DeltaBatch::all_dirty`](flow::delta::DeltaBatch::all_dirty) after
//! checking global supply balance.
//!
//! | pre-0.6 | 0.6 |
//! |---------|-----|
//! | `dual.solve(&g, opts)` | `dual.solve_owned_with_deltas(g.clone(), None, opts)` |
//! | `dual.solve_owned(g, opts)` | `dual.solve_owned_with_deltas(g, None, opts)` |
//! | `IncrementalCostScaling`'s feedless solve | `solve_with_deltas(&mut g, None, opts)` |
//!
//! Two helpers without callers went with them: the incremental solver's
//! manual warm marker and the raw change log's cost-perturbation size.
//!
//! The dual race no longer has a coordinator thread polling the racers:
//! cost scaling runs on the caller's thread, relaxation on one spawned
//! thread, and whichever returns a solution first cancels the other.
//!
//! # One change representation (0.7)
//!
//! The graph no longer keeps a raw mutation log for a per-round
//! compaction pass: a tracked [`flow::FlowGraph`] folds each mutation
//! into its pending [`flow::delta::DeltaBatch`] as it happens, under the
//! same cancel/merge/absorb rules and emission order.
//!
//! | pre-0.7 | 0.7 |
//! |---------|-----|
//! | `DeltaBatch::compact(g.take_changes())` | [`g.take_deltas()`](flow::FlowGraph::take_deltas) |
//! | `batch.is_reprice_only()` | `batch.cost_changes() == batch.len()` |
//!
//! Removed: the raw `GraphChange` enum, `FlowGraph::pending_changes`
//! (`DeltaBatch::raw_len` still counts the recorded mutations) and
//! `FlowGraph::set_kind`, which had no caller and bypassed recording.
//! `set_change_tracking(false)` now pauses recording and keeps the
//! pending batch instead of discarding it.
//!
//! [`policies::ArcBundle`]: policies::ArcBundle
//! [`ArcBundle::cost`]: policies::ArcBundle::cost
//! [`ArcBundle::single`]: policies::ArcBundle::single

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use firmament_baselines as baselines;
pub use firmament_cluster as cluster;
pub use firmament_core as core;
pub use firmament_flow as flow;
pub use firmament_mcmf as mcmf;
pub use firmament_policies as policies;
pub use firmament_sim as sim;
