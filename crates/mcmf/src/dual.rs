//! The speculative dual-algorithm executor (§6.1).
//!
//! Firmament's MCMF solver always runs relaxation *and* incremental cost
//! scaling concurrently and picks the solution of whichever finishes first.
//! In the common case relaxation wins; having cost scaling as well bounds
//! placement latency in the edge cases where relaxation degenerates (high
//! utilization, §4.3). Running both is cheap — the algorithms are
//! single-threaded — and avoids a brittle choice heuristic that would
//! depend on both scheduling policy and cluster utilization.
//!
//! There is no coordinator thread: incremental cost scaling runs on the
//! caller's thread and relaxation on one spawned thread, and whichever
//! racer returns a solution first cancels the other cooperatively. The
//! caller then joins the relaxation thread. If relaxation won, its
//! solution is handed to incremental cost scaling through price refine
//! (§6.2) so the *next* incremental run can warm-start.

use crate::common::{AlgorithmKind, CancelToken, Solution, SolveError, SolveOptions, SolveStats};
use crate::incremental::{IncrementalConfig, IncrementalCostScaling};
use crate::relaxation::{self, RelaxationConfig};
use firmament_flow::delta::DeltaBatch;
use firmament_flow::FlowGraph;

/// Which algorithms the dual solver may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Both algorithms, first finisher wins (Firmament's default, §6.1).
    Dual,
    /// Relaxation only (the "Relaxation only" series of Fig 16/18).
    RelaxationOnly,
    /// Cost scaling only — this is the Quincy configuration (§7.1).
    CostScalingOnly,
}

/// Configuration for [`DualSolver`].
#[derive(Debug, Clone)]
pub struct DualConfig {
    /// Which algorithm(s) to run.
    pub kind: SolverKind,
    /// Relaxation tuning (arc prioritization).
    pub relaxation: RelaxationConfig,
    /// Incremental cost scaling tuning (α-factor, price refine on adopt).
    pub incremental: IncrementalConfig,
}

impl Default for DualConfig {
    fn default() -> Self {
        DualConfig {
            kind: SolverKind::Dual,
            relaxation: RelaxationConfig::default(),
            incremental: IncrementalConfig {
                price_refine_on_adopt: true,
                ..Default::default()
            },
        }
    }
}

/// The outcome of a dual solve: the winning algorithm's solution and the
/// graph holding its flow.
#[derive(Debug)]
pub struct DualOutcome {
    /// The winning solution.
    pub solution: Solution,
    /// The graph containing the winning flow (adopt this as the new
    /// authoritative graph; node/arc ids are preserved from the input).
    pub graph: FlowGraph,
    /// Which algorithm finished first.
    pub winner: AlgorithmKind,
    /// Statistics of the incremental cost-scaling run when it completed
    /// (even as the race loser) — the delta-fed warm-start telemetry
    /// (nodes touched, bailouts) surfaced on `RoundOutcome`.
    pub cs_stats: Option<SolveStats>,
    /// `true` when a configured dual race was short-circuited because the
    /// round's delta batch was re-price-only and provably quiescent (no
    /// exposed reduced-cost violation): the warm cost-scaling path ran
    /// alone in O(Δ) and no relaxation thread was spawned. Always `false`
    /// for single-algorithm configurations (nothing was skipped).
    pub race_skipped: bool,
}

/// Firmament's MCMF solver: speculative execution of relaxation and
/// incremental cost scaling.
///
/// The solver owns the cost-scaling warm state across rounds and has one
/// entry point, [`solve_owned_with_deltas`](Self::solve_owned_with_deltas),
/// which moves the graph through the solve (callers adopt the output graph
/// instead of copying the input every round).
#[derive(Debug)]
pub struct DualSolver {
    config: DualConfig,
    incremental: IncrementalCostScaling,
}

impl Default for DualSolver {
    fn default() -> Self {
        Self::new(DualConfig::default())
    }
}

impl DualSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: DualConfig) -> Self {
        let incremental = IncrementalCostScaling::new(config.incremental.clone());
        DualSolver {
            config,
            incremental,
        }
    }

    /// Returns the configured solver kind.
    pub fn kind(&self) -> SolverKind {
        self.config.kind
    }

    /// Solves the scheduling graph, returning the first-finishing solution.
    ///
    /// `deltas` is the typed change feed recorded since the last handoff;
    /// the incremental cost-scaling side warm-starts from it natively
    /// (relaxation ignores it). `None` means the graph's changes went
    /// unrecorded, so the warm start treats every live node as dirty.
    /// `opts` applies to both algorithms (time/iteration budgets are rarely
    /// used here; cancellation is managed internally).
    ///
    /// Single-algorithm configurations solve fully in place; the dual race
    /// clones the graph once. On failure the graph is handed back (possibly
    /// with partial flow) so the caller can restore its state.
    #[allow(clippy::result_large_err)] // the Err graph is the point: ownership returns on failure
    pub fn solve_owned_with_deltas(
        &mut self,
        graph: FlowGraph,
        deltas: Option<&DeltaBatch>,
        opts: &SolveOptions,
    ) -> Result<DualOutcome, (SolveError, FlowGraph)> {
        match self.config.kind {
            SolverKind::RelaxationOnly => {
                let mut g = graph;
                match relaxation::solve_with(&mut g, opts, &self.config.relaxation) {
                    Ok(sol) => Ok(outcome(sol, g, None, false)),
                    Err(e) => Err((e, g)),
                }
            }
            SolverKind::CostScalingOnly => self.solve_incremental(graph, deltas, opts, false),
            // Re-price-only short-circuit: a round whose whole batch is
            // cost drift and exposes no reduced-cost violation — every
            // change a cost rise on a flowless arc, the common convex-ladder
            // shape under rising load — leaves the warm solver's
            // certificate intact. The warm path proves quiescence in O(Δ);
            // racing relaxation (plus its graph clone) would only burn a
            // cold solve to reach the same optimum. Falls and flow-carrying
            // rises may expose violations, so those rounds still race.
            SolverKind::Dual
                if self.incremental.is_warm()
                    && deltas.is_some_and(|batch| reprice_only_quiescent(&graph, batch)) =>
            {
                self.solve_incremental(graph, deltas, opts, true)
            }
            SolverKind::Dual => self.solve_dual(graph, deltas, opts),
        }
    }

    /// Incremental cost scaling alone, in place.
    #[allow(clippy::result_large_err)] // see solve_owned_with_deltas
    fn solve_incremental(
        &mut self,
        mut graph: FlowGraph,
        deltas: Option<&DeltaBatch>,
        opts: &SolveOptions,
        race_skipped: bool,
    ) -> Result<DualOutcome, (SolveError, FlowGraph)> {
        match self.incremental.solve_with_deltas(&mut graph, deltas, opts) {
            Ok(sol) => {
                let stats = Some(sol.stats.clone());
                Ok(outcome(sol, graph, stats, race_skipped))
            }
            Err(e) => Err((e, graph)),
        }
    }

    /// The race: incremental cost scaling runs on the calling thread and
    /// relaxation on one spawned thread, each on its own copy of the graph.
    /// A racer that returns a solution cancels the other; a failed racer
    /// (e.g. a spurious warm-start infeasibility) cancels nothing, so the
    /// algorithm that can still succeed runs on. The inner loops check
    /// their token every 256 iterations, and the caller then blocks in
    /// `join` until relaxation has stopped.
    #[allow(clippy::result_large_err)] // see solve_owned_with_deltas
    fn solve_dual(
        &mut self,
        graph: FlowGraph,
        deltas: Option<&DeltaBatch>,
        opts: &SolveOptions,
    ) -> Result<DualOutcome, (SolveError, FlowGraph)> {
        let cancel_relax = CancelToken::new();
        let cancel_cs = CancelToken::new();
        let mut relax_opts = opts.clone();
        relax_opts.cancel = Some(cancel_relax.clone());
        let mut cs_opts = opts.clone();
        cs_opts.cancel = Some(cancel_cs.clone());
        let relax_cfg = &self.config.relaxation;
        let incremental = &mut self.incremental;

        let (relax_result, cs_result) = std::thread::scope(|scope| {
            let mut g_relax = graph.clone();
            let relax = scope.spawn(move || {
                let r = relaxation::solve_with(&mut g_relax, &relax_opts, relax_cfg);
                if r.is_ok() {
                    cancel_cs.cancel();
                }
                (r, g_relax)
            });
            let mut g_cs = graph;
            let r = incremental.solve_with_deltas(&mut g_cs, deltas, &cs_opts);
            if r.is_ok() {
                cancel_relax.cancel();
            }
            (relax.join().expect("relaxation thread"), (r, g_cs))
        });

        // Prefer whichever produced a real (non-cancelled) solution; if
        // both finished, take the faster one.
        let cs_stats = cs_result.0.as_ref().ok().map(|cs| cs.stats.clone());
        let (solution, graph) = match (relax_result, cs_result) {
            ((Ok(rs), rg), (Ok(cs), _)) if rs.runtime <= cs.runtime => (rs, rg),
            (_, (Ok(cs), cg)) => (cs, cg),
            ((Ok(rs), rg), (Err(_), _)) => (rs, rg),
            ((Err(re), _), (Err(ce), cg)) => {
                // Both failed: propagate the more informative error and
                // hand a graph back so the caller can restore its state.
                let err = match re {
                    SolveError::Cancelled => ce,
                    re => re,
                };
                return Err((err, cg));
            }
        };
        let out = outcome(solution, graph, cs_stats, false);

        // Handoff (§6.2): make sure the incremental solver can warm-start
        // from the winning flow next round.
        match out.winner {
            AlgorithmKind::Relaxation => {
                self.incremental.adopt_solution(&out.graph);
            }
            // The incremental solver already certifies its own solution —
            // but only the one in *its* clone. Re-adopt to be safe if it
            // lost the race and was cancelled.
            AlgorithmKind::IncrementalCostScaling | AlgorithmKind::CostScaling
                if !self.incremental.is_warm() =>
            {
                self.incremental.adopt_solution(&out.graph);
            }
            _ => {}
        }
        Ok(out)
    }
}

/// Wraps a finished solve as the round's outcome.
fn outcome(
    solution: Solution,
    graph: FlowGraph,
    cs_stats: Option<SolveStats>,
    race_skipped: bool,
) -> DualOutcome {
    DualOutcome {
        winner: solution.algorithm,
        solution,
        graph,
        cs_stats,
        race_skipped,
    }
}

/// Whether a re-price-only batch provably exposes **no** reduced-cost
/// violation against the warm certificate, without consulting prices:
///
/// - a cost *rise* on a *flowless* arc only grows the forward reduced
///   cost, and the reverse residual has no capacity — nothing to repair;
/// - a cost *fall* may push the forward residual's reduced cost negative;
/// - a rise on a *flow-carrying* arc may do the same to the reverse
///   residual.
///
/// Only the first shape is accepted; it is exactly what convex-ladder
/// upper segments produce as load rises, so pure clock-advance rounds
/// qualify while anything that could move flow still races. (The warm
/// solver reaches the same conclusion from its prices; this check is the
/// cheap, price-free sufficient condition.)
fn reprice_only_quiescent(graph: &FlowGraph, batch: &DeltaBatch) -> bool {
    // The `_ => false` arm: any structural/capacity/flow delta
    // disqualifies.
    batch.deltas().iter().all(|d| match *d {
        firmament_flow::delta::GraphDelta::CostChanged { arc, old, new } => {
            new >= old && graph.arc_alive(arc) && graph.flow(arc) == 0
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_optimal;
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};

    #[test]
    fn dual_solve_is_optimal() {
        let inst = scheduling_instance(1, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert!(is_optimal(&out.graph));
        assert!(!out.solution.terminated_early);
    }

    #[test]
    fn all_kinds_agree_on_objective() {
        let inst = scheduling_instance(2, &InstanceSpec::default());
        let mut objectives = Vec::new();
        for kind in [
            SolverKind::Dual,
            SolverKind::RelaxationOnly,
            SolverKind::CostScalingOnly,
        ] {
            let mut solver = DualSolver::new(DualConfig {
                kind,
                ..Default::default()
            });
            let out = solver
                .solve_owned_with_deltas(inst.graph.clone(), None, &SolveOptions::unlimited())
                .unwrap();
            objectives.push(out.solution.objective);
        }
        assert_eq!(objectives[0], objectives[1]);
        assert_eq!(objectives[1], objectives[2]);
    }

    #[test]
    fn repeated_rounds_with_changes_stay_optimal() {
        let mut inst = scheduling_instance(3, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        for round in 0..4 {
            let out = solver
                .solve_owned_with_deltas(inst.graph.clone(), None, &SolveOptions::unlimited())
                .unwrap();
            assert!(is_optimal(&out.graph), "round {round}");
            // Adopt the solution and mutate costs for the next round.
            inst.graph = out.graph;
            let arcs: Vec<_> = inst.graph.arc_ids().collect();
            let a = arcs[(round * 7 + 3) % arcs.len()];
            let c = inst.graph.cost(a);
            inst.graph.set_arc_cost(a, (c + 13) % 97 + 1).unwrap();
        }
    }

    /// A warm dual solver given no feed on an unbalanced graph returns the
    /// typed error (the all-dirty batch cannot vouch for balance) and its
    /// incremental side goes cold.
    #[test]
    fn no_feed_warm_round_rejects_unbalanced_supply() {
        let inst = scheduling_instance(6, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert!(solver.incremental.is_warm());
        let mut graph = out.graph;
        let d = graph.supply(inst.sink);
        graph.set_supply(inst.sink, d - 1).unwrap();
        let (err, _) = solver
            .solve_owned_with_deltas(graph, None, &SolveOptions::unlimited())
            .unwrap_err();
        assert_eq!(err, SolveError::UnbalancedSupply { total: -1 });
        assert!(!solver.incremental.is_warm());
    }

    /// The re-price-only short-circuit (ROADMAP item): a warm round whose
    /// batch is all flowless cost rises must skip the relaxation race and
    /// run the warm path only — in O(Δ), touching nothing.
    #[test]
    fn reprice_only_round_skips_the_race() {
        let mut inst = scheduling_instance(21, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert!(!out.race_skipped, "first (structural) round races");
        inst.graph = out.graph;

        // Pure cost drift: raise every flowless non-sink arc, the shape a
        // convex ladder produces as load rises.
        inst.graph.set_change_tracking(true);
        let arcs: Vec<_> = inst.graph.arc_ids().collect();
        let mut bumped = 0;
        for a in arcs {
            if inst.graph.flow(a) == 0 && inst.graph.dst(a) != inst.sink {
                let c = inst.graph.cost(a);
                inst.graph.set_arc_cost(a, c + 7).unwrap();
                bumped += 1;
            }
        }
        assert!(bumped > 0);
        let batch = inst.graph.take_deltas();
        assert_eq!(batch.cost_changes(), batch.len(), "pure re-price batch");
        let before = inst.graph.objective();
        let out = solver
            .solve_owned_with_deltas(inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        assert!(out.race_skipped, "proven-quiescent round must not race");
        assert_eq!(out.winner, AlgorithmKind::IncrementalCostScaling);
        assert_eq!(out.solution.objective, before, "flow untouched");
        assert_eq!(
            out.cs_stats.as_ref().unwrap().nodes_touched,
            0,
            "warm path proves quiescence without repair work"
        );
        assert!(is_optimal(&out.graph));
    }

    /// A fully quiescent round (empty batch) also skips the race.
    #[test]
    fn empty_batch_round_skips_the_race() {
        let inst = scheduling_instance(22, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        let out = solver
            .solve_owned_with_deltas(
                out.graph,
                Some(&DeltaBatch::empty()),
                &SolveOptions::unlimited(),
            )
            .unwrap();
        assert!(out.race_skipped);
        assert!(is_optimal(&out.graph));
    }

    /// A cost *fall* (or a rise on a flow-carrying arc) may expose a
    /// violation, so those re-price-only rounds still run the full race —
    /// and still land on the re-priced optimum.
    #[test]
    fn exposing_repricings_still_race() {
        let mut inst = scheduling_instance(23, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        inst.graph = out.graph;
        inst.graph.set_change_tracking(true);
        // Make one flowless arc drastically cheaper: the optimum may move.
        let a = inst
            .graph
            .arc_ids()
            .find(|&a| {
                inst.graph.flow(a) == 0 && inst.graph.dst(a) != inst.sink && inst.graph.cost(a) > 0
            })
            .unwrap();
        inst.graph.set_arc_cost(a, 0).unwrap();
        let batch = inst.graph.take_deltas();
        assert_eq!(
            batch.cost_changes(),
            batch.len(),
            "still a pure re-price batch"
        );
        let out = solver
            .solve_owned_with_deltas(inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        assert!(
            !out.race_skipped,
            "a cost fall can expose a violation — must race"
        );
        assert!(is_optimal(&out.graph));
        let mut fresh = out.graph.clone();
        let scratch = crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(out.solution.objective, scratch.objective);
    }

    #[test]
    fn cost_scaling_only_matches_quincy_semantics() {
        // Quincy = flow scheduling restricted to (incremental) cost scaling.
        let inst = scheduling_instance(5, &InstanceSpec::default());
        let mut solver = DualSolver::new(DualConfig {
            kind: SolverKind::CostScalingOnly,
            ..Default::default()
        });
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert_eq!(out.winner, AlgorithmKind::IncrementalCostScaling);
        assert!(is_optimal(&out.graph));
    }
}
