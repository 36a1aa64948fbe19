//! Fig 11: incremental cost scaling beats from-scratch cost scaling.
//!
//! Paper: 25 % faster under the Quincy policy, 50 % under load spreading.
//!
//! This binary drives the real delta-feed pipeline: the
//! `FlowGraphManager` records a typed [`DeltaBatch`] across a burst of
//! cluster events, and the warm `IncrementalCostScaling` consumes it
//! natively. Two solves of the changed graph are compared:
//!
//! - **from-scratch** cost scaling (the Quincy baseline),
//! - **delta-fed** warm start (the targeted dirty-region path),
//!
//! and the run asserts that the delta-fed warm start is verified-optimal,
//! agrees with the from-scratch objective, and — after
//! [`canonicalize_flow`] maps each degenerate optimum to the canonical
//! one — produces **identical placements**: equally-optimal warm and cold
//! paths no longer even permute equal-cost assignments. Used as a CI
//! smoke test at small scale (`--scale 2000`).

use firmament_bench::{header, row, verdict, warmed_cluster, Scale};
use firmament_cluster::{ClusterEvent, ClusterState, Job, JobClass, Task, TaskState};
use firmament_core::{extract_placements, Firmament};
use firmament_flow::delta::DeltaBatch;
use firmament_flow::FlowGraph;
use firmament_mcmf::canonical::canonicalize_flow;
use firmament_mcmf::incremental::{IncrementalConfig, IncrementalCostScaling};
use firmament_mcmf::{cost_scaling, SolveOptions};
use firmament_policies::{CostModel, LoadSpreadingCostModel, QuincyConfig, QuincyCostModel};

struct Measurement {
    scratch_s: f64,
    delta_s: f64,
    delta_nodes_touched: u64,
    deltas: usize,
    solutions_equivalent: bool,
    objectives_agree: bool,
}

fn warm_solver() -> IncrementalCostScaling {
    IncrementalCostScaling::new(IncrementalConfig {
        price_refine_on_adopt: true,
        ..Default::default()
    })
}

/// Applies the fig11 change burst — one job arrives, a batch of running
/// tasks completes — through the scheduler's event path, so drains and
/// dirty-refresh all happen exactly as in production.
fn apply_burst<C: CostModel>(
    state: &mut ClusterState,
    firmament: &mut Firmament<C>,
    machines: usize,
) {
    let job = Job::new(7_777_777, JobClass::Batch, 2, state.now);
    let tasks: Vec<Task> = (0..(machines / 2).max(5))
        .map(|i| Task::new(6_000_000 + i as u64, job.id, state.now, 60_000_000))
        .collect();
    let ev = ClusterEvent::JobSubmitted { job, tasks };
    state.apply(&ev);
    firmament.handle_event(state, &ev).expect("submit");
    let victims: Vec<u64> = state
        .tasks
        .values()
        .filter(|t| t.state == TaskState::Running)
        .take((machines / 4).max(3))
        .map(|t| t.id)
        .collect();
    for v in victims {
        let ev = ClusterEvent::TaskCompleted {
            task: v,
            now: state.now + 1,
        };
        state.apply(&ev);
        firmament.handle_event(state, &ev).expect("complete");
    }
    firmament.refresh(state).expect("refresh");
}

fn bench_policy<C: CostModel>(scale: &Scale, firmament: Firmament<C>) -> Measurement {
    let machines = scale.machines(12_500);
    let (mut state, mut firmament, _) = warmed_cluster(machines, 12, 0.8, 21, firmament);

    // Establish warm state the way the scheduler does: solve the current
    // graph, adopt the optimum back into the manager (so burst events
    // drain and rewire real flow), and drain the log so the next batch
    // covers exactly the change burst.
    let mut base = firmament.manager_mut().take_graph();
    let mut warmup_solver = warm_solver();
    warmup_solver
        .solve_with_deltas(&mut base, None, &SolveOptions::unlimited())
        .expect("warmup solve");
    let pre_burst_optimum = base.clone();
    firmament.manager_mut().adopt_graph(base);
    firmament.manager_mut().take_deltas();

    apply_burst(&mut state, &mut firmament, machines);
    let batch: DeltaBatch = firmament.manager_mut().take_deltas();
    let changed: &FlowGraph = firmament.graph();

    // From-scratch baseline.
    let mut scratch_graph = changed.clone();
    let scratch =
        cost_scaling::solve(&mut scratch_graph, &SolveOptions::unlimited()).expect("scratch solve");

    // The warm start adopts the *pre-burst* optimum (§6.2: price refine
    // runs on the previous solution, before the latest changes) and then
    // solves the changed graph, whose flow is that optimum as disturbed by
    // the burst.
    let mut delta_solver = warm_solver();
    assert!(
        delta_solver.adopt_solution(&pre_burst_optimum),
        "pre-burst flow must be optimal"
    );
    let mut delta_graph = changed.clone();
    let delta = delta_solver
        .solve_with_deltas(&mut delta_graph, Some(&batch), &SolveOptions::unlimited())
        .expect("delta-fed warm solve");

    // Solution equivalence, tightened to placement identity: both paths
    // must land on the same optimal objective, the warm flow must verify
    // as a feasible optimum, and after canonicalization (which maps every
    // degenerate optimum to the same canonical flow, independent of the
    // solver path that produced it) both graphs must extract *identical*
    // per-task placements — not just equal counts.
    let optimal = firmament_mcmf::verify::is_optimal(&delta_graph);
    let mut scratch_canon = scratch_graph.clone();
    let mut delta_canon = delta_graph.clone();
    let canon_ok = canonicalize_flow(&mut scratch_canon).is_ok()
        && canonicalize_flow(&mut delta_canon).is_ok();
    let p_scratch = extract_placements(&scratch_canon);
    let p_delta = extract_placements(&delta_canon);
    Measurement {
        scratch_s: scratch.runtime.as_secs_f64(),
        delta_s: delta.runtime.as_secs_f64(),
        delta_nodes_touched: delta.stats.nodes_touched,
        deltas: batch.len(),
        solutions_equivalent: optimal && canon_ok && p_scratch == p_delta,
        objectives_agree: scratch.objective == delta.objective,
    }
}

fn main() {
    let scale = Scale::from_args();
    header(&[
        "policy",
        "from_scratch_s",
        "delta_fed_s",
        "deltas",
        "nodes_touched",
        "speedup_pct",
    ]);
    let mut all_equal = true;
    let mut all_faster = true;
    for (name, m) in [
        (
            "quincy",
            bench_policy(
                &scale,
                Firmament::new(QuincyCostModel::new(QuincyConfig::default())),
            ),
        ),
        (
            "load-spreading",
            bench_policy(&scale, Firmament::new(LoadSpreadingCostModel::new())),
        ),
    ] {
        row(&[
            name.into(),
            format!("{:.4}", m.scratch_s),
            format!("{:.4}", m.delta_s),
            format!("{}", m.deltas),
            format!("{}", m.delta_nodes_touched),
            format!("{:.0}", (1.0 - m.delta_s / m.scratch_s) * 100.0),
        ]);
        all_equal &= m.solutions_equivalent && m.objectives_agree;
        all_faster &= m.delta_s < m.scratch_s;
    }
    verdict(
        "fig11_equivalence",
        all_equal,
        "delta-fed warm solves are verified-optimal, match from-scratch objectives, and canonicalize to IDENTICAL per-task placements",
    );
    verdict(
        "fig11",
        all_faster,
        "delta-fed incremental cost scaling is faster than from-scratch for both policies (paper: 25%/50%)",
    );
    if !all_equal {
        std::process::exit(1);
    }
}
