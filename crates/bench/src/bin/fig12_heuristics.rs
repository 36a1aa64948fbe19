//! Fig 12: problem-specific heuristics.
//!
//! (a) Arc prioritization cuts relaxation runtime on contended graphs
//! (~45 % in the paper). (b) Efficient task removal speeds incremental
//! cost scaling (~10 %).

use firmament_bench::{header, row, verdict, warmed_cluster, Scale};
use firmament_cluster::{ClusterEvent, Job, JobClass, Task, TaskState};
use firmament_core::Firmament;
use firmament_mcmf::incremental::{drain_task_flow, IncrementalCostScaling};
use firmament_mcmf::relaxation::{self, RelaxationConfig};
use firmament_mcmf::SolveOptions;
use firmament_policies::LoadSpreadingCostModel;

fn main() {
    let scale = Scale::from_args();
    let machines = scale.machines(12_500);

    // (a) Contended load-spreading graph with a large arriving job.
    let (mut state, mut firmament, _) = warmed_cluster(
        machines,
        12,
        0.5,
        3,
        Firmament::new(LoadSpreadingCostModel::new()),
    );
    let job = Job::new(7_777_777, JobClass::Batch, 2, state.now);
    let tasks: Vec<Task> = (0..(machines * 2))
        .map(|i| Task::new(6_000_000 + i as u64, job.id, state.now, 60_000_000))
        .collect();
    let ev = ClusterEvent::JobSubmitted { job, tasks };
    state.apply(&ev);
    firmament.handle_event(&state, &ev).expect("submit");
    firmament.refresh(&state).expect("refresh");
    let graph = firmament.graph().clone();

    let mut g = graph.clone();
    let no_ap = relaxation::solve_with(
        &mut g,
        &SolveOptions::unlimited(),
        &RelaxationConfig {
            arc_prioritization: false,
        },
    )
    .expect("no-ap")
    .runtime
    .as_secs_f64();
    let mut g = graph.clone();
    let ap = relaxation::solve_with(
        &mut g,
        &SolveOptions::unlimited(),
        &RelaxationConfig {
            arc_prioritization: true,
        },
    )
    .expect("ap")
    .runtime
    .as_secs_f64();

    // (b) Task-removal-heavy incremental round.
    let mut inc = IncrementalCostScaling::default();
    let mut base_graph = graph.clone();
    inc.solve_with_deltas(&mut base_graph, None, &SolveOptions::unlimited())
        .expect("base solve");
    // Complete 20% of running tasks — with and without the drain heuristic.
    let victims: Vec<u64> = state
        .tasks
        .values()
        .filter(|t| t.state == TaskState::Running)
        .take((machines * 2) / 5)
        .map(|t| t.id)
        .collect();
    let run_removal = |use_drain: bool| -> f64 {
        let mut g = base_graph.clone();
        let mut inc = IncrementalCostScaling::new(firmament_mcmf::incremental::IncrementalConfig {
            price_refine_on_adopt: true,
            ..Default::default()
        });
        inc.adopt_solution(&g);
        let manager = firmament.manager();
        for v in &victims {
            if let Some(node) = manager.task_node(*v) {
                if use_drain {
                    drain_task_flow(&mut g, node);
                }
                if g.node_alive(node) {
                    g.remove_node(node).expect("remove");
                    // Shrink sink demand like the policy would.
                    let sink = manager.sink();
                    let d = g.supply(sink);
                    g.set_supply(sink, d + 1).expect("sink");
                }
            }
        }
        inc.solve_with_deltas(&mut g, None, &SolveOptions::unlimited())
            .expect("incremental")
            .runtime
            .as_secs_f64()
    };
    let no_tr = run_removal(false);
    let tr = run_removal(true);

    header(&["experiment", "without_s", "with_s", "improvement_pct"]);
    row(&[
        "arc_prioritization".into(),
        format!("{no_ap:.4}"),
        format!("{ap:.4}"),
        format!("{:.0}", (1.0 - ap / no_ap) * 100.0),
    ]);
    row(&[
        "task_removal".into(),
        format!("{no_tr:.4}"),
        format!("{tr:.4}"),
        format!("{:.0}", (1.0 - tr / no_tr) * 100.0),
    ]);
    verdict(
        "fig12",
        ap <= no_ap * 1.05 && tr <= no_tr * 1.05,
        "both heuristics help (paper: AP −45%, TR −10%)",
    );
}
