//! Micro-benchmarks for the MCMF solver suite, including the α-factor
//! ablation DESIGN.md calls out. Self-contained harness (`bench_case`);
//! run with `cargo bench --bench solvers`.

use firmament_bench::{bench_case, bench_header};
use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
use firmament_mcmf::cost_scaling::{self, CostScalingConfig};
use firmament_mcmf::incremental::IncrementalCostScaling;
use firmament_mcmf::{relaxation, ssp, SolveOptions};

const SAMPLES: usize = 10;

fn instance(tasks: usize) -> InstanceSpec {
    InstanceSpec {
        tasks,
        machines: (tasks / 4).max(4),
        slots_per_machine: 5,
        prefs_per_task: 4,
        ..InstanceSpec::default()
    }
}

fn bench_algorithms() {
    for tasks in [200usize, 1000] {
        let spec = instance(tasks);
        bench_case(
            &format!("solve/relaxation/{tasks}"),
            SAMPLES,
            || scheduling_instance(1, &spec).graph,
            |mut g| relaxation::solve(&mut g, &SolveOptions::unlimited()).unwrap(),
        );
        bench_case(
            &format!("solve/cost_scaling/{tasks}"),
            SAMPLES,
            || scheduling_instance(1, &spec).graph,
            |mut g| cost_scaling::solve(&mut g, &SolveOptions::unlimited()).unwrap(),
        );
        bench_case(
            &format!("solve/ssp/{tasks}"),
            SAMPLES,
            || scheduling_instance(1, &spec).graph,
            |mut g| ssp::solve(&mut g, &SolveOptions::unlimited()).unwrap(),
        );
    }
}

fn bench_alpha_factor() {
    // Ablation: the paper found α = 9 ≈30% faster than the default 2.
    let spec = instance(1000);
    for alpha in [2i64, 4, 9, 16] {
        bench_case(
            &format!("alpha_factor/{alpha}"),
            SAMPLES,
            || scheduling_instance(1, &spec).graph,
            |mut g| {
                cost_scaling::solve_with(
                    &mut g,
                    &SolveOptions::unlimited(),
                    &CostScalingConfig { alpha },
                )
                .unwrap()
            },
        );
    }
}

fn bench_incremental() {
    let spec = instance(1000);
    bench_case(
        "incremental_vs_scratch/from_scratch",
        SAMPLES,
        || {
            let mut inst = scheduling_instance(2, &spec);
            // Perturb a few costs.
            let arcs: Vec<_> = inst.graph.arc_ids().collect();
            for k in 0..20 {
                inst.graph
                    .set_arc_cost(arcs[k * 7], (k as i64) + 1)
                    .unwrap();
            }
            inst.graph
        },
        |mut g| cost_scaling::solve(&mut g, &SolveOptions::unlimited()).unwrap(),
    );
    bench_case(
        "incremental_vs_scratch/incremental",
        SAMPLES,
        || {
            let mut inst = scheduling_instance(2, &spec);
            let mut inc = IncrementalCostScaling::default();
            inc.solve_with_deltas(&mut inst.graph, None, &SolveOptions::unlimited())
                .unwrap();
            let arcs: Vec<_> = inst.graph.arc_ids().collect();
            for k in 0..20 {
                inst.graph
                    .set_arc_cost(arcs[k * 7], (k as i64) + 1)
                    .unwrap();
            }
            (inst.graph, inc)
        },
        |(mut g, mut inc)| {
            inc.solve_with_deltas(&mut g, None, &SolveOptions::unlimited())
                .unwrap()
        },
    );
}

fn main() {
    bench_header();
    bench_algorithms();
    bench_alpha_factor();
    bench_incremental();
}
