//! Cross-crate integration tests: all MCMF algorithms agree on optimal
//! objectives for policy-generated graphs, and property-style invariants
//! hold on randomized instances.
//!
//! The property tests use the workspace's own deterministic generator
//! (`XorShift64`) instead of an external property-testing framework: each
//! case derives its parameters from a fixed seed sequence, so failures
//! reproduce exactly.

use firmament::flow::testgen::{layered_instance, scheduling_instance, InstanceSpec, XorShift64};
use firmament::flow::validate::check_feasible;
use firmament::mcmf::{
    cost_scaling, cycle_canceling, relaxation, ssp, verify, DualSolver, SolveOptions,
};

#[test]
fn all_four_algorithms_agree_on_scheduling_graphs() {
    for seed in 0..6 {
        let spec = InstanceSpec {
            tasks: 50,
            machines: 12,
            slots_per_machine: 3,
            prefs_per_task: 3,
            ..InstanceSpec::default()
        };
        let objective = |f: &dyn Fn(&mut firmament::flow::FlowGraph) -> i64| {
            let mut inst = scheduling_instance(seed, &spec);
            f(&mut inst.graph)
        };
        let opts = SolveOptions::unlimited();
        let a = objective(&|g| cycle_canceling::solve(g, &opts).unwrap().objective);
        let b = objective(&|g| ssp::solve(g, &opts).unwrap().objective);
        let c = objective(&|g| cost_scaling::solve(g, &opts).unwrap().objective);
        let d = objective(&|g| relaxation::solve(g, &opts).unwrap().objective);
        assert_eq!(a, b, "seed {seed}: cycle canceling vs ssp");
        assert_eq!(b, c, "seed {seed}: ssp vs cost scaling");
        assert_eq!(c, d, "seed {seed}: cost scaling vs relaxation");
    }
}

#[test]
fn dual_solver_matches_single_algorithms() {
    let inst = scheduling_instance(11, &InstanceSpec::default());
    let mut dual = DualSolver::default();
    let out = dual
        .solve_owned_with_deltas(inst.graph.clone(), None, &SolveOptions::unlimited())
        .unwrap();
    let mut g = inst.graph.clone();
    let reference = ssp::solve(&mut g, &SolveOptions::unlimited()).unwrap();
    assert_eq!(out.solution.objective, reference.objective);
    assert!(verify::is_optimal(&out.graph));
}

/// Any generated scheduling instance solves to a feasible, optimal flow
/// whose objective matches across two independent algorithms.
#[test]
fn prop_solutions_feasible_and_agreeing() {
    let mut rng = XorShift64::new(0xC0FFEE);
    for case in 0..24 {
        let seed = rng.below(5000);
        let tasks = 5 + rng.below(55) as usize;
        let machines = 2 + rng.below(13) as usize;
        let slots = 1 + rng.below(4) as i64;
        let prefs = 1 + rng.below(4) as usize;
        let spec = InstanceSpec {
            tasks,
            machines,
            slots_per_machine: slots,
            prefs_per_task: prefs,
            ..InstanceSpec::default()
        };
        let ctx = format!("case {case}: seed {seed}, {tasks}t/{machines}m/{slots}s/{prefs}p");
        let mut a = scheduling_instance(seed, &spec);
        let mut b = scheduling_instance(seed, &spec);
        let opts = SolveOptions::unlimited();
        let s1 = relaxation::solve(&mut a.graph, &opts).unwrap();
        let s2 = cost_scaling::solve(&mut b.graph, &opts).unwrap();
        assert_eq!(s1.objective, s2.objective, "{ctx}");
        assert!(check_feasible(&a.graph).is_empty(), "{ctx}");
        assert!(check_feasible(&b.graph).is_empty(), "{ctx}");
        assert!(verify::is_optimal(&a.graph), "{ctx}");
    }
}

/// Layered DAG instances (longer augmenting paths) also agree.
#[test]
fn prop_layered_instances_agree() {
    let mut rng = XorShift64::new(0xBEEF);
    for case in 0..24 {
        let seed = rng.below(5000);
        let sources = 3 + rng.below(17) as usize;
        let layers = 2 + rng.below(3) as usize;
        let width = 2 + rng.below(4) as usize;
        let ctx = format!("case {case}: seed {seed}, {sources}src/{layers}l/{width}w");
        let mut a = layered_instance(seed, sources, layers, width);
        let mut b = a.clone();
        let opts = SolveOptions::unlimited();
        let s1 = relaxation::solve(&mut a, &opts).unwrap();
        let s2 = ssp::solve(&mut b, &opts).unwrap();
        assert_eq!(s1.objective, s2.objective, "{ctx}");
    }
}

/// Incremental cost scaling after random cost perturbations matches a
/// from-scratch solve of the mutated graph.
#[test]
fn prop_incremental_matches_scratch() {
    let mut rng = XorShift64::new(0xFEED);
    for case in 0..16 {
        let seed = rng.below(1000);
        let spec = InstanceSpec {
            tasks: 30,
            machines: 8,
            ..InstanceSpec::default()
        };
        let mut inst = scheduling_instance(seed, &spec);
        let mut inc = firmament::mcmf::incremental::IncrementalCostScaling::default();
        inc.solve_with_deltas(&mut inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        let arcs: Vec<_> = inst.graph.arc_ids().collect();
        let n_perturbations = 1 + rng.below(11) as usize;
        for _ in 0..n_perturbations {
            let idx = rng.below(200) as usize;
            let cost = 1 + rng.below(149) as i64;
            let a = arcs[idx % arcs.len()];
            inst.graph.set_arc_cost(a, cost).unwrap();
        }
        let warm = inc
            .solve_with_deltas(&mut inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        let mut fresh = inst.graph.clone();
        let scratch = cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(
            warm.objective, scratch.objective,
            "case {case}: seed {seed}, {n_perturbations} perturbations"
        );
    }
}
