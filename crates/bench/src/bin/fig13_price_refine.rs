//! Fig 13: price refine accelerates the relaxation → incremental
//! cost-scaling handoff (paper: 4× faster in 90 % of cases).

use firmament_bench::{header, row, verdict, warmed_cluster, Scale};
use firmament_core::Firmament;
use firmament_mcmf::incremental::{IncrementalConfig, IncrementalCostScaling};
use firmament_mcmf::{relaxation, SolveOptions};
use firmament_policies::{QuincyConfig, QuincyCostModel};
use firmament_sim::Samples;

fn main() {
    let scale = Scale::from_args();
    let machines = scale.machines(12_500);
    header(&["round", "with_price_refine_s", "without_s"]);
    let mut with_pr = Samples::new();
    let mut without = Samples::new();
    for round in 0..10u64 {
        let (_state, firmament, _) = warmed_cluster(
            machines,
            12,
            0.85,
            100 + round,
            Firmament::new(QuincyCostModel::new(QuincyConfig::default())),
        );
        // Relaxation produces the previous round's solution.
        let mut solved = firmament.graph().clone();
        relaxation::solve(&mut solved, &SolveOptions::unlimited()).expect("relaxation");
        // Apply some cost changes (the next round's cluster changes).
        let arcs: Vec<_> = solved.arc_ids().collect();
        let mut changed = solved.clone();
        for k in 0..arcs.len() / 20 {
            let a = arcs[k * 20];
            let c = changed.cost(a);
            changed.set_arc_cost(a, (c + 17) % 90 + 1).expect("cost");
        }
        // With price refine: adopt the optimum, then incremental solve.
        let mut inc = IncrementalCostScaling::new(IncrementalConfig {
            price_refine_on_adopt: true,
            ..Default::default()
        });
        inc.adopt_solution(&solved);
        let mut g = changed.clone();
        let a = inc
            .solve_with_deltas(&mut g, None, &SolveOptions::unlimited())
            .expect("with pr")
            .runtime
            .as_secs_f64();
        // Without: cold incremental solver (cost scaling from scratch).
        let mut inc = IncrementalCostScaling::new(IncrementalConfig {
            price_refine_on_adopt: false,
            ..Default::default()
        });
        inc.adopt_solution(&solved);
        let mut g = changed.clone();
        let b = inc
            .solve_with_deltas(&mut g, None, &SolveOptions::unlimited())
            .expect("without pr")
            .runtime
            .as_secs_f64();
        row(&[round.to_string(), format!("{a:.4}"), format!("{b:.4}")]);
        with_pr.push(a);
        without.push(b);
    }
    let p90_speedup = without.percentile(90.0) / with_pr.percentile(90.0).max(1e-9);
    verdict(
        "fig13",
        with_pr.percentile(90.0) <= without.percentile(90.0),
        &format!("price refine gives {p90_speedup:.1}x at p90 (paper: ~4x in 90% of cases)"),
    );
}
