//! Property-based tests for the flow-graph substrate: arbitrary mutation
//! sequences must preserve structural invariants, slot reuse must never
//! leak state, and DIMACS round-trips must preserve instance semantics.
//!
//! Cases derive from the crate's own deterministic generator
//! (`XorShift64`), so failures reproduce exactly.

use firmament_flow::dimacs;
use firmament_flow::testgen::XorShift64;
use firmament_flow::validate::validate;
use firmament_flow::{FlowGraph, NodeId, NodeKind};

/// A random mutation applied to a growing graph.
#[derive(Debug, Clone)]
enum Op {
    AddNode(i64),
    AddArc {
        src: usize,
        dst: usize,
        cap: i64,
        cost: i64,
    },
    RemoveNode(usize),
    RemoveArc(usize),
    SetCost {
        arc: usize,
        cost: i64,
    },
    SetCapacity {
        arc: usize,
        cap: i64,
    },
    Push {
        arc: usize,
        frac: u8,
    },
}

fn random_op(rng: &mut XorShift64) -> Op {
    match rng.below(7) {
        0 => Op::AddNode(rng.below(6) as i64 - 3),
        1 => Op::AddArc {
            src: rng.below(64) as usize,
            dst: rng.below(64) as usize,
            cap: rng.below(10) as i64,
            cost: rng.below(100) as i64 - 50,
        },
        2 => Op::RemoveNode(rng.below(64) as usize),
        3 => Op::RemoveArc(rng.below(64) as usize),
        4 => Op::SetCost {
            arc: rng.below(64) as usize,
            cost: rng.below(100) as i64 - 50,
        },
        5 => Op::SetCapacity {
            arc: rng.below(64) as usize,
            cap: rng.below(10) as i64,
        },
        _ => Op::Push {
            arc: rng.below(64) as usize,
            frac: rng.below(101) as u8,
        },
    }
}

fn random_ops(rng: &mut XorShift64, min: usize, max: usize) -> Vec<Op> {
    let n = min + rng.below((max - min) as u64) as usize;
    (0..n).map(|_| random_op(rng)).collect()
}

fn apply(graph: &mut FlowGraph, op: &Op) {
    let nodes: Vec<NodeId> = graph.node_ids().collect();
    let arcs: Vec<_> = graph.arc_ids().collect();
    match op {
        Op::AddNode(supply) => {
            graph.add_node(NodeKind::Other { tag: 0 }, *supply);
        }
        Op::AddArc {
            src,
            dst,
            cap,
            cost,
        } => {
            if nodes.len() >= 2 {
                let s = nodes[src % nodes.len()];
                let d = nodes[dst % nodes.len()];
                if s != d {
                    graph.add_arc(s, d, *cap, *cost).unwrap();
                }
            }
        }
        Op::RemoveNode(i) => {
            if !nodes.is_empty() {
                graph.remove_node(nodes[i % nodes.len()]).unwrap();
            }
        }
        Op::RemoveArc(i) => {
            if !arcs.is_empty() {
                graph.remove_arc(arcs[i % arcs.len()]).unwrap();
            }
        }
        Op::SetCost { arc, cost } => {
            if !arcs.is_empty() {
                graph.set_arc_cost(arcs[arc % arcs.len()], *cost).unwrap();
            }
        }
        Op::SetCapacity { arc, cap } => {
            if !arcs.is_empty() {
                graph
                    .set_arc_capacity(arcs[arc % arcs.len()], *cap)
                    .unwrap();
            }
        }
        Op::Push { arc, frac } => {
            if !arcs.is_empty() {
                let a = arcs[arc % arcs.len()];
                let r = graph.rescap(a);
                let delta = r * (*frac as i64) / 100;
                if delta > 0 {
                    graph.push_flow(a, delta);
                }
            }
        }
    }
}

/// Arbitrary mutation sequences never violate structural invariants.
#[test]
fn mutations_preserve_invariants() {
    let mut rng = XorShift64::new(0x6A41);
    for case in 0..64 {
        let ops = random_ops(&mut rng, 1, 80);
        let mut g = FlowGraph::new();
        for op in &ops {
            apply(&mut g, op);
            let violations = validate(&g);
            assert!(
                violations.is_empty(),
                "case {case}: after {op:?}: {violations:?}"
            );
        }
        // Counts agree with iteration.
        assert_eq!(g.node_count(), g.node_ids().count());
        assert_eq!(g.arc_count(), g.arc_ids().count());
    }
}

/// Tracking records one raw entry per effective mutation: each op's own
/// batch counts what the op changed, and the batch of the whole sequence
/// counts the sum. The whole-sequence graph skips the pushes: they are
/// not changes, and flow on an arc added within the batch would break the
/// recorder's contract.
#[test]
fn change_log_matches_mutations() {
    let mut rng = XorShift64::new(0xC4A6);
    for case in 0..64 {
        let ops = random_ops(&mut rng, 1, 40);
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        let mut whole = FlowGraph::new();
        whole.set_change_tracking(true);
        let mut effective = 0usize;
        for op in &ops {
            let nodes_before = g.node_count();
            let arcs_before = g.arc_count();
            apply(&mut g, op);
            if !matches!(op, Op::Push { .. }) {
                apply(&mut whole, op);
            }
            let log_delta = g.take_deltas().raw_len();
            match op {
                Op::AddNode(_) => assert_eq!(log_delta, 1, "case {case}"),
                Op::RemoveNode(_) if nodes_before > 0 => {
                    // Node removal logs the node plus each incident arc.
                    assert!(log_delta >= 1, "case {case}");
                }
                Op::RemoveArc(_) if arcs_before > 0 => assert_eq!(log_delta, 1, "case {case}"),
                Op::Push { .. } => {
                    assert_eq!(log_delta, 0, "case {case}: pushes are not changes")
                }
                _ => {}
            }
            effective += log_delta;
        }
        assert_eq!(whole.take_deltas().raw_len(), effective, "case {case}");
    }
}

/// DIMACS round-trips preserve node/arc counts, supplies, and the
/// multiset of (capacity, cost) pairs.
#[test]
fn dimacs_roundtrip_preserves_semantics() {
    let mut rng = XorShift64::new(0xD14AC5);
    for case in 0..64 {
        let ops = random_ops(&mut rng, 1, 60);
        let mut g = FlowGraph::new();
        for op in &ops {
            apply(&mut g, op);
        }
        let text = dimacs::serialize(&g);
        let g2 = dimacs::parse(&text).unwrap();
        assert_eq!(g2.node_count(), g.node_count(), "case {case}");
        assert_eq!(g2.arc_count(), g.arc_count(), "case {case}");
        assert_eq!(g2.total_supply(), g.total_supply(), "case {case}");
        let mut pairs1: Vec<(i64, i64)> = g.arc_ids().map(|a| (g.capacity(a), g.cost(a))).collect();
        let mut pairs2: Vec<(i64, i64)> =
            g2.arc_ids().map(|a| (g2.capacity(a), g2.cost(a))).collect();
        pairs1.sort_unstable();
        pairs2.sort_unstable();
        assert_eq!(pairs1, pairs2, "case {case}");
    }
}

/// Objective is bilinear: scaling all costs scales the objective.
#[test]
fn objective_scales_with_costs() {
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
    let mut rng = XorShift64::new(0x0B7EC7);
    for case in 0..32 {
        let seed = rng.below(1000);
        let factor = 2 + rng.below(3) as i64;
        let mut inst = scheduling_instance(seed, &InstanceSpec::default());
        // Route one unit down the first task's unscheduled path.
        let t = inst.tasks[0];
        let g = &mut inst.graph;
        let arc = g.adj(t).iter().copied().find(|&a| a.is_forward()).unwrap();
        g.push_flow(arc, 1);
        let before = g.objective();
        for a in g.arc_ids().collect::<Vec<_>>() {
            let c = g.cost(a);
            g.set_arc_cost(a, c * factor).unwrap();
        }
        assert_eq!(g.objective(), before * factor, "case {case} seed {seed}");
    }
}
