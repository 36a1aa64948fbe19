//! Dinic's blocking-flow max-flow algorithm.
//!
//! Used by [cycle canceling](crate::cycle_canceling) to establish an initial
//! feasible flow, and by tests to check instance feasibility.

use firmament_flow::{ArcId, FlowGraph, NodeId};
use std::collections::VecDeque;

/// Computes a maximum flow from `source` to `sink` on the graph's residual
/// network, mutating flow state in place, and returns the flow value.
///
/// Costs are ignored. Capacities and any pre-existing flow are respected.
pub fn dinic_max_flow(graph: &mut FlowGraph, source: NodeId, sink: NodeId) -> i64 {
    let n = graph.node_bound();
    let mut level = vec![-1i32; n];
    let mut iter = vec![0usize; n];
    let mut total = 0i64;
    loop {
        // BFS to build the level graph.
        for l in level.iter_mut() {
            *l = -1;
        }
        level[source.index()] = 0;
        let mut q = VecDeque::new();
        q.push_back(source);
        while let Some(u) = q.pop_front() {
            for &a in graph.adj(u) {
                let v = graph.dst(a);
                if graph.rescap(a) > 0 && level[v.index()] < 0 {
                    level[v.index()] = level[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        if level[sink.index()] < 0 {
            return total;
        }
        for it in iter.iter_mut() {
            *it = 0;
        }
        // Repeated DFS for augmenting paths within the level graph.
        loop {
            let pushed = dfs(graph, source, sink, i64::MAX, &level, &mut iter);
            if pushed == 0 {
                break;
            }
            total += pushed;
        }
    }
}

/// Iterative DFS that finds one augmenting path in the level graph and
/// pushes the bottleneck along it.
fn dfs(
    graph: &mut FlowGraph,
    source: NodeId,
    sink: NodeId,
    limit: i64,
    level: &[i32],
    iter: &mut [usize],
) -> i64 {
    // Explicit stack of (node, arc taken to get here).
    let mut path: Vec<ArcId> = Vec::new();
    let mut u = source;
    loop {
        if u == sink {
            let mut bottleneck = limit;
            for &a in &path {
                bottleneck = bottleneck.min(graph.rescap(a));
            }
            for &a in &path {
                graph.push_flow(a, bottleneck);
            }
            return bottleneck;
        }
        let adj = graph.adj(u);
        let mut advanced = false;
        while iter[u.index()] < adj.len() {
            let a = adj[iter[u.index()]];
            let v = graph.dst(a);
            if graph.rescap(a) > 0 && level[v.index()] == level[u.index()] + 1 {
                path.push(a);
                u = v;
                advanced = true;
                break;
            }
            iter[u.index()] += 1;
        }
        if advanced {
            continue;
        }
        // Dead end: retreat.
        if u == source {
            return 0;
        }
        let a = path.pop().expect("non-source dead end has a path");
        u = graph.src(a);
        iter[u.index()] += 1;
    }
}

/// Returns `true` if all positive supply can be routed to the negative
/// supplies, by running max flow from a temporary super-source to a
/// temporary super-sink. The graph's flow state is reset.
pub fn is_feasible(graph: &mut FlowGraph) -> bool {
    graph.reset_flow();
    let was_tracking = graph.tracks_changes();
    graph.set_change_tracking(false);
    let supplies: Vec<(NodeId, i64)> = graph
        .node_ids()
        .map(|v| (v, graph.supply(v)))
        .filter(|&(_, s)| s != 0)
        .collect();
    let total_pos: i64 = supplies
        .iter()
        .filter(|&&(_, s)| s > 0)
        .map(|&(_, s)| s)
        .sum();
    let ss = graph.add_node(firmament_flow::NodeKind::Other { tag: u64::MAX }, 0);
    let tt = graph.add_node(firmament_flow::NodeKind::Other { tag: u64::MAX - 1 }, 0);
    for &(v, s) in &supplies {
        if s > 0 {
            graph.add_arc(ss, v, s, 0).expect("supply arc");
        } else {
            graph.add_arc(v, tt, -s, 0).expect("demand arc");
        }
    }
    let value = dinic_max_flow(graph, ss, tt);
    graph.remove_node(ss).expect("super source");
    graph.remove_node(tt).expect("super sink");
    graph.reset_flow();
    graph.set_change_tracking(was_tracking);
    value == total_pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
    use firmament_flow::NodeKind;

    #[test]
    fn simple_max_flow() {
        let mut g = FlowGraph::new();
        let s = g.add_node(NodeKind::Other { tag: 0 }, 0);
        let a = g.add_node(NodeKind::Other { tag: 1 }, 0);
        let b = g.add_node(NodeKind::Other { tag: 2 }, 0);
        let t = g.add_node(NodeKind::Other { tag: 3 }, 0);
        g.add_arc(s, a, 3, 0).unwrap();
        g.add_arc(s, b, 2, 0).unwrap();
        g.add_arc(a, t, 2, 0).unwrap();
        g.add_arc(b, t, 3, 0).unwrap();
        g.add_arc(a, b, 5, 0).unwrap();
        assert_eq!(dinic_max_flow(&mut g, s, t), 5);
    }

    #[test]
    fn bottleneck_limits_flow() {
        let mut g = FlowGraph::new();
        let s = g.add_node(NodeKind::Other { tag: 0 }, 0);
        let m = g.add_node(NodeKind::Other { tag: 1 }, 0);
        let t = g.add_node(NodeKind::Other { tag: 2 }, 0);
        g.add_arc(s, m, 10, 0).unwrap();
        g.add_arc(m, t, 4, 0).unwrap();
        assert_eq!(dinic_max_flow(&mut g, s, t), 4);
    }

    #[test]
    fn generated_instances_are_feasible() {
        for seed in 0..5 {
            let mut inst = scheduling_instance(seed, &InstanceSpec::default());
            assert!(is_feasible(&mut inst.graph), "seed {seed}");
        }
    }

    #[test]
    fn infeasible_when_sink_unreachable() {
        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 0 }, 2);
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let s = g.add_node(NodeKind::Sink, -2);
        g.add_arc(t, m, 2, 0).unwrap();
        g.add_arc(m, s, 1, 0).unwrap(); // only one slot for two tasks
        assert!(!is_feasible(&mut g));
    }

    #[test]
    fn is_feasible_restores_graph_shape() {
        let mut inst = scheduling_instance(1, &InstanceSpec::default());
        let nodes = inst.graph.node_count();
        let arcs = inst.graph.arc_count();
        let _ = is_feasible(&mut inst.graph);
        assert_eq!(inst.graph.node_count(), nodes);
        assert_eq!(inst.graph.arc_count(), arcs);
        assert_eq!(inst.graph.objective(), 0, "flow reset");
    }

    /// Pausing tracking around the helper super-source/sink suspends
    /// recording without dropping the pending batch: the batch taken
    /// after `is_feasible` or `cycle_canceling::solve` equals the batch of
    /// a graph that never called them.
    #[test]
    fn helper_nodes_keep_the_pending_batch() {
        use crate::common::SolveOptions;
        for seed in 0..4 {
            let mut inst = scheduling_instance(seed, &InstanceSpec::default());
            let g = &mut inst.graph;
            g.set_change_tracking(true);
            // Two tasks leave and one arrives, so the helpers reuse slots
            // the batch freed; one surviving arc is re-priced.
            g.remove_node(inst.tasks[0]).unwrap();
            g.remove_node(inst.tasks[1]).unwrap();
            let t = g.add_node(NodeKind::Task { task: 999 }, 1);
            g.add_arc(t, inst.machines[0], 1, 3).unwrap();
            g.add_arc(t, inst.unscheduled, 1, 150).unwrap();
            let d = g.supply(inst.sink);
            g.set_supply(inst.sink, d + 1).unwrap();
            let a = g.adj(inst.tasks[2])[0];
            g.set_arc_cost(a, g.cost(a) + 1).unwrap();

            let mut checked = g.clone();
            assert!(is_feasible(&mut checked), "seed {seed}");
            let mut solved = g.clone();
            crate::cycle_canceling::solve(&mut solved, &SolveOptions::unlimited()).unwrap();
            let expected = g.take_deltas();
            assert!(!expected.is_empty(), "seed {seed}");
            assert_eq!(checked.take_deltas(), expected, "is_feasible, seed {seed}");
            assert_eq!(
                solved.take_deltas(),
                expected,
                "cycle canceling, seed {seed}"
            );
        }
    }
}
