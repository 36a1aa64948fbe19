//! Reduced-scale runs of every workload: each prints every named metric
//! with its unit, passes its correctness checks, and counts a
//! deliberately invalid action as failed.

use firmament_core::SchedulingAction;
use firmament_perfbench::engine::{self, validate, Cell, Meter, Tally};
use firmament_perfbench::report::{json_line, END_TO_END};
use firmament_perfbench::workload::{self, is_waiting, Input, Workload, US};
use firmament_perfbench::{measure, Outcome};

/// Machines shrink 50×: 100-machine cells (20 for `oversub_1k`).
const SCALE: f64 = 0.02;

/// Long enough for two bursts and several failures.
const SECONDS: f64 = 6.0;

/// Per-layer metrics every traced run must print, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("cluster.busy_s", "s"),
    ("manager.submit.calls", "count"),
    ("manager.submit.busy_s", "s"),
    ("manager.place.calls", "count"),
    ("manager.place.busy_s", "s"),
    ("manager.complete.calls", "count"),
    ("manager.complete.busy_s", "s"),
    ("manager.tick.calls", "count"),
    ("manager.tick.busy_s", "s"),
    ("manager.machine_down.calls", "count"),
    ("manager.machine_down.busy_s", "s"),
    ("manager.machine_up.calls", "count"),
    ("manager.machine_up.busy_s", "s"),
    ("manager.wait_p50_s", "s"),
    ("manager.wait_p99_s", "s"),
    ("refresh.calls", "count"),
    ("refresh.busy_s", "s"),
    ("refresh.tasks_touched", "count"),
    ("refresh.machines_touched", "count"),
    ("refresh.aggregates_touched", "count"),
    ("delta.busy_s", "s"),
    ("delta.raw", "count"),
    ("delta.compacted", "count"),
    ("delta.reprices", "count"),
    ("delta.compaction_ratio", "ratio"),
    ("handoff.busy_s", "s"),
    ("solver.calls", "count"),
    ("solver.busy_s", "s"),
    ("solver.winner_s", "s"),
    ("solver.race_overhead_s", "s"),
    ("solver.wins.relaxation", "count"),
    ("solver.wins.cost_scaling", "count"),
    ("solver.race_skips", "count"),
    ("solver.cs_iterations", "count"),
    ("solver.cs_nodes_touched", "count"),
    ("solver.bailouts", "count"),
    ("extract.busy_s", "s"),
    ("extract.tasks", "count"),
    ("extract.useful_ratio", "ratio"),
    ("diff.busy_s", "s"),
    ("diff.actions", "count"),
    ("round.queue_wait_p50_s", "s"),
    ("round.in_round_p50_s", "s"),
    ("trace.round_p50_s", "s"),
    ("trace.coverage", "ratio"),
];

fn reduced(w: Workload, traced: bool) -> Outcome {
    let name = w.name;
    let out = measure(&w.scaled(SCALE), 7, SECONDS, traced);
    assert!(out.violations.is_empty(), "{name}: {:?}", out.violations);
    assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
    assert!(out.attempted > 0);
    out
}

fn assert_prints(out: &Outcome, expected: &[(&str, &str)], workload: &str) {
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        expected.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "{workload}: metric names"
    );
    for (m, (name, unit)) in out.metrics.iter().zip(expected) {
        assert_eq!(m.unit, *unit, "{workload}: unit of {name}");
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{workload}: {name} = {}",
            m.value
        );
    }
    let line = json_line(true, out.attempted, out.failed, &out.metrics);
    for (name, unit) in expected {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing from {line}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in Workload::all() {
        let name = w.name;
        let out = reduced(w, false);
        let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|n| (*n, "s")).collect();
        assert_prints(&out, &expected, name);
        for m in &out.metrics {
            assert!(m.value > 0.0, "{name}: {} is 0", m.name);
            assert!(m.samples > 0, "{name}: {} has no samples", m.name);
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in Workload::all() {
        let name = w.name;
        let out = reduced(w, true);
        assert_prints(&out, PER_LAYER, name);
        let value = |n: &str| out.metrics.iter().find(|m| m.name == n).map(|m| m.value);
        assert!(
            value("solver.calls") > Some(0.0),
            "{name}: no rounds traced"
        );
        // The layers' busy time covers the rounds' wall time.
        let coverage = value("trace.coverage").expect("coverage");
        assert!(
            coverage > 0.5 && coverage <= 1.0 + 1e-9,
            "{name}: coverage {coverage}"
        );
    }
}

#[test]
fn invalid_actions_are_rejected_and_counted_as_failed() {
    // The reduced oversubscribed cell is full after set-up.
    let w = Workload::oversub_1k().scaled(SCALE);
    let inputs = workload::generate(&w, 3, 1.0);
    let mut tally = Tally::default();
    let (mut cell, _) = Cell::set_up(&inputs, false, &mut tally);
    assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    let waiting = cell
        .state
        .tasks
        .values()
        .filter(|t| is_waiting(t.state))
        .map(|t| t.id)
        .min()
        .expect("the backlog waits");
    let full = *cell.state.machines.keys().min().expect("machines");
    let invalid = [
        SchedulingAction::Place {
            task: waiting,
            machine: full,
        },
        SchedulingAction::Place {
            task: u64::MAX,
            machine: full,
        },
        SchedulingAction::Preempt { task: waiting },
    ];
    let mut meter = Meter::new(false);
    let (attempted, used) = (tally.attempted, cell.state.used_slots());
    for action in &invalid {
        assert!(
            validate(&cell.state, action).is_err(),
            "{action:?} validates"
        );
        assert!(
            !cell.act(&mut meter, &mut tally, action, 0),
            "{action:?} was applied"
        );
    }
    assert_eq!(tally.failed, invalid.len() as u64);
    assert_eq!(tally.attempted, attempted + invalid.len() as u64);
    assert_eq!(tally.failures.len(), invalid.len());
    assert_eq!(
        cell.state.used_slots(),
        used,
        "a rejected action changed the cell"
    );
    // A rejected action leaves the cell consistent.
    cell.check_final(&mut tally);
    assert!(tally.violations.is_empty(), "{:?}", tally.violations);
}

#[test]
fn tasks_unplaced_at_the_cut_count_in_the_latency_samples() {
    // Cut at the window's end, the oversubscribed cell leaves part of the
    // window's arrivals waiting; each still enters the latency samples,
    // with its wait until the cut.
    let w = Workload::oversub_1k().scaled(SCALE);
    let (warmup, window) = (1.0, 3.0);
    let end = warmup + window;
    let inputs = workload::generate(&w, 5, end);
    let mut tally = Tally::default();
    let (cell, _) = Cell::set_up(&inputs, false, &mut tally);
    let run = engine::run(cell, &inputs, warmup, window, end, tally);
    let due: usize = inputs
        .timeline
        .iter()
        .filter_map(|(t, input)| match input {
            Input::Arrival(a) if (warmup..end).contains(&(*t as f64 / US)) => Some(a.tasks.len()),
            _ => None,
        })
        .sum();
    assert!(run.censored > 0, "the cut left no window task waiting");
    assert_eq!(run.placed.len(), due, "every window task is a sample");
    assert!(run.placed.iter().all(|p| p.latency >= 0.0));
}

#[test]
fn the_seed_fixes_the_inputs() {
    let w = Workload::steady_5k().scaled(SCALE);
    let shape = |seed| {
        let inputs = workload::generate(&w, seed, 5.0);
        let due: Vec<u64> = inputs.timeline.iter().map(|(t, _)| *t).collect();
        (workload::resident_tasks(&inputs), due)
    };
    assert_eq!(shape(11), shape(11));
    assert_ne!(shape(11), shape(12));
}
