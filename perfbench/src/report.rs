//! Turns a run into named metrics: the end-to-end set of an untraced run,
//! the per-layer split of a traced one, and the one-line JSON result.

use crate::engine::{Kind, Layer, RunResult};

/// A named measurement with its unit and the samples it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a total).
    pub samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Names of the end-to-end metrics, in report order.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "place_latency_p50_s",
    "place_latency_p95_s",
    "round_p50_s",
    "round_p75_s",
];

/// The end-to-end metrics of an untraced run, given its set-up times.
///
/// The tasks one round places share its delay, so a window's 60–250
/// rounds, not its thousands of tasks, are the independent samples. The
/// gated tails stay well inside them: p95 latency and p75 round time.
/// Higher round percentiles rest on a handful of rounds (p90 spread up to
/// 0.23 across runs on `steady_5k`) and p99s on one or two (a single host
/// stall moves them); [`tail_notes`] prints those instead.
pub fn end_to_end(run: &RunResult, setups: &[f64]) -> Vec<Metric> {
    let (latency, round) = tails(run);
    vec![
        metric("setup_s", quantile(setups, 0.5), "s", setups.len()),
        latency("place_latency_p50_s", 0.5),
        latency("place_latency_p95_s", 0.95),
        round("round_p50_s", 0.5),
        round("round_p75_s", 0.75),
    ]
}

/// The ungated tails, for the human-readable report.
pub fn tail_notes(run: &RunResult) -> Vec<Metric> {
    let (latency, round) = tails(run);
    vec![
        latency("place_latency_p99_s", 0.99),
        round("round_p90_s", 0.9),
        round("round_p99_s", 0.99),
    ]
}

/// Quantile metrics of the window's placement latencies and round times.
fn tails(
    run: &RunResult,
) -> (
    impl Fn(&str, f64) -> Metric + '_,
    impl Fn(&str, f64) -> Metric + '_,
) {
    let latency: Vec<f64> = run.placed.iter().map(|p| p.latency).collect();
    (
        move |name, q| metric(name, quantile(&latency, q), "s", latency.len()),
        move |name, q| metric(name, quantile(&run.rounds, q), "s", run.rounds.len()),
    )
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &RunResult) -> Vec<Metric> {
    // Spans of the window's rounds and of the inputs delivered between them.
    let window = run.window_start..run.window_end;
    let spans = || run.spans.iter().filter(|s| window.contains(&s.start));
    let busy = |layer: Layer| {
        spans()
            .filter(|s| s.layer == layer)
            .fold(0.0, |acc, s| acc + s.dur)
    };
    let calls = |layer: Layer| spans().filter(|s| s.layer == layer).count();
    let st = &run.stages;
    let rounds = run.rounds.len();
    let n = |c: u64| c as f64;

    let mut m = vec![metric(
        "cluster.busy_s",
        busy(Layer::Cluster),
        "s",
        calls(Layer::Cluster),
    )];
    // No workload preempts (load spreading never migrates a running task
    // here), so that kind is timed but not reported.
    for kind in Kind::ALL.into_iter().filter(|&k| k != Kind::Preempt) {
        let layer = Layer::Manager(kind);
        let k = kind.name();
        m.push(metric(
            format!("manager.{k}.calls"),
            calls(layer) as f64,
            "count",
            1,
        ));
        m.push(metric(
            format!("manager.{k}.busy_s"),
            busy(layer),
            "s",
            calls(layer),
        ));
    }
    m.push(metric(
        "manager.wait_p50_s",
        quantile(&run.waits, 0.5),
        "s",
        run.waits.len(),
    ));
    m.push(metric(
        "manager.wait_p99_s",
        quantile(&run.waits, 0.99),
        "s",
        run.waits.len(),
    ));

    m.push(metric(
        "refresh.calls",
        calls(Layer::Refresh) as f64,
        "count",
        1,
    ));
    m.push(metric(
        "refresh.busy_s",
        busy(Layer::Refresh),
        "s",
        calls(Layer::Refresh),
    ));
    m.push(metric(
        "refresh.tasks_touched",
        n(st.refresh_tasks),
        "count",
        rounds,
    ));
    m.push(metric(
        "refresh.machines_touched",
        n(st.refresh_machines),
        "count",
        rounds,
    ));
    m.push(metric(
        "refresh.aggregates_touched",
        n(st.refresh_aggregates),
        "count",
        rounds,
    ));

    m.push(metric(
        "delta.busy_s",
        busy(Layer::Delta),
        "s",
        calls(Layer::Delta),
    ));
    m.push(metric("delta.raw", n(st.delta_raw), "count", rounds));
    m.push(metric(
        "delta.compacted",
        n(st.delta_compacted),
        "count",
        rounds,
    ));
    m.push(metric(
        "delta.reprices",
        n(st.delta_reprices),
        "count",
        rounds,
    ));
    m.push(metric(
        "delta.compaction_ratio",
        ratio(n(st.delta_compacted), n(st.delta_raw)),
        "ratio",
        rounds,
    ));
    m.push(metric(
        "handoff.busy_s",
        busy(Layer::Handoff),
        "s",
        calls(Layer::Handoff),
    ));

    let solver_busy = busy(Layer::Solver);
    m.push(metric(
        "solver.calls",
        calls(Layer::Solver) as f64,
        "count",
        1,
    ));
    m.push(metric(
        "solver.busy_s",
        solver_busy,
        "s",
        calls(Layer::Solver),
    ));
    m.push(metric("solver.winner_s", st.winner_s, "s", rounds));
    m.push(metric(
        "solver.race_overhead_s",
        solver_busy - st.winner_s,
        "s",
        rounds,
    ));
    m.push(metric(
        "solver.wins.relaxation",
        n(st.wins_relaxation),
        "count",
        rounds,
    ));
    m.push(metric(
        "solver.wins.cost_scaling",
        n(st.wins_cost_scaling),
        "count",
        rounds,
    ));
    m.push(metric(
        "solver.race_skips",
        n(st.race_skips),
        "count",
        rounds,
    ));
    m.push(metric(
        "solver.cs_iterations",
        n(st.cs_iterations),
        "count",
        rounds,
    ));
    m.push(metric(
        "solver.cs_nodes_touched",
        n(st.cs_nodes_touched),
        "count",
        rounds,
    ));
    m.push(metric("solver.bailouts", n(st.bailouts), "count", rounds));

    m.push(metric(
        "extract.busy_s",
        busy(Layer::Extract),
        "s",
        calls(Layer::Extract),
    ));
    m.push(metric(
        "extract.tasks",
        n(st.extract_tasks),
        "count",
        rounds,
    ));
    m.push(metric(
        "extract.useful_ratio",
        ratio(n(st.extract_useful), n(st.extract_tasks)),
        "ratio",
        rounds,
    ));
    m.push(metric(
        "diff.busy_s",
        busy(Layer::Diff),
        "s",
        calls(Layer::Diff),
    ));
    m.push(metric("diff.actions", n(st.diff_actions), "count", rounds));

    let queue: Vec<f64> = run.placed.iter().map(|p| p.queue_wait).collect();
    let in_round: Vec<f64> = run
        .placed
        .iter()
        .map(|p| p.latency - p.queue_wait)
        .collect();
    m.push(metric(
        "round.queue_wait_p50_s",
        quantile(&queue, 0.5),
        "s",
        queue.len(),
    ));
    m.push(metric(
        "round.in_round_p50_s",
        quantile(&in_round, 0.5),
        "s",
        in_round.len(),
    ));

    // Tracing overhead: compare with `round_p50_s` of an untraced run.
    // Coverage: the layers' busy time over the rounds' wall time.
    m.push(metric(
        "trace.round_p50_s",
        quantile(&run.rounds, 0.5),
        "s",
        rounds,
    ));
    let round_busy = run.rounds.iter().fold(0.0, |acc, r| acc + r);
    m.push(metric(
        "trace.coverage",
        ratio(round_busy, run.rounds_wall),
        "ratio",
        rounds,
    ));
    m
}

/// Formats `v` as a JSON number, all digits kept (non-finite → 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line JSON result.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
