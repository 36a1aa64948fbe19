//! The open-loop replay: feeds a workload's inputs to the
//! scheduler on a virtual clock.
//!
//! Each input is due at a fixed virtual time. The clock advances by the
//! measured wall time of every call into the program — `ClusterState::apply`,
//! `Firmament::handle_event`, `Firmament::schedule` (or, in a traced run,
//! each stage of the round) — and jumps ahead only while the scheduler is
//! idle, so a slow round delays every input that falls due while it runs.
//! Checks and bookkeeping run off the clock.

use crate::workload::{is_waiting, Input, Inputs, US};
use firmament_cluster::{ClusterEvent, ClusterState, TaskId, TaskState, Time};
use firmament_core::{extract_placements, Firmament, Placement, SchedulingAction};
use firmament_mcmf::{cost_scaling, AlgorithmKind, DualConfig, DualSolver, SolveOptions};
use firmament_policies::LoadSpreadingCostModel;
use firmament_sim::JobArrival;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Instant;

/// The kinds of `handle_event` call the trace separates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `JobSubmitted`.
    Submit,
    /// `TaskPlaced`.
    Place,
    /// `TaskPreempted`.
    Preempt,
    /// `TaskCompleted`.
    Complete,
    /// `Tick` (the clock advance that opens every round).
    Tick,
    /// `MachineRemoved`.
    MachineDown,
    /// `MachineAdded`.
    MachineUp,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 7] = [
        Kind::Submit,
        Kind::Place,
        Kind::Preempt,
        Kind::Complete,
        Kind::Tick,
        Kind::MachineDown,
        Kind::MachineUp,
    ];

    /// The metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Submit => "submit",
            Kind::Place => "place",
            Kind::Preempt => "preempt",
            Kind::Complete => "complete",
            Kind::Tick => "tick",
            Kind::MachineDown => "machine_down",
            Kind::MachineUp => "machine_up",
        }
    }

    fn of(ev: &ClusterEvent) -> Kind {
        match ev {
            ClusterEvent::JobSubmitted { .. } => Kind::Submit,
            ClusterEvent::TaskPlaced { .. } => Kind::Place,
            ClusterEvent::TaskPreempted { .. } => Kind::Preempt,
            ClusterEvent::TaskCompleted { .. } => Kind::Complete,
            ClusterEvent::Tick { .. } => Kind::Tick,
            ClusterEvent::MachineRemoved { .. } => Kind::MachineDown,
            ClusterEvent::MachineAdded { .. } => Kind::MachineUp,
        }
    }
}

/// A layer boundary the trace times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ClusterState::apply`.
    Cluster,
    /// `Firmament::handle_event`, by event kind.
    Manager(Kind),
    /// `Firmament::schedule` as one call (untraced runs).
    Schedule,
    /// `Firmament::refresh`.
    Refresh,
    /// `FlowGraphManager::take_deltas`.
    Delta,
    /// `FlowGraphManager::take_graph` and `adopt_graph`.
    Handoff,
    /// `DualSolver::solve_owned_with_deltas`.
    Solver,
    /// `extract_placements`.
    Extract,
    /// The action diff.
    Diff,
}

/// One timed call: its layer, virtual start (s) and duration (s).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Virtual start time, seconds.
    pub start: f64,
    /// Wall duration, seconds.
    pub dur: f64,
}

/// The virtual clock, and the span log of a traced run (kept in memory
/// until the run ends).
#[derive(Debug, Default)]
pub struct Meter {
    /// Virtual now, seconds.
    pub now: f64,
    /// Spans, when tracing.
    pub spans: Option<Vec<Span>>,
    /// Wall seconds spent off the clock (checks), for the coverage check.
    pub untimed: f64,
}

impl Meter {
    /// A clock at virtual time 0, recording spans when `traced`.
    pub fn new(traced: bool) -> Self {
        Meter {
            now: 0.0,
            spans: traced.then(Vec::new),
            untimed: 0.0,
        }
    }

    /// Runs `f`, advancing the clock by its wall time.
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let dur = start.elapsed().as_secs_f64();
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                layer,
                start: self.now,
                dur,
            });
        }
        self.now += dur;
        r
    }

    /// Runs `f` off the clock.
    fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.untimed += start.elapsed().as_secs_f64();
        r
    }

    fn now_us(&self) -> Time {
        (self.now * US) as Time
    }
}

/// Operation tallies and correctness findings.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Scheduler calls plus actions validated.
    pub attempted: u64,
    /// `Err` from a scheduler call plus actions rejected by validation.
    pub failed: u64,
    /// Rounds whose adopted objective was checked against a from-scratch
    /// solve.
    pub objective_checks: u64,
    /// What failed (the first few).
    pub failures: Vec<String>,
    /// Correctness violations found.
    pub violations: Vec<String>,
}

impl Tally {
    /// Counts a failed operation.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }
}

/// Per-round solver and stage counters of a traced run.
#[derive(Debug, Default, Clone)]
pub struct StageCounts {
    /// Refresh: tasks, machines, aggregates re-evaluated.
    pub refresh_tasks: u64,
    /// See `refresh_tasks`.
    pub refresh_machines: u64,
    /// See `refresh_tasks`.
    pub refresh_aggregates: u64,
    /// Raw change-log entries drained by `take_deltas`.
    pub delta_raw: u64,
    /// Compacted deltas.
    pub delta_compacted: u64,
    /// Pure re-pricings among the compacted deltas.
    pub delta_reprices: u64,
    /// The winners' reported runtime, seconds.
    pub winner_s: f64,
    /// Races relaxation won.
    pub wins_relaxation: u64,
    /// Races cost scaling won (including skipped races).
    pub wins_cost_scaling: u64,
    /// Races short-circuited as re-price-only.
    pub race_skips: u64,
    /// Incremental cost-scaling iterations.
    pub cs_iterations: u64,
    /// Nodes the incremental cost-scaling run activated.
    pub cs_nodes_touched: u64,
    /// Warm-start bailouts.
    pub bailouts: u64,
    /// Placements extracted.
    pub extract_tasks: u64,
    /// Extracted placements that yielded an action.
    pub extract_useful: u64,
    /// Actions the diff produced.
    pub diff_actions: u64,
}

/// A placed task's latency split.
#[derive(Debug, Clone, Copy)]
pub struct Placed {
    /// Due time → `TaskPlaced` applied, seconds.
    pub latency: f64,
    /// Due time → start of the placing round, seconds.
    pub queue_wait: f64,
}

/// A cell under one scheduler: the state, the scheduler, and the dual
/// solver traced rounds drive through the handoff API.
pub struct Cell {
    /// The cluster state.
    pub state: ClusterState,
    /// The scheduler.
    pub firmament: Firmament<LoadSpreadingCostModel>,
    solver: DualSolver,
    traced: bool,
    /// Placements per task, so a stale completion is recognized.
    generation: HashMap<TaskId, u32>,
    /// Tasks submitted to this cell.
    submitted: u64,
    /// Completions delivered to this cell.
    completed: u64,
}

/// The scheduling policy every workload runs.
pub fn policy() -> LoadSpreadingCostModel {
    LoadSpreadingCostModel::bucketed()
}

/// Whether `action` may be applied to `state`.
pub fn validate(state: &ClusterState, action: &SchedulingAction) -> Result<(), String> {
    match *action {
        SchedulingAction::Place { task, machine } => {
            let t = state
                .tasks
                .get(&task)
                .ok_or(format!("place of unknown task {task}"))?;
            if !is_waiting(t.state) {
                return Err(format!("place of task {task} in state {:?}", t.state));
            }
            let m = state
                .machines
                .get(&machine)
                .ok_or(format!("place of task {task} on unknown machine {machine}"))?;
            if !m.has_free_slot() {
                return Err(format!("place of task {task} on full machine {machine}"));
            }
        }
        SchedulingAction::Preempt { task } => {
            let t = state
                .tasks
                .get(&task)
                .ok_or(format!("preempt of unknown task {task}"))?;
            if t.state != TaskState::Running {
                return Err(format!("preempt of task {task} in state {:?}", t.state));
            }
        }
    }
    Ok(())
}

/// The scheduler's action diff (as `Firmament::schedule` computes it):
/// preemptions first, then placements and migrations, in task order.
/// Returns the actions and how many tasks yielded one.
pub fn diff_placements(
    state: &ClusterState,
    placements: &BTreeMap<u64, Placement>,
) -> (Vec<SchedulingAction>, u64) {
    let mut preemptions = Vec::new();
    let mut moves = Vec::new();
    let mut useful = 0;
    for (&task, placement) in placements {
        let Some(t) = state.tasks.get(&task) else {
            continue;
        };
        let before = preemptions.len() + moves.len();
        match (t.state, t.machine, placement) {
            (TaskState::Waiting | TaskState::Preempted, _, Placement::OnMachine(m)) => {
                moves.push(SchedulingAction::Place { task, machine: *m });
            }
            (TaskState::Running, Some(cur), Placement::OnMachine(m)) if cur == *m => {}
            (TaskState::Running, Some(_), Placement::OnMachine(m)) => {
                preemptions.push(SchedulingAction::Preempt { task });
                moves.push(SchedulingAction::Place { task, machine: *m });
            }
            (TaskState::Running, Some(_), Placement::Unscheduled) => {
                preemptions.push(SchedulingAction::Preempt { task });
            }
            _ => {}
        }
        useful += u64::from(preemptions.len() + moves.len() > before);
    }
    preemptions.extend(moves);
    (preemptions, useful)
}

/// Everything one open-loop run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Virtual start of the measurement window: the warm-up's end, or the
    /// end of the round in progress then, seconds.
    pub window_start: f64,
    /// Virtual time the run ended (window plus drain), seconds.
    pub end: f64,
    /// End of the last round that started in the window (at least the
    /// window's end), seconds: spans between the two are the window's.
    pub window_end: f64,
    /// Round durations (virtual = measured) of rounds started in the window.
    pub rounds: Vec<f64>,
    /// Wall time of those rounds minus off-clock checks, seconds.
    pub rounds_wall: f64,
    /// Latency of each window task's first placement; a task never placed
    /// counts with its wait until the cut.
    pub placed: Vec<Placed>,
    /// Window tasks never placed before the run was cut (included in
    /// `placed`).
    pub censored: usize,
    /// Due time → `handle_event` start for inputs due in the window.
    pub waits: Vec<f64>,
    /// The span log (traced runs).
    pub spans: Vec<Span>,
    /// Stage counters of window rounds (traced runs).
    pub stages: StageCounts,
    /// Operation tallies and correctness findings.
    pub tally: Tally,
}

/// Completions and inputs waiting for their due time, earliest first.
type Pending = BinaryHeap<Reverse<(Time, u64, Due)>>;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    /// Index into the input timeline.
    Input(usize),
    /// A task finishes, if still on the placement `generation` names.
    Complete { task: TaskId, generation: u32 },
}

impl Cell {
    /// Sets a cell up: registers every machine, submits the resident
    /// workload and places it, then submits the backlog. Returns the cell
    /// and the set-up's measured seconds (validation off the clock).
    pub fn set_up(inputs: &Inputs, traced: bool, tally: &mut Tally) -> (Cell, f64) {
        let mut meter = Meter::new(false);
        let mut cell = Cell {
            state: inputs.cell.clone(),
            firmament: Firmament::new(policy()),
            solver: DualSolver::new(DualConfig::default()),
            traced,
            generation: HashMap::new(),
            submitted: 0,
            completed: 0,
        };
        let mut machines: Vec<_> = cell.state.machines.values().cloned().collect();
        machines.sort_by_key(|m| m.id);
        for machine in machines {
            cell.event(&mut meter, tally, &ClusterEvent::MachineAdded { machine });
        }
        cell.submit(&mut meter, tally, &inputs.resident);
        let mut stages = StageCounts::default();
        let actions = cell.schedule(&mut meter, tally, &mut stages, false);
        // Set-up happens at virtual time 0; the run's clock starts there.
        for action in &actions {
            cell.act(&mut meter, tally, action, 0);
        }
        cell.submit(&mut meter, tally, &inputs.backlog);
        (cell, meter.now)
    }

    fn submit(&mut self, meter: &mut Meter, tally: &mut Tally, jobs: &[JobArrival]) {
        for a in jobs {
            self.submitted += a.tasks.len() as u64;
            let ev = ClusterEvent::JobSubmitted {
                job: a.job.clone(),
                tasks: a.tasks.clone(),
            };
            self.event(meter, tally, &ev);
        }
    }

    /// Applies an event to the state and then the scheduler, on the clock.
    fn event(&mut self, meter: &mut Meter, tally: &mut Tally, ev: &ClusterEvent) {
        meter.time(Layer::Cluster, || self.state.apply(ev));
        let r = meter.time(Layer::Manager(Kind::of(ev)), || {
            self.firmament.handle_event(&self.state, ev)
        });
        tally.attempted += 1;
        if let Err(e) = r {
            tally.fail(format!("handle_event: {e}"));
        }
    }

    /// Validates `action` and applies it at virtual time `now` (µs).
    /// Returns whether it was applied.
    pub fn act(
        &mut self,
        meter: &mut Meter,
        tally: &mut Tally,
        action: &SchedulingAction,
        now: Time,
    ) -> bool {
        tally.attempted += 1;
        if let Err(e) = meter.untimed(|| validate(&self.state, action)) {
            tally.fail(format!("rejected action: {e}"));
            return false;
        }
        let ev = match *action {
            SchedulingAction::Place { task, machine } => {
                *self.generation.entry(task).or_insert(0) += 1;
                ClusterEvent::TaskPlaced { task, machine, now }
            }
            SchedulingAction::Preempt { task } => ClusterEvent::TaskPreempted { task, now },
        };
        self.event(meter, tally, &ev);
        true
    }

    /// One scheduling round's solve: `Firmament::schedule` untraced, or the
    /// handoff API stage by stage when traced. Returns the actions.
    #[allow(clippy::result_large_err)] // the solver hands the graph back in its Err
    fn schedule(
        &mut self,
        meter: &mut Meter,
        tally: &mut Tally,
        stages: &mut StageCounts,
        check_objective: bool,
    ) -> Vec<SchedulingAction> {
        tally.attempted += 1;
        if !self.traced {
            return match meter.time(Layer::Schedule, || self.firmament.schedule(&self.state)) {
                Ok(outcome) => outcome.actions,
                Err(e) => {
                    tally.fail(format!("schedule: {e}"));
                    Vec::new()
                }
            };
        }
        if let Err(e) = meter.time(Layer::Refresh, || self.firmament.refresh(&self.state)) {
            tally.fail(format!("refresh: {e}"));
            return Vec::new();
        }
        let touched = self.firmament.manager().stats();
        stages.refresh_tasks += touched.last_tasks_touched as u64;
        stages.refresh_machines += touched.last_machines_touched as u64;
        stages.refresh_aggregates += touched.last_aggregates_touched as u64;
        let manager = self.firmament.manager_mut();
        let deltas = meter.time(Layer::Delta, || manager.take_deltas());
        stages.delta_raw += deltas.raw_len() as u64;
        stages.delta_compacted += deltas.len() as u64;
        stages.delta_reprices += deltas.cost_changes() as u64;
        let graph = meter.time(Layer::Handoff, || manager.take_graph());
        let solver = &mut self.solver;
        let opts = SolveOptions::unlimited();
        let solved = meter.time(Layer::Solver, || {
            solver.solve_owned_with_deltas(graph, Some(&deltas), &opts)
        });
        let outcome = match solved {
            Ok(outcome) => outcome,
            Err((e, mut graph)) => {
                graph.reset_flow();
                manager.adopt_graph(graph);
                tally.fail(format!("solve: {e}"));
                return Vec::new();
            }
        };
        stages.winner_s += outcome.solution.runtime.as_secs_f64();
        match outcome.winner {
            AlgorithmKind::Relaxation | AlgorithmKind::IncrementalRelaxation => {
                stages.wins_relaxation += 1
            }
            _ => stages.wins_cost_scaling += 1,
        }
        stages.race_skips += u64::from(outcome.race_skipped);
        if let Some(cs) = &outcome.cs_stats {
            stages.cs_iterations += cs.iterations;
            stages.cs_nodes_touched += cs.nodes_touched;
            stages.bailouts += cs.bailouts;
        }
        meter.time(Layer::Handoff, || manager.adopt_graph(outcome.graph));
        if check_objective {
            let graph = self.firmament.graph();
            let finding = meter.untimed(|| {
                let adopted = graph.objective();
                let mut scratch = graph.clone();
                scratch.reset_flow();
                match cost_scaling::solve(&mut scratch, &SolveOptions::unlimited()) {
                    Ok(s) if s.objective == adopted => None,
                    Ok(s) => Some(format!(
                        "adopted objective {adopted} != from-scratch {}",
                        s.objective
                    )),
                    Err(e) => Some(format!("from-scratch check solve: {e}")),
                }
            });
            tally.objective_checks += 1;
            tally.violations.extend(finding);
        }
        let graph = self.firmament.graph();
        let placements = meter.time(Layer::Extract, || extract_placements(graph));
        let state = &self.state;
        let (actions, useful) = meter.time(Layer::Diff, || diff_placements(state, &placements));
        stages.extract_tasks += placements.len() as u64;
        stages.extract_useful += useful;
        stages.diff_actions += actions.len() as u64;
        actions
    }

    /// End-of-run consistency: no machine over its slots, every running
    /// task on exactly one machine, and submitted = waiting + running +
    /// completed.
    pub fn check_final(&self, tally: &mut Tally) {
        let mut hosts: HashMap<TaskId, u32> = HashMap::new();
        for m in self.state.machines.values() {
            if m.running.len() > m.slots as usize {
                tally.violations.push(format!(
                    "machine {} runs {} tasks on {} slots",
                    m.id,
                    m.running.len(),
                    m.slots
                ));
            }
            for &t in &m.running {
                *hosts.entry(t).or_insert(0) += 1;
                let on = self.state.tasks.get(&t).and_then(|t| t.machine);
                if on != Some(m.id) {
                    tally
                        .violations
                        .push(format!("machine {} hosts task {t} placed on {on:?}", m.id));
                }
            }
        }
        let (mut waiting, mut running, mut completed) = (0u64, 0u64, 0u64);
        for t in self.state.tasks.values() {
            match t.state {
                TaskState::Running => {
                    running += 1;
                    if hosts.get(&t.id) != Some(&1) {
                        tally.violations.push(format!(
                            "running task {} is on {} machines",
                            t.id,
                            hosts.get(&t.id).copied().unwrap_or(0)
                        ));
                    }
                }
                TaskState::Completed => completed += 1,
                _ => waiting += 1,
            }
        }
        if self.submitted != waiting + running + completed || self.completed != completed {
            tally.violations.push(format!(
                "submitted {} != waiting {waiting} + running {running} + completed {completed} \
                 (the replay delivered {} completions)",
                self.submitted, self.completed
            ));
        }
    }
}

/// A due time (µs) on the virtual clock (s). Delivery and idle jumps
/// compare in this one conversion, so a jump always delivers its input.
fn secs(due: Time) -> f64 {
    due as f64 / US
}

/// Rounds whose adopted objective a traced run checks against a
/// from-scratch solve (geometrically spaced, so the check stays cheap).
fn checks_objective(round: u64) -> bool {
    matches!(round, 1 | 4 | 16 | 64 | 256)
}

/// Replays `inputs` open loop against `cell`: an unmeasured warm-up of
/// `warmup` seconds, a `window`-second measurement window, then more
/// (inputs still arriving) until every task due in the window has been
/// placed, or the clock reaches `cap` seconds.
pub fn run(
    mut cell: Cell,
    inputs: &Inputs,
    warmup: f64,
    window: f64,
    cap: f64,
    mut tally: Tally,
) -> RunResult {
    let end = warmup + window;
    let in_window = |t: f64| (warmup..end).contains(&t);
    let traced = cell.traced;
    let mut meter = Meter::new(traced);
    let mut stages = StageCounts::default();
    let mut result = RunResult {
        window_start: warmup,
        window_end: end,
        ..RunResult::default()
    };
    let mut pending: Pending = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, (due, _)) in inputs.timeline.iter().enumerate() {
        pending.push(Reverse((*due, seq, Due::Input(i))));
        seq += 1;
    }
    // Resident tasks run from virtual time 0, where set-up left them.
    let mut running: Vec<(TaskId, Time)> = cell
        .state
        .running_tasks()
        .filter(|t| t.duration != Time::MAX)
        .map(|t| (t.id, t.remaining()))
        .collect();
    running.sort_unstable();
    for (task, remaining) in running {
        let generation = cell.generation.get(&task).copied().unwrap_or(0);
        pending.push(Reverse((
            remaining,
            seq,
            Due::Complete { task, generation },
        )));
        seq += 1;
    }

    // Window tasks not yet placed: task → due time (s).
    let mut unplaced: HashMap<TaskId, f64> = HashMap::new();
    let mut dirty = false;
    let mut round_no = 0u64;
    loop {
        // Deliver everything due by now; delivery itself advances the clock.
        while let Some(Reverse((due, _, _))) = pending.peek() {
            if secs(*due) > meter.now {
                break;
            }
            let Some(Reverse((due, _, item))) = pending.pop() else {
                break;
            };
            let ev = match item {
                Due::Input(i) => match &inputs.timeline[i].1 {
                    Input::Arrival(a) => {
                        cell.submitted += a.tasks.len() as u64;
                        if in_window(secs(due)) {
                            unplaced.extend(a.tasks.iter().map(|t| (t.id, secs(due))));
                        }
                        ClusterEvent::JobSubmitted {
                            job: a.job.clone(),
                            tasks: a.tasks.clone(),
                        }
                    }
                    Input::MachineDown(m) => ClusterEvent::MachineRemoved {
                        machine: *m,
                        now: due,
                    },
                    Input::MachineUp(m) => ClusterEvent::MachineAdded { machine: m.clone() },
                },
                Due::Complete { task, generation } => {
                    let current = cell.state.tasks.get(&task).map(|t| t.state);
                    if current != Some(TaskState::Running)
                        || cell.generation.get(&task).copied().unwrap_or(0) != generation
                    {
                        continue; // preempted or displaced since
                    }
                    cell.completed += 1;
                    ClusterEvent::TaskCompleted { task, now: due }
                }
            };
            if in_window(secs(due)) {
                result.waits.push(meter.now - secs(due));
            }
            dirty |= ev.triggers_scheduling();
            cell.event(&mut meter, &mut tally, &ev);
        }

        if meter.now >= cap || (meter.now >= end && unplaced.is_empty()) {
            break;
        }
        if !dirty {
            // Idle: jump to the next input.
            match pending.peek() {
                Some(Reverse((due, _, _))) => {
                    meter.now = meter.now.max(secs(*due));
                    continue;
                }
                None => break,
            }
        }

        // One round: tick, solve, apply the actions.
        dirty = false;
        round_no += 1;
        let start = meter.now;
        let wall = Instant::now();
        let untimed = meter.untimed;
        let tick = ClusterEvent::Tick {
            now: meter.now_us(),
        };
        cell.event(&mut meter, &mut tally, &tick);
        let measured = in_window(start);
        // Counters of rounds outside the window are not reported.
        let mut unmeasured = StageCounts::default();
        let counts = if measured {
            &mut stages
        } else {
            &mut unmeasured
        };
        let actions = cell.schedule(
            &mut meter,
            &mut tally,
            counts,
            traced && checks_objective(round_no),
        );
        for action in &actions {
            let now = meter.now_us();
            if !cell.act(&mut meter, &mut tally, action, now) {
                continue;
            }
            if let SchedulingAction::Place { task, .. } = *action {
                if let Some(due) = unplaced.remove(&task) {
                    result.placed.push(Placed {
                        latency: meter.now - due,
                        queue_wait: start - due,
                    });
                }
                let remaining = cell.state.tasks[&task].remaining();
                if remaining != Time::MAX {
                    let generation = cell.generation[&task];
                    let due = meter.now_us().saturating_add(remaining);
                    pending.push(Reverse((due, seq, Due::Complete { task, generation })));
                    seq += 1;
                }
            }
            // A preemption frees a slot, so it re-triggers scheduling.
            dirty |= matches!(action, SchedulingAction::Preempt { .. });
        }
        if measured {
            result.rounds.push(meter.now - start);
            result.window_end = result.window_end.max(meter.now);
            result.rounds_wall += wall.elapsed().as_secs_f64() - (meter.untimed - untimed);
        } else if start < warmup {
            // The spans of a round that straddles the warm-up's end are
            // not the window's.
            result.window_start = result.window_start.max(meter.now);
        }
    }

    result.end = meter.now;
    // A task still unplaced at the cut waited at least until the cut: it
    // enters the latency quantiles there, so starving tasks cannot shorten
    // the tail.
    result.censored = unplaced.len();
    result
        .placed
        .extend(unplaced.into_values().map(|due| Placed {
            latency: meter.now - due,
            queue_wait: meter.now - due,
        }));
    cell.check_final(&mut tally);
    result.tally = tally;
    result.stages = stages;
    result.spans = meter.spans.take().unwrap_or_default();
    result
}
