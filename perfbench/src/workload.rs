//! The benchmark's workloads and the seeded inputs they generate.
//!
//! Every workload runs the load-spreading cost model with
//! `BundleShape::Bucketed` ladders on 12-slot machines. A workload fixes
//! the cell (machines, resident load, standing backlog) and the open-loop
//! arrival process (Google-like trace arrivals, periodic bursts, machine
//! failures); the seed fixes every draw.

use firmament_cluster::{ClusterState, Machine, TaskState, Time, TopologySpec};
use firmament_flow::testgen::XorShift64;
use firmament_sim::trace::FixedWorkload;
use firmament_sim::{GoogleTraceGenerator, JobArrival, TraceSpec};

/// Microseconds per second.
pub const US: f64 = 1e6;

/// A job of identical tasks arriving every `period_s` seconds.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Tasks per burst job.
    pub tasks: usize,
    /// Duration of each task, seconds.
    pub duration_s: f64,
    /// Seconds between bursts.
    pub period_s: f64,
}

/// One machine fails every `period_s` seconds and returns `repair_s`
/// seconds later, empty.
#[derive(Debug, Clone, Copy)]
pub struct Failures {
    /// Seconds between failures.
    pub period_s: f64,
    /// Seconds a failed machine stays out of the cell.
    pub repair_s: f64,
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Machines in the cell.
    pub machines: usize,
    /// Slots per machine.
    pub slots: u32,
    /// Share of slots the resident workload fills at set-up.
    pub resident: f64,
    /// Waiting tasks submitted at set-up beyond the resident load, as a
    /// share of slots (the standing backlog of an oversubscribed cell).
    pub backlog: f64,
    /// Slot utilization the trace's arrival rate sustains (Little's law).
    pub arrival_utilization: f64,
    /// Trace speedup: divides task durations and interarrival times.
    pub speedup: f64,
    /// Multiplier on sampled trace job sizes.
    pub job_size_scale: f64,
    /// Replaces the Google-like job model with identical jobs.
    pub fixed: Option<FixedWorkload>,
    /// Trace jobs keep at most this many tasks (the size tail truncated).
    pub max_job_tasks: Option<usize>,
    /// Periodic burst jobs, if any.
    pub burst: Option<Burst>,
    /// Periodic machine failures, if any.
    pub failures: Option<Failures>,
}

impl Workload {
    /// 5,000 machines warmed to 40 % with long trace tasks; a 12,000-task
    /// job of 2 s tasks arrives every 4 s.
    pub fn burst_5k() -> Self {
        Workload {
            name: "burst_5k",
            machines: 5_000,
            slots: 12,
            resident: 0.4,
            backlog: 0.0,
            arrival_utilization: 0.4,
            speedup: 1.0,
            job_size_scale: 0.4,
            burst: Some(Burst {
                tasks: 12_000,
                duration_s: 2.0,
                period_s: 4.0,
            }),
            fixed: None,
            max_job_tasks: None,
            failures: None,
        }
    }

    /// 5,000 machines at 50 %, Google-like trace at speedup 20 with jobs
    /// sized as in a 1,000-machine cell and truncated at 200 tasks: many
    /// small jobs every round, and no single job sets the latency tail.
    pub fn steady_5k() -> Self {
        Workload {
            name: "steady_5k",
            machines: 5_000,
            slots: 12,
            resident: 0.5,
            backlog: 0.0,
            arrival_utilization: 0.5,
            speedup: 20.0,
            job_size_scale: 0.08,
            fixed: None,
            max_job_tasks: Some(200),
            burst: None,
            failures: None,
        }
    }

    /// `steady_5k` shrunk to 1,000 machines, job sizes and the job cut
    /// with it: the same per-slot load on a cell that host contention
    /// moved least in alternating 5k/2k/1k runs.
    pub fn steady_1k() -> Self {
        Workload {
            name: "steady_1k",
            machines: 1_000,
            job_size_scale: 0.016,
            max_job_tasks: Some(40),
            ..Self::steady_5k()
        }
    }

    /// 1,000 full machines with a standing backlog of 15 % of slots,
    /// arrivals at capacity, and one machine failure a second (repaired
    /// after 5 s). Jobs are ten identical 20 s tasks arriving on a fixed
    /// schedule, so arrivals and completions both run at 600 tasks/s and
    /// the backlog stays near its start.
    pub fn oversub_1k() -> Self {
        Workload {
            name: "oversub_1k",
            machines: 1_000,
            slots: 12,
            resident: 1.0,
            backlog: 0.15,
            arrival_utilization: 1.0,
            speedup: 1.0,
            job_size_scale: 1.0,
            fixed: Some(FixedWorkload {
                tasks_per_job: 10,
                duration_s: 20.0,
            }),
            max_job_tasks: None,
            burst: None,
            failures: Some(Failures {
                period_s: 1.0,
                repair_s: 5.0,
            }),
        }
    }

    /// Every workload.
    pub fn all() -> Vec<Workload> {
        vec![
            Self::burst_5k(),
            Self::steady_5k(),
            Self::steady_1k(),
            Self::oversub_1k(),
        ]
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// The same workload shrunk by `factor` in machines and burst size
    /// (rates per slot, shares and periods unchanged) — for fast tests.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.machines = ((self.machines as f64 * factor).round() as usize).max(4);
        if let Some(b) = self.burst.as_mut() {
            b.tasks = ((b.tasks as f64 * factor).round() as usize).max(1);
        }
        self.job_size_scale *= factor;
        self
    }

    /// The cell's topology.
    pub fn topology(&self) -> TopologySpec {
        TopologySpec {
            machines: self.machines,
            machines_per_rack: 40,
            slots_per_machine: self.slots,
        }
    }

    fn trace_spec(&self, seed: u64) -> TraceSpec {
        TraceSpec {
            machines: self.machines,
            slots_per_machine: self.slots,
            target_utilization: self.arrival_utilization,
            speedup: self.speedup,
            seed,
            job_size_scale: self.job_size_scale,
            fixed: self.fixed,
            ..TraceSpec::default()
        }
    }
}

/// An input the open-loop generator delivers at its due time.
#[derive(Debug, Clone)]
pub enum Input {
    /// A job (trace or burst) is submitted.
    Arrival(JobArrival),
    /// A machine fails.
    MachineDown(u64),
    /// A failed machine returns, empty.
    MachineUp(Machine),
}

/// Everything a run replays, fixed by the workload and the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The empty cell, with the input blocks of every generated task
    /// registered (the load generator needs the cell to place them).
    pub cell: ClusterState,
    /// The resident workload, submitted and placed at time 0.
    pub resident: Vec<JobArrival>,
    /// The standing backlog, submitted at time 0 once the resident
    /// workload runs.
    pub backlog: Vec<JobArrival>,
    /// Timed inputs in due order (µs), up to the generation horizon.
    pub timeline: Vec<(Time, Input)>,
}

/// Mixes the workload name into the seed so workloads draw independent
/// streams from one `--seed`.
fn stream_seed(seed: u64, name: &str, stream: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in name.bytes().chain(stream.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h | 1
}

/// Generates a workload's inputs for `seed`, with timed inputs up to
/// `horizon_s` seconds.
pub fn generate(w: &Workload, seed: u64, horizon_s: f64) -> Inputs {
    let mut cell = ClusterState::with_topology(&w.topology());
    let mut trace = GoogleTraceGenerator::new(w.trace_spec(stream_seed(seed, w.name, 0)));
    let mut rng = XorShift64::new(stream_seed(seed, w.name, 1));

    // Resident jobs with residual durations, so the cell starts in its
    // steady state rather than with every task freshly started: the
    // residual life of a running log-normal(m, σ) task is U·D with D
    // length-biased, i.e. log-normal(m·e^{σ²}, σ); for identical tasks
    // it is U·D.
    let length_bias = match w.fixed {
        Some(_) => 1.0,
        None => (trace.spec().duration_sigma.powi(2)).exp(),
    };
    let slots = cell.total_slots() as f64;
    let mut fill = |share: f64, residual: bool| {
        let target = (slots * share).round() as usize;
        let mut jobs = Vec::new();
        let mut total = 0;
        while total < target {
            let mut a = trace.generate_job_at(0, &mut cell);
            truncate(&mut a, w.max_job_tasks);
            for t in a
                .tasks
                .iter_mut()
                .filter(|t| residual && t.duration != Time::MAX)
            {
                let left = t.duration as f64 * length_bias * rng.unit_f64();
                t.duration = (left as Time).max(1);
            }
            total += a.tasks.len();
            jobs.push(a);
        }
        jobs
    };
    let resident = fill(w.resident, true);
    // The backlog has not started: full durations.
    let backlog = fill(w.backlog, false);

    let horizon = (horizon_s * US) as Time;
    let mut timeline = Vec::new();
    if w.fixed.is_some() {
        // Identical jobs arrive on a fixed schedule at the trace's mean
        // rate (seeded phase), so the backlog moves only with completions
        // and failures instead of random-walking with Poisson arrivals.
        let gap = trace.interarrival_us();
        let mut t = rng.unit_f64() * gap;
        while t <= horizon as f64 {
            let a = trace.generate_job_at(t as Time, &mut cell);
            timeline.push((a.time, Input::Arrival(a)));
            t += gap;
        }
    } else {
        loop {
            let mut a = trace.next_arrival(&mut cell);
            truncate(&mut a, w.max_job_tasks);
            if a.time > horizon {
                break;
            }
            timeline.push((a.time, Input::Arrival(a)));
        }
    }
    if let Some(b) = w.burst {
        let mut t = (0.5 + rng.unit_f64()) * US;
        while t <= horizon as f64 {
            let a = trace.burst_job_at(t as Time, b.tasks, (b.duration_s * US) as Time);
            timeline.push((a.time, Input::Arrival(a)));
            t += b.period_s * US;
        }
    }
    if let Some(f) = w.failures {
        // Failures pick among machines that are up; each returns empty
        // with its original rack and slots.
        let mut ids: Vec<u64> = cell.machines.keys().copied().collect();
        ids.sort_unstable();
        let mut down_until: Vec<(u64, f64)> = Vec::new();
        let mut t = rng.unit_f64() * f.period_s * US;
        while t <= horizon as f64 {
            down_until.retain(|&(_, until)| until > t);
            let m = loop {
                let m = ids[rng.below(ids.len() as u64) as usize];
                if down_until.iter().all(|&(d, _)| d != m) {
                    break m;
                }
            };
            let back = t + f.repair_s * US;
            down_until.push((m, back));
            let machine = cell.machines[&m].clone();
            timeline.push((t as Time, Input::MachineDown(m)));
            timeline.push((back as Time, Input::MachineUp(machine)));
            t += f.period_s * US;
        }
    }
    // Stable: equal due times keep generation order.
    timeline.sort_by_key(|(due, _)| *due);
    Inputs {
        cell,
        resident,
        backlog,
        timeline,
    }
}

/// Drops a job's tasks beyond `max`.
fn truncate(a: &mut JobArrival, max: Option<usize>) {
    if let Some(max) = max {
        a.tasks.truncate(max);
        a.job.tasks.truncate(max);
    }
}

/// Tasks the resident workload and the backlog submit.
pub fn resident_tasks(inputs: &Inputs) -> usize {
    inputs
        .resident
        .iter()
        .chain(&inputs.backlog)
        .map(|a| a.tasks.len())
        .sum()
}

/// Whether a task counts as waiting for the scheduler.
pub fn is_waiting(state: TaskState) -> bool {
    matches!(state, TaskState::Waiting | TaskState::Preempted)
}
