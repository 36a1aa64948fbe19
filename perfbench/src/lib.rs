//! Open-loop benchmark of the Firmament scheduler.
//!
//! One single-threaded load generator replays seeded cluster workloads open loop
//! on a virtual clock (the §7.1 Fauxmaster method applied to the whole
//! round): the seeded inputs fix each arrival's due time, the clock
//! advances by the measured wall time of every call into the scheduler,
//! and a task's placement latency runs from its due time to the moment
//! its `TaskPlaced` is applied. An untraced run gives the end-to-end
//! metrics; a traced run drives the same rounds through the public
//! handoff API and times every call into every layer from outside.
//!
//! - [`workload`]: the workloads and their seeded inputs.
//! - [`engine`]: set-up, the open-loop replay, and correctness checks.
//! - [`report`]: metrics and the one-line JSON result.

pub mod engine;
pub mod report;
pub mod workload;

use engine::{Cell, Tally};
use report::Metric;
use workload::Workload;

/// Virtual seconds of open-loop load before the measurement window: the
/// first rounds after set-up (cold solver state, the backlog's first wait
/// re-pricing) are not the workload's steady state.
pub const WARMUP_S: f64 = 4.0;

/// A finished benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// The run's metrics: end-to-end when untraced, per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Operations attempted (scheduler calls plus actions validated).
    pub attempted: u64,
    /// Operations failed (rejected actions plus `Err` from a call).
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
    /// Correctness violations; empty when every check passed.
    pub violations: Vec<String>,
    /// Human-readable lines: sample counts, censoring, failed ratio.
    pub notes: Vec<String>,
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs `workload` for `seed`: a set-up, an unmeasured warm-up, then a
/// `seconds`-long open-loop window, traced or not; untraced, then the
/// remaining set-ups.
pub fn measure(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    // Inputs run past the window so load continues while the window's
    // last tasks drain; the run is cut at `cap` regardless.
    let cap = WARMUP_S + 2.0 * seconds + 5.0;
    let inputs = workload::generate(workload, seed, cap);
    // The load runs on the first cell, set up on a fresh heap as in a
    // restarted scheduler process: on a heap that had held and freed four
    // earlier cells, `steady_5k`'s rounds ran about 55 % slower. Untraced
    // runs then set up again for the median set-up time.
    let mut tally = Tally::default();
    let (cell, first) = Cell::set_up(&inputs, traced, &mut tally);
    let mut run = engine::run(cell, &inputs, WARMUP_S, seconds, cap, tally);
    let mut setup_times = vec![first];
    if !traced {
        for _ in 1..SETUPS {
            let (cell, secs) = Cell::set_up(&inputs, false, &mut run.tally);
            cell.check_final(&mut run.tally);
            setup_times.push(secs);
        }
    }
    let (attempted, failed) = (run.tally.attempted, run.tally.failed);

    let metrics = if traced {
        report::per_layer(&run)
    } else {
        report::end_to_end(&run, &setup_times)
    };
    let mut notes = vec![
        format!(
            "workload {} seed {seed}: {} machines x {} slots, {} resident tasks, window {seconds} s after {WARMUP_S} s warm-up, \
             run ended at {:.3} s virtual",
            workload.name,
            workload.machines,
            workload.slots,
            workload::resident_tasks(&inputs),
            run.end
        ),
        format!(
            "samples: {} window tasks, {} rounds, {} set-ups; {} tasks censored (unplaced at the cut, counted with their wait until it)",
            run.placed.len(),
            run.rounds.len(),
            setup_times.len(),
            run.censored
        ),
        format!(
            "failed_ratio {} ({failed} failed / {attempted} attempted)",
            if attempted > 0 { failed as f64 / attempted as f64 } else { 0.0 }
        ),
    ];
    if traced {
        notes.push(format!(
            "objective checks against a from-scratch solve: {}",
            run.tally.objective_checks
        ));
    }
    let tails = if traced {
        Vec::new()
    } else {
        report::tail_notes(&run)
    };
    if !traced {
        let times: Vec<String> = setup_times.iter().map(|t| format!("{t:.3}")).collect();
        notes.push(format!("set-up times (s): {}", times.join(" ")));
    }
    for m in metrics.iter().chain(&tails) {
        notes.push(format!(
            "{:<32} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        ));
    }
    Outcome {
        metrics,
        attempted,
        failed,
        failures: run.tally.failures,
        violations: run.tally.violations,
        notes,
    }
}
