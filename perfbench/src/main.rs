//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics untraced, per-layer metrics traced). Exits 1 when a
//! correctness check fails or an operation failed, and 2 on a usage
//! error.

use firmament_perfbench::{measure, report, workload::Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or(format!(
                    "unknown workload {value}; one of: {}",
                    Workload::all().iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => traced = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = measure(&args.workload, args.seed, args.seconds, args.traced);
    for line in &out.notes {
        println!("# {line}");
    }
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    for v in &out.violations {
        println!("# CHECK FAILED: {v}");
    }
    let correct = out.violations.is_empty() && out.failed == 0;
    println!(
        "{}",
        report::json_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
