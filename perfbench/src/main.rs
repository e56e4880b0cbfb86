//! `perfbench` — end-to-end and per-layer benchmark of the dck
//! workspace.
//!
//! ```text
//! perfbench --workload <experiments|paper-sweep|serve-mix> --seed N
//!           --seconds S --trace <0|1> [--work-dir DIR] [--inject wrong|refuse]
//! ```
//!
//! With `--trace 0` it runs the named workload end to end and prints
//! the end-to-end metrics; with `--trace 1` it runs a traced pass of
//! every workload plus the per-layer probes and prints the per-layer
//! metrics and the reconciliation tables. The last line of standard
//! output is the JSON result. `--inject` plants a wrong answer or a
//! refused operation, for the benchmark's self-tests.

#![forbid(unsafe_code)]

mod experiments;
mod layers;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;
mod workloads;

use report::{host_lines, Inject};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Run;

const WORKLOADS: [&str; 3] = ["experiments", "paper-sweep", "serve-mix"];

struct Args {
    workload: String,
    trace: bool,
    run: Run,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut inject = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            "--work-dir" => work = PathBuf::from(value()?),
            "--inject" => {
                inject = Some(match value()?.as_str() {
                    "wrong" => Inject::Wrong,
                    "refuse" => Inject::Refuse,
                    other => {
                        return Err(format!("--inject must be wrong or refuse, got `{other}`"))
                    }
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        trace,
        run: Run {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            work: work.join(format!("{}", std::process::id())),
            inject,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = &args.run;
    let result = if args.trace {
        trace::traced(&args.workload, run)
    } else {
        match args.workload.as_str() {
            "experiments" => workloads::experiments(run),
            "paper-sweep" => workloads::paper_sweep(run),
            _ => workloads::serve_mix(run),
        }
    };
    let _ = std::fs::remove_dir_all(&run.work);
    match result {
        Ok(outcome) => {
            if let Some((name, ..)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
                eprintln!("perfbench: {name} has no finite value (no samples); no result");
                return ExitCode::from(3);
            }
            let mut header = host_lines();
            header.push(format!(
                "workload={} seed={} seconds={} trace={}",
                args.workload,
                run.seed,
                run.seconds,
                u8::from(args.trace)
            ));
            outcome.print(&header);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}
