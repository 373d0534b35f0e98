//! The selfheal benchmark: four workloads timed end to end, and in a
//! separate traced run layer by layer, entirely from outside the program
//! (calls to public functions, and the spans the program already emits).
//!
//! ```text
//! perfbench --workload storm_mixed|restart|paper
//!           --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The last line of stdout is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--smoke` runs the same workloads and checks on a 2k-chip fleet
//! in seconds. See `perfbench/README.md`.

mod paper;
mod probes;
mod restart;
mod storm;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use util::{Ctx, Outcome};

/// Hard cap on one run; a wedged server must not hang the benchmark.
const WATCHDOG: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: perfbench --workload storm_mixed|restart|paper \
                     --seed N --seconds S --trace 0|1 [--smoke]";

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
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
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let seconds = seconds.ok_or(USAGE)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // Scratch space lives in the working directory: the benchmark reads
    // and writes nowhere else.
    let scratch = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        ctx: Ctx {
            seed: seed.ok_or(USAGE)?,
            seconds,
            trace: trace.ok_or(USAGE)?,
            smoke,
            scratch,
        },
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "storm_mixed" => storm::run(&args.ctx),
        "restart" => restart::run(&args.ctx),
        "paper" => paper::run(&args.ctx),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let scratch = args.ctx.scratch.clone();
    let watchdog_scratch = scratch.clone();
    // Left detached on purpose: it either ends the process or ends with it.
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {} s, aborting", WATCHDOG.as_secs());
        let _ = std::fs::remove_dir_all(&watchdog_scratch);
        std::process::exit(3);
    });
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            println!("{}", outcome.render());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
