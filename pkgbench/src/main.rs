//! The pkgrec benchmark.
//!
//! ```text
//! pkgbench --workload <engine-resident|spill-replay|wire-durable>
//!          --seed <n> --seconds <cap> --trace <0|1> [--out <dir>]
//! ```
//!
//! Builds the workload's inputs from the seed, sets the system up (nine
//! times; the median is `setup_s`), drives a fixed amount of closed-loop
//! work for at most `--seconds`, then checks every answer and prints one
//! JSON object as the last line of standard output:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones.  The line before it holds the run's details: sample counts, the
//! exact counter block, the result digest and every check's outcome.
//! Stores and span dumps go under `--out` (default `.pkgbench`).  See `pkgbench/README.md` for the workloads and metrics.

mod check;
mod drive;
mod fleet;
mod host;
mod layers;
mod run;
mod stats;
mod system;
mod trace;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use std::process::ExitCode;

use fleet::Workload;
use run::{Options, Outcome};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".pkgbench");
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

/// A finite number as JSON (non-finite values would not parse).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn print(outcome: &Outcome) {
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(key, value)| format!("\"{key}\":{value}"))
        .collect();
    println!("{{\"detail\":{{{}}}}}", detail.join(","));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("pkgbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&options.out) {
        eprintln!("pkgbench: create {}: {e}", options.out.display());
        return ExitCode::FAILURE;
    }
    let outcome = if options.trace {
        run::traced(&options)
    } else {
        run::end_to_end(&options)
    };
    match outcome {
        Ok(outcome) => {
            print(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pkgbench: {} run failed: {e}", options.workload.name());
            ExitCode::FAILURE
        }
    }
}
