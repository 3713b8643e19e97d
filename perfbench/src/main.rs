//! The repository's benchmark: three workloads timed end to end, and a
//! traced run that attributes their time to the layers (crates) they pass
//! through. See README.md in this directory for the design.
//!
//! ```sh
//! python3 perfbench/run.py --workload search_10k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is non-zero when any output check
//! fails.

mod common;
mod inputs;
mod paper;
mod search;
mod served;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Args, Outcome, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <paper_scores|search_10k|served_2k> \
                     --seed N --seconds S --trace <0|1> --study-exe PATH [--tiny] [--corrupt]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut study_exe = None;
    let mut tiny = false;
    let mut corrupt = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--study-exe" => study_exe = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            "--corrupt" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        study_exe: study_exe.ok_or("--study-exe is required")?,
        tiny,
        corrupt,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_scores" => paper::run(&args),
        "search_10k" => search::run(&args),
        "served_2k" => served::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(outcome) => emit(&args, &outcome),
        Err(e) => {
            // A run that cannot complete prints no result.
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(3)
        }
    }
}

/// Prints the human-readable report, then the JSON result line.
fn emit(args: &Args, outcome: &Outcome) -> ExitCode {
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "perfbench {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::threads()
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    let mut failed = outcome.failed;
    let mut json = Vec::new();
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            // Per-layer metrics of layers the workload never enters.
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            failed += 1;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<30} {value:>16.4} {unit}");
        json.push(format!(
            r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
        ));
    }
    let attempted = outcome.attempted.max(1);
    println!(
        "  {:<30} {:>16.6} ratio   ({failed} of {attempted})",
        "failed_frac",
        failed as f64 / attempted as f64
    );
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        failed == 0,
        json.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
