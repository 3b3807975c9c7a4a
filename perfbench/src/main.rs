//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig10_1m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one named workload whose inputs derive from `--seed`, for about
//! `--seconds`, checks every answer, and prints its metrics: the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` measures the end-to-end metrics with
//! nothing traced; `--trace 1` runs the same operations again with every
//! layer call timed from outside and reports the per-layer metrics. See
//! `perfbench/README.md`.

mod layers;
mod library;
mod lineitem;
mod ops;
mod report;
mod serve_mix;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{Args, Report};

const USAGE: &str = "usage: perfbench --workload fig10_1m|skew_100k|serve_mix --seed N \
                     --seconds S --trace 0|1 [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
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
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--out" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "fig10_1m" => library::run(&library::FIG10_1M, &args),
        "skew_100k" => library::run(&library::SKEW_100K, &args),
        "serve_mix" => serve_mix::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(spans) = &report.trace_jsonl {
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    report.print(&args);
    // Any failed operation fails the run, wrong answer or not, so a refused
    // or dropped request cannot hide inside `success_frac`.
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
