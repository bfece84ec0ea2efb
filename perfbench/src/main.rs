//! The repository benchmark: four workloads over the serving, integer
//! scoring and design-pipeline layers, each driven through its public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload` is one of `serve_open`, `serve_saturate`, `score_resnet18`,
//! `design_resnet18`, or `all` to run each in turn, each in a process of
//! its own. The workload's inputs are generated from `--seed`. Each run
//! spins every CPU for [`CPU_WARM_UP`], sets up [`SETUP_REPEATS`] times and
//! reports the median set-up time, measures for `--seconds`, checks every
//! output, and prints host facts and then, as its last line, one JSON
//! result: the end-to-end metrics with `--trace 0`, or with `--trace 1` the
//! per-layer metrics of a traced pass that follows an untraced one. A
//! traced run writes its spans to `perfbench/traces/<workload>.csv`. The
//! exit code is non-zero when any output was wrong.

mod design;
mod host;
mod load;
mod report;
mod score;
mod serve;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's error type: any layer's error, boxed.
pub type Error = Box<dyn std::error::Error>;

/// Set-ups per run; the median is reported.
pub const SETUP_REPEATS: usize = 5;

/// How long every CPU spins before the first timed operation.
const CPU_WARM_UP: Duration = Duration::from_millis(300);

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = [
    "serve_open",
    "serve_saturate",
    "score_resnet18",
    "design_resnet18",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (or `all`).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether to add the traced pass.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// Where a traced run of `workload` writes its spans.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}.csv"))
}

/// Writes a traced run's spans and records where, how many, and how many
/// the log had to drop.
pub fn write_trace(args: &Args, tracer: &trace::Tracer, report: &mut Report) {
    let path = trace_path(&args.workload);
    let written = tracer.write_csv(&path);
    report.check("trace written", written.is_ok());
    report.fact_str("trace_file", &path.display().to_string());
    report.fact("trace_spans", tracer.spans().len());
    report.fact("trace_spans_dropped", tracer.dropped());
}

fn run_workload(args: &Args) -> Result<Report, Error> {
    let ticks = host::cpu_ticks();
    host::warm_cpus(CPU_WARM_UP);
    let mut report = match args.workload.as_str() {
        "serve_open" => serve::run(serve::Kind::Open, args)?,
        "serve_saturate" => serve::run(serve::Kind::Saturate, args)?,
        "score_resnet18" => score::run(args)?,
        "design_resnet18" => design::run(args)?,
        other => unreachable!("workload {other} passed validation"),
    };
    // Time the hypervisor gave to other guests: a run with a high share
    // measured a contended machine.
    let steal = host::steal_share(ticks, host::cpu_ticks());
    report.metric("peak_rss_mb", host::peak_rss_mb());
    let mut facts = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", host::nproc().to_string()),
        (
            "simd_backend",
            format!("\"{}\"", bnn_tensor::simd::active_backend().name()),
        ),
        (
            "default_executor_threads",
            bnn_tensor::exec::Executor::global().threads().to_string(),
        ),
        ("fail_ratio", report.fail_ratio().to_string()),
        ("steal_share", steal.to_string()),
    ];
    facts.append(&mut report.facts);
    report.facts = facts;
    Ok(report)
}

/// Human-readable summary on stderr.
fn summarize(args: &Args, report: &Report) {
    eprintln!("perfbench {}: seed {}", args.workload, args.seed);
    for (name, value) in &report.metrics {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u);
        eprintln!("  {name:<20} {value:>14.6} {unit}");
    }
    // The workload's headline figure under the name users know it by.
    for (name, unit) in [
        ("throughput_rps", "1/s"),
        ("samples_per_s", "1/s"),
        ("design_s", "s"),
    ] {
        if let Some((_, value)) = report.facts.iter().find(|(n, _)| *n == name) {
            eprintln!("  {name:<20} {value:>14} {unit}");
        }
    }
    eprintln!(
        "  fail_ratio           {:>14.6} ({} of {} failed)",
        report.fail_ratio(),
        report.failed,
        report.attempted
    );
    for (check, ok) in &report.checks {
        eprintln!("  check {check}: {}", if *ok { "ok" } else { "FAILED" });
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_workload(&args) {
        Ok(report) => {
            summarize(&args, &report);
            println!("{}", report.facts_line());
            let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", report.result_line(catalogue));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a process of its own (so each reports its own
/// peak memory), one after another; fails if any fails.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate its own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_open --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_open".into(),
                seed: 42,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload all --seed")).is_err());
    }
}
