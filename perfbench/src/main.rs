//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric with its unit and direction, then, as the last line
//! of standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--workload all` runs every workload in its own process.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::{Config, Scale, END_TO_END, WORKLOADS};

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v: f64| seconds = v)
                .is_ok_and(|()| seconds.is_finite() && seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    if workload == "all" {
        return run_all(&args);
    }
    let cfg = Config {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        scale: Scale::Full,
    };
    println!("# {}", perfbench::provenance(seed));
    if let Some((name, why)) = WORKLOADS.iter().find(|w| w.0 == cfg.workload) {
        println!("# workload {name}: {why}");
    }
    let report = match perfbench::run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for e in report.errors.iter().take(10) {
        println!("# FAILED: {e}");
    }
    for m in &report.metrics {
        let better = END_TO_END
            .iter()
            .find(|e| e.0 == m.name)
            .map_or(String::new(), |e| format!(" ({} is better)", e.2));
        println!("{} = {} {}{better}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// Runs every workload in a child process (so each reports its own peak
/// memory), passing the other flags through, and waits for each.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for (name, _) in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let (Some(flag), Some(value)) = (it.next(), it.next()) {
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                name.to_string()
            } else {
                value.clone()
            });
        }
        println!("## {name}");
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name} exited with {status}");
                all_ok = false;
            }
            Err(e) => {
                eprintln!("{name} did not start: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
