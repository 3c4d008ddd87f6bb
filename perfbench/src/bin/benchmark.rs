//! The benchmark command: one workload, one seed, one run.
//!
//! ```text
//! benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//! ```
//!
//! Report lines go to stdout, and the last line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{NAME:{"value":…,"unit":…}}}`.
//! The daemon executables are looked up next to this one (where
//! `cargo build --release` puts all three); journals and the span file of
//! a traced run go to `perfbench/` beside them. Exits 0 when every reply
//! was correct, 1 when some were not or the run failed, 2 on bad usage.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run, unit_of, RunConfig};
use perfbench::topology::Bins;
use perfbench::workload::{find, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|_| "--seed must be an integer")?
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
                if !(args.seconds.is_finite() && args.seconds >= 1.0) {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{}", usage()));
    }
    Ok(args)
}

/// Directories that may hold the daemons: this executable's, and its
/// parent when it sits in Cargo's `deps/`.
fn exe_dirs() -> Vec<PathBuf> {
    let Ok(exe) = std::env::current_exe() else { return Vec::new() };
    exe.ancestors().skip(1).take(2).map(PathBuf::from).collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = find(&args.workload) else {
        eprintln!("benchmark: unknown workload {:?}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let dirs = exe_dirs();
    let bins = match Bins::locate(&dirs) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return ExitCode::from(1);
        }
    };
    let work = dirs.first().map_or_else(|| PathBuf::from("perfbench"), |d| d.join("perfbench"));
    let cfg = RunConfig::new(args.seed, args.seconds, args.trace, bins, work);
    let outcome = match run(&workload, &cfg) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("benchmark: {} failed: {msg}", workload.name);
            return ExitCode::from(1);
        }
    };
    if let Some((name, v)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("benchmark: metric {name} is not a number ({v})");
        return ExitCode::from(1);
    }
    let correct = outcome.failed == 0 && outcome.verify.sent > 0;
    let mut report = format!("workload {} seed {} ({})\n", workload.name, args.seed, workload.why);
    for note in &outcome.notes {
        report.push_str(note);
        report.push('\n');
    }
    let mut json = Vec::new();
    for (name, value) in &outcome.metrics {
        let unit = unit_of(name);
        report.push_str(&format!("{name} = {value} {unit}\n"));
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    report.push_str(&format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    ));
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_all(report.as_bytes()).and_then(|()| stdout.flush()) {
        // A reader that closed the pipe early (`| head`) is not an error.
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("benchmark: cannot write the report: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
