//! Layered end-to-end benchmark for union-of-joins sampling.
//!
//! ```text
//! perfbench --workload <uq1_bulk|uq2_serve|triangle_union> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --check-known-failures
//! ```
//!
//! `--trace 0` drives the workload through the public API untraced and
//! prints the end-to-end metrics; `--trace 1` replays the workload's
//! request stream layer by layer with spans and prints the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Every response is checked (see `checks`); a request that
//! errors or fails a check counts as failed.

mod checks;
mod e2e;
mod inputs;
mod known;
mod setup;
mod stats;
mod traced;

use checks::Checker;
use setup::Workload;
use std::fmt::Write as _;
use std::process::ExitCode;

/// What one run prints: report lines, metrics, and the checks behind
/// `correct` / `attempted` / `failed`.
pub struct Outcome {
    pub workload: Workload,
    seed: u64,
    lines: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    pub checker: Option<Checker>,
}

impl Outcome {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            seed,
            lines: Vec::new(),
            metrics: Vec::new(),
            checker: None,
        }
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records a metric for the JSON result; it is also printed by name
    /// and unit.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.figure(name, value, unit);
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Prints a figure by name and unit without adding it to the JSON
    /// result.
    pub fn figure(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("{name}={value} {unit}"));
    }

    fn print(&self, trace: bool) -> Result<(), String> {
        let checker = self.checker.as_ref().ok_or("run recorded no checks")?;
        let tag = format!(
            "[{} seed={} trace={}]",
            self.workload.name(),
            self.seed,
            u8::from(trace)
        );
        for line in &self.lines {
            println!("{tag} {line}");
        }
        let mut json = String::from("{\"metrics\": {");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = write!(
            json,
            "}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
            checker.incorrect == 0,
            checker.attempted,
            checker.failed
        );
        println!("{json}");
        Ok(())
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1e3)
}

/// `nproc`, CPU model, `rustc -V`, git commit, and build profile.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    format!(
        "machine: nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={} profile={}",
        git_commit(),
        env!("PERFBENCH_PROFILE")
    )
}

/// The checked-out commit, read from `.git` when the benchmark runs
/// inside a git work tree.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git work tree)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_known: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check_known: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check-known-failures" {
            args.check_known = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 || !args.seconds.is_finite() {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    println!("{}", fingerprint());
    if args.check_known {
        return known::check();
    }
    let workload = args.workload.ok_or(
        "usage: perfbench --workload <uq1_bulk|uq2_serve|triangle_union> --seed <n> --seconds <s> --trace <0|1>",
    )?;
    let outcome = if args.trace {
        traced::run(workload, args.seed, args.seconds)?
    } else {
        e2e::run(workload, args.seed, args.seconds)?
    };
    outcome.print(args.trace)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
