//! `perf`: the repo's two-clock benchmark. See `perf/README.md`.
//!
//! ```text
//! perf bench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
//! perf run   [--seed <u64>] [--seconds <n>] [--out <dir>]
//! perf trace [--seed <u64>] [--out <dir>]
//! perf check [--seed <u64>] [--seconds <n>] [--out <dir>]
//! ```
//!
//! `bench` measures one workload in this process and prints its result as a
//! JSON object on the last line. The other three run `bench` once per
//! workload, each in a child process, so peak memory is per workload.

mod common;
mod manifest;
mod probes;
mod report;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed `--key value` arguments.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got '{key}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_string(), value.clone());
    }
    let mut take = |name: &str| map.remove(name);
    let seed = match take("seed") {
        None => 42,
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("--seed: '{v}' is not a u64"))?,
    };
    let seconds = match take("seconds") {
        None => manifest::manifest().run_seconds as f64,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("--seconds: '{v}' is not a non-negative number"))?,
    };
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: '{v}' is neither 0 nor 1")),
    };
    let parsed = Args {
        workload: take("workload"),
        seed,
        seconds,
        trace,
        out: take("out").map(PathBuf::from),
    };
    if let Some(unknown) = map.keys().next() {
        return Err(format!("unknown option --{unknown}"));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: perf <bench|run|trace|check> [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "bench" => report::bench(&args),
        "run" => report::run_all(&args, false).map(|_| ()),
        "trace" => report::run_all(&args, true).map(|_| ()),
        "check" => report::check(&args),
        other => {
            eprintln!("perf: unknown command '{other}'");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
