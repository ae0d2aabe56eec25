//! The commands: what they print, what they write, when they fail.

use crate::common::{host_threads, metric, Metric, Params, Size};
use crate::manifest::{manifest, EXACT_REL_TOL};
use crate::spans::self_time_by_layer;
use crate::stats::{median, rel_diff};
use crate::{probes, workload, Args};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where `run`, `trace` and `check` write when `--out` is not given.
const DEFAULT_OUT: &str = "perf/out";

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect(),
    )
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

/// The names a run must report, against the names it did.
fn check_names<'a>(
    what: &str,
    expected: impl Iterator<Item = (&'a str, &'a str)>,
    got: &[Metric],
) -> Result<(), String> {
    let expected: Vec<(&str, &str)> = expected.collect();
    for (name, unit) in &expected {
        match got.iter().find(|m| m.name == *name) {
            None => return Err(format!("{what} metric '{name}' was not measured")),
            Some(m) if m.unit != *unit => {
                return Err(format!(
                    "{what} metric '{name}' has unit '{}', not '{unit}'",
                    m.unit
                ))
            }
            Some(m) if !m.value.is_finite() => {
                return Err(format!("{what} metric '{name}' is not a finite number"))
            }
            Some(_) => {}
        }
    }
    match got
        .iter()
        .find(|m| !expected.iter().any(|(n, _)| *n == m.name))
    {
        Some(extra) => Err(format!(
            "{what} metric '{}' is not in the manifest",
            extra.name
        )),
        None => Ok(()),
    }
}

fn write_json(dir: &Path, file: &str, value: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    let text = serde_json::to_string_pretty(value).expect("JSON renders");
    std::fs::write(&path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The last line of `bench`: the contract between the benchmark and whoever
/// drives it.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json(metrics),
    });
    println!("{}", serde_json::to_string(&line).expect("JSON renders"));
}

/// `perf bench`: one workload, in this process.
pub fn bench(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("bench needs --workload")?;
    let known = &manifest().workloads;
    if !known.iter().any(|w| w == name) {
        return Err(format!(
            "unknown workload '{name}' (one of: {})",
            known.join(", ")
        ));
    }
    if args.trace {
        bench_traced(name, args)
    } else {
        bench_untraced(name, args)
    }
}

fn bench_untraced(name: &str, args: &Args) -> Result<(), String> {
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        size: Size::Full,
    };
    let outcome = workload::run(name, &p)?;
    for note in &outcome.notes {
        println!("# {name}: {note}");
    }
    println!(
        "# {name}: seed {}, {} timed passes, {} operations attempted, {} failed, {} shed, \
         host threads {}, set-up repeated {} times",
        args.seed,
        outcome.pass_host_s.len(),
        outcome.attempted,
        outcome.failed,
        outcome.shed,
        host_threads(),
        crate::common::SETUP_REPS,
    );
    print_metrics(name, &outcome.end_to_end);
    print_metrics(name, &outcome.layer);
    println!(
        "{name} sim_fingerprint {:016x} hash",
        outcome.sim_fingerprint
    );
    for error in &outcome.errors {
        println!("# {name}: ERROR {error}");
    }
    if let Some(dir) = &args.out {
        let doc = json!({
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "correct": outcome.correct(),
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "shed": outcome.shed,
            "pass_host_s": outcome.pass_host_s.clone(),
            "sim_fingerprint": format!("{:016x}", outcome.sim_fingerprint),
            "end_to_end": metrics_json(&outcome.end_to_end),
            "layer": metrics_json(&outcome.layer),
            "notes": outcome.notes.clone(),
        });
        write_json(dir, &format!("{name}.json"), &doc)?;
    }
    check_names(
        "end-to-end",
        manifest()
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str())),
        &outcome.end_to_end,
    )?;
    print_result(
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        &outcome.end_to_end,
    );
    if outcome.correct() {
        Ok(())
    } else {
        Err(format!("{name}: output checks failed"))
    }
}

fn bench_traced(name: &str, args: &Args) -> Result<(), String> {
    let p = Params {
        seed: args.seed,
        seconds: 0.0,
        size: Size::Traced,
    };
    let traced = workload::traced(name, &p)?;
    let overhead = traced.on_s / traced.off_s - 1.0;
    println!(
        "# {name}: traced run, seed {}: {:.4} s per pass with spans off, {:.4} s with spans on, \
         {} spans recorded",
        args.seed,
        traced.off_s,
        traced.on_s,
        traced.tracer.spans().len()
    );
    let by_layer = self_time_by_layer(traced.tracer.spans());
    for (layer, ns) in &by_layer {
        println!("{name} trace.self_time.{layer} {} ms", *ns as f64 / 1e6);
    }
    let mut layer = probes::run_all(args.seed)?;
    layer.push(metric("perf.trace_overhead_frac", overhead, "ratio"));
    print_metrics(name, &layer);
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{name}.jsonl"));
        traced
            .tracer
            .write_jsonl(&path, name)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let doc = json!({
            "workload": name,
            "seed": args.seed,
            "correct": traced.failed == 0,
            "untraced_pass_s": traced.off_s,
            "traced_pass_s": traced.on_s,
            "self_time_ms_by_layer": Value::Object(
                by_layer
                    .iter()
                    .map(|(layer, ns)| (layer.to_string(), json!(*ns as f64 / 1e6)))
                    .collect(),
            ),
            "per_layer": metrics_json(&layer),
        });
        write_json(dir, &format!("{name}.trace.json"), &doc)?;
    }
    check_names(
        "per-layer",
        manifest()
            .per_layer
            .iter()
            .map(|(name, unit)| (name.as_str(), unit.as_str())),
        &layer,
    )?;
    print_result(traced.failed == 0, traced.attempted, traced.failed, &layer);
    if traced.failed == 0 {
        Ok(())
    } else {
        Err(format!("{name}: output checks failed in the traced run"))
    }
}

/// One set of runs: per workload, the document its child process wrote.
pub type RunSet = Vec<(String, Value)>;

fn machine_note() -> Value {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        "host_threads": host_threads() as u64,
        "rustc": rustc,
    })
}

/// `perf run` and `perf trace`.
pub fn run_all(args: &Args, trace: bool) -> Result<RunSet, String> {
    let dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut set = RunSet::new();
    let mut failures: Vec<&str> = Vec::new();
    for name in &manifest().workloads {
        let file = dir.join(if trace {
            format!("{name}.trace.json")
        } else {
            format!("{name}.json")
        });
        // A child that dies early must not leave an earlier run's document
        // to be read in its place.
        let _ = std::fs::remove_file(&file);
        let status = Command::new(&exe)
            .arg("bench")
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&dir)
            .status()
            .map_err(|e| format!("starting {name}: {e}"))?;
        if !status.success() {
            failures.push(name);
        }
        match std::fs::read_to_string(&file) {
            Ok(text) => {
                let doc: Value = serde_json::from_str(&text)
                    .map_err(|e| format!("parsing {}: {e}", file.display()))?;
                set.push((name.to_string(), doc));
            }
            Err(e) => {
                eprintln!("perf: reading {}: {e}", file.display());
                if !failures.contains(&name.as_str()) {
                    failures.push(name);
                }
            }
        }
    }
    let mut summary = vec![
        (
            "kind".to_string(),
            json!(if trace { "traced" } else { "untraced" }),
        ),
        ("seed".to_string(), json!(args.seed)),
        ("machine".to_string(), machine_note()),
    ];
    if trace {
        // The probes do not depend on the workload, so the five traced runs
        // are five samples of every per-layer metric: keep their median, and
        // per workload only what is its own.
        let per_workload = |key: &str| {
            Value::Object(
                set.iter()
                    .map(|(name, doc)| (name.clone(), doc[key].clone()))
                    .collect(),
            )
        };
        let per_layer = manifest()
            .per_layer
            .iter()
            .filter(|(name, _)| name != "perf.trace_overhead_frac")
            .filter_map(|(name, unit)| {
                let samples: Vec<f64> = set
                    .iter()
                    .filter_map(|(_, doc)| doc["per_layer"][name.as_str()]["value"].as_f64())
                    .collect();
                (!samples.is_empty()).then(|| {
                    (
                        name.clone(),
                        json!({"value": median(&samples), "unit": unit.as_str()}),
                    )
                })
            })
            .collect();
        summary.push(("per_layer_median".to_string(), Value::Object(per_layer)));
        summary.push((
            "trace_overhead_frac".to_string(),
            Value::Object(
                set.iter()
                    .map(|(name, doc)| {
                        let overhead = &doc["per_layer"]["perf.trace_overhead_frac"]["value"];
                        (name.clone(), overhead.clone())
                    })
                    .collect(),
            ),
        ));
        summary.push((
            "self_time_ms_by_layer".to_string(),
            per_workload("self_time_ms_by_layer"),
        ));
    } else {
        summary.push(("seconds".to_string(), json!(args.seconds)));
        summary.push(("workloads".to_string(), Value::Object(set.clone())));
    }
    write_json(
        &dir,
        if trace { "trace.json" } else { "run.json" },
        &Value::Object(summary),
    )?;
    if failures.is_empty() {
        Ok(set)
    } else {
        Err(format!("failed: {}", failures.join(", ")))
    }
}

/// `perf check`: two untraced sets back to back, compared metric by metric.
pub fn check(args: &Args) -> Result<(), String> {
    let dir = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    let sets: Vec<RunSet> = ["check-a", "check-b"]
        .iter()
        .map(|sub| {
            run_all(
                &Args {
                    workload: None,
                    seed: args.seed,
                    seconds: args.seconds,
                    trace: false,
                    out: Some(dir.join(sub)),
                },
                false,
            )
        })
        .collect::<Result<_, _>>()?;
    let (a, b) = (&sets[0], &sets[1]);
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>10} {:>8}  verdict",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    let mut bad = 0;
    for ((name, first), (_, second)) in a.iter().zip(b) {
        for m in &manifest().end_to_end {
            let value = |doc: &Value| doc["end_to_end"][m.name.as_str()]["value"].as_f64();
            let (Some(x), Some(y)) = (value(first), value(second)) else {
                return Err(format!("{name}: {} missing from a set", m.name));
            };
            let diff = rel_diff(x, y);
            let (limit, label) = if m.exact() {
                (EXACT_REL_TOL, "exact".to_string())
            } else {
                (m.bound, format!("{:.2}", m.bound))
            };
            let ok = diff <= limit;
            bad += usize::from(!ok);
            println!(
                "{name:<14} {:<24} {x:>16.6e} {y:>16.6e} {diff:>10.2e} {label:>8}  {}",
                m.name,
                if ok { "ok" } else { "DIFFERS" }
            );
        }
        let fp = |doc: &Value| doc["sim_fingerprint"].as_str().unwrap_or("?").to_string();
        let same = fp(first) == fp(second);
        bad += usize::from(!same);
        println!(
            "{name:<14} {:<24} {:>16} {:>16} {:>10} {:>8}  {}",
            "sim_fingerprint",
            fp(first),
            fp(second),
            "",
            "exact",
            if same { "ok" } else { "DIFFERS" }
        );
    }
    if bad == 0 {
        println!("check: the two sets agree within every bound");
        Ok(())
    } else {
        Err(format!("check: {bad} comparisons outside their bound"))
    }
}
