//! The benchmark's contract, read from `BENCHMARK.json` at the repo root:
//! workloads, metric names, units, directions, bounds. The file is compiled
//! in, so the program and the manifest cannot disagree.

use serde_json::Value;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Two values of a deterministic simulated statistic are the same when they
/// differ by no more than this, relatively: the rounding of a running f64
/// clock.
pub const EXACT_REL_TOL: f64 = 1e-9;

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

impl EndToEnd {
    /// Metrics on the simulated clock (units `sim_*`) and the share of
    /// correct operations are deterministic: two runs of one commit at one
    /// seed must agree on them exactly, whatever the bound says.
    pub fn exact(&self) -> bool {
        self.unit.starts_with("sim_") || self.name == "ok_frac"
    }
}

pub struct Manifest {
    /// Seconds one run measures for (`--seconds` when not given).
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    /// (name, unit) of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let text = |v: &Value, key: &str| {
            v[key]
                .as_str()
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string '{key}'"))
                .to_string()
        };
        let list = |key: &str| {
            doc[key]
                .as_array()
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing list '{key}'"))
        };
        Manifest {
            run_seconds: doc["run_seconds"]
                .as_u64()
                .expect("BENCHMARK.json: run_seconds"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| EndToEnd {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    bound: m["bound"].as_f64().expect("BENCHMARK.json: bound"),
                })
                .collect(),
            per_layer: list("per_layer")
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits a driver of this benchmark puts on `BENCHMARK.json`.
    #[test]
    fn benchmark_json_is_within_the_contract() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let Value::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let m = manifest();
        assert!((1..=60).contains(&m.run_seconds));
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        for w in doc["workloads"].as_array().unwrap() {
            let why = w["why"].as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let mut names: Vec<&str> = m
            .workloads
            .iter()
            .chain(m.end_to_end.iter().map(|e| &e.name))
            .chain(m.per_layer.iter().map(|(n, _)| n))
            .map(String::as_str)
            .collect();
        assert!(names.iter().all(|n| legal_name(n)));
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a name is used twice"
        );
        for e in &m.end_to_end {
            assert!(legal_unit(&e.unit), "{}", e.unit);
            assert!(
                e.bound > 0.0 && e.bound <= 0.25,
                "{}: bound {}",
                e.name,
                e.bound
            );
        }
        assert!(m.per_layer.iter().all(|(_, u)| legal_unit(u)));
        for list in ["end_to_end", "per_layer"] {
            for metric in doc[list].as_array().unwrap() {
                let better = metric["better"].as_str().unwrap();
                assert!(better == "higher" || better == "lower");
            }
        }
        let setup = doc["end_to_end"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["name"] == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup["unit"], "s");
        assert_eq!(setup["better"], "lower");
        let command = doc["command"].as_array().unwrap();
        assert!(command.len() <= 32);
        assert_eq!(doc["paths"].as_array().unwrap().len(), 1);
        assert_eq!(doc["paths"].as_array().unwrap()[0], "perf");
    }
}
