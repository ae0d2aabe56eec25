//! Validators for the artifact directory, fed by one observed scale-14
//! session over the whole registry: what `bench all --scale 14 --reps 1
//! --observe --out DIR` writes must parse, be internally consistent, and
//! carry the headline results the serving and SQL experiments exist to
//! show. (These were inline python/jq checks in `scripts/check.sh`.)

use bench::exp::REGISTRY;
use bench::{Config, Session};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The artifact directory of the shared observed session.
fn observed() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("artifacts");
        let _ = std::fs::remove_dir_all(&out);
        let mut session = Session::new(Config {
            scale_log2: 14,
            reps: 1,
            out: Some(out.clone()),
            observe: true,
            ..Config::default()
        });
        for exp in REGISTRY {
            session.run(exp);
        }
        session.finish().expect("artifact directory is writable");
        out
    })
}

fn text(file: &str) -> String {
    let data =
        std::fs::read_to_string(observed().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert!(!data.is_empty(), "{file} is empty");
    data
}

fn json(file: &str) -> Value {
    serde_json::from_str(&text(file)).unwrap_or_else(|e| panic!("{file}: {e:?}"))
}

fn array<'a>(v: &'a Value, what: &str) -> &'a [Value] {
    v.as_array()
        .unwrap_or_else(|| panic!("{what} is not an array"))
}

fn findings(experiment: &str) -> Vec<String> {
    array(&json(&format!("{experiment}.json"))["findings"], "findings")
        .iter()
        .map(|f| f.as_str().expect("finding is a string").to_string())
        .collect()
}

fn assert_finding(experiment: &str, needle: &str) {
    let found = findings(experiment);
    assert!(
        found.iter().any(|f| f.contains(needle)),
        "{experiment}: no finding mentions '{needle}' in {found:#?}"
    );
}

/// Counter totals keyed by `(name, sorted labels)`, for one device or
/// summed over all of them.
type Totals = BTreeMap<(String, Vec<(String, String)>), u64>;

fn add_counters(device: &Value, into: &mut Totals) {
    for c in array(&device["counters"], "counters") {
        let mut labels: Vec<(String, String)> = match &c["labels"] {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().expect("label value").to_string()))
                .collect(),
            _ => Vec::new(),
        };
        labels.sort();
        let name = c["name"].as_str().expect("counter name").to_string();
        *into.entry((name, labels)).or_default() += c["value"].as_u64().expect("counter value");
    }
}

fn total(totals: &Totals, name: &str, class: Option<&str>) -> u64 {
    let labels = class.map_or(Vec::new(), |c| vec![("class".to_string(), c.to_string())]);
    totals
        .get(&(name.to_string(), labels))
        .copied()
        .unwrap_or(0)
}

#[test]
fn every_experiment_writes_a_report_with_rows_and_the_run_a_summary() {
    for exp in REGISTRY {
        let report = json(&format!("{}.json", exp.name));
        assert_eq!(report["experiment"], exp.name);
        assert!(
            !array(&report["rows"], "rows").is_empty(),
            "{}: no rows",
            exp.name
        );
    }
    let summary = text("summary.md");
    for exp in REGISTRY {
        assert!(
            summary.contains(&format!("\n| {}.", exp.name)),
            "summary.md has no claim row for {}",
            exp.name
        );
    }
    let rows = summary.lines().filter(|l| l.starts_with("| ")).count();
    let claims = array(&json("fidelity.json"), "fidelity.json").len();
    assert_eq!(
        rows,
        1 + claims,
        "summary.md: a header plus one row per claim"
    );
}

/// The paper's join artifacts: Figures 1 and 7-18, Tables 1-2, 4 and 5.
const JOIN_ARTIFACTS: [&str; 16] = [
    "fig01", "table04", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "table05", "fig16", "fig17", "fig18", "table12",
];

#[test]
fn fidelity_records_one_claim_per_finding_and_a_band_for_every_join_artifact() {
    let doc = json("fidelity.json");
    let claims = array(&doc, "fidelity.json");
    let mut ids: Vec<&str> = Vec::new();
    let mut at = 0;
    for exp in REGISTRY {
        for sentence in findings(exp.name) {
            let claim = claims
                .get(at)
                .unwrap_or_else(|| panic!("{}: no claim for '{sentence}'", exp.name));
            at += 1;
            let id = claim["id"].as_str().expect("claim id is text");
            assert!(
                id.strip_prefix(exp.name)
                    .is_some_and(|name| name.len() > 1 && name.starts_with('.')),
                "{id}: not prefixed by {}",
                exp.name
            );
            assert_eq!(claim["sentence"].as_str(), Some(sentence.as_str()), "{id}");
            assert!(
                claim["measured"].is_null() || claim["measured"].as_f64().is_some(),
                "{id}: measured is not a number"
            );
            let band = claim["band"].as_array();
            assert_eq!(
                band.is_some(),
                claim["holds"].as_bool().is_some(),
                "{id}: holds must be present exactly when band is"
            );
            assert!(
                band.is_none_or(|b| b.len() == 2),
                "{id}: band is not a pair"
            );
            ids.push(id);
        }
    }
    assert_eq!(
        at,
        claims.len(),
        "fidelity.json has claims beyond the findings"
    );
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate claim ids in {ids:?}");

    for experiment in JOIN_ARTIFACTS {
        assert!(
            claims.iter().any(|c| {
                c["id"]
                    .as_str()
                    .is_some_and(|id| id.starts_with(&format!("{experiment}.")))
                    && c["paper"].as_f64().is_some()
                    && c["band"].as_array().is_some()
            }),
            "{experiment}: no claim carries a paper value and a band"
        );
    }
}

/// The checked-in artifact directories agree with themselves: each
/// report's `findings` are, in order, the `sentence`s of that experiment's
/// claims in the same directory's `fidelity.json`. A claim whose id the
/// gate treats as wall clock (it contains `cpu`) is matched by position
/// only: its sentence quotes a host measurement.
#[test]
fn checked_in_findings_match_their_fidelity_claims() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for dir in ["results", "results/smoke14"] {
        let read = |file: &str| -> Value {
            let path = root.join(dir).join(file);
            let data = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            serde_json::from_str(&data).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
        };
        let fidelity = read("fidelity.json");
        let claims = array(&fidelity, "fidelity.json");
        for exp in REGISTRY {
            let report = read(&format!("{}.json", exp.name));
            let found: Vec<&str> = array(&report["findings"], "findings")
                .iter()
                .map(|f| f.as_str().expect("finding is a string"))
                .collect();
            let own: Vec<(&str, &str)> = claims
                .iter()
                .map(|c| {
                    let id = c["id"].as_str().expect("claim id is text");
                    let sentence = c["sentence"].as_str().expect("claim sentence is text");
                    (id, sentence)
                })
                .filter(|(id, _)| {
                    id.strip_prefix(exp.name)
                        .is_some_and(|rest| rest.starts_with('.'))
                })
                .collect();
            assert_eq!(
                found.len(),
                own.len(),
                "{dir}/{}.json: {} findings but {} claims",
                exp.name,
                found.len(),
                own.len()
            );
            for (finding, (id, sentence)) in found.iter().zip(&own) {
                if !id.contains("cpu") {
                    assert_eq!(finding, sentence, "{dir}: {id}");
                }
            }
        }
    }
}

#[test]
fn trace_exports_are_valid_and_non_empty() {
    let events = json("trace.json");
    assert!(!array(&events["traceEvents"], "traceEvents").is_empty());
    for line in text("trace.jsonl").lines() {
        let _: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
    }
}

#[test]
fn explain_export_records_queries_their_trees_and_the_kernel_analysis() {
    let doc = json("explain.json");
    assert!(
        !array(&doc["kernels"], "kernels").is_empty(),
        "no kernel analysis"
    );
    let tree_of = |query: &str| -> String {
        array(&doc["queries"], "queries")
            .iter()
            .find(|q| q["query"] == query)
            .unwrap_or_else(|| panic!("explain.json records no '{query}'"))["tree"]
            .as_str()
            .expect("tree is text")
            .to_string()
    };
    // Both built-in SQL queries, each with a rendered plan tree.
    assert!(!tree_of("q_tpch Q3").trim().is_empty());
    assert!(!tree_of("q_tpch Q18").trim().is_empty());
    // The cache-hit EXPLAIN carries its provenance line.
    let hit = tree_of("m03 q18 (plan cache hit)");
    assert!(hit.contains("plan cache: hit"), "{hit}");
}

#[test]
fn fusion_launches_fewer_kernels_at_every_selectivity() {
    let report = json("ablation_fusion.json");
    for row in array(&report["rows"], "rows") {
        let (fused, unfused) = (
            row["fused_launches"].as_u64().expect("fused_launches"),
            row["unfused_launches"].as_u64().expect("unfused_launches"),
        );
        assert!(fused < unfused, "fusion does not pay for itself: {row:?}");
    }
}

#[test]
fn metrics_json_series_are_time_sorted_and_cumulative() {
    let doc = json("metrics.json");
    let devices = array(&doc["devices"], "devices");
    assert!(!devices.is_empty(), "metrics.json records no devices");
    let non_decreasing = |xs: &[f64]| xs.windows(2).all(|w| w[0] <= w[1]);
    let mut serving = 0;
    for dev in devices {
        for h in array(&dev["histograms"], "histograms") {
            let in_buckets: u64 = array(&h["buckets"], "buckets")
                .iter()
                .map(|b| b["count"].as_u64().expect("bucket count"))
                .sum();
            assert_eq!(
                Some(in_buckets),
                h["count"].as_u64(),
                "{}: bucket counts != count",
                h["name"].as_str().unwrap_or("?")
            );
        }
        // `Device::reset_stats` (the microbenchmarks call it between
        // measurements) rewinds the clock and zeroes the counters by design;
        // the ordering contract is for devices that served queries.
        if array(&dev["queries"], "queries").is_empty() {
            continue;
        }
        serving += 1;
        for s in array(&dev["series"], "series") {
            let name = s["name"].as_str().expect("series name");
            let points = array(&s["points"], "points");
            let column = |i: usize| -> Vec<f64> {
                points
                    .iter()
                    .map(|p| array(p, "point")[i].as_f64().expect("number"))
                    .collect()
            };
            assert!(non_decreasing(&column(0)), "{name}: unsorted timestamps");
            if name.ends_with("_total") {
                assert!(
                    non_decreasing(&column(1)),
                    "{name}: cumulative series decreased"
                );
            }
        }
    }
    assert!(serving > 0, "no device served queries");
}

#[test]
fn openmetrics_export_is_terminated_numeric_and_cumulative() {
    let om = text("metrics.om");
    assert!(
        om.ends_with("# EOF\n"),
        "OpenMetrics export must end with # EOF"
    );
    // labelset (everything before `,le=`) -> bucket values in file order
    let mut buckets: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut samples = 0;
    for line in om.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{line}: not a number"));
        samples += 1;
        if series.contains("_bucket{") {
            let labelset = series.split(",le=").next().expect("split yields one item");
            buckets.entry(labelset).or_default().push(value);
        }
    }
    assert!(samples > 0, "OpenMetrics export has no samples");
    assert!(!buckets.is_empty(), "no histogram bucket samples");
    for (labelset, values) in buckets {
        assert!(
            values.windows(2).all(|w| w[0] <= w[1]),
            "{labelset}: non-cumulative bucket counts"
        );
    }
}

#[test]
fn m03_admission_and_plan_cache_counters_are_exact() {
    let mut totals = Totals::new();
    for dev in array(&json("metrics.json")["devices"], "devices") {
        add_counters(dev, &mut totals);
    }
    // The `burst` and `doomed` classes and the plan cache are m03's alone.
    assert_eq!(total(&totals, "query_shed_total", Some("burst")), 7);
    assert_eq!(total(&totals, "query_rejected_total", Some("doomed")), 2);
    assert_eq!(total(&totals, "query_completed_total", Some("burst")), 3);
    assert_eq!(
        (
            total(&totals, "plan_cache_hits_total", None),
            total(&totals, "plan_cache_misses_total", None),
            total(&totals, "plan_cache_evictions_total", None),
        ),
        (9, 15, 10)
    );
}

#[test]
fn slo_counters_account_every_completed_query_per_class() {
    let mut checked = 0;
    for dev in array(&json("metrics.json")["devices"], "devices") {
        let mut totals = Totals::new();
        add_counters(dev, &mut totals);
        for ((name, labels), met) in &totals {
            if name != "slo_met_total" {
                continue;
            }
            let of = |n: &str| totals.get(&(n.to_string(), labels.clone())).copied();
            let missed = of("slo_missed_total").unwrap_or(0);
            let completed = of("query_completed_total").unwrap_or(0);
            assert_eq!(met + missed, completed, "{labels:?}");
            checked += 1;
        }
    }
    assert!(
        checked > 0,
        "metrics.json carries no per-class SLO counters"
    );
}

#[test]
fn digest_attributions_partition_latency_and_saturation_blames_the_queue() {
    const STAGES: [(&str, &str); 4] = [
        ("queue", "queue_ns"),
        ("planning", "planning_ns"),
        ("exec", "exec_ns"),
        ("interference", "interference_ns"),
    ];
    let doc = json("digest.json");
    let sections = array(&doc["sections"], "sections");
    assert!(!sections.is_empty(), "digest.json records no sections");
    let mut slow_total = 0;
    for sec in sections {
        let label = sec["label"].as_str().expect("section label");
        let digest = &sec["digest"];
        assert!(
            digest["queries"].as_u64() > Some(0),
            "{label}: no completed queries"
        );
        for r in array(&digest["slow"], "slow") {
            let part = |field: &str| r["attribution"][field].as_u64().expect("stage ns");
            let parts = STAGES.map(|(_, field)| part(field));
            assert_eq!(
                Some(parts.iter().sum::<u64>()),
                r["latency_ns"].as_u64(),
                "{label} q{:?}: attribution does not sum to latency",
                r["query"]
            );
            let dominant = r["dominant_stage"].as_str().expect("dominant stage");
            let (_, field) = STAGES
                .iter()
                .find(|(stage, _)| *stage == dominant)
                .unwrap_or_else(|| panic!("{label}: unknown stage '{dominant}'"));
            assert_eq!(
                Some(part(field)),
                parts.iter().copied().max(),
                "{label} q{:?}: dominant stage {dominant} is not the attribution max",
                r["query"]
            );
            slow_total += 1;
        }
    }
    assert!(slow_total > 0, "no slow queries across the whole sweep");

    let saturated = sections
        .iter()
        .find(|s| s["label"] == "m04_slo rho=1.50")
        .expect("m04's saturated step is recorded");
    assert_eq!(
        saturated["digest"]["slow"]
            .as_array()
            .and_then(|slow| slow.first())
            .map(|worst| &worst["dominant_stage"]),
        Some(&Value::String("queue".to_string())),
        "saturated step must pin the worst miss on the queue"
    );
    assert!(text("digest.txt").contains("== m04_slo rho=1.50 =="));
}

#[test]
fn headline_findings_are_reported() {
    assert_finding("m01_multi_query", "budgets hold");
    assert_finding("m03_admission", "=> capacity ~");
    assert_finding("m02_serving", "saturates at the calibrated capacity");
    assert_finding("m03_admission", "SJF cuts the short class's p99");
    assert_finding("m03_admission", "rejects both doomed arrivals");
    assert_finding("m03_admission", "plan cache sized for the mix");
    assert_finding(
        "m04_slo",
        "attribution flips execute->queue across capacity",
    );

    // Q3's composite-key lowering decisions, as q_tpch prints them.
    let q_tpch = json("q_tpch.json");
    let q3 = array(&q_tpch["rows"], "rows")
        .iter()
        .find(|r| r["query"] == "Q3")
        .expect("q_tpch ran Q3");
    let notes: Vec<&str> = array(&q3["notes"], "notes")
        .iter()
        .map(|n| n.as_str().expect("note is text"))
        .collect();
    for decision in [
        "GROUP BY (o_orderkey, o_orderdate, o_shippriority): PACK",
        "ORDER BY (revenue desc, o_orderdate): PACK",
    ] {
        assert!(
            notes.iter().any(|n| n.starts_with(decision)),
            "Q3: decision '{decision}' missing from {notes:#?}"
        );
    }
}
