//! The regression gate: one verdict over a fresh artifact directory's
//! reports and claims against a baseline directory's.
//!
//! `bench gate` (and `tests/smoke.rs` on every `cargo test`) compares every
//! registry report (`<name>.json`) and the claim file (`fidelity.json`) in
//! a fresh `--out` directory with its namesake in the baseline directory
//! (default `results/smoke14/`) at a relative tolerance, and renders a drift
//! table. A report's `rows` and its header fields (`experiment`, `device`,
//! `scale_log2`) participate; its `findings` do not — they are prose that
//! embeds wall-clock numbers. Claims are keyed by `id`, and their `sentence`
//! is dropped for the same reason: `measured`, `paper` and `band` are held
//! to the tolerance, while a flip of `holds` or a claim missing on either
//! side is a structural failure. The simulator is deterministic, so
//! anything past fp noise means the cost model moved.
//!
//! One wall-clock rule: a field whose path contains `cpu` (case-insensitive:
//! `rows[3].CPU`, `claims.fig08.gpu_over_cpu.measured`) times the real host.
//! It shows in the max-drift column but never breaches — a CI runner 3x
//! slower than the machine that recorded the baselines is not a regression.

use crate::exp::REGISTRY;
use serde_json::Value;
use std::path::Path;

/// Default tolerance: 1%. The simulator is deterministic, so anything past
/// fp noise means the cost model moved — which is exactly what the gate
/// exists to catch (and what a deliberate recalibration updates the
/// baselines for).
pub const DEFAULT_TOL: f64 = 0.01;

/// Stem of the claim file, whose verdict row follows the reports'.
const CLAIMS: &str = "fidelity";

/// Wall-clock fields are the CPU baseline's: `rows[3].CPU`,
/// `rows[0].cpu_s`, `claims.fig08.gpu_over_cpu.measured`, ….
fn is_wallclock(path: &str) -> bool {
    path.to_ascii_lowercase().contains("cpu")
}

/// One numeric field whose baseline/fresh values disagree.
#[derive(Debug, Clone)]
pub struct FieldDrift {
    /// JSON path of the field (e.g. `rows[3].total_s`).
    pub path: String,
    /// Value in the baseline.
    pub baseline: f64,
    /// Value in the fresh run.
    pub fresh: f64,
}

impl FieldDrift {
    /// Signed symmetric relative drift `(f - b) / max(|b|, |f|)` (0 when
    /// both are zero): its magnitude is what the tolerance bounds, whichever
    /// side is larger, and a zero baseline gives ±1, never infinity.
    pub fn rel(&self) -> f64 {
        let denom = self.baseline.abs().max(self.fresh.abs());
        if denom == 0.0 {
            0.0
        } else {
            (self.fresh - self.baseline) / denom
        }
    }
}

/// The verdict row of one report, or of the claim file.
#[derive(Debug, Clone)]
pub struct FigureDiff {
    /// File stem (e.g. `fig09`, `fidelity`).
    pub name: String,
    /// Number of numeric fields compared.
    pub fields: usize,
    /// Worst-drifting field, if any field drifted at all.
    pub max_drift: Option<FieldDrift>,
    /// Simulated fields whose drift exceeds the tolerance.
    pub breaches: Vec<FieldDrift>,
    /// Non-numeric mismatches: shape changes, string/bool flips, a missing
    /// counterpart. Any entry fails the gate regardless of tolerance.
    pub structural: Vec<String>,
}

impl FigureDiff {
    fn new(name: &str) -> Self {
        FigureDiff {
            name: name.to_string(),
            fields: 0,
            max_drift: None,
            breaches: Vec::new(),
            structural: Vec::new(),
        }
    }

    /// True when the row is within tolerance and structurally identical.
    pub fn ok(&self) -> bool {
        self.breaches.is_empty() && self.structural.is_empty()
    }
}

/// Compare two parsed reports: their header fields and `rows`.
pub fn diff_reports(name: &str, baseline: &Value, fresh: &Value, tol: f64) -> FigureDiff {
    let mut d = FigureDiff::new(name);
    for key in ["experiment", "device", "scale_log2"] {
        if baseline.get(key) != fresh.get(key) {
            d.structural.push(format!(
                "{key}: baseline {:?} vs fresh {:?}",
                baseline.get(key).unwrap_or(&Value::Null),
                fresh.get(key).unwrap_or(&Value::Null)
            ));
        }
    }
    let empty = Value::Array(Vec::new());
    let b_rows = baseline.get("rows").unwrap_or(&empty);
    let f_rows = fresh.get("rows").unwrap_or(&empty);
    walk("rows", b_rows, f_rows, tol, &mut d);
    d
}

/// Compare two parsed claim files, claim by claim.
pub fn diff_claims(baseline: &Value, fresh: &Value, tol: f64) -> FigureDiff {
    let mut d = FigureDiff::new(CLAIMS);
    walk("claims", &by_id(baseline), &by_id(fresh), tol, &mut d);
    d
}

/// A claim file as one object keyed by claim id, sentences dropped.
fn by_id(claims: &Value) -> Value {
    let claims = claims.as_array().map_or(&[][..], Vec::as_slice);
    Value::Object(
        claims
            .iter()
            .map(|c| {
                let id = c["id"].as_str().unwrap_or_default().to_string();
                let fields = match c {
                    Value::Object(fields) => fields
                        .iter()
                        .filter(|(k, _)| k != "id" && k != "sentence")
                        .cloned()
                        .collect(),
                    _ => Vec::new(),
                };
                (id, Value::Object(fields))
            })
            .collect(),
    )
}

fn walk(path: &str, b: &Value, f: &Value, tol: f64, d: &mut FigureDiff) {
    match (b, f) {
        (Value::Number(bn), Value::Number(fn_)) => {
            d.fields += 1;
            let drift = FieldDrift {
                path: path.to_string(),
                baseline: bn.as_f64(),
                fresh: fn_.as_f64(),
            };
            let rel = drift.rel().abs();
            if rel > tol && !is_wallclock(path) {
                d.breaches.push(drift.clone());
            }
            if rel > d.max_drift.as_ref().map_or(0.0, |m| m.rel().abs()) {
                d.max_drift = Some(drift);
            }
        }
        (Value::Array(ba), Value::Array(fa)) => {
            if ba.len() != fa.len() {
                d.structural
                    .push(format!("{path}: {} vs {} elements", ba.len(), fa.len()));
                return;
            }
            for (i, (bv, fv)) in ba.iter().zip(fa).enumerate() {
                walk(&format!("{path}[{i}]"), bv, fv, tol, d);
            }
        }
        // The vendored `serde_json` stores objects as ordered
        // `Vec<(String, Value)>`; match fields by key, not position.
        (Value::Object(bo), Value::Object(fo)) => {
            for (k, bv) in bo {
                match fo.iter().find(|(fk, _)| fk == k) {
                    Some((_, fv)) => walk(&format!("{path}.{k}"), bv, fv, tol, d),
                    None => d.structural.push(format!("{path}.{k}: missing in fresh")),
                }
            }
            for (k, _) in fo {
                if !bo.iter().any(|(bk, _)| bk == k) {
                    d.structural
                        .push(format!("{path}.{k}: missing in baseline"));
                }
            }
        }
        _ if b == f => {} // equal strings / bools / nulls
        _ => d.structural.push(format!("{path}: {b:?} vs {f:?}")),
    }
}

/// Run the gate: compare every registry report, then the claim file,
/// present in either directory with its namesake in the other, in registry
/// order. A file missing or unreadable on one side is a structural failure
/// for its row; other files in the directories (an observed run's
/// `trace.json`, …) are ignored.
pub fn run_gate(baseline_dir: &Path, fresh_dir: &Path, tol: f64) -> Vec<FigureDiff> {
    let mut out = Vec::new();
    for name in REGISTRY.iter().map(|e| e.name).chain([CLAIMS]) {
        let file = format!("{name}.json");
        let (baseline, fresh) = (baseline_dir.join(&file), fresh_dir.join(&file));
        if !baseline.exists() && !fresh.exists() {
            continue;
        }
        let load = |path: &Path| -> Option<Value> {
            serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
        };
        out.push(match (load(&baseline), load(&fresh)) {
            (Some(b), Some(f)) if name == CLAIMS => diff_claims(&b, &f, tol),
            (Some(b), Some(f)) => diff_reports(name, &b, &f, tol),
            (b, f) => {
                let side = |v: Option<Value>| v.map_or("missing or unreadable", |_| "present");
                let mut d = FigureDiff::new(name);
                d.structural.push(format!(
                    "{file} {} in baseline, {} in fresh",
                    side(b),
                    side(f)
                ));
                d
            }
        });
    }
    out
}

/// Render the per-row drift table plus a PASS/FAIL verdict line.
pub fn render_drift_table(diffs: &[FigureDiff], tol: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>7} {:>10} {:>9} {:>6}  worst field\n",
        "report", "fields", "max drift", "breaches", "ok"
    ));
    for d in diffs {
        let (max, worst) = match &d.max_drift {
            Some(m) => (format!("{:.3}%", m.rel().abs() * 100.0), m.path.clone()),
            None => ("0.000%".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<24} {:>7} {:>10} {:>9} {:>6}  {}\n",
            d.name,
            d.fields,
            max,
            d.breaches.len() + d.structural.len(),
            if d.ok() { "yes" } else { "NO" },
            worst
        ));
        for s in &d.structural {
            out.push_str(&format!("    ! {s}\n"));
        }
        for b in d.breaches.iter().take(5) {
            out.push_str(&format!(
                "    > {}: {} -> {} ({:+.3}%)\n",
                b.path,
                b.baseline,
                b.fresh,
                b.rel() * 100.0
            ));
        }
        if d.breaches.len() > 5 {
            out.push_str(&format!("    > ... and {} more\n", d.breaches.len() - 5));
        }
    }
    let failed = diffs.iter().filter(|d| !d.ok()).count();
    if failed == 0 {
        out.push_str(&format!(
            "PASS: {} reports within {:.1}% of baseline\n",
            diffs.len(),
            tol * 100.0
        ));
    } else {
        out.push_str(&format!(
            "FAIL: {failed}/{} reports breach the {:.1}% tolerance\n",
            diffs.len(),
            tol * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn report(rows: Value) -> Value {
        json!({"experiment": "figX", "title": "t", "device": "a100",
               "scale_log2": 22, "rows": rows, "findings": ["text 1.23 s"]})
    }

    fn write_report(dir: &Path, name: &str, total_s: f64, cpu_s: f64) {
        let v: Value = json!({
            "experiment": name, "title": "t", "device": "a100", "scale_log2": 14,
            "rows": [json!({"alg": "PHJ-UM", "total_s": total_s, "cpu_s": cpu_s})],
            "findings": ["prose"],
        });
        std::fs::write(
            dir.join(format!("{name}.json")),
            serde_json::to_string_pretty(&v).unwrap(),
        )
        .unwrap();
    }

    fn tmp_dirs(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!("gate_test_{tag}_{}", std::process::id()));
        let (b, f) = (root.join("baseline"), root.join("fresh"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&b).unwrap();
        std::fs::create_dir_all(&f).unwrap();
        (b, f)
    }

    fn passed(diffs: &[FigureDiff]) -> bool {
        diffs.iter().all(FigureDiff::ok)
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(json!([json!({"a": 1.0, "alg": "PHJ-UM"})]));
        let d = diff_reports("figX", &r, &r, 0.01);
        assert!(d.ok());
        assert_eq!(d.fields, 1); // "a" — strings and headers aren't numeric fields
        assert!(d.max_drift.is_none(), "nothing drifted");
    }

    #[test]
    fn drift_within_tolerance_passes_and_is_reported() {
        let b = report(json!([json!({"t": 100.0})]));
        let f = report(json!([json!({"t": 101.0})]));
        let d = diff_reports("figX", &b, &f, 0.05);
        assert!(d.ok());
        let m = d.max_drift.unwrap();
        assert!((m.rel() - 1.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn drift_beyond_tolerance_breaches() {
        let b = report(json!([json!({"t": 100.0})]));
        let f = report(json!([json!({"t": 120.0})]));
        let d = diff_reports("figX", &b, &f, 0.05);
        assert!(!d.ok());
        assert_eq!(d.breaches.len(), 1);
        assert_eq!(d.breaches[0].path, "rows[0].t");
    }

    #[test]
    fn shape_and_string_changes_are_structural() {
        let b = report(json!([json!({"alg": "PHJ-UM", "t": 1.0})]));
        let f = report(json!([
            json!({"alg": "PHJ-OM", "t": 1.0}),
            json!({"alg": "X", "t": 2.0})
        ]));
        let d = diff_reports("figX", &b, &f, 0.5);
        assert!(!d.ok());
        assert!(d.structural.iter().any(|s| s.contains("1 vs 2 elements")));
        // findings prose is ignored even though it differs numerically
        let f2 = json!({"experiment": "figX", "title": "t", "device": "a100",
                        "scale_log2": 22, "rows": json!([json!({"alg": "PHJ-UM", "t": 1.0})]),
                        "findings": ["text 9.99 s"]});
        assert!(diff_reports("figX", &b, &f2, 0.5).ok());
    }

    #[test]
    fn nested_class_objects_diff_recursively() {
        // m02_serving rows nest per-class quantile objects under "classes";
        // the walker compares those leaf by leaf like any other field.
        let row = |p99: f64| {
            json!({"sweep": "offered_load", "rho": 0.5,
                   "classes": json!({"q18": json!({"count": 8, "p99_s": p99}),
                                     "q3": json!({"count": 8, "p99_s": 0.25})})})
        };
        let b = report(json!([row(1.0)]));
        let d = diff_reports("m02_serving", &b, &report(json!([row(1.0)])), 0.01);
        assert!(d.ok());
        assert_eq!(d.fields, 5, "rho + two counts + two p99s");
        let d = diff_reports("m02_serving", &b, &report(json!([row(1.2)])), 0.01);
        assert!(!d.ok());
        assert_eq!(d.breaches.len(), 1);
        assert_eq!(d.breaches[0].path, "rows[0].classes.q18.p99_s");
        // A class going missing is structural, not a tolerance question.
        let f = report(json!([json!({"sweep": "offered_load", "rho": 0.5,
                                     "classes": json!({"q18": json!({"count": 8, "p99_s": 1.0})})})]));
        let d = diff_reports("m02_serving", &b, &f, 0.5);
        assert!(d
            .structural
            .iter()
            .any(|s| s.contains("classes.q3: missing in fresh")));
    }

    #[test]
    fn wallclock_fields_never_breach() {
        let b = report(json!([json!({"CPU": 10.0, "PHJ-OM": 10.0})]));
        let f = report(json!([json!({"CPU": 35.0, "PHJ-OM": 14.0})]));
        let d = diff_reports("figX", &b, &f, 0.05);
        // Both drift past 5%, but only the simulated field breaches; the
        // wall-clock field still shows as the worst drift.
        assert_eq!(d.breaches.len(), 1);
        assert_eq!(d.breaches[0].path, "rows[0].PHJ-OM");
        assert_eq!(d.max_drift.unwrap().path, "rows[0].CPU");
    }

    #[test]
    fn zero_baseline_drift_is_symmetric() {
        let drift = |baseline, fresh| FieldDrift {
            path: "p".into(),
            baseline,
            fresh,
        };
        assert_eq!(drift(0.0, 0.0).rel(), 0.0);
        assert_eq!(drift(0.0, 2.0).rel(), 1.0);
        assert_eq!(drift(2.0, 0.0).rel(), -1.0);
    }

    #[test]
    fn breach_lines_print_the_drift_the_verdict_uses() {
        let zero = report(json!([json!({"t": 0.0})]));
        let d = diff_reports("figX", &zero, &report(json!([json!({"t": 2.0})])), 0.05);
        let text = render_drift_table(&[d], 0.05);
        assert!(text.contains("rows[0].t: 0 -> 2 (+100.000%)"), "{text}");
        assert!(!text.contains("inf"), "{text}");
        // 100 -> 120 is 16.667% in the max-drift column and on its line.
        let b = report(json!([json!({"t": 100.0})]));
        let d = diff_reports("figX", &b, &report(json!([json!({"t": 120.0})])), 0.05);
        let text = render_drift_table(&[d], 0.05);
        assert!(text.contains(" 16.667% "), "{text}");
        assert!(text.contains("(+16.667%)"), "{text}");
    }

    #[test]
    fn identical_results_pass() {
        let (b, f) = tmp_dirs("identical");
        write_report(&b, "fig09", 1.0, 10.0);
        write_report(&f, "fig09", 1.0, 10.0);
        let g = run_gate(&b, &f, DEFAULT_TOL);
        let text = render_drift_table(&g, DEFAULT_TOL);
        assert!(passed(&g), "{text}");
        assert!(text.contains("PASS"));
    }

    #[test]
    fn ten_percent_simulated_drift_fails() {
        let (b, f) = tmp_dirs("drift");
        write_report(&b, "fig09", 1.0, 10.0);
        write_report(&f, "fig09", 1.1, 10.0);
        let g = run_gate(&b, &f, DEFAULT_TOL);
        assert!(!passed(&g), "10% simulated drift must fail the gate");
        assert!(render_drift_table(&g, DEFAULT_TOL).contains("FAIL"));
        assert!(g[0].breaches.iter().any(|x| x.path.contains("total_s")));
    }

    #[test]
    fn wallclock_drift_cannot_fail_the_gate() {
        let (b, f) = tmp_dirs("wallclock");
        write_report(&b, "fig09", 1.0, 10.0);
        write_report(&f, "fig09", 1.0, 35.0); // 3.5x slower host
        let g = run_gate(&b, &f, DEFAULT_TOL);
        assert!(
            passed(&g),
            "wall-clock drift is not a regression: {}",
            render_drift_table(&g, DEFAULT_TOL)
        );
    }

    #[test]
    fn files_that_are_not_registry_reports_are_ignored() {
        // An observed run's artifact directory holds more JSON than reports.
        let (b, f) = tmp_dirs("extras");
        write_report(&b, "fig09", 1.0, 10.0);
        write_report(&f, "fig09", 1.0, 10.0);
        std::fs::write(f.join("trace.json"), "{\"traceEvents\":[]}").unwrap();
        std::fs::write(f.join("metrics.json"), "{\"devices\":[]}").unwrap();
        let g = run_gate(&b, &f, DEFAULT_TOL);
        let text = render_drift_table(&g, DEFAULT_TOL);
        assert_eq!(g.len(), 1, "{text}");
        assert!(passed(&g), "{text}");
    }

    #[test]
    fn missing_fresh_report_is_structural_failure() {
        let (b, f) = tmp_dirs("missing");
        write_report(&b, "fig09", 1.0, 10.0);
        let g = run_gate(&b, &f, DEFAULT_TOL);
        assert!(!passed(&g), "a vanished report must fail the gate");
    }

    fn claims() -> Vec<Value> {
        vec![
            json!({"id": "fig10.phj_om_over_um", "measured": 2.0, "paper": 2.3,
                   "band": [1.725, 2.875], "holds": true, "sentence": "PHJ-OM is 2.00x"}),
            json!({"id": "fig08.gpu_over_cpu", "measured": 769.2, "paper": 34.5,
                   "sentence": "best GPU join is 769.2x faster"}),
        ]
    }

    /// The claim file with field `key` of claim `at` set to `value`.
    fn edited(at: usize, key: &str, value: Value) -> Value {
        let mut c = claims();
        c[at][key] = value;
        json!(c)
    }

    #[test]
    fn a_holds_flip_fails_and_names_the_claim() {
        let f = edited(0, "holds", json!(false));
        let d = diff_claims(&json!(claims()), &f, DEFAULT_TOL);
        assert!(!d.ok());
        assert!(
            d.structural
                .iter()
                .any(|s| s.starts_with("claims.fig10.phj_om_over_um.holds:")),
            "{:?}",
            d.structural
        );
    }

    #[test]
    fn a_band_edit_past_the_tolerance_fails() {
        let f = edited(0, "band", json!([2.1, 2.875]));
        let d = diff_claims(&json!(claims()), &f, DEFAULT_TOL);
        assert_eq!(d.breaches.len(), 1);
        assert_eq!(d.breaches[0].path, "claims.fig10.phj_om_over_um.band[0]");
    }

    #[test]
    fn a_wallclock_claim_drifting_passes() {
        let f = edited(1, "measured", json!(15123.4));
        let d = diff_claims(&json!(claims()), &f, DEFAULT_TOL);
        assert!(d.ok(), "{:?}", d.breaches);
        assert_eq!(
            d.max_drift.unwrap().path,
            "claims.fig08.gpu_over_cpu.measured"
        );
    }

    #[test]
    fn a_reworded_sentence_passes() {
        let f = edited(0, "sentence", json!("PHJ-OM beats PHJ-UM 2x"));
        let d = diff_claims(&json!(claims()), &f, DEFAULT_TOL);
        assert!(d.ok());
        assert_eq!(d.fields, 4 + 2, "measured, paper, band; measured, paper");
    }

    #[test]
    fn a_claim_missing_or_added_is_structural() {
        let (two, one) = (json!(claims()), json!(claims()[..1]));
        let d = diff_claims(&two, &one, DEFAULT_TOL);
        assert_eq!(
            d.structural,
            ["claims.fig08.gpu_over_cpu: missing in fresh"]
        );
        let d = diff_claims(&one, &two, DEFAULT_TOL);
        assert_eq!(
            d.structural,
            ["claims.fig08.gpu_over_cpu: missing in baseline"]
        );
    }

    #[test]
    fn a_fresh_directory_without_fidelity_json_is_structural() {
        let (b, f) = tmp_dirs("fidelity");
        write_report(&b, "fig09", 1.0, 10.0);
        write_report(&f, "fig09", 1.0, 10.0);
        let file = serde_json::to_string(&claims()).unwrap();
        std::fs::write(b.join("fidelity.json"), &file).unwrap();
        let g = run_gate(&b, &f, DEFAULT_TOL);
        assert_eq!(g.len(), 2);
        assert_eq!(g[1].name, "fidelity");
        assert!(!g[1].ok(), "{}", render_drift_table(&g, DEFAULT_TOL));
        std::fs::write(f.join("fidelity.json"), &file).unwrap();
        assert!(passed(&run_gate(&b, &f, DEFAULT_TOL)));
    }
}
