//! Regression diffing for experiment reports.
//!
//! Compares freshly produced `results/*.json` [`crate::Report`] dumps
//! against the checked-in baselines with a relative tolerance, and renders
//! a per-figure drift table. The simulator is deterministic, so simulated
//! fields should match bit-for-bit; the tolerance exists for fp noise and
//! small model recalibrations. CPU-baseline fields (path contains `cpu`,
//! case-insensitive) measure real wall-clock and drift with the host, so
//! they get a much looser tolerance (at least [`WALLCLOCK_TOL`]).
//!
//! Driven by `bench diff` / `scripts/bench_diff.sh`.

use crate::exp::REGISTRY;
use serde_json::Value;
use std::path::Path;

/// Minimum tolerance applied to wall-clock (CPU-baseline) fields: those
/// rows time the real host, so cross-machine runs legitimately differ by
/// integer factors without indicating a simulator regression.
pub const WALLCLOCK_TOL: f64 = 0.5;

/// Wall-clock fields are the CPU baseline's: `rows[3].CPU`,
/// `rows[0].cpu_s`, ….
pub(crate) fn is_wallclock(path: &str) -> bool {
    path.to_ascii_lowercase().contains("cpu")
}

/// One numeric field whose baseline/fresh values disagree.
#[derive(Debug, Clone)]
pub struct FieldDrift {
    /// JSON path of the field inside the report (e.g. `rows[3].total_s`).
    pub path: String,
    /// Value in the checked-in baseline.
    pub baseline: f64,
    /// Value in the fresh run.
    pub fresh: f64,
}

impl FieldDrift {
    /// Symmetric relative drift `|f - b| / max(|b|, |f|)` (0 when both are
    /// zero), so a sign-agnostic 5% tolerance means what it says regardless
    /// of which side is larger.
    pub fn rel(&self) -> f64 {
        let denom = self.baseline.abs().max(self.fresh.abs());
        if denom == 0.0 {
            0.0
        } else {
            (self.fresh - self.baseline).abs() / denom
        }
    }
}

/// Comparison result for one figure/table report.
#[derive(Debug, Clone)]
pub struct FigureDiff {
    /// Experiment name (file stem, e.g. `fig09`).
    pub name: String,
    /// Number of numeric fields compared.
    pub fields: usize,
    /// Worst-drifting field, if any field drifted at all.
    pub max_drift: Option<FieldDrift>,
    /// Fields whose relative drift exceeds the tolerance.
    pub breaches: Vec<FieldDrift>,
    /// Non-numeric mismatches: shape changes, string/bool flips, missing
    /// counterpart file. Any entry fails the diff regardless of tolerance.
    pub structural: Vec<String>,
}

impl FigureDiff {
    /// True when the figure is within tolerance and structurally identical.
    pub fn ok(&self) -> bool {
        self.breaches.is_empty() && self.structural.is_empty()
    }
}

/// Compare two parsed reports. Only `rows` plus the identifying header
/// fields (`experiment`, `device`, `scale_log2`) participate: `findings`
/// are prose that embeds wall-clock numbers and legitimately drifts.
pub fn diff_reports(name: &str, baseline: &Value, fresh: &Value, tol: f64) -> FigureDiff {
    let mut d = FigureDiff {
        name: name.to_string(),
        fields: 0,
        max_drift: None,
        breaches: Vec::new(),
        structural: Vec::new(),
    };
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

fn walk(path: &str, b: &Value, f: &Value, tol: f64, d: &mut FigureDiff) {
    match (b, f) {
        (Value::Number(bn), Value::Number(fn_)) => {
            let (bv, fv) = (bn.as_f64(), fn_.as_f64());
            d.fields += 1;
            let drift = FieldDrift {
                path: path.to_string(),
                baseline: bv,
                fresh: fv,
            };
            if drift.rel() > d.max_drift.as_ref().map_or(0.0, |m| m.rel()) {
                d.max_drift = Some(drift.clone());
            }
            let tol = if is_wallclock(path) {
                tol.max(WALLCLOCK_TOL)
            } else {
                tol
            };
            if drift.rel() > tol {
                d.breaches.push(drift);
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

/// Diff every registry experiment's report (`<name>.json`) present in
/// either directory against its namesake in the other, in registry order.
/// A report missing or unreadable on one side becomes a structural failure
/// for that figure; other files in the directories (an observed run's
/// `trace.json`, …) are not reports and are ignored.
pub fn diff_dirs(baseline_dir: &Path, fresh_dir: &Path, tol: f64) -> Vec<FigureDiff> {
    let mut out = Vec::new();
    for name in REGISTRY.iter().map(|e| e.name) {
        let file = format!("{name}.json");
        let (baseline, fresh) = (baseline_dir.join(&file), fresh_dir.join(&file));
        if !baseline.exists() && !fresh.exists() {
            continue;
        }
        let load = |path: &Path| -> Option<Value> {
            serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
        };
        match (load(&baseline), load(&fresh)) {
            (Some(b), Some(f)) => out.push(diff_reports(name, &b, &f, tol)),
            (b, f) => out.push(FigureDiff {
                name: name.to_string(),
                fields: 0,
                max_drift: None,
                breaches: Vec::new(),
                structural: vec![format!(
                    "report {} {}",
                    if b.is_none() {
                        "missing/unreadable in baseline"
                    } else {
                        "present in baseline"
                    },
                    if f.is_none() {
                        "but missing/unreadable in fresh run"
                    } else {
                        ""
                    }
                )],
            }),
        }
    }
    out
}

/// Render the per-figure drift table plus a PASS/FAIL verdict line.
pub fn render_drift_table(diffs: &[FigureDiff], tol: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>7} {:>10} {:>9} {:>6}  worst field\n",
        "figure", "fields", "max drift", "breaches", "ok"
    ));
    for d in diffs {
        let (max, worst) = match &d.max_drift {
            Some(m) => (format!("{:.3}%", m.rel() * 100.0), m.path.clone()),
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
                (b.fresh - b.baseline) / b.baseline.abs().max(f64::MIN_POSITIVE) * 100.0
            ));
        }
        if d.breaches.len() > 5 {
            out.push_str(&format!("    > ... and {} more\n", d.breaches.len() - 5));
        }
    }
    let failed = diffs.iter().filter(|d| !d.ok()).count();
    if failed == 0 {
        out.push_str(&format!(
            "PASS: {} figures within {:.1}% of baseline\n",
            diffs.len(),
            tol * 100.0
        ));
    } else {
        out.push_str(&format!(
            "FAIL: {failed}/{} figures breach the {:.1}% tolerance\n",
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
    fn wallclock_fields_get_the_loose_tolerance() {
        let b = report(json!([json!({"CPU": 10.0, "PHJ-OM": 10.0})]));
        let f = report(json!([json!({"CPU": 14.0, "PHJ-OM": 14.0})]));
        let d = diff_reports("figX", &b, &f, 0.05);
        // Both drift 40%, but only the simulated field breaches.
        assert_eq!(d.breaches.len(), 1);
        assert_eq!(d.breaches[0].path, "rows[0].PHJ-OM");
    }

    #[test]
    fn zero_baseline_drift_is_symmetric() {
        let drift = FieldDrift {
            path: "p".into(),
            baseline: 0.0,
            fresh: 0.0,
        };
        assert_eq!(drift.rel(), 0.0);
        let drift = FieldDrift {
            path: "p".into(),
            baseline: 0.0,
            fresh: 2.0,
        };
        assert_eq!(drift.rel(), 1.0);
    }
}
