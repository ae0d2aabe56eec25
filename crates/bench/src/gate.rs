//! The perf-regression gate: [`crate::diff`] with a CI-enforceable verdict.
//!
//! `bench diff` renders drift tables for humans; this module turns the same
//! comparison into a hard gate (`bench gate`, and `tests/smoke.rs` on every
//! `cargo test`): fresh smoke-scale results are diffed against the checked-in
//! baselines (`results/smoke14/`), and any *simulated* field drifting past
//! the tolerance fails the build. Simulated numbers are deterministic, so
//! the default tolerance is tight; wall-clock (CPU-baseline) fields time
//! the real host and are excluded from the verdict entirely — a CI runner
//! being 3x slower than the machine that produced the baselines is not a
//! regression.

use crate::diff::{diff_dirs, is_wallclock, render_drift_table, FigureDiff};
use std::path::Path;

/// Default tolerance for simulated fields: 1%. The simulator is
/// deterministic, so anything past fp noise means the cost model moved —
/// which is exactly what the gate exists to catch (and what a deliberate
/// recalibration updates the baselines for).
pub const DEFAULT_TOL: f64 = 0.01;

/// The gate's verdict over one baseline/fresh directory pair.
#[derive(Debug)]
pub struct GateOutcome {
    /// Per-figure comparisons, wall-clock breaches already stripped.
    pub diffs: Vec<FigureDiff>,
    /// The tolerance simulated fields were held to.
    pub tol: f64,
}

impl GateOutcome {
    /// True when every figure is within tolerance on its simulated fields
    /// and structurally identical.
    pub fn passed(&self) -> bool {
        self.diffs.iter().all(FigureDiff::ok)
    }

    /// The drift table plus the PASS/FAIL verdict line.
    pub fn render(&self) -> String {
        render_drift_table(&self.diffs, self.tol)
    }
}

/// Run the gate: diff every report in `baseline_dir` against `fresh_dir`
/// at `tol`, then drop breaches on wall-clock fields (they still appear in
/// `max_drift` for context; they just cannot fail the gate).
pub fn run_gate(baseline_dir: &Path, fresh_dir: &Path, tol: f64) -> GateOutcome {
    let mut diffs = diff_dirs(baseline_dir, fresh_dir, tol);
    for d in &mut diffs {
        d.breaches.retain(|b| !is_wallclock(&b.path));
    }
    GateOutcome { diffs, tol }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{json, Value};

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

    #[test]
    fn identical_results_pass() {
        let (b, f) = tmp_dirs("identical");
        write_report(&b, "fig09", 1.0, 10.0);
        write_report(&f, "fig09", 1.0, 10.0);
        let g = run_gate(&b, &f, DEFAULT_TOL);
        assert!(g.passed(), "{}", g.render());
        assert!(g.render().contains("PASS"));
    }

    #[test]
    fn ten_percent_simulated_drift_fails() {
        let (b, f) = tmp_dirs("drift");
        write_report(&b, "fig09", 1.0, 10.0);
        write_report(&f, "fig09", 1.1, 10.0);
        let g = run_gate(&b, &f, DEFAULT_TOL);
        assert!(!g.passed(), "10% simulated drift must fail the gate");
        assert!(g.render().contains("FAIL"));
        assert!(g.diffs[0]
            .breaches
            .iter()
            .any(|x| x.path.contains("total_s")));
    }

    #[test]
    fn wallclock_drift_cannot_fail_the_gate() {
        let (b, f) = tmp_dirs("wallclock");
        write_report(&b, "fig09", 1.0, 10.0);
        write_report(&f, "fig09", 1.0, 35.0); // 3.5x slower host
        let g = run_gate(&b, &f, DEFAULT_TOL);
        assert!(
            g.passed(),
            "wall-clock drift is not a regression: {}",
            g.render()
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
        assert_eq!(g.diffs.len(), 1, "{}", g.render());
        assert!(g.passed(), "{}", g.render());
    }

    #[test]
    fn missing_fresh_report_is_structural_failure() {
        let (b, f) = tmp_dirs("missing");
        write_report(&b, "fig09", 1.0, 10.0);
        let g = run_gate(&b, &f, DEFAULT_TOL);
        assert!(!g.passed(), "a vanished report must fail the gate");
    }
}
