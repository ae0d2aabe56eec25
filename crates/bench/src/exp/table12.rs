//! Tables 1 and 2: the analytic memory-consumption model of Section 4.4,
//! evaluated for a concrete column size and cross-checked against measured
//! simulator peaks. The two tables' phase rows follow the peaks.

use crate::exp::run_algorithms;
use crate::{Claim, Report, Session};
use gpu_join::memory_model::{gftr_peak, gftr_table, gfur_peak, gfur_table};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("table12", "GFUR/GFTR memory consumption model", session);
    let n = session.tuples() as u64;
    let m_c = n * 4; // one 4-byte column
    let m_t = 1 << 20; // histogram-and-scan intermediates

    report.push(serde_json::json!({
        "m_c": m_c, "m_t": m_t,
        "gfur_peak": gfur_peak(m_t, m_c),
        "gftr_peak": gftr_peak(m_t, m_c),
    }));

    // Cross-check against measured peaks on the wide default workload.
    let dev = session.device();
    let w = JoinWorkload::wide(session.tuples());
    let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
    for (alg, stats) in &results {
        report.push(serde_json::json!({
            "algorithm": alg.name(), "measured_peak": stats.peak_mem_bytes,
        }));
    }

    for (table, rows) in [
        ("GFUR", gfur_table(m_t, m_c)),
        ("GFTR", gftr_table(m_t, m_c)),
    ] {
        for r in rows {
            report.push(serde_json::json!({
                "table": table, "phase": r.phase, "activity": r.activity,
                "alloc_on_entry": r.alloc_on_entry, "free_on_exit": r.free_on_exit,
                "used_after_exit": r.used_after_exit, "peak": r.peak,
            }));
        }
    }

    let peak = |a: Algorithm| {
        results
            .iter()
            .find(|(x, _)| *x == a)
            .unwrap()
            .1
            .peak_mem_bytes
    };
    let (smj, phj) = (
        peak(Algorithm::SmjOm) <= peak(Algorithm::SmjUm),
        peak(Algorithm::PhjOm) <= peak(Algorithm::PhjUm),
    );
    report.claim(
        Claim::yes_no("analytic_dominance", smj && phj)
            .paper(1.0)
            .band(1.0, 1.0)
            .says(format!(
                "analytic dominance holds in measurement: SMJ-OM <= SMJ-UM ({smj}) and \
                 PHJ-OM <= PHJ-UM ({phj})"
            )),
    );
    report
}
