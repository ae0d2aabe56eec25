//! Tables 1 and 2: the analytic memory-consumption model of Section 4.4,
//! printed for a concrete column size and cross-checked against measured
//! simulator peaks.

use crate::exp::run_algorithms;
use crate::{gb, Report, Session};
use gpu_join::memory_model::{gftr_peak, gftr_table, gfur_peak, gfur_table, PhaseRow};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

fn print_table(name: &str, rows: &[PhaseRow]) {
    println!("\n{name}");
    println!(
        "{:<14} {:<52} {:>12} {:>12} {:>12} {:>12}",
        "phase", "activity", "alloc", "free", "after", "peak"
    );
    for r in rows {
        println!(
            "{:<14} {:<52} {:>12} {:>12} {:>12} {:>12}",
            r.phase,
            r.activity,
            gb(r.alloc_on_entry),
            gb(r.free_on_exit),
            gb(r.used_after_exit),
            gb(r.peak)
        );
    }
}

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("table12", "GFUR/GFTR memory consumption model", session);
    let n = session.tuples() as u64;
    let m_c = n * 4; // one 4-byte column
    let m_t = 1 << 20; // histogram-and-scan intermediates

    print_table("Table 1 — GFUR", &gfur_table(m_t, m_c));
    print_table("Table 2 — GFTR", &gftr_table(m_t, m_c));
    println!(
        "\nanalytic peaks: GFUR {} vs GFTR {}",
        gb(gfur_peak(m_t, m_c)),
        gb(gftr_peak(m_t, m_c))
    );
    report.push(serde_json::json!({
        "m_c": m_c, "m_t": m_t,
        "gfur_peak": gfur_peak(m_t, m_c),
        "gftr_peak": gftr_peak(m_t, m_c),
    }));

    // Cross-check against measured peaks on the wide default workload.
    let dev = session.device();
    let w = JoinWorkload::wide(session.tuples());
    let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
    println!();
    for (alg, stats) in &results {
        println!(
            "measured peak {:<8} {}",
            alg.name(),
            gb(stats.peak_mem_bytes)
        );
        report.push(serde_json::json!({
            "algorithm": alg.name(), "measured_peak": stats.peak_mem_bytes,
        }));
    }
    let peak = |a: Algorithm| {
        results
            .iter()
            .find(|(x, _)| *x == a)
            .unwrap()
            .1
            .peak_mem_bytes
    };
    report.finding(format!(
        "analytic dominance holds in measurement: SMJ-OM <= SMJ-UM ({}) and \
         PHJ-OM <= PHJ-UM ({})",
        peak(Algorithm::SmjOm) <= peak(Algorithm::SmjUm),
        peak(Algorithm::PhjOm) <= peak(Algorithm::PhjUm),
    ));
    report
}
