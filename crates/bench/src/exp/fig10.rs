//! Figure 10: phase breakdown of *wide* joins (two payload columns per
//! relation) — where materialization dominates the GFUR implementations and
//! the paper's GFTR variants win.

use crate::exp::{breakdown_row, print_breakdown_header, run_algorithms, total_of};
use crate::{Report, Session};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig10", "Time breakdown of wide joins", session);
    let dev = session.device();
    let algorithms = [
        Algorithm::Nphj,
        Algorithm::SmjUm,
        Algorithm::SmjOm,
        Algorithm::PhjUm,
        Algorithm::PhjOm,
    ];
    let mut last = Vec::new();
    for shift in [2, 1, 0] {
        let r_tuples = session.tuples() >> shift;
        let w = JoinWorkload {
            s_tuples: r_tuples * 2,
            ..JoinWorkload::wide(r_tuples)
        };
        println!(
            "\nFigure 10 — wide join, |R| = {} (|S| = 2|R|, 2 payload cols each), {}",
            r_tuples, report.device
        );
        print_breakdown_header();
        let results = run_algorithms(&dev, &w, &algorithms, &JoinConfig::default());
        for (alg, stats) in &results {
            let mut row = breakdown_row(alg.name(), stats);
            row["r_tuples"] = serde_json::json!(r_tuples);
            report.push(row);
        }
        last = results;
    }
    println!();
    let f = |a| total_of(&last, a);
    report.finding(format!(
        "SMJ-OM is {:.2}x faster than SMJ-UM (paper: ~1.6x)",
        f(Algorithm::SmjUm) / f(Algorithm::SmjOm)
    ));
    report.finding(format!(
        "PHJ-OM is {:.2}x faster than PHJ-UM (paper: ~2.3x)",
        f(Algorithm::PhjUm) / f(Algorithm::PhjOm)
    ));
    report.finding(format!(
        "PHJ-OM is {:.2}x faster than SMJ-OM (paper: ~1.4x — partitioning needs half \
         the passes of sorting)",
        f(Algorithm::SmjOm) / f(Algorithm::PhjOm)
    ));
    report
}
