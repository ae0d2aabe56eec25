//! Figure 9: phase breakdown of the GPU narrow joins (transformation at the
//! bottom of each bar, match finding on top; narrow joins have no separate
//! materialization phase — the single payload rides through the transform).

use crate::exp::{breakdown_row, print_breakdown_header, run_algorithms, total_of};
use crate::{Report, Session};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig09", "Time breakdown of narrow joins", session);
    let dev = session.device();
    let algorithms = [
        Algorithm::Nphj,
        Algorithm::SmjUm,
        Algorithm::SmjOm,
        Algorithm::PhjUm,
        Algorithm::PhjOm,
    ];
    for shift in [2, 0] {
        let r_tuples = session.tuples() >> shift;
        let w = JoinWorkload::narrow(r_tuples);
        println!(
            "\nFigure 9 — narrow join, |R| = {} (|S| = 2|R|), {}",
            r_tuples, report.device
        );
        print_breakdown_header();
        let results = run_algorithms(&dev, &w, &algorithms, &JoinConfig::default());
        for (alg, stats) in &results {
            let mut row = breakdown_row(alg.name(), stats);
            row["r_tuples"] = serde_json::json!(r_tuples);
            report.push(row);
        }
        if shift == 0 {
            let smj = total_of(&results, Algorithm::SmjUm);
            let phj = total_of(&results, Algorithm::PhjUm);
            report.finding(format!(
                "PHJ-* beat SMJ-* on narrow joins by {:.2}x (paper: partitioning needs 2 \
                 RADIX-PARTITION passes, sorting 4)",
                smj / phj
            ));
            let um = total_of(&results, Algorithm::PhjUm);
            let om = total_of(&results, Algorithm::PhjOm);
            report.finding(format!(
                "PHJ-UM and PHJ-OM are nearly identical on narrow joins ({:.2}x apart; \
                 paper: 'very close')",
                um.max(om) / um.min(om)
            ));
            let nphj = total_of(&results, Algorithm::Nphj);
            report.finding(format!(
                "the non-partitioned join is the slowest GPU variant ({:.2}x behind PHJ-OM)",
                nphj / om
            ));
        }
    }
    println!();
    report
}
