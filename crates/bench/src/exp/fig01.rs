//! Figure 1: time breakdown for join processing — the motivating
//! measurement. A PK relation joined with a 2x larger FK relation, two
//! payload columns per side; the state-of-the-art GFUR implementations
//! spend most of their time materializing (up to ~75% in the paper), and
//! the paper's optimized variants claw that back (up to 2.3x end to end).

use crate::exp::{breakdown_row, print_breakdown_header, run_algorithms, total_of};
use crate::{Report, Session};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig01", "Time break-down for join processing", session);
    let dev = session.device();
    let w = JoinWorkload {
        s_tuples: session.tuples() * 2,
        ..JoinWorkload::wide(session.tuples())
    };
    println!(
        "Figure 1 — {} ⋈ {} tuples (1:2 sizes), 2 payload columns each, {}\n",
        w.r_tuples, w.s_tuples, report.device
    );

    let algorithms = [
        Algorithm::Nphj,
        Algorithm::SmjUm,
        Algorithm::PhjUm,
        Algorithm::SmjOm,
        Algorithm::PhjOm,
    ];
    print_breakdown_header();
    let results = run_algorithms(&dev, &w, &algorithms, &JoinConfig::default());
    for (alg, stats) in &results {
        report.push(breakdown_row(alg.name(), stats));
    }
    println!();

    let um_mat_frac = results
        .iter()
        .filter(|(a, _)| matches!(a, Algorithm::SmjUm | Algorithm::PhjUm))
        .map(|(_, s)| s.phases.materialize_fraction())
        .fold(0.0f64, f64::max);
    report.finding(format!(
        "materialization takes up to {:.0}% of the runtime of the GFUR implementations \
         (paper: up to 75%)",
        um_mat_frac * 100.0
    ));
    let speedup = total_of(&results, Algorithm::PhjUm) / total_of(&results, Algorithm::PhjOm);
    report.finding(format!(
        "PHJ-OM is {speedup:.2}x faster than PHJ-UM end to end (paper: up to 2.3x)"
    ));
    let nphj_vs = total_of(&results, Algorithm::Nphj) / total_of(&results, Algorithm::PhjOm);
    report.finding(format!(
        "PHJ-OM is {nphj_vs:.2}x faster than the non-partitioned hash join"
    ));
    report
}
