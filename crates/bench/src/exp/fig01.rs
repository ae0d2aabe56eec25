//! Figure 1: time breakdown for join processing — the motivating
//! measurement. A PK relation joined with a 2x larger FK relation, two
//! payload columns per side; the state-of-the-art GFUR implementations
//! spend most of their time materializing (up to ~75% in the paper), and
//! the paper's optimized variants claw that back (up to 2.3x end to end).

use crate::exp::{breakdown_row, run_algorithms, total_of};
use crate::{Claim, Report, Session};
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

    let algorithms = [
        Algorithm::Nphj,
        Algorithm::SmjUm,
        Algorithm::PhjUm,
        Algorithm::SmjOm,
        Algorithm::PhjOm,
    ];
    let results = run_algorithms(&dev, &w, &algorithms, &JoinConfig::default());
    for (alg, stats) in &results {
        report.push(breakdown_row(alg.name(), stats));
    }

    let um_mat_pct = results
        .iter()
        .filter(|(a, _)| matches!(a, Algorithm::SmjUm | Algorithm::PhjUm))
        .map(|(_, s)| s.phases.materialize_fraction())
        .fold(0.0f64, f64::max)
        * 100.0;
    report.claim(
        Claim::new("gfur_materialize_pct", um_mat_pct)
            .near(75.0, 0.25)
            .says(format!(
                "materialization takes up to {um_mat_pct:.0}% of the runtime of the GFUR \
                 implementations (paper: up to 75%)"
            )),
    );
    let speedup = total_of(&results, Algorithm::PhjUm) / total_of(&results, Algorithm::PhjOm);
    report.claim(
        Claim::new("phj_om_over_um", speedup)
            .near(2.3, 0.25)
            .says(format!(
                "PHJ-OM is {speedup:.2}x faster than PHJ-UM end to end (paper: up to 2.3x)"
            )),
    );
    let nphj_vs = total_of(&results, Algorithm::Nphj) / total_of(&results, Algorithm::PhjOm);
    report.claim(
        Claim::new("phj_om_over_nphj", nphj_vs)
            .band(1.0, f64::INFINITY)
            .says(format!(
                "PHJ-OM is {nphj_vs:.2}x faster than the non-partitioned hash join"
            )),
    );
    report
}
