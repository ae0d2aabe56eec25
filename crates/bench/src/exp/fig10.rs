//! Figure 10: phase breakdown of *wide* joins (two payload columns per
//! relation) — where materialization dominates the GFUR implementations and
//! the paper's GFTR variants win.

use crate::exp::{breakdown_row, run_algorithms, total_of};
use crate::{Claim, Report, Session};
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
        let results = run_algorithms(&dev, &w, &algorithms, &JoinConfig::default());
        for (alg, stats) in &results {
            let mut row = breakdown_row(alg.name(), stats);
            row["r_tuples"] = serde_json::json!(r_tuples);
            report.push(row);
        }
        last = results;
    }
    let f = |a| total_of(&last, a);
    let smj = f(Algorithm::SmjUm) / f(Algorithm::SmjOm);
    report.claim(
        Claim::new("smj_om_over_um", smj)
            .near(1.6, 0.25)
            .says(format!(
                "SMJ-OM is {smj:.2}x faster than SMJ-UM (paper: ~1.6x)"
            )),
    );
    let phj = f(Algorithm::PhjUm) / f(Algorithm::PhjOm);
    report.claim(
        Claim::new("phj_om_over_um", phj)
            .near(2.3, 0.25)
            .says(format!(
                "PHJ-OM is {phj:.2}x faster than PHJ-UM (paper: ~2.3x)"
            )),
    );
    let om = f(Algorithm::SmjOm) / f(Algorithm::PhjOm);
    report.claim(
        Claim::new("phj_om_over_smj_om", om)
            .near(1.4, 0.25)
            .says(format!(
                "PHJ-OM is {om:.2}x faster than SMJ-OM (paper: ~1.4x — partitioning needs half \
                 the passes of sorting)"
            )),
    );
    report
}
