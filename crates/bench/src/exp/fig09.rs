//! Figure 9: phase breakdown of the GPU narrow joins (transformation at the
//! bottom of each bar, match finding on top; narrow joins have no separate
//! materialization phase — the single payload rides through the transform).

use crate::exp::{breakdown_row, run_algorithms, total_of};
use crate::{Claim, Report, Session};
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
        let results = run_algorithms(&dev, &w, &algorithms, &JoinConfig::default());
        for (alg, stats) in &results {
            let mut row = breakdown_row(alg.name(), stats);
            row["r_tuples"] = serde_json::json!(r_tuples);
            report.push(row);
        }
        if shift == 0 {
            let smj_over_phj =
                total_of(&results, Algorithm::SmjUm) / total_of(&results, Algorithm::PhjUm);
            report.claim(
                Claim::new("phj_over_smj", smj_over_phj)
                    .band(1.0, f64::INFINITY)
                    .says(format!(
                        "PHJ-* beat SMJ-* on narrow joins by {smj_over_phj:.2}x (paper: \
                         partitioning needs 2 RADIX-PARTITION passes, sorting 4)"
                    )),
            );
            let um = total_of(&results, Algorithm::PhjUm);
            let om = total_of(&results, Algorithm::PhjOm);
            let apart = um.max(om) / um.min(om);
            report.claim(
                Claim::new("phj_um_om_apart", apart)
                    .paper(1.0)
                    .band(1.0, 1.1)
                    .says(format!(
                        "PHJ-UM and PHJ-OM are nearly identical on narrow joins ({apart:.2}x \
                         apart; paper: 'very close')"
                    )),
            );
            let nphj_behind = total_of(&results, Algorithm::Nphj) / om;
            report.claim(
                Claim::new("nphj_behind_phj_om", nphj_behind)
                    .band(1.0, f64::INFINITY)
                    .says(format!(
                        "the non-partitioned join is the slowest GPU variant ({nphj_behind:.2}x \
                         behind PHJ-OM)"
                    )),
            );
        }
    }
    report
}
