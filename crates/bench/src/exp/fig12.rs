//! Figure 12: effect of the number of payload columns (|R| = |S|).

use crate::exp::{run_algorithms, total_of};
use crate::{mtps, Claim, Report, Session};
use columnar::DType;
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig12", "Effect of the number of payload columns", session);
    let dev = session.device();
    let n = session.tuples();
    let mut phj_ratio_at_8 = 0.0;
    let mut smj_ratio_at_8 = 0.0;
    for cols in [1usize, 2, 4, 6, 8] {
        let w = JoinWorkload {
            r_tuples: n,
            s_tuples: n,
            r_payloads: vec![DType::I32; cols],
            s_payloads: vec![DType::I32; cols],
            ..JoinWorkload::narrow(n)
        };
        let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
        let mut row = serde_json::json!({"payload_cols": cols});
        for (alg, stats) in &results {
            let tput = mtps(w.total_tuples(), stats.phases.total());
            row[alg.name()] = serde_json::json!(tput);
        }
        if cols == 8 {
            phj_ratio_at_8 =
                total_of(&results, Algorithm::PhjUm) / total_of(&results, Algorithm::PhjOm);
            smj_ratio_at_8 =
                total_of(&results, Algorithm::SmjUm) / total_of(&results, Algorithm::SmjOm);
        }
        report.push(row);
    }
    report.claim(
        Claim::new("phj_om_over_um_8_cols", phj_ratio_at_8)
            .near(2.0, 0.25)
            .says(format!(
                "at 8 payload columns, PHJ-OM holds a {phj_ratio_at_8:.2}x speedup over PHJ-UM \
                 (paper: ~2x maintained as columns grow)"
            )),
    );
    report.claim(
        Claim::new("smj_om_over_um_8_cols", smj_ratio_at_8)
            .near(1.3, 0.15)
            .says(format!(
                "at 8 payload columns, SMJ-OM holds a {smj_ratio_at_8:.2}x speedup over SMJ-UM \
                 (paper: ~1.3x)"
            )),
    );
    report
}
