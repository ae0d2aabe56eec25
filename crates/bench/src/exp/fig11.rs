//! Figure 11: effect of the |R|/|S| size ratio on wide joins (|S| fixed).

use crate::exp::{run_algorithms, total_of};
use crate::{mtps, Claim, Report, Session};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig11", "Effect of |R|/|S|", session);
    let dev = session.device();
    let s_tuples = session.tuples();
    let mut om_always_ahead = true;
    for denom in [8usize, 4, 2, 1] {
        let w = JoinWorkload {
            r_tuples: s_tuples / denom,
            s_tuples,
            ..JoinWorkload::wide(s_tuples / denom)
        };
        let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
        let mut row = serde_json::json!({"r_over_s": 1.0 / denom as f64});
        for (alg, stats) in &results {
            let tput = mtps(w.total_tuples(), stats.phases.total());
            row[alg.name()] = serde_json::json!(tput);
        }
        if total_of(&results, Algorithm::PhjOm) > total_of(&results, Algorithm::PhjUm) {
            om_always_ahead = false;
        }
        report.push(row);
    }
    report.claim(
        Claim::yes_no("om_ahead_every_ratio", om_always_ahead)
            .paper(1.0)
            .band(1.0, 1.0)
            .says(format!(
                "*-OM outperform *-UM across all size ratios: {om_always_ahead} (paper: yes, \
                 even when R is small)"
            )),
    );
    report
}
