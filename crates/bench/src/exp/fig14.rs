//! Figure 14: effect of foreign-key skewness (Zipf factor sweep). The
//! bucket-chain partitioner (PHJ-UM) collapses past Zipf ≈ 1 under atomic
//! serialization; the stable RADIX-PARTITION (PHJ-OM, SMJ-*) stays flat.

use crate::exp::{run_algorithms, total_of};
use crate::{mtps, Claim, Report, Session};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig14", "Effect of foreign key skewness", session);
    let dev = session.device();
    let n = session.tuples();
    let mut phj_um_flat = (0.0f64, 0.0f64); // (t at zipf 0, t at max zipf)
    let mut phj_om_flat = (0.0f64, 0.0f64);
    let mut om_always_best = true;
    for zipf in [0.0f64, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75] {
        let w = JoinWorkload {
            r_tuples: n,
            s_tuples: n,
            zipf,
            ..JoinWorkload::wide(n)
        };
        let results = run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
        let mut row = serde_json::json!({"zipf": zipf});
        for (alg, stats) in &results {
            let tput = mtps(w.total_tuples(), stats.phases.total());
            row[alg.name()] = serde_json::json!(tput);
        }
        let um = total_of(&results, Algorithm::PhjUm);
        let om = total_of(&results, Algorithm::PhjOm);
        if zipf == 0.0 {
            phj_um_flat.0 = um;
            phj_om_flat.0 = om;
        }
        phj_um_flat.1 = um;
        phj_om_flat.1 = om;
        if results
            .iter()
            .any(|(a, s)| *a != Algorithm::PhjOm && s.phases.total().secs() < om)
        {
            om_always_best = false;
        }
        report.push(row);
    }
    let um_slowdown = phj_um_flat.1 / phj_um_flat.0;
    report.claim(
        Claim::new("phj_um_skew_slowdown", um_slowdown)
            .band(2.0, f64::INFINITY)
            .says(format!(
                "PHJ-UM slows down {um_slowdown:.1}x from Zipf 0 to 1.75 (paper: bucket chaining \
                 is 'particularly sensitive to data skewness')"
            )),
    );
    let om_drift = phj_om_flat.1 / phj_om_flat.0;
    report.claim(
        Claim::new("phj_om_skew_drift", om_drift)
            .paper(1.0)
            .band(0.8, 1.25)
            .says(format!(
                "PHJ-OM stays within {om_drift:.2}x of its uniform performance across the sweep \
                 (paper: RADIX-PARTITION is distribution-robust)"
            )),
    );
    report.claim(
        Claim::yes_no("phj_om_best_every_zipf", om_always_best)
            .paper(1.0)
            .band(1.0, 1.0)
            .says(format!(
                "PHJ-OM is the best implementation at every Zipf factor: {om_always_best} \
                 (paper: yes)"
            )),
    );
    report
}
