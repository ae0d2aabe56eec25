//! Figure 18: the decision trees, validated against measured winners over a
//! grid of workload shapes. For each grid point we run all four GPU
//! implementations and check how close the tree's pick lands to the best.

use crate::exp::{run_algorithms, total_of};
use crate::{Claim, Report, Session};
use columnar::DType;
use heuristics::{choose_join, choose_smj, profile_of};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig18", "Decision trees vs measured winners", session);
    let dev = session.device();
    let n = session.tuples();
    let mut within = 0usize;
    let mut total = 0usize;
    for wide in [false, true] {
        for &match_ratio in &[1.0, 0.1] {
            for &zipf in &[0.0, 1.5] {
                for &key in &[DType::I32, DType::I64] {
                    let cols = if wide { 3 } else { 1 };
                    let w = JoinWorkload {
                        r_tuples: n,
                        s_tuples: n,
                        key_type: key,
                        r_payloads: vec![key; cols],
                        s_payloads: vec![key; cols],
                        match_ratio,
                        zipf,
                        ..JoinWorkload::narrow(n)
                    };
                    let results =
                        run_algorithms(&dev, &w, &Algorithm::GPU_VARIANTS, &JoinConfig::default());
                    let (best, best_t) = results
                        .iter()
                        .map(|(a, s)| (*a, s.phases.total().secs()))
                        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                        .unwrap();
                    let (r, s) = w.generate(&dev);
                    let profile = profile_of(&r, &s, match_ratio, zipf, dev.config().l2_bytes);
                    let rec = choose_join(&profile);
                    let gap = total_of(&results, rec.algorithm) / best_t;
                    within += usize::from(gap <= 1.35);
                    total += 1;
                    let label = format!(
                        "{} match={match_ratio} zipf={zipf} key={key}",
                        if wide { "wide(3)" } else { "narrow" },
                    );
                    report.push(serde_json::json!({
                        "workload": label,
                        "predicted": rec.algorithm.name(),
                        "best": best.name(),
                        "gap": gap,
                        "smj_subtree": choose_smj(&profile).algorithm.name(),
                    }));
                }
            }
        }
    }
    // The paper derives its trees from the measured winners: every grid
    // point.
    report.claim(
        Claim::new("tree_within_1_35x_points", within as f64)
            .paper(total as f64)
            .band(total as f64, total as f64)
            .says(format!(
                "the decision tree lands within 1.35x of the measured best on {within}/{total} \
                 grid points"
            )),
    );
    report
}
