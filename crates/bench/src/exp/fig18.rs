//! Figure 18: the decision trees, validated against measured winners over a
//! grid of workload shapes. For each grid point we run all four GPU
//! implementations and check how close the tree's pick lands to the best.

use crate::exp::run_algorithms;
use crate::{Report, Session};
use columnar::DType;
use heuristics::{choose_join, choose_smj, profile_of};
use joins::{Algorithm, JoinConfig};
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("fig18", "Decision trees vs measured winners", session);
    let dev = session.device();
    let n = session.tuples();
    println!(
        "Figure 18 — decision-tree validation over a workload grid, |R| = {} ({})\n",
        n, report.device
    );
    println!(
        "{:<42} {:>9} {:>9} {:>9} {:>8}",
        "workload", "predicted", "best", "gap", "ok?"
    );

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
                    let rec_t = results
                        .iter()
                        .find(|(a, _)| *a == rec.algorithm)
                        .unwrap()
                        .1
                        .phases
                        .total()
                        .secs();
                    let gap = rec_t / best_t;
                    let ok = gap <= 1.35;
                    within += ok as usize;
                    total += 1;
                    let label = format!(
                        "{} match={match_ratio} zipf={zipf} key={key}",
                        if wide { "wide(3)" } else { "narrow" },
                    );
                    println!(
                        "{:<42} {:>9} {:>9} {:>8.2}x {:>8}",
                        label,
                        rec.algorithm.name(),
                        best.name(),
                        gap,
                        if ok { "yes" } else { "NO" }
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
    println!();
    report.finding(format!(
        "the decision tree lands within 1.35x of the measured best on {within}/{total} \
         grid points"
    ));
    report
}
