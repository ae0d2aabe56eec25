//! G1 (SIGMOD extension): grouped-aggregation throughput vs group count.
//! Few groups: the global hash table is L2-resident and unbeatable. Many
//! groups: its random misses dominate and the transform-based variants win.

use crate::{mtps, Claim, Report, Session};
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use workloads::agg::AggWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("g01", "Grouped aggregation vs number of groups", session);
    let dev = session.device();
    let n = session.tuples();
    let mut hash_small = 0.0;
    let mut hash_large = 0.0;
    let mut best_large = (GroupByAlgorithm::HashGlobal, 0.0f64);
    let sweep: Vec<usize> = (4..session.scale_log2().saturating_sub(1))
        .step_by(4)
        .map(|b| 1usize << b)
        .collect();
    for &groups in &sweep {
        let w = AggWorkload::uniform(n, groups);
        let input = w.generate(&dev);
        let mut row = serde_json::json!({"groups": groups});
        for alg in GroupByAlgorithm::ALL {
            let out =
                groupby::run_group_by(&dev, alg, &input, &[AggFn::Sum], &GroupByConfig::default());
            let tput = mtps(n, out.stats.phases.total());
            row[alg.name()] = serde_json::json!(tput);
            if alg == GroupByAlgorithm::HashGlobal {
                if groups == sweep[0] {
                    hash_small = tput;
                }
                hash_large = tput;
            }
            if groups == *sweep.last().unwrap() && tput > best_large.1 {
                best_large = (alg, tput);
            }
        }
        report.push(row);
    }
    let slowdown = hash_small / hash_large;
    report.claim(Claim::new("hash_slowdown", slowdown).says(format!(
        "the global hash aggregation slows down {slowdown:.1}x from {} to {} groups \
         (L2 residency lost)",
        sweep[0],
        sweep.last().unwrap()
    )));
    let (best, best_mtps) = best_large;
    report.claim(
        Claim::new("best_at_most_groups_mtps", best_mtps).says(format!(
            "at the largest group count the best variant is {}",
            best.name()
        )),
    );
    report
}
