//! G2 (SIGMOD extension): grouped aggregation under key skew. The global
//! hash table serializes its atomics on the hottest group; the partitioned
//! and sort-based variants are distribution-robust — the aggregation analog
//! of Figure 14.

use crate::{mtps, Claim, Report, Session};
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use workloads::agg::AggWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("g02", "Grouped aggregation under key skew", session);
    let dev = session.device();
    let n = session.tuples();
    let mut hash = (0.0f64, 0.0f64);
    let mut part = (0.0f64, 0.0f64);
    for zipf in [0.0f64, 0.5, 1.0, 1.5, 1.75] {
        let w = AggWorkload {
            zipf,
            ..AggWorkload::uniform(n, 1 << 16)
        };
        let input = w.generate(&dev);
        let mut row = serde_json::json!({"zipf": zipf});
        for alg in GroupByAlgorithm::ALL {
            let out =
                groupby::run_group_by(&dev, alg, &input, &[AggFn::Sum], &GroupByConfig::default());
            let tput = mtps(n, out.stats.phases.total());
            row[alg.name()] = serde_json::json!(tput);
            if alg == GroupByAlgorithm::HashGlobal {
                if zipf == 0.0 {
                    hash.0 = tput;
                }
                hash.1 = tput;
            }
            if alg == GroupByAlgorithm::PartitionedGftr {
                if zipf == 0.0 {
                    part.0 = tput;
                }
                part.1 = tput;
            }
        }
        report.push(row);
    }
    let hash_loss = hash.0 / hash.1;
    report.claim(Claim::new("hash_skew_loss", hash_loss).says(format!(
        "hash aggregation loses {hash_loss:.1}x of its throughput under Zipf 1.75 (atomic \
         hotspot)"
    )));
    let part_drift = part.0 / part.1;
    report.claim(
        Claim::new("partitioned_skew_drift", part_drift).says(format!(
            "partitioned aggregation stays within {part_drift:.2}x of its uniform throughput"
        )),
    );
    report
}
