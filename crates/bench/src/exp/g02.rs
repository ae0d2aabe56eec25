//! G2 (SIGMOD extension): grouped aggregation under key skew. The global
//! hash table serializes its atomics on the hottest group; the partitioned
//! and sort-based variants are distribution-robust — the aggregation analog
//! of Figure 14.

use crate::{mtps, Report, Session};
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use workloads::agg::AggWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("g02", "Grouped aggregation under key skew", session);
    let dev = session.device();
    let n = session.tuples();
    println!(
        "G2 — SUM over one column, {} rows, 2^16 groups, Zipf swept ({})\n",
        n, report.device
    );
    print!("{:<8}", "zipf");
    for alg in GroupByAlgorithm::ALL {
        print!(" {:>10}", alg.name());
    }
    println!("  (M rows/s)");

    let mut hash = (0.0f64, 0.0f64);
    let mut part = (0.0f64, 0.0f64);
    for zipf in [0.0f64, 0.5, 1.0, 1.5, 1.75] {
        let w = AggWorkload {
            zipf,
            ..AggWorkload::uniform(n, 1 << 16)
        };
        let input = w.generate(&dev);
        print!("{zipf:<8}");
        let mut row = serde_json::json!({"zipf": zipf});
        for alg in GroupByAlgorithm::ALL {
            let out =
                groupby::run_group_by(&dev, alg, &input, &[AggFn::Sum], &GroupByConfig::default());
            let tput = mtps(n, out.stats.phases.total());
            print!(" {tput:>10.1}");
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
        println!();
        report.push(row);
    }
    println!();
    report.finding(format!(
        "hash aggregation loses {:.1}x of its throughput under Zipf 1.75 (atomic hotspot)",
        hash.0 / hash.1
    ));
    report.finding(format!(
        "partitioned aggregation stays within {:.2}x of its uniform throughput",
        part.0 / part.1
    ));
    report
}
