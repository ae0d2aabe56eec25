//! G3 (SIGMOD extension): wide aggregations — GFTR vs GFUR materialization
//! as the number of aggregated columns grows, the aggregation analog of
//! Figure 12.

use crate::{mtps, Report, Session};
use columnar::DType;
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use workloads::agg::AggWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("g03", "Wide aggregations: GFTR vs GFUR", session);
    let dev = session.device();
    let n = session.tuples();
    println!(
        "G3 — SUM over k columns, {} rows, 2^18 groups, k swept ({})\n",
        n, report.device
    );
    print!("{:<8}", "cols");
    for alg in GroupByAlgorithm::ALL {
        print!(" {:>10}", alg.name());
    }
    println!("  (M rows/s)");

    let mut sort_ratio_at_8 = 0.0;
    for cols in [1usize, 2, 4, 8] {
        let w = AggWorkload {
            payloads: vec![DType::I32; cols],
            ..AggWorkload::uniform(n, 1 << 18)
        };
        let input = w.generate(&dev);
        let aggs = vec![AggFn::Sum; cols];
        print!("{cols:<8}");
        let mut row = serde_json::json!({"cols": cols});
        let mut om = 0.0;
        let mut um = 0.0;
        for alg in GroupByAlgorithm::ALL {
            let out = groupby::run_group_by(&dev, alg, &input, &aggs, &GroupByConfig::default());
            let tput = mtps(n, out.stats.phases.total());
            print!(" {tput:>10.1}");
            row[alg.name()] = serde_json::json!(tput);
            if alg == GroupByAlgorithm::SortGftr {
                om = tput;
            }
            if alg == GroupByAlgorithm::SortGfur {
                um = tput;
            }
        }
        println!();
        if cols == 8 {
            sort_ratio_at_8 = om / um;
        }
        report.push(row);
    }
    println!();
    report.finding(format!(
        "at 8 aggregated columns, sort-GFTR is {sort_ratio_at_8:.2}x faster than sort-GFUR \
         (transforming every column beats unclustered gathers)"
    ));
    report
}
