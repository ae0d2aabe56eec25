//! G3 (SIGMOD extension): wide aggregations — GFTR vs GFUR materialization
//! as the number of aggregated columns grows, the aggregation analog of
//! Figure 12.

use crate::{mtps, Claim, Report, Session};
use columnar::DType;
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use workloads::agg::AggWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("g03", "Wide aggregations: GFTR vs GFUR", session);
    let dev = session.device();
    let n = session.tuples();
    let mut sort_ratio_at_8 = 0.0;
    for cols in [1usize, 2, 4, 8] {
        let w = AggWorkload {
            payloads: vec![DType::I32; cols],
            ..AggWorkload::uniform(n, 1 << 18)
        };
        let input = w.generate(&dev);
        let aggs = vec![AggFn::Sum; cols];
        let mut row = serde_json::json!({"cols": cols});
        let mut om = 0.0;
        let mut um = 0.0;
        for alg in GroupByAlgorithm::ALL {
            let out = groupby::run_group_by(&dev, alg, &input, &aggs, &GroupByConfig::default());
            let tput = mtps(n, out.stats.phases.total());
            row[alg.name()] = serde_json::json!(tput);
            if alg == GroupByAlgorithm::SortGftr {
                om = tput;
            }
            if alg == GroupByAlgorithm::SortGfur {
                um = tput;
            }
        }
        if cols == 8 {
            sort_ratio_at_8 = om / um;
        }
        report.push(row);
    }
    report.claim(
        Claim::new("sort_gftr_over_gfur_8_cols", sort_ratio_at_8).says(format!(
            "at 8 aggregated columns, sort-GFTR is {sort_ratio_at_8:.2}x faster than sort-GFUR \
             (transforming every column beats unclustered gathers)"
        )),
    );
    report
}
