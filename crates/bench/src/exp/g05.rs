//! G5 (SIGMOD extension): grouped aggregation across data-type mixes,
//! the aggregation analog of Figure 15 — 8-byte columns double the
//! transform cost of the GFTR variants while the hash table barely notices.

use crate::{mtps, Claim, Report, Session};
use columnar::DType;
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use workloads::agg::AggWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("g05", "Grouped aggregation data types", session);
    let dev = session.device();
    let n = session.tuples();
    let mut sort_4b = 0.0;
    let mut sort_8b = 0.0;
    for (key, val, label) in [
        (DType::I32, DType::I32, "4B key + 4B values"),
        (DType::I32, DType::I64, "4B key + 8B values"),
        (DType::I64, DType::I64, "8B key + 8B values"),
    ] {
        let w = AggWorkload {
            key_type: key,
            payloads: vec![val; 2],
            ..AggWorkload::uniform(n, 1 << 16)
        };
        let input = w.generate(&dev);
        let mut row = serde_json::json!({"types": label});
        for alg in GroupByAlgorithm::ALL {
            let out = groupby::run_group_by(
                &dev,
                alg,
                &input,
                &[AggFn::Sum, AggFn::Sum],
                &GroupByConfig::default(),
            );
            let tput = mtps(n, out.stats.phases.total());
            row[alg.name()] = serde_json::json!(tput);
            if alg == GroupByAlgorithm::SortGftr {
                if val == DType::I32 {
                    sort_4b = tput;
                } else if key == DType::I64 {
                    sort_8b = tput;
                }
            }
        }
        report.push(row);
    }
    let loss = sort_4b / sort_8b;
    report.claim(Claim::new("sort_gftr_8b_loss", loss).says(format!(
        "sort-GFTR loses {loss:.1}x of its throughput moving from all-4B to all-8B (wider \
         sorting passes, the Figure 15 effect)"
    )));
    report
}
