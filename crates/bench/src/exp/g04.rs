//! G4 (SIGMOD extension): join + grouped-aggregation pipelines — the shape
//! of TPC-H Q18 (orders ⋈ lineitem, then SUM(quantity) per order). Compares
//! join-algorithm × aggregation-algorithm combinations end to end.

use crate::{mtps, Report, Session};
use gpu_join::pipeline::{join_then_group_by, GroupKey, PipelineSpec};
use groupby::{AggFn, GroupByAlgorithm};
use joins::Algorithm;
use workloads::JoinWorkload;

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("g04", "Join + grouped aggregation pipelines", session);
    let dev = session.device();
    let n = session.tuples();
    let w = JoinWorkload {
        s_tuples: n * 2,
        ..JoinWorkload::wide(n)
    };
    println!(
        "G4 — Q18-shaped pipeline: {} ⋈ {} then SUM per key ({})\n",
        w.r_tuples, w.s_tuples, report.device
    );
    println!(
        "{:<12} {:<10} {:>12} {:>12} {:>12}",
        "join", "groupby", "join time", "agg time", "M rows/s"
    );

    let group_algs = [
        GroupByAlgorithm::HashGlobal,
        GroupByAlgorithm::SortGftr,
        GroupByAlgorithm::PartitionedGftr,
    ];
    let mut best = (String::new(), f64::INFINITY);
    for join_alg in [Algorithm::PhjUm, Algorithm::PhjOm, Algorithm::SmjOm] {
        for group_alg in group_algs {
            let (r, s) = w.generate(&dev);
            let out = join_then_group_by(
                &dev,
                &r,
                &s,
                &PipelineSpec::new(
                    join_alg,
                    GroupKey::JoinKey,
                    group_alg,
                    &[AggFn::Sum, AggFn::Sum, AggFn::Sum, AggFn::Sum],
                ),
            );
            let total = out.total_time();
            let tput = mtps(w.total_tuples(), total);
            println!(
                "{:<12} {:<10} {:>12} {:>12} {:>12.1}",
                join_alg.name(),
                group_alg.name(),
                out.join_stats.phases.total().to_string(),
                out.groups.stats.phases.total().to_string(),
                tput
            );
            let label = format!("{}+{}", join_alg.name(), group_alg.name());
            if total.secs() < best.1 {
                best = (label.clone(), total.secs());
            }
            report.push(serde_json::json!({
                "join": join_alg.name(),
                "groupby": group_alg.name(),
                "join_s": out.join_stats.phases.total().secs(),
                "agg_s": out.groups.stats.phases.total().secs(),
                "mtps": tput,
                "groups": out.groups.len(),
            }));
        }
    }
    println!();
    report.finding(format!("fastest pipeline: {}", best.0));
    report
}
