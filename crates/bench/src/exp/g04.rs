//! G4 (SIGMOD extension): join + grouped-aggregation pipelines — the shape
//! of TPC-H Q18 (orders ⋈ lineitem, then SUM(quantity) per order). Compares
//! join-algorithm × aggregation-algorithm combinations end to end.

use crate::{mtps, Claim, Report, Session};
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
            if total.secs() < best.1 {
                best = (
                    format!("{}+{}", join_alg.name(), group_alg.name()),
                    total.secs(),
                );
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
    let (best, best_s) = best;
    report
        .claim(Claim::new("fastest_pipeline_s", best_s).says(format!("fastest pipeline: {best}")));
    report
}
