//! G4 (SIGMOD extension): join + grouped-aggregation pipelines — the shape
//! of TPC-H Q18 (orders ⋈ lineitem, then SUM(quantity) per order). Compares
//! join-algorithm × aggregation-algorithm combinations end to end.

use crate::{mtps, Claim, Report, Session};
use columnar::Relation;
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use joins::{Algorithm, JoinConfig};
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
            let join = joins::run_join(&dev, join_alg, &r, &s, &JoinConfig::default());
            // Group the join output by its key and SUM every payload: R's,
            // then S's.
            let payloads = join.r_payloads.into_iter().chain(join.s_payloads).collect();
            let input = Relation::new("joined", join.keys, payloads);
            let groups = groupby::run_group_by(
                &dev,
                group_alg,
                &input,
                &[AggFn::Sum; 4],
                &GroupByConfig::default(),
            );
            let total = join.stats.total_time() + groups.stats.total_time();
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
                "join_s": join.stats.phases.total().secs(),
                "agg_s": groups.stats.phases.total().secs(),
                "mtps": tput,
                "groups": groups.len(),
            }));
        }
    }
    let (best, best_s) = best;
    report
        .claim(Claim::new("fastest_pipeline_s", best_s).says(format!("fastest pipeline: {best}")));
    report
}
