//! G6 (SIGMOD extension): whole query segments through the engine — the
//! operator choices of the paper measured where they actually live, inside
//! scan/filter/join/aggregate plans. Reports per-query times with the join
//! implementation pinned to each variant vs the decision tree's pick.

use crate::{Claim, Report, Session};
use engine::demo::{q18_like, q1_like, q3_like, tpch_mini};
use engine::{execute, Plan};
use joins::Algorithm;

fn pin_joins(plan: Plan, alg: Algorithm) -> Plan {
    match plan {
        Plan::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            ..
        } => Plan::Join {
            left: Box::new(pin_joins(*left, alg)),
            right: Box::new(pin_joins(*right, alg)),
            left_key,
            right_key,
            kind,
            algorithm: Some(alg),
        },
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(pin_joins(*input, alg)),
            predicate,
        },
        Plan::Project { input, exprs } => Plan::Project {
            input: Box::new(pin_joins(*input, alg)),
            exprs,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            algorithm,
        } => Plan::Aggregate {
            input: Box::new(pin_joins(*input, alg)),
            group_by,
            aggs,
            algorithm,
        },
        Plan::Sort {
            input,
            by,
            desc,
            limit,
        } => Plan::Sort {
            input: Box::new(pin_joins(*input, alg)),
            by,
            desc,
            limit,
        },
        Plan::Limit { input, count } => Plan::Limit {
            input: Box::new(pin_joins(*input, alg)),
            count,
        },
        Plan::Distinct { input, column } => Plan::Distinct {
            input: Box::new(pin_joins(*input, alg)),
            column,
        },
        scan @ Plan::Scan { .. } => scan,
    }
}

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new("g06", "Query segments through the engine", session);
    let dev = session.device();
    let orders = session.tuples() / 8; // lineitem = orders * 4 rows
    let catalog = tpch_mini(&dev, orders, 99);
    for (name, plan) in [
        ("Q1-like (no join)", q1_like()),
        ("Q3-like (2 joins + agg)", q3_like()),
        ("Q18-like (join + agg + having)", q18_like()),
    ] {
        let mut row = serde_json::json!({"query": name});
        let mut auto_t = 0.0;
        let mut best_pinned = f64::INFINITY;
        for pick in [
            Some(Algorithm::SmjOm),
            Some(Algorithm::PhjUm),
            Some(Algorithm::PhjOm),
            None,
        ] {
            let p = match pick {
                Some(alg) => pin_joins(plan.clone(), alg),
                None => plan.clone(),
            };
            let out = execute(&dev, &catalog, &p).expect("demo plans bind");
            let t = out.stats.total_time().secs();
            let label = pick.map_or("auto", |a| a.name());
            if pick.is_none() && session.observing() {
                session.record_explain(
                    &format!("g06 {name} (auto)"),
                    &engine::QueryExplain::from_stats(dev.config(), &out.stats),
                );
            }
            row[label] = serde_json::json!(t);
            if pick.is_none() {
                auto_t = t;
            } else {
                best_pinned = best_pinned.min(t);
            }
        }
        report.push(row);
        if name.contains("Q18") {
            let gap = auto_t / best_pinned;
            report.claim(Claim::new("q18_auto_gap", gap).says(format!(
                "on the Q18 segment, the decision tree's pick lands within {gap:.2}x of the \
                 best pinned join implementation"
            )));
        }
    }
    report
}
