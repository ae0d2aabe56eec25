//! Logical query plans: the operator tree the executor walks.

use crate::Expr;
use groupby::{AggFn, GroupByAlgorithm};
use joins::{Algorithm, JoinKind};
use std::collections::HashMap;

/// One aggregate in an [`Plan::Aggregate`] node.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Aggregate function.
    pub agg: AggFn,
    /// Input column name.
    pub column: String,
    /// Output column name.
    pub output: String,
}

impl AggSpec {
    /// Shorthand constructor.
    pub fn new(agg: AggFn, column: impl Into<String>, output: impl Into<String>) -> Self {
        AggSpec {
            agg,
            column: column.into(),
            output: output.into(),
        }
    }
}

/// A logical plan node. Build trees with the fluent helpers
/// ([`Plan::scan`], [`Plan::filter`], ...).
#[derive(Debug, Clone)]
pub enum Plan {
    /// Read a catalog table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Keep rows where the predicate holds.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Boolean expression.
        predicate: Expr,
    },
    /// Compute output columns from expressions.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(output name, expression)` pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Equi-join two inputs. The left side is the build side.
    Join {
        /// Build-side plan.
        left: Box<Plan>,
        /// Probe-side plan.
        right: Box<Plan>,
        /// Build-side key column.
        left_key: String,
        /// Probe-side key column.
        right_key: String,
        /// Join semantics.
        kind: JoinKind,
        /// Pin an implementation; `None` lets the Figure 18 decision tree
        /// choose.
        algorithm: Option<Algorithm>,
    },
    /// Order by one column, optionally keeping only the first rows — the
    /// `ORDER BY ... LIMIT` tail of most TPC queries.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort-key column name.
        by: String,
        /// Descending order.
        desc: bool,
        /// Keep only the first `limit` rows after sorting.
        limit: Option<usize>,
    },
    /// Keep only the first `count` rows of the input, in input order — the
    /// standalone `LIMIT` tail (a `Sort` already folds its own limit in).
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Rows to keep.
        count: usize,
    },
    /// Distinct rows of a single column (grouping with no aggregates).
    Distinct {
        /// Input plan.
        input: Box<Plan>,
        /// Column to deduplicate.
        column: String,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Group-key column name.
        group_by: String,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
        /// Pin an implementation; `None` lets the grouped-aggregation
        /// decision tree choose from sampled statistics.
        algorithm: Option<GroupByAlgorithm>,
    },
}

impl Plan {
    /// Scan a catalog table.
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
        }
    }

    /// Filter this plan's output.
    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Project this plan's output.
    pub fn project(self, exprs: Vec<(&str, Expr)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
        }
    }

    /// Inner-join this plan (as build side) with `right` (probe side).
    pub fn join(self, right: Plan, left_key: &str, right_key: &str) -> Plan {
        self.join_kind(right, left_key, right_key, JoinKind::Inner)
    }

    /// Join with explicit semantics.
    pub fn join_kind(self, right: Plan, left_key: &str, right_key: &str, kind: JoinKind) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_key: left_key.to_string(),
            right_key: right_key.to_string(),
            kind,
            algorithm: None,
        }
    }

    /// Pin the join implementation of the topmost Join node.
    pub fn with_join_algorithm(mut self, alg: Algorithm) -> Plan {
        if let Plan::Join { algorithm, .. } = &mut self {
            *algorithm = Some(alg);
        }
        self
    }

    /// Order this plan's output by `by` (ascending unless `desc`), keeping
    /// only `limit` rows if given.
    pub fn sort_by(self, by: &str, desc: bool, limit: Option<usize>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            by: by.to_string(),
            desc,
            limit,
        }
    }

    /// Keep only the first `count` rows of this plan's output.
    pub fn limit(self, count: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            count,
        }
    }

    /// Deduplicate one column of this plan's output.
    pub fn distinct(self, column: &str) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
            column: column.to_string(),
        }
    }

    /// Group this plan's output.
    pub fn aggregate(self, group_by: &str, aggs: Vec<AggSpec>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by: group_by.to_string(),
            aggs,
            algorithm: None,
        }
    }

    /// Pin the aggregation implementation of the topmost Aggregate node.
    pub fn with_group_algorithm(mut self, alg: GroupByAlgorithm) -> Plan {
        if let Plan::Aggregate { algorithm, .. } = &mut self {
            *algorithm = Some(alg);
        }
        self
    }

    /// Human-readable one-line description of the node (for stats).
    pub fn label(&self) -> String {
        match self {
            Plan::Scan { table } => format!("Scan({table})"),
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::Project { .. } => "Project".to_string(),
            Plan::Join {
                left_key,
                right_key,
                kind,
                ..
            } => format!("Join({left_key}={right_key}, {})", kind.name()),
            Plan::Aggregate { group_by, .. } => format!("Aggregate(by {group_by})"),
            Plan::Sort {
                by, desc, limit, ..
            } => format!(
                "Sort(by {by}{}{})",
                if *desc { " desc" } else { "" },
                limit.map_or(String::new(), |l| format!(", limit {l}"))
            ),
            Plan::Limit { count, .. } => format!("Limit({count})"),
            Plan::Distinct { column, .. } => format!("Distinct({column})"),
        }
    }
}

/// The output columns of a [`Plan::Join`] whose inputs have columns `left`
/// and `right`, as `(output name, side, input name)` with side 0 = left:
/// the key under the left name, the left payloads, then the right payloads
/// (each side's payloads are its columns but the first one named after its
/// key), repeated names suffixed `_n` in output order. The join operator
/// names its output this way, and the SQL binder and lowering derive join
/// schemas from it.
pub fn join_output_columns(
    left: &[String],
    right: &[String],
    left_key: &str,
    right_key: &str,
) -> Vec<(String, usize, String)> {
    fn payloads<'a>(
        side: usize,
        cols: &'a [String],
        key: &str,
    ) -> impl Iterator<Item = (usize, &'a str)> {
        let at = cols.iter().position(|n| n == key);
        cols.iter()
            .enumerate()
            .filter(move |(i, _)| Some(*i) != at)
            .map(move |(_, n)| (side, n.as_str()))
    }
    let named = std::iter::once((0, left_key))
        .chain(payloads(0, left, left_key))
        .chain(payloads(1, right, right_key));
    let mut used: HashMap<&str, usize> = HashMap::new();
    let mut cols = Vec::new();
    for (side, n) in named {
        let seen = used.entry(n).or_insert(0);
        *seen += 1;
        let out = if *seen == 1 {
            n.to_string()
        } else {
            format!("{n}_{seen}")
        };
        cols.push((out, side, n.to_string()));
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let p = Plan::scan("orders")
            .filter(Expr::col("qty").gt(Expr::lit(5)))
            .join(Plan::scan("lineitem"), "o_id", "l_oid")
            .with_join_algorithm(Algorithm::PhjOm)
            .aggregate("o_id", vec![AggSpec::new(AggFn::Sum, "qty", "total")])
            .with_group_algorithm(GroupByAlgorithm::SortGftr);
        match &p {
            Plan::Aggregate {
                input, algorithm, ..
            } => {
                assert_eq!(*algorithm, Some(GroupByAlgorithm::SortGftr));
                match input.as_ref() {
                    Plan::Join { algorithm, .. } => {
                        assert_eq!(*algorithm, Some(Algorithm::PhjOm))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.label().starts_with("Aggregate"));
    }
}
