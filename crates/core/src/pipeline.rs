//! Query-shaped pipelines: join then grouped aggregation — the shape of the
//! TPC-H aggregation queries whose joins the paper extracts (e.g. Q18 groups
//! the join result it studies as J2).
//!
//! This is a thin wrapper over the engine's physical-operator layer
//! ([`engine::op`]): the relations enter as [`engine::op::ValuesOp`] leaves,
//! flow through a [`engine::op::JoinOp`] and an
//! [`engine::op::AggregateOp`], and come back with the shared per-operator
//! stats tree — the same execution path, memory budgeting and reporting as
//! full `engine` query plans.

use columnar::{Column, Relation};
use engine::op::{run_operator, AggregateOp, ExecContext, JoinOp, ValuesOp};
use engine::{AggSpec, NodeStats, Table};
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig, GroupByOutput};
use joins::{Algorithm, JoinConfig};
use sim::{Device, OpStats};

/// Which column of the join output becomes the group key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKey {
    /// Group by the join key itself.
    JoinKey,
    /// Group by the `i`-th payload column of R in the join output.
    RPayload(usize),
    /// Group by the `i`-th payload column of S in the join output.
    SPayload(usize),
}

/// Everything a join → group-by pipeline needs beyond its input relations.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Join implementation.
    pub join_algorithm: Algorithm,
    /// Join tuning knobs (semantics, radix bits, ...).
    pub join_config: JoinConfig,
    /// Which join-output column becomes the group key.
    pub group_key: GroupKey,
    /// Grouped-aggregation implementation.
    pub group_algorithm: GroupByAlgorithm,
    /// One aggregate per join-output payload column, in
    /// `[join key (when not the group key), r payloads..., s payloads...]`
    /// order, *excluding* the group key column.
    pub aggs: Vec<AggFn>,
    /// Aggregation tuning knobs.
    pub group_config: GroupByConfig,
}

impl PipelineSpec {
    /// A spec with default join/aggregation configs.
    pub fn new(
        join_algorithm: Algorithm,
        group_key: GroupKey,
        group_algorithm: GroupByAlgorithm,
        aggs: &[AggFn],
    ) -> Self {
        PipelineSpec {
            join_algorithm,
            join_config: JoinConfig::default(),
            group_key,
            group_algorithm,
            aggs: aggs.to_vec(),
            group_config: GroupByConfig::default(),
        }
    }
}

/// Result of a join → group-by pipeline.
pub struct PipelineOutput {
    /// The grouped aggregation result.
    pub groups: GroupByOutput,
    /// Statistics of the join stage.
    pub join_stats: OpStats,
    /// Output cardinality of the join stage.
    pub join_rows: usize,
    /// The full per-operator stats tree (aggregate → join → inputs), as the
    /// engine reports it.
    pub stats: NodeStats,
}

impl PipelineOutput {
    /// Total simulated time across both stages.
    pub fn total_time(&self) -> sim::SimTime {
        self.stats.total_time()
    }
}

/// Join `r ⋈ s`, then group the result by `spec.group_key` and aggregate
/// the remaining payload columns with `spec.aggs`, all through the engine's
/// operator layer. Panics if `spec.aggs` does not have exactly one entry
/// per non-key join-output payload column.
pub fn join_then_group_by(
    dev: &Device,
    r: &Relation,
    s: &Relation,
    spec: &PipelineSpec,
) -> PipelineOutput {
    let gk_name = match spec.group_key {
        GroupKey::JoinKey => "__k".to_string(),
        GroupKey::RPayload(i) => format!("__r{i}"),
        GroupKey::SPayload(i) => format!("__s{i}"),
    };
    // Aggregation targets in the join output, in the order the old
    // two-stage pipeline fed them: join key first, then R payloads, then S
    // payloads, with the group-key column carved out.
    let mut targets: Vec<String> = Vec::new();
    if spec.group_key != GroupKey::JoinKey {
        targets.push("__k".to_string());
    }
    for i in 0..r.num_payloads() {
        if spec.group_key != GroupKey::RPayload(i) {
            targets.push(format!("__r{i}"));
        }
    }
    for i in 0..s.num_payloads() {
        if spec.group_key != GroupKey::SPayload(i) {
            targets.push(format!("__s{i}"));
        }
    }
    assert_eq!(
        spec.aggs.len(),
        targets.len(),
        "need exactly one aggregate per non-key join-output payload column"
    );
    let agg_specs: Vec<AggSpec> = spec
        .aggs
        .iter()
        .zip(&targets)
        .enumerate()
        .map(|(j, (&agg, col))| AggSpec::new(agg, col.clone(), format!("a{j}")))
        .collect();

    let join = JoinOp::new(
        Box::new(ValuesOp::new(table_of(r, "__r"))),
        Box::new(ValuesOp::new(table_of(s, "__s"))),
        "__k",
        "__k",
        spec.join_config.clone(),
        Some(spec.join_algorithm),
    );
    let root = AggregateOp::new(
        Box::new(join),
        &gk_name,
        agg_specs,
        spec.group_config.clone(),
        Some(spec.group_algorithm),
    );
    let ctx = ExecContext::new(dev, None);
    let (table, stats) =
        run_operator(&ctx, &root).expect("pipeline operators bind by construction");

    // Unpack: first column is the group key, the rest are the aggregates.
    let mut cols = table.into_columns();
    let keys = cols.remove(0).1;
    let aggregates: Vec<Column> = cols.into_iter().map(|(_, c)| c).collect();
    let join_node = &stats.children[0];
    let groups = GroupByOutput {
        keys,
        aggregates,
        stats: stats.op.clone(),
    };
    PipelineOutput {
        groups,
        join_stats: join_node.op.clone(),
        join_rows: join_node.op.rows,
        stats,
    }
}

/// Name a relation's columns for the operator layer: key `__k`, payloads
/// `{prefix}{i}`.
fn table_of(rel: &Relation, prefix: &str) -> Table {
    let mut cols = vec![("__k".to_string(), rel.key().alias())];
    for (i, c) in rel.payloads().iter().enumerate() {
        cols.push((format!("{prefix}{i}"), c.alias()));
    }
    Table::from_columns(rel.name(), cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q18_shaped_pipeline() {
        // Orders ⋈ lineitem shape, then SUM(quantity) grouped by order key.
        let dev = Device::a100();
        let orders = Relation::new(
            "orders",
            Column::from_i32(&dev, vec![0, 1, 2, 3], "o_orderkey"),
            vec![Column::from_i32(
                &dev,
                vec![100, 101, 102, 103],
                "o_custkey",
            )],
        );
        let lineitem = Relation::new(
            "lineitem",
            Column::from_i32(&dev, vec![0, 0, 1, 2, 2, 2], "l_orderkey"),
            vec![Column::from_i32(
                &dev,
                vec![5, 7, 11, 1, 2, 3],
                "l_quantity",
            )],
        );
        let out = join_then_group_by(
            &dev,
            &orders,
            &lineitem,
            // o_custkey is functionally dependent; take MAX.
            &PipelineSpec::new(
                Algorithm::PhjOm,
                GroupKey::JoinKey,
                GroupByAlgorithm::SortGftr,
                &[AggFn::Max, AggFn::Sum],
            ),
        );
        assert_eq!(out.join_rows, 6);
        assert_eq!(
            out.groups.rows_sorted(),
            vec![vec![0, 100, 12], vec![1, 101, 11], vec![2, 102, 6]],
        );
        assert!(out.total_time().secs() > 0.0);
        // The stats tree reflects both stages with the shared record.
        assert!(out.stats.label.starts_with("Aggregate"));
        assert!(out.stats.children[0].label.starts_with("Join"));
        assert!(out.join_stats.counters.dram_bytes() > 0);
    }

    #[test]
    fn grouping_by_a_payload_column() {
        let dev = Device::a100();
        let r = Relation::new(
            "R",
            Column::from_i32(&dev, vec![0, 1], "k"),
            vec![Column::from_i32(&dev, vec![7, 7], "category")],
        );
        let s = Relation::new(
            "S",
            Column::from_i32(&dev, vec![0, 0, 1], "k"),
            vec![Column::from_i32(&dev, vec![1, 2, 4], "v")],
        );
        let out = join_then_group_by(
            &dev,
            &r,
            &s,
            // Aggregates apply to the join key, then v.
            &PipelineSpec::new(
                Algorithm::SmjOm,
                GroupKey::RPayload(0),
                GroupByAlgorithm::HashGlobal,
                &[AggFn::Min, AggFn::Sum],
            ),
        );
        // One group (category 7): min join key 0, sum v = 7.
        assert_eq!(out.groups.rows_sorted(), vec![vec![7, 0, 7]]);
    }
}
