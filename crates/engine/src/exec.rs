//! Plan execution against a catalog.
//!
//! `execute` compiles the logical [`Plan`] ([`crate::op::compile`]) and
//! runs it through the uniform driver (`op::run_operator`): columns move
//! between operators as
//! zero-cost aliases (pointer passing); every operator's device work —
//! predicate kernels, compaction gathers, joins, aggregations — is charged
//! to the shared simulated device, and each node comes back with the shared
//! [`sim::OpStats`] record (times, rows, peak memory, hardware counters) as
//! a [`NodeStats`] tree.

use crate::op::{compile, compile_unfused, run_operator, ExecContext, Op};
use crate::{EngineError, Plan, Table};
use columnar::{DType, Relation};
use sim::{Device, OpStats, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Load-time statistics for one catalog column: the physical type plus the
/// observed value range. The SQL binder types expressions against `dtype`;
/// the lowering's composite-key packer sizes its bit fields from
/// `[min, max]`. `min > max` means the column is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Physical column type.
    pub dtype: DType,
    /// Smallest value present at load time.
    pub min: i64,
    /// Largest value present at load time.
    pub max: i64,
}

/// What the catalog knows about a table beyond its columns: row count,
/// per-column statistics in declaration order, an optional declared primary
/// key (the source of the functional dependencies the lowering exploits
/// when a composite grouping key will not pack), and dictionaries for
/// string-encoded columns (the SQL binder folds string literals to codes
/// through these).
#[derive(Debug, Clone, Default)]
pub struct TableSchema {
    /// Row count at load time.
    pub rows: usize,
    /// `(name, statistics)` per column, in declaration order.
    pub columns: Vec<(String, ColumnMeta)>,
    /// Declared primary key column, if any.
    pub primary_key: Option<String>,
    /// Dictionary per string-encoded column: `codes[i]` is the string the
    /// stored code `i` stands for.
    pub dictionaries: HashMap<String, Vec<String>>,
}

impl TableSchema {
    /// Statistics of one column, if the table has it.
    pub fn column(&self, name: &str) -> Option<&ColumnMeta> {
        self.columns
            .iter()
            .find_map(|(n, m)| (n == name).then_some(m))
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|(n, _)| n.clone()).collect()
    }
}

/// The tables a query can scan, with per-table schemas (row counts, column
/// statistics, keys and dictionaries) for the SQL binder and lowering.
#[derive(Default)]
pub struct Catalog {
    /// Ordered, so dropping a catalog frees its tables' device memory in
    /// name order and the trace's coalesced `mem` samples are reproducible.
    tables: BTreeMap<String, Table>,
    schemas: HashMap<String, TableSchema>,
    /// Bumped on every mutation (insert, key/dictionary declarations).
    /// The plan cache keys entries on this, so a statistics refresh or
    /// reload invalidates every cached plan compiled against the old
    /// catalog.
    version: u64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The mutation counter: changes whenever the catalog's contents or
    /// declarations change. Plan-cache keys include this.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Register a table under its own name, computing its schema (row count
    /// plus per-column min/max — a host-side pass at load time, the moment
    /// real loaders collect zone maps). Returns the previously registered
    /// table of that name, if any — check it when silent replacement would
    /// be a bug.
    pub fn insert(&mut self, table: Table) -> Option<Table> {
        let columns = table
            .columns()
            .iter()
            .map(|(n, c)| {
                let (mut min, mut max) = (i64::MAX, i64::MIN);
                for v in c.iter_i64() {
                    min = min.min(v);
                    max = max.max(v);
                }
                (
                    n.clone(),
                    ColumnMeta {
                        dtype: c.dtype(),
                        min,
                        max,
                    },
                )
            })
            .collect();
        self.schemas.insert(
            table.name().to_string(),
            TableSchema {
                rows: table.num_rows(),
                columns,
                primary_key: None,
                dictionaries: HashMap::new(),
            },
        );
        self.version = self.version.wrapping_add(1);
        self.tables.insert(table.name().to_string(), table)
    }

    /// Declare `column` as `table`'s primary key (unique, one row per
    /// value). The lowering uses this to derive functional dependencies.
    pub fn set_primary_key(&mut self, table: &str, column: &str) -> Result<(), EngineError> {
        let schema = self
            .schemas
            .get_mut(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        if schema.column(column).is_none() {
            return Err(EngineError::UnknownColumn {
                column: column.to_string(),
                available: schema.column_names(),
            });
        }
        schema.primary_key = Some(column.to_string());
        self.version = self.version.wrapping_add(1);
        Ok(())
    }

    /// Attach a string dictionary to `table.column`: the stored integer
    /// code `i` stands for `values[i]`. The SQL binder folds string
    /// literals on this column to their codes.
    pub fn set_dictionary(
        &mut self,
        table: &str,
        column: &str,
        values: Vec<String>,
    ) -> Result<(), EngineError> {
        let schema = self
            .schemas
            .get_mut(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        if schema.column(column).is_none() {
            return Err(EngineError::UnknownColumn {
                column: column.to_string(),
                available: schema.column_names(),
            });
        }
        schema.dictionaries.insert(column.to_string(), values);
        self.version = self.version.wrapping_add(1);
        Ok(())
    }

    /// Look a table up.
    pub fn get(&self, name: &str) -> Result<&Table, EngineError> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Look a table's schema up.
    pub fn schema(&self, name: &str) -> Result<&TableSchema, EngineError> {
        self.schemas
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }
}

/// Per-node execution statistics: a display label, the shared per-operator
/// report, and the children's subtrees.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// Node description (operator + parameters, plus the algorithm adaptive
    /// operators picked).
    pub label: String,
    /// The shared per-operator report: simulated time (phases + other),
    /// output rows, peak device memory and hardware-counter deltas — all
    /// for this node only, children excluded.
    pub op: OpStats,
    /// How adaptive operators picked their algorithm: the sampled
    /// statistics, the decision-tree branch taken and the branches
    /// rejected on the way. `None` for operators with nothing to decide
    /// (scans, filters, projections).
    pub provenance: Option<heuristics::Provenance>,
    /// Child node statistics (inputs first).
    pub children: Vec<NodeStats>,
}

impl NodeStats {
    /// Output rows of this node.
    pub fn rows(&self) -> usize {
        self.op.rows
    }

    /// Simulated time spent in this node, children excluded.
    pub fn time(&self) -> SimTime {
        self.op.total_time()
    }

    /// Total simulated time of the subtree.
    pub fn total_time(&self) -> SimTime {
        self.time() + self.children.iter().map(NodeStats::total_time).sum()
    }

    /// Render an indented plan-with-times tree. Nodes that touched DRAM
    /// also show their traffic, coalescing quality and L2 hit rate — the
    /// Nsight Compute metrics of Table 4, per plan node.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{:indent$}{} [{} rows, {}",
            "",
            self.label,
            self.op.rows,
            self.time(),
            indent = depth * 2
        );
        let c = &self.op.counters;
        if c.dram_bytes() > 0 {
            let _ = write!(out, ", {} DRAM", sim::analysis::human_bytes(c.dram_bytes()));
            if c.load_requests > 0 {
                let _ = write!(out, ", {:.2} sect/req", c.sectors_per_request());
            }
            if c.l2_hits + c.l2_misses > 0 {
                let _ = write!(out, ", L2 {:.0}%", c.l2_hit_rate() * 100.0);
            }
        }
        let _ = writeln!(out, "]");
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// A finished query: the result table and the node-stats tree.
pub struct QueryOutput {
    /// Result rows.
    pub table: Table,
    /// Per-node execution reports.
    pub stats: NodeStats,
}

/// Execute `plan` against `catalog` on `dev`, with operator fusion on:
/// adjacent Filter/Project chains collapse into single nodes whose outputs
/// flow as late-materialized row-id tickets.
pub fn execute(dev: &Device, catalog: &Catalog, plan: &Plan) -> Result<QueryOutput, EngineError> {
    run_compiled(dev, catalog, compile(plan))
}

/// Execute `plan` with fusion off: one operator per plan node,
/// every intermediate fully materialized. Same results, more DRAM traffic —
/// the ablation baseline of `bench`'s `ablation_fusion` experiment and the
/// oracle side of the fusion-equivalence property tests.
pub fn execute_unfused(
    dev: &Device,
    catalog: &Catalog,
    plan: &Plan,
) -> Result<QueryOutput, EngineError> {
    run_compiled(dev, catalog, compile_unfused(plan))
}

fn run_compiled(dev: &Device, catalog: &Catalog, op: Op<'_>) -> Result<QueryOutput, EngineError> {
    let ctx = ExecContext::new(dev, catalog);
    let (table, stats) = run_operator(&ctx, &op)?;
    Ok(QueryOutput { table, stats })
}

/// Split a table into a join relation (key + payload columns) and the
/// payload column names, preserving order.
pub(crate) fn to_relation(
    table: &Table,
    key: &str,
) -> Result<(Relation, Vec<String>), EngineError> {
    let key_idx = table.column_index(key)?;
    let key_col = table.columns()[key_idx].1.alias();
    let mut names = Vec::new();
    let mut payloads = Vec::new();
    for (i, (n, c)) in table.columns().iter().enumerate() {
        if i != key_idx {
            names.push(n.clone());
            payloads.push(c.alias());
        }
    }
    Ok((Relation::new(table.name(), key_col, payloads), names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggSpec, Expr};
    use columnar::Column;
    use groupby::{AggFn, GroupByAlgorithm};
    use joins::{Algorithm, JoinKind};

    fn catalog(dev: &Device) -> Catalog {
        let mut c = Catalog::new();
        c.insert(Table::new(
            "orders",
            vec![
                ("o_id", Column::from_i32(dev, vec![0, 1, 2, 3], "o_id")),
                (
                    "o_cust",
                    Column::from_i32(dev, vec![100, 101, 100, 102], "o_cust"),
                ),
            ],
        ));
        c.insert(Table::new(
            "lineitem",
            vec![
                (
                    "l_oid",
                    Column::from_i32(dev, vec![0, 0, 1, 2, 2, 3, 9], "l_oid"),
                ),
                (
                    "l_qty",
                    Column::from_i64(dev, vec![5, 7, 11, 1, 2, 4, 99], "l_qty"),
                ),
            ],
        ));
        c
    }

    #[test]
    fn catalog_insert_reports_replacement() {
        let dev = Device::a100();
        let mut c = Catalog::new();
        assert!(c
            .insert(Table::new(
                "t",
                vec![("a", Column::from_i32(&dev, vec![1, 2], "a"))],
            ))
            .is_none());
        // Same name: the old table comes back instead of vanishing.
        let old = c.insert(Table::new(
            "t",
            vec![("b", Column::from_i32(&dev, vec![3], "b"))],
        ));
        assert_eq!(old.expect("replaced table returned").num_rows(), 2);
        assert_eq!(c.get("t").unwrap().column_names(), vec!["b"]);
    }

    #[test]
    fn catalog_schemas_carry_statistics() {
        let dev = Device::a100();
        let mut cat = catalog(&dev);
        let s = cat.schema("lineitem").unwrap();
        assert_eq!(s.rows, 7);
        let qty = s.column("l_qty").unwrap();
        assert_eq!((qty.dtype, qty.min, qty.max), (DType::I64, 1, 99));
        assert_eq!(s.column("l_oid").unwrap().dtype, DType::I32);
        assert!(s.column("nope").is_none());
        cat.set_primary_key("orders", "o_id").unwrap();
        assert_eq!(
            cat.schema("orders").unwrap().primary_key.as_deref(),
            Some("o_id")
        );
        assert!(cat.set_primary_key("orders", "nope").is_err());
        cat.set_dictionary("orders", "o_cust", vec!["a".into(), "b".into()])
            .unwrap();
        assert_eq!(
            cat.schema("orders").unwrap().dictionaries["o_cust"],
            vec!["a", "b"]
        );
        assert!(cat.schema("nope").is_err());
        assert_eq!(cat.table_names(), vec!["lineitem", "orders"]);
    }

    #[test]
    fn limit_keeps_the_first_rows() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        // Bare LIMIT over a materialized scan.
        let plan = Plan::scan("lineitem").limit(3);
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(out.table.num_rows(), 3);
        assert_eq!(
            out.table.column("l_qty").unwrap().to_vec_i64(),
            vec![5, 7, 11]
        );
        assert!(
            out.stats.label.starts_with("Limit(3)"),
            "{}",
            out.stats.label
        );
        // LIMIT above the input size keeps everything.
        let plan = Plan::scan("lineitem").limit(100);
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(out.table.num_rows(), 7);
        // LIMIT over a fused Filter/Project run: the selection truncates,
        // payloads materialize only for surviving rows, and fused/unfused
        // agree bit-for-bit.
        let plan = Plan::scan("lineitem")
            .filter(Expr::col("l_qty").ge(Expr::lit(4)))
            .project(vec![
                ("oid", Expr::col("l_oid")),
                ("q2", Expr::col("l_qty").mul(Expr::lit(2))),
            ])
            .limit(2);
        let fused = execute(&dev, &cat, &plan).unwrap();
        let unfused = execute_unfused(&dev, &cat, &plan).unwrap();
        assert_eq!(fused.table.num_rows(), 2);
        assert_eq!(fused.table.column("q2").unwrap().to_vec_i64(), vec![10, 14]);
        assert_eq!(fused.table.rows_sorted(), unfused.table.rows_sorted());
        assert_eq!(fused.table.column_names(), unfused.table.column_names());
    }

    #[test]
    fn scan_filter_project() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let plan = Plan::scan("lineitem")
            .filter(Expr::col("l_qty").ge(Expr::lit(5)))
            .project(vec![
                ("oid", Expr::col("l_oid")),
                ("double_qty", Expr::col("l_qty").mul(Expr::lit(2))),
            ]);
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(
            out.table.rows_sorted(),
            vec![vec![0, 10], vec![0, 14], vec![1, 22], vec![9, 198]]
        );
        assert!(out.stats.total_time().secs() > 0.0);
    }

    #[test]
    fn join_then_aggregate_q18_shape() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let plan = Plan::scan("orders")
            .join(Plan::scan("lineitem"), "o_id", "l_oid")
            .aggregate(
                "o_id",
                vec![
                    AggSpec::new(AggFn::Sum, "l_qty", "total_qty"),
                    AggSpec::new(AggFn::Max, "o_cust", "cust"),
                ],
            );
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(
            out.table.rows_sorted(),
            vec![
                vec![0, 12, 100],
                vec![1, 11, 101],
                vec![2, 3, 100],
                vec![3, 4, 102],
            ]
        );
        assert_eq!(out.table.column_names(), vec!["o_id", "total_qty", "cust"]);
        // The stats tree mirrors the plan.
        assert!(out.stats.label.starts_with("Aggregate"));
        assert_eq!(out.stats.children.len(), 1);
        assert!(out.stats.render().contains("Join"));
    }

    #[test]
    fn join_key_grouping_over_a_pinned_join() {
        // Orders ⋈ lineitem, then per order MAX(o_custkey) (functionally
        // dependent on the key) and SUM(l_quantity).
        let dev = Device::a100();
        let mut cat = Catalog::new();
        cat.insert(Table::new(
            "orders",
            vec![
                ("o_orderkey", Column::from_i32(&dev, vec![0, 1, 2, 3], "k")),
                (
                    "o_custkey",
                    Column::from_i32(&dev, vec![100, 101, 102, 103], "c"),
                ),
            ],
        ));
        cat.insert(Table::new(
            "lineitem",
            vec![
                (
                    "l_orderkey",
                    Column::from_i32(&dev, vec![0, 0, 1, 2, 2, 2], "k"),
                ),
                (
                    "l_quantity",
                    Column::from_i32(&dev, vec![5, 7, 11, 1, 2, 3], "q"),
                ),
            ],
        ));
        let plan = Plan::scan("orders")
            .join(Plan::scan("lineitem"), "o_orderkey", "l_orderkey")
            .with_join_algorithm(Algorithm::PhjOm)
            .aggregate(
                "o_orderkey",
                vec![
                    AggSpec::new(AggFn::Max, "o_custkey", "cust"),
                    AggSpec::new(AggFn::Sum, "l_quantity", "qty"),
                ],
            )
            .with_group_algorithm(GroupByAlgorithm::SortGftr);
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(
            out.table.rows_sorted(),
            vec![vec![0, 100, 12], vec![1, 101, 11], vec![2, 102, 6]],
        );
        assert!(out.stats.total_time().secs() > 0.0);
        // The stats tree reflects both stages with the shared record.
        assert!(out.stats.label.starts_with("Aggregate"));
        let join = &out.stats.children[0];
        assert!(join.label.starts_with("Join"));
        assert_eq!(join.rows(), 6);
        assert!(join.op.counters.dram_bytes() > 0);
    }

    #[test]
    fn build_payload_grouping_over_a_pinned_join() {
        let dev = Device::a100();
        let mut cat = Catalog::new();
        cat.insert(Table::new(
            "r",
            vec![
                ("k", Column::from_i32(&dev, vec![0, 1], "k")),
                ("category", Column::from_i32(&dev, vec![7, 7], "category")),
            ],
        ));
        cat.insert(Table::new(
            "s",
            vec![
                ("k", Column::from_i32(&dev, vec![0, 0, 1], "k")),
                ("v", Column::from_i32(&dev, vec![1, 2, 4], "v")),
            ],
        ));
        let plan = Plan::scan("r")
            .join(Plan::scan("s"), "k", "k")
            .with_join_algorithm(Algorithm::SmjOm)
            .aggregate(
                "category",
                vec![
                    AggSpec::new(AggFn::Min, "k", "min_k"),
                    AggSpec::new(AggFn::Sum, "v", "sum_v"),
                ],
            )
            .with_group_algorithm(GroupByAlgorithm::HashGlobal);
        let out = execute(&dev, &cat, &plan).unwrap();
        // One group (category 7): min join key 0, sum v = 7.
        assert_eq!(out.table.rows_sorted(), vec![vec![7, 0, 7]]);
    }

    #[test]
    fn node_stats_carry_counters_and_render_them() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let plan = Plan::scan("orders").join(Plan::scan("lineitem"), "o_id", "l_oid");
        let out = execute(&dev, &cat, &plan).unwrap();
        // The join node saw device traffic; its scans are pure aliasing.
        assert!(out.stats.op.counters.dram_bytes() > 0);
        assert!(out.stats.op.counters.kernel_launches > 0);
        for scan in &out.stats.children {
            assert_eq!(scan.op.counters.kernel_launches, 0);
        }
        let rendered = out.stats.render();
        assert!(rendered.contains("DRAM"), "traffic rendered: {rendered}");
        assert!(
            rendered.contains("sect/req"),
            "coalescing rendered: {rendered}"
        );
    }

    #[test]
    fn semi_join_in_a_plan() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        // Orders that have at least one lineitem: probe side = orders.
        let plan =
            Plan::scan("lineitem").join_kind(Plan::scan("orders"), "l_oid", "o_id", JoinKind::Semi);
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(
            out.table.rows_sorted(),
            vec![vec![0, 100], vec![1, 101], vec![2, 100], vec![3, 102],]
        );
    }

    #[test]
    fn pinned_algorithm_is_respected() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let plan = Plan::scan("orders")
            .join(Plan::scan("lineitem"), "o_id", "l_oid")
            .with_join_algorithm(Algorithm::SmjOm);
        let out = execute(&dev, &cat, &plan).unwrap();
        assert!(out.stats.label.contains("SMJ-OM"));
        assert_eq!(out.table.num_rows(), 6);
    }

    #[test]
    fn name_collisions_are_suffixed() {
        let dev = Device::a100();
        let mut cat = Catalog::new();
        cat.insert(Table::new(
            "a",
            vec![
                ("k", Column::from_i32(&dev, vec![1], "k")),
                ("v", Column::from_i32(&dev, vec![10], "v")),
            ],
        ));
        cat.insert(Table::new(
            "b",
            vec![
                ("k", Column::from_i32(&dev, vec![1], "k")),
                ("v", Column::from_i32(&dev, vec![20], "v")),
            ],
        ));
        let plan = Plan::scan("a").join(Plan::scan("b"), "k", "k");
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(out.table.column_names(), vec!["k", "v", "v_2"]);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        assert!(matches!(
            execute(&dev, &cat, &Plan::scan("nope")),
            Err(EngineError::UnknownTable(_))
        ));
        let plan = Plan::scan("orders").filter(Expr::col("missing").gt(Expr::lit(0)));
        assert!(matches!(
            execute(&dev, &cat, &plan),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn sort_and_limit() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        // Top-2 lineitems by quantity, descending.
        let plan = Plan::scan("lineitem").sort_by("l_qty", true, Some(2));
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(
            out.table.column("l_qty").unwrap().to_vec_i64(),
            vec![99, 11]
        );
        // Ascending without a limit keeps everything, ordered.
        let plan = Plan::scan("lineitem").sort_by("l_qty", false, None);
        let out = execute(&dev, &cat, &plan).unwrap();
        let q = out.table.column("l_qty").unwrap().to_vec_i64();
        assert!(q.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(q.len(), 7);
        assert!(out.stats.label.starts_with("Sort"));
    }

    #[test]
    fn distinct_column() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let plan = Plan::scan("lineitem").distinct("l_oid");
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(
            out.table.rows_sorted(),
            vec![vec![0], vec![1], vec![2], vec![3], vec![9]]
        );
    }

    #[test]
    fn q18_full_shape_with_order_by_limit() {
        // The real Q18 ends ORDER BY total DESC LIMIT 100.
        let dev = Device::a100();
        let cat = catalog(&dev);
        let plan = Plan::scan("orders")
            .join(Plan::scan("lineitem"), "o_id", "l_oid")
            .aggregate("o_id", vec![AggSpec::new(AggFn::Sum, "l_qty", "total")])
            .sort_by("total", true, Some(2));
        let out = execute(&dev, &cat, &plan).unwrap();
        assert_eq!(
            out.table.column("total").unwrap().to_vec_i64(),
            vec![12, 11]
        );
    }

    #[test]
    fn composite_key_join_via_pack_projection() {
        // Join on (a, b) pairs by packing both sides into one i64 key.
        let dev = Device::a100();
        let mut cat = Catalog::new();
        cat.insert(Table::new(
            "x",
            vec![
                ("xa", Column::from_i32(&dev, vec![1, 1, 2], "xa")),
                ("xb", Column::from_i32(&dev, vec![10, 11, 10], "xb")),
                ("xv", Column::from_i32(&dev, vec![100, 200, 300], "xv")),
            ],
        ));
        cat.insert(Table::new(
            "y",
            vec![
                ("ya", Column::from_i32(&dev, vec![1, 2, 2], "ya")),
                ("yb", Column::from_i32(&dev, vec![10, 10, 99], "yb")),
                ("yv", Column::from_i32(&dev, vec![7, 8, 9], "yv")),
            ],
        ));
        let plan = Plan::scan("x")
            .project(vec![
                ("k", Expr::col("xa").pack(Expr::col("xb"))),
                ("xv", Expr::col("xv")),
            ])
            .join(
                Plan::scan("y").project(vec![
                    ("k", Expr::col("ya").pack(Expr::col("yb"))),
                    ("yv", Expr::col("yv")),
                ]),
                "k",
                "k",
            );
        let out = execute(&dev, &cat, &plan).unwrap();
        // Matching pairs: (1,10) and (2,10).
        let expected = vec![
            vec![(1i64 << 32) | 10, 100, 7],
            vec![(2i64 << 32) | 10, 300, 8],
        ];
        assert_eq!(out.table.rows_sorted(), expected);
    }

    /// Every node kind, fused and unfused: the stats label of each node and
    /// the kind its operator span carries, children first (the order the
    /// driver emits spans in).
    #[test]
    fn node_labels_and_operator_kinds_are_stable() {
        fn post_order(n: &NodeStats, out: &mut Vec<String>) {
            for c in &n.children {
                post_order(c, out);
            }
            out.push(n.label.clone());
        }
        let plans = [
            Plan::scan("lineitem")
                .filter(Expr::col("l_qty").ge(Expr::lit(2)))
                .project(vec![("oid", Expr::col("l_oid")), ("q", Expr::col("l_qty"))])
                .join(Plan::scan("orders"), "oid", "o_id")
                .aggregate("oid", vec![AggSpec::new(AggFn::Sum, "q", "total")])
                .sort_by("total", true, Some(3)),
            Plan::scan("lineitem")
                .join_kind(Plan::scan("orders"), "l_oid", "o_id", JoinKind::Semi)
                .with_join_algorithm(Algorithm::SmjOm)
                .project(vec![("c", Expr::col("o_cust"))])
                .limit(2),
            Plan::scan("lineitem")
                .filter(Expr::col("l_qty").lt(Expr::lit(50)))
                .limit(5)
                .distinct("l_oid"),
        ];
        let expected: [(bool, &[(&str, &str)]); 6] = [
            (
                true,
                &[
                    ("Scan(lineitem)", "scan"),
                    ("Fused(Filter+Project)", "fused"),
                    ("Scan(orders)", "scan"),
                    ("Join(oid=o_id, inner) via PHJ-OM", "join"),
                    ("Aggregate(by oid) via PART-UM", "aggregate"),
                    ("Sort(by total desc, limit 3)", "sort"),
                ],
            ),
            (
                false,
                &[
                    ("Scan(lineitem)", "scan"),
                    ("Filter", "filter"),
                    ("Project", "project"),
                    ("Scan(orders)", "scan"),
                    ("Join(oid=o_id, inner) via PHJ-OM", "join"),
                    ("Aggregate(by oid) via PART-UM", "aggregate"),
                    ("Sort(by total desc, limit 3)", "sort"),
                ],
            ),
            (
                true,
                &[
                    ("Scan(lineitem)", "scan"),
                    ("Scan(orders)", "scan"),
                    ("Join(l_oid=o_id, semi) via SMJ-OM", "join"),
                    ("Fused(Project)", "fused"),
                    ("Limit(2)", "limit"),
                ],
            ),
            (
                false,
                &[
                    ("Scan(lineitem)", "scan"),
                    ("Scan(orders)", "scan"),
                    ("Join(l_oid=o_id, semi) via SMJ-OM", "join"),
                    ("Project", "project"),
                    ("Limit(2)", "limit"),
                ],
            ),
            (
                true,
                &[
                    ("Scan(lineitem)", "scan"),
                    ("Fused(Filter)", "fused"),
                    ("Limit(5)", "limit"),
                    ("Distinct(l_oid)", "distinct"),
                ],
            ),
            (
                false,
                &[
                    ("Scan(lineitem)", "scan"),
                    ("Filter", "filter"),
                    ("Limit(5)", "limit"),
                    ("Distinct(l_oid)", "distinct"),
                ],
            ),
        ];
        let runs = plans.iter().flat_map(|p| [(p, true), (p, false)]);
        for ((plan, fused), (want_fused, want)) in runs.zip(expected) {
            assert_eq!(fused, want_fused);
            let dev = Device::a100();
            dev.enable_tracing();
            dev.enable_metrics(SimTime::from_secs(1.0));
            let cat = catalog(&dev);
            let out = if fused {
                execute(&dev, &cat, plan)
            } else {
                execute_unfused(&dev, &cat, plan)
            }
            .unwrap();
            let mut labels = Vec::new();
            post_order(&out.stats, &mut labels);
            let trace = dev.take_trace().unwrap();
            let spans: Vec<(&str, sim::OperatorRecord)> = trace
                .spans()
                .filter(|s| s.cat == sim::SpanCat::Operator)
                .map(|s| (s.name.as_str(), s.op.expect("operator record")))
                .collect();
            let got: Vec<(&str, &str)> = spans.iter().map(|(n, r)| (*n, r.kind)).collect();
            assert_eq!(got, want, "fused={fused}");
            assert_eq!(got.iter().map(|(n, _)| *n).collect::<Vec<_>>(), labels);
            // The metrics recorder folds the same kinds.
            let reg = dev.metrics_snapshot().unwrap().registry;
            for (_, kind) in want {
                let rows: u64 = spans
                    .iter()
                    .filter(|(_, r)| r.kind == *kind)
                    .map(|(_, r)| r.rows)
                    .sum();
                assert_eq!(reg.counter("operator_rows_total", &[("op", kind)]), rows);
            }
        }
    }

    #[test]
    fn key_type_mismatch_is_reported() {
        let dev = Device::a100();
        let mut cat = Catalog::new();
        cat.insert(Table::new(
            "x",
            vec![("k", Column::from_i32(&dev, vec![1], "k"))],
        ));
        cat.insert(Table::new(
            "y",
            vec![("k", Column::from_i64(&dev, vec![1], "k"))],
        ));
        let plan = Plan::scan("x").join(Plan::scan("y"), "k", "k");
        assert!(matches!(
            execute(&dev, &cat, &plan),
            Err(EngineError::KeyTypeMismatch { .. })
        ));
    }
}
