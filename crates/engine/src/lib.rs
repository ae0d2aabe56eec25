//! # engine — a minimal columnar query engine on the simulated GPU
//!
//! The paper studies joins and grouped aggregations as operators inside GPU
//! query engines; this crate provides that surrounding engine in miniature,
//! so whole query segments (the shape of TPC-H Q3/Q18) can run end to end
//! over the same simulated device:
//!
//! * [`Table`] — named columns (thin sugar over [`columnar`]);
//! * [`Expr`] — column-at-a-time scalar expressions and predicates;
//! * [`Plan`] — Scan / Filter / Project / Join / Aggregate nodes;
//! * [`op`] — the physical-operator layer: [`op::compile`] annotates a
//!   [`Plan`] (a compiled node is the plan node plus what compilation
//!   decided about it), each operator is a plain function, and one driver
//!   reports the shared [`sim::OpStats`] record per node and applies the
//!   Section 4.4 memory budget, going out-of-core transparently when a
//!   join won't fit;
//! * [`fuse`] — operator fusion and plan-wide late materialization:
//!   adjacent Filter/Project chains collapse into one node that evaluates a
//!   single combined predicate and hands consumers a row-id ticket
//!   ([`fuse::Deferred`]) instead of materialized payloads — the paper's
//!   GFTR discipline applied across operators;
//! * [`execute`] — lowers a plan against a [`Catalog`] into that layer
//!   (fused; [`execute_unfused`] is the ablation baseline), picking join
//!   and aggregation implementations with the paper's decision trees
//!   unless the plan pins them.
//!
//! ```
//! use engine::{execute, Catalog, Expr, Plan, Table};
//! use columnar::Column;
//! use sim::Device;
//!
//! let dev = Device::a100();
//! let mut catalog = Catalog::new();
//! catalog.insert(Table::new(
//!     "t",
//!     vec![
//!         ("k", Column::from_i32(&dev, vec![1, 2, 3], "k")),
//!         ("v", Column::from_i32(&dev, vec![10, 20, 30], "v")),
//!     ],
//! ));
//! let plan = Plan::scan("t").filter(Expr::col("v").gt(Expr::lit(15)));
//! let out = execute(&dev, &catalog, &plan).unwrap();
//! assert_eq!(out.table.num_rows(), 2);
//! ```

pub mod cost;
pub mod demo;
pub mod digest;
mod error;
mod exec;
pub mod explain;
mod expr;
pub mod fuse;
pub mod op;
mod plan;
pub mod plan_cache;
pub mod scheduler;
mod table;

pub use cost::CostEstimate;
pub use digest::{slow_queries, SlowQueryDigest, SlowQueryReport, StageAttribution};
pub use error::{EngineError, SqlSpan};
pub use exec::{
    execute, execute_unfused, Catalog, ColumnMeta, NodeStats, QueryOutput, TableSchema,
};
pub use explain::{ExplainNode, QueryExplain};
pub use expr::{CmpOp, Expr};
pub use plan::{join_output_columns, AggSpec, Plan};
pub use plan_cache::{CacheOutcome, PlanCache, PlanCacheInfo};
pub use scheduler::{
    run_open_loop, run_open_loop_with, run_queries, OpenQuery, OperatorBreakdown, Policy,
    QueryReport, QuerySpec, ServingConfig,
};
pub use table::Table;
