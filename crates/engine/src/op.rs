//! The physical-operator layer: one execution contract for every operator.
//!
//! The paper's framework says joins and grouped aggregations are the *same*
//! three-phase computation; this module is that claim as one driver. A
//! compiled node ([`Op`]) is the [`Plan`] node it runs plus what
//! [`compile`] decided about it from its place in the tree; each operator's
//! behaviour is a plain function of the node's own fields, and the driver
//! (`run_operator`) wraps every node in the same measurement harness:
//! simulated time, peak device memory and the hardware-counter delta all
//! land in one shared [`sim::OpStats`] per node, so a plan report reads
//! like an Nsight profile of the tree.
//!
//! Operators exchange values, not just tables: a fused Filter/Project run
//! (the private `fuse` module) emits a late-materialized `Deferred` value
//! — base columns plus a selection vector of row-id tickets — and every
//! consumer here knows how to spend
//! the ticket at its own materialization boundary: joins materialize only
//! the key and let payloads ride a 4-byte ticket column through the match,
//! aggregations gather only the grouping key and aggregate inputs, sorts
//! compose their permutation with the selection. This is the paper's GFTR
//! discipline applied plan-wide rather than per join.
//!
//! The layer is also where plan-level memory budgeting lives: before a join
//! executes, its operator runs the Section 4.4 memory model
//! ([`joins::chunked::plan_chunks`]) against the device's free memory and
//! transparently switches to the probe-side chunked join when the predicted
//! peak does not fit. Callers of `engine::execute` get out-of-core
//! execution without asking for it.
//!
//! [`compile`] annotates a logical [`Plan`] tree with fusion on (each
//! adjacent Filter/Project chain becomes one node); [`compile_unfused`]
//! keeps one node per plan node — the ablation baseline. These are the
//! only way to build an operator tree: every tree the engine runs came from
//! a `Plan`, and its scans read a [`Catalog`].

use crate::exec::{to_relation, Catalog, NodeStats};
use crate::fuse::{self, DCol, Deferred, FuseStep};
use crate::{join_output_columns, AggSpec, EngineError, Expr, Plan, Table};
use columnar::{Column, DType, Relation};
use groupby::{AggFn, GroupByAlgorithm, GroupByConfig};
use heuristics::{
    choose_group_by, choose_join, profile_from_stats, sample_group_stats, sample_stats, AggProfile,
    Decision, GroupByProvenance, JoinProvenance, Provenance, SideShape,
};
use joins::{chunked, Algorithm, JoinConfig, JoinKind};
use primitives::{gather_column, gather_column_or_null, NULL_ID, STREAM_WARP_INSTR};
use sim::{Device, OpStats, PhaseTimes};
use std::cell::RefCell;
use std::collections::HashMap;

/// One sampled-statistics observation from an adaptive decision site,
/// recorded in plan order so a cached plan can replay the exact same
/// planner inputs without re-running the sampling kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SiteSample {
    /// A join site's sampled match/skew statistics.
    Join(heuristics::EstimatedStats),
    /// A group-by site's sampled distinct-count/skew statistics.
    Group(heuristics::EstimatedGroupStats),
}

/// How the execution treats adaptive sampling sites.
enum PlanningMode {
    /// Normal execution: sampling kernels charge the query like any other.
    Off,
    /// First (cold) run through a cacheable plan: sampling kernels launch
    /// on the device's charge-free planning handle and every observation is
    /// recorded in order.
    Record(Vec<SiteSample>),
    /// Cached run: serve recorded observations positionally instead of
    /// sampling. A shape mismatch falls back to live sampling on the
    /// planning handle, preserving byte-identity with the recorded run.
    Replay {
        samples: Vec<SiteSample>,
        cursor: usize,
    },
}

/// What an operator needs to execute: the device, and the catalog its
/// scans read.
pub(crate) struct ExecContext<'a> {
    /// The simulated device all kernels charge to.
    pub dev: &'a Device,
    /// Table source for scans.
    pub catalog: &'a Catalog,
    /// Sampling-site policy for plan caching; private so every
    /// construction goes through [`ExecContext::new`].
    planning: RefCell<PlanningMode>,
}

impl<'a> ExecContext<'a> {
    /// A context with planning off: sampling charges the query as usual.
    pub(crate) fn new(dev: &'a Device, catalog: &'a Catalog) -> Self {
        ExecContext {
            dev,
            catalog,
            planning: RefCell::new(PlanningMode::Off),
        }
    }

    /// A context that records every sampling-site observation (cold run of
    /// a cacheable plan). Sampling runs on the device's planning handle.
    pub(crate) fn with_recording(dev: &'a Device, catalog: &'a Catalog) -> Self {
        ExecContext {
            dev,
            catalog,
            planning: RefCell::new(PlanningMode::Record(Vec::new())),
        }
    }

    /// A context that replays recorded observations positionally (cache
    /// hit), skipping the sampling kernels entirely.
    pub(crate) fn with_replay(
        dev: &'a Device,
        catalog: &'a Catalog,
        samples: Vec<SiteSample>,
    ) -> Self {
        ExecContext {
            dev,
            catalog,
            planning: RefCell::new(PlanningMode::Replay { samples, cursor: 0 }),
        }
    }

    /// The observations recorded by a `with_recording` context, in site
    /// order. Empty unless recording was on.
    pub(crate) fn take_samples(&self) -> Vec<SiteSample> {
        match &mut *self.planning.borrow_mut() {
            PlanningMode::Record(samples) => std::mem::take(samples),
            _ => Vec::new(),
        }
    }

    /// Resolve a sampling site under the current planning mode. `sample`
    /// launches its kernels on the handle it is given — this context's
    /// device, or its charge-free [`Device::planning`] handle — and must not
    /// touch `self.planning` (the borrow is held while it runs).
    fn sample_site<S: SiteStats>(&self, sample: impl FnOnce(&Device) -> S) -> S {
        match &mut *self.planning.borrow_mut() {
            PlanningMode::Off => sample(self.dev),
            PlanningMode::Record(samples) => {
                let s = sample(&self.dev.planning());
                samples.push(s.into_sample());
                s
            }
            PlanningMode::Replay { samples, cursor } => {
                match samples.get(*cursor).and_then(S::from_sample) {
                    Some(s) => {
                        *cursor += 1;
                        s
                    }
                    // Shape mismatch: the cached trace does not line up
                    // with this plan's sites. Fall back to live sampling
                    // on the planning handle so the query-private clock
                    // still matches the recorded run.
                    None => sample(&self.dev.planning()),
                }
            }
        }
    }
}

/// The decision of an operator whose plan fixed its algorithm.
fn pinned_by_plan(choice: &str, materialization: &str) -> Decision {
    Decision::pinned(
        choice,
        materialization,
        "pinned by plan",
        "algorithm fixed by the plan; no decision tree ran",
    )
}

/// The statistics one kind of adaptive site samples, as a [`SiteSample`]
/// stores them.
trait SiteStats: Copy {
    fn into_sample(self) -> SiteSample;
    /// The statistics in `sample`, if it was recorded at this kind of site.
    fn from_sample(sample: &SiteSample) -> Option<Self>;
}

impl SiteStats for heuristics::EstimatedStats {
    fn into_sample(self) -> SiteSample {
        SiteSample::Join(self)
    }
    fn from_sample(sample: &SiteSample) -> Option<Self> {
        match sample {
            SiteSample::Join(s) => Some(*s),
            SiteSample::Group(_) => None,
        }
    }
}

impl SiteStats for heuristics::EstimatedGroupStats {
    fn into_sample(self) -> SiteSample {
        SiteSample::Group(self)
    }
    fn from_sample(sample: &SiteSample) -> Option<Self> {
        match sample {
            SiteSample::Group(s) => Some(*s),
            SiteSample::Join(_) => None,
        }
    }
}

/// What flows between operators: a materialized table, or a
/// late-materialized ticket relation from a fused Filter/Project run.
pub(crate) enum Value {
    /// Materialized columns.
    Table(Table),
    /// Base columns plus a selection vector; payloads gather at the
    /// consumer's materialization boundary.
    Deferred(Deferred),
}

impl Value {
    /// Logical row count.
    pub fn num_rows(&self) -> usize {
        match self {
            Value::Table(t) => t.num_rows(),
            Value::Deferred(d) => d.num_rows(),
        }
    }

    /// Materialize: free for tables, one gather per logical column for
    /// deferred values (the GFUR moment, paid exactly once).
    pub fn into_table(self, dev: &Device) -> Result<Table, EngineError> {
        match self {
            Value::Table(t) => Ok(t),
            Value::Deferred(d) => d.materialize(dev),
        }
    }
}

/// What one operator's execution produced, before the driver wraps it in
/// the shared measurement record.
pub(crate) struct Evaluated {
    /// The output value (materialized or ticket-deferred).
    pub out: Value,
    /// The paper's three-phase breakdown, for operators that have one
    /// (joins, aggregations). `None` means all device time is "other".
    pub phases: Option<PhaseTimes>,
    /// Suffix for the stats label (e.g. the algorithm an adaptive operator
    /// picked), rendered as `"{label} via {detail}"`.
    pub detail: Option<String>,
    /// Decision provenance for operators that ran a planner tree (joins,
    /// aggregations) or a fusion rewrite: what the planner saw and why it
    /// chose what it chose.
    pub provenance: Option<Provenance>,
}

impl Evaluated {
    /// A materialized output with no phase breakdown and no label detail.
    pub fn plain(table: Table) -> Self {
        Evaluated {
            out: Value::Table(table),
            phases: None,
            detail: None,
            provenance: None,
        }
    }
}

/// A compiled plan node: the [`Plan`] node it runs plus what [`compile`]
/// decided about it from its place in the tree. The driver does not let a
/// node measure itself — `run_operator` brackets every `evaluate` call
/// with the device's clock, memory watermark and hardware counters so all
/// nodes report identically.
pub struct Op<'p> {
    /// The plan node; for a fused run, the run's topmost Filter/Project.
    node: &'p Plan,
    /// The collapsed Filter/Project steps, innermost first, when this node
    /// is a fused run.
    run: Option<Vec<FuseStep<'p>>>,
    /// Materialize the output (plan roots); `false` leaves a deferred
    /// output deferred for the consumer's boundary. Fused runs and `Limit`
    /// read it.
    materialize: bool,
    /// Human-readable lifetime boundary of a fused run's ticket, for
    /// provenance.
    boundary: &'static str,
    /// Input nodes, in the order their values arrive at `evaluate`.
    children: Vec<Op<'p>>,
}

impl Op<'_> {
    /// One-line description of the node (operator + parameters).
    fn label(&self) -> String {
        match &self.run {
            Some(steps) => fuse::run_label(steps),
            None => self.node.label(),
        }
    }

    /// Stable operator-kind tag (`"join"`, `"aggregate"`, …) that the
    /// node's operator span carries ([`sim::OperatorRecord::kind`]): the
    /// `op` label of the per-kind duration and rows/s distributions the
    /// metrics recorder folds from that span.
    fn kind(&self) -> &'static str {
        match self.node {
            _ if self.run.is_some() => "fused",
            Plan::Scan { .. } => "scan",
            Plan::Filter { .. } => "filter",
            Plan::Project { .. } => "project",
            Plan::Join { .. } => "join",
            Plan::Sort { .. } => "sort",
            Plan::Limit { .. } => "limit",
            Plan::Distinct { .. } => "distinct",
            Plan::Aggregate { .. } => "aggregate",
        }
    }

    /// Execute on the device, consuming one input value per child.
    fn evaluate(
        &self,
        ctx: &ExecContext<'_>,
        inputs: Vec<Value>,
    ) -> Result<Evaluated, EngineError> {
        let mut inputs = inputs.into_iter();
        let mut input = || inputs.next().expect("one input value per child");
        if let Some(steps) = &self.run {
            return fuse::evaluate_run(ctx, input(), steps, self.materialize, self.boundary);
        }
        match self.node {
            Plan::Scan { table } => scan(ctx, table),
            Plan::Filter { predicate, .. } => filter(ctx, input(), predicate),
            Plan::Project { exprs, .. } => project(ctx, input(), exprs),
            Plan::Join {
                left_key,
                right_key,
                kind,
                algorithm,
                ..
            } => join(
                ctx,
                input(),
                input(),
                left_key,
                right_key,
                *kind,
                *algorithm,
            ),
            Plan::Sort {
                by, desc, limit, ..
            } => sort(ctx, input(), by, *desc, *limit),
            Plan::Limit { count, .. } => limit(ctx, input(), *count, self.materialize),
            Plan::Distinct { column, .. } => distinct(ctx, input(), column),
            Plan::Aggregate {
                group_by,
                aggs,
                algorithm,
                ..
            } => aggregate(ctx, input(), group_by, aggs, *algorithm),
        }
    }
}

/// Execute an operator tree: children first, then the node itself, each
/// bracketed by the same measurement harness. Returns the root's output
/// table and the per-node stats tree. (Compiled roots materialize
/// themselves, so the final `into_table` is free.)
pub(crate) fn run_operator(
    ctx: &ExecContext<'_>,
    op: &Op<'_>,
) -> Result<(Table, NodeStats), EngineError> {
    let (value, stats) = run_operator_value(ctx, op)?;
    Ok((value.into_table(ctx.dev)?, stats))
}

fn run_operator_value(
    ctx: &ExecContext<'_>,
    op: &Op<'_>,
) -> Result<(Value, NodeStats), EngineError> {
    let mut inputs = Vec::with_capacity(op.children.len());
    let mut children = Vec::with_capacity(op.children.len());
    for child in &op.children {
        let (value, stats) = run_operator_value(ctx, child)?;
        inputs.push(value);
        children.push(stats);
    }
    let before = ctx.dev.counters();
    let t0 = ctx.dev.elapsed();
    ctx.dev.reset_peak_mem();
    let ev = op.evaluate(ctx, inputs)?;
    let t1 = ctx.dev.elapsed();
    let elapsed = t1 - t0;
    let phases = ev.phases.unwrap_or_default();
    let mut op_stats = OpStats::new(phases, ev.out.num_rows(), ctx.dev.mem_report().peak_bytes);
    // Device time outside the operator's phase breakdown: sampling,
    // chunk staging, plan glue. (SimTime subtraction saturates at zero.)
    op_stats.other = elapsed - op_stats.phases.total();
    op_stats.counters = ctx.dev.counters().delta_since(&before).0;
    op_stats.query = ctx.dev.query_id();
    let label = match &ev.detail {
        Some(d) => format!("{} via {}", op.label(), d),
        None => op.label(),
    };
    // Operators without a phase breakdown get one `other` phase span so
    // every instant of the timeline is phase-attributed. The covering
    // operator span carries the node's kind, rows and exact
    // `OpStats::total_time()` (other = elapsed - phases, so phases + other
    // = elapsed, up to the last bit) — the record the per-kind metrics
    // distributions fold.
    if ev.phases.is_none() && elapsed.secs() > 0.0 {
        ctx.dev.trace_span(sim::SpanCat::Phase, "other", t0, t1);
    }
    let record = sim::OperatorRecord {
        kind: op.kind(),
        rows: op_stats.rows as u64,
        secs: op_stats.total_time().secs(),
    };
    ctx.dev.trace_operator(&label, record, t0, t1);
    Ok((
        ev.out,
        NodeStats {
            label,
            op: op_stats,
            provenance: ev.provenance,
            children,
        },
    ))
}

/// Ticket-lifetime boundary descriptions, set at compile time from what
/// consumes a fused run (provenance text in EXPLAIN).
const BOUNDARY_ROOT: &str = "plan root: the query result materializes here";
const BOUNDARY_JOIN: &str =
    "Join: key and computed columns materialize, base columns ride the ticket through the match";
const BOUNDARY_AGG: &str = "Aggregate: only the grouping key and aggregated columns materialize";
const BOUNDARY_SORT: &str = "Sort: the sort permutation composes with the selection";
const BOUNDARY_LIMIT: &str =
    "Limit: only the selection truncates, payloads stay deferred past the limit";
const BOUNDARY_DISTINCT: &str = "Distinct: only the deduplicated column materializes";
const BOUNDARY_NONE: &str = "not a fused run";

/// Compile a logical [`Plan`] tree with fusion on: every maximal chain of
/// adjacent `Filter`/`Project` nodes becomes a single fused node that
/// evaluates one combined predicate and defers payload materialization to
/// the consumer's boundary.
pub fn compile(plan: &Plan) -> Op<'_> {
    compile_mode(plan, true, true, BOUNDARY_ROOT)
}

/// Compile without fusion: one node per plan node, every intermediate
/// fully materialized — the ablation baseline `bench::ablation_fusion`
/// compares against, and a debugging aid.
pub fn compile_unfused(plan: &Plan) -> Op<'_> {
    compile_mode(plan, false, true, BOUNDARY_ROOT)
}

/// `materialize`/`boundary` describe what consumes the node being compiled
/// — they only take effect when `plan` starts a fusible run or is a
/// `Limit`.
fn compile_mode<'p>(
    plan: &'p Plan,
    fuse_runs: bool,
    materialize: bool,
    boundary: &'static str,
) -> Op<'p> {
    let node = |run, children| Op {
        node: plan,
        run,
        materialize,
        boundary,
        children,
    };
    if fuse_runs {
        if let Some((steps, inner)) = fuse::take_run(plan) {
            // The fused node materializes its own input (the run's base),
            // so the inner plan compiles as if it were a root.
            let input = compile_mode(inner, fuse_runs, true, BOUNDARY_ROOT);
            return node(Some(steps), vec![input]);
        }
    }
    let child =
        |input, materialize, boundary| compile_mode(input, fuse_runs, materialize, boundary);
    let children = match plan {
        Plan::Scan { .. } => Vec::new(),
        Plan::Filter { input, .. } | Plan::Project { input, .. } => {
            vec![child(input, true, BOUNDARY_NONE)]
        }
        Plan::Join { left, right, .. } => vec![
            child(left, false, BOUNDARY_JOIN),
            child(right, false, BOUNDARY_JOIN),
        ],
        Plan::Sort { input, .. } => vec![child(input, false, BOUNDARY_SORT)],
        Plan::Limit { input, .. } => vec![child(input, false, BOUNDARY_LIMIT)],
        Plan::Distinct { input, .. } => vec![child(input, false, BOUNDARY_DISTINCT)],
        Plan::Aggregate { input, .. } => vec![child(input, false, BOUNDARY_AGG)],
    };
    node(None, children)
}

/// Read a catalog table; columns pass as zero-cost aliases.
fn scan(ctx: &ExecContext<'_>, table: &str) -> Result<Evaluated, EngineError> {
    let src = ctx.catalog.get(table)?;
    let cols = src
        .columns()
        .iter()
        .map(|(n, c)| (n.clone(), c.alias()))
        .collect();
    Ok(Evaluated::plain(Table::from_columns(src.name(), cols)))
}

/// Keep rows where the predicate holds: one fused predicate-mask kernel, a
/// device compaction into a selection vector, then one clustered gather per
/// column. The output keeps the input's table name — a filter changes rows,
/// not identity.
fn filter(ctx: &ExecContext<'_>, input: Value, predicate: &Expr) -> Result<Evaluated, EngineError> {
    let child = input.into_table(ctx.dev)?;
    let mask = predicate.eval_mask_device(ctx.dev, &child)?;
    let sel = primitives::compact_mask(ctx.dev, &mask);
    // Compaction: one clustered gather per column (the selection
    // indices ascend).
    let cols = child
        .columns()
        .iter()
        .map(|(n, c)| (n.clone(), gather_column(ctx.dev, c, &sel)))
        .collect();
    Ok(Evaluated::plain(Table::from_columns(child.name(), cols)))
}

/// Compute output columns from expressions. Plain column references pass as
/// zero-cost aliases (a projection is metadata, not a kernel); computed
/// expressions evaluate. The output keeps the input's table name.
fn project(
    ctx: &ExecContext<'_>,
    input: Value,
    exprs: &[(String, Expr)],
) -> Result<Evaluated, EngineError> {
    let child = input.into_table(ctx.dev)?;
    let mut cols = Vec::with_capacity(exprs.len());
    for (name, e) in exprs {
        let col = match e {
            Expr::Col(c) => child.column(c)?.alias(),
            e => e.eval(ctx.dev, &child)?,
        };
        cols.push((name.clone(), col));
    }
    Ok(Evaluated::plain(Table::from_columns(child.name(), cols)))
}

/// One join input after binding: the physical relation handed to the join
/// kernels, the logical output columns in order, and (for deferred inputs)
/// the base table the ticket indexes into.
struct PreparedSide {
    rel: Relation,
    cols: Vec<SideCol>,
    shape: SideShape,
    /// `Some` when base columns ride a ticket through the join.
    ticket_base: Option<Table>,
}

/// One logical payload column of a join input.
enum SideCol {
    /// Joined by the kernels; position = its index among `Physical`s.
    Physical(String),
    /// Gathered from the deferred base after the join, via the ticket.
    Ticketed {
        /// Output column name.
        name: String,
        /// Base-table column the ticket row ids index into.
        base: String,
    },
}

/// Bind one join input. Tables split into key + payload relation exactly as
/// before. Deferred inputs materialize the key (and any computed
/// expressions — the join must see those values), append one 4-byte ticket
/// column carrying the selection's row ids, and leave base payload columns
/// behind: they are gathered once, after the match, through the joined
/// ticket. The [`SideShape`] is always the *logical* schema, so the
/// decision tree sees identical inputs whether or not fusion fired.
fn prepare_join_side(dev: &Device, value: Value, key: &str) -> Result<PreparedSide, EngineError> {
    match value {
        Value::Table(t) => {
            let (rel, names) = to_relation(&t, key)?;
            let shape = SideShape::of(&rel);
            Ok(PreparedSide {
                rel,
                cols: names.into_iter().map(SideCol::Physical).collect(),
                shape,
                ticket_base: None,
            })
        }
        Value::Deferred(d) => {
            let name = d.name().to_string();
            let key_idx = d.cols.iter().position(|(n, _)| n == key).ok_or_else(|| {
                EngineError::UnknownColumn {
                    column: key.to_string(),
                    available: d.column_names(),
                }
            })?;
            let rows = d.num_rows();
            let mut cache = HashMap::new();
            let key_col = d.gather_dcol(dev, &d.cols[key_idx].1, &d.sel, false, &mut cache)?;
            let mut size_bytes = key_col.size_bytes();
            let mut has_8byte = key_col.dtype() == DType::I64;
            let mut cols = Vec::new();
            let mut payloads = Vec::new();
            let mut ticketed = 0usize;
            for (i, (n, c)) in d.cols.iter().enumerate() {
                if i == key_idx {
                    continue;
                }
                match c {
                    DCol::Base(b) => {
                        let dtype = d.base.column(b)?.dtype();
                        size_bytes += rows as u64 * dtype.size();
                        has_8byte |= dtype == DType::I64;
                        cols.push(SideCol::Ticketed {
                            name: n.clone(),
                            base: b.clone(),
                        });
                        ticketed += 1;
                    }
                    DCol::Expr(_) => {
                        let col = d.gather_dcol(dev, c, &d.sel, false, &mut cache)?;
                        size_bytes += col.size_bytes();
                        has_8byte |= col.dtype() == DType::I64;
                        cols.push(SideCol::Physical(n.clone()));
                        payloads.push(col);
                    }
                }
            }
            let ticket_base = if ticketed > 0 {
                // The ticket: the selection's row ids as an i32 payload —
                // a reinterpreting alias of the selection vector, not a
                // copy, so it costs nothing to create.
                let ids: Vec<i32> = d.sel.iter().map(|&r| r as i32).collect();
                payloads.push(Column::from_i32(dev, ids, "fuse.ticket"));
                Some(d.base)
            } else {
                None
            };
            let shape = SideShape {
                num_payloads: cols.len(),
                has_8byte,
                size_bytes,
            };
            Ok(PreparedSide {
                rel: Relation::new(name, key_col, payloads),
                cols,
                shape,
                ticket_base,
            })
        }
    }
}

/// Reassemble one side's output columns from what the join kernels
/// materialized. Physical columns come straight from the join output (in
/// order); ticketed columns are gathered from the deferred base through the
/// joined ticket column — one gather per base column, total. Outer joins
/// surface as negative ticket entries (the join's null sentinel), which
/// become [`NULL_ID`] so unmatched rows gather the dtype's null sentinel,
/// exactly as eagerly-materialized payloads would.
fn reassemble_side(
    dev: &Device,
    prep: &PreparedSide,
    outputs: Vec<Column>,
) -> Result<Vec<(String, Column)>, EngineError> {
    if outputs.is_empty() {
        // Semi/anti joins drop this side's payloads before materialization;
        // the ticket (if any) was dropped with them — no gathers at all.
        return Ok(Vec::new());
    }
    let mut outputs = outputs;
    let map = match &prep.ticket_base {
        None => None,
        Some(base) => {
            let ticket = outputs.pop().expect("ticket column is the last payload");
            let vals = ticket.as_i32();
            let any_null = vals.iter().any(|&v| v < 0);
            let ids: Vec<u32> = vals
                .iter()
                .map(|&v| if v < 0 { NULL_ID } else { v as u32 })
                .collect();
            if any_null {
                // Sentinel→NULL_ID rewrite is a real streaming pass on
                // hardware; without nulls the ticket is reinterpreted as
                // row ids for free.
                dev.kernel("fuse.ticket_nulls")
                    .items(ids.len() as u64, STREAM_WARP_INSTR)
                    .seq_read_bytes(ids.len() as u64 * 4)
                    .seq_write_bytes(ids.len() as u64 * 4)
                    .launch();
            }
            Some((dev.upload(ids, "fuse.ticket_map"), base, any_null))
        }
    };
    let mut out = Vec::with_capacity(prep.cols.len());
    let mut physical = outputs.into_iter();
    let mut cache: HashMap<String, Column> = HashMap::new();
    for col in &prep.cols {
        match col {
            SideCol::Physical(n) => {
                let c = physical
                    .next()
                    .expect("join materialized every physical payload");
                out.push((n.clone(), c));
            }
            SideCol::Ticketed { name, base } => {
                let (map, src_table, any_null) =
                    map.as_ref().expect("ticketed column implies a ticket");
                let c = if let Some(c) = cache.get(base) {
                    c.alias()
                } else {
                    let src = src_table.column(base)?;
                    let g = if *any_null {
                        gather_column_or_null(dev, src, map)
                    } else {
                        gather_column(dev, src, map)
                    };
                    cache.insert(base.clone(), g.alias());
                    g
                };
                out.push((name.clone(), c));
            }
        }
    }
    Ok(out)
}

/// Equi-join: algorithm by the Figure 18 decision tree unless pinned, and
/// execution chunked by the Section 4.4 memory model whenever the predicted
/// peak exceeds the device's free memory. Deferred inputs join by ticket:
/// only the key (plus computed expressions) goes through the kernels, and
/// base payloads are gathered once afterwards.
fn join(
    ctx: &ExecContext<'_>,
    lv: Value,
    rv: Value,
    left_key: &str,
    right_key: &str,
    kind: JoinKind,
    algorithm: Option<Algorithm>,
) -> Result<Evaluated, EngineError> {
    let config = JoinConfig {
        // Assume the general (duplicate-tolerant) build. Deriving
        // uniqueness from the catalog's declared primary keys is
        // ROADMAP item 12.
        unique_build: false,
        kind,
        ..JoinConfig::default()
    };
    let l_prep = prepare_join_side(ctx.dev, lv, left_key)?;
    let r_prep = prepare_join_side(ctx.dev, rv, right_key)?;
    let (l_rel, r_rel) = (&l_prep.rel, &r_prep.rel);
    if l_rel.key().dtype() != r_rel.key().dtype() {
        return Err(EngineError::KeyTypeMismatch {
            left: l_rel.key().dtype().label(),
            right: r_rel.key().dtype().label(),
        });
    }
    let free_mem = ctx
        .dev
        .mem_capacity()
        .saturating_sub(ctx.dev.mem_report().current_bytes);
    // Decision provenance: everything below is captured as it happens —
    // the sampled stats behind the profile, the branch taken and the
    // branches rejected — so `engine::explain` can replay the choice.
    let (alg, profile, sampled, decision) = match algorithm {
        Some(alg) => (
            alg,
            None,
            None,
            pinned_by_plan(alg.name(), alg.materialization()),
        ),
        None => {
            // No optimizer statistics here: sample them (match ratio,
            // skew) and let the Figure 18 tree decide. The sampling cost
            // is charged and shows up in this node's "other" time. The
            // profile is built from the *logical* side shapes, so ticket
            // inputs pick the same algorithm their materialized twins
            // would — fusion changes the cost, never the plan.
            let stats = ctx.sample_site(|dev| sample_stats(dev, l_rel, r_rel, 512));
            let profile = profile_from_stats(
                &stats,
                &l_prep.shape,
                &r_prep.shape,
                ctx.dev.config().l2_bytes,
            );
            let e = choose_join(&profile);
            let alg = e.algorithm;
            let decision = Decision::walked(e, alg.name(), alg.materialization());
            (alg, Some(profile), Some(stats), decision)
        }
    };
    // Plan-level memory budget: run the Section 4.4 model against the
    // device's free memory and go out-of-core when the direct join
    // would not fit. `None` (build side alone too big) falls through to
    // the direct path, which reports the OOM.
    let (joined, detail, chunks) = match chunked::plan_chunks(ctx.dev, l_rel, r_rel) {
        Some(plan) if plan.chunks > 1 => {
            let (out, plan) = chunked::chunked_join(ctx.dev, alg, l_rel, r_rel, &config);
            (
                out,
                format!("{}, chunked x{}", alg.name(), plan.chunks),
                plan.chunks,
            )
        }
        _ => (
            joins::run_join(ctx.dev, alg, l_rel, r_rel, &config),
            alg.name().to_string(),
            1,
        ),
    };
    let provenance = Provenance::Join(JoinProvenance {
        build_rows: l_rel.len(),
        probe_rows: r_rel.len(),
        free_mem_bytes: free_mem,
        profile,
        sampled,
        chunks,
        decision,
    });
    let phases = joined.stats.phases;

    // Reassemble: key, build payloads, probe payloads; ticketed
    // payloads gather from their base now, once.
    let l_cols = reassemble_side(ctx.dev, &l_prep, joined.r_payloads)?;
    let r_cols = reassemble_side(ctx.dev, &r_prep, joined.s_payloads)?;
    let left: Vec<String> = std::iter::once(left_key.to_string())
        .chain(l_cols.iter().map(|(n, _)| n.clone()))
        .collect();
    let right: Vec<String> = std::iter::once(right_key.to_string())
        .chain(r_cols.iter().map(|(n, _)| n.clone()))
        .collect();
    let names = join_output_columns(&left, &right, left_key, right_key);
    let values = std::iter::once(joined.keys)
        .chain(l_cols.into_iter().map(|(_, c)| c))
        .chain(r_cols.into_iter().map(|(_, c)| c));
    let cols = names
        .into_iter()
        .map(|(out, _, _)| out)
        .zip(values)
        .collect();
    Ok(Evaluated {
        out: Value::Table(Table::from_columns("joined", cols)),
        phases: Some(phases),
        detail: Some(detail),
        provenance: Some(provenance),
    })
}

/// Order by one column, optionally keeping only the first rows.
fn sort(
    ctx: &ExecContext<'_>,
    child: Value,
    by: &str,
    desc: bool,
    limit: Option<usize>,
) -> Result<Evaluated, EngineError> {
    let dev = ctx.dev;
    // SORT-PAIRS on (key, row id), then truncate the id list to the
    // limit *before* gathering the other columns — only the surviving
    // rows pay materialization. A deferred input materializes just the
    // sort key up front; the permutation then composes with the
    // selection so every other column is gathered once, at its final
    // position.
    let (key, deferred) = match &child {
        Value::Table(t) => (t.column(by)?.alias(), None),
        Value::Deferred(d) => {
            let mut cache = HashMap::new();
            (d.gather_named(dev, by, &d.sel, &mut cache)?, Some(d))
        }
    };
    let n = key.len();
    let ids = dev.upload((0..n as u32).collect::<Vec<u32>>(), "sort.ids");
    let sorted_ids: Vec<u32> = match &key {
        Column::I32(k) => primitives::sort_pairs(dev, k, &ids).1.to_vec(),
        Column::I64(k) => primitives::sort_pairs(dev, k, &ids).1.to_vec(),
    };
    let take = limit.unwrap_or(sorted_ids.len()).min(sorted_ids.len());
    let map: Vec<u32> = if desc {
        sorted_ids.iter().rev().take(take).copied().collect()
    } else {
        sorted_ids[..take].to_vec()
    };
    // Reversal and/or limit truncation rewrite the permutation: one
    // streaming pass over the surviving 4-byte ids (CUB would fold this
    // into the sort, but the DRAM traffic is the same). An ascending
    // full-length sort needs no rewrite — the sort output *is* the map.
    if desc || limit.is_some() {
        dev.kernel("sort.limit")
            .items(take as u64, STREAM_WARP_INSTR)
            .seq_read_bytes(take as u64 * 4)
            .seq_write_bytes(take as u64 * 4)
            .launch();
    }
    let map = dev.upload(map, "sort.map");
    let cols = match deferred {
        None => {
            let Value::Table(t) = &child else {
                unreachable!("deferred handled below")
            };
            t.columns()
                .iter()
                .map(|(c_n, c)| (c_n.clone(), gather_column(dev, c, &map)))
                .collect()
        }
        Some(d) => {
            // Compose permutation ∘ selection on the device (one 4-byte
            // gather), then gather every logical column through the
            // composed map — straight from the base, once.
            let composed = primitives::gather(dev, &d.sel, &map);
            let mut cache = HashMap::new();
            let mut cols = Vec::with_capacity(d.cols.len());
            for (c_n, c) in &d.cols {
                cols.push((
                    c_n.clone(),
                    d.gather_dcol(dev, c, &composed, false, &mut cache)?,
                ));
            }
            cols
        }
    };
    Ok(Evaluated::plain(Table::from_columns("sorted", cols)))
}

/// Keep only the first `count` rows of the input, in input order — the
/// standalone `LIMIT` tail. A materialized input pays one prefix-copy
/// kernel over the surviving rows; a deferred input truncates just its
/// 4-byte selection vector and every payload column rides the ticket past
/// the limit, so only rows that survive are ever materialized.
fn limit(
    ctx: &ExecContext<'_>,
    child: Value,
    count: usize,
    materialize: bool,
) -> Result<Evaluated, EngineError> {
    let dev = ctx.dev;
    let rows = child.num_rows();
    let take = count.min(rows);
    let out = match child {
        // LIMIT at or above the input size keeps every row: metadata
        // only, no device work.
        v if take == rows => v,
        Value::Table(t) => {
            // Prefix copy: one streaming kernel over the surviving rows
            // of every column (contiguous read, contiguous write).
            let row_bytes: u64 = t.columns().iter().map(|(_, c)| c.dtype().size()).sum();
            dev.kernel("limit.slice")
                .items(take as u64, STREAM_WARP_INSTR)
                .seq_read_bytes(take as u64 * row_bytes)
                .seq_write_bytes(take as u64 * row_bytes)
                .launch();
            let cols = t
                .columns()
                .iter()
                .map(|(n, c)| {
                    let sliced = match c {
                        Column::I32(b) => Column::from_i32(
                            dev,
                            b.iter().take(take).copied().collect(),
                            "limit.out",
                        ),
                        Column::I64(b) => Column::from_i64(
                            dev,
                            b.iter().take(take).copied().collect(),
                            "limit.out",
                        ),
                    };
                    (n.clone(), sliced)
                })
                .collect();
            Value::Table(Table::from_columns(t.name(), cols))
        }
        Value::Deferred(d) => {
            // Only the selection truncates — a 4-byte prefix copy —
            // and the payload columns stay deferred past the limit.
            let sel: Vec<u32> = d.sel.iter().take(take).copied().collect();
            dev.kernel("limit.sel")
                .items(take as u64, STREAM_WARP_INSTR)
                .seq_read_bytes(take as u64 * 4)
                .seq_write_bytes(take as u64 * 4)
                .launch();
            Value::Deferred(Deferred {
                base: d.base,
                sel: dev.upload(sel, "limit.sel"),
                cols: d.cols,
            })
        }
    };
    let out = if materialize {
        Value::Table(out.into_table(dev)?)
    } else {
        out
    };
    Ok(Evaluated {
        out,
        phases: None,
        detail: None,
        provenance: None,
    })
}

/// Distinct rows of a single column: grouping with no aggregates.
fn distinct(ctx: &ExecContext<'_>, child: Value, column: &str) -> Result<Evaluated, EngineError> {
    // A deferred input materializes exactly one column — the ticket's
    // best case: every other column costs nothing.
    let key = match &child {
        Value::Table(t) => t.column(column)?.alias(),
        Value::Deferred(d) => {
            let mut cache = HashMap::new();
            d.gather_named(ctx.dev, column, &d.sel, &mut cache)?
        }
    };
    let rows = key.len();
    let rel = Relation::new("distinct_input", key, Vec::new());
    let alg = GroupByAlgorithm::SortGftr;
    let grouped = groupby::run_group_by(ctx.dev, alg, &rel, &[], &GroupByConfig::default());
    let phases = grouped.stats.phases;
    Ok(Evaluated {
        out: Value::Table(Table::from_columns(
            "distinct",
            vec![(column.to_string(), grouped.keys)],
        )),
        phases: Some(phases),
        detail: None,
        provenance: Some(Provenance::GroupBy(GroupByProvenance {
            rows,
            profile: None,
            sampled: None,
            decision: Decision::pinned(
                alg.name(),
                alg.materialization(),
                "pinned by operator",
                "Distinct always sorts: keys alone, no aggregates to gather",
            ),
        })),
    })
}

/// Grouped aggregation: algorithm by the grouped-aggregation decision tree
/// unless pinned (group count and skew sampled from the key column).
fn aggregate(
    ctx: &ExecContext<'_>,
    child: Value,
    group_by: &str,
    aggs: &[AggSpec],
    algorithm: Option<GroupByAlgorithm>,
) -> Result<Evaluated, EngineError> {
    // Materialize only what the aggregation touches: the grouping key
    // and the aggregate inputs. A deferred input's remaining columns
    // are never gathered (they have no place in the output anyway).
    let mut payloads = Vec::with_capacity(aggs.len());
    let mut fns: Vec<AggFn> = Vec::with_capacity(aggs.len());
    let key = match &child {
        Value::Table(t) => {
            let key = t.column(group_by)?.alias();
            for a in aggs {
                payloads.push(t.column(&a.column)?.alias());
                fns.push(a.agg);
            }
            key
        }
        Value::Deferred(d) => {
            let mut cache = HashMap::new();
            let key = d.gather_named(ctx.dev, group_by, &d.sel, &mut cache)?;
            for a in aggs {
                payloads.push(d.gather_named(ctx.dev, &a.column, &d.sel, &mut cache)?);
                fns.push(a.agg);
            }
            key
        }
    };
    let rows = key.len();
    let (alg, profile, sampled, decision) = match algorithm {
        Some(alg) => (
            alg,
            None,
            None,
            pinned_by_plan(alg.name(), alg.materialization()),
        ),
        None => {
            // Sample the grouping key for a distinct-count and skew
            // estimate, then let the aggregation decision tree pick.
            let sampled = ctx.sample_site(|dev| sample_group_stats(dev, &key, 512));
            let profile = AggProfile {
                rows,
                est_groups: sampled.est_groups,
                skewed: sampled.skewed(),
                wide: fns.len() > 1,
                l2_bytes: ctx.dev.config().l2_bytes,
            };
            let e = choose_group_by(&profile);
            let alg = e.algorithm;
            let decision = Decision::walked(e, alg.name(), alg.materialization());
            (alg, Some(profile), Some(sampled), decision)
        }
    };
    let rel = Relation::new("agg_input", key, payloads);
    let grouped = groupby::run_group_by(ctx.dev, alg, &rel, &fns, &GroupByConfig::default());
    let phases = grouped.stats.phases;
    let mut cols = vec![(group_by.to_string(), grouped.keys)];
    for (spec, col) in aggs.iter().zip(grouped.aggregates) {
        cols.push((spec.output.clone(), col));
    }
    Ok(Evaluated {
        out: Value::Table(Table::from_columns("aggregated", cols)),
        phases: Some(phases),
        detail: Some(alg.name().to_string()),
        provenance: Some(Provenance::GroupBy(GroupByProvenance {
            rows,
            profile,
            sampled,
            decision,
        })),
    })
}
