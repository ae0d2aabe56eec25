//! Operator fusion and plan-wide late materialization (the GFTR ticket
//! discipline, applied to whole plans).
//!
//! The paper's Section 3 distinguishes *early* materialization (GFUR: gather
//! payload values as soon as rows are touched) from *late* materialization
//! (GFTR: carry row-id "tickets" and gather payloads once, at the end).
//! Inside a single join the engine already honors that choice; this module
//! extends it across operators. `take_run` collapses every maximal chain
//! of adjacent `Filter`/`Project` plan nodes into one compiled node
//! ([`crate::op::compile`]), which `evaluate_run` runs in one go: it
//!
//! 1. rewrites all predicates and projections over the chain's *base*
//!    schema (expression substitution, [`crate::Expr::substitute`]),
//! 2. evaluates the AND of every filter predicate in one fused kernel
//!    ([`crate::Expr::eval_mask_device`]) and compacts the mask into a
//!    selection vector on the device ([`primitives::compact_mask`]), and
//! 3. emits a [`Deferred`] value — base table + selection + logical output
//!    columns — instead of gathering payload columns eagerly.
//!
//! Downstream operators consume the ticket: a join materializes only the
//! key (and any computed expressions) and lets base payload columns ride an
//! extra 4-byte ticket column through the join, gathering them once from
//! the base afterwards; an aggregation gathers only the grouping key and
//! aggregate inputs; a sort composes its permutation with the selection.
//! Columns that no consumer ever asks for are never gathered at all.
//!
//! Fusion never crosses a pipeline breaker (`Join`, `Aggregate`, `Sort`,
//! `Distinct`): those operators need value columns (keys) to do their work,
//! so the run ends there and the boundary decides what materializes.

use crate::op::{Evaluated, ExecContext, Value};
use crate::{EngineError, Expr, Plan, Table};
use columnar::Column;
use heuristics::{FusionProvenance, Provenance};
use primitives::{compact_mask, gather_column, gather_column_or_null};
use sim::{Device, DeviceBuffer};
use std::collections::HashMap;

/// A logical output column of a fused run, expressed over the base schema.
#[derive(Debug, Clone)]
pub(crate) enum DCol {
    /// A base column passed through unchanged — deferrable: consumers can
    /// gather it through the ticket at their materialization boundary.
    Base(String),
    /// A computed expression over base columns — evaluated over the
    /// selection when a consumer needs the values.
    Expr(Expr),
}

/// A late-materialized relation: the un-filtered base table, a selection
/// vector of surviving row ids (the ticket), and the logical output columns
/// over the base schema. No payload values are gathered until a consumer
/// materializes them.
pub struct Deferred {
    /// The source table the tickets index into.
    pub(crate) base: Table,
    /// Ascending surviving row ids into `base`.
    pub(crate) sel: DeviceBuffer<u32>,
    /// Logical output columns `(name, definition)`, in output order.
    pub(crate) cols: Vec<(String, DCol)>,
}

impl Deferred {
    /// Logical row count (selection length).
    pub fn num_rows(&self) -> usize {
        self.sel.len()
    }

    /// Logical table name (fused Filter/Project preserve the source's).
    pub fn name(&self) -> &str {
        self.base.name()
    }

    /// Logical column names in output order.
    pub fn column_names(&self) -> Vec<String> {
        self.cols.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Materialize one logical column through `map` (row ids into the
    /// base). Base columns pay one gather; computed columns gather their
    /// references and evaluate over the gathered rows. `cache` dedupes base
    /// gathers across calls — a base column shared by several outputs is
    /// gathered once and aliased after.
    ///
    /// `with_nulls` gathers through [`primitives::NULL_ID`] entries as the
    /// dtype's null sentinel (outer-join tickets); it only applies to base
    /// columns — computed expressions are evaluated *before* a join, so
    /// their sentinel rows come from the join's own null gather.
    pub(crate) fn gather_dcol(
        &self,
        dev: &Device,
        dcol: &DCol,
        map: &DeviceBuffer<u32>,
        with_nulls: bool,
        cache: &mut HashMap<String, Column>,
    ) -> Result<Column, EngineError> {
        let mut fetch = |b: &str| -> Result<Column, EngineError> {
            if let Some(c) = cache.get(b) {
                return Ok(c.alias());
            }
            let src = self.base.column(b)?;
            let g = if with_nulls {
                gather_column_or_null(dev, src, map)
            } else {
                gather_column(dev, src, map)
            };
            cache.insert(b.to_string(), g.alias());
            Ok(g)
        };
        match dcol {
            DCol::Base(b) => fetch(b),
            DCol::Expr(e) => {
                let mut refs: Vec<&str> = Vec::new();
                for r in e.columns() {
                    if !refs.contains(&r) {
                        refs.push(r);
                    }
                }
                let gathered = refs
                    .into_iter()
                    .map(|r| Ok((r.to_string(), fetch(r)?)))
                    .collect::<Result<Vec<_>, EngineError>>()?;
                let over = Table::from_columns(self.base.name(), gathered);
                e.eval(dev, &over)
            }
        }
    }

    /// Materialize the logical column called `name` through `map`.
    pub(crate) fn gather_named(
        &self,
        dev: &Device,
        name: &str,
        map: &DeviceBuffer<u32>,
        cache: &mut HashMap<String, Column>,
    ) -> Result<Column, EngineError> {
        let dcol = self
            .cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| EngineError::UnknownColumn {
                column: name.to_string(),
                available: self.column_names(),
            })?;
        self.gather_dcol(dev, dcol, map, false, cache)
    }

    /// Materialize every logical column through the selection — the
    /// GFUR moment, paid exactly once at the boundary.
    pub(crate) fn materialize(&self, dev: &Device) -> Result<Table, EngineError> {
        let mut cache = HashMap::new();
        let mut out = Vec::with_capacity(self.cols.len());
        for (n, c) in &self.cols {
            out.push((
                n.clone(),
                self.gather_dcol(dev, c, &self.sel, false, &mut cache)?,
            ));
        }
        Ok(Table::from_columns(self.base.name(), out))
    }
}

/// One collapsed plan node inside a fused run, innermost first, borrowed
/// from the plan.
#[derive(Debug, Clone)]
pub(crate) enum FuseStep<'p> {
    /// A `Plan::Filter` predicate.
    Filter(&'p Expr),
    /// A `Plan::Project` output list.
    Project(&'p [(String, Expr)]),
}

impl FuseStep<'_> {
    fn name(&self) -> &'static str {
        match self {
            FuseStep::Filter(_) => "Filter",
            FuseStep::Project(_) => "Project",
        }
    }
}

/// Peel the maximal run of `Filter`/`Project` nodes off the top of `plan`.
/// Returns the steps innermost-first plus the first non-fusible plan below
/// them, or `None` if `plan` starts with neither.
pub(crate) fn take_run(plan: &Plan) -> Option<(Vec<FuseStep<'_>>, &Plan)> {
    let mut steps = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            Plan::Filter { input, predicate } => {
                steps.push(FuseStep::Filter(predicate));
                cur = input;
            }
            Plan::Project { input, exprs } => {
                steps.push(FuseStep::Project(exprs));
                cur = input;
            }
            _ => break,
        }
    }
    if steps.is_empty() {
        None
    } else {
        steps.reverse();
        Some((steps, cur))
    }
}

/// The label of a fused run: `Fused(Filter+Project+…)`, innermost step
/// first.
pub(crate) fn run_label(steps: &[FuseStep<'_>]) -> String {
    let names: Vec<&str> = steps.iter().map(FuseStep::name).collect();
    format!("Fused({})", names.join("+"))
}

/// Evaluate a maximal `Filter`/`Project` run over its input (the run's
/// base): a single predicate evaluation over one selection vector, with
/// output columns deferred as tickets until `boundary` unless
/// `materialize` (both set by [`crate::op::compile`] from what consumes
/// the run).
pub(crate) fn evaluate_run(
    ctx: &ExecContext<'_>,
    input: Value,
    steps: &[FuseStep<'_>],
    materialize: bool,
    boundary: &'static str,
) -> Result<Evaluated, EngineError> {
    let base = input.into_table(ctx.dev)?;
    // The substitution environment σ: the logical schema at the current
    // step, each column as an expression over the *base* schema. Every
    // step rewrites through σ, so predicates and outputs all read
    // straight from base columns no matter how many projections
    // intervened.
    let mut env: Vec<(String, Expr)> = base
        .columns()
        .iter()
        .map(|(n, _)| (n.clone(), Expr::col(n.clone())))
        .collect();
    let mut preds: Vec<Expr> = Vec::new();
    for step in steps {
        match step {
            FuseStep::Filter(p) => preds.push(p.substitute(&env)?),
            FuseStep::Project(exprs) => {
                let mut next = Vec::with_capacity(exprs.len());
                for (n, e) in exprs.iter() {
                    next.push((n.clone(), e.substitute(&env)?));
                }
                env = next;
            }
        }
    }
    let cols: Vec<(String, DCol)> = env
        .into_iter()
        .map(|(n, e)| {
            let c = match e {
                Expr::Col(b) => DCol::Base(b),
                e => DCol::Expr(e),
            };
            (n, c)
        })
        .collect();
    let input_rows = base.num_rows();
    let deferred_cols = cols
        .iter()
        .filter(|(_, c)| matches!(c, DCol::Base(_)))
        .count();
    let computed_cols = cols.len() - deferred_cols;
    let steps: Vec<String> = steps.iter().map(|s| s.name().to_string()).collect();

    if preds.is_empty() {
        // Projection-only run: nothing selects, so there is no ticket
        // to defer — pass base columns as aliases and evaluate computed
        // outputs in place.
        let mut out = Vec::with_capacity(cols.len());
        for (n, c) in &cols {
            let col = match c {
                DCol::Base(b) => base.column(b)?.alias(),
                DCol::Expr(e) => e.eval(ctx.dev, &base)?,
            };
            out.push((n.clone(), col));
        }
        return Ok(Evaluated {
            out: Value::Table(Table::from_columns(base.name(), out)),
            phases: None,
            detail: None,
            provenance: Some(Provenance::Fusion(FusionProvenance {
                steps,
                predicates: 0,
                input_rows,
                selected_rows: input_rows,
                deferred_cols: 0,
                computed_cols,
                materialized_here: true,
                boundary: "no filter in the fused run — nothing to defer".to_string(),
            })),
        });
    }

    // One fused predicate kernel over the base, one device compaction:
    // the selection vector is the only thing this node writes.
    let combined = preds
        .iter()
        .skip(1)
        .fold(preds[0].clone(), |a, p| a.and(p.clone()));
    let mask = combined.eval_mask_device(ctx.dev, &base)?;
    let sel = compact_mask(ctx.dev, &mask);
    let selected_rows = sel.len();
    let deferred = Deferred { base, sel, cols };
    let provenance = Provenance::Fusion(FusionProvenance {
        steps,
        predicates: preds.len(),
        input_rows,
        selected_rows,
        deferred_cols,
        computed_cols,
        materialized_here: materialize,
        boundary: boundary.to_string(),
    });
    let out = if materialize {
        Value::Table(deferred.materialize(ctx.dev)?)
    } else {
        Value::Deferred(deferred)
    };
    Ok(Evaluated {
        out,
        phases: None,
        detail: None,
        provenance: Some(provenance),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, Catalog};

    fn catalog(dev: &Device) -> Catalog {
        let mut cat = Catalog::new();
        cat.insert(Table::new(
            "t",
            vec![
                ("k", Column::from_i32(dev, (0..100).collect(), "k")),
                (
                    "v",
                    Column::from_i64(dev, (0..100).map(|i| i * 10).collect(), "v"),
                ),
            ],
        ));
        cat
    }

    #[test]
    fn take_run_peels_maximal_chains() {
        let plan = Plan::scan("t")
            .filter(Expr::col("k").gt(Expr::lit(3)))
            .project(vec![("k2", Expr::col("k"))])
            .filter(Expr::col("k2").lt(Expr::lit(90)));
        let (steps, inner) = take_run(&plan).expect("run of three");
        assert_eq!(steps.len(), 3);
        assert!(matches!(steps[0], FuseStep::Filter(_)), "innermost first");
        assert!(matches!(steps[2], FuseStep::Filter(_)));
        assert!(matches!(inner, Plan::Scan { .. }), "run stops at the scan");
        assert!(take_run(&Plan::scan("t")).is_none());
    }

    #[test]
    fn runs_never_cross_a_join() {
        let plan = Plan::scan("a")
            .filter(Expr::col("x").gt(Expr::lit(0)))
            .join(
                Plan::scan("b").filter(Expr::col("y").gt(Expr::lit(0))),
                "x",
                "y",
            )
            .filter(Expr::col("x").lt(Expr::lit(10)));
        let (steps, inner) = take_run(&plan).expect("the top filter fuses");
        assert_eq!(steps.len(), 1, "only the post-join filter is in the run");
        assert!(matches!(inner, Plan::Join { .. }));
    }

    #[test]
    fn fused_filter_project_matches_the_plain_interpretation() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let plan = Plan::scan("t")
            .filter(Expr::col("v").ge(Expr::lit(200)))
            .project(vec![
                ("k", Expr::col("k")),
                ("v2", Expr::col("v").mul(Expr::lit(2))),
            ])
            .filter(Expr::col("v2").lt(Expr::lit(1800)));
        let out = execute(&dev, &cat, &plan).unwrap();
        let expected: Vec<Vec<i64>> = (0..100i64)
            .filter(|i| i * 10 >= 200 && i * 20 < 1800)
            .map(|i| vec![i, i * 20])
            .collect();
        assert_eq!(out.table.rows_sorted(), expected);
        assert_eq!(out.table.name(), "t", "source name survives fusion");
        // The whole run is one plan node over the scan.
        assert_eq!(out.stats.label, "Fused(Filter+Project+Filter)");
        assert_eq!(out.stats.children.len(), 1);
    }

    #[test]
    fn fusion_provenance_reports_the_boundary() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let plan = Plan::scan("t").filter(Expr::col("k").lt(Expr::lit(10)));
        let out = execute(&dev, &cat, &plan).unwrap();
        let Some(Provenance::Fusion(f)) = &out.stats.provenance else {
            panic!("fused node must carry fusion provenance");
        };
        assert_eq!(f.predicates, 1);
        assert_eq!(f.input_rows, 100);
        assert_eq!(f.selected_rows, 10);
        assert!(f.materialized_here, "plan root materializes");
        assert!(f.boundary.contains("root"), "{}", f.boundary);
    }

    #[test]
    fn substitution_errors_name_the_live_schema() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        // `v` is projected away before the filter references it.
        let plan = Plan::scan("t")
            .project(vec![("k2", Expr::col("k"))])
            .filter(Expr::col("v").gt(Expr::lit(0)));
        let err = match execute(&dev, &cat, &plan) {
            Err(e) => e,
            Ok(_) => panic!("filtering a projected-away column must fail"),
        };
        match err {
            EngineError::UnknownColumn { column, available } => {
                assert_eq!(column, "v");
                assert_eq!(available, vec!["k2".to_string()]);
            }
            other => panic!("expected UnknownColumn, got {other:?}"),
        }
    }
}
