//! Name and type resolution: AST → bound [`LogicalPlan`].
//!
//! The binder resolves every identifier against the catalog's per-table
//! schemas, checks clause types (WHERE/HAVING must be boolean, SELECT items
//! under GROUP BY must be keys or aggregates), folds literals to the
//! engine's integer domain (dates to epoch days, strings to dictionary
//! codes), and assembles the join tree:
//!
//! - FROM-comma tables join left-deep in FROM order; each table after the
//!   first must be reachable through a two-table equality conjunct of the
//!   WHERE clause (its join edge). Explicit `JOIN ... ON` clauses attach
//!   the same way with their own edges.
//! - The already-joined side is the build (left) side, matching the
//!   engine's convention; the binder mirrors the join's output schema —
//!   key under the left name, probe key dropped, collisions suffixed — so
//!   every later clause resolves against exactly what the operator emits.
//! - Single-table WHERE conjuncts push down to their table's scan.
//!
//! Everything that can go wrong surfaces as a typed [`EngineError`] with
//! the source span of the offending token — never a panic.

use crate::ast::{AggKind, AstExpr, BinOp, Query};
use crate::logical::LogicalPlan;
use engine::{join_output_columns, AggSpec, Catalog, EngineError, Expr, SqlSpan};
use groupby::AggFn;
use std::collections::{HashMap, HashSet};

/// One column of the current (possibly joined) scope.
#[derive(Debug, Clone)]
struct ColRef {
    /// Output name at this point of the plan (after collision suffixing).
    out: String,
    /// Table the values come from (for dictionary lookups).
    table: String,
    /// The column's name within that table.
    source: String,
}

struct Scope {
    cols: Vec<ColRef>,
}

impl Scope {
    fn names(&self) -> Vec<String> {
        self.cols.iter().map(|c| c.out.clone()).collect()
    }

    /// Resolve a possibly-qualified column reference to its output name.
    fn resolve(
        &self,
        table: &Option<String>,
        name: &str,
        span: &SqlSpan,
    ) -> Result<&ColRef, EngineError> {
        let matches: Vec<&ColRef> = self
            .cols
            .iter()
            .filter(|c| match table {
                Some(t) => &c.table == t && c.source == name,
                None => c.source == name || c.out == name,
            })
            .collect();
        match matches.len() {
            0 => Err(EngineError::SqlUnknownColumn {
                column: match table {
                    Some(t) => format!("{t}.{name}"),
                    None => name.to_string(),
                },
                available: self.names(),
                span: span.clone(),
            }),
            1 => Ok(matches[0]),
            _ => Err(EngineError::SqlAmbiguousColumn {
                column: name.to_string(),
                candidates: matches
                    .iter()
                    .map(|c| format!("{}.{}", c.table, c.source))
                    .collect(),
                span: span.clone(),
            }),
        }
    }
}

/// Check an expression is boolean (for WHERE/HAVING) or scalar (everywhere
/// else), recursing so comparisons never take boolean operands and AND/OR
/// never take scalar ones.
fn check_type(e: &AstExpr, want_bool: bool, context: &'static str) -> Result<(), EngineError> {
    let is_bool = matches!(e, AstExpr::Binary { op, .. } if op.is_boolean());
    if want_bool != is_bool {
        return Err(EngineError::SqlTypeMismatch {
            expected: if want_bool { "boolean" } else { "scalar" },
            found: if is_bool {
                "a boolean".to_string()
            } else {
                format!("the scalar '{}'", e.pretty())
            },
            context,
            span: e.span(),
        });
    }
    if let AstExpr::Binary { op, lhs, rhs, .. } = e {
        let operands_bool = matches!(op, BinOp::And | BinOp::Or);
        check_type(lhs, operands_bool, context)?;
        check_type(rhs, operands_bool, context)?;
    }
    Ok(())
}

/// Split a predicate into its top-level AND conjuncts, in source order.
fn conjuncts(e: &AstExpr) -> Vec<&AstExpr> {
    match e {
        AstExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
            ..
        } => {
            let mut v = conjuncts(lhs);
            v.extend(conjuncts(rhs));
            v
        }
        other => vec![other],
    }
}

/// Column references of an expression, resolved against `scope`.
fn collect_refs<'a>(
    e: &'a AstExpr,
    scope: &Scope,
    out: &mut Vec<(ColRef, &'a AstExpr)>,
) -> Result<(), EngineError> {
    match e {
        AstExpr::Column { table, name, span } => {
            out.push((scope.resolve(table, name, span)?.clone(), e));
            Ok(())
        }
        AstExpr::Binary { lhs, rhs, .. } => {
            collect_refs(lhs, scope, out)?;
            collect_refs(rhs, scope, out)
        }
        AstExpr::Agg { arg, span, .. } => match arg {
            Some(a) => collect_refs(a, scope, out),
            None => Err(EngineError::SqlUnsupported {
                message: "COUNT(*) is only valid in the SELECT list of a grouped query".to_string(),
                span: span.clone(),
            }),
        },
        AstExpr::Int(_) | AstExpr::Str(..) | AstExpr::Date(..) => Ok(()),
    }
}

struct Binder<'a> {
    catalog: &'a Catalog,
}

impl<'a> Binder<'a> {
    /// Bind a scalar expression (no aggregates) against `scope`.
    fn scalar(&self, e: &AstExpr, scope: &Scope) -> Result<Expr, EngineError> {
        match e {
            AstExpr::Column { table, name, span } => {
                Ok(Expr::col(scope.resolve(table, name, span)?.out.clone()))
            }
            AstExpr::Int(v) => Ok(Expr::lit(*v)),
            AstExpr::Date(s, span) => {
                let days = columnar::date::parse_date(s).ok_or_else(|| EngineError::SqlParse {
                    message: format!("'{s}' is not a valid YYYY-MM-DD date"),
                    span: span.clone(),
                })?;
                Ok(Expr::lit(days))
            }
            AstExpr::Str(s, span) => Err(EngineError::SqlTypeMismatch {
                expected: "scalar",
                found: format!(
                    "the string '{s}' (strings only compare against \
                                dictionary-encoded columns with = or <>)"
                ),
                context: "expression",
                span: span.clone(),
            }),
            AstExpr::Agg { span, .. } => Err(EngineError::SqlUnsupported {
                message: "aggregate in a scalar context (aggregates belong in the \
                          SELECT list or HAVING of a grouped query)"
                    .to_string(),
                span: span.clone(),
            }),
            AstExpr::Binary { op, lhs, rhs, span } => {
                // String comparisons fold the literal to its dictionary
                // code so the device only ever sees integers (Section 5.3
                // encoding done at bind time, not kernel time).
                if matches!(op, BinOp::Eq | BinOp::Ne) {
                    if let Some(folded) = self.fold_str_cmp(op, lhs, rhs, span, scope)? {
                        return Ok(folded);
                    }
                }
                let l = self.scalar(lhs, scope)?;
                let r = self.scalar(rhs, scope)?;
                Ok(match op {
                    BinOp::Add => l.add(r),
                    BinOp::Sub => l.sub(r),
                    BinOp::Mul => l.mul(r),
                    BinOp::Div => l.div(r),
                    BinOp::Mod => l.rem(r),
                    BinOp::Lt => l.lt(r),
                    BinOp::Le => l.le(r),
                    BinOp::Eq => l.eq(r),
                    BinOp::Ne => l.ne(r),
                    BinOp::Ge => l.ge(r),
                    BinOp::Gt => l.gt(r),
                    BinOp::And => l.and(r),
                    BinOp::Or => l.or(r),
                })
            }
        }
    }

    /// `column = 'literal'` (either orientation): fold the string to the
    /// column's dictionary code. Returns `None` when neither side is a
    /// string literal.
    fn fold_str_cmp(
        &self,
        op: &BinOp,
        lhs: &AstExpr,
        rhs: &AstExpr,
        span: &SqlSpan,
        scope: &Scope,
    ) -> Result<Option<Expr>, EngineError> {
        let (col_side, lit, lit_span) = match (lhs, rhs) {
            (c, AstExpr::Str(s, sp)) => (c, s, sp),
            (AstExpr::Str(s, sp), c) => (c, s, sp),
            _ => return Ok(None),
        };
        let AstExpr::Column {
            table,
            name,
            span: cspan,
        } = col_side
        else {
            return Err(EngineError::SqlTypeMismatch {
                expected: "a dictionary-encoded column",
                found: format!("'{}'", col_side.pretty()),
                context: "string comparison",
                span: span.clone(),
            });
        };
        let r = scope.resolve(table, name, cspan)?;
        let dict = self
            .catalog
            .schema(&r.table)?
            .dictionaries
            .get(&r.source)
            .ok_or_else(|| EngineError::SqlUnsupported {
                message: format!(
                    "column '{}' has no string dictionary; only dictionary-encoded \
                     columns compare against string literals",
                    r.out
                ),
                span: cspan.clone(),
            })?;
        let code =
            dict.iter()
                .position(|v| v == lit)
                .ok_or_else(|| EngineError::SqlUnsupported {
                    message: format!(
                        "'{lit}' is not in the dictionary of column '{}' (values: {:?})",
                        r.out, dict
                    ),
                    span: lit_span.clone(),
                })? as i64;
        let col = Expr::col(r.out.clone());
        Ok(Some(match op {
            BinOp::Eq => col.eq(Expr::lit(code)),
            _ => col.ne(Expr::lit(code)),
        }))
    }
}

/// Does the expression contain an aggregate call?
fn has_agg(e: &AstExpr) -> bool {
    match e {
        AstExpr::Agg { .. } => true,
        AstExpr::Binary { lhs, rhs, .. } => has_agg(lhs) || has_agg(rhs),
        _ => false,
    }
}

/// Bind a parsed query against the catalog into a [`LogicalPlan`].
pub fn bind(query: &Query, catalog: &Catalog) -> Result<LogicalPlan, EngineError> {
    let b = Binder { catalog };

    // --- Tables: FROM list then JOIN clauses, all verified, no repeats. ---
    let mut tables: Vec<(String, SqlSpan)> = query.from.clone();
    for j in &query.joins {
        tables.push((j.table.clone(), j.span.clone()));
    }
    let mut seen = HashSet::new();
    for (t, span) in &tables {
        if catalog.schema(t).is_err() {
            return Err(EngineError::SqlUnknownTable {
                table: t.clone(),
                span: span.clone(),
            });
        }
        if !seen.insert(t.clone()) {
            return Err(EngineError::SqlUnsupported {
                message: format!("table '{t}' appears twice (self-joins are not supported)"),
                span: span.clone(),
            });
        }
    }

    // Pre-join resolution scope: every column of every table.
    let mut all = Scope { cols: Vec::new() };
    for (t, _) in &tables {
        for name in catalog.schema(t)?.column_names() {
            all.cols.push(ColRef {
                out: name.clone(),
                table: t.clone(),
                source: name,
            });
        }
    }

    // --- WHERE: type-check, split, classify each conjunct. ---
    struct Edge {
        a: ColRef,
        b: ColRef,
        used: bool,
        span: SqlSpan,
    }
    let mut pushed: HashMap<String, Vec<Expr>> = HashMap::new();
    let mut edges: Vec<Edge> = Vec::new();
    if let Some(w) = &query.where_ {
        check_type(w, true, "WHERE")?;
        for c in conjuncts(w) {
            let mut refs = Vec::new();
            collect_refs(c, &all, &mut refs)?;
            let ref_tables: HashSet<&str> = refs.iter().map(|(r, _)| r.table.as_str()).collect();
            match ref_tables.len() {
                0 | 1 => {
                    // Single-table (or constant) predicate: push to the
                    // table's scan, bound against that table alone.
                    let t = refs
                        .first()
                        .map(|(r, _)| r.table.clone())
                        .unwrap_or_else(|| tables[0].0.clone());
                    let scope = Scope {
                        cols: all.cols.iter().filter(|c| c.table == t).cloned().collect(),
                    };
                    pushed.entry(t).or_default().push(b.scalar(c, &scope)?);
                }
                2 => {
                    // Two tables: must be a plain `a.x = b.y` join edge.
                    let edge = match c {
                        AstExpr::Binary {
                            op: BinOp::Eq,
                            lhs,
                            rhs,
                            span,
                        } => match (lhs.as_ref(), rhs.as_ref()) {
                            (AstExpr::Column { .. }, AstExpr::Column { .. }) => Some(Edge {
                                a: refs[0].0.clone(),
                                b: refs[1].0.clone(),
                                used: false,
                                span: span.clone(),
                            }),
                            _ => None,
                        },
                        _ => None,
                    };
                    match edge {
                        Some(e) => edges.push(e),
                        None => {
                            return Err(EngineError::SqlUnsupported {
                                message: format!(
                                    "predicate '{}' spans two tables but is not a plain \
                                     column equality (only equi-joins are supported)",
                                    c.pretty()
                                ),
                                span: c.span(),
                            })
                        }
                    }
                }
                _ => {
                    return Err(EngineError::SqlUnsupported {
                        message: format!(
                            "predicate '{}' references more than two tables",
                            c.pretty()
                        ),
                        span: c.span(),
                    })
                }
            }
        }
    }
    for j in &query.joins {
        let mut refs = Vec::new();
        collect_refs(&j.on_left, &all, &mut refs)?;
        collect_refs(&j.on_right, &all, &mut refs)?;
        if refs.len() != 2
            || !matches!(j.on_left, AstExpr::Column { .. })
            || !matches!(j.on_right, AstExpr::Column { .. })
        {
            return Err(EngineError::SqlUnsupported {
                message: "JOIN ... ON must be a plain column equality".to_string(),
                span: j.span.clone(),
            });
        }
        edges.push(Edge {
            a: refs[0].0.clone(),
            b: refs[1].0.clone(),
            used: false,
            span: j.span.clone(),
        });
    }

    // --- Left-deep join tree in table order; WHERE edges connect. ---
    let table_plan = |t: &str| -> LogicalPlan {
        let mut p = LogicalPlan::Scan {
            table: t.to_string(),
        };
        if let Some(filters) = pushed.get(t) {
            for f in filters {
                p = LogicalPlan::Filter {
                    input: Box::new(p),
                    predicate: f.clone(),
                };
            }
        }
        p
    };
    let mut plan = table_plan(&tables[0].0);
    // The evolving joined schema, mirroring the engine join's output
    // (key under the left name, probe key dropped, collisions suffixed).
    let mut schema: Vec<ColRef> = all
        .cols
        .iter()
        .filter(|c| c.table == tables[0].0)
        .cloned()
        .collect();
    let mut joined: HashSet<String> = HashSet::new();
    joined.insert(tables[0].0.clone());
    for (t, span) in &tables[1..] {
        // Find this table's edge to the already-joined set.
        let edge = edges
            .iter_mut()
            .find(|e| {
                !e.used
                    && ((e.a.table == *t && joined.contains(&e.b.table))
                        || (e.b.table == *t && joined.contains(&e.a.table)))
            })
            .ok_or_else(|| EngineError::SqlUnsupported {
                message: format!(
                    "no join condition connects '{t}' to the tables before it \
                     (cross joins are not supported)"
                ),
                span: span.clone(),
            })?;
        edge.used = true;
        let (in_scope, new) = if edge.a.table == *t {
            (&edge.b, &edge.a)
        } else {
            (&edge.a, &edge.b)
        };
        // The in-scope key resolves through the *current* joined schema
        // (it may have been renamed by an earlier collision).
        let left_key = schema
            .iter()
            .find(|c| c.table == in_scope.table && c.source == in_scope.source)
            .ok_or_else(|| EngineError::SqlUnknownColumn {
                column: format!("{}.{}", in_scope.table, in_scope.source),
                available: schema.iter().map(|c| c.out.clone()).collect(),
                span: edge.span.clone(),
            })?
            .out
            .clone();
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(table_plan(t)),
            left_key: left_key.clone(),
            right_key: new.source.clone(),
        };
        // Mirror the join's output schema.
        let left: Vec<String> = schema.iter().map(|c| c.out.clone()).collect();
        let right = catalog.schema(t)?.column_names();
        let out: Vec<ColRef> = join_output_columns(&left, &right, &left_key, &new.source)
            .into_iter()
            .map(|(out, side, input)| match side {
                0 => ColRef {
                    out,
                    ..schema.iter().find(|c| c.out == input).unwrap().clone()
                },
                _ => ColRef {
                    out,
                    table: t.clone(),
                    source: input,
                },
            })
            .collect();
        schema = out;
        joined.insert(t.clone());
    }
    if let Some(e) = edges.iter().find(|e| !e.used) {
        return Err(EngineError::SqlUnsupported {
            message: "join condition does not fit the left-deep table order".to_string(),
            span: e.span.clone(),
        });
    }
    let scope = Scope { cols: schema };

    // --- Grouping vs plain selection. ---
    let grouped = !query.group_by.is_empty();
    if !grouped {
        if let Some(item) = query.select.iter().find(|i| has_agg(&i.expr)) {
            return Err(EngineError::SqlUnsupported {
                message: "aggregates need a GROUP BY (global aggregation is not supported)"
                    .to_string(),
                span: item.expr.span(),
            });
        }
        if let Some(h) = &query.having {
            return Err(EngineError::SqlUnsupported {
                message: "HAVING needs a GROUP BY".to_string(),
                span: h.span(),
            });
        }
    }

    let mut output: Vec<String> = Vec::new(); // final output names, SELECT order
    if grouped {
        // Group keys: plain columns, resolved through the joined schema.
        let mut keys: Vec<String> = Vec::new();
        let mut gspan = SqlSpan::default();
        for g in &query.group_by {
            let AstExpr::Column { table, name, span } = g else {
                return Err(EngineError::SqlUnsupported {
                    message: format!("GROUP BY expression '{}' (only columns group)", g.pretty()),
                    span: g.span(),
                });
            };
            gspan = span.clone();
            keys.push(scope.resolve(table, name, span)?.out.clone());
        }

        // Aggregates from SELECT and HAVING, structurally deduplicated.
        struct BoundAgg {
            fingerprint: String,
            output: String,
            input: String,
            fun: AggFn,
        }
        let mut aggs: Vec<BoundAgg> = Vec::new();
        let mut computed: Vec<(String, Expr)> = Vec::new(); // pre-agg projections
        let mut used_names: HashSet<String> = keys.iter().cloned().collect();
        let bind_agg = |kind: &AggKind,
                        arg: &Option<Box<AstExpr>>,
                        span: &SqlSpan,
                        alias: Option<&str>,
                        aggs: &mut Vec<BoundAgg>,
                        computed: &mut Vec<(String, Expr)>,
                        used_names: &mut HashSet<String>|
         -> Result<String, EngineError> {
            let fun = match kind {
                AggKind::Count => AggFn::Count,
                AggKind::Sum => AggFn::Sum,
                AggKind::Min => AggFn::Min,
                AggKind::Max => AggFn::Max,
                AggKind::Avg => {
                    return Err(EngineError::SqlUnsupported {
                        message: "AVG is not supported (no average kernel; integer \
                                  division would silently round)"
                            .to_string(),
                        span: span.clone(),
                    })
                }
            };
            let fingerprint = match arg {
                Some(a) => format!("{}({})", kind.sql(), a.pretty()),
                None => "COUNT(*)".to_string(),
            };
            if let Some(existing) = aggs.iter().find(|a| a.fingerprint == fingerprint) {
                return Ok(existing.output.clone());
            }
            // Input column: a plain column passes through; a computed
            // argument becomes a synthesized pre-aggregation projection.
            let input = match arg.as_deref() {
                None => keys[0].clone(), // COUNT(*): any column counts rows
                Some(AstExpr::Column { table, name, span }) => {
                    scope.resolve(table, name, span)?.out.clone()
                }
                Some(computed_arg) => {
                    check_type(computed_arg, false, "aggregate argument")?;
                    let name = format!("__agg{}", computed.len());
                    computed.push((name.clone(), b.scalar(computed_arg, &scope)?));
                    name
                }
            };
            // Output name: the alias, else a deterministic default.
            let base = match alias {
                Some(a) => a.to_string(),
                None => match arg.as_deref() {
                    None => "count".to_string(),
                    Some(AstExpr::Column { name, .. }) => {
                        format!("{}_{name}", kind.sql().to_ascii_lowercase())
                    }
                    Some(_) => kind.sql().to_ascii_lowercase(),
                },
            };
            let mut output = base.clone();
            let mut i = 1;
            while !used_names.insert(output.clone()) {
                i += 1;
                output = format!("{base}_{i}");
            }
            aggs.push(BoundAgg {
                fingerprint,
                output: output.clone(),
                input,
                fun,
            });
            Ok(output)
        };

        // SELECT items: group keys (possibly aliased) or aggregates.
        for item in &query.select {
            match &item.expr {
                AstExpr::Agg { kind, arg, span } => {
                    let name = bind_agg(
                        kind,
                        arg,
                        span,
                        item.alias.as_deref(),
                        &mut aggs,
                        &mut computed,
                        &mut used_names,
                    )?;
                    output.push(name);
                }
                AstExpr::Column { table, name, span } => {
                    let out = scope.resolve(table, name, span)?.out.clone();
                    if !keys.contains(&out) {
                        return Err(EngineError::SqlUnsupported {
                            message: format!("column '{out}' is neither grouped nor aggregated"),
                            span: span.clone(),
                        });
                    }
                    output.push(item.alias.clone().unwrap_or(out));
                }
                other => {
                    return Err(EngineError::SqlUnsupported {
                        message: format!(
                            "SELECT item '{}' must be a group column or an aggregate",
                            other.pretty()
                        ),
                        span: other.span(),
                    })
                }
            }
        }

        // HAVING: aggregates match SELECT's structurally or become hidden
        // aggregates; everything else must be a group column.
        let having_pred = match &query.having {
            None => None,
            Some(h) => {
                check_type(h, true, "HAVING")?;
                type AggRewriter<'a> = dyn FnMut(&AggKind, &Option<Box<AstExpr>>, &SqlSpan) -> Result<String, EngineError>
                    + 'a;
                fn rewrite(e: &AstExpr, f: &mut AggRewriter<'_>) -> Result<AstExpr, EngineError> {
                    Ok(match e {
                        AstExpr::Agg { kind, arg, span } => AstExpr::Column {
                            table: None,
                            name: f(kind, arg, span)?,
                            span: span.clone(),
                        },
                        AstExpr::Binary { op, lhs, rhs, span } => AstExpr::Binary {
                            op: *op,
                            lhs: Box::new(rewrite(lhs, f)?),
                            rhs: Box::new(rewrite(rhs, f)?),
                            span: span.clone(),
                        },
                        other => other.clone(),
                    })
                }
                let rewritten = rewrite(h, &mut |kind, arg, span| {
                    bind_agg(
                        kind,
                        arg,
                        span,
                        None,
                        &mut aggs,
                        &mut computed,
                        &mut used_names,
                    )
                })?;
                Some(rewritten)
            }
        };

        // Pre-aggregation projection: the group keys, every plain
        // aggregate input not already present, and the computed inputs.
        // This is also the late-materialization narrowing: only these
        // columns cross the aggregation boundary.
        let mut pre: Vec<(String, Expr)> = keys
            .iter()
            .map(|k| (k.clone(), Expr::col(k.clone())))
            .collect();
        for a in &aggs {
            if !pre.iter().any(|(n, _)| n == &a.input)
                && !computed.iter().any(|(n, _)| n == &a.input)
            {
                pre.push((a.input.clone(), Expr::col(a.input.clone())));
            }
        }
        pre.extend(computed.iter().cloned());
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: pre,
        };
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: keys.clone(),
            aggs: aggs
                .iter()
                .map(|a| AggSpec::new(a.fun, a.input.clone(), a.output.clone()))
                .collect(),
            span: gspan,
        };
        // Aggregate output scope: keys then aggregate outputs.
        let agg_scope = Scope {
            cols: keys
                .iter()
                .chain(aggs.iter().map(|a| &a.output))
                .map(|n| ColRef {
                    out: n.clone(),
                    table: String::new(),
                    source: n.clone(),
                })
                .collect(),
        };
        if let Some(h) = having_pred {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: b.scalar(&h, &agg_scope)?,
            };
        }
        // Final projection: SELECT order and aliases. (Hidden HAVING
        // aggregates drop here.)
        let mut final_exprs: Vec<(String, Expr)> = Vec::new();
        for (item, out_name) in query.select.iter().zip(&output) {
            let source = match &item.expr {
                AstExpr::Column { table, name, span } => {
                    scope.resolve(table, name, span)?.out.clone()
                }
                _ => out_name.clone(), // aggregate: already named
            };
            final_exprs.push((out_name.clone(), Expr::col(source)));
        }
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: final_exprs,
        };
    } else {
        // Plain selection: project the SELECT list.
        let mut exprs: Vec<(String, Expr)> = Vec::new();
        for (i, item) in query.select.iter().enumerate() {
            check_type(&item.expr, false, "SELECT")?;
            let name = match (&item.alias, &item.expr) {
                (Some(a), _) => a.clone(),
                (None, AstExpr::Column { table, name, span }) => {
                    scope.resolve(table, name, span)?.out.clone()
                }
                (None, _) => format!("col{i}"),
            };
            exprs.push((name.clone(), b.scalar(&item.expr, &scope)?));
            output.push(name);
        }
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
        };
    }

    // --- DISTINCT: exactly one output column. ---
    if query.distinct {
        if output.len() != 1 {
            return Err(EngineError::SqlUnsupported {
                message: "SELECT DISTINCT supports exactly one column".to_string(),
                span: query.select[0].expr.span(),
            });
        }
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
            column: output[0].clone(),
        };
    }

    // --- ORDER BY: keys resolve against the output schema. ---
    if !query.order_by.is_empty() {
        let mut keys = Vec::new();
        let mut span = SqlSpan::default();
        for o in &query.order_by {
            let AstExpr::Column {
                table: None,
                name,
                span: ospan,
            } = &o.expr
            else {
                return Err(EngineError::SqlUnsupported {
                    message: format!(
                        "ORDER BY key '{}' must be an output column or alias",
                        o.expr.pretty()
                    ),
                    span: o.expr.span(),
                });
            };
            if !output.contains(name) {
                return Err(EngineError::SqlUnknownColumn {
                    column: name.clone(),
                    available: output.clone(),
                    span: ospan.clone(),
                });
            }
            span = ospan.clone();
            keys.push((name.clone(), o.desc));
        }
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
            span,
        };
    }

    // --- LIMIT. ---
    if let Some(count) = query.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            count,
        };
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use columnar::Column;
    use engine::Table;
    use sim::Device;

    fn catalog(dev: &Device) -> Catalog {
        let mut c = Catalog::new();
        c.insert(Table::new(
            "orders",
            vec![
                ("o_id", Column::from_i32(dev, vec![1, 2, 3, 4], "o_id")),
                (
                    "o_cust",
                    Column::from_i32(dev, vec![10, 11, 10, 12], "o_cust"),
                ),
                (
                    "o_price",
                    Column::from_i64(dev, vec![50, 60, 70, 80], "o_price"),
                ),
                ("tag", Column::from_i32(dev, vec![0, 0, 1, 1], "tag")),
            ],
        ));
        c.insert(Table::new(
            "customer",
            vec![
                ("c_id", Column::from_i32(dev, vec![10, 11, 12], "c_id")),
                ("c_seg", Column::from_i32(dev, vec![0, 1, 0], "c_seg")),
                ("tag", Column::from_i32(dev, vec![7, 8, 9], "tag")),
            ],
        ));
        c.set_primary_key("customer", "c_id").unwrap();
        c.set_dictionary("customer", "c_seg", vec!["AUTO".into(), "BUILDING".into()])
            .unwrap();
        c
    }

    fn bind_sql(sql: &str, cat: &Catalog) -> Result<LogicalPlan, EngineError> {
        bind(&parse(sql).expect("parse"), cat)
    }

    #[test]
    fn unknown_table_and_column_report_spans() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        match bind_sql("SELECT o_id FROM nope", &cat) {
            Err(EngineError::SqlUnknownTable { table, span }) => {
                assert_eq!(table, "nope");
                assert_eq!((span.line, span.column), (1, 18));
            }
            other => panic!("expected unknown table, got {other:?}"),
        }
        match bind_sql("SELECT o_missing FROM orders", &cat) {
            Err(EngineError::SqlUnknownColumn {
                column, available, ..
            }) => {
                assert_eq!(column, "o_missing");
                assert!(available.contains(&"o_id".to_string()), "{available:?}");
            }
            other => panic!("expected unknown column, got {other:?}"),
        }
    }

    #[test]
    fn unqualified_collisions_are_ambiguous_qualified_are_not() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let err = bind_sql("SELECT tag FROM orders, customer WHERE o_cust = c_id", &cat);
        match err {
            Err(EngineError::SqlAmbiguousColumn {
                column, candidates, ..
            }) => {
                assert_eq!(column, "tag");
                assert_eq!(candidates.len(), 2, "{candidates:?}");
            }
            other => panic!("expected ambiguity, got {other:?}"),
        }
        bind_sql(
            "SELECT orders.tag FROM orders, customer WHERE o_cust = c_id",
            &cat,
        )
        .expect("qualified reference resolves");
    }

    #[test]
    fn where_must_be_boolean() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        match bind_sql("SELECT o_id FROM orders WHERE o_id + 1", &cat) {
            Err(EngineError::SqlTypeMismatch {
                expected, context, ..
            }) => {
                assert_eq!(expected, "boolean");
                assert_eq!(context, "WHERE");
            }
            other => panic!("expected type mismatch, got {other:?}"),
        }
        // Boolean where a scalar is needed is just as wrong.
        assert!(matches!(
            bind_sql("SELECT o_id FROM orders WHERE (o_id < 2) + 1 = 1", &cat),
            Err(EngineError::SqlTypeMismatch { .. })
        ));
    }

    #[test]
    fn avg_and_unknown_dictionary_values_are_unsupported() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        assert!(matches!(
            bind_sql("SELECT AVG(o_price) FROM orders GROUP BY o_id", &cat),
            Err(EngineError::SqlUnsupported { .. })
        ));
        // String literal against a column with no dictionary.
        assert!(matches!(
            bind_sql("SELECT o_id FROM orders WHERE o_id = 'x'", &cat),
            Err(EngineError::SqlUnsupported { .. })
        ));
        // Dictionary exists but the value doesn't.
        assert!(matches!(
            bind_sql("SELECT c_id FROM customer WHERE c_seg = 'NOPE'", &cat),
            Err(EngineError::SqlUnsupported { .. })
        ));
        // A real dictionary value binds fine.
        bind_sql("SELECT c_id FROM customer WHERE c_seg = 'BUILDING'", &cat)
            .expect("dictionary fold");
    }

    #[test]
    fn join_tree_and_grouping_shape() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        let plan = bind_sql(
            "SELECT c_id, SUM(o_price) AS total FROM customer, orders \
             WHERE c_id = o_cust AND o_price > 55 \
             GROUP BY c_id HAVING SUM(o_price) > 100 ORDER BY total DESC LIMIT 2",
            &cat,
        )
        .expect("bind");
        let r = plan.render();
        for needle in [
            "Join(c_id=o_cust)",
            "Aggregate(by c_id; 1 aggs)",
            "Sort(by total desc)",
            "Limit(2)",
        ] {
            assert!(r.contains(needle), "missing {needle} in:\n{r}");
        }
        // The single-table conjunct pushed below the join: the deepest
        // Filter (the pushed one, not HAVING's) renders after the Join line.
        let join_at = r.find("Join").unwrap();
        let filter_at = r.rfind("Filter").unwrap();
        assert!(
            filter_at > join_at,
            "pushed filter should render under the join:\n{r}"
        );
    }

    #[test]
    fn unused_join_edges_and_unreachable_tables_error() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        // No edge connecting customer to orders at all.
        assert!(matches!(
            bind_sql("SELECT o_id FROM orders, customer", &cat),
            Err(EngineError::SqlUnsupported { .. })
        ));
        // HAVING without GROUP BY.
        assert!(matches!(
            bind_sql("SELECT o_id FROM orders HAVING o_id > 1", &cat),
            Err(EngineError::SqlUnsupported { .. })
        ));
    }

    #[test]
    fn binder_never_panics_on_hostile_input() {
        let dev = Device::a100();
        let cat = catalog(&dev);
        for sql in [
            "SELECT",
            "SELECT FROM orders",
            "SELECT * FROM orders",
            "SELECT o_id FROM orders WHERE",
            "SELECT o_id FROM orders GROUP BY",
            "SELECT o_id FROM orders LIMIT -1",
            "SELECT o_id FROM orders ORDER BY nope",
            "SELECT COUNT(*) FROM orders, orders",
            "SELECT o_id, o_id FROM orders WHERE 'a' = 'b'",
        ] {
            let res = parse(sql).and_then(|q| bind(&q, &cat));
            assert!(res.is_err(), "{sql:?} should fail cleanly");
        }
    }
}
