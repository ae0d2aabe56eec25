//! Lowering: bound [`LogicalPlan`] → executable [`engine::Plan`].
//!
//! Most nodes map one-to-one; the work is the two rewrites that fit SQL's
//! multi-column GROUP BY / ORDER BY onto the engine's single-key kernels,
//! decided by the [`heuristics::composite`] tree from a bottom-up static
//! analysis of the plan:
//!
//! - **Value ranges** flow from the catalog's load-time column statistics
//!   through filters, projections (interval arithmetic), joins (key ranges
//!   intersect) and aggregates (a SUM is bounded by the row bound times the
//!   per-row range). They size the bit fields of packed composite keys.
//! - **Uniqueness and functional dependencies** start at declared primary
//!   keys and survive what preserves them: a join whose build key is unique
//!   keeps probe-side properties (and vice versa), and determinant sets
//!   ride along under the join's output names. They justify the
//!   FD-reduction fallback when a grouping key will not pack.
//!
//! Packing is order-preserving (major column in the high bits, offsets
//! removed), so a packed ORDER BY sorts exactly like its lexicographic
//! tuple; descending keys enter the field as `max - value`. Group keys
//! unpack at the boundary with one Div/Mod projection per column.
//! Every composite decision is recorded in [`Lowered::notes`] — the same
//! guard/rationale text the heuristics tree carries, so `explain.json` can
//! show why a plan has the shape it has.

use crate::logical::LogicalPlan;
use engine::{AggSpec, Catalog, EngineError, Expr, Plan};
use groupby::AggFn;
use heuristics::composite::{bits_for_span, choose_composite, CompositeProfile, CompositeStrategy};
use std::collections::{HashMap, HashSet};

/// The lowered plan plus the composite-key decisions taken on the way.
#[derive(Debug)]
pub struct Lowered {
    /// The executable plan.
    pub plan: Plan,
    /// One line per composite GROUP BY / ORDER BY rewrite: the strategy,
    /// the bit budget and the decision-tree rationale.
    pub notes: Vec<String>,
}

/// Lower a bound logical plan against the catalog.
pub fn lower(logical: &LogicalPlan, catalog: &Catalog) -> Result<Lowered, EngineError> {
    let mut notes = Vec::new();
    let (plan, _info) = lower_node(logical, catalog, &mut notes)?;
    Ok(Lowered { plan, notes })
}

/// An inclusive value range; `min > max` means empty/unknown-empty.
#[derive(Debug, Clone, Copy)]
struct Range {
    min: i64,
    max: i64,
}

impl Range {
    const WIDE: Range = Range {
        min: i64::MIN,
        max: i64::MAX,
    };

    fn lit(v: i64) -> Range {
        Range { min: v, max: v }
    }

    /// Field width in bits for this range's span (≥ 1; 64 when the span
    /// overflows, which can never pack).
    fn bits(&self) -> u32 {
        let span = (self.max as i128) - (self.min as i128);
        if span <= 0 {
            1
        } else if span > u64::MAX as i128 {
            64
        } else {
            bits_for_span(span as u64)
        }
    }
}

fn sat(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// What the analysis knows about a node's output.
#[derive(Debug, Clone)]
struct Info {
    /// Output columns in order, with value ranges.
    cols: Vec<(String, Range)>,
    /// Upper bound on output rows.
    rows: u64,
    /// Columns known unique (each value at most once).
    unique: HashSet<String>,
    /// Functional dependencies: determinant → columns it determines.
    determines: HashMap<String, HashSet<String>>,
}

impl Info {
    fn range(&self, name: &str) -> Range {
        self.cols
            .iter()
            .find_map(|(n, r)| (n == name).then_some(*r))
            .unwrap_or(Range::WIDE)
    }

    /// Transitive closure of what `det` determines (including itself).
    fn closure(&self, det: &str) -> HashSet<String> {
        let mut set: HashSet<String> = HashSet::new();
        let mut frontier = vec![det.to_string()];
        while let Some(c) = frontier.pop() {
            if !set.insert(c.clone()) {
                continue;
            }
            if let Some(ds) = self.determines.get(&c) {
                frontier.extend(ds.iter().cloned());
            }
        }
        set
    }
}

/// Interval arithmetic over the engine expression language. Anything the
/// rules below don't cover is conservatively wide.
fn range_of(e: &Expr, info: &Info) -> Range {
    match e {
        Expr::Col(c) => info.range(c),
        Expr::Lit(v) => Range::lit(*v),
        Expr::Add(a, b) => {
            let (x, y) = (range_of(a, info), range_of(b, info));
            Range {
                min: sat(x.min as i128 + y.min as i128),
                max: sat(x.max as i128 + y.max as i128),
            }
        }
        Expr::Sub(a, b) => {
            let (x, y) = (range_of(a, info), range_of(b, info));
            Range {
                min: sat(x.min as i128 - y.max as i128),
                max: sat(x.max as i128 - y.min as i128),
            }
        }
        Expr::Mul(a, b) => {
            let (x, y) = (range_of(a, info), range_of(b, info));
            let p = [
                x.min as i128 * y.min as i128,
                x.min as i128 * y.max as i128,
                x.max as i128 * y.min as i128,
                x.max as i128 * y.max as i128,
            ];
            Range {
                min: sat(*p.iter().min().unwrap()),
                max: sat(*p.iter().max().unwrap()),
            }
        }
        Expr::Div(a, b) => match (**b).clone() {
            Expr::Lit(d) if d > 0 => {
                let x = range_of(a, info);
                let q = [x.min / d, x.max / d];
                Range {
                    min: *q.iter().min().unwrap(),
                    max: *q.iter().max().unwrap(),
                }
            }
            _ => Range::WIDE,
        },
        Expr::Mod(_, b) => match (**b).clone() {
            Expr::Lit(m) if m > 0 => Range {
                min: -(m - 1),
                max: m - 1,
            },
            _ => Range::WIDE,
        },
        Expr::Cmp { .. } | Expr::And(..) | Expr::Or(..) => Range { min: 0, max: 1 },
        _ => Range::WIDE,
    }
}

/// The per-output range of one aggregate, given the input's row bound.
fn agg_range(fun: AggFn, input: Range, rows: u64) -> Range {
    match fun {
        AggFn::Min | AggFn::Max => input,
        AggFn::Count => Range {
            min: 0,
            max: sat(rows as i128),
        },
        AggFn::Sum => Range {
            min: sat((rows as i128 * input.min as i128).min(0)),
            max: sat((rows as i128 * input.max as i128).max(0)),
        },
    }
}

/// Pack `fields` (already offset to start at zero) into one integer,
/// major-first (Horner form): each step shifts the accumulator past the
/// next field's width. Total width must be ≤ 63 (checked by the caller).
fn pack_expr(fields: &[(Expr, u32)]) -> Expr {
    let mut it = fields.iter();
    let (first, _) = it.next().expect("at least one field");
    let mut acc = first.clone();
    for (field, width) in it {
        acc = acc.mul(Expr::lit(1i64 << width)).add(field.clone());
    }
    acc
}

/// The zero-offset field for a key column: `col - min`, or `max - col`
/// for descending sort keys (so ascending packed order = descending
/// column order).
fn field(col: &str, r: Range, desc: bool) -> Expr {
    if desc {
        Expr::lit(r.max).sub(Expr::col(col))
    } else if r.min == 0 {
        Expr::col(col)
    } else {
        Expr::col(col).sub(Expr::lit(r.min))
    }
}

fn lower_node(
    node: &LogicalPlan,
    catalog: &Catalog,
    notes: &mut Vec<String>,
) -> Result<(Plan, Info), EngineError> {
    match node {
        LogicalPlan::Scan { table } => {
            let schema = catalog.schema(table)?;
            let cols = schema
                .columns
                .iter()
                .map(|(n, m)| {
                    (
                        n.clone(),
                        Range {
                            min: m.min,
                            max: m.max,
                        },
                    )
                })
                .collect::<Vec<_>>();
            let mut unique = HashSet::new();
            let mut determines = HashMap::new();
            if let Some(pk) = &schema.primary_key {
                unique.insert(pk.clone());
                determines.insert(
                    pk.clone(),
                    cols.iter()
                        .map(|(n, _)| n.clone())
                        .filter(|n| n != pk)
                        .collect(),
                );
            }
            Ok((
                Plan::scan(table.clone()),
                Info {
                    cols,
                    rows: schema.rows as u64,
                    unique,
                    determines,
                },
            ))
        }
        LogicalPlan::Filter { input, predicate } => {
            let (plan, info) = lower_node(input, catalog, notes)?;
            Ok((plan.filter(predicate.clone()), info))
        }
        LogicalPlan::Project { input, exprs } => {
            let (plan, info) = lower_node(input, catalog, notes)?;
            let out = exprs
                .iter()
                .map(|(n, e)| (n.clone(), range_of(e, &info)))
                .collect();
            // Plain column references carry uniqueness and FDs through the
            // projection under their output names; computed columns don't.
            let renames: HashMap<&str, Vec<&str>> = {
                let mut m: HashMap<&str, Vec<&str>> = HashMap::new();
                for (n, e) in exprs {
                    if let Expr::Col(c) = e {
                        m.entry(c.as_str()).or_default().push(n.as_str());
                    }
                }
                m
            };
            let unique = info
                .unique
                .iter()
                .flat_map(|u| renames.get(u.as_str()).into_iter().flatten())
                .map(|s| s.to_string())
                .collect();
            let mut determines: HashMap<String, HashSet<String>> = HashMap::new();
            for (det, set) in &info.determines {
                let Some(new_dets) = renames.get(det.as_str()) else {
                    continue;
                };
                let new_set: HashSet<String> = set
                    .iter()
                    .flat_map(|c| renames.get(c.as_str()).into_iter().flatten())
                    .map(|s| s.to_string())
                    .collect();
                if new_set.is_empty() {
                    continue;
                }
                for nd in new_dets {
                    determines.insert(nd.to_string(), new_set.clone());
                }
            }
            Ok((
                Plan::Project {
                    input: Box::new(plan),
                    exprs: exprs.clone(),
                },
                Info {
                    cols: out,
                    rows: info.rows,
                    unique,
                    determines,
                },
            ))
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let (lp, li) = lower_node(left, catalog, notes)?;
            let (rp, ri) = lower_node(right, catalog, notes)?;
            let plan = lp.join(rp, left_key, right_key);
            let l_unique = li.unique.contains(left_key);
            let r_unique = ri.unique.contains(right_key);
            let rows = if l_unique {
                ri.rows
            } else if r_unique {
                li.rows
            } else {
                li.rows.saturating_mul(ri.rows)
            };
            // Output schema mirrors the engine join: key under the left
            // name, left payloads, right payloads sans probe key,
            // collisions suffixed `_n` in output order.
            let lk = li.range(left_key);
            let rk = ri.range(right_key);
            let key_range = Range {
                min: lk.min.max(rk.min),
                max: lk.max.min(rk.max),
            };
            // (old name, side) in output order; side 0 = left, 1 = right.
            let mut bases: Vec<(String, usize, Range)> = Vec::new();
            bases.push((left_key.clone(), 0, key_range));
            for (n, r) in li.cols.iter().filter(|(n, _)| n != left_key) {
                bases.push((n.clone(), 0, *r));
            }
            for (n, r) in ri.cols.iter().filter(|(n, _)| n != right_key) {
                bases.push((n.clone(), 1, *r));
            }
            let mut used: HashMap<String, usize> = HashMap::new();
            let mut cols = Vec::new();
            // rename[side]: old name -> output name.
            let mut rename: [HashMap<String, String>; 2] = [HashMap::new(), HashMap::new()];
            for (old, side, r) in &bases {
                let n = used.entry(old.clone()).or_insert(0);
                *n += 1;
                let out = if *n == 1 {
                    old.clone()
                } else {
                    format!("{old}_{n}")
                };
                rename[*side].insert(old.clone(), out.clone());
                cols.push((out, *r));
            }
            // The probe key's values surface as the output key column.
            rename[1].insert(right_key.clone(), rename[0][left_key].clone());
            let key_out = rename[0][left_key].clone();

            let mut unique: HashSet<String> = HashSet::new();
            if l_unique {
                // Each probe row matches at most one build row: probe-side
                // uniqueness survives.
                for u in &ri.unique {
                    if let Some(n) = rename[1].get(u) {
                        unique.insert(n.clone());
                    }
                }
            }
            if r_unique {
                for u in &li.unique {
                    if let Some(n) = rename[0].get(u) {
                        unique.insert(n.clone());
                    }
                }
            }
            if !(l_unique && r_unique) {
                unique.remove(&key_out);
            }
            let mut determines: HashMap<String, HashSet<String>> = HashMap::new();
            let merge = |side: usize,
                         dets: &HashMap<String, HashSet<String>>,
                         out: &mut HashMap<String, HashSet<String>>| {
                for (det, set) in dets {
                    let Some(nd) = rename[side].get(det) else {
                        continue;
                    };
                    let ns: HashSet<String> = set
                        .iter()
                        .filter_map(|c| rename[side].get(c).cloned())
                        .collect();
                    out.entry(nd.clone()).or_default().extend(ns);
                }
            };
            merge(0, &li.determines, &mut determines);
            merge(1, &ri.determines, &mut determines);
            // The key column equals both join keys, so it determines what
            // either determined; and a unique side's key determines that
            // whole side.
            if l_unique {
                let all_left: HashSet<String> = li
                    .cols
                    .iter()
                    .filter_map(|(n, _)| rename[0].get(n).cloned())
                    .collect();
                determines
                    .entry(key_out.clone())
                    .or_default()
                    .extend(all_left);
            }
            if r_unique {
                let all_right: HashSet<String> = ri
                    .cols
                    .iter()
                    .filter_map(|(n, _)| rename[1].get(n).cloned())
                    .collect();
                determines
                    .entry(key_out.clone())
                    .or_default()
                    .extend(all_right);
            }
            determines
                .entry(key_out.clone())
                .or_default()
                .remove(&key_out);
            Ok((
                plan,
                Info {
                    cols,
                    rows,
                    unique,
                    determines,
                },
            ))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            span,
        } => {
            let (plan, info) = lower_node(input, catalog, notes)?;
            let agg_ranges: Vec<(String, Range)> = aggs
                .iter()
                .map(|a| {
                    (
                        a.output.clone(),
                        agg_range(a.agg, info.range(&a.column), info.rows),
                    )
                })
                .collect();
            if group_by.len() == 1 {
                let key = &group_by[0];
                let mut cols = vec![(key.clone(), info.range(key))];
                cols.extend(agg_ranges);
                let mut determines = HashMap::new();
                determines.insert(
                    key.clone(),
                    cols.iter()
                        .map(|(n, _)| n.clone())
                        .filter(|n| n != key)
                        .collect::<HashSet<_>>(),
                );
                return Ok((
                    plan.aggregate(key, aggs.clone()),
                    Info {
                        rows: info.rows,
                        cols,
                        unique: [key.clone()].into_iter().collect(),
                        determines,
                    },
                ));
            }
            // Multi-column grouping: let the composite tree decide.
            let widths: Vec<u32> = group_by.iter().map(|g| info.range(g).bits()).collect();
            let bits: u32 = widths.iter().sum();
            let fd = group_by.iter().find(|g| {
                let closure = info.closure(g);
                group_by.iter().all(|k| closure.contains(k.as_str()))
            });
            let profile = CompositeProfile {
                columns: group_by.len(),
                bits_required: bits,
                rows: info.rows.min(usize::MAX as u64) as usize,
                fd_available: fd.is_some(),
            };
            let e = choose_composite(&profile);
            notes.push(format!(
                "GROUP BY ({}): {} ({} bits{}) — {}",
                group_by.join(", "),
                e.algorithm.name(),
                bits,
                fd.map(|g| format!(", determinant {g}")).unwrap_or_default(),
                e.rationale
            ));
            match e.algorithm {
                CompositeStrategy::Pack => {
                    // Pack keys (major first) + agg inputs → single-key
                    // aggregate → unpack projection.
                    let fields: Vec<(Expr, u32)> = group_by
                        .iter()
                        .zip(&widths)
                        .map(|(g, w)| (field(g, info.range(g), false), *w))
                        .collect();
                    let mut pre: Vec<(String, Expr)> =
                        vec![("__gkey".to_string(), pack_expr(&fields))];
                    for a in aggs {
                        if !pre.iter().any(|(n, _)| n == &a.column) {
                            pre.push((a.column.clone(), Expr::col(a.column.clone())));
                        }
                    }
                    let mut post: Vec<(String, Expr)> = Vec::new();
                    let mut shift = bits;
                    for (g, w) in group_by.iter().zip(&widths) {
                        shift -= w;
                        let mut e = Expr::col("__gkey");
                        if shift > 0 {
                            e = e.div(Expr::lit(1i64 << shift));
                        }
                        if *g != group_by[0] {
                            e = e.rem(Expr::lit(1i64 << w));
                        }
                        let min = info.range(g).min;
                        if min != 0 {
                            e = e.add(Expr::lit(min));
                        }
                        post.push((g.clone(), e));
                    }
                    for a in aggs {
                        post.push((a.output.clone(), Expr::col(a.output.clone())));
                    }
                    let plan = Plan::Project {
                        input: Box::new(plan),
                        exprs: pre,
                    }
                    .aggregate("__gkey", aggs.clone())
                    .project(post.iter().map(|(n, e)| (n.as_str(), e.clone())).collect());
                    let mut cols: Vec<(String, Range)> = group_by
                        .iter()
                        .map(|g| (g.clone(), info.range(g)))
                        .collect();
                    cols.extend(agg_ranges);
                    Ok((
                        plan,
                        Info {
                            cols,
                            rows: info.rows,
                            unique: HashSet::new(),
                            determines: HashMap::new(),
                        },
                    ))
                }
                CompositeStrategy::FdReduce => {
                    // Group by the determinant; the other key columns are
                    // constant per group, so MAX reproduces them exactly.
                    let det = fd.expect("FdReduce implies a determinant").clone();
                    let mut full_aggs: Vec<AggSpec> = group_by
                        .iter()
                        .filter(|g| **g != det)
                        .map(|g| AggSpec::new(AggFn::Max, g.clone(), g.clone()))
                        .collect();
                    full_aggs.extend(aggs.iter().cloned());
                    let plan = plan.aggregate(&det, full_aggs);
                    // Reorder to the logical convention: keys then aggs.
                    let mut post: Vec<(String, Expr)> = group_by
                        .iter()
                        .map(|g| (g.clone(), Expr::col(g.clone())))
                        .collect();
                    for a in aggs {
                        post.push((a.output.clone(), Expr::col(a.output.clone())));
                    }
                    let plan =
                        plan.project(post.iter().map(|(n, e)| (n.as_str(), e.clone())).collect());
                    let mut cols: Vec<(String, Range)> = group_by
                        .iter()
                        .map(|g| (g.clone(), info.range(g)))
                        .collect();
                    cols.extend(agg_ranges);
                    let mut determines = HashMap::new();
                    determines.insert(
                        det.clone(),
                        cols.iter()
                            .map(|(n, _)| n.clone())
                            .filter(|n| *n != det)
                            .collect::<HashSet<_>>(),
                    );
                    Ok((
                        plan,
                        Info {
                            cols,
                            rows: info.rows,
                            unique: [det].into_iter().collect(),
                            determines,
                        },
                    ))
                }
                CompositeStrategy::Reject => Err(EngineError::SqlUnsupported {
                    message: format!(
                        "GROUP BY ({}) needs {bits} key bits (> 63) and no grouping \
                         column functionally determines the others",
                        group_by.join(", ")
                    ),
                    span: span.clone(),
                }),
            }
        }
        LogicalPlan::Distinct { input, column } => {
            let (plan, info) = lower_node(input, catalog, notes)?;
            let r = info.range(column);
            Ok((
                plan.distinct(column),
                Info {
                    cols: vec![(column.clone(), r)],
                    rows: info.rows,
                    unique: [column.clone()].into_iter().collect(),
                    determines: HashMap::new(),
                },
            ))
        }
        LogicalPlan::Sort { input, keys, span } => {
            lower_sort(input, keys, span, None, catalog, notes)
        }
        LogicalPlan::Limit { input, count } => {
            // LIMIT over ORDER BY folds into the sort (top-k): only the
            // surviving rows are ever gathered.
            if let LogicalPlan::Sort {
                input: sort_in,
                keys,
                span,
            } = input.as_ref()
            {
                return lower_sort(sort_in, keys, span, Some(*count), catalog, notes);
            }
            let (plan, info) = lower_node(input, catalog, notes)?;
            Ok((
                plan.limit(*count),
                Info {
                    rows: info.rows.min(*count as u64),
                    ..info
                },
            ))
        }
    }
}

fn lower_sort(
    input: &LogicalPlan,
    keys: &[(String, bool)],
    span: &engine::SqlSpan,
    limit: Option<usize>,
    catalog: &Catalog,
    notes: &mut Vec<String>,
) -> Result<(Plan, Info), EngineError> {
    let (plan, info) = lower_node(input, catalog, notes)?;
    if let [(key, desc)] = keys {
        let rows = limit.map_or(info.rows, |l| info.rows.min(l as u64));
        return Ok((plan.sort_by(key, *desc, limit), Info { rows, ..info }));
    }
    // Multi-key sort: pack an order-preserving key (descending fields
    // enter as max - value), sort ascending on it, project it away.
    // Unlike grouping there is no FD fallback — ordering needs the actual
    // lexicographic value.
    let widths: Vec<u32> = keys.iter().map(|(k, _)| info.range(k).bits()).collect();
    let bits: u32 = widths.iter().sum();
    let profile = CompositeProfile {
        columns: keys.len(),
        bits_required: bits,
        rows: info.rows.min(usize::MAX as u64) as usize,
        fd_available: false,
    };
    if choose_composite(&profile).algorithm != CompositeStrategy::Pack {
        return Err(EngineError::SqlUnsupported {
            message: format!(
                "ORDER BY ({}) needs {bits} key bits (> 63); composite sort keys must pack",
                keys.iter()
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            span: span.clone(),
        });
    }
    notes.push(format!(
        "ORDER BY ({}): PACK ({} bits) — order-preserving packed sort key, \
         descending fields encoded as max - value",
        keys.iter()
            .map(|(k, d)| format!("{k}{}", if *d { " desc" } else { "" }))
            .collect::<Vec<_>>()
            .join(", "),
        bits
    ));
    let fields: Vec<(Expr, u32)> = keys
        .iter()
        .zip(&widths)
        .map(|((k, desc), w)| (field(k, info.range(k), *desc), *w))
        .collect();
    let mut pre: Vec<(String, Expr)> = info
        .cols
        .iter()
        .map(|(n, _)| (n.clone(), Expr::col(n.clone())))
        .collect();
    pre.push(("__skey".to_string(), pack_expr(&fields)));
    let post: Vec<(String, Expr)> = info
        .cols
        .iter()
        .map(|(n, _)| (n.clone(), Expr::col(n.clone())))
        .collect();
    let plan = Plan::Project {
        input: Box::new(plan),
        exprs: pre,
    }
    .sort_by("__skey", false, limit)
    .project(post.iter().map(|(n, e)| (n.as_str(), e.clone())).collect());
    let rows = limit.map_or(info.rows, |l| info.rows.min(l as u64));
    Ok((plan, Info { rows, ..info }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind;
    use crate::parser::parse;
    use columnar::Column;
    use engine::{execute, execute_unfused, Table};
    use sim::Device;
    use std::collections::BTreeMap;

    fn plan_sql(sql: &str, cat: &Catalog) -> Result<Lowered, EngineError> {
        lower(&bind(&parse(sql).expect("parse"), cat)?, cat)
    }

    /// sales(region 2..4, kind 10..13, qty): small ranges, packs easily.
    fn sales(dev: &Device) -> Catalog {
        let mut c = Catalog::new();
        c.insert(Table::new(
            "sales",
            vec![
                (
                    "region",
                    Column::from_i32(dev, vec![2, 3, 2, 4, 3, 2, 4, 2], "region"),
                ),
                (
                    "kind",
                    Column::from_i32(dev, vec![10, 13, 10, 11, 13, 12, 11, 10], "kind"),
                ),
                (
                    "qty",
                    Column::from_i64(dev, vec![1, 2, 3, 4, 5, 6, 7, 8], "qty"),
                ),
            ],
        ));
        c
    }

    #[test]
    fn packed_group_by_matches_host_reference() {
        let dev = Device::a100();
        let cat = sales(&dev);
        let lowered = plan_sql(
            "SELECT region, kind, SUM(qty) AS total, COUNT(*) AS n FROM sales \
             GROUP BY region, kind ORDER BY region, kind",
            &cat,
        )
        .expect("plan");
        assert!(
            lowered.notes.iter().any(|n| n.contains("PACK")),
            "{:?}",
            lowered.notes
        );
        let out = execute(&dev, &cat, &lowered.plan).unwrap().table;
        // Host reference.
        let (region, kind, qty) = (
            vec![2i64, 3, 2, 4, 3, 2, 4, 2],
            vec![10i64, 13, 10, 11, 13, 12, 11, 10],
            vec![1i64, 2, 3, 4, 5, 6, 7, 8],
        );
        let mut groups: BTreeMap<(i64, i64), (i64, i64)> = BTreeMap::new();
        for i in 0..region.len() {
            let e = groups.entry((region[i], kind[i])).or_insert((0, 0));
            e.0 += qty[i];
            e.1 += 1;
        }
        let want_keys: Vec<(i64, i64)> = groups.keys().copied().collect();
        let got: Vec<(i64, i64)> = out
            .column("region")
            .unwrap()
            .to_vec_i64()
            .into_iter()
            .zip(out.column("kind").unwrap().to_vec_i64())
            .collect();
        assert_eq!(got, want_keys, "unpacked keys in packed-key order");
        assert_eq!(
            out.column("total").unwrap().to_vec_i64(),
            groups.values().map(|v| v.0).collect::<Vec<_>>()
        );
        assert_eq!(
            out.column("n").unwrap().to_vec_i64(),
            groups.values().map(|v| v.1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fd_reduction_kicks_in_when_packing_cannot() {
        let dev = Device::a100();
        let mut cat = Catalog::new();
        // `wide`'s span alone needs 63 bits, so (id, wide) cannot pack —
        // but id is the primary key, so it determines wide.
        c_insert_wide(&dev, &mut cat);
        let lowered = plan_sql(
            "SELECT id, wide, SUM(v) AS s FROM t GROUP BY id, wide ORDER BY id",
            &cat,
        )
        .expect("plan");
        assert!(
            lowered.notes.iter().any(|n| n.contains("FD-REDUCE")),
            "{:?}",
            lowered.notes
        );
        let out = execute(&dev, &cat, &lowered.plan).unwrap().table;
        assert_eq!(out.column("id").unwrap().to_vec_i64(), vec![1, 2, 3]);
        assert_eq!(
            out.column("wide").unwrap().to_vec_i64(),
            vec![0, 1 << 62, 5]
        );
        assert_eq!(out.column("s").unwrap().to_vec_i64(), vec![10, 20, 30]);
    }

    fn c_insert_wide(dev: &Device, cat: &mut Catalog) {
        cat.insert(Table::new(
            "t",
            vec![
                ("id", Column::from_i32(dev, vec![1, 2, 3], "id")),
                (
                    "wide",
                    Column::from_i64(dev, vec![0, 1i64 << 62, 5], "wide"),
                ),
                ("v", Column::from_i64(dev, vec![10, 20, 30], "v")),
            ],
        ));
        cat.set_primary_key("t", "id").unwrap();
    }

    #[test]
    fn unpackable_grouping_without_fd_is_rejected() {
        let dev = Device::a100();
        let mut cat = Catalog::new();
        cat.insert(Table::new(
            "t",
            vec![
                ("a", Column::from_i64(&dev, vec![0, 1i64 << 62], "a")),
                ("b", Column::from_i64(&dev, vec![0, 1i64 << 62], "b")),
            ],
        ));
        match plan_sql("SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b", &cat) {
            Err(EngineError::SqlUnsupported { message, .. }) => {
                assert!(message.contains("> 63"), "{message}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn composite_keys_pack_at_63_bits_and_reject_at_64() {
        let dev = Device::a100();
        // `b` spans 32 bits, `a` 31 or 32: 63 or 64 together, no key.
        let catalog = |a_bits: u32| {
            let mut cat = Catalog::new();
            cat.insert(Table::new(
                "t",
                vec![
                    ("a", Column::from_i64(&dev, vec![0, (1 << a_bits) - 1], "a")),
                    ("b", Column::from_i64(&dev, vec![0, (1 << 32) - 1], "b")),
                ],
            ));
            cat
        };
        let group = "SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b";
        let order = "SELECT a, b FROM t ORDER BY a, b";
        let at_63 = catalog(31);
        for sql in [group, order] {
            let notes = plan_sql(sql, &at_63).expect("63 bits pack").notes;
            assert!(
                notes.iter().any(|n| n.contains(": PACK (63 bits) — ")),
                "{sql}: {notes:?}"
            );
        }
        let at_64 = catalog(32);
        let rejection = |sql| match plan_sql(sql, &at_64) {
            Err(EngineError::SqlUnsupported { message, .. }) => message,
            other => panic!("{sql}: 64 bits must reject, got {other:?}"),
        };
        assert_eq!(
            rejection(group),
            "GROUP BY (a, b) needs 64 key bits (> 63) and no grouping column \
             functionally determines the others"
        );
        assert_eq!(
            rejection(order),
            "ORDER BY (a, b) needs 64 key bits (> 63); composite sort keys must pack"
        );
    }

    #[test]
    fn multi_key_sort_orders_desc_then_asc() {
        let dev = Device::a100();
        let cat = sales(&dev);
        let lowered = plan_sql(
            "SELECT region, kind, qty FROM sales ORDER BY region DESC, kind, qty LIMIT 4",
            &cat,
        )
        .expect("plan");
        assert!(
            lowered.notes.iter().any(|n| n.contains("ORDER BY")),
            "{:?}",
            lowered.notes
        );
        let out = execute(&dev, &cat, &lowered.plan).unwrap().table;
        let rows: Vec<(i64, i64, i64)> = out
            .column("region")
            .unwrap()
            .to_vec_i64()
            .into_iter()
            .zip(out.column("kind").unwrap().to_vec_i64())
            .zip(out.column("qty").unwrap().to_vec_i64())
            .map(|((r, k), q)| (r, k, q))
            .collect();
        // Host reference: region desc, kind asc, qty asc, top 4.
        let mut want = vec![
            (2i64, 10i64, 1i64),
            (3, 13, 2),
            (2, 10, 3),
            (4, 11, 4),
            (3, 13, 5),
            (2, 12, 6),
            (4, 11, 7),
            (2, 10, 8),
        ];
        want.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        want.truncate(4);
        assert_eq!(rows, want);
    }

    #[test]
    fn limit_folds_into_single_key_sort() {
        let dev = Device::a100();
        let cat = sales(&dev);
        let lowered =
            plan_sql("SELECT qty FROM sales ORDER BY qty DESC LIMIT 3", &cat).expect("plan");
        match &lowered.plan {
            Plan::Sort { limit, desc, .. } => {
                assert_eq!(*limit, Some(3));
                assert!(*desc);
            }
            other => panic!("expected top-level Sort, got {}", other.label()),
        }
        let out = execute(&dev, &cat, &lowered.plan).unwrap().table;
        assert_eq!(out.column("qty").unwrap().to_vec_i64(), vec![8, 7, 6]);
    }

    #[test]
    fn fused_and_unfused_agree_through_the_frontend() {
        let dev = Device::a100();
        let cat = sales(&dev);
        let lowered = plan_sql(
            "SELECT region, kind, SUM(qty) AS total FROM sales WHERE qty > 1 \
             GROUP BY region, kind ORDER BY total DESC, region LIMIT 3",
            &cat,
        )
        .expect("plan");
        let fused = execute(&dev, &cat, &lowered.plan).unwrap().table;
        let unfused = execute_unfused(&dev, &cat, &lowered.plan).unwrap().table;
        for col in ["region", "kind", "total"] {
            assert_eq!(
                fused.column(col).unwrap().to_vec_i64(),
                unfused.column(col).unwrap().to_vec_i64(),
                "{col}"
            );
        }
    }
}
