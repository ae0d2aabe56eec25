//! The SQL frontend's two contracts, end to end:
//!
//! 1. **Round-trip identity** — for any query the grammar can express,
//!    `parse(pretty(q))` reproduces the same AST (proptest over random
//!    query shapes). The printer is fully parenthesized, so this exercises
//!    the parser's precedence against the printer's explicit structure.
//! 2. **Oracle equivalence** — TPC-H Q3 and Q18 arriving as SQL text
//!    produce *byte-identical* outputs (names, values, row order) to the
//!    same plans assembled by hand against the engine API, the packed
//!    composite keys written out long-hand from the catalog statistics.
//!    The equivalence must hold fused and unfused, on a fresh device, and
//!    under every scheduler policy.
//! 3. **Projection pushdown is exact** — every scan of a lowered plan emits
//!    exactly the columns its consumers read, and the pruned plan's output
//!    is byte-identical to the unpruned lowering's, fused and unfused.

use columnar::date::parse_date;
use columnar::Column;
use engine::demo::{q18_sql, q3_sql, tpch_full};
use engine::scheduler::{run_queries, Policy, QuerySpec};
use engine::{execute, execute_unfused, AggSpec, Catalog, Expr, Plan, SqlSpan, Table};
use groupby::AggFn;
use heuristics::composite::bits_for_span;
use proptest::prelude::*;
use sim::Device;
use sql::ast::{AggKind, AstExpr, BinOp, JoinClause, OrderItem, Query, SelectItem};

fn sp() -> SqlSpan {
    SqlSpan::new(0, 0, "")
}

// ---------------------------------------------------------------------
// 1. pretty -> reparse identity
// ---------------------------------------------------------------------
//
// The vendored proptest is combinator-light (ranges, tuples, vec, map),
// so the query strategy draws a pool of entropy words and a deterministic
// builder spends them constructing a random AST.

/// A spendable entropy stream; wraps around, so any word budget yields a
/// complete (if repetitive) query.
struct Seed {
    words: Vec<u64>,
    at: usize,
}

impl Seed {
    fn next(&mut self) -> u64 {
        let w = self.words[self.at % self.words.len()];
        self.at += 1;
        w
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

const IDENTS: [&str; 8] = ["a", "b", "col1", "o_key", "price", "qty", "t1", "seg"];
const STRINGS: [&str; 4] = ["RED", "BUILDING", "X", "AB12"];

fn gen_column(seed: &mut Seed) -> AstExpr {
    AstExpr::Column {
        table: seed
            .flag()
            .then(|| IDENTS[seed.pick(IDENTS.len())].to_string()),
        name: IDENTS[seed.pick(IDENTS.len())].to_string(),
        span: sp(),
    }
}

/// A random expression; `cmp` gates comparison/boolean operators (GROUP BY
/// and ORDER BY only parse additive expressions).
fn gen_expr(seed: &mut Seed, depth: u32, cmp: bool) -> AstExpr {
    if depth == 0 || seed.pick(3) == 0 {
        return match seed.pick(4) {
            0 => gen_column(seed),
            1 => AstExpr::Int(seed.next() as i32 as i64),
            2 => AstExpr::Str(STRINGS[seed.pick(STRINGS.len())].to_string(), sp()),
            _ => AstExpr::Date(
                format!(
                    "19{:02}-{:02}-{:02}",
                    seed.pick(100),
                    1 + seed.pick(12),
                    1 + seed.pick(28)
                ),
                sp(),
            ),
        };
    }
    if seed.pick(4) == 0 {
        // Aggregate call; COUNT may go argless (`COUNT(*)`).
        let kind = [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Min,
            AggKind::Max,
            AggKind::Avg,
        ][seed.pick(5)];
        let arg = if kind == AggKind::Count && seed.flag() {
            None
        } else {
            Some(Box::new(gen_expr(seed, depth - 1, false)))
        };
        return AstExpr::Agg {
            kind,
            arg,
            span: sp(),
        };
    }
    let arith = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
    let full = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Ge,
        BinOp::Gt,
        BinOp::And,
        BinOp::Or,
    ];
    let op = if cmp {
        full[seed.pick(full.len())]
    } else {
        arith[seed.pick(arith.len())]
    };
    AstExpr::Binary {
        op,
        lhs: Box::new(gen_expr(seed, depth - 1, cmp)),
        rhs: Box::new(gen_expr(seed, depth - 1, cmp)),
        span: sp(),
    }
}

fn gen_query(words: Vec<u64>) -> Query {
    let mut s = Seed { words, at: 0 };
    let select = (0..1 + s.pick(3))
        .map(|_| SelectItem {
            expr: gen_expr(&mut s, 2, false),
            alias: s.flag().then(|| IDENTS[s.pick(IDENTS.len())].to_string()),
        })
        .collect();
    let from = (0..1 + s.pick(2))
        .map(|_| (IDENTS[s.pick(IDENTS.len())].to_string(), sp()))
        .collect();
    let joins = (0..s.pick(2))
        .map(|_| JoinClause {
            table: IDENTS[s.pick(IDENTS.len())].to_string(),
            on_left: gen_column(&mut s),
            on_right: gen_column(&mut s),
            span: sp(),
        })
        .collect();
    let where_ = s.flag().then(|| gen_expr(&mut s, 2, true));
    let group_by = (0..s.pick(3)).map(|_| gen_expr(&mut s, 1, false)).collect();
    let having = s.flag().then(|| gen_expr(&mut s, 2, true));
    let order_by = (0..s.pick(3))
        .map(|_| OrderItem {
            expr: gen_expr(&mut s, 1, false),
            desc: s.flag(),
        })
        .collect();
    let limit = s.flag().then(|| s.pick(1000));
    Query {
        distinct: s.flag(),
        select,
        from,
        joins,
        where_,
        group_by,
        having,
        order_by,
        limit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pretty_then_reparse_is_identity(
        words in proptest::collection::vec(any::<u64>(), 24..96)
    ) {
        let q = gen_query(words);
        let text = q.pretty();
        let q2 = sql::parse(&text)
            .unwrap_or_else(|e| panic!("pretty output must reparse: {e}\n{text}"));
        prop_assert!(q.same(&q2), "roundtrip changed the tree:\n{}", text);
        // And printing again is a fixed point.
        prop_assert_eq!(text, q2.pretty());
    }
}

// ---------------------------------------------------------------------
// 2. SQL vs hand-assembled oracle plans
// ---------------------------------------------------------------------

const LINEITEMS: usize = 2048;

fn catalog(dev: &Device) -> Catalog {
    tpch_full(dev, LINEITEMS, 7)
}

/// Column stats from the catalog, the way a careful engineer would read
/// them off `EXPLAIN` before hand-packing a composite key.
fn stats(cat: &Catalog, table: &str, col: &str) -> (i64, i64) {
    let m = cat.schema(table).unwrap().column(col).unwrap();
    (m.min, m.max)
}

/// Hand-build the order-preserving packed key for `(col, min, max, desc)`
/// fields, major first — the documented composite-key scheme.
fn packed(fields: &[(&str, i64, i64, bool)]) -> Expr {
    let mut acc: Option<Expr> = None;
    for &(col, min, max, desc) in fields {
        let width = bits_for_span((max - min) as u64);
        let field = if desc {
            Expr::lit(max).sub(Expr::col(col))
        } else if min == 0 {
            Expr::col(col)
        } else {
            Expr::col(col).sub(Expr::lit(min))
        };
        acc = Some(match acc {
            None => field,
            Some(a) => a.mul(Expr::lit(1i64 << width)).add(field),
        });
    }
    acc.expect("at least one field")
}

/// Unpack field `i` of the same layout.
fn unpacked(fields: &[(&str, i64, i64, bool)], i: usize) -> Expr {
    let widths: Vec<u32> = fields
        .iter()
        .map(|&(_, min, max, _)| bits_for_span((max - min) as u64))
        .collect();
    let shift: u32 = widths[i + 1..].iter().sum();
    let mut e = Expr::col("__gkey");
    if shift > 0 {
        e = e.div(Expr::lit(1i64 << shift));
    }
    if i > 0 {
        e = e.rem(Expr::lit(1i64 << widths[i]));
    }
    if fields[i].1 != 0 {
        e = e.add(Expr::lit(fields[i].1));
    }
    e
}

/// Q3 assembled by hand against the engine API: filters pushed to the
/// scans, left-deep joins in FROM order, the three-column GROUP BY packed
/// into `__gkey`, the two-key ORDER BY packed into `__skey` with the
/// descending revenue encoded as `max - value`, and the LIMIT folded into
/// the sort.
fn q3_hand(cat: &Catalog) -> Plan {
    let cutoff = parse_date("1995-03-15").unwrap();
    let building = 1; // MKT_SEGMENTS[1]
    let (ok_min, ok_max) = stats(cat, "orders", "o_orderkey");
    let (od_min, od_max) = stats(cat, "orders", "o_orderdate");
    let (sp_min, sp_max) = stats(cat, "orders", "o_shippriority");
    let gkey = [
        ("o_orderkey", ok_min, ok_max, false),
        ("o_orderdate", od_min, od_max, false),
        ("o_shippriority", sp_min, sp_max, false),
    ];
    let joined = Plan::scan("customer")
        .filter(Expr::col("c_mktsegment").eq(Expr::lit(building)))
        .join(
            Plan::scan("orders").filter(Expr::col("o_orderdate").lt(Expr::lit(cutoff))),
            "c_custkey",
            "o_custkey",
        )
        .join(
            Plan::scan("lineitem").filter(Expr::col("l_shipdate").gt(Expr::lit(cutoff))),
            "o_orderkey",
            "l_orderkey",
        );
    // Pre-aggregation projection: group keys + the computed SUM argument.
    let pre = joined.project(vec![
        ("o_orderkey", Expr::col("o_orderkey")),
        ("o_orderdate", Expr::col("o_orderdate")),
        ("o_shippriority", Expr::col("o_shippriority")),
        (
            "__agg0",
            Expr::col("l_extendedprice").mul(Expr::lit(100).sub(Expr::col("l_discount"))),
        ),
    ]);
    let grouped = pre
        .project(vec![
            ("__gkey", packed(&gkey)),
            ("__agg0", Expr::col("__agg0")),
        ])
        .aggregate(
            "__gkey",
            vec![AggSpec::new(AggFn::Sum, "__agg0", "revenue")],
        )
        .project(vec![
            ("o_orderkey", unpacked(&gkey, 0)),
            ("o_orderdate", unpacked(&gkey, 1)),
            ("o_shippriority", unpacked(&gkey, 2)),
            ("revenue", Expr::col("revenue")),
        ]);
    // SELECT order, then the packed two-key sort with folded LIMIT.
    let selected = grouped.project(vec![
        ("o_orderkey", Expr::col("o_orderkey")),
        ("revenue", Expr::col("revenue")),
        ("o_orderdate", Expr::col("o_orderdate")),
        ("o_shippriority", Expr::col("o_shippriority")),
    ]);
    // Revenue's planner range: SUM is bounded by rows × per-element range;
    // the hand-built sort key uses the same bounds the planner derives.
    let (_, ep_max) = stats(cat, "lineitem", "l_extendedprice");
    let (d_min, _) = stats(cat, "lineitem", "l_discount");
    let rows = cat.schema("lineitem").unwrap().rows as i64;
    let rev_max = rows * ep_max * (100 - d_min);
    let skey = [
        ("revenue", 0, rev_max, true),
        ("o_orderdate", od_min, od_max, false),
    ];
    selected
        .project(vec![
            ("o_orderkey", Expr::col("o_orderkey")),
            ("revenue", Expr::col("revenue")),
            ("o_orderdate", Expr::col("o_orderdate")),
            ("o_shippriority", Expr::col("o_shippriority")),
            ("__skey", packed(&skey)),
        ])
        .sort_by("__skey", false, Some(10))
        .project(vec![
            ("o_orderkey", Expr::col("o_orderkey")),
            ("revenue", Expr::col("revenue")),
            ("o_orderdate", Expr::col("o_orderdate")),
            ("o_shippriority", Expr::col("o_shippriority")),
        ])
}

/// Q18 by hand: at this scale the five-column GROUP BY still packs.
fn q18_hand(cat: &Catalog) -> Plan {
    let (cn_min, cn_max) = stats(cat, "customer", "c_name");
    let (ck_min, ck_max) = stats(cat, "customer", "c_custkey");
    let (ok_min, ok_max) = stats(cat, "orders", "o_orderkey");
    let (od_min, od_max) = stats(cat, "orders", "o_orderdate");
    let (tp_min, tp_max) = stats(cat, "orders", "o_totalprice");
    let gkey = [
        ("c_name", cn_min, cn_max, false),
        ("c_custkey", ck_min, ck_max, false),
        ("o_orderkey", ok_min, ok_max, false),
        ("o_orderdate", od_min, od_max, false),
        ("o_totalprice", tp_min, tp_max, false),
    ];
    let joined = Plan::scan("customer")
        .join(Plan::scan("orders"), "c_custkey", "o_custkey")
        .join(Plan::scan("lineitem"), "o_orderkey", "l_orderkey");
    let pre = joined.project(vec![
        ("c_name", Expr::col("c_name")),
        ("c_custkey", Expr::col("c_custkey")),
        ("o_orderkey", Expr::col("o_orderkey")),
        ("o_orderdate", Expr::col("o_orderdate")),
        ("o_totalprice", Expr::col("o_totalprice")),
        ("l_quantity", Expr::col("l_quantity")),
    ]);
    let grouped = pre
        .project(vec![
            ("__gkey", packed(&gkey)),
            ("l_quantity", Expr::col("l_quantity")),
        ])
        .aggregate(
            "__gkey",
            vec![AggSpec::new(AggFn::Sum, "l_quantity", "total_qty")],
        )
        .project(vec![
            ("c_name", unpacked(&gkey, 0)),
            ("c_custkey", unpacked(&gkey, 1)),
            ("o_orderkey", unpacked(&gkey, 2)),
            ("o_orderdate", unpacked(&gkey, 3)),
            ("o_totalprice", unpacked(&gkey, 4)),
            ("total_qty", Expr::col("total_qty")),
        ]);
    let having = grouped.filter(Expr::col("total_qty").gt(Expr::lit(150)));
    let selected = having.project(vec![
        ("c_name", Expr::col("c_name")),
        ("c_custkey", Expr::col("c_custkey")),
        ("o_orderkey", Expr::col("o_orderkey")),
        ("o_orderdate", Expr::col("o_orderdate")),
        ("o_totalprice", Expr::col("o_totalprice")),
        ("total_qty", Expr::col("total_qty")),
    ]);
    let skey = [
        ("o_totalprice", tp_min, tp_max, true),
        ("o_orderdate", od_min, od_max, false),
    ];
    let all = |with_skey: bool| {
        let mut v = vec![
            ("c_name", Expr::col("c_name")),
            ("c_custkey", Expr::col("c_custkey")),
            ("o_orderkey", Expr::col("o_orderkey")),
            ("o_orderdate", Expr::col("o_orderdate")),
            ("o_totalprice", Expr::col("o_totalprice")),
            ("total_qty", Expr::col("total_qty")),
        ];
        if with_skey {
            v.push(("__skey", packed(&skey)));
        }
        v
    };
    selected
        .project(all(true))
        .sort_by("__skey", false, Some(100))
        .project(all(false))
}

fn bytes_of(t: &Table) -> Vec<(String, Vec<i64>)> {
    t.columns()
        .iter()
        .map(|(n, c)| (n.clone(), c.to_vec_i64()))
        .collect()
}

fn assert_same_output(sql_text: &str, hand: &Plan, what: &str) {
    let dev = Device::a100();
    let cat = catalog(&dev);
    let lowered = sql::plan_sql(sql_text, &cat).expect("frontend plans the query");
    let via_sql = execute(&dev, &cat, &lowered.plan).unwrap();
    let via_hand = execute(&dev, &cat, hand).unwrap();
    assert_eq!(
        bytes_of(&via_sql.table),
        bytes_of(&via_hand.table),
        "{what}: SQL and hand-built disagree"
    );
    assert!(
        via_sql.table.num_rows() > 0,
        "{what}: empty result proves nothing"
    );
    // The frontend must not disturb fused/unfused equivalence either.
    let unfused = execute_unfused(&dev, &cat, &lowered.plan).unwrap();
    assert_eq!(
        bytes_of(&via_sql.table),
        bytes_of(&unfused.table),
        "{what}: fused vs unfused"
    );
}

#[test]
fn q3_from_sql_matches_hand_built_plan() {
    let dev = Device::a100();
    let cat = catalog(&dev);
    let hand = q3_hand(&cat);
    assert_same_output(q3_sql(), &hand, "Q3");
}

#[test]
fn q18_from_sql_matches_hand_built_plan() {
    let dev = Device::a100();
    let cat = catalog(&dev);
    let hand = q18_hand(&cat);
    assert_same_output(q18_sql(), &hand, "Q18");
}

/// Two fresh devices, each with its own catalog, run Q3 and Q18 to the
/// same bytes and the same simulated totals: time to the bit, and every
/// hardware counter.
#[test]
fn sql_queries_are_bitwise_stable_across_fresh_devices() {
    let run = || {
        let dev = Device::a100();
        let cat = catalog(&dev);
        [q3_sql(), q18_sql()].map(|text| {
            let lowered = sql::plan_sql(text, &cat).expect("plans");
            let out = execute(&dev, &cat, &lowered.plan).unwrap();
            (
                bytes_of(&out.table),
                out.stats.total_time().secs().to_bits(),
                dev.counters(),
            )
        })
    };
    assert_eq!(run(), run(), "a fresh device must reproduce every byte");
}

#[test]
fn sql_queries_are_identical_under_every_scheduler_policy() {
    let dev = Device::a100();
    let cat = catalog(&dev);
    let plans: Vec<Plan> = [q3_sql(), q18_sql()]
        .iter()
        .map(|t| sql::plan_sql(t, &cat).expect("plans").plan)
        .collect();
    let mut per_policy = Vec::new();
    for policy in [Policy::Serial, Policy::RoundRobin, Policy::WeightedFair] {
        let specs: Vec<QuerySpec> = plans.iter().cloned().map(QuerySpec::new).collect();
        let reports = run_queries(&dev, &cat, specs, policy);
        let outs: Vec<_> = reports
            .iter()
            .map(|r| bytes_of(&r.result.as_ref().expect("queries succeed").table))
            .collect();
        per_policy.push(outs);
    }
    assert_eq!(per_policy[0], per_policy[1], "Serial vs RoundRobin");
    assert_eq!(per_policy[0], per_policy[2], "Serial vs WeightedFair");
}

// ---------------------------------------------------------------------
// 3. Projection pushdown
// ---------------------------------------------------------------------

/// The benchmark's Q1-style text: a filtered scan and a small group-by.
const Q1S_SQL: &str = "SELECT l_discount, SUM(l_quantity) AS q, SUM(l_extendedprice) AS p, \
     COUNT(*) AS n FROM lineitem WHERE l_quantity <= 45 GROUP BY l_discount ORDER BY l_discount";

fn children(plan: &Plan) -> Vec<&Plan> {
    match plan {
        Plan::Scan { .. } => vec![],
        Plan::Join { left, right, .. } => vec![left, right],
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Distinct { input, .. }
        | Plan::Aggregate { input, .. } => vec![input],
    }
}

/// Each scan's table and the columns it hands its consumer: the names of a
/// plain-column projection directly over it, else every catalog column.
fn scan_emissions(plan: &Plan, cat: &Catalog, out: &mut Vec<(String, Vec<String>)>) {
    match plan {
        Plan::Project { input, exprs } if matches!(**input, Plan::Scan { .. }) => {
            let Plan::Scan { table } = &**input else {
                unreachable!()
            };
            let plain: Option<Vec<String>> = exprs
                .iter()
                .map(|(n, e)| matches!(e, Expr::Col(c) if c == n).then(|| n.clone()))
                .collect();
            match plain {
                Some(names) => out.push((table.clone(), names)),
                None => scan_emissions(input, cat, out),
            }
        }
        Plan::Scan { table } => {
            out.push((table.clone(), cat.schema(table).unwrap().column_names()));
        }
        _ => children(plan)
            .into_iter()
            .for_each(|c| scan_emissions(c, cat, out)),
    }
}

/// `plan` with its scan of `table` replaced by `f(scan)`.
fn at_scan(plan: &Plan, table: &str, f: &dyn Fn(Plan) -> Plan) -> Plan {
    let sub = |p: &Plan| Box::new(at_scan(p, table, f));
    match plan.clone() {
        Plan::Scan { table: t } if t == table => f(plan.clone()),
        Plan::Scan { table } => Plan::Scan { table },
        Plan::Filter { input, predicate } => Plan::Filter {
            input: sub(&input),
            predicate,
        },
        Plan::Project { input, exprs } => Plan::Project {
            input: sub(&input),
            exprs,
        },
        Plan::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
            algorithm,
        } => Plan::Join {
            left: sub(&left),
            right: sub(&right),
            left_key,
            right_key,
            kind,
            algorithm,
        },
        Plan::Sort {
            input,
            by,
            desc,
            limit,
        } => Plan::Sort {
            input: sub(&input),
            by,
            desc,
            limit,
        },
        Plan::Limit { input, count } => Plan::Limit {
            input: sub(&input),
            count,
        },
        Plan::Distinct { input, column } => Plan::Distinct {
            input: sub(&input),
            column,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            algorithm,
        } => Plan::Aggregate {
            input: sub(&input),
            group_by,
            aggs,
            algorithm,
        },
    }
}

/// Check the pushdown on `text` and return the lowering notes.
///
/// - Semantic: the pruned plan's output equals the unpruned lowering's,
///   byte for byte, fused and unfused.
/// - Structural: every scan emits exactly what its consumers read. The
///   pruned plan runs (nothing read is missing), and withholding any one
///   emitted column, directly at the scan, makes it fail or changes its
///   output (nothing emitted goes unread).
fn assert_pushdown_exact(dev: &Device, cat: &Catalog, text: &str) -> Vec<String> {
    let logical = sql::bind(&sql::parse(text).expect("parses"), cat).expect("binds");
    let pruned = sql::lower(&logical, cat).expect("lowers");
    let unpruned = sql::lower_unpruned(&logical, cat).expect("lowers");
    type Run = fn(&Device, &Catalog, &Plan) -> Result<engine::QueryOutput, engine::EngineError>;
    let mut reference = Vec::new();
    for (mode, run) in [
        ("fused", execute as Run),
        ("unfused", execute_unfused as Run),
    ] {
        let want = bytes_of(&run(dev, cat, &unpruned.plan).expect("unpruned runs").table);
        let got = run(dev, cat, &pruned.plan)
            .unwrap_or_else(|e| panic!("{text}: pruned plan fails {mode}: {e}"));
        assert_eq!(bytes_of(&got.table), want, "{text}: {mode} output moved");
        reference = want;
    }
    let mut scans = Vec::new();
    scan_emissions(&pruned.plan, cat, &mut scans);
    assert!(!scans.is_empty(), "{text}: no scan found");
    for (table, emitted) in &scans {
        for col in emitted {
            let rest: Vec<(&str, Expr)> = emitted
                .iter()
                .filter(|c| *c != col)
                .map(|c| (c.as_str(), Expr::col(c.clone())))
                .collect();
            let withheld = at_scan(&pruned.plan, table, &|scan| scan.project(rest.clone()));
            if let Ok(out) = execute(dev, cat, &withheld) {
                assert_ne!(
                    bytes_of(&out.table),
                    reference,
                    "{text}: {table} emits {col} but nothing reads it"
                );
            }
        }
    }
    pruned.notes
}

fn prune_notes(notes: &[String]) -> Vec<&str> {
    notes
        .iter()
        .filter(|n| n.starts_with("PRUNE"))
        .map(String::as_str)
        .collect()
}

#[test]
fn tpch_scans_emit_exactly_the_columns_their_consumers_read() {
    let dev = Device::a100();
    let cat = catalog(&dev);
    let q3 = assert_pushdown_exact(&dev, &cat, q3_sql());
    assert_eq!(prune_notes(&q3).len(), 3, "{q3:?}");
    let q18 = assert_pushdown_exact(&dev, &cat, q18_sql());
    assert_eq!(
        prune_notes(&q18),
        [
            "PRUNE customer: 2 of 5 columns (c_custkey, c_name)",
            "PRUNE orders: 4 of 5 columns (o_orderkey, o_custkey, o_orderdate, o_totalprice)",
            "PRUNE lineitem: 2 of 5 columns (l_orderkey, l_quantity)",
        ]
    );
    let q1s = assert_pushdown_exact(&dev, &cat, Q1S_SQL);
    assert_eq!(
        prune_notes(&q1s),
        ["PRUNE lineitem: 3 of 5 columns (l_quantity, l_extendedprice, l_discount)"]
    );
}

/// The binder's collision catalog: `tag` lives in both tables, so a join
/// of the two names the probe side's `tag_2`.
fn collision_catalog(dev: &Device) -> Catalog {
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
    c
}

#[test]
fn ad_hoc_scans_emit_exactly_the_columns_their_consumers_read() {
    let dev = Device::a100();
    let cat = collision_catalog(&dev);
    let cases: [(&str, &[&str]); 9] = [
        // Every column read (the grammar has no `*`): nothing to prune.
        ("SELECT o_id, o_cust, o_price, tag FROM orders", &[]),
        // o_price is read only by WHERE.
        (
            "SELECT o_id FROM orders WHERE o_price > 55",
            &["PRUNE orders: 2 of 4 columns (o_id, o_price)"],
        ),
        // ORDER BY an aggregate; HAVING reads a column nothing selects.
        (
            "SELECT o_cust, COUNT(*) AS n FROM orders GROUP BY o_cust \
             HAVING SUM(o_price) > 60 ORDER BY n DESC",
            &["PRUNE orders: 2 of 4 columns (o_cust, o_price)"],
        ),
        // Neither join key is selected.
        (
            "SELECT o_price, c_seg FROM orders, customer WHERE o_cust = c_id",
            &[
                "PRUNE orders: 2 of 4 columns (o_cust, o_price)",
                "PRUNE customer: 2 of 3 columns (c_id, c_seg)",
            ],
        ),
        // COUNT(*) alone reads only the grouping key.
        (
            "SELECT COUNT(*) AS n FROM orders GROUP BY o_cust",
            &["PRUNE orders: 1 of 4 columns (o_cust)"],
        ),
        // A qualified reference to the suffixed `tag_2`: `tag` stays on
        // both sides, or the probe side's would lose its suffix.
        (
            "SELECT customer.tag FROM orders, customer WHERE o_cust = c_id",
            &[
                "PRUNE orders: 2 of 4 columns (o_cust, tag)",
                "PRUNE customer: 2 of 3 columns (c_id, tag)",
            ],
        ),
        // Nothing read: the scan keeps one column, or it would have no rows.
        (
            "SELECT 1 AS one FROM orders",
            &["PRUNE orders: 1 of 4 columns (o_id)"],
        ),
        (
            "SELECT 1 AS one FROM orders WHERE o_price > 55",
            &["PRUNE orders: 1 of 4 columns (o_price)"],
        ),
        // DISTINCT and LIMIT pass needs through.
        (
            "SELECT DISTINCT c_seg FROM customer WHERE tag > 7 LIMIT 5",
            &["PRUNE customer: 2 of 3 columns (c_seg, tag)"],
        ),
    ];
    for (text, want) in cases {
        let notes = assert_pushdown_exact(&dev, &cat, text);
        assert_eq!(prune_notes(&notes), want, "{text}");
    }
}
