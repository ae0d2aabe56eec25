//! Fused-vs-unfused equivalence: operator fusion and ticket-based late
//! materialization (`engine::fuse`) are pure physical rewrites.
//!
//! 1. **Byte identity** — for arbitrary inputs and plan shapes, `execute`
//!    (fusion on) and `execute_unfused` produce the *same table*: name,
//!    column names, dtypes, values, and **row order** all equal. No
//!    sort-then-compare: late materialization must not even permute rows.
//! 2. **Conservation** — in both modes the per-node counter tree sums to
//!    the whole-query delta, and the fused run launches strictly fewer
//!    kernels and reads strictly fewer DRAM bytes on a selective chain.
//! 3. **Oracle** — fusion never crosses a Join: the run above the join and
//!    the runs below it fuse separately, the below-join sides defer
//!    (GFTR) to the join boundary, and the join's key columns are always
//!    materialized values, never tickets.
//! 4. **Scheduler closure** — every scheduler policy returns the same
//!    bytes as the solo fused run.

use columnar::Column;
use engine::scheduler::{Policy, QuerySpec};
use engine::{execute, execute_unfused, AggSpec, Catalog, Expr, NodeStats, Plan, Table};
use groupby::AggFn;
use heuristics::Provenance;
use joins::JoinKind;
use proptest::prelude::*;
use sim::{Counters, Device, DeviceConfig};

#[derive(Debug, Clone)]
struct TableSpec {
    keys: Vec<i32>,
    vals: Vec<i64>,
}

fn table_strategy(max_rows: usize, key_range: i32) -> impl Strategy<Value = TableSpec> {
    (0..=max_rows)
        .prop_flat_map(move |n| {
            (
                proptest::collection::vec(0..key_range, n),
                proptest::collection::vec(-1000i64..1000, n),
            )
        })
        .prop_map(|(keys, vals)| TableSpec { keys, vals })
}

fn catalog(dev: &Device, a: &TableSpec, b: &TableSpec) -> Catalog {
    let mut c = Catalog::new();
    c.insert(Table::new(
        "a",
        vec![
            ("ak", Column::from_i32(dev, a.keys.clone(), "ak")),
            ("av", Column::from_i64(dev, a.vals.clone(), "av")),
        ],
    ));
    c.insert(Table::new(
        "b",
        vec![
            ("bk", Column::from_i32(dev, b.keys.clone(), "bk")),
            ("bv", Column::from_i64(dev, b.vals.clone(), "bv")),
        ],
    ));
    c
}

/// Everything observable about a result table, row order included: the
/// table name plus, per column, its name, dtype label, and values.
type Snapshot = (String, Vec<(String, &'static str, Vec<i64>)>);

fn snapshot(t: &Table) -> Snapshot {
    (
        t.name().to_string(),
        t.columns()
            .iter()
            .map(|(n, c)| (n.clone(), c.dtype().label(), c.to_vec_i64()))
            .collect(),
    )
}

fn device() -> Device {
    Device::new(DeviceConfig::a100())
}

/// Run `plan` fused and unfused on a fresh device and demand byte identity.
fn assert_modes_agree(spec_a: &TableSpec, spec_b: &TableSpec, plan: &Plan) {
    let dev = device();
    let cat = catalog(&dev, spec_a, spec_b);
    let fused = execute(&dev, &cat, plan).unwrap();
    let unfused = execute_unfused(&dev, &cat, plan).unwrap();
    assert_eq!(
        snapshot(&fused.table),
        snapshot(&unfused.table),
        "fused and unfused runs must be byte-identical"
    );
}

/// The join shapes the ticket path must survive: inner carries both sides'
/// payloads, semi/anti drop the build side entirely, outer manufactures
/// unmatched rows whose deferred columns must gather as NULL sentinels.
fn join_kinds() -> impl Strategy<Value = JoinKind> {
    (0usize..4).prop_map(|i| {
        [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::Anti,
            JoinKind::Outer,
        ][i]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Filter/Project chains on both sides of every join kind, with a
    /// post-join filter.
    #[test]
    fn fused_plans_are_byte_identical_through_joins(
        a in table_strategy(90, 12),
        b in table_strategy(90, 12),
        t1 in -1000i64..1000,
        t2 in -1000i64..1000,
        kind in join_kinds(),
    ) {
        let left = Plan::scan("a")
            .filter(Expr::col("av").ge(Expr::lit(t1)))
            .project(vec![
                ("k", Expr::col("ak")),
                ("v3", Expr::col("av").mul(Expr::lit(3)).sub(Expr::lit(1))),
            ]);
        let right = Plan::scan("b").filter(Expr::col("bv").lt(Expr::lit(t2)));
        // Post-join, filter on the key: it is the one column every join
        // kind keeps (semi/anti drop the build side's payloads).
        let plan = left
            .join_kind(right, "k", "bk", kind)
            .filter(Expr::col("k").ne(Expr::lit(5)));
        assert_modes_agree(&a, &b, &plan);
    }

    /// Deferred inputs into every other materialization boundary:
    /// aggregation, sort-with-limit, and distinct.
    #[test]
    fn fused_plans_are_byte_identical_through_agg_sort_distinct(
        a in table_strategy(120, 16),
        t1 in -1000i64..1000,
        limit in 1usize..24,
    ) {
        let empty = TableSpec { keys: vec![], vals: vec![] };
        let chain = || {
            Plan::scan("a")
                .filter(Expr::col("av").ge(Expr::lit(t1)))
                .project(vec![
                    ("g", Expr::col("ak")),
                    ("x", Expr::col("av").add(Expr::lit(7))),
                ])
        };
        let agg = chain().aggregate(
            "g",
            vec![
                AggSpec::new(AggFn::Sum, "x", "sx"),
                AggSpec::new(AggFn::Count, "x", "n"),
            ],
        );
        let sort = chain().sort_by("x", true, Some(limit));
        let distinct = chain().distinct("g");
        for plan in [agg, sort, distinct] {
            assert_modes_agree(&a, &empty, &plan);
        }
    }
}

fn sum_tree(stats: &NodeStats, acc: &mut Counters) {
    *acc += &stats.op.counters;
    for child in &stats.children {
        sum_tree(child, acc);
    }
}

/// A 10%-selective Filter → Project → Join chain big enough for the
/// savings to be unambiguous.
fn selective_chain(dev: &Device) -> (Catalog, Plan) {
    let n = 20_000usize;
    let a = TableSpec {
        keys: (0..n).map(|i| (i as i32 * 17) % 997).collect(),
        vals: (0..n).map(|i| ((i as i64 * 31) % 1000) - 500).collect(),
    };
    let b = TableSpec {
        keys: (0..n).map(|i| (i as i32 * 13) % 997).collect(),
        vals: (0..n).map(|i| (i as i64 * 7) % 1000).collect(),
    };
    let cat = catalog(dev, &a, &b);
    // vals are uniform in [-500, 500): `av >= 400` keeps ~10% of rows; the
    // second filter (over the projected column) barely cuts further but
    // forces the unfused plan through a whole extra mask/compact/gather
    // round that the fused plan folds into the same evaluation.
    let plan = Plan::scan("a")
        .filter(Expr::col("av").ge(Expr::lit(400)))
        .project(vec![
            ("k", Expr::col("ak")),
            ("v2", Expr::col("av").mul(Expr::lit(2))),
        ])
        .filter(Expr::col("v2").lt(Expr::lit(998)))
        .join(Plan::scan("b"), "k", "bk");
    (cat, plan)
}

#[test]
fn counters_conserve_and_fusion_strictly_saves_work() {
    let dev = device();
    let (cat, plan) = selective_chain(&dev);
    let mut per_mode = Vec::new();
    for fused in [true, false] {
        let before = dev.counters();
        let out = if fused {
            execute(&dev, &cat, &plan).unwrap()
        } else {
            execute_unfused(&dev, &cat, &plan).unwrap()
        };
        let whole = dev.counters().delta_since(&before);
        let mut attributed = Counters::default();
        sum_tree(&out.stats, &mut attributed);
        // Fusion must not break EXPLAIN's accounting: every launch and
        // byte still lands in exactly one plan node, in both modes.
        assert_eq!(attributed.kernel_launches, whole.kernel_launches);
        assert_eq!(attributed.dram_read_bytes, whole.dram_read_bytes);
        assert_eq!(attributed.dram_write_bytes, whole.dram_write_bytes);
        assert_eq!(attributed.sectors_requested, whole.sectors_requested);
        assert_eq!(attributed.atomics, whole.atomics);
        per_mode.push((snapshot(&out.table), whole));
    }
    let (fused, unfused) = (&per_mode[0], &per_mode[1]);
    assert_eq!(fused.0, unfused.0);
    assert!(
        fused.1.kernel_launches < unfused.1.kernel_launches,
        "fusion must launch strictly fewer kernels ({} vs {})",
        fused.1.kernel_launches,
        unfused.1.kernel_launches
    );
    let fused_bytes = fused.1.dram_read_bytes + fused.1.dram_write_bytes;
    let unfused_bytes = unfused.1.dram_read_bytes + unfused.1.dram_write_bytes;
    assert!(
        fused_bytes < unfused_bytes,
        "late materialization must move strictly fewer DRAM bytes ({fused_bytes} vs {unfused_bytes})"
    );
}

fn find_fusions<'a>(stats: &'a NodeStats, out: &mut Vec<&'a NodeStats>) {
    if let Some(Provenance::Fusion(_)) = &stats.provenance {
        out.push(stats);
    }
    for child in &stats.children {
        find_fusions(child, out);
    }
}

#[test]
fn fusion_never_crosses_a_join() {
    // Filter+Project above the join and Filter chains below it: three
    // separate fused nodes, never one. The join's key columns are
    // evaluated to real values at the join boundary — the probe and build
    // kernels never see a ticket where a key belongs.
    let dev = device();
    let n = 4096usize;
    let a = TableSpec {
        keys: (0..n).map(|i| i as i32 % 61).collect(),
        vals: (0..n).map(|i| (i as i64 % 100) - 50).collect(),
    };
    let b = TableSpec {
        keys: (0..n).map(|i| (i as i32 * 3) % 61).collect(),
        vals: (0..n).map(|i| i as i64 % 100).collect(),
    };
    let cat = catalog(&dev, &a, &b);
    let plan = Plan::scan("a")
        .filter(Expr::col("av").ge(Expr::lit(0)))
        .join(
            Plan::scan("b").filter(Expr::col("bv").lt(Expr::lit(50))),
            "ak",
            "bk",
        )
        .filter(Expr::col("bv").ne(Expr::lit(3)))
        .project(vec![("out", Expr::col("av").add(Expr::col("bv")))]);
    let out = execute(&dev, &cat, &plan).unwrap();

    // Shape: the root is one fused Filter+Project whose only child is the
    // join; the join's children are the per-side fused filters.
    assert!(
        out.stats.label.starts_with("Fused(Filter+Project"),
        "root must fuse the post-join chain, got {:?}",
        out.stats.label
    );
    assert_eq!(out.stats.children.len(), 1);
    let join = &out.stats.children[0];
    assert!(
        join.label.contains("Join"),
        "fusion must stop at the join, got {:?}",
        join.label
    );
    assert_eq!(join.children.len(), 2);
    for side in &join.children {
        assert!(
            side.label.starts_with("Fused(Filter"),
            "each side below the join fuses separately, got {:?}",
            side.label
        );
    }

    let mut fusions = Vec::new();
    find_fusions(&out.stats, &mut fusions);
    assert_eq!(fusions.len(), 3, "exactly three independent fused runs");
    for node in fusions {
        let Some(Provenance::Fusion(f)) = &node.provenance else {
            unreachable!()
        };
        if node.label == out.stats.label {
            // The plan root materializes: GFUR at the top, by definition.
            assert!(f.materialized_here, "the root has no downstream consumer");
        } else {
            // Below the join the run defers — the boundary names the join
            // as the operator that forced materialization of keys.
            assert!(!f.materialized_here, "below-join runs flow as tickets");
            assert!(
                f.boundary.contains("Join"),
                "boundary must name the join, got {:?}",
                f.boundary
            );
            assert!(f.deferred_cols > 0, "the payload rides as tickets");
        }
    }

    // And the rewrite is still just a rewrite.
    let unfused = execute_unfused(&dev, &cat, &plan).unwrap();
    assert_eq!(snapshot(&out.table), snapshot(&unfused.table));
}

#[test]
fn every_scheduler_policy_returns_the_solo_fused_bytes() {
    let solo = {
        let dev = device();
        let (cat, plan) = selective_chain(&dev);
        snapshot(&execute(&dev, &cat, &plan).unwrap().table)
    };
    for policy in [Policy::Serial, Policy::RoundRobin, Policy::WeightedFair] {
        let dev = device();
        let (cat, plan) = selective_chain(&dev);
        let specs = vec![QuerySpec::new(plan.clone()), QuerySpec::new(plan)];
        let reports = engine::run_queries(&dev, &cat, specs, policy);
        for r in &reports {
            let out = match &r.result {
                Ok(out) => out,
                Err(_) => panic!("tenant query succeeds"),
            };
            assert_eq!(
                snapshot(&out.table),
                solo,
                "tenant result drifted from the solo run ({policy:?})"
            );
        }
    }
}
