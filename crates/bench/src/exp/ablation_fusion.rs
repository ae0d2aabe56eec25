//! Fusion ablation: the same Filter → Project → Join chain executed with
//! operator fusion and GFTR ticket materialization on (`engine::execute`)
//! and off (`engine::execute_unfused`), sweeping the filter's selectivity.
//!
//! The unfused plan materializes every intermediate: the filter gathers all
//! payload columns, the projection rewrites them, and the join carries the
//! full payload width through partitioning and materialization. The fused
//! plan evaluates the whole Filter+Project run as one predicate over the
//! base table, then flows a 4-byte row-ID ticket through the join and
//! gathers payloads from the base exactly once, at the output. The gap
//! between the two — DRAM bytes, cycles, kernel launches per selectivity —
//! is the paper's late-materialization argument measured end to end.

use crate::{Claim, Report, Session};
use columnar::Column;
use engine::{execute, execute_unfused, Catalog, Expr, Plan, Table};
use sim::Device;

/// Build-side table: an i32 join key, a uniform i32 selectivity column,
/// and six i64 payload columns that ride the ticket when fused. The wide
/// payload is the GFTR case: Figure 12's payload-column sweep shows the
/// materialization cost scaling with width, and this is where deferring it
/// pays.
fn build_catalog(dev: &Device, n: usize, key_range: i32) -> Catalog {
    let mix = |i: usize, m: u64| ((i as u64).wrapping_mul(m) >> 5) as i64;
    let mut cat = Catalog::new();
    let payload =
        |m: u64| -> Column { Column::from_i64(dev, (0..n).map(|i| mix(i, m)).collect(), "f_pay") };
    cat.insert(Table::new(
        "fact",
        vec![
            (
                "f_key",
                Column::from_i32(
                    dev,
                    (0..n)
                        .map(|i| (mix(i, 2654435761) % key_range as i64) as i32)
                        .collect(),
                    "f_key",
                ),
            ),
            (
                "f_sel",
                Column::from_i32(
                    dev,
                    (0..n)
                        .map(|i| (mix(i, 0x9e3779b97f4a7c15) % 1000) as i32)
                        .collect(),
                    "f_sel",
                ),
            ),
            ("f_a", payload(0xff51afd7ed558ccd)),
            ("f_b", payload(0xc4ceb9fe1a85ec53)),
            ("f_c", payload(0xd6e8feb86659fd93)),
            ("f_d", payload(0xa24baed4963ee407)),
            ("f_e", payload(0x9fb21c651e98df25)),
            ("f_f", payload(0x3c79ac492ba7b653)),
        ],
    ));
    cat.insert(Table::new(
        "dim",
        vec![
            (
                "d_key",
                Column::from_i32(dev, (0..key_range).collect(), "d_key"),
            ),
            (
                "d_val",
                Column::from_i64(dev, (0..key_range as i64).map(|i| i * 3).collect(), "d_val"),
            ),
        ],
    ));
    cat
}

/// The measured chain: filter the fact table to ~`sel_pct`% of its rows,
/// derive one computed column, pass the wide payloads through, then join
/// against the dimension table.
fn chain(threshold: i64) -> Plan {
    Plan::scan("fact")
        .filter(Expr::col("f_sel").lt(Expr::lit(threshold)))
        .project(vec![
            ("k", Expr::col("f_key")),
            ("score", Expr::col("f_a").add(Expr::col("f_b"))),
            ("pa", Expr::col("f_a")),
            ("pb", Expr::col("f_b")),
            ("pc", Expr::col("f_c")),
            ("pd", Expr::col("f_d")),
            ("pe", Expr::col("f_e")),
            ("pf", Expr::col("f_f")),
        ])
        .join(Plan::scan("dim"), "k", "d_key")
}

struct RunCost {
    dram_bytes: u64,
    cycles: f64,
    launches: u64,
    rows: usize,
}

fn measure(
    session: &mut Session,
    n: usize,
    key_range: i32,
    threshold: i64,
    fused: bool,
) -> RunCost {
    // Fresh device per run: the memory ledger and counters start clean.
    let dev = session.device();
    let cat = build_catalog(&dev, n, key_range);
    let plan = chain(threshold);
    let before = dev.counters();
    let out = if fused {
        execute(&dev, &cat, &plan)
    } else {
        execute_unfused(&dev, &cat, &plan)
    }
    .expect("ablation plan binds");
    let d = dev.counters().delta_since(&before);
    if fused && threshold == 100 && session.observing() {
        session.record_explain(
            "ablation_fusion fused chain (10% selectivity)",
            &engine::QueryExplain::from_stats(dev.config(), &out.stats),
        );
    }
    if !fused && threshold == 100 && session.observing() {
        session.record_explain(
            "ablation_fusion unfused chain (10% selectivity)",
            &engine::QueryExplain::from_stats(dev.config(), &out.stats),
        );
    }
    RunCost {
        dram_bytes: d.dram_read_bytes + d.dram_write_bytes,
        cycles: d.cycles,
        launches: d.kernel_launches,
        rows: out.table.num_rows(),
    }
}

/// Run the experiment.
pub fn run(session: &mut Session) -> Report {
    let mut report = Report::new(
        "ablation_fusion",
        "Operator fusion + GFTR tickets vs full materialization",
        session,
    );
    let n = session.tuples();
    let key_range = (n / 4).max(64) as i32;

    let mut at_ten = None;
    for sel_pct in [1u32, 5, 10, 25, 50, 90] {
        // f_sel is uniform over [0, 1000): the threshold IS the per-mille
        // selectivity.
        let threshold = (sel_pct * 10) as i64;
        let fused = measure(session, n, key_range, threshold, true);
        let unfused = measure(session, n, key_range, threshold, false);
        assert_eq!(
            fused.rows, unfused.rows,
            "fused and unfused plans must agree on the result"
        );
        let dram_saved = 100.0 * (1.0 - fused.dram_bytes as f64 / unfused.dram_bytes as f64);
        let cyc_saved = 100.0 * (1.0 - fused.cycles / unfused.cycles);
        report.push(serde_json::json!({
            "selectivity_pct": sel_pct,
            "rows_out": fused.rows,
            "fused_dram_bytes": fused.dram_bytes,
            "unfused_dram_bytes": unfused.dram_bytes,
            "dram_saved_pct": dram_saved,
            "fused_cycles": fused.cycles,
            "unfused_cycles": unfused.cycles,
            "cycles_saved_pct": cyc_saved,
            "fused_launches": fused.launches,
            "unfused_launches": unfused.launches,
        }));
        if sel_pct == 10 {
            at_ten = Some((dram_saved, cyc_saved, fused.launches, unfused.launches));
        }
    }

    let (dram_saved, cyc_saved, fl, ul) = at_ten.expect("sweep includes 10%");
    report.claim(Claim::new("dram_saved_pct_at_10", dram_saved).says(format!(
        "at 10% selectivity the fused Filter→Project→Join chain moves {dram_saved:.1}% \
         fewer DRAM bytes and spends {cyc_saved:.1}% fewer cycles than the fully \
         materialized plan, in {fl} kernel launches vs {ul}"
    )));
    assert!(
        dram_saved >= 20.0,
        "fusion must save at least 20% DRAM bytes at 10% selectivity (got {dram_saved:.1}%)"
    );
    assert!(
        fl < ul,
        "the fused plan must launch strictly fewer kernels ({fl} vs {ul})"
    );
    report
}
